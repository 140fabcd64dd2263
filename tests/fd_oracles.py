"""Finite-difference oracles for the Riemannian calculus tests.

Both differentiate t -> phi(retract(q + t v)) at t = 0 for a unit array q
and a tangent array v. The projection retraction agrees with the sphere
exponential map to second order, so the first quotient estimates
<rgrad(q), v> and the second, for unit v, v^T rhess(q) v.
"""

from sphere4.model import retract


def fd_directional(obj, q, v, h: float = 1e-5) -> float:
    """Central difference; the step default sits near the cube-root-epsilon
    optimum for first derivatives of 64-bit floats."""
    return (obj.value(retract(q + h * v)) - obj.value(retract(q - h * v))) / (2 * h)


def fd_quadratic(obj, q, v, h: float = 1e-4) -> float:
    """Second central difference."""
    f0 = obj.value(q)
    fp = obj.value(retract(q + h * v))
    fm = obj.value(retract(q - h * v))
    return (fp - 2.0 * f0 + fm) / (h * h)
