"""Reference implementations that the tests compare the package against.

The finite-difference quotients differentiate t -> phi(retract(q + t v)) at
t = 0 for a unit array q and a tangent array v. The projection retraction
agrees with the sphere exponential map to second order, so the first
quotient estimates <rgrad(q), v> and the second, for unit v,
v^T rhess(q) v.

The circulant oracles materialize what `cdl` only applies through FFTs,
and `expectation_gap` is the Monte-Carlo check of the normalizer that
makes the finite-sample objective comparable to its limit.
"""

from dataclasses import dataclass

import numpy as np

from sphere4.cdl import Preconditioner
from sphere4.model import Dictionary, FilterBank, retract, sample_bg, synth_odl
from sphere4.objectives import OdlObjective, _coords


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


def conv(a, b) -> np.ndarray:
    """Circular convolution of two equal-length real vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("conv needs equal-length vectors")
    n = a.shape[-1]
    return np.fft.irfft(np.fft.rfft(a) * np.fft.rfft(b), n=n)


@dataclass(frozen=True)
class CirculantOp:
    """The circulant matrix C_v with column j = s_j[v]; conv applies it."""

    generator: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.generator, dtype=float).reshape(-1)
        if g.size == 0 or not np.all(np.isfinite(g)):
            raise ValueError("generator must be a nonempty finite vector")
        g = g.copy()
        g.setflags(write=False)
        object.__setattr__(self, "generator", g)

    @property
    def n(self) -> int:
        return self.generator.size

    def dense(self) -> np.ndarray:
        i = np.arange(self.n)
        return self.generator[(i[:, None] - i) % self.n]


def effective_dictionary(bank: FilterBank, P: Preconditioner) -> Dictionary:
    """Materialize P A_0, the n x nK dictionary of preconditioned shifts.

    Column (k, j) is s_j[P a_k]; P commutes with the shifts so applying it
    to each filter once suffices.
    """
    cols = []
    for k in range(bank.K):
        cols.append(CirculantOp(P.apply(bank.filters[k])).dense())
    return Dictionary(np.hstack(cols))


def expectation_gap(
    D: Dictionary, theta: float, q, p: int, seed: int
) -> tuple[float, float]:
    """Monte-Carlo mean of the sample objective against its exact expectation.

    Draws X ~ BG(theta) of width p via sample_bg(D.m, p, theta, seed),
    forms Y = A X, and returns (mean of phi_sample over the draw, predicted
    expectation). With zeta = A^T q,

        E[phi_sample(q)] = -(1/4)||zeta||_4^4 - (theta/(4(1-theta))) ||zeta||_2^4

    which follows from E[(zeta^T x)^4] = 3 theta(1-theta)||zeta||_4^4
    + 3 theta^2 ||zeta||_2^4 for a Bernoulli-Gaussian x. For a unit-norm
    tight frame ||zeta||_2^4 = K^2 with K = m/n, so the correction term is
    theta/(4(1-theta)) * K^2.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    qv = _coords(q)
    X = sample_bg(D.m, p, theta, seed)
    Y = synth_odl(D, X)
    mc_mean = OdlObjective(Y, theta).value(qv)
    zeta = D.entries.T @ qv
    phi_t = -0.25 * float(np.sum(zeta**4))
    predicted = phi_t - theta / (4.0 * (1.0 - theta)) * float(np.sum(zeta**2)) ** 2
    return mc_mean, predicted
