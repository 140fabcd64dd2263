"""Reference implementations that the tests compare the package against.

The finite-difference quotients differentiate t -> phi(retract(q + t v)) at
t = 0 for a unit array q and a tangent array v. The projection retraction
agrees with the sphere exponential map to second order, so the first
quotient estimates <rgrad(q), v> and the second, for unit v,
v^T rhess(q) v.

The circulant oracles materialize what `cdl` only applies through FFTs,
`measurement_start` is the data start at an index the test chooses, and
`expectation_gap` is the Monte-Carlo check of the normalizer that makes
the finite-sample objective comparable to its limit.

`reference_solve` is the solver as it stood before its per-iterate call
became one bound kernel: the public `evaluate` path, with `@` on the
basis, and the power step through its own helper.
"""

import math
from dataclasses import dataclass

import numpy as np

from sphere4.cdl import CdlObjective, Preconditioner
from sphere4.model import (
    Dictionary,
    FilterBank,
    ObservationSet,
    SpherePoint,
    retract,
    sample_bg,
    synth_odl,
)
from sphere4.objectives import OdlObjective, _coords
from sphere4.optimize import (
    ESCAPE_CURV_TOL,
    ESCAPE_STEP,
    STALL_REL_TOL,
    STALL_WINDOW,
    SolveConfig,
    SolveResult,
)


def fd_directional(obj, q, v, h: float = 1e-5) -> float:
    """Central difference; the step default sits near the cube-root-epsilon
    optimum for first derivatives of 64-bit floats."""
    return (obj.evaluate(retract(q + h * v))[0]
            - obj.evaluate(retract(q - h * v))[0]) / (2 * h)


def fd_quadratic(obj, q, v, h: float = 1e-4) -> float:
    """Second central difference."""
    f0 = obj.evaluate(q)[0]
    fp = obj.evaluate(retract(q + h * v))[0]
    fm = obj.evaluate(retract(q - h * v))[0]
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


def measurement_start(measurements: ObservationSet, P: Preconditioner,
                      ell: int) -> SpherePoint:
    """The data start at a chosen index: measurement `ell` whitened by P,
    normalized, as init_cdl builds it from the index it draws."""
    return SpherePoint.project(P.apply(measurements.entries[:, ell]))


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
    mc_mean = OdlObjective(Y, theta).evaluate(qv)[0]
    zeta = D.entries.T @ qv
    phi_t = -0.25 * float(np.sum(zeta**4))
    predicted = phi_t - theta / (4.0 * (1.0 - theta)) * float(np.sum(zeta**2)) ** 2
    return mc_mean, predicted


def reference_evaluate(obj, q) -> tuple:
    """(value, Euclidean gradient) through the public passes: B^T q and B w
    as `@` products on `obj.basis`, or the FFT pair of a CdlObjective."""
    x = _coords(q)
    if isinstance(obj, CdlObjective):
        correlate, adjoint = obj.correlate, obj.adjoint
    else:
        correlate, adjoint = (lambda v: obj.basis.T @ v), (lambda w: obj.basis @ w)
    z = correlate(x)
    z2 = z * z
    return (-obj.c * float(np.vdot(z2, z2)),
            -4.0 * obj.c * adjoint(z2 * z))


def reference_escape(obj, q: SpherePoint) -> SpherePoint | None:
    """The saddle escape as it stood before it shared the solver's kernel:
    both candidates scored by the public `evaluate`, the better returned
    as a SpherePoint (plus on a tie), for the caller to evaluate again."""
    x = q.coords
    lam, v, ok = obj.curvature(x).min_eig()
    if not ok or lam >= -ESCAPE_CURV_TOL:
        return None
    plus = retract(x + ESCAPE_STEP * v)
    minus = retract(x - ESCAPE_STEP * v)
    better = obj.evaluate(plus)[0] <= obj.evaluate(minus)[0]
    return SpherePoint(plus if better else minus)


def _power_point(g, xg):
    return retract(g if xg > 0.0 else -g)


def reference_solve(obj, q0, cfg: SolveConfig) -> SolveResult:
    """The solve loop, line for line, as it read with `reference_evaluate`
    called once per iterate."""
    q = q0 if isinstance(q0, SpherePoint) else SpherePoint.project(np.asarray(q0, dtype=float))
    x = q.coords
    val, g = reference_evaluate(obj, x)
    trace = [float(val)]
    iterations = 0
    escapes = 0
    termination = "max_iters"
    grad_tol = cfg.grad_tol

    while True:
        xg = np.vdot(x, g)
        if not math.isfinite(xg):
            raise ValueError("cannot project a zero or non-finite vector")
        rg = g - x * xg
        gn = math.sqrt(rg.dot(rg))
        if gn <= grad_tol:
            moved = None
            if cfg.escape is not None and iterations < cfg.max_iters:
                q = q if x is q.coords else SpherePoint(x)
                moved = reference_escape(obj, q)
                if moved is not None:
                    val, g_moved = reference_evaluate(obj, moved)
                    if val >= trace[-1]:
                        moved = None
            if moved is None:
                termination = "grad_tol"
                break
            q, x, g = moved, moved.coords, g_moved
            escapes += 1
            iterations += 1
            trace.append(float(val))
            continue
        if iterations >= cfg.max_iters:
            termination = "max_iters"
            break
        if len(trace) > STALL_WINDOW:
            ref = trace[-1 - STALL_WINDOW]
            if abs(trace[-1] - ref) <= STALL_REL_TOL * max(1.0, abs(ref)):
                termination = "stalled"
                break

        cand = _power_point(g, xg)
        val, g_cand = reference_evaluate(obj, cand)
        if not val <= trace[-1] + 1e-12 * max(1.0, abs(trace[-1])):
            termination = "nonmonotone"
            break
        x, g = cand, g_cand
        iterations += 1
        trace.append(float(val))

    return SolveResult(
        q_star=q if x is q.coords else SpherePoint(x),
        iterations=iterations,
        final_grad_norm=gn,
        objective_trace=np.array(trace),
        termination=termination,
        escapes_taken=escapes,
    )
