"""Sphere-constrained first-order solvers with saddle escape.

Two update rules drive everything: the projected power step
P_sphere(-grad phi(q)) and the retracted gradient step
P_sphere(q - tau * rgrad phi(q)). The two coincide exactly at
tau = -1/(q^T grad phi(q)), which is positive because the objectives are
degree-4 homogeneous with negative values, so q^T grad phi = 4 phi < 0.
The solver treats them interchangeably behind one loop.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .cdl import Preconditioner
from .model import ObservationSet, SpherePoint, stream

__all__ = [
    "FixedStep",
    "Backtracking",
    "EscapeConfig",
    "SolveConfig",
    "SolveResult",
    "power_step",
    "rgd_step",
    "tangent_min_eig",
    "escape_saddle",
    "solve",
    "init_cdl",
]

STALL_WINDOW = 20
STALL_REL_TOL = 1e-15
MIN_BACKTRACK_TAU = 1e-16


@dataclass(frozen=True)
class FixedStep:
    """Constant stepsize policy for the gradient method."""

    tau: float

    def __post_init__(self) -> None:
        if self.tau <= 0.0:
            raise ValueError("stepsize must be positive")


@dataclass(frozen=True)
class Backtracking:
    """Armijo backtracking line search parameters."""

    alpha0: float = 1.0
    shrink: float = 0.5
    c1: float = 1e-4

    def __post_init__(self) -> None:
        if self.alpha0 <= 0.0:
            raise ValueError("initial stepsize must be positive")
        if not 0.0 < self.shrink < 1.0 or not 0.0 < self.c1 < 1.0:
            raise ValueError("shrink and c1 must lie in (0, 1)")


@dataclass(frozen=True)
class EscapeConfig:
    """Second-order escape settings: when to act and how far to move."""

    curv_tol: float = 1e-10
    step: float = 1e-2


@dataclass(frozen=True)
class SolveConfig:
    method: str = "power"
    max_iters: int = 10_000
    grad_tol: float = 1e-8
    step_policy: FixedStep | Backtracking = Backtracking()
    escape: EscapeConfig | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.method not in ("power", "rgd"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.grad_tol <= 0.0:
            raise ValueError("grad_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass(frozen=True)
class SolveResult:
    q_star: SpherePoint
    iterations: int
    final_grad_norm: float
    objective_trace: np.ndarray
    termination: str
    escapes_taken: int

    def to_json(self, include_trace: bool = False) -> str:
        payload = {
            "q_star": self.q_star.coords.tolist(),
            "iterations": self.iterations,
            "final_grad_norm": self.final_grad_norm,
            "termination": self.termination,
            "escapes_taken": self.escapes_taken,
        }
        if include_trace:
            payload["objective_trace"] = self.objective_trace.tolist()
        return json.dumps(payload)


def _power_point(q: SpherePoint, g: np.ndarray) -> SpherePoint:
    """P_sphere(-g) for the Euclidean gradient g at q; see power_step."""
    if not np.any(g):
        return q
    d = -g
    if float(d @ q.coords) < 0.0:
        d = -d
    return SpherePoint.project(d)


def power_step(obj, q: SpherePoint) -> SpherePoint:
    """One projected power update, P_sphere(-grad phi(q)).

    The output sign is chosen to maximize the inner product with the input,
    since phi is sign-invariant. An exactly critical input (zero gradient)
    is returned unchanged, same object, so callers can detect it by
    identity.
    """
    return _power_point(q, obj.grad(q))


def rgd_step(obj, q: SpherePoint, tau: float) -> SpherePoint:
    """One retracted gradient step with fixed stepsize tau > 0."""
    if tau <= 0.0:
        raise ValueError("stepsize must be positive")
    return SpherePoint.project(q.coords - tau * obj.rgrad(q))


def tangent_min_eig(matvec, q: np.ndarray, seed: int = 0, max_iters: int = 200,
                    tol: float = 1e-8) -> tuple[float, np.ndarray, bool]:
    """Smallest eigenpair of a symmetric operator on the tangent space at q.

    Lanczos with full reorthogonalization, started from a random tangent
    vector. `matvec` need not project its output onto the tangent space;
    that happens here. Returns (eigenvalue, unit eigenvector, converged);
    `converged` means the Ritz residual fell below `tol` or the Krylov
    space exhausted the tangent space.
    """
    q = np.asarray(q, dtype=float)
    n = q.size
    dim = n - 1
    if dim == 0:
        return 0.0, np.zeros(n), True

    def project(v: np.ndarray) -> np.ndarray:
        return v - q * float(q @ v)

    rng = stream(seed, "lanczos")
    v = project(rng.standard_normal(n))
    for _ in range(10):
        nv = float(np.linalg.norm(v))
        if nv > 1e-12:
            break
        v = project(rng.standard_normal(n))
    v /= np.linalg.norm(v)

    depth = min(max_iters, dim)
    V = np.empty((depth, n))
    V[0] = v
    alphas: list[float] = []
    betas: list[float] = []
    converged = False
    k = 0
    for k in range(depth):
        w = project(np.asarray(matvec(V[k]), dtype=float))
        a = float(V[k] @ w)
        alphas.append(a)
        w -= a * V[k]
        if betas:
            w -= betas[-1] * V[k - 1]
        w -= V[: k + 1].T @ (V[: k + 1] @ w)
        w = project(w)
        beta = float(np.linalg.norm(w))
        evals, evecs = scipy.linalg.eigh_tridiagonal(alphas, betas)
        resid = beta * abs(float(evecs[-1, 0]))
        if resid <= tol * max(1.0, abs(float(evals[0]))) or beta <= 1e-14:
            converged = True
            break
        if k + 1 == depth:
            converged = depth == dim
            break
        betas.append(beta)
        V[k + 1] = w / beta

    vec = V[: k + 1].T @ evecs[:, 0]
    vec = project(vec)
    nv = float(np.linalg.norm(vec))
    if nv > 0.0:
        vec /= nv
    return float(evals[0]), vec, converged


def escape_saddle(obj, q: SpherePoint, curv_tol: float, step: float,
                  seed: int = 0) -> SpherePoint | None:
    """Move off a strict saddle along the most negative curvature direction.

    Returns the better of P_sphere(q +- step * v) by objective value when
    the smallest tangent Hessian eigenvalue is below -curv_tol, and None
    when the point looks second-order (or the eigensolver fails, which is
    reported as a warning and treated conservatively).
    """
    x = q.coords
    lam, v, ok = tangent_min_eig(lambda u: obj.rhess_vec(x, u), x, seed=seed)
    if not ok:
        warnings.warn("tangent eigensolver did not converge; no escape taken",
                      stacklevel=2)
        return None
    if lam >= -curv_tol:
        return None
    plus = SpherePoint.project(x + step * v)
    minus = SpherePoint.project(x - step * v)
    return plus if obj.value(plus) <= obj.value(minus) else minus


def solve(obj, q0: SpherePoint, cfg: SolveConfig | None = None) -> SolveResult:
    """Run the configured method from q0 until a termination condition.

    Termination is one of "grad_tol" (first-order point, and second-order
    when escape is enabled), "max_iters", "stalled" (objective plateau or
    an exhausted line search), or "nonmonotone" (a power step raised the
    objective by more than rounding, or made it non-finite, which the
    update cannot do in exact arithmetic; the solve ends at the iterate
    before that step).

    `obj` provides evaluate(q) -> (value, Euclidean gradient), called once
    per iterate (once per trial point in a line search), plus value and
    rhess_vec when escape is enabled.
    """
    if cfg is None:
        cfg = SolveConfig()
    q = q0 if isinstance(q0, SpherePoint) else SpherePoint.project(np.asarray(q0, dtype=float))
    val, g = obj.evaluate(q)
    trace = [float(val)]
    iterations = 0
    escapes = 0
    termination = "max_iters"

    while True:
        x = q.coords
        rg = g - x * (x @ g)
        gn = float(np.linalg.norm(rg))
        if gn <= cfg.grad_tol:
            moved = None
            if cfg.escape is not None and iterations < cfg.max_iters:
                moved = escape_saddle(obj, q, cfg.escape.curv_tol,
                                      cfg.escape.step, seed=cfg.seed + escapes)
                if moved is not None:
                    val, g_moved = obj.evaluate(moved)
                    if val >= trace[-1]:
                        moved = None
            if moved is None:
                termination = "grad_tol"
                break
            q, g = moved, g_moved
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

        pol = cfg.step_policy
        if cfg.method == "power":
            cand = _power_point(q, g)
            val, g_cand = obj.evaluate(cand)
            if not val <= trace[-1] + 1e-12 * max(1.0, abs(trace[-1])):
                termination = "nonmonotone"
                break
        elif isinstance(pol, FixedStep):
            cand = SpherePoint.project(x - pol.tau * rg)
            val, g_cand = obj.evaluate(cand)
        else:
            tau = pol.alpha0
            while True:
                cand = SpherePoint.project(x - tau * rg)
                val, g_cand = obj.evaluate(cand)
                if val <= trace[-1] - pol.c1 * tau * gn * gn:
                    break
                tau *= pol.shrink
                if tau < MIN_BACKTRACK_TAU:
                    cand = None
                    break
            if cand is None:
                termination = "stalled"
                break
        q, g = cand, g_cand
        iterations += 1
        trace.append(float(val))

    return SolveResult(
        q_star=q,
        iterations=iterations,
        final_grad_norm=gn,
        objective_trace=np.array(trace),
        termination=termination,
        escapes_taken=escapes,
    )


def init_cdl(measurements: ObservationSet, P: Preconditioner,
             ell: int | None = None, seed: int = 0) -> SpherePoint:
    """Data-driven start: a preconditioned measurement, normalized.

    `ell` is a 0-based column index into the measurements; when omitted it
    is drawn uniformly with the given seed. A zero sample is an error, the
    caller should pick another index.
    """
    Y = measurements.entries
    p = Y.shape[1]
    if ell is None:
        ell = int(stream(seed, "init-draw").integers(p))
    if not 0 <= ell < p:
        raise ValueError(f"measurement index {ell} outside [0, {p})")
    v = P.apply(Y[:, ell])
    if float(np.linalg.norm(v)) == 0.0:
        raise ValueError(f"measurement {ell} is zero after preconditioning")
    return SpherePoint.project(v)
