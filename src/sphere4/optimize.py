"""Sphere-constrained first-order solvers with saddle escape.

Two update rules drive everything: the projected power step
P_sphere(-grad phi(q)) and the retracted gradient step
P_sphere(q - tau * rgrad phi(q)). The two coincide exactly at
tau = -1/(q^T grad phi(q)), which is positive because the objectives are
degree-4 homogeneous with negative values, so q^T grad phi = 4 phi < 0.
The solver treats them interchangeably behind one loop on plain arrays; it
builds a SpherePoint only for the start, the result and each escape attempt.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cdl import Preconditioner
from .model import ObservationSet, SpherePoint, retract
from .objectives import tangent_min_eig

__all__ = [
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
# rgd's Armijo line search: shrink tau from TAU0 until the value falls by
# C1 * tau * |rgrad|^2; below MIN_BACKTRACK_TAU the solve ends "stalled"
BACKTRACK_TAU0 = 1.0
BACKTRACK_SHRINK = 0.5
ARMIJO_C1 = 1e-4
MIN_BACKTRACK_TAU = 1e-16


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


def _power_point(g: np.ndarray, xg) -> np.ndarray:
    """P_sphere(-g), or P_sphere(g) when xg = x.g > 0; see power_step."""
    return retract(g if xg > 0.0 else -g)


def power_step(obj, q: SpherePoint) -> SpherePoint:
    """One projected power update, P_sphere(-grad phi(q)).

    The output sign is chosen to maximize the inner product with the input,
    since phi is sign-invariant. An exactly critical input (zero gradient)
    is returned unchanged, same object, so callers can detect it by
    identity.
    """
    g = obj.grad(q)
    return SpherePoint(_power_point(g, np.vdot(q.coords, g))) if np.any(g) else q


def rgd_step(obj, q: SpherePoint, tau: float) -> SpherePoint:
    """One retracted gradient step with fixed stepsize tau > 0."""
    if tau <= 0.0:
        raise ValueError("stepsize must be positive")
    return SpherePoint.project(q.coords - tau * obj.rgrad(q))


def escape_saddle(obj, q: SpherePoint, curv_tol: float, step: float,
                  seed: int = 0) -> SpherePoint | None:
    """Move off a strict saddle along the most negative curvature direction.

    Returns the better of P_sphere(q +- step * v) by objective value when
    the smallest tangent Hessian eigenvalue is below -curv_tol, and None
    when the point looks second-order (or the eigensolver fails, which is
    reported as a warning and treated conservatively).
    """
    x = q.coords
    lam, v, ok = obj.curvature(x).min_eig(seed)
    if not ok:
        warnings.warn("tangent eigensolver did not converge; no escape taken",
                      stacklevel=2)
        return None
    if lam >= -curv_tol:
        return None
    plus = retract(x + step * v)
    minus = retract(x - step * v)
    return SpherePoint(plus if obj.value(plus) <= obj.value(minus) else minus)


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
    curvature(q).min_eig when escape is enabled. A non-finite gradient
    raises ValueError.
    """
    if cfg is None:
        cfg = SolveConfig()
    q = q0 if isinstance(q0, SpherePoint) else SpherePoint.project(np.asarray(q0, dtype=float))
    x = q.coords
    val, g = obj.evaluate(x)
    trace = [float(val)]
    iterations = 0
    escapes = 0
    termination = "max_iters"
    power, grad_tol = cfg.method == "power", cfg.grad_tol

    while True:
        # any non-finite g makes x.g non-finite; vdot, unlike @, won't warn on 0*inf
        xg = np.vdot(x, g)
        if not math.isfinite(xg):
            raise ValueError("cannot project a zero or non-finite vector")
        rg = g - x * xg
        gn = math.sqrt(rg.dot(rg))
        if gn <= grad_tol:
            moved = None
            if cfg.escape is not None and iterations < cfg.max_iters:
                # a first-order point may be the result, so wrap it here
                q = q if x is q.coords else SpherePoint(x)
                moved = escape_saddle(obj, q, cfg.escape.curv_tol,
                                      cfg.escape.step, seed=cfg.seed + escapes)
                if moved is not None:
                    val, g_moved = obj.evaluate(moved)
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

        if power:
            cand = _power_point(g, xg)
            val, g_cand = obj.evaluate(cand)
            if not val <= trace[-1] + 1e-12 * max(1.0, abs(trace[-1])):
                termination = "nonmonotone"
                break
        else:
            tau = BACKTRACK_TAU0
            while True:
                cand = retract(x - tau * rg)
                val, g_cand = obj.evaluate(cand)
                if val <= trace[-1] - ARMIJO_C1 * tau * gn * gn:
                    break
                tau *= BACKTRACK_SHRINK
                if tau < MIN_BACKTRACK_TAU:
                    cand = None
                    break
            if cand is None:
                termination = "stalled"
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


def init_cdl(measurements: ObservationSet, P: Preconditioner,
             ell: int) -> SpherePoint:
    """Data-driven start: preconditioned measurement `ell`, normalized.

    `ell` is a 0-based column index into the measurements. A zero sample
    is an error; `recovery.cdl_start` draws among the nonzero ones.
    """
    Y = measurements.entries
    p = Y.shape[1]
    if not 0 <= ell < p:
        raise ValueError(f"measurement index {ell} outside [0, {p})")
    v = P.apply(Y[:, ell])
    if float(np.linalg.norm(v)) == 0.0:
        raise ValueError(f"measurement {ell} is zero after preconditioning")
    return SpherePoint.project(v)
