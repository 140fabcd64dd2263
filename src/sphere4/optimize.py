"""Sphere-constrained first-order solver with saddle escape.

One update rule drives everything: the projected power step
P_sphere(-grad phi(q)). It is the retracted Riemannian gradient step
P_sphere(q - tau * rgrad phi(q)) at tau = -1/(q^T grad phi(q)), which is
positive because the objectives are degree-4 homogeneous with negative
values, so q^T grad phi = 4 phi < 0. Since ||B^T q||_4^4 is convex, the
step never raises phi in exact arithmetic, so it takes no line search.
power_step and rgd_step are the two steps on a SpherePoint. The solver
loop runs on plain arrays, over a stack of starts at once (solve_batch),
on one objective or on one objective per row, through the stacked
evaluate that `objectives` builds for those rows; a single solve is the
stack of one. It builds a SpherePoint only for the start and the result,
and its saddle escape scores both candidates with the same bound kernel.
"""

from __future__ import annotations

import math
import numbers
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .cdl import ConvProblem
from .model import SpherePoint, _exponent, _is_int, retract
from .objectives import _StackKernel, tangent_min_eig

__all__ = [
    "EscapeConfig",
    "SolveConfig",
    "SolveResult",
    "power_step",
    "rgd_step",
    "tangent_min_eig",
    "escape_saddle",
    "solve",
    "solve_batch",
    "init_cdl",
]

STALL_WINDOW = 20
STALL_REL_TOL = 1e-15
# saddle escape: act when the smallest tangent Hessian eigenvalue is below
# -ESCAPE_CURV_TOL, and move ESCAPE_STEP along its eigenvector
ESCAPE_CURV_TOL = 1e-10
ESCAPE_STEP = 1e-2


@dataclass(frozen=True)
class EscapeConfig:
    """Escape on: a solve that reaches a first-order point tries to leave
    it along negative curvature; see escape_saddle."""


@dataclass(frozen=True)
class SolveConfig:
    max_iters: int = 10_000
    grad_tol: float = 1e-8
    escape: EscapeConfig | None = None

    def __post_init__(self) -> None:
        # a bool is a Real, and numpy's bool is refused as not one
        if (not isinstance(self.grad_tol, numbers.Real)
                or isinstance(self.grad_tol, bool)
                or not 0.0 < self.grad_tol < math.inf):
            raise ValueError("grad_tol must be positive and finite")
        if not (_is_int(self.max_iters) and self.max_iters >= 1):
            raise ValueError("max_iters must be an integer of at least 1")
        # the loop tests `escape is not None`, so False would turn it on
        if not (self.escape is None or isinstance(self.escape, EscapeConfig)):
            raise ValueError("escape must be None or an EscapeConfig, got "
                             f"{self.escape!r}")


@dataclass(frozen=True)
class SolveResult:
    q_star: SpherePoint
    iterations: int
    final_grad_norm: float
    objective_trace: np.ndarray
    termination: str
    escapes_taken: int


def power_step(obj, q: SpherePoint) -> SpherePoint:
    """One projected power update, P_sphere(-grad phi(q)).

    The output sign is chosen to maximize the inner product with the input,
    since phi is sign-invariant. An exactly critical input (zero gradient)
    is returned unchanged, same object, so callers can detect it by
    identity.
    """
    g = obj.grad(q)
    if not np.any(g):
        return q
    return SpherePoint(retract(g if np.vdot(q.coords, g) > 0.0 else -g))


def rgd_step(obj, q: SpherePoint, tau: float) -> SpherePoint:
    """One retracted gradient step with fixed stepsize tau > 0."""
    if tau <= 0.0:
        raise ValueError("stepsize must be positive")
    return SpherePoint.project(q.coords - tau * obj.rgrad(q))


def escape_saddle(obj, x: np.ndarray,
                  evaluate) -> tuple[np.ndarray, float, np.ndarray] | None:
    """Move off a strict saddle along the most negative curvature direction.

    At unit x, when the smallest tangent Hessian eigenvalue is below
    -ESCAPE_CURV_TOL, scores retract(x +- ESCAPE_STEP * v) with `evaluate`
    (the solver's bound kernel) and returns the better side's (point,
    value, Euclidean gradient), plus on a tie. Returns None when x looks
    second-order, or when the eigensolver fails, which is reported as a
    warning and treated conservatively.
    """
    lam, v, ok = obj.curvature(x).min_eig()
    if not ok:
        warnings.warn("tangent eigensolver did not converge; no escape taken",
                      stacklevel=2)
        return None
    if lam >= -ESCAPE_CURV_TOL:
        return None
    plus = retract(x + ESCAPE_STEP * v)
    minus = retract(x - ESCAPE_STEP * v)
    val_plus, g_plus = evaluate(plus)
    val_minus, g_minus = evaluate(minus)
    if val_plus <= val_minus:
        return plus, val_plus, g_plus
    return minus, val_minus, g_minus


def solve(obj, q0: SpherePoint, cfg: SolveConfig | None = None) -> SolveResult:
    """Run power steps from q0 until a termination condition.

    Termination is one of "grad_tol" (first-order point, and second-order
    when escape is enabled), "max_iters", "stalled" (the objective has
    not moved over the last STALL_WINDOW steps), or "nonmonotone" (a power
    step raised the objective by more than rounding, or made it
    non-finite, which the update cannot do in exact arithmetic; the solve
    ends at the iterate before that step).

    `obj` provides evaluate(q) -> (value, Euclidean gradient), called once
    per iterate (twice per escape attempt), plus curvature(q).min_eig when
    escape is enabled. A package objective's `_evaluate`, the same call on
    the loop's plain unit arrays, is bound once in its place. An objective
    that states an n other than q0's, or a non-finite gradient, raises
    ValueError. This is solve_batch's loop run on a stack of one start.
    """
    if cfg is None:
        cfg = SolveConfig()
    q = q0 if isinstance(q0, SpherePoint) else SpherePoint.project(np.asarray(q0, dtype=float))
    ends, (row,) = _solve_stack([obj], q.coords[None], cfg)
    # row[0] counts the moves, so a solve that made none ends at q itself
    return SolveResult(q if row[0] == 0 else SpherePoint(ends[0]), *row)


def solve_batch(obj, Q0, cfg: SolveConfig) -> list:
    """solve from each row of the (T, n) array Q0, as one stack.

    `obj` is one objective for every row, or a list or tuple of T
    objectives, row i solving its own; each must have n = Q0.shape[1]
    where it states n. Each row is projected onto the sphere as
    SpherePoint.project does, and its SolveResult has the bits of solve
    from that point on its objective: the rows move as one stack through
    one stacked kernel, with every stopping test taken per row. A row that
    ends leaves the stack and the kernel. A non-finite gradient or a
    refused projection in any row raises ValueError, as it does in solve.
    """
    Q0 = np.array(Q0, dtype=float)
    if Q0.ndim != 2:
        raise ValueError(f"Q0 must be a 2-d stack of starts, got shape {Q0.shape}")
    T = len(Q0)
    objs = list(obj) if isinstance(obj, (list, tuple)) else [obj] * T
    if len(objs) != T:
        raise ValueError(f"{len(objs)} objectives for {T} starts")
    # each row scaled by 2^-e, exactly, as SpherePoint.project scales it
    ends, rows = _solve_stack(
        objs, retract(np.ldexp(Q0, -_exponent(Q0, axis=1)[:, None])), cfg)
    return [SolveResult(SpherePoint(x), *row) for x, row in zip(ends, rows)]


def _row_dots(A: np.ndarray, B: np.ndarray) -> tuple:
    """The dot of each row of A with the same row of B: as a (k, 1) column,
    or a scalar for one row, and as a list.

    vecdot takes for each row the dot of that row alone; one row takes the
    dot itself, which costs less.
    """
    if len(A) == 1:
        d = A[0].dot(B[0])
        return d, [float(d)]
    D = np.vecdot(A, B, keepdims=True)
    return D, D.ravel().tolist()


def _solve_stack(objs: list, X0: np.ndarray,
                 cfg: SolveConfig) -> tuple[np.ndarray, list]:
    """The solver loop, run from each unit row of the (T, n) stack X0, row
    i on the objective objs[i].

    Returns the end points as a (T, n) array and, per row, the SolveResult
    fields after q_star: (iterations, final_grad_norm, objective_trace,
    termination, escapes_taken). The live rows move as one stack, and each
    of solve's tests is taken per row, so a row ends as it would alone and
    then leaves the stack. The rows that step take one power step as a
    stack; an escape runs per row. One objectives._StackKernel, built
    here, evaluates the live rows and is taken along with them. An
    objective whose n, where it states one, is not the rows' raises
    ValueError before any evaluation, and so do a basis objective whose
    kernel bound, squared, would overflow and a cfg that is not a
    SolveConfig.
    """
    # solve, solve_batch and recover_full all pass through here
    if not isinstance(cfg, SolveConfig):
        raise ValueError(f"config must be a SolveConfig, got {cfg!r}")
    X = np.array(X0, dtype=float)  # owned: an escape writes its row in place
    T, n = X.shape
    for o in objs:
        if getattr(o, "n", n) != n:
            raise ValueError(f"an objective has n={o.n}, but the starts "
                             f"have n={n}")
        # the loop squares the gradient, whose norm the kernel bound bounds
        if getattr(o, "_kernel_bound", 0.0) > math.sqrt(sys.float_info.max):
            raise ValueError("basis too large: the squared gradient norm "
                             "overflows")
    ends = np.empty_like(X)
    rows = [None] * T
    if not T:
        return ends, rows
    kernel = _StackKernel(objs)
    vals, G = kernel(X)
    slots = list(range(T))  # the output row of each stacked row
    # a row's trace gains one value per move, so it holds iterations + 1
    traces = [[float(val)] for val in vals]
    escapes = [0] * T
    grad_tol, max_iters = cfg.grad_tol, cfg.max_iters

    def finish(i, gn, termination):
        ends[slots[i]] = X[i]
        trace = traces[i]
        rows[slots[i]] = (len(trace) - 1, gn, np.array(trace), termination,
                          escapes[i])
        done.append(i)

    # any non-finite g makes x.g non-finite, which is refused below; the
    # ufunc vecdot, unlike dot, would also warn on 0*inf
    with np.errstate(invalid="ignore"):
        while slots:
            done = []
            XG, xgs = _row_dots(X, G)
            RG = G - X * XG
            gn2s = _row_dots(RG, RG)[1]
            step, flips = [], []
            for i, (xg, gn2) in enumerate(zip(xgs, gn2s)):
                if not math.isfinite(xg):
                    raise ValueError("cannot project a zero or non-finite vector")
                gn = math.sqrt(gn2)
                trace = traces[i]
                if gn <= grad_tol:
                    moved = None
                    if cfg.escape is not None and len(trace) <= max_iters:
                        moved = escape_saddle(kernel.objs[i], X[i],
                                              kernel.evaluates[i])
                    if moved is None or moved[1] >= trace[-1]:
                        finish(i, gn, "grad_tol")
                        continue
                    X[i], val, G[i] = moved
                    escapes[i] += 1
                    trace.append(float(val))
                    continue
                if len(trace) > max_iters:
                    finish(i, gn, "max_iters")
                    continue
                if len(trace) > STALL_WINDOW:
                    ref = trace[-1 - STALL_WINDOW]
                    if abs(trace[-1] - ref) <= STALL_REL_TOL * max(1.0, abs(ref)):
                        finish(i, gn, "stalled")
                        continue
                if xg > 0.0:
                    flips.append(len(step))
                step.append(i)

            if step:
                # P_sphere(-g), or P_sphere(g) when x.g > 0; see power_step
                whole = len(step) == len(X)
                V = -G if whole else -G[step]
                for j in flips:
                    V[j] = -V[j]
                C = retract(V)
                vals, GC = kernel.take(step)(C)
                for i, val in zip(step, vals):
                    last = traces[i][-1]
                    if val <= last + 1e-12 * max(1.0, abs(last)):
                        traces[i].append(val)
                    else:
                        finish(i, math.sqrt(gn2s[i]), "nonmonotone")
                # a row that ended here leaves the stack below, so its
                # candidate may land in its place
                if whole:
                    X, G = C, GC
                else:
                    X[step] = C
                    G[step] = GC

            if len(done) == len(X):
                break
            if done:
                keep = [i for i in range(len(X)) if i not in done]
                X, G = X[keep], G[keep]
                slots = [slots[i] for i in keep]
                traces = [traces[i] for i in keep]
                escapes = [escapes[i] for i in keep]
                kernel = kernel.take(keep)
    return ends, rows


def init_cdl(problem: ConvProblem, rng: np.random.Generator) -> SpherePoint:
    """Data-driven start: a preconditioned measurement drawn from `rng`,
    normalized.

    Sparse codes leave some measurements all-zero; only the rest can seed
    a trial, so one `rng.integers` call draws the index uniformly among
    them. A problem whose measurements are all zero, or whose drawn one
    is zero after preconditioning, raises ValueError.
    """
    Y = problem.measurements.entries
    usable = np.flatnonzero(np.linalg.norm(Y, axis=0) > 0.0)
    if usable.size == 0:
        raise ValueError("every measurement is zero")
    ell = int(usable[rng.integers(usable.size)])
    v = problem.preconditioner.apply(Y[:, ell])
    if float(np.linalg.norm(v)) == 0.0:
        raise ValueError(f"measurement {ell} is zero after preconditioning")
    return SpherePoint.project(v)
