"""Success metrics and repeated-trial recovery harnesses.

A single solve lands near one column at best, so recovering a whole
dictionary means running independent trials from fresh starts and
collecting which columns showed up. A convolutional trial starts from a
preconditioned measurement (optimize.init_cdl), and its solved direction
is unwound and aligned over each filter's shift/sign orbit (cdl_score).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cdl import CdlObjective, ConvProblem, deprecondition
from .model import Dictionary, SpherePoint, _is_int, _norm, retract, stream
from .objectives import TensorObjective, _coords
from .optimize import SolveConfig, SolveResult, _solve_stack, init_cdl, solve

__all__ = [
    "SUCCESS_THRESHOLD",
    "EPS_CDL",
    "TIE_TOL",
    "RecoveryOutcome",
    "DictionaryCoverage",
    "FilterRecovery",
    "recovery_error",
    "recover_full",
    "align_shift",
    "cdl_score",
    "recover_filters",
]

# success bar on rho_e for a single trial
SUCCESS_THRESHOLD = 5e-2

# operational bar on the aligned l2 error of a recovered filter
EPS_CDL = 0.1

# inner products this close to the best count as ties in recovery_error
TIE_TOL = 1e-12

# recover_full solves its trials as stacks of this many, in seed order
TRIAL_CHUNK = 8


@dataclass(frozen=True)
class RecoveryOutcome:
    """How close a solved direction came to the nearest column."""

    rho_e: float
    best_index: int

    @property
    def success(self) -> bool:
        return self.rho_e < SUCCESS_THRESHOLD


def _nearest_columns(D: Dictionary, Z: np.ndarray) -> tuple[list, list]:
    """For zeta, or each row zeta of a stack Z: max_i |zeta_i| / ||a_i||
    and the lowest index within TIE_TOL of it, as lists."""
    norms = D.column_norms
    if not norms.all():
        raise ValueError("recovery error needs nonzero columns")
    inners = np.abs(Z) / norms
    top = inners.max(axis=-1, keepdims=True)
    best = (inners >= top - TIE_TOL).argmax(axis=-1)
    return top.ravel().tolist(), best.ravel().tolist()


def _outcome(top: float, best: int) -> RecoveryOutcome:
    # rounding can push a unit inner product past 1; the metric lives in [0,1]
    return RecoveryOutcome(min(max(1.0 - top, 0.0), 1.0), best)


def recovery_error(q, D: Dictionary) -> RecoveryOutcome:
    """rho_e = 1 - max_i |<q, a_i/||a_i||>|, with the achieving index.

    Sign-symmetric by construction; a trial succeeds when rho_e is below
    SUCCESS_THRESHOLD. Ties within TIE_TOL of the best inner product
    resolve to the lowest column index so duplicated columns score stably.
    """
    (top,), (best,) = _nearest_columns(D, D.entries.T.dot(_coords(q)))
    return _outcome(top, best)


def _check_budget(trial_budget) -> None:
    # range() would raise TypeError on 2.5, and take True for 1
    if not (_is_int(trial_budget) and trial_budget >= 1):
        raise ValueError("trial_budget must be an integer of at least 1, "
                         f"got {trial_budget!r}")


@dataclass(frozen=True)
class DictionaryCoverage:
    """The trial log: each trial's outcome and, in the same order, its
    SolveResult. The recovered columns and the trial count follow from it."""

    per_trial: tuple
    solves: tuple

    @property
    def recovered(self) -> frozenset:
        """The columns that a successful trial landed nearest."""
        return frozenset(o.best_index for o in self.per_trial if o.success)

    @property
    def trials_used(self) -> int:
        return len(self.per_trial)


def recover_full(D: Dictionary, config: SolveConfig | None = None,
                 trial_budget: int = 1, *, objective=None,
                 seed_base: int = 0) -> DictionaryCoverage:
    """Run independent solves until every column was seen or budget is hit.

    Trial t solves from a Gaussian start drawn from seed seed_base + t, so
    results are reproducible and a smaller budget's trial log is a prefix
    of a larger one's. `objective` defaults to the asymptotic objective on
    D itself; pass a finite-sample objective to recover from data. An
    objective whose n is not D's raises ValueError before any trial.

    The trials run in seed order as stacks of TRIAL_CHUNK (the last one
    smaller), each solved as solve_batch does and scored with one stacked
    D^T product. The log stops at the first trial that completes the
    coverage, so it is the log of solving the trials one at a time: the
    rest of that chunk is dropped unseen. The coverage holds each kept
    trial's SolveResult, with the bits of solve_batch's row on its start.
    """
    _check_budget(trial_budget)
    if config is None:
        config = SolveConfig()
    if objective is None:
        objective = TensorObjective(D)
    elif getattr(objective, "n", D.n) != D.n:
        raise ValueError(f"the objective has n={objective.n}, but D has "
                         f"n={D.n}")

    outcomes: list[RecoveryOutcome] = []
    solves: list[SolveResult] = []
    covered: set = set()
    for first in range(0, trial_budget, TRIAL_CHUNK):
        trials = range(first, min(first + TRIAL_CHUNK, trial_budget))
        ends, rows = _solve_stack([objective] * len(trials), retract(np.stack([
            stream(seed_base + t, "trial-init").standard_normal(D.n)
            for t in trials])), config)
        # the stacked matmul runs per row the gemv of recovery_error's dot
        tops, best = _nearest_columns(
            D, np.matmul(D.entries.T, ends[:, :, None])[:, :, 0])
        for x, row, top, b in zip(ends, rows, tops, best):
            # each kept trial's SolveResult, then its outcome, in trial
            # order, as solving one trial at a time builds them
            solves.append(SolveResult(SpherePoint(x), *row))
            out = _outcome(top, b)
            outcomes.append(out)
            if out.success:
                covered.add(out.best_index)
                if len(covered) == D.m:
                    break
        if len(covered) == D.m:
            break
    return DictionaryCoverage(tuple(outcomes), tuple(solves))


def align_shift(a_est, a_true) -> tuple[int, float, float]:
    """Best (shift, sign) putting a_true's orbit onto a_est, with the error.

    Both inputs are normalized first, by model._norm. Minimizes
    || s * roll(a_true, l) - a_est || over l in {0..n-1}, s in {+-1}; the
    correlation over all shifts comes from one FFT pass. Ties go to the
    lowest shift. A filter of zero or non-finite norm has no orbit to align
    and raises ValueError.
    """
    u = np.asarray(a_est, dtype=float).reshape(-1)
    v = np.asarray(a_true, dtype=float).reshape(-1)
    if u.shape != v.shape:
        raise ValueError("filters must share a length")
    nu, nv = _norm(u), _norm(v)
    if not (0.0 < nu < np.inf and 0.0 < nv < np.inf):
        raise ValueError("filters must have a nonzero finite norm")
    u = u / nu
    v = v / nv
    corr = np.fft.irfft(np.fft.rfft(u) * np.conj(np.fft.rfft(v)), n=u.size)
    shift = int(np.argmax(np.abs(corr)))
    sign = 1.0 if corr[shift] >= 0.0 else -1.0
    error = float(np.linalg.norm(sign * np.roll(v, shift) - u))
    return shift, sign, error


@dataclass(frozen=True)
class FilterRecovery:
    """Best aligned match per true filter over all trials run."""

    aligned_errors: np.ndarray
    shifts: np.ndarray
    signs: np.ndarray
    trials_used: int

    @property
    def recovered(self) -> frozenset:
        """The filters whose aligned error is within EPS_CDL."""
        return frozenset(np.flatnonzero(self.aligned_errors <= EPS_CDL).tolist())


def cdl_score(q_star, problem: ConvProblem) -> FilterRecovery:
    """One trial's FilterRecovery: q_star with the whitening undone,
    aligned against every ground-truth filter in turn."""
    a_est = deprecondition(q_star, problem.preconditioner).coords
    shifts, signs, errors = zip(*(align_shift(a_est, f)
                                  for f in problem.filters.filters))
    return FilterRecovery(
        aligned_errors=np.array(errors),
        shifts=np.array(shifts),
        signs=np.array(signs),
        trials_used=1,
    )


def recover_filters(problem: ConvProblem, config: SolveConfig | None = None,
                    trial_budget: int | None = None, *,
                    seed_base: int = 0) -> FilterRecovery:
    """Repeated data-initialized solves, unwound and aligned per filter.

    Each trial starts from a preconditioned measurement (init_cdl), solves
    the convolutional objective, and is scored against every ground-truth
    filter (cdl_score); a filter counts recovered once its best aligned
    error drops to EPS_CDL. Stops early when all K filters are recovered.
    The default budget is 10 trials per filter.
    """
    if problem.filters is None:
        raise ValueError("filter recovery needs the ground-truth filters")
    if config is None:
        config = SolveConfig()
    K = problem.filters.K
    if trial_budget is None:
        trial_budget = 10 * K
    _check_budget(trial_budget)
    objective = CdlObjective(problem)

    best_err = np.full(K, np.inf)
    best_shift = np.zeros(K, dtype=int)
    best_sign = np.ones(K)
    trials = 0
    for t in range(trial_budget):
        q0 = init_cdl(problem, stream(seed_base + t, "trial-measurement"))
        trial = cdl_score(solve(objective, q0, config).q_star, problem)
        trials = t + 1
        better = trial.aligned_errors < best_err
        best_err[better] = trial.aligned_errors[better]
        best_shift[better] = trial.shifts[better]
        best_sign[better] = trial.signs[better]
        if bool(np.all(best_err <= EPS_CDL)):
            break
    return FilterRecovery(
        aligned_errors=best_err,
        shifts=best_shift,
        signs=best_sign,
        trials_used=trials,
    )
