"""Success metrics and repeated-trial recovery harnesses.

A single solve lands near one column at best, so recovering a whole
dictionary means running independent trials from fresh starts and
collecting which columns showed up. For the convolutional model the
solved direction is additionally unwound through the preconditioner and
aligned over the shift/sign orbit before scoring.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cdl import CdlObjective, ConvProblem, deprecondition
from .model import Dictionary, SpherePoint, stream
from .objectives import _coords
from .optimize import SolveConfig, init_cdl, solve

__all__ = [
    "SUCCESS_THRESHOLD",
    "EPS_CDL",
    "RecoveryOutcome",
    "DictionaryCoverage",
    "FilterRecovery",
    "recovery_error",
    "recover_full",
    "align_shift",
    "recover_filters",
]

# success bar on rho_e for a single trial
SUCCESS_THRESHOLD = 5e-2

# operational bar on the aligned l2 error of a recovered filter
EPS_CDL = 0.1


@dataclass(frozen=True)
class RecoveryOutcome:
    """How close a solved direction came to the nearest column."""

    rho_e: float
    best_index: int
    success: bool


def recovery_error(q, D: Dictionary,
                   threshold: float = SUCCESS_THRESHOLD,
                   tie_tol: float = 1e-12) -> RecoveryOutcome:
    """rho_e = 1 - max_i |<q, a_i/||a_i||>|, with the achieving index.

    Sign-symmetric by construction. Ties within tie_tol of the best inner
    product resolve to the lowest column index so duplicated columns score
    stably.
    """
    x = _coords(q)
    norms = np.linalg.norm(D.entries, axis=0)
    if np.any(norms == 0.0):
        raise ValueError("recovery error needs nonzero columns")
    inners = np.abs(D.entries.T @ x) / norms
    top = float(np.max(inners))
    best = int(np.argmax(inners >= top - tie_tol))
    # rounding can push a unit inner product past 1; the metric lives in [0,1]
    rho = min(max(1.0 - top, 0.0), 1.0)
    return RecoveryOutcome(rho_e=rho, best_index=best, success=rho < threshold)


@dataclass(frozen=True)
class DictionaryCoverage:
    """Union of columns hit by successful trials, plus the full trial log."""

    recovered: frozenset
    trials_used: int
    per_trial: tuple

    def csv_rows(self, seed_base: int = 0) -> list:
        rows = []
        seen: set = set()
        for t, out in enumerate(self.per_trial):
            if out.success:
                seen.add(out.best_index)
            rows.append((t, seed_base + t, out.rho_e, out.best_index,
                         out.success, len(seen)))
        return rows


def _default_trial(objective, D: Dictionary, config: SolveConfig, seed: int):
    q0 = SpherePoint.project(stream(seed, "trial-init").standard_normal(D.n))
    return solve(objective, q0, config).q_star


def recover_full(D: Dictionary, config: SolveConfig | None = None,
                 trial_budget: int = 1, *, objective=None, seed_base: int = 0,
                 threshold: float = SUCCESS_THRESHOLD, tie_tol: float = 1e-12,
                 parallelism: int | None = None,
                 trial_fn=None) -> DictionaryCoverage:
    """Run independent solves until every column was seen or budget is hit.

    Trial t is seeded seed_base + t, so results are reproducible and a
    smaller budget's trial log is a prefix of a larger one's. `objective`
    defaults to the asymptotic objective on D itself; pass a finite-sample
    objective to recover from data. `trial_fn(seed) -> point` replaces the
    whole solve when supplied (the test harness uses this). `parallelism`
    runs trials in waves of that many threads; coverage is checked between
    waves, so early stopping is wave-granular there.
    """
    if trial_budget < 1:
        raise ValueError("trial_budget must be at least 1")
    if config is None:
        config = SolveConfig()
    if objective is None:
        from .objectives import TensorObjective

        objective = TensorObjective(D)
    if trial_fn is None:
        def trial_fn(seed: int):
            return _default_trial(objective, D, config, seed)

    def run_one(t: int) -> RecoveryOutcome:
        q = trial_fn(seed_base + t)
        return recovery_error(q, D, threshold=threshold, tie_tol=tie_tol)

    m = D.m
    outcomes: list[RecoveryOutcome] = []
    covered: set = set()
    if parallelism is None or parallelism <= 1:
        for t in range(trial_budget):
            out = run_one(t)
            outcomes.append(out)
            if out.success:
                covered.add(out.best_index)
            if len(covered) == m:
                break
    else:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            t = 0
            while t < trial_budget and len(covered) < m:
                wave = range(t, min(t + parallelism, trial_budget))
                for out in pool.map(run_one, wave):
                    outcomes.append(out)
                    if out.success:
                        covered.add(out.best_index)
                t = wave.stop
    return DictionaryCoverage(
        recovered=frozenset(covered),
        trials_used=len(outcomes),
        per_trial=tuple(outcomes),
    )


def align_shift(a_est, a_true) -> tuple[int, float, float]:
    """Best (shift, sign) putting a_true's orbit onto a_est, with the error.

    Both inputs are normalized first. Minimizes
    || s * roll(a_true, l) - a_est || over l in {0..n-1}, s in {+-1}; the
    correlation over all shifts comes from one FFT pass. Ties go to the
    lowest shift.
    """
    u = np.asarray(a_est, dtype=float).reshape(-1)
    v = np.asarray(a_true, dtype=float).reshape(-1)
    if u.shape != v.shape:
        raise ValueError("filters must share a length")
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
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
    recovered: frozenset
    trials_used: int

    @property
    def missing(self) -> tuple:
        return tuple(k for k in range(len(self.aligned_errors))
                     if k not in self.recovered)

    def csv_rows(self) -> list:
        return [(k, int(self.shifts[k]), float(self.signs[k]),
                 float(self.aligned_errors[k]), k in self.recovered)
                for k in range(len(self.aligned_errors))]


def recover_filters(problem: ConvProblem, config: SolveConfig | None = None,
                    trial_budget: int | None = None, *, seed_base: int = 0,
                    eps_cdl: float = EPS_CDL) -> FilterRecovery:
    """Repeated data-initialized solves, unwound and aligned per filter.

    Each trial starts from a preconditioned measurement, solves the
    convolutional objective, undoes the whitening, and aligns the result
    against every ground-truth filter; a filter counts recovered once its
    best aligned error drops to eps_cdl. Stops early when all K filters
    are recovered. The default budget is 10 trials per filter.
    """
    if problem.filters is None:
        raise ValueError("filter recovery needs the ground-truth filters")
    if config is None:
        config = SolveConfig()
    K = problem.K
    if trial_budget is None:
        trial_budget = 10 * K
    if trial_budget < 1:
        raise ValueError("trial_budget must be at least 1")
    objective = CdlObjective.from_problem(problem)
    truth = problem.filters.filters
    # sparse codes leave some measurements all-zero; only the rest can seed
    # a trial
    usable = np.flatnonzero(np.linalg.norm(problem.measurements.entries,
                                           axis=0) > 0.0)
    if usable.size == 0:
        raise ValueError("every measurement is zero")

    best_err = np.full(K, np.inf)
    best_shift = np.zeros(K, dtype=int)
    best_sign = np.ones(K)
    trials = 0
    for t in range(trial_budget):
        draw = stream(seed_base + t, "trial-measurement").integers(usable.size)
        q0 = init_cdl(problem.measurements, problem.preconditioner,
                      ell=int(usable[draw]))
        res = solve(objective, q0, config)
        a_est = deprecondition(res.q_star, problem.preconditioner).coords
        trials = t + 1
        for k in range(K):
            shift, sign, err = align_shift(a_est, truth[k])
            if err < best_err[k]:
                best_err[k] = err
                best_shift[k] = shift
                best_sign[k] = sign
        if bool(np.all(best_err <= eps_cdl)):
            break
    recovered = frozenset(int(k) for k in range(K) if best_err[k] <= eps_cdl)
    return FilterRecovery(
        aligned_errors=best_err,
        shifts=best_shift,
        signs=best_sign,
        recovered=recovered,
        trials_used=trials,
    )
