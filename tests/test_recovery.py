import dataclasses

import numpy as np
import pytest

import sphere4.recovery as recovery
from sphere4.cdl import (
    ConvProblem,
    Preconditioner,
    build_preconditioner,
    circ_embed,
    synth_cdl,
)
from sphere4.model import (
    Dictionary,
    FilterBank,
    ObservationSet,
    SpherePoint,
    make_filter_bank,
    make_untf,
    sample_bg,
    stream,
    synth_odl,
)
from sphere4.objectives import OdlObjective, TensorObjective
from sphere4.optimize import SolveConfig, init_cdl, solve, solve_batch
from sphere4.recovery import (
    EPS_CDL,
    SUCCESS_THRESHOLD,
    TRIAL_CHUNK,
    DictionaryCoverage,
    RecoveryOutcome,
    align_shift,
    cdl_score,
    recover_filters,
    recover_full,
    recovery_error,
)

from oracles import measurement_start


def brute_force_align(a_est: np.ndarray, a_true: np.ndarray):
    u = a_est / np.linalg.norm(a_est)
    v = a_true / np.linalg.norm(a_true)
    best = None
    for shift in range(u.size):
        for sign in (1.0, -1.0):
            err = float(np.linalg.norm(sign * np.roll(v, shift) - u))
            if best is None or err < best[2] - 1e-15:
                best = (shift, sign, err)
    return best


# ---------------------------------------------------------------------------
# rho_e


def test_recovery_error_exact_column():
    D = make_untf(6, 9, seed=1)
    q = SpherePoint.project(D.entries[:, 0])
    out = recovery_error(q, D)
    assert out.rho_e <= 1e-15
    assert out.best_index == 0
    assert out.success


def test_recovery_error_negated_column():
    D = make_untf(6, 9, seed=2)
    q = SpherePoint.project(-D.entries[:, 1])
    out = recovery_error(q, D)
    assert out.rho_e <= 1e-12
    assert out.best_index == 1
    assert out.success


def test_recovery_error_uniform_point_fails():
    D = Dictionary(np.eye(3))
    out = recovery_error(SpherePoint.project(np.ones(3)), D)
    assert out.rho_e == pytest.approx(1.0 - 1.0 / np.sqrt(3.0), abs=1e-12)
    assert not out.success


def test_recovery_error_sign_symmetric():
    D = make_untf(5, 8, seed=3)
    rng = stream(3, "sign")
    for _ in range(20):
        q = SpherePoint.project(rng.standard_normal(5))
        neg = SpherePoint(-q.coords)
        assert recovery_error(q, D).rho_e == recovery_error(neg, D).rho_e


def test_recovery_error_permutation_invariant():
    D = make_untf(5, 8, seed=4)
    rng = stream(4, "perm")
    perm = rng.permutation(8)
    Dp = Dictionary(D.entries[:, perm])
    for _ in range(10):
        q = SpherePoint.project(rng.standard_normal(5))
        a, b = recovery_error(q, D), recovery_error(q, Dp)
        assert a.rho_e == pytest.approx(b.rho_e, abs=1e-15)
        assert perm[b.best_index] == a.best_index


def test_recovery_error_tie_goes_to_lowest_index():
    D = Dictionary(np.eye(3)[:, [0, 0, 1, 2]])
    out = recovery_error(SpherePoint(np.array([1.0, 0.0, 0.0])), D)
    assert out.best_index == 0
    assert out.rho_e == 0.0


def test_recovery_error_rejects_zero_column():
    A = np.eye(3)
    A[2, 2] = 0.0
    with pytest.raises(ValueError):
        recovery_error(SpherePoint(np.array([1.0, 0.0, 0.0])), Dictionary(A))


# ---------------------------------------------------------------------------
# full-dictionary coverage


def test_recover_full_single_column():
    D = Dictionary(np.array([[1.0]]))
    cov = recover_full(D, SolveConfig(), 5)
    assert cov.recovered == {0}
    assert cov.trials_used == 1


def test_recover_full_identity_stops_early():
    D = Dictionary(np.eye(4))
    cov = recover_full(D, SolveConfig(max_iters=5000, grad_tol=1e-10), 50)
    assert cov.recovered == frozenset(range(4))
    assert cov.trials_used < 50
    assert len(cov.per_trial) == cov.trials_used
    assert all(isinstance(o, RecoveryOutcome) for o in cov.per_trial)


def test_recover_full_smaller_budget_is_a_prefix():
    D = make_untf(6, 9, seed=5)
    cfg = SolveConfig(max_iters=10_000, grad_tol=1e-9)
    small = recover_full(D, cfg, 5, seed_base=11)
    large = recover_full(D, cfg, 15, seed_base=11)
    assert small.per_trial == large.per_trial[: small.trials_used]
    assert small.recovered <= large.recovered


def test_recover_full_validates_budget():
    D = Dictionary(np.eye(2))
    with pytest.raises(ValueError):
        recover_full(D, SolveConfig(), 0)
    # range() raised TypeError on 2.5, and True ran one trial
    for bad in (2.5, 3.0, np.float64(3), True, "3", None):
        with pytest.raises(ValueError, match="trial_budget"):
            recover_full(D, SolveConfig(), bad)


def test_recover_full_refuses_an_objective_of_another_n(monkeypatch):
    # refused before any start is drawn
    def no_draw(*args):
        raise AssertionError("a start was drawn")

    monkeypatch.setattr(recovery, "stream", no_draw)
    D = make_untf(4, 6, seed=3)
    for objective in (TensorObjective(make_untf(5, 6, seed=3)),
                      OdlObjective(synth_odl(make_untf(5, 6, seed=3),
                                             sample_bg(6, 50, 0.2, seed=4)), 0.2)):
        with pytest.raises(ValueError, match="objective has n=5, but D has n=4"):
            recover_full(D, SolveConfig(), 3, objective=objective)


def serial_log(D, cfg, budget, seed_base, objective=None):
    """recover_full's trial log as the loop that solved one trial at a
    time wrote it."""
    objective = objective or TensorObjective(D)
    outcomes, covered = [], set()
    for t in range(budget):
        q0 = SpherePoint.project(
            stream(seed_base + t, "trial-init").standard_normal(D.n))
        out = recovery_error(solve(objective, q0, cfg).q_star, D)
        outcomes.append(out)
        if out.success:
            covered.add(out.best_index)
            if len(covered) == D.m:
                break
    return tuple(outcomes)


@pytest.mark.parametrize("budget", [TRIAL_CHUNK - 1, TRIAL_CHUNK,
                                    TRIAL_CHUNK + 1, 2 * TRIAL_CHUNK + 3])
def test_recover_full_log_is_the_serial_loops_across_chunks(budget):
    D = make_untf(6, 9, seed=5)
    cfg = SolveConfig(max_iters=10_000, grad_tol=1e-9)
    cov = recover_full(D, cfg, budget, seed_base=11)
    assert cov.per_trial == serial_log(D, cfg, budget, 11)
    assert cov.trials_used == len(cov.per_trial)


@pytest.mark.parametrize("stop", [TRIAL_CHUNK - 1, TRIAL_CHUNK,
                                  TRIAL_CHUNK + 1])
def test_recover_full_stops_early_at_a_chunk_boundary(monkeypatch, stop):
    # on the identity a solve ends at a basis vector, so full coverage is a
    # coupon collector; find the first seed whose serial loop completes it
    # with trial `stop`, on either side of a chunk boundary
    D = Dictionary(np.eye(4))
    cfg = SolveConfig()
    seed_base = next(b for b in range(0, 100_000, 100)
                     if len(serial_log(D, cfg, 3 * TRIAL_CHUNK, b)) == stop)
    built = []
    monkeypatch.setattr(recovery, "SolveResult",
                        lambda *args: built.append(args))
    for budget in (stop, stop + 1, stop + TRIAL_CHUNK):
        built.clear()
        cov = recover_full(D, cfg, budget, seed_base=seed_base)
        assert cov.trials_used == stop
        assert cov.recovered == frozenset(range(4))
        assert cov.per_trial == serial_log(D, cfg, budget, seed_base)
        # the trials past the stop in its chunk build no result
        assert len(built) == stop


def solve_bits(res) -> tuple:
    return (res.q_star.coords.tobytes(), res.objective_trace.tobytes(),
            res.iterations, res.termination, res.escapes_taken,
            float(res.final_grad_norm).hex())


@pytest.mark.parametrize("D, budget, seed_base, stop", [
    (make_untf(6, 9, seed=5), 2 * TRIAL_CHUNK + 3, 11, 2 * TRIAL_CHUNK + 3),
    (Dictionary(np.eye(4)), 3 * TRIAL_CHUNK, 0, 7)],
    ids=["full-budget", "early-stop"])
def test_recover_full_returns_the_solves_of_its_trials(D, budget, seed_base,
                                                       stop):
    # one SolveResult per kept trial, in trial order, with the bits of
    # solve_batch's row on the same start; the early stop falls inside a
    # chunk, whose later trials are solved but not kept
    cfg = SolveConfig(max_iters=10_000, grad_tol=1e-9)
    cov = recover_full(D, cfg, budget, seed_base=seed_base)
    assert cov.trials_used == stop
    assert len(cov.solves) == cov.trials_used
    Q0 = np.stack([stream(seed_base + t, "trial-init").standard_normal(D.n)
                   for t in range(cov.trials_used)])
    batch = solve_batch(TensorObjective(D), Q0, cfg)
    assert [solve_bits(r) for r in cov.solves] == [solve_bits(r) for r in batch]
    assert cov.per_trial == tuple(recovery_error(r.q_star, D) for r in batch)


def test_recover_full_coupon_collector_harness(monkeypatch):
    # with a stubbed solve that returns the basis vector at argmax |q0|, a
    # column uniform over the m columns since the Gaussian start is
    # symmetric, the trial count to full coverage is the coupon-collector
    # variable whose mean and variance are exact
    m = 8
    D = Dictionary(np.eye(m))

    def stub(objective, X0, config):
        # the batch entry: end points and per-row SolveResult fields
        ends = np.eye(m)[np.argmax(np.abs(X0), axis=1)]
        return ends, [(0, 0.0, np.zeros(1), "grad_tol", 0)] * len(X0)

    monkeypatch.setattr(recovery, "_solve_stack", stub)
    reps = 50
    counts = []
    for rep in range(reps):
        cov = recover_full(D, None, 400, seed_base=10_000 * rep)
        assert cov.recovered == frozenset(range(m))
        counts.append(cov.trials_used)
    harmonic = sum(1.0 / k for k in range(1, m + 1))
    mean_expected = m * harmonic
    var_expected = sum((1.0 - (m - i) / m) / ((m - i) / m) ** 2 for i in range(m))
    se = np.sqrt(var_expected / reps)
    assert abs(np.mean(counts) - mean_expected) <= 3.0 * se


def test_recover_full_finite_sample_objective():
    # with enough samples the data-driven objective recovers every column;
    # at p an order of magnitude smaller, neighboring basins can swallow a
    # column entirely
    D = make_untf(8, 10, seed=6)
    Y = synth_odl(D, sample_bg(10, 10_000, 0.25, seed=7))
    cov = recover_full(D, SolveConfig(max_iters=20_000, grad_tol=1e-9), 80,
                       objective=OdlObjective(Y, 0.25))
    assert cov.recovered == frozenset(range(10))
    assert all(o.rho_e < SUCCESS_THRESHOLD for o in cov.per_trial if o.success)


# ---------------------------------------------------------------------------
# shift/sign alignment


def test_align_shift_recovers_pure_shift():
    a = stream(1, "align").standard_normal(16)
    a /= np.linalg.norm(a)
    shift, sign, err = align_shift(np.roll(a, 3), a)
    assert (shift, sign) == (3, 1.0)
    assert err <= 1e-12


def test_align_shift_recovers_negation():
    a = stream(2, "align").standard_normal(16)
    shift, sign, err = align_shift(-a, a)
    assert (shift, sign) == (0, -1.0)
    assert err <= 1e-12


def test_align_shift_matches_brute_force():
    rng = stream(3, "align-oracle")
    for _ in range(100):
        n = int(rng.integers(2, 24))
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        got = align_shift(u, v)
        want = brute_force_align(u, v)
        assert got[0] == want[0]
        assert got[1] == want[1]
        assert got[2] == pytest.approx(want[2], abs=1e-12)


def test_align_shift_invariant_under_joint_shift():
    rng = stream(4, "align-joint")
    u = rng.standard_normal(12)
    v = rng.standard_normal(12)
    base = align_shift(u, v)
    for s in (1, 5, 11):
        moved = align_shift(np.roll(u, s), np.roll(v, s))
        assert moved[0] == base[0]
        assert moved[1] == base[1]
        assert moved[2] == pytest.approx(base[2], abs=1e-12)


def test_align_shift_normalizes_scale():
    rng = stream(5, "align-scale")
    u = rng.standard_normal(10)
    v = rng.standard_normal(10)
    base = align_shift(u, v)
    assert align_shift(3.0 * u, 0.5 * v) == pytest.approx(base)
    flipped = align_shift(u, -2.0 * v)
    assert flipped[0] == base[0]
    assert flipped[1] == -base[1]
    assert flipped[2] == pytest.approx(base[2], abs=1e-12)


def test_align_shift_large_and_small_filters():
    # the norms overflowed at 1e200; scaling a filter by 2^k is exact, so
    # the alignment is the unscaled one bit for bit
    assert align_shift(np.full(4, 1e200), np.ones(4)) == (0, 1.0, 0.0)
    rng = stream(6, "align-scale")
    u, v = rng.standard_normal(10), rng.standard_normal(10)
    base = align_shift(u, v)
    for k in (-1000, -600, 600, 1000):
        assert align_shift(np.ldexp(u, k), v) == base
        assert align_shift(u, np.ldexp(v, k)) == base


def test_align_shift_length_mismatch():
    with pytest.raises(ValueError):
        align_shift(np.ones(4), np.ones(5))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.zeros(4), np.array([1.0, np.inf, 0, 0]),
                                 np.array([1.0, np.nan, 0, 0])],
                         ids=["zero", "inf", "nan"])
def test_align_shift_rejects_zero_or_non_finite_filter(bad):
    good = np.array([1.0, 2.0, 0.0, -1.0])
    for pair in ((bad, good), (good, bad)):
        with pytest.raises(ValueError, match="nonzero finite norm"):
            align_shift(*pair)


# ---------------------------------------------------------------------------
# filter recovery


def spike_code_problem(n: int, p: int, seed: int) -> ConvProblem:
    """Single-filter instance whose codes are lone spikes, so the empirical
    spectrum is exactly flat and the shifted filter is an exact maximizer."""
    delta = np.zeros((1, n))
    delta[0, 0] = 1.0
    bank = FilterBank(delta)
    rng = stream(seed, "spikes")
    codes = np.zeros((n, p))
    for i in range(p):
        g = float(rng.standard_normal())
        codes[int(rng.integers(n)), i] = g if g != 0.0 else 1.0
    Y = circ_embed(bank, codes)
    P = build_preconditioner(Y, 0.1, 1)
    return ConvProblem(Y, P, 0.1, filters=bank)


def test_recover_filters_exact_on_spike_codes():
    prob = spike_code_problem(16, 40, seed=4)
    assert np.ptp(prob.preconditioner.spectrum_weights) <= 1e-12
    fr = recover_filters(prob, SolveConfig(max_iters=5000, grad_tol=1e-12),
                         trial_budget=3)
    assert fr.recovered == {0}
    assert fr.trials_used == 1
    assert fr.aligned_errors[0] <= 1e-6
    assert 0 <= fr.shifts[0] < 16


def test_recover_filters_two_filters_within_budget():
    bank = make_filter_bank(32, 2, seed=3)
    prob = synth_cdl(bank, theta=0.1, p=4000, seed=3)
    fr = recover_filters(prob, SolveConfig(max_iters=20_000, grad_tol=1e-9),
                         trial_budget=20)
    assert fr.recovered == {0, 1}
    assert np.all(fr.aligned_errors <= EPS_CDL)
    assert fr.trials_used <= 20


def test_recover_filters_validates_budget():
    prob = spike_code_problem(8, 10, seed=1)
    for bad in (0, 2.5, 1.0, True, "3"):
        with pytest.raises(ValueError, match="trial_budget"):
            recover_filters(prob, trial_budget=bad)


def test_recover_filters_requires_ground_truth():
    prob = spike_code_problem(8, 10, seed=1)
    blind = ConvProblem(prob.measurements, prob.preconditioner, prob.theta)
    with pytest.raises(ValueError):
        recover_filters(blind)


def test_recover_filters_rejects_all_zero_measurements():
    prob = spike_code_problem(8, 10, seed=1)
    silent = ConvProblem(ObservationSet(np.zeros((8, 10))),
                         prob.preconditioner, prob.theta,
                         filters=prob.filters)
    with pytest.raises(ValueError, match="every measurement is zero"):
        recover_filters(silent)


def test_init_cdl_draws_only_nonzero_measurements():
    prob = spike_code_problem(8, 10, seed=1)
    Y = np.zeros((8, 10))
    Y[:, 6] = prob.measurements.entries[:, 6]
    lone = ConvProblem(ObservationSet(Y), prob.preconditioner, prob.theta,
                       filters=prob.filters)
    want = measurement_start(lone.measurements, lone.preconditioner, 6)
    for seed in range(5):
        got = init_cdl(lone, stream(seed, "lone-measurement"))
        assert np.array_equal(got.coords, want.coords)


def test_cdl_score_aligns_every_filter():
    bank = make_filter_bank(16, 2, seed=5)
    flat = Preconditioner(np.full(16, 2.0))
    prob = ConvProblem(ObservationSet(stream(6).standard_normal((16, 4))),
                       flat, 0.1, filters=bank)
    q = SpherePoint.project(-np.roll(bank.filters[1], 3))
    score = cdl_score(q, prob)
    assert score.trials_used == 1
    assert score.recovered == {1}
    assert (score.shifts[1], score.signs[1]) == (3, -1.0)
    assert score.aligned_errors[1] <= 1e-12
    shift, sign, err = align_shift(q.coords, bank.filters[0])
    assert (score.shifts[0], score.signs[0]) == (shift, sign)
    assert score.aligned_errors[0] == pytest.approx(err, abs=1e-12)


def test_recover_filters_reports_unrecovered():
    # two trials cannot recover three filters; on this instance neither
    # trial lands on any of them, so all stay missing and the budget is spent
    bank = make_filter_bank(16, 3, seed=2)
    prob = synth_cdl(bank, theta=0.1, p=300, seed=2)
    fr = recover_filters(prob, SolveConfig(max_iters=2000, grad_tol=1e-10),
                         trial_budget=2)
    assert fr.recovered == frozenset()
    assert fr.aligned_errors.shape == (3,)
    assert fr.trials_used == 2
    assert np.all(fr.aligned_errors > EPS_CDL)


def test_recover_filters_convention_invariant():
    bank = make_filter_bank(32, 2, seed=3)
    cfg = SolveConfig(max_iters=20_000, grad_tol=1e-11)
    fa = recover_filters(synth_cdl(bank, 0.1, 4000, seed=3, convention="main_text"),
                         cfg, trial_budget=20)
    fb = recover_filters(synth_cdl(bank, 0.1, 4000, seed=3, convention="appendix_h"),
                         cfg, trial_budget=20)
    assert fa.recovered == fb.recovered
    assert np.abs(fa.aligned_errors - fb.aligned_errors).max() <= 1e-6
    assert np.array_equal(fa.shifts, fb.shifts)


def test_coverage_and_outcome_are_frozen():
    out = RecoveryOutcome(0.0, 0)
    with pytest.raises(AttributeError):
        out.rho_e = 1.0
    cov = DictionaryCoverage((out,), ())
    with pytest.raises(AttributeError):
        cov.per_trial = ()
    with pytest.raises(AttributeError):
        cov.trials_used = 2
    # the records store what cannot be derived; the rest follows from it
    assert [f.name for f in dataclasses.fields(DictionaryCoverage)] == [
        "per_trial", "solves"]
    assert [f.name for f in dataclasses.fields(RecoveryOutcome)] == [
        "rho_e", "best_index"]
    assert (cov.recovered, cov.trials_used, out.success) == ({0}, 1, True)
