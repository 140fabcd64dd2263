"""Desk-scale acceptance gates for the whole package.

Each test pins one advertised behavior end to end, with explicit success
bars and (where speed is part of the contract) wall-clock budgets. Two of
the gates encode scaling targets that this implementation is known to
miss, the recovery-rate transition across aspect ratios and full column
coverage under a log-factor trial budget; both fail for a real reason
(spurious two-column mixtures at high overcompleteness) and are kept
failing rather than loosened. Everything here runs on a laptop in about
two minutes.
"""

import math
import time

import numpy as np
import pytest

from sphere4 import (
    CdlObjective,
    ObservationSet,
    OdlObjective,
    SolveConfig,
    SpherePoint,
    TensorObjective,
    build_preconditioner,
    cubic_root_intervals,
    make_filter_bank,
    make_untf,
    power_step,
    recover_filters,
    recover_full,
    recovery_error,
    retract,
    rgd_step,
    sample_bg,
    solve,
    solve_batch,
    stream,
    synth_cdl,
    synth_odl,
)
from sphere4.landscape import CLASS_NEAR_SOLUTION, critical_point_report
from sphere4.model import _untf_stack
from sphere4.optimize import EscapeConfig

from oracles import (
    CirculantOp,
    conv,
    effective_dictionary,
    expectation_gap,
    measurement_start,
)


def unit(rng, n: int) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def tangent(rng, x: np.ndarray) -> np.ndarray:
    v = rng.standard_normal(x.size)
    v -= float(v @ x) * x
    return v / np.linalg.norm(v)


def test_small_instance_recovery_rate_and_speed():
    D = make_untf(3, 4, seed=0)
    Y = synth_odl(D, sample_bg(4, 20_000, 0.1, seed=0))
    obj = OdlObjective(Y, 0.1)
    rng = stream(0, "recovery-inits")
    times = []
    wins = 0
    for _ in range(50):
        q0 = SpherePoint.project(rng.standard_normal(3))
        t0 = time.perf_counter()
        res = solve(obj, q0)
        times.append(time.perf_counter() - t0)
        wins += recovery_error(res.q_star, D).success
    assert wins >= 45, f"only {wins}/50 runs landed within 5e-2 of a column"
    assert float(np.median(times)) < 1.0


def test_sample_mean_tracks_population_objective():
    t0 = time.perf_counter()
    D = make_untf(3, 4, seed=2)
    theta, p = 0.1, 100_000
    for i in range(5):
        q = unit(stream(i, "expectation-probe"), 3)
        mc, predicted = expectation_gap(D, theta, q, p, seed=100 + i)
        # rebuild the same draw to attach a standard error to the mean
        Y = synth_odl(D, sample_bg(4, p, theta, seed=100 + i))
        per = -((Y.entries.T @ q) ** 4) / (12.0 * theta * (1.0 - theta))
        assert per.mean() == pytest.approx(mc, rel=1e-12)
        se = float(per.std(ddof=1)) / math.sqrt(p)
        assert abs(mc - predicted) <= 4.0 * se, (i, mc, predicted, se)
    assert time.perf_counter() - t0 < 10.0


def test_riemannian_calculus_against_finite_differences():
    for i in range(100):
        rng = stream(i, "calculus-check")
        n = int(rng.integers(3, 33))
        m = n + int(rng.integers(0, n + 1))
        obj = TensorObjective(make_untf(n, m, seed=i))
        x = unit(rng, n)
        g = obj.rgrad(x)
        for _ in range(2):
            v = tangent(rng, x)
            fd = (obj.evaluate(retract(x + 1e-5 * v))[0]
                  - obj.evaluate(retract(x - 1e-5 * v))[0]) / 2e-5
            assert fd == pytest.approx(float(g @ v), rel=1e-6, abs=1e-9)
            quad = float(v @ obj.curvature(x).matvec(v))
            h = 1e-4
            fd2 = (obj.evaluate(retract(x + h * v))[0] - 2.0 * obj.evaluate(x)[0]
                   + obj.evaluate(retract(x - h * v))[0]) / (h * h)
            assert fd2 == pytest.approx(quad, rel=1e-4, abs=1e-6)
        assert abs(float(g @ x)) <= 1e-12 * max(1.0, float(np.linalg.norm(g)))
        assert float(np.linalg.norm(obj.curvature(x).matvec(x))) <= 1e-12


def test_fft_path_agrees_with_dense_circulant():
    for i in range(50):
        rng = stream(i, "fft-against-dense")
        n = int(rng.integers(4, 65))
        K = int(rng.integers(1, 5))
        p = int(rng.integers(1, 17))
        theta = float(rng.uniform(0.1, 0.4))
        prob = synth_cdl(make_filter_bank(n, K, seed=i), theta, p, seed=i)
        obj = CdlObjective(prob)
        q = unit(rng, n)
        M = np.hstack([
            CirculantOp(prob.preconditioner.apply(col)).dense()
            for col in prob.measurements.entries.T
        ])
        c = 1.0 / (12.0 * theta * (1.0 - theta) * n * p)
        z = M.T @ q
        v_dense = -c * float(np.sum(z**4))
        assert obj.evaluate(q)[0] == pytest.approx(v_dense, rel=1e-10)
        g = -4.0 * c * (M @ z**3)
        g_dense = g - float(g @ q) * q
        assert np.linalg.norm(obj.rgrad(q) - g_dense) <= \
            1e-10 * np.linalg.norm(g_dense)
    for i in range(20):
        rng = stream(i, "conv-theorem")
        n = int(rng.integers(2, 65))
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        direct = np.array([
            sum(a[j] * b[(k - j) % n] for j in range(n)) for k in range(n)
        ])
        assert np.abs(conv(a, b) - direct).max() <= 1e-12 * max(
            1.0, np.abs(direct).max())


def test_root_intervals_capture_bisection_roots():
    rng = stream(0, "cubic-draws")
    B = 10_000
    alpha = np.exp(rng.uniform(np.log(0.05), np.log(50.0), size=B))
    mag = rng.uniform(1e-9, 1.0 - 1e-9, size=B)
    beta = np.where(rng.uniform(size=B) < 0.5, -1.0, 1.0) * mag * alpha**1.5 / 4.0
    t = np.linspace(-2.2, 2.2, 221)
    for start in range(0, B, 2000):
        a = alpha[start:start + 2000, None]
        b = beta[start:start + 2000, None]
        z = np.sqrt(a) * t[None, :]
        f = z**3 - a * z + b
        s = np.sign(f)
        change = s[:, :-1] * s[:, 1:] < 0
        assert np.all(change.sum(axis=1) == 3), "scan missed a root bracket"
        idx = np.nonzero(change)[1].reshape(-1, 3)
        rows = np.arange(z.shape[0])[:, None]
        lo, hi = z[rows, idx], z[rows, idx + 1]
        flo = lo**3 - a * lo + b
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fm = mid**3 - a * mid + b
            pick = np.sign(fm) == np.sign(flo)
            lo = np.where(pick, mid, lo)
            flo = np.where(pick, fm, flo)
            hi = np.where(pick, hi, mid)
        roots = 0.5 * (lo + hi)
        for i in range(roots.shape[0]):
            iv = cubic_root_intervals(float(alpha[start + i]),
                                      float(beta[start + i]))
            for r in roots[i]:
                assert np.any((iv[:, 0] <= r) & (r <= iv[:, 1])), \
                    (alpha[start + i], beta[start + i], r)
            order = np.argsort(iv[:, 0])
            assert np.all(iv[order[:-1], 1] < iv[order[1:], 0])


def test_moderate_overcompleteness_yields_no_spurious_endpoints():
    cells = []
    for n in (8, 10, 12, 14, 16):
        for m in sorted({n + 2, n + 4,
                         math.ceil(1.25 * n), math.ceil(1.5 * n)}):
            cells.append((n, m))
    per_cell = 32
    assert per_cell * len(cells) >= 500
    cfg = SolveConfig(max_iters=20_000, escape=EscapeConfig())
    run = 0
    for n, m in cells:
        # one stack per cell, bit for bit the frames make_untf builds, and
        # one stacked solve, each row bit for bit its frame's lone solve
        seeds = range(10_001 + run, 10_001 + run + per_cell)
        frames = _untf_stack(n, m, seeds)
        Q0 = np.stack([stream(run + 1 + i, "frame-endpoints").standard_normal(n)
                       for i in range(per_cell)])
        results = solve_batch([TensorObjective(D) for D in frames], Q0, cfg)
        for D, res in zip(frames, results):
            run += 1
            assert res.termination == "grad_tol", (n, m, run)
            rep = critical_point_report(D, res.q_star)
            assert rep.classification == CLASS_NEAR_SOLUTION, \
                (n, m, run, rep.classification)
            assert rep.inner_product >= 0.95, (n, m, run, rep.inner_product)


def test_recovery_rate_transition_in_aspect_ratio():
    t0 = time.perf_counter()
    rates = {}
    run = 0
    for n in range(3, 9):
        for label, m in (("half_sq", n * n // 2),
                         ("sesqui_sq", math.ceil(1.5 * n * n))):
            wins = 0
            for _ in range(12):
                run += 1
                D = make_untf(n, m, seed=run)
                q0 = SpherePoint.project(
                    stream(run, "aspect-scan").standard_normal(n))
                res = solve(TensorObjective(D), q0)
                wins += recovery_error(res.q_star, D).success
            rates[(n, label)] = wins / 12.0
    assert time.perf_counter() - t0 < 300.0
    misses = []
    for n in (5, 6, 7, 8):
        lo, hi = rates[(n, "half_sq")], rates[(n, "sesqui_sq")]
        if lo < 0.9:
            misses.append(f"n={n} m=n^2/2 rate {lo:.2f} < 0.9")
        if hi > 0.5:
            misses.append(f"n={n} m=1.5n^2 rate {hi:.2f} > 0.5")
    assert not misses, "; ".join(misses) + f" (all rates: {rates})"


def test_trial_budget_covers_all_columns():
    t0 = time.perf_counter()
    budget = math.ceil(8 * 32 * math.log(32))
    counts = []
    for rep in range(20):
        D = make_untf(16, 32, seed=rep)
        cov = recover_full(D, trial_budget=budget, seed_base=1_000 * rep)
        counts.append(len(cov.recovered))
    assert time.perf_counter() - t0 < 300.0
    full = sum(c == 32 for c in counts)
    assert full >= 19, \
        f"all 32 columns found in {full}/20 repetitions, counts {counts}"


def test_filter_bank_recovery_at_scale():
    t0 = time.perf_counter()
    bank = make_filter_bank(64, 3, seed=0)
    prob = synth_cdl(bank, 0.1, 10_000, seed=0)
    rec = recover_filters(prob, seed_base=0)
    assert rec.recovered == {0, 1, 2}
    assert max(rec.aligned_errors) <= 0.1, rec.aligned_errors
    assert rec.trials_used <= 30
    assert time.perf_counter() - t0 < 600.0


def test_preconditioner_residual_decay_and_convention_agreement():
    for seed in range(10):
        bank = make_filter_bank(16, 2, seed=seed)
        full = synth_cdl(bank, 0.15, 10_000, seed=seed)
        errs = []
        for p in (100, 1_000, 10_000):
            Yp = ObservationSet(full.measurements.entries[:, :p])
            P = build_preconditioner(Yp, 0.15, 2)
            PA = effective_dictionary(bank, P).entries
            errs.append(float(np.linalg.norm(PA @ PA.T / 2 - np.eye(16))))
        assert errs[0] >= errs[1] >= errs[2], (seed, errs)
        P_app = build_preconditioner(full.measurements, 0.15, 2, "appendix_h")
        ell = int(stream(seed, "ladder-ell").integers(full.p))
        q_main = measurement_start(full.measurements, full.preconditioner, ell)
        q_app = measurement_start(full.measurements, P_app, ell)
        assert np.linalg.norm(q_main.coords - q_app.coords) <= 1e-12


def test_power_step_is_a_natural_gradient_step():
    for i in range(100):
        rng = stream(i, "step-identity")
        n = int(rng.integers(3, 17))
        m = n + int(rng.integers(0, n + 1))
        obj = TensorObjective(make_untf(n, m, seed=50_000 + i))
        q = SpherePoint.project(rng.standard_normal(n))
        g = obj.evaluate(q.coords)[1]
        tau = -1.0 / float(q.coords @ g)
        assert tau > 0.0
        a = power_step(obj, q)
        b = rgd_step(obj, q, tau)
        assert np.linalg.norm(a.coords - b.coords) <= 1e-12
        res = solve(obj, q, SolveConfig(max_iters=400, grad_tol=1e-12))
        assert np.all(np.diff(res.objective_trace) <= 1e-12)
