import json

import numpy as np
import pytest

from sphere4.cdl import Preconditioner, effective_dictionary, synth_cdl
from sphere4.model import (
    Dictionary,
    ObservationSet,
    SpherePoint,
    make_filter_bank,
    make_untf,
    sample_bg,
    stream,
    spikiness,
    synth_odl,
)
from sphere4.objectives import OdlObjective, TensorObjective, retract
from sphere4.optimize import (
    MIN_BACKTRACK_TAU,
    STALL_REL_TOL,
    STALL_WINDOW,
    Backtracking,
    EscapeConfig,
    FixedStep,
    SolveConfig,
    escape_saddle,
    init_cdl,
    power_step,
    rgd_step,
    solve,
    tangent_min_eig,
)


def identity_objective(n: int) -> TensorObjective:
    return TensorObjective(Dictionary(np.eye(n)))


def random_odl(n: int, m: int, p: int, theta: float, seed: int) -> OdlObjective:
    D = make_untf(n, m, seed=seed)
    X = sample_bg(m, p, theta, seed=seed + 1)
    return OdlObjective(synth_odl(D, X), theta)


def test_power_step_fixed_point_at_basis_vector():
    obj = identity_objective(4)
    e1 = SpherePoint.project(np.array([1.0, 0.0, 0.0, 0.0]))
    out = power_step(obj, e1)
    assert np.abs(out.coords - e1.coords).max() <= 1e-15


def test_power_step_exactly_critical_returns_same_object():
    Y = ObservationSet(np.array([[1.0, -1.0], [0.0, 0.0]]))
    obj = OdlObjective(Y, 0.5)
    q = SpherePoint.project(np.array([0.0, 1.0]))
    assert power_step(obj, q) is q


def test_rgd_step_requires_positive_stepsize():
    obj = identity_objective(3)
    q = SpherePoint.project(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        rgd_step(obj, q, 0.0)
    with pytest.raises(ValueError):
        rgd_step(obj, q, -1.0)


def test_rgd_fixed_point():
    obj = identity_objective(3)
    q = SpherePoint.project(np.array([0.0, 1.0, 0.0]))
    out = rgd_step(obj, q, 0.37)
    assert np.abs(out.coords - q.coords).max() <= 1e-15


def test_power_step_equals_rgd_at_matched_stepsize():
    # tau = -1/(q' grad phi) > 0 because q' grad phi = 4 phi < 0; at this
    # stepsize the retracted gradient step reproduces the power update
    rng = stream(100)
    for trial in range(20):
        n = int(rng.integers(3, 13))
        m = int(rng.integers(n, 3 * n + 1))
        D = make_untf(n, m, seed=200 + trial)
        obj = TensorObjective(D)
        q = SpherePoint.project(rng.standard_normal(n))
        qg = float(q.coords @ obj.grad(q))
        assert qg < 0.0
        tau = -1.0 / qg
        a = power_step(obj, q)
        b = rgd_step(obj, q, tau)
        assert np.abs(a.coords - b.coords).max() <= 1e-12


def test_solve_identity_dictionary_finds_basis_vector():
    obj = identity_objective(5)
    rng = stream(101)
    for _ in range(10):
        q0 = SpherePoint.project(rng.standard_normal(5))
        res = solve(obj, q0, SolveConfig(method="power"))
        assert res.termination == "grad_tol"
        assert np.abs(res.q_star.coords).max() >= 1.0 - 1e-8
        assert res.q_star.coords @ obj.grad(res.q_star) < 0.0


def test_solve_rgd_backtracking_converges():
    obj = random_odl(6, 12, 400, 0.25, seed=102)
    q0 = SpherePoint.project(stream(103).standard_normal(6))
    res = solve(obj, q0, SolveConfig(method="rgd", step_policy=Backtracking()))
    assert res.termination == "grad_tol"
    assert res.final_grad_norm <= 1e-8
    assert np.all(np.diff(res.objective_trace) <= 1e-12)


def test_solve_power_trace_monotone_many_seeds():
    for seed in range(10):
        obj = random_odl(5, 10, 300, 0.2, seed=300 + seed)
        q0 = SpherePoint.project(stream(400 + seed).standard_normal(5))
        res = solve(obj, q0)
        t = res.objective_trace
        assert np.all(np.diff(t) <= 1e-12 * np.maximum(1.0, np.abs(t[:-1])))


def test_solve_already_critical_zero_iterations():
    obj = identity_objective(4)
    res = solve(obj, SpherePoint.project(np.array([0.0, 0.0, 1.0, 0.0])))
    assert res.iterations == 0
    assert res.termination == "grad_tol"
    assert res.escapes_taken == 0
    assert len(res.objective_trace) == 1


def test_solve_max_iters():
    obj = random_odl(5, 10, 200, 0.2, seed=104)
    q0 = SpherePoint.project(stream(105).standard_normal(5))
    res = solve(obj, q0, SolveConfig(max_iters=3, grad_tol=1e-15))
    assert res.iterations == 3
    assert res.termination == "max_iters"
    assert len(res.objective_trace) == 4


def test_solve_stalls_on_vanishing_stepsize():
    obj = random_odl(5, 10, 200, 0.2, seed=106)
    q0 = SpherePoint.project(stream(107).standard_normal(5))
    cfg = SolveConfig(method="rgd", step_policy=FixedStep(1e-300), grad_tol=1e-15)
    res = solve(obj, q0, cfg)
    assert res.termination == "stalled"


def test_solve_deterministic():
    obj = random_odl(6, 15, 300, 0.2, seed=108)
    q0 = SpherePoint.project(stream(109).standard_normal(6))
    cfg = SolveConfig(seed=7, escape=EscapeConfig())
    a = solve(obj, q0, cfg)
    b = solve(obj, q0, cfg)
    assert np.array_equal(a.q_star.coords, b.q_star.coords)
    assert np.array_equal(a.objective_trace, b.objective_trace)
    assert a.iterations == b.iterations
    assert a.termination == b.termination


def reference_solve(obj, q, cfg):
    """The solver loop as it was before the fused evaluate, written from the
    public steps: five passes over the data per power iteration."""
    trace = [float(obj.value(q))]
    iterations = escapes = 0
    gn = float(np.linalg.norm(obj.rgrad(q)))
    while True:
        if gn <= cfg.grad_tol:
            moved = None
            if cfg.escape is not None and iterations < cfg.max_iters:
                moved = escape_saddle(obj, q, cfg.escape.curv_tol,
                                      cfg.escape.step, seed=cfg.seed + escapes)
                if moved is not None and obj.value(moved) >= trace[-1]:
                    moved = None
            if moved is None:
                return q, trace, iterations, "grad_tol", escapes
            q = moved
            escapes += 1
            iterations += 1
            trace.append(float(obj.value(q)))
            gn = float(np.linalg.norm(obj.rgrad(q)))
            continue
        if iterations >= cfg.max_iters:
            return q, trace, iterations, "max_iters", escapes
        if len(trace) > STALL_WINDOW:
            ref = trace[-1 - STALL_WINDOW]
            if abs(trace[-1] - ref) <= STALL_REL_TOL * max(1.0, abs(ref)):
                return q, trace, iterations, "stalled", escapes
        pol = cfg.step_policy
        if cfg.method == "power":
            q = power_step(obj, q)
            val = float(obj.value(q))
        elif isinstance(pol, FixedStep):
            q = rgd_step(obj, q, pol.tau)
            val = float(obj.value(q))
        else:
            tau = pol.alpha0
            while True:
                cand = rgd_step(obj, q, tau)
                val = float(obj.value(cand))
                if val <= trace[-1] - pol.c1 * tau * gn * gn:
                    q = cand
                    break
                tau *= pol.shrink
                if tau < MIN_BACKTRACK_TAU:
                    return q, trace, iterations, "stalled", escapes
        iterations += 1
        trace.append(val)
        gn = float(np.linalg.norm(obj.rgrad(q)))


@pytest.mark.parametrize("kind", ["tensor", "odl"])
@pytest.mark.parametrize("cfg", [
    SolveConfig(),
    SolveConfig(max_iters=4),
    SolveConfig(method="rgd", step_policy=FixedStep(0.5)),
    SolveConfig(method="rgd", step_policy=FixedStep(1e-300), grad_tol=1e-15),
    SolveConfig(method="rgd", step_policy=Backtracking()),
    SolveConfig(method="rgd", step_policy=Backtracking(alpha0=100.0)),
    SolveConfig(escape=EscapeConfig(), seed=3),
], ids=["power", "power-capped", "rgd-fixed", "rgd-fixed-stall", "rgd-bt",
        "rgd-bt-shrinks", "power-escape"])
def test_solve_bit_identical_to_reference_loop(kind, cfg):
    if kind == "tensor":
        obj = TensorObjective(make_untf(10, 30, seed=111))
    else:
        obj = random_odl(8, 24, 600, 0.2, seed=120)
    rng = stream(121)
    for _ in range(6):
        q0 = SpherePoint.project(rng.standard_normal(obj.n))
        res = solve(obj, q0, cfg)
        q, trace, iterations, termination, escapes = reference_solve(obj, q0, cfg)
        assert np.array_equal(res.objective_trace, np.array(trace))
        assert np.array_equal(res.q_star.coords, q.coords)
        assert res.iterations == iterations
        assert res.termination == termination
        assert res.escapes_taken == escapes


@pytest.mark.parametrize("obj", [
    identity_objective(4), OdlObjective(ObservationSet(np.eye(4)), 0.2)])
def test_solve_escape_identical_to_reference_loop_when_taken(obj):
    # (e1 + e2)/sqrt(2) is an exact saddle of both objectives
    cfg = SolveConfig(escape=EscapeConfig(), seed=3)
    q0 = SpherePoint.project(np.array([1.0, 1.0, 0.0, 0.0]))
    res = solve(obj, q0, cfg)
    q, trace, iterations, termination, escapes = reference_solve(obj, q0, cfg)
    assert res.escapes_taken == escapes >= 1
    assert np.array_equal(res.objective_trace, np.array(trace))
    assert np.array_equal(res.q_star.coords, q.coords)
    assert (res.iterations, res.termination) == (iterations, termination)


class RisingObjective:
    """Stub whose value goes up (or turns NaN) after the first evaluation;
    its gradient is a fixed vector orthogonal to the start."""

    def __init__(self, after: float):
        self.after = after
        self.calls = 0

    def evaluate(self, q):
        self.calls += 1
        val = -1.0 if self.calls == 1 else self.after
        return val, np.array([0.0, 1.0, 0.0])


@pytest.mark.parametrize("after", [0.0, np.nan])
def test_solve_power_ends_nonmonotone_when_value_rises(after):
    obj = RisingObjective(after)
    q0 = SpherePoint.project(np.array([1.0, 0.0, 0.0]))
    res = solve(obj, q0)
    assert res.termination == "nonmonotone"
    assert res.iterations == 0
    assert res.q_star is q0
    assert res.objective_trace.tolist() == [-1.0]
    assert res.final_grad_norm == 1.0
    assert obj.calls == 2


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(method="newton")
    with pytest.raises(ValueError):
        SolveConfig(grad_tol=0.0)
    with pytest.raises(ValueError):
        Backtracking(c1=1.5)
    with pytest.raises(ValueError):
        Backtracking(shrink=1.0)
    with pytest.raises(ValueError):
        FixedStep(-0.1)


def test_tangent_min_eig_matches_dense():
    rng = stream(110)
    for trial in range(10):
        n = int(rng.integers(3, 20))
        D = make_untf(n, 2 * n, seed=500 + trial)
        obj = TensorObjective(D)
        q = SpherePoint.project(rng.standard_normal(n))
        H = obj.rhess(q)
        # push the q-direction (a zero eigenvalue of H) out of the way so
        # the dense minimum is the tangent-restricted minimum
        shift = 10.0 * (1.0 + np.abs(H).sum())
        ref = np.linalg.eigvalsh(H + shift * np.outer(q.coords, q.coords))[0]
        lam, vec, ok = tangent_min_eig(lambda u: obj.rhess_vec(q, u), q.coords,
                                       seed=trial)
        assert ok
        assert lam == pytest.approx(ref, rel=1e-7, abs=1e-9)
        assert abs(float(vec @ q.coords)) <= 1e-10
        assert abs(float(vec @ obj.rhess_vec(q, vec)) - lam) <= 1e-7 * max(1.0, abs(lam))


def test_escape_at_exact_saddle():
    obj = identity_objective(4)
    q = SpherePoint.project(np.array([1.0, 1.0, 0.0, 0.0]))
    assert np.linalg.norm(obj.rgrad(q)) <= 1e-15
    out = escape_saddle(obj, q, curv_tol=1e-10, step=1e-2)
    assert out is not None
    assert obj.value(out) < obj.value(q)


def test_no_escape_at_minimizer():
    obj = identity_objective(4)
    e1 = SpherePoint.project(np.array([1.0, 0.0, 0.0, 0.0]))
    assert escape_saddle(obj, e1, curv_tol=1e-10, step=1e-2) is None


def test_infinite_curv_tol_disables_escape():
    obj = identity_objective(4)
    q = SpherePoint.project(np.array([1.0, 1.0, 0.0, 0.0]))
    assert escape_saddle(obj, q, curv_tol=np.inf, step=1e-2) is None


def test_solve_escapes_saddle_start():
    obj = identity_objective(4)
    q0 = SpherePoint.project(np.array([1.0, 1.0, 0.0, 0.0]))
    res = solve(obj, q0, SolveConfig(escape=EscapeConfig(), seed=3))
    assert res.termination == "grad_tol"
    assert res.escapes_taken >= 1
    assert res.objective_trace[-1] == pytest.approx(-0.25, abs=1e-10)


def test_solve_untf_low_coherence_always_finds_column():
    # at this aspect ratio the frame coherence is ~0.44 and every local
    # minimizer sits on a column; higher-coherence frames (m >= 2n here)
    # genuinely grow mixture minimizers and lose this property
    D = make_untf(10, 15, seed=111)
    assert D.untf_converged
    obj = TensorObjective(D)
    rng = stream(112)
    for _ in range(100):
        q0 = SpherePoint.project(rng.standard_normal(10))
        res = solve(obj, q0)
        corr = np.abs(D.entries.T @ res.q_star.coords).max()
        assert corr > 1.0 - 5e-2


def test_solve_high_coherence_terminates_second_order():
    from sphere4.optimize import tangent_min_eig

    D = make_untf(10, 30, seed=111)
    obj = TensorObjective(D)
    rng = stream(112)
    off_column = 0
    for _ in range(25):
        q0 = SpherePoint.project(rng.standard_normal(10))
        res = solve(obj, q0, SolveConfig(escape=EscapeConfig(), seed=1))
        assert res.termination == "grad_tol"
        lam, _, ok = tangent_min_eig(
            lambda u: obj.rhess_vec(res.q_star, u), res.q_star.coords)
        assert ok
        assert lam >= -1e-8
        corr = np.abs(D.entries.T @ res.q_star.coords).max()
        off_column += corr <= 0.95
    # the mixture minimizers are real: a nontrivial share of runs lands there
    assert off_column > 0


def test_solve_result_json():
    obj = identity_objective(3)
    res = solve(obj, SpherePoint.project(np.array([0.6, 0.8, 0.0])))
    bare = json.loads(res.to_json())
    assert set(bare) == {"q_star", "iterations", "final_grad_norm",
                         "termination", "escapes_taken"}
    rich = json.loads(res.to_json(include_trace=True))
    assert rich["objective_trace"] == res.objective_trace.tolist()


def test_init_cdl_identity_preconditioner():
    Y = ObservationSet(np.eye(4)[:, [2]])
    P = Preconditioner(np.ones(4), "main_text", K=1)
    q = init_cdl(Y, P, ell=0)
    assert np.array_equal(q.coords, np.array([0.0, 0.0, 1.0, 0.0]))


def test_init_cdl_draw_and_errors():
    rng = stream(113)
    Y = ObservationSet(rng.standard_normal((6, 5)))
    P = Preconditioner(np.ones(6), "main_text", K=1)
    a = init_cdl(Y, P, seed=9)
    b = init_cdl(Y, P, seed=9)
    assert np.array_equal(a.coords, b.coords)
    with pytest.raises(ValueError):
        init_cdl(Y, P, ell=5)
    with pytest.raises(ValueError):
        init_cdl(Y, P, ell=-1)
    Z = ObservationSet(np.zeros((6, 2)))
    with pytest.raises(ValueError):
        init_cdl(Z, P, ell=0)


def test_init_cdl_scale_convention_invariant():
    from sphere4.cdl import build_preconditioner

    bank = make_filter_bank(16, 2, seed=114)
    prob = synth_cdl(bank, 0.2, 50, seed=115)
    alt = build_preconditioner(prob.measurements, 0.2, 2, "appendix_h")
    for ell in range(5):
        a = init_cdl(prob.measurements, prob.preconditioner, ell=ell)
        b = init_cdl(prob.measurements, alt, ell=ell)
        assert np.abs(a.coords - b.coords).max() <= 1e-12


def test_init_cdl_lands_in_spiky_region():
    # data-driven starts should correlate with some shifted filter much more
    # strongly than uniform-random points do
    bank = make_filter_bank(64, 3, seed=116)
    prob = synth_cdl(bank, 0.1, 2_000, seed=117)
    A = effective_dictionary(bank, prob.preconditioner).entries
    A = A / np.linalg.norm(A, axis=0)

    rng = stream(118)
    baseline = []
    for _ in range(100):
        u = retract(rng.standard_normal(64))
        baseline.append(np.sum((A.T @ u) ** 4))
    bar = float(np.median(baseline))

    wins = 0
    for t in range(100):
        q = init_cdl(prob.measurements, prob.preconditioner, seed=1000 + t)
        zeta = A.T @ q.coords
        assert spikiness(zeta) > 1.0
        if np.sum(zeta**4) > bar:
            wins += 1
    assert wins >= 90
