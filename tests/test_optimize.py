import functools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphere4.cdl import (
    CdlObjective,
    ConvProblem,
    Preconditioner,
    build_preconditioner,
    synth_cdl,
)
from sphere4.model import (
    Dictionary,
    ObservationSet,
    SpherePoint,
    load_matrix,
    make_filter_bank,
    make_untf,
    retract,
    sample_bg,
    stream,
    synth_odl,
)
from sphere4.objectives import OdlObjective, TensorObjective, _StackKernel
from sphere4.optimize import (
    ESCAPE_CURV_TOL,
    ESCAPE_STEP,
    STALL_REL_TOL,
    STALL_WINDOW,
    EscapeConfig,
    SolveConfig,
    escape_saddle,
    init_cdl,
    power_step,
    rgd_step,
    solve,
    solve_batch,
    tangent_min_eig,
)
from sphere4.recovery import recover_filters

from oracles import (
    effective_dictionary,
    measurement_start,
    reference_escape,
    reference_solve,
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
        qg = float(q.coords @ obj.evaluate(q)[1])
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
        res = solve(obj, q0, SolveConfig())
        assert res.termination == "grad_tol"
        assert np.abs(res.q_star.coords).max() >= 1.0 - 1e-8
        assert res.q_star.coords @ obj.evaluate(res.q_star)[1] < 0.0


def test_solve_rgd_backtracking_converges():
    # the solver runs only the power step, but the Riemannian gradient
    # descent the paper names still reaches a critical point when driven
    # through the public rgd_step with an Armijo search
    obj = random_odl(6, 12, 400, 0.25, seed=102)
    q = SpherePoint.project(stream(103).standard_normal(6))
    trace = [float(obj.evaluate(q)[0])]
    gn = float(np.linalg.norm(obj.rgrad(q)))
    for _ in range(SolveConfig().max_iters):
        if gn <= 1e-8:
            break
        tau = 1.0
        while float(obj.evaluate(cand := rgd_step(obj, q, tau))[0]) > (
                trace[-1] - 1e-4 * tau * gn * gn):
            tau *= 0.5
            assert tau >= 1e-16
        q = cand
        trace.append(float(obj.evaluate(q)[0]))
        gn = float(np.linalg.norm(obj.rgrad(q)))
    assert gn <= 1e-8
    assert np.all(np.diff(trace) <= 1e-12)


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


def test_solve_deterministic():
    obj = random_odl(6, 15, 300, 0.2, seed=108)
    q0 = SpherePoint.project(stream(109).standard_normal(6))
    cfg = SolveConfig(escape=EscapeConfig())
    a = solve(obj, q0, cfg)
    b = solve(obj, q0, cfg)
    assert np.array_equal(a.q_star.coords, b.q_star.coords)
    assert np.array_equal(a.objective_trace, b.objective_trace)
    assert a.iterations == b.iterations
    assert a.termination == b.termination


def public_steps_solve(obj, q, cfg):
    """The solver loop as it was before the fused evaluate, written from the
    public steps: five passes over the data per power iteration."""
    trace = [float(obj.evaluate(q)[0])]
    iterations = escapes = 0
    gn = float(np.linalg.norm(obj.rgrad(q)))
    while True:
        if gn <= cfg.grad_tol:
            moved = None
            if cfg.escape is not None and iterations < cfg.max_iters:
                moved = reference_escape(obj, q)
                if moved is not None and obj.evaluate(moved)[0] >= trace[-1]:
                    moved = None
            if moved is None:
                return q, trace, iterations, "grad_tol", escapes
            q = moved
            escapes += 1
            iterations += 1
            trace.append(float(obj.evaluate(q)[0]))
            gn = float(np.linalg.norm(obj.rgrad(q)))
            continue
        if iterations >= cfg.max_iters:
            return q, trace, iterations, "max_iters", escapes
        if len(trace) > STALL_WINDOW:
            ref = trace[-1 - STALL_WINDOW]
            if abs(trace[-1] - ref) <= STALL_REL_TOL * max(1.0, abs(ref)):
                return q, trace, iterations, "stalled", escapes
        q = power_step(obj, q)
        val = float(obj.evaluate(q)[0])
        iterations += 1
        trace.append(val)
        gn = float(np.linalg.norm(obj.rgrad(q)))


@pytest.mark.parametrize("kind", ["tensor", "odl"])
@pytest.mark.parametrize("cfg", [
    SolveConfig(),
    SolveConfig(max_iters=4),
    SolveConfig(escape=EscapeConfig()),
], ids=["power", "power-capped", "power-escape"])
def test_solve_bit_identical_to_reference_loop(kind, cfg):
    if kind == "tensor":
        obj = TensorObjective(make_untf(10, 30, seed=111))
    else:
        obj = random_odl(8, 24, 600, 0.2, seed=120)
    rng = stream(121)
    for _ in range(6):
        q0 = SpherePoint.project(rng.standard_normal(obj.n))
        res = solve(obj, q0, cfg)
        q, trace, iterations, termination, escapes = public_steps_solve(obj, q0, cfg)
        assert np.array_equal(res.objective_trace, np.array(trace))
        assert np.array_equal(res.q_star.coords, q.coords)
        assert res.iterations == iterations
        assert res.termination == termination
        assert res.escapes_taken == escapes


@pytest.mark.parametrize("obj", [
    identity_objective(4), OdlObjective(ObservationSet(np.eye(4)), 0.2)])
def test_solve_escape_identical_to_reference_loop_when_taken(obj):
    # (e1 + e2)/sqrt(2) is an exact saddle of both objectives
    cfg = SolveConfig(escape=EscapeConfig())
    q0 = SpherePoint.project(np.array([1.0, 1.0, 0.0, 0.0]))
    res = solve(obj, q0, cfg)
    q, trace, iterations, termination, escapes = public_steps_solve(obj, q0, cfg)
    assert res.escapes_taken == escapes >= 1
    assert np.array_equal(res.objective_trace, np.array(trace))
    assert np.array_equal(res.q_star.coords, q.coords)
    assert (res.iterations, res.termination) == (iterations, termination)


@pytest.mark.parametrize("cfg", [SolveConfig(), SolveConfig(escape=EscapeConfig())],
                         ids=["power", "power-escape"])
def test_solve_cdl_bit_identical_to_reference_loop(cfg):
    prob = synth_cdl(make_filter_bank(16, 2, seed=122), 0.2, 400, seed=123)
    obj = CdlObjective(prob)
    rng = stream(124)
    for ell in range(3):
        starts = (measurement_start(prob.measurements, prob.preconditioner, ell),
                  SpherePoint.project(rng.standard_normal(obj.n)))
        for q0 in starts:
            res = solve(obj, q0, cfg)
            q, trace, iterations, termination, escapes = public_steps_solve(obj, q0, cfg)
            assert np.array_equal(res.objective_trace, np.array(trace))
            assert np.array_equal(res.q_star.coords, q.coords)
            assert (res.iterations, res.termination) == (iterations, termination)


@functools.cache
def replaced_loop_objective(kind: str):
    if kind == "tensor":
        return TensorObjective(make_untf(16, 32, seed=130))
    if kind == "odl":
        return random_odl(16, 24, 2000, 0.2, seed=131)
    if kind == "cdl":
        return CdlObjective(
            synth_cdl(make_filter_bank(16, 2, seed=132), 0.2, 400, seed=133))
    return identity_objective(4)


def result_bits(res) -> tuple:
    return (res.q_star.coords.tobytes(), res.objective_trace.tobytes(),
            res.iterations, res.termination, res.escapes_taken,
            float(res.final_grad_norm).hex())


@pytest.mark.parametrize("kind", ["tensor", "odl", "cdl", "saddle"])
@pytest.mark.parametrize("cfg", [
    SolveConfig(),
    SolveConfig(escape=EscapeConfig()),
], ids=["power", "power-escape"])
def test_solve_bit_identical_to_replaced_loop(kind, cfg):
    # every SolveResult field against the loop the bound kernel replaced;
    # the saddle kind starts at exact saddles of the identity objective,
    # so its escape configurations take escapes
    obj = replaced_loop_objective(kind)
    if kind == "saddle":
        starts = [retract(np.array([1.0, 1.0, 0.0, 0.0])),
                  retract(np.array([1.0, 1.0, 1.0, 0.0]))]
    else:
        rng = stream(134, kind)
        starts = [retract(rng.standard_normal(obj.n)) for _ in range(3)]
    escapes = 0
    for x0 in starts:
        q0 = SpherePoint(x0)
        res = solve(obj, q0, cfg)
        assert result_bits(res) == result_bits(reference_solve(obj, q0, cfg))
        escapes += res.escapes_taken
    assert escapes >= (kind == "saddle" and cfg.escape is not None)


@functools.cache
def batch_objective(kind: str):
    if kind == "tensor-16x32":
        return TensorObjective(make_untf(16, 32, seed=140))
    if kind == "tensor-8x12":
        return TensorObjective(make_untf(8, 12, seed=141))
    if kind == "odl":
        return random_odl(16, 24, 2000, 0.2, seed=142)
    return CdlObjective(
        synth_cdl(make_filter_bank(16, 2, seed=143), 0.2, 400, seed=144))


BATCH_CONFIGS = [SolveConfig(), SolveConfig(escape=EscapeConfig())]
BATCH_CONFIG_IDS = ["power", "power-escape"]


@pytest.mark.parametrize("kind, k", [
    ("tensor-16x32", 1), ("tensor-16x32", 2), ("tensor-16x32", 8),
    ("tensor-8x12", 1), ("tensor-8x12", 2), ("tensor-8x12", 8),
    ("odl", 1), ("odl", 2), ("odl", 8), ("cdl", 1)])
@pytest.mark.parametrize("cfg", BATCH_CONFIGS, ids=BATCH_CONFIG_IDS)
def test_solve_batch_rows_bit_identical_to_reference_loop(kind, k, cfg):
    # each row of a stack against the loop the bound kernel replaced, run
    # alone from the same projected start: every SolveResult field
    obj = batch_objective(kind)
    Q0 = stream(145, kind, k).standard_normal((k, obj.n))
    results = solve_batch(obj, Q0, cfg)
    assert len(results) == k
    for row, res in zip(Q0, results):
        ref = reference_solve(obj, SpherePoint.project(row), cfg)
        assert result_bits(res) == result_bits(ref)


def test_solve_batch_rows_that_end_differently():
    # one stack whose rows end at the iteration cap and at first-order
    # points, and one whose saddle rows escape while the others do not
    obj = batch_objective("tensor-16x32")
    cfg = SolveConfig(max_iters=40)
    Q0 = stream(146).standard_normal((8, 16))
    results = solve_batch(obj, Q0, cfg)
    assert {r.termination for r in results} == {"grad_tol", "max_iters"}
    for row, res in zip(Q0, results):
        assert result_bits(res) == result_bits(
            reference_solve(obj, SpherePoint.project(row), cfg))

    obj = identity_objective(4)
    cfg = SolveConfig(escape=EscapeConfig())
    Q0 = np.vstack([[1.0, 1.0, 0.0, 0.0], stream(147).standard_normal(4),
                    [1.0, 1.0, 1.0, 0.0], stream(148).standard_normal(4)])
    results = solve_batch(obj, Q0, cfg)
    assert [r.escapes_taken > 0 for r in results] == [True, False, True, False]
    for row, res in zip(Q0, results):
        assert result_bits(res) == result_bits(
            reference_solve(obj, SpherePoint.project(row), cfg))


class NanNearE3Objective:
    """phi = -||q||_4^4 / 4, whose gradient turns NaN once q[2] > 0.95."""

    def evaluate(self, q):
        q = np.asarray(q, dtype=float)
        g = -q**3
        return -0.25 * float(np.sum(q**4)), g * np.nan if q[2] > 0.95 else g


@pytest.mark.parametrize("cfg", [SolveConfig(), SolveConfig(grad_tol=1e-3)],
                         ids=["power", "power-loose"])
def test_solve_batch_raises_as_a_row_alone_does(cfg):
    # the second row's first step lands past q[2] = 0.95, so solving it
    # alone raises; the stack raises the same error, whether the first row
    # ends after two steps or three
    obj = NanNearE3Objective()
    Q0 = np.array([[0.9, 0.3, 0.3], [0.3, 0.3, 0.905]])
    assert solve(obj, SpherePoint.project(Q0[0]), cfg).termination == "grad_tol"
    with pytest.raises(ValueError, match="cannot project a zero or non-finite vector"):
        solve(obj, SpherePoint.project(Q0[1]), cfg)
    with pytest.raises(ValueError, match="cannot project a zero or non-finite vector"):
        solve_batch(obj, Q0, cfg)


def test_solve_batch_refuses_what_it_cannot_project():
    obj = identity_objective(3)
    with pytest.raises(ValueError, match="2-d stack"):
        solve_batch(obj, np.ones(3), SolveConfig())
    with pytest.raises(ValueError, match="zero or non-finite"):
        solve_batch(obj, np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
                    SolveConfig())
    assert solve_batch(obj, np.empty((0, 3)), SolveConfig()) == []


@functools.cache
def lone_solve_bits(row: int, cfg_index: int) -> tuple:
    obj = batch_objective("tensor-8x12")
    q0 = SpherePoint.project(stream(149).standard_normal((6, 8))[row])
    return result_bits(reference_solve(obj, q0, BATCH_CONFIGS[cfg_index]))


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(order=st.integers(1, 6).flatmap(
           lambda k: st.permutations(range(6)).map(lambda p: p[:k])),
       cfg_index=st.integers(0, len(BATCH_CONFIGS) - 1))
def test_solve_batch_solves_like_its_rows_alone_property(order, cfg_index):
    # any subset of the starts, stacked in any order, solves row for row
    # like each start alone
    Q0 = stream(149).standard_normal((6, 8))[list(order)]
    results = solve_batch(batch_objective("tensor-8x12"), Q0,
                          BATCH_CONFIGS[cfg_index])
    assert [result_bits(r) for r in results] == [
        lone_solve_bits(row, cfg_index) for row in order]


@functools.cache
def frame_objective(i: int) -> TensorObjective:
    return TensorObjective(make_untf(8, 12, seed=150 + i))


@functools.cache
def lone_frame_bits(i: int, cfg_index: int) -> tuple:
    q0 = SpherePoint.project(stream(151, i).standard_normal(8))
    return result_bits(reference_solve(frame_objective(i), q0,
                                       BATCH_CONFIGS[cfg_index]))


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(order=st.integers(2, 6).flatmap(
           lambda k: st.permutations(range(6)).map(lambda p: p[:k])),
       cfg_index=st.integers(0, len(BATCH_CONFIGS) - 1))
def test_solve_batch_solves_each_row_on_its_own_frame_property(order, cfg_index):
    # any subset of six frames, stacked in any order, each row on its own
    # frame: every row solves like that frame's solve alone
    Q0 = np.stack([stream(151, i).standard_normal(8) for i in order])
    results = solve_batch([frame_objective(i) for i in order], Q0,
                          BATCH_CONFIGS[cfg_index])
    assert [result_bits(r) for r in results] == [
        lone_frame_bits(i, cfg_index) for i in order]


@functools.cache
def per_row_stacks() -> dict:
    frames = [frame_objective(i) for i in range(3)]
    odl = [random_odl(8, 12, 300, 0.2, seed=152 + 2 * i) for i in range(3)]
    # the same frame, given in Fortran order; it is stored in C order
    fortran = TensorObjective(Dictionary(np.asfortranarray(frames[1].basis)))
    return {
        "bases": ([*frames, frames[0]], "bases"),
        "odl-bases": (odl, "bases"),
        "tensor-and-odl": ([*frames, odl[0]], "each"),
        "odl-two-c": ([odl[0], random_odl(8, 12, 300, 0.3, seed=158)], "each"),
        "fortran-basis": ([frames[0], fortran, frames[2]], "bases"),
        "cdl": ([batch_objective("cdl"), CdlObjective(
            synth_cdl(make_filter_bank(16, 2, seed=159), 0.2, 400, seed=160))],
            "each"),
    }


@pytest.mark.parametrize("stack", ["bases", "odl-bases", "tensor-and-odl",
                                   "odl-two-c", "fortran-basis", "cdl"])
@pytest.mark.parametrize("cfg", BATCH_CONFIGS, ids=BATCH_CONFIG_IDS)
def test_solve_batch_per_row_kernels_match_the_reference(stack, cfg):
    # basis objectives of one shape and one c share one stacked kernel on
    # their bases; any other mix (another objective, another c) evaluates
    # each row alone; either way each row has the bits of its lone solve
    objs, kind = per_row_stacks()[stack]
    assert (_StackKernel(objs).B is not None) == (kind == "bases")
    Q0 = stream(161, stack).standard_normal((len(objs), objs[0].n))
    results = solve_batch(objs, Q0, cfg)
    for obj, row, res in zip(objs, Q0, results):
        ref = reference_solve(obj, SpherePoint.project(row), cfg)
        assert result_bits(res) == result_bits(ref)


@pytest.mark.parametrize("layout", ["fortran", "column-permuted"])
def test_matrix_layout_does_not_change_a_solve(layout):
    # entries are stored in C order, so a basis given in another layout
    # solves with the bits of its C copy
    A = make_untf(8, 12, seed=165).entries
    M = (np.asfortranarray(A) if layout == "fortran"
         else A[:, stream(165).permutation(12)])
    assert not M.flags.c_contiguous
    Q0 = stream(166, layout).standard_normal((3, 8))
    for make in (lambda B: TensorObjective(Dictionary(B)),
                 lambda B: OdlObjective(ObservationSet(B), 0.2)):
        objs = [make(M), make(np.ascontiguousarray(M))]
        assert all(o.basis.flags.c_contiguous for o in objs)
        for cfg in BATCH_CONFIGS:
            a, b = (solve_batch(o, Q0, cfg) for o in objs)
            assert [result_bits(r) for r in a] == [result_bits(r) for r in b]
            a, b = (solve(o, Q0[0], cfg) for o in objs)
            assert result_bits(a) == result_bits(b)


def test_solve_batch_escapes_each_row_along_its_own_curvature():
    # each row starts at a saddle of its own orthonormal basis, so its
    # escape reads its own row's curvature; the bases share one stack
    rot = np.ascontiguousarray(
        np.linalg.qr(stream(162).standard_normal((4, 4)))[0])
    bases = [np.eye(4), np.eye(4)[[2, 3, 0, 1]], rot]
    objs = [TensorObjective(Dictionary(b)) for b in bases]
    assert _StackKernel(objs).B.ndim == 3
    Q0 = np.stack([b[:, 0] + b[:, 1] for b in bases])
    for cfg in BATCH_CONFIGS[1:]:
        results = solve_batch(objs, Q0, cfg)
        assert all(r.escapes_taken > 0 for r in results)
        for obj, row, res in zip(objs, Q0, results):
            ref = reference_solve(obj, SpherePoint.project(row), cfg)
            assert result_bits(res) == result_bits(ref)


@pytest.mark.parametrize("cfg", BATCH_CONFIGS, ids=BATCH_CONFIG_IDS)
def test_solve_batch_mixed_stack_runs_on_after_its_odd_row_ends(cfg):
    # the ODL row starts at its own solution and ends first; the Tensor rows
    # left behind carry on row by row, each with the bits of its lone solve
    odl = random_odl(8, 12, 300, 0.2, seed=152)
    objs = [frame_objective(0), odl, frame_objective(1)]
    kernel = _StackKernel(objs)
    assert kernel.B is None and kernel.take([0, 2]).B is None
    Q0 = stream(163).standard_normal((3, 8))
    Q0[1] = solve(odl, SpherePoint.project(Q0[1]), cfg).q_star.coords
    results = solve_batch(objs, Q0, cfg)
    assert results[1].iterations < min(results[0].iterations,
                                       results[2].iterations)
    for obj, row, res in zip(objs, Q0, results):
        ref = reference_solve(obj, SpherePoint.project(row), cfg)
        assert result_bits(res) == result_bits(ref)


def test_solve_batch_refuses_mismatched_objectives():
    obj, Q0 = identity_objective(3), np.eye(3)
    with pytest.raises(ValueError, match="2 objectives for 3 starts"):
        solve_batch([obj, obj], Q0, SolveConfig())
    with pytest.raises(ValueError, match="2 objectives for 0 starts"):
        solve_batch((obj, obj), np.empty((0, 3)), SolveConfig())
    with pytest.raises(ValueError, match="has n=4, but the starts have n=3"):
        solve_batch(identity_objective(4), Q0, SolveConfig())
    with pytest.raises(ValueError, match="has n=4, but the starts have n=3"):
        solve_batch([obj, identity_objective(4), obj], Q0, SolveConfig())
    # solve takes the same check before any evaluation, which would fail
    # inside numpy instead
    cdl = batch_objective("cdl")
    for size in (15, 17):
        with pytest.raises(ValueError,
                           match=f"has n=16, but the starts have n={size}"):
            solve(cdl, stream(164, size).standard_normal(size))
    with pytest.raises(ValueError, match="has n=4, but the starts have n=3"):
        solve(identity_objective(4), Q0[0])
    assert solve_batch([], np.empty((0, 3)), SolveConfig()) == []
    # a stub that states no n is taken as it is
    assert len(solve_batch(NanNearE3Objective(), Q0[:1], SolveConfig())) == 1


def test_solve_refuses_a_basis_whose_squared_gradient_norm_overflows():
    # the kernel guard admits this frame (its bound is 2.4e281), but the
    # loop squares a gradient norm past 1e154; the overflow is refused
    # where it happens, alone or in a stack
    big = TensorObjective(Dictionary(make_untf(4, 6, seed=1).entries * 1e70))
    small = TensorObjective(make_untf(4, 6, seed=1))
    match = "data too large: the arithmetic overflows"
    with pytest.raises(ValueError, match=match):
        solve(big, np.ones(4))
    with pytest.raises(ValueError, match=match):
        solve_batch([small, big], np.eye(4)[:2], SolveConfig())


@pytest.mark.filterwarnings("error")
def test_an_overflowing_cdl_objective_is_refused_and_the_trap_does_not_leak():
    # a whitener of 1e80 makes the CDL quartic overflow; CdlObjective states
    # no bound, so the overflow is met only where it happens
    bank = make_filter_bank(8, 2, seed=0)
    Y = synth_cdl(bank, 0.2, 30, seed=0).measurements
    problem = ConvProblem(Y, Preconditioner(np.full(8, 1e80)), 0.2, filters=bank)
    obj = CdlObjective(problem)
    before = np.geterr(), np.geterrcall()
    calls = [lambda: obj.evaluate(np.ones(8)),
             lambda: obj.rgrad(np.ones(8)),
             lambda: solve(obj, np.ones(8)),
             lambda: solve_batch(obj, np.eye(8)[:3], SolveConfig()),
             lambda: recover_filters(problem, trial_budget=2)]
    for call in calls:
        with pytest.raises(ValueError,
                           match="data too large: the arithmetic overflows"):
            call()
        assert (np.geterr(), np.geterrcall()) == before


@functools.cache
def scaled_frame_objective(j: int):
    try:
        return TensorObjective(Dictionary(
            np.ldexp(make_untf(4, 6, seed=1).entries, j)))
    except ValueError:
        return None  # the kernel guard refuses the frame


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(k=st.integers(-1000, 1000), j=st.integers(-300, 300),
       cfg_index=st.integers(0, len(BATCH_CONFIGS) - 1))
@example(k=665, j=0, cfg_index=0)  # starts near 1e200
@example(k=0, j=233, cfg_index=0)  # a frame near 1e70
def test_solve_batch_at_any_scale_solves_as_solve_or_refuses_property(
        k, j, cfg_index):
    # starts at the scale 2^k on a frame at the scale 2^j: each row solves
    # with the bits of solve from SpherePoint.project of that row, or the
    # stack raises ValueError as some row alone does; a RuntimeWarning is
    # an error under the suite's filterwarnings
    rows = stream(165).standard_normal((3, 4))
    Q0 = np.ldexp(rows, k)
    # project scales a row exactly, so the scale leaves its bits
    for row, scaled in zip(rows, Q0):
        assert (SpherePoint.project(scaled).coords.tobytes()
                == SpherePoint.project(row).coords.tobytes())
    obj, cfg = scaled_frame_objective(j), BATCH_CONFIGS[cfg_index]
    if obj is None:
        return

    def bits_or_refusal(call):
        try:
            return call()
        except ValueError:
            return "refused"

    lone = [bits_or_refusal(lambda row=row: result_bits(
        solve(obj, SpherePoint.project(row), cfg))) for row in Q0]
    batch = bits_or_refusal(
        lambda: [result_bits(r) for r in solve_batch(obj, Q0, cfg)])
    if batch == "refused":
        assert "refused" in lone
    else:
        assert batch == lone


@functools.cache
def mixed_stack_objective(kind: str, m: int, j: int, fortran: bool):
    # n = 4: a Tensor frame of m columns or ODL data of m samples, scaled by
    # 2^j and given in C or Fortran order; None where the kernel guard
    # refuses it
    B = (make_untf(4, m, seed=170 + m).entries if kind == "tensor"
         else synth_odl(make_untf(4, 6, seed=171),
                        sample_bg(6, m, 0.2, seed=172 + m)).entries)
    B = np.ldexp(B, j)
    if fortran:
        B = np.asfortranarray(B)
    try:
        return (TensorObjective(Dictionary(B)) if kind == "tensor"
                else OdlObjective(ObservationSet(B), 0.2))
    except ValueError:
        return None


MIXED_STACK_ROW = st.tuples(
    st.sampled_from([("tensor", 6), ("tensor", 8), ("odl", 40), ("odl", 60)]),
    st.one_of(st.integers(-4, 4), st.integers(-300, 300)), st.booleans())


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(specs=st.lists(MIXED_STACK_ROW, min_size=1, max_size=4),
       shared=st.booleans(), fortran_starts=st.booleans(),
       cfg_index=st.integers(0, len(BATCH_CONFIGS) - 1))
@example(specs=[(("tensor", 6), 0, False), (("tensor", 6), 3, True),
                (("tensor", 6), -2, False)],
         shared=False, fortran_starts=True, cfg_index=1)  # a stack of bases
@example(specs=[(("tensor", 8), 0, False), (("odl", 40), 1, True),
                (("tensor", 6), 130, False)],
         shared=False, fortran_starts=False, cfg_index=0)  # one row overflows
def test_solve_batch_on_mixed_stacks_solves_as_solve_or_refuses_property(
        specs, shared, fortran_starts, cfg_index):
    # Tensor and ODL objectives of one n and several widths, one shared or
    # one per row, at scales 2^j and in either layout, from starts in either
    # layout: each row has the bits of its lone solve, or the stack raises
    # ValueError as some row alone does
    objs = [mixed_stack_objective(*kind_m, j, fortran)
            for kind_m, j, fortran in specs]
    if None in objs:
        return
    if shared:
        objs = [objs[0]] * len(objs)
    Q0 = stream(173).standard_normal((len(objs), 4))
    if fortran_starts:
        Q0 = np.asfortranarray(Q0)
    cfg = BATCH_CONFIGS[cfg_index]

    def bits_or_refusal(call):
        try:
            return call()
        except ValueError:
            return "refused"

    lone = [bits_or_refusal(lambda obj=obj, row=row: result_bits(
        solve(obj, SpherePoint.project(row), cfg))) for obj, row in zip(objs, Q0)]
    batch = bits_or_refusal(lambda: [
        result_bits(r) for r in solve_batch(objs[0] if shared else objs, Q0, cfg)])
    if batch == "refused":
        assert "refused" in lone
    else:
        assert batch == lone


class ScriptedObjective:
    """Stub whose value falls by one per evaluation while its gradient
    runs through `grads`, repeating the last."""

    def __init__(self, grads):
        self.grads = [np.array(g, dtype=float) for g in grads]
        self.calls = 0

    def evaluate(self, q):
        self.calls += 1
        return -float(self.calls), self.grads[min(self.calls, len(self.grads)) - 1]


@pytest.mark.parametrize("g0, flip", [
    ([2.0, 1.0, 0.0], True), ([0.0, 3.0, 4.0], False), ([-2.0, 1.0, 0.0], False)],
    ids=["xg-positive", "xg-zero", "xg-negative"])
def test_solve_power_first_iterate_is_power_step(g0, flip):
    # a quartic objective has x.g = 4 phi < 0, so only a stub reaches the
    # sign flip (x.g > 0) and the tie (x.g = 0) of the power update
    q0 = SpherePoint.project(np.array([1.0, 0.0, 0.0]))
    res = solve(ScriptedObjective([g0]), q0, SolveConfig(max_iters=1))
    step = power_step(ScriptedObjective([g0]), q0)
    d = np.array(g0) if flip else -np.array(g0)
    assert res.iterations == 1
    assert np.array_equal(res.q_star.coords, step.coords)
    assert np.array_equal(step.coords, d / np.linalg.norm(d))


@pytest.mark.parametrize("cfg", [SolveConfig(), SolveConfig(escape=EscapeConfig())],
                         ids=["power", "power-escape"])
def test_solve_raises_when_gradient_turns_nan(cfg):
    obj = ScriptedObjective([[0.0, 1.0, 0.0], [np.nan, 0.0, 0.0]])
    q0 = SpherePoint.project(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="zero or non-finite"):
        solve(obj, q0, cfg)
    assert obj.calls == 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cfg", [SolveConfig(), SolveConfig(escape=EscapeConfig())],
                         ids=["power", "power-escape"])
def test_solve_raises_when_gradient_turns_infinite(cfg):
    obj = ScriptedObjective([[0.0, 1.0, 0.0], [np.inf, 0.0, 0.0]])
    q0 = SpherePoint.project(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="cannot project a zero or non-finite vector"):
        solve(obj, q0, cfg)
    assert obj.calls == 2


@pytest.mark.parametrize("cfg", [SolveConfig(), SolveConfig(max_iters=1)],
                         ids=["power", "power-capped"])
def test_solve_stops_when_gradient_turns_zero(cfg):
    # a zero gradient ends the solve as "grad_tol" even on the last
    # allowed iteration
    obj = ScriptedObjective([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    q0 = SpherePoint.project(np.array([1.0, 0.0, 0.0]))
    res = solve(obj, q0, cfg)
    assert (res.termination, res.iterations, res.final_grad_norm) == ("grad_tol", 1, 0.0)
    assert res.objective_trace.tolist() == [-1.0, -2.0]
    assert np.array_equal(res.q_star.coords, [0.0, -1.0, 0.0])


def test_solve_power_rejects_off_sphere_point_from_tiny_gradient():
    # |g|^2 = 1e-320 is subnormal, so g / |g| misses the unit sphere and the
    # power step raises as SpherePoint.project does
    obj = ScriptedObjective([[0.0, 1e-160, 0.0]])
    q0 = SpherePoint.project(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="unit l2 norm"):
        solve(obj, q0, SolveConfig(grad_tol=1e-300))


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


class TurningObjective:
    """Stub with a constant value and a tangent gradient: each power step
    turns the iterate by a right angle and leaves the value unchanged."""

    def evaluate(self, q):
        return -1.0, np.array([-q[1], q[0], 0.0])


def test_solve_power_stalls_on_plateau():
    q0 = SpherePoint.project(np.array([0.6, 0.8, 0.0]))
    res = solve(TurningObjective(), q0)
    assert res.termination == "stalled"
    assert res.iterations == STALL_WINDOW
    assert res.objective_trace.tolist() == [-1.0] * (STALL_WINDOW + 1)
    assert res.final_grad_norm == pytest.approx(1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(grad_tol=0.0)
    with pytest.raises(ValueError):
        SolveConfig(max_iters=0)
    # nan compares false both ways, so each bound must refuse it explicitly
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="grad_tol"):
            SolveConfig(grad_tol=bad)
        with pytest.raises(ValueError, match="max_iters"):
            SolveConfig(max_iters=bad)
    # the loop compares its integer count with max_iters, so 2.5 would run 3
    for bad in (2.5, 3.0, True):
        with pytest.raises(ValueError, match="max_iters"):
            SolveConfig(max_iters=bad)
    # True would read as 1.0 and end every solve at its start; numpy's bool
    # is no bool subclass, so it is refused by name
    for bad in (True, np.True_):
        with pytest.raises(ValueError, match="grad_tol"):
            SolveConfig(grad_tol=bad)
    # compared with 0.0 these would raise TypeError, not ValueError
    for bad in ("1", None, 1j, np.array(1e-8)):
        with pytest.raises(ValueError, match="grad_tol"):
            SolveConfig(grad_tol=bad)
    # the loop tests `escape is not None`, so False would turn escape on
    for bad in (False, True, 0, "no", EscapeConfig):
        with pytest.raises(ValueError, match="escape must be None or an "
                                             "EscapeConfig"):
            SolveConfig(escape=bad)
    cfg = SolveConfig(max_iters=np.int64(5), grad_tol=np.float32(1e-6),
                      escape=EscapeConfig())
    assert (cfg.max_iters, cfg.grad_tol) == (5, np.float32(1e-6))
    # the escape's eigensolve has one fixed start, so there is no seed to set
    with pytest.raises(TypeError):
        SolveConfig(seed=1)


CONFIG_FIELD_VALUES = st.one_of(
    st.booleans(), st.sampled_from([np.True_, np.False_]),
    st.integers(-2, 20_000), st.floats(), st.text(max_size=4), st.none(),
    st.just(EscapeConfig()))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(max_iters=CONFIG_FIELD_VALUES, grad_tol=CONFIG_FIELD_VALUES,
       escape=CONFIG_FIELD_VALUES)
@example(max_iters=10, grad_tol=1e-8, escape=False)
@example(max_iters=10, grad_tol="1", escape=None)
@example(max_iters=10, grad_tol=-0.0, escape=EscapeConfig())
def test_solve_config_builds_or_refuses_property(max_iters, grad_tol, escape):
    # any draw of the three fields builds a config that the loop can read
    # or raises ValueError; never TypeError
    try:
        cfg = SolveConfig(max_iters=max_iters, grad_tol=grad_tol,
                          escape=escape)
    except ValueError:
        return
    assert cfg.escape is None or isinstance(cfg.escape, EscapeConfig)
    assert type(cfg.max_iters) is int and cfg.max_iters >= 1
    assert not isinstance(cfg.grad_tol, (bool, np.bool_, str))
    assert 0.0 < cfg.grad_tol < np.inf


def test_solver_entries_refuse_a_config_that_is_not_a_solve_config():
    # the loop reads cfg.grad_tol, which would raise AttributeError
    from sphere4.recovery import recover_full

    D = make_untf(4, 6, seed=0)
    obj = TensorObjective(D)
    for bad in (None, "x", EscapeConfig(), {"grad_tol": 1e-8}):
        with pytest.raises(ValueError, match="config must be a SolveConfig"):
            solve_batch(obj, np.eye(4)[:2], bad)
        if bad is not None:  # solve and recover_full take None as the defaults
            with pytest.raises(ValueError, match="config must be a SolveConfig"):
                solve(obj, np.ones(4), bad)
            with pytest.raises(ValueError, match="config must be a SolveConfig"):
                recover_full(D, bad)
    assert solve(obj, np.ones(4), None).termination == "grad_tol"


def test_tangent_min_eig_matches_dense():
    rng = stream(110)
    for trial in range(10):
        n = int(rng.integers(3, 20))
        D = make_untf(n, 2 * n, seed=500 + trial)
        obj = TensorObjective(D)
        q = SpherePoint.project(rng.standard_normal(n))
        H = obj.curvature(q).dense()
        # push the q-direction (a zero eigenvalue of H) out of the way so
        # the dense minimum is the tangent-restricted minimum
        shift = 10.0 * (1.0 + np.abs(H).sum())
        ref = np.linalg.eigvalsh(H + shift * np.outer(q.coords, q.coords))[0]
        lam, vec, ok = tangent_min_eig(obj.curvature(q).matvec, q.coords)
        assert ok
        assert lam == pytest.approx(ref, rel=1e-7, abs=1e-9)
        assert abs(float(vec @ q.coords)) <= 1e-10
        hv = obj.curvature(q).matvec(vec)
        assert abs(float(vec @ hv) - lam) <= 1e-7 * max(1.0, abs(lam))


def test_escape_at_exact_saddle():
    obj = identity_objective(4)
    x = retract(np.array([1.0, 1.0, 0.0, 0.0]))
    assert np.linalg.norm(obj.rgrad(x)) <= 1e-15
    out = escape_saddle(obj, x, obj._evaluate)
    assert out is not None
    point, val, g = out
    assert abs(np.linalg.norm(point) - 1.0) <= 1e-15
    ref_val, ref_g = obj.evaluate(point)
    assert (val, g.tobytes()) == (ref_val, ref_g.tobytes())
    assert val < obj.evaluate(x)[0]
    # the point the reference escape chooses, scoring through `evaluate`
    assert np.array_equal(point, reference_escape(obj, SpherePoint(x)).coords)


def test_lanczos_escape_matches_the_reference():
    # a CdlObjective has no explicit basis, so its escape eigensolve runs
    # Lanczos; every random point of this small instance has negative
    # curvature, so each one escapes
    obj = CdlObjective(
        synth_cdl(make_filter_bank(16, 2, seed=150), 0.2, 60, seed=151))
    rng = stream(152)
    for _ in range(10):
        x = retract(rng.standard_normal(obj.n))
        out = escape_saddle(obj, x, obj._evaluate)
        assert out is not None
        point, val, g = out
        assert np.array_equal(point,
                              reference_escape(obj, SpherePoint(x)).coords)
        ref_val, ref_g = obj.evaluate(point)
        assert (val, g.tobytes()) == (ref_val, ref_g.tobytes())
        again = escape_saddle(obj, x, obj._evaluate)
        assert (again[0].tobytes(), again[1], again[2].tobytes()) == (
            point.tobytes(), val, g.tobytes())


def test_no_escape_at_minimizer():
    obj = identity_objective(4)
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    assert escape_saddle(obj, e1, obj._evaluate) is None


class FixedCurvature:
    """Stub whose curvature operator reports a fixed eigenvalue, the
    direction e2 and a fixed convergence flag."""

    def __init__(self, lam: float, ok: bool):
        self.lam, self.ok = lam, ok

    def curvature(self, x):
        return self

    def min_eig(self):
        return self.lam, np.array([0.0, 1.0, 0.0]), self.ok


def test_escape_warns_and_stays_when_the_eigensolver_fails():
    calls = []
    with pytest.warns(UserWarning, match="did not converge"):
        out = escape_saddle(FixedCurvature(-1.0, False), np.array([1.0, 0.0, 0.0]),
                            lambda y: calls.append(y))
    assert out is None and calls == []


def test_escape_acts_below_the_curvature_bar_and_prefers_plus_on_a_tie():
    def flat(y):
        return -1.0, np.zeros(3)

    x = np.array([1.0, 0.0, 0.0])
    assert escape_saddle(FixedCurvature(-ESCAPE_CURV_TOL, True), x, flat) is None
    point, val, _ = escape_saddle(FixedCurvature(-2 * ESCAPE_CURV_TOL, True), x, flat)
    assert np.array_equal(point, retract(np.array([1.0, ESCAPE_STEP, 0.0])))
    assert val == -1.0


class CountingKernel:
    """The calls a solve makes to an objective: its kernel, counted, and
    the curvature operator, nothing else."""

    def __init__(self, obj):
        self.obj, self.calls = obj, 0

    def evaluate(self, x):
        self.calls += 1
        return self.obj._evaluate(x)

    def curvature(self, x):
        return self.obj.curvature(x)


@pytest.mark.parametrize("obj", [
    identity_objective(4), OdlObjective(ObservationSet(np.eye(4)), 0.2)],
    ids=["tensor", "odl"])
def test_taken_escape_makes_two_kernel_calls(obj):
    # one call for the start and one per power step; a taken escape scores
    # its two candidates and keeps the winner's value and gradient, so its
    # iteration costs two calls
    counted = CountingKernel(obj)
    q0 = SpherePoint.project(np.array([1.0, 1.0, 0.0, 0.0]))
    res = solve(counted, q0, SolveConfig(escape=EscapeConfig()))
    assert res.escapes_taken >= 1
    assert counted.calls == 1 + res.iterations + res.escapes_taken
    assert result_bits(res) == result_bits(
        reference_solve(obj, q0, SolveConfig(escape=EscapeConfig())))


def test_solve_escapes_saddle_start():
    obj = identity_objective(4)
    q0 = SpherePoint.project(np.array([1.0, 1.0, 0.0, 0.0]))
    res = solve(obj, q0, SolveConfig(escape=EscapeConfig()))
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
        res = solve(obj, q0, SolveConfig(escape=EscapeConfig()))
        assert res.termination == "grad_tol"
        lam, _, ok = tangent_min_eig(
            obj.curvature(res.q_star).matvec, res.q_star.coords)
        assert ok
        assert lam >= -1e-8
        corr = np.abs(D.entries.T @ res.q_star.coords).max()
        off_column += corr <= 0.95
    # the mixture minimizers are real: a nontrivial share of runs lands there
    assert off_column > 0


def test_solve_result_json(tmp_path):
    # the CLI's solve_result.json holds the SolveResult's fields in order,
    # with the objective trace last and only under --emit-trace
    from sphere4.cli import main

    data = tmp_path / "data"
    assert main(["gen", "--model", "odl", "--n", "3", "--m", "4", "--theta",
                 "0.1", "--p", "2000", "--seed", "1", "--out-dir",
                 str(data)]) == 0
    Y = ObservationSet(load_matrix(data / "observations.csv"))
    q0 = SpherePoint.project(stream(2, "cli-solve").standard_normal(3))
    res = solve(OdlObjective(Y, 0.1), q0)
    bare = {"q_star": res.q_star.coords.tolist(), "iterations": res.iterations,
            "final_grad_norm": res.final_grad_norm,
            "termination": res.termination, "escapes_taken": res.escapes_taken}
    rich = {**bare, "objective_trace": res.objective_trace.tolist()}
    for flags, expected in (([], bare), (["--emit-trace"], rich)):
        out = tmp_path / ("rich" if flags else "bare")
        assert main(["solve", "--data-dir", str(data), "--seed", "2", *flags,
                     "--out-dir", str(out)]) == 0
        payload = json.loads((out / "solve_result.json").read_text())
        assert list(payload.items()) == list(expected.items())


def test_init_cdl_identity_preconditioner():
    Y = ObservationSet(np.eye(4)[:, [2]])
    prob = ConvProblem(Y, Preconditioner(np.ones(4)), 0.2)
    q = init_cdl(prob, stream(112))
    assert np.array_equal(q.coords, np.array([0.0, 0.0, 1.0, 0.0]))


def test_init_cdl_draw_and_errors():
    rng = stream(113)
    Y = rng.standard_normal((6, 5))
    Y[:, [0, 3]] = 0.0
    P = Preconditioner(rng.uniform(0.5, 2.0, 6))
    prob = ConvProblem(ObservationSet(Y), P, 0.2)
    # one integers call draws the index among the nonzero measurements
    for seed in range(5):
        ell = [1, 2, 4][stream(seed, "draw").integers(3)]
        assert np.array_equal(init_cdl(prob, stream(seed, "draw")).coords,
                              measurement_start(prob.measurements, P, ell).coords)
    silent = ConvProblem(ObservationSet(np.zeros((6, 2))), P, 0.2)
    with pytest.raises(ValueError, match="every measurement is zero"):
        init_cdl(silent, stream(0))
    # a nonzero measurement that underflows to zero under a tiny P
    Z = np.zeros((4, 2))
    Z[0, 1] = 1e-160
    faint = ConvProblem(ObservationSet(Z), Preconditioner(np.full(4, 1e-170)), 0.2)
    with pytest.raises(ValueError, match="measurement 1 is zero after preconditioning"):
        init_cdl(faint, stream(0))


def test_init_cdl_scale_convention_invariant():
    bank = make_filter_bank(16, 2, seed=114)
    prob = synth_cdl(bank, 0.2, 50, seed=115)
    alt = ConvProblem(prob.measurements,
                      build_preconditioner(prob.measurements, 0.2, 2, "appendix_h"),
                      prob.theta, filters=bank)
    for seed in range(5):
        a = init_cdl(prob, stream(seed, "convention"))
        b = init_cdl(alt, stream(seed, "convention"))
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
        q = init_cdl(prob, stream(1000 + t, "trial-measurement"))
        zeta = A.T @ q.coords
        if np.sum(zeta**4) > bar:
            wins += 1
    assert wins >= 90


def test_names_the_benchmark_traces_still_resolve():
    # bench/spans.py wraps these by getattr on the named modules
    import importlib
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, names in spans.FUNCTIONS.items():
        mod = importlib.import_module(module)
        for name in names:
            assert callable(getattr(mod, name)), f"{module}.{name}"
    for module, cls in spans.METHODS:
        assert isinstance(getattr(importlib.import_module(module), cls), type)
    # bench/workloads.py builds this config for the odl_data workload
    import sphere4

    assert sphere4.SolveConfig(escape=sphere4.EscapeConfig()).escape is not None


def test_the_benchmark_calls_still_bind():
    # bench/workloads.py and bench/selftest.py call the package as
    # sphere4.<name>(...); each call must bind to that name's signature, so
    # a parameter the benchmark passes cannot be dropped unnoticed
    import ast
    import inspect
    from pathlib import Path

    import sphere4

    bench = Path(__file__).resolve().parents[1] / "bench"
    names, unbound = set(), []
    for path in (bench / "workloads.py", bench / "selftest.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "sphere4"):
                continue
            name = node.func.attr
            names.add(name)
            try:
                inspect.signature(getattr(sphere4, name)).bind(
                    *node.args, **{k.arg: k.value for k in node.keywords})
            except (AttributeError, TypeError) as exc:
                unbound.append(f"{path.name}:{node.lineno} {name}: {exc}")
    assert unbound == []
    assert {"SolveConfig", "EscapeConfig", "recover_full",
            "recover_filters"} <= names


def test_the_benchmark_coverage_check_passes_on_real_records(monkeypatch):
    # bench/workloads.py checks each recover_full result by reading its
    # attributes; on real results, at full budget and at an early stop, it
    # finds no problem, so a reshaped record cannot break it unseen
    import importlib.util
    import sys
    from pathlib import Path

    import sphere4
    from sphere4.recovery import SUCCESS_THRESHOLD

    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their module through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    used = []
    for D, budget in ((make_untf(6, 9, seed=5), 19), (Dictionary(np.eye(4)), 24)):
        cov = sphere4.recover_full(D, trial_budget=budget, seed_base=11)
        assert workloads._check_coverage(cov, D.m, budget,
                                         SUCCESS_THRESHOLD) == []
        used.append(cov.trials_used)
    assert used == [19, 7]


PUBLIC_MODULES = ("model", "objectives", "cdl", "optimize", "landscape",
                  "recovery", "cli")


@pytest.mark.parametrize("module", PUBLIC_MODULES)
def test_every_name_in_all_resolves(module):
    # a name deleted from a module must not stay behind in its __all__
    import importlib

    mod = importlib.import_module(f"sphere4.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_public_parameters_with_a_default():
    # every settable value of the library API: a parameter with a default of
    # a public function or method, or a dataclass field with a default, over
    # the names in each module's __all__ (the CLI's own options excepted).
    # A new knob must change this count on purpose.
    import dataclasses
    import importlib
    import inspect

    def defaults(fn):
        return [p.name for p in inspect.signature(fn).parameters.values()
                if p.default is not inspect.Parameter.empty]

    knobs = set()
    for module in PUBLIC_MODULES:
        mod = importlib.import_module(f"sphere4.{module}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            if (module, name) == ("cli", "main"):
                continue
            if inspect.isfunction(obj):
                knobs.update(f"{module}.{name}({p})" for p in defaults(obj))
            if not inspect.isclass(obj):
                continue
            if dataclasses.is_dataclass(obj):
                knobs.update(f"{module}.{name}.{f.name}"
                             for f in dataclasses.fields(obj)
                             if f.default is not dataclasses.MISSING
                             or f.default_factory is not dataclasses.MISSING)
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)
                if not attr.startswith("_") and inspect.isfunction(member):
                    knobs.update(f"{module}.{name}.{attr}({p})"
                                 for p in defaults(member))
    assert len(knobs) == 17, sorted(knobs)


def test_public_names():
    # the names each module exports; a new public name must change this
    # count on purpose
    import importlib

    names = sorted(f"{module}.{name}" for module in PUBLIC_MODULES
                   for name in importlib.import_module(f"sphere4.{module}").__all__)
    assert len(names) == 50, names


def test_objectives_have_one_kernel_entry():
    # evaluate gives phi and its Euclidean gradient from one correlate and
    # one adjoint pass; besides it an objective offers the Riemannian
    # gradient, the curvature operator and the pass pair. A second entry
    # to the kernel must change this set on purpose
    for cls in (TensorObjective, OdlObjective, CdlObjective):
        methods = {name for name in dir(cls)
                   if not name.startswith("_") and callable(getattr(cls, name))}
        assert methods == {"evaluate", "rgrad", "curvature", "correlate",
                           "adjoint"}, cls.__name__


def test_basis_internals_stay_in_objectives():
    # a basis objective's B and B^T, and the class itself, are read only in
    # objectives, whose _StackKernel is what the solver loop evaluates with;
    # a string naming one, as in getattr(o, "_basis"), reads it too. No
    # objective states an overflow bound for the solver to read
    import ast
    from pathlib import Path

    import sphere4

    private = {"_basis", "_basis_t", "_BasisObjective"}
    found = []
    for path in sorted(Path(sphere4.__file__).parent.glob("*.py")):
        text = path.read_text()
        found += [f"{path.stem} names {word}"
                  for word in ("_kernel_bound", "float_info") if word in text]
        if path.name == "objectives.py":
            continue
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute) and node.attr in private:
                found.append(f"{path.stem}:{node.lineno} reads .{node.attr}")
            elif isinstance(node, ast.alias) and node.name in private:
                found.append(f"{path.stem}:{node.lineno} imports {node.name}")
            elif isinstance(node, ast.Constant) and node.value in private:
                found.append(f"{path.stem}:{node.lineno} names {node.value!r}")
    assert found == []


def test_no_unused_imports():
    # every name a package module or a test file imports is used there or
    # exported in its __all__
    import ast
    from pathlib import Path

    import sphere4

    modules = [path for path in sorted(Path(sphere4.__file__).parent.glob("*.py"))
               if path.name != "__init__.py"]
    unused = []
    for path in modules + sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported, used, exported = set(), set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                imported.update((a.asname or a.name).split(".")[0]
                                for a in node.names)
            elif (isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["__all__"]):
                exported.update(ast.literal_eval(node.value))
        unused += [f"{path.stem}.{name}"
                   for name in sorted(imported - used - exported)]
    assert unused == []
