import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sphere4.objectives as objectives
from sphere4.cdl import CdlObjective, synth_cdl
from sphere4.model import (
    Dictionary,
    ObservationSet,
    SpherePoint,
    make_filter_bank,
    make_untf,
    retract,
    sample_bg,
    stream,
    synth_odl,
)
from sphere4.objectives import (
    OdlObjective,
    TensorObjective,
    _StackKernel,
    tangent_min_eig,
)

from oracles import expectation_gap, fd_directional, fd_quadratic


def random_tangent(rng, q):
    v = rng.standard_normal(q.size)
    v -= q * (q @ v)
    return v / np.linalg.norm(v)


def test_tensor_value_identity_dictionary():
    obj = TensorObjective(Dictionary(np.eye(3)))
    assert obj.value(SpherePoint(np.array([1.0, 0, 0]))) == pytest.approx(-0.25)
    q = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    assert obj.value(q) == pytest.approx(-0.125)


def test_odl_value_matches_scalar_loop():
    D = make_untf(3, 4, seed=1)
    theta, p = 0.1, 50
    Y = synth_odl(D, sample_bg(4, p, theta, seed=2))
    q = SpherePoint.project(stream(3).standard_normal(3))
    # (objective, its samples as columns, c): the tensor objective treats
    # the dictionary columns as its samples, with c = 1/4
    cases = [(OdlObjective(Y, theta), Y.entries,
              1.0 / (12.0 * theta * (1.0 - theta) * p)),
             (TensorObjective(D), D.entries, 0.25)]
    for obj, B, c in cases:
        # oracle: direct scalar summation of the defining formulas
        acc = 0.0
        grad = np.zeros(3)
        for k in range(B.shape[1]):
            t = float(q.coords @ B[:, k])
            acc += t ** 4
            grad += t ** 3 * B[:, k]
        assert obj.value(q) == pytest.approx(-c * acc, rel=1e-13)
        assert obj.value(q) <= 0.0
        ref = -4.0 * c * grad
        assert np.linalg.norm(obj.grad(q) - ref) <= 1e-13 * np.linalg.norm(ref)


def test_odl_theta_contract():
    Y = ObservationSet(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        OdlObjective(Y, 0.0)


def test_rgrad_critical_points_identity():
    obj = TensorObjective(Dictionary(np.eye(3)))
    e1 = np.array([1.0, 0.0, 0.0])
    assert np.linalg.norm(obj.rgrad(e1)) <= 1e-15
    saddle = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    assert np.linalg.norm(obj.rgrad(saddle)) <= 1e-15


def test_rgrad_matches_finite_differences():
    rng = stream(4)
    for trial in range(20):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(n, 3 * n + 1))
        A = rng.standard_normal((n, m))
        obj = TensorObjective(Dictionary(A))
        q = retract(rng.standard_normal(n))
        g = obj.rgrad(q)
        for _ in range(5):
            v = random_tangent(rng, q)
            fd = fd_directional(obj, q, v)
            assert fd == pytest.approx(float(g @ v), rel=1e-6, abs=1e-9)


def test_rgrad_tangency():
    rng = stream(5)
    for _ in range(100):
        n = int(rng.integers(3, 12))
        A = rng.standard_normal((n, 2 * n))
        q = retract(rng.standard_normal(n))
        g = TensorObjective(Dictionary(A)).rgrad(q)
        assert abs(float(g @ q)) <= 1e-12


def test_rhess_identity_dictionary_closed_form():
    obj = TensorObjective(Dictionary(np.eye(4)))
    e1 = np.zeros(4)
    e1[0] = 1.0
    H = obj.curvature(e1).dense()
    expected = np.eye(4) - np.outer(e1, e1)
    assert np.abs(H - expected).max() <= 1e-12
    # PSD on the tangent space: a true component is second-order optimal
    assert np.linalg.eigvalsh(H).min() >= -1e-12


def test_rhess_annihilates_q_and_symmetry():
    rng = stream(6)
    for _ in range(100):
        n = int(rng.integers(3, 10))
        A = rng.standard_normal((n, n + 2))
        obj = TensorObjective(Dictionary(A))
        q = retract(rng.standard_normal(n))
        H = obj.curvature(q).dense()
        assert np.linalg.norm(H @ q) <= 1e-12 * max(1.0, np.abs(H).max())
        assert np.abs(H - H.T).max() <= 1e-12 * max(1.0, np.abs(H).max())


def test_rhess_vec_matches_dense():
    rng = stream(7)
    D = make_untf(6, 12, seed=8)
    obj = TensorObjective(D)
    q = retract(rng.standard_normal(6))
    H = obj.curvature(q).dense()
    for _ in range(10):
        v = rng.standard_normal(6)
        hv = obj.curvature(q).matvec(v)
        assert np.linalg.norm(hv - H @ v) <= 1e-12 * np.linalg.norm(v)


def test_rhess_quadratic_form_finite_differences():
    rng = stream(9)
    for _ in range(10):
        n = int(rng.integers(3, 8))
        A = rng.standard_normal((n, 2 * n))
        obj = TensorObjective(Dictionary(A))
        q = retract(rng.standard_normal(n))
        v = random_tangent(rng, q)
        quad = float(v @ obj.curvature(q).matvec(v))
        fd = fd_quadratic(obj, q, v)
        assert fd == pytest.approx(quad, rel=1e-4, abs=1e-6)


def test_odl_calculus_same_kernel():
    rng = stream(10)
    D = make_untf(4, 8, seed=11)
    X = sample_bg(8, 30, 0.2, seed=12)
    obj = OdlObjective(synth_odl(D, X), 0.2)
    q = retract(rng.standard_normal(4))
    v = random_tangent(rng, q)
    assert fd_directional(obj, q, v) == pytest.approx(
        float(obj.rgrad(q) @ v), rel=1e-6
    )
    assert fd_quadratic(obj, q, v) == pytest.approx(
        float(v @ obj.curvature(q).matvec(v)), rel=1e-4
    )
    assert abs(float(obj.rgrad(q) @ q)) <= 1e-12
    assert np.linalg.norm(obj.curvature(q).dense() @ q) <= 1e-12


def test_evaluate_matches_value_and_grad_bitwise():
    rng = stream(22)
    D = make_untf(6, 12, seed=23)
    objs = [TensorObjective(D),
            OdlObjective(synth_odl(D, sample_bg(12, 400, 0.2, seed=24)), 0.2),
            CdlObjective(
                synth_cdl(make_filter_bank(8, 2, seed=25), 0.2, 200, seed=26))]
    for obj in objs:
        for _ in range(5):
            q = SpherePoint.project(rng.standard_normal(obj.n))
            val, g = obj.evaluate(q)
            assert val == obj.value(q)
            assert np.array_equal(g, obj.grad(q))


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(shape=st.integers(1, 24).flatmap(
           lambda n: st.tuples(st.just(n), st.integers(n, 2 * n))),
       seed=st.integers(0, 2**31 - 1),
       form=st.sampled_from(["array", "SpherePoint", "reversed view"]))
def test_evaluate_matches_value_and_grad_bitwise_property(shape, seed, form):
    # a reversed view has a negative stride, which dot copies first
    n, m = shape
    rng = stream(seed, "evaluate-property")
    D = Dictionary(rng.standard_normal((n, m)))
    x = retract(rng.standard_normal(n))
    q = {"array": x, "SpherePoint": SpherePoint(x),
         "reversed view": x[::-1].copy()[::-1]}[form]
    for obj in (TensorObjective(D),
                OdlObjective(synth_odl(D, sample_bg(m, 64, 0.2, seed=seed)), 0.2)):
        val, g = obj.evaluate(q)
        assert val.hex() == obj.value(q).hex()
        assert g.tobytes() == obj.grad(q).tobytes()


@pytest.mark.parametrize("shape", [(16, 32), (16, 24), (8, 16), (12, 32),
                                   (8, 12), (16, 2000)])
def test_evaluate_rows_matches_lone_rows_bitwise(shape):
    # the stack kernel, on one shared basis and on a stack of per-row
    # bases: the stacked matmul runs a lone row's gemv per row, and vecdot
    # its vdot; (k,n)@(n,m) gemm and einsum would not keep these bits
    n, m = shape
    obj = (TensorObjective(make_untf(n, m, seed=m)) if m <= 32 else
           OdlObjective(synth_odl(make_untf(n, 24, seed=27),
                                  sample_bg(24, m, 0.2, seed=28)), 0.2))

    def like(j):  # another objective of obj's kind, c and basis shape
        B = stream(30, n, m, j).standard_normal((n, m))
        return (TensorObjective(Dictionary(B)) if m <= 32 else
                OdlObjective(ObservationSet(B), 0.2))

    for k in (1, 2, 3, 8, 16):
        X = retract(stream(29, n, m, k).standard_normal((k, n)))
        # one row has one objective, which is a shared basis
        for objs, ndim in (([obj] * k, 2),
                           ([like(j) for j in range(k)], 2 + (k > 1))):
            kernel = _StackKernel(objs)
            assert kernel.B.ndim == ndim
            vals, G = kernel(X)
            assert G.shape == (k, n)
            for o, x, val, g in zip(objs, X, vals, G):
                lone_val, lone_g = o._evaluate(x)
                assert val.hex() == lone_val.hex()
                assert g.tobytes() == lone_g.tobytes()


def test_sign_symmetry():
    rng = stream(13)
    D = make_untf(5, 10, seed=14)
    obj = TensorObjective(D)
    q = retract(rng.standard_normal(5))
    assert obj.value(-q) == pytest.approx(obj.value(q), rel=1e-14)
    assert np.allclose(obj.rgrad(-q), -obj.rgrad(q), atol=1e-14)


def test_rgrad_at_columns_bounded_by_coherence():
    D = make_untf(8, 16, seed=15)
    obj = TensorObjective(D)
    mu = D.coherence
    ceiling = D.m * mu * 1.0  # unit columns, so max ||a_j||^3 = 1
    for i in range(D.m):
        g = obj.rgrad(retract(D.entries[:, i]))
        assert np.linalg.norm(g) <= ceiling + 1e-12


def reference_rhess_vec(obj, q, v):
    """rhess_vec as written before the curvature operator: Z recomputed."""
    z = obj.correlate(q)
    w = v - q * (q @ v)
    hw = -12.0 * obj.c * obj.adjoint((z**2) * obj.correlate(w))
    z2 = z * z
    qg = -4.0 * obj.c * float(np.vdot(z2, z2))
    out = hw - qg * w
    return out - q * (q @ out)


def reference_rhess(obj, q):
    """rhess as written before the curvature operator."""
    z = obj.correlate(q)
    he = -12.0 * obj.c * ((obj.basis * (z**2)) @ obj.basis.T)
    z2 = z * z
    qg = -4.0 * obj.c * float(np.vdot(z2, z2))
    proj = np.eye(obj.n) - np.outer(q, q)
    return proj @ (he - qg * np.eye(obj.n)) @ proj


def basis_objective(kind: str, n: int, seed: int):
    D = make_untf(n, 2 * n, seed=seed)
    if kind == "tensor":
        return TensorObjective(D)
    return OdlObjective(synth_odl(D, sample_bg(2 * n, 400, 0.2, seed=seed + 1)), 0.2)


@pytest.mark.parametrize("kind", ["tensor", "odl"])
def test_rhess_views_bit_identical_to_reference(kind):
    rng = stream(60)
    for trial in range(4):
        obj = basis_objective(kind, 4 + 3 * trial, seed=610 + trial)
        q = retract(rng.standard_normal(obj.n))
        assert np.array_equal(obj.curvature(q).dense(), reference_rhess(obj, q))
        for _ in range(3):
            v = rng.standard_normal(obj.n)
            assert np.array_equal(obj.curvature(q).matvec(v),
                                  reference_rhess_vec(obj, q, v))


@pytest.mark.parametrize("kind", ["tensor", "odl"])
def test_min_eig_dense_matches_lanczos(kind):
    rng = stream(62)
    for trial in range(6):
        obj = basis_objective(kind, 3 + 3 * trial, seed=630 + trial)
        q = retract(rng.standard_normal(obj.n))
        curv = obj.curvature(q)
        lam, vec, ok = curv.min_eig()
        ref, _, ref_ok = tangent_min_eig(curv.matvec, q)
        assert ok and ref_ok
        assert lam == pytest.approx(ref, rel=1e-7, abs=1e-12)
        assert abs(float(vec @ q)) <= 1e-10
        assert float(np.linalg.norm(vec)) == pytest.approx(1.0, abs=1e-12)
        assert abs(float(vec @ curv.matvec(vec)) - lam) <= 1e-9 * max(1.0, abs(lam))


def test_min_eig_dense_matches_lanczos_at_exact_saddle():
    # phi = -(1/4) sum q_i^4 at (e1 + e2)/sqrt(2): the tangent Hessian is -1
    # along e1 - e2 and +1/2 along e3, e4
    obj = TensorObjective(Dictionary(np.eye(4)))
    q = retract(np.array([1.0, 1.0, 0.0, 0.0]))
    curv = obj.curvature(q)
    lam, vec, ok = curv.min_eig()
    ref, ref_vec, ref_ok = tangent_min_eig(curv.matvec, q)
    assert ok and ref_ok
    assert lam == pytest.approx(-1.0, rel=1e-12)
    assert ref == pytest.approx(lam, rel=1e-7)
    assert abs(float(vec @ q)) <= 1e-10
    assert abs(abs(float(vec @ ref_vec)) - 1.0) <= 1e-7
    assert abs(float(vec @ curv.matvec(vec)) - lam) <= 1e-12


def test_lanczos_capped_below_the_tangent_dimension_is_not_converged(
        monkeypatch):
    # 2 Krylov steps on an 11-dimensional tangent space neither meet the
    # residual bar nor exhaust the space; the Ritz pair is still a unit
    # tangent vector, with a value above the true minimum
    obj = basis_objective("tensor", 12, seed=640)
    q = retract(stream(64).standard_normal(12))
    curv = obj.curvature(q)
    exact, _, _ = curv.min_eig()
    monkeypatch.setattr(objectives, "LANCZOS_MAX_ITERS", 2)
    lam, vec, ok = tangent_min_eig(curv.matvec, q)
    assert ok is False
    assert lam > exact + 1e-6
    assert abs(float(vec @ q)) <= 1e-10
    assert float(np.linalg.norm(vec)) == pytest.approx(1.0, abs=1e-12)


def test_min_eig_on_a_zero_dimensional_tangent_space():
    obj = TensorObjective(Dictionary(np.ones((1, 2))))
    lam, vec, ok = obj.curvature(np.array([1.0])).min_eig()
    assert (lam, vec.tolist(), ok) == (0.0, [0.0], True)


@pytest.mark.filterwarnings("error")
def test_overflowing_basis_raises_typed_error():
    huge = 1e110 * np.arange(1.0, 10.0).reshape(3, 3)
    with pytest.raises(ValueError, match="overflow"):
        OdlObjective(ObservationSet(huge), 0.2)
    with pytest.raises(ValueError, match="overflow"):
        TensorObjective(Dictionary(huge))
    # data far above unit scale that still fits evaluates finitely
    obj = OdlObjective(ObservationSet(huge * 1e-50), 0.2)
    val, g = obj.evaluate(retract(np.ones(3)))
    assert np.isfinite(val) and np.all(np.isfinite(g))


def test_dense_hessian_guard():
    Y = ObservationSet(np.zeros((4097, 2)))
    obj = OdlObjective(Y, 0.1)
    with pytest.raises(ValueError):
        obj.curvature(retract(np.ones(4097))).dense()
    # the matrix-free path still works at that size
    q = retract(np.ones(4097))
    assert np.linalg.norm(obj.curvature(q).matvec(np.ones(4097))) >= 0.0
    # and the curvature operator falls back to Lanczos there
    lam, _, ok = obj.curvature(q).min_eig()
    assert (lam, ok) == (0.0, True)
    # a CDL objective has no explicit basis at any size: refused alike, and
    # min_eig takes Lanczos
    bank = make_filter_bank(8, 2, seed=18)
    cdl = CdlObjective(synth_cdl(bank, 0.2, 50, seed=19))
    q = retract(stream(20).standard_normal(8))
    with pytest.raises(ValueError, match="explicit basis"):
        cdl.curvature(q).dense()
    assert cdl.curvature(q).min_eig()[2]


def test_expectation_gap_theta_limit():
    D = make_untf(3, 4, seed=16)
    q = SpherePoint.project(stream(17).standard_normal(3))
    phi_t = TensorObjective(D).value(q)
    _, predicted = expectation_gap(D, 1e-9, q, p=1, seed=0)
    assert predicted == pytest.approx(phi_t, abs=1e-8)


def test_expectation_gap_identity_closed_form():
    # A = I, q = e1, theta = 1/3: per-sample value is -(3/8) x1^4 with
    # E[x1^4] = 3 theta = 1, so the expectation is exactly -3/8
    D = Dictionary(np.eye(3))
    q = np.array([1.0, 0.0, 0.0])
    mc, predicted = expectation_gap(D, 1.0 / 3.0, q, p=200_000, seed=18)
    assert predicted == pytest.approx(-0.375, abs=1e-15)
    assert mc == pytest.approx(predicted, abs=0.02)


def test_expectation_gap_monte_carlo_band():
    D = make_untf(3, 4, seed=19)
    theta, p = 0.1, 100_000
    q = SpherePoint.project(stream(20).standard_normal(3))
    mc, predicted = expectation_gap(D, theta, q, p, seed=21)
    # reconstruct the per-sample values to get the sample standard error
    X = sample_bg(D.m, p, theta, seed=21)
    Y = synth_odl(D, X)
    s = -((q.coords @ Y.entries) ** 4) / (12 * theta * (1 - theta))
    assert np.mean(s) == pytest.approx(mc, rel=1e-12)
    se = np.std(s, ddof=1) / np.sqrt(p)
    assert abs(mc - predicted) <= 4.0 * se
