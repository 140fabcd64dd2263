import numpy as np
import pytest

from sphere4.model import (
    Dictionary,
    ObservationSet,
    SpherePoint,
    make_untf,
    sample_bg,
    stream,
    synth_odl,
)
from sphere4.objectives import (
    OdlObjective,
    TensorObjective,
    expectation_gap,
    fd_directional,
    fd_quadratic,
    retract,
)


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
    X = sample_bg(4, p, theta, seed=2)
    Y = synth_odl(D, X)
    obj = OdlObjective(Y, theta)
    q = SpherePoint.project(stream(3).standard_normal(3))
    # oracle: direct scalar summation of the defining formula
    acc = 0.0
    for k in range(p):
        acc += float(q.coords @ Y.entries[:, k]) ** 4
    ref = -acc / (12.0 * theta * (1.0 - theta) * p)
    assert obj.value(q) == pytest.approx(ref, rel=1e-13)
    assert obj.value(q) <= 0.0


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
    H = obj.rhess(e1)
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
        H = obj.rhess(q)
        assert np.linalg.norm(H @ q) <= 1e-12 * max(1.0, np.abs(H).max())
        assert np.abs(H - H.T).max() <= 1e-12 * max(1.0, np.abs(H).max())


def test_rhess_vec_matches_dense():
    rng = stream(7)
    D = make_untf(6, 12, seed=8)
    obj = TensorObjective(D)
    q = retract(rng.standard_normal(6))
    H = obj.rhess(q)
    for _ in range(10):
        v = rng.standard_normal(6)
        assert np.linalg.norm(obj.rhess_vec(q, v) - H @ v) <= 1e-12 * np.linalg.norm(v)


def test_rhess_quadratic_form_finite_differences():
    rng = stream(9)
    for _ in range(10):
        n = int(rng.integers(3, 8))
        A = rng.standard_normal((n, 2 * n))
        obj = TensorObjective(Dictionary(A))
        q = retract(rng.standard_normal(n))
        v = random_tangent(rng, q)
        quad = float(v @ obj.rhess_vec(q, v))
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
        float(v @ obj.rhess_vec(q, v)), rel=1e-4
    )
    assert abs(float(obj.rgrad(q) @ q)) <= 1e-12
    assert np.linalg.norm(obj.rhess(q) @ q) <= 1e-12


def test_evaluate_matches_value_and_grad_bitwise():
    rng = stream(22)
    D = make_untf(6, 12, seed=23)
    objs = [TensorObjective(D),
            OdlObjective(synth_odl(D, sample_bg(12, 400, 0.2, seed=24)), 0.2)]
    for obj in objs:
        for _ in range(5):
            q = SpherePoint.project(rng.standard_normal(6))
            val, g = obj.evaluate(q)
            assert val == obj.value(q)
            assert np.array_equal(g, obj.grad(q))


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


def test_dense_hessian_guard():
    Y = ObservationSet(np.zeros((4097, 2)))
    obj = OdlObjective(Y, 0.1)
    with pytest.raises(ValueError):
        obj.rhess(retract(np.ones(4097)))
    # the matrix-free path still works at that size
    q = retract(np.ones(4097))
    assert np.linalg.norm(obj.rhess_vec(q, np.ones(4097))) >= 0.0


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
