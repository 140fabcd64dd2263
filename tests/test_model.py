import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphere4.model import (
    Dictionary,
    ObservationSet,
    SpherePoint,
    coherence,
    load_matrix,
    make_filter_bank,
    make_untf,
    sample_bg,
    save_matrix,
    spikiness,
    stream,
    synth_odl,
)


def welch_bound(n, m):
    return np.sqrt((m - n) / ((m - 1) * n))


def test_untf_square_is_orthogonal():
    D = make_untf(4, 4, seed=0)
    assert D.untf_converged
    A = D.entries
    assert np.linalg.norm(A @ A.T - np.eye(4)) <= 1e-9
    assert np.abs(np.linalg.norm(A, axis=0) - 1.0).max() <= 1e-12


def test_untf_welch_floor_3x4():
    D = make_untf(3, 4, seed=0)
    assert D.coherence >= 1.0 / 3.0 - 1e-9


def test_untf_residuals_16x48():
    D = make_untf(16, 48, seed=1)
    assert D.untf_converged
    assert D.frame_residual <= 1e-10
    assert D.unit_norm_error <= 1e-10


@pytest.mark.parametrize("n,m", [(3, 4), (5, 10), (8, 24), (10, 30), (6, 36)])
def test_untf_welch_bound_grid(n, m):
    # m <= n^2 throughout, where the generator is expected to converge
    D = make_untf(n, m, seed=42)
    assert D.untf_converged
    assert D.frame_residual <= 1e-10
    assert D.coherence >= welch_bound(n, m) - 1e-9


def test_untf_shape_contract():
    with pytest.raises(ValueError):
        make_untf(5, 4, seed=0)


def test_dictionary_rejects_wide_transpose():
    with pytest.raises(ValueError):
        Dictionary(np.zeros((4, 3)))


@pytest.mark.parametrize("cls", [Dictionary, ObservationSet])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_matrix_types_reject_non_finite_entries(cls, bad):
    a = np.eye(3)
    a[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        cls(a)


def test_sample_bg_tiny_theta_all_zero():
    X = sample_bg(10, 10, theta=1e-12, seed=3)
    assert np.all(X.entries == 0.0)


def test_sample_bg_dense_theta():
    X = sample_bg(50, 50, theta=1.0 - 1e-12, seed=3)
    assert np.all(X.entries != 0.0)


def test_sample_bg_empirical_density():
    m, p, theta = 100, 10_000, 0.1
    X = sample_bg(m, p, theta, seed=7)
    frac = np.count_nonzero(X.entries) / (m * p)
    se = np.sqrt(theta * (1 - theta) / (m * p))
    assert abs(frac - theta) <= 3 * se


def test_sample_bg_deterministic():
    a = sample_bg(20, 30, 0.2, seed=11).entries
    b = sample_bg(20, 30, 0.2, seed=11).entries
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("theta", [0.0, 1.0, -0.1, 1.5])
def test_sample_bg_theta_contract(theta):
    with pytest.raises(ValueError):
        sample_bg(5, 5, theta, seed=0)


def test_coherence_identity():
    assert coherence(Dictionary(np.eye(5))) == 0.0


def test_coherence_aligned_columns():
    A = np.eye(3)
    A = np.hstack([A, 2.0 * A[:, :1]])
    assert coherence(Dictionary(A)) == pytest.approx(1.0)


def test_coherence_matches_bruteforce():
    D = make_untf(3, 4, seed=5)
    A = D.entries
    # oracle: double loop over normalized column pairs
    best = 0.0
    for i in range(A.shape[1]):
        for j in range(A.shape[1]):
            if i == j:
                continue
            ai = A[:, i] / np.linalg.norm(A[:, i])
            aj = A[:, j] / np.linalg.norm(A[:, j])
            best = max(best, abs(float(ai @ aj)))
    assert coherence(D) == pytest.approx(best, abs=1e-14)
    assert best >= 1.0 / 3.0 - 1e-9


def test_coherence_zero_column():
    A = np.eye(3)
    A[:, 1] = 0.0
    with pytest.raises(ValueError):
        coherence(Dictionary(A))


def test_spikiness_examples():
    v = np.array([1.0] + [0.1] * 7)
    assert spikiness(v) == pytest.approx(10.0)
    assert spikiness([1.0, 1.0]) == pytest.approx(1.0)
    assert spikiness([0.9, -0.3, 0.05]) == pytest.approx(3.0)
    assert spikiness([2.0, 0.0, 0.0]) == np.inf


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=2, max_size=12), st.randoms())
def test_spikiness_symmetry(vals, pyrandom):
    z = np.array(vals)
    if np.partition(np.abs(z), -2)[-2] == 0.0:
        ref = np.inf
    else:
        ref = spikiness(z)
    flipped = z * np.where(np.arange(z.size) % 2 == 0, -1.0, 1.0)
    perm = list(range(z.size))
    pyrandom.shuffle(perm)
    assert spikiness(flipped) == ref or (
        np.isinf(ref) and np.isinf(spikiness(flipped))
    )
    assert spikiness(z[perm]) == ref or (
        np.isinf(ref) and np.isinf(spikiness(z[perm]))
    )


def test_synth_odl_zero_code():
    D = make_untf(3, 4, seed=0)
    X = sample_bg(4, 5, 0.5, seed=1)
    zero = type(X)(np.zeros_like(X.entries), X.theta)
    assert np.all(synth_odl(D, zero).entries == 0.0)


def test_synth_odl_unit_spike():
    D = make_untf(3, 4, seed=0)
    E = np.zeros((4, 4))
    E[0, 0] = 1.0
    X = sample_bg(4, 4, 0.5, seed=1)
    Y = synth_odl(D, type(X)(E, X.theta))
    assert np.allclose(Y.entries[:, 0], D.entries[:, 0])
    assert np.all(Y.entries[:, 1:] == 0.0)


def test_synth_odl_matches_triple_loop():
    D = make_untf(3, 4, seed=9)
    X = sample_bg(4, 5, 0.3, seed=10)
    Y = synth_odl(D, X).entries
    # oracle: naive triple loop
    ref = np.zeros((3, 5))
    for i in range(3):
        for k in range(5):
            for j in range(4):
                ref[i, k] += D.entries[i, j] * X.entries[j, k]
    assert np.abs(Y - ref).max() <= 1e-14


def test_synth_odl_shape_contract():
    D = make_untf(3, 4, seed=0)
    X = sample_bg(5, 2, 0.5, seed=0)
    with pytest.raises(ValueError):
        synth_odl(D, X)


def test_sphere_point_contract():
    with pytest.raises(ValueError):
        SpherePoint(np.array([1.0, 1.0]))
    q = SpherePoint.project(np.array([3.0, 4.0]))
    assert abs(np.linalg.norm(q.coords) - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        SpherePoint.project(np.zeros(3))


def test_sphere_point_correlations():
    D = make_untf(3, 4, seed=2)
    q = SpherePoint.project(np.array([1.0, -2.0, 0.5]))
    assert np.allclose(q.correlations(D), D.entries.T @ q.coords)


def test_filter_bank_basics():
    bank = make_filter_bank(16, 3, seed=4)
    assert bank.K == 3 and bank.n == 16
    assert np.allclose(np.linalg.norm(bank.filters, axis=1), 1.0)
    assert bank.sigma_min > 0.0
    assert bank.kappa >= 1.0


def test_stream_split():
    a = stream(7, "x", 0).standard_normal(8)
    b = stream(7, "x", 0).standard_normal(8)
    c = stream(7, "x", 1).standard_normal(8)
    d = stream(7, "y", 0).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_matrix_roundtrip(tmp_path):
    A = stream(0).standard_normal((3, 5))
    path = tmp_path / "dictionary.csv"
    save_matrix(path, A, kind="dictionary", seed=12, theta=0.1,
                provenance=("command: test", "seed: 12"))
    back, meta = load_matrix(path)
    assert np.abs(back - A).max() <= 1e-15
    assert meta == {"rows": 3, "cols": 5, "kind": "dictionary",
                    "seed": 12, "theta": 0.1}
    raw = path.read_text()
    assert raw.startswith("# command: test")
    sidecar = json.loads((tmp_path / "dictionary.json").read_text())
    assert sidecar["cols"] == 5
