import numpy as np
import pytest

import sphere4.model as model
from sphere4.model import (
    Dictionary,
    FilterBank,
    ObservationSet,
    SpherePoint,
    _untf_stack,
    coherence,
    load_matrix,
    make_filter_bank,
    make_untf,
    retract,
    sample_bg,
    save_matrix,
    stream,
    synth_odl,
)


def welch_bound(n, m):
    return np.sqrt((m - n) / ((m - 1) * n))


def frame_residual(D):
    """Frobenius distance of (n/m) A A^T from the identity."""
    n, m = D.entries.shape
    return float(np.linalg.norm((n / m) * (D.entries @ D.entries.T) - np.eye(n)))


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
    assert frame_residual(D) <= 1e-10
    assert np.abs(np.linalg.norm(D.entries, axis=0) - 1.0).max() <= 1e-10


@pytest.mark.parametrize("n,m", [(3, 4), (5, 10), (8, 24), (10, 30), (6, 36)])
def test_untf_welch_bound_grid(n, m):
    # m <= n^2 throughout, where the generator is expected to converge
    D = make_untf(n, m, seed=42)
    assert D.untf_converged
    assert frame_residual(D) <= 1e-10
    assert D.coherence >= welch_bound(n, m) - 1e-9


def two_gram_untf(n, m, seed, max_iters=5000, tol_untf=1e-10):
    """make_untf's loop as it was, forming A A^T for the residual and again
    for the eigendecomposition."""
    rng = stream(seed, "untf")
    A = rng.normal(0.0, 1.0 / np.sqrt(n), size=(n, m))
    A = A / np.linalg.norm(A, axis=0)
    eye = np.eye(n)
    scale = n / m
    best = A
    best_res = np.inf
    for _ in range(max_iters):
        res = np.linalg.norm(scale * (A @ A.T) - eye)
        if res < best_res:
            best, best_res = A, res
        if res <= tol_untf:
            return A, True
        w, V = np.linalg.eigh((A @ A.T) / scale)
        w = np.maximum(w, 1e-14 * w[-1])
        A = (V * (1.0 / np.sqrt(w))) @ V.T @ A
        A = A / np.linalg.norm(A, axis=0)
    res = np.linalg.norm(scale * (A @ A.T) - eye)
    if res < best_res:
        best, best_res = A, res
    return best, bool(best_res <= tol_untf)


@pytest.mark.parametrize("n,m,seed,max_iters", [
    (8, 16, 3, 5000), (16, 32, 4, 5000), (6, 18, 5, 5000), (16, 32, 6, 7)])
def test_make_untf_bit_identical_to_two_gram_loop(monkeypatch, n, m, seed,
                                                  max_iters):
    monkeypatch.setattr(model, "UNTF_MAX_ITERS", max_iters)
    D = make_untf(n, m, seed=seed)
    ref, converged = two_gram_untf(n, m, seed, max_iters=max_iters)
    assert np.array_equal(D.entries, ref)
    assert D.untf_converged is converged
    assert converged is (max_iters == 5000)


def test_untf_shape_contract():
    with pytest.raises(ValueError):
        make_untf(5, 4, seed=0)


def assert_stack_matches_make_untf(monkeypatch, n, m, seeds, max_iters):
    """Every frame of one stack equals the scalar reference loop and a
    stack of one (which make_untf is) bit for bit, untf_converged too."""
    monkeypatch.setattr(model, "UNTF_MAX_ITERS", max_iters)
    stack = _untf_stack(n, m, seeds)
    assert len(stack) == len(seeds)
    for seed, D in zip(seeds, stack):
        ref, converged = two_gram_untf(n, m, seed, max_iters=max_iters)
        assert D.entries.tobytes() == ref.tobytes()
        assert D.untf_converged is converged
        alone = _untf_stack(n, m, [seed])[0]
        assert D.entries.tobytes() == alone.entries.tobytes()
        assert D.untf_converged is alone.untf_converged
    return [D.untf_converged for D in stack]


@pytest.mark.parametrize("max_iters", [1, 3, 7, 5000])
@pytest.mark.parametrize("n,m", [(1, 5), (3, 3), (6, 18), (8, 16), (12, 16),
                                 (16, 32)])
def test_untf_stack_bit_identical_to_make_untf(monkeypatch, n, m, max_iters):
    assert_stack_matches_make_untf(monkeypatch, n, m, [11, 12, 13, 14, 15, 16],
                                   max_iters)


def test_untf_stack_mixes_capped_and_converged_frames(monkeypatch):
    # at 8x16 these seeds converge after 64-82 updates, so a cap of 70 leaves
    # frames at different iterations and others capped in one stack
    flags = assert_stack_matches_make_untf(monkeypatch, 8, 16, range(6), 70)
    assert sorted(flags) == [False] * 3 + [True] * 3


@pytest.mark.parametrize("n,m", [(3, 5), (8, 16)])
def test_untf_stack_keeps_each_frames_best_iterate(monkeypatch, n, m):
    # squaring the eigenvalues overshoots each update, so residuals rise and
    # fall and a capped frame's best iterate is seldom its last one
    eigh = np.linalg.eigh

    def overshoot(G):
        w, V = eigh(G)
        return w * w, V

    monkeypatch.setattr(np.linalg, "eigh", overshoot)
    flags = assert_stack_matches_make_untf(monkeypatch, n, m, range(6), 9)
    assert not any(flags)


def test_untf_stack_of_one_and_of_none(monkeypatch):
    assert_stack_matches_make_untf(monkeypatch, 8, 16, [3], 5000)
    assert _untf_stack(8, 16, []) == []


@pytest.mark.parametrize("n,m,seed", [
    (0, 4, 10), (5, 4, 10), (2.5, 4, 10), (3, 4.0, 10), (True, 4, 10),
    (3, 4, 1.5), (3, 4, np.float64(1)), (3, 4, "1")])
def test_untf_stack_refuses_what_make_untf_refuses(monkeypatch, n, m, seed):
    monkeypatch.setattr(model, "UNTF_MAX_ITERS", 10)
    with pytest.raises(ValueError) as ref:
        make_untf(n, m, seed)
    # a seed is read only when its frame is drawn, so [] refuses only n, m
    lists = ([seed], [0, seed]) + (([],) if isinstance(seed, int) else ())
    for seeds in lists:
        with pytest.raises(ValueError) as got:
            _untf_stack(n, m, seeds)
        assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("sampler, sizes", [
    (make_filter_bank, (16.5, 2)), (make_filter_bank, (16, 2.0)),
    (make_filter_bank, (True, 2)), (make_filter_bank, (0, 2)),
    (lambda m, p, seed: sample_bg(m, p, 0.2, seed), (True, 10)),
    (lambda m, p, seed: sample_bg(m, p, 0.2, seed), (4, 10.0)),
    (lambda m, p, seed: sample_bg(m, p, 0.2, seed), (4, "10")),
    (lambda m, p, seed: sample_bg(m, p, 0.2, seed), (4, 0))],
    ids=["bank-n-float", "bank-K-float", "bank-n-bool", "bank-n-zero",
         "bg-m-bool", "bg-p-float", "bg-p-str", "bg-p-zero"])
def test_samplers_refuse_non_integer_sizes(sampler, sizes):
    # the integer check of the UNTF generator: numpy raised TypeError on
    # 16.5, and True drew a size-1 sample
    with pytest.raises(ValueError, match="need integers"):
        sampler(*sizes, seed=1)
    assert sample_bg(np.int64(4), 10, 0.2, seed=1).shape == (4, 10)


def test_dictionary_rejects_wide_transpose():
    with pytest.raises(ValueError):
        Dictionary(np.zeros((4, 3)))


@pytest.mark.parametrize("cls", [Dictionary, ObservationSet, FilterBank])
@pytest.mark.parametrize("bad", [
    np.nan, np.inf, -np.inf,
    pytest.param((0, 0), id="0x0"), pytest.param((3, 0), id="3x0"),
    pytest.param((0, 5), id="0x5")])
def test_matrix_types_reject_non_finite_entries(cls, bad):
    # a tuple is an empty shape, refused before any size reaches a divisor
    if isinstance(bad, tuple):
        a, match = np.zeros(bad), "must not be empty"
    else:
        a, match = np.eye(3), "finite"
        a[1, 2] = bad
    with pytest.raises(ValueError, match=match):
        cls(a)


def test_sample_bg_tiny_theta_all_zero():
    X = sample_bg(10, 10, theta=1e-12, seed=3)
    assert np.all(X == 0.0)


def test_sample_bg_dense_theta():
    X = sample_bg(50, 50, theta=1.0 - 1e-12, seed=3)
    assert np.all(X != 0.0)


def test_sample_bg_empirical_density():
    m, p, theta = 100, 10_000, 0.1
    X = sample_bg(m, p, theta, seed=7)
    frac = np.count_nonzero(X) / (m * p)
    se = np.sqrt(theta * (1 - theta) / (m * p))
    assert abs(frac - theta) <= 3 * se


def test_sample_bg_deterministic():
    a = sample_bg(20, 30, 0.2, seed=11)
    b = sample_bg(20, 30, 0.2, seed=11)
    # the drawn array itself, read-only
    assert not a.flags.writeable and a.flags.owndata
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


def test_synth_odl_zero_code():
    D = make_untf(3, 4, seed=0)
    assert np.all(synth_odl(D, np.zeros((4, 5))).entries == 0.0)


def test_synth_odl_unit_spike():
    D = make_untf(3, 4, seed=0)
    E = np.zeros((4, 4))
    E[0, 0] = 1.0
    Y = synth_odl(D, E)
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
                ref[i, k] += D.entries[i, j] * X[j, k]
    assert np.abs(Y - ref).max() <= 1e-14


def test_synth_odl_rounds_as_the_c_ordered_code():
    # the product's bits depend on the code's layout, so a Fortran-ordered
    # code is taken as its C copy, as every matrix is
    D, X = make_untf(16, 24, seed=1), sample_bg(24, 300, 0.2, seed=2)
    assert (synth_odl(D, np.asfortranarray(X)).entries.tobytes()
            == synth_odl(D, X).entries.tobytes())


def test_synth_odl_shape_contract():
    D = make_untf(3, 4, seed=0)
    X = sample_bg(5, 2, 0.5, seed=0)
    with pytest.raises(ValueError):
        synth_odl(D, X)


def _spiked(value) -> np.ndarray:
    X = np.ones((4, 5))
    X[1, 2] = value
    return X


@pytest.mark.parametrize("X, match", [
    *(pytest.param(_spiked(v), "finite", id=str(v)) for v in (np.nan, np.inf, -np.inf)),
    pytest.param(np.zeros((0, 0)), "2d code with 4 rows", id="0x0"),
    pytest.param(np.zeros((4, 0)), "must not be empty", id="4x0"),
    pytest.param(np.zeros((0, 5)), "2d code with 4 rows", id="0x5"),
    pytest.param(np.zeros(4), "2d code with 4 rows", id="1d")])
def test_synth_odl_refuses_bad_codes(X, match):
    # the code is a plain array: synth_odl checks its shape, and the
    # observations refuse a product that is empty or not finite
    with pytest.raises(ValueError, match=match):
        synth_odl(make_untf(3, 4, seed=0), X)


def test_sphere_point_contract():
    with pytest.raises(ValueError):
        SpherePoint(np.array([1.0, 1.0]))
    q = SpherePoint.project(np.array([3.0, 4.0]))
    assert abs(np.linalg.norm(q.coords) - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        SpherePoint.project(np.zeros(3))


def test_project_divides_by_a_power_of_two_first():
    # v . v overflowed at 1e200; the rescaled projection keeps the bits of
    # the unscaled one at every scale 2^k
    assert SpherePoint.project(np.full(4, 1e200)).coords.tolist() == [0.5] * 4
    v = stream(42, "project-scale").standard_normal(7)
    ref = SpherePoint.project(v).coords.tobytes()
    for k in (-1000, -600, 600, 1000, 1021):
        assert SpherePoint.project(np.ldexp(v, k)).coords.tobytes() == ref


def test_column_norms_and_coherence_of_large_and_small_entries():
    # the squares overflowed at 1e200 and underflowed at 1e-200; the norms
    # are np.linalg.norm's bits on ordinary entries
    for scale in (1e200, 1e-200):
        D = Dictionary(np.eye(2) * scale)
        assert D.column_norms.tolist() == [scale, scale]
        assert coherence(D) == 0.0
    A = make_untf(5, 9, seed=3).entries
    assert (Dictionary(A).column_norms.tobytes()
            == np.linalg.norm(A, axis=0).tobytes())
    assert (coherence(Dictionary(np.ldexp(A, 1000)))
            == coherence(Dictionary(np.ldexp(A, -1000))) == coherence(Dictionary(A)))
    with pytest.raises(ValueError, match="overflows"):
        Dictionary(np.full((3, 3), 1.5e308)).column_norms


def test_retract_agrees_with_norm_and_project():
    # retract is the one normalizer, so its fast path must keep the bits of
    # the reference v / np.linalg.norm(v) and of SpherePoint.project
    rng = stream(40, "retract")
    for _ in range(2000):
        n = int(rng.integers(1, 201))
        v = rng.standard_normal(n) * 10.0 ** rng.uniform(-100, 100)
        u = retract(v)
        assert np.array_equal(u, v / np.linalg.norm(v))
        assert np.array_equal(u, SpherePoint.project(v).coords)
    # a strided view's dot rounds differently; project copies it first
    for _ in range(200):
        v = rng.standard_normal((int(rng.integers(2, 201)), 3))[:, 1]
        assert np.array_equal(SpherePoint.project(v).coords,
                              v / np.linalg.norm(v))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [0.0, np.inf, -np.inf, np.nan],
                         ids=["zero", "inf", "-inf", "nan"])
def test_retract_refuses_zero_and_non_finite(bad):
    v = np.zeros(3) if bad == 0.0 else np.array([1.0, bad, 0.0])
    with pytest.raises(ValueError, match="zero or non-finite"):
        retract(v)
    # one such row refuses the stack it is in
    with pytest.raises(ValueError, match="zero or non-finite"):
        retract(np.vstack([np.ones(3), v]))


def test_retract_normalizes_each_row_of_a_stack_alone():
    # the solver's stacked steps keep the bits of each row's lone retract
    rng = stream(41, "retract-stack")
    for _ in range(200):
        k, n = int(rng.integers(1, 17)), int(rng.integers(1, 65))
        V = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-100, 100, (k, 1))
        U = retract(V)
        for v, u in zip(V, U):
            assert u.tobytes() == retract(v).tobytes()
    tiny = np.array([[1e-160, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="underflows"):
        retract(tiny)


def test_filter_bank_basics():
    bank = make_filter_bank(16, 3, seed=4)
    assert bank.K == 3 and bank.n == 16
    assert np.allclose(np.linalg.norm(bank.filters, axis=1), 1.0)
    assert bank.sigma_min > 0.0


def test_stream_refuses_non_integer_path_entries():
    # int() would truncate these to a valid stream; seeds are refused the
    # same way (test_untf_stack_refuses_what_make_untf_refuses)
    for path in (("ok", 2.5), (np.float32(2),)):
        with pytest.raises(ValueError, match="integer"):
            stream(1, *path)


def test_stream_split():
    a = stream(7, "x", 0).standard_normal(8)
    b = stream(7, "x", 0).standard_normal(8)
    c = stream(7, "x", 1).standard_normal(8)
    d = stream(7, "y", 0).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_save_matrix_failing_write_keeps_the_target(tmp_path, monkeypatch):
    # the rows stream to a temporary file; a write that raises part way
    # leaves the old file in place and removes the temporary
    path = tmp_path / "dictionary.csv"
    save_matrix(path, np.eye(2))
    before = path.read_bytes()

    def fail_part_way(fh, *args, **kwargs):
        fh.write("1,2\n")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savetxt", fail_part_way)
    with pytest.raises(OSError, match="disk full"):
        save_matrix(path, np.ones((3, 3)))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["dictionary.csv"]


def test_matrix_roundtrip(tmp_path):
    A = stream(0).standard_normal((3, 5))
    path = tmp_path / "dictionary.csv"
    save_matrix(path, A, provenance=("command: test", "seed: 12"))
    back = load_matrix(path)
    assert np.array_equal(back, A)  # 17 significant digits round-trip
    raw = path.read_text()
    assert raw.startswith("# command: test\n# seed: 12\n")
    # atomic write: no temporary is left, and no sidecar is written
    assert [p.name for p in tmp_path.iterdir()] == ["dictionary.csv"]
