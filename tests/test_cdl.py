import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from sphere4.cdl import (
    CdlObjective,
    ConvProblem,
    Preconditioner,
    build_preconditioner,
    circ_embed,
    deprecondition,
    synth_cdl,
)
from sphere4.model import (
    FilterBank,
    ObservationSet,
    SpherePoint,
    make_filter_bank,
    retract,
    sample_bg,
    stream,
)
from sphere4.objectives import OdlObjective
from sphere4.recovery import cdl_score

from oracles import (
    CirculantOp,
    conv,
    effective_dictionary,
    fd_directional,
    fd_quadratic,
)


def dense_stacked_objective(obj: CdlObjective) -> OdlObjective:
    # oracle: materialize [C_{P y_1} ... C_{P y_p}] with scipy and reuse the
    # dense quartic objective, whose normalizer 1/(12 theta(1-theta)(n p))
    # coincides with the convolutional one
    prob = obj.problem
    pre = np.real(
        np.fft.ifft(
            prob.preconditioner.spectrum_weights[:, None]
            * np.fft.fft(prob.measurements.entries, axis=0),
            axis=0,
        )
    )
    blocks = [scipy.linalg.circulant(pre[:, i]) for i in range(prob.p)]
    return OdlObjective(ObservationSet(np.hstack(blocks)), prob.theta)


def test_conv_identity_impulse():
    rng = stream(0)
    v = rng.standard_normal(16)
    delta = np.zeros(16)
    delta[0] = 1.0
    assert np.abs(conv(delta, v) - v).max() <= 1e-14


def test_conv_shift_property():
    rng = stream(1)
    a = rng.standard_normal(8)
    x = np.zeros(8)
    x[3] = 1.0
    assert np.abs(conv(a, x) - np.roll(a, 3)).max() <= 1e-14


def test_convolution_theorem_sweep():
    rng = stream(2)
    for n in range(2, 257):
        a = rng.standard_normal((200, n))
        b = rng.standard_normal((200, n))
        lhs = np.fft.fft(np.fft.irfft(np.fft.rfft(a) * np.fft.rfft(b), n=n), axis=1)
        rhs = np.fft.fft(a, axis=1) * np.fft.fft(b, axis=1)
        scale = np.abs(rhs).max()
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, scale)


def test_cyclic_reversal_is_transpose():
    # rev(g) = [g_0, g_{n-1}, ..., g_1] generates C_g^T
    rng = stream(3)
    g = rng.standard_normal(7)
    C = CirculantOp(g)
    assert np.abs(C.dense().T - CirculantOp(np.roll(g[::-1], 1)).dense()).max() <= 1e-15


def test_circulant_columns_are_shifts():
    rng = stream(4)
    g = rng.standard_normal(9)
    D = CirculantOp(g).dense()
    for j in range(9):
        assert np.array_equal(D[:, j], np.roll(g, j))


def test_circulant_matvec_paths_agree():
    rng = stream(5)
    for n in (2, 5, 16, 64):
        g = rng.standard_normal(n)
        C = CirculantOp(g)
        D = C.dense()
        for _ in range(5):
            v = rng.standard_normal(n)
            assert np.linalg.norm(conv(g, v) - D @ v) <= 1e-10 * np.linalg.norm(v)
            # C_v^T = C_rev(v), the identity CdlObjective.correlate rests on
            assert (np.linalg.norm(conv(np.roll(g[::-1], 1), v) - D.T @ v)
                    <= 1e-10 * np.linalg.norm(v))


def test_circulant_singular_values():
    # FilterBank's per-bin singular values against the dense stacked matrix
    rng = stream(6)
    for K in (1, 2):
        bank = FilterBank(rng.standard_normal((K, 12)))
        stacked = np.hstack([CirculantOp(f).dense() for f in bank.filters])
        ref = np.linalg.svd(stacked, compute_uv=False)
        assert bank.sigma_min == pytest.approx(ref[-1], rel=1e-10)


def test_circ_embed_impulse_filter():
    bank = FilterBank(np.array([[1.0] + [0.0] * 7]))
    rng = stream(7)
    codes = rng.standard_normal((8, 3))
    Y = circ_embed(bank, codes)
    assert np.abs(Y.entries - codes).max() <= 1e-14


def test_circ_embed_shift():
    bank = make_filter_bank(8, 1, seed=8)
    x = np.zeros((8, 1))
    x[5, 0] = 1.0
    Y = circ_embed(bank, x)
    assert np.abs(Y.entries[:, 0] - np.roll(bank.filters[0], 5)).max() <= 1e-14


def test_circ_embed_matches_triple_loop():
    bank = make_filter_bank(8, 3, seed=9)
    codes = sample_bg(24, 4, 0.3, seed=10)
    Y = circ_embed(bank, codes).entries
    # oracle: time-domain convolution, looped
    ref = np.zeros((8, 4))
    for i in range(4):
        for k in range(3):
            xk = codes[8 * k : 8 * (k + 1), i]
            for t in range(8):
                for s in range(8):
                    ref[t, i] += bank.filters[k, (t - s) % 8] * xk[s]
    assert np.abs(Y - ref).max() <= 1e-12


def test_circ_embed_length_contract():
    bank = make_filter_bank(8, 2, seed=0)
    with pytest.raises(ValueError):
        circ_embed(bank, np.zeros((15, 2)))


def test_preconditioner_flat_spectrum_limit():
    # impulse filter, dense Gaussian codes: the power spectrum is flat in
    # expectation and its relative spread shrinks like 1/sqrt(p)
    bank = FilterBank(np.array([[1.0] + [0.0] * 15]))
    theta = 0.9
    spreads = []
    for p in (100, 10_000):
        prob = synth_cdl(bank, theta, p, seed=11)
        w = prob.preconditioner.spectrum_weights
        spreads.append(np.abs(w - w.mean()).max() / w.mean())
    assert spreads[1] < spreads[0]
    assert spreads[1] < 0.05


def test_preconditioner_positive_and_convention():
    bank = make_filter_bank(16, 2, seed=12)
    prob = synth_cdl(bank, 0.2, 50, seed=13)
    assert prob.preconditioner.spectrum_weights.min() > 0.0
    with pytest.raises(ValueError):
        build_preconditioner(prob.measurements, 0.2, 2, convention="nonsense")


@pytest.mark.filterwarnings("error")
def test_preconditioner_rejects_all_zero_measurements():
    with pytest.raises(ValueError, match="every measurement is zero"):
        build_preconditioner(ObservationSet(np.zeros((8, 5))), 0.1, 1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [-660, -20, 0, 20, 660])
def test_preconditioner_exact_under_power_of_two_scaling(k):
    # at |k| = 660 the power spectrum of Y 2^k under- or overflows unless
    # Y is rescaled first; a power-of-two rescale is exact, so are the weights
    Y = synth_cdl(make_filter_bank(16, 2, seed=25), 0.2, 30, seed=26).measurements
    base = build_preconditioner(Y, 0.2, 2)
    scaled = build_preconditioner(ObservationSet(np.ldexp(Y.entries, k)), 0.2, 2)
    assert np.array_equal(scaled.spectrum_weights,
                          np.ldexp(base.spectrum_weights, -k))
    assert scaled.floored == base.floored


@pytest.mark.filterwarnings("error")
def test_preconditioner_rejects_subnormal_measurements():
    # the weights, about 1e309, are not representable
    Y = np.full((8, 5), 1e-310) * np.arange(1, 41).reshape(8, 5)
    with pytest.raises(ValueError, match="too small to whiten"):
        build_preconditioner(ObservationSet(Y), 0.1, 1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("make,match", [
    *((lambda Y, t=t: build_preconditioner(Y, t, 1), r"theta must lie in \(0, 1\)")
      for t in (0.0, 1.0, 1.5, -0.1, np.nan, np.inf)),
    *((lambda Y, k=k: build_preconditioner(Y, 0.1, k),
       "K must be an integer of at least 1") for k in (0, -1, 2.5, True)),
    (lambda Y: Preconditioner(np.array([])), "weights must be nonempty"),
], ids=["theta-0", "theta-1", "theta-1.5", "theta-neg", "theta-nan",
        "theta-inf", "K-0", "K-neg", "K-2.5", "K-true", "empty-weights"])
def test_preconditioner_refuses_bad_input_up_front(make, match):
    # refused before any arithmetic, so no RuntimeWarning and no error about
    # the weights stands in for the real cause
    with pytest.raises(ValueError, match=match):
        make(ObservationSet(stream(50).standard_normal((8, 5))))


@pytest.mark.parametrize("n", [15, 16])
def test_preconditioner_real_fft_pair_matches_complex_reference(n):
    # P acts as the real part of F^{-1} diag(w) F, asymmetric w included; the
    # pair returns C-contiguous arrays even for a transposed stack, and the
    # objective's half-spectra are rfft(P y_i)
    rng = stream(53 + n)
    w = rng.uniform(0.5, 2.0, n)
    P = Preconditioner(w)
    V = rng.standard_normal((n, 4)).T
    ref = np.real(np.fft.ifft(w * np.fft.fft(V, axis=-1), axis=-1))
    got, back = P.apply(V), P.apply_inverse(P.apply(V))
    assert got.flags.c_contiguous and back.flags.c_contiguous
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.abs(back - V).max() <= 1e-13 * np.abs(V).max()
    spectra = CdlObjective(ConvProblem(ObservationSet(V.T), P, 0.2))._spectra
    assert spectra.flags.c_contiguous
    assert np.abs(spectra - np.fft.rfft(ref, axis=1)).max() <= 1e-12
    assert [f.name for f in dataclasses.fields(CdlObjective)] == ["problem"]


def test_length_n_plus_one_is_refused_at_even_n():
    # at n = 8 an rfft of length 9 has as many bins as one of length 8, so
    # without a check a length-9 vector would pass for a length-8 one
    prob = synth_cdl(make_filter_bank(8, 2, seed=54), 0.2, 40, seed=55)
    P, obj = prob.preconditioner, CdlObjective(prob)
    v = np.full(9, 1.0 / 3.0)  # unit, and of length n + 1
    calls = {"apply": P.apply, "apply_inverse": P.apply_inverse,
             "evaluate": obj.evaluate, "rgrad": obj.rgrad,
             "curvature": obj.curvature,
             "deprecondition": lambda q: deprecondition(q, P),
             "cdl_score": lambda q: cdl_score(q, prob)}
    for name, call in calls.items():
        with pytest.raises(ValueError, match="9"):
            call(v)
    with pytest.raises(ValueError, match="length 8"):
        P.apply(np.ones((3, 9)))
    assert P.apply(np.ones((3, 8))).shape == (3, 8)


@pytest.mark.parametrize("change,match", [
    ({"theta": 0.0}, "theta must lie in"),
    ({"theta": 1.0}, "theta must lie in"),
    ({"theta": np.nan}, "theta must lie in"),
    ({"preconditioner": Preconditioner(np.ones(9))},
     "measurements have length 8, P 9"),
    ({"filters": FilterBank(np.ones((2, 6)))},
     "filters have length 6, measurements 8"),
], ids=["theta-0", "theta-1", "theta-nan", "length", "filter-length"])
def test_conv_problem_refuses_parts_that_disagree(change, match):
    Y = ObservationSet(stream(51).standard_normal((8, 5)))
    parts = {"measurements": Y, "preconditioner": build_preconditioner(Y, 0.1, 2),
             "theta": 0.1, "filters": make_filter_bank(8, 2, seed=52)}
    ConvProblem(**parts)
    with pytest.raises(ValueError, match=match):
        ConvProblem(**{**parts, **change})


def test_preconditioner_conventions_differ_by_exactly_sqrt_K():
    bank = make_filter_bank(16, 3, seed=14)
    prob = synth_cdl(bank, 0.15, 40, seed=15)
    main = build_preconditioner(prob.measurements, 0.15, 3, "main_text")
    app = build_preconditioner(prob.measurements, 0.15, 3, "appendix_h")
    ratio = main.spectrum_weights / app.spectrum_weights
    assert np.abs(ratio - np.sqrt(3.0)).max() <= 1e-12


def test_preconditioner_tight_frame_ladder():
    # prefix-nested code draws so the residual decays onto its limit
    bank = make_filter_bank(16, 2, seed=16)
    theta = 0.2
    codes_full = sample_bg(32, 10_000, theta, seed=17)
    res = []
    for p in (100, 1_000, 10_000):
        Y = circ_embed(bank, codes_full[:, :p])
        P = build_preconditioner(Y, theta, 2, "main_text")
        A = effective_dictionary(bank, P).entries
        K = 2
        res.append(np.linalg.norm((A @ A.T) / K - np.eye(16)))
    assert res[0] >= res[1] >= res[2]


def test_preconditioner_joint_pass_diagonalization():
    rng = stream(18)
    bank = make_filter_bank(12, 2, seed=19)
    prob = synth_cdl(bank, 0.3, 30, seed=20)
    P = prob.preconditioner
    C = CirculantOp(rng.standard_normal(12))
    v = rng.standard_normal(12)
    joint = np.real(np.fft.ifft(P.spectrum_weights * np.fft.fft(C.generator) * np.fft.fft(v)))
    Pdense = CirculantOp(np.real(np.fft.ifft(P.spectrum_weights))).dense()
    twostep = Pdense @ (C.dense() @ v)
    assert np.linalg.norm(joint - twostep) <= 1e-10 * np.linalg.norm(v)


def test_cdl_value_and_grad_match_dense_path():
    bank = make_filter_bank(16, 2, seed=23)
    prob = synth_cdl(bank, 0.2, 8, seed=24)
    obj = CdlObjective(prob)
    dense = dense_stacked_objective(obj)
    rng = stream(25)
    for _ in range(5):
        q = retract(rng.standard_normal(16))
        assert obj.evaluate(q)[0] == pytest.approx(dense.evaluate(q)[0], rel=1e-10)
        gf = obj.rgrad(q)
        gd = dense.rgrad(q)
        assert np.linalg.norm(gf - gd) <= 1e-10 * max(1.0, np.linalg.norm(gd))


def test_cdl_rhess_vec_against_dense_and_symmetry():
    bank = make_filter_bank(12, 3, seed=26)
    prob = synth_cdl(bank, 0.25, 6, seed=27)
    obj = CdlObjective(prob)
    dense = dense_stacked_objective(obj)
    rng = stream(28)
    q = retract(rng.standard_normal(12))
    H = dense.curvature(q).dense()
    for _ in range(5):
        v = rng.standard_normal(12)
        w = rng.standard_normal(12)
        hv = obj.curvature(q).matvec(v)
        assert np.linalg.norm(hv - H @ v) <= 1e-9 * max(1.0, np.linalg.norm(H @ v))
        assert float(w @ obj.curvature(q).matvec(v)) == pytest.approx(
            float(v @ obj.curvature(q).matvec(w)), rel=1e-10, abs=1e-12
        )
    assert np.linalg.norm(obj.curvature(q).matvec(q.copy())) <= 1e-12


def test_cdl_curvature_lanczos_matches_dense_stacked():
    bank = make_filter_bank(12, 3, seed=26)
    prob = synth_cdl(bank, 0.25, 6, seed=27)
    obj = CdlObjective(prob)
    dense = dense_stacked_objective(obj)
    rng = stream(29)
    for _ in range(4):
        q = retract(rng.standard_normal(12))
        lam, vec, ok = obj.curvature(q).min_eig()
        ref, _, ref_ok = dense.curvature(q).min_eig()
        assert ok and ref_ok
        assert lam == pytest.approx(ref, rel=1e-7, abs=1e-12)
        assert abs(float(vec @ q)) <= 1e-10
        hv = dense.curvature(q).dense() @ vec
        assert abs(float(vec @ hv) - lam) <= 1e-9 * max(1.0, abs(lam))


@pytest.mark.parametrize("n", [15, 16])
@pytest.mark.parametrize("weights", ["data", "asymmetric"])
def test_cdl_calculus_matches_dense_odd_and_even_n(n, weights):
    # odd n has no Nyquist bin in the half-spectrum, even n has one; the
    # asymmetric user-supplied weights act through the real part of P
    bank = make_filter_bank(n, 2, seed=44 + n)
    prob = synth_cdl(bank, 0.2, 9, seed=46 + n)
    P = prob.preconditioner
    if weights == "asymmetric":
        P = Preconditioner(np.linspace(0.5, 2.0, n))
    obj = CdlObjective(ConvProblem(prob.measurements, P, 0.2))
    dense = dense_stacked_objective(obj)
    rng = stream(48 + n)
    for _ in range(5):
        q = retract(rng.standard_normal(n))
        v = rng.standard_normal(n)
        assert obj.evaluate(q)[0] == pytest.approx(dense.evaluate(q)[0], rel=1e-12)
        for got, ref in ((obj.evaluate(q)[1], dense.evaluate(q)[1]),
                         (obj.rgrad(q), dense.rgrad(q)),
                         (obj.curvature(q).matvec(v), dense.curvature(q).matvec(v))):
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_cdl_finite_difference_checks():
    bank = make_filter_bank(10, 2, seed=29)
    prob = synth_cdl(bank, 0.2, 12, seed=30)
    obj = CdlObjective(prob)
    rng = stream(31)
    q = retract(rng.standard_normal(10))
    for _ in range(5):
        v = rng.standard_normal(10)
        v -= q * (q @ v)
        v /= np.linalg.norm(v)
        assert fd_directional(obj, q, v) == pytest.approx(
            float(obj.rgrad(q) @ v), rel=1e-6, abs=1e-10
        )
        assert fd_quadratic(obj, q, v) == pytest.approx(
            float(v @ obj.curvature(q).matvec(v)), rel=1e-4, abs=1e-8
        )
    assert abs(float(obj.rgrad(q) @ q)) <= 1e-12


def test_cdl_degenerate_n1():
    Y = ObservationSet(np.array([[1.0, -2.0, 0.5]]))
    P = Preconditioner(np.array([1.0]))
    obj = CdlObjective(ConvProblem(Y, P, 0.3))
    q = np.array([1.0])
    assert obj.evaluate(q)[0] < 0.0
    assert np.linalg.norm(obj.rgrad(q)) == 0.0


def test_cdl_shift_equivariance():
    bank = make_filter_bank(16, 2, seed=32)
    prob = synth_cdl(bank, 0.2, 10, seed=33)
    obj = CdlObjective(prob)
    q = retract(stream(34).standard_normal(16))
    shift = 5
    Y2 = ObservationSet(np.roll(prob.measurements.entries, shift, axis=0))
    P2 = build_preconditioner(Y2, 0.2, 2, "main_text")
    obj2 = CdlObjective(ConvProblem(Y2, P2, 0.2))
    q2 = np.roll(q, shift)
    assert obj2.evaluate(q2)[0] == pytest.approx(obj.evaluate(q)[0], rel=1e-12)


def test_cdl_value_invariant_under_scale_convention():
    bank = make_filter_bank(16, 3, seed=35)
    prob = synth_cdl(bank, 0.2, 10, seed=36)
    app = build_preconditioner(prob.measurements, 0.2, 3, "appendix_h")
    q = retract(stream(37).standard_normal(16))
    v_main = CdlObjective(prob).evaluate(q)[0]
    v_app = CdlObjective(ConvProblem(prob.measurements, app, 0.2)).evaluate(q)[0]
    # the conventions differ by the scalar sqrt(K) inside the whitener, which
    # does not cancel in raw objective values, only after sphere projections;
    # the ratio is exactly K^2 per correlation power
    assert v_main == pytest.approx(v_app * 3**2, rel=1e-12)


def test_deprecondition_identity_and_roundtrip():
    P_id = Preconditioner(np.ones(8))
    v = stream(38).standard_normal(8)
    q = SpherePoint.project(v)
    out = deprecondition(q, P_id)
    assert np.abs(out.coords - q.coords).max() <= 1e-15

    bank = make_filter_bank(8, 2, seed=39)
    prob = synth_cdl(bank, 0.3, 200, seed=40)
    P = prob.preconditioner
    assert not P.floored
    a = stream(41).standard_normal(8)
    round_trip = deprecondition(SpherePoint.project(P.apply(a)), P)
    ref = a / np.linalg.norm(a)
    sign = np.sign(round_trip.coords @ ref)
    assert np.linalg.norm(sign * round_trip.coords - ref) <= 1e-10
    assert abs(np.linalg.norm(round_trip.coords) - 1.0) <= 1e-12


def test_cdl_instance_keeps_only_what_acts():
    # the objective and the score read the measurements and the filters; the
    # codes (K times the measurements' size) are sample_bg's draw, not kept,
    # and K is the filters' alone
    bank = make_filter_bank(64, 3, seed=0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        prob = synth_cdl(bank, 0.1, 2000, seed=0)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 2 * prob.measurements.entries.nbytes, kept
    assert [f.name for f in dataclasses.fields(ConvProblem)] == [
        "measurements", "preconditioner", "theta", "filters"]
    assert [f.name for f in dataclasses.fields(Preconditioner)] == [
        "spectrum_weights", "floored"]
    assert not hasattr(prob, "K") and prob.filters.K == 3


def test_effective_dictionary_shape_and_blocks():
    bank = make_filter_bank(6, 2, seed=42)
    prob = synth_cdl(bank, 0.3, 100, seed=43)
    A = effective_dictionary(bank, prob.preconditioner)
    assert A.entries.shape == (6, 12)
    pa = prob.preconditioner.apply(bank.filters[1])
    assert np.allclose(A.entries[:, 6 + 2], np.roll(pa, 2))
