import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sphere4.landscape as landscape
import sphere4.objectives as objectives
from sphere4.landscape import (
    BOUNDARY_TOL,
    CLASS_INDETERMINATE,
    CLASS_NEAR_SOLUTION,
    CLASS_NON_CRITICAL,
    CLASS_STRICT_SADDLE,
    CURV_REL_TOL,
    GRAD_TOL,
    REGION_BOUNDARY,
    REGION_CRITICAL,
    REGION_NEGATIVE_CURVATURE,
    RESID_TOL,
    XI_DL,
    LandscapeReport,
    classify_region,
    critical_point_report,
    cubic_root_intervals,
)
from sphere4.cli import REPORT_CSV_COLUMNS, main
from sphere4.model import Dictionary, SpherePoint, coherence, make_untf, stream
from sphere4.objectives import TensorObjective, _coords
from sphere4.optimize import SolveConfig, solve
from sphere4.recovery import TIE_TOL, align_shift, recovery_error

# a rank-deficient frame: q = e_3 has zeta = A^T q = 0
RANK_DEFICIENT = np.array([[1.0, 0.0, 0.5 ** 0.5], [0.0, 1.0, 0.5 ** 0.5],
                           [0.0, 0.0, 0.0]])


def bisect_roots(alpha: float, beta: float, grid: int = 4001) -> np.ndarray:
    """All real roots of z^3 - alpha*z + beta by sign-change bisection."""
    f = lambda z: z**3 - alpha * z + beta
    lim = 2.5 * np.sqrt(alpha)
    zs = np.linspace(-lim, lim, grid)
    fz = f(zs)
    roots = []
    for i in range(grid - 1):
        if fz[i] == 0.0:
            roots.append(zs[i])
        elif fz[i] * fz[i + 1] < 0:
            lo, hi = zs[i], zs[i + 1]
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if f(lo) * f(mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            roots.append(0.5 * (lo + hi))
    return np.array(sorted(roots))


# ---------------------------------------------------------------------------
# region split


def test_classify_region_value_and_threshold_formulas(monkeypatch):
    D = make_untf(16, 20, seed=2)
    q = SpherePoint.project(stream(2, "region").standard_normal(16))
    zeta = D.entries.T @ q.coords
    monkeypatch.setattr(landscape, "XI_DL", 0.5)
    dec = classify_region(D, q)
    assert dec.value == pytest.approx(-0.25 * np.sum(zeta**4), rel=1e-12)
    expected_thr = -0.5 * D.coherence ** (2 / 3) * np.sum(np.abs(zeta) ** 3) ** (2 / 3)
    assert dec.threshold == pytest.approx(expected_thr, rel=1e-12)
    assert dec.label in (REGION_CRITICAL, REGION_NEGATIVE_CURVATURE)


def test_classify_region_orthonormal_limit():
    # mu = 0 collapses the threshold to zero, so any point with a strictly
    # negative objective value lands on the critical side
    D = Dictionary(np.eye(6))
    q = SpherePoint.project(stream(7, "ortho").standard_normal(6))
    assert D.coherence == 0.0
    dec = classify_region(D, q)
    assert dec.threshold == 0.0
    assert dec.value < 0.0
    assert dec.label == REGION_CRITICAL


def test_classify_region_extreme_xi(monkeypatch):
    D = make_untf(8, 12, seed=5)
    q = SpherePoint.project(stream(5, "xi").standard_normal(8))
    monkeypatch.setattr(landscape, "XI_DL", 1e12)
    assert classify_region(D, q).label == REGION_NEGATIVE_CURVATURE
    monkeypatch.setattr(landscape, "XI_DL", 1e-12)
    assert classify_region(D, q).label == REGION_CRITICAL


def test_classify_region_critical_set_shrinks_with_xi(monkeypatch):
    D = make_untf(10, 15, seed=6)
    rng = stream(6, "xi-monotone")
    for _ in range(200):
        q = SpherePoint.project(rng.standard_normal(10))
        monkeypatch.setattr(landscape, "XI_DL", 2.0)
        lo = classify_region(D, q)
        monkeypatch.setattr(landscape, "XI_DL", 4.0)
        hi = classify_region(D, q)
        if hi.label == REGION_CRITICAL:
            assert lo.label == REGION_CRITICAL
        assert hi.threshold == pytest.approx(2.0 * lo.threshold, rel=1e-12)


def test_classify_region_manufactured_boundary(monkeypatch):
    D = make_untf(10, 15, seed=3)
    q = SpherePoint.project(stream(3, "bnd").standard_normal(10))
    zeta = D.entries.T @ q.coords
    value = -0.25 * np.sum(zeta**4)
    norm3sq = np.sum(np.abs(zeta) ** 3) ** (2 / 3)
    xi_star = -value / (D.coherence ** (2 / 3) * norm3sq)
    monkeypatch.setattr(landscape, "XI_DL", xi_star)
    dec = classify_region(D, q)
    assert dec.label == REGION_BOUNDARY
    assert abs(dec.value - dec.threshold) <= BOUNDARY_TOL


# ---------------------------------------------------------------------------
# cubic root localization


def test_cubic_intervals_beta_zero_gives_exact_roots():
    iv = cubic_root_intervals(1.0, 0.0)
    assert np.array_equal(iv, [[0.0, 0.0], [1.0, 1.0], [-1.0, -1.0]])


def test_cubic_intervals_frozen_example():
    iv = cubic_root_intervals(4.0, 1.0)
    assert np.allclose(iv, [[-0.5, 0.5], [1.5, 2.5], [-2.5, -1.5]], atol=1e-15)
    roots = bisect_roots(4.0, 1.0)
    assert roots == pytest.approx([-2.11490754, 0.25410169, 1.86080585], abs=1e-6)
    for k in range(3):
        inside = (iv[k, 0] <= roots) & (roots <= iv[k, 1])
        assert inside.sum() == 1


def test_cubic_intervals_localize_all_roots():
    rng = stream(9, "cubic")
    for _ in range(300):
        alpha = float(10 ** rng.uniform(-1, 1))
        beta = float(rng.uniform(-1, 1) * 0.9 * alpha**1.5 / 4)
        roots = bisect_roots(alpha, beta)
        assert len(roots) == 3
        iv = cubic_root_intervals(alpha, beta)
        counts = [
            int(np.sum((iv[k, 0] - 1e-12 <= roots) & (roots <= iv[k, 1] + 1e-12)))
            for k in range(3)
        ]
        assert counts == [1, 1, 1]


def test_cubic_intervals_validation():
    with pytest.raises(ValueError):
        cubic_root_intervals(0.0, 0.0)
    with pytest.raises(ValueError):
        cubic_root_intervals(-1.0, 0.0)
    with pytest.raises(ValueError):
        cubic_root_intervals(1.0, 0.2501)
    for alpha, beta in ((np.nan, 0.0), (1.0, np.nan), (np.inf, 0.0)):
        with pytest.raises(ValueError, match="finite"):
            cubic_root_intervals(alpha, beta)
    cubic_root_intervals(1.0, 0.25)  # exactly at the bound is accepted


@pytest.mark.parametrize("alpha,beta", [(1e300, 0.0), (1e300, 1e300),
                                        (1e308, 1.0)])
def test_cubic_intervals_large_finite_inputs(alpha, beta):
    # alpha^(3/2) overflows; the bound reads inf rather than raising
    # OverflowError, so such an input localizes like any other
    iv = cubic_root_intervals(alpha, beta)
    assert iv.shape == (3, 2) and np.all(np.isfinite(iv))
    assert iv[1, 0] <= np.sqrt(alpha) <= iv[1, 1]


# ---------------------------------------------------------------------------
# critical point reports


def test_report_basis_vector_is_near_solution():
    D = Dictionary(np.eye(4))
    rep = critical_point_report(D, SpherePoint(np.array([1.0, 0.0, 0.0, 0.0])))
    assert rep.classification == CLASS_NEAR_SOLUTION
    assert rep.best_index == 0
    assert rep.inner_product == pytest.approx(1.0, abs=1e-15)
    assert rep.grad_norm <= 1e-12
    assert np.allclose(rep.alphas, 1.0, atol=1e-15)
    assert np.allclose(rep.betas, 0.0, atol=1e-15)
    assert rep.hess_min_eig == pytest.approx(1.0, abs=1e-12)
    assert rep.region == REGION_CRITICAL


def test_report_and_recovery_error_share_the_tie_rule():
    # inner products 2 ulps apart: a tie within TIE_TOL goes to column 0
    D = Dictionary(np.eye(3))
    q = SpherePoint.project(np.array([1.0, 1.0 + 4e-16, 0.0]))
    assert q.coords[1] > q.coords[0]
    assert recovery_error(q, D).best_index == 0
    rep = critical_point_report(D, q)
    assert rep.best_index == 0
    assert rep.inner_product == q.coords[1]


def test_report_two_coordinate_saddle():
    D = Dictionary(np.eye(4))
    rep = critical_point_report(D, SpherePoint.project(np.array([1.0, 1.0, 0.0, 0.0])))
    assert rep.classification == CLASS_STRICT_SADDLE
    assert rep.hess_min_eig == pytest.approx(-1.0, abs=1e-12)
    # descent direction at the balanced saddle is the antisymmetric mix
    d = np.array([1.0, -1.0, 0.0, 0.0]) / np.sqrt(2.0)
    assert abs(rep.hess_min_vec @ d) == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.norm(rep.hess_min_vec) == pytest.approx(1.0, abs=1e-12)


def test_report_min_vec_is_tangent():
    D = make_untf(10, 15, seed=12)
    q = SpherePoint.project(stream(12, "tangent").standard_normal(10))
    rep = critical_point_report(D, q)
    assert abs(rep.hess_min_vec @ q.coords) <= 1e-10


def test_report_random_point_is_non_critical():
    D = make_untf(10, 15, seed=8)
    q = SpherePoint.project(stream(8, "noncrit").standard_normal(10))
    rep = critical_point_report(D, q)
    assert rep.classification == CLASS_NON_CRITICAL
    assert rep.grad_norm >= 1e-6


def test_report_grad_tol_gates_classification(monkeypatch):
    # GRAD_TOL alone decides whether a converged point is read as critical
    assert GRAD_TOL == 1e-6
    D = make_untf(10, 15, seed=3)
    obj = TensorObjective(D)
    q0 = SpherePoint.project(stream(11, "it").standard_normal(10))
    q = solve(obj, q0, SolveConfig(method="power", max_iters=50_000,
                                   grad_tol=1e-10)).q_star
    rep = critical_point_report(D, q)
    assert rep.grad_norm < GRAD_TOL
    assert rep.classification == CLASS_NEAR_SOLUTION
    monkeypatch.setattr(landscape, "GRAD_TOL", rep.grad_norm)
    assert critical_point_report(D, q).classification == CLASS_NON_CRITICAL


@pytest.mark.filterwarnings("error")
def test_report_zero_column_raises_before_dividing():
    # the typed error of the nearest-column rule, not a divide-by-zero warning
    D = Dictionary(np.hstack([np.eye(3), np.zeros((3, 1))]))
    with pytest.raises(ValueError, match="nonzero columns"):
        critical_point_report(D, np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("case", ["underflow", "rank-deficient"])
def test_report_at_zero_correlations_is_indeterminate(case):
    # every alpha_i = ||zeta||_4^4 / ||a_i||^2 is 0 (zeta's fourth powers
    # underflow, or zeta = 0), so the root radius 2|beta_i|/alpha_i read
    # 0/0; such a point is critical and has no big coordinate
    if case == "underflow":
        D, q = Dictionary(make_untf(4, 6, seed=0).entries * 1e-100), np.full(4, 0.5)
    else:
        D, q = Dictionary(RANK_DEFICIENT), np.array([0.0, 0.0, 1.0])
    rep = critical_point_report(D, q)
    assert np.all(rep.alphas == 0.0) and rep.grad_norm < GRAD_TOL
    assert rep.classification == CLASS_INDETERMINATE


def test_large_finite_dictionaries_return_or_refuse():
    # zeta^4, the squared column norms or A^T A zeta^3 pass the float range
    # here; each call returns or raises ValueError, and rho_e is scale-free
    E, q = make_untf(4, 6, seed=0).entries, np.full(4, 0.5)
    with pytest.raises(ValueError, match="overflows"):
        classify_region(Dictionary(E * 1e80), q)
    with pytest.raises(ValueError, match="overflows"):
        critical_point_report(Dictionary(E * 1e155), q)
    with pytest.raises(ValueError, match="cubic coefficients under- or overflow"):
        critical_point_report(Dictionary(np.ldexp(E, 210)), q)
    big, ref = recovery_error(q, Dictionary(E * 1e155)), recovery_error(q, Dictionary(E))
    assert big.best_index == ref.best_index
    assert big.rho_e == pytest.approx(ref.rho_e, abs=1e-15)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(k=st.integers(-1000, 1000))
def test_typed_error_contract_across_scales(k):
    # at the scale 2^k each call returns finite output or raises ValueError;
    # a RuntimeWarning is an error under the suite's filterwarnings
    for base in (make_untf(4, 6, seed=0).entries, RANK_DEFICIENT):
        D = Dictionary(np.ldexp(base, k))
        n = D.n
        for q in (np.full(n, n ** -0.5), np.eye(n)[-1]):
            f = np.arange(1.0, n + 1.0)
            calls = [
                lambda: dataclasses.astuple(classify_region(D, q))[1:],
                lambda: [getattr(critical_point_report(D, q), name) for name in (
                    "grad_norm", "alphas", "betas", "hess_min_eig",
                    "hess_min_vec", "inner_product")],
                lambda: [recovery_error(q, D).rho_e],
                lambda: [coherence(D)],
                lambda: [D.column_norms],
                lambda: [SpherePoint.project(np.ldexp(q, k)).coords],
                lambda: list(align_shift(np.ldexp(f, k), q)),
                lambda: list(align_shift(q, np.ldexp(f, k))),
            ]
            for call in calls:
                try:
                    out = call()
                except ValueError:
                    continue
                assert all(np.all(np.isfinite(v)) for v in out), (k, out)


def test_report_alphas_positive():
    rng = stream(14, "alphas")
    for seed in range(5):
        D = make_untf(6, 9, seed=seed)
        rep = critical_point_report(D, SpherePoint.project(rng.standard_normal(6)))
        assert np.all(rep.alphas > 0.0)


def test_report_solver_endpoint_reads_near_solution(monkeypatch):
    D = make_untf(10, 15, seed=3)
    obj = TensorObjective(D)
    q0 = SpherePoint.project(stream(11, "it").standard_normal(10))
    res = solve(obj, q0, SolveConfig(method="power", max_iters=50_000, grad_tol=1e-10))
    rep = critical_point_report(D, res.q_star)
    assert rep.classification == CLASS_NEAR_SOLUTION
    assert rep.inner_product >= 0.95
    # with a sanely small split constant the solution sits on the
    # critical side of the split
    monkeypatch.setattr(landscape, "XI_DL", 0.3)
    assert classify_region(D, res.q_star).label == REGION_CRITICAL


def test_report_reads_an_unconverged_eigensolve_as_indeterminate(monkeypatch):
    # only verified curvature classifies: with the dense path off and Lanczos
    # capped at two steps, a solution's eigensolve does not converge
    D = make_untf(16, 24, seed=7)
    q0 = SpherePoint.project(stream(7, "unconverged").standard_normal(16))
    q = solve(TensorObjective(D), q0).q_star
    assert critical_point_report(D, q).classification == CLASS_NEAR_SOLUTION
    monkeypatch.setattr(objectives, "DENSE_HESSIAN_LIMIT", 4)
    monkeypatch.setattr(objectives, "LANCZOS_MAX_ITERS", 2)
    assert not TensorObjective(D).curvature(q).min_eig()[2]
    assert critical_point_report(D, q).classification == CLASS_INDETERMINATE


def test_report_flags_coherent_mixture_as_indeterminate():
    # at m = 2n the solver can converge to a genuine second-order point that
    # correlates with two columns at once; the report refuses to call it
    # either a solution or a saddle
    D = make_untf(4, 8, seed=0)
    obj = TensorObjective(D)
    q0 = SpherePoint.project(stream(0, "mixture-scan").standard_normal(4))
    res = solve(obj, q0, SolveConfig(method="power", max_iters=50_000, grad_tol=1e-10))
    rep = critical_point_report(D, res.q_star)
    assert rep.classification == CLASS_INDETERMINATE
    assert rep.grad_norm < 1e-8
    assert rep.hess_min_eig > 0.0
    zeta = D.entries.T @ res.q_star.coords
    n_big = np.count_nonzero(np.abs(zeta) > 2.0 * np.abs(rep.betas) / rep.alphas)
    assert n_big == 2
    assert rep.inner_product < 0.96


def cli_reports(out, *flags) -> list:
    """Run the CLI's `landscape` at the solutions of five samples of a 6x12
    frame into `out`, and return the reports of those points built here."""
    assert main(["landscape", "--n", "6", "--m", "12", "--samples", "5",
                 "--seed", "1", "--at-solution", *flags,
                 "--out-dir", str(out)]) == 0
    D = make_untf(6, 12, seed=1)
    starts = [SpherePoint.project(stream(1, "landscape", s).standard_normal(6))
              for s in range(5)]
    return [critical_point_report(D, solve(TensorObjective(D), q0).q_star)
            for q0 in starts]


def test_report_csv_row_matches_column_order(tmp_path):
    # landscape.csv: one row per sample, its report's fields in column order
    reports = cli_reports(tmp_path)
    text = (tmp_path / "landscape.csv").read_text()
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    assert lines[0] == ",".join(REPORT_CSV_COLUMNS)
    assert len(lines) == 1 + len(reports)
    for s, (line, rep) in enumerate(zip(lines[1:], reports)):
        named = dict(zip(REPORT_CSV_COLUMNS, line.split(",")))
        assert named["seed"] == str(s)
        assert named["region"] == rep.region
        assert float(named["grad_norm"]) == rep.grad_norm
        assert float(named["min_eig"]) == rep.hess_min_eig
        assert named["classification"] == rep.classification
        assert named["best_index"] == str(rep.best_index)
        assert float(named["inner_product"]) == rep.inner_product


def test_report_json_roundtrip(tmp_path):
    # landscape.json: one object per sample, its report's fields in order,
    # arrays as lists, every float read back to the same bits
    reports = cli_reports(tmp_path, "--format", "json")
    payload = json.loads((tmp_path / "landscape.json").read_text())
    assert len(payload) == len(reports)
    names = [f.name for f in dataclasses.fields(LandscapeReport)]
    for entry, rep in zip(payload, reports):
        assert list(entry) == names
        for name in names:
            value = getattr(rep, name)
            if isinstance(value, np.ndarray):
                value = value.tolist()
            assert entry[name] == value, name


def test_report_dataclass_is_frozen():
    D = Dictionary(np.eye(3))
    rep = critical_point_report(D, SpherePoint(np.array([1.0, 0.0, 0.0])))
    assert isinstance(rep, LandscapeReport)
    with pytest.raises(AttributeError):
        rep.region = "elsewhere"


def test_report_curvature_fields_match_dense_reference():
    # the shifted dense eigensolve critical_point_report ran inline before the
    # curvature operator, on a random point and on a solved one per frame
    rng = stream(70)
    for seed in (71, 72, 73):
        D = make_untf(8, 16, seed=seed)
        q0 = SpherePoint.project(rng.standard_normal(8))
        for q in (q0, solve(TensorObjective(D), q0).q_star):
            x = q.coords
            H = TensorObjective(D).curvature(x).dense()
            shift = 10.0 * (1.0 + float(np.abs(H).sum()))
            evals, evecs = np.linalg.eigh(H + shift * np.outer(x, x))
            vec = evecs[:, 0]
            vec -= x * float(x @ vec)
            vec /= float(np.linalg.norm(vec))
            rep = critical_point_report(D, q)
            assert rep.hess_min_eig == float(evals[0])
            assert np.array_equal(rep.hess_min_vec, vec)


# ---------------------------------------------------------------------------
# refused inputs


LANDSCAPE_FUNCTIONS = {
    "classify_region": classify_region,
    "critical_point_report": critical_point_report,
}


@pytest.mark.parametrize("point", ["nan", "inf", "non-unit"])
@pytest.mark.parametrize("fn", LANDSCAPE_FUNCTIONS.values(),
                         ids=LANDSCAPE_FUNCTIONS)
def test_landscape_refuses_points_off_the_sphere(fn, point):
    D = make_untf(8, 12, seed=1)
    q = {"nan": np.full(8, np.nan), "inf": np.r_[np.inf, np.zeros(7)],
         "non-unit": np.ones(8)}[point]
    with pytest.raises(ValueError, match="coords must"):
        fn(D, q)


@pytest.mark.parametrize("fn", LANDSCAPE_FUNCTIONS.values(),
                         ids=LANDSCAPE_FUNCTIONS)
def test_landscape_refuses_a_repeated_column(fn):
    # coherence 1 leaves no region split
    D = Dictionary(np.hstack([np.eye(3), np.eye(3)[:, :1]]))
    assert D.coherence == 1.0
    with pytest.raises(ValueError, match="coherence"):
        fn(D, SpherePoint.project(np.array([1.0, 2.0, 3.0])))
    # a column beside a scaled copy of itself often reads 1 - 1e-16
    rng = np.random.default_rng(0)
    mus = []
    for _ in range(10):
        a = rng.standard_normal(5)
        D = Dictionary(np.column_stack([np.eye(5), a, 3.0 * a]))
        mus.append(D.coherence)
        with pytest.raises(ValueError, match="coherence"):
            fn(D, SpherePoint.project(np.arange(1.0, 6.0)))
    assert min(mus) < 1.0


# ---------------------------------------------------------------------------
# agreement with the report as written before its shared correlation vector


def reference_report(D, q):
    """critical_point_report as written before one zeta served it: A^T x
    formed five times, with the nearest-column rule and the region split
    (xi = XI_DL, mu = the measured coherence) written out."""
    x = _coords(q)
    A = D.entries
    norms = np.linalg.norm(A, axis=0)
    inners = np.abs(A.T @ x) / norms
    inner_product = float(np.max(inners))
    best_index = int(np.argmax(inners >= inner_product - TIE_TOL))
    obj = TensorObjective(D)
    zeta = A.T @ x
    col_sq = np.sum(A * A, axis=0)
    z44 = float(np.sum(zeta**4))
    alphas = z44 / col_sq
    cubes = zeta**3
    betas = (A.T @ (A @ cubes) - col_sq * cubes) / col_sq
    curv_tol = CURV_REL_TOL * z44

    grad_norm = float(np.linalg.norm(obj.rgrad(x)))
    hess_min_eig, vec, _ = obj.curvature(x).min_eig()

    z = D.entries.T @ x
    value = -0.25 * float(np.sum(z**4))
    norm3sq = float(np.sum(np.abs(z) ** 3)) ** (2.0 / 3.0)
    scale = D.coherence ** (2.0 / 3.0) * norm3sq
    threshold = -XI_DL * scale if scale > 0.0 else -0.0
    if abs(value - threshold) <= BOUNDARY_TOL:
        region = REGION_BOUNDARY
    elif value < threshold:
        region = REGION_CRITICAL
    else:
        region = REGION_NEGATIVE_CURVATURE

    if grad_norm >= GRAD_TOL:
        classification = CLASS_NON_CRITICAL
    else:
        residuals = np.abs(cubes - alphas * zeta + betas)
        cubic_ok = bool(np.all(residuals <= RESID_TOL * alphas**1.5))
        big = np.abs(zeta) > 2.0 * np.abs(betas) / alphas
        nbig = int(np.count_nonzero(big))
        if not cubic_ok or nbig == 0:
            classification = CLASS_INDETERMINATE
        elif nbig == 1 and hess_min_eig >= -curv_tol:
            classification = CLASS_NEAR_SOLUTION
        elif hess_min_eig < -curv_tol:
            classification = CLASS_STRICT_SADDLE
        else:
            classification = CLASS_INDETERMINATE
    return LandscapeReport(region, grad_norm, alphas, betas, hess_min_eig,
                           vec, classification, best_index, inner_product)


def agreement_points():
    """(D, q) pairs: raw and solved points of several frames, a balanced
    saddle of the identity, and a coherent two-column mixture."""
    rng = stream(90, "agreement")
    for n, m in ((8, 16), (16, 24), (12, 24)):
        D = make_untf(n, m, seed=n + m)
        for _ in range(3):
            q0 = SpherePoint.project(rng.standard_normal(n))
            yield D, q0
            yield D, solve(TensorObjective(D), q0).q_star
    yield Dictionary(np.eye(4)), SpherePoint.project(np.array([1.0, 1.0, 0, 0]))
    D = make_untf(4, 8, seed=0)
    q0 = SpherePoint.project(stream(0, "mixture-scan").standard_normal(4))
    yield D, solve(TensorObjective(D), q0, SolveConfig(
        max_iters=50_000, grad_tol=1e-10)).q_star


def test_report_agrees_bit_for_bit_with_the_reference():
    seen = set()
    for D, q in agreement_points():
        rep, ref = critical_point_report(D, q), reference_report(D, q)
        for field in ("region", "grad_norm", "hess_min_eig", "classification",
                      "best_index", "inner_product"):
            assert getattr(rep, field) == getattr(ref, field), field
        for field in ("alphas", "betas", "hess_min_vec"):
            assert np.array_equal(getattr(rep, field), getattr(ref, field))
        seen.add(rep.classification)
    assert seen == {CLASS_NON_CRITICAL, CLASS_NEAR_SOLUTION,
                    CLASS_STRICT_SADDLE, CLASS_INDETERMINATE}
