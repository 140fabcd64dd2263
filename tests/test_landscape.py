import json

import numpy as np
import pytest
import scipy.linalg

import sphere4.landscape as landscape
from sphere4.landscape import (
    BOUNDARY_TOL,
    CLASS_INDETERMINATE,
    CLASS_NEAR_SOLUTION,
    CLASS_NON_CRITICAL,
    CLASS_STRICT_SADDLE,
    GRAD_TOL,
    REGION_BOUNDARY,
    REGION_CRITICAL,
    REGION_NEGATIVE_CURVATURE,
    REPORT_CSV_COLUMNS,
    XI_DL_DEFAULT,
    CurvatureCertificate,
    LandscapeReport,
    RegionParams,
    classify_region,
    critical_point_report,
    cubic_root_intervals,
    negative_curvature_certificate,
)
from sphere4.model import Dictionary, SpherePoint, make_untf, stream
from sphere4.objectives import TensorObjective
from sphere4.optimize import SolveConfig, solve
from sphere4.recovery import recovery_error


def simplex_frame(n: int) -> Dictionary:
    """The n+1 vertices of a regular simplex: a UNTF with coherence 1/n."""
    basis = scipy.linalg.null_space(np.ones((1, n + 1)))
    return Dictionary(np.sqrt((n + 1) / n) * basis.T)


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


def test_region_params_validation():
    RegionParams(xi=1.0, mu=0.0)  # orthonormal limit is allowed
    with pytest.raises(ValueError):
        RegionParams(xi=0.0, mu=0.1)
    with pytest.raises(ValueError):
        RegionParams(xi=1.0, mu=-0.1)
    with pytest.raises(ValueError):
        RegionParams(xi=1.0, mu=1.0)


def test_classify_region_value_and_threshold_formulas():
    D = make_untf(16, 20, seed=2)
    q = SpherePoint.project(stream(2, "region").standard_normal(16))
    zeta = D.entries.T @ q.coords
    dec = classify_region(D, q, RegionParams(xi=0.5, mu=D.coherence))
    assert dec.value == pytest.approx(-0.25 * np.sum(zeta**4), rel=1e-12)
    expected_thr = -0.5 * D.coherence ** (2 / 3) * np.sum(np.abs(zeta) ** 3) ** (2 / 3)
    assert dec.threshold == pytest.approx(expected_thr, rel=1e-12)
    assert dec.label in (REGION_CRITICAL, REGION_NEGATIVE_CURVATURE)


def test_classify_region_default_params_use_measured_coherence():
    D = make_untf(10, 15, seed=4)
    q = SpherePoint.project(stream(4, "region-default").standard_normal(10))
    explicit = classify_region(D, q, RegionParams(XI_DL_DEFAULT, D.coherence))
    assert classify_region(D, q) == explicit


def test_classify_region_orthonormal_limit():
    # mu = 0 collapses the threshold to zero, so any point with a strictly
    # negative objective value lands on the critical side
    D = Dictionary(np.eye(6))
    q = SpherePoint.project(stream(7, "ortho").standard_normal(6))
    dec = classify_region(D, q, RegionParams(xi=65.0, mu=0.0))
    assert dec.threshold == 0.0
    assert dec.value < 0.0
    assert dec.label == REGION_CRITICAL


def test_classify_region_extreme_xi():
    D = make_untf(8, 12, seed=5)
    q = SpherePoint.project(stream(5, "xi").standard_normal(8))
    big = classify_region(D, q, RegionParams(xi=1e12, mu=D.coherence))
    assert big.label == REGION_NEGATIVE_CURVATURE
    tiny = classify_region(D, q, RegionParams(xi=1e-12, mu=D.coherence))
    assert tiny.label == REGION_CRITICAL


def test_classify_region_critical_set_shrinks_with_xi():
    D = make_untf(10, 15, seed=6)
    rng = stream(6, "xi-monotone")
    for _ in range(200):
        q = SpherePoint.project(rng.standard_normal(10))
        lo = classify_region(D, q, RegionParams(xi=2.0, mu=D.coherence))
        hi = classify_region(D, q, RegionParams(xi=4.0, mu=D.coherence))
        if hi.label == REGION_CRITICAL:
            assert lo.label == REGION_CRITICAL
        assert hi.threshold == pytest.approx(2.0 * lo.threshold, rel=1e-12)


def test_classify_region_manufactured_boundary():
    D = make_untf(10, 15, seed=3)
    q = SpherePoint.project(stream(3, "bnd").standard_normal(10))
    zeta = D.entries.T @ q.coords
    value = -0.25 * np.sum(zeta**4)
    norm3sq = np.sum(np.abs(zeta) ** 3) ** (2 / 3)
    xi_star = -value / (D.coherence ** (2 / 3) * norm3sq)
    dec = classify_region(D, q, RegionParams(xi=xi_star, mu=D.coherence))
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
    cubic_root_intervals(1.0, 0.25)  # exactly at the bound is accepted


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


def test_report_alphas_positive():
    rng = stream(14, "alphas")
    for seed in range(5):
        D = make_untf(6, 9, seed=seed)
        rep = critical_point_report(D, SpherePoint.project(rng.standard_normal(6)))
        assert np.all(rep.alphas > 0.0)


def test_report_solver_endpoint_reads_near_solution():
    D = make_untf(10, 15, seed=3)
    obj = TensorObjective(D)
    q0 = SpherePoint.project(stream(11, "it").standard_normal(10))
    res = solve(obj, q0, SolveConfig(method="power", max_iters=50_000, grad_tol=1e-10))
    rep = critical_point_report(D, res.q_star)
    assert rep.classification == CLASS_NEAR_SOLUTION
    assert rep.inner_product >= 0.95
    # with a sanely small certificate constant the solution sits on the
    # critical side of the split
    dec = classify_region(D, res.q_star, RegionParams(xi=0.3, mu=D.coherence))
    assert dec.label == REGION_CRITICAL


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


def test_report_csv_row_matches_column_order():
    D = Dictionary(np.eye(4))
    rep = critical_point_report(D, SpherePoint(np.array([1.0, 0.0, 0.0, 0.0])))
    row = rep.csv_row(seed=17)
    assert len(row) == len(REPORT_CSV_COLUMNS)
    named = dict(zip(REPORT_CSV_COLUMNS, row))
    assert named["seed"] == 17
    assert named["region"] == rep.region
    assert named["grad_norm"] == rep.grad_norm
    assert named["min_eig"] == rep.hess_min_eig
    assert named["classification"] == rep.classification
    assert named["best_index"] == rep.best_index
    assert named["inner_product"] == rep.inner_product


def test_report_json_roundtrip():
    D = make_untf(6, 9, seed=1)
    q = SpherePoint.project(stream(1, "json").standard_normal(6))
    rep = critical_point_report(D, q)
    payload = json.loads(rep.to_json())
    assert payload["classification"] == rep.classification
    assert payload["region"] == rep.region
    assert payload["best_index"] == rep.best_index
    assert np.allclose(payload["alphas"], rep.alphas)
    assert np.allclose(payload["hess_min_vec"], rep.hess_min_vec)


# ---------------------------------------------------------------------------
# negative curvature certificate


def test_certificate_identity_uniform_closed_form():
    # at A = I and the uniform point both sides have closed forms:
    # rayleigh = -(2/n)(1 - 1/n), bound = -4/n^2, strict only for n >= 4
    for n, expect_holds in ((3, False), (4, True), (8, True)):
        D = Dictionary(np.eye(n))
        cert = negative_curvature_certificate(D, SpherePoint.project(np.ones(n)))
        assert cert.rayleigh == pytest.approx(-(2.0 / n) * (1.0 - 1.0 / n), abs=1e-14)
        assert cert.bound == pytest.approx(-4.0 / n**2, abs=1e-14)
        assert cert.holds is expect_holds


def test_certificate_rayleigh_matches_dense_hessian():
    rng = stream(77, "cert-dense")
    for _ in range(20):
        n = int(rng.integers(3, 9))
        m = n + int(rng.integers(0, 8))
        A = rng.standard_normal((n, m))
        A /= np.linalg.norm(A, axis=0)
        D = Dictionary(A)
        q = SpherePoint.project(rng.standard_normal(n))
        H = TensorObjective(D).rhess(q.coords)
        dense = np.einsum("ij,ij->j", A, H @ A)
        cert = negative_curvature_certificate(D, q)
        assert cert.rayleigh == pytest.approx(dense.min(), abs=1e-12)
        assert cert.index == int(np.argmin(dense))


def test_certificate_requires_unit_columns():
    A = np.eye(4)
    A[0, 0] = 1.1
    with pytest.raises(ValueError):
        negative_curvature_certificate(Dictionary(A), SpherePoint.project(np.ones(4)))


def test_certificate_k_limit_orthonormal():
    D = Dictionary(np.eye(5))
    cert = negative_curvature_certificate(D, SpherePoint.project(np.ones(5)), mu=0.0)
    assert cert.k_limit == pytest.approx(3.0, abs=1e-15)
    assert cert.k_condition


def test_certificate_k_condition_fails_at_desk_coherence():
    # m = 2n frames have coherence far above what the overcompleteness
    # condition tolerates at the default certificate constant
    D = make_untf(12, 24, seed=2)
    q = SpherePoint.project(stream(2, "kcond").standard_normal(12))
    cert = negative_curvature_certificate(D, q)
    assert not cert.k_condition
    assert cert.k_limit < 2.0


def test_certificate_nonvacuous_on_simplex_frame():
    # the regular simplex keeps coherence at exactly 1/n, low enough that
    # the overcompleteness condition holds with room to spare at xi = 1.3,
    # and the certified curvature bound is then confirmed on every sampled
    # point of the negative-curvature region
    D = simplex_frame(64)
    assert D.coherence == pytest.approx(1.0 / 64.0, rel=1e-12)
    params = RegionParams(xi=1.3, mu=D.coherence)
    rng = stream(5, "nonvac")
    checked = 0
    for _ in range(60):
        q = SpherePoint.project(rng.standard_normal(64))
        dec = classify_region(D, q, params)
        assert dec.label == REGION_NEGATIVE_CURVATURE
        cert = negative_curvature_certificate(D, q, xi=1.3, mu=D.coherence)
        assert cert.k_condition
        assert cert.k_limit == pytest.approx(1.237448602235437, rel=1e-12)
        assert cert.holds
        assert cert.bound - cert.rayleigh > 0.05
        checked += 1
    assert checked == 60
    # while the columns themselves, as they should, sit on the critical side
    col = SpherePoint.project(D.entries[:, 0])
    assert classify_region(D, col, params).label == REGION_CRITICAL


def test_certificate_fields_are_frozen():
    cert = CurvatureCertificate(0, -1.0, -0.5, True, 3.0, True)
    with pytest.raises(AttributeError):
        cert.holds = False


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
            H = TensorObjective(D).rhess(x)
            shift = 10.0 * (1.0 + float(np.abs(H).sum()))
            evals, evecs = np.linalg.eigh(H + shift * np.outer(x, x))
            vec = evecs[:, 0]
            vec -= x * float(x @ vec)
            vec /= float(np.linalg.norm(vec))
            rep = critical_point_report(D, q)
            assert rep.hess_min_eig == float(evals[0])
            assert np.array_equal(rep.hess_min_vec, vec)
