"""Geometric diagnostics for the quartic landscape on the sphere.

The sphere splits into two overlapping zones by comparing the limit
objective phi(q) = -(1/4)||A^T q||_4^4 against a coherence-scaled
threshold: points above it carry negative curvature, points below it are
where critical points live and can be classified through a scalar cubic
in each correlation coordinate. critical_point_report reads the split,
the cubic classification and the tangent curvature at a concrete (A, q).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import UNIT_TOL, Dictionary, _norm, _unit_coords
from .objectives import TensorObjective
from .recovery import _nearest_columns

__all__ = [
    "RegionDecision",
    "LandscapeReport",
    "XI_DL",
    "classify_region",
    "cubic_root_intervals",
    "critical_point_report",
]

REGION_NEGATIVE_CURVATURE = "negative_curvature"
REGION_CRITICAL = "critical_point"
REGION_BOUNDARY = "boundary"

CLASS_NEAR_SOLUTION = "near_solution"
CLASS_STRICT_SADDLE = "strict_saddle"
CLASS_NON_CRITICAL = "non_critical"
CLASS_INDETERMINATE = "indeterminate"

BOUNDARY_TOL = 1e-12

# critical_point_report: a Riemannian gradient norm below GRAD_TOL reads
# critical, curvature above -CURV_REL_TOL * ||zeta||_4^4 reads PSD, and a
# cubic residual within RESID_TOL * alpha_i^(3/2) reads a root
GRAD_TOL = 1e-6
CURV_REL_TOL = 1e-8
RESID_TOL = 1e-4

# the split's constant must exceed 2^6; the integer above the floor
XI_DL = 65.0


def _coherence(D: Dictionary) -> float:
    """D's coherence mu; mu = 1 (a repeated column direction) has no split.

    Columns are normalized before their Gram product, so a column beside a
    scaled copy of itself can read 1 - 1e-16; mu within UNIT_TOL of 1 counts
    as a repeat.
    """
    if not D.coherence <= 1.0 - UNIT_TOL:
        raise ValueError("coherence must lie in [0, 1): a column repeats")
    return D.coherence


@dataclass(frozen=True)
class RegionDecision:
    label: str
    value: float
    threshold: float


def _region(D: Dictionary, zeta: np.ndarray, z44: float) -> RegionDecision:
    """The split of classify_region at zeta = A^T q, with z44 = ||zeta||_4^4."""
    mu = _coherence(D)
    value = -0.25 * z44
    norm3sq = float(np.sum(np.abs(zeta) ** 3)) ** (2.0 / 3.0)
    # mu = 0 is the orthonormal limit; the threshold degenerates to 0
    scale = mu ** (2.0 / 3.0) * norm3sq
    threshold = -XI_DL * scale if scale > 0.0 else -0.0
    if abs(value - threshold) <= BOUNDARY_TOL:
        label = REGION_BOUNDARY
    elif value < threshold:
        label = REGION_CRITICAL
    else:
        label = REGION_NEGATIVE_CURVATURE
    return RegionDecision(label, value, threshold)


def classify_region(D: Dictionary, q) -> RegionDecision:
    """Which side of the landscape split q falls on, with both sides.

    Compares phi(q) against -XI_DL * mu^(2/3) * ||zeta||_3^2, mu = D's
    coherence. Values within BOUNDARY_TOL of it are labeled boundary.
    """
    TensorObjective(D)  # its overflow guard refuses a D whose zeta^4 can overflow
    zeta = D.entries.T @ _unit_coords(q)
    return _region(D, zeta, float(np.sum(zeta**4)))


def cubic_root_intervals(alpha: float, beta: float) -> np.ndarray:
    """Localization intervals for the real roots of z^3 - alpha*z + beta.

    Returns a (3, 2) array of [lo, hi] rows centered at 0, +sqrt(alpha),
    -sqrt(alpha), each with radius 2|beta|/alpha. Valid for
    |beta| <= alpha^(3/2)/4; beta = 0 degenerates the intervals to the
    exact roots {0, +-sqrt(alpha)}.
    """
    if not (np.isfinite(alpha) and np.isfinite(beta)):
        raise ValueError("alpha and beta must be finite")
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    with np.errstate(over="ignore"):  # inf, where a Python float's pow raises
        if abs(beta) > np.float64(alpha) ** 1.5 / 4.0:
            raise ValueError("|beta| exceeds alpha^(3/2)/4; roots need not "
                             "localize near {0, +-sqrt(alpha)}")
    r = 2.0 * np.abs(beta) / alpha
    s = np.sqrt(alpha)
    return np.array([[-r, r], [s - r, s + r], [-s - r, -s + r]])


@dataclass(frozen=True)
class LandscapeReport:
    region: str
    grad_norm: float
    alphas: np.ndarray
    betas: np.ndarray
    hess_min_eig: float
    hess_min_vec: np.ndarray
    classification: str
    best_index: int
    inner_product: float


def critical_point_report(D: Dictionary, q) -> LandscapeReport:
    """Classify a point as near-solution, strict saddle, or neither.

    At a critical point every correlation zeta_i is a root of the scalar
    cubic z^3 - alpha_i z + beta_i with

        alpha_i = ||zeta||_4^4 / ||a_i||^2,
        beta_i  = sum_{j != i} <a_i, a_j> zeta_j^3 / ||a_i||^2,

    so each coordinate is pinned near 0 or near +-sqrt(alpha_i) ("big").
    One big coordinate plus a positive-semidefinite tangent Hessian reads
    near_solution; verified negative curvature reads strict_saddle;
    anything else (including a PSD point with two big coordinates, which
    high-coherence frames do produce, and a critical point whose
    eigensolve did not converge) is reported indeterminate rather than
    forced into a theory bucket.
    """
    x = _unit_coords(q)
    A = D.entries
    zeta = A.T @ x
    # raises on a zero column before the cubic coefficients divide by it
    (inner_product,), (best_index,) = _nearest_columns(D, zeta)
    obj = TensorObjective(D)
    col_sq = np.sum(A * A, axis=0)
    z44 = float(np.sum(zeta**4))
    cubes = zeta**3
    # ||a_i||^2 can underflow to 0, A^T A zeta^3 (degree 5 in A) overflow
    # below the kernel's guard, and the root radius 2|beta_i|/alpha_i read
    # 0/0 where ||zeta||_4^4 is 0: no coordinate is big there
    with np.errstate(all="ignore"):
        alphas = z44 / col_sq
        betas = (A.T @ (A @ cubes) - col_sq * cubes) / col_sq
        big = np.abs(zeta) > 2.0 * np.abs(betas) / alphas
    if not (col_sq.all() and np.all(np.isfinite(betas))):
        raise ValueError("the cubic coefficients under- or overflow")
    curv_tol = CURV_REL_TOL * z44

    grad_norm = float(_norm(obj.rgrad(x)))
    hess_min_eig, vec, converged = obj.curvature(x).min_eig()

    region = _region(D, zeta, z44).label

    if grad_norm >= GRAD_TOL:
        classification = CLASS_NON_CRITICAL
    else:
        residuals = np.abs(cubes - alphas * zeta + betas)
        cubic_ok = bool(np.all(residuals <= RESID_TOL * alphas**1.5))
        nbig = int(np.count_nonzero(big))
        if not cubic_ok or nbig == 0 or not converged:
            classification = CLASS_INDETERMINATE
        elif nbig == 1 and hess_min_eig >= -curv_tol:
            classification = CLASS_NEAR_SOLUTION
        elif hess_min_eig < -curv_tol:
            classification = CLASS_STRICT_SADDLE
        else:
            classification = CLASS_INDETERMINATE

    return LandscapeReport(
        region=region,
        grad_norm=grad_norm,
        alphas=alphas,
        betas=betas,
        hess_min_eig=hess_min_eig,
        hess_min_vec=vec,
        classification=classification,
        best_index=best_index,
        inner_product=inner_product,
    )
