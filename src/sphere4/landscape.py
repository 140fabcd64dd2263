"""Geometric diagnostics for the quartic landscape on the sphere.

The sphere splits into two overlapping zones by comparing the limit
objective phi(q) = -(1/4)||A^T q||_4^4 against a coherence-scaled
threshold: points above it carry certified negative curvature along some
column direction, points below it are where critical points live and can
be classified through a scalar cubic in each correlation coordinate.
This module evaluates both certificates numerically for concrete (A, q).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .model import Dictionary, SpherePoint
from .objectives import TensorObjective, _coords

__all__ = [
    "RegionParams",
    "RegionDecision",
    "LandscapeReport",
    "CurvatureCertificate",
    "XI_DL_DEFAULT",
    "xi_cdl",
    "classify_region",
    "cubic_root_intervals",
    "critical_point_report",
    "negative_curvature_certificate",
]

REGION_NEGATIVE_CURVATURE = "negative_curvature"
REGION_CRITICAL = "critical_point"
REGION_BOUNDARY = "boundary"

CLASS_NEAR_SOLUTION = "near_solution"
CLASS_STRICT_SADDLE = "strict_saddle"
CLASS_NON_CRITICAL = "non_critical"
CLASS_INDETERMINATE = "indeterminate"

BOUNDARY_TOL = 1e-12

# critical_point_report: curvature above -CURV_REL_TOL * ||zeta||_4^4 reads
# PSD, and a cubic residual within RESID_TOL * alpha_i^(3/2) reads a root
CURV_REL_TOL = 1e-8
RESID_TOL = 1e-4

# the certificate constant must exceed 2^6; the integer above the floor
XI_DL_DEFAULT = 65.0

REPORT_CSV_COLUMNS = ("seed", "region", "grad_norm", "min_eig",
                      "classification", "best_index", "inner_product")


def xi_cdl(c0: float = 6.0, eta: float = 2.0**-7) -> float:
    """Certificate constant for the convolutional model, c0 * eta^(-2/3).

    The defaults sit inside the regime the guarantees ask for (c0 > 5,
    eta < 2^-6); both knobs stay exposed because only their combination is
    pinned down.
    """
    if c0 <= 0.0:
        raise ValueError("c0 must be positive")
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    return c0 * eta ** (-2.0 / 3.0)


@dataclass(frozen=True)
class RegionParams:
    """Threshold knobs: certificate constant, coherence, conditioning."""

    xi: float
    mu: float
    kappa: float = 1.0

    def __post_init__(self) -> None:
        if not self.xi > 0.0:
            raise ValueError("xi must be positive")
        # mu = 0 is the orthonormal limit; the threshold degenerates to 0
        if not 0.0 <= self.mu < 1.0:
            raise ValueError("mu must lie in [0, 1)")
        if self.kappa < 1.0:
            raise ValueError("kappa must be at least 1")


@dataclass(frozen=True)
class RegionDecision:
    label: str
    value: float
    threshold: float


def classify_region(D: Dictionary, q, params: RegionParams | None = None,
                    cdl_mode: bool = False) -> RegionDecision:
    """Which side of the landscape split q falls on, with both sides.

    Compares phi(q) against -xi * mu^(2/3) * kappa^(4/3) * ||zeta||_3^2
    (the kappa factor only in cdl_mode). Values within 1e-12 of the
    threshold are labeled boundary.
    """
    if params is None:
        params = RegionParams(XI_DL_DEFAULT, D.coherence)
    x = _coords(q)
    zeta = D.entries.T @ x
    value = -0.25 * float(np.sum(zeta**4))
    norm3sq = float(np.sum(np.abs(zeta) ** 3)) ** (2.0 / 3.0)
    scale = params.mu ** (2.0 / 3.0) * norm3sq
    if cdl_mode:
        scale *= params.kappa ** (4.0 / 3.0)
    threshold = -params.xi * scale if scale > 0.0 else -0.0
    if abs(value - threshold) <= BOUNDARY_TOL:
        label = REGION_BOUNDARY
    elif value < threshold:
        label = REGION_CRITICAL
    else:
        label = REGION_NEGATIVE_CURVATURE
    return RegionDecision(label, value, threshold)


def cubic_root_intervals(alpha: float, beta: float) -> np.ndarray:
    """Localization intervals for the real roots of z^3 - alpha*z + beta.

    Returns a (3, 2) array of [lo, hi] rows centered at 0, +sqrt(alpha),
    -sqrt(alpha), each with radius 2|beta|/alpha. Valid for
    |beta| <= alpha^(3/2)/4; beta = 0 degenerates the intervals to the
    exact roots {0, +-sqrt(alpha)}.
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if abs(beta) > alpha**1.5 / 4.0:
        raise ValueError("|beta| exceeds alpha^(3/2)/4; roots need not "
                         "localize near {0, +-sqrt(alpha)}")
    r = 2.0 * abs(beta) / alpha
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

    def to_json(self) -> str:
        payload = {
            "region": self.region,
            "grad_norm": self.grad_norm,
            "alphas": self.alphas.tolist(),
            "betas": self.betas.tolist(),
            "hess_min_eig": self.hess_min_eig,
            "hess_min_vec": self.hess_min_vec.tolist(),
            "classification": self.classification,
            "best_index": self.best_index,
            "inner_product": self.inner_product,
        }
        return json.dumps(payload)

    def csv_row(self, seed: int) -> tuple:
        return (seed, self.region, self.grad_norm, self.hess_min_eig,
                self.classification, self.best_index, self.inner_product)


def critical_point_report(D: Dictionary, q,
                          grad_tol: float = 1e-6) -> LandscapeReport:
    """Classify a point as near-solution, strict saddle, or neither.

    At a critical point every correlation zeta_i is a root of the scalar
    cubic z^3 - alpha_i z + beta_i with

        alpha_i = ||zeta||_4^4 / ||a_i||^2,
        beta_i  = sum_{j != i} <a_i, a_j> zeta_j^3 / ||a_i||^2,

    so each coordinate is pinned near 0 or near +-sqrt(alpha_i) ("big").
    One big coordinate plus a positive-semidefinite tangent Hessian reads
    near_solution; verified negative curvature reads strict_saddle;
    anything else (including a PSD point with two big coordinates, which
    high-coherence frames do produce) is reported indeterminate rather
    than forced into a theory bucket.
    """
    x = _coords(q)
    A = D.entries
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

    unit_ips = (A.T @ x) / np.sqrt(col_sq)
    best_index = int(np.argmax(np.abs(unit_ips)))
    inner_product = float(abs(unit_ips[best_index]))

    region = classify_region(D, x).label

    if grad_norm >= grad_tol:
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


@dataclass(frozen=True)
class CurvatureCertificate:
    index: int
    rayleigh: float
    bound: float
    holds: bool
    k_limit: float
    k_condition: bool


def negative_curvature_certificate(D: Dictionary, q, xi: float = XI_DL_DEFAULT,
                                   mu: float | None = None) -> CurvatureCertificate:
    """Check for certified descent curvature along some column direction.

    Evaluates the tangent Hessian quadratic form along every column a_i,
    returns the minimizing index, and compares against the bound
    -4 ||zeta||_4^4 ||zeta||_inf^2. Requires unit-norm columns. Also
    reports whether the overcompleteness condition
    m/n <= 3 (1 + 6 mu + 6 xi^(3/5) mu^(2/5))^(-1) holds for the supplied
    (xi, mu); mu defaults to the measured coherence.
    """
    A = D.entries
    norms = np.linalg.norm(A, axis=0)
    if np.abs(norms - 1.0).max() > 1e-8:
        raise ValueError("certificate requires unit-norm columns")
    if mu is None:
        mu = D.coherence
    x = _coords(q)
    zeta = A.T @ x
    # the tangent quadratic form along a_i reduces to Gram arithmetic:
    # with B = G - zeta zeta^T (so B_ji = <a_j, P a_i>),
    # a_i^T H a_i = -3 sum_j zeta_j^2 B_ji^2 + ||zeta||_4^4 (1 - zeta_i^2)
    B = D.gram - np.outer(zeta, zeta)
    z44 = float(np.sum(zeta**4))
    rayleighs = -3.0 * ((B * B) @ (zeta**2)) + z44 * (1.0 - zeta**2)
    index = int(np.argmin(rayleighs))
    rayleigh = float(rayleighs[index])
    bound = -4.0 * z44 * float(np.max(np.abs(zeta)) ** 2)
    k_limit = 3.0 / (1.0 + 6.0 * mu + 6.0 * xi ** (3.0 / 5.0) * mu ** (2.0 / 5.0))
    k_condition = D.m / D.n <= k_limit
    return CurvatureCertificate(
        index=index,
        rayleigh=rayleigh,
        bound=bound,
        holds=rayleigh < bound,
        k_limit=k_limit,
        k_condition=k_condition,
    )
