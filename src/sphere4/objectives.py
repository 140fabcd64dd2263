"""Quartic sphere objectives and their Riemannian calculus.

Both objectives here have the form phi(q) = -c * ||B^T q||_4^4 for a fixed
basis matrix B and a positive constant c: the finite-sample objective uses
B = Y (the observations) with c = 1/(12 theta (1-theta) p), and its
infinite-sample limit uses B = A (the dictionary) with c = 1/4. One kernel
therefore serves both, and the convolutional objective in `cdl` through its
own FFT pair of passes Z = B^T q and B W.

With zeta = B^T q the Euclidean derivatives are

    grad phi(q) = -4c B zeta^{.3}
    Hess phi(q) = -12c B diag(zeta^{.2}) B^T

and the Riemannian versions at unit q, writing P = I - q q^T, are

    rgrad = P grad,   rhess = P (Hess - (q^T grad) I) P,

where q^T grad = 4 phi(q) because phi is homogeneous of degree 4. The
projection retraction x -> x/||x|| (`model.retract`) agrees with the
sphere exponential map to second order, so the quadratic form of rhess is
what a second central difference of t -> phi(retract(q + t v)) measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (Dictionary, ObservationSet, SpherePoint, retract, sample_bg,
                    stream, synth_odl)

__all__ = [
    "TensorObjective",
    "OdlObjective",
    "expectation_gap",
    "retract",
]

DENSE_HESSIAN_LIMIT = 4096
# tangent_min_eig: Krylov depth cap and relative Ritz-residual tolerance
LANCZOS_MAX_ITERS = 200
LANCZOS_TOL = 1e-8


def _coords(q) -> np.ndarray:
    if isinstance(q, SpherePoint):
        return q.coords
    return np.asarray(q, dtype=float).reshape(-1)


def tangent_min_eig(matvec, q: np.ndarray,
                    seed: int = 0) -> tuple[float, np.ndarray, bool]:
    """Smallest eigenpair of a symmetric operator on the tangent space at q.

    Lanczos with full reorthogonalization, started from a random tangent
    vector. `matvec` need not project its output onto the tangent space;
    that happens here. Returns (eigenvalue, unit eigenvector, converged);
    `converged` means the relative Ritz residual fell below LANCZOS_TOL or
    the Krylov space exhausted the tangent space.
    """
    q = np.asarray(q, dtype=float)
    n = q.size
    dim = n - 1
    if dim == 0:
        return 0.0, np.zeros(n), True

    def project(v: np.ndarray) -> np.ndarray:
        return v - q * float(q @ v)

    rng = stream(seed, "lanczos")
    v = project(rng.standard_normal(n))
    for _ in range(10):
        nv = float(np.linalg.norm(v))
        if nv > 1e-12:
            break
        v = project(rng.standard_normal(n))
    v /= np.linalg.norm(v)

    depth = min(LANCZOS_MAX_ITERS, dim)
    V = np.empty((depth, n))
    V[0] = v
    alphas, betas = [], []
    for k in range(depth):
        w = project(np.asarray(matvec(V[k]), dtype=float))
        a = float(V[k] @ w)
        alphas.append(a)
        w -= a * V[k]
        if betas:
            w -= betas[-1] * V[k - 1]
        w -= V[: k + 1].T @ (V[: k + 1] @ w)
        w = project(w)
        beta = float(np.linalg.norm(w))
        T = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        evals, evecs = np.linalg.eigh(T)
        resid = beta * abs(float(evecs[-1, 0]))
        if (resid <= LANCZOS_TOL * max(1.0, abs(float(evals[0])))
                or beta <= 1e-14):
            converged = True
            break
        if k + 1 == depth:
            converged = depth == dim
            break
        betas.append(beta)
        V[k + 1] = w / beta

    vec = project(V[: k + 1].T @ evecs[:, 0])
    nv = float(np.linalg.norm(vec))
    if nv > 0.0:
        vec /= nv
    return float(evals[0]), vec, converged


class _QuarticObjective:
    """phi(q) = -c ||Z||_4^4 with Z = B^T q, written once for every objective.

    A subclass supplies the constant c and the correlate/adjoint pair:
    correlate(q) -> Z = B^T q, an array of any shape, and adjoint(W) -> B W
    for W shaped like Z. The value, the Euclidean and Riemannian gradients
    and the Hessian action are built from those two passes here.
    """

    c: float

    # A numpy integer power of 3 or 4 calls libm pow per entry of Z, at about
    # a hundred times the cost of a multiply, so every objective multiplies;
    # z2*z with z2 = z*z is z*z*z bit for bit, as numpy evaluates (z*z)*z.
    def _fourth_sum(self, z) -> float:
        """||z||_4^4 as the squared norm of z*z."""
        z2 = z * z
        return float(np.vdot(z2, z2))

    def value(self, q) -> float:
        return -self.c * self._fourth_sum(self.correlate(_coords(q)))

    def grad(self, q) -> np.ndarray:
        """Euclidean gradient -4c B (B^T q)^3."""
        z = self.correlate(_coords(q))
        return -4.0 * self.c * self.adjoint(z * z * z)

    def evaluate(self, q) -> tuple[float, np.ndarray]:
        """(value, Euclidean gradient) from one correlate and one adjoint pass.

        Both agree bit for bit with value(q) and grad(q).
        """
        z = self.correlate(_coords(q))
        z2 = z * z
        return (-self.c * float(np.vdot(z2, z2)),
                -4.0 * self.c * self.adjoint(z2 * z))

    def rgrad(self, q) -> np.ndarray:
        """Tangent-space gradient P_{q perp} grad phi(q)."""
        q = _coords(q)
        g = self.grad(q)
        return g - q * (q @ g)

    def curvature(self, q) -> "_Curvature":
        """The tangent-curvature operator at unit q; see _Curvature."""
        return _Curvature(self, _coords(q))

    def rhess_vec(self, q, v) -> np.ndarray:
        """Riemannian Hessian action on v without materializing a matrix."""
        return self.curvature(q).matvec(np.asarray(v, dtype=float).reshape(-1))


class _BasisObjective(_QuarticObjective):
    """The quartic kernel on an explicit n x m basis matrix B."""

    basis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "_basis_t", self.basis.T)  # B^T for correlate
        # |z_i| <= ||b_i|| at unit q, so 16 c sum ||b_i||^4 bounds every kernel entry
        with np.errstate(over="ignore"):
            s = np.einsum("ij,ij->j", self.basis, self.basis)
            if not 16.0 * self.c * float(s @ s) < np.inf:
                raise ValueError("basis too large: the quartic kernel overflows")

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    def correlate(self, q: np.ndarray) -> np.ndarray:
        return self._basis_t @ q

    def adjoint(self, w: np.ndarray) -> np.ndarray:
        return self.basis @ w

    def rhess(self, q) -> np.ndarray:
        """Dense Riemannian Hessian P (Hess_e - (q^T grad) I) P, n <= 4096."""
        return self.curvature(q).dense()


class _Curvature:
    """The tangent Hessian P (Hess_e - 4 phi I) P of a quartic objective at x.

    Z^2 and x^T grad = 4 phi(x) are formed once, so an action costs two
    passes. The smallest eigenpair comes from one dense eigh on an explicit
    basis with n <= DENSE_HESSIAN_LIMIT, otherwise from Lanczos.
    """

    def __init__(self, obj: _QuarticObjective, x: np.ndarray):
        self.obj, self.x = obj, x
        self.z2 = obj.correlate(x) ** 2
        self.qg = -4.0 * obj.c * float(np.vdot(self.z2, self.z2))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        x, obj = self.x, self.obj
        w = v - x * (x @ v)
        out = -12.0 * obj.c * obj.adjoint(self.z2 * obj.correlate(w)) - self.qg * w
        return out - x * (x @ out)

    def dense(self) -> np.ndarray:
        obj, x, n = self.obj, self.x, self.obj.n
        if n > DENSE_HESSIAN_LIMIT:
            raise ValueError(f"dense Hessian refused for n={n} > "
                             f"{DENSE_HESSIAN_LIMIT}; use rhess_vec")
        he = -12.0 * obj.c * ((obj.basis * self.z2) @ obj.basis.T)
        proj = np.eye(n) - np.outer(x, x)
        return proj @ (he - self.qg * np.eye(n)) @ proj

    def min_eig(self, seed: int = 0) -> tuple[float, np.ndarray, bool]:
        """(smallest tangent eigenvalue, unit eigenvector, converged)."""
        x = self.x
        if not (isinstance(self.obj, _BasisObjective)
                and 1 < x.size <= DENSE_HESSIAN_LIMIT):
            return tangent_min_eig(self.matvec, x, seed=seed)
        H = self.dense()
        # push the retraction direction (a structural zero eigenvalue) upward
        # so the dense minimum is the tangent-restricted one
        shift = 10.0 * (1.0 + float(np.abs(H).sum()))
        evals, evecs = np.linalg.eigh(H + shift * np.outer(x, x))
        vec = evecs[:, 0]
        vec -= x * float(x @ vec)
        nv = float(np.linalg.norm(vec))
        if nv > 0.0:
            vec /= nv
        return float(evals[0]), vec, True


@dataclass(frozen=True)
class TensorObjective(_BasisObjective):
    """Infinite-sample objective phi(q) = -(1/4) ||A^T q||_4^4."""

    D: Dictionary

    @property
    def basis(self) -> np.ndarray:
        return self.D.entries

    @property
    def c(self) -> float:
        return 0.25


@dataclass(frozen=True)
class OdlObjective(_BasisObjective):
    """Finite-sample objective phi(q) = -c ||q^T Y||_4^4.

    The normalizer c = 1/(12 theta (1-theta) p) makes the expectation over
    Bernoulli-Gaussian codes comparable to the infinite-sample objective;
    see expectation_gap.
    """

    Y: ObservationSet
    theta: float

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        super().__post_init__()

    @property
    def basis(self) -> np.ndarray:
        return self.Y.entries

    @cached_property
    def c(self) -> float:
        return 1.0 / (12.0 * self.theta * (1.0 - self.theta) * self.Y.p)


def expectation_gap(
    D: Dictionary, theta: float, q, p: int, seed: int
) -> tuple[float, float]:
    """Monte-Carlo mean of the sample objective against its exact expectation.

    Draws X ~ BG(theta) of width p via sample_bg(D.m, p, theta, seed),
    forms Y = A X, and returns (mean of phi_sample over the draw, predicted
    expectation). With zeta = A^T q,

        E[phi_sample(q)] = -(1/4)||zeta||_4^4 - (theta/(4(1-theta))) ||zeta||_2^4

    which follows from E[(zeta^T x)^4] = 3 theta(1-theta)||zeta||_4^4
    + 3 theta^2 ||zeta||_2^4 for a Bernoulli-Gaussian x. For a unit-norm
    tight frame ||zeta||_2^4 = K^2 with K = m/n, so the correction term is
    theta/(4(1-theta)) * K^2.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    qv = _coords(q)
    X = sample_bg(D.m, p, theta, seed)
    Y = synth_odl(D, X)
    mc_mean = OdlObjective(Y, theta).value(qv)
    zeta = D.entries.T @ qv
    phi_t = -0.25 * float(np.sum(zeta**4))
    predicted = phi_t - theta / (4.0 * (1.0 - theta)) * float(np.sum(zeta**2)) ** 2
    return mc_mean, predicted
