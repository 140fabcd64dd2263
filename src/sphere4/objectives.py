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

where q^T grad = 4 phi(q) because phi is homogeneous of degree 4. All
difference quotients use the metric-projection retraction x -> x/||x||,
which agrees with the sphere exponential map to second order, so the
quadratic form of rhess is exactly what a second central difference of
t -> phi(retract(q + t v)) measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import Dictionary, ObservationSet, SpherePoint, sample_bg, synth_odl

__all__ = [
    "TensorObjective",
    "OdlObjective",
    "expectation_gap",
    "fd_directional",
    "fd_quadratic",
    "retract",
]

DENSE_HESSIAN_LIMIT = 4096


def _coords(q) -> np.ndarray:
    if isinstance(q, SpherePoint):
        return q.coords
    return np.asarray(q, dtype=float).reshape(-1)


def retract(x: np.ndarray) -> np.ndarray:
    """Metric projection onto the sphere, x / ||x||."""
    return x / np.linalg.norm(x)


class _QuarticObjective:
    """phi(q) = -c ||Z||_4^4 with Z = B^T q, written once for every objective.

    A subclass supplies the constant c and the correlate/adjoint pair:
    correlate(q) -> Z = B^T q, an array of any shape, and adjoint(W) -> B W
    for W shaped like Z. The value, the Euclidean and Riemannian gradients
    and the Hessian action are built from those two passes here.
    """

    c: float

    # A numpy integer power of 3 or 4 calls libm pow per entry of Z, at about
    # a hundred times the cost of a multiply, so every objective multiplies.
    def _fourth_sum(self, z) -> float:
        """||z||_4^4 as the squared norm of z*z."""
        z2 = z * z
        return float(np.vdot(z2, z2))

    def _cube(self, z) -> np.ndarray:
        return z * z * z

    def value(self, q) -> float:
        return -self.c * self._fourth_sum(self.correlate(_coords(q)))

    def grad(self, q) -> np.ndarray:
        """Euclidean gradient -4c B (B^T q)^3."""
        z = self.correlate(_coords(q))
        return -4.0 * self.c * self.adjoint(self._cube(z))

    def evaluate(self, q) -> tuple[float, np.ndarray]:
        """(value, Euclidean gradient) from one correlate and one adjoint pass.

        Both agree bit for bit with value(q) and grad(q).
        """
        z = self.correlate(_coords(q))
        return (-self.c * self._fourth_sum(z),
                -4.0 * self.c * self.adjoint(self._cube(z)))

    def rgrad(self, q) -> np.ndarray:
        """Tangent-space gradient P_{q perp} grad phi(q)."""
        q = _coords(q)
        g = self.grad(q)
        return g - q * (q @ g)

    def rhess_vec(self, q, v) -> np.ndarray:
        """Riemannian Hessian action on v without materializing a matrix."""
        q = _coords(q)
        v = np.asarray(v, dtype=float).reshape(-1)
        z = self.correlate(q)
        w = v - q * (q @ v)
        hw = -12.0 * self.c * self.adjoint((z**2) * self.correlate(w))
        qg = -4.0 * self.c * self._fourth_sum(z)  # q^T grad = 4 phi(q)
        out = hw - qg * w
        return out - q * (q @ out)


class _BasisObjective(_QuarticObjective):
    """The quartic kernel on an explicit n x m basis matrix B."""

    basis: np.ndarray

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    def correlate(self, q: np.ndarray) -> np.ndarray:
        return self.basis.T @ q

    def adjoint(self, w: np.ndarray) -> np.ndarray:
        return self.basis @ w

    def rhess(self, q) -> np.ndarray:
        """Dense Riemannian Hessian P (Hess_e - (q^T grad) I) P.

        Refused for n > 4096: at that size the n x n matrix is a misuse,
        use rhess_vec instead.
        """
        if self.n > DENSE_HESSIAN_LIMIT:
            raise ValueError(
                f"dense Hessian refused for n={self.n} > {DENSE_HESSIAN_LIMIT}; "
                "use rhess_vec"
            )
        q = _coords(q)
        z = self.correlate(q)
        he = -12.0 * self.c * ((self.basis * (z**2)) @ self.basis.T)
        qg = -4.0 * self.c * self._fourth_sum(z)  # q^T grad = 4 phi(q)
        proj = np.eye(self.n) - np.outer(q, q)
        return proj @ (he - qg * np.eye(self.n)) @ proj


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


def fd_directional(obj, q, v, h: float = 1e-5) -> float:
    """Central difference of t -> phi(retract(q + t v)) at t = 0.

    For tangent v this estimates <rgrad(q), v>. The step default sits near
    the cube-root-epsilon optimum for first derivatives of 64-bit floats.
    """
    q = _coords(q)
    v = np.asarray(v, dtype=float).reshape(-1)
    return (obj.value(retract(q + h * v)) - obj.value(retract(q - h * v))) / (2 * h)


def fd_quadratic(obj, q, v, h: float = 1e-4) -> float:
    """Second central difference of t -> phi(retract(q + t v)) at t = 0.

    For unit tangent v this estimates v^T rhess(q) v, since the projection
    retraction is second-order accurate.
    """
    q = _coords(q)
    v = np.asarray(v, dtype=float).reshape(-1)
    f0 = obj.value(q)
    fp = obj.value(retract(q + h * v))
    fm = obj.value(retract(q - h * v))
    return (fp - 2.0 * f0 + fm) / (h * h)
