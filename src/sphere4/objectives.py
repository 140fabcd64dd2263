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

where q^T grad = 4 phi(q) because phi is homogeneous of degree 4;
`curvature(q)` holds rhess as an operator (matvec, dense, min_eig). The
projection retraction x -> x/||x|| (`model.retract`) agrees with the
sphere exponential map to second order, so the quadratic form of rhess is
what a second central difference of t -> phi(retract(q + t v)) measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Dictionary, ObservationSet, SpherePoint, stream

__all__ = [
    "TensorObjective",
    "OdlObjective",
]

DENSE_HESSIAN_LIMIT = 4096
# tangent_min_eig: Krylov depth cap and relative Ritz-residual tolerance
LANCZOS_MAX_ITERS = 200
LANCZOS_TOL = 1e-8


def _coords(q, n: int | None = None) -> np.ndarray:
    """q as a 1-d float array; with n given, any other size raises ValueError."""
    x = (q.coords if isinstance(q, SpherePoint)
         else np.asarray(q, dtype=float).reshape(-1))
    if n is not None and x.size != n:
        raise ValueError(f"q has {x.size} entries, but the objective n={n}")
    return x


def tangent_min_eig(matvec, q: np.ndarray) -> tuple[float, np.ndarray, bool]:
    """Smallest eigenpair of a symmetric operator on the tangent space at q.

    Lanczos with full reorthogonalization, started from a fixed random
    tangent vector. `matvec` need not project its output onto the tangent
    space; that happens here. Returns (eigenvalue, unit eigenvector,
    converged); `converged` means the relative Ritz residual fell below
    LANCZOS_TOL or the Krylov space exhausted the tangent space.
    """
    q = np.asarray(q, dtype=float)
    n = q.size
    dim = n - 1
    if dim == 0:
        return 0.0, np.zeros(n), True

    def project(v: np.ndarray) -> np.ndarray:
        return v - q * float(q @ v)

    rng = stream(0, "lanczos")
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

    A subclass supplies the constant c, as a plain attribute, and the
    correlate/adjoint pair: correlate(q) -> Z = B^T q, an array of any
    shape, and adjoint(W) -> B W for W shaped like Z. The value, the
    Euclidean and Riemannian gradients and the Hessian action are built
    from those two passes here; `_evaluate` is the solver's per-iterate
    call, on the plain unit arrays it holds.
    """

    c: float

    def value(self, q) -> float:
        return self._evaluate(_coords(q, self.n))[0]

    def grad(self, q) -> np.ndarray:
        """Euclidean gradient -4c B (B^T q)^3."""
        return self._evaluate(_coords(q, self.n))[1]

    def evaluate(self, q) -> tuple[float, np.ndarray]:
        """(value, Euclidean gradient) from one correlate and one adjoint pass."""
        return self._evaluate(_coords(q, self.n))

    # A numpy integer power of 3 or 4 calls libm pow per entry of Z, at about
    # a hundred times the cost of a multiply, so every objective multiplies;
    # z *= z2 with z2 = z*z is z*z*z bit for bit, as numpy evaluates (z*z)*z
    # and a product commutes exactly. correlate returns a fresh array, so
    # the cube is formed in place.
    def _evaluate(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """evaluate at a 1-d float array x, without converting it."""
        z = self.correlate(x)
        z2 = z * z
        val = -self.c * float(np.vdot(z2, z2))
        z *= z2
        return val, -4.0 * self.c * self.adjoint(z)

    def rgrad(self, q) -> np.ndarray:
        """Tangent-space gradient P_{q perp} grad phi(q)."""
        q = _coords(q)
        g = self.grad(q)
        return g - q * (q @ g)

    def curvature(self, q) -> "_Curvature":
        """The tangent-curvature operator at unit q; see _Curvature."""
        return _Curvature(self, _coords(q, self.n))


class _BasisObjective(_QuarticObjective):
    """The quartic kernel on an explicit n x m basis matrix B."""

    basis: np.ndarray

    def __post_init__(self):
        # B and B^T as plain attributes, so a kernel call reads no property.
        # Their dot (ndarray.dot, without @'s ufunc dispatch) rounds
        # as @ does, except on a negative-stride vector, which it copies first
        b = self.basis
        object.__setattr__(self, "_basis", b)
        object.__setattr__(self, "_basis_t", b.T)
        # |z_i| <= ||b_i|| at unit q, so 16 c sum ||b_i||^4 bounds every kernel
        # entry and the gradient's norm; the solver, which squares that norm,
        # reads the bound as _kernel_bound
        with np.errstate(over="ignore"):
            s = np.einsum("ij,ij->j", b, b)
            bound = 16.0 * self.c * float(s @ s)
            if not bound < np.inf:
                raise ValueError("basis too large: the quartic kernel overflows")
        object.__setattr__(self, "_kernel_bound", bound)

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    def correlate(self, q: np.ndarray) -> np.ndarray:
        return self._basis_t.dot(q)

    def adjoint(self, w: np.ndarray) -> np.ndarray:
        return self._basis.dot(w)


class _StackKernel:
    """The solver's evaluate over a 2-d stack X of rows, row i on the
    objective objs[i]: (values, gradient rows), each row with the bits of
    its objective's lone `_evaluate`.

    Basis objectives of one basis shape and one c run the quartic below
    once for the stack, on the n x m basis of one objective that every row
    shares or on the (k, n, m) stack of their bases. The stacked matmul
    runs per row the gemv of a lone row's dot on a basis laid out as that
    row's is (every basis is C-ordered, as the stack is), and vecdot its
    vdot, so a row's bits do not depend on its stack. The cube and the
    scaling by -4c are formed in place; a product commutes exactly, so the
    bits are those of z2 * z and -4c * (B z^3). Any other set of rows
    evaluates row by row, and a stack of one makes the lone call.

    Built once per solve; take(idx) carries it, in the same mode, to the
    rows at the increasing positions idx. A kernel whose rows share one
    objective is its own take.
    """

    def __init__(self, objs: list):
        first = objs[0]
        self.objs, self.shared = objs, all(o is first for o in objs)
        self.evaluates = [getattr(o, "_evaluate", o.evaluate) for o in objs]
        self.c = self.B = self.Bt = None
        if all(isinstance(o, _BasisObjective) and o.c == first.c
               and o._basis.shape == first._basis.shape for o in objs):
            self.c = first.c
            self.B = (first._basis if self.shared
                      else np.stack([o._basis for o in objs]))
            self.Bt = self.B.swapaxes(-1, -2)

    def take(self, idx: list) -> "_StackKernel":
        if self.shared or len(idx) == len(self.objs):
            return self
        kernel = object.__new__(_StackKernel)
        kernel.__dict__.update(self.__dict__,
                               objs=[self.objs[i] for i in idx],
                               evaluates=[self.evaluates[i] for i in idx])
        if self.B is not None:
            kernel.B = self.B[idx]
            kernel.Bt = kernel.B.swapaxes(-1, -2)
        return kernel

    def __call__(self, X: np.ndarray) -> tuple[list, np.ndarray]:
        if self.B is None:
            # a shared objective's kernel is its own take, so it may hold
            # more entries than X has rows; zip stops at X's last row
            pairs = [evaluate(x) for evaluate, x in zip(self.evaluates, X)]
            return ([float(val) for val, _ in pairs],
                    np.array([g for _, g in pairs], dtype=float))
        if len(X) == 1:
            val, g = self.evaluates[0](X[0])
            return [val], g[None]
        c = self.c
        Z = np.matmul(self.Bt, X[:, :, None])
        Z2 = Z * Z
        vals = -c * np.vecdot(Z2, Z2, axis=1)
        Z *= Z2
        G = np.matmul(self.B, Z)
        G *= -4.0 * c
        return vals.ravel().tolist(), G[:, :, 0]


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
        if not isinstance(obj, _BasisObjective):
            raise ValueError("dense Hessian needs an explicit basis; use matvec")
        if n > DENSE_HESSIAN_LIMIT:
            raise ValueError(f"dense Hessian refused for n={n} > "
                             f"{DENSE_HESSIAN_LIMIT}; use matvec")
        he = -12.0 * obj.c * ((obj.basis * self.z2) @ obj.basis.T)
        proj = np.eye(n) - np.outer(x, x)
        return proj @ (he - self.qg * np.eye(n)) @ proj

    def min_eig(self) -> tuple[float, np.ndarray, bool]:
        """(smallest tangent eigenvalue, unit eigenvector, converged)."""
        x = self.x
        if not (isinstance(self.obj, _BasisObjective)
                and 1 < x.size <= DENSE_HESSIAN_LIMIT):
            return tangent_min_eig(self.matvec, x)
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
    c = 0.25  # a class constant, not a field

    @property
    def basis(self) -> np.ndarray:
        return self.D.entries


@dataclass(frozen=True)
class OdlObjective(_BasisObjective):
    """Finite-sample objective phi(q) = -c ||q^T Y||_4^4.

    The normalizer c = 1/(12 theta (1-theta) p) makes the expectation over
    Bernoulli-Gaussian codes comparable to the infinite-sample objective.
    """

    Y: ObservationSet
    theta: float

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        object.__setattr__(
            self, "c", 1.0 / (12.0 * self.theta * (1.0 - self.theta) * self.Y.p))
        super().__post_init__()

    @property
    def basis(self) -> np.ndarray:
        return self.Y.entries

