"""Domain types and samplers for l4-norm maximization over the sphere.

Conventions used throughout the package: a dictionary A is an n x m real
matrix with columns a_i (m >= n), q is a unit vector in R^n, and
zeta = A^T q is the correlation vector whose l4 norm the optimizers drive
up. Sparse codes are Bernoulli-Gaussian: X_ij = B_ij * G_ij with
B ~ Ber(theta) and G standard normal. Randomness is counter-based
(Philox) so that every (seed, purpose, trial) triple is an independent,
platform-reproducible stream.
"""

from __future__ import annotations

import math
import os
import tempfile
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "Dictionary",
    "SparseCode",
    "SpherePoint",
    "ObservationSet",
    "FilterBank",
    "stream",
    "make_untf",
    "sample_bg",
    "synth_odl",
    "coherence",
    "retract",
    "make_filter_bank",
    "save_matrix",
    "load_matrix",
]

UNIT_TOL = 1e-12
# make_untf stops once the frame residual ||(n/m) A A^T - I||_F is this small,
# or after UNTF_MAX_ITERS updates
UNTF_TOL = 1e-10
UNTF_MAX_ITERS = 5000


def stream(seed, *path) -> np.random.Generator:
    """Independent random stream for a given seed and purpose path.

    `path` entries may be ints or short strings (strings are crc32-mapped);
    distinct paths under the same seed give statistically independent
    streams, so parallel trials can draw without any shared state.
    """
    key = tuple(
        zlib.crc32(p.encode()) if isinstance(p, str) else int(p) for p in path
    )
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def _frozen_array(x, dtype=float) -> np.ndarray:
    a = np.array(x, dtype=dtype)
    a.setflags(write=False)
    return a


def retract(v: np.ndarray) -> np.ndarray:
    """v / ||v|| for a contiguous 1-d real array v: the one normalizer onto
    the sphere, behind SpherePoint.project and every solver step.

    sqrt(v.dot(v)) is np.linalg.norm of such an array (a strided view's dot
    rounds differently, so project passes a contiguous copy). A zero or
    non-finite v raises ValueError, and so does a v whose squared norm
    underflows so far that v / ||v|| misses the sphere.
    """
    nrm = math.sqrt(v.dot(v))
    if not 0.0 < nrm < math.inf:
        raise ValueError("cannot project a zero or non-finite vector")
    u = v / nrm
    if nrm < 1e-150 and abs(np.linalg.norm(u) - 1.0) > UNIT_TOL:
        raise ValueError("v / ||v|| misses unit l2 norm: ||v||^2 underflows")
    return u


@dataclass(frozen=True)
class SpherePoint:
    """A point q on the unit sphere S^{n-1}."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float).reshape(-1)
        if c.size == 0 or not np.all(np.isfinite(c)):
            raise ValueError("coords must be a nonempty finite vector")
        if abs(np.linalg.norm(c) - 1.0) > UNIT_TOL:
            raise ValueError("coords must have unit l2 norm (use project)")
        object.__setattr__(self, "coords", _frozen_array(c))

    @classmethod
    def project(cls, v) -> "SpherePoint":
        """Metric projection v / ||v|| onto the sphere; see retract."""
        return cls(retract(np.asarray(v, dtype=float).ravel()))

    @property
    def n(self) -> int:
        return self.coords.size


@dataclass(frozen=True)
class Dictionary:
    """An n x m dictionary (m >= n) with cached scalar diagnostics.

    `untf_converged` is set by make_untf (None for hand-built matrices):
    False means the alternating generator hit its iteration cap and the
    entries are the best iterate found.
    """

    entries: np.ndarray
    untf_converged: bool | None = None

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2:
            raise ValueError("entries must be a 2d array")
        if not np.all(np.isfinite(a)):
            raise ValueError("entries must be finite")
        n, m = a.shape
        if m < n:
            raise ValueError(f"need m >= n, got shape {n} x {m}")
        object.__setattr__(self, "entries", _frozen_array(a))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def m(self) -> int:
        return self.entries.shape[1]

    @cached_property
    def coherence(self) -> float:
        return coherence(self)

    @cached_property
    def column_norms(self) -> np.ndarray:
        """The l2 norm of each column, computed once per dictionary."""
        return _frozen_array(np.linalg.norm(self.entries, axis=0))


@dataclass(frozen=True)
class SparseCode:
    """An m x p Bernoulli-Gaussian code matrix with rate theta."""

    entries: np.ndarray
    theta: float

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2:
            raise ValueError("entries must be a 2d array")
        if not np.all(np.isfinite(a)):
            raise ValueError("entries must be finite")
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        object.__setattr__(self, "entries", _frozen_array(a))

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def p(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class ObservationSet:
    """An n x p stack of measurement vectors (one column per sample)."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2:
            raise ValueError("entries must be a 2d array")
        if not np.all(np.isfinite(a)):
            raise ValueError("entries must be finite")
        object.__setattr__(self, "entries", _frozen_array(a))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def p(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class FilterBank:
    """K circular filters of length n, stored as rows of `filters`.

    The stacked matrix of all cyclic shifts of all filters has, per
    frequency bin j, squared singular value sum_k |fft(a_k)[j]|^2; the
    smallest of them gives sigma_min.
    """

    filters: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.filters, dtype=float)
        if a.ndim != 2:
            raise ValueError("filters must be a 2d array (K rows of length n)")
        if not np.all(np.isfinite(a)):
            raise ValueError("filters must be finite")
        object.__setattr__(self, "filters", _frozen_array(a))

    @property
    def K(self) -> int:
        return self.filters.shape[0]

    @property
    def n(self) -> int:
        return self.filters.shape[1]

    @cached_property
    def sigma_min(self) -> float:
        spec = np.fft.fft(self.filters, axis=1)
        return float(np.sqrt((np.abs(spec) ** 2).sum(axis=0)).min())


def make_untf(n: int, m: int, seed: int) -> Dictionary:
    """Generate a unit-norm tight frame by alternating projections.

    Starts from N(0, 1/n) entries and alternates (i) left-preconditioning
    by ((m/n) A A^T)^{-1/2} with (ii) column l2-normalization until the
    frame residual ||(n/m) A A^T - I||_F drops below UNTF_TOL. Columns are
    exactly unit after every normalization pass, so the residual alone is
    the convergence test. After UNTF_MAX_ITERS updates the best iterate is
    returned with untf_converged=False.
    """
    if not 1 <= n <= m:
        raise ValueError(f"need 1 <= n <= m, got n={n}, m={m}")
    rng = stream(seed, "untf")
    A = rng.normal(0.0, 1.0 / np.sqrt(n), size=(n, m))
    A = A / np.linalg.norm(A, axis=0)
    eye = np.eye(n)
    scale = n / m
    best = A
    best_res = np.inf
    for _ in range(UNTF_MAX_ITERS):
        G = A @ A.T
        res = np.linalg.norm(scale * G - eye)
        if res < best_res:
            best, best_res = A, res
        if res <= UNTF_TOL:
            return Dictionary(A, untf_converged=True)
        w, V = np.linalg.eigh(G / scale)
        # floor keeps the inverse root finite on near-rank-deficient iterates
        w = np.maximum(w, 1e-14 * w[-1])
        A = (V * (1.0 / np.sqrt(w))) @ V.T @ A
        A = A / np.linalg.norm(A, axis=0)
    res = np.linalg.norm(scale * (A @ A.T) - eye)
    if res < best_res:
        best, best_res = A, res
    return Dictionary(best, untf_converged=bool(best_res <= UNTF_TOL))


def _untf_stack(n: int, m: int, seeds) -> list:
    """[make_untf(n, m, s) for s in seeds], bit for bit, with the
    frames iterated as one (T, n, m) stack. An empty list gives [].

    Stacked matmul runs per frame the BLAS call of the scalar loop (syrk
    for A A^T, ddot for the residual, gemm for the update), and eigh runs
    LAPACK per matrix, so every frame keeps its bits. A frame leaves the
    stack when it converges. One seed goes to make_untf, which is faster.
    """
    if not 1 <= n <= m:
        raise ValueError(f"need 1 <= n <= m, got n={n}, m={m}")
    seeds = list(seeds)
    if len(seeds) == 1:
        return [make_untf(n, m, seeds[0])]
    out = [None] * len(seeds)
    if not seeds:
        return out
    A = np.stack([stream(s, "untf").normal(0.0, 1.0 / np.sqrt(n), size=(n, m))
                  for s in seeds])
    A = A / np.linalg.norm(A, axis=1, keepdims=True)
    eye = np.eye(n)
    scale = n / m
    live = np.arange(len(seeds))
    best = A
    best_res = np.full(len(seeds), np.inf)

    def keep_best(A):
        """Residuals of the stack A; tracks each frame's best iterate."""
        nonlocal best
        G = A @ A.transpose(0, 2, 1)
        R = (scale * G - eye).reshape(len(A), -1)
        res = np.sqrt((R[:, None, :] @ R[:, :, None]).ravel())
        better = res < best_res
        if better.all():
            best = A
        else:
            best[better] = A[better]
        best_res[better] = res[better]
        return G, res

    for _ in range(UNTF_MAX_ITERS):
        G, res = keep_best(A)
        done = res <= UNTF_TOL
        if done.any():
            for i in np.flatnonzero(done):
                out[live[i]] = Dictionary(A[i], untf_converged=True)
            stay = ~done
            if not stay.any():
                return out
            A, G, live = A[stay], G[stay], live[stay]
            best, best_res = best[stay], best_res[stay]
        w, V = np.linalg.eigh(G / scale)
        # floor keeps the inverse root finite on near-rank-deficient iterates
        w = np.maximum(w, 1e-14 * w[:, -1:])
        A = (V * (1.0 / np.sqrt(w))[:, None, :]) @ V.transpose(0, 2, 1) @ A
        A = A / np.linalg.norm(A, axis=1, keepdims=True)
    keep_best(A)
    for i, frame, res in zip(live, best, best_res):
        out[i] = Dictionary(frame, untf_converged=bool(res <= UNTF_TOL))
    return out


def sample_bg(m: int, p: int, theta: float, seed: int) -> SparseCode:
    """Draw an m x p Bernoulli-Gaussian code: X = B .* G, B ~ Ber(theta).

    Masked entries are exact zeros. Deterministic for a fixed seed.
    """
    if m < 1 or p < 1:
        raise ValueError(f"need m >= 1 and p >= 1, got m={m}, p={p}")
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    rng = stream(seed, "bg")
    mask = rng.random(size=(m, p)) < theta
    gauss = rng.standard_normal(size=(m, p))
    return SparseCode(np.where(mask, gauss, 0.0), theta)


def synth_odl(D: Dictionary, X: SparseCode) -> ObservationSet:
    """Observations Y = A X for the linear sparse-coding model."""
    if D.m != X.m:
        raise ValueError(f"dictionary has {D.m} columns, code has {X.m} rows")
    return ObservationSet(D.entries @ X.entries)


def coherence(D: Dictionary) -> float:
    """Largest |<a_i, a_j>| over distinct normalized column pairs."""
    A = D.entries
    norms = D.column_norms
    if not norms.all():
        raise ValueError("coherence undefined with a zero column")
    G = (A / norms).T @ (A / norms)
    np.fill_diagonal(G, 0.0)
    return float(np.abs(G).max())


def make_filter_bank(n: int, K: int, seed: int) -> FilterBank:
    """K filters drawn uniformly from the sphere S^{n-1}.

    Redraws (never observed in practice for n >= 2) if the stacked
    circulant spectrum has a zero bin, so sigma_min > 0 holds by
    construction.
    """
    if n < 1 or K < 1:
        raise ValueError(f"need n >= 1 and K >= 1, got n={n}, K={K}")
    rng = stream(seed, "filters")
    for _ in range(100):
        F = rng.standard_normal(size=(K, n))
        F = F / np.linalg.norm(F, axis=1, keepdims=True)
        bank = FilterBank(F)
        if bank.sigma_min > 0.0:
            return bank
    raise RuntimeError("could not draw a filter bank with sigma_min > 0")


@contextmanager
def _atomic_open(path: Path):
    """A text handle on a temporary file that replaces `path` only once the
    block completes; on any error the temporary is removed."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path: Path, text: str) -> None:
    with _atomic_open(path) as fh:
        fh.write(text)


def save_matrix(path, entries: np.ndarray,
                provenance: tuple[str, ...] = ()) -> None:
    """Write a matrix as CSV at 17 significant digits, atomically.

    Provenance lines go into the header as `# ` comments. Rows stream to
    the file, so no copy of the text is held in memory.
    """
    with _atomic_open(Path(path)) as fh:
        np.savetxt(fh, np.atleast_2d(np.asarray(entries, dtype=float)),
                   fmt="%.17g", delimiter=",", header="\n".join(provenance),
                   comments="# ")


def load_matrix(path) -> np.ndarray:
    """Read a CSV matrix written by save_matrix."""
    return np.loadtxt(path, delimiter=",", ndmin=2)
