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

import json
import zlib
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
    "spikiness",
    "make_filter_bank",
    "save_matrix",
    "load_matrix",
]

UNIT_TOL = 1e-12
# make_untf stops once the frame residual ||(n/m) A A^T - I||_F is this small
UNTF_TOL = 1e-10


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
        """Metric projection v / ||v|| onto the sphere."""
        v = np.asarray(v, dtype=float).reshape(-1)
        nrm = np.linalg.norm(v)
        if nrm == 0.0 or not np.isfinite(nrm):
            raise ValueError("cannot project a zero or non-finite vector")
        return cls(v / nrm)

    @property
    def n(self) -> int:
        return self.coords.size


@dataclass(frozen=True)
class Dictionary:
    """An n x m dictionary (m >= n) with cached scalar diagnostics.

    `untf_converged` is set by make_untf (None for hand-built matrices):
    False means the alternating generator hit its iteration cap and the
    entries are the best iterate found, with the residual still queryable
    through `frame_residual`.
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
    def gram(self) -> np.ndarray:
        return _frozen_array(self.entries.T @ self.entries)

    @cached_property
    def coherence(self) -> float:
        return coherence(self)

    @cached_property
    def frame_residual(self) -> float:
        """Frobenius distance of (n/m) A A^T from the identity."""
        n, m = self.entries.shape
        return float(
            np.linalg.norm((n / m) * (self.entries @ self.entries.T) - np.eye(n))
        )


@dataclass(frozen=True)
class SparseCode:
    """An m x p Bernoulli-Gaussian code matrix with rate theta."""

    entries: np.ndarray
    theta: float

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2:
            raise ValueError("entries must be a 2d array")
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
    frequency bin j, squared singular value sum_k |fft(a_k)[j]|^2; its
    extreme values give sigma_min and the condition number kappa.
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
    def _bin_singular_values(self) -> np.ndarray:
        spec = np.fft.fft(self.filters, axis=1)
        return np.sqrt((np.abs(spec) ** 2).sum(axis=0))

    @cached_property
    def sigma_min(self) -> float:
        return float(self._bin_singular_values.min())

    @cached_property
    def kappa(self) -> float:
        smin = self.sigma_min
        if smin <= 0.0:
            raise ValueError("stacked circulant matrix is singular")
        return float(self._bin_singular_values.max() / smin)


def make_untf(n: int, m: int, seed: int, max_iters: int = 5000) -> Dictionary:
    """Generate a unit-norm tight frame by alternating projections.

    Starts from N(0, 1/n) entries and alternates (i) left-preconditioning
    by ((m/n) A A^T)^{-1/2} with (ii) column l2-normalization until the
    frame residual ||(n/m) A A^T - I||_F drops below UNTF_TOL. Columns are
    exactly unit after every normalization pass, so the residual alone is
    the convergence test. On hitting max_iters the best iterate is
    returned with untf_converged=False.
    """
    if m < n:
        raise ValueError(f"need m >= n, got n={n}, m={m}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    rng = stream(seed, "untf")
    A = rng.normal(0.0, 1.0 / np.sqrt(n), size=(n, m))
    A = A / np.linalg.norm(A, axis=0)
    eye = np.eye(n)
    scale = n / m
    best = A
    best_res = np.inf
    for _ in range(max_iters):
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


def sample_bg(m: int, p: int, theta: float, seed: int) -> SparseCode:
    """Draw an m x p Bernoulli-Gaussian code: X = B .* G, B ~ Ber(theta).

    Masked entries are exact zeros. Deterministic for a fixed seed.
    """
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
    norms = np.linalg.norm(A, axis=0)
    if np.any(norms == 0.0):
        raise ValueError("coherence undefined with a zero column")
    G = (A / norms).T @ (A / norms)
    np.fill_diagonal(G, 0.0)
    return float(np.abs(G).max())


def spikiness(zeta) -> float:
    """Ratio of the largest to second-largest entry magnitude (>= 1).

    Returns +inf when the second-largest magnitude is zero, or so small
    that the ratio overflows: the vector is maximally spiky and the ratio
    is taken as the sentinel rather than an error.
    """
    z = np.abs(np.asarray(zeta, dtype=float).reshape(-1))
    if z.size < 2:
        raise ValueError("spikiness needs at least two entries")
    second, first = np.partition(z, -2)[-2:].tolist()
    if second == 0.0:
        return np.inf
    return first / second  # Python float division overflows to inf silently


def make_filter_bank(n: int, K: int, seed: int) -> FilterBank:
    """K filters drawn uniformly from the sphere S^{n-1}.

    Redraws (never observed in practice for n >= 2) if the stacked
    circulant spectrum has a zero bin, so sigma_min > 0 holds by
    construction.
    """
    rng = stream(seed, "filters")
    for _ in range(100):
        F = rng.standard_normal(size=(K, n))
        F = F / np.linalg.norm(F, axis=1, keepdims=True)
        bank = FilterBank(F)
        if bank.sigma_min > 0.0:
            return bank
    raise RuntimeError("could not draw a filter bank with sigma_min > 0")


def save_matrix(
    path,
    entries: np.ndarray,
    kind: str,
    seed: int | None = None,
    theta: float | None = None,
    provenance: tuple[str, ...] = (),
) -> None:
    """Write a matrix as CSV (17 significant digits) plus a JSON sidecar.

    The sidecar (same stem, .json) records shape and kind, and seed/theta
    when given. Provenance lines go into the CSV header as comments.
    """
    path = Path(path)
    arr = np.atleast_2d(np.asarray(entries, dtype=float))
    np.savetxt(
        path,
        arr,
        fmt="%.17g",
        delimiter=",",
        header="\n".join(provenance),
        comments="# ",
    )
    meta = {"rows": arr.shape[0], "cols": arr.shape[1], "kind": kind}
    if seed is not None:
        meta["seed"] = int(seed)
    if theta is not None:
        meta["theta"] = float(theta)
    path.with_suffix(".json").write_text(json.dumps(meta, indent=2) + "\n")


def load_matrix(path) -> tuple[np.ndarray, dict | None]:
    """Read a CSV matrix written by save_matrix; returns (array, sidecar)."""
    path = Path(path)
    arr = np.loadtxt(path, delimiter=",", ndmin=2)
    sidecar = path.with_suffix(".json")
    meta = json.loads(sidecar.read_text()) if sidecar.exists() else None
    return arr, meta
