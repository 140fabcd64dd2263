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
import numbers
import operator
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
    "SpherePoint",
    "ObservationSet",
    "FilterBank",
    "stream",
    "make_untf",
    "sample_bg",
    "synth_odl",
    "retract",
    "make_filter_bank",
    "save_matrix",
    "load_matrix",
]

UNIT_TOL = 1e-12
# the UNTF generator stops once the frame residual ||(n/m) A A^T - I||_F is
# this small, or after UNTF_MAX_ITERS updates
UNTF_TOL = 1e-10
UNTF_MAX_ITERS = 5000


def stream(seed, *path) -> np.random.Generator:
    """Independent random stream for a given seed and purpose path.

    `path` entries may be ints or short strings (strings are crc32-mapped);
    distinct paths under the same seed give statistically independent
    streams, so parallel trials can draw without any shared state. A seed
    or non-string entry that is not an integer (operator.index refuses
    it) raises ValueError rather than being truncated.
    """
    try:
        key = tuple(zlib.crc32(p.encode()) if isinstance(p, str)
                    else operator.index(p) for p in path)
        entropy = operator.index(seed)
    except TypeError:
        raise ValueError("stream needs an integer seed and integer or string "
                         f"path entries, got {(seed, *path)!r}") from None
    ss = np.random.SeedSequence(entropy=entropy, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def _is_int(v) -> bool:
    """v is an integer, and not a bool (which numbers.Integral admits)."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _frozen_array(x) -> np.ndarray:
    # C order whatever x's layout, so that equal entries round alike
    a = np.array(x, dtype=float, order="C")
    a.setflags(write=False)
    return a


def _frozen_matrix(x, name: str = "entries") -> np.ndarray:
    """x as a read-only float copy, refused unless it is a 2-d finite
    array with no empty dimension."""
    a = _frozen_array(x)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2d array")
    if 0 in a.shape:
        raise ValueError(f"{name} must not be empty, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    return a


def _exponent(v, axis=None):
    """frexp's exponent of max |v| along axis: 0 if that is 0 or not finite."""
    return np.frexp(np.max(np.abs(v), axis=axis, initial=0.0))[1]


def _norm(v, axis=None):
    """np.linalg.norm(v, axis=axis), axis None or 0, of v scaled by 2^-e (see
    _exponent) and scaled back: exact, so its bits wherever it neither over-
    nor underflows. A norm past the float range raises ValueError."""
    e = _exponent(v, axis)
    norms = np.linalg.norm(np.ldexp(v, -e), axis=axis)
    if np.any(np.frexp(norms)[1] + e > np.finfo(float).maxexp):
        raise ValueError("the l2 norm overflows")
    return np.ldexp(norms, e)


def retract(v: np.ndarray) -> np.ndarray:
    """v / ||v|| along the last axis of a C-contiguous real array: one
    vector, or a stack of rows each normalized alone. The one normalizer
    onto the sphere, behind SpherePoint.project and every solver step.

    sqrt(v.dot(v)) is np.linalg.norm of a contiguous vector (a strided
    view's dot rounds differently, so project passes a contiguous copy),
    and vecdot takes that dot for each row of a stack. A lone vector or row
    takes the dot itself, which costs less. A zero or non-finite row raises
    ValueError, and so does a nonzero row whose squared norm underflows to
    zero or so far that v / ||v|| misses the sphere. A row whose squared
    norm overflows must be rescaled first, as project does; retract warns
    on it, then refuses it as non-finite.
    """
    if v.ndim == 1 or len(v) == 1:
        w = v.ravel()
        nrm = math.sqrt(w.dot(w))
        norms = [nrm]
    else:
        nrm = np.sqrt(np.vecdot(v, v, keepdims=True))
        norms = nrm.ravel().tolist()
    tiny = False
    for r in norms:
        if not 1e-150 <= r < math.inf:
            if not 0.0 < r < math.inf:
                if r == 0.0 and np.any(v.reshape(-1, v.shape[-1])[norms.index(r)]):
                    raise ValueError("v / ||v|| misses unit l2 norm: ||v||^2 underflows")
                raise ValueError("cannot project a zero or non-finite vector")
            tiny = True
    u = v / nrm
    if tiny and np.any(np.abs(np.linalg.norm(u, axis=-1) - 1.0) > UNIT_TOL):
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
        """Metric projection v / ||v|| onto the sphere; see retract. v is
        scaled by 2^-e first (see _exponent), exactly, so v . v stays in range."""
        v = np.asarray(v, dtype=float).ravel()
        return cls(retract(np.ldexp(v, -_exponent(v))))

    @property
    def n(self) -> int:
        return self.coords.size


def _unit_coords(q) -> np.ndarray:
    """q's coordinates; a non-finite or non-unit q raises ValueError."""
    return (q if isinstance(q, SpherePoint) else SpherePoint(q)).coords


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
        a = _frozen_matrix(self.entries)
        n, m = a.shape
        if m < n:
            raise ValueError(f"need m >= n, got shape {n} x {m}")
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def m(self) -> int:
        return self.entries.shape[1]

    @cached_property
    def coherence(self) -> float:
        """Largest |<a_i, a_j>| over distinct normalized column pairs."""
        norms = self.column_norms
        if not norms.all():
            raise ValueError("coherence undefined with a zero column")
        U = self.entries / norms
        # a second buffer keeps matmul on gemm: U.T @ U itself takes the
        # symmetric (syrk) path, whose last bits differ
        G = U.T @ U.copy()
        np.fill_diagonal(G, 0.0)
        return float(np.abs(G).max())

    @cached_property
    def column_norms(self) -> np.ndarray:
        """The l2 norm of each column (see _norm), computed once."""
        return _frozen_array(_norm(self.entries, axis=0))


@dataclass(frozen=True)
class ObservationSet:
    """An n x p stack of measurement vectors (one column per sample)."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _frozen_matrix(self.entries))

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
        object.__setattr__(self, "filters", _frozen_matrix(self.filters, "filters"))

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
    """Generate a unit-norm tight frame by alternating projections: the
    stack of one seed, _untf_stack(n, m, [seed])[0].

    Starts from N(0, 1/n) entries and alternates (i) left-preconditioning
    by ((m/n) A A^T)^{-1/2} with (ii) column l2-normalization until the
    frame residual ||(n/m) A A^T - I||_F drops below UNTF_TOL. Columns are
    exactly unit after every normalization pass, so the residual alone is
    the convergence test. After UNTF_MAX_ITERS updates the best iterate is
    returned with untf_converged=False. n and m must be integers with
    1 <= n <= m, and seed an integer (see stream); anything else raises
    ValueError.
    """
    return _untf_stack(n, m, [seed])[0]


def _untf_stack(n: int, m: int, seeds) -> list:
    """The frame make_untf describes for each seed in seeds, iterated as one
    (T, n, m) stack: the one alternating-projection loop. An empty list
    gives [].

    Stacked matmul runs per frame the BLAS call of a lone frame (syrk for
    A A^T, gemm for the update), vecdot is the dot that np.linalg.norm
    takes, and eigh runs LAPACK per matrix, so a frame's bits do not depend
    on the stack it is in. A frame leaves the stack when it converges. The
    column norms are np.linalg.norm's sum of squares without its call
    overhead, and the per-frame bookkeeping runs on Python floats and lists
    of frame views, which keeps a stack of one cheap.
    """
    if not (_is_int(n) and _is_int(m) and 1 <= n <= m):
        raise ValueError(f"need integers 1 <= n <= m, got n={n!r}, m={m!r}")
    seeds = list(seeds)
    if not seeds:
        return []
    A = np.stack([stream(s, "untf").normal(0.0, 1.0 / np.sqrt(n), size=(n, m))
                  for s in seeds])
    eye = np.eye(n)
    scale = n / m
    out = [None] * len(seeds)
    live = list(range(len(seeds)))  # the output slot of each stacked frame
    best = [None] * len(seeds)  # each frame's best iterate, and its residual
    best_res = [math.inf] * len(seeds)
    for it in range(UNTF_MAX_ITERS + 1):
        A = A / np.sqrt((A * A).sum(axis=1, keepdims=True))
        G = A @ A.transpose(0, 2, 1)
        R = (scale * G - eye).reshape(len(A), -1)
        stay = []
        for i, res in enumerate(np.sqrt(np.vecdot(R, R)).tolist()):
            if res < best_res[i]:
                best[i], best_res[i] = A[i], res
            if res <= UNTF_TOL:
                out[live[i]] = Dictionary(A[i], untf_converged=True)
            else:
                stay.append(i)
        if not stay or it == UNTF_MAX_ITERS:
            break
        if len(stay) < len(A):
            A, G = A[stay], G[stay]
            live = [live[i] for i in stay]
            best = [best[i] for i in stay]
            best_res = [best_res[i] for i in stay]
        w, V = np.linalg.eigh(G / scale)
        # floor keeps the inverse root finite on near-rank-deficient iterates
        w = np.maximum(w, 1e-14 * w[:, -1:])
        A = (V * (1.0 / np.sqrt(w))[:, None, :]) @ V.transpose(0, 2, 1) @ A
    for i in stay:
        out[live[i]] = Dictionary(best[i], untf_converged=False)
    return out


def sample_bg(m: int, p: int, theta: float, seed: int) -> np.ndarray:
    """Draw an m x p Bernoulli-Gaussian code X = B .* G, B ~ Ber(theta), as
    a read-only array. Masked entries are exact zeros. Deterministic for a
    fixed seed. m and p must be integers of at least 1; anything else
    raises ValueError.
    """
    if not (_is_int(m) and _is_int(p) and m >= 1 and p >= 1):
        raise ValueError(f"need integers m >= 1 and p >= 1, got m={m!r}, p={p!r}")
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    rng = stream(seed, "bg")
    mask = rng.random(size=(m, p)) < theta
    gauss = rng.standard_normal(size=(m, p))
    X = np.where(mask, gauss, 0.0)
    X.setflags(write=False)
    return X


def synth_odl(D: Dictionary, X) -> ObservationSet:
    """Observations Y = A X for the linear sparse-coding model, X an m x p
    code such as sample_bg's; ObservationSet refuses a non-finite product.
    X is taken C-ordered (copied only if it is not), as every matrix is."""
    X = np.ascontiguousarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != D.m:
        raise ValueError(f"need a 2d code with {D.m} rows, got shape {X.shape}")
    return ObservationSet(D.entries @ X)


def make_filter_bank(n: int, K: int, seed: int) -> FilterBank:
    """K filters drawn uniformly from the sphere S^{n-1}.

    Redraws (never observed in practice for n >= 2) if the stacked
    circulant spectrum has a zero bin, so sigma_min > 0 holds by
    construction. n and K must be integers of at least 1; anything else
    raises ValueError.
    """
    if not (_is_int(n) and _is_int(K) and n >= 1 and K >= 1):
        raise ValueError(f"need integers n >= 1 and K >= 1, got n={n!r}, K={K!r}")
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
