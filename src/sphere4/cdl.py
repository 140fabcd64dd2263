"""Circulant machinery and the convolutional dictionary objective.

A length-n filter a acts on a length-n code x by circular convolution
(a conv x)[i] = sum_j a[(i-j) mod n] x[j], with everything modulo n: FFTs
here always have length exactly n, never padded. The circulant matrix C_v
has column j equal to the cyclic shift s_j[v], so C_v x = v conv x and
C_v^T q = rev(v) conv q where rev is the cyclic reversal [v_0, v_{n-1},
..., v_1].

Measurements y_i = sum_k a_k conv x_ik are whitened by a spectral
preconditioner P = F^{-1} diag(w) F with w = (power spectrum / scale)^{-1/2},
after which the objective

    phi(q) = -c * sum_i ||rev(P y_i) conv q||_4^4,  c = 1/(12 theta (1-theta) n p)

is exactly the generic quartic objective on the stacked basis
[C_{P y_1} ... C_{P y_p}], evaluated here in O(n log n) per measurement.
The two scale conventions for the preconditioner differ by the exact
scalar sqrt(K), which cancels under any subsequent sphere projection;
both are kept so that cancellation can be asserted rather than assumed.
Under main_text the preconditioned shift dictionary PA_0 approaches a
tight frame with frame constant K, under appendix_h constant 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .model import (
    Dictionary,
    FilterBank,
    ObservationSet,
    SparseCode,
    SpherePoint,
    sample_bg,
)
from .objectives import _QuarticObjective, _coords

__all__ = [
    "CirculantOp",
    "Preconditioner",
    "ConvProblem",
    "CdlObjective",
    "conv",
    "cyclic_reversal",
    "circ_embed",
    "synth_cdl",
    "build_preconditioner",
    "deprecondition",
    "effective_dictionary",
]

EPS_SPEC = 1e-10
SCALE_CONVENTIONS = ("main_text", "appendix_h")


def conv(a, b) -> np.ndarray:
    """Circular convolution of two equal-length real vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("conv needs equal-length vectors")
    n = a.shape[-1]
    return np.fft.irfft(np.fft.rfft(a) * np.fft.rfft(b), n=n)


def cyclic_reversal(v) -> np.ndarray:
    """rev(v)[k] = v[-k mod n], i.e. [v_0, v_{n-1}, ..., v_1]."""
    v = np.asarray(v, dtype=float)
    return np.roll(v[::-1], 1)


@dataclass(frozen=True)
class CirculantOp:
    """The circulant matrix C_v with column j = s_j[v], applied via FFT."""

    generator: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.generator, dtype=float).reshape(-1)
        if g.size == 0 or not np.all(np.isfinite(g)):
            raise ValueError("generator must be a nonempty finite vector")
        g = g.copy()
        g.setflags(write=False)
        object.__setattr__(self, "generator", g)

    @property
    def n(self) -> int:
        return self.generator.size

    @cached_property
    def spectrum(self) -> np.ndarray:
        s = np.fft.fft(self.generator)
        s.setflags(write=False)
        return s

    def matvec(self, v) -> np.ndarray:
        """C_v x = v conv x."""
        return conv(self.generator, v)

    def rmatvec(self, v) -> np.ndarray:
        """C_v^T q = rev(v) conv q, the circular cross-correlation."""
        v = np.asarray(v, dtype=float).reshape(-1)
        return np.fft.irfft(np.conj(np.fft.rfft(self.generator)) * np.fft.rfft(v), n=self.n)

    def dense(self) -> np.ndarray:
        return scipy.linalg.circulant(self.generator)

    def singular_values(self) -> np.ndarray:
        """Per-frequency-bin singular values |fft(v)| (unsorted)."""
        return np.abs(self.spectrum)


@dataclass(frozen=True)
class Preconditioner:
    """Spectral whitener P = F^{-1} diag(spectrum_weights) F.

    spectrum_weights is real and positive, so P is symmetric positive
    definite and commutes with every circulant operator. `floored` records
    whether any power-spectrum bin had to be floored at EPS_SPEC relative
    to the max bin before inversion.
    """

    spectrum_weights: np.ndarray
    scale_convention: str
    K: int
    floored: bool = False

    def __post_init__(self):
        w = np.asarray(self.spectrum_weights, dtype=float).reshape(-1)
        if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
            raise ValueError("spectrum weights must be positive and finite")
        if self.scale_convention not in SCALE_CONVENTIONS:
            raise ValueError(f"unknown scale convention {self.scale_convention!r}")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "spectrum_weights", w)

    @property
    def n(self) -> int:
        return self.spectrum_weights.size

    def apply(self, v) -> np.ndarray:
        """P v via two FFTs."""
        v = np.asarray(v, dtype=float)
        return np.real(
            np.fft.ifft(self.spectrum_weights * np.fft.fft(v, axis=-1), axis=-1)
        )

    def apply_inverse(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        return np.real(
            np.fft.ifft(np.fft.fft(v, axis=-1) / self.spectrum_weights, axis=-1)
        )

    def as_circulant(self) -> CirculantOp:
        return CirculantOp(np.real(np.fft.ifft(self.spectrum_weights)))

    def dense(self) -> np.ndarray:
        return self.as_circulant().dense()

    def to_json(self) -> dict:
        return {
            "spectrum_weights": [float(x) for x in self.spectrum_weights],
            "scale_convention": self.scale_convention,
            "K": int(self.K),
            "floored": bool(self.floored),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Preconditioner":
        return cls(
            np.asarray(obj["spectrum_weights"], dtype=float),
            obj["scale_convention"],
            int(obj["K"]),
            bool(obj.get("floored", False)),
        )


def build_preconditioner(
    Y: ObservationSet, theta: float, K: int, convention: str = "main_text"
) -> Preconditioner:
    """Whitener from the averaged measurement power spectrum.

    spectrum_weights = (scale^{-1} * (1/p) sum_i |fft(y_i)|^2)^{-1/2} with
    scale = theta K n under the main_text convention and theta n under
    appendix_h, so that in the large-p limit K^{-1} (PA_0)(PA_0)^T = I
    under main_text. Zero (or near-zero) bins are floored at EPS_SPEC
    times the max bin and flagged, since the inverse square root is
    otherwise undefined.
    """
    if Y.p < 1:
        raise ValueError("need at least one measurement")
    if convention not in SCALE_CONVENTIONS:
        raise ValueError(f"unknown scale convention {convention!r}")
    n = Y.n
    power = (np.abs(np.fft.fft(Y.entries, axis=0)) ** 2).mean(axis=1)
    scale = theta * K * n if convention == "main_text" else theta * n
    power = power / scale
    floor = EPS_SPEC * power.max()
    floored = bool(np.any(power < floor))
    weights = 1.0 / np.sqrt(np.maximum(power, floor))
    return Preconditioner(weights, convention, K, floored)


def circ_embed(bank: FilterBank, codes) -> ObservationSet:
    """Measurements y_i = sum_k a_k conv x_ik from stacked codes.

    `codes` is an (n K) x p matrix (or SparseCode) whose k-th length-n
    block holds the code convolved with filter k.
    """
    X = codes.entries if isinstance(codes, SparseCode) else np.asarray(codes, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    K, n = bank.K, bank.n
    if X.shape[0] != n * K:
        raise ValueError(f"codes must have {n * K} rows, got {X.shape[0]}")
    blocks = X.reshape(K, n, X.shape[1])
    fspec = np.fft.rfft(bank.filters, axis=1)
    acc = np.zeros((fspec.shape[1], X.shape[1]), dtype=complex)
    for k in range(K):
        acc += fspec[k][:, None] * np.fft.rfft(blocks[k], axis=0)
    return ObservationSet(np.fft.irfft(acc, n=n, axis=0))


@dataclass(frozen=True)
class ConvProblem:
    """A convolutional instance: measurements, whitener, and (when the
    instance is synthetic) the ground-truth filters and codes."""

    measurements: ObservationSet
    preconditioner: Preconditioner
    theta: float
    filters: FilterBank | None = None
    codes: SparseCode | None = None

    @property
    def n(self) -> int:
        return self.measurements.n

    @property
    def p(self) -> int:
        return self.measurements.p

    @property
    def K(self) -> int:
        return self.preconditioner.K


def synth_cdl(
    bank: FilterBank,
    theta: float,
    p: int,
    seed: int,
    convention: str = "main_text",
) -> ConvProblem:
    """Sample codes, convolve them through the filter bank, and whiten."""
    codes = sample_bg(bank.n * bank.K, p, theta, seed)
    Y = circ_embed(bank, codes)
    P = build_preconditioner(Y, theta, bank.K, convention)
    return ConvProblem(Y, P, theta, filters=bank, codes=codes)


@dataclass(frozen=True)
class CdlObjective(_QuarticObjective):
    """phi(q) = -c sum_i ||rev(P y_i) conv q||_4^4, c = 1/(12 theta(1-theta) n p).

    Equivalent to the generic quartic objective on the stacked basis
    [C_{P y_1} ... C_{P y_p}], whose kernel it shares; only the two passes
    differ. The correlations Z = B^T q form a p x n array, row i holding
    C_{P y_i}^T q, and both passes are real FFTs along its contiguous rows
    against the cached half-spectra of the preconditioned measurements.
    """

    measurements: ObservationSet
    preconditioner: Preconditioner
    theta: float

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        if self.measurements.n != self.preconditioner.n:
            raise ValueError("measurement length and preconditioner size differ")

    @classmethod
    def from_problem(cls, problem: ConvProblem) -> "CdlObjective":
        return cls(problem.measurements, problem.preconditioner, problem.theta)

    @property
    def n(self) -> int:
        return self.measurements.n

    @property
    def p(self) -> int:
        return self.measurements.p

    @property
    def K(self) -> int:
        return self.preconditioner.K

    @cached_property
    def c(self) -> float:
        return 1.0 / (12.0 * self.theta * (1.0 - self.theta) * self.n * self.p)

    @cached_property
    def _spectra(self) -> np.ndarray:
        """rfft(P y_i) for all i, a p x (n//2 + 1) C-contiguous array."""
        pre = self.preconditioner.apply(self.measurements.entries.T)
        s = np.ascontiguousarray(np.fft.rfft(pre, axis=1))
        s.setflags(write=False)
        return s

    def correlate(self, q: np.ndarray) -> np.ndarray:
        """Z[i] = C_{P y_i}^T q = rev(P y_i) conv q, a p x n array."""
        return np.fft.irfft(np.conj(self._spectra) * np.fft.rfft(q), n=self.n,
                            axis=1)

    def adjoint(self, w: np.ndarray) -> np.ndarray:
        """sum_i C_{P y_i} w_i = sum_i P y_i conv w_i for a p x n array w."""
        acc = (self._spectra * np.fft.rfft(w, axis=1)).sum(axis=0)
        return np.fft.irfft(acc, n=self.n)

    # Z has n p entries, and numpy's z**3 and z**4 call libm pow per entry at
    # about a hundred times the cost of a multiply: multiply instead.
    def _fourth_sum(self, z) -> float:
        z2 = z * z
        return float(np.vdot(z2, z2))

    def _cube(self, z) -> np.ndarray:
        return z * z * z


def deprecondition(q_star, P: Preconditioner) -> SpherePoint:
    """Undo the whitening on a solved direction: P_sphere(P^{-1} q)."""
    return SpherePoint.project(P.apply_inverse(_coords(q_star)))


def effective_dictionary(bank: FilterBank, P: Preconditioner) -> Dictionary:
    """Materialize P A_0, the n x nK dictionary of preconditioned shifts.

    Column (k, j) is s_j[P a_k]; P commutes with the shifts so applying it
    to each filter once suffices.
    """
    cols = []
    for k in range(bank.K):
        cols.append(CirculantOp(P.apply(bank.filters[k])).dense())
    return Dictionary(np.hstack(cols))
