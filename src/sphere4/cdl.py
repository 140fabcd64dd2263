"""The convolutional dictionary objective and its spectral whitener.

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

from .model import (FilterBank, ObservationSet, SpherePoint, _exponent, _is_int,
                    sample_bg)
from .objectives import _QuarticObjective, _coords

__all__ = [
    "Preconditioner",
    "ConvProblem",
    "CdlObjective",
    "circ_embed",
    "synth_cdl",
    "build_preconditioner",
    "deprecondition",
]

EPS_SPEC = 1e-10
SCALE_CONVENTIONS = ("main_text", "appendix_h")


@dataclass(frozen=True)
class Preconditioner:
    """Spectral whitener P = F^{-1} diag(spectrum_weights) F, taken as real.

    P acts on real vectors through the real part of that operator, whose
    spectrum is the Hermitian part (w_j + w_{-j}) / 2 of the weights. Its
    first n//2 + 1 bins, `half_spectrum`, are formed once, and P and
    P^{-1} are real FFT pairs against them. The weights are positive, so P
    is symmetric positive definite and commutes with every circulant
    operator. `floored` records whether any power-spectrum bin had to be
    floored at EPS_SPEC relative to the max bin before inversion.
    """

    spectrum_weights: np.ndarray
    floored: bool = False

    def __post_init__(self):
        w = np.array(self.spectrum_weights, dtype=float).reshape(-1)
        if w.size == 0:
            raise ValueError("spectrum weights must be nonempty")
        if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
            raise ValueError("spectrum weights must be positive and finite")
        w.setflags(write=False)
        object.__setattr__(self, "spectrum_weights", w)
        a, b = w[: w.size // 2 + 1], w[-np.arange(w.size // 2 + 1)]
        half = a + (b - a) / 2  # the mean without overflow, exactly a if b == a
        half.setflags(write=False)
        object.__setattr__(self, "half_spectrum", half)

    @property
    def n(self) -> int:
        return self.spectrum_weights.size

    def _rfft(self, v) -> np.ndarray:
        v = np.ascontiguousarray(v, dtype=float)
        if v.shape[-1:] != (self.n,):  # even n: an rfft of n + 1 has as many bins
            raise ValueError(f"P acts on length {self.n}, got shape {v.shape}")
        return np.fft.rfft(v, axis=-1)

    def apply(self, v) -> np.ndarray:
        """P v along the last axis, by one real FFT pair; C-contiguous."""
        return np.fft.irfft(self._rfft(v) * self.half_spectrum, n=self.n, axis=-1)

    def apply_inverse(self, v) -> np.ndarray:
        """P^{-1} v along the last axis, by one real FFT pair; C-contiguous."""
        return np.fft.irfft(self._rfft(v) / self.half_spectrum, n=self.n, axis=-1)


def build_preconditioner(Y: ObservationSet, theta: float, K: int,
                         convention: str = "main_text") -> Preconditioner:
    """Whitener from the averaged measurement power spectrum.

    spectrum_weights = (scale^{-1} * (1/p) sum_i |fft(y_i)|^2)^{-1/2} with
    scale = theta K n under the main_text convention and theta n under
    appendix_h, so that in the large-p limit K^{-1} (PA_0)(PA_0)^T = I
    under main_text. Zero (or near-zero) bins are floored at EPS_SPEC
    times the max bin and flagged, since the inverse square root is
    otherwise undefined. The spectrum is taken of Y divided by the power
    of two of its largest magnitude, and the weights are scaled back, so
    measurements near the ends of the float range neither overflow nor
    underflow; scaling by a power of two is exact, so other inputs keep
    their bits. Subnormal measurements, whose weights overflow, raise.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    if not (_is_int(K) and K >= 1):
        raise ValueError(f"K must be an integer of at least 1, got {K!r}")
    if convention not in SCALE_CONVENTIONS:
        raise ValueError(f"unknown scale convention {convention!r}")
    if not np.any(Y.entries):
        raise ValueError("every measurement is zero")
    n = Y.n
    e = _exponent(Y.entries)
    scaled = np.ldexp(Y.entries, -e)
    power = (np.abs(np.fft.fft(scaled, axis=0)) ** 2).mean(axis=1)
    scale = theta * K * n if convention == "main_text" else theta * n
    power = power / scale
    floor = EPS_SPEC * power.max()
    floored = bool(np.any(power < floor))
    weights = 1.0 / np.sqrt(np.maximum(power, floor))
    if np.frexp(weights.max())[1] - e > np.finfo(float).maxexp:
        raise ValueError("measurements are too small to whiten")
    weights = np.ldexp(weights, -e)
    return Preconditioner(weights, floored)


def circ_embed(bank: FilterBank, codes) -> ObservationSet:
    """Measurements y_i = sum_k a_k conv x_ik from stacked codes.

    `codes` is an (n K) x p matrix, such as sample_bg's, whose k-th
    length-n block holds the code convolved with filter k.
    """
    X = np.asarray(codes, dtype=float)
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
    instance is synthetic) the ground-truth filters, which alone give K.
    Parts that disagree on the length n, or a bad theta, are refused."""

    measurements: ObservationSet
    preconditioner: Preconditioner
    theta: float
    filters: FilterBank | None = None

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        n, bank = self.n, self.filters
        if n != self.preconditioner.n:
            raise ValueError(f"measurements have length {n}, P {self.preconditioner.n}")
        if bank is not None and bank.n != n:
            raise ValueError(f"filters have length {bank.n}, measurements {n}")

    @property
    def n(self) -> int:
        return self.measurements.n

    @property
    def p(self) -> int:
        return self.measurements.p


def synth_cdl(bank: FilterBank, theta: float, p: int, seed: int,
              convention: str = "main_text") -> ConvProblem:
    """Convolve the codes sample_bg(n K, p, theta, seed) through the filter
    bank, and whiten. The codes are not kept; that draw gives them again."""
    Y = circ_embed(bank, sample_bg(bank.n * bank.K, p, theta, seed))
    P = build_preconditioner(Y, theta, bank.K, convention)
    return ConvProblem(Y, P, theta, filters=bank)


@dataclass(frozen=True)
class CdlObjective(_QuarticObjective):
    """phi(q) = -c sum_i ||rev(P y_i) conv q||_4^4, c = 1/(12 theta(1-theta) n p),
    on one ConvProblem, which supplies the measurements, P, theta and sizes.

    Equivalent to the generic quartic objective on the stacked basis
    [C_{P y_1} ... C_{P y_p}], whose kernel it shares; only the two passes
    differ. The correlations Z = B^T q form a p x n array, row i holding
    C_{P y_i}^T q, and both passes are real FFTs along its contiguous rows
    against the cached half-spectra of the preconditioned measurements.
    """

    problem: ConvProblem

    def __post_init__(self):
        prob = self.problem
        object.__setattr__(self, "c", 1.0 / (12.0 * prob.theta * (1.0 - prob.theta)
                                             * prob.n * prob.p))

    @property
    def n(self) -> int:
        return self.problem.n

    @cached_property
    def _spectra(self) -> np.ndarray:
        """rfft(P y_i) for all i, a p x (n//2 + 1) C-contiguous array."""
        prob = self.problem
        s = np.multiply(prob.preconditioner.half_spectrum,
                        np.fft.rfft(prob.measurements.entries.T, axis=1), order="C")
        s.setflags(write=False)
        return s

    @cached_property
    def _conj_spectra(self) -> np.ndarray:
        return np.conj(self._spectra)

    def correlate(self, q: np.ndarray) -> np.ndarray:
        """Z[i] = C_{P y_i}^T q = rev(P y_i) conv q, a p x n array."""
        return np.fft.irfft(self._conj_spectra * np.fft.rfft(q), n=self.n, axis=1)

    def adjoint(self, w: np.ndarray) -> np.ndarray:
        """sum_i C_{P y_i} w_i = sum_i P y_i conv w_i for a p x n array w."""
        acc = (self._spectra * np.fft.rfft(w, axis=1)).sum(axis=0)
        return np.fft.irfft(acc, n=self.n)


def deprecondition(q_star, P: Preconditioner) -> SpherePoint:
    """Undo the whitening on a solved direction: P_sphere(P^{-1} q)."""
    return SpherePoint.project(P.apply_inverse(_coords(q_star)))

