"""Unimodular code sets and aperiodic autocorrelation.

A code is a 1-D array of unit-magnitude complex samples.  A set of K codes
of common length N is complementary when the K autocorrelations sum to
N*K at lag zero and cancel at every other lag; such a set is stored as a
``Ccm`` (columns = codes).  Two concrete generators ship: binary pairs grown
by the concatenation doubling recursion, and the DFT phase family (column k
has entries exp(2j*pi*k*n/K)).

Codes built from integer phases keep those phases alongside the complex
entries so files round-trip bit-exactly and binary/quaternary sets are
judged complementary exactly, on Gaussian-integer autocorrelations.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .numtheory import _json_ints

__all__ = [
    "Ccm",
    "CcmValidation",
    "acf",
    "validate_ccm",
    "gen_golay_pair",
    "gen_dft_set",
    "ztransform_eval",
]

# Unit-magnitude and phase-consistency tolerance for stored entries.
UNIT_TOL = 1e-12

# Default per-lag tolerance on summed autocorrelations, unused for the exact
# orders 1, 2, 4; otherwise FFT error is ~1e-10 at N = 2^20, ten times below.
# Also doppler.taylor_coeffs' default, scaled there by N and max(1, max_c |D_c(m)|).
CCM_TOL = 1e-9

_EXACT_ROOTS = {
    1: np.array([1], dtype=complex),
    2: np.array([1, -1], dtype=complex),
    4: np.array([1, 1j, -1, -1j], dtype=complex),
}

# Binary/quaternary FFT autocorrelations this far from a Gaussian integer raise.
ROUNDING_LIMIT = 0.25


@dataclass(frozen=True, eq=False)
class Ccm:
    """K unimodular codes of common length N, stored as matrix columns.

    A set given by integer phases (``from_phases``) is defined by them: its
    entries are the roots exp(2j*pi*phase/order), built once, exactly for
    orders 1, 2 and 4, and columns passed alongside must agree with them.  A
    set given by columns alone is checked for unit magnitude.  Neither is
    checked for complementarity; use validate_ccm for that, so candidate sets
    can be represented and then judged.  Phase orders 1, 2 and 4 are judged
    exactly, with no tolerance.
    """

    columns: np.ndarray | None
    phase_order: int | None = None
    phases: np.ndarray | None = None

    def __post_init__(self):
        if (self.phases is None) != (self.phase_order is None):
            raise ValueError("phase_order and phases must be given together")
        if self.phases is None:
            cols = np.array(self.columns, dtype=complex)
        else:
            order = self.phase_order
            if order < 1:
                raise ValueError("phase_order must be positive")
            ph = np.asarray(self.phases, dtype=np.int64) % order
            ph.setflags(write=False)
            object.__setattr__(self, "phases", ph)
            if order in _EXACT_ROOTS:
                cols = _EXACT_ROOTS[order][ph]
            else:
                cols = np.exp(2j * np.pi * ph / order)
        if cols.ndim != 2 or cols.shape[0] < 1 or cols.shape[1] < 1:
            raise ValueError("columns must form a non-empty 2-D matrix")
        if self.phases is None:
            # Formed in place; a NaN entry fails.
            deviation = np.abs(cols)
            deviation -= 1.0
            if not np.max(np.abs(deviation, out=deviation)) <= UNIT_TOL:
                raise ValueError("all entries must have unit magnitude")
        elif self.columns is not None:
            given = np.asarray(self.columns, dtype=complex)
            if given.shape != cols.shape or not np.max(np.abs(given - cols)) <= UNIT_TOL:
                raise ValueError("phases do not reproduce the stored entries")
        cols.setflags(write=False)
        object.__setattr__(self, "columns", cols)

    @classmethod
    def from_phases(cls, phases, order: int) -> "Ccm":
        return cls(None, order, phases)

    @property
    def length(self) -> int:
        return self.columns.shape[0]

    @property
    def count(self) -> int:
        return self.columns.shape[1]

    def code(self, k: int) -> np.ndarray:
        return self.columns[:, k]

    @cached_property
    def spectra(self) -> np.ndarray:
        """|FFT(x_k, 2N)|^2 per code, (2N, K): `acfs`' source, z-domain spectra."""
        out = np.empty((2 * self.length, self.count), order="F")  # columns contiguous
        for k in range(self.count):
            np.abs(np.fft.fft(self.code(k), 2 * self.length), out=out[:, k])
        np.square(out, out=out)
        out.setflags(write=False)
        return out

    @cached_property
    def acfs(self) -> np.ndarray:
        """Autocorrelations of all codes, shape (2N-1, K), lag k at row N-1+k.

        Built on first use from `spectra` and kept read-only, like `columns`.
        Phase orders 1, 2 and 4 give Gaussian-integer ACFs, so the FFT values
        are rounded to them and equal direct summation exactly.  The residual
        is 6e-11 (N = 2^20 Golay pair) to 2.3e-10 (random quaternary, same N).
        """
        out = np.empty((2 * self.length - 1, self.count), dtype=complex)
        for k in range(self.count):
            column = _acf_from_spectrum(self.code(k), self.spectra[:, k], out[:, k])
            if self.phase_order in _EXACT_ROOTS:
                exact = np.round(column)
                residual = float(np.max(np.abs(column - exact)))
                if residual >= ROUNDING_LIMIT:
                    raise ArithmeticError(f"FFT ACF rounding residual {residual:.3e}")
                np.add(exact, 0.0, out=column)  # -0.0 from rounding would reach reports
        out.setflags(write=False)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ccm):
            return NotImplemented
        if self.phase_order != other.phase_order:
            return False
        if self.phases is not None:  # equal orders: other has phases too
            return np.array_equal(self.phases, other.phases)
        return np.array_equal(self.columns, other.columns)

    def to_json_dict(self) -> dict:
        data = {"N": self.length, "K": self.count, "phaseOrder": self.phase_order}
        if self.phases is not None:
            data["phases"] = self.phases.T.tolist()
        else:
            cols = self.columns.T
            data["columns"] = np.stack([cols.real, cols.imag], -1).tolist()
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "Ccm":
        if not isinstance(data, dict):
            raise TypeError("a code set is a JSON object")
        order = data.get("phaseOrder")
        if order is not None:
            _json_ints(chain([order], *data["phases"]), "phaseOrder and phases")
            phases = np.array(data["phases"], dtype=np.int64).T
            ccm = cls.from_phases(phases, order)
        else:
            cols = np.array(
                [[complex(re, im) for re, im in col] for col in data["columns"]],
                dtype=complex,
            ).T
            ccm = cls(cols)
        _json_ints([data["N"], data["K"]], "N and K")
        if ccm.length != data["N"] or ccm.count != data["K"]:
            raise ValueError("declared N/K do not match the stored codes")
        return ccm


def acf(code) -> np.ndarray:
    """Aperiodic autocorrelation, length 2N-1, lag k at index N-1+k.

    ACF(k) = sum_i x[i] * conj(x[i+k]) for k >= 0, from a zero-padded FFT of
    length 2N (float error ~ eps * N * log N per lag: 1e-10 measured at
    N = 2^20), mirrored by conjugation for negative lags (the mirror is built
    by construction, so the conjugate symmetry is exact).  The lag-0 value is
    the code energy, summed directly rather than through the FFT.
    """
    x = np.asarray(code, dtype=complex)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("code must be a non-empty 1-D array")
    spectrum = np.abs(np.fft.fft(x, 2 * x.size)) ** 2
    return _acf_from_spectrum(x, spectrum, np.empty(2 * x.size - 1, dtype=complex))


def _acf_from_spectrum(x, spectrum, out) -> np.ndarray:
    """acf(x) into `out` from its length-2N power spectrum |FFT(x, 2N)|^2."""
    n = x.size
    positive = np.conj(np.fft.ifft(spectrum)[:n], out=out[n - 1 :])
    positive[0] = np.vdot(x, x)
    np.conj(positive[:0:-1], out=out[: n - 1])
    return out


def code_acfs(ccm: Ccm) -> np.ndarray:
    """The set's ACF table `ccm.acfs`, computed once per Ccm."""
    return ccm.acfs


@dataclass(frozen=True)
class CcmValidation:
    is_ccm: bool
    worst_sidelobe: float
    peak_error: float


def validate_ccm(ccm: Ccm, tol: float = CCM_TOL) -> CcmValidation:
    """Check that summed autocorrelations equal N*K*delta within tol.

    Reports the worst absolute off-peak sum either way, so near-misses can
    be inspected.  The set is judged on code_acfs.  For phase orders 1, 2
    and 4 those are Gaussian integers, so the sums are exact in float64 and
    the set must meet N*K*delta exactly: tol is ignored.
    """
    if ccm.phase_order in _EXACT_ROOTS:
        tol = 0.0
    total = code_acfs(ccm).sum(axis=1)
    center = ccm.length - 1
    peak_error = float(abs(total[center] - ccm.length * ccm.count))
    magnitudes = np.abs(total)
    magnitudes[center] = 0.0  # the peak lag; the off-peak max is 0 at N = 1
    worst = float(magnitudes.max())
    return CcmValidation(worst <= tol and peak_error <= tol, worst, peak_error)


def gen_golay_pair(exponent: int) -> Ccm:
    """Binary complementary pair of length 2^exponent.

    Grown from the seed pair ((1), (1)) by the doubling step
    a' = a || b, b' = a || -b, which preserves complementarity at every
    stage.  Entries are exactly +/-1.
    """
    if not 1 <= exponent <= 20:
        raise ValueError(f"exponent must be in 1..20, got {exponent}")
    a = b = np.zeros(1, dtype=np.int64)  # phase 0 is +1, phase 1 is -1
    for _ in range(exponent):
        a, b = np.concatenate([a, b]), np.concatenate([a, 1 - b])
    return Ccm.from_phases(np.stack([a, b], axis=1), 2)


def gen_dft_set(count: int) -> Ccm:
    """K codes of length K with entries exp(2j*pi*k*n/K), k = 0..K-1.

    Summed autocorrelations telescope: at lag t != 0 the sum over k of
    omega^(-k*t) vanishes, so the set is complementary for every K >= 2.
    """
    if not 2 <= count <= 64:
        raise ValueError(f"code count must be in 2..64, got {count}")
    grid = np.arange(count, dtype=np.int64)
    phases = np.outer(grid, grid) % count
    return Ccm.from_phases(phases, count)


def ztransform_eval(code, z: complex) -> complex:
    """Evaluate X(z) = sum_n x[n] * z^(-n) by Horner's rule in 1/z."""
    x = np.asarray(code, dtype=complex)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("code must be a non-empty 1-D array")
    zc = complex(z)
    if zc == 0:
        raise ValueError("z = 0 is outside the region of convergence")
    w = 1.0 / zc
    acc = 0j
    for v in x[::-1]:
        acc = acc * w + v
    return complex(acc)
