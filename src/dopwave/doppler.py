"""Pulse trains and their delay-Doppler behaviour.

A pulse train transmits one code of a complementary set per slot of each of
its lanes: a train is one lane, a staggered plan several.  A train's
ambiguity function is

    g(k, theta) = sum_n ACF_{x_n}(k) * exp(1j*(n+d)*theta)

over delay lag k and per-pulse Doppler phase theta, with d the lane delay
in whole pulses; a plan's is the sum over its lanes.  Expanding about
theta = 0 gives Taylor coefficients

    c_m(k) = sum_n (n+d)^m * ACF_{x_n}(k)

and, in the z-domain, C_m(z) = sum_n (n+d)^m * |X_n(z)|^2.  PTM-ordered
trains of length K^(M+1) drive c_m(k) to zero at every non-zero lag for all
m <= M, which is what the null-order report measures.  Every path reads a
schedule through its slots grouped per code, an int64 array per code
(`slots_by_code()`): g = sum_c S_c(theta) * ACF_c(k) with S_c(theta) = sum
of exp(1j*theta*s) over code c's slots, and the coefficients use exact
integer weights W_c(m) = sum of s^m, made as Python ints in numtheory;
numerical differentiation of g is never used here.
"""

import json
import math
import operator
import struct
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat

import numpy as np

from .codes import Ccm, code_acfs
from .codes import acf as _acf  # noqa: F401  (bench/test_bench.py traces this binding)
from .numtheory import EspPartition, _capped_power, _json_ints, _power_sums
from .numtheory import _ptm_array, _ptm_weights, _range_power_sums

__all__ = [
    "Lane",
    "PulseTrain",
    "TaylorReport",
    "AmbiguitySurface",
    "DomainMismatchError",
    "build_ptm_train",
    "build_cyclic_train",
    "code_acfs",
    "ambiguity",
    "taylor_coeffs",
    "zdomain_samples",
    "ambiguity_surface",
]

# Trains and plans of more pulses than this are refused outright.
MAX_TRAIN_LENGTH = 1 << 20

# Taylor orders above this cap are almost certainly a unit error upstream.
MAX_TAYLOR_ORDER = 32

# Phase factors exp(1j*theta*s) held at once (at least one theta row).
PHASE_BLOCK = 1 << 18

# Surfaces over theta_steps * max(L, 2N-1) cells are refused up front.
MAX_SURFACE_CELLS = 1 << 24

# Scale-aware null test: coefficient m "vanishes" when its worst off-peak
# magnitude is at most NULL_TOL * N * max(1, last_slot)^m.  Raw weights grow
# like slot^m, so a flat tolerance would misjudge high orders.
NULL_TOL = 1e-9


class DomainMismatchError(RuntimeError):
    """Delay-domain and z-domain null verdicts disagree for some order.

    The two tests measure the same property, so disagreement means a broken
    computation (or a deliberately borderline input) and is never silently
    swallowed.
    """

    def __init__(self, order, time_residual, z_deviation):
        super().__init__(
            f"order-{order} null verdicts disagree: delay-domain residual "
            f"{time_residual:.3e}, z-domain deviation {z_deviation:.3e}"
        )
        self.order = order
        self.time_residual = time_residual
        self.z_deviation = z_deviation


@dataclass(frozen=True, slots=True)
class Lane:
    """One antenna's contiguous transmission: code indices from slot `delay`."""

    delay: int
    indices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class PulseTrain:
    """Pulses of one code set on slots, as lanes of contiguous code indices.

    A train is one lane and has no partition.  A staggered plan
    (stagger.decompose_to_antennas) carries the padded ESP partition its
    lanes realise: at every slot t the number of lanes transmitting code c
    equals the multiplicity of t in padded block c.
    """

    ccm: Ccm
    lanes: tuple[Lane, ...]
    partition: EspPartition | None = None

    def __post_init__(self):
        lanes = tuple(self.lanes)
        if not lanes:
            raise ValueError("a train needs at least one lane")
        if len(lanes) > 1 and self.partition is None:
            raise ValueError("lanes beyond the first need their partition")
        try:
            delays = [operator.index(l.delay) for l in lanes]
        except TypeError:
            raise ValueError("delay must be an integer") from None
        # Keeps slots int64 and every weight W_c(32) a finite float.
        if not 0 <= min(delays) <= max(delays) <= MAX_TRAIN_LENGTH:
            raise ValueError(f"delay must be in 0..{MAX_TRAIN_LENGTH}")
        lengths = [len(l.indices) for l in lanes]
        if not min(lengths):
            raise ValueError("every lane must contain at least one pulse")
        if sum(lengths) > MAX_TRAIN_LENGTH:
            raise ValueError(f"train length {sum(lengths)} exceeds cap {MAX_TRAIN_LENGTH}")
        # Every lane's codes in one array pass, each shared tuple once (a
        # degree-16 plan's 10,241 lanes share 14); a train's become one tuple.
        if len(lanes) == 1:
            idx = np.asarray(lanes[0].indices)
        else:
            distinct = {id(l.indices): l.indices for l in lanes}.values()
            idx = np.asarray(list(chain.from_iterable(distinct)))
        not_ints = idx.ndim != 1 or idx.dtype.kind not in "iu"
        if not_ints or idx.min() < 0 or idx.max() >= self.ccm.count:
            raise ValueError("every index must be an integer code of the set")
        if len(lanes) == 1:
            lanes = (Lane(delays[0], tuple(idx.tolist())),)
        object.__setattr__(self, "lanes", lanes)

    @cached_property
    def last_slot(self) -> int:
        return max(l.delay + len(l.indices) for l in self.lanes) - 1

    @property
    def span(self) -> int:
        """Slots from the first transmitted pulse to the last, inclusive."""
        return self.last_slot + 1 - min(l.delay for l in self.lanes)

    @property
    def total_pulses(self) -> int:
        return sum(len(l.indices) for l in self.lanes)

    def slots_by_code(self) -> list[np.ndarray]:
        """Slot of every pulse as int64 arrays, one per code index; each
        code's in lane order, then by offset."""
        lanes = self.lanes
        lengths = np.fromiter((len(l.indices) for l in lanes), np.int64, len(lanes))
        ends = np.cumsum(lengths)
        # A pulse's slot is its place among all pulses plus its lane's shift.
        shifts = np.fromiter((l.delay for l in lanes), np.int64, len(lanes))
        shifts -= ends - lengths
        pulses = chain.from_iterable(l.indices for l in lanes)
        codes = np.fromiter(pulses, np.min_scalar_type(self.ccm.count - 1), int(ends[-1]))
        slots = [np.flatnonzero(codes == c) for c in range(self.ccm.count)]
        del codes  # the per-pulse array goes before any caller's pass
        for places in slots:  # each lane's shift, repeated for its share of places
            places += np.repeat(shifts, np.diff(np.searchsorted(places, ends), prepend=0))
        return slots

    def is_ptm_ordered(self) -> bool:
        """True for one lane at delay 0 whose slot n carries code
        digit_sum_mod(n, K).

        A one-code set has no PTM sequence, so its trains are not ordered.
        """
        count, indices = self.ccm.count, self.lanes[0].indices
        if len(self.lanes) > 1 or self.lanes[0].delay != 0 or count < 2:
            return False
        return np.array_equal(indices, _ptm_array(count, len(indices)))

    def to_json_dict(self) -> dict:
        """A train's {ccm, indices, delay} or a plan's {ccm, D, M, lanes, partition}."""
        ccm = self.ccm.to_json_dict()
        if self.partition is None:
            (lane,) = self.lanes
            return {"ccm": ccm, "indices": list(lane.indices), "delay": lane.delay}
        return {
            "ccm": ccm,
            "D": max(b[-1] for b in self.partition.blocks) + 1,  # blocks are sorted
            "M": self.partition.degree,
            "lanes": [{"delay": l.delay, "indices": list(l.indices)} for l in self.lanes],
            "partition": self.partition.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PulseTrain":
        """Read a train file or, when it has "lanes", a plan file.

        A plan is refused unless M is its partition's degree, D is one past
        the partition's last slot and the lanes realise the blocks.
        """
        ccm = Ccm.from_json_dict(data["ccm"])
        if "lanes" not in data:
            indices, delay = data["indices"], data.get("delay", 0)
            _json_ints(chain(indices, [delay]), "indices and delay")
            return cls(ccm, (Lane(delay, indices),))  # __post_init__ makes the tuple
        lanes = data["lanes"]
        lane_ints = ([l["delay"], *l["indices"]] for l in lanes)
        _json_ints(chain([data["D"], data["M"]], *lane_ints), "D, M and lanes")
        partition = _partition_from_json(data["partition"])
        lanes = tuple(Lane(l["delay"], tuple(l["indices"])) for l in lanes)
        plan = cls(ccm, lanes, partition)
        if data["M"] != partition.degree:
            raise ValueError(f"M={data['M']} is not the partition degree")
        if data["D"] != max(b[-1] for b in partition.blocks) + 1:
            raise ValueError(f"D={data['D']} is not one past the last slot")
        slots = plan.slots_by_code()
        realised = map(np.array_equal, map(np.sort, slots), partition.blocks)
        if len(slots) != partition.p or not all(realised):
            raise ValueError("lanes do not realise the partition's blocks")
        return plan


def _partition_from_json(data) -> EspPartition:
    """EspPartition.from_json_dict, refusing a degree above MAX_TAYLOR_ORDER
    (no higher order is ever verified) before any power sum."""
    degree = data.get("M") if isinstance(data, dict) else None
    if isinstance(degree, int) and degree > MAX_TAYLOR_ORDER:
        raise ValueError(f"degree must be at most {MAX_TAYLOR_ORDER}, got {degree}")
    return EspPartition.from_json_dict(data)


def build_ptm_train(ccm: Ccm, order: int) -> PulseTrain:
    """PTM-ordered train of length K^(order+1) over the given code set.

    Slot n transmits code digit_sum_mod(n, K); the construction nulls the
    ambiguity Taylor coefficients through the requested order at all
    non-zero lags.
    """
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    length = _capped_power(ccm.count, order + 1, MAX_TRAIN_LENGTH, "train length")
    return PulseTrain(ccm, (Lane(0, _ptm_array(ccm.count, length)),))


def build_cyclic_train(ccm: Ccm, length: int) -> PulseTrain:
    """Control train cycling codes in fixed order 0,1,...,K-1,0,1,...

    Uses each code equally often (when K divides the length) but pays no
    attention to power sums, so its first-order coefficient already fails to
    vanish; useful as the non-PTM baseline.
    """
    if length < 1:
        raise ValueError(f"length must be positive, got {length}")
    return PulseTrain(ccm, (Lane(0, np.arange(length) % ccm.count),))


def _exact_weights(schedule, max_order: int) -> list[list[int]]:
    """Exact integer weights W_c(m) = sum(slot^m) over code c's slots.

    Row m, column c, m = 0..max_order.  A PTM-ordered schedule (one lane
    at delay 0) of L = K^J pulses takes the digit DP (_ptm_weights) unless
    its J*K^2 row shifts outnumber the L pulses; every other schedule takes
    one pass per code, all orders at once (_code_weights).
    """
    if not 0 <= max_order <= MAX_TAYLOR_ORDER:
        raise ValueError(f"max_order must be in 0..{MAX_TAYLOR_ORDER}")
    if schedule.is_ptm_ordered():
        count, pulses = schedule.ccm.count, schedule.total_pulses
        levels = round(math.log(pulses, count))
        if count**levels == pulses >= levels * count * count:
            return _ptm_weights(count, levels, max_order)
    sums = [_code_weights(slots, max_order) for slots in schedule.slots_by_code()]
    return [list(row) for row in zip(*sums)]


def _code_weights(slots: np.ndarray, max_order: int) -> list[int]:
    """sum(slot^m) over one code's slots, m = 0..max_order.

    A code that fills more than half of range(last + 1), no slot twice,
    takes the range's sums less those of its empty slots; any other code
    sums its own slots.
    """
    last = int(slots.max(initial=-1))
    if 2 * slots.size > last + 1:  # bounds the counts by twice the slots
        counts = np.bincount(slots)
        if counts.max() == 1:
            empty = np.flatnonzero(counts == 0)
            del counts
            sums = _range_power_sums(last + 1, max_order)
            return list(map(operator.sub, sums, _power_sums(empty, max_order)))
    return _power_sums(slots, max_order)


def _slot_phase_sums(schedule, thetas: np.ndarray) -> np.ndarray:
    """S_c(theta) = sum of exp(1j*theta*s) over code c's slots, shape (T, K).

    Blocks hold at most PHASE_BLOCK phase factors per code: theta rows of
    all its slots, or one row of a slice of them.  ValueError when
    max|theta| times the last slot is not a finite float.
    """
    last = schedule.last_slot
    bound = float(np.abs(thetas).max(initial=0.0))
    if not math.isfinite(bound * last):  # Python floats overflow without a warning
        raise ValueError(f"|theta| {bound:g} times last slot {last} is not finite")
    sums = np.zeros((thetas.size, schedule.ccm.count), dtype=complex)
    for c, slots in enumerate(schedule.slots_by_code()):
        rows = max(1, PHASE_BLOCK // max(1, slots.size))
        for start in range(0, slots.size, PHASE_BLOCK):
            part = 1j * slots[start : start + PHASE_BLOCK]
            for lo in range(0, thetas.size, rows):
                phase = np.outer(thetas[lo : lo + rows], part)
                sums[lo : lo + rows, c] += np.exp(phase, out=phase).sum(axis=1)
    return sums


def ambiguity(train: PulseTrain, lag: int, theta: float) -> complex:
    """Single ambiguity sample g(lag, theta)."""
    n = train.ccm.length
    if abs(lag) > n - 1:
        raise ValueError(f"lag {lag} out of range for length-{n} codes")
    sums = _slot_phase_sums(train, np.array([float(theta)]))[0]
    return complex(sums @ code_acfs(train.ccm)[n - 1 + lag, :])


class _Texts(dict):
    """The text `formatter` gives each key, made once on first use.

    Keys are float64 bit patterns as ints (or pairs of them), so -0.0, NaN
    and +-inf read exactly as they do formatted one by one.
    """

    def __init__(self, formatter):
        super().__init__()
        self.formatter = formatter

    def __missing__(self, bits):
        text = self[bits] = self.formatter(bits)
        return text


def _pair_json(bits) -> str:  # json.dumps([re, im]) of a complex128
    return json.dumps(struct.unpack("=2d", struct.pack("=2q", *bits)))


def _magnitude_line(bits: int) -> str:  # a CSV magnitude field and newline
    return "%.17g\n" % struct.unpack("=d", struct.pack("=q", bits))


# Stands in for the coefficients in the JSON of the other report fields; no
# other value of a report is a string, so its JSON text occurs once.
_SPLICE = "\0"


@dataclass(frozen=True)
class TaylorReport:
    """Ambiguity Taylor coefficients and the null order they certify.

    weights[m][c] is code c's exact weight W_c(m) and acfs the code set's
    shared ACF table; coeffs[m] = acfs @ weights[m], formed on each access,
    is c_m over all lags (lag k at column N-1+k).  max_sidelobe_residual[m]
    is the worst off-peak |c_m|, and null_order the largest m with every
    c_0..c_m within its threshold.  z_deviations[m] is the spread
    max_z |C_m(z) - mean| on the 2N grid and z_residuals[m]
    max_z |C_m(z) - N*K*W_0(m)| / max(1, N*K*W_0(m)); neither goes to JSON.
    total_pulses counts the schedule's pulses, span its first to last slot.
    """

    max_order: int
    weights: list[list[int]]
    acfs: np.ndarray
    max_sidelobe_residual: np.ndarray
    thresholds: np.ndarray
    null_order: int
    z_deviations: np.ndarray
    z_residuals: np.ndarray
    total_pulses: int
    span: int

    @property
    def coeffs(self) -> np.ndarray:
        return np.array([_coeff_row(self.acfs, row) for row in self.weights])

    def to_json_dict(self) -> dict:
        return self._json_dict(self.coeffs[..., None].view(float).tolist())  # [re, im]

    def _json_dict(self, coeffs) -> dict:
        """The JSON fields in file order, with `coeffs` as the coeffs value."""
        return {
            "M": self.max_order,
            "lags": list(range(-(len(self.acfs) // 2), len(self.acfs) // 2 + 1)),
            "coeffs": coeffs,
            "maxSidelobeResidual": self.max_sidelobe_residual.tolist(),
            "thresholds": self.thresholds.tolist(),
            "nullOrder": self.null_order,
            "totalPulses": self.total_pulses,
            "span": self.span,
        }

    def write_json(self, path) -> None:
        """Write json.dumps(self.to_json_dict()) + "\\n" to path.

        Each order's row is formed as it is written, in slices of at most
        PHASE_BLOCK values, each distinct value formatted once per slice as
        json.dumps([re, im]); the other fields are one json.dumps around it.
        """
        fields = json.dumps(self._json_dict(_SPLICE))
        head, _, tail = fields.partition(json.dumps(_SPLICE))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(head + "[")
            for m, weights in enumerate(self.weights):
                fh.write(", [" if m else "[")
                row = _coeff_row(self.acfs, weights)
                for lo in range(0, row.size, PHASE_BLOCK):
                    if lo:
                        fh.write(", ")
                    texts = _Texts(_pair_json)
                    bits = iter(row[lo : lo + PHASE_BLOCK].view(np.int64).tolist())
                    fh.write(", ".join(map(texts.__getitem__, zip(bits, bits))))
                fh.write("]")
            fh.write("]" + tail + "\n")


def taylor_coeffs(schedule, max_order: int, tol: float = NULL_TOL) -> TaylorReport:
    """Taylor coefficients c_0..c_max_order of a train or staggered plan.

    The one path from a schedule to a report; thresholds use its last slot.
    Each order takes one pass: its coefficients, formed and dropped, give
    the off-peak residual, and its C_m(z) samples on the code set's 2N grid
    (`ccm.spectra`) go with it through _order_check, raising
    DomainMismatchError when the two domains disagree.  The null order is
    the last of the leading delay-domain nulls; a NaN residual is no null.
    """
    ccm = schedule.ccm
    weights = _exact_weights(schedule, max_order)
    code_length = ccm.length
    acfs = code_acfs(ccm)
    base = float(max(1, schedule.last_slot))
    thresholds = tol * code_length * base ** np.arange(max_order + 1)

    residuals, z_deviations, z_residuals = np.empty((3, max_order + 1))
    for m, row in enumerate(weights):
        # The worst off-peak magnitude; N = 1 has no off-peak lag.
        off_peak = np.delete(np.abs(_coeff_row(acfs, row)), code_length - 1)
        residuals[m] = residual = float(off_peak.max(initial=0.0))
        samples = _zsamples(ccm.spectra, row)
        z_deviations[m] = _order_check(m, residual, thresholds[m], samples, code_length)
        target = code_length * ccm.count * row[0]
        z_residuals[m] = np.max(np.abs(samples - target)) / max(1.0, target)
    nulls = (residuals <= thresholds).tolist()
    null_order = (nulls + [False]).index(False) - 1
    return TaylorReport(
        max_order, weights, acfs, residuals, thresholds, null_order,
        z_deviations, z_residuals, schedule.total_pulses, schedule.span,
    )


# One matrix-vector product per order, for c_m as for C_m(z): a single product
# over all orders rounds differently and shifts the printed residuals.
def _coeff_row(acfs: np.ndarray, weights_m: list[int]) -> np.ndarray:
    return acfs @ np.array(weights_m, dtype=float)


def _zsamples(spectra: np.ndarray, weights_m: list[int]) -> np.ndarray:
    return spectra @ np.array(weights_m, dtype=float)


def zdomain_samples(schedule, order: int) -> np.ndarray:
    """C_m(z) = sum_c W_c(m) |X_c(z)|^2 at the 2N points exp(1j*pi*j/N).

    Real-valued; 2N samples hold C_m's 2N-1 coefficients without alias.  Any
    train or staggered plan works: its weights come from _exact_weights, so
    these are the samples taylor_coeffs cross-checks at order m.  A PTM
    train or an ESP plan makes them constant in z up to its order.
    """
    return _zsamples(schedule.ccm.spectra, _exact_weights(schedule, order)[order])


def _order_check(
    order: int,
    time_residual: float,
    threshold: float,
    samples: np.ndarray,
    code_length: int,
) -> float:
    """Both order-m verdicts from the off-peak residual and C_m(z) samples.

    Returns the z deviation (the samples' spread).  A NaN residual or sample
    fails its test.  Raises DomainMismatchError when the verdicts disagree.
    """
    time_null = time_residual <= threshold
    z_dev = float(np.max(np.abs(samples - samples.mean())))
    # The deviation polynomial has 2(N-1) coefficient terms of size |c_m(k)|.
    z_constant = z_dev <= 2 * max(1, code_length - 1) * threshold

    if time_null != z_constant:
        raise DomainMismatchError(order, time_residual, z_dev)
    return z_dev


@dataclass(frozen=True)
class AmbiguitySurface:
    """|g(k, theta)| sampled on a dense delay-Doppler grid.

    magnitudes[t, j] is the response at thetas[t], lags[j]; rows scan theta,
    columns scan lag, matching the CSV export order.
    """

    thetas: np.ndarray
    lags: np.ndarray
    magnitudes: np.ndarray
    description: str = ""

    def sidelobe_peaks(self) -> np.ndarray:
        """Worst off-peak magnitude at each theta sample."""
        center = (self.lags.size - 1) // 2
        return np.delete(self.magnitudes, center, axis=1).max(axis=1, initial=0.0)

    def write_csv(self, path) -> None:
        """Rows theta-major: header theta,k,magnitude; theta to 12 digits.

        Cells go in blocks of at most PHASE_BLOCK: whole rows when a row
        fits, else one slice of a row.  Each distinct magnitude of a block
        is formatted once with %.17g (_Texts, so the bytes are a per-cell
        formatter's) and each row is joined from those texts; the cost
        follows the distinct values per block more than the cells.  A
        slice's lag fields are kept until the next slice starts elsewhere.
        """
        rows = max(1, PHASE_BLOCK // self.lags.size)
        thetas = self.thetas.tolist()
        bits = np.asarray(self.magnitudes, dtype=float).view(np.int64)
        start, lag_fields = None, []
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("theta,k,magnitude\n")
            for top in range(0, len(thetas), rows):
                for lo in range(0, self.lags.size, PHASE_BLOCK):
                    hi = lo + PHASE_BLOCK
                    if lo != start:
                        start = lo
                        lag_fields = [f",{k}," for k in self.lags[lo:hi].tolist()]
                    texts = _Texts(_magnitude_line)
                    block = bits[top : top + rows, lo:hi]
                    for theta, row in zip(thetas[top : top + rows], block):
                        line = map(texts.__getitem__, row.tolist())
                        cells = zip(repeat(f"{theta:.12g}"), lag_fields, line)
                        fh.write("".join(chain.from_iterable(cells)))


def ambiguity_surface(
    schedule, theta_min: float, theta_max: float, theta_steps: int
) -> AmbiguitySurface:
    """Sample |g| over every lag and a uniform theta interval.

    Any schedule works, a train or a staggered plan.  The grid is a direct
    sum of the defining series, never Taylor data, so surfaces remain an
    independent view of the schedule.  Grouped by code, it is |S @ ACF^T| with S from
    _slot_phase_sums, filled into the magnitudes in theta blocks of at most
    PHASE_BLOCK cells.  More than MAX_SURFACE_CELLS theta_steps *
    max(pulses, 2N-1) cells raise ValueError before allocating.  The
    description names the pulse count L and the least lane delay.
    """
    if theta_steps < 2:
        raise ValueError(f"need at least 2 theta steps, got {theta_steps}")
    if not math.isfinite(theta_max - theta_min):  # also refuses inf/NaN bounds
        raise ValueError("theta bounds and their difference must be finite")
    ccm, pulses = schedule.ccm, schedule.total_pulses
    n = ccm.length
    cells = theta_steps * max(pulses, 2 * n - 1)
    if cells > MAX_SURFACE_CELLS:
        raise ValueError(f"surface needs {cells} cells, cap {MAX_SURFACE_CELLS}")
    thetas = np.linspace(theta_min, theta_max, theta_steps)
    sums = _slot_phase_sums(schedule, thetas)
    acfs = code_acfs(ccm).T
    magnitudes = np.empty((theta_steps, 2 * n - 1))
    rows = max(1, PHASE_BLOCK // (2 * n - 1))
    for lo in range(0, theta_steps, rows):
        np.abs(sums[lo : lo + rows] @ acfs, out=magnitudes[lo : lo + rows])
    first = min(l.delay for l in schedule.lanes)
    description = f"L={pulses} K={ccm.count} N={n} delay={first}"
    return AmbiguitySurface(thetas, np.arange(1 - n, n), magnitudes, description)
