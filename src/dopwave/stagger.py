"""Staggered multi-antenna schedules from equal-power-sum partitions.

A degree-M ESP partition assigns transmission slots to codes; padding fills
the unused slots into every block (adding equal values to all blocks keeps
the power sums equal), and a greedy sweep decomposes the padded demand into
contiguous per-antenna pulse trains with delays.  The summed ambiguity of
the lanes inherits order-M Doppler nulls from the partition alone: the
per-slot code multiplicities are exactly the padded blocks, so the composite
coefficient c_m(k) collapses to P_m times the summed code autocorrelations
for every m <= M.

The schedule is shorter than the PTM train of equal null order whenever the
partition spans fewer slots than K^(M+1).
"""

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .codes import Ccm
from .codes import code_acfs  # noqa: F401  (bench/test_bench.py traces this binding)
from .doppler import NULL_TOL, TaylorReport, build_ptm_train, taylor_coeffs
from .numtheory import EspPartition, _json_ints, _power_sums, ptm_partition

__all__ = [
    "Lane",
    "StaggerPlan",
    "CompositeReport",
    "ScheduleComparison",
    "builtin_partition",
    "pad_partition",
    "decompose_to_antennas",
    "composite_taylor",
    "compare_ptm_vs_stagger",
]

DEFAULT_ANTENNA_CAP = 8

# Known short two-block partitions by degree, each smaller than the PTM
# partition of equal degree.  Validated on first use.
_BUILTIN_BLOCKS = {
    2: ((0, 4, 5), (1, 2, 6)),
    3: ((0, 4, 7, 11), (1, 2, 9, 10)),
    5: ((0, 5, 6, 16, 17, 22), (1, 2, 10, 12, 20, 21)),
}


def builtin_partition(degree: int) -> EspPartition:
    """Built-in two-block ESP partition for degree 2, 3 or 5."""
    if degree not in _BUILTIN_BLOCKS:
        raise KeyError(f"no built-in partition of degree {degree}")
    return EspPartition.from_blocks(_BUILTIN_BLOCKS[degree], degree)


@dataclass(frozen=True)
class Lane:
    """One antenna's contiguous transmission: code indices from slot `delay`."""

    delay: int
    indices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.indices)

    @property
    def last_slot(self) -> int:
        return self.delay + self.length - 1


@dataclass(frozen=True)
class StaggerPlan:
    """Per-antenna lanes realizing a padded ESP partition's slot demand.

    At every slot t the number of lanes transmitting code c equals the
    multiplicity of t in padded block c; each lane is contiguous.
    """

    ccm: Ccm
    horizon: int
    degree: int
    lanes: tuple[Lane, ...]
    partition: EspPartition

    @property
    def last_slot(self) -> int:
        return max(l.last_slot for l in self.lanes)

    @property
    def span(self) -> int:
        """Slots from the first transmitted pulse to the last, inclusive."""
        return self.last_slot + 1 - min(l.delay for l in self.lanes)

    @property
    def total_pulses(self) -> int:
        return sum(l.length for l in self.lanes)

    def slots_by_code(self) -> list[list[int]]:
        """Slot of every transmitted pulse, grouped by code index."""
        slots: list[list[int]] = [[] for _ in range(self.ccm.count)]
        for lane in self.lanes:
            for offset, code in enumerate(lane.indices):
                slots[code].append(lane.delay + offset)
        return slots

    def to_json_dict(self) -> dict:
        return {
            "D": self.horizon,
            "M": self.degree,
            "lanes": [
                {"delay": l.delay, "indices": list(l.indices)} for l in self.lanes
            ],
            "partition": self.partition.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, data: dict, ccm: Ccm) -> "StaggerPlan":
        """Read a plan file, refusing one whose lanes do not realise its blocks.

        Every lane needs a non-negative delay, at least one pulse and code
        indices of the set; M must be the partition degree and D one past
        its last slot.
        """
        lanes = data["lanes"]
        lane_ints = ([l["delay"], *l["indices"]] for l in lanes)
        _json_ints(chain([data["D"], data["M"]], *lane_ints), "D, M and lanes")
        partition = EspPartition.from_json_dict(data["partition"])
        plan = cls(
            ccm,
            data["D"],
            data["M"],
            tuple(Lane(l["delay"], tuple(l["indices"])) for l in lanes),
            partition,
        )
        if not plan.lanes:
            raise ValueError("a plan needs at least one lane")
        if any(l.delay < 0 or not l.indices for l in plan.lanes):
            raise ValueError("every lane needs a non-negative delay and a pulse")
        if any(not 0 <= c < ccm.count for l in plan.lanes for c in l.indices):
            raise ValueError("every lane index must address a code of the set")
        if plan.degree != partition.degree:
            raise ValueError(f"M={plan.degree} is not the partition degree")
        if plan.horizon != max(max(b) for b in partition.blocks) + 1:
            raise ValueError(f"D={plan.horizon} is not one past the last slot")
        slots = plan.slots_by_code()
        if [sorted(s) for s in slots] != [list(b) for b in partition.blocks]:
            raise ValueError("lanes do not realise the partition's blocks")
        return plan


def pad_partition(partition: EspPartition) -> EspPartition:
    """Fill every unused slot below the largest in use into all blocks.

    A slot missing from the union of blocks is added to each block, which
    leaves the pairwise power-sum equalities intact but makes the blocks
    overlap.  The same values join every block, so each common sum grows
    by the missing slots' power sum; the padded sums are derived from the
    partition's, not summed again.  Padding a padded partition changes
    nothing.
    """
    used = set(chain.from_iterable(partition.blocks))
    missing = sorted(set(range(max(used) + 1)) - used)
    blocks = tuple(tuple(sorted(block + tuple(missing))) for block in partition.blocks)
    sums = map(sum, zip(partition.prouhet_sums, _power_sums(missing, partition.degree)))
    return EspPartition(blocks, partition.degree, tuple(sums))


def decompose_to_antennas(
    partition: EspPartition,
    ccm: Ccm,
    antenna_cap: int = DEFAULT_ANTENNA_CAP,
) -> StaggerPlan:
    """Greedy sweep turning per-slot code demand into contiguous lanes.

    The partition is padded first (pad_partition), so every slot up to the
    last has demand; an already padded partition gives the same plan.
    Walking the slots in order: open lanes must transmit every slot, so when
    demand shrinks the oldest lanes close (their trains end), and when it
    grows new lanes open at the current slot.  Demand codes are assigned to
    open lanes in ascending code order against lane opening order, which
    makes the whole construction deterministic.  The result satisfies the
    per-slot multiplicity contract by construction.
    """
    if len(partition.blocks) != ccm.count:
        raise ValueError(
            f"partition has {len(partition.blocks)} blocks but the set has "
            f"{ccm.count} codes"
        )
    padded = pad_partition(partition)
    horizon = max(max(b) for b in padded.blocks) + 1
    # Every pulse's slot and code; a stable sort by slot yields each slot's
    # sorted code multiset in turn, and sizes[t] is the demand at slot t.
    slots = np.concatenate(padded.blocks)
    labels = np.repeat(np.arange(ccm.count), [len(b) for b in padded.blocks])
    demand = iter(labels[np.argsort(slots, kind="stable")].tolist())
    sizes = np.bincount(slots, minlength=horizon)
    peak = int(sizes.max())
    if peak > antenna_cap:
        raise ValueError(f"slot demand {peak} exceeds antenna cap {antenna_cap}")

    open_lanes: list[tuple[int, list[int]]] = []  # (delay, codes) in opening order
    finished: list[tuple[int, list[int]]] = []
    for slot, size in enumerate(sizes.tolist()):
        while len(open_lanes) > size:
            finished.append(open_lanes.pop(0))
        while len(open_lanes) < size:
            open_lanes.append((slot, []))
        for _, codes in open_lanes:
            codes.append(next(demand))
    finished.extend(open_lanes)
    finished.sort(key=lambda lane: lane[0])
    lanes = tuple(Lane(delay, tuple(codes)) for delay, codes in finished)
    return StaggerPlan(ccm, horizon, padded.degree, lanes, padded)


# A plan's report is the one TaylorReport; this second name stays importable.
CompositeReport = TaylorReport


def composite_taylor(
    plan: StaggerPlan, max_order: int, tol: float = NULL_TOL
) -> TaylorReport:
    """Taylor coefficients of the summed lane ambiguities.

    Lane j's pulse at position n carries weight (n + delay_j)^m, so grouping
    by code gives c_m(k) = sum_c W_c(m) * ACF_c(k) with exact integer
    W_c(m); for m up to the partition degree the W_c coincide and the
    off-peak coefficients collapse to complementary-sum residuals.  This is
    taylor_coeffs(plan, ...), whose report carries the plan's pulse count
    and span; it raises DomainMismatchError when the two domains disagree
    at some order.
    """
    # Not an alias: bench/tracer.py names each function object once, so an
    # alias would file every taylor_coeffs call under this name.
    return taylor_coeffs(plan, max_order, tol)


@dataclass(frozen=True)
class ScheduleComparison:
    """Side-by-side costs of the PTM train and the staggered schedule."""

    degree: int
    ptm_span: int
    ptm_pulses: int
    ptm_null_order: int
    stagger_span: int
    stagger_pulses: int
    stagger_null_order: int

    def to_json_dict(self) -> dict:
        return {
            "M": self.degree,
            "ptm": {"span": self.ptm_span, "pulses": self.ptm_pulses},
            "stagger": {"span": self.stagger_span, "pulses": self.stagger_pulses},
            "nullOrders": {
                "ptm": self.ptm_null_order,
                "stagger": self.stagger_null_order,
            },
        }


def compare_ptm_vs_stagger(
    ccm: Ccm,
    degree: int,
    partition: EspPartition | None = None,
    antenna_cap: int = DEFAULT_ANTENNA_CAP,
) -> ScheduleComparison:
    """Measure what staggering buys over the single PTM train.

    Both schedules are built and verified to reach null order >= degree; the
    comparison reports their spans and pulse counts.  Without an explicit
    partition, the built-in table covers degrees 2/3/5 for two codes and the
    PTM partition covers every other case.  Both reports are cross-checked
    in the z domain, so a disagreement raises DomainMismatchError.
    """
    if partition is None:
        if ccm.count == 2 and degree in _BUILTIN_BLOCKS:
            partition = builtin_partition(degree)
        else:
            # The PTM split itself, correct for any K: no partition of its
            # slot range is shorter, so searching that range gains nothing.
            partition = ptm_partition(ccm.count, degree)
    if len(partition.blocks) != ccm.count:
        raise ValueError("partition block count must match the code count")
    if partition.degree < degree:
        raise ValueError("partition degree is below the requested degree")

    train = build_ptm_train(ccm, degree)
    ptm_report = taylor_coeffs(train, degree)

    plan = decompose_to_antennas(partition, ccm, antenna_cap)
    stagger_report = composite_taylor(plan, degree)

    if ptm_report.null_order < degree or stagger_report.null_order < degree:
        raise ValueError(
            "schedule failed to reach the requested null order: "
            f"ptm={ptm_report.null_order}, stagger={stagger_report.null_order}"
        )
    return ScheduleComparison(
        degree,
        ptm_report.span,
        ptm_report.total_pulses,
        ptm_report.null_order,
        stagger_report.span,
        stagger_report.total_pulses,
        stagger_report.null_order,
    )

