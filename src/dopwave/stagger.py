"""Staggered multi-antenna schedules from equal-power-sum partitions.

A degree-M ESP partition assigns transmission slots to codes; padding fills
the unused slots into every block (adding equal values to all blocks keeps
the power sums equal), and a greedy sweep decomposes the padded demand into
contiguous per-antenna pulse trains with delays.  The summed ambiguity of
the lanes inherits order-M Doppler nulls from the partition alone: the
per-slot code multiplicities are exactly the padded blocks, so the composite
coefficient c_m(k) collapses to P_m times the summed code autocorrelations
for every m <= M.

The plan is a doppler.PulseTrain of several lanes with the padded partition
attached; its file (`to_json_dict`) is a train or plan file that `dopwave
verify` and `dopwave surface` read.  The schedule is shorter than the PTM
train of equal null order whenever the partition spans fewer slots than
K^(M+1).
"""

from itertools import chain

import numpy as np

from .codes import Ccm
from .codes import code_acfs  # noqa: F401  (bench/test_bench.py traces this binding)
from .doppler import MAX_TRAIN_LENGTH, Lane, PulseTrain, TaylorReport, build_ptm_train
from .doppler import taylor_coeffs
from .numtheory import EspPartition, _power_sums, _range_power_sums

__all__ = [
    "builtin_partition",
    "pad_partition",
    "decompose_to_antennas",
    "compare_ptm_vs_stagger",
]

DEFAULT_ANTENNA_CAP = 8

# Known short two-block partitions by degree, each smaller than the PTM
# partition of equal degree.  Validated on every call.
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


def pad_partition(partition: EspPartition) -> EspPartition:
    """Fill every unused slot below the largest in use into all blocks.

    A slot missing from the union of blocks is added to each block, which
    leaves the pairwise power-sum equalities intact but makes the blocks
    overlap.  The same values join every block, so each common sum grows
    by the missing slots' power sum, derived without a pass over them: the
    range's sums less those of the used slots, p times the common sums less
    the copies of a slot beyond its first.  Padding a padded partition
    changes nothing.  More than MAX_TRAIN_LENGTH padded pulses raise
    ValueError before any slot is filled in.
    """
    used = set(chain.from_iterable(partition.blocks))
    horizon = max(used) + 1
    pulses = sum(map(len, partition.blocks)) + partition.p * (horizon - len(used))
    if pulses > MAX_TRAIN_LENGTH:
        raise ValueError(f"padded pulse count {pulses} exceeds cap {MAX_TRAIN_LENGTH}")
    if horizon == len(used):
        return partition
    counts = np.bincount(np.concatenate(partition.blocks), minlength=horizon)
    missing = tuple(np.flatnonzero(counts == 0).tolist())
    copies = np.repeat(np.arange(horizon), np.maximum(counts - 1, 0))
    del counts
    # Sorting two sorted runs merges them, and every block shares the ints.
    blocks = tuple(tuple(sorted(block + missing)) for block in partition.blocks)
    terms = zip(
        partition.prouhet_sums,
        _range_power_sums(horizon, partition.degree),
        _power_sums(copies, partition.degree),
    )
    sums = tuple(s + r - partition.p * s + c for s, r, c in terms)
    return EspPartition(blocks, partition.degree, sums)


def decompose_to_antennas(
    partition: EspPartition,
    ccm: Ccm,
    antenna_cap: int = DEFAULT_ANTENNA_CAP,
) -> PulseTrain:
    """The lanes of a greedy sweep over the slots, built in array passes.

    The partition is padded first (pad_partition), so every slot up to the
    last has demand; an already padded partition gives the same plan.  Open
    lanes must transmit every slot: when demand shrinks the oldest lanes
    close, when it grows new lanes open at the slot, and each slot's codes
    go in ascending order to the open lanes in opening order, which meets
    the per-slot multiplicity contract.  Lanes close in opening order too,
    so lane i opens where the running count of openings passes i, ends where
    that of closings does, and at slot t carries the code at place
    start[t] - closed[t] + i of the slot-sorted demand.
    """
    if len(partition.blocks) != ccm.count:
        raise ValueError(
            f"partition has {len(partition.blocks)} blocks but the set has "
            f"{ccm.count} codes"
        )
    padded = pad_partition(partition)
    delays, lengths, codes = _sweep(padded, antenna_cap)
    ends = np.cumsum(lengths)
    # Lanes repeat few code sequences (20 among the 10,262 lanes of the
    # degree-16 doubled plan), so equal ones share one tuple.
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    lanes = []
    for delay, lo, hi in zip(delays.tolist(), (ends - lengths).tolist(), ends.tolist()):
        indices = tuple(codes[lo:hi])
        lanes.append(Lane(delay, shared.setdefault(indices, indices)))
    return PulseTrain(ccm, tuple(lanes), padded)


def _sweep(padded: EspPartition, antenna_cap: int):
    """Delays and lengths of the lanes in opening order and their codes in
    one flat list; the per-slot and per-pulse arrays go on return."""
    slots = np.concatenate(padded.blocks)
    sizes = np.bincount(slots)  # padded: every slot up to the last has demand
    peak = int(sizes.max())
    if peak > antenna_cap:
        raise ValueError(f"slot demand {peak} exceeds antenna cap {antenna_cap}")
    # A stable sort by slot yields each slot's sorted code multiset in turn.
    # Padded pulses are capped at MAX_TRAIN_LENGTH, so int32 holds them.
    block_sizes = list(map(len, padded.blocks))
    labels = np.repeat(np.arange(padded.p, dtype=np.int32), block_sizes)
    demand = labels[np.argsort(slots, kind="stable")]
    del slots, labels
    steps = np.diff(sizes, prepend=0, append=0)  # at slot len(sizes) all close
    closings = np.maximum(-steps, 0)
    delays = np.repeat(np.arange(steps.size), np.maximum(steps, 0))
    lengths = np.repeat(np.arange(steps.size), closings) - delays
    # Per pulse in lane order: its slot t, then its place in the demand,
    # start[t] - closed[t] + its lane (start[t] pulses lie before slot t and
    # closed[t] lanes have closed by it).
    shift = (np.cumsum(lengths) - lengths - delays).astype(np.int32)
    place = np.arange(demand.size, dtype=np.int32) - np.repeat(shift, lengths)
    base = (np.cumsum(sizes) - sizes - np.cumsum(closings)[:-1]).astype(np.int32)
    place = base[place]
    place += np.repeat(np.arange(delays.size, dtype=np.int32), lengths)
    return delays, lengths, demand[place].tolist()


def compare_ptm_vs_stagger(
    ccm: Ccm,
    degree: int,
    partition: EspPartition | None = None,
    antenna_cap: int = DEFAULT_ANTENNA_CAP,
) -> tuple[TaylorReport, TaylorReport]:
    """The reports of the PTM train and the staggered plan of one degree.

    Returns (ptm_report, plan_report); each carries its schedule's span and
    pulse count, and both are verified to reach null order >= degree.
    Without an explicit partition it takes builtin_partition(degree), as
    `dopwave stagger` does; pass partition=ptm_partition(K, degree) for the
    PTM split.  Unless the set is binary or quaternary (decided exactly),
    both are cross-checked in z, and a disagreement raises DomainMismatchError.
    """
    if partition is None:
        partition = builtin_partition(degree)
    if partition.degree < degree:
        raise ValueError("partition degree is below the requested degree")

    plan = decompose_to_antennas(partition, ccm, antenna_cap)
    ptm_report = taylor_coeffs(build_ptm_train(ccm, degree), degree)
    plan_report = taylor_coeffs(plan, degree)
    if ptm_report.null_order < degree or plan_report.null_order < degree:
        raise ValueError(
            "schedule failed to reach the requested null order: "
            f"ptm={ptm_report.null_order}, stagger={plan_report.null_order}"
        )
    return ptm_report, plan_report
