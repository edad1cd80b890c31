#!/usr/bin/env python3
"""Shorter transmissions with multiple antennas.

A PTM train of null order M costs K^(M+1) slots on one antenna.  An
equal-power-sums partition over fewer slots buys the same null order:
decompose_to_antennas pads its unused slots into every block, then splits
the per-slot code demand into contiguous delayed trains, one per antenna.
The summed ambiguity keeps the nulls while the schedule finishes earlier.
"""

from dopwave import compare_ptm_vs_stagger, esp_search, gen_golay_pair, taylor_coeffs
from dopwave.stagger import builtin_partition, decompose_to_antennas


def lane_picture(plan):
    rows = []
    for lane in plan.lanes:
        cells = ["."] * plan.span
        for offset, code in enumerate(lane.indices):
            cells[lane.delay + offset] = str(code)
        rows.append("".join(cells))
    return rows


def show_degree(degree):
    ccm = gen_golay_pair(3)
    part = builtin_partition(degree)
    print(f"--- degree {degree} ---")
    print("  blocks:        ", part.blocks)
    plan = decompose_to_antennas(part, ccm)
    print("  padded blocks: ", plan.partition.blocks)
    print(f"  {len(plan.lanes)} antennas (slot grid, digit = code index):")
    for row in lane_picture(plan):
        print("    ", row)
    report = taylor_coeffs(plan, degree)
    print(
        f"  composite null order {report.null_order}, span {report.span} slots, "
        f"{report.total_pulses} pulses"
    )
    ptm, staggered = compare_ptm_vs_stagger(ccm, degree)
    print(
        f"  vs single PTM train: span {ptm.span} -> {staggered.span}, "
        f"pulses {ptm.total_pulses} -> {staggered.total_pulses}"
    )
    print()


def main():
    for degree in (2, 3, 5):
        show_degree(degree)

    # Partitions are found, not guessed: exhaustively search a universe.
    print("--- search: degree-2 splits of {0,1,2,4,5,6} ---")
    for part in esp_search({0, 1, 2, 4, 5, 6}, 2, 2):
        print("  found", part.blocks, "with power sums", part.prouhet_sums)


if __name__ == "__main__":
    main()
