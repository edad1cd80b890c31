#!/usr/bin/env python3
"""Ambiguity surfaces on disk, and what the null order looks like in data.

Exports |g(k, theta)| grids to CSV and fits the log-log growth of the worst
off-peak response against theta: an order-M train climbs like theta^(M+1),
so higher orders stay flat across a much wider Doppler band.
"""

import csv
import tempfile
from pathlib import Path

import numpy as np

from dopwave import ambiguity_surface, build_ptm_train, gen_golay_pair


def fitted_slope(csv_path):
    """Recover the growth exponent from an exported surface file."""
    by_theta = {}
    with open(csv_path) as fh:
        for row in csv.DictReader(fh):
            theta = float(row["theta"])
            if int(row["k"]) == 0:
                continue
            mag = float(row["magnitude"])
            by_theta[theta] = max(by_theta.get(theta, 0.0), mag)
    thetas = np.array(sorted(t for t in by_theta if t > 0))
    peaks = np.array([by_theta[t] for t in thetas])
    slope, _ = np.polyfit(np.log(thetas), np.log(peaks), 1)
    return slope


def main():
    ccm = gen_golay_pair(3)
    with tempfile.TemporaryDirectory(prefix="dopwave_surfaces_") as tmp:
        export(ccm, Path(tmp))


def export(ccm, out_dir):
    """Write PTM surfaces into out_dir and fit each one's off-peak growth."""
    for order in (1, 2, 3):
        train = build_ptm_train(ccm, order)
        surface = ambiguity_surface(train, 1e-3, 1e-2, 101)
        path = out_dir / f"ptm_order{order}.csv"
        surface.write_csv(path)
        slope = fitted_slope(path)
        print(
            f"M={order}: L={train.total_pulses:3d}  wrote {path.name}  "
            f"fitted off-peak growth ~ theta^{slope:.2f} (expect {order + 1})"
        )

    # A broader grid for plotting tools; peak must read N*L at the origin.
    train = build_ptm_train(ccm, 2)
    wide = ambiguity_surface(train, -0.5, 0.5, 201)
    wide_path = out_dir / "ptm_order2_wide.csv"
    wide.write_csv(wide_path)
    center = (wide.thetas.size // 2, ccm.length - 1)
    print(
        f"\nwide grid {wide.magnitudes.shape} -> {wide_path.name}; "
        f"origin magnitude {wide.magnitudes[center]:.1f} "
        f"(= N*L = {ccm.length * train.total_pulses})"
    )
    print(f"CSV files under {out_dir}, removed when the demo ends")


if __name__ == "__main__":
    main()
