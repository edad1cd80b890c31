#!/usr/bin/env python3
"""Two views of the same null: delay domain and z domain.

An order-m ambiguity coefficient vanishes at all non-zero delays exactly
when the z-domain coefficient C_m(z) = sum_n n^m |X_n(z)|^2 is constant in
z; for a PTM train its value is the closed form N * K * P_m, with P_m the
common block power sum.  One Taylor report carries both views of every
order: its delay residual, z deviation and relative spread.  This binary
pair's nulls are decided exactly; a DFT-3 or column-stored set is decided in
both domains and raises DomainMismatchError should the two verdicts disagree.
"""

import numpy as np

from dopwave import (
    build_cyclic_train,
    build_ptm_train,
    gen_golay_pair,
    power_sum,
    ptm_partition,
    taylor_coeffs,
)
from dopwave.doppler import zdomain_samples


def main():
    pair = gen_golay_pair(3)
    train = build_ptm_train(pair, 3)
    n, k = pair.length, pair.count

    print("--- PTM train, z-domain constants ---")
    residuals = taylor_coeffs(train, 3).z_residuals
    part = ptm_partition(k, 3)
    for m in range(4):
        target = n * k * power_sum(part.blocks[0], m)
        print(f"  m={m}: C_m(z) = {target} with relative spread {residuals[m]:.2e}")

    print("\n--- sampled C_1(z) for the cyclic control ---")
    cyclic = build_cyclic_train(pair, 16)
    samples = zdomain_samples(cyclic, 1)
    print(f"  C_1 at the 2N = {2 * n} grid points:", np.round(samples, 2))
    print("  spread:", f"{samples.max() - samples.min():.2f} (not constant)")

    print("\n--- cross-domain agreement ---")
    for name, t in (("ptm", train), ("cyclic", cyclic)):
        report = taylor_coeffs(t, 2)
        for m in range(3):
            residual = report.max_sidelobe_residual[m]
            print(
                f"  {name} m={m}: null={residual <= report.thresholds[m]} (delay "
                f"residual {residual:.2e}, z deviation {report.z_deviations[m]:.2e})"
            )


if __name__ == "__main__":
    main()
