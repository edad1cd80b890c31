#!/usr/bin/env python3
"""Complementary code sets: autocorrelation sidelobes that cancel in pairs.

A single unimodular code always has non-zero autocorrelation sidelobes
(the outermost lag has magnitude exactly 1).  A complementary set hides
them by summation: across the K codes the off-peak sums vanish and the
peaks stack to N*K.
"""

import numpy as np

from dopwave import acf, gen_dft_set, gen_golay_pair, validate_ccm
from dopwave.codes import ztransform_eval


def show_set(name, ccm):
    print(f"--- {name}: N={ccm.length} K={ccm.count} ---")
    total = np.zeros(2 * ccm.length - 1, dtype=complex)
    for k in range(ccm.count):
        a = acf(ccm.code(k))
        total += a
        peak = abs(a[ccm.length - 1])
        worst = np.abs(np.delete(a, ccm.length - 1)).max()
        print(f"  code {k}: acf peak {peak:g}, worst own sidelobe {worst:.3f}")
    worst_sum = np.abs(np.delete(total, ccm.length - 1)).max()
    print(f"  summed sidelobes: worst {worst_sum:.2e}  "
          f"(peak sum {abs(total[ccm.length - 1]):g} = N*K)")
    check = validate_ccm(ccm)
    kind = "exact" if ccm.phase_order in (1, 2, 4) else "within tol"
    print(f"  validate_ccm ({kind}) -> {check.is_ccm} (worst {check.worst_sidelobe:.2e})")


def main():
    pair = gen_golay_pair(3)
    show_set("binary pair, three doublings", pair)

    tri = gen_dft_set(3)
    show_set("tri-phase DFT set", tri)

    quad = gen_dft_set(4)
    show_set("quad-phase DFT set", quad)

    # The same cancellation seen on the unit circle: total spectral power
    # is flat at N*K wherever you sample.
    print("--- unit-circle energy identity (binary pair) ---")
    rng = np.random.default_rng(1)
    worst = 0.0
    for z in np.exp(2j * np.pi * rng.random(100)):
        power = sum(abs(ztransform_eval(pair.code(k), z)) ** 2 for k in range(2))
        worst = max(worst, abs(power - 2 * pair.length))
    print(f"  max ||X|^2+|Y|^2 - 2N| over 100 random z: {worst:.2e}")


if __name__ == "__main__":
    main()
