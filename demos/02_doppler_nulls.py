#!/usr/bin/env python3
"""Doppler nulls from pulse ordering.

Transmitting the codes of a complementary set in PTM order (slot n carries
code digit_sum_mod(n, K)) drives the first M Taylor coefficients of the
ambiguity function to zero at every non-zero delay, where K^(M+1) is the
train length.  Any fixed cyclic ordering of the very same codes already
fails at first order; the ordering, not the codes, buys the tolerance.
"""


from dopwave import (
    build_cyclic_train,
    build_ptm_train,
    gen_dft_set,
    gen_golay_pair,
    taylor_coeffs,
)


def report(name, train, order):
    rep = taylor_coeffs(train, order)
    print(f"--- {name} (L={train.total_pulses}) ---")
    for m in range(order + 1):
        flag = "null" if rep.max_sidelobe_residual[m] <= rep.thresholds[m] else "LIVE"
        print(
            f"  m={m}: worst off-peak |c_m| = "
            f"{rep.max_sidelobe_residual[m]:.3e}  [{flag}]"
        )
    print(f"  certified null order: {rep.null_order}")
    return rep


def main():
    pair = gen_golay_pair(3)

    ptm = build_ptm_train(pair, 3)
    print("PTM order, first 16 slots:", "".join(str(i) for i in ptm.lanes[0].indices))
    report("binary pair, PTM order M=3", ptm, 3)

    cyclic = build_cyclic_train(pair, 16)
    print("\ncyclic order, same codes: ", "".join(str(i) for i in cyclic.lanes[0].indices))
    report("binary pair, cyclic order", cyclic, 3)

    tri = gen_dft_set(3)
    train3 = build_ptm_train(tri, 2)
    print()
    report("tri-phase set, PTM order M=2", train3, 2)

    # The price of a higher order is train length: L = K^(M+1).
    print("\ntrain length needed for two codes:")
    for order in (1, 2, 3, 4):
        print(f"  M={order}: L = {2 ** (order + 1)}")


if __name__ == "__main__":
    main()
