"""Pulse-train ambiguity, Taylor-coefficient nulls, and surface tests."""

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as stn

from dopwave import codes, doppler, numtheory, stagger

TRAIN_K2_M3 = [0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0]
TRAIN_K3_M2 = [
    0, 1, 2, 1, 2, 0, 2, 0, 1,
    1, 2, 0, 2, 0, 1, 0, 1, 2,
    2, 0, 1, 0, 1, 2, 1, 2, 0,
]
TRAIN_K4_M2 = [
    0, 1, 2, 3, 1, 2, 3, 0, 2, 3, 0, 1, 3, 0, 1, 2,
    1, 2, 3, 0, 2, 3, 0, 1, 3, 0, 1, 2, 0, 1, 2, 3,
    2, 3, 0, 1, 3, 0, 1, 2, 0, 1, 2, 3, 1, 2, 3, 0,
    3, 0, 1, 2, 0, 1, 2, 3, 1, 2, 3, 0, 2, 3, 0, 1,
]


def golay(exponent=3):
    return codes.gen_golay_pair(exponent)


def one_lane(ccm, indices, delay=0):
    """A train: its pulses on one lane from slot `delay`."""
    return doppler.PulseTrain(ccm, (doppler.Lane(delay, indices),))


def finite_difference_derivative(train, lag, order, step):
    """Oracle: central finite differences of g(lag, theta) at theta = 0.

    Returns the order-Taylor coefficient estimate: c_m ~ g^(m)(0) / j^m.
    """
    g = lambda t: doppler.ambiguity(train, lag, t)
    if order == 1:
        deriv = (g(step) - g(-step)) / (2 * step)
    elif order == 2:
        deriv = (g(step) - 2 * g(0.0) + g(-step)) / step**2
    else:
        raise ValueError("oracle supports orders 1 and 2")
    return deriv / 1j**order


def naive_response(train, thetas):
    """Oracle: g summed pulse by pulse, one ACF column and phase per pulse."""
    acfs = doppler.code_acfs(train.ccm)
    per_pulse = acfs[:, list(train.lanes[0].indices)]
    slots = np.arange(train.total_pulses) + train.lanes[0].delay
    phase = np.exp(1j * np.outer(thetas, slots))
    return phase @ per_pulse.T


def naive_surface(train, thetas):
    return np.abs(naive_response(train, thetas))


def naive_plan_surface(plan, thetas):
    """Oracle: |g| of a staggered plan, its lanes' per-pulse sums added."""
    lanes = (one_lane(plan.ccm, l.indices, l.delay) for l in plan.lanes)
    return np.abs(sum(naive_response(lane, thetas) for lane in lanes))


def fitted_sidelobe_slope(train, theta_lo, theta_hi, samples=25):
    """Oracle: log-log slope of the worst off-peak |g| against theta."""
    thetas = np.logspace(np.log10(theta_lo), np.log10(theta_hi), samples)
    n = train.ccm.length
    peaks = []
    for theta in thetas:
        mags = [
            abs(doppler.ambiguity(train, k, theta))
            for k in range(1 - n, n)
            if k != 0
        ]
        peaks.append(max(mags))
    slope, _ = np.polyfit(np.log(thetas), np.log(peaks), 1)
    return slope


class TestTrainConstruction:
    def test_two_code_train(self):
        train = doppler.build_ptm_train(golay(), 3)
        assert list(train.lanes[0].indices) == TRAIN_K2_M3
        assert train.lanes[0].delay == 0

    def test_three_code_train(self):
        train = doppler.build_ptm_train(codes.gen_dft_set(3), 2)
        assert list(train.lanes[0].indices) == TRAIN_K3_M2

    def test_four_code_train(self):
        train = doppler.build_ptm_train(codes.gen_dft_set(4), 2)
        assert list(train.lanes[0].indices) == TRAIN_K4_M2

    def test_is_ptm_ordered(self):
        assert doppler.build_ptm_train(golay(), 2).is_ptm_ordered()
        assert not doppler.build_cyclic_train(golay(), 16).is_ptm_ordered()
        # One code has no PTM sequence: not ordered.
        single = codes.Ccm.from_phases(np.zeros((1, 1), dtype=np.int64), 2)
        assert not one_lane(single, (0, 0, 0)).is_ptm_ordered()

    def test_index_validation(self):
        with pytest.raises(ValueError):
            one_lane(golay(), (0, 2))
        with pytest.raises(ValueError):
            one_lane(golay(), ())
        with pytest.raises(ValueError):
            one_lane(golay(), (0,), delay=-1)

    def test_lanes_beyond_the_first_need_a_partition(self):
        lanes = (doppler.Lane(0, (0, 1)), doppler.Lane(2, (1, 0)))
        with pytest.raises(ValueError, match="need their partition"):
            doppler.PulseTrain(golay(), lanes)
        with pytest.raises(ValueError, match="at least one lane"):
            doppler.PulseTrain(golay(), ())

    def test_non_integer_indices_and_far_delays_refused(self):
        with pytest.raises(ValueError, match="integer code"):
            one_lane(golay(), (0, 1.0))
        with pytest.raises(ValueError, match="integer code"):
            one_lane(golay(), ("0", "1"))
        with pytest.raises(ValueError, match="delay"):
            one_lane(golay(), (0,), delay=doppler.MAX_TRAIN_LENGTH + 1)
        train = one_lane(golay(), np.array([0, 1, 1], dtype=np.uint8), 3)
        assert train.lanes[0].indices == (0, 1, 1)
        assert all(type(i) is int for i in train.lanes[0].indices)
        slots = train.slots_by_code()
        assert [s.tolist() for s in slots] == [[3], [4, 5]]
        assert all(s.dtype == np.int64 for s in slots)

    def test_slots_memory(self):
        # 2^17 pulses give 1 MiB of int64 slots.  Codes read in uint8 and each
        # code's lane shifts repeated over its places peak at 12 B per pulse;
        # int64 codes and a gathered lane index per code took 17 B.
        train = doppler.build_cyclic_train(golay(1), 1 << 17)
        tracemalloc.start()
        try:
            slots = train.slots_by_code()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [s.tolist() for s in slots] == [list(range(c, 1 << 17, 2)) for c in (0, 1)]
        assert peak < 14 * (1 << 17)

    def test_trains_over_the_length_cap_refused(self):
        cap = doppler.MAX_TRAIN_LENGTH
        assert doppler.build_cyclic_train(golay(1), cap).total_pulses == cap
        with pytest.raises(ValueError, match=f"train length {cap + 1} exceeds cap"):
            doppler.build_cyclic_train(golay(1), cap + 1)
        # The cap comes before the index scan: code 7 is not in a pair.
        with pytest.raises(ValueError, match="exceeds cap"):
            one_lane(golay(1), np.full(cap + 1, 7))

    @pytest.mark.parametrize(
        "delay", [1.5, np.float64(2.0), "2", None],
        ids=["float", "float64", "str", "none"],
    )
    def test_non_integer_delay_refused(self, delay):
        with pytest.raises(ValueError, match="delay must be an integer"):
            one_lane(golay(), (0, 1), delay)

    @pytest.mark.parametrize("delay", [np.int64(2), np.uint8(2)], ids=["int64", "uint8"])
    def test_integer_delay_stored_as_python_int(self, delay):
        train = one_lane(golay(), (0, 1), delay)
        assert type(train.lanes[0].delay) is int and train.lanes[0].delay == 2
        data = json.loads(json.dumps(train.to_json_dict()))
        assert doppler.PulseTrain.from_json_dict(data).lanes[0].delay == 2

    def test_length_cap(self):
        with pytest.raises(ValueError):
            doppler.build_ptm_train(golay(), 31)

    def test_huge_order_refused_before_the_power(self):
        with pytest.raises(ValueError, match=r"train length 64\^100000001 exceeds cap"):
            doppler.build_ptm_train(codes.gen_dft_set(64), 10**8)


class TestExactWeights:
    """Full PTM trains take the digit DP; every other schedule sums its
    slots in one all-orders pass per code."""

    @staticmethod
    def direct(schedule, max_order):
        slots = schedule.slots_by_code()
        return [[numtheory.power_sum(s, m) for s in slots] for m in range(max_order + 1)]

    @staticmethod
    def counted_power_sums():
        return mock.patch.object(doppler, "_power_sums", wraps=numtheory._power_sums)

    @settings(max_examples=30, deadline=None)
    @given(stn.data())
    def test_ptm_trains_take_the_digits(self, data):
        count = data.draw(stn.integers(2, 5))
        levels = data.draw(stn.integers(1, int(np.log(4096) / np.log(count) + 1e-9)))
        max_order = data.draw(stn.integers(0, 32))
        ccm, length = codes.gen_dft_set(count), count**levels
        train = one_lane(ccm, numtheory.ptm_sequence(count, length))
        expected = self.direct(train, max_order)
        with self.counted_power_sums() as power_sum:
            weights = doppler._exact_weights(train, max_order)
            samples = doppler.zdomain_samples(train, max_order)
        assert weights == expected
        # Only short trains over many codes (J*K^2 > L) sum their powers.
        assert power_sum.called == (levels * count**2 > length)
        np.testing.assert_array_equal(
            samples, ccm.spectra @ np.array(expected[max_order], dtype=float)
        )

    @pytest.mark.parametrize(
        "make",
        [
            lambda ccm: doppler.build_cyclic_train(ccm, 16),
            lambda ccm: one_lane(ccm, numtheory.ptm_sequence(2, 16), 3),
            lambda ccm: one_lane(ccm, numtheory.ptm_sequence(2, 24)),
        ],
        ids=["cyclic", "delayed", "not-K^J"],
    )
    def test_other_trains_sum_powers(self, make):
        train, max_order = make(golay()), 4
        expected = self.direct(train, max_order)
        with self.counted_power_sums() as power_sums:
            weights = doppler._exact_weights(train, max_order)
        assert weights == expected
        assert power_sums.call_count == 2  # one per code, every order at once
        assert all(type(w) is int for row in weights for w in row)

    def test_many_codes_over_few_levels_sum_powers(self):
        # J*K^2 > L: K^2 products per level would outgrow the L powers.
        train = doppler.build_ptm_train(codes.gen_dft_set(16), 1)
        with self.counted_power_sums() as power_sums:
            assert doppler._exact_weights(train, 3) == self.direct(train, 3)
        assert power_sums.call_count == 16

    def test_cyclic_weights_memory(self):
        # Two codes of 2^16 slots each, whose weights see each code's slots
        # as an int64 array and make Python ints a POWER_CHUNK slice at a
        # time: 6.8 MB peak, where a list of ints per code took 10.7 MB.
        train = doppler.build_cyclic_train(golay(1), 1 << 17)
        tracemalloc.start()
        try:
            weights = doppler._exact_weights(train, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert weights == self.direct(train, 4)
        assert peak < 8.5 * (1 << 20)


class TestAmbiguity:
    def test_zero_doppler_peak(self):
        for ccm, order in ((golay(), 3), (codes.gen_dft_set(3), 2)):
            train = doppler.build_ptm_train(ccm, order)
            peak = doppler.ambiguity(train, 0, 0.0)
            assert abs(peak - ccm.length * train.total_pulses) <= 1e-9 * train.total_pulses

    def test_zero_doppler_sidelobes_cancel(self):
        train = doppler.build_ptm_train(golay(), 2)
        n = train.ccm.length
        for k in range(1, n):
            assert abs(doppler.ambiguity(train, k, 0.0)) <= 1e-9

    def test_single_pulse_train(self):
        single = codes.Ccm(np.array([[1.0], [1.0]], dtype=complex))
        for d in (0, 3):
            train = one_lane(single, (0,), delay=d)
            for theta in (0.0, 0.4, -1.1):
                value = doppler.ambiguity(train, 1, theta)
                assert np.isclose(value, np.exp(1j * d * theta))

    def test_lag_out_of_range(self):
        train = doppler.build_ptm_train(golay(), 1)
        with pytest.raises(ValueError):
            doppler.ambiguity(train, 8, 0.0)

    def test_delay_shifts_phase_only(self):
        base = doppler.build_ptm_train(golay(), 2)
        shifted = one_lane(base.ccm, base.lanes[0].indices, delay=5)
        for lag in (0, 1, 3):
            for theta in (0.05, 0.7):
                g0 = doppler.ambiguity(base, lag, theta)
                gd = doppler.ambiguity(shifted, lag, theta)
                assert np.isclose(abs(gd), abs(g0))
                assert np.isclose(gd, np.exp(1j * 5 * theta) * g0)


class TestTaylorCoeffs:
    def test_ptm_nulls_to_order(self):
        train = doppler.build_ptm_train(golay(), 3)
        report = doppler.taylor_coeffs(train, 3)
        n, length = 8, 16
        for m in range(4):
            assert report.max_sidelobe_residual[m] <= 1e-9 * n * length**m
        assert report.null_order >= 3

    def test_three_code_nulls(self):
        train = doppler.build_ptm_train(codes.gen_dft_set(3), 2)
        assert doppler.taylor_coeffs(train, 2).null_order >= 2

    @pytest.mark.parametrize("make,size", [
        (codes.gen_golay_pair, 1), (codes.gen_golay_pair, 2), (codes.gen_golay_pair, 4),
        (codes.gen_golay_pair, 6), (codes.gen_dft_set, 3), (codes.gen_dft_set, 4),
        (codes.gen_dft_set, 5),
    ], ids=["golay1", "golay2", "golay4", "golay6", "dft3", "dft4", "dft5"])
    def test_ptm_null_order_is_exactly_the_order(self, make, size):
        """Every PTM train of length K^(M+1) < 512 nulls through M and no further.

        Asked for M + 1 orders or for up to six more, the report says M; the
        cyclic train of the same length says 0.  Longer trains are left out:
        there the float verdict can over-report (Golay-1 at L = 1024 reads 12)
        or raise DomainMismatchError (Golay-4 at L = 512), ROADMAP item 2.
        """
        ccm = make(size)
        order = 1
        while ccm.count ** (order + 1) < 512:
            train = doppler.build_ptm_train(ccm, order)
            for asked in (order + 1, min(order + 6, doppler.MAX_TAYLOR_ORDER)):
                assert doppler.taylor_coeffs(train, asked).null_order == order
            cyclic = doppler.build_cyclic_train(ccm, train.total_pulses)
            assert doppler.taylor_coeffs(cyclic, order + 1).null_order == 0
            order += 1
        assert order > 2  # at least the orders 1 and 2 were checked

    def test_cyclic_train_fails_first_order(self):
        train = doppler.build_cyclic_train(golay(), 16)
        report = doppler.taylor_coeffs(train, 1)
        # Even slots carry code 0 (weight 56), odd slots code 1 (weight 64):
        # c_1(k) = 56 a0 + 64 a1 = 8 a1 off-peak, and max |a1| = 3 here.
        assert report.max_sidelobe_residual[1] > report.thresholds[1]
        assert np.isclose(report.max_sidelobe_residual[1], 24.0)
        assert report.null_order == 0

    def test_zeroth_coefficient_is_summed_acf(self):
        train = doppler.build_cyclic_train(golay(), 6)
        report = doppler.taylor_coeffs(train, 0)
        acfs = doppler.code_acfs(train.ccm)
        expected = sum(acfs[:, c] for c in train.lanes[0].indices)
        assert np.allclose(report.coeffs[0], expected)

    def test_finite_difference_cross_check(self):
        train = doppler.build_cyclic_train(golay(), 16)
        report = doppler.taylor_coeffs(train, 2)
        n = train.ccm.length
        for lag in (1, 3, n - 1):
            fd1 = finite_difference_derivative(train, lag, 1, 1e-5)
            assert abs(fd1 - report.coeffs[1][n - 1 + lag]) <= 1e-4
            fd2 = finite_difference_derivative(train, lag, 2, 1e-3)
            assert abs(fd2 - report.coeffs[2][n - 1 + lag]) <= 1e-2 * max(
                1.0, abs(report.coeffs[2][n - 1 + lag])
            )

    def test_delay_enters_weights(self):
        base = doppler.build_ptm_train(golay(), 1)
        shifted = one_lane(base.ccm, base.lanes[0].indices, delay=2)
        r0 = doppler.taylor_coeffs(base, 1)
        rd = doppler.taylor_coeffs(shifted, 1)
        # c_1 weights become (n+2), adding 2*c_0 to each coefficient.
        assert np.allclose(rd.coeffs[1], r0.coeffs[1] + 2 * r0.coeffs[0])

    def test_order_cap(self):
        train = doppler.build_ptm_train(golay(), 1)
        with pytest.raises(ValueError):
            doppler.taylor_coeffs(train, 33)

    def test_report_keeps_weights_not_the_matrix(self):
        # Order 32 at code length 2^14: the 33 x 32,767 complex matrix alone
        # is 16.5 MiB (17.3 MiB traced peak while the report stored it); each
        # order's row formed and dropped peaks at 1.3 MiB.
        train = doppler.build_ptm_train(golay(14), 1)
        train.ccm.acfs  # the code set's table, built once and shared
        tracemalloc.start()
        try:
            report = doppler.taylor_coeffs(train, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * (1 << 20)
        assert report.weights == doppler._exact_weights(train, 32)
        assert report.acfs is train.ccm.acfs
        row = report.acfs @ np.array(report.weights[32], dtype=float)
        assert report.coeffs[32].tobytes() == row.tobytes()

    def test_report_json(self):
        report = doppler.taylor_coeffs(doppler.build_ptm_train(golay(), 1), 1)
        data = report.to_json_dict()
        json.dumps(data)
        assert data["M"] == 1 and data["nullOrder"] >= 1
        assert len(data["coeffs"]) == 2
        assert len(data["coeffs"][0]) == 15

    @pytest.mark.parametrize("kind", ["train", "plan"])
    @pytest.mark.parametrize("block", [doppler.PHASE_BLOCK, 4, 1])
    def test_report_file_is_the_json_dict(self, tmp_path, kind, block):
        # A train's report and a plan's, with repeated coefficients and
        # -0.0, NaN and +-inf in either part; blocks of 4 and 1 values cut
        # each 15-lag order into slices.
        if kind == "train":
            report = doppler.taylor_coeffs(doppler.build_ptm_train(golay(), 2), 3)
        else:
            plan = stagger.decompose_to_antennas(stagger.builtin_partition(2), golay())
            report = doppler.taylor_coeffs(plan, 3)
        coeffs = report.coeffs.copy()
        coeffs[1, :5] = [
            complex(-0.0, 0.0), complex(np.nan, -0.0), complex(np.inf, -np.inf),
            complex(0.0, np.nan), complex(-np.nan, 1.5),
        ]
        coeffs[2, 7:10] = coeffs[1, :3]
        # The same values through the row expression, which the writer and
        # the coeffs property both form each order's row with.
        rows = dict(zip(map(id, report.weights), coeffs))
        special = lambda acfs, weights_m: rows[id(weights_m)]
        for form_row in (doppler._coeff_row, special):
            path = tmp_path / "report.json"
            with mock.patch.object(doppler, "PHASE_BLOCK", block), \
                    mock.patch.object(doppler, "_coeff_row", form_row):
                report.write_json(path)
                text = json.dumps(report.to_json_dict()) + "\n"
            assert path.read_text() == text
            assert ("Infinity" in text) == (form_row is special)


class TestZDomain:
    def test_two_code_constancy(self):
        train = doppler.build_ptm_train(golay(), 3)
        assert doppler.taylor_coeffs(train, 3).z_residuals.max() <= 1e-9

    def test_three_code_constancy(self):
        train = doppler.build_ptm_train(codes.gen_dft_set(3), 2)
        assert doppler.taylor_coeffs(train, 2).z_residuals.max() <= 1e-9

    def test_zeroth_order_value(self):
        # C_0(z) is the summed per-pulse energy L*N at every sample.
        train = doppler.build_ptm_train(golay(), 2)
        samples = doppler.zdomain_samples(train, 0)
        expected = train.total_pulses * train.ccm.length
        assert np.allclose(samples, expected, rtol=1e-12)

    def test_direct_evaluation_oracle(self):
        # Recompute C_m(z) term by term, no grouping, and compare.
        train = doppler.build_ptm_train(codes.gen_dft_set(3), 1)
        zs = np.exp(2j * np.pi * np.arange(6) / 6)  # the 2N grid, N = 3
        samples = doppler.zdomain_samples(train, 2)
        assert samples.shape == (6,)
        for t, z in enumerate(zs):
            direct = sum(
                n**2 * abs(codes.ztransform_eval(train.ccm.code(c), z)) ** 2
                for n, c in enumerate(train.lanes[0].indices)
            )
            assert abs(samples[t] - direct) <= 1e-9 * max(1.0, abs(direct))

    @pytest.mark.parametrize(
        "schedule",
        [
            doppler.build_cyclic_train(golay(), 40),
            one_lane(golay(), numtheory.ptm_sequence(2, 16), 3),
            doppler.build_ptm_train(codes.gen_dft_set(3), 2),
            stagger.decompose_to_antennas(stagger.builtin_partition(2), golay()),
            stagger.decompose_to_antennas(
                stagger.pad_partition(stagger.builtin_partition(3)), golay()
            ),
        ],
        ids=["cyclic", "delayed", "ptm", "builtin-plan", "padded-plan"],
    )
    def test_samples_are_the_taylor_rows_bit_for_bit(self, schedule):
        # Trains and plans alike: the same floats as the C_m(z) samples
        # taylor_coeffs hands to _order_check, from the same exact weights.
        with mock.patch.object(
            doppler, "_order_check", wraps=doppler._order_check
        ) as check:
            doppler.taylor_coeffs(schedule, 8)
        for m, call in enumerate(check.call_args_list):
            samples = doppler.zdomain_samples(schedule, m)
            assert samples.tobytes() == call.args[3].tobytes()

    def test_samples_refuse_orders_out_of_range(self):
        train = doppler.build_cyclic_train(golay(), 16)
        for order in (-1, doppler.MAX_TAYLOR_ORDER + 1):
            with pytest.raises(ValueError, match="max_order must be in"):
                doppler.zdomain_samples(train, order)


class TestPowerSpectra:
    @pytest.mark.parametrize(
        "n,z_count",
        [(64, 16), (64, 64), (16, 64), (64, 24), (5, 3), (3, 7), (1, 1), (5, None)],
    )
    def test_matches_horner_evaluation(self, n, z_count):
        # The z domain's only grid is 2N points exp(1j*pi*j/N).  Those samples
        # fix |X(z)|^2 on the whole unit circle (a degree N-1 trigonometric
        # polynomial whose coefficients are the ACF), so the ACF built from
        # them must reproduce Horner's values on any other grid of z_count
        # points; no count given checks the 2N grid alone.
        count = z_count or 2 * n
        phases = np.random.default_rng(n * 100 + count).integers(0, 6, (n, 3))
        ccm = codes.Ccm.from_phases(phases, 6)
        assert ccm.spectra.shape == (2 * n, 3)
        grid = np.exp(1j * np.pi * np.arange(2 * n) / n)
        zs = np.exp(2j * np.pi * np.arange(count) / count)
        powers = zs[:, None] ** np.arange(1 - n, n)  # |X(z)|^2 = sum_k ACF(k) z^k
        for k in range(3):
            code = ccm.code(k)
            direct = np.abs([codes.ztransform_eval(code, z) for z in grid]) ** 2
            assert np.max(np.abs(ccm.spectra[:, k] - direct)) <= 1e-10 * n * n
            direct = np.abs([codes.ztransform_eval(code, z) for z in zs]) ** 2
            from_grid = powers @ ccm.acfs[:, k]
            assert np.max(np.abs(from_grid - direct)) <= 1e-10 * n * n


def domain_nulls(train, max_order):
    """Per order of one report: the delay-domain null, and the z-domain one
    read from its deviation, C_m(z) constant within the 2(N-1) coefficient
    terms' share of the threshold."""
    report = doppler.taylor_coeffs(train, max_order)
    z_limit = 2 * max(1, train.ccm.length - 1) * report.thresholds
    return (
        (report.max_sidelobe_residual <= report.thresholds).tolist(),
        (report.z_deviations <= z_limit).tolist(),
    )


class TestEquivalence:
    def test_ptm_agrees_true(self):
        train = doppler.build_ptm_train(golay(), 2)
        time_nulls, z_nulls = domain_nulls(train, 1)
        assert time_nulls[1] and z_nulls[1]

    def test_cyclic_agrees_false(self):
        train = doppler.build_cyclic_train(golay(), 16)
        time_nulls, z_nulls = domain_nulls(train, 1)
        assert not time_nulls[1] and not z_nulls[1]

    def test_default_grid_does_not_alias(self, frank_train):
        # The 2N grid, not the Frank code's own 64-point DFT grid, on which
        # C_0 would look constant.
        assert domain_nulls(frank_train, 0) == ([False], [False])

    def test_zero_order_with_equal_multiplicity(self):
        train = doppler.build_cyclic_train(codes.gen_dft_set(3), 27)
        assert domain_nulls(train, 0) == ([True], [True])

    def test_hundred_random_trains_agree(self):
        rng = np.random.default_rng(2024)
        sets = [
            codes.gen_golay_pair(2),
            codes.gen_golay_pair(3),
            codes.gen_dft_set(3),
            codes.gen_dft_set(4),
        ]
        for trial in range(100):
            ccm = sets[rng.integers(len(sets))]
            length = int(rng.integers(4, 65))
            indices = tuple(int(i) for i in rng.integers(0, ccm.count, length))
            train = one_lane(ccm, indices, delay=int(rng.integers(0, 5)))
            time_nulls, z_nulls = domain_nulls(train, 4)
            assert time_nulls == z_nulls


class TestSurface:
    def test_peak_magnitude(self):
        train = doppler.build_ptm_train(golay(), 2)
        surface = doppler.ambiguity_surface(train, -0.1, 0.1, 5)
        n = train.ccm.length
        center_theta = 2  # theta = 0 sample
        peak = surface.magnitudes[center_theta, n - 1]
        assert abs(peak - n * train.total_pulses) <= 1e-6 * n * train.total_pulses

    def test_zero_doppler_column_matches_summed_acf(self):
        train = doppler.build_cyclic_train(golay(), 8)
        surface = doppler.ambiguity_surface(train, -0.2, 0.2, 5)
        c0 = doppler.taylor_coeffs(train, 0).coeffs[0]
        assert np.allclose(surface.magnitudes[2], np.abs(c0), atol=1e-9)

    def test_ptm_never_worse_than_cyclic(self):
        ptm = doppler.build_ptm_train(golay(), 3)
        alt = doppler.build_cyclic_train(golay(), 16)
        # 100 steps skip theta = 0, where both surfaces read float noise.
        ptm_peaks = doppler.ambiguity_surface(ptm, -0.1, 0.1, 100).sidelobe_peaks()
        alt_peaks = doppler.ambiguity_surface(alt, -0.1, 0.1, 100).sidelobe_peaks()
        slack = 1e-12 * 8 * 16
        assert np.all(ptm_peaks <= alt_peaks + slack)

    def test_grid_shape_and_order(self):
        train = doppler.build_ptm_train(golay(), 1)
        surface = doppler.ambiguity_surface(train, -0.3, 0.3, 7)
        assert surface.magnitudes.shape == (7, 15)
        assert surface.thetas[0] == -0.3 and surface.thetas[-1] == 0.3
        assert list(surface.lags) == list(range(-7, 8))

    def test_step_validation(self):
        train = doppler.build_ptm_train(golay(), 1)
        with pytest.raises(ValueError):
            doppler.ambiguity_surface(train, -0.1, 0.1, 1)

    def test_theta_times_slot_overflow_refused(self):
        # L = 8, so the last slot is 7: 1e308 * 7 is not a finite float, and
        # both entry points refuse it instead of returning NaN.
        train = doppler.build_ptm_train(golay(2), 2)
        with pytest.raises(ValueError, match="times last slot 7 is not finite"):
            doppler.ambiguity(train, 0, 1e308)
        with pytest.raises(ValueError, match="times last slot 7 is not finite"):
            doppler.ambiguity_surface(train, 0, 1e308, 3)

    def test_largest_finite_theta_times_slot_accepted(self):
        # 2.5e307 * 7 = 1.75e308 is still finite.
        train = doppler.build_ptm_train(golay(2), 2)
        assert np.isfinite(doppler.ambiguity(train, 0, 2.5e307))
        surface = doppler.ambiguity_surface(train, 0, 2.5e307, 3)
        assert np.all(np.isfinite(surface.magnitudes))

    def test_overflowing_theta_interval_refused(self):
        # Each bound is finite, but their difference is not.
        train = doppler.build_ptm_train(golay(2), 2)
        with pytest.raises(ValueError, match="their difference must be finite"):
            doppler.ambiguity_surface(train, -1e308, 1e308, 3)

    def test_csv_export(self, tmp_path):
        train = doppler.build_ptm_train(golay(), 1)
        surface = doppler.ambiguity_surface(train, -0.15, 0.15, 3)
        path = tmp_path / "surface.csv"
        surface.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "theta,k,magnitude"
        assert len(lines) == 1 + 3 * 15
        first = lines[1].split(",")
        assert first[0] == "-0.15" and first[1] == "-7"
        # theta-major ordering: lag column cycles fastest.
        assert [row.split(",")[1] for row in lines[1:16]] == [
            str(k) for k in range(-7, 8)
        ]
        # theta is printed to 12 significant digits.
        third = np.pi / 30
        surface2 = doppler.ambiguity_surface(train, third, third + 0.1, 2)
        path2 = tmp_path / "surface2.csv"
        surface2.write_csv(path2)
        theta_text = path2.read_text().splitlines()[1].split(",")[0]
        assert theta_text == f"{third:.12g}"

    def test_csv_bytes_match_per_cell_formatter(self, tmp_path):
        # Theta crosses zero and lags run from -(N-1) to N-1.  A block of
        # two cells writes each five-cell row in three slices; blocks of 10
        # and 15 cells hold two and three whole rows; the default holds all.
        train = doppler.build_cyclic_train(codes.gen_dft_set(3), 7)
        surface = doppler.ambiguity_surface(train, -0.3, 0.2, 11)
        assert surface.thetas.min() < 0 < surface.thetas.max()
        assert surface.lags.min() < 0 < surface.lags.max()
        # Magnitudes that repeat within and across rows, and the floats whose
        # bit patterns differ from their equals: -0.0, NaNs of either sign,
        # +-inf.
        repeated = np.round(surface.magnitudes, 1)
        repeated[1, :] = repeated[0, :]
        repeated[2, :] = [0.0, -0.0, np.nan, -np.nan, np.inf]
        repeated[3, :] = [-np.inf, np.inf, -0.0, np.nan, 0.0]
        special = doppler.AmbiguitySurface(surface.thetas, surface.lags, repeated)
        for case, grid in (("plain", surface), ("repeated", special)):
            expected = ["theta,k,magnitude\n"]
            for t, theta in enumerate(grid.thetas):
                for j, k in enumerate(grid.lags):
                    expected.append(
                        f"{theta:.12g},{int(k)},{grid.magnitudes[t, j]:.17g}\n"
                    )
            for block in (doppler.PHASE_BLOCK, 15, 10, 2):
                path = tmp_path / f"surface_{case}_{block}.csv"
                with mock.patch.object(doppler, "PHASE_BLOCK", block):
                    grid.write_csv(path)
                assert path.read_bytes() == "".join(expected).encode("utf-8")

    def test_csv_memory_bounded_by_the_chunk(self, tmp_path):
        # Rows of 2^16 - 1 cells written in chunks of 2^12: the text, floats
        # and lag fields of one chunk may exist at once, never a whole row's.
        n, block = 1 << 15, 1 << 12
        lags = np.arange(1 - n, n)
        magnitudes = np.random.default_rng(5).random((2, lags.size)) * n
        surface = doppler.AmbiguitySurface(np.array([-0.1, 0.1]), lags, magnitudes)
        tracemalloc.start()
        try:
            with mock.patch.object(doppler, "PHASE_BLOCK", block):
                surface.write_csv(tmp_path / "wide.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * block

    def test_plan_surface_matches_lane_sum(self):
        ccm = golay()
        plan = stagger.decompose_to_antennas(stagger.builtin_partition(3), ccm)
        assert len(plan.lanes) == 4
        surface = doppler.ambiguity_surface(plan, -0.4, 0.3, 23)
        expected = naive_plan_surface(plan, surface.thetas)
        bound = 1e-9 * ccm.length * plan.total_pulses
        assert np.max(np.abs(surface.magnitudes - expected)) <= bound
        assert surface.description == "L=16 K=2 N=8 delay=0"

    def test_one_lane_plan_surface_is_its_ptm_train(self):
        ccm = golay()
        plan = stagger.decompose_to_antennas(
            numtheory.ptm_partition(2, 2), ccm
        )
        train = doppler.build_ptm_train(ccm, 2)
        lane = doppler.ambiguity_surface(plan, -0.2, 0.2, 17)
        single = doppler.ambiguity_surface(train, -0.2, 0.2, 17)
        assert np.array_equal(lane.magnitudes, single.magnitudes)
        assert lane.description == single.description

    @pytest.mark.parametrize("block", [doppler.PHASE_BLOCK, 5])
    @settings(max_examples=40, deadline=None)
    @given(
        stn.integers(2, 4),
        stn.integers(1, 16),
        stn.integers(1, 64),
        stn.integers(0, 5),
        stn.floats(-4.0, 4.0),
        stn.floats(0.0, 2.0),
        stn.integers(2, 40),
        stn.integers(0, 2**32 - 1),
    )
    def test_grouped_surface_matches_per_pulse_sum(
        self, block, k, n, length, delay, lo, width, steps, seed
    ):
        # block = 5 forces many theta blocks per code (and one row per block
        # once a code has more than five slots).
        rng = np.random.default_rng(seed)
        ccm = codes.Ccm.from_phases(rng.integers(0, 4, (n, k)), 4)
        indices = tuple(int(i) for i in rng.integers(0, k, length))
        train = one_lane(ccm, indices, delay=delay)
        with mock.patch.object(doppler, "PHASE_BLOCK", block):
            surface = doppler.ambiguity_surface(train, lo, lo + width, steps)
            t, lag = int(rng.integers(steps)), int(rng.integers(1 - n, n))
            sample = doppler.ambiguity(train, lag, surface.thetas[t])
        expected = naive_surface(train, surface.thetas)
        bound = 1e-9 * n * length
        assert np.max(np.abs(surface.magnitudes - expected)) <= bound
        assert abs(abs(sample) - expected[t, n - 1 + lag]) <= bound

    def test_memory_independent_of_theta_by_length(self):
        # L = 4096 pulses and 1001 thetas: the per-pulse sum holds a
        # 1001 x 4096 phase matrix (62.6 MiB) and a 31 x 4096 ACF matrix.
        train = doppler.build_ptm_train(golay(4), 11)
        assert train.total_pulses == 4096
        tracemalloc.start()
        try:
            doppler.ambiguity_surface(train, -0.1, 0.1, 1001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    def test_long_code_phases_taken_in_slices(self):
        # One code of 2^19 slots: each block holds one theta row of a
        # PHASE_BLOCK slice (4 MiB, and 4 MiB for the slice times 1j), where
        # a whole row and its 1j copy took 8 MiB each (32 MiB peak).
        size = 1 << 19
        train = one_lane(golay(1), np.zeros(size, dtype=np.int64))
        thetas = np.array([-0.01, 0.0, 0.02])
        tracemalloc.start()
        try:
            sums = doppler._slot_phase_sums(train, thetas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 << 20
        direct = [np.exp(1j * theta * np.arange(size)).sum() for theta in thetas]
        np.testing.assert_allclose(sums[:, 0], direct, rtol=0, atol=1e-9 * size)
        assert not sums[:, 1].any()  # code 1 has no slots

    def test_magnitudes_filled_without_a_complex_grid(self):
        # N = 1024 and 512 thetas: the complex grid alone would take twice
        # the float magnitudes; only one theta block of it may exist at once.
        train = doppler.build_ptm_train(golay(10), 1)
        tracemalloc.start()
        try:
            surface = doppler.ambiguity_surface(train, -0.1, 0.1, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = 16 * doppler.PHASE_BLOCK
        assert peak < surface.magnitudes.nbytes + block + (1 << 20)

    def test_sidelobe_slope_tracks_null_order(self):
        # Leading surviving term is order M+1, so |g| ~ theta^(M+1).
        train = doppler.build_ptm_train(golay(), 1)
        slope = fitted_sidelobe_slope(train, 1e-3, 1e-2, samples=12)
        assert abs(slope - 2) <= 0.15


class TestTrainSerialization:
    def test_round_trip(self, tmp_path):
        train = one_lane(golay(), tuple(TRAIN_K2_M3), delay=2)
        path = tmp_path / "train.json"
        with open(path, "w") as fh:
            json.dump(train.to_json_dict(), fh)
        with open(path) as fh:
            back = doppler.PulseTrain.from_json_dict(json.load(fh))
        assert back == train
        assert back.ccm == train.ccm

    @pytest.mark.parametrize(
        "key,value",
        [("indices", [0, 1.0]), ("indices", [0, True]), ("delay", 2.9), ("delay", "2")],
    )
    def test_non_integers_refused(self, key, value):
        data = {**one_lane(golay(), (0, 1)).to_json_dict(), key: value}
        with pytest.raises(ValueError, match="must be integers"):
            doppler.PulseTrain.from_json_dict(data)
