"""Autocorrelation, complementarity, generators, and z-transform tests."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as stn

from dopwave import codes


def random_unimodular(rng, n):
    return np.exp(2j * np.pi * rng.random(n))


def naive_ztransform(x, z):
    """Oracle: term-by-term evaluation of sum x[n] z^-n."""
    return sum(v * z ** (-n) for n, v in enumerate(x))


def naive_acf(code):
    """Oracle: ACF(k) = vdot(x[k:], x[:N-k]) lag by lag, mirrored by conjugation."""
    x = np.asarray(code, dtype=complex)
    n = x.size
    positive = np.array([np.vdot(x[k:], x[: n - k]) for k in range(n)])
    return np.concatenate([np.conj(positive[:0:-1]), positive])


def random_phase_set(seed, order, n, k):
    phases = np.random.default_rng(seed).integers(0, order, (n, k))
    return codes.Ccm.from_phases(phases, order)


class TestAcf:
    def test_all_ones_pair(self):
        assert np.allclose(codes.acf([1, 1]), [1, 2, 1])

    def test_sign_flip_pair(self):
        assert np.allclose(codes.acf([1, -1]), [-1, 2, -1])

    def test_lag_orientation(self):
        # ACF(+1) = x[0] * conj(x[1]) sits at index N-1+1.
        out = codes.acf([1, 1j])
        assert np.isclose(out[2], -1j)
        assert np.isclose(out[0], 1j)

    @settings(max_examples=40, deadline=None)
    @given(stn.integers(1, 64), stn.integers(0, 2**32 - 1))
    def test_random_code_invariants(self, n, seed):
        x = random_unimodular(np.random.default_rng(seed), n)
        out = codes.acf(x)
        assert out.size == 2 * n - 1
        # Conjugate symmetry is exact: the negative half is built that way.
        assert np.array_equal(out[: n - 1], np.conj(out[n:][::-1]))
        assert abs(out[n - 1] - n) <= 1e-12 * n
        if n > 1:
            assert abs(abs(out[-1]) - 1) <= 1e-12

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            codes.acf([])

    @settings(max_examples=60, deadline=None)
    @given(stn.integers(2, 8), stn.integers(1, 512), stn.integers(0, 2**32 - 1))
    def test_fft_matches_direct_sum(self, order, n, seed):
        x = random_phase_set(seed, order, n, 1).code(0)
        assert np.max(np.abs(codes.acf(x) - naive_acf(x))) <= 1e-9 * n


class TestCodeAcfs:
    @settings(max_examples=60, deadline=None)
    @given(
        stn.sampled_from([1, 2, 4]),
        stn.integers(1, 512),
        stn.integers(1, 4),
        stn.integers(0, 2**32 - 1),
    )
    def test_exact_orders_equal_direct_sum(self, order, n, k, seed):
        ccm = random_phase_set(seed, order, n, k)
        direct = np.column_stack([naive_acf(ccm.code(c)) for c in range(k)])
        assert np.array_equal(codes.code_acfs(ccm), direct)

    def test_golay_pair_equals_direct_sum(self):
        ccm = codes.gen_golay_pair(10)
        direct = np.column_stack([naive_acf(ccm.code(c)) for c in range(2)])
        assert np.array_equal(codes.code_acfs(ccm), direct)

    def test_rounding_residual_guard(self, monkeypatch):
        monkeypatch.setattr(codes, "_acf_from_spectrum", lambda x, _, out: naive_acf(x) + 0.3)
        with pytest.raises(ArithmeticError):
            codes.code_acfs(codes.gen_golay_pair(3))

    def test_other_orders_stay_float(self):
        ccm = codes.gen_dft_set(3)
        direct = np.column_stack([naive_acf(ccm.code(c)) for c in range(3)])
        assert np.allclose(codes.code_acfs(ccm), direct, rtol=0, atol=1e-12)


class TestValidateCcm:
    def test_basic_pair_sidelobe_sums(self):
        total = codes.acf([1, 1]) + codes.acf([1, -1])
        assert np.allclose(total, [0, 4, 0])
        result = codes.validate_ccm([[1, 1], [1, -1]])
        assert result.is_ccm
        assert result.worst_sidelobe == 0.0

    def test_identical_codes_cannot_cancel(self):
        result = codes.validate_ccm([[1, 1], [1, 1]])
        assert not result.is_ccm
        assert np.isclose(result.worst_sidelobe, 2.0)

    def test_dft3_columns(self):
        result = codes.validate_ccm(codes.gen_dft_set(3))
        assert result.is_ccm
        assert result.worst_sidelobe <= 1e-9

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            codes.validate_ccm([[1, 1], [1, 1, 1]])

    def test_corrupted_set_detected(self):
        ccm = codes.gen_golay_pair(3)
        cols = np.array(ccm.columns)
        cols[0, 0] = -cols[0, 0]
        assert not codes.validate_ccm([cols[:, 0], cols[:, 1]]).is_ccm


class TestGolayGenerator:
    def test_first_doubling(self):
        ccm = codes.gen_golay_pair(1)
        assert ccm.columns.T.tolist() == [[1, 1], [1, -1]]

    def test_second_doubling(self):
        ccm = codes.gen_golay_pair(2)
        assert ccm.columns.T.real.tolist() == [[1, 1, 1, -1], [1, 1, -1, 1]]

    @pytest.mark.parametrize("exponent", range(1, 11))
    def test_every_exponent_validates(self, exponent):
        ccm = codes.gen_golay_pair(exponent)
        assert ccm.length == 2 ** exponent and ccm.count == 2
        assert codes.validate_ccm(ccm, 1e-12).is_ccm

    def test_entries_exactly_binary(self):
        ccm = codes.gen_golay_pair(6)
        assert np.all(np.isin(ccm.columns.real, (1.0, -1.0)))
        assert np.all(ccm.columns.imag == 0.0)

    def test_bounds(self):
        for bad in (0, 21):
            with pytest.raises(ValueError):
                codes.gen_golay_pair(bad)


class TestDftGenerator:
    def test_two_codes_is_basic_pair(self):
        ccm = codes.gen_dft_set(2)
        assert ccm.columns.T.tolist() == [[1, 1], [1, -1]]

    @pytest.mark.parametrize("count", [3, 4, 5, 8])
    def test_validates(self, count):
        ccm = codes.gen_dft_set(count)
        assert ccm.length == count and ccm.count == count
        assert codes.validate_ccm(ccm, 1e-9).is_ccm

    def test_bounds(self):
        for bad in (1, 65):
            with pytest.raises(ValueError):
                codes.gen_dft_set(bad)


class TestExactValidation:
    """Phase orders 1, 2 and 4 are judged on exact sums, whatever the tol."""

    def test_binary_pair_exact(self):
        result = codes.validate_ccm(codes.gen_golay_pair(3))
        assert result.is_ccm and result.worst_sidelobe == 0.0

    def test_quaternary_set_exact(self):
        result = codes.validate_ccm(codes.gen_dft_set(4))
        assert result.is_ccm and result.worst_sidelobe == 0.0

    def test_long_golay_pair_exact(self):
        result = codes.validate_ccm(codes.gen_golay_pair(16))
        assert result.is_ccm and result.worst_sidelobe == 0.0

    def test_tolerance_cannot_pass_a_non_complementary_set(self):
        # Two all-ones codes of length 3: summed ACF (2, 4, 6, 4, 2).
        ones = codes.Ccm.from_phases(np.zeros((3, 2), dtype=np.int64), 1)
        for tol in (1e-9, 3, 100):
            result = codes.validate_ccm(ones, tol)
            assert not result.is_ccm and result.worst_sidelobe == 4.0
        # The same codes stored as columns follow the tolerance.
        for columns in (codes.Ccm(ones.columns), [ones.code(0), ones.code(1)]):
            assert not codes.validate_ccm(columns, 3).is_ccm
            assert codes.validate_ccm(columns, 100).is_ccm

    def test_corrupted_phases_detected(self):
        good = codes.gen_golay_pair(2)
        phases = np.array(good.phases)
        phases[0, 0] ^= 1
        bad = codes.Ccm.from_phases(phases, 2)
        result = codes.validate_ccm(bad)
        assert not result.is_ccm and result.worst_sidelobe > 0

    def test_other_orders_follow_the_tolerance(self):
        # DFT-3's float sums leave a worst sidelobe of about 6.3e-16.
        ccm = codes.gen_dft_set(3)
        assert 0 < codes.validate_ccm(ccm).worst_sidelobe < 1e-15
        assert codes.validate_ccm(ccm, 1e-9).is_ccm
        assert not codes.validate_ccm(ccm, 1e-30).is_ccm


class TestZtransform:
    def test_sum_at_one(self):
        assert codes.ztransform_eval([1, 1], 1) == 2

    def test_alternating_at_minus_one(self):
        assert np.isclose(codes.ztransform_eval([1, -1], -1), 2)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            codes.ztransform_eval([1, 1], 0)

    @settings(max_examples=40, deadline=None)
    @given(stn.integers(1, 24), stn.integers(0, 2**32 - 1))
    def test_matches_naive_evaluation(self, n, seed):
        rng = np.random.default_rng(seed)
        x = random_unimodular(rng, n)
        z = np.exp(2j * np.pi * rng.random())
        horner = codes.ztransform_eval(x, z)
        assert abs(horner - naive_ztransform(x, z)) <= 1e-10 * n

    def test_energy_identity_on_pair(self):
        # |X(z)|^2 + |Y(z)|^2 = 2N on the unit circle for a complementary pair.
        ccm = codes.gen_golay_pair(3)
        rng = np.random.default_rng(11)
        for z in np.exp(2j * np.pi * rng.random(100)):
            total = sum(
                abs(codes.ztransform_eval(ccm.code(k), z)) ** 2 for k in range(2)
            )
            assert abs(total - 2 * ccm.length) <= 1e-9 * 2 * ccm.length


class TestEnergyIdentityEquivalence:
    """Summed-sidelobe cancellation and the unit-circle energy identity agree."""

    @staticmethod
    def identity_residual(columns, samples=64):
        cols = [np.asarray(c, complex) for c in columns]
        n, k = cols[0].size, len(cols)
        worst = 0.0
        for z in np.exp(2j * np.pi * np.arange(samples) / samples):
            total = sum(abs(codes.ztransform_eval(c, z)) ** 2 for c in cols)
            worst = max(worst, abs(total - n * k))
        return worst

    @pytest.mark.parametrize(
        "ccm", [codes.gen_golay_pair(2), codes.gen_golay_pair(3), codes.gen_dft_set(3)]
    )
    def test_passing_sets_satisfy_both(self, ccm):
        cols = [ccm.code(k) for k in range(ccm.count)]
        assert codes.validate_ccm(cols).is_ccm
        assert self.identity_residual(cols) <= 1e-9 * ccm.length * ccm.count

    def test_corrupted_sets_fail_both(self):
        ccm = codes.gen_golay_pair(3)
        cols = np.array(ccm.columns)
        cols[2, 1] *= -1
        broken = [cols[:, 0], cols[:, 1]]
        assert not codes.validate_ccm(broken).is_ccm
        assert self.identity_residual(broken) > 1e-9 * ccm.length * ccm.count


class TestCcmSerialization:
    def test_phase_codes_round_trip_bit_exact(self, tmp_path):
        for ccm in (codes.gen_golay_pair(4), codes.gen_dft_set(3)):
            path = tmp_path / "set.json"
            with open(path, "w") as fh:
                json.dump(ccm.to_json_dict(), fh)
            with open(path) as fh:
                back = codes.Ccm.from_json_dict(json.load(fh))
            assert back == ccm
            assert np.array_equal(back.phases, ccm.phases)

    def test_float_columns_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        cols = np.column_stack([random_unimodular(rng, 5) for _ in range(3)])
        ccm = codes.Ccm(cols)
        path = tmp_path / "set.json"
        with open(path, "w") as fh:
            json.dump(ccm.to_json_dict(), fh)
        with open(path) as fh:
            back = codes.Ccm.from_json_dict(json.load(fh))
        assert back == ccm  # json floats round-trip via repr

    def test_json_shape(self):
        data = codes.gen_golay_pair(1).to_json_dict()
        assert data == {"N": 2, "K": 2, "phaseOrder": 2, "phases": [[0, 0], [0, 1]]}

    def test_declared_sizes_checked(self):
        data = codes.gen_golay_pair(1).to_json_dict()
        data["N"] = 5
        with pytest.raises(ValueError):
            codes.Ccm.from_json_dict(data)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("N", 2.0),
            ("K", "2"),
            ("phaseOrder", 2.5),
            ("phases", [[0, 0.0], [0, 1]]),
            ("phases", [[0, 0], [0, True]]),
        ],
    )
    def test_non_integers_refused(self, key, value):
        data = {**codes.gen_golay_pair(1).to_json_dict(), key: value}
        with pytest.raises(ValueError, match="must be integers"):
            codes.Ccm.from_json_dict(data)

    def test_non_object_refused(self):
        with pytest.raises(TypeError, match="JSON object"):
            codes.Ccm.from_json_dict([1])

    def test_load_peak_is_bounded_by_the_entries(self):
        # The unit-magnitude deviations and the phase check's differences
        # are formed in place: at most 5x the complex entries' bytes.
        data = codes.gen_golay_pair(16).to_json_dict()
        tracemalloc.start()
        try:
            ccm = codes.Ccm.from_json_dict(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * ccm.columns.nbytes

    def test_construction_guards(self):
        with pytest.raises(ValueError):
            codes.Ccm(np.array([[0.5], [1.0]]))  # not unimodular
        with pytest.raises(ValueError):
            codes.Ccm(np.ones((2, 1), complex), phase_order=2)  # phases missing
        with pytest.raises(ValueError):
            codes.Ccm(
                np.ones((2, 1), complex),
                phase_order=2,
                phases=np.array([[1], [1]]),  # says -1, entries are +1
            )

    @pytest.mark.parametrize("order", [0, -2])
    def test_phase_order_below_one_refused(self, order):
        # Refused before any `%` or division, so numpy warns of nothing.
        data = {"N": 2, "K": 2, "phaseOrder": order, "phases": [[0, 0], [0, 1]]}
        with pytest.raises(ValueError, match="phase_order must be positive"):
            codes.Ccm.from_json_dict(data)
        with pytest.raises(ValueError, match="phase_order must be positive"):
            codes.Ccm(np.ones((1, 1), complex), phase_order=order, phases=[[0]])

    @pytest.mark.parametrize("bad", [np.nan, complex(0, np.nan)])
    def test_non_finite_entries_refused(self, bad):
        cols = np.array([[bad, 1], [1, -1]], dtype=complex)
        with pytest.raises(ValueError, match="unit magnitude"):
            codes.Ccm(cols)
