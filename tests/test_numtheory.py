"""Exact-arithmetic tests for digit sums, partitions, and sign transforms."""

import itertools
import json
import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as stn

from dopwave import numtheory as nt
from dopwave import stagger

# Known prefixes of the mod-p sequences for p = 2, 3, 4.
PTM_P2_16 = [0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0]
PTM_P3_18 = [0, 1, 2, 1, 2, 0, 2, 0, 1, 1, 2, 0, 2, 0, 1, 0, 1, 2]
PTM_P4_20 = [0, 1, 2, 3, 1, 2, 3, 0, 2, 3, 0, 1, 3, 0, 1, 2, 1, 2, 3, 0]

PART_P2_M3 = (
    (0, 3, 5, 6, 9, 10, 12, 15),
    (1, 2, 4, 7, 8, 11, 13, 14),
)
PART_P3_M2 = (
    (0, 5, 7, 11, 13, 15, 19, 21, 26),
    (1, 3, 8, 9, 14, 16, 20, 22, 24),
    (2, 4, 6, 10, 12, 17, 18, 23, 25),
)
PART_P4_M2 = (
    (0, 7, 10, 13, 19, 22, 25, 28, 34, 37, 40, 47, 49, 52, 59, 62),
    (1, 4, 11, 14, 16, 23, 26, 29, 35, 38, 41, 44, 50, 53, 56, 63),
    (2, 5, 8, 15, 17, 20, 27, 30, 32, 39, 42, 45, 51, 54, 57, 60),
    (3, 6, 9, 12, 18, 21, 24, 31, 33, 36, 43, 46, 48, 55, 58, 61),
)

ESP_DEG2 = ((0, 4, 5), (1, 2, 6))
ESP_DEG3 = ((0, 4, 7, 11), (1, 2, 9, 10))
ESP_DEG4 = ((0, 4, 8, 16, 17), (1, 2, 10, 14, 18))
ESP_DEG5 = ((0, 5, 6, 16, 17, 22), (1, 2, 10, 12, 20, 21))


# Every partition of a few small searches, and the built-in ones.
ESP_FAMILY = [
    *nt.esp_search(range(8), 2, 2),
    *nt.esp_search(range(9), 3, 1),
    *nt.esp_search(range(12), 3, 1),
    *nt.esp_search(range(16), 2, 3),
    *(stagger.builtin_partition(degree) for degree in (2, 3, 5)),
]


def brute_force_balanced_splits(universe, degree, p=2):
    """Oracle: all equal-size p-block equal-power-sum splits, in search order.

    Block j holds the least value not in blocks 0..j-1 (the search's
    symmetry break), and the splits are sorted by the block index of each
    sorted value, which is the order the depth-first search emits them in.
    """
    elems = sorted(universe)
    size = len(elems) // p

    def splits(rest):
        if not rest:
            yield ()
            return
        for combo in itertools.combinations(rest[1:], size - 1):
            block = (rest[0], *combo)
            for tail in splits([e for e in rest if e not in block]):
                yield (block, *tail)

    def assignment(blocks):
        return [next(j for j, b in enumerate(blocks) if e in b) for e in elems]

    out = [
        blocks
        for blocks in splits(elems)
        if all(
            len({sum(e ** m for e in b) for b in blocks}) == 1
            for m in range(1, degree + 1)
        )
    ]
    return sorted(out, key=assignment)


class TestDigitSum:
    def test_known_values(self):
        assert nt.digit_sum_mod(3, 2) == 0
        assert nt.digit_sum_mod(5, 3) == 0
        assert nt.digit_sum_mod(7, 10) == 7

    def test_identity_below_base(self):
        for p in range(2, 12):
            for n in range(p):
                assert nt.digit_sum_mod(n, p) == n

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            nt.digit_sum_mod(5, 1)
        with pytest.raises(ValueError):
            nt.digit_sum_mod(-1, 2)

    @given(stn.integers(2, 6), stn.integers(0, 10**6), stn.integers(0, 5))
    def test_base_recurrence(self, p, n, r):
        # Appending digit r: symbol advances by r mod p.
        r = r % p
        assert nt.digit_sum_mod(p * n + r, p) == (nt.digit_sum_mod(n, p) + r) % p


class TestPtmSequence:
    def test_known_prefixes(self):
        assert nt.ptm_sequence(2, 16) == PTM_P2_16
        assert nt.ptm_sequence(3, 18) == PTM_P3_18
        assert nt.ptm_sequence(4, 20) == PTM_P4_20

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            nt.ptm_sequence(2, 0)

    def test_rejects_base_one(self):
        with pytest.raises(ValueError, match="base must be at least 2, got 1"):
            nt.ptm_sequence(1, 4)


class TestPowerSumsKernel:
    """The private all-orders kernel against the per-order oracle."""

    @settings(max_examples=100, deadline=None)
    @given(
        stn.lists(stn.one_of(stn.integers(0, 3), stn.integers(0, 1 << 20)), max_size=40),
        stn.integers(0, 32),
    )
    @example([], 0)
    @example([], 32)
    @example([0, 0, 0], 0)
    @example([0, 5, 5, 1 << 20], 32)
    # Not int64 (float64, uint64) or repeated: each sums its own values.
    @example([-1, 2**63], 5)
    @example([2**63, 2**63 + 1], 5)
    @example([0, 1, 2, 2, 3], 32)
    @example((0, 1, 3, 4, 5), 32)  # dense: the range's sums less slot 2's
    def test_matches_power_sum_at_every_order(self, values, max_order):
        sums = nt._power_sums(values, max_order)
        assert sums == [nt.power_sum(values, m) for m in range(max_order + 1)]
        assert all(type(s) is int for s in sums)

    @settings(max_examples=60, deadline=None)
    @given(
        stn.lists(stn.integers(0, 1 << 20), max_size=12),
        stn.integers(0, 32),
        stn.integers(1, 5),
    )
    @example([], 3, 1)
    @example([7, 0, 3], 4, 2)
    def test_chunks_sum_to_the_whole(self, values, max_order, chunk):
        # A chunk of a few values puts chunk boundaries inside short inputs.
        with mock.patch.object(nt, "POWER_CHUNK", chunk):
            sums = nt._power_sums(values, max_order)
            # An int64 array's slices become Python ints before any power.
            array_sums = nt._power_sums(np.array(values, dtype=np.int64), max_order)
        assert sums == [nt.power_sum(values, m) for m in range(max_order + 1)]
        assert array_sums == sums
        assert all(type(s) is int for s in sums + array_sums)

    @pytest.mark.parametrize(
        "values,max_order,inner",
        [
            # Fills 3 of 0..3, none twice: its gap.
            (np.array([0, 1, 3]), 6, [[2]]),
            # Fills 17 of 0..19: one inner pass, over its three gaps.
            (np.setdiff1d(np.arange(20), [3, 11, 17]), 32, [[3, 11, 17]]),
            # Repeats slot 1: its own values.
            (np.array([0, 1, 2, 1]), 6, []),
            # Fills exactly half of 0..3: its own values.
            (np.array([1, 3]), 6, []),
            # Ints of another type: their own values.
            (np.array([0, 1, 3], dtype=np.uint64), 6, []),
            # Above MAX_TAYLOR_ORDER, where range sums cost about max_order^2/2.
            (np.array([0, 1, 3]), nt.MAX_TAYLOR_ORDER + 1, []),
        ],
        ids=["complement", "sparse-gaps", "repeated", "exactly-half", "uint64",
             "over-the-cap"],
    )
    def test_each_branch(self, monkeypatch, values, max_order, inner):
        kernel, calls = nt._power_sums, []

        def counted(values, max_order):
            calls.append(list(values))
            return kernel(values, max_order)

        monkeypatch.setattr(nt, "_power_sums", counted)
        sums = kernel(values, max_order)
        assert calls == inner
        assert sums == [nt.power_sum(values, m) for m in range(max_order + 1)]
        assert all(type(s) is int for s in sums)

    @pytest.mark.parametrize(
        "stop", [0, 1, 2, *(2**k + d for k in range(1, 11) for d in (-1, 1))]
    )
    def test_range_sums_match_power_sum(self, stop):
        sums = nt._range_power_sums(stop, 64)
        assert sums == [nt.power_sum(range(stop), m) for m in range(65)]
        assert all(type(s) is int for s in sums)
        for max_order in (-1, 0, 1, 16, 32):  # a prefix of the same sums
            assert nt._range_power_sums(stop, max_order) == sums[: max_order + 1]

    @pytest.mark.parametrize("p,levels", [(2, 20), (3, 12), (5, 8)])
    def test_range_sums_match_the_digit_dp(self, p, levels):
        # The PTM symbols split range(p^levels): their weights add up to it.
        weights = nt._ptm_weights(p, levels, 32)
        assert [sum(row) for row in weights] == nt._range_power_sums(p**levels, 32)


class TestPtmKernel:
    """The private numpy sequence and digit-DP weights against the oracles."""

    @given(stn.integers(2, 5), stn.integers(1, 4096))
    def test_sequence_matches_digit_sums(self, p, length):
        expected = [nt.digit_sum_mod(n, p) for n in range(length)]
        assert nt._ptm_array(p, length).tolist() == expected
        assert nt.ptm_sequence(p, length) == expected

    @settings(max_examples=40, deadline=None)
    @given(stn.data())
    def test_weights_match_power_sums(self, data):
        p = data.draw(stn.integers(2, 5))
        levels = data.draw(stn.integers(1, int(np.log(4096) / np.log(p) + 1e-9)))
        max_order = data.draw(stn.integers(0, 32))
        blocks = [[] for _ in range(p)]
        for n in range(p**levels):
            blocks[nt.digit_sum_mod(n, p)].append(n)
        expected = [[nt.power_sum(b, m) for b in blocks] for m in range(max_order + 1)]
        assert nt._ptm_weights(p, levels, max_order) == expected

    def test_weights_at_the_train_cap_are_exact_ints(self):
        length, degree = 1 << 20, 19
        weights = nt._ptm_weights(2, 20, 32)
        assert all(type(w) is int for row in weights for w in row)
        assert sum(weights[0]) == length
        assert sum(weights[1]) == length * (length - 1) // 2
        assert sum(weights[2]) == (length - 1) * length * (2 * length - 1) // 6
        assert all(row[0] == row[1] for row in weights[: degree + 1])
        assert weights[degree + 1][0] != weights[degree + 1][1]

    def test_size_cap_partition_and_sum_are_fast(self):
        start = time.perf_counter()
        part = nt.ptm_partition(2, 21)
        assert time.perf_counter() - start < 1.0
        total = part.prouhet_sums[5]
        assert len(part.blocks[0]) == 1 << 21
        # Degree 21 >= 5: both blocks share the fifth power sum, half the
        # range's, which is s^2 (s+1)^2 (2s^2 + 2s - 1) / 12 up to s (Faulhaber).
        s = (1 << 22) - 1
        assert 2 * total == s**2 * (s + 1) ** 2 * (2 * s**2 + 2 * s - 1) // 12


class TestPtmPartition:
    def test_known_blocks(self):
        assert nt.ptm_partition(2, 3).blocks == PART_P2_M3
        assert nt.ptm_partition(3, 2).blocks == PART_P3_M2
        assert nt.ptm_partition(4, 2).blocks == PART_P4_M2

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_structure_and_power_sums(self, p, degree):
        size = p ** (degree + 1)
        if size > 1024:
            pytest.skip("outside the swept range")
        part = nt.ptm_partition(p, degree)
        seen = sorted(n for block in part.blocks for n in block)
        assert seen == list(range(size))  # disjoint and exhaustive
        assert all(len(block) == p ** degree for block in part.blocks)
        for m in range(1, degree + 1):
            sums = {nt.power_sum(block, m) for block in part.blocks}
            assert len(sums) == 1

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_blocks_tile_full_range_sums(self, p, degree):
        size = p ** (degree + 1)
        if size > 1024:
            pytest.skip("outside the swept range")
        sums = nt.ptm_partition(p, degree).prouhet_sums
        for m in range(1, degree + 1):
            assert sums[m] * p == nt.power_sum(range(size), m)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            nt.ptm_partition(2, 40)

    @pytest.mark.parametrize("p,degree,message", [
        pytest.param(1, 2, "base must be at least 2, got 1", id="1-2"),
        pytest.param(2, 0, "degree must be positive, got 0", id="2-0"),
        pytest.param(2, 40, r"partition size 2\^41 exceeds cap", id="2-40"),
    ])
    def test_bad_base_and_degree_refused(self, p, degree, message):
        with pytest.raises(ValueError, match=message):
            nt.ptm_partition(p, degree)

    @pytest.mark.parametrize("p", [2, 64])
    def test_huge_degree_refused_before_the_power(self, p):
        with pytest.raises(ValueError, match=rf"size {p}\^100000001 exceeds cap"):
            nt.ptm_partition(p, 10**8)

    @pytest.mark.parametrize("p,degree", [(2, 1), (2, 3), (3, 2), (4, 2), (5, 1)])
    def test_is_an_esp_partition_with_checked_sums(self, p, degree):
        part = nt.ptm_partition(p, degree)
        assert type(part) is nt.EspPartition
        assert part.p == p and part.degree == degree
        check = nt.esp_check(part.blocks, degree)
        assert check.is_esp and part.prouhet_sums == check.prouhet_sums
        assert nt.EspPartition.from_blocks(part.blocks, degree) == part

    def test_json_dict(self):
        data = nt.ptm_partition(2, 3).to_json_dict()
        assert data["p"] == 2 and data["M"] == 3
        assert data["blocks"][0] == list(PART_P2_M3[0])
        assert data["prouhetSums"][1] == 60
        json.dumps(data)  # serializable


class TestPowerSums:
    def test_block_sum(self):
        assert nt.power_sum(PART_P2_M3[0], 1) == 60  # 0+3+5+6+9+10+12+15

    def test_empty_sum(self):
        assert nt.power_sum((), 3) == 0

    def test_degree_two_pair(self):
        assert nt.power_sum((0, 4, 5), 2) == 41
        assert nt.power_sum((1, 2, 6), 2) == 41

    def test_zero_power_counts_elements(self):
        assert nt.power_sum((0, 1, 2), 0) == 3

    def test_negative_power_refused(self):
        with pytest.raises(ValueError, match="power must be non-negative, got -1"):
            nt.power_sum([1], -1)

    def test_numpy_ints_do_not_wrap(self):
        # int64 powers would wrap 2^80 to 0 without a warning.
        assert nt.power_sum(np.array([1 << 20, 3]), 4) == 2**80 + 81
        assert type(nt.power_sum(np.array([2, 3], dtype=np.uint8), 9)) is int

    def test_prouhet_values(self):
        sums = nt.ptm_partition(2, 3).prouhet_sums
        assert sums[1] == 60
        assert nt.ptm_partition(3, 2).prouhet_sums[0] == 9
        s0, s1 = PART_P2_M3
        assert sums[2] == nt.power_sum(s0, 2) == nt.power_sum(s1, 2)


class TestEspCheck:
    @pytest.mark.parametrize(
        "blocks,degree",
        [(ESP_DEG2, 2), (ESP_DEG3, 3), (ESP_DEG5, 5)],
    )
    def test_known_partitions(self, blocks, degree):
        result = nt.esp_check(blocks, degree)
        assert result.is_esp
        assert result.prouhet_sums[0] == len(blocks[0])

    def test_degree_two_pair_fails_at_three(self):
        assert not nt.esp_check(ESP_DEG2, 3).is_esp

    def test_multiset_blocks(self):
        # Repeats count: doubling every element doubles every power sum.
        doubled = tuple(b + b for b in ESP_DEG2)
        assert nt.esp_check(doubled, 2).is_esp

    @settings(max_examples=60, deadline=None)
    @given(
        stn.sampled_from(ESP_FAMILY), stn.integers(1, 10**6), stn.integers(0, 10**6)
    )
    def test_affine_map_keeps_equal_power_sums(self, partition, a, b):
        # sum (a*x + b)^m = sum_i C(m, i) a^i b^(m-i) P_i over every block.
        mapped = [[a * x + b for x in block] for block in partition.blocks]
        result = nt.esp_check(mapped, partition.degree)
        assert result.is_esp
        for m, sum_m in enumerate(result.prouhet_sums):
            assert sum_m == sum(
                math.comb(m, i) * a**i * b ** (m - i) * partition.prouhet_sums[i]
                for i in range(m + 1)
            )

    def test_needs_two_blocks(self):
        with pytest.raises(ValueError):
            nt.esp_check([ESP_DEG2[0]], 2)

    def test_partition_rejects_negative_slots(self):
        with pytest.raises(ValueError):
            nt.EspPartition.from_blocks(((-1, 2), (0, 1)), 1)

    def test_block_sizes_must_agree(self):
        # Both blocks sum to 3 at m = 1, but three slots are not one.
        result = nt.esp_check(((0, 1, 2), (3,)), 1)
        assert not result.is_esp and result.prouhet_sums == (3, 3)
        with pytest.raises(ValueError, match="do not share power sums up to degree 1"):
            nt.EspPartition.from_blocks(((0, 1, 2), (3,)), 1)

    def test_partition_rejects_empty_blocks(self):
        # Empty multisets share every power sum, so esp_check passes them.
        assert nt.esp_check(((), ()), 1).is_esp
        for blocks in (((), ()), ((), (0,))):
            with pytest.raises(ValueError, match="blocks must not be empty"):
                nt.EspPartition.from_blocks(blocks, 1)

    @pytest.mark.parametrize("degree", [0, -1])
    def test_degree_below_one_refused(self, degree):
        message = f"degree must be positive, got {degree}"
        with pytest.raises(ValueError, match=message):
            nt.esp_check(ESP_DEG2, degree)
        with pytest.raises(ValueError, match=message):
            nt.EspPartition.from_blocks(ESP_DEG2, degree)


class TestEspSearch:
    def test_recovers_known_degree2_partition(self):
        found = nt.esp_search({0, 1, 2, 4, 5, 6}, 2, 2)
        assert ESP_DEG2 in [p.blocks for p in found]

    def test_tiny_universe_has_no_solution(self):
        assert nt.esp_search({0, 1}, 2, 1) == []

    @pytest.mark.parametrize("universe,message", [
        ([0, 0, 1, 2], "must not contain duplicate values"),
        ([-1, 0, 1, 2], "values must be non-negative"),
    ], ids=["duplicate", "negative"])
    def test_rejects_bad_universe_values(self, universe, message):
        with pytest.raises(ValueError, match=message):
            nt.esp_search(universe, 2, 1)

    def test_matches_brute_force_on_octave(self):
        oracle = brute_force_balanced_splits(range(8), 2)
        found = nt.esp_search(range(8), 2, 2)
        assert sorted(p.blocks for p in found) == sorted(oracle)
        assert ((0, 3, 5, 6), (1, 2, 4, 7)) in [p.blocks for p in found]

    def test_all_results_pass_check(self):
        for part in nt.esp_search(range(8), 2, 2):
            assert nt.esp_check(part.blocks, 2).is_esp
            assert part.prouhet_sums == nt.esp_check(part.blocks, 2).prouhet_sums

    def test_three_blocks(self):
        found = nt.esp_search(range(9), 3, 1)
        assert found, "9 slots split 3 ways with equal sums must exist"
        for part in found:
            assert nt.esp_check(part.blocks, 1).is_esp
            assert 0 in part.blocks[0]  # symmetry break pins the minimum

    def test_max_solutions_truncates_deterministically(self):
        full = nt.esp_search(range(8), 2, 1)
        first_two = nt.esp_search(range(8), 2, 1, max_solutions=2)
        assert [p.blocks for p in first_two] == [p.blocks for p in full[:2]]

    def test_search_bound_enforced(self):
        with pytest.raises(ValueError):
            nt.esp_search(range(32), 2, 2)

    @pytest.mark.parametrize(
        "universe,p,degree", [(range(24), 2, 12), (range(9), 3, 3), (range(24), 2, 10**5)]
    )
    def test_degree_at_block_size_returns_empty_without_work(
        self, monkeypatch, universe, p, degree
    ):
        # The power sums are the search's first work after that early return.
        def refuse(values, max_order):
            raise AssertionError("power sums computed for an impossible degree")

        monkeypatch.setattr(nt, "_power_sums", refuse)
        assert nt.esp_search(universe, p, degree) == []

    def test_degree_below_block_size_still_searched(self):
        # Blocks of 8 out of 0..15 share power sums up to degree 3 (PTM split).
        found = nt.esp_search(range(16), 2, 3)
        assert [p.blocks for p in found] == [nt.ptm_partition(2, 3).blocks]

    @pytest.mark.parametrize(
        "data",
        [
            {"M": 1, "blocks": [[0, 3.0], [1, 2]]},
            {"M": True, "blocks": [[0, 3], [1, 2]]},
            {"M": 1, "blocks": [[0, "3"], [1, 2]]},
        ],
    )
    def test_json_reader_refuses_non_integers(self, data):
        with pytest.raises(ValueError, match="must be integers"):
            nt.EspPartition.from_json_dict(data)

    def test_json_reader_refuses_a_degree_over_the_cap_before_any_sum(
        self, monkeypatch
    ):
        def refuse(values, max_order):
            raise AssertionError("power sums computed for a degree over the cap")

        monkeypatch.setattr(nt, "_power_sums", refuse)
        data = {"M": 10**5, "blocks": [[0, 3], [1, 2]]}
        with pytest.raises(ValueError, match="degree must be at most 32, got 100000"):
            nt.EspPartition.from_json_dict(data)

    @pytest.mark.parametrize(
        "declared,message",
        [
            ({"p": 3}, "declared p=3 but 2 blocks"),
            ({"prouhetSums": [2, 4]}, r"declared prouhetSums differ .* \[2, 3\]"),
        ],
        ids=["p", "prouhetSums"],
    )
    def test_json_reader_refuses_contradicting_declarations(self, declared, message):
        data = nt.EspPartition.from_blocks(((0, 3), (1, 2)), 1).to_json_dict()
        assert nt.EspPartition.from_json_dict(data).p == 2
        del data["prouhetSums"]  # optional: a file may leave the sums out
        assert nt.EspPartition.from_json_dict(data).prouhet_sums == (2, 3)
        with pytest.raises(ValueError, match=message):
            nt.EspPartition.from_json_dict({**data, **declared})

    def test_rejects_indivisible_universe(self):
        with pytest.raises(ValueError):
            nt.esp_search(range(7), 2, 1)

    @settings(max_examples=100, deadline=None)
    @given(
        stn.sampled_from([2, 3, 4]),
        stn.sets(stn.integers(0, 20), min_size=4, max_size=12)
        # Affine images of ESP solutions of degree 3 to 5, so that the cuts
        # at m >= 3 meet solutions they must keep.
        | stn.builds(
            lambda blocks, shift, scale: {shift + scale * v for b in blocks for v in b},
            stn.sampled_from([ESP_DEG3, ESP_DEG4, ESP_DEG5]),
            stn.integers(0, 9),
            stn.integers(1, 3),
        ),
        stn.integers(1, 5),  # the Cauchy-Schwarz cut at odd m > 1 needs M >= 4
        stn.none() | stn.integers(1, 3),
    )
    def test_matches_brute_force_in_order(self, p, values, degree, max_solutions):
        universe = sorted(values)[: len(values) // p * p]
        found = nt.esp_search(universe, p, degree, max_solutions)
        oracle = brute_force_balanced_splits(universe, degree, p)
        assert [part.blocks for part in found] == oracle[:max_solutions]

    def test_rejects_blocks_that_miss_by_opposite_amounts(self):
        # 70 three-way splits of these 12 values have one block on target
        # and the other two off by +d and -d, such as the one below; none
        # may be reported.
        universe = (0, 1, 3, 4, 5, 6, 7, 10, 11, 13, 14, 16)
        near = ((0, 1, 4, 7), (3, 5, 6, 16), (10, 11, 13, 14))
        sums = [[nt.power_sum(b, m) for m in (1, 2)] for b in near]
        assert sums == [[12, 66], [30, 326], [48, 586]]  # targets 30, 326
        assert nt.esp_search(universe, 3, 2) == []
        assert brute_force_balanced_splits(universe, 2, 3) == []

    def test_bounds_keep_the_node_count_small(self, monkeypatch):
        # Cutting only on overshoot, this search visits 1,286,428 nodes, and
        # with interval bounds on the raw values alone 78,141.
        monkeypatch.setattr(nt, "MAX_SEARCH_NODES", 261)
        assert nt.esp_search(range(24), 2, 5) == []

    def test_schwarz_bound_ends_a_deep_search_at_once(self, monkeypatch):
        # Interval bounds alone visit 802,540 nodes here.
        monkeypatch.setattr(nt, "MAX_SEARCH_NODES", 100)
        assert nt.esp_search(range(28), 2, 8) == []

    def test_node_budget_is_exact_and_never_truncates(self, monkeypatch):
        # This search visits exactly 260 nodes and finds 9 partitions.
        monkeypatch.setattr(nt, "MAX_SEARCH_NODES", 260)
        assert len(nt.esp_search(range(18), 3, 2)) == 9
        monkeypatch.setattr(nt, "MAX_SEARCH_NODES", 259)
        with pytest.raises(ValueError, match="budget of 259 nodes"):
            nt.esp_search(range(18), 3, 2)
        assert len(nt.esp_search(range(18), 3, 2, max_solutions=1)) == 1

    @settings(max_examples=25, deadline=None)
    @given(stn.sets(stn.integers(0, 11), min_size=4, max_size=6))
    def test_search_output_always_verifies(self, universe):
        if len(universe) % 2:
            universe = set(list(universe)[:-1])
        if len(universe) < 4:
            return
        for part in nt.esp_search(universe, 2, 1):
            assert nt.esp_check(part.blocks, 1).is_esp


class TestWeightTable:
    def test_two_symbol_rows(self):
        assert nt.weight_table(2).tolist() == [[1, 1], [1, -1]]

    def test_three_symbol_rows(self):
        assert nt.weight_table(3).tolist() == [
            [1, 1, 1],
            [1, 1, -1],
            [1, -1, 1],
            [1, -1, -1],
        ]

    @pytest.mark.parametrize("p", range(2, 13))
    def test_rows_are_the_bit_signs(self, p):
        rows = nt.weight_table(p)
        assert isinstance(rows, np.ndarray)
        assert rows.dtype == np.int8 and not rows.flags.writeable
        assert rows.tolist() == [
            [(-1) ** ((i >> (p - 1 - v)) & 1) for v in range(p)]
            for i in range(1 << (p - 1))
        ]

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    def test_row_zero_is_all_ones(self, p):
        assert (nt.weight_table(p)[0] == 1).all()

    def test_classical_sign_sequence(self):
        # Row 1 at p=2, evaluated along n, is the +/-1 Thue-Morse sequence.
        rows = nt.weight_table(2)
        signs = [rows[1, nt.digit_sum_mod(n, 2)] for n in range(16)]
        assert signs == [1 if s == 0 else -1 for s in PTM_P2_16]

    def test_bounds(self):
        with pytest.raises(ValueError):
            nt.weight_table(1)
        with pytest.raises(ValueError):
            nt.weight_table(21)


class TestTransforms:
    def test_two_symbol_forward(self):
        a0, a1 = 1.5 + 2j, -0.25 + 1j
        out = nt.forward_transform([a0, a1])
        assert np.allclose(out, [a0 + a1, a0 - a1], rtol=0, atol=1e-15)

    def test_three_symbol_forward(self):
        a0, a1, a2 = 2.0 - 1j, 0.5j, -3.0
        out = nt.forward_transform([a0, a1, a2])
        expected = [a0 + a1 + a2, a0 + a1 - a2, a0 - a1 + a2, a0 - a1 - a2]
        assert np.allclose(out, expected, rtol=0, atol=1e-15)

    def test_all_ones(self):
        assert np.allclose(nt.forward_transform([1, 1]), [2, 0])

    def test_two_symbol_inverse(self):
        assert np.allclose(nt.inverse_transform([2, 0]), [1, 1])

    def test_three_symbol_inverse_formula(self):
        b = np.array([1.0 + 1j, 2.0, -1.0j, 0.5])
        out = nt.inverse_transform(b)
        assert np.isclose(out[0], b.sum() / 4)

    @settings(max_examples=60, deadline=None)
    @given(
        stn.integers(2, 6),
        stn.integers(0, 2**32 - 1),
    )
    def test_round_trip(self, p, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(p) + 1j * rng.standard_normal(p)
        back = nt.inverse_transform(nt.forward_transform(a))
        assert np.max(np.abs(back - a)) <= 1e-12 * max(1.0, np.max(np.abs(a)))

    @pytest.mark.parametrize("p", range(2, 11))
    def test_exact_on_gaussian_integers(self, p):
        # Small Gaussian integers keep every sum, and the division by
        # 2^(p-1), exact in float64: the results are pinned bit for bit.
        rng = np.random.default_rng(p)
        a = rng.integers(-9, 10, p) + 1j * rng.integers(-9, 10, p)
        b = nt.forward_transform(a)
        assert b.tolist() == [
            sum(int(s) * x for s, x in zip(row, a.tolist()))
            for row in nt.weight_table(p)
        ]
        assert nt.inverse_transform(b).tolist() == a.tolist()

    def test_length_mismatch(self):
        # The matrix comes from the length: one scalar is no symbol set; 0
        # and 3 are no power of two and 1 = 2^0 would mean a single symbol.
        with pytest.raises(ValueError, match="symbol count"):
            nt.forward_transform([1])
        for length in (0, 1, 3):
            with pytest.raises(ValueError):
                nt.inverse_transform(np.ones(length))

    @pytest.mark.parametrize("call", [
        nt.forward_transform, nt.inverse_transform,
        lambda values: nt.sidelobe_split_check(values, 1),
    ], ids=["forward", "inverse", "sidelobe-split"])
    def test_two_dimensional_input_refused(self, call):
        with pytest.raises(ValueError, match="expected a 1-D array of scalars"):
            call(np.ones((2, 2)))


class TestSidelobeSplit:
    @staticmethod
    def brute_force_sides(values, degree):
        """Oracle: plain-Python evaluation of both sides of the identity."""
        p = len(values)
        rows = nt.weight_table(p)
        b = [
            sum(int(rows[i, v]) * values[v] for v in range(p))
            for i in range(1 << (p - 1))
        ]
        size = p ** (degree + 1)
        block = nt.ptm_partition(p, degree).blocks[0]
        lhs = []
        rhs = []
        for m in range(1, degree + 1):
            total = 0j
            for n in range(size):
                v = nt.digit_sum_mod(n, p)
                s_n = sum(
                    int(rows[i, v]) * b[i] for i in range(1, 1 << (p - 1))
                )
                total += n ** m * s_n
            lhs.append(total)
            n_m = (1 << (p - 1)) * nt.power_sum(block, m) - sum(
                n ** m for n in range(size)
            )
            rhs.append(n_m * b[0])
        return lhs, rhs

    @pytest.mark.parametrize("p", [2, 3, 4])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_random_inputs_satisfy_identity(self, p, degree):
        rng = np.random.default_rng(7 * p + degree)
        for _ in range(5):
            a = rng.standard_normal(p) + 1j * rng.standard_normal(p)
            report = nt.sidelobe_split_check(a, degree)
            assert report.residuals.max() <= 1e-9

    def test_three_symbol_example(self):
        report = nt.sidelobe_split_check([1.0, 1.0j, -1.0], 2)
        assert report.residuals.max() <= 1e-9
        lhs, rhs = self.brute_force_sides([1.0, 1.0j, -1.0], 2)
        for left, right in zip(lhs, rhs):
            assert abs(left - right) <= 1e-9 * max(1.0, abs(right))

    @pytest.mark.parametrize("p,degree", [(2, 1), (2, 5), (3, 2), (4, 2), (5, 1)])
    def test_exact_on_gaussian_integers(self, p, degree):
        # Small Gaussian integers keep both sides exact in float64, so the
        # identity holds with residuals of exactly 0: pinned bit for bit.
        rng = np.random.default_rng(p + degree)
        a = rng.integers(-9, 10, p) + 1j * rng.integers(-9, 10, p)
        report = nt.sidelobe_split_check(a, degree)
        assert report.residuals.tolist() == [0.0] * degree
        size = p ** (degree + 1)
        block = nt.ptm_partition(p, degree).blocks[0]
        assert report.n_coefficients == tuple(
            (1 << (p - 1)) * nt.power_sum(block, m)
            - sum(n ** m for n in range(size))
            for m in range(1, degree + 1)
        )

    def test_equal_entries(self):
        # With identical inputs the identity holds whatever the symbol count;
        # for p=2 both sides are exactly zero.
        for p in (2, 3, 4):
            report = nt.sidelobe_split_check([0.7 - 0.2j] * p, 2)
            assert report.residuals.max() <= 1e-12
        two = nt.sidelobe_split_check([1.0, 1.0], 3)
        assert all(n == 0 for n in two.n_coefficients)

    def test_coefficient_values(self):
        # N_m = 2^(p-1) P_m - sum n^m; check a hand-computed case (p=2, M=1):
        # P_1 = 3, range sum = 6, so N_1 = 2*3 - 6 = 0.
        report = nt.sidelobe_split_check([1.0, -1.0], 1)
        assert report.n_coefficients == (0,)

    @pytest.mark.parametrize("degree", range(7, 13))
    def test_two_symbol_identity_holds_past_float_integers(self, degree):
        # For p=2, N_m = 0, so the right side is exactly 0 while the left
        # sums terms n^m * S(n) beyond 2^53, which keep their rounding error.
        report = nt.sidelobe_split_check([1, 1j], degree)
        assert report.n_coefficients == (0,) * degree
        assert report.residuals.max() <= 1e-12

    @pytest.mark.parametrize("degree", [1, 7, 12])
    def test_a_wrong_coefficient_is_caught(self, monkeypatch, degree):
        # Doubling P_m turns N_m into N_m + P_m for p=2.
        weights = nt._ptm_weights

        def doubled(p, levels, max_order):
            return [[2 * row[0], *row[1:]] for row in weights(p, levels, max_order)]

        monkeypatch.setattr(nt, "_ptm_weights", doubled)
        report = nt.sidelobe_split_check([1, 1j], degree)
        assert report.residuals.min() >= 0.1

    def test_builds_the_ptm_sequence_once_without_the_partition(self, monkeypatch):
        values = [0.3 + 1.0j, -1.2, 0.5j]
        expected = nt.sidelobe_split_check(values, 3)
        sequence, lengths = nt._ptm_array, []

        def counted(p, length):
            lengths.append(length)
            return sequence(p, length)

        def no_partition(*args):
            raise AssertionError("sidelobe_split_check built the whole partition")

        monkeypatch.setattr(nt, "_ptm_array", counted)
        monkeypatch.setattr(nt, "ptm_partition", no_partition)
        report = nt.sidelobe_split_check(values, 3)
        assert lengths == [81]
        assert report.n_coefficients == expected.n_coefficients
        np.testing.assert_array_equal(report.residuals, expected.residuals)
