"""Staggered-schedule tests: padding, lane decomposition, composite nulls."""

import json
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as stn

from dopwave import codes, doppler, numtheory, stagger

PADDED_DEG2 = ((0, 3, 4, 5), (1, 2, 3, 6))
PADDED_DEG3 = ((0, 3, 4, 5, 6, 7, 8, 11), (1, 2, 3, 5, 6, 8, 9, 10))
PADDED_DEG5 = (
    (0, 3, 4, 5, 6, 7, 8, 9, 11, 13, 14, 15, 16, 17, 18, 19, 22),
    (1, 2, 3, 4, 7, 8, 9, 10, 11, 12, 13, 14, 15, 18, 19, 20, 21),
)


# Searched, built-in and PTM partitions; their affine images are random valid ones.
PLAN_PARTITIONS = [
    *numtheory.esp_search(range(8), 2, 2),
    *numtheory.esp_search(range(9), 3, 1),
    *(stagger.builtin_partition(degree) for degree in (2, 3, 5)),
    numtheory.ptm_partition(2, 4),
    numtheory.ptm_partition(3, 2),
]


def golay(exponent=3):
    return codes.gen_golay_pair(exponent)


def reference_lanes(padded):
    """The greedy sweep one slot at a time, as (delay, indices) pairs.

    Open lanes must transmit every slot: when demand shrinks the oldest
    lanes close, when it grows new lanes open at the slot, and each slot's
    codes go in ascending order to the open lanes in opening order.
    """
    slots = np.concatenate(padded.blocks)
    labels = np.repeat(np.arange(padded.p), [len(b) for b in padded.blocks])
    demand = iter(labels[np.argsort(slots, kind="stable")].tolist())
    sizes = np.bincount(slots)
    open_lanes, finished = [], []
    for slot, size in enumerate(sizes.tolist()):
        while len(open_lanes) > size:
            finished.append(open_lanes.pop(0))
        while len(open_lanes) < size:
            open_lanes.append((slot, []))
        for _, codes in open_lanes:
            codes.append(next(demand))
    finished.extend(open_lanes)
    finished.sort(key=lambda lane: lane[0])
    return [(delay, tuple(codes)) for delay, codes in finished]


def lane_slots(lanes, count):
    """Each code's slots, walking the lanes in order and each lane by offset."""
    slots = [[] for _ in range(count)]
    for lane in lanes:
        for offset, code in enumerate(lane.indices):
            slots[code].append(lane.delay + offset)
    return slots


def assert_plan_realizes_partition(plan):
    """Check the multiplicity contract lane-by-lane against the blocks."""
    slots = plan.slots_by_code()
    for code, block in enumerate(plan.partition.blocks):
        assert sorted(slots[code]) == list(block)
    for lane in plan.lanes:
        assert len(lane.indices) >= 1  # contiguity: lanes carry no internal gaps


class TestBuiltinPartitions:
    @pytest.mark.parametrize("degree", [2, 3, 5])
    def test_validated_on_build(self, degree):
        part = stagger.builtin_partition(degree)
        assert numtheory.esp_check(part.blocks, degree).is_esp
        assert part.degree == degree

    def test_unknown_degree(self):
        with pytest.raises(KeyError):
            stagger.builtin_partition(4)


class TestPadPartition:
    def test_degree2_padding(self):
        padded = stagger.pad_partition(stagger.builtin_partition(2))
        assert padded.blocks == PADDED_DEG2

    def test_degree3_padding(self):
        padded = stagger.pad_partition(stagger.builtin_partition(3))
        assert padded.blocks == PADDED_DEG3

    def test_degree5_padding(self):
        padded = stagger.pad_partition(stagger.builtin_partition(5))
        assert padded.blocks == PADDED_DEG5

    def test_complete_partition_unchanged(self):
        part = numtheory.EspPartition.from_blocks(((0, 3), (1, 2)), 1)
        assert stagger.pad_partition(part).blocks == part.blocks

    def test_pads_up_to_the_last_slot_once(self):
        for degree in (2, 3, 5):
            part = stagger.builtin_partition(degree)
            padded = stagger.pad_partition(part)
            last = max(max(b) for b in part.blocks)
            assert set().union(*padded.blocks) == set(range(last + 1))
            assert stagger.pad_partition(padded) == padded

    def test_padded_pulses_over_the_train_cap_refused(self):
        cap = doppler.MAX_TRAIN_LENGTH

        def pairs(start, count):  # degree-1 pairs (s+i, s+2c-1-i) fill 2c slots
            blocks = [(start + i, start + 2 * count - 1 - i) for i in range(count)]
            return numtheory.EspPartition.from_blocks(blocks, 1)

        # Two blocks from slot s pad to 2s + 4 pulses, 17 blocks to 17s + 34.
        padded = stagger.pad_partition(pairs(cap // 2 - 2, 2))
        assert sum(map(len, padded.blocks)) == cap
        with pytest.raises(ValueError, match=f"padded pulse count {cap + 1} exceeds"):
            stagger.pad_partition(pairs((cap + 1) // 17 - 2, 17))
        # Refused from the counts alone, before any slot range is built.
        with pytest.raises(ValueError, match="exceeds cap"):
            stagger.pad_partition(pairs(10**15, 2))

    def test_high_degree_padding_is_quick(self):
        # The range's sums at degree 600 take about M^2/2 products in all.
        part = numtheory.EspPartition.from_blocks([[0, 3], [0, 3]], 600)
        start = time.perf_counter()
        padded = stagger.pad_partition(part)
        assert time.perf_counter() - start < 1
        assert padded.blocks == ((0, 1, 2, 3), (0, 1, 2, 3))
        for m in (0, 1, 600):
            assert padded.prouhet_sums[m] == numtheory.power_sum((0, 1, 2, 3), m)

    @pytest.mark.parametrize("degree", [2, 3, 5])
    def test_padding_preserves_degree(self, degree):
        # The padded sums are derived; esp_check sums the padded blocks.
        padded = stagger.pad_partition(stagger.builtin_partition(degree))
        reference = numtheory.esp_check(padded.blocks, degree)
        assert reference.is_esp
        assert padded.prouhet_sums == reference.prouhet_sums

    @pytest.mark.parametrize("p,degree", [(2, 3), (3, 2)])
    def test_derived_sums_match_for_ptm_splits(self, p, degree):
        padded = stagger.pad_partition(numtheory.ptm_partition(p, degree))
        reference = numtheory.esp_check(padded.blocks, degree)
        assert padded.prouhet_sums == reference.prouhet_sums

    @settings(max_examples=25, deadline=None)
    @given(
        stn.lists(stn.integers(0, 15), min_size=8, max_size=8, unique=True),
        stn.integers(1, 2),
    )
    def test_derived_sums_match_for_searched_partitions(self, universe, degree):
        for part in numtheory.esp_search(universe, 2, degree):
            padded = stagger.pad_partition(part)
            reference = numtheory.esp_check(padded.blocks, degree)
            assert reference.is_esp
            assert padded.prouhet_sums == reference.prouhet_sums

    @settings(max_examples=40, deadline=None)
    @given(
        stn.sampled_from(PLAN_PARTITIONS),
        stn.lists(stn.integers(0, 40), min_size=1, max_size=6),
    )
    def test_derived_sums_match_with_repeated_slots(self, partition, shared):
        # The same values joined to every block keep the sums equal; the
        # slots they add repeat across blocks, and within one when drawn twice.
        blocks = [list(block) + shared for block in partition.blocks]
        part = numtheory.EspPartition.from_blocks(blocks, partition.degree)
        padded = stagger.pad_partition(part)
        reference = numtheory.esp_check(padded.blocks, part.degree)
        assert reference.is_esp
        assert padded.prouhet_sums == reference.prouhet_sums

    def test_fifty_searched_partitions_keep_degree(self):
        rng = np.random.default_rng(99)
        seen = 0
        while seen < 50:
            universe = sorted(rng.choice(14, size=6, replace=False).tolist())
            try:
                parts = numtheory.esp_search(universe, 2, 2)
            except ValueError:
                continue
            for part in parts:
                before = numtheory.esp_check(part.blocks, 2)
                padded = stagger.pad_partition(part)
                after = numtheory.esp_check(padded.blocks, 2)
                assert before.is_esp and after.is_esp
                seen += 1


class TestDecompose:
    def test_degree2_schedule(self):
        plan = stagger.decompose_to_antennas(
            stagger.pad_partition(stagger.builtin_partition(2)), golay()
        )
        assert len(plan.lanes) == 2
        assert [(l.delay, l.indices) for l in plan.lanes] == [
            (0, (0, 1, 1, 0)),
            (3, (1, 0, 0, 1)),
        ]
        assert plan.span == 7 and plan.total_pulses == 8
        assert_plan_realizes_partition(plan)

    def test_degree3_schedule(self):
        plan = stagger.decompose_to_antennas(
            stagger.pad_partition(stagger.builtin_partition(3)), golay()
        )
        assert [l.delay for l in plan.lanes] == [0, 3, 5, 8]
        assert all(len(l.indices) == 4 for l in plan.lanes)
        assert plan.span == 12 and plan.total_pulses == 16
        assert_plan_realizes_partition(plan)

    def test_degree5_schedule(self):
        plan = stagger.decompose_to_antennas(
            stagger.pad_partition(stagger.builtin_partition(5)), golay()
        )
        assert plan.span == 23
        # Slot demand, not narrative lane lists, fixes the pulse count:
        # |padded block 0| + |padded block 1| = 17 + 17.
        assert plan.total_pulses == 34
        assert_plan_realizes_partition(plan)

    def test_gapless_partition_gives_single_ptm_lane(self):
        # A disjoint gap-free partition demands one code per slot, so the
        # sweep emits one lane carrying the PTM train itself.
        part = numtheory.ptm_partition(2, 2)
        plan = stagger.decompose_to_antennas(part, golay())
        assert len(plan.lanes) == 1
        assert plan.lanes[0].indices == tuple(numtheory.ptm_sequence(2, 8))
        assert_plan_realizes_partition(plan)

    def test_block_count_must_match_codes(self):
        with pytest.raises(ValueError):
            stagger.decompose_to_antennas(
                stagger.pad_partition(stagger.builtin_partition(2)),
                codes.gen_dft_set(3),
            )

    def test_gap_is_padded(self):
        # Degree-1 blocks {0,5},{2,3} leave slots 1 and 4 empty.
        part = numtheory.EspPartition.from_blocks(((0, 5), (2, 3)), 1)
        plan = stagger.decompose_to_antennas(part, golay())
        assert plan.partition.blocks == ((0, 1, 4, 5), (1, 2, 3, 4))
        assert plan == stagger.decompose_to_antennas(
            stagger.pad_partition(part), golay()
        )
        assert_plan_realizes_partition(plan)

    def test_antenna_cap(self):
        padded = stagger.pad_partition(stagger.builtin_partition(2))
        with pytest.raises(ValueError):
            stagger.decompose_to_antennas(padded, golay(), antenna_cap=1)

    @settings(max_examples=30, deadline=None)
    @given(
        stn.lists(
            stn.sets(stn.integers(0, 11), min_size=1, max_size=8),
            min_size=2,
            max_size=2,
        )
    )
    def test_multiplicity_contract_for_arbitrary_demands(self, raw_blocks):
        # The sweep must realize any covering demand, power sums or not, so
        # drive it with a padded pair of arbitrary slot sets.  EspPartition
        # is bypassed on purpose: the contract under test is scheduling.
        blocks = tuple(tuple(sorted(b)) for b in raw_blocks)
        partition = numtheory.EspPartition(blocks, 0, (len(blocks[0]),))
        padded = stagger.pad_partition(partition)
        plan = stagger.decompose_to_antennas(padded, golay(2))
        assert_plan_realizes_partition(plan)

    @settings(max_examples=200, deadline=None)
    @given(
        stn.lists(
            stn.lists(stn.integers(0, 15), min_size=1, max_size=8),
            min_size=2,
            max_size=4,
        ),
        stn.randoms(use_true_random=False),
    )
    def test_array_passes_match_the_greedy_sweep(self, raw_blocks, rng):
        # Gaps, repeated slots within a block and overlapping blocks; the
        # sums are not needed to schedule, so EspPartition is bypassed.
        blocks = tuple(tuple(sorted(b)) for b in raw_blocks)
        padded = stagger.pad_partition(
            numtheory.EspPartition(blocks, 0, (len(blocks[0]),))
        )
        ccm = golay(2) if len(blocks) == 2 else codes.gen_dft_set(len(blocks))
        plan = stagger.decompose_to_antennas(padded, ccm, antenna_cap=32)
        assert [(l.delay, l.indices) for l in plan.lanes] == reference_lanes(padded)
        slots = [s.tolist() for s in plan.slots_by_code()]
        assert slots == lane_slots(plan.lanes, ccm.count)
        # Any lane order: each code's slots by lane, then by offset.
        lanes = rng.sample(plan.lanes, len(plan.lanes))
        shuffled = doppler.PulseTrain(ccm, tuple(lanes), padded)
        slots = [s.tolist() for s in shuffled.slots_by_code()]
        assert slots == lane_slots(lanes, ccm.count)
        assert (shuffled.last_slot, shuffled.span) == (plan.last_slot, plan.span)

    @pytest.mark.parametrize("degree", [2, 3, 5])
    def test_builtin_plans_match_the_greedy_sweep(self, degree):
        padded = stagger.pad_partition(stagger.builtin_partition(degree))
        plan = stagger.decompose_to_antennas(padded, golay())
        assert [(l.delay, l.indices) for l in plan.lanes] == reference_lanes(padded)


class TestPlanWeights:
    @settings(max_examples=60, deadline=None)
    @given(
        stn.sampled_from(PLAN_PARTITIONS),
        stn.integers(1, 4),
        stn.integers(0, 40),
        stn.data(),
    )
    def test_weights_match_the_slot_oracle(self, partition, a, b, data):
        blocks = [[a * x + b for x in block] for block in partition.blocks]
        degree = partition.degree
        mapped = numtheory.EspPartition.from_blocks(blocks, degree)
        plan = stagger.decompose_to_antennas(mapped, codes.gen_dft_set(mapped.p))
        max_order = data.draw(stn.integers(0, degree + 4), label="max_order")
        weights = doppler._exact_weights(plan, max_order)
        slots = lane_slots(plan.lanes, mapped.p)
        expected = [
            [numtheory.power_sum(s, m) for s in slots] for m in range(max_order + 1)
        ]
        assert weights == expected
        assert all(type(w) is int for row in weights for w in row)
        # Through the degree every code's weight is the padded Prouhet sum.
        for m in range(min(max_order, degree) + 1):
            assert weights[m] == [plan.partition.prouhet_sums[m]] * mapped.p

    @pytest.mark.parametrize(
        "lanes",
        [
            # Code 0 fills 3 of slots 0..3, no slot twice: its empty slot.
            (doppler.Lane(0, (0, 0, 1, 0)),),
            # Code 0 fills slot 1 twice: its own slots.
            (doppler.Lane(0, (0, 0, 0)), doppler.Lane(1, (0, 1))),
            # Code 0 fills exactly half of slots 0..3: its own slots.
            (doppler.Lane(0, (1, 0, 1, 0)),),
        ],
        ids=["complement", "repeated-slot", "exactly-half"],
    )
    def test_each_weight_branch(self, monkeypatch, lanes):
        # Each code's slots go to the kernel once, which picks the branch
        # (TestPowerSumsKernel.test_each_branch in test_numtheory.py).
        plan = doppler.PulseTrain(golay(2), lanes, stagger.builtin_partition(2))
        calls = []

        def counted(values, max_order):
            calls.append(list(values))
            return numtheory._power_sums(values, max_order)

        monkeypatch.setattr(doppler, "_power_sums", counted)
        weights = doppler._exact_weights(plan, 6)
        slots = lane_slots(lanes, 2)
        assert calls == slots
        assert weights == [[numtheory.power_sum(s, m) for s in slots] for m in range(7)]
        assert all(type(w) is int for row in weights for w in row)

    @pytest.mark.parametrize("count,degree", [(2, 4), (3, 2)])
    def test_gapless_ptm_split_takes_the_digits(self, count, degree):
        # The plan of the PTM split is one lane at delay 0 in PTM order.
        ccm = golay(2) if count == 2 else codes.gen_dft_set(count)
        plan = stagger.decompose_to_antennas(numtheory.ptm_partition(count, degree), ccm)
        assert len(plan.lanes) == 1 and plan.is_ptm_ordered()
        with mock.patch.object(
            doppler, "_ptm_weights", wraps=numtheory._ptm_weights
        ) as digits:
            weights = doppler._exact_weights(plan, degree + 3)
        assert digits.call_count == 1
        slots = plan.slots_by_code()
        orders = range(degree + 4)
        assert weights == [[numtheory.power_sum(s, m) for s in slots] for m in orders]
        assert all(type(w) is int for row in weights for w in row)


def report_schedules(data):
    """A PTM, cyclic or delayed train, or a plan over a PLAN_PARTITIONS image."""
    kind = data.draw(stn.sampled_from(["ptm", "cyclic", "delayed", "plan"]), "kind")
    count = data.draw(stn.integers(2, 4), label="count")
    ccm = golay(2) if count == 2 else codes.gen_dft_set(count)
    if kind == "ptm":
        return doppler.build_ptm_train(ccm, data.draw(stn.integers(1, 3), "order"))
    if kind == "cyclic":
        return doppler.build_cyclic_train(ccm, data.draw(stn.integers(1, 40), "length"))
    if kind == "delayed":
        length = data.draw(stn.integers(1, 40), label="length")
        delay = data.draw(stn.integers(0, 50), label="delay")
        indices = numtheory.ptm_sequence(count, length)
        return doppler.PulseTrain(ccm, (doppler.Lane(delay, indices),))
    partition = data.draw(stn.sampled_from(PLAN_PARTITIONS), label="partition")
    a, b = data.draw(stn.integers(1, 3), "a"), data.draw(stn.integers(0, 20), "b")
    blocks = [[a * x + b for x in block] for block in partition.blocks]
    mapped = numtheory.EspPartition.from_blocks(blocks, partition.degree)
    ccm = golay(2) if mapped.p == 2 else codes.gen_dft_set(mapped.p)
    return stagger.decompose_to_antennas(mapped, ccm)


class TestSingleReport:
    """taylor_coeffs is the one report, for trains and plans alike."""

    @settings(max_examples=60, deadline=None)
    @given(stn.data())
    def test_every_view_reads_the_one_report(self, data):
        schedule = report_schedules(data)
        max_order = data.draw(stn.integers(0, 6), label="max_order")
        report = doppler.taylor_coeffs(schedule, max_order)
        nulls = (report.max_sidelobe_residual <= report.thresholds).tolist()
        leading = len(nulls) if all(nulls) else nulls.index(False)
        assert report.null_order == leading - 1
        assert report.z_deviations.shape == report.z_residuals.shape == (max_order + 1,)
        # One product per order: c_m's bits do not depend on max_order.
        for m in range(max_order):
            np.testing.assert_array_equal(
                doppler.taylor_coeffs(schedule, m).coeffs[m].view(np.int64),
                report.coeffs[m].view(np.int64),
            )

    @settings(max_examples=60, deadline=None)
    @given(stn.data())
    def test_every_report_carries_its_costs(self, data):
        schedule = report_schedules(data)
        report = doppler.taylor_coeffs(schedule, data.draw(stn.integers(0, 4), "M"))
        costs = (schedule.total_pulses, schedule.span)
        if schedule.partition is None:  # a train spans its length
            assert costs == (len(schedule.lanes[0].indices),) * 2
        assert (report.total_pulses, report.span) == costs
        assert type(report.total_pulses) is int and type(report.span) is int



class TestCompositeTaylor:
    def test_degree2_report(self):
        plan = stagger.decompose_to_antennas(
            stagger.pad_partition(stagger.builtin_partition(2)), golay()
        )
        report = doppler.taylor_coeffs(plan, 2)
        assert report.null_order >= 2
        assert report.total_pulses == 8 and report.span == 7

    def test_degree3_report(self):
        plan = stagger.decompose_to_antennas(
            stagger.pad_partition(stagger.builtin_partition(3)), golay()
        )
        report = doppler.taylor_coeffs(plan, 3)
        assert report.null_order >= 3
        assert report.total_pulses == 16 and report.span == 12

    def test_degree5_report(self):
        plan = stagger.decompose_to_antennas(
            stagger.pad_partition(stagger.builtin_partition(5)), golay()
        )
        report = doppler.taylor_coeffs(plan, 5)
        assert report.null_order >= 5
        assert report.span == 23 and report.total_pulses == 34

    @pytest.mark.parametrize("degree", [2, 3, 5])
    def test_peak_coefficients(self, degree):
        ccm = golay()
        padded = stagger.pad_partition(stagger.builtin_partition(degree))
        plan = stagger.decompose_to_antennas(padded, ccm)
        report = doppler.taylor_coeffs(plan, degree)
        n, k = ccm.length, ccm.count
        center = n - 1
        for m in range(degree + 1):
            expected = padded.prouhet_sums[m] * n * k
            assert abs(report.coeffs[m][center] - expected) <= 1e-9 * expected
        assert abs(report.coeffs[0][center] - n * report.total_pulses) <= 1e-9 * (
            n * report.total_pulses
        )

    @pytest.mark.parametrize("degree", [2, 3, 5])
    def test_residual_bound(self, degree):
        ccm = golay()
        plan = stagger.decompose_to_antennas(
            stagger.pad_partition(stagger.builtin_partition(degree)), ccm
        )
        report = doppler.taylor_coeffs(plan, degree)
        span = plan.span
        for m in range(degree + 1):
            assert report.max_sidelobe_residual[m] <= 1e-9 * ccm.length * span**m

    @settings(max_examples=20, deadline=None)
    @given(
        stn.sampled_from(
            [golay(1), golay(2), golay(3), codes.gen_dft_set(3)]
        ),
        stn.integers(1, 3),
    )
    def test_one_lane_plan_matches_ptm_train(self, ccm, degree):
        # The single lane of a gap-free PTM partition is the PTM train, and
        # both go through one pipeline, so the reports agree exactly.
        plan = stagger.decompose_to_antennas(
            numtheory.ptm_partition(ccm.count, degree), ccm
        )
        composite = doppler.taylor_coeffs(plan, degree)
        single = doppler.taylor_coeffs(doppler.build_ptm_train(ccm, degree), degree)
        assert np.array_equal(composite.coeffs, single.coeffs)
        assert np.array_equal(
            composite.max_sidelobe_residual, single.max_sidelobe_residual
        )
        assert np.array_equal(composite.thresholds, single.thresholds)
        assert composite.null_order == single.null_order

    @pytest.mark.parametrize("order", [-1, doppler.MAX_TAYLOR_ORDER + 1])
    def test_order_out_of_range(self, order):
        plan = stagger.decompose_to_antennas(
            stagger.pad_partition(stagger.builtin_partition(2)), golay()
        )
        with pytest.raises(ValueError):
            doppler.taylor_coeffs(plan, order)

    def test_report_json(self):
        plan = stagger.decompose_to_antennas(
            stagger.pad_partition(stagger.builtin_partition(2)), golay()
        )
        data = doppler.taylor_coeffs(plan, 2).to_json_dict()
        json.dumps(data)
        assert data["totalPulses"] == 8 and data["span"] == 7


class TestCrossCheck:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: doppler.taylor_coeffs(doppler.build_ptm_train(golay(), 2), 2),
            lambda: doppler.taylor_coeffs(
                stagger.decompose_to_antennas(
                    stagger.pad_partition(stagger.builtin_partition(2)), golay()
                ),
                2,
            ),
            lambda: stagger.compare_ptm_vs_stagger(golay(), 2),
        ],
        ids=["taylor_coeffs", "plan", "compare"],
    )
    def test_every_report_raises_on_a_domain_mismatch(self, monkeypatch, build):
        def boom(order, time_residual, threshold, samples, code_length):
            raise doppler.DomainMismatchError(order, 1.0, 0.0)

        monkeypatch.setattr(doppler, "_order_check", boom)
        with pytest.raises(doppler.DomainMismatchError):
            build()


class TestComparison:
    def test_degree2(self):
        ptm, plan = stagger.compare_ptm_vs_stagger(golay(), 2)
        assert (ptm.span, ptm.total_pulses) == (8, 8)
        assert (plan.span, plan.total_pulses) == (7, 8)
        assert ptm.null_order >= 2 and plan.null_order >= 2

    def test_degree3(self):
        ptm, plan = stagger.compare_ptm_vs_stagger(golay(), 3)
        assert (ptm.span, ptm.total_pulses) == (16, 16)
        assert (plan.span, plan.total_pulses) == (12, 16)

    def test_degree1_with_explicit_partition(self):
        part = numtheory.EspPartition.from_blocks(((0, 3), (1, 2)), 1)
        ptm, plan = stagger.compare_ptm_vs_stagger(golay(), 1, partition=part)
        assert ptm.span == 4
        assert ptm.null_order >= 1 and plan.null_order >= 1

    def test_degree1_has_no_default_partition(self):
        # Like `dopwave stagger`, the default is builtin_partition(degree).
        with pytest.raises(KeyError, match="no built-in partition of degree 1"):
            stagger.compare_ptm_vs_stagger(golay(), 1)

    @pytest.mark.parametrize(
        "ccm,degree",
        [(golay(), 4), (golay(), 6), (codes.gen_dft_set(3), 2)],
        ids=["golay-4", "golay-6", "dft3-2"],
    )
    def test_falls_back_to_ptm_split(self, ccm, degree):
        partition = numtheory.ptm_partition(ccm.count, degree)
        ptm, plan = stagger.compare_ptm_vs_stagger(ccm, degree, partition=partition)
        assert plan.span == ptm.span == ccm.count ** (degree + 1)
        assert ptm.null_order >= degree and plan.null_order >= degree

    def test_partition_below_the_degree_refused(self):
        part = numtheory.EspPartition.from_blocks(((0, 3), (1, 2)), 1)
        with pytest.raises(ValueError, match="partition degree is below"):
            stagger.compare_ptm_vs_stagger(golay(), 3, partition=part)

    def test_non_complementary_pair_refused(self):
        flat = codes.Ccm(np.column_stack([[1, 1], [1, 1]]))
        with pytest.raises(ValueError, match="failed to reach the requested null order"):
            stagger.compare_ptm_vs_stagger(flat, 2)

    def test_mismatched_partition_rejected(self):
        part = numtheory.EspPartition.from_blocks(((0, 3), (1, 2)), 1)
        with pytest.raises(ValueError):
            stagger.compare_ptm_vs_stagger(codes.gen_dft_set(3), 1, partition=part)

    def test_mismatched_partition_refused_before_the_ptm_train(self):
        # decompose_to_antennas owns the block-count rule and runs first.
        part = numtheory.EspPartition.from_blocks(((0, 3), (1, 2)), 1)
        with mock.patch.object(
            stagger, "build_ptm_train", wraps=stagger.build_ptm_train
        ) as build:
            with pytest.raises(ValueError, match="2 blocks but the set has 3 codes"):
                stagger.compare_ptm_vs_stagger(codes.gen_dft_set(3), 1, partition=part)
        assert build.call_count == 0


class TestPlanSerialization:
    def test_round_trip(self):
        ccm = golay()
        plan = stagger.decompose_to_antennas(
            stagger.pad_partition(stagger.builtin_partition(3)), ccm
        )
        data = json.loads(json.dumps(plan.to_json_dict()))
        back = doppler.PulseTrain.from_json_dict(data)
        assert back == plan
        assert back.to_json_dict() == plan.to_json_dict()

    @pytest.mark.parametrize(
        "edit",
        [
            {"D": 7.0},
            {"M": "2"},
            {"lanes": [{"delay": 0.5, "indices": [0, 1, 1, 0]}]},
            {"lanes": [{"delay": 0, "indices": [0, 1.0, 1, 0]}]},
        ],
    )
    def test_non_integers_refused(self, edit):
        ccm = golay()
        plan = stagger.decompose_to_antennas(
            stagger.pad_partition(stagger.builtin_partition(2)), ccm
        )
        with pytest.raises(ValueError, match="must be integers"):
            doppler.PulseTrain.from_json_dict({**plan.to_json_dict(), **edit})

    @pytest.mark.parametrize(
        "edit,message",
        [
            ({"lanes": [{"delay": 0, "indices": [0, -1, 1, 0]},
                        {"delay": 3, "indices": [1, 0, 0, 1]}]}, "integer code"),
            ({"lanes": [{"delay": 0, "indices": [0, 2, 1, 0]},
                        {"delay": 3, "indices": [1, 0, 0, 1]}]}, "integer code"),
            ({"lanes": [{"delay": -1, "indices": [0, 0, 1, 1, 0]},
                        {"delay": 3, "indices": [1, 0, 0, 1]}]}, "delay must be in"),
            ({"lanes": []}, "at least one lane"),
            ({"M": 9}, "partition degree"),
            ({"M": 1}, "partition degree"),
            ({"D": 9}, "one past the last slot"),
            ({"lanes": [{"delay": 0, "indices": [0, 1, 1, 0]},
                        {"delay": 3, "indices": [0, 1, 1, 0]}]}, "realise"),
            ({"lanes": [{"delay": 0, "indices": [0, 1, 1, 0]}]}, "realise"),
            ({"lanes": [{"delay": 0, "indices": [0, 1, 1, 0]},
                        {"delay": 10**30, "indices": [1, 0, 0, 1]}]}, "delay must be in"),
            # A third code with no slots is not one of the two blocks.
            ({"ccm": codes.gen_dft_set(3).to_json_dict()}, "realise"),
        ],
        ids=[
            "index-minus-one", "index-past-K", "negative-delay", "no-lanes",
            "M-above", "M-below", "D", "swapped-codes", "missing-lane",
            "delay-past-D", "more-codes-than-blocks",
        ],
    )
    def test_inconsistent_plans_refused(self, edit, message):
        ccm = golay()
        plan = stagger.decompose_to_antennas(stagger.builtin_partition(2), ccm)
        with pytest.raises(ValueError, match=message):
            doppler.PulseTrain.from_json_dict({**plan.to_json_dict(), **edit})

    def test_json_shape(self):
        plan = stagger.decompose_to_antennas(
            stagger.pad_partition(stagger.builtin_partition(2)), golay()
        )
        data = plan.to_json_dict()
        assert list(data) == ["ccm", "D", "M", "lanes", "partition"]
        assert data["D"] == 7 and data["M"] == 2
        assert data["lanes"][0] == {"delay": 0, "indices": [0, 1, 1, 0]}
