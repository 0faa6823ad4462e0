import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyf import (
    CrossSeriesTie,
    IndexOutOfRange,
    LabelSequence,
    LengthMismatch,
    NonMonotoneTimes,
    TooFewPoints,
    ValidationError,
    detect_interval_rule,
    enumerate_overlaps,
    merge_labels,
    overlap_count,
    validate_series,
)
from hyf.core import safe_median

from _support import (
    algorithm1_count,
    brute_overlap_pairs,
    random_tie_free_pair,
    random_tied_pair,
)
from conftest import GOLDEN_MERGE, GOLDEN_PAIRS


class TestValidateSeries:
    def test_golden_leg_is_valid(self, golden_pair):
        s1, _ = golden_pair
        assert s1.n_points == 7
        assert s1.n_intervals == 6
        assert s1.label == "A"

    def test_duplicate_time_rejected(self):
        with pytest.raises(NonMonotoneTimes):
            validate_series([1, 1, 2], [0, 0, 0], "A")

    def test_decreasing_time_rejected(self):
        with pytest.raises(NonMonotoneTimes, match="position 2"):
            validate_series([1, 3, 2], [0, 0, 0], "A")

    def test_single_point_rejected(self):
        with pytest.raises(TooFewPoints):
            validate_series([5], [1], "A")

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            validate_series([1, 2, 3], [1, 2], "B")

    def test_non_finite_time_rejected(self):
        with pytest.raises(ValidationError):
            validate_series([1, 2, float("nan")], [0, 0, 0], "A")

    def test_bad_label_rejected(self):
        with pytest.raises(ValidationError):
            validate_series([1, 2], [0, 0], "C")

    def test_arrays_are_immutable(self, golden_pair):
        s1, _ = golden_pair
        with pytest.raises(ValueError):
            s1.times[0] = 99.0

    @pytest.mark.parametrize("times, values", [
        ([[1, 2], [3, 4]], [[1, 2], [3, 4]]),
        ([1, 2, 3, 4], [[1, 2], [3, 4]]),
        (np.arange(4.0).reshape(4, 1), [1, 2, 3, 4]),
        (1.0, 2.0),
    ])
    def test_not_one_dimensional_rejected(self, times, values):
        with pytest.raises(ValidationError, match="one-dimensional"):
            validate_series(times, values, "A")

    @pytest.mark.parametrize("values", [
        [1j, 2, 3],
        np.array([1j, 2, 3]),
        np.array([1j, 2, 3], dtype=object),
    ])
    def test_complex_values_rejected(self, values):
        with pytest.raises(ValidationError, match="leg A: values"):
            validate_series([1, 2, 3], values, "A")

    @pytest.mark.parametrize("values", [["a", "b", "c"], [{}, 1, 2], [[1, 2], [3]]])
    def test_unconvertible_values_rejected(self, values):
        with pytest.raises(ValidationError, match="leg B: values"):
            validate_series([1, 2, 3], values, "B")

    def test_writeable_input_is_copied(self):
        times, values = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        s = validate_series(times, values, "A")
        times[0] = values[0] = 0.0
        assert (s.times.tolist(), s.values.tolist()) == ([1.0, 2.0], [3.0, 4.0])
        assert not np.shares_memory(s.times, times)

    def test_frozen_arrays_are_shared(self, golden_pair):
        s1, _ = golden_pair
        s = s1.with_values(s1.values + 1)
        assert s.times is s1.times
        assert validate_series(s1.times, s1.values, "B").values is s1.values

    def test_with_values_keeps_times(self, golden_pair):
        s1, _ = golden_pair
        s = s1.with_values(np.zeros(s1.n_points))
        assert np.array_equal(s.times, s1.times)
        assert np.all(s.values == 0)

    def test_interval_endpoints(self, golden_pair):
        s1, _ = golden_pair
        assert s1.interval(3) == (4.0, 5.0)
        with pytest.raises(IndexOutOfRange):
            s1.interval(0)
        with pytest.raises(IndexOutOfRange):
            s1.interval(7)

    @pytest.mark.parametrize("i", [True, 1.5, 2.0, "1"])
    def test_interval_index_must_be_an_integer(self, golden_pair, i):
        s1, _ = golden_pair
        with pytest.raises(ValueError, match="interval index must be an integer"):
            s1.interval(i)


class TestMergeLabels:
    def test_golden_merge_string(self, golden_pair):
        assert merge_labels(*golden_pair).as_string == GOLDEN_MERGE

    def test_golden_source_indices(self, golden_pair):
        merged = merge_labels(*golden_pair)
        entries = list(merged.entries)
        assert entries[0] == (1.0, "B", 0)
        assert entries[1] == (2.0, "A", 0)
        assert entries[-1] == (12.0, "B", 5)

    def test_alternating(self):
        s1 = validate_series([1, 3], [0, 0], "A")
        s2 = validate_series([2, 4], [0, 0], "B")
        assert merge_labels(s1, s2).as_string == "ABAB"

    def test_cross_series_tie_rejected(self):
        s1 = validate_series([1, 2], [0, 0], "A")
        s2 = validate_series([2, 3], [0, 0], "B")
        with pytest.raises(CrossSeriesTie, match="2.0"):
            merge_labels(s1, s2)

    def test_same_label_rejected(self):
        s1 = validate_series([1, 2], [0, 0], "A")
        s2 = validate_series([3, 4], [0, 0], "A")
        with pytest.raises(ValidationError):
            merge_labels(s1, s2)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_matches_stable_sort_in_either_leg_order(self, seed):
        s1, s2 = random_tie_free_pair(np.random.default_rng(seed))
        times = np.concatenate([s1.times, s2.times])
        order = np.argsort(times, kind="stable")
        expected = (times[order].tolist(), (np.arange(times.size) < s1.n_points)[order].tolist())
        for legs in ((s1, s2), (s2, s1)):
            merged = merge_labels(*legs)
            assert (merged.times.tolist(), merged.is_a.tolist()) == expected
            assert not merged.times.flags.writeable and not merged.is_a.flags.writeable


class TestLabelSequence:
    def test_from_string_round_trip(self):
        seq = LabelSequence.from_string("BABA")
        assert seq.as_string == "BABA"
        assert seq.leg_count("A") == 2
        assert seq.leg_count("B") == 2

    def test_single_leg_rejected(self):
        with pytest.raises(TooFewPoints, match="both legs"):
            LabelSequence.from_string("AAAAA")

    def test_tied_times_rejected(self):
        with pytest.raises(CrossSeriesTie):
            LabelSequence.from_string("ABAB", times=[0, 1, 1, 2])

    def test_unknown_label_rejected(self):
        with pytest.raises(ValidationError):
            LabelSequence.from_string("ABXAB")

    def test_not_one_dimensional_rejected(self):
        with pytest.raises(ValidationError, match="one-dimensional"):
            LabelSequence([[0, 1], [2, 3]], [[True, False], [True, False]])

    def test_tie_reported_before_disorder(self):
        with pytest.raises(CrossSeriesTie, match="3.0"):
            LabelSequence([0, 1, 5, 3, 3], [True, False, True, False, True])
        with pytest.raises(NonMonotoneTimes):
            LabelSequence([0, 1, 5, 3, 4], [True, False, True, False, True])

    def test_nan_time_rejected(self):
        # nan fails every comparison, so it is neither a tie nor a decrease
        with pytest.raises(ValidationError, match="non-finite time nan at position 1"):
            LabelSequence([0, np.nan, 2, 3, 4], [1, 0, 1, 0, 1])

    @pytest.mark.parametrize("times, position", [
        ([0, 1, 2, 3, np.inf], 4),
        ([-np.inf, 1, 2, 3, 4], 0),
        ([-np.inf, 1, 2, 3, np.inf], 0),
    ])
    def test_infinite_end_time_rejected(self, times, position):
        # an infinite end passes the order test; the end times are checked too
        with pytest.raises(ValidationError, match=f"non-finite time .*inf at position {position}"):
            LabelSequence(times, [1, 0, 1, 0, 1])

    def test_empty_sequence_is_too_few_points(self):
        with pytest.raises(TooFewPoints):
            LabelSequence([], [])

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_derived_views_match_legs(self, seed):
        s1, s2 = random_tie_free_pair(np.random.default_rng(seed))
        merged = merge_labels(s1, s2)
        assert np.array_equal(merged.times[merged.is_a], s1.times)
        assert np.array_equal(merged.times[~merged.is_a], s2.times)
        entries = list(merged.entries)
        for leg in (s1, s2):
            mine = [(t, k) for t, label, k in entries if label == leg.label]
            assert [k for _, k in mine] == list(range(leg.n_points))
            assert [t for t, _ in mine] == leg.times.tolist()

    @settings(max_examples=150, deadline=None)
    @given(pattern=st.text(alphabet="AB", max_size=40).filter(
        lambda p: p.count("A") >= 2 and p.count("B") >= 2
    ))
    def test_from_string_round_trip_any(self, pattern):
        seq = LabelSequence.from_string(pattern)
        assert seq.as_string == pattern
        assert seq.leg_count("A") == pattern.count("A")


class TestEnumerateOverlaps:
    def test_golden_pairs(self, golden_pair):
        ov = enumerate_overlaps(*golden_pair)
        assert [tuple(p) for p in ov.pairs.tolist()] == GOLDEN_PAIRS
        assert ov.m == 10

    def test_pairs_are_read_only_int64(self, golden_pair):
        pairs = enumerate_overlaps(*golden_pair).pairs
        assert (pairs.dtype, pairs.shape, pairs.flags.writeable) == (np.int64, (10, 2), False)

    def test_unmet_intervals_are_skipped(self):
        # leg-1 intervals 1 and 5 meet no leg-2 interval
        s1 = validate_series([0, 1, 2, 5, 6, 7], [0] * 6, "A")
        s2 = validate_series([1.5, 3, 4, 5.5], [0] * 4, "B")
        pairs = [tuple(p) for p in enumerate_overlaps(s1, s2).pairs.tolist()]
        assert pairs == brute_overlap_pairs(s1.times, s2.times)
        assert pairs == [(2, 1), (3, 1), (3, 2), (3, 3), (4, 3)]

    def test_golden_point_count_identity(self, golden_pair):
        # boundary-aligned inputs: overlaps = total points - 3
        s1, s2 = golden_pair
        assert enumerate_overlaps(s1, s2).m == s1.n_points + s2.n_points - 3

    def test_nested_single_pair(self):
        s1 = validate_series([0, 10], [0, 0], "A")
        s2 = validate_series([1, 2], [0, 0], "B")
        assert [tuple(p) for p in enumerate_overlaps(s1, s2).pairs.tolist()] == [(1, 1)]

    def test_disjoint_supports(self):
        s1 = validate_series([0, 1], [0, 0], "A")
        s2 = validate_series([5, 6], [0, 0], "B")
        assert enumerate_overlaps(s1, s2).m == 0

    def test_synchronous_is_diagonal(self):
        t = [1.0, 2.0, 4.0, 7.0]
        s1 = validate_series(t, [0, 0, 0, 0], "A")
        s2 = validate_series(t, [1, 1, 1, 1], "B")
        assert [tuple(p) for p in enumerate_overlaps(s1, s2).pairs.tolist()] == [
            (1, 1), (2, 2), (3, 3),
        ]

    def test_overlap_count_matches_enumeration(self, golden_pair):
        s1, s2 = golden_pair
        assert overlap_count(s1, s2) == enumerate_overlaps(s1, s2).m
        assert overlap_count(s2, s1) == 10

    @pytest.mark.parametrize("ta, tb", [
        ([1, 2, 4, 7], [1, 2, 4, 7]),  # synchronous
        ([1, 2, 3], [5, 6, 7]),  # disjoint
        ([1, 2, 3], [3, 4, 5]),  # one shared end time, no overlap
        ([0, 10], [2, 3, 5]),  # one leg inside one interval of the other
        ([1, 2, 3, 4], [1.5, 2.5]),  # unaligned
        ([1, 3, 5, 7], [2, 3, 6, 7, 9]),  # tied and unaligned
        ([1, 3, 5, 7, 9], [0, 3, 5, 9, 10]),  # tied, one leg inside the other's span
    ])
    def test_overlap_count_edge_pairs(self, ta, tb):
        for a, b in ((ta, tb), (tb, ta)):
            s1 = validate_series(a, np.zeros(len(a)), "A")
            s2 = validate_series(b, np.zeros(len(b)), "B")
            assert overlap_count(s1, s2) == len(brute_overlap_pairs(s1.times, s2.times))

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_sweep_equals_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        for make_pair in (random_tie_free_pair, random_tied_pair):
            s1, s2 = make_pair(rng)
            sweep = [tuple(p) for p in enumerate_overlaps(s1, s2).pairs.tolist()]
            assert sweep == brute_overlap_pairs(s1.times, s2.times)
            assert overlap_count(s1, s2) == len(sweep)
            # containment detections away from the edge candidates
            report = detect_interval_rule(s1, s2)
            for a, b, found in ((s1, s2, report.nonextant_1), (s2, s1, report.nonextant_2)):
                inner = [k for k in found if 2 <= k <= a.n_intervals - 2]
                assert len(inner) == algorithm1_count(a.times.tolist(), b.times.tolist())

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_overlap_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        for make_pair in (random_tie_free_pair, random_tied_pair):
            s1, s2 = make_pair(rng)
            forward = {tuple(p) for p in enumerate_overlaps(s1, s2).pairs.tolist()}
            backward = {tuple(p) for p in enumerate_overlaps(s2, s1).pairs.tolist()}
            assert forward == {(i, j) for j, i in backward}


class TestSafeMedian:
    @settings(max_examples=400, deadline=None)
    @given(x=st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                st.sampled_from([1e308, -1e308, 0.0, -0.0, 5e-324])),
                      min_size=1, max_size=40))
    @example(x=[1e308, 1e308, -1e308])
    @example(x=[1e308, 1e308])
    @example(x=[-1e308, 1e308, -1e308, 1e308])
    @example(x=[-0.0, -0.0])
    def test_bitwise_equal_to_halved_numpy_median(self, x):
        x = np.array(x)
        expected = 2 * float(np.median(x / 2))
        assert np.float64(safe_median(x)).tobytes() == np.float64(expected).tobytes()

    @pytest.mark.parametrize("size", [999, 1000, 9999, 10000])
    def test_bitwise_equal_on_long_seeded_arrays(self, size):
        # partitioning an even size at the upper middle item alone leaves
        # the lower one in place in all but a few of these 500 arrays per
        # size, and in all of the small arrays above
        for seed in range(500):
            x = np.random.default_rng([seed, size]).standard_normal(size)
            expected = 2 * float(np.median(x / 2))
            assert np.float64(safe_median(x)).tobytes() == np.float64(expected).tobytes(), seed

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            safe_median(np.array([]))
