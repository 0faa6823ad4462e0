import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyf import (
    EmptyPattern,
    IndexOutOfRange,
    LabelSequence,
    TooFewPoints,
    ZeroOverlaps,
    attach_random_walk,
    count_pattern,
    data_loss_ratio,
    detect_interval_rule,
    detect_label_rule,
    enumerate_overlaps,
    merge_labels,
    nonextant_interval,
    oracle_detect,
    overlap_count,
    validate_series,
)
from hyf.nonextant import _build_report

from _support import adversary_instance, naive_pattern_count, random_aligned_labels, split_legs
from conftest import GOLDEN_MERGE


@pytest.fixture
def edge_run_pair():
    # merged string BABBAB: both interior B's cancel through the edge
    # fallback, nothing passes the containment test
    s1 = validate_series([2, 8], [0.0, 1.0], "A")
    s2 = validate_series([1, 4, 6, 9], [0.0, 1.0, 2.0, 3.0], "B")
    return s1, s2


class TestGoldenDetection:
    def test_interval_rule_with_boundary(self, golden_pair):
        report = detect_interval_rule(*golden_pair, include_boundary=True)
        assert report.nonextant_1 == (1, 2)
        assert report.nonextant_2 == (3, 4)
        assert report.f_total == 4
        assert report.m == 10
        assert data_loss_ratio(report) == pytest.approx(0.4)

    def test_interval_rule_interior_only(self, golden_pair):
        report = detect_interval_rule(*golden_pair, include_boundary=False)
        # the terminal edge point of leg B needs the fallback test, the
        # other three pass containment outright
        assert report.nonextant_1 == (1, 2)
        assert report.nonextant_2 == (3,)
        assert report.f_interior == 3
        assert report.f_total == 3

    def test_nonextant_times(self, golden_pair):
        s1, s2 = golden_pair
        report = detect_interval_rule(s1, s2, include_boundary=True)
        assert [s1.times[k] for k in report.nonextant_1] == [3.0, 4.0]
        assert [s2.times[k] for k in report.nonextant_2] == [10.0, 11.0]

    def test_label_rule_matches(self, golden_pair):
        merged = merge_labels(*golden_pair)
        assert merged.as_string == GOLDEN_MERGE
        for include in (False, True):
            a = detect_interval_rule(*golden_pair, include_boundary=include)
            b = detect_label_rule(merged, include_boundary=include)
            assert a.same_points(b)

    def test_oracle_matches_with_continuous_values(self, golden_pair):
        # detection depends only on times, so random-walk prices give the
        # same structural answer the other detectors report
        priced = attach_random_walk(*golden_pair, seed=31)
        for include in (False, True):
            a = detect_interval_rule(*golden_pair, include_boundary=include)
            c = oracle_detect(*priced, include_boundary=include)
            assert a.same_points(c)

    def test_oracle_misled_by_conspiring_prices(self, golden_pair):
        # the demo prices satisfy P[4]-P[0] == P[6]-P[3], which zeroes the
        # coefficient of an extant point; this is the accidental-zero case
        # the continuous-values precondition exists for
        report = oracle_detect(*golden_pair, include_boundary=True)
        assert report.nonextant_2 == (1, 3, 4)

    def test_first_and_last_never_detected(self, golden_pair):
        s1, s2 = golden_pair
        report = detect_interval_rule(s1, s2, include_boundary=True)
        for k in (0, s1.n_intervals):
            assert k not in report.nonextant_1
        for k in (0, s2.n_intervals):
            assert k not in report.nonextant_2


class TestEdgeConfigurations:
    def test_edge_run_needs_boundary_mode(self, edge_run_pair):
        assert merge_labels(*edge_run_pair).as_string == "BABBAB"
        interior = detect_interval_rule(*edge_run_pair)
        assert interior.f_total == 0
        full = detect_interval_rule(*edge_run_pair, include_boundary=True)
        # frozen from the coefficient oracle: both middle B's cancel
        assert full.nonextant_1 == ()
        assert full.nonextant_2 == (1, 2)

    def test_edge_run_all_detectors_agree(self, edge_run_pair):
        merged = merge_labels(*edge_run_pair)
        for include in (False, True):
            a = detect_interval_rule(*edge_run_pair, include_boundary=include)
            b = detect_label_rule(merged, include_boundary=include)
            c = oracle_detect(*edge_run_pair, include_boundary=include)
            assert a.same_points(b)
            assert a.same_points(c)

    def test_synchronous_inputs_detect_nothing(self):
        t = [0.0, 1.0, 2.0, 3.0, 4.0]
        s1 = validate_series(t, [1.0, 3.0, 2.0, 5.0, 4.0], "A")
        s2 = validate_series(t, [2.0, 1.0, 4.0, 3.0, 6.0], "B")
        for include in (False, True):
            report = detect_interval_rule(s1, s2, include_boundary=include)
            assert report.f_total == 0
            assert report.m == 4
            assert data_loss_ratio(report) == 0.0
        oracle = oracle_detect(s1, s2)
        assert oracle.f_total == 0

    def test_alternating_sequence_detects_nothing(self):
        report = detect_label_rule(LabelSequence.from_string("ABABAB"), include_boundary=True)
        assert report.f_total == 0

    def test_single_leg_string_rejected(self):
        with pytest.raises(TooFewPoints):
            LabelSequence.from_string("AAAAA")


class TestCountPattern:
    def test_golden_triples(self):
        assert count_pattern(GOLDEN_MERGE, "AAA") == 2
        assert count_pattern(GOLDEN_MERGE, "BBB") == 1

    def test_whole_string(self):
        assert count_pattern(GOLDEN_MERGE, GOLDEN_MERGE) == 1

    def test_accepts_label_sequence(self, golden_pair):
        assert count_pattern(merge_labels(*golden_pair), "AAA") == 2

    def test_empty_pattern_rejected(self):
        with pytest.raises(EmptyPattern):
            count_pattern(GOLDEN_MERGE, "")

    def test_pattern_longer_than_text(self):
        assert count_pattern("AB", "ABAB") == 0

    @settings(max_examples=200, deadline=None)
    @given(
        text=st.text(alphabet="AB", max_size=60),
        pattern=st.text(alphabet="AB", min_size=1, max_size=5),
    )
    def test_matches_naive_scan(self, text, pattern):
        assert count_pattern(text, pattern) == naive_pattern_count(text, pattern)


class TestNonextantInterval:
    def test_golden_terminal_interval(self, golden_pair):
        s1, s2 = golden_pair
        window = nonextant_interval(s1, s2, 6)
        assert (window.lo, window.hi) == (9.0, 12.0)
        inside = [t for t in s2.times if t in window]
        assert inside == [10.0, 11.0]

    def test_golden_initial_interval(self, golden_pair):
        window = nonextant_interval(*golden_pair, i=1)
        assert window.lo == 1.0
        assert window.is_empty

    def test_interval_with_no_opposite_points(self, golden_pair):
        assert nonextant_interval(*golden_pair, i=2).is_empty

    def test_out_of_range(self, golden_pair):
        with pytest.raises(IndexOutOfRange):
            nonextant_interval(*golden_pair, i=0)
        with pytest.raises(IndexOutOfRange):
            nonextant_interval(*golden_pair, i=7)

    def test_windows_cover_exactly_the_cancelled_points(self, golden_pair):
        s1, s2 = attach_random_walk(*golden_pair, seed=17)
        oracle = oracle_detect(s1, s2, include_boundary=True)
        covered = set()
        for i in range(1, s1.n_intervals + 1):
            window = nonextant_interval(s1, s2, i)
            covered |= {k for k, t in enumerate(s2.times) if t in window}
        assert covered == set(oracle.nonextant_2)
        covered = set()
        for j in range(1, s2.n_intervals + 1):
            window = nonextant_interval(s2, s1, j)
            covered |= {k for k, t in enumerate(s1.times) if t in window}
        assert covered == set(oracle.nonextant_1)

    @pytest.mark.parametrize("trial", range(25))
    def test_windows_match_oracle_on_random_instances(self, trial):
        s1, s2 = adversary_instance(trial, horizon=40.0, seed=1234)
        oracle = oracle_detect(s1, s2, include_boundary=True)
        covered = set()
        for i in range(1, s1.n_intervals + 1):
            window = nonextant_interval(s1, s2, i)
            covered |= {k for k, t in enumerate(s2.times) if t in window}
        assert covered == set(oracle.nonextant_2)


class TestBuildReport:
    def test_unknown_method_raises_value_error(self):
        # a ValueError, not an assert, so the check survives python -O
        with pytest.raises(ValueError, match="method"):
            _build_report(([], []), ([], []), m=1, method="bogus",
                          include_boundary=False)


class TestDataLossRatio:
    def test_golden_ratio(self, golden_pair):
        report = detect_interval_rule(*golden_pair, include_boundary=True)
        assert data_loss_ratio(report) == pytest.approx(0.4)

    def test_zero_overlaps_rejected(self):
        s1 = validate_series([0, 1], [0, 1], "A")
        s2 = validate_series([5, 6], [0, 1], "B")
        report = detect_interval_rule(s1, s2)
        assert report.m == 0
        with pytest.raises(ZeroOverlaps):
            data_loss_ratio(report)


class TestDetectorEquivalence:
    @pytest.mark.parametrize("trial", range(60))
    def test_detectors_agree_on_adversary_instances(self, trial):
        s1, s2 = adversary_instance(trial)
        merged = merge_labels(s1, s2)
        for include in (False, True):
            a = detect_interval_rule(s1, s2, include_boundary=include)
            b = detect_label_rule(merged, include_boundary=include)
            c = oracle_detect(s1, s2, include_boundary=include)
            assert a.same_points(b), (trial, include)
            assert a.same_points(c), (trial, include)
        # first/last observation of each leg always survive
        full = detect_interval_rule(s1, s2, include_boundary=True)
        assert {0, s1.n_intervals}.isdisjoint(full.nonextant_1)
        assert {0, s2.n_intervals}.isdisjoint(full.nonextant_2)

    @staticmethod
    def _assert_interval_and_label_rules_agree(times, is_a):
        s1, s2 = split_legs(times, is_a)
        merged = merge_labels(s1, s2)
        assert np.array_equal(merged.is_a, is_a)
        for include in (False, True):
            interval = detect_interval_rule(s1, s2, include_boundary=include)
            assert interval.same_points(detect_label_rule(merged, include_boundary=include))
            assert interval.m == is_a.size - 3
        assert overlap_count(s1, s2) == enumerate_overlaps(s1, s2).m

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_agree_at_epoch_second_times(self, seed):
        # integer grid times shifted to about 1.7e9 stay exact and tie-free
        times, is_a = random_aligned_labels(np.random.default_rng(seed))
        self._assert_interval_and_label_rules_agree(times + 1.7e9, is_a)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10**6), base=st.sampled_from([1.0, 1.7e9]))
    def test_agree_at_gaps_of_a_few_ulp(self, seed, base):
        # the same merge orders, with consecutive times one to three ulp apart
        rng = np.random.default_rng(seed)
        _, is_a = random_aligned_labels(rng)
        times = base + np.spacing(base) * np.cumsum(rng.integers(1, 4, is_a.size))
        assert np.all(np.diff(times) > 0)
        self._assert_interval_and_label_rules_agree(times, is_a)

    def test_triple_count_matches_substring_count(self):
        # containment detections of each leg are the same-label triple middles
        for trial in range(20):
            s1, s2 = adversary_instance(trial, horizon=80.0, seed=555)
            merged = merge_labels(s1, s2)
            report = detect_interval_rule(s1, s2)
            assert report.f_interior == (
                count_pattern(merged, "AAA") + count_pattern(merged, "BBB")
            )

    @pytest.mark.parametrize("rate_a,rate_b", [(1.0, 1.0), (2.0, 1.0)])
    def test_triple_frequency_approaches_cubed_share(self, rate_a, rate_b):
        # occurrences of AAA per triple approach (a/(a+b))^3 for long runs
        s1, s2 = adversary_instance(0, rate_a=rate_a, rate_b=rate_b,
                                    horizon=2e4, seed=808)
        merged = merge_labels(s1, s2)
        share = (rate_a / (rate_a + rate_b)) ** 3
        frequency = count_pattern(merged, "AAA") / (merged.n - 2)
        assert frequency == pytest.approx(share, abs=0.01)
