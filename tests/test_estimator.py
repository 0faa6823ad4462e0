import math
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyf import (
    ValidationError,
    core,
    enumerate_overlaps,
    hy_covariance,
    overlap_count,
    point_coefficients,
    telescope_rows,
    validate_series,
)

from _support import (
    brute_hy,
    edge_examples,
    finite_difference_coefficient,
    loop_groups,
    random_tie_free_pair,
    random_tied_pair,
    staircase_pairs,
)
from conftest import GOLDEN_COVARIANCE


def test_golden_covariance_matches_double_sum_oracle(golden_pair):
    got = hy_covariance(*golden_pair)
    oracle = brute_hy(*golden_pair)
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got == GOLDEN_COVARIANCE


def test_synchronous_pair_gives_realized_variance():
    t = [0.0, 1.0, 2.5, 4.0, 7.0]
    v = [3.0, 1.0, 4.0, 1.0, 5.0]
    s1 = validate_series(t, v, "A")
    s2 = validate_series(t, v, "B")
    assert hy_covariance(s1, s2) == pytest.approx(float(np.sum(np.diff(v) ** 2)), rel=1e-12)


@pytest.mark.parametrize("prices_a", [
    # products x, y, -z near the float maximum: the partial sum x + y
    # overflows math.fsum, the exact sum is finite
    [0.0, 1e154, 2e154, 1e154],
    # x, y, z: the sum itself is beyond the float range
    [0.0, 1e154, 2e154, 3e154],
])
def test_sum_exact_where_a_partial_sum_overflows(prices_a):
    t = [0.0, 1.0, 2.0, 3.0]
    s1 = validate_series(t, prices_a, "A")
    s2 = validate_series(t, [0.0, 1e154, 2e154, 3e154], "B")
    exact = sum(map(Fraction, (s1.increments * s2.increments).tolist()))
    if abs(exact) > sys.float_info.max:
        with pytest.raises(ValidationError, match="beyond the float range"):
            hy_covariance(s1, s2)
    else:
        assert hy_covariance(s1, s2) == float(exact)


def test_constant_leg_gives_zero(golden_pair):
    s1, s2 = golden_pair
    flat = s1.with_values(np.full(s1.n_points, 7.0))
    assert hy_covariance(flat, s2) == 0.0


class TestTelescopeRows:
    def test_golden_row_grouping(self, golden_pair):
        terms = telescope_rows(*golden_pair)
        assert terms.raw_terms.shape == (10,)
        # ten summands collapse to three: two B-anchored rows, one A-anchored run
        assert terms.groups.tolist() == [[0, 1, 1, 4], [0, 2, 4, 6], [1, 6, 3, 5]]
        assert terms.grouped_terms.tolist() == [-25.0, -25.0, 20.0]
        assert terms.grouped_total() == pytest.approx(GOLDEN_COVARIANCE, rel=1e-12)

    def test_golden_alternative_grouping(self, golden_pair):
        terms = telescope_rows(*golden_pair, anchoring="alternative")
        # factoring the first corner column out first costs one extra group
        assert terms.groups.tolist() == [[0, 1, 1, 3], [1, 4, 1, 2], [0, 2, 5, 6], [1, 6, 3, 5]]
        assert terms.grouped_terms.tolist() == [0.0, -50.0, 0.0, 20.0]
        assert terms.grouped_total() == pytest.approx(GOLDEN_COVARIANCE, rel=1e-12)

    def test_single_overlap_single_group(self):
        s1 = validate_series([0, 10], [1.0, 4.0], "A")
        s2 = validate_series([1, 2], [2.0, 7.0], "B")
        terms = telescope_rows(s1, s2)
        assert terms.grouped_terms.tolist() == [15.0]

    def test_no_overlap_empty(self):
        s1 = validate_series([0, 1], [0, 1], "A")
        s2 = validate_series([5, 6], [0, 1], "B")
        terms = telescope_rows(s1, s2)
        assert terms.raw_terms.shape == (0,)
        assert terms.grouped_terms.shape == (0,)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_products_match_python_floats(self):
        # finite prices whose products overflow give inf / nan, not a warning
        s1 = validate_series([1, 2, 3], [0.0, 1e200, 0.0], "A")
        s2 = validate_series([0.5, 2.5, 3.5], [0.0, 1e200, 0.0], "B")
        terms = telescope_rows(s1, s2)
        assert terms.raw_terms.tolist() == [math.inf, -math.inf, math.inf]
        assert terms.grouped_terms.tolist() == [0.0, math.inf]
        assert math.isnan(terms.raw_total())
        assert terms.grouped_total() == math.inf

    def test_unknown_anchoring_rejected(self, golden_pair):
        with pytest.raises(ValueError):
            telescope_rows(*golden_pair, anchoring="minimal")

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_groupings_match_raw_sum(self, seed):
        rng = np.random.default_rng(seed)
        for make_pair in (random_tie_free_pair, random_tied_pair):
            s1, s2 = make_pair(rng)
            raw = brute_hy(s1, s2)
            assert hy_covariance(s1, s2) == pytest.approx(raw, rel=1e-9, abs=1e-9)
            for anchoring in ("row", "alternative"):
                terms = telescope_rows(s1, s2, anchoring=anchoring)
                assert terms.raw_total() == pytest.approx(raw, rel=1e-9, abs=1e-9)
                assert terms.grouped_total() == pytest.approx(raw, rel=1e-9, abs=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10**6), block=st.just(core.BLOCK_POINTS))
    @edge_examples()
    def test_groups_match_loop_reference(self, seed, block):
        # tie-free, partly tied and fully synchronous staircases, and the edge ones
        for s1, s2 in staircase_pairs(seed, max_points=30):
            pairs = [tuple(p) for p in enumerate_overlaps(s1, s2).pairs.tolist()]
            for anchoring in ("row", "alternative"):
                with mock.patch.object(core, "BLOCK_POINTS", block):
                    groups = telescope_rows(s1, s2, anchoring=anchoring).groups.tolist()
                got = [(("row", "col")[axis], *rest) for axis, *rest in groups]
                assert got == loop_groups(pairs, anchoring)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10**6), block=st.just(core.BLOCK_POINTS))
    @edge_examples()
    def test_counts_match_built_arrays(self, seed, block):
        # the counts come without building the pairs or the groups
        for s1, s2 in staircase_pairs(seed):
            for anchoring in ("row", "alternative"):
                with mock.patch.object(core, "BLOCK_POINTS", block):
                    terms = telescope_rows(s1, s2, anchoring=anchoring)
                assert "pairs" not in vars(terms) and "groups" not in vars(terms)
                assert terms.raw_count == len(terms.pairs) == overlap_count(s1, s2)
                assert terms.grouped_count == len(terms.groups)


class TestCoefficients:
    def test_golden_cancelled_point_has_zero_coefficient(self, golden_pair):
        assert point_coefficients(*golden_pair)[1] == 0.0

    def test_golden_first_point_coefficient(self, golden_pair):
        # frozen from the finite-difference oracle; equals -(first B increment)
        s1, s2 = golden_pair
        assert point_coefficients(s1, s2)[0] == -5.0
        fd = finite_difference_coefficient(s1, s2, "A", 0, hy_covariance)
        assert fd == pytest.approx(-5.0, rel=1e-12)

    def test_synchronous_interior_point(self):
        t = [0.0, 1.0, 2.0, 3.0]
        s1 = validate_series(t, [0.0, 0.0, 0.0, 0.0], "A")
        s2 = validate_series(t, [1.0, 5.0, 2.0, 4.0], "B")
        # diagonal structure: coefficient is the opposite-leg increment
        # change across the two adjacent intervals
        db = np.diff(s2.values)
        coeffs = point_coefficients(s1, s2)
        for k in (1, 2):
            assert coeffs[k] == pytest.approx(db[k - 1] - db[k])

    def test_point_coefficients_agree_with_scalar(self, golden_pair):
        s1, s2 = golden_pair
        for series, opposite in ((s1, s2), (s2, s1)):
            coeffs = point_coefficients(series, opposite)
            for k in range(series.n_points):
                fd = finite_difference_coefficient(s1, s2, series.label, k, hy_covariance)
                assert coeffs[k] == pytest.approx(fd, rel=1e-12, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_affine_in_every_value(self, seed):
        rng = np.random.default_rng(seed)
        for make_pair in (random_tie_free_pair, random_tied_pair):
            s1, s2 = make_pair(rng)
            base = hy_covariance(s1, s2)
            leg = "A" if rng.random() < 0.5 else "B"
            series, opposite = (s1, s2) if leg == "A" else (s2, s1)
            k = int(rng.integers(0, series.n_points))
            delta = float(rng.uniform(0.5, 3.0))
            bumped = series.values.copy()
            bumped[k] += delta
            if leg == "A":
                moved = hy_covariance(s1.with_values(bumped), s2)
            else:
                moved = hy_covariance(s1, s2.with_values(bumped))
            predicted = point_coefficients(series, opposite)[k] * delta
            assert moved - base == pytest.approx(predicted, rel=1e-9, abs=1e-9)
            slope = finite_difference_coefficient(s1, s2, leg, k, brute_hy, delta)
            assert slope * delta == pytest.approx(predicted, rel=1e-9, abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_symmetry(seed):
    s1, s2 = random_tie_free_pair(np.random.default_rng(seed))
    assert hy_covariance(s1, s2) == pytest.approx(hy_covariance(s2, s1), rel=1e-12, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**6), k=st.floats(-8, 8).filter(lambda x: abs(x) > 1e-3))
def test_bilinearity(seed, k):
    s1, s2 = random_tie_free_pair(np.random.default_rng(seed))
    base = hy_covariance(s1, s2)
    scaled = hy_covariance(s1.with_values(k * s1.values), s2)
    assert scaled == pytest.approx(k * base, rel=1e-12, abs=1e-12)
    assert math.isfinite(scaled)
