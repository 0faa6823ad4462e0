import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyf.adversary
from hyf import (
    AdversaryConfig,
    NonPositiveRate,
    RejectionBudgetExceeded,
    attach_random_walk,
    data_loss_ratio,
    detect_interval_rule,
    enumerate_overlaps,
    generate_inputs,
    generate_poisson,
    theoretical_loss,
)

from _support import two_leg_generate_inputs

rates = st.floats(1e-3, 1e3)


class TestConfig:
    def test_nonpositive_rate_rejected(self):
        with pytest.raises(NonPositiveRate):
            AdversaryConfig(rate_a=0.0, rate_b=1.0, horizon=10.0)
        with pytest.raises(NonPositiveRate):
            AdversaryConfig(rate_a=1.0, rate_b=-2.0, horizon=10.0)

    def test_zero_horizon_rejected(self):
        with pytest.raises(ValueError):
            AdversaryConfig(rate_a=1.0, rate_b=1.0, horizon=0.0)

    def test_fields_are_the_two_rates_horizon_and_seed(self):
        names = [field.name for field in dataclasses.fields(AdversaryConfig)]
        assert names == ["rate_a", "rate_b", "horizon", "seed"]

    def test_seed_range(self):
        with pytest.raises(ValueError):
            AdversaryConfig(rate_a=1, rate_b=1, horizon=1, seed=-1)
        with pytest.raises(ValueError):
            AdversaryConfig(rate_a=1, rate_b=1, horizon=1, seed=2**64)

    @pytest.mark.parametrize("rate_a,rate_b,horizon", [
        (math.nan, 1.0, 10.0),
        (1.0, math.inf, 10.0),
        (1.0, 1.0, math.nan),
        (1.0, 1.0, math.inf),
    ])
    def test_non_finite_rate_or_horizon_rejected(self, rate_a, rate_b, horizon):
        with pytest.raises(ValueError):
            AdversaryConfig(rate_a=rate_a, rate_b=rate_b, horizon=horizon)

    def test_expected_point_count_capped(self):
        cap = hyf.adversary.MAX_EXPECTED_POINTS
        AdversaryConfig(rate_a=1.0, rate_b=1.0, horizon=cap / 2)
        with pytest.raises(ValueError, match="cap"):
            AdversaryConfig(rate_a=1.0, rate_b=1.0, horizon=cap)
        with pytest.raises(ValueError, match="finite"):
            AdversaryConfig(rate_a=1e308, rate_b=1e308, horizon=1.0)


class TestGeneratePoisson:
    def test_strictly_increasing_within_horizon(self):
        rng = np.random.default_rng(0)
        times = generate_poisson(2.0, 500.0, rng)
        assert np.all(np.diff(times) > 0)
        assert times[0] > 0
        assert times[-1] <= 500.0

    def test_deterministic_for_fixed_seed(self):
        a = generate_poisson(1.5, 100.0, np.random.default_rng(42))
        b = generate_poisson(1.5, 100.0, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_zero_rate_rejected(self):
        with pytest.raises(NonPositiveRate):
            generate_poisson(0.0, 10.0, np.random.default_rng(0))

    def test_zero_horizon_rejected(self):
        with pytest.raises(ValueError):
            generate_poisson(1.0, 0.0, np.random.default_rng(0))

    def test_count_concentration(self):
        # rate * horizon = 1000; the count should sit within 5 sigma
        # essentially always
        hits = 0
        total = 1000
        for seed in range(total):
            n = generate_poisson(1.0, 1000.0, np.random.default_rng(seed)).size
            if abs(n - 1000) <= 5 * math.sqrt(1000):
                hits += 1
        assert hits >= 990

    def test_mean_interarrival(self):
        times = generate_poisson(4.0, 5000.0, np.random.default_rng(7))
        assert float(np.mean(np.diff(times))) == pytest.approx(0.25, rel=0.05)


class TestGenerateInputs:
    def test_reproducible_per_trial(self):
        config = AdversaryConfig(rate_a=1, rate_b=1, horizon=50, seed=11)
        a1, b1 = generate_inputs(config, trial=3)
        a2, b2 = generate_inputs(config, trial=3)
        assert np.array_equal(a1.times, a2.times)
        assert np.array_equal(b1.times, b2.times)
        a3, _ = generate_inputs(config, trial=4)
        assert not np.array_equal(a1.times, a3.times)

    def test_labels_and_zero_values(self):
        config = AdversaryConfig(rate_a=1, rate_b=1, horizon=50, seed=11)
        s1, s2 = generate_inputs(config)
        assert (s1.label, s2.label) == ("A", "B")
        assert np.all(s1.values == 0) and np.all(s2.values == 0)

    @pytest.mark.parametrize("trial", range(30))
    def test_accepted_instances_satisfy_point_identity(self, trial):
        config = AdversaryConfig(rate_a=1, rate_b=0.5, horizon=80, seed=23)
        s1, s2 = generate_inputs(config, trial=trial)
        ov = enumerate_overlaps(s1, s2)
        assert ov.m == s1.n_points + s2.n_points - 3
        first = tuple(ov.pairs[0])
        last = tuple(ov.pairs[-1])
        assert first == (1, 1)
        assert last == (s1.n_intervals, s2.n_intervals)

    def test_budget_exceeded_for_degenerate_config(self, monkeypatch):
        monkeypatch.setattr(hyf.adversary, "MAX_RESAMPLES", 20)
        config = AdversaryConfig(rate_a=1, rate_b=1, horizon=0.001, seed=5)
        with pytest.raises(RejectionBudgetExceeded, match="in 20 resamples"):
            generate_inputs(config)

    def test_one_poisson_draw_per_attempt(self, monkeypatch):
        calls = []

        def counting(rate, horizon, rng):
            calls.append(rate)
            return generate_poisson(rate, horizon, rng)

        monkeypatch.setattr(hyf.adversary, "generate_poisson", counting)
        monkeypatch.setattr(hyf.adversary, "MAX_RESAMPLES", 20)
        generate_inputs(AdversaryConfig(rate_a=1, rate_b=0.25, horizon=50, seed=11))
        assert calls == [1.25]
        calls.clear()
        with pytest.raises(RejectionBudgetExceeded):
            generate_inputs(AdversaryConfig(rate_a=1, rate_b=1, horizon=0.001, seed=5))
        assert len(calls) == 20


class TestAgainstTwoLegReference:
    """Two-sample check of the superposed generator against the two-leg
    rejection generator it replaces: same distribution, different draws."""

    RUNS = 400

    @staticmethod
    def _statistics(generate, config, runs):
        rows = []
        for trial in range(runs):
            s1, s2 = generate(config, trial=trial)
            loss = data_loss_ratio(detect_interval_rule(s1, s2))
            rows.append((loss, s1.n_points, s2.n_points, s1.times[0] < s2.times[0]))
        return np.array(rows, dtype=float)

    @pytest.mark.parametrize("rate_b", [1.0, 0.25])
    def test_same_distribution(self, rate_b):
        config = AdversaryConfig(rate_a=1.0, rate_b=rate_b, horizon=100.0, seed=2718)
        new = self._statistics(generate_inputs, config, self.RUNS)
        old = self._statistics(two_leg_generate_inputs, config, self.RUNS)
        names = ("interior loss", "points A", "points B", "starts with A")
        for k, name in enumerate(names):
            error = math.sqrt((new[:, k].var(ddof=1) + old[:, k].var(ddof=1)) / self.RUNS)
            z = (new[:, k].mean() - old[:, k].mean()) / error
            assert abs(z) <= 4.0, (name, new[:, k].mean(), old[:, k].mean(), z)


class TestAttachRandomWalk:
    def test_deterministic_and_time_preserving(self):
        config = AdversaryConfig(rate_a=1, rate_b=1, horizon=50, seed=11)
        s1, s2 = generate_inputs(config)
        p1, p2 = attach_random_walk(s1, s2, seed=11)
        q1, q2 = attach_random_walk(s1, s2, seed=11)
        assert np.array_equal(p1.values, q1.values)
        assert np.array_equal(p2.values, q2.values)
        assert np.array_equal(p1.times, s1.times)
        assert not np.array_equal(p1.values, s1.values)

    def test_trial_changes_values(self):
        config = AdversaryConfig(rate_a=1, rate_b=1, horizon=50, seed=11)
        s1, s2 = generate_inputs(config)
        p1, _ = attach_random_walk(s1, s2, seed=11, trial=0)
        q1, _ = attach_random_walk(s1, s2, seed=11, trial=1)
        assert not np.array_equal(p1.values, q1.values)


class TestTheoreticalLoss:
    def test_reference_values(self):
        assert theoretical_loss(1, 1) == pytest.approx(0.25, rel=1e-12)
        assert theoretical_loss(1, 0.5) == pytest.approx(1 / 3, rel=1e-12)
        assert theoretical_loss(1, 0.25) == pytest.approx(13 / 25, rel=1e-12)
        assert theoretical_loss(1, 0.1) == pytest.approx(91 / 121, rel=1e-12)

    def test_equal_rates_hit_quarter_exactly(self):
        for k in (1e-3, 0.7, 1.0, 42.0, 1e3):
            assert theoretical_loss(k, k) == 0.25

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositiveRate):
            theoretical_loss(0, 1)
        with pytest.raises(NonPositiveRate):
            theoretical_loss(1, -1)

    @settings(max_examples=200, deadline=None)
    @given(a=rates, b=rates)
    def test_symmetry_and_lower_bound(self, a, b):
        f = theoretical_loss(a, b)
        assert f == pytest.approx(theoretical_loss(b, a), rel=1e-12)
        assert f >= 0.25 - 1e-12
        assert f <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(a=rates, b=rates, k=st.floats(1e-2, 1e2))
    def test_scale_invariance(self, a, b, k):
        assert theoretical_loss(k * a, k * b) == pytest.approx(
            theoretical_loss(a, b), rel=1e-9
        )

    @settings(max_examples=200, deadline=None)
    @given(a=rates, b=rates)
    def test_algebraic_identity(self, a, b):
        f = theoretical_loss(a, b)
        assert f == pytest.approx(1.0 - 3.0 * a * b / (a + b) ** 2, rel=1e-12, abs=1e-12)
