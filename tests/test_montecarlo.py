import dataclasses
import math

import numpy as np
import pytest

from hyf import (
    AdversaryConfig,
    DetectorDisagreement,
    LabelSequence,
    detect_interval_rule,
    detect_label_rule,
    loss_table,
    run_experiment,
)
from hyf.montecarlo import label_count

from _support import (
    aligned_label_strings,
    exact_interior_loss,
    interval_rule_experiment,
    split_legs,
)

# exact finite-horizon interior loss at T = 100, as published with the
# benchmark's loss-table check
PUBLISHED_EXACT_T100 = {
    (1.0, 1.0): 0.2487,
    (1.0, 0.5): 0.3303,
    (1.0, 0.25): 0.5127,
    (1.0, 0.1): 0.7387,
}


def quick_config(horizon=300.0, seed=314):
    return AdversaryConfig(rate_a=1.0, rate_b=1.0, horizon=horizon, seed=seed)


class TestRunExperiment:
    def test_deterministic(self):
        a = run_experiment(quick_config(), runs=40)
        b = run_experiment(quick_config(), runs=40)
        assert a == b

    def test_single_run_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(quick_config(), runs=1)

    def test_runs_above_cap_rejected(self, monkeypatch):
        monkeypatch.setattr("hyf.montecarlo.MAX_RUNS", 10)
        with pytest.raises(ValueError, match="exceeds the cap of 10"):
            run_experiment(quick_config(), runs=11)
        assert run_experiment(quick_config(), runs=10).runs == 10

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(quick_config(), runs=4, boundary_mode="everything")

    def test_mean_near_theoretical(self):
        summary = run_experiment(quick_config(), runs=150)
        assert summary.theoretical == 0.25
        assert summary.mean_loss == pytest.approx(0.25, abs=0.02)
        assert summary.std_loss > 0

    def test_total_mode_counts_at_least_interior(self):
        interior = run_experiment(quick_config(), runs=80, boundary_mode="interior")
        total = run_experiment(quick_config(), runs=80, boundary_mode="total")
        assert total.mean_loss >= interior.mean_loss

    def test_std_shrinks_like_sqrt_horizon(self):
        short = run_experiment(quick_config(horizon=100.0), runs=200)
        long = run_experiment(quick_config(horizon=1000.0), runs=200)
        ratio = short.std_loss / long.std_loss
        expected = (1000.0 / 100.0) ** 0.5
        assert expected / 2 <= ratio <= expected * 2

    def test_convergence_through_horizon_ladder(self):
        runs = 300
        gaps = []
        for horizon in (100.0, 1000.0, 10000.0):
            summary = run_experiment(quick_config(horizon=horizon), runs=runs)
            gaps.append(abs(summary.mean_loss - summary.theoretical))
        assert gaps[0] >= gaps[2]
        final = run_experiment(quick_config(horizon=10000.0), runs=runs)
        assert abs(final.mean_loss - final.theoretical) <= 3 * final.std_loss / runs**0.5


class TestLabelCount:
    def test_equals_both_detectors_on_every_aligned_string(self):
        # one boundary-mode report per detector: its f_interior is the
        # interior-mode count, its f_total the total-mode count
        rng = np.random.default_rng(2024)
        strings = 0
        for is_a in aligned_label_strings(4, 14):
            times = np.sort(rng.random(is_a.size))
            label = detect_label_rule(LabelSequence(times, is_a), include_boundary=True)
            interval = detect_interval_rule(*split_legs(times, is_a), include_boundary=True)
            assert label_count(is_a, False) == label.f_interior == interval.f_interior, is_a
            assert label_count(is_a, True) == label.f_total == interval.f_total, is_a
            assert label.m == interval.m == is_a.size - 3
            strings += 1
        assert strings == sum(2 ** (n - 2) for n in range(4, 15))


class TestAgainstIntervalRuleLoop:
    @pytest.mark.parametrize("mode", ["interior", "total"])
    # the 2 in each id is the least number of points per leg, which every
    # accepted draw has
    @pytest.mark.parametrize("rates,horizon", [
        pytest.param((1.0, 1.0), 100.0, id="rates0-100.0-2"),
        pytest.param((1.0, 0.1), 100.0, id="rates1-100.0-2"),
        # (a+b)T = 6: N < 8 is common, N < 4 redraws
        pytest.param((1.0, 1.0), 3.0, id="rates2-3.0-2"),
    ])
    def test_mean_and_std_exactly_equal(self, rates, horizon, mode):
        config = AdversaryConfig(*rates, horizon, seed=1729)
        summary = run_experiment(config, runs=300, boundary_mode=mode)
        assert (summary.mean_loss, summary.std_loss) == interval_rule_experiment(config, 300, mode)


class TestCrossCheck:
    def test_interval_rule_recounts_the_first_two_trials(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return detect_interval_rule(*args, **kwargs)

        monkeypatch.setattr("hyf.montecarlo.detect_interval_rule", counting)
        run_experiment(quick_config(), runs=10)
        assert len(calls) == 2

    @pytest.mark.parametrize("mode", ["interior", "total"])
    def test_off_by_one_interval_count_raises(self, monkeypatch, mode):
        def skewed(*args, **kwargs):
            report = detect_interval_rule(*args, **kwargs)
            return dataclasses.replace(report, f_total=report.f_total + 1)

        monkeypatch.setattr("hyf.montecarlo.detect_interval_rule", skewed)
        with pytest.raises(DetectorDisagreement, match="trial 0, "):
            run_experiment(quick_config(), runs=5, boundary_mode=mode)


class TestExactFiniteHorizon:
    @pytest.mark.parametrize("rates,published", PUBLISHED_EXACT_T100.items())
    def test_matches_published_values(self, rates, published):
        assert exact_interior_loss(*rates, 100.0) == pytest.approx(published, abs=1e-4)

    @pytest.mark.parametrize("rates", PUBLISHED_EXACT_T100)
    def test_mean_within_4_standard_errors(self, rates):
        config = AdversaryConfig(rate_a=rates[0], rate_b=rates[1], horizon=100.0, seed=1729)
        summary = run_experiment(config, runs=1000)
        z = (summary.mean_loss - exact_interior_loss(*rates, 100.0)) / (
            summary.std_loss / math.sqrt(summary.runs)
        )
        assert abs(z) <= 4.0, (rates, summary.mean_loss, z)


class TestLossTable:
    def test_grid_shape_and_theory_row(self):
        table = loss_table(
            rate_pairs=[(1, 1), (1, 0.5)],
            horizons=[50, 100],
            runs=25,
            seed=99,
        )
        assert len(table.rows) == 2
        assert all(len(row) == 2 for row in table.rows)
        assert len(table.cells()) == 4
        assert table.theoretical[0] == pytest.approx(0.25)
        assert table.theoretical[1] == pytest.approx(1 / 3)
        for row, horizon in zip(table.rows, table.horizons):
            for summary, pair in zip(row, table.rate_pairs):
                assert summary.config.horizon == horizon
                assert (summary.config.rate_a, summary.config.rate_b) == pair
                assert summary.runs == 25

    def test_single_cell(self):
        table = loss_table([(1, 1)], [50], runs=10, seed=1)
        assert len(table.cells()) == 1

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            loss_table([], [100], runs=10, seed=1)
        with pytest.raises(ValueError):
            loss_table([(1, 1)], [], runs=10, seed=1)

    def test_deterministic(self):
        t1 = loss_table([(1, 0.5)], [80], runs=20, seed=77)
        t2 = loss_table([(1, 0.5)], [80], runs=20, seed=77)
        assert t1 == t2
