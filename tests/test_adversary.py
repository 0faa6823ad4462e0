import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyf.adversary
import hyf.cli
import hyf.core
import hyf.montecarlo
import hyf.ticks
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
from hyf.adversary import draw_label_block, draw_labels
from hyf.cli import main

from _support import reference_generate_poisson, two_leg_generate_inputs

rates = st.floats(1e-3, 1e3)


class TestConfig:
    def test_nonpositive_rate_rejected(self):
        with pytest.raises(NonPositiveRate):
            AdversaryConfig(rate_a=0.0, rate_b=1.0, horizon=10.0)
        with pytest.raises(NonPositiveRate):
            AdversaryConfig(rate_a=1.0, rate_b=-2.0, horizon=10.0)

    @pytest.mark.parametrize("rate_a, rate_b, shown", [
        (math.nan, 1.0, "(nan, 1.0)"),
        (1.0, math.nan, "(1.0, nan)"),
        (math.inf, 1.0, "(inf, 1.0)"),
        (1.0, math.inf, "(1.0, inf)"),
    ])
    def test_non_finite_rate_rejected(self, rate_a, rate_b, shown):
        message = f"rates must be positive and finite, got {shown}"
        with pytest.raises(NonPositiveRate) as info:
            AdversaryConfig(rate_a=rate_a, rate_b=rate_b, horizon=10.0)
        assert str(info.value) == message

    def test_overflowing_rate_sum_rejected(self):
        # each rate is finite, only their sum is not
        with pytest.raises(ValueError) as info:
            AdversaryConfig(rate_a=1e308, rate_b=1e308, horizon=10.0)
        assert not isinstance(info.value, NonPositiveRate)
        assert str(info.value) == "rate_a + rate_b must be finite, got inf"

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

    @pytest.mark.parametrize("seed", [1.5, 7.0, True, np.bool_(False), "3", None])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            AdversaryConfig(rate_a=1, rate_b=1, horizon=1, seed=seed)

    @pytest.mark.parametrize("fields", [
        (True, 1, 10),
        (1, np.bool_(True), 10),
        (1, 1, True),
        ("1", 1, 10),
    ])
    def test_bool_or_non_number_rate_or_horizon_rejected(self, fields):
        with pytest.raises(ValueError, match="must be a real number"):
            AdversaryConfig(*fields, 0)

    def test_numpy_integer_seed_accepted(self):
        assert AdversaryConfig(rate_a=1, rate_b=1, horizon=1, seed=np.uint64(2**63)).seed == 2**63

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

    @pytest.mark.parametrize("rate, horizon, error", [
        (math.nan, 10.0, NonPositiveRate),
        (math.inf, 10.0, NonPositiveRate),
        (-math.inf, 10.0, NonPositiveRate),
        (1.0, math.nan, ValueError),
        (1.0, math.inf, ValueError),
        (1.0, -math.inf, ValueError),
        (1e300, 1e300, ValueError),
    ])
    def test_non_finite_input_rejected(self, rate, horizon, error):
        with pytest.raises(error, match="finite|cap"):
            generate_poisson(rate, horizon, np.random.default_rng(0))

    def test_expected_point_count_capped(self, monkeypatch):
        monkeypatch.setattr(hyf.adversary, "MAX_EXPECTED_POINTS", 100)
        assert generate_poisson(1.0, 100.0, np.random.default_rng(0)).size > 50
        with pytest.raises(ValueError, match="cap of 100"):
            generate_poisson(1.0, 101.0, np.random.default_rng(0))

    @pytest.mark.parametrize("rate, horizon, seed", [(2.0, 500.0, 0), (0.3, 7.0, 1), (5.0, 1e4, 2)])
    def test_matches_inverse_cdf_formula(self, rate, horizon, seed):
        expected = reference_generate_poisson(rate, horizon, np.random.default_rng(seed))
        got = generate_poisson(rate, horizon, np.random.default_rng(seed))
        assert got.tobytes() == expected.tobytes()

    def test_tiny_rate_gives_no_arrivals(self):
        assert generate_poisson(5e-324, 1.0, np.random.default_rng(0)).size == 0

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


class TestStreamIndices:
    """Trial and block indices key the seeded streams, so each must be an
    integer in [0, 2**32): a larger one could reach another stream's key,
    and int() would truncate a float or take a bool silently."""

    CONFIG = AdversaryConfig(rate_a=1, rate_b=1, horizon=10, seed=0)

    @pytest.mark.parametrize("draw", [draw_labels, generate_inputs])
    def test_trial_beyond_32_bits_rejected(self, draw):
        with pytest.raises(ValueError, match="trial must be in"):
            draw(self.CONFIG, 2**33)
        with pytest.raises(ValueError, match="trial must be in"):
            draw(self.CONFIG, -1)

    def test_non_integral_trial_rejected(self):
        with pytest.raises(ValueError, match="trial must be an integer"):
            generate_inputs(self.CONFIG, 1.5)

    @pytest.mark.parametrize("trial", [True, np.bool_(False)])
    def test_bool_trial_rejected(self, trial):
        with pytest.raises(ValueError, match="trial must be an integer"):
            generate_inputs(self.CONFIG, trial)

    @pytest.mark.parametrize("block", [2**32, -1, 1.0, True])
    def test_block_index_checked(self, block):
        with pytest.raises(ValueError, match="block must be"):
            draw_label_block(self.CONFIG, block, 5)

    @pytest.mark.parametrize("trial", [2**32, 1.5, True])
    def test_random_walk_trial_checked(self, trial):
        s1, s2 = generate_inputs(self.CONFIG)
        with pytest.raises(ValueError, match="trial must be"):
            attach_random_walk(s1, s2, seed=0, trial=trial)

    def test_numpy_integer_indices_accepted(self):
        assert np.array_equal(draw_labels(self.CONFIG, np.uint32(2**32 - 1))[0],
                              draw_labels(self.CONFIG, 2**32 - 1)[0])
        assert np.array_equal(draw_label_block(self.CONFIG, np.int64(3), 5)[0],
                              draw_label_block(self.CONFIG, 3, 5)[0])


class TestDrawLabelBlock:
    CONFIG = AdversaryConfig(rate_a=1, rate_b=0.5, horizon=3, seed=13)

    def test_every_string_is_aligned_with_four_labels_or_more(self):
        is_a, sizes = draw_label_block(self.CONFIG, 0, 500)
        ends = np.cumsum(sizes)
        starts = ends - sizes
        assert sizes.min() >= 4 and is_a.size == ends[-1]
        assert (is_a[starts] != is_a[starts + 1]).all()
        assert (is_a[ends - 2] != is_a[ends - 1]).all()
        assert {4, 5, 6} <= set(sizes.tolist())

    def test_reproducible_per_seed_and_block(self):
        first = draw_label_block(self.CONFIG, 2, 50)
        again = draw_label_block(self.CONFIG, 2, 50)
        assert all(np.array_equal(x, y) for x, y in zip(first, again))
        for other in (draw_label_block(self.CONFIG, 3, 50),
                      draw_label_block(dataclasses.replace(self.CONFIG, seed=14), 2, 50)):
            assert not np.array_equal(first[1], other[1])

    def test_stream_key_is_clear_of_trials_and_values(self):
        key = hyf.adversary._BATCH_STREAM_KEY
        assert key > hyf.montecarlo.MAX_RUNS and key != hyf.adversary._VALUE_STREAM_KEY

    def test_budget_exceeded_with_the_per_trial_message(self, monkeypatch):
        monkeypatch.setattr(hyf.adversary, "MAX_RESAMPLES", 20)
        config = AdversaryConfig(rate_a=1, rate_b=1, horizon=0.001, seed=5)
        with pytest.raises(RejectionBudgetExceeded) as per_trial:
            generate_inputs(config)
        with pytest.raises(RejectionBudgetExceeded) as block:
            draw_label_block(config, 0, 10)
        assert str(block.value) == str(per_trial.value)


def _sha256(*arrays) -> str:
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


class TestPinnedStreams:
    """Seeded output is byte-identical across versions: a change that
    reorders, adds or drops a draw changes these digests."""

    CONFIG = AdversaryConfig(rate_a=1.0, rate_b=0.5, horizon=50.0, seed=1729)

    def test_draw_labels(self):
        times, is_a = draw_labels(self.CONFIG, 0)
        assert times.size == 67
        assert _sha256(times, is_a) == (
            "45674935f2d0e54d94614b572d12a9f1320e5959de7128c012af7ae8524379b4")

    def test_draw_label_block(self):
        is_a, sizes = draw_label_block(self.CONFIG, 0, 8)
        assert sizes.tolist() == [64, 73, 70, 67, 80, 70, 80, 69]
        assert _sha256(is_a) == (
            "2ab0c60c733771630a002a5cb655773df985aa97b8868e13fe53a4f42ac6bebc")
        assert _sha256(sizes.astype("<i8")) == (
            "346bf58e6408482267544905b8e1eeb4ac91d9b2ae39f989f53a84ea131d7ca3")

    SIMULATE_200 = ["--rate-a", "1", "--rate-b", "0.25", "--horizon", "200", "--seed", "2301"]
    DIGESTS_200 = [
        "7028af72351fe0a0c10c6d617003025e98f4e65008947b8dda4a4f3fe62b077f",
        "3d38a543562ecd3c23e79306b2fbec3d17126bd4069794e20b9e69a1a822d9c5",
    ]

    @staticmethod
    def _simulate_digests(tmp_path, flags):
        prefix = tmp_path / "sim"
        assert main(["simulate", *flags, "--out-prefix", str(prefix)]) == 0
        return [hashlib.sha256((tmp_path / f"sim_{leg}.csv").read_bytes()).hexdigest()
                for leg in "ab"]

    def test_simulate_files(self, tmp_path):
        assert self._simulate_digests(tmp_path, self.SIMULATE_200) == self.DIGESTS_200

    @pytest.mark.parametrize("block", [1, 2, 3, 5])
    def test_simulate_files_in_small_blocks(self, tmp_path, monkeypatch, block):
        # block edges fall everywhere: in the leg split, the checks and the
        # writer's pieces
        monkeypatch.setattr(hyf.core, "BLOCK_POINTS", block)
        assert self._simulate_digests(tmp_path, self.SIMULATE_200) == self.DIGESTS_200

    @pytest.mark.parametrize("fork", [True, False], ids=["forked", "in_process"])
    def test_simulate_files_forked_in_several_blocks(self, tmp_path, monkeypatch, fork):
        # about 30k points a leg: at least FORK_MIN_POINTS, so leg B is
        # written by a forked child, and about 4 blocks, split and written
        # in pieces
        if not fork:
            monkeypatch.setattr(hyf.ticks, "FORK_MIN_POINTS", 2**62)
        digests = self._simulate_digests(tmp_path, ["--horizon", "30000", "--seed", "2301"])
        assert digests == [
            "8bc81201c82d482de8947a711e692f8a56251dbbaa06c0980aa4b6003e4cab60",
            "786446091079dafe5d3d06cba7af23cbd4196b5bd97d64f52b46aa7dd7832d40",
        ]


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

    @pytest.mark.parametrize("trial", [0, 3])
    def test_each_leg_alone_is_its_leg_of_the_pair(self, trial):
        # each leg draws from its own stream, so the process that writes a
        # leg can draw that leg's walk alone
        s1, s2 = generate_inputs(AdversaryConfig(rate_a=1, rate_b=0.5, horizon=5000, seed=11))
        p1, p2 = attach_random_walk(s1, s2, seed=11, trial=trial)
        a, none_b = attach_random_walk(s1, None, seed=11, trial=trial)
        none_a, b = attach_random_walk(None, s2, seed=11, trial=trial)
        assert none_a is None and none_b is None
        assert a.values.tobytes() == p1.values.tobytes()
        assert b.values.tobytes() == p2.values.tobytes()
        assert a.times is s1.times and b.times is s2.times

    @pytest.mark.parametrize("min_points", [1, 2**62], ids=["forked", "in_process"])
    def test_simulate_files_at_each_fork_threshold(self, tmp_path, monkeypatch, min_points):
        # leg B's walk drawn in the forked child or after leg A's in process
        monkeypatch.setattr(hyf.ticks, "FORK_MIN_POINTS", min_points)
        digests = TestPinnedStreams._simulate_digests(tmp_path, TestPinnedStreams.SIMULATE_200)
        assert digests == TestPinnedStreams.DIGESTS_200


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

    @pytest.mark.parametrize("a,b", [(math.nan, 1), (1, math.nan), (math.inf, 1), (1, math.inf)])
    def test_non_finite_rejected(self, a, b):
        with pytest.raises(NonPositiveRate, match="finite"):
            theoretical_loss(a, b)

    @pytest.mark.parametrize("a,b", [(True, 1), (1, True), (1, False), ("1", 1), (1, 1j)])
    def test_bool_and_non_real_rates_rejected(self, a, b):
        with pytest.raises(ValueError, match="must be a real number"):
            theoretical_loss(a, b)

    @pytest.mark.parametrize("a,b,want", [
        (1e308, 1e308, 0.25),
        (1.7e308, 1e308, theoretical_loss(1.7, 1.0)),
        (1e308, 1e-308, 1.0),
        (5e-324, 5e-324, 0.25),
    ])
    def test_extreme_finite_rates(self, a, b, want):
        assert theoretical_loss(a, b) == pytest.approx(want, rel=1e-12)

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
