import contextlib
import dataclasses
import errno
import io
import json
import math
import os
import pickle
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyf import __version__, cli, detect_interval_rule
from hyf.cli import TickParseError, _json_dumps, _read_tick_lines, main, read_tick_file

from conftest import (
    GOLDEN_PRICES_A,
    GOLDEN_PRICES_B,
    GOLDEN_TIMES_A,
    GOLDEN_TIMES_B,
)


def write_csv(path, times, prices):
    lines = ["time,price"] + [f"{float(t)!r},{float(p)!r}" for t, p in zip(times, prices)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def golden_files(tmp_path):
    a = write_csv(tmp_path / "a.csv", GOLDEN_TIMES_A, GOLDEN_PRICES_A)
    b = write_csv(tmp_path / "b.csv", GOLDEN_TIMES_B, GOLDEN_PRICES_B)
    return a, b


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEstimate:
    def test_golden_text(self, capsys, golden_files):
        code, out, _ = run_cli(capsys, "estimate", *golden_files)
        assert code == 0
        lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
        assert lines["covariance"] == "-30.0"
        assert lines["overlaps"] == "10"
        assert lines["raw_terms"] == "10"
        assert lines["grouped_terms"] == "3"

    def test_golden_json(self, capsys, golden_files):
        code, out, _ = run_cli(capsys, "estimate", *golden_files, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "estimate"
        assert payload["version"] == __version__
        assert payload["seed"] is None
        assert payload["results"]["covariance"] == -30.0
        assert payload["results"]["overlaps"] == 10

    def test_identical_files_give_realized_variance(self, capsys, tmp_path):
        times = [0.0, 1.0, 2.0, 3.5]
        prices = [2.0, 5.0, 1.0, 4.0]
        a = write_csv(tmp_path / "a.csv", times, prices)
        b = write_csv(tmp_path / "b.csv", times, prices)
        code, out, _ = run_cli(capsys, "estimate", a, b, "--json")
        assert code == 0
        expected = float(np.sum(np.diff(prices) ** 2))
        assert json.loads(out)["results"]["covariance"] == pytest.approx(expected)

    def test_partial_shared_timestamp_exits_3(self, capsys, tmp_path):
        a = write_csv(tmp_path / "a.csv", [1.0, 2.0, 3.0], [0, 0, 0])
        b = write_csv(tmp_path / "b.csv", [2.0, 4.0], [0, 0])
        code, _, err = run_cli(capsys, "estimate", a, b)
        assert code == 3
        assert "2.0" in err
        assert "np." not in err

    def test_empty_file_exits_3(self, capsys, tmp_path):
        a = write_csv(tmp_path / "a.csv", [], [])
        b = write_csv(tmp_path / "b.csv", [2.0, 4.0], [0, 0])
        code, _, err = run_cli(capsys, "estimate", a, b)
        assert code == 3
        assert "Traceback" not in err

    def test_jitter_breaks_partial_tie(self, capsys, tmp_path):
        a = write_csv(tmp_path / "a.csv", [1.0, 2.0, 3.0], [0, 1, 2])
        b = write_csv(tmp_path / "b.csv", [2.0, 4.0], [0, 1])
        code, _, _ = run_cli(capsys, "estimate", a, b, "--jitter")
        assert code == 0

    def test_jitter_breaks_epoch_second_tie(self, capsys, tmp_path):
        # 1e-9 of the median gap is below one ulp at t ~ 1.7e9
        a = write_csv(tmp_path / "a.csv", [1700000000, 1700000001, 1700000002], [0, 1, 2])
        b = write_csv(tmp_path / "b.csv", [1700000001, 1700000003], [0, 1])
        code, out, err = run_cli(capsys, "estimate", a, b, "--jitter")
        assert (code, err) == (0, "")
        assert "overlaps 1" in out

    def test_jitter_onto_another_tie_exits_3(self, capsys, tmp_path):
        t = 1700000001.0
        a = write_csv(tmp_path / "a.csv", [1700000000, t, np.nextafter(t, np.inf)], [0, 1, 2])
        b = write_csv(tmp_path / "b.csv", [t, 1700000003], [0, 1])
        code, _, err = run_cli(capsys, "estimate", a, b, "--jitter")
        assert code == 3
        assert repr(float(np.nextafter(t, np.inf))) in err

    def test_bad_header_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time;price\n1,2\n")
        good = write_csv(tmp_path / "b.csv", [1.0, 2.0], [0, 0])
        code, _, err = run_cli(capsys, "estimate", str(bad), good)
        assert code == 2
        assert ":1:" in err

    def test_bad_number_exits_2_with_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,price\n1.0,2.0\nnope,3.0\n")
        good = write_csv(tmp_path / "b.csv", [1.5, 2.5], [0, 0])
        code, _, err = run_cli(capsys, "estimate", str(bad), good)
        assert code == 2
        assert ":3:" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        good = write_csv(tmp_path / "b.csv", [1.0, 2.0], [0, 0])
        code, _, _ = run_cli(capsys, "estimate", str(tmp_path / "none.csv"), good)
        assert code == 2

    def test_non_monotone_file_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,price\n2.0,1.0\n1.0,1.0\n")
        good = write_csv(tmp_path / "b.csv", [0.5, 3.5], [0, 0])
        code, _, err = run_cli(capsys, "estimate", str(bad), good)
        assert code == 3
        assert "np." not in err

    def test_non_finite_price_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,price\n1.0,1.0\n2.0,nan\n3.0,2.0\n")
        good = write_csv(tmp_path / "b.csv", [0.5, 3.5], [0, 0])
        code, out, err = run_cli(capsys, "estimate", str(bad), good)
        assert code == 3
        assert out == ""
        assert "leg A" in err and "position 1" in err

    def test_overflowing_increment_exits_3(self, capsys, tmp_path):
        bad = write_csv(tmp_path / "bad.csv", [1.0, 2.0, 3.0], [1e308, -1e308, 2.0])
        good = write_csv(tmp_path / "b.csv", [0.5, 3.5], [0, 0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "estimate", bad, good)
        assert code == 3
        assert out == ""
        assert "leg A" in err and "position 1" in err and "overflows" in err

    @pytest.mark.parametrize("times_b,prices_b", [
        ([0.5, 2.5, 3.5], [0.0, 1e200, 0.0]),  # one product overflows: inf
        ([0.5, 1.5, 2.5, 3.5], [0.0, 1e200, 1e200, 2e200]),  # inf - inf: nan
    ])
    def test_overflowing_covariance_exits_3(self, capsys, tmp_path, times_b, prices_b):
        a = write_csv(tmp_path / "a.csv", [1.0, 2.0, 3.0], [0.0, 1e200, 0.0])
        b = write_csv(tmp_path / "b.csv", times_b, prices_b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "estimate", a, b)
        assert code == 3
        assert out == ""
        assert err.startswith("hyf: invalid input: covariance is ")
        assert err.count("\n") == 1

    def test_non_utf8_file_exits_2_with_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"time,price\n1.0,1.0\n2.0,1\xff5\n3.0,2.0\n")
        good = write_csv(tmp_path / "b.csv", [0.5, 3.5], [0, 0])
        code, _, err = run_cli(capsys, "estimate", str(bad), good)
        assert code == 2
        assert err == f"hyf: parse error: {bad}:3: not UTF-8 text (byte 0xff)\n"


# full text stdout of `detect --method all --include-boundary` on the golden
# pair, where the oracle is misled by the demo prices (exit 4)
GOLDEN_DETECT_ALL_TEXT = """\
method interval_rule
nonextant_A indices=1,2 times=3.0,4.0
nonextant_B indices=3,4 times=10.0,11.0
f_interior 3
f_total 4
overlaps 10
loss 0.4
method label_rule
nonextant_A indices=1,2 times=3.0,4.0
nonextant_B indices=3,4 times=10.0,11.0
f_interior 3
f_total 4
overlaps 10
loss 0.4
method oracle
nonextant_A indices=1,2 times=3.0,4.0
nonextant_B indices=1,3,4 times=6.0,10.0,11.0
f_interior 3
f_total 5
overlaps 10
loss 0.5
agreement FAILED
"""


# finite prices whose median opposite increment (pair 1) or coefficients
# (pair 2) overflow a float
ORACLE_PAIR_1 = (b"time,price\n1,1e308\n2,0\n3,9e307\n4,2e307\n",
                 b"time,price\n0.5,0\n2.5,1e308\n4.5,1e307\n")
ORACLE_PAIR_2 = (b"time,price\n1,1e308\n2,0\n3,-1e308\n",
                 b"time,price\n0.5,0\n3.5,1\n4,2\n")


def write_pair(directory, pair):
    paths = (directory / "a.csv", directory / "b.csv")
    for path, raw in zip(paths, pair):
        path.write_bytes(raw)
    return tuple(map(str, paths))


class TestDetect:
    @pytest.mark.filterwarnings("error")
    def test_oracle_median_scale_does_not_overflow(self, capsys, tmp_path):
        files = write_pair(tmp_path, ORACLE_PAIR_1)
        code, out, err = run_cli(capsys, "detect", *files, "--method", "all",
                                 "--include-boundary")
        assert code == 0
        assert out.endswith("agreement ok\n")
        assert "f_total 0\n" in out and "f_total 4" not in out
        assert err == ""

    @pytest.mark.filterwarnings("error")
    def test_oracle_overflowing_coefficient_exits_3(self, capsys, tmp_path):
        files = write_pair(tmp_path, ORACLE_PAIR_2)
        code, out, err = run_cli(capsys, "detect", *files, "--method", "oracle")
        assert code == 3
        assert out == ""
        assert err.startswith("hyf: invalid input: ") and err.count("\n") == 1
        assert "overflows" in err

    def test_golden_method_all_text(self, capsys, golden_files):
        code, out, err = run_cli(
            capsys, "detect", *golden_files, "--method", "all", "--include-boundary"
        )
        assert code == 4
        assert out == GOLDEN_DETECT_ALL_TEXT
        assert err == "hyf: detectors disagree; this indicates a bug\n"

    def test_equal_indices_on_both_legs_keep_their_own_times(self, capsys, tmp_path):
        # merged labels ABAAABBBA: index 2 is nonextant on both legs
        a = write_csv(tmp_path / "a.csv", [0, 2, 3, 4, 8], [1, 4, 2, 8, 5])
        b = write_csv(tmp_path / "b.csv", [1, 5, 6, 7], [3, 9, 1, 7])
        code, out, _ = run_cli(capsys, "detect", a, b, "--method", "all")
        assert code == 0
        report = (
            "nonextant_A indices=2 times=3.0\n"
            "nonextant_B indices=2 times=6.0\n"
            "f_interior 2\nf_total 2\noverlaps 6\nloss 0.3333333333333333\n"
        )
        assert out == "".join(
            f"method {m}\n{report}" for m in ("interval_rule", "label_rule", "oracle")
        ) + "agreement ok\n"

    def test_golden_with_boundary(self, capsys, golden_files):
        code, out, _ = run_cli(
            capsys, "detect", *golden_files, "--include-boundary", "--json"
        )
        assert code == 0
        report = json.loads(out)["results"]["reports"][0]
        assert report["method"] == "interval_rule"
        assert report["legs"]["A"]["times"] == [3.0, 4.0]
        assert report["legs"]["B"]["times"] == [10.0, 11.0]
        assert report["f_total"] == 4
        assert report["m"] == 10
        assert report["loss"] == pytest.approx(0.4)

    def test_json_ratio_round_trips(self, capsys, golden_files):
        code, out, _ = run_cli(
            capsys, "detect", *golden_files, "--include-boundary", "--json"
        )
        report = json.loads(out)["results"]["reports"][0]
        assert report["loss"] == report["f_total"] / report["m"]

    def test_synchronous_files_empty(self, capsys, tmp_path):
        times = [0.0, 1.0, 2.0, 3.0]
        a = write_csv(tmp_path / "a.csv", times, [1, 3, 2, 4])
        b = write_csv(tmp_path / "b.csv", times, [2, 1, 4, 3])
        code, out, _ = run_cli(capsys, "detect", a, b, "--json")
        assert code == 0
        report = json.loads(out)["results"]["reports"][0]
        assert report["legs"]["A"]["indices"] == []
        assert report["legs"]["B"]["indices"] == []

    def test_method_all_disagrees_on_conspiring_prices(self, capsys, golden_files):
        # the demo prices make one extant point's coefficient exactly zero
        # (two telescoped endpoint differences coincide), so the
        # value-based oracle is misled and the disagreement exit fires
        code, out, _ = run_cli(
            capsys, "detect", *golden_files, "--method", "all", "--include-boundary", "--json"
        )
        assert code == 4
        payload = json.loads(out)
        assert payload["results"]["agree"] is False
        assert len(payload["results"]["reports"]) == 3

    def test_method_all_on_simulated_fixtures(self, capsys, tmp_path):
        for seed in range(12):
            prefix = tmp_path / f"sim{seed}"
            code = main([
                "simulate", "--horizon", "40", "--seed", str(seed),
                "--out-prefix", str(prefix),
            ])
            assert code == 0
            capsys.readouterr()
            code = main([
                "detect", f"{prefix}_a.csv", f"{prefix}_b.csv",
                "--method", "all", "--include-boundary",
            ])
            capsys.readouterr()
            assert code == 0

    @pytest.mark.parametrize("method", ["label", "all"])
    def test_synchronous_files_rejected_by_label_merge(self, capsys, tmp_path, method):
        # the label merge needs a strict order, so identical time columns
        # are a validation error rather than an empty report
        times = [0.0, 1.0, 2.0, 3.0]
        a = write_csv(tmp_path / "a.csv", times, [1, 3, 2, 4])
        b = write_csv(tmp_path / "b.csv", times, [2, 1, 4, 3])
        code, _, err = run_cli(capsys, "detect", a, b, "--method", method)
        assert code == 3
        assert err.count("\n") == 1
        assert err.startswith("hyf: invalid input: ")
        assert "np." not in err

    def test_label_method(self, capsys, golden_files):
        code, out, _ = run_cli(
            capsys, "detect", *golden_files, "--method", "label", "--json"
        )
        assert code == 0
        assert json.loads(out)["results"]["reports"][0]["method"] == "label_rule"


class TestSimulate:
    def test_byte_identical_for_same_seed(self, capsys, tmp_path):
        args = ["simulate", "--rate-a", "1", "--rate-b", "1", "--horizon", "100",
                "--seed", "42"]
        assert main(args + ["--out-prefix", str(tmp_path / "x")]) == 0
        assert main(args + ["--out-prefix", str(tmp_path / "y")]) == 0
        capsys.readouterr()
        for leg in ("a", "b"):
            x = (tmp_path / f"x_{leg}.csv").read_bytes()
            y = (tmp_path / f"y_{leg}.csv").read_bytes()
            assert x == y

    def test_seed_changes_output(self, capsys, tmp_path):
        main(["simulate", "--horizon", "100", "--seed", "1",
              "--out-prefix", str(tmp_path / "x")])
        main(["simulate", "--horizon", "100", "--seed", "2",
              "--out-prefix", str(tmp_path / "y")])
        capsys.readouterr()
        assert (tmp_path / "x_a.csv").read_text() != (tmp_path / "y_a.csv").read_text()

    def test_output_parses_and_validates(self, capsys, tmp_path):
        prefix = tmp_path / "sim"
        code = main(["simulate", "--horizon", "200", "--seed", "7",
                     "--out-prefix", str(prefix)])
        capsys.readouterr()
        assert code == 0
        code = main(["estimate", f"{prefix}_a.csv", f"{prefix}_b.csv"])
        capsys.readouterr()
        assert code == 0

    def test_point_counts_concentrate(self, capsys, tmp_path):
        # rate 1 + 1 over horizon 100: total points within 3 sigma of 200
        hits = 0
        trials = 40
        for seed in range(trials):
            code, out, _ = run_cli(
                capsys, "simulate", "--horizon", "100", "--seed", str(seed),
                "--out-prefix", str(tmp_path / f"s{seed}"), "--json",
            )
            assert code == 0
            results = json.loads(out)["results"]
            total = results["points_a"] + results["points_b"]
            if abs(total - 200) <= 3 * math.sqrt(200):
                hits += 1
        assert hits >= trials - 1

    def test_zero_horizon_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--horizon", "0",
                               "--out-prefix", str(tmp_path / "x"))
        assert code == 1
        assert "horizon" in err

    def test_negative_rate_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "simulate", "--horizon", "10", "--rate-a", "-1",
                             "--out-prefix", str(tmp_path / "x"))
        assert code == 1

    def test_env_seed_override(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HYF_SEED", "42")
        assert main(["simulate", "--horizon", "100",
                     "--out-prefix", str(tmp_path / "env")]) == 0
        monkeypatch.delenv("HYF_SEED")
        assert main(["simulate", "--horizon", "100", "--seed", "42",
                     "--out-prefix", str(tmp_path / "flag")]) == 0
        capsys.readouterr()
        assert (tmp_path / "env_a.csv").read_bytes() == (tmp_path / "flag_a.csv").read_bytes()

    def test_bad_env_seed_is_usage_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HYF_SEED", "not-a-number")
        code, _, _ = run_cli(capsys, "simulate", "--horizon", "100",
                             "--out-prefix", str(tmp_path / "x"))
        assert code == 1

    @pytest.mark.parametrize("flags", [
        ["--horizon", "10", "--seed", "-1"],
        ["--horizon", "nan"],
        ["--horizon", "inf"],
        ["--horizon", "10", "--rate-a", "nan"],
        ["--horizon", "1", "--rate-a", "1e308", "--rate-b", "1e308"],
    ])
    def test_out_of_range_generator_input_is_usage_error(self, capsys, tmp_path, flags):
        code, _, err = run_cli(capsys, "simulate", *flags,
                               "--out-prefix", str(tmp_path / "x"))
        assert code == 1
        assert err.startswith("hyf: error: ")

    def test_rejection_budget_exits_5_without_writing(self, capsys, tmp_path):
        prefix = tmp_path / "x"
        code, out, err = run_cli(capsys, "simulate", "--horizon", "0.001",
                                 "--out-prefix", str(prefix))
        assert code == 5
        assert out == ""
        assert err == ("hyf: no accepted draw in 1000 resamples "
                       "(rates 1.0, 1.0, horizon 0.001)\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("leg", ["", "a", "b"])
    def test_unwritable_out_prefix_exits_1(self, capsys, tmp_path, monkeypatch, leg):
        # a missing directory, or a directory where one tick file should go;
        # in process, then with leg B written by a forked child
        for min_points in (10**9, 0):
            monkeypatch.setattr("hyf.cli.FORK_MIN_POINTS", min_points)
            directory = tmp_path / str(min_points)
            directory.mkdir()
            prefix = directory / "missing" / "x"
            if leg:
                prefix = directory / "x"
                (directory / f"x_{leg}.csv").mkdir()
            code, out, err = run_cli(capsys, "simulate", "--horizon", "10",
                                     "--out-prefix", str(prefix))
            path = f"{prefix}_{leg or 'a'}.csv"
            assert code == 1
            assert out == ""
            assert re.fullmatch(f"hyf: error: cannot write {re.escape(path)}: [^\n]+\n", err)
            # no half pair stays behind
            assert [p.name for p in directory.iterdir()] == ([f"x_{leg}.csv"] if leg else [])

    def test_unwritable_pair_names_a(self, capsys, tmp_path, monkeypatch):
        for min_points in (10**9, 0):
            monkeypatch.setattr("hyf.cli.FORK_MIN_POINTS", min_points)
            for leg in "ab":
                (tmp_path / f"{min_points}_{leg}.csv").mkdir()
            code, _, err = run_cli(capsys, "simulate", "--horizon", "10",
                                   "--out-prefix", str(tmp_path / str(min_points)))
            assert code == 1
            assert err.startswith(f"hyf: error: cannot write {tmp_path / str(min_points)}_a.csv: ")

    def test_failed_leg_b_write_removes_its_partial_file(self, capsys, tmp_path, monkeypatch):
        # a failure after open() (a full disk, say) leaves a file this run made
        real = cli.write_tick_file

        def full_disk(path, series):
            if path.endswith("_b.csv"):
                with open(path, "w") as fh:
                    fh.write("time,price\n")
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            real(path, series)

        monkeypatch.setattr(cli, "write_tick_file", full_disk)
        for min_points in (10**9, 0):
            monkeypatch.setattr("hyf.cli.FORK_MIN_POINTS", min_points)
            prefix = tmp_path / str(min_points)
            code, _, err = run_cli(capsys, "simulate", "--horizon", "10",
                                   "--out-prefix", str(prefix))
            assert code == 1
            assert err == f"hyf: error: cannot write {prefix}_b.csv: No space left on device\n"
        assert list(tmp_path.iterdir()) == []

    def test_negative_env_seed_is_usage_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HYF_SEED", "-3")
        code, _, err = run_cli(capsys, "simulate", "--horizon", "10",
                               "--out-prefix", str(tmp_path / "x"))
        assert code == 1
        assert err.startswith("hyf: error: HYF_SEED")


class TestLossTable:
    def test_small_grid_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "loss-table", "--runs", "10", "--horizons", "50",
            "--rates", "1,1", "--seed", "3",
        )
        assert code == 0
        assert "exact" in out
        assert "0.25" in out

    def test_json_cells(self, capsys):
        code, out, _ = run_cli(
            capsys, "loss-table", "--runs", "12", "--horizons", "50,100",
            "--rates", "1,1;1,1/2", "--seed", "3", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        cells = payload["results"]["cells"]
        assert len(cells) == 4
        assert payload["results"]["theoretical"] == pytest.approx([0.25, 1 / 3])
        assert {c["boundary_mode"] for c in cells} == {"interior"}
        assert payload["seed"] == 3

    def test_fraction_rate_syntax(self, capsys):
        code, out, _ = run_cli(
            capsys, "loss-table", "--runs", "8", "--horizons", "50",
            "--rates", "1,1/4", "--seed", "3", "--json",
        )
        assert code == 0
        assert json.loads(out)["results"]["cells"][0]["rate_b"] == 0.25

    def test_unknown_rate_syntax_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "loss-table", "--rates", "fast,slow")
        assert code == 1
        assert "rate" in err

    def test_single_run_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "loss-table", "--runs", "1")
        assert code == 1
        assert err.startswith("hyf: error: need at least 2 runs")

    def test_rejection_budget_exits_5(self, capsys):
        code, out, err = run_cli(capsys, "loss-table", "--horizons", "0.001", "--runs", "2")
        assert code == 5
        assert out == ""
        assert err.startswith("hyf: no accepted draw in 1000 resamples ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("rates,horizon", [
        ("1,nan", "10"),
        ("0,1", "10"),
        ("1,inf", "10"),
        ("1,1", "0"),
        ("1,1", "inf"),
        ("1,1", "-3"),
        ("1e200,1", "1e200"),
    ])
    def test_generator_input_message_matches_simulate(
        self, capsys, monkeypatch, tmp_path, rates, horizon
    ):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("hyf.montecarlo.run_experiment", no_trials)
        code, _, err = run_cli(capsys, "loss-table", "--rates", rates,
                               "--horizons", horizon, "--runs", "2")
        rate_a, rate_b = rates.split(",")
        sim_code, _, sim_err = run_cli(
            capsys, "simulate", "--rate-a", rate_a, "--rate-b", rate_b,
            "--horizon", horizon, "--out-prefix", str(tmp_path / "x"),
        )
        assert code == sim_code == 1
        assert err.startswith("hyf: error: ")
        assert err == sim_err

    def test_empty_rates_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "loss-table", "--rates", ";")
        assert code == 1

    def test_bad_horizon_exits_1(self, capsys):
        code, _, _ = run_cli(capsys, "loss-table", "--horizons", "0", "--runs", "5")
        assert code == 1

    @pytest.mark.parametrize("flags", [
        ["--rates", "1,nan"],
        ["--horizons", "inf"],
        ["--seed", "-1"],
    ])
    def test_out_of_range_generator_input_exits_1(self, capsys, flags):
        code, _, err = run_cli(capsys, "loss-table", "--runs", "5", *flags)
        assert code == 1
        assert err.startswith("hyf: error: ")

    def test_overflowing_generator_load_exits_1(self, capsys, monkeypatch):
        # the whole grid is checked before the first trial
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("hyf.montecarlo.run_experiment", no_trials)
        code, _, err = run_cli(capsys, "loss-table", "--rates", "1,1;1e200,1",
                               "--horizons", "10,1e200", "--runs", "2")
        assert code == 1
        assert err.startswith("hyf: error: ")

    def test_runs_above_cap_exit_1_before_any_trial(self, capsys, monkeypatch):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("hyf.montecarlo.MAX_RUNS", 100)
        monkeypatch.setattr("hyf.montecarlo.run_experiment", no_trials)
        code, _, err = run_cli(capsys, "loss-table", "--rates", "1,1", "--runs", "101")
        assert code == 1
        assert err.startswith(
            "hyf: error: runs = 101 exceeds the cap of 100 (one 8-byte loss is kept per run)\n"
        )

    def test_cross_check_disagreement_exits_4(self, capsys, monkeypatch):
        real = detect_interval_rule

        def skewed(*args, **kwargs):
            report = real(*args, **kwargs)
            return dataclasses.replace(report, f_total=report.f_total + 1)

        monkeypatch.setattr("hyf.montecarlo.detect_interval_rule", skewed)
        code, out, err = run_cli(capsys, "loss-table", "--runs", "5")
        assert code == 4
        assert out == ""
        assert err.startswith("hyf: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_long_table_under_run_cap_reaches_the_trials(self, monkeypatch):
        # 2e9 expected points in all: slow, but small in memory, so accepted
        class Reached(Exception):
            pass

        def stop(*args, **kwargs):
            raise Reached

        monkeypatch.setattr("hyf.montecarlo.run_experiment", stop)
        with pytest.raises(Reached):
            main(["loss-table", "--rates", "1,1", "--horizons", "1e6", "--runs", "1000"])


class TestEntryPoints:
    def test_module_invocation(self, golden_files):
        proc = subprocess.run(
            [sys.executable, "-m", "hyf", "estimate", *golden_files],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "covariance -30.0" in proc.stdout

    def test_module_exit_code_for_validation(self, tmp_path, golden_files):
        a, _ = golden_files
        tied = tmp_path / "tied.csv"
        tied.write_text("time,price\n2.0,1.0\n20.0,1.0\n")
        proc = subprocess.run(
            [sys.executable, "-m", "hyf", "estimate", a, str(tied)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 3

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_closed_stdout_exits_1_without_traceback(self, unbuffered):
        # no reader is left on the pipe before the command writes to it
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "hyf", "loss-table", "--runs", "2",
                 "--horizons", "50", "--rates", "1,1"],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env={**os.environ, "PYTHONUNBUFFERED": unbuffered},
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("hyf:") == 1
        assert proc.stderr.startswith("hyf: error: ")

    def test_unknown_command_exits_1(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1


def _parsed(parse, *args):
    """Arrays as raw bytes (so -0.0 and 0.0 differ), or the error text."""
    try:
        tick = parse(*args)
    except TickParseError as exc:
        return str(exc)
    return tick.times.tobytes(), tick.prices.tobytes()


_FIELD = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["", "1_0", "1e", "e5", ".", "-", "+.5", "5.", "-0", "1e400",
                     "1e-400", "1E3", "--1", "1.2.3", " 1", "1 ", "inf", "nan"]),
)
_ROW_END = st.sampled_from(["\n", "\r\n", "\r", "\n\n", "\r\r\n", "\x1c\n", ",\n", ",1\n"])
_HEADER = st.sampled_from(["time,price\n", "time,price\r\n", "time,price\r\r\n",
                           "time;price\n", "time,price", ""])


@st.composite
def _near_valid_csv(draw):
    rows = draw(st.lists(st.tuples(_FIELD, _FIELD, st.one_of(st.just("\n"), _ROW_END)),
                         max_size=6))
    text = draw(_HEADER) + "".join(f"{t},{p}{end}" for t, p, end in rows)
    if draw(st.booleans()):
        text = text.rstrip("\n")
    return text.encode("utf-8")


class TestTickParsing:
    """``read_tick_file``'s fast path against the line-by-line reference."""

    @settings(max_examples=400, deadline=None)
    @given(raw=st.one_of(
        _near_valid_csv(),
        st.binary(max_size=40).map(lambda b: b"time,price\n" + b),
        st.binary(max_size=40),
    ))
    @example(raw=b"time,price\n1,2\x1c\n3,4\n")
    @example(raw=b"time,price\n1,2\n\n3,4\n")
    @example(raw=b"time,price\n1,2\r3,4\n\n")
    @example(raw=b"time,price\n1_0,2\n")
    @example(raw=b"time,price\n")
    @example(raw=b"time,price\n\n")
    def test_matches_line_parser(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("ticks") / "t.csv"
        path.write_bytes(raw)
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = raw.count(b"\n", 0, exc.start) + 1
            expected = f"{path}:{line}: not UTF-8 text (byte {raw[exc.start]:#04x})"
        else:
            expected = _parsed(_read_tick_lines, str(path), text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would reach stderr
            assert _parsed(read_tick_file, str(path)) == expected


_JSON_TEXT = st.lists(st.sampled_from([", ", '"', "\x00", "a", "\n", "\\", "\u00e9", "1"]),
                      max_size=4).map("".join)
_JSON_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(),
                         st.floats(allow_nan=True, allow_infinity=True))
_JSON_VALUE = st.recursive(
    st.one_of(_JSON_SCALAR, _JSON_TEXT, st.lists(_JSON_SCALAR, min_size=1, max_size=8)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_JSON_TEXT, inner, max_size=4)),
    max_leaves=20,
)


class TestJsonOutput:
    @settings(max_examples=300, deadline=None)
    @given(obj=_JSON_VALUE)
    @example(obj={"inputs": {"file_a": "[1, 2]", "file_b": "x, y"}, "times": [1.5, float("nan")]})
    def test_matches_indenting_encoder(self, obj):
        assert _json_dumps(obj) == json.dumps(obj, indent=2)

    def test_repeated_objects_match_indenting_encoder(self):
        times, leg = [1.5, -0.0, 1e300], {"indices": [1, 2], "t": [0.5]}
        obj = {"a": times, "b": [times, {"c": times}], "d": leg, "e": [leg, leg, []]}
        assert _json_dumps(obj) == json.dumps(obj, indent=2)

    @pytest.mark.parametrize("boundary", [[], ["--include-boundary"]])
    def test_detect_all_matches_indenting_encoder(self, capsys, monkeypatch, tmp_path, boundary):
        # agreeing reports share one legs dict, which is encoded once
        prefix = tmp_path / "sim"
        assert main(["simulate", "--horizon", "300", "--seed", "5",
                     "--out-prefix", str(prefix)]) == 0
        payloads = []

        def spy(obj):
            payloads.append(obj)
            return _json_dumps(obj)

        monkeypatch.setattr(cli, "_json_dumps", spy)
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "detect", f"{prefix}_a.csv", f"{prefix}_b.csv",
                               "--method", "all", "--json", *boundary)
        assert code == 0
        (payload,) = payloads
        reports = payload["results"]["reports"]
        assert reports[0]["legs"] is reports[1]["legs"] is reports[2]["legs"]
        assert reports[0]["legs"]["A"]["indices"]
        assert out == json.dumps(payload, indent=2) + "\n"

    def test_disagreeing_detect_all_matches_indenting_encoder(self, capsys, golden_files):
        code, out, _ = run_cli(capsys, "detect", *golden_files, "--method", "all",
                               "--include-boundary", "--json")
        assert code == 4
        payload = json.loads(out)
        assert payload["results"]["reports"][2]["legs"]["B"]["indices"] == [1, 3, 4]
        assert out == json.dumps(payload, indent=2) + "\n"


_EDGE_PRICE = st.sampled_from([0.0, 1.0, -1.0, 9e307, -9e307, 1e308, -1e308])


@st.composite
def _price_csv(draw):
    """A well-formed tick file on a grid of 25 times (so ties between files
    are common) at normal, subnormal or near-overflow scale, mostly sorted,
    with edge-value prices."""
    grid = draw(st.lists(st.integers(0, 24), max_size=8, unique=True))
    if draw(st.booleans()):
        grid.sort()
    scale = draw(st.sampled_from([0.5, 0.5, 1e-310, 1e307]))
    prices = draw(st.lists(st.one_of(_EDGE_PRICE, st.floats()),
                           min_size=len(grid), max_size=len(grid)))
    rows = "".join(f"{k * scale!r},{p!r}\n" for k, p in zip(grid, prices))
    return ("time,price\n" + rows).encode()


_TICK_FILE = st.one_of(_price_csv(), _near_valid_csv(), st.binary(max_size=40))

# finite positive rates and horizons are small (≤ 2, ≤ 50) or extreme, so
# every accepted cell draws at most a few hundred points and every other
# one is rejected by the generator cap or runs out of resamples at once
_RATE = st.sampled_from(["0", "-0", "-1", "1", "1/4", "0.5", "2", "5e-324", "nan", "inf",
                         "-inf", "1e308", "1e400", "1/0", "x", ""])
_HORIZON = st.sampled_from(["0", "-3", "0.001", "1", "3", "50", "5e-324", "1e308", "nan",
                            "inf", "1e400", "x", ""])
_SEED = st.sampled_from(["0", "1", "-1", str(2**64 - 1), str(2**64), "1.5", "x"])
_RUNS = st.sampled_from(["-1", "0", "1", "2", "5", "x"])


def _fuzz_main(argv) -> tuple[int, str, str]:
    """``main(argv)`` with its own stdout and stderr; any warning or escaped
    exception fails the calling test, as it would show on a real stderr."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_contract(code: int, out: str, err: str) -> None:
    assert code in range(6)
    assert "Traceback" not in err
    if code:
        assert sum(line.startswith("hyf:") for line in err.splitlines()) == 1, err
    else:
        assert re.search(r"\bnan\b", out, re.IGNORECASE) is None, out


class TestCliFuzz:
    """Every input gets an exit code 0-5, one ``hyf:`` line on failure, no
    traceback, no numpy warning and no ``nan`` on success."""

    @settings(max_examples=300, deadline=None)
    @given(
        raw_a=_TICK_FILE,
        raw_b=_TICK_FILE,
        command=st.sampled_from(["estimate", "detect"]),
        method=st.sampled_from(["interval", "label", "oracle", "all"]),
        include_boundary=st.booleans(),
        jitter=st.booleans(),
        as_json=st.booleans(),
    )
    @example(raw_a=ORACLE_PAIR_1[0], raw_b=ORACLE_PAIR_1[1], command="detect", method="all",
             include_boundary=True, jitter=False, as_json=False)
    @example(raw_a=ORACLE_PAIR_2[0], raw_b=ORACLE_PAIR_2[1], command="detect",
             method="oracle", include_boundary=False, jitter=False, as_json=False)
    # --jitter: the median of two merged gaps of 1e308 overflows
    @example(raw_a=b"time,price\n-1e308,1\n1e308,2\n",
             raw_b=b"time,price\n-1e308,1\n0,2\n1e308,3\n", command="estimate",
             method="interval", include_boundary=False, jitter=True, as_json=False)
    # --jitter: inf - inf between two infinite times
    @example(raw_a=b"time,price\n", raw_b=b"time,price\n0,0\ninf,0\ninf,0\n",
             command="estimate", method="interval", include_boundary=False, jitter=True,
             as_json=False)
    def test_tick_file_commands(self, tmp_path_factory, raw_a, raw_b, command, method,
                                include_boundary, jitter, as_json):
        argv = [command, *write_pair(tmp_path_factory.mktemp("fuzz"), (raw_a, raw_b))]
        if command == "detect":
            argv += ["--method", method] + ["--include-boundary"] * include_boundary
        argv += ["--jitter"] * jitter + ["--json"] * as_json
        _assert_contract(*_fuzz_main(argv))

    @settings(max_examples=150, deadline=None)
    @given(rate_a=_RATE, rate_b=_RATE, horizon=_HORIZON, seed=_SEED, as_json=st.booleans())
    # an exponential gap at a subnormal rate overflows
    @example(rate_a="5e-324", rate_b="5e-324", horizon="0.001", seed="0", as_json=False)
    def test_simulate(self, tmp_path_factory, rate_a, rate_b, horizon, seed, as_json):
        directory = tmp_path_factory.mktemp("fuzz")
        argv = ["simulate", f"--rate-a={rate_a}", f"--rate-b={rate_b}",
                f"--horizon={horizon}", f"--seed={seed}",
                f"--out-prefix={directory / 'x'}"] + ["--json"] * as_json
        code, out, err = _fuzz_main(argv)
        _assert_contract(code, out, err)
        assert code == 0 or list(directory.iterdir()) == []

    @settings(max_examples=150, deadline=None)
    @given(
        pairs=st.lists(st.tuples(_RATE, _RATE), min_size=1, max_size=3),
        horizons=st.lists(_HORIZON, min_size=1, max_size=3),
        runs=_RUNS,
        seed=_SEED,
        include_boundary=st.booleans(),
        as_json=st.booleans(),
    )
    def test_loss_table(self, pairs, horizons, runs, seed, include_boundary, as_json):
        argv = ["loss-table", f"--rates={';'.join(f'{a},{b}' for a, b in pairs)}",
                f"--horizons={','.join(horizons)}", f"--runs={runs}", f"--seed={seed}"]
        argv += ["--include-boundary"] * include_boundary + ["--json"] * as_json
        _assert_contract(*_fuzz_main(argv))


def _forked(min_bytes: int):
    """``FORK_MIN_BYTES`` set for one block: 0 parses every leg B that can be
    stat'ed in a forked child, a huge value keeps every leg in process."""
    return mock.patch.object(cli, "FORK_MIN_BYTES", min_bytes)


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _assert_no_child() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


BAD_A = b"time,price\n1,2\nnope,3\n"
BAD_B = b"time;price\n1,2\n"


class TestForkedLegs:
    """Leg B parsed or written in a forked child gives the in-process outcome."""

    def test_tick_parse_error_pickles(self):
        exc = TickParseError("dir/a.csv", 3, "not a number: 'x,1'")
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is TickParseError
        assert (str(back), back.path, back.line, back.message) == (
            str(exc), "dir/a.csv", 3, "not a number: 'x,1'")

    @settings(max_examples=150, deadline=None)
    @given(
        raw_a=_TICK_FILE,
        raw_b=_TICK_FILE,
        command=st.sampled_from(["estimate", "detect"]),
        method=st.sampled_from(["interval", "label", "oracle", "all"]),
        include_boundary=st.booleans(),
        jitter=st.booleans(),
        as_json=st.booleans(),
    )
    @example(raw_a=BAD_A, raw_b=BAD_B, command="estimate", method="interval",
             include_boundary=False, jitter=False, as_json=False)
    def test_tick_file_commands_match_in_process(self, tmp_path_factory, raw_a, raw_b, command,
                                                 method, include_boundary, jitter, as_json):
        argv = [command, *write_pair(tmp_path_factory.mktemp("fork"), (raw_a, raw_b))]
        if command == "detect":
            argv += ["--method", method] + ["--include-boundary"] * include_boundary
        argv += ["--jitter"] * jitter + ["--json"] * as_json
        with _forked(10**18):
            expected = _fuzz_main(argv)
        with _forked(0):
            got = _fuzz_main(argv)
        assert got == expected
        _assert_contract(*got)

    @pytest.mark.parametrize("min_bytes", [10**18, 0])
    def test_bad_a_and_bad_b_reports_a(self, capsys, tmp_path, min_bytes):
        files = write_pair(tmp_path, (BAD_A, BAD_B))
        with _forked(min_bytes):
            code, out, err = run_cli(capsys, "detect", *files)
        assert (code, out) == (2, "")
        assert err == f"hyf: parse error: {files[0]}:3: not a number: 'nope,3'\n"

    def test_simulated_pair_matches_in_process(self, capsys, tmp_path, monkeypatch):
        outputs = []
        for min_points in (10**9, 0):
            monkeypatch.setattr("hyf.cli.FORK_MIN_POINTS", min_points)
            prefix = tmp_path / str(min_points)
            code, out, _ = run_cli(capsys, "simulate", "--horizon", "500", "--seed", "9",
                                   "--out-prefix", str(prefix))
            assert code == 0
            files = [f"{prefix}_a.csv", f"{prefix}_b.csv"]
            outputs.append([Path(f).read_bytes() for f in files])
            with _forked(10**18 if min_points else 0):
                for argv in (["estimate", *files, "--json"], ["estimate", *files],
                             ["detect", *files, "--method", "all", "--json"]):
                    code, out, err = run_cli(capsys, *argv)
                    outputs[-1].append((code, out.replace(str(prefix), "PREFIX"), err))
        assert outputs[0] == outputs[1]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("case", ["ok", "bad_a", "bad_b", "child_dies", "simulate",
                                      "simulate_child_dies"])
    def test_no_child_or_descriptor_left(self, capsys, tmp_path, monkeypatch, case):
        raw = b"time,price\n1,1\n2,3\n4,2\n"
        raw_b = b"time,price\n1.5,1\n3,2\n"
        files = write_pair(tmp_path, (BAD_A if case == "bad_a" else raw,
                                      BAD_B if case == "bad_b" else raw_b))
        if case.startswith("simulate"):
            argv = ["simulate", "--horizon", "20", "--out-prefix", str(tmp_path / "s")]
        else:
            argv = ["estimate", *files]
        with _forked(10**18):
            monkeypatch.setattr("hyf.cli.FORK_MIN_POINTS", 10**9)
            expected = run_cli(capsys, *argv)
        parent, calls, forks = os.getpid(), [], []
        name = "write_tick_file" if case.startswith("simulate") else "read_tick_file"
        real, real_fork = getattr(cli, name), os.fork

        def spy(*args):
            if os.getpid() != parent and case.endswith("child_dies"):
                os._exit(1)
            calls.append(os.getpid())  # seen here for the parent's calls only
            return real(*args)

        def counted_fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(cli, name, spy)
        monkeypatch.setattr(os, "fork", counted_fork)
        before = _open_fds()
        with _forked(0):
            monkeypatch.setattr("hyf.cli.FORK_MIN_POINTS", 0)
            assert run_cli(capsys, *argv) == expected
        _assert_no_child()
        assert _open_fds() == before
        # leg B came from the child unless it died, when this process redid it
        assert (len(forks), len(calls)) == (1, 2 if case.endswith("child_dies") else 1)

    def test_fork_warning_is_not_raised(self, capsys, tmp_path, monkeypatch):
        # Python 3.12+ warns in the parent after fork() when threads run
        real_fork = os.fork

        def warning_fork():
            pid = real_fork()
            if pid:
                warnings.warn("This process is multi-threaded, use of fork() may lead "
                              "to deadlocks in the child.", DeprecationWarning, stacklevel=2)
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        files = write_pair(tmp_path, (b"time,price\n1,1\n2,3\n", b"time,price\n1.5,1\n3,2\n"))
        with _forked(0), warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "estimate", *files)
        assert (code, err) == (0, "")
        _assert_no_child()

    def test_import_starts_no_process_pool(self):
        # keeps `hyf --version` start-up free of the forked-leg helper
        code = ("import sys, hyf.cli; print(sorted(m for m in "
                "('multiprocessing', 'concurrent.futures') if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, "[]\n")
