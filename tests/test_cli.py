import contextlib
import dataclasses
import errno
import hashlib
import io
import json
import math
import os
import pickle
import re
import subprocess
import sys
import threading
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyf import __version__, cli, core, detect_interval_rule, ticks
from hyf._output import _json_chunks
from hyf.cli import main
from hyf.errors import ValidationError
from hyf.ticks import TickParseError, _read_tick_lines, read_tick_file

from _support import reference_tie_jitter
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

    def test_jitter_stays_below_the_next_leg_a_time(self, capsys, tmp_path):
        # one ulp past 1 + 1e-9 of the median gap, the nudge of B's 1 would
        # land on A's 1.000000001; it stops just below it
        a = write_csv(tmp_path / "a.csv", [0, 1, 1.000000001, 5], [0, 1, 2, 3])
        b = write_csv(tmp_path / "b.csv", [1, 2, 3, 4], [0, 1, 2, 3])
        code, out, err = run_cli(capsys, "estimate", a, b, "--jitter")
        assert (code, err) == (0, "")
        assert "overlaps 4" in out

    def test_jitter_without_room_below_the_next_time_exits_3(self, capsys, tmp_path):
        # B's own next time is one ulp above the tie: no float lies between,
        # and the message names the two times of the files
        a = write_csv(tmp_path / "a.csv", [0, 1, 3], [0, 1, 2])
        b = write_csv(tmp_path / "b.csv", [1, 1.0000000000000002, 4], [0, 1, 2])
        code, _, err = run_cli(capsys, "estimate", a, b, "--jitter")
        assert code == 3
        assert err == ("hyf: invalid input: --jitter cannot break the tie at time 1.0: no "
                       "float lies between it and the next time 1.0000000000000002\n")

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

    def test_covariance_past_an_overflowing_partial_sum_exits_0(self, capsys, tmp_path):
        # the products x, y, -z near the float maximum sum exactly to x + y - z
        prices_a, prices_b = [0.0, 1e154, 2e154, 1e154], [0.0, 1e154, 2e154, 3e154]
        a = write_csv(tmp_path / "a.csv", [0, 1, 2, 3], prices_a)
        b = write_csv(tmp_path / "b.csv", [0, 1, 2, 3], prices_b)
        code, out, err = run_cli(capsys, "estimate", a, b)
        assert (code, err) == (0, "")
        exact = sum(map(Fraction, (np.diff(prices_a) * np.diff(prices_b)).tolist()))
        assert out.startswith(f"covariance {float(exact)!r}\n")

    def test_non_utf8_file_exits_2_with_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"time,price\n1.0,1.0\n2.0,1\xff5\n3.0,2.0\n")
        good = write_csv(tmp_path / "b.csv", [0.5, 3.5], [0, 0])
        code, _, err = run_cli(capsys, "estimate", str(bad), good)
        assert code == 2
        assert err == f"hyf: parse error: {bad}:3: not UTF-8 text (byte 0xff)\n"


# full text stdout of `detect --method all --include-boundary` on the golden
# pair: the oracle prices the points itself, so the demo prices, whose
# endpoint differences coincide, do not mislead it
GOLDEN_REPORT = """\
nonextant_A indices=1,2 times=3.0,4.0
nonextant_B indices=3,4 times=10.0,11.0
f_interior 3
f_total 4
overlaps 10
loss 0.4
"""
GOLDEN_DETECT_ALL_TEXT = "".join(
    f"method {m}\n{GOLDEN_REPORT}" for m in ("interval_rule", "label_rule", "oracle")
) + "agreement ok\n"


# full text stdout of the same command on a pair where all three detectors
# agree, so the three reports share one legs dict (exit 0)
AGREEING_TIMES_A = (0.1, 0.7, 1.3, 1.9, 2.2, 3.0, 4.25)
AGREEING_TIMES_B = (0.3, 0.35, 0.4, 2.5, 2.6, 2.7, 2.8, 5.0)
AGREEING_REPORT = """\
nonextant_A indices=2,3 times=1.3,1.9
nonextant_B indices=1,4,5 times=0.35,2.6,2.7
f_interior 5
f_total 5
overlaps 12
loss 0.4166666666666667
"""
AGREEING_DETECT_ALL_TEXT = "".join(
    f"method {m}\n{AGREEING_REPORT}" for m in ("interval_rule", "label_rule", "oracle")
) + "agreement ok\n"


# finite prices whose increments (pair 1) or point coefficients (pair 2)
# overflow a float
ORACLE_PAIR_1 = (b"time,price\n1,1e308\n2,0\n3,9e307\n4,2e307\n",
                 b"time,price\n0.5,0\n2.5,1e308\n4.5,1e307\n")
ORACLE_PAIR_2 = (b"time,price\n1,1e308\n2,0\n3,-1e308\n",
                 b"time,price\n0.5,0\n3.5,1\n4,2\n")


def write_pair(directory, pair):
    paths = (directory / "a.csv", directory / "b.csv")
    for path, raw in zip(paths, pair):
        path.write_bytes(raw)
    return tuple(map(str, paths))


@pytest.fixture
def misreporting_oracle(monkeypatch):
    """A planted fault: the oracle reports the interval rule's points in the
    other boundary mode, so the golden pair's reports disagree."""
    def oracle(s1, s2, include_boundary):
        report = detect_interval_rule(s1, s2, not include_boundary)
        return dataclasses.replace(report, method="oracle")

    monkeypatch.setattr(cli, "oracle_detect", oracle)


class TestDetect:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("pair", [ORACLE_PAIR_1, ORACLE_PAIR_2])
    def test_method_all_agrees_on_overflowing_prices(self, capsys, tmp_path, pair):
        # the oracle never reads the prices, so their size cannot overflow it
        files = write_pair(tmp_path, pair)
        code, out, err = run_cli(capsys, "detect", *files, "--method", "all",
                                 "--include-boundary")
        assert (code, err) == (0, "")
        assert out.endswith("agreement ok\n")

    def test_golden_method_all_text(self, capsys, golden_files):
        code, out, err = run_cli(
            capsys, "detect", *golden_files, "--method", "all", "--include-boundary"
        )
        assert (code, out, err) == (0, GOLDEN_DETECT_ALL_TEXT, "")

    @pytest.mark.parametrize("prices", ["integer", "constant"])
    def test_method_all_agrees_on_grid_prices(self, capsys, monkeypatch, tmp_path, prices):
        # cancellation depends on the times alone: prices on a grid zero the
        # coefficients of extant points, which must not mislead the oracle
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--horizon", "200", "--seed", "7", "--out-prefix", "p"]) == 0
        for leg in "ab":
            times, values = np.loadtxt(f"p_{leg}.csv", delimiter=",", skiprows=1).T
            values = np.round(values) if prices == "integer" else np.ones_like(values)
            write_csv(tmp_path / f"{leg}.csv", times, values)
        capsys.readouterr()
        code, out, err = run_cli(capsys, "detect", "a.csv", "b.csv", "--method", "all",
                                 "--include-boundary", "--json")
        assert (code, err) == (0, "")
        results = json.loads(out)["results"]
        assert results["agree"] is True
        assert all(r["loss"] <= 1 for r in results["reports"])

    @pytest.mark.parametrize("boundary", [[], ["--include-boundary"]])
    def test_unaligned_pair_detectors_agree(self, capsys, tmp_path, boundary):
        # leg A has three points before leg B's first: A's first two points
        # cancel (zero coefficients), through the equal-range test alone
        a = write_csv(tmp_path / "a.csv", [0, 1, 2, 4], [1, 2, 4, 3])
        b = write_csv(tmp_path / "b.csv", [3, 5], [1, 7])
        code, out, err = run_cli(capsys, "detect", a, b, "--method", "all", "--json", *boundary)
        assert (code, err) == (0, "")
        reports = json.loads(out)["results"]["reports"]
        assert [r["method"] for r in reports] == ["interval_rule", "label_rule", "oracle"]
        for report in reports:
            assert report["legs"]["A"]["indices"] == ([0, 1] if boundary else [])
            assert report["legs"]["B"]["indices"] == []
            assert (report["f_interior"], report["f_total"], report["m"]) == (
                0, 2 if boundary else 0, 1)

    def test_agreeing_method_all_text(self, capsys, tmp_path):
        a = write_csv(tmp_path / "a.csv", AGREEING_TIMES_A, [i * i % 7 + 0.5 for i in range(7)])
        b = write_csv(tmp_path / "b.csv", AGREEING_TIMES_B, [3 * i % 5 + 0.25 for i in range(8)])
        code, out, err = run_cli(capsys, "detect", a, b, "--method", "all", "--include-boundary")
        assert (code, out, err) == (0, AGREEING_DETECT_ALL_TEXT, "")

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

    @pytest.mark.usefixtures("misreporting_oracle")
    def test_method_all_reports_disagreement(self, capsys, golden_files):
        code, out, err = run_cli(
            capsys, "detect", *golden_files, "--method", "all", "--include-boundary", "--json"
        )
        assert (code, err) == (4, "hyf: detectors disagree; this indicates a bug\n")
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

    @pytest.mark.parametrize("flags, message", [
        (["--rate-a", "nan"], "rates must be positive and finite, got (nan, 1.0)"),
        (["--rate-b", "inf"], "rates must be positive and finite, got (1.0, inf)"),
        (["--rate-a", "1e308", "--rate-b", "1e308"], "rate_a + rate_b must be finite, got inf"),
    ])
    def test_non_finite_rate_is_usage_error(self, capsys, tmp_path, flags, message):
        code, out, err = run_cli(capsys, "simulate", "--horizon", "10", *flags,
                                 "--out-prefix", str(tmp_path / "x"))
        assert (code, out) == (1, "")
        assert err == f"hyf: error: {message}\nrun 'hyf --help' for usage\n"
        assert not list(tmp_path.iterdir())

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
            monkeypatch.setattr("hyf.ticks.FORK_MIN_POINTS", min_points)
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
            monkeypatch.setattr("hyf.ticks.FORK_MIN_POINTS", min_points)
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
            monkeypatch.setattr("hyf.ticks.FORK_MIN_POINTS", min_points)
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

    def test_estimate_is_the_same_at_one_and_two_blas_threads(self, capsys, tmp_path):
        # above about 10k intervals OpenBLAS splits a dot product over its
        # threads, which changes the order of its additions and so the digits
        prefix = str(tmp_path / "pair")
        code, _, _ = run_cli(capsys, "simulate", "--horizon", "10000", "--seed", "7",
                             "--out-prefix", prefix)
        assert code == 0
        outputs = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "hyf", "estimate", f"{prefix}_a.csv", f"{prefix}_b.csv"],
                capture_output=True, env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            )
            assert proc.returncode == 0
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

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


# the modules that bring numpy; hyf.entry and hyf.errors do not
COMPUTE_MODULES = ("hyf._output", "hyf.adversary", "hyf.cli", "hyf.core", "hyf.estimator",
                   "hyf.montecarlo", "hyf.nonextant", "hyf.ticks")

_EMPTY_DIGEST = hashlib.sha256(b"").hexdigest()


def _run_module(*argv, flags=(), stdout=subprocess.PIPE, unbuffered="1", shell_suffix=None):
    """``python flags -m hyf argv`` in a fresh interpreter with 80-column
    help; ``shell_suffix`` runs it through ``sh`` with that redirection."""
    command = [sys.executable, *flags, "-m", "hyf", *argv]
    if shell_suffix is not None:
        command = ["sh", "-c", f'exec "$0" "$@" {shell_suffix}', *command]
    return subprocess.run(command, stdout=stdout, stderr=subprocess.PIPE,
                          env={**os.environ, "COLUMNS": "80", "PYTHONUNBUFFERED": unbuffered})


class TestFrontDoor:
    """``--version``, ``--help`` and usage errors answer from hyf.entry alone."""

    @pytest.mark.parametrize("argv, code", [
        (["--version"], 0), (["--help"], 0), (["estimate", "--help"], 0),
        (["frobnicate"], 1), (["estimate"], 1),
    ])
    def test_answers_without_numpy(self, argv, code):
        proc = _run_module(*argv, flags=("-X", "importtime"))
        assert proc.returncode == code
        imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.decode().splitlines()
                    if line.startswith("import time:")}
        assert "hyf.entry" in imported
        assert sorted(imported & {"numpy", *COMPUTE_MODULES}) == []

    def test_cli_keeps_the_front_door_names(self):
        from hyf import entry

        assert (cli.main, cli.build_parser) == (entry.main, entry.build_parser)


class TestPinnedUsage:
    """Help text and argparse errors, as (exit code, stdout digest, stderr
    digest) at 80 columns under Python 3.11: a change to the parser's
    arguments, help strings or messages changes these digests."""

    HELP_STDOUT = {
        (): "d2f180bf01512b4ca4d55d15465c2553415ae372f417d7430e44534039f4aeb0",
        ("estimate",): "a7792911326e4fd9a3ac7718c80014ead60e57755552f7b039b851774c5da6d4",
        ("detect",): "297601008ba5b5e39a121e21c098db131bcfa470d02737e93d50f25af1d42c2b",
        ("simulate",): "98ddaffa704da5f6d13ad166d8cedd21c47537ef3924546c65fa483626531c78",
        ("loss-table",): "29ac610debd42145008a1c86a51e3d854c012091ff2ccf54d9589ad629161286",
    }
    ERROR_STDERR = {
        ("frobnicate",): "459604e5312804728807532e49c0e678c7ca9a9a1887bf107ae17832e5084007",
        ("estimate",): "08da2f5ddf3653e79b5d2fd748ad9d6e5d4e708764197e92b76957ca841d7214",
    }

    @staticmethod
    def _streams(*argv) -> tuple[int, str, str]:
        proc = _run_module(*argv)
        return (proc.returncode, hashlib.sha256(proc.stdout).hexdigest(),
                hashlib.sha256(proc.stderr).hexdigest())

    @pytest.mark.parametrize("command", list(HELP_STDOUT))
    def test_help(self, command):
        assert self._streams(*command, "--help") == (0, self.HELP_STDOUT[command], _EMPTY_DIGEST)

    @pytest.mark.parametrize("argv", list(ERROR_STDERR))
    def test_usage_error(self, argv):
        assert self._streams(*argv) == (1, _EMPTY_DIGEST, self.ERROR_STDERR[argv])


_LOSS_TABLE = ("loss-table", "--runs", "2", "--horizons", "50", "--rates", "1,1")


class TestRefusedStdout:
    """A stdout that is full or closed ends the command with exit 1 and one
    ``hyf: error:`` line, buffered or not, and a quiet flush at exit."""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["1", ""])
    @pytest.mark.parametrize("command", ["--version", "--help", "estimate", "loss-table"])
    def test_full_stdout(self, golden_files, command, unbuffered):
        argv = {"estimate": ("estimate", *golden_files), "loss-table": _LOSS_TABLE}.get(
            command, (command,))
        with open("/dev/full", "wb") as full:
            proc = _run_module(*argv, stdout=full, unbuffered=unbuffered)
        assert (proc.returncode, proc.stderr.decode()) == (
            1, f"hyf: error: cannot write to stdout: {os.strerror(errno.ENOSPC)}\n")

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    @pytest.mark.parametrize("argv", [("--version",), _LOSS_TABLE])
    def test_closed_stdout(self, argv, unbuffered):
        proc = _run_module(*argv, stdout=None, unbuffered=unbuffered, shell_suffix=">&-")
        assert (proc.returncode, proc.stderr.decode()) == (
            1, "hyf: error: stdout closed before the output was written\n")


def _parsed(parse, *args):
    """Arrays as raw bytes (so -0.0 and 0.0 differ), or the error text."""
    try:
        times, prices = parse(*args)
    except TickParseError as exc:
        return str(exc)
    return times.tobytes(), prices.tobytes()


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


# chunk sizes at which every row, \r\n pair and blank line of a small file
# straddles a chunk edge somewhere, and the default
_CHUNKS = (1, 2, 3, 5, 7, ticks.READ_CHUNK_BYTES)


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
            for chunk in _CHUNKS:
                with mock.patch.object(ticks, "READ_CHUNK_BYTES", chunk):
                    assert _parsed(read_tick_file, str(path)) == expected, chunk
            if not hasattr(os, "mkfifo"):
                return
            # the same bytes from a named pipe at the same path, which is
            # read once and streamed from memory
            path.unlink()
            os.mkfifo(path)
            for chunk in _CHUNKS:
                writer = threading.Thread(target=_feed, args=(str(path), raw), daemon=True)
                writer.start()
                with mock.patch.object(ticks, "READ_CHUNK_BYTES", chunk):
                    got = _parsed(read_tick_file, str(path))
                writer.join(timeout=10)
                assert not writer.is_alive()
                assert got == expected, chunk

    @pytest.mark.parametrize("change", ["line_end", "mid_row", "header_only", "grown",
                                        "blank_line", "space", "same_rows"])
    def test_file_changed_between_passes(self, tmp_path, monkeypatch, change):
        # a file that changes after the streamed reader has counted its
        # rows gives what the line parser gives on its new content
        raw = b"time,price\n" + b"".join(b"%d,%d.5\n" % (k, -k) for k in range(40))
        changed = {
            "line_end": raw[:raw.index(b"\n30,")],
            "mid_row": raw[:raw.index(b"\n30,") + 3],
            "header_only": b"time,price\n",
            "grown": raw + b"40,1\n41,2\n",
            "blank_line": raw.replace(b"\n30,-30.5\n", b"\n\n30,-30.\n"),
            "space": raw.replace(b"30,-30.5", b"30,-30 5"),
            "same_rows": raw.replace(b"30,-30.5", b"30,-30.7"),
        }[change]
        path = tmp_path / "t.csv"
        path.write_bytes(raw)
        real, passes = ticks._pieces, []

        def pieces(fh):
            passes.append(fh.tell())
            if len(passes) == 2:
                path.write_bytes(changed)
            return real(fh)

        monkeypatch.setattr(ticks, "_pieces", pieces)
        monkeypatch.setattr(ticks, "READ_CHUNK_BYTES", 16)
        expected = _parsed(_read_tick_lines, str(path), changed.decode("ascii"))
        assert _parsed(read_tick_file, str(path)) == expected
        # pass 1 took the first content, and pass 2 began
        assert passes == [len(b"time,price\n")] * 2


def _feed(path: str, raw: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(raw)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
class TestPipeInput:
    """Legs read from named pipes, which cannot seek and so are read whole,
    give the outcome of the same bytes in regular files."""

    @pytest.fixture(scope="class")
    def simulated(self, tmp_path_factory):
        # about 75 kB a leg: more than a pipe holds, and many chunks
        prefix = tmp_path_factory.mktemp("pipe") / "s"
        assert main(["simulate", "--horizon", "1000", "--seed", "5",
                     "--out-prefix", str(prefix)]) == 0
        return tuple(Path(f"{prefix}_{leg}.csv").read_bytes() for leg in "ab")

    @pytest.mark.parametrize("pair", ["simulated", "golden", "tied", "malformed"])
    @pytest.mark.parametrize("argv", [
        ["estimate"], ["estimate", "--json"],
        ["detect", "--method", "all", "--include-boundary"],
        ["detect", "--method", "all", "--include-boundary", "--json"],
    ])
    def test_fifo_legs_match_regular_files(self, capsys, tmp_path, simulated, pair, argv):
        golden = tuple(
            ("time,price\n" + "".join(f"{t!r},{p!r}\n" for t, p in zip(times, prices))).encode()
            for times, prices in ((GOLDEN_TIMES_A, GOLDEN_PRICES_A),
                                  (GOLDEN_TIMES_B, GOLDEN_PRICES_B)))
        raws = {"simulated": simulated, "golden": golden,
                "tied": (golden[0], b"time,price\n2,1\n20,1\n"),
                "malformed": (golden[0], BAD_A)}[pair]
        paths = write_pair(tmp_path, raws)
        expected = run_cli(capsys, argv[0], *paths, *argv[1:])
        writers = []
        for path, raw in zip(paths, raws):
            os.remove(path)
            os.mkfifo(path)
            writers.append(threading.Thread(target=_feed, args=(path, raw), daemon=True))
            writers[-1].start()
        got = run_cli(capsys, argv[0], *paths, *argv[1:])
        for writer in writers:
            writer.join(timeout=10)
        assert not any(writer.is_alive() for writer in writers)
        assert got == expected


def _edit_line(raw: bytes, line: int, edit) -> bytes:
    lines = raw.split(b"\n")
    lines[line - 1] = edit(lines[line - 1])
    return b"\n".join(lines)


# line 3000 of a simulated leg is about 110 kB in, past the first 64 KiB piece
_LATE = 3000
_REFUSED = {
    "space": lambda raw: _edit_line(raw, 3, lambda row: b" " + row),
    "late_space": lambda raw: _edit_line(raw, _LATE, lambda row: row.replace(b",", b" , ")),
    "underscore": lambda raw: _edit_line(raw, _LATE, lambda row: row.split(b",")[0] + b",1_0"),
    "utf8": lambda raw: _edit_line(raw, _LATE, lambda row: row + b"\xff"),
    "late_defect": lambda raw: _edit_line(raw, _LATE, lambda row: b"nope," + row),
    "header": lambda raw: _edit_line(raw, 1, lambda row: row + b"\r\r"),
}


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
class TestPipeRefusals:
    """A leg from a named pipe is parsed in one pass.  From a header or
    piece the fast path refuses on, the rest goes to the line parser, its
    lines numbered from the start of the file, so stdout, stderr and exit
    code are those of the same bytes in a regular file."""

    @pytest.fixture(scope="class")
    def simulated(self, tmp_path_factory):
        # about 150 kB a leg, so line 3000 is in a later piece
        prefix = tmp_path_factory.mktemp("refused") / "s"
        assert main(["simulate", "--horizon", "4000", "--seed", "5",
                     "--out-prefix", str(prefix)]) == 0
        return tuple(Path(f"{prefix}_{leg}.csv").read_bytes() for leg in "ab")

    @pytest.mark.parametrize("case", list(_REFUSED))
    @pytest.mark.parametrize("argv", [["estimate", "--json"], ["detect", "--method", "interval"]])
    def test_pipe_matches_file(self, capsys, tmp_path, simulated, case, argv):
        raws = (_REFUSED[case](simulated[0]), simulated[1])
        assert len(raws[0].split(b"\n", _LATE - 1)[-1]) < len(raws[0]) - ticks.READ_CHUNK_BYTES
        paths = write_pair(tmp_path, raws)
        expected = run_cli(capsys, argv[0], *paths, *argv[1:])
        writers = []
        for path, raw in zip(paths, raws):
            os.remove(path)
            os.mkfifo(path)
            writers.append(threading.Thread(target=_feed, args=(path, raw), daemon=True))
            writers[-1].start()
        got = run_cli(capsys, argv[0], *paths, *argv[1:])
        for writer in writers:
            writer.join(timeout=10)
        assert not any(writer.is_alive() for writer in writers)
        assert got == expected
        assert expected[0] == (2 if case in ("utf8", "late_defect") else 0)
        if expected[0]:
            assert f"{paths[0]}:{_LATE}:" in expected[2]


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
        assert "".join(_json_chunks(obj)) == json.dumps(obj, indent=2)

    @settings(max_examples=200, deadline=None)
    @given(obj=_JSON_VALUE)
    def test_blocks_of_two_match_indenting_encoder(self, obj):
        # flat lists longer than a block are dumped in several blocks
        with mock.patch.object(core, "BLOCK_POINTS", 2):
            assert "".join(_json_chunks(obj)) == json.dumps(obj, indent=2)

    def test_tuples_match_indenting_encoder(self):
        obj = {"a": (1, 2, 3), "b": [(0.5, None), ()], "c": ((1, [2]),)}
        for block in (1, 2, 4096):
            with mock.patch.object(core, "BLOCK_POINTS", block):
                assert "".join(_json_chunks(obj)) == json.dumps(obj, indent=2)

    def test_arrays_match_indenting_encoder(self):
        # a 1-D numeric array is encoded as its tolist(), a block at a time
        times = np.array([1.5, -0.0, 1e300, np.nan, -np.inf, 5e-324])
        obj = {"i": np.arange(7, dtype=np.int64), "t": times, "e": np.empty(0, dtype=np.int64),
               "b": np.array([True, False]), "n": [times, {"again": times}, (np.arange(3),)]}
        for block in (1, 2, 4096):
            with mock.patch.object(core, "BLOCK_POINTS", block):
                assert "".join(_json_chunks(obj)) == json.dumps(
                    obj, indent=2, default=np.ndarray.tolist)

    def test_repeated_objects_match_indenting_encoder(self):
        times, leg = [1.5, -0.0, 1e300], {"indices": [1, 2], "t": [0.5]}
        obj = {"a": times, "b": [times, {"c": times}], "d": leg, "e": [leg, leg, []]}
        assert "".join(_json_chunks(obj)) == json.dumps(obj, indent=2)

    @pytest.mark.parametrize("boundary", [[], ["--include-boundary"]])
    def test_detect_all_matches_indenting_encoder(self, capsys, monkeypatch, tmp_path, boundary):
        # agreeing reports share one legs dict, which is encoded once
        prefix = tmp_path / "sim"
        assert main(["simulate", "--horizon", "300", "--seed", "5",
                     "--out-prefix", str(prefix)]) == 0
        payloads = []

        def spy(obj):
            payloads.append(obj)
            return _json_chunks(obj)

        monkeypatch.setattr(cli, "_json_chunks", spy)
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "detect", f"{prefix}_a.csv", f"{prefix}_b.csv",
                               "--method", "all", "--json", *boundary)
        assert code == 0
        (payload,) = payloads
        reports = payload["results"]["reports"]
        assert reports[0]["legs"] is reports[1]["legs"] is reports[2]["legs"]
        assert reports[0]["legs"]["A"]["indices"].size
        # the index lists are arrays and the time lists gather from them
        # when sliced; each is encoded as its whole slice's tolist()
        assert out == json.dumps(payload, indent=2, default=lambda o: o[:].tolist()) + "\n"

    @pytest.mark.usefixtures("misreporting_oracle")
    def test_disagreeing_detect_all_matches_indenting_encoder(self, capsys, golden_files):
        code, out, _ = run_cli(capsys, "detect", *golden_files, "--method", "all",
                               "--include-boundary", "--json")
        assert code == 4
        payload = json.loads(out)
        assert payload["results"]["reports"][2]["legs"]["B"]["indices"] == [3]
        assert out == json.dumps(payload, indent=2) + "\n"


_JITTER_TIME = st.one_of(
    st.integers(-3, 6).map(float),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, 1.5e9]),
)


class TestTieJitter:
    @settings(max_examples=400, deadline=None)
    @given(a=st.lists(_JITTER_TIME, max_size=8), b=st.lists(_JITTER_TIME, max_size=8))
    @example(a=[1.0, 2.0], b=[2.0, 3.0])
    @example(a=[-0.0, 5.0], b=[0.0, 1.0])
    @example(a=[math.nan, 1.0], b=[math.nan, 2.0, 1.0])
    @example(a=[], b=[1.0, 2.0])
    # a nudge that would reach the next merged time, which is leg A's or leg
    # B's own, stops below it; with no float between, the tie stays
    @example(a=[0.0, 1.0, 1.000000001, 5.0], b=[1.0, 2.0, 3.0, 4.0])
    @example(a=[0.0, 1.0, 3.0], b=[1.0, 1.0000000000000002, 4.0])
    @example(a=[0.0, 5e-324, 3.0], b=[0.0, 1.0, 2.0])
    @example(a=[1.0, math.inf], b=[0.0, math.inf])
    def test_matches_isin_reference(self, a, b):
        a, b = np.array(a, dtype=float), np.array(b, dtype=float)

        def outcome(jitter):
            try:
                return jitter(a, b).tobytes()
            except ValidationError as exc:
                return str(exc)

        assert outcome(cli._tie_jitter) == outcome(reference_tie_jitter)


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
    return mock.patch.object(ticks, "FORK_MIN_BYTES", min_bytes)


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
            monkeypatch.setattr("hyf.ticks.FORK_MIN_POINTS", min_points)
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
            monkeypatch.setattr("hyf.ticks.FORK_MIN_POINTS", 10**9)
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
            monkeypatch.setattr("hyf.ticks.FORK_MIN_POINTS", 0)
            assert run_cli(capsys, *argv) == expected
        _assert_no_child()
        assert _open_fds() == before
        # leg B came from the child unless it died, when this process redid it
        assert (len(forks), len(calls)) == (1, 2 if case.endswith("child_dies") else 1)

    @pytest.mark.parametrize("min_points", [1, 2**62], ids=["forked", "in_process"])
    def test_simulate_draws_each_walk_alone(self, capsys, tmp_path, monkeypatch, min_points):
        # the process that writes a leg draws its walk, so no process holds
        # both legs' walks: this one draws leg A's, and leg B's after it
        # only when leg B is not forked
        parent, drawn = os.getpid(), []
        real = cli.attach_random_walk

        def spy(s1, s2, **kwargs):
            if os.getpid() == parent:
                drawn.append("A" if s2 is None else "B" if s1 is None else "AB")
            return real(s1, s2, **kwargs)

        monkeypatch.setattr(cli, "attach_random_walk", spy)
        monkeypatch.setattr("hyf.ticks.FORK_MIN_POINTS", min_points)
        code, _, _ = run_cli(capsys, "simulate", "--horizon", "200", "--seed", "9",
                             "--out-prefix", str(tmp_path / "s"))
        assert code == 0
        assert drawn == (["A"] if min_points == 1 else ["A", "B"])

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

    @pytest.mark.parametrize("flags", [[], ["--jitter"]])
    def test_pair_commands_leave_numpy_random_and_ma_unimported(self, tmp_path, flags):
        # importing numpy.random adds about 6 MiB of RSS; np.median and
        # np.isin import numpy.ma (13-25 ms, 2 MiB) on first use
        a = write_csv(tmp_path / "a.csv", AGREEING_TIMES_A, range(7))
        b = write_csv(tmp_path / "b.csv", AGREEING_TIMES_B, range(8))
        code = ("import sys; from hyf.cli import main; "
                f"codes = [main(['estimate', {a!r}, {b!r}, *{flags!r}]), "
                f"main(['detect', {a!r}, {b!r}, '--method', 'all', '--include-boundary', "
                f"*{flags!r}])]; "
                "print(codes, [m for m in ('numpy.random', 'numpy.ma') if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout.splitlines()[-1]) == (0, "[0, 0] []")

    def test_import_starts_no_process_pool(self):
        # keeps `hyf --version` start-up free of the forked-leg helper
        code = ("import sys, hyf.cli; print(sorted(m for m in "
                "('multiprocessing', 'concurrent.futures') if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, "[]\n")


def _exit_code_case(case: str, tmp_path, golden_files) -> list[str]:
    a, b = golden_files
    if case == "parse":
        bad = tmp_path / "bad.csv"
        bad.write_text("time;price\n1,2\n")
        return ["estimate", a, str(bad)]
    if case == "validation":
        tied = tmp_path / "tied.csv"
        tied.write_text("time,price\n2.0,1.0\n20.0,1.0\n")
        return ["estimate", a, str(tied)]
    return {
        "ok": ["estimate", a, b],
        "usage": ["simulate", "--horizon", "0", "--out-prefix", str(tmp_path / "x")],
        # with the oracle the misreporting_oracle fixture plants
        "disagreement": ["detect", a, b, "--method", "all", "--include-boundary"],
        "rejection": ["simulate", "--horizon", "0.001", "--out-prefix", str(tmp_path / "x")],
    }[case]


class TestExitCodes:
    @pytest.mark.parametrize("case, code, message", [
        ("ok", 0, ""),
        ("usage", 1, "hyf: error: horizon must be positive and finite"),
        ("parse", 2, "hyf: parse error: "),
        ("validation", 3, "hyf: invalid input: time 2.0 appears in both files"),
        ("disagreement", 4, "hyf: detectors disagree"),
        ("rejection", 5, "hyf: no accepted draw in 1000 resamples"),
    ])
    def test_each_documented_exit_code(self, capsys, tmp_path, golden_files, request, case, code,
                                       message):
        if case == "disagreement":
            request.getfixturevalue("misreporting_oracle")
        got, out, err = run_cli(capsys, *_exit_code_case(case, tmp_path, golden_files))
        assert got == code
        assert err.startswith(message)
        assert "Traceback" not in err
        if code:
            # one line naming the failure, and for usage errors a hint
            assert len(err.splitlines()) == (2 if code == 1 else 1)
        else:
            assert err == "" and out.startswith("covariance -30.0\n")


class TestPinnedOutputs:
    """Seeded command output is byte-identical across versions: a change to
    the trial blocks, the estimator's sums or a detector's points changes
    these digests."""

    LOSS_TABLE_DIGESTS = {
        (): "88cf797cf085d8c4b763ac66197f7ea23180204728a109cb87a137604c9f70b6",
        ("--json",): "9400864d9e1099f6b827218244a2cd4aed08f03cb85f46da0a700c2a4c2f6ab9",
        ("--include-boundary",):
            "0f63bd724e8d823e77078047ddb7992e04ff3e94d30e615b44cd5359b3140243",
        ("--json", "--include-boundary"):
            "6b2480e3f1990d8c7553c421ba2f11ee0d394d2341aa32809befe4ef82fb72ee",
    }
    PAIR_DIGESTS = {
        ("estimate", "--json"):
            "54646f1c988c69e7def1be28f63cd3f09c2e9c3def1ec756df57f4416f19ee08",
        ("detect", "--method", "all", "--include-boundary", "--json"):
            "835854ddd1afa07943c1a72939f3fafdab005497dc84bcc7308a0ab9a1974ffd",
    }

    @staticmethod
    def _digest(capsys, *argv) -> str:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        return hashlib.sha256(out.encode()).hexdigest()

    @pytest.mark.parametrize("flags", list(LOSS_TABLE_DIGESTS))
    def test_default_loss_table(self, capsys, monkeypatch, flags):
        monkeypatch.delenv("HYF_SEED", raising=False)
        assert self._digest(capsys, "loss-table", *flags) == self.LOSS_TABLE_DIGESTS[flags]

    def test_simulated_pair(self, capsys, monkeypatch, tmp_path):
        # relative paths, because the JSON echoes them
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--horizon", "2000", "--seed", "1729",
                     "--out-prefix", "pair"]) == 0
        capsys.readouterr()
        for (command, *flags), digest in self.PAIR_DIGESTS.items():
            assert self._digest(capsys, command, "pair_a.csv", "pair_b.csv", *flags) == digest
