"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench -q``.  They
plant wrong answers into real hyf output to show that the checks reject
them, run every workload at a tiny size, and check that the traced run
fires every span listed for a workload and reports the metrics that
BENCHMARK.json declares.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import pytest

import checks
import run
import workloads

sys.path.insert(0, str(run.SRC))
import hyf.cli  # noqa: E402

TINY = 0.002
SEED = 1729


@pytest.fixture(scope="module")
def tiny():
    """Tiny workloads and hyf's parsed output for each of their commands."""
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        out = {}
        for name in workloads.NAMES:
            prepared = workloads.prepare(name, SEED, workdir, scale=TINY)
            payloads = {}
            for command in prepared.commands:
                outcome = run.run_inprocess(hyf.cli.main, command.argv)
                assert outcome.code == 0, outcome.stderr
                payloads[command.metric] = json.loads(outcome.stdout)
            out[name] = (prepared, payloads)
        yield out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _check(prepared, metric, payload):
    command = next(c for c in prepared.commands if c.metric == metric)
    return command.check(payload)


def test_checks_accept_real_output(tiny):
    for prepared, payloads in tiny.values():
        for metric, payload in payloads.items():
            assert _check(prepared, metric, payload) == [], metric


def test_rejects_covariance_off_by_one_in_a_million(tiny):
    prepared, payloads = tiny["pair_1m"]
    planted = copy.deepcopy(payloads["estimate_s"])
    planted["results"]["covariance"] *= 1 + 1e-6
    assert _check(prepared, "estimate_s", planted)


@pytest.mark.parametrize("metric", ["detect_label_s", "detect_interval_s"])
def test_rejects_label_report_with_one_index_swapped(tiny, metric):
    prepared, payloads = tiny["pair_1m"]
    planted = copy.deepcopy(payloads[metric])
    leg = planted["results"]["reports"][0]["legs"]["A"]
    extant = next(k for k in range(1, 10**6) if k not in leg["indices"])
    leg["indices"][0] = extant
    assert _check(prepared, metric, planted)


def test_rejects_disagreement_in_crosscheck(tiny):
    prepared, payloads = tiny["crosscheck_50k"]
    planted = copy.deepcopy(payloads["detect_all_s"])
    planted["results"]["agree"] = False
    assert _check(prepared, "detect_all_s", planted)


def test_rejects_loss_cell_moved_by_two_hundredths():
    # 1000 runs as in the default grid, on its cheapest cell
    outcome = run.run_inprocess(hyf.cli.main, [
        "loss-table", "--rates", "1,1", "--horizons", "100", "--runs", "1000",
        "--seed", str(SEED), "--json"])
    payload = json.loads(outcome.stdout)
    cells = [{"rate_a": 1.0, "rate_b": 1.0, "horizon": 100.0,
              "exact_loss": checks.exact_interior_loss(1.0, 1.0, 100.0)}]
    assert checks.check_loss_table(payload, cells, 1000) == []
    for shift in (0.02, -0.02):
        planted = copy.deepcopy(payload)
        planted["results"]["cells"][0]["mean_loss"] += shift
        assert checks.check_loss_table(planted, cells, 1000)


def test_rejects_simulate_output_that_changes_between_runs(tiny):
    prepared, payloads = tiny["pair_1m"]
    payload = payloads["simulate_s"]
    path = payload["results"]["file_a"]
    digests: dict[str, str] = {}
    assert checks.check_simulate(payload, 1.0, 1.0, 1000.0, digests) == []
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("1e9,1.0\n")
    assert checks.check_simulate(payload, 1.0, 1.0, 1000.0, digests)


def test_peak_rss_belongs_to_the_command_not_the_benchmark():
    ballast = bytearray(256 * 1024 * 1024)  # the benchmark's own memory
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        outcome = run.run_child(["--version"], workdir, time.perf_counter() + 60)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert outcome.code == 0 and outcome.stdout.startswith("hyf ")
    assert 0 < outcome.rss_mib < len(ballast) / 2**20 / 2


def test_exact_loss_matches_the_published_values():
    for (a, b), want in zip(workloads.LOSS_RATES, (0.2487, 0.3303, 0.5127, 0.7387)):
        assert checks.exact_interior_loss(a, b, 100.0) == pytest.approx(want, abs=5e-5)
    assert checks.exact_interior_loss(1.0, 1.0, 1e4) == pytest.approx(0.25, abs=2e-5)


def _declared():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_run_reports_every_end_to_end_metric(name):
    summary = run.run_workload(name, SEED, seconds=0, trace_on=False, scale=TINY)
    assert summary["tally"].failed == 0, summary["tally"].problems
    result = run.result_line([summary], list(run.E2E_UNITS))
    declared = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_traced_run_fires_every_listed_span(name):
    summary = run.run_workload(name, SEED, seconds=0, trace_on=True, scale=TINY)
    assert summary["tally"].failed == 0, summary["tally"].problems
    details = summary["details"]
    assert details["missing_bindings"] == []
    assert set(workloads.SPANS[name]) <= set(details["fired"])
    declared = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    assert {k: run.unit_of(k) for k in summary["values"]} == declared


def test_declared_workloads_are_the_ones_run():
    assert [w["name"] for w in _declared()["workloads"]] == list(workloads.NAMES)
