"""Benchmark of the hyf CLI: seeded workloads, run end to end and checked.

Usage (from the repository root; needs only the stdlib and numpy)::

    python3 perfbench/run.py --workload pair_1m|crosscheck_50k|loss_grid|all
                             [--seed 1729] [--seconds 30] [--trace 0|1]

Each run writes the workload's inputs from ``--seed`` into a temporary
directory under the repository root (``.perfbench-*``, removed at exit),
three times, and starts ``python -m hyf --version`` after each write; the
median of those rounds is ``setup_s``.  Then:

* ``--trace 0`` runs the workload's commands (``python -m hyf ... --json``
  with ``PYTHONPATH=src``) one at a time from this process -- a closed loop
  with one client -- in passes until ``--seconds`` have elapsed, at least
  two passes.  Every output is checked against the benchmark's own
  references (``checks.py``).
* ``--trace 1`` calls ``hyf.cli.main`` in-process instead, alternating a
  plain pass with a pass whose layer functions are wrapped in spans
  (``spans.py``), and reports per-layer metrics from the traced passes.

Standard output is a table of every metric (value, unit, sample count),
then one ``details`` JSON line (environment, input properties, all samples,
any check failures), then the result line::

    {"correct": bool, "attempted": commands run, "failed": commands that
     exited non-zero or failed a check,
     "metrics": {name: {"value": number, "unit": str}}}

End-to-end metrics (``--trace 0``); the timings are medians over the run:

* ``setup_s`` -- writing the inputs plus one CLI start, per round;
* ``wall_s`` -- one pass through the workload's commands;
* ``peak_rss_mib`` -- highest child ``ru_maxrss`` (from ``os.wait4`` in
  ``spawn.py``, which starts each command).

The per-command times (``simulate_s``, ``estimate_s``, ``detect_interval_s``,
``detect_label_s``, ``detect_all_s``, ``loss_table_s``) and ``failed_ratio``
appear in the table and in ``details``.  Per-layer metrics (``--trace 1``)
are self times in seconds per pass, per-call latency percentiles in ms and
counts; see ``spans.layer_metrics``.  A layer the workload does not run
reads 0.  With ``--workload all`` the result line prefixes each metric with
its workload.  The workloads, and why each was chosen, are described in
``workloads.py``.  The exit code is 0 only when every check passed; it is 2,
without a result line, when ``src/hyf`` is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_ROUNDS = 3
# untraced passes per run at least, so every timing is a median of two or more
MIN_PASSES = 2
# every run must end within 180 s; no command starts that could cross this
DEADLINE_S = 165.0

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}


def unit_of(metric: str) -> str:
    if metric in E2E_UNITS:
        return E2E_UNITS[metric]
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.startswith("adversary.draws_per_trial"):
        return "draws/trial"
    if metric in ("trace_overhead", "failed_ratio"):
        return "ratio"
    return "count"


@dataclass
class Outcome:
    code: int
    stdout: str
    stderr: str
    seconds: float
    rss_mib: float = 0.0


@dataclass
class Tally:
    """Commands attempted and failed, with the first problems seen."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, command: workloads.Command, outcome: Outcome) -> None:
        self.attempted += 1
        bad = workloads.run_check(command, outcome.code, outcome.stdout)
        if bad:
            self.failed += 1
            stderr = outcome.stderr.strip().splitlines()[-1:]
            self.problems.extend((bad + stderr)[: 10 - len(self.problems)])


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("HYF_SEED", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], workdir: Path, deadline: float) -> Outcome:
    """Run ``python -m hyf argv`` through spawn.py; kill it at ``deadline``."""
    out, err = workdir / "stdout", workdir / "stderr"
    timeout = max(0.0, deadline - time.perf_counter())
    report = subprocess.run(
        [sys.executable, "-I", str(HERE / "spawn.py"), repr(timeout), str(out), str(err),
         str(workdir), sys.executable, "-m", "hyf", *argv],
        env=child_env(), stdout=subprocess.PIPE, check=True, text=True)
    result = json.loads(report.stdout)
    return Outcome(result["code"], out.read_text(encoding="utf-8", errors="replace"),
                   err.read_text(encoding="utf-8", errors="replace"), result["seconds"],
                   result["rss_mib"])


def run_inprocess(main, argv: list[str]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return Outcome(code, out.getvalue(), err.getvalue(), time.perf_counter() - start)


def setup(name: str, seed: int, workdir: Path, deadline: float, scale: float):
    """Write the inputs and start the CLI, SETUP_ROUNDS times."""
    times = []
    for _ in range(SETUP_ROUNDS):
        start = time.perf_counter()
        prepared = workloads.prepare(name, seed, workdir, scale)
        probe = run_child(["--version"], workdir, deadline)
        times.append(time.perf_counter() - start)
        if probe.code != 0 or not probe.stdout.startswith("hyf "):
            raise SystemExit(f"perfbench: 'python -m hyf --version' failed: {probe.stderr.strip()}")
    return prepared, times


def another_pass(start: float, seconds: float, done: int, minimum: int, last: float,
                 deadline: float) -> bool:
    """True until ``minimum`` passes are done, then while one more pass ends
    nearer to ``seconds`` than stopping now; never when a pass twice as long
    as the last one could cross ``deadline``."""
    now = time.perf_counter()
    if now + 2 * last > deadline:
        return False
    return done < minimum or now - start + last / 2 < seconds


def measure(prepared: workloads.Prepared, seconds: float, workdir: Path, deadline: float):
    """Untraced passes through the workload's commands as child processes."""
    tally = Tally()
    samples: dict[str, list[float]] = {c.metric: [] for c in prepared.commands}
    samples["wall_s"] = []
    rss: list[float] = []
    start = time.perf_counter()
    while True:
        wall = 0.0
        for command in prepared.commands:
            outcome = run_child(command.argv, workdir, deadline)
            tally.record(command, outcome)
            samples[command.metric].append(outcome.seconds)
            rss.append(outcome.rss_mib)
            wall += outcome.seconds
        samples["wall_s"].append(wall)
        if not another_pass(start, seconds, len(samples["wall_s"]), MIN_PASSES, wall, deadline):
            break
    samples["peak_rss_mib"] = rss
    return samples, tally


def trace(prepared: workloads.Prepared, seconds: float, deadline: float):
    """Alternate plain and traced in-process passes; return per-layer samples."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hyf.cli

    tally = Tally()
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict[str, float]] = []
    start = time.perf_counter()
    while True:
        wall = 0.0
        for command in prepared.commands:
            outcome = run_inprocess(hyf.cli.main, command.argv)
            tally.record(command, outcome)
            wall += outcome.seconds
        plain.append(wall)
        tracer = spans.Tracer()
        wall = 0.0
        with tracer.installed():
            for command in prepared.commands:
                outcome = run_inprocess(lambda argv: tracer.call(hyf.cli.main, argv), command.argv)
                tally.record(command, outcome)
                wall += outcome.seconds
        traced.append(wall)
        layers.append(spans.layer_metrics(tracer.spans))
        if not another_pass(start, seconds, len(traced), 1, plain[-1] + wall, deadline):
            break
    samples = {key: [layer[key] for layer in layers] for key in layers[0]}
    samples["trace_overhead"] = [statistics.median(traced) / statistics.median(plain)]
    breakdown = spans.per_command_self(tracer.spans, [c.metric for c in prepared.commands])
    info = {"fired": sorted({s[spans.NAME] for s in tracer.spans}), "missing_bindings": tracer.missing,
            "self_s_by_command": breakdown, "plain_pass_s": plain, "traced_pass_s": traced}
    return samples, tally, info


def environment(seed: int) -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "seed": seed}


def run_workload(name: str, seed: int, seconds: float, trace_on: bool,
                 scale: float = 1.0) -> dict:
    """Set up, measure and check one workload; return its summary."""
    deadline = time.perf_counter() + DEADLINE_S
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        prepared, setup_times = setup(name, seed, workdir, deadline, scale)
        if trace_on:
            samples, tally, info = trace(prepared, seconds, deadline)
        else:
            samples, tally = measure(prepared, seconds, workdir, deadline)
            samples["setup_s"] = setup_times
            info = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values = {key: (max if key == "peak_rss_mib" else statistics.median)(v)
              for key, v in samples.items()}
    return {"workload": name, "samples": samples, "values": values, "tally": tally,
            "details": {"workload": name, "environment": environment(seed),
                        "inputs": prepared.properties, "failed_ratio": tally.failed / tally.attempted,
                        "problems": tally.problems, "samples": samples, **info}}


def print_table(summary: dict) -> None:
    tally = summary["tally"]
    print(f"# {summary['workload']}: {tally.attempted} commands, {tally.failed} failed")
    print(f"{'metric':<44}{'value':>14}  {'unit':<12}{'samples':>7}")
    rows = [(k, summary["values"][k], len(v)) for k, v in summary["samples"].items()]
    rows.append(("failed_ratio", tally.failed / tally.attempted, tally.attempted))
    for metric, value, count in rows:
        print(f"{metric:<44}{value:>14.6g}  {unit_of(metric):<12}{count:>7}")


def result_line(summaries: list[dict], metric_names: list[str] | None) -> dict:
    """The final JSON line; with several workloads, metric names are prefixed."""
    metrics = {}
    for summary in summaries:
        prefix = f"{summary['workload']}." if len(summaries) > 1 else ""
        for key in metric_names or summary["values"]:
            metrics[prefix + key] = {"value": summary["values"][key], "unit": unit_of(key)}
    attempted = sum(s["tally"].attempted for s in summaries)
    failed = sum(s["tally"].failed for s in summaries)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "hyf" / "__init__.py").is_file():
        print(f"perfbench: no hyf package under {SRC}", file=sys.stderr)
        return 2

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    summaries = []
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_table(summary)
        print("details " + json.dumps(summary["details"]))
        summaries.append(summary)
    wanted = None if args.trace else list(E2E_UNITS)
    result = result_line(summaries, wanted)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
