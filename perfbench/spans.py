"""In-process span tracing of hyf's layers, from outside the package.

``cli``, ``estimator``, ``montecarlo`` and ``nonextant`` bind the functions
they call with ``from ... import``, so a wrapper must replace the name in
the calling module (``hyf.cli.hy_covariance``), not only in the defining
one.  :data:`BINDINGS` lists each wrapped name where its callers look it up.

Each span records ``[name, start, end, parent, command, attrs]``; spans
stay in memory and per-layer metrics are derived from them after the run.
A span's self time is its duration minus the durations of its children,
which nest without overlap because everything runs on one thread.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter

import numpy as np


def _overlap_attrs(args, result):
    return {"m": result.m}


def _terms_attrs(args, result):
    return {"raw_terms": len(result.raw_terms), "grouped_terms": len(result.grouped_terms)}


def _report_attrs(args, result):
    return {"f_interior": result.f_interior, "f_total": result.f_total, "m": result.m}


def _config_attrs(args, result):
    config = args[0]
    return {"rates": f"{config.rate_a:g}_{config.rate_b:g}"}


def _runs_attrs(args, result):
    return {"runs": result.runs}


# (module, attribute, span name, annotate); an attribute a later version of
# the package no longer has is skipped and its span simply never fires
BINDINGS = (
    ("hyf.cli", "read_tick_file", "cli.read_tick_file", None),
    ("hyf.cli", "write_tick_file", "cli.write_tick_file", None),
    ("hyf.cli", "validate_series", "core.validate_series", None),
    ("hyf.cli", "merge_labels", "core.merge_labels", None),
    ("hyf.estimator", "enumerate_overlaps", "core.enumerate_overlaps", _overlap_attrs),
    ("hyf.cli", "hy_covariance", "estimator.hy_covariance", None),
    ("hyf.cli", "telescope_rows", "estimator.telescope_rows", _terms_attrs),
    ("hyf.nonextant", "point_coefficients", "estimator.point_coefficients", None),
    ("hyf.cli", "detect_interval_rule", "nonextant.detect_interval_rule", _report_attrs),
    ("hyf.montecarlo", "detect_interval_rule", "nonextant.detect_interval_rule", _report_attrs),
    ("hyf.cli", "detect_label_rule", "nonextant.detect_label_rule", None),
    ("hyf.cli", "oracle_detect", "nonextant.oracle_detect", None),
    ("hyf.nonextant", "overlap_count", "nonextant.overlap_count", None),
    ("hyf.cli", "generate_inputs", "adversary.generate_inputs", _config_attrs),
    ("hyf.montecarlo", "generate_inputs", "adversary.generate_inputs", _config_attrs),
    ("hyf.adversary", "generate_poisson", "adversary.generate_poisson", None),
    ("hyf.cli", "attach_random_walk", "adversary.attach_random_walk", None),
    ("hyf.cli", "loss_table", "montecarlo.loss_table", None),
    ("hyf.montecarlo", "run_experiment", "montecarlo.run_experiment", _runs_attrs),
)

ROOT_SPAN = "cli.main"

# every span name in recording order, the root first
SPAN_NAMES = tuple(dict.fromkeys([ROOT_SPAN, *(name for _, _, name, _ in BINDINGS)]))

LATENCY_SPANS = ("nonextant.detect_interval_rule", "adversary.generate_inputs")

RATE_PAIRS = ("1_1", "1_0.5", "1_0.25", "1_0.1")

NAME, START, END, PARENT, COMMAND, ATTRS = range(6)


class Tracer:
    """Records spans for wrapped calls; install with :meth:`installed`."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.command = -1
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else -1, self.command, None]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
            if annotate is not None:
                span[ATTRS] = annotate(args, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every binding in :data:`BINDINGS`; restore them on exit."""
        saved = []
        try:
            for module_name, attr, name, annotate in BINDINGS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, annotate))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def call(self, main, argv: list[str]) -> int:
        """Run ``main(argv)`` as one command under the root span."""
        self.command += 1
        return self.wrap(ROOT_SPAN, main)(argv)


def self_times(spans: list[list]) -> np.ndarray:
    own = np.array([s[END] - s[START] for s in spans])
    child = np.zeros(len(spans))
    for s, duration in zip(spans, own):
        if s[PARENT] >= 0:
            child[s[PARENT]] += duration
    return own - child


def _self_metric(name: str) -> str:
    """Self-time metric of a span; montecarlo's two spans share one."""
    if name == ROOT_SPAN:
        return "cli.self_s"
    if name.startswith("montecarlo."):
        return "montecarlo.self_s"
    return f"{name}_s"


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass; see BENCHMARK.json ``per_layer``."""
    out = {_self_metric(name): 0.0 for name in SPAN_NAMES}
    for s, own in zip(spans, self_times(spans)):
        out[_self_metric(s[NAME])] += float(own)

    def named(name):
        return [s for s in spans if s[NAME] == name]

    for name in LATENCY_SPANS:
        ms = [1e3 * (s[END] - s[START]) for s in named(name)] or [0.0]
        out[f"{name}_p50_ms"] = float(np.percentile(ms, 50))
        out[f"{name}_p99_ms"] = float(np.percentile(ms, 99))

    overlaps = named("core.enumerate_overlaps")
    out["core.enumerate_overlaps.calls"] = len(overlaps)
    out["core.overlaps_m"] = max((s[ATTRS]["m"] for s in overlaps), default=0)
    for key in ("raw_terms", "grouped_terms"):
        out[f"estimator.{key}"] = sum(s[ATTRS][key] for s in named("estimator.telescope_rows"))
    for key in ("f_interior", "f_total", "m"):
        out[f"nonextant.{key}"] = sum(s[ATTRS][key] for s in named("nonextant.detect_interval_rule"))

    # draws per accepted trial: two generate_poisson calls per draw
    trials = named("adversary.generate_inputs")
    poisson = named("adversary.generate_poisson")
    out["adversary.generate_poisson.calls"] = len(poisson)
    out["adversary.draws_per_trial"] = len(poisson) / 2 / len(trials) if trials else 0.0
    accepted = Counter(s[ATTRS]["rates"] for s in trials)
    calls = Counter(spans[s[PARENT]][ATTRS]["rates"] for s in poisson
                    if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "adversary.generate_inputs")
    for rates in RATE_PAIRS:
        out[f"adversary.draws_per_trial.{rates}"] = (
            calls[rates] / 2 / accepted[rates] if accepted[rates] else 0.0)
    out["montecarlo.trials"] = sum(s[ATTRS]["runs"] for s in named("montecarlo.run_experiment"))
    return out


def per_command_self(spans: list[list], commands: list[str]) -> dict[str, dict[str, float]]:
    """Self time of each span name within each command, for the report."""
    out: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        row = out.setdefault(commands[s[COMMAND]], {})
        row[s[NAME]] = row.get(s[NAME], 0.0) + float(own)
    return out
