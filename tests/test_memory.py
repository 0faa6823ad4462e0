"""Memory guard: each per-tick layer's transient peak, bounded in pair bytes.

A fixed-seed pair of about 100k ticks runs through the layers that once
held whole copies of their input: the tick reader and writer, the
telescoped grouping and ``estimate``'s counting path, the labelled merge
with the label rule, ``detect --method all``'s three reports, and the
``--json`` and text-mode writers.  Each layer's ``tracemalloc`` peak above
the memory in use when it starts, result included, is bounded as a
multiple of the bytes of the pair's four arrays (1.6 MB here).  Each
bound sits between the layer's peak and the peak it had while it held one
more whole copy of its input, its output or a temporary of their size.
"""

import argparse
import contextlib
import gc
import os
import tracemalloc

import pytest

from hyf import AdversaryConfig, attach_random_walk, generate_inputs, merge_labels
from hyf import cli
from hyf.estimator import hy_covariance, telescope_rows
from hyf.nonextant import detect_interval_rule, detect_label_rule, oracle_detect


def _transient_peak(fn, *args) -> int:
    """Bytes ``fn(*args)`` holds at its peak above what was in use before."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def pair():
    s1, s2 = generate_inputs(AdversaryConfig(1.0, 1.0, 50_000.0, seed=1729))
    return attach_random_walk(s1, s2, seed=1729)


@pytest.fixture(scope="module")
def pair_bytes(pair):
    return sum(s.times.nbytes + s.values.nbytes for s in pair)


@pytest.fixture(scope="module")
def tick_file(pair, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("memory") / "a.csv")
    cli.write_tick_file(path, pair[0])
    return path


def test_pair_is_about_100k_ticks(pair):
    assert 99_000 < pair[0].n_points + pair[1].n_points < 101_000


def test_read_tick_file(tick_file, pair_bytes):
    # one leg's text is about 1.2 pair bytes and its parsed rows 0.5: a
    # second copy of the text would pass the bound
    assert _transient_peak(cli.read_tick_file, tick_file) < 3 * pair_bytes


def test_write_tick_file(pair, pair_bytes, tmp_path):
    # one block of text at a time; a whole leg's lists and lines are
    # about 2 pair bytes
    assert _transient_peak(cli.write_tick_file, str(tmp_path / "w.csv"), pair[0]) < pair_bytes


def test_telescope_rows(pair, pair_bytes):
    # the groups, built from per-interval ranges without the (m, 2) pairs,
    # peak at 2.8 pair bytes; the pairs alone are one pair byte more
    assert _transient_peak(lambda: telescope_rows(*pair).groups) < 3.5 * pair_bytes


def test_estimate_counts(pair, pair_bytes):
    def counts():
        terms = telescope_rows(*pair)
        return hy_covariance(*pair), terms.raw_count, terms.grouped_count

    # the counts come from per-interval ranges (1.25 pair bytes); the
    # (m, 2) overlap staircase alone is about one pair byte more
    assert _transient_peak(counts) < 1.6 * pair_bytes


def test_merge_labels_and_detect_label_rule(pair, pair_bytes):
    assert _transient_peak(lambda: detect_label_rule(merge_labels(*pair))) < 3.2 * pair_bytes


def test_json_writer(pair, pair_bytes):
    report = detect_interval_rule(*pair, include_boundary=True)
    legs = cli._legs_payload(report, *pair)
    payload = {"results": {"reports": [cli._report_payload(report, legs)]}}
    args = argparse.Namespace(json=True)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        # one block of a list at a time; the whole document's text is
        # about 0.8 pair bytes, and about as much again while it is encoded
        assert _transient_peak(cli._emit, args, payload, ()) < pair_bytes


def test_text_leg_lines(pair, pair_bytes):
    report = detect_interval_rule(*pair, include_boundary=True)
    legs = cli._legs_payload(report, *pair)
    args = argparse.Namespace(json=False)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        # one block of a list at a time, as in --json (0.38 pair bytes);
        # a list of every item's text and its joined line took 0.97
        peak = _transient_peak(lambda: cli._emit(args, {}, cli._leg_lines(legs)))
    assert peak < 0.6 * pair_bytes


def test_detect_all_reports_and_json(pair, pair_bytes):
    args = argparse.Namespace(json=True)

    def detect_all():
        reports = [
            detect_interval_rule(*pair, include_boundary=True),
            detect_label_rule(merge_labels(*pair), include_boundary=True),
            oracle_detect(*pair, include_boundary=True),
        ]
        legs = cli._legs_payload(reports[0], *pair)
        payload = {"results": {"reports": [cli._report_payload(r, legs) for r in reports]}}
        cli._emit(args, payload, ())

    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        # the index sets and times stay arrays, and the shared legs' text is
        # kept as its pieces (1.7 pair bytes in all); one list of the 25k
        # indices as Python ints is another 0.56, and joining the legs'
        # text once more about 0.5
        assert _transient_peak(detect_all) < 2.0 * pair_bytes
