"""Memory guard: each per-tick layer's transient peak, bounded in pair bytes or blocks.

A fixed-seed pair of about 100k ticks runs through the layers that once
held whole copies of their input: the tick reader and writer, the
telescoped grouping and ``estimate``'s counting path, the labelled merge
with the label rule, ``detect --method all``'s three reports, and the
``--json`` and text-mode writers.  Each layer's ``tracemalloc`` peak above
the memory in use when it starts, result included, is bounded as a
multiple of the bytes of the pair's four arrays (1.6 MB here).  Each
bound sits between the layer's peak and the peak it had while it held one
more whole copy of its input, its output or a temporary of their size.

The blocked kernels hold no temporary larger than one block of
``core.BLOCK_POINTS`` points.  Their peak above their result (and above
the arrays the result is computed from, where those must exist whole) is
bounded by a fixed number of 64 KiB blocks, the same on pairs of about
50k and 100k ticks; before the kernels were blocked it grew with the pair.
The streamed tick reader's peak above its columns is bounded the same way
in chunks of ``ticks.READ_CHUNK_BYTES``; reading the whole text, it grew
with the file.

``tracemalloc`` counts calloc'd zeros that never become resident and does
not see holes left in the heap or memory given back from its top, so the
peak resident memory of ``simulate``, of file ``detect`` and of
``estimate`` on named pipes is also bounded, on Linux, from its ``wait4``
``ru_maxrss``.
"""

import argparse
import contextlib
import gc
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import hyf
from hyf import AdversaryConfig, attach_random_walk, generate_inputs, merge_labels
from hyf import cli, core, ticks
from hyf.adversary import draw_labels
from hyf.estimator import hy_covariance, telescope_rows
from hyf.nonextant import detect_interval_rule, detect_label_rule, oracle_detect


def _transient_peak(fn, *args) -> int:
    """Bytes ``fn(*args)`` holds at its peak above what was in use before."""
    return _peak_and_result(fn, *args)[0]


def _peak_and_result(fn, *args):
    """:func:`_transient_peak` and the result of ``fn(*args)``."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1] - start, result
    finally:
        tracemalloc.stop()


def _blocks(nbytes: int) -> float:
    """``nbytes`` in blocks of ``core.BLOCK_POINTS`` float64 values."""
    return nbytes / (core.BLOCK_POINTS * 8)


def _report_bytes(report) -> int:
    return report.nonextant_1.nbytes + report.nonextant_2.nbytes


def _owned_bytes(a) -> int:
    """Bytes of the array ``a`` is, or is a view of."""
    return (a if a.base is None else a.base).nbytes


@pytest.fixture(scope="module")
def pair():
    s1, s2 = generate_inputs(AdversaryConfig(1.0, 1.0, 50_000.0, seed=1729))
    return attach_random_walk(s1, s2, seed=1729)


@pytest.fixture(scope="module", params=[25_000.0, 50_000.0], ids=["50k", "100k"])
def sized(request):
    """The config and pair at about 50k and 100k ticks; drawing the pair
    here also makes the generator's one-time allocations."""
    config = AdversaryConfig(1.0, 1.0, request.param, seed=1729)
    return config, attach_random_walk(*generate_inputs(config), seed=1729)


@pytest.fixture(scope="module")
def pair_bytes(pair):
    return sum(s.times.nbytes + s.values.nbytes for s in pair)


def test_pair_is_about_100k_ticks(pair):
    assert 99_000 < pair[0].n_points + pair[1].n_points < 101_000


def test_read_tick_file(sized, tmp_path, monkeypatch):
    # above its two columns the streamed reader holds a chunk and the piece
    # cut from it, or a piece, its newline mask and the previous piece's
    # rows: 2.5 chunks at 50k and 100k ticks, where reading the whole text
    # took 22 and 45 chunks of 64 KiB (one leg's text is about 1.2 pair
    # bytes, its columns 0.5)
    _, (s1, s2) = sized
    path = str(tmp_path / "a.csv")
    ticks.write_tick_file(path, s1)
    chunk = 1 << 16
    monkeypatch.setattr(ticks, "READ_CHUNK_BYTES", chunk)
    peak, columns = _peak_and_result(ticks.read_tick_file, path)
    assert (peak - sum(c.nbytes for c in columns)) / chunk < 4
    pair_bytes = sum(s.times.nbytes + s.values.nbytes for s in (s1, s2))
    assert peak < 1.0 * pair_bytes


def test_write_tick_file(sized, tmp_path):
    # a quarter block of rows at a time: their float lists, line strings
    # and joined text take 5.1 blocks at 50k and 100k ticks, where a whole
    # block's took 20 and a whole leg's about 2 pair bytes
    _, (s1, _) = sized
    assert _blocks(_transient_peak(ticks.write_tick_file, str(tmp_path / "w.csv"), s1)) < 7


def test_telescope_rows(pair, pair_bytes):
    # the groups, built from per-interval ranges without the (m, 2) pairs,
    # peak at 2.8 pair bytes; the pairs alone are one pair byte more
    assert _transient_peak(lambda: telescope_rows(*pair).groups) < 3.5 * pair_bytes


def test_estimate_counts(pair, pair_bytes):
    def counts():
        terms = telescope_rows(*pair)
        return hy_covariance(*pair), terms.raw_count, terms.grouped_count

    # the covariance's two leg-1 vectors (0.5 pair bytes) and blocks (0.71
    # in all); the per-interval ranges of a leg alone are 0.5 more
    assert _transient_peak(counts) < 1.0 * pair_bytes


def test_merge_labels_and_detect_label_rule(pair, pair_bytes):
    # the labels, the index sets and blocks: 0.32 pair bytes; the merged
    # times, which the label rule never reads, are 0.5 more and whole-leg
    # before-counts 0.25 more each
    assert _transient_peak(lambda: detect_label_rule(merge_labels(*pair))) < 0.5 * pair_bytes


def test_detect_interval_rule_blocks(sized):
    _, pair = sized
    peak, report = _peak_and_result(detect_interval_rule, *pair, True)
    # 6.3 blocks; whole-leg ranges took 12 at 50k ticks and 24 at 100k
    assert _blocks(peak - _report_bytes(report)) < 8


def test_merge_labels_and_label_rule_blocks(sized):
    _, pair = sized

    def label_rule():
        labels = merge_labels(*pair)
        return labels, detect_label_rule(labels, include_boundary=True)

    peak, (labels, report) = _peak_and_result(label_rule)
    held = labels.is_a.nbytes + _report_bytes(report)
    # 2.7 blocks; whole-leg positions and before-counts took 8 and 17, and
    # the merged times, which the label rule never reads, 8 and 16
    assert _blocks(peak - held) < 5


def test_hy_covariance_blocks(sized):
    _, (s1, s2) = sized
    # above the increments and opposite sums its one np.dot takes (one
    # leg-1 vector each): 5.1 blocks; whole-leg ranges took 9 and 18
    operands = 2 * 8 * s1.n_intervals
    assert _blocks(_transient_peak(hy_covariance, s1, s2) - operands) < 6


@pytest.mark.parametrize("anchoring", ["row", "alternative"])
def test_telescope_counts_blocks(sized, anchoring):
    _, pair = sized

    def counts():
        terms = telescope_rows(*pair, anchoring)
        return terms.raw_count, terms.grouped_count

    # 9.7 blocks; whole-staircase rows and runs took 16-19 and 31-37
    assert _blocks(_transient_peak(counts)) < 12


def test_first_shared_time_blocks(sized):
    _, (s1, s2) = sized
    # a tie-free pair, so every time of leg B is looked up: 2.2 blocks; the
    # whole-leg positions, clipped positions, gathered times and hits took
    # 6 and 12
    peak, shared = _peak_and_result(core.first_shared_time, s1.times, s2.times)
    assert shared is None
    assert _blocks(peak) < 4


def test_generate_inputs_and_random_walk_blocks(sized):
    config, _ = sized
    # the merged draw: its times (as generate_poisson drew them) and labels;
    # 1.1 blocks, where one uniform per label drawn at once took 6 and 12
    peak, (times, is_a) = _peak_and_result(draw_labels, config)
    draw = _owned_bytes(times) + is_a.nbytes
    del times, is_a
    assert _blocks(peak - draw) < 3
    # leg B is copied out of the draw and leg A moved into its buffer, which
    # shrinks to it before the legs are checked: 0.3 and -0.6 blocks above
    # the larger of draw plus legs' times and the result, where checking
    # whole legs beside the draw took 13 and 27.  tracemalloc counts the
    # zero values in full, though they are never written, so the result
    # is the peak here; test_simulate_peak_rss bounds the resident memory
    peak, legs = _peak_and_result(generate_inputs, config)
    leg_times = sum(s.times.nbytes for s in legs)
    result = leg_times + sum(s.values.nbytes for s in legs)
    assert _blocks(peak - max(draw + leg_times, result)) < 3
    # 1.3 blocks above the new values; checking whole legs took 6.5 and 13
    peak, walk = _peak_and_result(attach_random_walk, *legs, 1729)
    assert _blocks(peak - sum(s.values.nbytes for s in walk)) < 3


def test_json_writer(pair, pair_bytes):
    report = detect_interval_rule(*pair, include_boundary=True)
    args = argparse.Namespace(json=True)

    def write():
        legs = cli._legs_payload(report, *pair)
        payload = {"results": {"reports": [cli._report_payload(report, legs)]}}
        cli._emit(args, payload, ())

    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        # one block of a list at a time, the times gathered a block at a
        # time too: 0.52 pair bytes; gathering each leg's times whole took
        # 0.64, and the whole document's text is about 0.8 more
        assert _transient_peak(write) < 0.58 * pair_bytes


def test_text_leg_lines(pair, pair_bytes):
    report = detect_interval_rule(*pair, include_boundary=True)
    args = argparse.Namespace(json=False)

    def write():
        cli._emit(args, {}, cli._leg_lines(cli._legs_payload(report, *pair)))

    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        # one block of a list at a time, as in --json (0.37 pair bytes);
        # gathering each leg's times whole took 0.49, and a list of every
        # item's text and its joined line 0.97 more
        assert _transient_peak(write) < 0.43 * pair_bytes


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
        # the index sets stay arrays, the times are gathered a block at a
        # time, and the shared legs' text is kept as its pieces (1.42 pair
        # bytes in all); gathering each leg's times whole took 1.54, one
        # list of the 25k indices as Python ints is another 0.56, and
        # joining the legs' text once more about 0.5
        assert _transient_peak(detect_all) < 1.48 * pair_bytes


# runs argv[2:] and prints its ru_maxrss (KiB on Linux), while a thread
# per [fifo, file] pair of the JSON list argv[1] copies the file into the
# named pipe.  A process starts with the peak RSS of the one that spawns
# it, so the command is spawned from this small interpreter, not from the
# test process.
_MAXRSS = """import json, os, shutil, subprocess, sys, threading
def feed(fifo, source):
    with open(source, "rb") as src, open(fifo, "wb") as dst:
        shutil.copyfileobj(src, dst)
feeders = [threading.Thread(target=feed, args=pair, daemon=True)
           for pair in json.loads(sys.argv[1])]
proc = subprocess.Popen(sys.argv[2:], stdout=subprocess.DEVNULL)
for feeder in feeders:
    feeder.start()
_, status, usage = os.wait4(proc.pid, 0)
assert os.waitstatus_to_exitcode(status) == 0
print(usage.ru_maxrss)
"""


def _maxrss_bytes(*argv: str, feeds: tuple = ()) -> int:
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(hyf.__file__))}
    proc = subprocess.run([sys.executable, "-c", _MAXRSS, json.dumps(feeds), sys.executable,
                           *argv], capture_output=True, text=True, env=env, check=True)
    return int(proc.stdout) * 1024


def _least_maxrss_bytes(*argv: str, feeds=lambda: ()) -> int:
    """The least of three runs' :func:`_maxrss_bytes`: a single run's peak
    varies by up to 0.6 MiB from run to run on a shared host.  ``feeds``
    makes each run's named pipes."""
    return min(_maxrss_bytes(*argv, feeds=feeds()) for _ in range(3))


linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="ru_maxrss in KiB is Linux's")


@linux_only
def test_simulate_peak_rss(tmp_path):
    # above an interpreter that has imported hyf.cli and drawn from
    # numpy.random, simulate holds its two series (one float64 time and value
    # per point) and one leg's walk, drawn by the process that writes that
    # leg: 1.04-1.05 series bytes at about 200k ticks, where both legs' walks
    # drawn before the write took 1.33-1.38, and the merged draw beside
    # both legs, the zero values written on the heap and the writer's whole
    # blocks of text 1.6
    start = _least_maxrss_bytes(
        "-c", "import hyf.cli, numpy; numpy.random.default_rng(0).standard_normal(1)")
    peak = _least_maxrss_bytes("-m", "hyf", "simulate", "--horizon", "100000",
                               "--out-prefix", str(tmp_path / "sim"))
    points = sum((tmp_path / f"sim_{leg}.csv").read_bytes().count(b"\n") - 1 for leg in "ab")
    assert 190_000 < points < 210_000
    assert (peak - start) / (16 * points) < 1.22


@pytest.fixture(scope="module")
def files_200k(tmp_path_factory):
    """A simulated pair of about 200k ticks as two tick files, and its
    series bytes (one float64 time and price per point)."""
    config = AdversaryConfig(1.0, 1.0, 100_000.0, seed=1729)
    legs = attach_random_walk(*generate_inputs(config), seed=1729)
    directory = tmp_path_factory.mktemp("files_200k")
    paths = [str(directory / f"{leg}.csv") for leg in "ab"]
    for path, series in zip(paths, legs):
        ticks.write_tick_file(path, series)
    return paths, 16 * sum(s.n_points for s in legs)


@linux_only
@pytest.mark.parametrize("method", ["interval", "label"])
def test_detect_peak_rss(files_200k, method):
    # above an interpreter that has imported hyf.cli, detect holds the
    # pair's times once the prices are checked: 1.22-1.31 series bytes at
    # about 200k ticks, where holding the prices to the end took 1.73-1.79
    paths, series_bytes = files_200k
    start = _least_maxrss_bytes("-c", "import hyf.cli")
    peak = _least_maxrss_bytes("-m", "hyf", "detect", *paths, "--method", method, "--json")
    assert (peak - start) / series_bytes < 1.5


@linux_only
@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_piped_estimate_peak_rss(files_200k, tmp_path):
    # legs from named pipes, read one after the other in process: each
    # piece's rows are parsed as they arrive, not the whole text read
    # first.  1.50-1.59 series bytes above an interpreter that has imported
    # hyf.cli at about 200k ticks, as from the files (1.55-1.66), where
    # holding each leg's text took 2.61-2.65
    paths, series_bytes = files_200k
    fifos = [str(tmp_path / f"{leg}.pipe") for leg in "ab"]

    def feeds():
        for fifo in fifos:
            with contextlib.suppress(FileNotFoundError):
                os.remove(fifo)
            os.mkfifo(fifo)
        return list(zip(fifos, paths))

    start = _least_maxrss_bytes("-c", "import hyf.cli")
    peak = _least_maxrss_bytes("-m", "hyf", "estimate", *fifos, "--json", feeds=feeds)
    assert (peak - start) / series_bytes < 1.8
