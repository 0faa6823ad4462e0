"""Block edges: every per-tick kernel gives the same result at any block size.

With ``core.BLOCK_POINTS`` patched to 1, 2, 3 and 5, so that block edges
fall everywhere in small pairs, each blocked kernel is compared with the
full-array version in ``_support`` (or, for the reports on pairs that are
not boundary aligned, with itself at the default block size, since the
full-array rule was wrong there).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyf import (
    AdversaryConfig,
    LabelSequence,
    ValidationError,
    adversary,
    core,
    detect_interval_rule,
    detect_label_rule,
    hy_covariance,
    merge_labels,
    overlap_count,
    telescope_rows,
    validate_series,
)
from hyf.errors import CrossSeriesTie

from _support import (
    boundary_aligned,
    edge_examples,
    edge_pairs,
    full_array_aligned_labels,
    full_array_counts,
    full_array_covariance,
    full_array_interval_rule,
    full_array_label_rule,
    full_array_merge,
    full_array_overlap_count,
    full_array_series_error,
    random_tie_free_pair,
    random_tied_pair,
)

BLOCKS = st.sampled_from([1, 2, 3, 5])
SEEDS = st.integers(0, 2**32 - 1)


def _pair(seed: int, tied: bool):
    """A small random pair (tied: on one shared grid) with normal random prices."""
    rng = np.random.default_rng(seed)
    s1, s2 = (random_tied_pair if tied else random_tie_free_pair)(rng, max_points=24)
    return s1.with_values(rng.standard_normal(s1.n_points)), s2.with_values(
        rng.standard_normal(s2.n_points))


def _blocked(block: int):
    return mock.patch.object(core, "BLOCK_POINTS", block)


def _report(r):
    return r.nonextant_1.tolist(), r.nonextant_2.tolist(), r.f_interior, r.f_total, r.m


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, block=BLOCKS, tied=st.booleans())
def test_covariance_bits_and_overlap_count(seed, block, tied):
    s1, s2 = _pair(seed, tied)
    with _blocked(block):
        covariance = hy_covariance(s1, s2)
        count = overlap_count(s1, s2)
    assert covariance.hex() == full_array_covariance(s1, s2).hex()
    assert count == full_array_overlap_count(s1, s2)


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, block=BLOCKS, tied=st.booleans(),
       anchoring=st.sampled_from(["row", "alternative"]))
@edge_examples(tied=[False], anchoring=["row", "alternative"])
def test_telescope_counts_and_groups(seed, block, tied, anchoring):
    for s1, s2 in edge_pairs(seed) if isinstance(seed, str) else [_pair(seed, tied)]:
        with _blocked(block):
            terms = telescope_rows(s1, s2, anchoring)
            counts = terms.raw_count, terms.grouped_count
            groups = terms.groups
        assert counts == full_array_counts(s1, s2, anchoring)
        np.testing.assert_array_equal(groups, telescope_rows(s1, s2, anchoring).groups)


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, block=BLOCKS, tied=st.booleans(), include=st.booleans())
def test_reports(seed, block, tied, include):
    s1, s2 = _pair(seed, tied)
    with _blocked(block):
        interval = _report(detect_interval_rule(s1, s2, include))
        label = None if tied else _report(detect_label_rule(merge_labels(s1, s2), include))
    assert interval == _report(detect_interval_rule(s1, s2, include))
    if not tied:
        assert label == _report(detect_label_rule(merge_labels(s1, s2), include))
        if boundary_aligned(s1.times, s2.times):
            assert interval == full_array_interval_rule(s1, s2, include)
            assert label == full_array_label_rule(merge_labels(s1, s2).is_a, include)


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, block=BLOCKS, tied=st.booleans())
def test_merge_labels(seed, block, tied):
    s1, s2 = _pair(seed, tied)
    with _blocked(block):
        try:
            labels = merge_labels(s1, s2)
        except CrossSeriesTie as exc:
            message = str(exc)
        else:
            message = None
    times, from_1 = full_array_merge(s1, s2)
    if message is not None:
        tied_at = times[1:][np.diff(times) == 0][0]
        assert message == f"time {float(tied_at)!r} appears in both series"
    else:
        np.testing.assert_array_equal(labels.times, times)
        np.testing.assert_array_equal(labels.is_a, from_1)


_DEFECTS = st.sampled_from([0.0, 1.0, -1.0, 2.5, 1e308, -1e308, np.inf, -np.inf, np.nan])


@settings(max_examples=300, deadline=None)
@given(block=BLOCKS, data=st.data())
def test_series_messages_with_several_defects(block, data):
    n = data.draw(st.integers(2, 16))
    times = np.arange(n, dtype=float)
    values = np.zeros(n)
    # a few defects of each kind at random positions: non-finite or equal
    # or falling times, non-finite or overflowing values
    for k in data.draw(st.lists(st.integers(0, n - 1), max_size=4)):
        times[k] = data.draw(_DEFECTS)
    for k in data.draw(st.lists(st.integers(0, n - 1), max_size=4)):
        values[k] = data.draw(_DEFECTS)
    with _blocked(block):
        try:
            validate_series(times, values, "A")
        except ValidationError as exc:
            message = str(exc)
        else:
            message = None
        try:
            LabelSequence(times, np.arange(n) % 2 == 0)
        except ValidationError as exc:
            sequence_message = str(exc)
        else:
            sequence_message = None
    assert message == full_array_series_error(times, values, "A")
    assert sequence_message == _sequence_error(times)


def _sequence_error(times) -> str | None:
    """The message ``LabelSequence(times, alternating labels)`` gives, from whole arrays."""
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = np.diff(times)
    if not np.isfinite(times).all():
        k = int(np.argmin(np.isfinite(times)))
        return f"non-finite time {float(times[k])!r} at position {k}"
    if (gaps == 0).any():
        return f"time {float(times[int(np.argmax(gaps == 0))])!r} appears in both series"
    if (gaps < 0).any():
        return "merged entries are not sorted by time"
    for label, count in (("A", (times.size + 1) // 2), ("B", times.size // 2)):
        if count < 2:
            return f"both legs must be present with >= 2 points; leg {label} has {count}"
    return None


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, block=BLOCKS, sizes=st.lists(st.integers(4, 12), min_size=1, max_size=5))
def test_aligned_label_stream(seed, block, sizes):
    # the labels' uniforms drawn a block at a time are the same doubles, and
    # leave the stream where the one-call draw does
    sizes = np.array(sizes)
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    with _blocked(block):
        labels = adversary._aligned_labels(rng, sizes, 0.3)
    np.testing.assert_array_equal(labels, full_array_aligned_labels(reference, sizes, 0.3))
    assert rng.random() == reference.random()


@pytest.mark.parametrize("block", [1, 2, 3, 5])
def test_draw_streams(block):
    config = AdversaryConfig(1.0, 0.5, 10.0, seed=11)
    with _blocked(block):
        draws = [adversary.draw_labels(config, trial) for trial in range(3)]
        blocks = [adversary.draw_label_block(config, k, 7) for k in range(2)]
    with mock.patch.object(adversary, "_aligned_labels", full_array_aligned_labels):
        for trial, (times, is_a) in enumerate(draws):
            ref_times, ref_is_a = adversary.draw_labels(config, trial)
            np.testing.assert_array_equal(times, ref_times)
            np.testing.assert_array_equal(is_a, ref_is_a)
        for k, (is_a, sizes) in enumerate(blocks):
            ref_is_a, ref_sizes = adversary.draw_label_block(config, k, 7)
            np.testing.assert_array_equal(is_a, ref_is_a)
            np.testing.assert_array_equal(sizes, ref_sizes)
