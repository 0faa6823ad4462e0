"""Correctness checks on hyf's CLI output, written without hyf's code.

Every reference here is derived from the definitions in the README: the
half-open interval convention ``(t[i-1], t[i]]``, the same-label-triple
characterisation of nonextant points and the exact finite-horizon mean
of the interior loss.  Each ``check_*`` function returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

COVARIANCE_RELATIVE_TOLERANCE = 1e-9
LOSS_TOLERANCE_STANDARD_ERRORS = 5.0
SIMULATE_TOLERANCE_SIGMAS = 6.0


def overlap_range(t_opp: np.ndarray, lo_times, hi_times):
    """Opposite-interval index range ``lo..hi`` meeting each ``(lo_time, hi_time]``.

    Opposite interval ``j`` (1-based) is ``(t_opp[j-1], t_opp[j]]``; it meets
    ``(x, y]`` exactly when ``t_opp[j] > x`` and ``t_opp[j-1] < y``.  The range
    is empty where ``lo > hi``.
    """
    last = t_opp.size - 1
    lo = np.maximum(1, np.searchsorted(t_opp, lo_times, side="right"))
    hi = np.minimum(last, np.searchsorted(t_opp, hi_times, side="left"))
    return lo, hi


def reference_overlaps(ta: np.ndarray, tb: np.ndarray) -> int:
    lo, hi = overlap_range(tb, ta[:-1], ta[1:])
    return int(np.maximum(hi - lo + 1, 0).sum())


def reference_covariance(ta, pa, tb, pb) -> tuple[float, float]:
    """Covariance and the 2-norm of its summands, telescoped per A interval.

    Each A increment multiplies the B price change across the B intervals it
    overlaps, which is the B endpoint difference over that range.
    """
    lo, hi = overlap_range(tb, ta[:-1], ta[1:])
    spans = np.where(lo <= hi, pb[hi] - pb[np.maximum(lo, 1) - 1], 0.0)
    terms = np.diff(pa) * spans
    return float(terms.sum()), float(np.linalg.norm(terms))


def merged_labels(ta: np.ndarray, tb: np.ndarray) -> np.ndarray:
    """True for A, False for B, in merged time order (inputs are tie-free)."""
    is_a = np.concatenate([np.ones(ta.size, bool), np.zeros(tb.size, bool)])
    return is_a[np.argsort(np.concatenate([ta, tb]), kind="stable")]


def triple_middles(is_a: np.ndarray) -> np.ndarray:
    """Merged positions whose two neighbours carry the same label as they do."""
    middle = (is_a[1:-1] == is_a[:-2]) & (is_a[1:-1] == is_a[2:])
    return np.flatnonzero(middle) + 1


def _edge_fallback(t_self: np.ndarray, t_opp: np.ndarray, interior: set[int]) -> list[int]:
    """Second and penultimate points whose two intervals meet one opposite interval."""
    last = t_self.size - 1
    out = []
    for k in sorted({1, last - 1}):
        if not 1 <= k <= last - 1 or k in interior:
            continue
        lo, hi = overlap_range(t_opp, t_self[k - 1], t_self[k + 1])
        if hi - lo + 1 == 1:
            out.append(k)
    return out


def expected_nonextant(ta, tb, include_boundary: bool) -> dict:
    """Nonextant indices per leg and the counts a detector must report."""
    is_a = merged_labels(ta, tb)
    own_index = np.where(is_a, np.cumsum(is_a) - 1, np.cumsum(~is_a) - 1)
    middles = triple_middles(is_a)
    legs = {}
    f_interior = f_total = 0
    for name, mine, t_self, t_opp in (("A", True, ta, tb), ("B", False, tb, ta)):
        interior = own_index[middles[is_a[middles] == mine]].tolist()
        edge = _edge_fallback(t_self, t_opp, set(interior))
        indices = sorted(interior + edge) if include_boundary else interior
        legs[name] = indices
        f_interior += len(interior)
        f_total += len(indices)
    return {"legs": legs, "f_interior": f_interior, "f_total": f_total,
            "m": reference_overlaps(ta, tb)}


def check_estimate(payload: dict, ta, pa, tb, pb) -> list[str]:
    results = payload["results"]
    want, scale = reference_covariance(ta, pa, tb, pb)
    got = results["covariance"]
    problems = []
    if not abs(got - want) <= COVARIANCE_RELATIVE_TOLERANCE * max(abs(want), scale):
        problems.append(f"estimate: covariance {got!r} differs from reference {want!r}")
    n_total = ta.size + tb.size
    if results["overlaps"] != n_total - 3:
        problems.append(f"estimate: overlaps {results['overlaps']} != N_total - 3 = {n_total - 3}")
    if results["raw_terms"] != results["overlaps"]:
        problems.append("estimate: raw_terms differs from overlaps")
    if not 1 <= results["grouped_terms"] <= results["raw_terms"]:
        problems.append(f"estimate: grouped_terms {results['grouped_terms']} out of range")
    return problems


def check_detect(payload: dict, ta, tb, expected: dict, methods: tuple[str, ...]) -> list[str]:
    """Every report names exactly the expected indices, times and counts."""
    results = payload["results"]
    reports = results["reports"]
    problems = []
    if tuple(r["method"] for r in reports) != methods:
        problems.append(f"detect: methods {[r['method'] for r in reports]} != {list(methods)}")
    if len(methods) > 1 and results["agree"] is not True:
        problems.append("detect: detectors report agree != true")
    for report in reports:
        method = report["method"]
        for leg, times in (("A", ta), ("B", tb)):
            got = report["legs"][leg]
            if got["indices"] != expected["legs"][leg]:
                problems.append(f"detect {method}: leg {leg} indices differ from the triple count")
            elif got["times"] != times[got["indices"]].tolist():
                problems.append(f"detect {method}: leg {leg} times do not match the input")
        for key in ("f_interior", "f_total", "m"):
            if report[key] != expected[key]:
                problems.append(f"detect {method}: {key} {report[key]} != {expected[key]}")
    return problems


def read_ticks(path: str) -> tuple[bytes, np.ndarray | None, list[str]]:
    with open(path, "rb") as fh:
        data = fh.read()
    header, _, body = data.partition(b"\n")
    if header != b"time,price":
        return data, None, [f"simulate: {path} header is {header[:40]!r}"]
    table = np.loadtxt(body.splitlines(), delimiter=",", ndmin=2)
    return data, table[:, 0], []


def check_simulate(payload: dict, rate_a: float, rate_b: float, horizon: float,
                   digests: dict[str, str]) -> list[str]:
    """Header, strictly increasing times, plausible leg sizes and identical bytes.

    ``digests`` keeps each file's first digest, so a later repetition at the
    same seed must reproduce the file byte for byte.
    """
    results = payload["results"]
    problems = []
    for leg, rate in (("a", rate_a), ("b", rate_b)):
        path = results[f"file_{leg}"]
        data, times, bad = read_ticks(path)
        problems += bad
        if times is None:
            continue
        if not np.all(np.diff(times) > 0):
            problems.append(f"simulate: {path} times are not strictly increasing")
        expected = rate * horizon
        if abs(times.size - expected) > SIMULATE_TOLERANCE_SIGMAS * math.sqrt(expected):
            problems.append(f"simulate: leg {leg} has {times.size} ticks, expected about {expected:g}")
        if times.size != results[f"points_{leg}"]:
            problems.append(f"simulate: leg {leg} reports {results[f'points_{leg}']} points, file has {times.size}")
        digest = hashlib.sha256(data).hexdigest()
        if digests.setdefault(leg, digest) != digest:
            problems.append(f"simulate: leg {leg} output differs from an earlier run at the same seed")
    return problems


def exact_interior_loss(rate_a: float, rate_b: float, horizon: float) -> float:
    """Exact mean of f_interior / m over accepted boundary-aligned Poisson pairs.

    The merged count is N ~ Poisson((a+b)T); given N the labels are i.i.d.
    with P(A) = p = a/(a+b), and boundary alignment (first two and last two
    labels differ) has probability (2pq)^2 for every N >= 4.  Hence the
    accepted N is Poisson conditioned on N >= 4, m = N - 3, and the expected
    number of same-label-triple middles is 0, 1/4 and
    (N-6)(p^3+q^3) + (p^2+q^2) for N = 4, 5 and N >= 6.
    """
    lam = (rate_a + rate_b) * horizon
    p = rate_a / (rate_a + rate_b)
    q = 1.0 - p
    n = np.arange(4, int(lam + 12.0 * math.sqrt(lam) + 40.0) + 1)
    log_factorial = np.cumsum(np.log(np.arange(1, n[-1] + 1)))[n - 1]
    weight = np.exp(n * math.log(lam) - lam - log_factorial)
    expected_f = np.where(n >= 6, (n - 6) * (p**3 + q**3) + (p**2 + q**2),
                          np.where(n == 5, 0.25, 0.0))
    return float(np.sum(weight * expected_f / (n - 3)) / weight.sum())


def check_loss_table(payload: dict, cells: list[dict], runs: int) -> list[str]:
    """Each cell's mean lies within 5 standard errors of the exact mean."""
    got = payload["results"]["cells"]
    problems = []
    if len(got) != len(cells):
        return [f"loss-table: {len(got)} cells, expected {len(cells)}"]
    for cell, want in zip(got, cells):
        key = (cell["rate_a"], cell["rate_b"], cell["horizon"])
        if key != (want["rate_a"], want["rate_b"], want["horizon"]) or cell["runs"] != runs:
            problems.append(f"loss-table: unexpected cell {key} with {cell['runs']} runs")
            continue
        z = loss_z_score(cell, want["exact_loss"])
        if not abs(z) <= LOSS_TOLERANCE_STANDARD_ERRORS:
            problems.append(f"loss-table: cell {key} mean {cell['mean_loss']!r} is {z:.1f} "
                            f"standard errors from the exact {want['exact_loss']:.6f}")
    return problems


def loss_z_score(cell: dict, exact: float) -> float:
    error = cell["std_loss"] / math.sqrt(cell["runs"])
    return (cell["mean_loss"] - exact) / error if error > 0 else math.inf
