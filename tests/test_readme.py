"""The README's "Library quick start" block runs and prints what its comments
say, and every ``hyf.<module>.<name>`` it cites exists.

Each top-level statement of the block is run in turn; an expression
statement whose line ends in a ``# ...`` comment is evaluated and compared
with that comment read as Python, where ``array(...)`` is a numpy array and
``~x`` stands for ``x`` give or take five units of its last written digit.
"""

import ast
import importlib
import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


class _About:
    """A number written ``~x`` in the README."""

    def __init__(self, text: str):
        self.value = float(text)
        decimals = len(text.partition(".")[2])
        self.tolerance = 5 * 10.0 ** -decimals

    def matches(self, got) -> bool:
        return abs(got - self.value) <= self.tolerance


def _quick_start_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start"):]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _expected(comment: str):
    comment = re.sub(r"~([0-9.]+)", r"_About('\1')", comment)
    return eval(comment, {"array": np.array, "_About": _About})


def _same(got, expected) -> bool:
    if isinstance(expected, _About):
        return expected.matches(got)
    if isinstance(expected, tuple):
        return (isinstance(got, tuple) and len(got) == len(expected)
                and all(_same(g, e) for g, e in zip(got, expected)))
    if isinstance(expected, np.ndarray):
        return (isinstance(got, np.ndarray) and got.dtype.kind == expected.dtype.kind
                and np.array_equal(got, expected))
    return type(got) is type(expected) and got == expected


def _checked_lines():
    block = _quick_start_block()
    lines = block.splitlines()
    namespace: dict = {}
    checked = []
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        comment = lines[node.end_lineno - 1].partition("  # ")[2].strip()
        if isinstance(node, ast.Expr) and comment:
            got = eval(source, namespace)
            checked.append((source, got, comment))
        else:
            exec(source, namespace)
    return checked


@pytest.fixture(scope="module")
def checked():
    return _checked_lines()


def test_every_commented_value_is_checked(checked):
    assert [source for source, _, _ in checked] == [
        "hy_covariance(s1, s2)",
        "terms.raw_count, terms.grouped_count",
        "terms.grouped_terms",
        "report.nonextant_1, report.nonextant_2",
        "report.f_total, report.m",
        "summary.mean_loss, summary.std_loss, summary.theoretical",
    ]


def test_values_match_their_comments(checked):
    for source, got, comment in checked:
        assert _same(got, _expected(comment)), (source, got, comment)


def test_comment_forms():
    # the forms the comments are read in, checked on their own
    assert _same((np.array([1, 2]), np.array([3, 4])), _expected("array([1, 2]), array([3, 4])"))
    assert not _same((1, 2), _expected("array([1, 2])"))
    assert not _same((np.array([1, 2]),), _expected("array([1, 3]),"))
    assert _same((0.2531, 0.25), _expected("~0.250, 0.25"))
    assert not _same((0.2551, 0.25), _expected("~0.250, 0.25"))
    assert not _same(-30, _expected("-30.0"))


def test_cited_module_names_resolve():
    # a name that a refactor moves or deletes leaves no stale citation
    cited = re.findall(r"`(hyf\.\w+)\.(\w+(?:\.\w+)*)`", README.read_text(encoding="utf-8"))
    assert ("hyf.ticks", "READ_CHUNK_BYTES") in cited
    for module, name in cited:
        obj = importlib.import_module(module)
        for part in name.split("."):
            assert hasattr(obj, part), f"{module}.{name}"
            obj = getattr(obj, part)
