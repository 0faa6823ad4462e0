"""Streamed JSON text of the CLI's payloads, the same text as
``json.dumps(payload, indent=2)``, written a piece at a time."""

from __future__ import annotations

import json
from typing import Iterator

import numpy as np

from . import core

_JSON_SCALARS = frozenset({int, float, bool, type(None)})


def _json_chunks(obj) -> Iterator[str]:
    """The text of ``json.dumps(obj, indent=2)`` in pieces, faster on long lists.

    ``json`` runs its C encoder only without ``indent``, so a non-empty list
    (or tuple) of plain numbers, bools and ``None``, or a 1-D numeric or bool
    array, is dumped flat by :func:`_scalar_blocks`; an array is encoded as
    the list its ``tolist()`` gives.  Dicts with string keys recurse; any other value
    takes the indenting encoder, whose structural newlines are the only raw
    newlines in its output.  No piece holds more than one block or one such
    value, except that a list or dict that ``obj`` holds more than once is
    encoded once per depth and its text kept.
    """
    return _encode(obj, "", _repeated(obj), {})


class _Gathered:
    """``values[indices]``, gathered only a slice at a time: a 1-D array's
    ``len`` and slices, which is all :func:`_scalar_blocks` takes."""

    def __init__(self, values: np.ndarray, indices: np.ndarray):
        self.values, self.indices = values, indices

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, block: slice) -> np.ndarray:
        return self.values[self.indices[block]]


def _is_scalar_list(obj) -> bool:
    """True for a 1-D numeric or bool array, such an array's :class:`_Gathered`
    items, and a list or tuple of plain scalars."""
    if isinstance(obj, _Gathered):
        obj = obj.values
    if isinstance(obj, np.ndarray):
        return obj.ndim == 1 and obj.dtype.kind in "biuf"
    return isinstance(obj, (list, tuple)) and set(map(type, obj)) <= _JSON_SCALARS


def _repeated(obj) -> set[int]:
    """ids of the lists, arrays and dicts that ``obj`` holds more than once."""
    seen: set[int] = set()
    repeated: set[int] = set()
    stack = [obj]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            children = item.values()
        elif _is_scalar_list(item):
            children = ()
        elif isinstance(item, (list, tuple)):
            children = item
        else:
            continue
        if id(item) in seen:
            repeated.add(id(item))
        else:
            seen.add(id(item))
            stack.extend(children)
    return repeated


def _scalar_blocks(items, sep: str) -> Iterator[str]:
    """JSON texts of plain scalars joined by ``sep``, in pieces of
    :data:`hyf.core.BLOCK_POINTS` items, each one C-encoder dump split at its
    ``", "``, which no such scalar holds.

    ``items`` is a list, a tuple, a 1-D array or a :class:`_Gathered`; an
    array is gathered and turned into Python scalars one block at a time.
    A block of integers or finite floats is dumped by ``repr``, which gives
    the same text: it writes each item's text into one buffer, where
    ``json.dumps`` keeps every item's text until it joins them (2.5 times
    the peak memory).
    """
    for block in core.blocks(len(items)):
        piece, dump = items[block], json.dumps
        if isinstance(piece, np.ndarray):
            if piece.dtype.kind in "iu" or (piece.dtype.kind == "f" and np.isfinite(piece).all()):
                dump = repr
            piece = piece.tolist()
        if block.start:
            yield sep
        yield dump(piece)[1:-1].replace(", ", sep)


def _encode(obj, pad: str, repeated: set[int], memo: dict) -> Iterator[str]:
    if id(obj) not in repeated:
        yield from _encode_once(obj, pad, repeated, memo)
        return
    key = (id(obj), pad)
    if key not in memo:
        # the pieces, not their join, which would hold the text twice
        memo[key] = list(_encode_once(obj, pad, repeated, memo))
    yield from memo[key]


def _encode_once(obj, pad: str, repeated: set[int], memo: dict) -> Iterator[str]:
    inner = pad + "  "
    if _is_scalar_list(obj):
        if len(obj):
            yield "[\n" + inner
            yield from _scalar_blocks(obj, ",\n" + inner)
            yield f"\n{pad}]"
        else:
            yield "[]"
    elif isinstance(obj, (list, tuple)) and obj:
        yield "[\n" + inner
        for k, value in enumerate(obj):
            if k:
                yield ",\n" + inner
            yield from _encode(value, inner, repeated, memo)
        yield f"\n{pad}]"
    elif isinstance(obj, dict) and obj and all(type(k) is str for k in obj):
        for k, (key, value) in enumerate(obj.items()):
            yield f"{',' if k else '{'}\n{inner}{json.dumps(key)}: "
            yield from _encode(value, inner, repeated, memo)
        yield f"\n{pad}}}"
    else:
        yield json.dumps(obj, indent=2).replace("\n", "\n" + pad)
