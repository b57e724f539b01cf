"""CSV emission: the one writer behind every table the package writes.

Rows are formatted and written in blocks of at most BLOCK_FIELDS fields (and
at least one row), from ``.tolist()`` of each column slice, so memory stays
flat in both the row count and the table's width, and the bytes depend on
neither the block size nor the worker count.  Floats are written with
``%.17g``, which round-trips every double; integer columns with ``%d``; word
columns as dot-joined letters (the empty word as "").
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Larger blocks buy little speed and show up in peak memory on deep or wide
# tables; a two-column table is written 4096 rows at a time.
BLOCK_FIELDS = 8192


@dataclass(frozen=True)
class WordColumn:
    """Lex indices (an array, or a range for a contiguous run) of
    depth-``depth`` words over ``n_letters`` letters."""

    indices: np.ndarray | range
    depth: int
    n_letters: int


def _words(length: int, n: int) -> list[str]:
    """All formatted words of the given length, in lex order."""
    words = [""]
    for level in range(length):
        words = [f"{w}.{c}" if level else str(c) for w in words for c in range(1, n + 1)]
    return words


def _word_fields(col: WordColumn):
    # A word is head[index // width] "." tail[index % width]; both tables hold
    # about n^(depth/2) entries, so no row needs its own word conversion.
    half = col.depth // 2
    head, tail = _words(half, col.n_letters), _words(col.depth - half, col.n_letters)
    width = len(tail)

    def fields(start: int, stop: int) -> list[list[str]]:
        idx = np.asarray(col.indices[start:stop], dtype=np.int64)
        low = [tail[i] for i in (idx % width).tolist()]
        return [[head[i] for i in (idx // width).tolist()], low] if half else [low]

    return ("%s.%s" if half else "%s"), fields


def _array_fields(arr: np.ndarray):
    spec = "%d" if np.issubdtype(arr.dtype, np.integer) else "%.17g"
    cols = arr[:, None] if arr.ndim == 1 else arr
    return ",".join([spec] * cols.shape[1]), lambda start, stop: cols[start:stop].T.tolist()


def write_table(target, header: Sequence[str], columns: Sequence) -> None:
    """Stream a CSV table to a path, or to stdout when ``target`` is None.

    Each column is a WordColumn, a 1-D array (one field per row) or a 2-D
    array (one field per array column); all share the same row count.
    """
    parts = [
        _word_fields(col) if isinstance(col, WordColumn) else _array_fields(np.asarray(col))
        for col in columns
    ]
    first = columns[0]
    rows = len(first.indices if isinstance(first, WordColumn) else first)
    row_format = ",".join(spec for spec, _ in parts) + "\n"
    block = max(1, BLOCK_FIELDS // len(header))

    def emit(handle) -> None:
        handle.write(",".join(header) + "\n")
        for start in range(0, rows, block):
            stop = min(rows, start + block)
            fields = [field for _, get in parts for field in get(start, stop)]
            handle.write("".join(map(row_format.__mod__, zip(*fields))))

    if target is None:
        emit(sys.stdout)
    else:
        with open(target, "w", encoding="utf-8", newline="") as handle:
            emit(handle)
