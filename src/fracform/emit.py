"""CSV emission: the one writer behind every table the package writes.

A table is written through ``table_writer``, which writes the header and
yields ``put(columns)``; each put appends its rows, so a command can write a
table chunk by chunk as a scan streams past and hold no column of the whole
table.  ``write_table`` is its one-shot form.  Rows are formatted and written
in blocks of at most BLOCK_FIELDS fields (and at least one row), from
``.tolist()`` of each column slice, so memory stays flat in both the row
count and the table's width, and the bytes depend on neither the block size
nor how the rows are split between puts.  Floats are written with
``%.17g``, which round-trips every double; integer columns with ``%d``;
word columns as dot-joined letters (the empty word as "").

A path is written under a temporary sibling that replaces it only when the
``with`` body succeeds, so a failed run leaves no table and an existing file
as it was.  A path that exists and is not a regular file (``/dev/null``, a
FIFO) is written in place and never renamed over.
"""

from __future__ import annotations

import functools
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

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


def _word_fields(col: WordColumn, words: Callable[[int, int], list[str]]):
    # A word is head[index // width] "." tail[index % width]; both tables hold
    # about n^(depth/2) entries, so no row needs its own word conversion.
    half = col.depth // 2
    head, tail = words(half, col.n_letters), words(col.depth - half, col.n_letters)
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


@contextmanager
def _opened(target):
    """A text handle on stdout (target None), on ``target`` itself when it
    exists and is not a regular file, or else on a temporary sibling that
    replaces ``target`` when the with body succeeds and is removed when it
    fails."""
    if target is None:
        yield sys.stdout
    elif os.path.exists(target) and not os.path.isfile(target):
        with open(target, "w", encoding="utf-8", newline="") as handle:
            yield handle
    else:
        # A symlink's file is replaced, not the link.
        path = os.path.realpath(target)
        temp = f"{path}.{os.getpid()}.tmp"
        try:
            handle = open(temp, "x", encoding="utf-8", newline="")
        except OSError as exc:  # name the table, not its temporary sibling
            raise OSError(exc.errno, exc.strerror, str(target)) from None
        try:
            with handle:
                yield handle
            os.replace(temp, path)
        except BaseException:
            os.unlink(temp)
            raise


@contextmanager
def table_writer(target, header: Sequence[str]) -> Iterator[Callable[[Sequence], None]]:
    """Write the header of a CSV table to a path, or to stdout when
    ``target`` is None, and yield ``put(columns)``, which appends rows.

    Each put's columns are WordColumns, 1-D arrays (one field per row) or
    2-D arrays (one field per array column), all with the same row count.
    A word column's half-word tables are built once per writer and depth,
    however many puts the table takes.
    A path's table replaces it only when the with body succeeds (_opened).
    """
    block, words = max(1, BLOCK_FIELDS // len(header)), functools.cache(_words)
    with _opened(target) as handle:
        handle.write(",".join(header) + "\n")

        def put(columns: Sequence) -> None:
            parts = [_word_fields(col, words) if isinstance(col, WordColumn)
                     else _array_fields(np.asarray(col)) for col in columns]
            first = columns[0]
            rows = len(first.indices if isinstance(first, WordColumn) else first)
            row_format = ",".join(spec for spec, _ in parts) + "\n"
            for start in range(0, rows, block):
                fields = [field for _, get in parts for field in get(start, start + block)]
                handle.write("".join(map(row_format.__mod__, zip(*fields))))

        yield put


def write_table(target, header: Sequence[str], columns: Sequence) -> None:
    """Write a whole CSV table at once (see table_writer)."""
    with table_writer(target, header) as put:
        put(columns)
