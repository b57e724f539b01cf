"""CSV emission: the one writer behind every table the package writes.

A table is written through ``table_writer``, which writes the header and
yields ``put(columns)``; each put appends its rows, so a command can write a
table chunk by chunk as a scan streams past and hold no column of the whole
table.  ``write_table`` is its one-shot form.  Rows are formatted and written
in blocks of at most BLOCK_FIELDS fields (and at least one row): the block's
columns, from ``.tolist()`` of each column slice, are interleaved row-major
into one flat list, and one ``%`` of the row format repeated once per row
formats the whole block, so no row builds its own tuple or string.  Memory
stays flat in both the row count and the table's width, and the bytes depend
on neither the block size nor how the rows are split between puts.  Each
field goes through its own conversion: floats ``%.17g``, which round-trips
every double; integer columns ``%d``; word columns ``%s`` of dot-joined
letters (the empty word as ""), looked up by lex index in two half-word
tables.

One rule, ``_in_place``, decides where a table is written, and both the
writer and ``check_targets`` (the preflight that refuses a bad path before
any work) follow it.  Omitted, a table goes to stdout.  A file that stdout
or stderr is open on is written through that stream, and any other path
that exists and is neither a regular file nor a directory (``/dev/null``, a
FIFO) is written in place; neither is ever renamed over.  Every other path
is written under a temporary sibling that replaces it only when the
``with`` body succeeds, so a failed run leaves no table and an existing file
as it was.
"""

from __future__ import annotations

import functools
import os
import stat
import sys
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass
from typing import Callable, ContextManager, Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import ParseError

# A two-column table is written 4096 rows at a time.  On the 531,441-row
# depth-12 cell-mass table, blocks of 2048 or 32768 fields were no faster to
# format, and 32768 raised the writer's traced peak from 0.73 to 2.61 MiB.
BLOCK_FIELDS = 8192


@dataclass(frozen=True)
class WordColumn:
    """Lex indices (an array, or a range for a contiguous run) of
    depth-``depth`` words over ``n_letters`` letters."""

    indices: np.ndarray | range
    depth: int
    n_letters: int


def _words(length: int, n: int) -> np.ndarray:
    """All formatted words of the given length, in lex order, as an object
    array of str."""
    words = [""]
    for level in range(length):
        words = [f"{w}.{c}" if level else str(c) for w in words for c in range(1, n + 1)]
    return np.array(words, dtype=object)


def _word_fields(col: WordColumn, words: Callable[[int, int], np.ndarray]):
    # A word is head[index // width] tail[index % width], the head's words
    # ending in "." unless they are empty; both tables hold about n^(depth/2)
    # entries, so no row needs its own word conversion, and a block's words
    # are two array lookups.
    half = col.depth // 2
    head, tail = words(half, col.n_letters), words(col.depth - half, col.n_letters)
    head, width = (head + "." if half else head), len(tail)

    def fields(start: int, stop: int) -> list[list[str]]:
        idx = col.indices[start:stop]
        # A range slice stays a range until here: np.asarray would walk it in
        # Python, and the whole table's index array would cost n^depth ints.
        idx = np.arange(idx.start, idx.stop, idx.step) if isinstance(idx, range) else idx
        return [head[idx // width].tolist(), tail[idx % width].tolist()]

    return "%s%s", fields


def _array_fields(arr: np.ndarray):
    spec = "%d" if np.issubdtype(arr.dtype, np.integer) else "%.17g"
    cols = arr[:, None] if arr.ndim == 1 else arr
    return ",".join([spec] * cols.shape[1]), lambda start, stop: cols[start:stop].T.tolist()


def _in_place(path) -> Callable[[], ContextManager[TextIO]] | None:
    """How a table at ``path`` is written in place, as a callable that opens
    its handle, or None when a temporary sibling replaces ``path``.

    A file that stdout or stderr is open on is written through that stream,
    as an omitted path is written through stdout, so what the stream holds
    stays; a temporary sibling would replace the file under the stream.  Any
    other path that exists and is neither a regular file nor a directory
    (/dev/null, a FIFO) is opened and written.
    """
    try:
        status = os.stat(path)
    except (OSError, ValueError):
        return None
    for fd, stream in ((1, sys.stdout), (2, sys.stderr)):
        with suppress(OSError):  # the descriptor may be closed
            if os.path.samestat(status, os.fstat(fd)):
                return lambda: nullcontext(stream)
    if stat.S_ISREG(status.st_mode) or stat.S_ISDIR(status.st_mode):
        return None
    return lambda: open(path, "w", encoding="utf-8", newline="")


def check_targets(targets: Iterable[tuple[str, str | None]]) -> None:
    """Refuse, before any work, a table path that no table can replace:
    ``targets`` pairs each option with its path (None when omitted).

    A path is refused when it is empty (it would name the working
    directory), a directory, a file in a directory that does not exist, or
    one file named by two options, whose second table would find the first
    one's temporary sibling.  A path written in place (_in_place) is exempt,
    however many options name it.
    """
    files: dict[str, str] = {}
    for option, path in targets:
        if path == "":
            raise ParseError(f"{option} needs a path, got ''")
        if path is None or _in_place(path):
            continue
        real = os.path.realpath(path)
        if os.path.isdir(real):
            raise ParseError(f"{option} names a directory: {path!r}")
        if not os.path.isdir(os.path.dirname(real)):
            raise ParseError(f"{option} names a file in a missing directory: {path!r}")
        if files.setdefault(real, option) != option:
            raise ParseError(f"{files[real]} and {option} name the same file: {path!r}")


@contextmanager
def _opened(target):
    """A text handle on stdout (target None), on ``target`` in place
    (_in_place), or else on a temporary sibling that replaces ``target``
    when the with body succeeds and is removed when it fails."""
    opener = (lambda: nullcontext(sys.stdout)) if target is None else _in_place(target)
    if opener is not None:
        with opener() as handle:
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
                # The block's fields row-major, so that one % formats every row.
                flat = [None] * (len(fields) * len(fields[0]))
                for j, field in enumerate(fields):
                    flat[j::len(fields)] = field
                handle.write(row_format * len(fields[0]) % tuple(flat))

        yield put


def write_table(target, header: Sequence[str], columns: Sequence) -> None:
    """Write a whole CSV table at once (see table_writer)."""
    with table_writer(target, header) as put:
        put(columns)
