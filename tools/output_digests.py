"""Digest every output of the criterion runs on the shipped documents.

Runs nine ``fracform`` commands on the built-in structures, each at
``--workers`` 1, 2 and 3, with the package imported from SRC, and prints one
``sha256  workers  run  part`` line per exit code, stdout, stderr and output
file.  Run from anywhere::

    python3 tools/output_digests.py SRC

It exits 1, naming the run on stderr, if a run's digests differ across
worker counts, since no output byte may depend on ``--workers``.  To check
that a change keeps every output byte, print the digests of both checkouts
and ``diff`` the two printouts.  Only the standard library is used.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# (name, command line, options that each name an output file)
RUNS = (
    ("scan-sg2", "scan --structure sg2 --depths 2..11", ("--out", "--cells-out")),
    ("scan-vicsek-level1", "scan --structure vicsek --family level1 --depths 2..8",
     ("--out", "--cells-out")),
    ("scan-vicsek", "scan --structure vicsek --depths 2..9", ("--out", "--cells-out")),
    ("scan-sg2-level1", "scan --structure sg2 --family level1 --depths 2..9",
     ("--out", "--cells-out")),
    ("embed-sg2", "embed --structure sg2 --depth 8", ("--vertices-out", "--cells-out")),
    ("embed-vicsek-level1", "embed --structure vicsek --family level1 --depth 5",
     ("--vertices-out", "--cells-out")),
    ("chainrule-sg2", "chainrule --structure sg2 --G x1^2+0.3*x1*x2-x2 --depths 3..11",
     ("--out",)),
    ("measure-sg2", "measure --structure sg2 --f 1,0.3,-0.2 --g 0,1,0.5 --depth 10", ()),
    ("measure-vicsek", "measure --structure vicsek --f 1,0,0,0.5 --depth 5", ()),
)
WORKERS = (1, 2, 3)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(src: Path, command: str, outputs: tuple[str, ...],
                workers: int) -> list[tuple[str, str]]:
    """(part, digest) of one run: its exit code, stdout, stderr and each
    output file, named by its option.  The run works in a fresh directory
    and names its outputs relative to it, so no path reaches the bytes."""
    files = {option: option.strip("-") + ".csv" for option in outputs}
    argv = command.split() + ["--workers", str(workers)]
    for option, name in files.items():
        argv += [option, name]
    with tempfile.TemporaryDirectory() as work:
        env = dict(os.environ, PYTHONPATH=str(src.resolve()))
        done = subprocess.run([sys.executable, "-m", "fracform.cli", *argv], cwd=work,
                              env=env, capture_output=True)
        parts = [("exit", _sha(str(done.returncode).encode())),
                 ("stdout", _sha(done.stdout)), ("stderr", _sha(done.stderr))]
        for option, name in files.items():
            path = Path(work) / name
            parts.append((option, _sha(path.read_bytes()) if path.exists() else "missing"))
    return parts


def digest_runs(src: Path, runs=RUNS, workers=WORKERS) -> tuple[list[str], list[str]]:
    """The digest lines of every run at every worker count, and the names of
    the runs whose digests differ across worker counts."""
    lines, uneven = [], []
    for name, command, outputs in runs:
        seen = {w: run_digests(src, command, outputs, w) for w in workers}
        for w, parts in seen.items():
            lines += [f"{digest}  {w}  {name}  {part}" for part, digest in parts]
        if any(parts != seen[workers[0]] for parts in seen.values()):
            uneven.append(name)
    return lines, uneven


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: output_digests.py SRC", file=sys.stderr)
        return 2
    lines, uneven = digest_runs(Path(argv[1]))
    print("\n".join(lines))
    for name in uneven:
        print(f"error: {name}: digests differ across --workers", file=sys.stderr)
    return 1 if uneven else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
