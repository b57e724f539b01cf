"""Self-test of the output checker: a correct measure CSV passes, and the same
CSV with one altered mass, or with one row dropped, is caught.

    python3 perfbench/selftest.py

Runs ``fracform measure`` on sg2 at depth 6 (729 rows) from the checkout's
sources; exits 0 when every case behaves as expected.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
import tempfile
from pathlib import Path

from run import ROOT, WORK_DIR, spawn
from workloads import MASSES_CSV, WORKLOADS, summarize

DEPTH = 6


def _rewrite(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(edit(lines)), encoding="utf-8")


def _alter_mass(lines: list[str]) -> list[str]:
    row = len(lines) // 2
    word, mass = lines[row].rstrip("\n").split(",")
    lines[row] = f"{word},{float(mass) * 1.5!r}\n"
    return lines


def _drop_row(lines: list[str]) -> list[str]:
    return lines[:-1]


def main() -> int:
    wl = dataclasses.replace(WORKLOADS["measure-sg2-d12"], depths=(DEPTH,))
    inputs = wl.inputs(1)
    work = ROOT / WORK_DIR
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=work))
    failures = 0
    try:
        argv = [sys.executable, "-m", "fracform.cli", *wl.cli_args(inputs, tmp)]
        child = spawn(argv, tmp)
        if child.code != 0:
            print(f"FAIL: fracform measure exited {child.code}: {child.stderr.strip()}")
            return 1
        pristine = (tmp / MASSES_CSV).read_text(encoding="utf-8")
        for case, edit, want_problems in (
            ("unaltered output", None, False),
            ("one mass altered", _alter_mass, True),
            ("one row dropped", _drop_row, True),
        ):
            (tmp / MASSES_CSV).write_text(pristine, encoding="utf-8")
            if edit is not None:
                _rewrite(tmp / MASSES_CSV, edit)
            _, problems = summarize(wl, child.stdout, child.stderr, tmp)
            ok = bool(problems) == want_problems
            failures += not ok
            found = "; ".join(problems) or "no problems"
            print(f"{'PASS' if ok else 'FAIL'}: {case}: {found}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
