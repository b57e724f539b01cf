import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
TOOL = TOOLS / "code_lines.py"

FIXTURE = '''"""Module docstring,
two lines."""

import os  # a trailing comment keeps the line


# a comment-only line
def f(x):
    """One-line docstring."""
    text = """a string
that is not a docstring"""
    return (x +
            1)


class C:
    """Class docstring."""

    y = 1
'''


def _load(tool=TOOL):
    spec = importlib.util.spec_from_file_location(tool.stem, tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skips_blanks_comments_and_docstrings():
    # Counted: import, def, both lines of the assigned string, both lines of
    # the return, class and y: 8.
    assert _load().code_lines(FIXTURE) == 8


def test_code_lines_prints_each_module_and_the_total(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text(FIXTURE)
    (pkg / "b.py").write_text("x = 1\n\n# note\n")
    done = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path / "src")],
        capture_output=True, text=True, check=True,
    )
    counts = [line.split()[0] for line in done.stdout.splitlines()]
    assert counts == ["8", "1", "9"]
    assert done.stdout.splitlines()[-1].endswith(" total")


def test_output_digests_hash_every_part_and_flag_worker_dependence(tmp_path):
    digests = _load(TOOLS / "output_digests.py")
    src = TOOLS.parent / "src"
    run = ("scan-sg2", "scan --structure sg2 --depths 2..4", ("--out", "--cells-out"))
    lines, uneven = digests.digest_runs(src, runs=(run,), workers=(1, 2))
    assert uneven == []
    parts = [line.split("  ") for line in lines]
    assert [(w, name, part) for _, w, name, part in parts] == [
        (w, "scan-sg2", part) for w in ("1", "2")
        for part in ("exit", "stdout", "stderr", "--out", "--cells-out")]
    # The digests are those of the files the same run writes here.
    done = subprocess.run(
        [sys.executable, "-m", "fracform.cli", *run[1].split(),
         "--out", "out.csv", "--cells-out", "cells-out.csv"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, check=True,
    )
    sha = {part: digest for digest, w, _, part in parts if w == "1"}
    assert sha["exit"] == hashlib.sha256(b"0").hexdigest()
    assert sha["stdout"] == hashlib.sha256(done.stdout).hexdigest()
    cells = (tmp_path / "cells-out.csv").read_bytes()
    assert sha["--cells-out"] == hashlib.sha256(cells).hexdigest()
    # --workers 0 is refused, so that run's exit code and stderr differ from
    # the --workers 1 run's, and the run is named as worker-dependent.
    _, uneven = digests.digest_runs(src, runs=(run,), workers=(1, 0))
    assert uneven == ["scan-sg2"]
