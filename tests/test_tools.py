import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

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


def _load():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
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
