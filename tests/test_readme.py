"""The README's library example runs and gives the values its comments state.

A renamed or deleted public name then fails here instead of leaving the
README out of date.
"""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
STATED = re.compile(r"#\s*(-?\d+\.\d+)\b")


def test_library_example():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    source = blocks[0]
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(source).body:
        stated = STATED.search(lines[stmt.lineno - 1])
        if isinstance(stmt, ast.Expr) and stated:
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            checked.append((float(stated.group(1)), value))
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
    assert [want for want, _ in checked] == [2.0, 4.0]
    for want, got in checked:
        assert got == pytest.approx(want, rel=0, abs=1e-12)
