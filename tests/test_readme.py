"""The README's examples run and give the values and lines it states.

A renamed or deleted public name or option then fails here instead of
leaving the README out of date.
"""

import ast
import re
import shlex
from pathlib import Path

import pytest

from fracform.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
STATED = re.compile(r"#\s*(-?\d+\.\d+)\b")


def cli_examples() -> list[list[str]]:
    """Arguments of every ``fracform`` command in the README's sh blocks.

    The ``file:f.json`` example is left out: it reads a function file that
    the README does not ship.
    """
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", TEXT, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line)
            if argv and argv[0] == "fracform" and "file:f.json" not in line:
                commands.append(argv[1:])
    return commands


def test_library_example():
    blocks = re.findall(r"```python\n(.*?)```", TEXT, re.S)
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


def test_cli_examples_cover_every_subcommand():
    assert [argv[0] for argv in cli_examples()] == [
        "validate", "measure", "scan", "embed", "chainrule"
    ]


@pytest.mark.parametrize("argv", cli_examples(), ids=lambda argv: argv[0])
def test_cli_example(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    if argv[0] == "scan":
        quoted = re.search(r"^dimension estimate at depth .*$", TEXT, re.M).group(0)
        assert capsys.readouterr().out.splitlines()[-1] == quoted
