import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import threading
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fracform as ff
import oracles
from conftest import INTERVAL, THIN_INTERVAL
from fracform import cli, dimension, emit, structure
from fracform.cli import Polynomial, _distinct_rows, main
from fracform.config import PIVOT_TIE_TOL
from fracform.errors import ParseError, ValidationError
from fracform.structure import boundary_deletion_connected


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# polynomials

def test_polynomial_parse_and_eval():
    p = Polynomial.parse("x1^2*x2 + -0.5*x2 - 2", nvars=2)
    pts = np.array([[1.0, 2.0], [3.0, -1.0]])
    np.testing.assert_allclose(p(pts), [2 * 1 - 1 - 2, 9 * (-1) + 0.5 - 2])


def test_polynomial_sign_runs_and_exponents():
    p = Polynomial.parse("-x1 - -2e-1", nvars=1)
    np.testing.assert_allclose(p(np.array([[1.0]])), [-0.8])


def test_polynomial_gradient_matches_finite_differences():
    p = Polynomial.parse("3*x1^3 + x1*x2 - 4*x2^2 + 7", nvars=2)
    grads = p.gradient()
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((5, 2))
    eps = 1e-6
    for var, g in enumerate(grads):
        shifted = pts.copy()
        shifted[:, var] += eps
        numeric = (p(shifted) - p(pts)) / eps
        np.testing.assert_allclose(g(pts), numeric, atol=1e-4)


def test_polynomial_rejects_garbage():
    for bad in ["", "x0", "x3", "x1^", "1//2", "x1**2", "x1^2^2", "+", "x1+"]:
        with pytest.raises(ParseError):
            Polynomial.parse(bad, nvars=2)


# ---------------------------------------------------------------------------
# subcommands

def test_validate_builtins(capsys):
    for name in ("sg2", "vicsek"):
        code, out, err = run(capsys, "validate", "--structure", name)
        assert code == 0
        assert out.strip().endswith("ok")
        assert "fixed-point residual" in out


def test_validate_structure_without_pair(tmp_path, capsys):
    raw = json.loads(ff.builtin_structure_path("sg2").read_text())
    del raw["laplacian"]
    target = tmp_path / "bare.json"
    target.write_text(json.dumps(raw))
    code, out, err = run(capsys, "validate", "--structure", str(target))
    assert code == 1
    assert "error" in err


def test_validate_huge_alphabet_fails_fast(tmp_path, capsys):
    # Three gluing pairs cannot connect two million cells; the check must
    # say so at once, not list every unreachable cell.
    raw = json.loads(ff.builtin_structure_path("sg2").read_text())
    raw["alphabet_size"] = 2_000_000
    for key in ("laplacian", "weights", "realization"):
        del raw[key]
    target = tmp_path / "huge.json"
    target.write_text(json.dumps(raw))
    code, out, err = run(capsys, "validate", "--structure", str(target))
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and len(lines[0]) < 200
    assert "disconnected" in lines[0]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


def _field_paths(node, prefix=()):
    """Every key and list-index path below ``node``, outermost first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _field_paths(child, prefix + (key,))


def _mutate(raw, pick, replacement):
    """Delete (replacement None) or replace the field at path ``pick``."""
    paths = list(_field_paths(raw))
    *parents, key = paths[pick % len(paths)]
    node = raw
    for step in parents:
        node = node[step]
    if replacement is None:
        del node[key]
    else:
        node[key] = replacement[0]


def _assert_fails_cleanly(argv):
    """A defined exit code and, on failure, a single error line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code:
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
        assert len(errors) == 1, (argv, err.getvalue())


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(["sg2", "vicsek"]),
    pick=st.integers(min_value=0),
    replacement=st.none() | JSON_VALUES.map(lambda value: [value]),
)
def test_mutated_document_fails_cleanly(tmp_path_factory, name, pick, replacement):
    # One field deleted or replaced by arbitrary JSON: every command ends
    # with a defined exit code and, on failure, a single error line.
    raw = json.loads(ff.builtin_structure_path(name).read_text())
    corner = ",".join(["1"] + ["0"] * (len(raw["boundary"]) - 1))
    _mutate(raw, pick, replacement)
    doc = tmp_path_factory.mktemp("fuzz") / "doc.json"
    doc.write_text(json.dumps(raw))
    _assert_fails_cleanly(["validate", "--structure", str(doc)])
    _assert_fails_cleanly(["measure", "--structure", str(doc), "--f", corner, "--depth", "1"])


@settings(max_examples=200, deadline=None)
@given(
    family=st.booleans(),
    rows=st.lists(
        st.lists(st.sampled_from([1e308, -1e308]) | st.floats(), min_size=3, max_size=3),
        min_size=1, max_size=2,
    ),
    mutations=st.lists(
        st.tuples(st.integers(min_value=0), st.none() | JSON_VALUES.map(lambda v: [v])),
        max_size=2,
    ),
)
def test_mutated_function_file_fails_cleanly(tmp_path_factory, family, rows, mutations):
    # Function and family files with arbitrary numbers, huge ones among them,
    # then up to two fields deleted or replaced by arbitrary JSON.
    if family:
        raw = {"level": 0, "members": rows}
        argv = ["scan", "--structure", "sg2", "--depths", "1..2", "--family"]
    else:
        raw = {"level": 0, "values": rows[0]}
        argv = ["measure", "--structure", "sg2", "--depth", "1", "--f"]
    for pick, replacement in mutations:
        if raw:  # deletions may have emptied the document
            _mutate(raw, pick, replacement)
    path = tmp_path_factory.mktemp("fuzz") / "file.json"
    path.write_text(json.dumps(raw))
    _assert_fails_cleanly([*argv, f"file:{path}"])


@pytest.mark.parametrize("key", ["laplacian", "weights"])
def test_non_finite_pair_fails_closed(tmp_path, capsys, key):
    # Subnormal entries make the extension matrices and the fixed-point
    # residual NaN; every gate must read NaN as a failure.
    raw = json.loads(ff.builtin_structure_path("sg2").read_text())
    if key == "laplacian":
        raw["laplacian"] = [[x * 1e-320 for x in row] for row in raw["laplacian"]]
    else:
        raw["weights"] = [1e-320] * 3
    doc = tmp_path / "tiny.json"
    doc.write_text(json.dumps(raw))
    masses = tmp_path / "m.csv"
    for command, *rest in (
        ("validate",),
        ("measure", "--f", "1,0,0", "--depth", "2", "--out", str(masses)),
        ("scan", "--depths", "2..3"),
    ):
        code, out, err = run(capsys, command, "--structure", str(doc), *rest)
        assert code == 1, command
        assert "Traceback" not in err
        assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
    assert not masses.exists()


def test_measure_writes_table(tmp_path, capsys):
    out_path = tmp_path / "m.csv"
    code, out, err = run(
        capsys, "measure", "--structure", "sg2", "--f", "1,0,0",
        "--depth", "2", "--out", str(out_path),
    )
    assert code == 0
    with out_path.open() as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 9
    total = sum(float(row["mass"]) for row in rows)
    assert total == pytest.approx(4.0, rel=1e-12)
    assert rows[0]["word"] == "1.1"


def test_measure_cross_and_function_file(tmp_path, capsys):
    fn = {"level": 1, "values": [0.0, 1.0, 0.5, -1.0, 2.0, 0.25]}
    f_path = tmp_path / "f.json"
    f_path.write_text(json.dumps(fn))
    code, out, err = run(
        capsys, "measure", "--structure", "sg2",
        "--f", f"file:{f_path}", "--g", "0,1,0", "--depth", "1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "word,mass"
    assert len(lines) == 4


def test_scan_profile_and_cells(tmp_path, capsys):
    profile = tmp_path / "profile.csv"
    cells = tmp_path / "cells.csv"
    code, out, err = run(
        capsys, "scan", "--structure", "sg2", "--family", "harmonic",
        "--depths", "2..4", "--out", str(profile), "--cells-out", str(cells),
    )
    assert code == 0
    assert "dimension estimate at depth 4: 1 " in out
    with profile.open() as handle:
        rows = list(csv.DictReader(handle))
    assert [row["depth"] for row in rows] == ["2", "3", "4"]
    assert float(rows[-1]["mean_lambda2"]) < float(rows[0]["mean_lambda2"])
    with cells.open() as handle:
        cell_rows = list(csv.DictReader(handle))
    assert len(cell_rows) == 81
    assert set(cell_rows[0]) == {
        "word", "weight", "lambda1", "lambda2", "residual", "alpha"
    }


def test_scan_workers_bytes_identical(tmp_path, capsys):
    outputs = []
    for workers in (1, 3):
        path = tmp_path / f"p{workers}.csv"
        code, _, _ = run(
            capsys, "scan", "--structure", "vicsek", "--family", "harmonic",
            "--depths", "2..4", "--workers", str(workers), "--out", str(path),
        )
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


def test_scan_closed_form_spectra_bytes_identical_across_workers(tmp_path, capsys):
    # sg2 has d - 1 = 2, so its spectra take the closed form, not eigvalsh.
    outputs = []
    for workers in (1, 2, 3):
        profile, cells = tmp_path / f"p{workers}.csv", tmp_path / f"c{workers}.csv"
        code, _, _ = run(
            capsys, "scan", "--structure", "sg2", "--depths", "2..9",
            "--workers", str(workers), "--out", str(profile), "--cells-out", str(cells),
        )
        assert code == 0
        outputs.append((profile.read_bytes(), cells.read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]


def test_streamed_profile_bytes_identical_across_workers(tmp_path, capsys):
    # sg2 depths 10 and 11 scan 3 and 9 chunks, whose partial sums are added
    # in lex order; --workers, which no scan reads, must not change a byte.
    outputs = []
    for workers in (1, 2, 3):
        profile = tmp_path / f"p{workers}.csv"
        code, out, err = run(
            capsys, "scan", "--structure", "sg2", "--depths", "2..11",
            "--workers", str(workers), "--out", str(profile),
        )
        assert code == 0, err
        outputs.append((out, err, profile.read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]


def test_scan_runs_one_scan_per_depth(tmp_path, capsys, monkeypatch):
    # The deepest field is written with --cells-out; writing it must not scan
    # the depth again to form factors.
    scan, depths = dimension.scan_cell_masses, []

    def counted(hs, members, depth, *args, **kwargs):
        depths.append(depth)
        return scan(hs, members, depth, *args, **kwargs)

    monkeypatch.setattr(dimension, "scan_cell_masses", counted)
    code, out, err = run(
        capsys, "scan", "--structure", "vicsek", "--family", "level1", "--depths", "2..4",
        "--workers", "2", "--out", str(tmp_path / "p.csv"), "--cells-out", str(tmp_path / "c.csv"),
    )
    assert code == 0
    assert depths == [2, 3, 4]


def test_scan_frees_each_field_before_building_the_next(capsys, monkeypatch):
    build, earlier = cli.density_matrices, []

    def checked(*args, **kwargs):
        assert all(ref() is None for ref in earlier), "an earlier depth's field is alive"
        field = build(*args, **kwargs)
        earlier.append(weakref.ref(field))
        return field

    monkeypatch.setattr(cli, "density_matrices", checked)
    code, out, err = run(
        capsys, "scan", "--structure", "vicsek", "--family", "level1", "--depths", "2..4",
    )
    assert code == 0
    assert len(earlier) == 3


# Runs argv[1:] and prints its exit code and its peak RSS (KiB) from os.wait4.
# A child's ru_maxrss includes what it shares with its parent before exec, so
# the CLI is started from this small interpreter, not from the test process.
PEAK_RSS_PROBE = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                        stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(
    not (sys.platform.startswith("linux") and hasattr(os, "wait4")),
    reason="reads a child's peak RSS through os.wait4, in KiB as Linux reports it",
)
def test_dense_scan_peak_rss_holds_no_per_cell_column():
    # The statistics stream through the chunk loop and scan keeps no per-cell
    # column without --cells-out, so what a depth-13 scan (1.6M cells) adds
    # over a depth-2 one is one chunk in hand, about 9 MiB, not a bound that
    # grows with the cells: one copy of the columns alone would be 73 MiB.
    # A wave of chunks on a two-thread pool made it about 17 MiB.
    src = str(Path(ff.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def peak_bytes(depths):
        probe = subprocess.run(
            [sys.executable, "-c", PEAK_RSS_PROBE, sys.executable, "-m", "fracform.cli",
             "scan", "--structure", "sg2", "--depths", depths, "--workers", "2"],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        code, kib = map(int, probe.stdout.split())
        assert code == 0
        return kib * 1024

    growth = peak_bytes("2..13") - peak_bytes("2..2")
    assert growth <= 12 * 2**20, growth / 2**20


@pytest.mark.skipif(
    not (sys.platform.startswith("linux") and hasattr(os, "wait4")),
    reason="reads a child's peak RSS through os.wait4, in KiB as Linux reports it",
)
def test_cells_out_streams_the_deepest_depth(tmp_path):
    # --cells-out writes each deepest-depth chunk's rows as the chunk arrives,
    # so it adds a few blocks of formatted rows to the run's peak, not the
    # depth's columns: depth 12's 531k cells would add about 23 MiB held.
    src = str(Path(ff.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def peak_bytes(*extra):
        probe = subprocess.run(
            [sys.executable, "-c", PEAK_RSS_PROBE, sys.executable, "-m", "fracform.cli",
             "scan", "--structure", "sg2", "--depths", "2..12", "--workers", "2",
             "--out", str(tmp_path / "p.csv"), *extra],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        code, kib = map(int, probe.stdout.split())
        assert code == 0
        return kib * 1024

    growth = peak_bytes("--cells-out", str(tmp_path / "c.csv")) - peak_bytes()
    assert (tmp_path / "c.csv").stat().st_size > 531_441 * 50
    assert growth <= 10 * 2**20, growth / 2**20


@pytest.mark.skipif(
    not (sys.platform.startswith("linux") and hasattr(os, "wait4")),
    reason="reads a child's peak RSS through os.wait4, in KiB as Linux reports it",
)
def test_chainrule_peak_rss_holds_one_depth_of_vertex_arrays():
    # chainrule fills each depth's coordinates from the scan's chunk walk,
    # gathers and evaluates G one block of cells or rows at a time, forms each
    # chunk's gradients as the chunk arrives, replaces the coordinates by G's
    # values before graph_energy and keeps one depth's vertex table, so depths
    # 3..12 add about 31.5 MiB over depth 3 alone (sg2, 531k cells and 797k
    # vertices at depth 12); a two-thread scan pool made it 37 MiB.  Holding
    # the coordinates through graph_energy, with one lift per member, made it
    # 46.5 MiB; keeping every depth's table 52.5 MiB; whole-level lift,
    # gather, corner point and gradient arrays 68 MiB, and before that stacked
    # copies, a second gather and the previous depth's arrays made it about
    # 88 MiB.
    src = str(Path(ff.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def peak_bytes(depths):
        probe = subprocess.run(
            [sys.executable, "-c", PEAK_RSS_PROBE, sys.executable, "-m", "fracform.cli",
             "chainrule", "--structure", "sg2", "--G", "x1^2+0.3*x1*x2-x2",
             "--depths", depths, "--workers", "2"],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        code, kib = map(int, probe.stdout.split())
        assert code == 0
        return kib * 1024

    growth = peak_bytes("3..12") - peak_bytes("3..3")
    assert growth <= 35 * 2**20, growth / 2**20


COMMANDS_THEN_MODULES = """
import json, sys
from fracform.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv):
        sys.exit(argv[0] + " failed")
print(json.dumps(sorted(sys.modules)))
"""


def test_commands_do_not_import_masked_arrays(tmp_path):
    # np.setdiff1d imports numpy.ma, which took about 8 ms of every command's
    # start-up; nothing the five commands run needs it, nor a thread pool.
    src = str(Path(ff.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = [str(tmp_path / name) for name in ("a.csv", "b.csv", "c.csv")]
    runs = [
        ["validate", "--structure", "sg2"],
        ["measure", "--structure", "sg2", "--f", "1,0,0", "--depth", "3", "--out", out[0]],
        ["scan", "--structure", "sg2", "--depths", "2..4", "--out", out[0],
         "--cells-out", out[1]],
        ["chainrule", "--structure", "sg2", "--G", "x1^2", "--depths", "2..4", "--out", out[0]],
        ["embed", "--structure", "vicsek", "--depth", "3", "--vertices-out", out[1],
         "--cells-out", out[2]],
    ]
    probe = subprocess.run(
        [sys.executable, "-c", COMMANDS_THEN_MODULES, json.dumps(runs)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    modules = json.loads(probe.stdout.splitlines()[-1])
    assert "fracform.harmonic" in modules
    assert "numpy.ma" not in modules
    assert "concurrent.futures" not in modules


def test_no_command_starts_a_thread(tmp_path, capsys, monkeypatch):
    # Every scan walks its chunks on the thread that iterates it, at any
    # --workers, so what the chunks allocate stays in that thread's arena.
    started = []

    def refuse(thread):
        started.append(thread.name)
        raise RuntimeError("a command started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    out = [str(tmp_path / name) for name in ("a.csv", "b.csv")]
    for argv in (
        ["scan", "--structure", "sg2", "--depths", "2..11", "--cells-out", out[0]],
        ["measure", "--structure", "sg2", "--f", "1,0.3,-0.2", "--depth", "10", "--out", out[0]],
        ["embed", "--structure", "sg2", "--depth", "6", "--vertices-out", out[0],
         "--cells-out", out[1]],
        ["chainrule", "--structure", "sg2", "--G", "x1^2", "--depths", "3..10"],
    ):
        code, _, err = run(capsys, *argv, "--workers", "3")
        assert code == 0, err
    assert started == []


def test_scan_level1_family(capsys):
    code, out, err = run(
        capsys, "scan", "--structure", "vicsek", "--family", "level1",
        "--depths", "2..3",
    )
    assert code == 0
    assert "dimension estimate at depth 3" in out


def test_scan_uniform_weights_match_the_default(tmp_path, capsys):
    runs = []
    for extra in ((), ("--weights", "0.5,0.5")):
        profile = tmp_path / f"p{len(runs)}.csv"
        code, out, err = run(
            capsys, "scan", "--structure", "sg2", "--depths", "2..6",
            "--out", str(profile), *extra,
        )
        assert code == 0, err
        runs.append((out, err, profile.read_bytes()))
    assert runs[0] == runs[1]


def test_scan_weights_match_the_library(tmp_path, sg2, capsys):
    profile = tmp_path / "p.csv"
    code, _, err = run(
        capsys, "scan", "--structure", "sg2", "--depths", "2..5",
        "--weights", "0.3,0.7", "--out", str(profile),
    )
    assert code == 0, err
    family = ff.FunctionFamily(
        ff.harmonic_family(sg2, ff.mean_functional(sg2)).members, [0.3, 0.7]
    )
    with profile.open() as handle:
        rows = list(csv.DictReader(handle))
    assert [int(row["depth"]) for row in rows] == [2, 3, 4, 5]
    for row in rows:
        expected = ff.rank_statistics(ff.density_matrices(family, int(row["depth"])))
        for name in ("mean_lambda2", "mean_residual", "dim_estimate"):
            assert float(row[name]) == getattr(expected, name), name
        assert int(row["skipped_cells"]) == expected.skipped_cells


def test_embed_outputs(tmp_path, capsys):
    verts = tmp_path / "v.csv"
    cells = tmp_path / "c.csv"
    code, out, err = run(
        capsys, "embed", "--structure", "sg2", "--depth", "3",
        "--vertex-depth", "4", "--vertices-out", str(verts),
        "--cells-out", str(cells),
    )
    assert code == 0
    with verts.open() as handle:
        vrows = list(csv.DictReader(handle))
    table = ff.builtin_structure("sg2").vertex_table(4)
    assert len(vrows) == table.num_vertices
    assert set(vrows[0]) == {"vertex", "phi1", "phi2"}
    with cells.open() as handle:
        crows = list(csv.DictReader(handle))
    assert len(crows) == 27
    nu = sum(float(row["nu"]) for row in crows)
    assert nu == pytest.approx(1.0, rel=1e-10)


def test_embed_dir_does_not_depend_on_zeta_layout(tmp_path, capsys, monkeypatch):
    """The dir columns are the same whether each chunk's rank-one factors
    come C-ordered or Fortran-ordered."""
    reduce = dimension._density_chunk

    def cells(layout):
        def laid_out(*args):
            record = reduce(*args)
            return {**record, "zeta": layout(record["zeta"])}

        monkeypatch.setattr(dimension, "_density_chunk", laid_out)
        path = tmp_path / f"{layout.__name__}.csv"
        code, out, err = run(
            capsys, "embed", "--structure", "vicsek", "--family", "level1", "--depth", "5",
            "--vertices-out", str(tmp_path / "v.csv"), "--cells-out", str(path),
        )
        assert code == 0
        return path.read_bytes()

    assert cells(np.ascontiguousarray) == cells(np.asfortranarray)


def test_embed_runs_one_scan(tmp_path, capsys, monkeypatch):
    # The cells table is written from the chunks as the field's own scan
    # streams them; no read of the field's columns scans the depth again.
    scan, depths = dimension.scan_cell_masses, []

    def counted(hs, members, depth, *args, **kwargs):
        depths.append(depth)
        return scan(hs, members, depth, *args, **kwargs)

    monkeypatch.setattr(dimension, "scan_cell_masses", counted)
    code, out, err = run(
        capsys, "embed", "--structure", "vicsek", "--family", "level1", "--depth", "4",
        "--vertex-depth", "3", "--workers", "2",
        "--vertices-out", str(tmp_path / "v.csv"), "--cells-out", str(tmp_path / "c.csv"),
    )
    assert code == 0, err
    assert depths == [4]


def _failed_run_keeps_files(tmp_path, capsys, argv, message, outputs):
    """Run argv twice, with each output absent and then holding old bytes:
    each run exits 1 with one error line, and leaves the directory as it was."""
    paths = [tmp_path / name for name in outputs]
    for old in (None, b"old table\n"):
        for path in paths:
            if old is not None:
                path.write_bytes(old + path.name.encode())
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert [line for line in err.splitlines() if line.startswith("error:")] == [message]
        assert err.splitlines()[-1] == message
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_failed_scan_leaves_no_cells_file(tmp_path, capsys, monkeypatch):
    # The last of sg2's three depth-10 chunks (cells from 2 * 3^9 on) fails
    # the trace check after every chunk's rows went to the cells table.
    reduce, seen = dimension._density_chunk, []

    def last_gap_nan(a, floor, rows, x):
        record = reduce(a, floor, rows, x)
        if int(rows[0]) == 2 * 3**9:
            seen.append(rows.size)
            return {**record, "gap": np.array([np.nan])}
        return record

    monkeypatch.setattr(dimension, "_density_chunk", last_gap_nan)
    argv = ("scan", "--structure", "sg2", "--depths", "8..10", "--workers", "2",
            "--out", str(tmp_path / "p.csv"), "--cells-out", str(tmp_path / "c.csv"))
    message = "error: weighted trace identity violated by nan on a retained cell"
    _failed_run_keeps_files(tmp_path, capsys, argv, message, ["p.csv", "c.csv"])
    assert seen == [3**9, 3**9]


def test_failed_embed_leaves_no_tables(tmp_path, capsys, monkeypatch):
    def broken(field):
        raise ValidationError("density matrix lost positivity")

    monkeypatch.setattr(cli, "verify_field_invariants", broken)
    argv = ("embed", "--structure", "sg2", "--depth", "5",
            "--vertices-out", str(tmp_path / "v.csv"), "--cells-out", str(tmp_path / "c.csv"))
    message = "error: density matrix lost positivity"
    _failed_run_keeps_files(tmp_path, capsys, argv, message, ["v.csv", "c.csv"])


def test_distinct_rows_matches_tuple_set(rng):
    rows = np.array([[0.0, 1.0], [-0.0, 1.0], [2.0, -0.0], [2.0, 0.0], [1.0, 2.0]])
    assert _distinct_rows(rows) == len({tuple(row) for row in rows}) == 3
    rows = np.round(rng.integers(-2, 3, size=(500, 3)) * 0.5, 12)
    assert _distinct_rows(rows) == len({tuple(row) for row in rows})
    # Rows that agree once rounded to COINCIDENCE_DECIMALS coincide, in
    # whichever of the 65,536-row comparison blocks they meet.
    rows = np.round(rng.integers(-2, 3, size=(150_000, 3)) * 0.5, 12)
    noisy = rows + rng.uniform(-1e-14, 1e-14, size=rows.shape)
    assert _distinct_rows(noisy) == len({tuple(row) for row in rows}) == 125


def test_embed_reports_coincidences(tmp_path, capsys):
    # One member symmetric under swapping p2 and p3: on V_1 the pair p2, p3
    # and the two midpoints next to p1 coincide.
    family = tmp_path / "sym.json"
    family.write_text(json.dumps({"level": 0, "members": [[0.0, 1.0, 1.0]]}))
    code, out, err = run(
        capsys, "embed", "--structure", "sg2", "--family", f"file:{family}",
        "--depth", "1", "--vertex-depth", "1",
        "--vertices-out", str(tmp_path / "v.csv"), "--cells-out", str(tmp_path / "c.csv"),
    )
    assert code == 0
    assert err == "warning: coordinate map is not injective on V_1 (2 coincidences)\n"


def test_chainrule_quadratic_and_csv(tmp_path, capsys):
    out_path = tmp_path / "gaps.csv"
    code, out, err = run(
        capsys, "chainrule", "--structure", "sg2", "--G", "x1^2",
        "--depths", "3..5", "--out", str(out_path),
    )
    assert code == 0
    with out_path.open() as handle:
        rows = list(csv.DictReader(handle))
    gaps = [float(row["rel_gap"]) for row in rows]
    assert gaps[2] < gaps[0]
    assert all("lhs" in row for row in rows)


def test_chainrule_linear_exact(capsys):
    code, out, err = run(
        capsys, "chainrule", "--structure", "sg2", "--G", "2*x1 - x2",
        "--depths", "3..4",
    )
    assert code == 0
    for line in out.strip().splitlines():
        gap = float(line.rsplit("=", 1)[1])
        assert gap < 1e-10


def test_chainrule_bytes_do_not_depend_on_workers(tmp_path, capsys):
    # The right side is summed per chunk, then over the chunks in lex order;
    # --workers, which no scan reads, must not change a byte.
    outputs = []
    for workers in (1, 2, 3):
        out_path = tmp_path / f"gaps{workers}.csv"
        code, out, err = run(
            capsys, "chainrule", "--structure", "sg2", "--G", "x1^2+0.3*x1*x2-x2",
            "--depths", "3..10", "--workers", str(workers), "--out", str(out_path),
        )
        assert code == 0, err
        outputs.append((out, err, out_path.read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(outputs[0][0].splitlines()) == 8


@pytest.mark.parametrize("args", [
    ("scan", "--depths", "2..5"),
    ("scan", "--family", "level1", "--depths", "2..5"),
    ("chainrule", "--G", "x1^2", "--depths", "2..5"),
    ("embed", "--depth", "4", "--vertices-out", "v.csv", "--cells-out", "c.csv"),
], ids=["scan", "scan-level1", "chainrule", "embed"])
def test_unequal_resistances_run(tmp_path, monkeypatch, capsys, args):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "interval.json").write_text(json.dumps(INTERVAL))
    code, out, err = run(capsys, args[0], "--structure", "./interval.json", *args[1:])
    assert code == 0, err


# ---------------------------------------------------------------------------
# failure modes

@pytest.mark.parametrize("G", ["nan*x1", "inf*x1", "1e400*x1", "1e200*1e200*x1"])
def test_non_finite_polynomial_coefficient_is_a_parse_error(tmp_path, capsys, G):
    out_path = tmp_path / "gaps.csv"
    code, out, err = run(
        capsys, "chainrule", "--structure", "sg2", "--G", G,
        "--depths", "3..4", "--out", str(out_path),
    )
    assert code == 2
    assert out == "" and not out_path.exists()
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "not finite" in lines[0]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_overflow_message_does_not_depend_on_workers(tmp_path, capsys, workers):
    # With boundary values (1e154, 0) the root's energy is 1e308, and only
    # the cell 2...2 keeps nearly all of it: twice its energy, formed in the
    # last of the 64 chunks, overflows.  That chunk must stop the run the
    # same way at any --workers.
    doc, out_path = tmp_path / "thin.json", tmp_path / "m.csv"
    doc.write_text(json.dumps(THIN_INTERVAL))
    code, out, err = run(
        capsys, "measure", "--structure", str(doc), "--f", "1e154,0", "--depth", "21",
        "--workers", str(workers), "--out", str(out_path),
    )
    assert code == 1
    assert err == "error: overflow encountered in multiply\n"
    assert not out_path.exists()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_chainrule_refuses_resistance_products_past_the_float_range(tmp_path, capsys, workers):
    # On THIN_INTERVAL the word 1...1 has r_w^-1 = 1e300 at level 20 and
    # 1e315 at level 21, so graph_energy refuses level 21 before forming the
    # table, with one line at any --workers.
    doc = tmp_path / "thin.json"
    doc.write_text(json.dumps(THIN_INTERVAL))
    code, out, err = run(
        capsys, "chainrule", "--structure", str(doc), "--G", "x1^2", "--depths", "19..21",
        "--workers", str(workers),
    )
    assert code == 1
    assert [line.split(":")[0] for line in out.splitlines()] == ["depth 19", "depth 20"]
    assert err == "error: level 21 resistance products r_w^-1 pass the float range\n"


def test_measure_refinement_check_fails_closed(tmp_path, capsys, monkeypatch):
    coarsen = ff.CellMeasureTable.coarsen

    def perturbed(table):
        up = coarsen(table)
        masses = up.masses.copy()
        masses[1] += 1e-3
        return dataclasses.replace(up, masses=masses)

    monkeypatch.setattr(ff.CellMeasureTable, "coarsen", perturbed)
    out_path = tmp_path / "m.csv"
    code, out, err = run(
        capsys, "measure", "--structure", "sg2", "--f", "1,0,0",
        "--depth", "3", "--out", str(out_path),
    )
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: refinement sums disagree with the parent table by ")
    assert not out_path.exists()


def test_chainrule_constant_polynomial_is_degenerate(tmp_path, capsys):
    out_path = tmp_path / "gaps.csv"
    code, out, err = run(
        capsys, "chainrule", "--structure", "sg2", "--G", "2.5",
        "--depths", "3..4", "--out", str(out_path),
    )
    assert code == 1
    assert err == "error: degenerate quadratic form at depth 3: right side is 0.0\n"
    assert not out_path.exists()


def test_exit_code_for_missing_file(capsys):
    code, out, err = run(capsys, "validate", "--structure", "/no/such/file.json")
    assert code == 2
    assert "error" in err


def test_structure_token_resolution(tmp_path, monkeypatch, capsys):
    # A token without a path separator names a builtin when one ships under
    # that name; every other token is a path.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mine.json").write_text(ff.builtin_structure_path("vicsek").read_text())
    (tmp_path / "sg2").write_text("not json")
    for token, code in (("sg2", 0), ("vicsek", 0), ("mine.json", 0), ("./sg2", 2), ("nosuch", 2)):
        got, out, err = run(capsys, "validate", "--structure", token)
        assert got == code, token
        if code == 2:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")


def test_exit_code_for_cell_cap(capsys):
    # The whole depth range is checked before the first depth is computed.
    for args in (("scan",), ("chainrule", "--G", "x1^2")):
        code, out, err = run(capsys, *args, "--structure", "sg2", "--depths", "2..30")
        assert code == 1
        assert "depth " not in out
        assert err.splitlines() == ["error: depth 14 needs 4782969 cells, cap is 4194304"]


def _no_table_at(monkeypatch, depth):
    """Make building the vertex table of ``depth`` fail the test."""
    build = structure.build_vertices

    def guarded(spec, m):
        assert m != depth, f"depth-{depth} vertex table built"
        return build(spec, m)

    monkeypatch.setattr(structure, "build_vertices", guarded)


@pytest.mark.parametrize("args,depth,cells", [
    (("measure", "--structure", "sg2", "--f", "1,0,0", "--depth", "10000"),
     10000, "3^10000"),
    (("scan", "--structure", "sg2", "--depths", "10000..10000"), 10000, "3^10000"),
    (("embed", "--structure", "sg2", "--depth", "2", "--vertex-depth", "10000",
      "--vertices-out", "unused-v.csv", "--cells-out", "unused-c.csv"), 10000, "3^10000"),
    (("chainrule", "--structure", "sg2", "--G", "x1^2", "--depths", "9000..9001"),
     9000, "3^9000"),
    (("scan", "--structure", "sg2", "--depths", "2..100000000"), 14, "4782969"),
], ids=["measure", "scan", "embed", "chainrule", "scan-long-range"])
def test_cell_cap_on_huge_depths(capsys, args, depth, cells):
    # No n**depth beyond the cap is formed or printed in full, and a range
    # stops at its first failing depth without being listed.
    code, out, err = run(capsys, *args)
    assert code == 1
    assert err.splitlines() == [f"error: depth {depth} needs {cells} cells, cap is 4194304"]


@pytest.mark.parametrize("level,line", [
    (13, "error: level 13 needs 2391486 vertex values, got shape (3,)"),
    (100000000, "error: depth 100000000 needs 3^100000000 cells, cap is 4194304"),
], ids=["value-count", "cell-cap"])
def test_function_file_level_checked_without_table(tmp_path, capsys, monkeypatch, level, line):
    _no_table_at(monkeypatch, level)
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"level": level, "values": [1.0, 0.0, 0.5]}))
    code, out, err = run(
        capsys, "measure", "--structure", "sg2", "--depth", "1", "--f", f"file:{path}"
    )
    assert code == 1
    assert err.splitlines() == [line]


def test_embed_field_byte_budget_before_vertex_table(tmp_path, capsys, monkeypatch):
    # 3**13 cells of 19 x 19 matrices take about 4.6 GB, over the 4 GiB cap.
    _no_table_at(monkeypatch, 13)
    rows = np.random.default_rng(5).standard_normal((19, 3)).tolist()
    family = tmp_path / "fam.json"
    family.write_text(json.dumps({"level": 0, "members": rows}))
    code, out, err = run(
        capsys, "embed", "--structure", "sg2", "--family", f"file:{family}",
        "--depth", "13", "--vertices-out", str(tmp_path / "v.csv"),
        "--cells-out", str(tmp_path / "c.csv"),
    )
    assert code == 1
    assert err.splitlines() == [
        f"error: depth 13 density field of 19 members needs {3 ** 13 * 361 * 8} bytes, "
        f"cap is {1 << 32}"
    ]
    assert not (tmp_path / "v.csv").exists()


@pytest.mark.parametrize("command,depths,message", [
    ("scan", ["--depths", "0..1"], "scan depth 0"),
    ("chainrule", ["--G", "x1", "--depths", "0..1"], "chainrule depth 0"),
    ("embed", ["--depth", "0", "--vertex-depth", "1"], "embed --depth 0"),
    ("embed", ["--depth", "1", "--vertex-depth", "0"], "embed --vertex-depth 0"),
], ids=["scan", "chainrule", "embed-depth", "embed-vertex-depth"])
def test_depth_below_member_level(tmp_path, capsys, command, depths, message):
    outs = []
    if command == "embed":
        outs = ["--vertices-out", str(tmp_path / "v.csv"), "--cells-out", str(tmp_path / "c.csv")]
    code, out, err = run(
        capsys, command, "--structure", "vicsek", "--family", "level1", *depths, *outs
    )
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"error: {message} is below a member of level 1"]
    assert not list(tmp_path.iterdir())


def test_scan_is_not_bound_by_the_field_byte_budget(tmp_path, capsys, monkeypatch):
    # The cap bounds the k x k matrices that embed forms; scan forms none.
    # With a cap one byte short of sg2's 3**4 harmonic 2 x 2 matrices, scan
    # runs to depth 4 and embed refuses before any work.
    monkeypatch.setattr(dimension, "MAX_FIELD_BYTES", 3**4 * 4 * 8 - 1)
    code, out, err = run(capsys, "scan", "--structure", "sg2", "--depths", "2..4")
    assert code == 0, err
    assert out.splitlines()[-1].startswith("dimension estimate at depth 4: ")
    _no_table_at(monkeypatch, 4)
    code, out, err = run(
        capsys, "embed", "--structure", "sg2", "--depth", "4",
        "--vertices-out", str(tmp_path / "v.csv"), "--cells-out", str(tmp_path / "c.csv"),
    )
    assert code == 1
    assert err.splitlines() == [
        f"error: depth 4 density field of 2 members needs {3**4 * 32} bytes, "
        f"cap is {3**4 * 32 - 1}"
    ]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("kind,field,body", [
    ("--f", "level", {"level": "x", "values": [1.0, 0.0, 0.0]}),
    ("--f", "values", {"level": 0, "values": ["a", "b", "c"]}),
    ("--family", "members", {"level": 0, "members": [["a", "b", "c"]]}),
    ("--family", "level", {"level": [1], "members": [[1.0, 0.0, 0.0]]}),
    ("--f", "level", {"level": 1.5, "values": [1.0, 0.0, 0.0, 0.5, 0.2, 0.1]}),
    ("--family", "level", {"level": True, "members": [[1.0, 0.0, 0.0, 0.5, 0.2, 0.1]]}),
    ("--f", "values", {"level": 0, "values": ["1", "0", "0"]}),
    ("--family", "members", {"level": 0, "members": [[True, False, False]]}),
    ("--family", "members", {"level": 0, "members": 5}),
    ("--f", "level", {"level": -1, "values": [1.0, 0.0, 0.0]}),
], ids=["function-level", "function-values", "family-members", "family-level",
        "function-fractional-level", "family-boolean-level", "function-numeric-strings",
        "family-booleans", "family-members-number", "function-negative-level"])
def test_bad_fields_in_function_and_family_files(tmp_path, capsys, kind, field, body):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(body))
    if kind == "--f":
        args = ("measure", "--structure", "sg2", "--f", f"file:{path}", "--depth", "1")
    else:
        args = ("scan", "--structure", "sg2", "--family", f"file:{path}", "--depths", "1..2")
    code, out, err = run(capsys, *args)
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert repr(field) in lines[0]


@pytest.mark.parametrize("keys,value", [
    (("laplacian", 0, 1), "x"),
    (("weights",), ["a", "b", "c"]),
    (("weights", 1), None),
    (("realization", "maps"), 5),
    (("realization", "maps", "2"), 5),
    (("realization", "boundary_points"), 5),
    (("alphabet_size",), 3.5),
    (("alphabet_size",), "3"),
    (("alphabet_size",), True),
    (("realization", "dimension"), 2.5),
    (("gluing", 0, 0), 1.7),
    (("weights",), ["0.6", "0.6", "0.6"]),
], ids=["laplacian-string", "weights-strings", "weights-null", "maps-number",
        "map-entry-number", "boundary-points-number", "alphabet-size-fractional",
        "alphabet-size-string", "alphabet-size-boolean", "dimension-fractional",
        "gluing-letter-fractional", "weights-numeric-strings"])
def test_bad_fields_in_structure_documents(tmp_path, capsys, keys, value):
    raw = json.loads(ff.builtin_structure_path("sg2").read_text())
    target = raw
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    code, out, err = run(capsys, "validate", "--structure", str(path))
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in err


def test_validate_fails_when_boundary_deletion_disconnects(tmp_path, capsys):
    # Cell 3 touches the rest only at p1, so the network without p1 falls apart.
    doc = {
        "alphabet_size": 3,
        "boundary": ["p1", "p2"],
        "fixed_points": {"1": "p1", "2": "p2"},
        "gluing": [[1, "p2", 2, "p1"], [1, "p1", 3, "p1"]],
        "laplacian": [[-1.0, 1.0], [1.0, -1.0]],
        "weights": [0.5, 0.5, 0.5],
    }
    path = tmp_path / "pendant.json"
    path.write_text(json.dumps(doc))
    spec = ff.load_structure(path)
    assert boundary_deletion_connected(spec) == [("p1", False), ("p2", True)]
    code, out, err = run(capsys, "validate", "--structure", str(path))
    assert code == 1
    assert "level-1 network without p1: DISCONNECTED" in out.splitlines()
    assert "level-1 network without p2: connected" in out.splitlines()
    assert err.splitlines() == [
        "error: removing a boundary vertex disconnects the level-1 network"
    ]


@pytest.mark.parametrize("gluing,drop,line", [
    # Enough pairs to pass the count, but cell 3 is an island: the walk runs.
    ([[1, "p2", 2, "p1"], [1, "p3", 2, "p2"]], (),
     "error: disconnected level-1 graph: cells [3] never touch cell 1's component"),
    # Without a realization to catch it, p1 and p2 meet at level 1.
    ([[1, "p1", 2, "p2"], [1, "p3", 3, "p1"], [2, "p3", 3, "p2"]], ("realization",),
     "error: gluing conflict: two boundary vertices are identified"),
    ([[1, "p2", 9, "p1"], [1, "p3", 3, "p1"], [2, "p3", 3, "p2"]], (),
     "error: gluing letter 9 outside alphabet 1..3"),
    ([[1, "p2", 2, "p2"], [1, "p3", 3, "p1"], [2, "p3", 3, "p2"]], (),
     "error: gluing conflict: declared identification (1,p2) ~ (2,p2) does not hold "
     "in the realization"),
    # Two pairs apart: the first declared is reported, though the other sorts first.
    ([[2, "p3", 3, "p2"], [1, "p3", 3, "p3"], [1, "p2", 2, "p2"]], (),
     "error: gluing conflict: declared identification (1,p3) ~ (3,p3) does not hold "
     "in the realization"),
    # The 2~3 pair left out: the realization still puts those corners on one
    # point, which the document must declare, with or without a harmonic pair.
    ([[1, "p2", 2, "p1"], [1, "p3", 3, "p1"]], (),
     "error: gluing conflict: corners (2,p3) and (3,p2) coincide in the realization "
     "but are not glued"),
    ([[1, "p2", 2, "p1"], [1, "p3", 3, "p1"]], ("laplacian", "weights"),
     "error: gluing conflict: corners (2,p3) and (3,p2) coincide in the realization "
     "but are not glued"),
], ids=["island", "boundary-identified", "letter-outside-alphabet", "declared-pair-apart",
        "two-declared-pairs-apart", "undeclared-coincidence",
        "undeclared-coincidence-without-pair"])
def test_invalid_gluing_exits_1(tmp_path, capsys, gluing, drop, line):
    raw = json.loads(ff.builtin_structure_path("sg2").read_text())
    raw["gluing"] = gluing
    for key in drop:
        del raw[key]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    code, out, err = run(capsys, "validate", "--structure", str(path))
    assert code == 1
    assert err.splitlines() == [line]


@pytest.mark.parametrize("fields,code,line", [
    ({"alphabet_size": 1}, 1, "error: alphabet must have at least two letters, got 1"),
    ({"boundary": "p1"}, 2, "error: boundary must be a list of labels"),
    ({"boundary": ["p1", "p1", "p3"]}, 1, "error: boundary labels must be distinct"),
    ({"boundary": ["p1"], "fixed_points": {"1": "p1"}}, 1,
     "error: boundary needs at least two vertices"),
    ({"boundary": ["p1", "p2", "p3", "p4"]}, 1,
     "error: boundary has 4 vertices but only 3 letters can declare fixed points"),
    ({"fixed_points": {"1": "p1", "2": "p2", "x": "p3"}}, 2,
     "error: fixed_points key 'x' is not a letter"),
    ({"fixed_points": {"1": "p1", "2": "p2", "7": "p3"}}, 1,
     "error: fixed_points letter 7 outside alphabet 1..3"),
    ({"gluing": {"1": [1, "p2", 2, "p1"]}}, 2,
     "error: gluing must be a list of 4-tuples [i, p, j, q]"),
    ({"laplacian": [[1.0] * 3] * 3}, 1,
     "error: laplacian is not nonpositive definite (top eigenvalue 3)"),
    ({"laplacian": [[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]]}, 1,
     "error: laplacian kernel is larger than the constants"),
    ({"realization": 5}, 2, "error: realization must be an object"),
    ({"fixed_points": ["p1", "p2", "p3"]}, 2,
     "error: fixed_points must be a map letter -> boundary label"),
    (None, 2, "error: structure document must be a JSON object"),
], ids=["alphabet-one-letter", "boundary-string", "boundary-repeated", "boundary-one-vertex",
        "boundary-past-alphabet", "fixed-point-key-not-letter", "fixed-point-letter-outside",
        "gluing-object", "laplacian-positive", "laplacian-wide-kernel", "realization-number",
        "fixed-points-list", "document-list"])
def test_document_error_prints_one_line(tmp_path, capsys, fields, code, line):
    # Each field of sg2's document replaced as listed; None stands for the
    # document [1, 2].
    raw = json.loads(ff.builtin_structure_path("sg2").read_text())
    doc = [1, 2] if fields is None else {**raw, **fields}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    got, _, err = run(capsys, "validate", "--structure", str(path))
    assert (got, err.splitlines()) == (code, [line])


def test_repeated_gluing_pair_is_accepted(tmp_path, capsys):
    raw = json.loads(ff.builtin_structure_path("sg2").read_text())
    raw["gluing"].append([2, "p1", 1, "p2"])  # the first pair, spelled the other way
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(raw))
    assert run(capsys, "validate", "--structure", str(path)) == run(
        capsys, "validate", "--structure", "sg2"
    )


@pytest.mark.parametrize("option,value,code,line", [
    ("--depths", "2-5", 2, "error: --depths expects A..B, got '2-5'"),
    ("--family", "bogus", 2,
     "error: unknown family 'bogus'; use harmonic, level1, or file:PATH"),
    ("--family", "file:{dir}/family.json", 2,
     "error: family file {dir}/family.json is not valid JSON: "
     "Expecting value: line 1 column 1 (char 0)"),
    ("--family", "file:{dir}/empty.json", 1, "error: family needs at least one member"),
], ids=["depths-dash", "family-unknown", "family-not-json", "family-empty"])
def test_scan_input_errors(tmp_path, capsys, option, value, code, line):
    (tmp_path / "family.json").write_text("not json")
    (tmp_path / "empty.json").write_text(json.dumps({"level": 0, "members": []}))
    # A second --depths overrides the first.
    got = run(capsys, "scan", "--structure", "sg2", "--depths", "2..3",
              option, value.format(dir=tmp_path))
    assert got == (code, "", line.format(dir=tmp_path) + "\n")


@pytest.mark.parametrize("args", [
    ("scan", "--structure", "sg2", "--depths", "2..3", "--workers", "0"),
    ("scan", "--structure", "sg2", "--depths", "2..3", "--tau-rank", "1.5"),
    ("scan", "--structure", "sg2", "--depths", "2..3", "--mass-floor", "-1"),
    ("measure", "--structure", "sg2", "--f", "1,0,0", "--depth", "-2"),
    ("embed", "--structure", "sg2", "--depth", "2", "--vertex-depth", "-1",
     "--vertices-out", "unused-v.csv", "--cells-out", "unused-c.csv"),
    ("scan", "--structure", "sg2", "--depths", "2..3", "--mu", "nan,nan,nan"),
    ("scan", "--structure", "sg2", "--depths", "2..3", "--weights", "nan,nan"),
    ("scan", "--structure", "sg2", "--depths", "2..3", "--mass-floor", "nan"),
    ("measure", "--structure", "sg2", "--f", "nan,0,0", "--depth", "2"),
    ("scan", "--structure", "sg2", "--depths", "2..3", "--weights=-1,2"),
    ("scan", "--structure", "sg2", "--depths", "2..3", "--weights=0.3,0.3"),
    ("scan", "--structure", "sg2", "--depths", "2..3", "--mu=0.5,0.5,0.5"),
    ("scan", "--structure", "sg2", "--depths", "2..3", "--mass-floor", "inf"),
    ("embed", "--structure", "sg2", "--depth", "2", "--mass-floor", "1",
     "--vertices-out", "unused-v.csv", "--cells-out", "unused-c.csv"),
], ids=["workers", "tau-rank", "mass-floor", "depth", "embed-vertex-depth", "mu-nan",
        "weights-nan", "mass-floor-nan", "function-nan", "weights-negative",
        "weights-sum", "mu-sum", "mass-floor-inf", "mass-floor-one"])
def test_option_range_errors_exit_2(capsys, args):
    code, out, err = run(capsys, *args)
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_mass_floor_printed_in_full(capsys):
    code, out, err = run(
        capsys, "scan", "--structure", "vicsek", "--family", "level1", "--depths", "2..2",
        "--mass-floor", "0.9999",
    )
    assert code == 1
    assert err.splitlines() == ["error: every depth-2 cell fell below the mass floor 0.9999"]


def test_embed_vertex_depth_cap_checked_before_family(capsys, monkeypatch):
    def no_family(*args):
        raise AssertionError("family built before the cell cap check")

    monkeypatch.setattr(cli, "_build_family", no_family)
    code, out, err = run(
        capsys, "embed", "--structure", "sg2", "--depth", "2", "--vertex-depth", "30",
        "--vertices-out", "unused-v.csv", "--cells-out", "unused-c.csv",
    )
    assert code == 1
    assert err.splitlines() == [f"error: depth 30 needs {3 ** 30} cells, cap is 4194304"]


def test_embed_checks_field_invariants(tmp_path, capsys, monkeypatch):
    def broken(field):
        raise ValidationError("density matrix lost positivity")

    monkeypatch.setattr(cli, "verify_field_invariants", broken)
    code, out, err = run(
        capsys, "embed", "--structure", "sg2", "--depth", "2",
        "--vertices-out", str(tmp_path / "v.csv"), "--cells-out", str(tmp_path / "c.csv"),
    )
    assert code == 1
    assert err.splitlines() == ["error: density matrix lost positivity"]


def test_exit_code_for_bad_depth_range(capsys):
    code, out, err = run(capsys, "scan", "--structure", "sg2", "--depths", "4..2")
    assert code == 2


def test_exit_code_for_bad_weights(capsys):
    # wrong count for the family: semantic, not a parse failure
    code, out, err = run(
        capsys, "scan", "--structure", "sg2", "--depths", "2..3",
        "--weights", "0.5,0.5,0.5",
    )
    assert code == 1
    code, out, err = run(
        capsys, "scan", "--structure", "sg2", "--depths", "2..3",
        "--weights", "0.5,oops",
    )
    assert code == 2


@pytest.mark.parametrize("option,values,count", [
    ("--weights", "0.5,0.5,0.5", 2), ("--mu", "0.5,0.5", 3),
])
def test_weight_count_mismatch_names_the_option(capsys, option, values, count):
    code, out, err = run(
        capsys, "scan", "--structure", "sg2", "--depths", "2..3", f"{option}={values}",
    )
    assert code == 1 and out == ""
    shape = (len(values.split(",")),)
    assert err.splitlines() == [f"error: {option}: need {count} values, got shape {shape}"]


@pytest.mark.parametrize("values,exit_code", [("0.5,0.5", 1), ("0.5,0.5,0.5", 2)])
def test_mu_checked_before_harmonic_pair(capsys, monkeypatch, values, exit_code):
    def no_pair(spec):
        raise AssertionError("harmonic pair built before --mu was checked")

    monkeypatch.setattr(cli, "harmonic_structure", no_pair)
    code, out, err = run(
        capsys, "scan", "--structure", "sg2", "--depths", "2..3", f"--mu={values}",
    )
    assert code == exit_code
    assert len(err.splitlines()) == 1 and err.startswith("error: --mu")


def test_argparse_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["chainrule", "--structure", "sg2", "--depths", "3..4"])
    assert info.value.code == 2


@pytest.mark.parametrize("args", [
    ("scan", "--structure", "sg2", "--depth", "3"),
    ("scan", "--structure", "sg2", "--depth", "2..3"),
    ("chainrule", "--structure", "sg2", "--G", "x1", "--depth", "3"),
    ("scan", "--structure", "sg2", "--depths", "2..3", "--depth", "3"),
], ids=["scan", "scan-range", "chainrule", "scan-both"])
def test_ranged_commands_take_only_depths(args):
    # Abbreviations are off, so --depth is not read as --depths.
    with pytest.raises(SystemExit) as info:
        main(list(args))
    assert info.value.code == 2


# ---------------------------------------------------------------------------
# CSV bytes against the row-by-row oracle


def _measure_oracle(depth, f):
    table = ff.measure_table(f, depth=depth)
    words = (oracles.reference_word(c, depth, 3) for c in range(table.masses.size))
    return oracles.reference_csv(("word", "mass"), zip(words, table.masses.tolist()))


@pytest.mark.parametrize("depth", [0, 1, 9])
def test_measure_csv_bytes(tmp_path, capsys, sg2, depth):
    out_path = tmp_path / "m.csv"
    code, _, _ = run(
        capsys, "measure", "--structure", "sg2", "--f", "1,0,0",
        "--depth", str(depth), "--out", str(out_path),
    )
    assert code == 0
    f = ff.PiecewiseHarmonic(sg2, 0, [1.0, 0.0, 0.0])
    assert out_path.read_bytes() == _measure_oracle(depth, f)
    if depth == 9:
        # The last two-column block is a partial one.
        assert 3 ** depth % (emit.BLOCK_FIELDS // 2) != 0


def test_measure_stdout_bytes(capsys, sg2):
    code, out, _ = run(capsys, "measure", "--structure", "sg2", "--f", "0,2,-1", "--depth", "3")
    assert code == 0
    assert out.encode() == _measure_oracle(3, ff.PiecewiseHarmonic(sg2, 0, [0.0, 2.0, -1.0]))


def test_streamed_word_column_builds_its_word_tables_once(tmp_path, capsys, monkeypatch):
    # --cells-out puts one chunk's rows at a time; the half-word tables are
    # built once for the table, not once per put.
    words, fields, calls, puts = emit._words, emit._word_fields, [], []

    def counted_words(length, n):
        calls.append((length, n))
        return words(length, n)

    def counted_fields(col, *args):
        puts.append(len(col.indices))
        return fields(col, *args)

    monkeypatch.setattr(emit, "_words", counted_words)
    monkeypatch.setattr(emit, "_word_fields", counted_fields)
    path = tmp_path / "c.csv"
    code, _, err = run(capsys, "scan", "--structure", "sg2", "--depths", "11..11",
                       "--out", str(tmp_path / "p.csv"), "--cells-out", str(path))
    assert code == 0, err
    assert len(puts) == 9 and sum(puts) == 3 ** 11
    assert sorted(calls) == [(5, 3), (6, 3)]
    rows = path.read_text().splitlines()
    assert (rows[1].split(",")[0], rows[-1].split(",")[0]) == ("1" + ".1" * 10, "3" + ".3" * 10)


def test_csv_bytes_do_not_depend_on_block_size(tmp_path, capsys, monkeypatch):
    outputs = []
    # Two fields a row: blocks of 4096, 7 and 1 rows.
    for block in (emit.BLOCK_FIELDS, 14, 1):
        monkeypatch.setattr(emit, "BLOCK_FIELDS", block)
        path = tmp_path / f"m{block}.csv"
        code, _, _ = run(
            capsys, "measure", "--structure", "vicsek", "--f", "1,0,0,0",
            "--depth", "3", "--out", str(path),
        )
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


class _BlockRecorder(io.StringIO):
    """A stdout stand-in that keeps every write call's text."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def test_wide_table_blocks_are_bounded_in_fields(monkeypatch, rng):
    # 300 fields a row: the default block holds 27 rows, 14 fields make one
    # row a block, and a budget of 1 field still writes one row at a time.
    width, rows = 300, 61
    header = [f"c{j}" for j in range(width)]
    values = rng.standard_normal((rows, width - 1))
    ids = np.arange(rows)
    table = ([i, *row] for i, row in zip(ids.tolist(), values.tolist()))
    expected = oracles.reference_csv(header, table)
    for budget in (emit.BLOCK_FIELDS, 14, 1):
        monkeypatch.setattr(emit, "BLOCK_FIELDS", budget)
        recorder = _BlockRecorder()
        monkeypatch.setattr(sys, "stdout", recorder)
        emit.write_table(None, header, (ids, values))
        assert recorder.getvalue().encode() == expected
        blocks = [text.count("\n") for text in recorder.writes[1:]]
        assert sum(blocks) == rows
        assert max(blocks) == max(1, budget // width)
        # No block holds more fields than the budget, unless one row does.
        assert max(blocks) * width <= max(budget, width)


def _refuse_replace(*args):
    raise AssertionError(f"os.replace{args}")


def test_table_replaces_a_file_only_when_written_whole(tmp_path, monkeypatch):
    path = tmp_path / "t.csv"
    path.write_bytes(b"old\n")
    with pytest.raises(ValueError):
        with emit.table_writer(path, ["a", "b"]) as put:
            put((np.arange(3), np.ones(3)))
            raise ValueError("stopped mid-table")
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
    assert path.read_bytes() == b"old\n"
    replaced = []
    monkeypatch.setattr(emit.os, "replace", lambda *args: replaced.append(args))
    with emit.table_writer(path, ["a", "b"]) as put:
        put((np.arange(2), np.ones(2)))
        put((np.arange(2, 3), np.zeros(1)))
    assert len(replaced) == 1 and replaced[0][1] == os.path.realpath(path)
    os.rename(*replaced[0])
    assert path.read_bytes() == b"a,b\n0,1\n1,1\n2,0\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a FIFO")
def test_table_to_a_non_regular_file_is_written_in_place(tmp_path, monkeypatch):
    # A FIFO stands for /dev/null: the rows go into it, and no rename is ever
    # attempted over it, whether the table is written whole or fails.
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    monkeypatch.setattr(emit.os, "replace", _refuse_replace)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        emit.write_table(fifo, ["a", "b"], (np.arange(2), np.ones(2)))
        assert os.read(reader, 1 << 16) == b"a,b\n0,1\n1,1\n"
        with pytest.raises(ValueError):
            with emit.table_writer(fifo, ["a"]) as put:
                put((np.arange(1),))
                raise ValueError("stopped mid-table")
        assert os.read(reader, 1 << 16) == b"a\n0\n"
    finally:
        os.close(reader)
    assert [p.name for p in tmp_path.iterdir()] == ["fifo"]


def test_vicsek_harmonic_profile_meets_exact_laws(tmp_path, capsys):
    # mean_lambda2's gap grows about 3x per level (4.8e-13 relative at depth
    # 8); the residual and the count stay at rounding level.
    lambda2_rtol, residual_rtol, dim_atol = 1e-12, 1e-14, 1e-14
    raw = json.loads(ff.builtin_structure_path("vicsek").read_text())
    laws = oracles.vicsek_harmonic_laws(raw["laplacian"], Fraction(1, 3), range(2, 9))
    path = tmp_path / "p.csv"
    code, _, _ = run(
        capsys, "scan", "--structure", "vicsek", "--depths", "2..8", "--out", str(path)
    )
    assert code == 0
    with path.open() as handle:
        rows = list(csv.DictReader(handle))
    assert [int(row["depth"]) for row in rows] == list(laws)
    for row in rows:
        lambda2, residual_squared, dim = laws[int(row["depth"])]
        residual = math.sqrt(residual_squared)
        assert abs(float(row["mean_lambda2"]) - lambda2) <= lambda2_rtol * lambda2, row
        assert abs(float(row["mean_residual"]) - residual) <= residual_rtol * residual, row
        assert abs(float(row["dim_estimate"]) - dim) <= dim_atol, row


def test_scan_cells_csv_bytes_sparse(tmp_path, capsys, vicsek):
    cells = tmp_path / "cells.csv"
    code, _, _ = run(
        capsys, "scan", "--structure", "vicsek", "--family", "level1",
        "--depths", "2..3", "--out", str(tmp_path / "p.csv"), "--cells-out", str(cells),
    )
    assert code == 0
    fld = ff.density_matrices(ff.level1_family(vicsek, ff.mean_functional(vicsek)), 3)
    assert fld.skipped > 0
    k = 15  # lambda columns; d - 1 = 3 of them are computed, the rest are 0.0
    assert fld.eigenvalues.shape == (fld.size, 3)
    header = ["word", "weight"] + [f"lambda{i + 1}" for i in range(k)] + ["residual", "alpha"]
    rows = (
        [oracles.reference_word(idx, 3, 5), lam, *eigs, *[0.0] * (k - len(eigs)), res,
         int(alpha) + 1]
        for idx, lam, eigs, res, alpha in zip(
            fld.indices, fld.lam, fld.eigenvalues, fld.residuals, fld.alpha
        )
    )
    assert cells.read_bytes() == oracles.reference_csv(header, rows)


def test_embed_csv_bytes(tmp_path, capsys, sg2):
    verts, cells = tmp_path / "v.csv", tmp_path / "c.csv"
    code, _, _ = run(
        capsys, "embed", "--structure", "sg2", "--depth", "3", "--vertex-depth", "4",
        "--vertices-out", str(verts), "--cells-out", str(cells),
    )
    assert code == 0
    family = ff.harmonic_family(sg2, ff.mean_functional(sg2))
    coords = np.column_stack([ff.lift(m, 4).values for m in family.members])
    expected = oracles.reference_csv(
        ("vertex", "phi1", "phi2"), ([v, *row] for v, row in enumerate(coords))
    )
    assert verts.read_bytes() == expected

    fld = ff.density_matrices(family, 3)
    rows = []
    for idx, lam, z in zip(fld.indices, fld.lam, fld.matrices):
        # dir: the pivot column (largest weighted diagonal, first within
        # PIVOT_TIE_TOL), scaled by the pivot's square root, then normalized.
        weighted = fld.weights * np.diag(z)
        alpha = np.flatnonzero(weighted >= (1.0 - PIVOT_TIE_TOL) * weighted.max())[0]
        col = z[:, alpha] / np.sqrt(z[alpha, alpha])
        direction = col / np.sqrt(np.sum(col * col))
        metric = z * fld.total_mass
        rows.append([
            oracles.reference_word(idx, 3, 3), lam / fld.total_mass, *metric.ravel(), *direction
        ])
    header = ["word", "nu", "z1_1", "z1_2", "z2_1", "z2_2", "dir1", "dir2"]
    assert cells.read_bytes() == oracles.reference_csv(header, rows)


def test_embed_dir_is_pivot_column_on_degenerate_cells(tmp_path, capsys):
    # On vicsek level 1 the depth-5 cells 1.5.5.5.5 ... 5.5.5.5.5 have a
    # triply degenerate top eigenvalue, where no top eigenvector is defined;
    # dir is the normalized pivot column of the cell's metric on every cell
    # (the family weights are uniform, so the plain diagonal picks the pivot).
    cells = tmp_path / "c.csv"
    code, _, _ = run(
        capsys, "embed", "--structure", "vicsek", "--family", "level1", "--depth", "5",
        "--vertices-out", str(tmp_path / "v.csv"), "--cells-out", str(cells),
    )
    assert code == 0
    with cells.open() as handle:
        rows = {row["word"]: row for row in csv.DictReader(handle)}
    assert {f"{i}.5.5.5.5" for i in range(1, 6)} <= set(rows)
    k = 15
    for row in rows.values():
        metric = np.array([float(row[f"z{i + 1}_{j + 1}"]) for i in range(k) for j in range(k)])
        metric = metric.reshape(k, k)
        diag = np.diag(metric)
        col = metric[:, np.flatnonzero(diag >= (1.0 - PIVOT_TIE_TOL) * diag.max())[0]]
        direction = np.array([float(row[f"dir{j + 1}"]) for j in range(k)])
        np.testing.assert_allclose(direction, col / np.linalg.norm(col), rtol=0, atol=1e-12)


def test_chainrule_csv_bytes(tmp_path, capsys):
    out_path = tmp_path / "gaps.csv"
    code, out, _ = run(
        capsys, "chainrule", "--structure", "sg2", "--G", "x1^2 - 0.5*x1*x2",
        "--depths", "3..5", "--out", str(out_path),
    )
    assert code == 0
    rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
    values = [(int(d), float(lhs), float(rhs), float(gap)) for d, lhs, rhs, gap in rows]
    expected = oracles.reference_csv(("depth", "lhs", "rhs", "rel_gap"), values)
    assert out_path.read_bytes() == expected
    printed = [
        f"depth {d}: lhs = {lhs:.12g}, rhs = {rhs:.12g}, rel_gap = {gap:.6e}"
        for d, lhs, rhs, gap in values
    ]
    assert out.splitlines() == printed
