"""The benchmark's hooks into the program still resolve.

``perfbench/replay.py`` builds each workload with the CLI's own helpers and
wraps named layer functions (``cli._build_family``, ``energy.lift``,
``CellMeasureTable.write_csv``, ``scan_cell_masses`` in three modules, ...)
to trace them.  Deleting or renaming one of those names breaks the benchmark
without failing any other test, and so can a change to the scan or to
``harmonic_structure`` that only the ``trace`` and ``scaling`` modes reach.
Each check runs in a fresh interpreter from the benchmark's directory, as
the benchmark itself does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


def run_child(*args: str) -> subprocess.CompletedProcess:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), path])))
    return subprocess.run(
        [sys.executable, *args], cwd=BENCH, env=env, capture_output=True, text=True, timeout=120
    )


def seed_zero_inputs() -> dict:
    """Each workload's seed-0 inputs, by workload name."""
    listed = run_child(
        "-c",
        "import json, workloads; "
        "print(json.dumps({n: w.inputs(0) for n, w in workloads.WORKLOADS.items()}))",
    )
    assert listed.returncode == 0, listed.stderr
    return json.loads(listed.stdout)


def test_replay_setup_builds_every_workload():
    inputs = seed_zero_inputs()
    assert inputs
    for name, values in inputs.items():
        done = run_child("replay.py", "setup", "--workload", name, "--inputs", json.dumps(values))
        assert done.returncode == 0, f"{name}: {done.stderr}"


def test_tracer_wraps_every_layer():
    done = run_child("-c", "import replay; replay.instrument(replay.Tracer())")
    assert done.returncode == 0, done.stderr


def test_replay_trace_records_scan_and_pair_spans(tmp_path):
    inputs = json.dumps(seed_zero_inputs()["chainrule-sg2"])
    done = run_child(
        "replay.py", "trace", "--workload", "chainrule-sg2", "--inputs", inputs,
        "--outdir", str(tmp_path),
    )
    assert done.returncode == 0, done.stderr
    spans = json.loads((tmp_path / "trace.json").read_text())["spans"]
    assert {"energy.scan", "harmonic.pair"} <= {span[0] for span in spans}


def test_replay_trace_counts_the_pruned_scan(tmp_path):
    # Depths 2..8 cover 488,275 cells; the descent stops below the floor, so
    # far fewer mass blocks are formed, while the skip counts stay those of a
    # full scan.  The counters come from the scan_cell_masses wrapper, so this
    # also fails if density_matrices stops calling that name.
    inputs = json.dumps(seed_zero_inputs()["scan-vicsek-level1"])
    done = run_child(
        "replay.py", "trace", "--workload", "scan-vicsek-level1", "--inputs", inputs,
        "--outdir", str(tmp_path),
    )
    assert done.returncode == 0, done.stderr
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert "energy.scan" in {span[0] for span in trace["spans"]}
    counters = trace["counters"]
    assert counters["energy.cells_scanned"] < 488_275
    assert counters["dimension.cells_skipped"] == 455_520
    # The scan hands out one 15 x 3 block of energy coordinates per formed
    # cell, cell-major, and never a 15 x 15 Gram block.
    assert counters["energy.gram_bytes"] == counters["energy.cells_scanned"] * 15 * 3 * 8


def test_replay_scaling_times_both_worker_counts():
    inputs = json.dumps(seed_zero_inputs()["chainrule-sg2"])
    done = run_child("replay.py", "scaling", "--workload", "chainrule-sg2", "--inputs", inputs)
    assert done.returncode == 0, done.stderr
    seconds = json.loads(done.stdout)
    assert seconds["scan_w1_s"] > 0 and seconds["scan_w2_s"] > 0
