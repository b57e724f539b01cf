"""The benchmark's hooks into the program still resolve.

``perfbench/replay.py`` builds each workload with the CLI's own helpers and
wraps named layer functions (``cli._build_family``, ``energy.lift``,
``CellMeasureTable.write_csv``, ``scan_cell_masses`` in three modules, ...)
to trace them.  Deleting or renaming one of those names breaks the benchmark
without failing any other test.  Each check runs in a fresh interpreter from
the benchmark's directory, as the benchmark itself does.
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


def test_replay_setup_builds_every_workload():
    listed = run_child(
        "-c",
        "import json, workloads; "
        "print(json.dumps({n: w.inputs(0) for n, w in workloads.WORKLOADS.items()}))",
    )
    assert listed.returncode == 0, listed.stderr
    inputs = json.loads(listed.stdout)
    assert inputs
    for name, values in inputs.items():
        done = run_child("replay.py", "setup", "--workload", name, "--inputs", json.dumps(values))
        assert done.returncode == 0, f"{name}: {done.stderr}"


def test_tracer_wraps_every_layer():
    done = run_child("-c", "import replay; replay.instrument(replay.Tracer())")
    assert done.returncode == 0, done.stderr
