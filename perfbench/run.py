"""Benchmark of the fracform command line on four workloads.

Run from the root of a source checkout (no install step: the children get
``src`` on ``PYTHONPATH``)::

    python3 perfbench/run.py --workload scan-vicsek-level1 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

Untraced (``--trace 0``) it runs the real CLI in a closed loop, one client
and one fresh process at a time, until the CLI runs add up to ``--seconds``
(the output checks between runs are not charged), and reports per workload:

    wall_s        one CLI invocation, process start to exit (median)
    setup_s       a fresh interpreter importing fracform and building the
                  structure, pair, mean functional and family (median of at
                  least 9, one after each CLI run)
    cells_per_s   cells covered (sum of n^depth over every depth scanned,
                  computed or skipped) divided by wall_s
    peak_rss_mb   peak resident memory of the CLI child alone, MiB (median)
    error_rate    failed runs / attempted runs (the JSON keys ``failed`` and
                  ``attempted``; printed, but not a bounded metric because it
                  is 0 on a correct program)

Traced (``--trace 1``) it alternates an untraced CLI run with the same CLI
command run in-process by ``replay.py trace``, which wraps the layer functions
``fracform.cli`` calls so that each call records a span, and reports
per-layer metrics named after the package modules plus the tracing overhead
and coverage.

Every run's outputs are checked (``workloads.py``); the default seed is also
compared with ``reference.json``.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import DEFAULT_SEED, STDERR, STDOUT, TRACE_FILE, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ".perfbench_work"
SETUP_RUNS = 9
CHILD_TIMEOUT_S = 150.0
MIB = 1024 * 1024

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "cells_per_s": "cells/s", "peak_rss_mb": "MiB"}

# Per-layer metric -> (unit, the end-to-end metric it should move and where).
# Times are span totals, except dimension.density_s (self time).  cli.emit_s
# covers the writers the CLI calls (write_profile_csv, CellMeasureTable.write_csv);
# chainrule writes its few rows inline, so its emit_s is 0.  Emitted rows and
# bytes are read from the output file.
LAYERS = {
    "structure.load_s": ("s", "setup_s, all workloads"),
    "structure.build_vertices_s": ("s", "wall_s on chainrule-sg2"),
    "structure.vertices": ("count", "wall_s on chainrule-sg2"),
    "harmonic.pair_s": ("s", "setup_s, all workloads"),
    "harmonic.graph_energy_s": ("s", "wall_s on chainrule-sg2"),
    "energy.scan_s": ("s", "wall_s, cells_per_s on scan-vicsek-level1"),
    "energy.cells_scanned": ("count", "wall_s on scan-vicsek-level1 (pruning)"),
    "energy.chunks": ("count", "wall_s on scan-vicsek-level1"),
    "energy.gram_bytes": ("computed_bytes", "peak_rss_mb on scan-vicsek-level1"),
    "energy.scan_speedup_w2": ("x", "wall_s on both scans"),
    "energy.lift_s": ("s", "wall_s on chainrule-sg2"),
    "energy.measure_table_s": ("s", "wall_s on measure-sg2-d12"),
    "dimension.family_s": ("s", "setup_s, all workloads"),
    "dimension.cells_retained": ("count", "wall_s on scan-vicsek-level1"),
    "dimension.cells_skipped": ("count", "wall_s on scan-vicsek-level1"),
    "dimension.retained_ratio": ("fraction", "wall_s on scan-vicsek-level1; 1 on scan-sg2-dense"),
    "dimension.density_s": ("s", "wall_s, peak_rss_mb on scan-sg2-dense"),
    "dimension.verify_s": ("s", "wall_s on scan-sg2-dense"),
    "dimension.zeta_s": ("s", "wall_s, peak_rss_mb on scan-sg2-dense"),
    "dimension.stats_s": ("s", "wall_s on scan-sg2-dense"),
    "cli.polynomial_s": ("s", "wall_s on chainrule-sg2"),
    "cli.emit_s": ("s", "wall_s on measure-sg2-d12"),
    "cli.emit_rows": ("count", "wall_s on measure-sg2-d12"),
    "cli.emit_bytes": ("bytes", "wall_s on measure-sg2-d12"),
    "cli.emit_mb_per_s": ("MB/s", "wall_s on measure-sg2-d12"),
    "trace.overhead_s": ("s", "traced run wall minus untraced wall_s"),
    "trace.coverage": ("fraction", "share of the traced wall inside layer spans"),
}
LAYER_UNITS = {name: unit for name, (unit, _) in LAYERS.items()}


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mib: float
    stdout: str
    stderr: str
    extra: object = None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        for p in problems:
            print(f"FAILED {what}: {p}", file=sys.stderr)


def child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # numpy links a multithreaded BLAS; keep --workers the only parallelism.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["TMPDIR"] = str(tmp)
    return env


def spawn(argv: list[str], tmp: Path) -> Child:
    """Run one child to completion; wall time from spawn to reaped exit and
    the peak RSS of that child alone (``os.wait4``, not RUSAGE_CHILDREN,
    whose maximum covers every child reaped so far)."""
    out_path, err_path = tmp / STDOUT, tmp / STDERR
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(tmp), stdin=subprocess.DEVNULL,
            stdout=out, stderr=err,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        code=proc.returncode,
        wall_s=wall,
        rss_mib=usage.ru_maxrss * 1024 / MIB,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def exit_problems(child: Child) -> list[str]:
    if child.code == 0:
        return []
    tail = child.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
    return [f"exit code {child.code}: {tail[0]}"]


class Bench:
    def __init__(self, wl: Workload, seed: int, work: Path) -> None:
        self.wl = wl
        self.seed = seed
        self.inputs = wl.inputs(seed)
        self.work = work
        self.tally = Tally()

    def _replay_argv(self, mode: str, *extra: str) -> list[str]:
        return [sys.executable, str(HERE / "replay.py"), mode, "--workload", self.wl.name,
                "--inputs", json.dumps(self.inputs), *extra]

    def cli_argv(self, outdir: Path) -> list[str]:
        return [sys.executable, "-m", "fracform.cli", *self.wl.cli_args(self.inputs, outdir)]

    def attempt(self, what: str, make_argv, checked: bool, collect=None) -> Child:
        """Run one child in a fresh directory, check it, then delete the directory."""
        tmp = Path(tempfile.mkdtemp(dir=self.work))
        try:
            child = spawn(make_argv(tmp), tmp)
            problems = exit_problems(child)
            if checked and not problems:
                result = self.check(tmp)
                problems = result["problems"] + result["reference_problems"]
            if collect is not None and not problems:
                child.extra = collect(tmp)
            self.tally.record(what, problems)
            return child
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def check(self, tmp: Path) -> dict:
        """Run the output checker (workloads.py) on a finished run's directory."""
        argv = [sys.executable, str(HERE / "workloads.py"), "--workload", self.wl.name,
                "--seed", str(self.seed), "--dir", str(tmp)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return {"summary": {}, "problems": [f"checker failed: {tail[0]}"],
                    "reference_problems": []}

    def cli(self) -> Child:
        return self.attempt("cli", self.cli_argv, checked=True)

    def setup(self, facts: bool = False) -> Child:
        extra = ("--facts",) if facts else ()
        return self.attempt("setup", lambda tmp: self._replay_argv("setup", *extra), False)

    def facts(self) -> dict:
        """Warm-up setup child (also compiles bytecode) reporting machine facts."""
        child = self.setup(facts=True)
        try:
            return json.loads(child.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return {}

    def measure(self, seconds: float) -> dict:
        facts = self.facts()
        # One set-up child after each CLI run, so both samples span the same
        # stretch of time; topped up to SETUP_RUNS when the CLI runs are few.
        pairs = closed_loop(lambda: (self.cli(), self.setup().wall_s), seconds,
                            cost=lambda pair: pair[0].wall_s)
        runs = [c for c, _ in pairs]
        setups = [s for _, s in pairs]
        setups += [self.setup().wall_s for _ in range(SETUP_RUNS - len(setups))]
        walls = [c.wall_s for c in runs]
        rss = [c.rss_mib for c in runs]
        wall = statistics.median(walls)
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "cells_per_s": self.wl.cells / wall,
            "peak_rss_mb": statistics.median(rss),
        }
        notes = {
            "wall_s": spread_note(walls),
            "setup_s": spread_note(setups),
            "cells_per_s": spread_note([self.wl.cells / w for w in walls])
            + f", {self.wl.cells} cells per run",
            "peak_rss_mb": spread_note(rss),
        }
        self.print_table(metrics, E2E_UNITS, notes, facts, len(runs))
        return metrics

    def traced(self, seconds: float) -> dict:
        facts = self.facts()
        pairs = closed_loop(lambda: (self.cli(), self.replay()), seconds,
                            cost=lambda pair: pair[0].wall_s + pair[1].wall_s)
        plain = statistics.median(c.wall_s for c, _ in pairs)
        per_run = [layer_metrics(r, plain) for _, r in pairs if r.extra is not None]
        scale = self.attempt("scaling", lambda tmp: self._replay_argv("scaling"), False)
        try:
            times = json.loads(scale.stdout.strip().splitlines()[-1])
            speedup = times["scan_w1_s"] / times["scan_w2_s"]
        except (IndexError, KeyError, ValueError, ZeroDivisionError):
            speedup = 0.0
        metrics = {}
        for name in LAYER_UNITS:
            if name == "energy.scan_speedup_w2":
                metrics[name] = speedup
                continue
            values = [m[name] for m in per_run] or [0.0]
            med = statistics.median(values)
            metrics[name] = int(med) if all(isinstance(v, int) for v in values) else float(med)
        notes = {name: moves for name, (_, moves) in LAYERS.items()}
        notes["trace.overhead_s"] += f" ({plain:.4f} s)"
        notes["energy.scan_speedup_w2"] += " (scan at --workers 1 / --workers 2)"
        self.print_table(metrics, LAYER_UNITS, notes, facts, len(pairs))
        return metrics

    def replay(self) -> Child:
        return self.attempt(
            "trace",
            lambda tmp: self._replay_argv("trace", "--outdir", str(tmp)),
            checked=True,
            collect=lambda tmp: {**json.loads((tmp / TRACE_FILE).read_text()),
                                 "emitted": emitted(tmp / self.wl.out_name)},
        )

    def print_table(self, metrics, units, notes, facts, runs) -> None:
        t = self.tally
        print(f"[{self.wl.name}] seed {self.seed}: fracform {' '.join(self.wl.cli_args(self.inputs, Path('<tmp>')))}")
        print(f"  closed loop, 1 client, {runs} measured runs, {t.attempted} children")
        for name, value in metrics.items():
            note = notes.get(name, "")
            shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
            print(f"  {name:28s} {shown} {units[name]:14s} {note}")
        rate = t.failed / t.attempted if t.attempted else 0.0
        print(f"  {'error_rate':28s} {rate:>16.6g} {'fraction':14s} {t.failed} failed of {t.attempted}")
        print(f"  machine: {json.dumps(facts, sort_keys=True)}")


def closed_loop(run_once, seconds: float, cost) -> list:
    """Run until the measured time, ``cost`` of each result, adds up to
    ``seconds``; at least once, never concurrently.  Output checks and
    set-up samples between runs are not charged."""
    results, spent = [], 0.0
    while not results or spent < seconds:
        results.append(run_once())
        spent += cost(results[-1])
    return results


def emitted(path: Path) -> dict:
    """Rows after the header and bytes of an output file, read in 1 MiB
    blocks so that the benchmark process stays small."""
    lines = 0
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(MIB), b""):
            lines += block.count(b"\n")
    return {"rows": max(lines - 1, 0), "bytes": path.stat().st_size}


def spread_note(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, quartiles {q1:.4f}..{q3:.4f}"


def _durations(spans: list) -> tuple[dict, dict, float]:
    """Per-name total and self time, and the time covered by top-level spans.

    Spans come from one thread and nest strictly, so a span's children never
    overlap and its self time is its duration minus theirs.
    """
    total: dict[str, float] = {}
    child_time = [0.0] * len(spans)
    top = 0.0
    for name, start, end, parent in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        if parent is None:
            top += end - start
        else:
            child_time[parent] += end - start
    own: dict[str, float] = {}
    for (name, start, end, _), inner in zip(spans, child_time):
        own[name] = own.get(name, 0.0) + (end - start - inner)
    return total, own, top


def layer_metrics(replay: Child, plain_wall: float) -> dict:
    spans, counters = replay.extra["spans"], replay.extra["counters"]
    total, own, top = _durations(spans)
    count = lambda name: int(counters.get(name, 0))
    span = lambda name: total.get(name, 0.0)
    retained, scanned = count("dimension.cells_retained"), count("energy.cells_scanned")
    emit_s, out = span("cli.emit"), replay.extra["emitted"]
    return {
        "structure.load_s": span("structure.load"),
        "structure.build_vertices_s": span("structure.build_vertices"),
        "structure.vertices": count("structure.vertices"),
        "harmonic.pair_s": span("harmonic.pair"),
        "harmonic.graph_energy_s": span("harmonic.graph_energy"),
        "energy.scan_s": span("energy.scan"),
        "energy.cells_scanned": scanned,
        "energy.chunks": count("energy.chunks"),
        "energy.gram_bytes": count("energy.gram_bytes"),
        "energy.lift_s": span("energy.lift"),
        "energy.measure_table_s": span("energy.measure_table"),
        "dimension.family_s": span("dimension.family"),
        "dimension.cells_retained": retained,
        "dimension.cells_skipped": count("dimension.cells_skipped"),
        # useful / attempted: cells kept over cells the scan actually computed
        "dimension.retained_ratio": retained / scanned if scanned else 0.0,
        # density_matrices less the scan (and lift) spans nested in it
        "dimension.density_s": own.get("dimension.density_matrices", 0.0),
        "dimension.verify_s": span("dimension.verify"),
        "dimension.zeta_s": span("dimension.zeta"),
        "dimension.stats_s": span("dimension.stats"),
        "cli.polynomial_s": span("cli.polynomial"),
        "cli.emit_s": emit_s,
        "cli.emit_rows": out["rows"],
        "cli.emit_bytes": out["bytes"],
        "cli.emit_mb_per_s": out["bytes"] / 1e6 / emit_s if emit_s > 0 else 0.0,
        "trace.overhead_s": replay.wall_s - plain_wall,
        "trace.coverage": top / replay.wall_s,
    }


def print_reference(names: list[str], work: Path) -> None:
    """Print the compact output summary of one default-seed run per workload,
    in the format of reference.json."""
    out = {}
    for name in names:
        bench = Bench(WORKLOADS[name], DEFAULT_SEED, work)
        tmp = Path(tempfile.mkdtemp(dir=work))
        try:
            child = spawn(bench.cli_argv(tmp), tmp)
            result = bench.check(tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        problems = exit_problems(child) + result["problems"]
        if problems:
            raise SystemExit(f"{name}: default-seed run failed: {problems}")
        out[name] = result["summary"]
    print(json.dumps(out, indent=2, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fracform CLI benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--print-reference", action="store_true",
                        help="print the default-seed output summaries and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fracform" / "cli.py").is_file():
        print(f"error: no fracform source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    # Turn SIGTERM into SystemExit so running children are killed and reaped
    # and the work directory is removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = ROOT / WORK_DIR
    work.mkdir(exist_ok=True)
    try:
        if args.print_reference:
            print_reference(names, work)
            return 0
        metrics, attempted, failed = {}, 0, 0
        for name in names:
            bench = Bench(WORKLOADS[name], args.seed, work)
            units = LAYER_UNITS if args.trace else E2E_UNITS
            got = bench.traced(args.seconds) if args.trace else bench.measure(args.seconds)
            prefix = f"{name}." if len(names) > 1 else ""
            for key, value in got.items():
                metrics[prefix + key] = {"value": value, "unit": units[key]}
            attempted += bench.tally.attempted
            failed += bench.tally.failed
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
