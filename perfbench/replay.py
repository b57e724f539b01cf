"""Child-process side of the benchmark.

Three modes, each run in a fresh interpreter by ``run.py``:

``setup``
    Import fracform and build what every CLI call of the workload builds
    before its first cell: structure, harmonic pair, mean functional and
    family (or, for ``measure``, the function), with the CLI's own helpers.
    With ``--facts`` it then prints machine facts as one JSON line.
``trace``
    Run the workload's CLI command in-process through ``fracform.cli.main``,
    after wrapping the layer functions the subcommands call so that each call
    records a span.  Stdout, stderr and files are the CLI's own, so the same
    checks apply.  Spans and counters go to ``trace.json`` in the output
    directory when the run ends.
``scaling``
    Time the workload's cell scans at one and at two workers.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# By module, not attribute: the package re-exports the function energy()
# under the name of its module.
cli, dimension, energy, structure = (
    importlib.import_module(f"fracform.{name}")
    for name in ("cli", "dimension", "energy", "structure")
)
from workloads import TRACE_FILE, WORKLOADS, Workload


class Tracer:
    """Spans (name, start, end, parent index) and counters, kept in memory.

    Only the main thread records; calls made from scan worker threads run
    untraced, so spans never overlap their siblings.  A call into a layer
    that is already open (``lift`` calling itself through another name, say)
    adds no span, so a layer's time is never counted twice.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._open: set[str] = set()
        self._main = threading.get_ident()

    @contextmanager
    def span(self, name: str):
        if threading.get_ident() != self._main or name in self._open:
            yield
            return
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        self._open.add(name)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
            self._open.discard(name)

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(amount)

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace owner.attr (a module or class attribute) so every call
        through that name runs in a span."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, traced)

    def patch_scan(self, module) -> None:
        """Wrap module.scan_cell_masses: one span per chunk the consumer waits for."""
        original = module.scan_cell_masses

        @functools.wraps(original)
        def traced(*args, **kwargs):
            chunks = original(*args, **kwargs)

            def consume():
                while True:
                    with self.span("energy.scan"):
                        item = next(chunks, None)
                    if item is None:
                        return
                    gram = item[1]
                    self.count("energy.chunks", 1)
                    self.count("energy.cells_scanned", gram.shape[0])
                    self.count("energy.gram_bytes", gram.nbytes)
                    yield item

            return consume()

        module.scan_cell_masses = traced

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "counters": self.counters}))


def setup(wl: Workload, inputs: dict):
    """Build what the CLI builds before its first cell, with its own parser
    and helpers; returns ``(hs, members)``."""
    args = cli.build_parser().parse_args(wl.cli_args(inputs, Path(os.devnull)))
    hs = cli.harmonic_structure(cli.resolve_structure(args.structure))
    if wl.command == "measure":
        return hs, [cli._load_function(hs, args.f)]
    config = cli.RunConfig(
        structure_path=args.structure,
        depths=(1,),
        family=args.family,
        weights=cli._parse_floats(args.weights, "--weights") if args.weights else None,
    )
    mean = cli.mean_functional(hs, None)
    return hs, list(cli._build_family(hs, config, mean).members)


def machine_facts() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def instrument(tr: Tracer) -> None:
    """Wrap every layer call the subcommands make, under its module's name."""
    for owner, attr, name in (
        (cli, "resolve_structure", "structure.load"),
        (cli, "harmonic_structure", "harmonic.pair"),
        (cli, "mean_functional", "dimension.family"),
        (cli, "_build_family", "dimension.family"),
        (cli, "_load_function", "dimension.family"),
        (cli, "density_matrices", "dimension.density_matrices"),
        (cli, "verify_field_invariants", "dimension.verify"),
        (cli, "zeta_factors", "dimension.zeta"),
        (cli, "write_profile_csv", "cli.emit"),
        (cli, "measure_table", "energy.measure_table"),
        (cli, "graph_energy", "harmonic.graph_energy"),
        (cli, "lift", "energy.lift"),
        (energy, "lift", "energy.lift"),
        (cli.Polynomial, "parse", "cli.polynomial"),
        (cli.Polynomial, "gradient", "cli.polynomial"),
        (cli.Polynomial, "__call__", "cli.polynomial"),
        (energy.CellMeasureTable, "write_csv", "cli.emit"),
    ):
        tr.patch(owner, attr, name)
    tr.patch(
        structure, "build_vertices", "structure.build_vertices",
        on_result=lambda table: tr.count("structure.vertices", table.num_vertices),
    )

    def counted(profile) -> None:
        tr.count("dimension.cells_retained", profile.retained_cells)
        tr.count("dimension.cells_skipped", profile.skipped_cells)

    tr.patch(cli, "rank_statistics", "dimension.stats", on_result=counted)
    for module in (cli, energy, dimension):
        tr.patch_scan(module)


def trace(wl: Workload, inputs: dict, outdir: Path) -> int:
    tr = Tracer()
    instrument(tr)
    try:
        return cli.main(wl.cli_args(inputs, outdir))
    finally:
        tr.dump(outdir / TRACE_FILE)


def scaling(wl: Workload, inputs: dict) -> dict:
    """Seconds to scan every depth the subcommand scans, at one and two workers."""
    hs, members = setup(wl, inputs)
    # Untimed pass: starts the thread pool path and fills lazily built tables.
    for _ in energy.scan_cell_masses(hs, members, min(wl.scan_depths), 2):
        pass
    seconds = {}
    for workers in (1, 2):
        start = time.perf_counter()
        for depth in wl.scan_depths:
            for _ in energy.scan_cell_masses(hs, members, depth, workers):
                pass
        seconds[workers] = time.perf_counter() - start
    return {"scan_w1_s": seconds[1], "scan_w2_s": seconds[2]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "trace", "scaling"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True, help="seeded inputs as JSON")
    parser.add_argument("--outdir", default=None)
    parser.add_argument("--facts", action="store_true")
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]
    inputs = json.loads(args.inputs)
    if args.mode == "setup":
        setup(wl, inputs)
        if args.facts:
            print(json.dumps(machine_facts()))
    elif args.mode == "trace":
        return trace(wl, inputs, Path(args.outdir))
    else:
        print(json.dumps(scaling(wl, inputs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
