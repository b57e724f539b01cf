"""The four benchmark workloads: seeded inputs, CLI arguments and output checks.

Every workload runs one ``fracform`` subcommand on a built-in structure.  The
seed only changes values the program reads (family weights, boundary values,
polynomial coefficients), never the amount of work, so runs with different
seeds are comparable.  The checks that hold for any seed are applied to every
run; the default seed is also compared with the compact references in
``reference.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
REL_TOL = 1e-9
# Summary entries fixed by the workload's depths, whatever the seed.
SEED_FREE_KEYS = ("rows", "word_sha256")

PROFILE_CSV = "profile.csv"
MASSES_CSV = "masses.csv"
CHAINRULE_CSV = "chainrule.csv"
STDOUT = "stdout.txt"
STDERR = "stderr.txt"
TRACE_FILE = "trace.json"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # scan | measure | chainrule
    structure: str
    n_letters: int
    depths: tuple[int, ...]
    family: str = "harmonic"
    family_size: int = 2
    workers: int = 1

    @property
    def scan_depths(self) -> tuple[int, ...]:
        """Depths the subcommand scans; ``measure`` also builds the parent table."""
        if self.command == "measure":
            return (self.depths[0], self.depths[0] - 1)
        return self.depths

    @property
    def cells(self) -> int:
        """Cells covered by one run, computed or skipped alike."""
        return sum(self.n_letters ** d for d in self.scan_depths)

    @property
    def out_name(self) -> str:
        return {"scan": PROFILE_CSV, "measure": MASSES_CSV, "chainrule": CHAINRULE_CSV}[
            self.command
        ]

    def inputs(self, seed: int) -> dict:
        """The seeded values this workload hands to the program."""
        rng = random.Random(f"{self.name}:{seed}")
        if self.command == "scan":
            raw = [1.0 + rng.random() for _ in range(self.family_size)]
            total = sum(raw)
            return {"weights": [x / total for x in raw]}
        if self.command == "measure":
            while True:
                f = [round(rng.uniform(-1.0, 1.0), 6) for _ in range(3)]
                if max(f) - min(f) >= 0.25:
                    return {"f": f}
        # Quadratic part bounded away from zero, so the chain-rule gap is not
        # already at roundoff at the first depth and must visibly shrink.
        sq = [rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5) for _ in range(2)]
        b, d, e = (rng.uniform(-1.0, 1.0) for _ in range(3))
        terms = zip((sq[0], b, sq[1], d, e), ("x1^2", "x1*x2", "x2^2", "x1", "x2"))
        return {"G": "".join(f"{c:+.6f}*{t}" for c, t in terms)}

    def cli_args(self, inputs: dict, outdir: Path) -> list[str]:
        """Arguments after ``fracform``; seeded values use ``--opt=value`` so a
        leading minus sign is never read as an option."""
        args = [self.command, "--structure", self.structure]
        lo, hi = self.depths[0], self.depths[-1]
        out = str(outdir / self.out_name)
        if self.command == "scan":
            if self.family != "harmonic":
                args += ["--family", self.family]
            args += [f"--depths={lo}..{hi}", f"--workers={self.workers}"]
            args += ["--weights=" + ",".join(repr(w) for w in inputs["weights"])]
        elif self.command == "measure":
            args += ["--f=" + ",".join(f"{v:.6f}" for v in inputs["f"]), f"--depth={lo}"]
        else:
            args += [f"--G={inputs['G']}", f"--depths={lo}..{hi}"]
        return args + ["--out", out]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="scan-vicsek-level1",
            why="the scan kernel: k=15 Gram and refine dominate, 94% of cells "
            "skipped; shows a matrix-product kernel and subtree pruning",
            command="scan",
            structure="vicsek",
            n_letters=5,
            depths=tuple(range(2, 9)),
            family="level1",
            family_size=15,
            workers=2,
        ),
        Workload(
            name="scan-sg2-dense",
            why="the same scan dense: k=2, nothing skipped, 1.6M retained cells; "
            "eigvalsh, zeta and statistics weigh in, pruning cannot help",
            command="scan",
            structure="sg2",
            n_letters=3,
            depths=tuple(range(2, 14)),
            workers=2,
        ),
        Workload(
            name="measure-sg2-d12",
            why="emission: a 25 MB cell-mass CSV written after a short k=1 scan; "
            "the only workload where output formatting dominates",
            command="measure",
            structure="sg2",
            n_letters=3,
            depths=(12,),
        ),
        Workload(
            name="chainrule-sg2",
            why="deep vertex tables, lift and graph_energy, which no other "
            "workload runs past level 1",
            command="chainrule",
            structure="sg2",
            n_letters=3,
            depths=tuple(range(3, 13)),
        ),
    )
}


# ---------------------------------------------------------------------------
# output checks

_FINAL = re.compile(
    r"dimension estimate at depth (\d+): (-?\d+) \(weighted mean (\S+), "
    r"(\d+) cells retained, (\d+) skipped\)"
)
_CELLS = re.compile(r"cells: (\d+), total mass: (\S+)")
_CHAIN = re.compile(r"depth (\d+): lhs = (\S+), rhs = (\S+), rel_gap = (\S+)")


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-300)


def _csv_rows(path: Path) -> tuple[str, list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def _summarize_scan(wl: Workload, stdout: str, outdir: Path, problems: list[str]) -> dict:
    m = _FINAL.search(stdout)
    if not m:
        problems.append("scan: no final dimension-estimate line")
        return {}
    depth, rounded, _, retained, skipped = m.groups()
    depth, retained, skipped = int(depth), int(retained), int(skipped)
    if depth != wl.depths[-1]:
        problems.append(f"scan: final depth {depth}, expected {wl.depths[-1]}")
    if int(rounded) != 1:
        problems.append(f"scan: dimension estimate rounds to {rounded}, expected 1")
    if retained + skipped != wl.n_letters ** depth:
        problems.append(
            f"scan: retained {retained} + skipped {skipped} != {wl.n_letters}^{depth}"
        )
    header, rows = _csv_rows(outdir / PROFILE_CSV)
    if header != "depth,mean_lambda2,mean_residual,dim_estimate,skipped_cells":
        problems.append(f"scan: unexpected profile header {header!r}")
        return {}
    if [int(r[0]) for r in rows] != list(wl.depths):
        problems.append("scan: profile depths differ from the requested range")
        return {}
    lam2 = [float(r[1]) for r in rows]
    if any(b >= a for a, b in zip(lam2, lam2[1:])):
        problems.append("scan: mean_lambda2 does not fall with depth")
    if int(rows[-1][4]) != skipped:
        problems.append("scan: profile and final line disagree on skipped cells")
    return {
        "retained": retained,
        "skipped": skipped,
        "column_sums": [math.fsum(float(r[c]) for r in rows) for c in (1, 2, 3)],
    }


def _summarize_measure(wl: Workload, stderr: str, outdir: Path, problems: list[str]) -> dict:
    m = _CELLS.search(stderr)
    if not m:
        problems.append("measure: no 'cells: N, total mass: T' line")
        return {}
    printed_cells, printed_total = int(m.group(1)), float(m.group(2))
    expected = wl.n_letters ** wl.depths[0]
    data = (outdir / MASSES_CSV).read_bytes()
    lines = data.split(b"\n")
    if lines[0] != b"word,mass" or lines[-1] != b"":
        problems.append("measure: bad header or unterminated last row")
        return {}
    rows = lines[1:-1]
    if len(rows) != expected or printed_cells != expected:
        problems.append(
            f"measure: {len(rows)} rows and {printed_cells} printed cells, "
            f"expected {wl.n_letters}^{wl.depths[0]} = {expected}"
        )
    cols = [row.partition(b",") for row in rows]
    words = hashlib.sha256(b"\n".join(c[0] for c in cols))
    masses = [float(c[2]) for c in cols]
    total = math.fsum(masses)
    if not _close(total, printed_total):
        problems.append(f"measure: masses sum to {total!r}, printed total {printed_total!r}")
    low = min(masses, default=0.0)
    if low < 0.0:
        problems.append(f"measure: negative energy mass {low!r}")
    return {
        "rows": len(rows),
        "word_sha256": words.hexdigest(),
        "mass_sum": total,
        "mass_min": low,
        "mass_max": max(masses, default=0.0),
    }


def _summarize_chainrule(wl: Workload, stdout: str, outdir: Path, problems: list[str]) -> dict:
    printed = [tuple(float(x) for x in m.groups()) for m in _CHAIN.finditer(stdout)]
    header, rows = _csv_rows(outdir / CHAINRULE_CSV)
    if header != "depth,lhs,rhs,rel_gap":
        problems.append(f"chainrule: unexpected header {header!r}")
        return {}
    values = [tuple(float(x) for x in r) for r in rows]
    if [int(v[0]) for v in values] != list(wl.depths) or len(printed) != len(values):
        problems.append("chainrule: depths differ from the requested range")
        return {}
    for p, v in zip(printed, values):
        if any(not math.isclose(a, b, rel_tol=1e-5) for a, b in zip(p, v)):
            problems.append(f"chainrule: stdout and CSV disagree at depth {int(v[0])}")
    if not values[-1][3] < values[0][3]:
        problems.append("chainrule: rel_gap did not shrink from the first depth to the last")
    return {f"{name}_sum": math.fsum(v[c] for v in values)
            for c, name in ((1, "lhs"), (2, "rhs"), (3, "rel_gap"))}


def summarize(wl: Workload, stdout: str, stderr: str, outdir: Path) -> tuple[dict, list[str]]:
    """Compact summary of one run's outputs and the seed-independent problems found."""
    problems: list[str] = []
    try:
        if wl.command == "scan":
            summary = _summarize_scan(wl, stdout, outdir, problems)
        elif wl.command == "measure":
            summary = _summarize_measure(wl, stderr, outdir, problems)
        else:
            summary = _summarize_chainrule(wl, stdout, outdir, problems)
    except (OSError, ValueError, IndexError, UnicodeDecodeError) as exc:
        return {}, [f"{wl.command}: unreadable output ({exc})"]
    return summary, problems


def compare_reference(summary: dict, reference: dict) -> list[str]:
    """Differences between a summary and its stored reference: counts and
    digests exactly, floats within REL_TOL."""
    problems = []
    for key, want in reference.items():
        got = summary.get(key)
        if isinstance(want, float):
            ok = isinstance(got, float) and _close(got, want)
        elif isinstance(want, list):
            ok = isinstance(got, list) and len(got) == len(want) and all(
                _close(g, w) for g, w in zip(got, want)
            )
        else:
            ok = got == want
        if not ok:
            problems.append(f"reference mismatch on {key}: got {got!r}, expected {want!r}")
    return problems


def check_dir(wl: Workload, seed: int, outdir: Path) -> dict:
    """Check one run's captured streams and files in ``outdir``.

    ``problems`` hold for any seed; ``reference_problems`` compare the summary
    with ``reference.json``: all of it for the default seed, and for other
    seeds the entries that depend on the depth alone.
    """
    stdout = (outdir / STDOUT).read_text(encoding="utf-8", errors="replace")
    stderr = (outdir / STDERR).read_text(encoding="utf-8", errors="replace")
    summary, problems = summarize(wl, stdout, stderr, outdir)
    reference_problems = []
    if not problems:
        reference = json.loads((Path(__file__).parent / "reference.json").read_text())
        expected = reference.get(wl.name)
        if expected is None:
            reference_problems = [f"reference.json has no entry for {wl.name}"]
        else:
            if seed != DEFAULT_SEED:
                expected = {k: v for k, v in expected.items() if k in SEED_FREE_KEYS}
            reference_problems = compare_reference(summary, expected)
    return {"summary": summary, "problems": problems, "reference_problems": reference_problems}


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Check one benchmark run's outputs; prints the result as JSON. "
        "Runs in its own process so that parsing large outputs never inflates "
        "the benchmark process, whose peak RSS every later child inherits."
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, type=Path)
    args = parser.parse_args()
    print(json.dumps(check_dir(WORKLOADS[args.workload], args.seed, args.dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
