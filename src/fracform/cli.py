"""Command-line surface.

Five subcommands: ``validate`` (structure and harmonic-pair checks plus the
eigen table), ``measure`` (cell-mass CSV for one function pair), ``scan``
(rank diagnostics over a depth range), ``embed`` (vertex coordinates and
per-cell metric export), and ``chainrule`` (discrete chain-rule convergence
report for a polynomial of the coordinates).

Exit codes: 0 on success, 1 when a mathematical or validation check fails,
2 when input cannot be read or parsed.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import (CHUNK_CELLS, COINCIDENCE_DECIMALS, CONSISTENCY_TOL, FIXED_POINT_TOL,
                     MASS_FLOOR, TAU_RANK)
from .errors import (
    FracformError,
    NumericalError,
    ParseError,
    ValidationError,
)
from .emit import WordColumn, table_writer, write_table
from .structure import (
    StructureSpec,
    _floats,
    _integer,
    boundary_deletion_connected,
    builtin_structure_path,
    check_cell_cap,
    convex_weights,
    load_structure,
)
from .harmonic import HarmonicStructure, eigen_data, graph_energy, harmonic_structure
from .energy import (
    MeanFunctional,
    PiecewiseHarmonic,
    _vertex_values,
    energy,
    # No command lifts since embed and chainrule take their coordinates from
    # _vertex_values, but the benchmark's tracer (perfbench/replay.py
    # instrument) wraps cli.lift, so the name stays importable here.
    lift,  # noqa: F401
    mean_functional,
    measure_table,
    scan_cell_masses,
)
from .dimension import (
    FunctionFamily,
    check_field_bytes,
    density_matrices,
    family_from_values,
    harmonic_family,
    level1_family,
    rank_statistics,
    verify_field_invariants,
    write_profile_csv,
    # No command calls zeta_factors since embed reads each chunk's zeta as it
    # streams, but the benchmark's tracer (perfbench/replay.py instrument)
    # wraps cli.zeta_factors, so the name stays importable here.
    zeta_factors,  # noqa: F401
)


@dataclass(frozen=True)
class RunConfig:
    """Validated bundle of common run parameters.

    ``workers`` (``--workers``) is range-checked here and read by nothing
    after the check: every scan runs on the thread that iterates it.
    """

    structure_path: str
    depths: Sequence[int]
    family: str = "harmonic"
    weights: tuple[float, ...] | None = None
    mu: tuple[float, ...] | None = None
    tau_rank: float = TAU_RANK
    mass_floor: float = MASS_FLOOR
    workers: int = 1

    def __post_init__(self) -> None:
        # Option ranges are input errors (exit 2), like malformed values.
        # depths is an ascending range or at most two depths, so its ends
        # bound it; a --depths range is never walked here.
        if not self.depths:
            raise ParseError("at least one depth is required")
        if min(self.depths[0], self.depths[-1]) < 0:
            raise ParseError("depths must be nonnegative")
        if not 0.0 < self.tau_rank < 1.0:
            raise ParseError("--tau-rank must lie strictly between 0 and 1")
        if not 0.0 < self.mass_floor < 1.0:
            raise ParseError("--mass-floor must lie strictly between 0 and 1")
        if self.workers < 1:
            raise ParseError("--workers must be at least 1")


# ---------------------------------------------------------------------------
# small parsers


def _parse_floats(text: str, what: str) -> tuple[float, ...]:
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise ParseError(f"{what} must be a comma-separated number list, got {text!r}") from exc
    return tuple(_floats(values, what).tolist())


def _parse_depths(depths: str) -> range:
    m = re.fullmatch(r"(\d+)\.\.(\d+)", depths.strip())
    if not m:
        raise ParseError(f"--depths expects A..B, got {depths!r}")
    lo, hi = int(m.group(1)), int(m.group(2))
    if hi < lo:
        raise ParseError(f"--depths range is empty: {depths!r}")
    return range(lo, hi + 1)


def resolve_structure(token: str) -> StructureSpec:
    """A builtin name or a path to a structure document.  A token without a
    path separator is a builtin when ``data/<token>.json`` ships with the
    package; any other token is a path."""
    path: str | Path = token
    if Path(token).name == token:
        try:
            path = builtin_structure_path(token)
        except ParseError:
            pass
    return load_structure(path)


def _read_levelled_file(kind: str, token: str, key: str, convert):
    """Read a 'file:PATH' JSON object as (level, converted ``key`` field);
    ``convert(value, what)`` raises ParseError naming the field."""
    path = Path(token[len("file:") :])
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{kind} file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or key not in raw:
        raise ParseError(f"{kind} file {path} needs 'level' and {key!r}")
    where = f"{kind} file {path}:"
    level = _integer(raw.get("level", 0), f"{where} 'level'")
    if level < 0:
        raise ParseError(f"{where} 'level' must be >= 0, got {level}")
    try:
        return level, convert(raw[key], f"{where} {key!r}")
    except TypeError as exc:
        raise ParseError(f"{where} bad {key!r} field: {exc}") from exc


def _load_function(hs: HarmonicStructure, token: str) -> PiecewiseHarmonic:
    """Function spec: 'file:PATH' (JSON with level and values) or a comma
    list of boundary values for a harmonic function."""
    if token.startswith("file:"):
        level, values = _read_levelled_file("function", token, "values", _floats)
        return PiecewiseHarmonic(hs, level, values)
    return PiecewiseHarmonic(hs, 0, _parse_floats(token, "function values"))


def _build_family(
    hs: HarmonicStructure, config: RunConfig, mean: MeanFunctional
) -> FunctionFamily:
    if config.family == "harmonic":
        family = harmonic_family(hs, mean)
    elif config.family == "level1":
        family = level1_family(hs, mean)
    elif config.family.startswith("file:"):
        level, members = _read_levelled_file(
            "family", config.family, "members",
            lambda rows, what: [_floats(row, what) for row in rows],
        )
        family = family_from_values(hs, level, members, mean=mean)
    else:
        raise ParseError(
            f"unknown family {config.family!r}; use harmonic, level1, or file:PATH"
        )
    if config.weights is None:
        return family
    weights = convex_weights(config.weights, family.size, "--weights", ParseError)
    return FunctionFamily(family.members, weights)


def _family_run(args, depths: Sequence[int], **fields):
    """Config, structure, harmonic pair and family for scan, embed and
    chainrule; every depth is checked against the cell cap before any work,
    and against the family's level once the family is built."""
    config = RunConfig(
        structure_path=args.structure,
        depths=depths,
        family=args.family,
        weights=_parse_floats(args.weights, "--weights") if args.weights else None,
        mu=_parse_floats(args.mu, "--mu") if args.mu else None,
        workers=args.workers,
        **fields,
    )
    spec = resolve_structure(args.structure)
    for depth in config.depths:
        check_cell_cap(spec.n_letters, depth)
    mu = convex_weights(config.mu, spec.n_letters, "--mu", ParseError) if config.mu else None
    hs = harmonic_structure(spec)
    mean = mean_functional(hs, mu)
    family = _build_family(hs, config, mean)
    # A --depths range is ascending, so its first depth is its lowest.
    level = max(m.level for m in family.members)
    names = ("--depth", "--vertex-depth") if args.command == "embed" else ("depth",)
    for name, depth in zip(names, config.depths):
        if depth < level:
            raise ValidationError(
                f"{args.command} {name} {depth} is below a member of level {level}"
            )
    return config, spec, hs, family


# ---------------------------------------------------------------------------
# polynomials for the chain-rule command


@dataclass(frozen=True)
class Polynomial:
    """Expanded multivariate polynomial over variables x1..xn."""

    nvars: int
    terms: tuple[tuple[float, tuple[int, ...]], ...]

    _FACTOR = re.compile(r"^x(\d+)(?:\^(\d+))?$")

    @classmethod
    def parse(cls, text: str, nvars: int) -> "Polynomial":
        # Signs split terms, except exponent signs of float literals; a run of
        # signs ("+ -3") multiplies into the coefficient of the next term.
        parts = re.split(r"(?<![eE])([+-])", text.replace(" ", ""))
        terms: list[tuple[float, tuple[int, ...]]] = []
        coeff = 1.0
        for pos, chunk in enumerate(parts):
            if pos % 2:
                coeff *= -1.0 if chunk == "-" else 1.0
                continue
            if not chunk:
                if pos == len(parts) - 1:
                    raise ParseError(f"malformed polynomial {text!r}")
                continue
            powers = [0] * nvars
            for factor in chunk.split("*"):
                m = cls._FACTOR.match(factor)
                if m:
                    idx = int(m.group(1))
                    if not 1 <= idx <= nvars:
                        raise ParseError(
                            f"variable x{idx} out of range (polynomial has {nvars} variables)"
                        )
                    powers[idx - 1] += int(m.group(2) or 1)
                    continue
                try:
                    value = float(factor)
                except ValueError as exc:
                    raise ParseError(f"bad polynomial factor {factor!r}") from exc
                if not np.isfinite(value):
                    raise ParseError(f"polynomial factor {factor!r} is not finite")
                coeff *= value
            if not np.isfinite(coeff):
                raise ParseError(f"coefficient of polynomial term {chunk!r} is not finite")
            terms.append((coeff, tuple(powers)))
            coeff = 1.0
        return cls(nvars=nvars, terms=tuple(terms))

    def __call__(self, points: np.ndarray) -> np.ndarray:
        # CHUNK_CELLS rows at a time, so no term's temporary is as long as
        # the points and out is the only array that is.
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(points.shape[0])
        for lo in range(0, len(out), CHUNK_CELLS):
            block, part = points[lo : lo + CHUNK_CELLS], out[lo : lo + CHUNK_CELLS]
            for coeff, powers in self.terms:
                term = np.full(len(block), coeff)
                for var, p in enumerate(powers):
                    if p:
                        term = term * block[:, var] ** p
                part += term
        return out

    def gradient(self) -> tuple["Polynomial", ...]:
        grads = []
        for var in range(self.nvars):
            terms = []
            for coeff, powers in self.terms:
                if powers[var] == 0:
                    continue
                lowered = list(powers)
                lowered[var] -= 1
                terms.append((coeff * powers[var], tuple(lowered)))
            grads.append(Polynomial(nvars=self.nvars, terms=tuple(terms)))
        return tuple(grads)


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    spec = resolve_structure(args.structure)
    table1 = spec.vertex_table(1)
    print(
        f"structure: {spec.name or args.structure} "
        f"({spec.n_letters} letters, {spec.d} boundary vertices, |V_1| = {table1.num_vertices})"
    )
    hs = harmonic_structure(spec)
    print("laplacian: symmetric, nonpositive definite, kernel = constants, "
          "off-diagonal entries nonnegative")
    print(f"weights: {np.array2string(hs.weights, precision=10)}")
    print(f"fixed-point residual: {hs.residual:.3e} "
          f"(tolerance {FIXED_POINT_TOL:.0e})")
    checks = boundary_deletion_connected(spec)
    for label, ok in checks:
        status = "connected" if ok else "DISCONNECTED"
        print(f"level-1 network without {label}: {status}")
    if not all(ok for _, ok in checks):
        raise ValidationError(
            "removing a boundary vertex disconnects the level-1 network"
        )
    for i in range(1, hs.d + 1):
        data = eigen_data(hs, i)
        spectrum = np.sort(np.abs(np.linalg.eigvals(hs.extensions[i - 1])))[::-1]
        print(
            f"letter {i}: r = {hs.weights[i - 1]:.12g}, "
            f"|spectrum| = {np.array2string(spectrum, precision=10)}, "
            f"energy mass = {data.energy_mass:.12g}, "
            f"second modulus = {data.second_modulus:.12g}"
        )
        print(f"  left  = {np.array2string(data.left, precision=10)}")
        print(f"  right = {np.array2string(data.right, precision=10)}")
    print("ok")
    return 0


def cmd_measure(args) -> int:
    config = RunConfig(
        structure_path=args.structure,
        depths=(args.depth,),
        workers=args.workers,
    )
    spec = resolve_structure(args.structure)
    hs = harmonic_structure(spec)
    f = _load_function(hs, args.f)
    g = _load_function(hs, args.g) if args.g else None
    depth = config.depths[0]
    table = measure_table(f, g, depth)
    twice = 2.0 * energy(f, g)
    scale = max(1.0, abs(twice))
    if not abs(table.total - twice) <= CONSISTENCY_TOL * scale:  # NaN fails too
        raise ValidationError(
            f"total mass {table.total!r} disagrees with twice the energy {twice!r}"
        )
    if depth >= 1:
        parent = measure_table(f, g, depth - 1)
        gap = float(np.abs(table.coarsen().masses - parent.masses).max())
        if not gap <= CONSISTENCY_TOL * max(1.0, float(np.abs(parent.masses).max())):
            raise ValidationError(
                f"refinement sums disagree with the parent table by {gap:.3g}"
            )
    table.write_csv(args.out)
    print(f"cells: {table.masses.size}, total mass: {table.total:.17g}", file=sys.stderr)
    return 0


def cmd_scan(args) -> int:
    config, spec, _, family = _family_run(
        args, _parse_depths(args.depths), tau_rank=args.tau_rank, mass_floor=args.mass_floor
    )
    k, deepest, profiles = family.size, config.depths[-1], []
    header = ["word", "weight", *(f"lambda{i + 1}" for i in range(k)), "residual", "alpha"]

    def cell_rows(record: dict) -> None:
        # Past the min(k, d - 1) computed eigenvalues the spectrum is exactly 0.
        spectrum = record["eigenvalues"]
        put_cells((WordColumn(record["indices"], deepest, spec.n_letters), record["lam"],
                   np.pad(spectrum, ((0, 0), (0, k - spectrum.shape[1]))),
                   record["residuals"], record["alpha"] + 1))

    # --cells-out writes the deepest depth's rows as its chunks arrive.
    with table_writer(args.cells_out, header) if args.cells_out else nullcontext() as put_cells:
        for depth in config.depths:
            fld = None  # the previous depth's field is freed before the next is built
            on_chunk = cell_rows if put_cells and depth == deepest else None
            fld = density_matrices(family, depth, mass_floor=config.mass_floor,
                                   tau_rank=config.tau_rank, on_chunk=on_chunk)
            verify_field_invariants(fld)
            profile = rank_statistics(fld)
            profiles.append(profile)
            print(f"depth {depth}: mean_lambda2 = {profile.mean_lambda2:.6e}, "
                  f"mean_residual = {profile.mean_residual:.6e}, "
                  f"dim_estimate = {profile.dim_estimate:.6f}, "
                  f"skipped = {profile.skipped_cells}", file=sys.stderr)
        write_profile_csv(profiles, args.out)
    rounded = int(round(profile.dim_estimate))
    print(
        f"dimension estimate at depth {profile.depth}: {rounded} "
        f"(weighted mean {profile.dim_estimate:.6f}, "
        f"{profile.retained_cells} cells retained, {profile.skipped_cells} skipped)"
    )
    return 0


def _distinct_rows(rows: np.ndarray) -> int:
    """Number of distinct rows once rounded to COINCIDENCE_DECIMALS, comparing
    entries with == (so -0.0 equals 0.0).

    Stable argsorts by one rounded column at a time, from the first column to
    the last, give np.lexsort's order without a rounded copy of the table or
    lexsort's key copies; adjacent rows in that order are then rounded and
    compared 65,536 rows at a time.
    """
    order, block = np.arange(rows.shape[0]), 1 << 16
    for column in rows.T:
        key = np.round(column[order], COINCIDENCE_DECIMALS)
        order = order[np.argsort(key, kind="stable")]
    changes = 0
    for lo in range(1, rows.shape[0], block):
        ordered = np.round(rows[order[lo - 1 : lo + block]], COINCIDENCE_DECIMALS)
        changes += int(np.count_nonzero(np.any(ordered[1:] != ordered[:-1], axis=1)))
    return 1 + changes


def cmd_embed(args) -> int:
    vertex_depth = args.depth if args.vertex_depth is None else args.vertex_depth
    config, spec, _, family = _family_run(
        args, (args.depth, vertex_depth), mass_floor=args.mass_floor
    )
    k, cell_depth = family.size, config.depths[0]
    check_field_bytes(spec.n_letters ** cell_depth, cell_depth, k)

    coords = _vertex_values(family.members, vertex_depth)
    if not np.all(np.isfinite(coords)):
        raise NumericalError("vertex coordinates contain non-finite values")
    coincidences = len(coords) - _distinct_rows(coords)
    if coincidences:
        print(
            f"warning: coordinate map is not injective on V_{vertex_depth} "
            f"({coincidences} coincidences)",
            file=sys.stderr,
        )

    # nu and the metric need only the family's total mass, known before the
    # scan (the same sum as density_matrices' total_mass), so each chunk's
    # rows are written as the chunk arrives.
    total = float(np.sum(family.weights * np.asarray([2.0 * energy(m) for m in family.members])))
    finite = []

    def cell_rows(record: dict) -> None:
        # A C-ordered copy of the factors, as a joined column is, so that the
        # einsum's bits do not depend on the chunk's layout.
        y = np.ascontiguousarray(record["factors"])
        metric = np.einsum("cia,cja->cij", y, y, optimize=False) * total
        finite.append(bool(np.all(np.isfinite(metric))))
        # Summed member by member, so the norm does not depend on zeta's layout.
        square = sum(column * column for column in record["zeta"].T)
        put_cells((WordColumn(record["indices"], cell_depth, spec.n_letters),
                   record["lam"] / total, metric.reshape(len(y), -1),
                   record["zeta"] / np.sqrt(square)[:, None]))

    phis = [f"phi{j + 1}" for j in range(k)]
    zcols = [f"z{i + 1}_{j + 1}" for i in range(k) for j in range(k)]
    dirs = [f"dir{j + 1}" for j in range(k)]
    # Both tables replace their paths only once every check has passed.
    with table_writer(args.vertices_out, ["vertex", *phis]) as put_vertices, \
            table_writer(args.cells_out, ["word", "nu", *zcols, *dirs]) as put_cells:
        put_vertices((np.arange(len(coords)), coords))
        del coords  # the cells are scanned without the coordinates
        fld = density_matrices(family, cell_depth, mass_floor=config.mass_floor,
                               on_chunk=cell_rows)
        verify_field_invariants(fld)
        if not all(finite):
            raise NumericalError("per-cell metric contains non-finite values")
    print(
        f"vertices: {spec.vertex_count(vertex_depth)} at depth {vertex_depth}; "
        f"cells: {fld.size} retained of {spec.n_letters ** cell_depth} "
        f"at depth {cell_depth}; total cell mass {fld.sums[0] / total:.12f}"
    )
    return 0


def cmd_chainrule(args) -> int:
    config, spec, hs, family = _family_run(args, _parse_depths(args.depths))
    poly = Polynomial.parse(args.G, family.size)
    grads = poly.gradient()

    rows = []
    for depth in config.depths:
        coords = _vertex_values(family.members, depth)
        slots = spec.vertex_table(depth).slots

        # Each cell's gradient at its least-id corner, formed one scan chunk
        # at a time.  sum_ij dG_i dG_j m_ij = 2 |sum_i dG_i x_i|^2 per cell;
        # rhs is half the sum, summed per chunk first.
        def chunk_rhs(cells: np.ndarray, x: np.ndarray) -> float:
            points = coords[slots[cells].min(axis=1)]
            grad = np.column_stack([g(points) for g in grads])
            v = np.einsum("ci,cia->ca", grad, x, optimize=False)
            return float(np.sum(np.einsum("ca,ca->c", v, v, optimize=False)))

        scan = scan_cell_masses(hs, family.members, depth)
        rhs = float(np.sum(np.asarray([chunk_rhs(cells, x) for cells, x in scan])))
        # G's vertex values replace the coordinates, so graph_energy runs
        # without them, and none of this depth's arrays is alive while the
        # next depth's are built.
        coords = poly(coords)
        lhs = graph_energy(hs, depth, coords)
        del coords, slots
        if rhs <= 0.0:
            raise ValidationError(
                f"degenerate quadratic form at depth {depth}: right side is {rhs!r}"
            )
        gap = abs(lhs - rhs) / rhs
        rows.append((depth, lhs, rhs, gap))
        print(f"depth {depth}: lhs = {lhs:.12g}, rhs = {rhs:.12g}, rel_gap = {gap:.6e}")
    if args.out:
        columns = [np.array(column) for column in zip(*rows)]
        write_table(args.out, ("depth", "lhs", "rhs", "rel_gap"), columns)
    return 0


# ---------------------------------------------------------------------------
# wiring


def _add_common(sub: argparse.ArgumentParser, family: bool = True) -> None:
    sub.add_argument("--structure", required=True,
                     help="builtin name (sg2, vicsek) or path to a structure JSON")
    sub.add_argument("--workers", type=int, default=1,
                     help="accepted and checked to be at least 1; every scan runs "
                          "on one thread whatever its value")
    if family:
        sub.add_argument("--family", default="harmonic",
                         help="harmonic | level1 | file:PATH")
        sub.add_argument("--weights", default=None,
                         help="comma-separated family weights a_i (default uniform)")
        sub.add_argument("--mu", default=None,
                         help="comma-separated reference measure weights (default uniform)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracform",
        description="Dirichlet-form energy measures and rank diagnostics "
                    "on p.c.f. self-similar sets",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check a structure and its harmonic pair")
    p.add_argument("--structure", required=True)
    p.set_defaults(func=cmd_validate)

    p = subs.add_parser("measure", help="emit the cell-mass CSV of a function pair")
    _add_common(p, family=False)
    p.add_argument("--f", required=True, help="boundary values 'a,b,c' or file:PATH")
    p.add_argument("--g", default=None, help="second function (defaults to f)")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--out", default=None, help="CSV path (stdout when omitted)")
    p.set_defaults(func=cmd_measure)

    p = subs.add_parser("scan", help="rank diagnostics over a depth range")
    _add_common(p)
    p.add_argument("--depths", required=True, help="inclusive range A..B")
    p.add_argument("--tau-rank", type=float, default=TAU_RANK, dest="tau_rank")
    p.add_argument("--mass-floor", type=float,
                   default=MASS_FLOOR, dest="mass_floor")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="profile CSV path (stdout when omitted)")
    p.add_argument("--cells-out", default=None, dest="cells_out",
                   help="per-cell CSV at the deepest level")
    p.set_defaults(func=cmd_scan)

    p = subs.add_parser("embed", help="vertex coordinates and per-cell metric CSVs")
    _add_common(p)
    p.add_argument("--depth", type=int, required=True, help="cell depth")
    p.add_argument("--vertex-depth", type=int, default=None, dest="vertex_depth")
    p.add_argument("--mass-floor", type=float,
                   default=MASS_FLOOR, dest="mass_floor")
    p.add_argument("--vertices-out", required=True, dest="vertices_out")
    p.add_argument("--cells-out", required=True, dest="cells_out")
    p.set_defaults(func=cmd_embed)

    p = subs.add_parser("chainrule", help="discrete chain-rule convergence report")
    _add_common(p)
    p.add_argument("--G", required=True, help="polynomial in x1..xk, e.g. 'x1^2'")
    p.add_argument("--depths", required=True, help="inclusive range A..B")
    p.add_argument("--out", default=None, help="optional CSV path")
    p.set_defaults(func=cmd_chainrule)
    for sub in subs.choices.values():
        sub.allow_abbrev = False  # so --depth cannot stand for --depths
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Overflow, NaN and division by zero stop the run instead of flowing
        # into the output.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FracformError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
