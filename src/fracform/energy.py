"""Piecewise harmonic functions, their energies, and cell measures.

A piecewise harmonic function of level m is determined by its values on the
depth-m vertex set: inside every depth-m cell it is the harmonic extension of
its own boundary values.  Energies of such functions stabilize at level m, so
E(f, g) is a finite sum over cells.  The (signed) energy measure of a pair
assigns each word cell twice the rescaled energy of the pulled-back pair, and
the full table of depth-n masses is what the dimension diagnostics consume.

The cell scan at the bottom of this module is the shared engine.  It maps
every member once into the pair's energy basis, scaled by each cell's
r_w^{-1/2} at the member's level, so that a cell's scaled energy is a squared
norm; stacks the members into one block; refines it one level at a time by
the pair's normalized letter matrices C~_i = r_i^{-1/2} C_i in fixed-size
lexicographic chunks; and hands back each cell's k x (d - 1) block X of
coordinates.  The pair mass of members i and j is twice the dot product of
rows i and j, so the cell's mass matrix is 2 X X^T and no k x k product is
formed.  Since sum_i C~_i^T C~_i = I, no cell's coordinates outgrow its
root's.  Given a mass floor, the scan does not refine a cell below it, since
masses are additive and nonnegative.  The chunk layout depends only on the
requested depth, and the chunks run one after another on the thread that
iterates the scan, so outputs are bitwise reproducible.

The same chunk walk (_scan_chunks) with the extension matrices A_i in place
of C~_i refines cell coefficients instead: _vertex_values scatters each chunk
onto its cells' vertex ids, which gives lift its values and embed and
chainrule their vertex coordinates, so the package walks a depth's cells one
way only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .config import CHUNK_CELLS, MEAN_RESIDUAL_TOL
from .errors import NumericalError, ValidationError
from .harmonic import HarmonicStructure, _weight_products, graph_energy
from .emit import WordColumn, write_table
from .structure import check_cell_cap, convex_weights


@dataclass(frozen=True, eq=False)
class PiecewiseHarmonic:
    """A function harmonic inside every cell of its level.

    values holds one number per vertex id of the level's vertex table; the
    per-cell boundary coefficients are the rows of cell_coeffs.  Restriction
    to a deeper cell is coefficient propagation by the letter extension
    matrices, applied in reverse word order.
    """

    structure: HarmonicStructure
    level: int
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)
        count = self.structure.spec.vertex_count(self.level)
        if vals.shape != (count,):
            raise ValidationError(
                f"level {self.level} needs {count} vertex values, got shape {vals.shape}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @cached_property
    def cell_coeffs(self) -> np.ndarray:
        """Boundary values of the restriction to each cell, in lex order."""
        table = self.structure.spec.vertex_table(self.level)
        coeffs = self.values[table.slots]
        coeffs.setflags(write=False)
        return coeffs


def _refine(extensions: np.ndarray, block: np.ndarray, levels: int) -> np.ndarray:
    """Coefficient rows of the cells ``levels`` below each row, in lex order."""
    for _ in range(levels):
        # Row c*N + (i-1) is A_i applied to row c: appending a letter
        # multiplies the coefficient map on the left.
        out = np.einsum("ipq,cq->cip", extensions, block, optimize=False)
        block = out.reshape(-1, block.shape[1])
    return block


def lift(f: PiecewiseHarmonic, level: int) -> PiecewiseHarmonic:
    """Re-express f at a deeper level; the function itself is unchanged.

    The values are _vertex_values' single column, so they come from the
    cell scan's chunk walk and no array of the level's cells is formed.
    """
    if level == f.level:
        return f
    if level < f.level:
        raise ValidationError(
            f"cannot lower a level-{f.level} function to level {level}"
        )
    return PiecewiseHarmonic(f.structure, level, _vertex_values([f], level)[:, 0])


def energy(f: PiecewiseHarmonic, g: PiecewiseHarmonic | None = None) -> float:
    """E(f, g): the network energy at the common representation level.

    For piecewise harmonics the level-m energies stabilize once m reaches the
    representation level, so this finite sum is the Dirichlet form itself.
    """
    if g is None:
        g = f
    if g.structure is not f.structure:
        raise ValidationError("cannot pair functions on different structures")
    m = max(f.level, g.level)
    return graph_energy(f.structure, m, lift(f, m).values, None if g is f else lift(g, m).values)


# ---------------------------------------------------------------------------
# the chunked cell scan


def _chunk_prefix_depth(n_letters: int, depth: int) -> int:
    t = 0
    while n_letters ** (depth - t) > CHUNK_CELLS:
        t += 1
    return t


def scan_cell_masses(
    hs: HarmonicStructure,
    members: Sequence[PiecewiseHarmonic],
    depth: int,
    workers: int = 1,
    weights: np.ndarray | None = None,
    floor: float | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (rows, coords) over depth-``depth`` cells in lex order.

    coords[c] is the k x (d - 1) block of the members' scaled energy
    coordinates on the cell at lex index rows[c], so the pair mass
    2 r_w^{-1} E(pullbacks of members i and j) is
    2 * coords[c, i] @ coords[c, j].  Requires depth at or above every
    member's level.  With a floor, a cell whose mass weighted by ``weights``
    falls below it is not refined and none of its descendants is yielded;
    without one, every cell is.  ``workers`` is not read.  It stays because
    perfbench/replay.py's scaling mode and test_bench_hooks pass it
    positionally, and without it their 2 would land on ``weights``.

    Validation (including the cell cap) happens at call time, not on the
    first ``next``, so callers may size buffers after calling this.
    """
    check_cell_cap(hs.spec.n_letters, depth)
    for m in members:
        if m.structure is not hs:
            raise ValidationError("family member built on a different structure")
        if m.level > depth:
            raise ValidationError(
                f"scan depth {depth} is below a member of level {m.level}"
            )
    if floor is not None and np.shape(weights) != (len(members),):
        raise ValidationError(f"a floor needs one weight per member, got {np.shape(weights)}")
    # Each member's energy coordinates, each cell's scaled by its r_w^{-1/2}.
    starts = [(m.level, m.cell_coeffs @ hs.energy_basis.T
               * np.sqrt(_weight_products(1.0 / hs.weights, m.level))[:, None]) for m in members]
    return _scan_chunks(hs.energy_letters, starts, depth, weights, floor)


def _scan_chunks(
    letters: np.ndarray, starts: Sequence[tuple[int, np.ndarray]], depth: int,
    weights: np.ndarray | None = None, floor: float | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The chunked walk of every depth-``depth`` cell, in lex order.

    letters holds the n letter matrices (n x m x m) that append a letter to
    a cell's row of m coefficients, and each start is a (level, rows) pair
    with one row per cell of that level, in lex order.  Yields (rows, x),
    with x[c] the k x m block of the starts' rows on the cell at lex index
    rows[c]; the floor prunes as in scan_cell_masses.  Each chunk is formed
    when the walk is iterated, on the iterating thread, so only one chunk is
    alive at a time.
    """
    n, m, k = letters.shape[0], letters.shape[-1], len(starts)
    t = _chunk_prefix_depth(n, depth)
    width = n ** (depth - t)
    # Every start's rows at depth ``top``, start-major, with block[i, c]
    # start i's rows under chunk c.  Refinement sends row c to rows
    # c*n .. c*n+n-1, so each start's rows stay contiguous.
    top = max([t] + [level for level, _ in starts])
    block = np.concatenate(
        [_refine(letters, rows, top - level) for level, rows in starts]
    ).reshape(k, n**t, -1, m)
    row_sum = np.ones(m)
    for chunk in range(n**t):
        # rows: in-chunk lex indices of the live cells; None while all live.
        x, rows = np.ascontiguousarray(block[:, chunk]), None
        for _ in range(top, depth):
            if floor is not None:
                mass = (weights @ (x * x).reshape(k, -1)).reshape(-1, m) @ row_sum
                live = 2.0 * mass >= floor
                if not live.all():
                    x = x[:, live]
                    rows = np.flatnonzero(live) if rows is None else rows[live]
            x = _refine(letters, x.reshape(-1, m), 1).reshape(k, -1, m)
            rows = None if rows is None else (rows[:, None] * n + np.arange(n)).ravel()
        rows = np.arange(width) if rows is None else rows
        yield chunk * width + rows, x.transpose(1, 0, 2)


def _vertex_values(members: Sequence[PiecewiseHarmonic], level: int) -> np.ndarray:
    """The members' values on the level's vertex ids, one column each.

    The chunk walk refines the members' cell coefficients by the extension
    matrices, and each chunk is scattered onto its cells' vertex ids as it
    arrives, in lex order, so where cells share a vertex the last one wins,
    as in one whole-level scatter.  Requires level at or above every
    member's.
    """
    hs = members[0].structure
    starts = [(m.level, m.cell_coeffs) for m in members]
    table = hs.spec.vertex_table(level)
    values = np.empty((table.num_vertices, len(members)))
    for rows, x in _scan_chunks(hs.extensions, starts, level):
        values[table.slots[rows]] = x.transpose(0, 2, 1)
    return values


# ---------------------------------------------------------------------------
# measure tables


@dataclass(frozen=True, eq=False)
class CellMeasureTable:
    """Masses of one pair measure on all cells of a fixed depth.

    masses[c] is the (signed, if the pair is mixed) mass of the cell with lex
    index c; total is their sum and equals 2 E(f, g) up to roundoff.
    """

    depth: int
    n_letters: int
    masses: np.ndarray
    total: float

    def coarsen(self) -> "CellMeasureTable":
        """Aggregate one level up by summing letter blocks."""
        if self.depth == 0:
            raise ValidationError("cannot coarsen a depth-0 table")
        masses = self.masses.reshape(-1, self.n_letters).sum(axis=1)
        return CellMeasureTable(
            depth=self.depth - 1,
            n_letters=self.n_letters,
            masses=masses,
            total=float(np.sum(masses)),
        )

    def write_csv(self, target) -> None:
        """Emit `word,mass` rows to a path, or to stdout when ``target`` is None."""
        words = WordColumn(range(self.masses.size), self.depth, self.n_letters)
        write_table(target, ("word", "mass"), (words, self.masses))


def measure_table(
    f: PiecewiseHarmonic,
    g: PiecewiseHarmonic | None = None,
    depth: int = 0,
) -> CellMeasureTable:
    """All cell masses of the pair measure at the given depth."""
    if depth < 0:
        raise ValidationError("depth must be nonnegative")
    hs = f.structure
    n = hs.spec.n_letters
    same = g is None or g is f
    members = [f] if same else [f, g]
    scan_depth = max([depth] + [m.level for m in members])
    j = 0 if same else 1
    blocks = scan_cell_masses(hs, members, scan_depth)  # checks the cell cap
    per_cell = np.empty(n ** scan_depth)
    for rows, x in blocks:
        per_cell[rows] = 2.0 * np.einsum("ca,ca->c", x[:, 0], x[:, j], optimize=False)
    if scan_depth > depth:
        masses = per_cell.reshape(n ** depth, -1).sum(axis=1)
    else:
        masses = per_cell
    return CellMeasureTable(
        depth=depth, n_letters=n, masses=masses, total=float(np.sum(masses))
    )


# ---------------------------------------------------------------------------
# reference measure and normalization


@dataclass(frozen=True, eq=False)
class MeanFunctional:
    """Integration against the self-similar reference measure.

    coefficients is the vector representing u -> integral of the harmonic
    function with boundary values u; integrals of deeper piecewise harmonics
    follow by cell decomposition with the product measure weights.
    """

    coefficients: np.ndarray
    measure_weights: np.ndarray
    residual: float

    def integrate(self, f: PiecewiseHarmonic) -> float:
        mu = _weight_products(self.measure_weights, f.level)
        return float(np.sum((f.cell_coeffs @ self.coefficients) * mu))


def mean_functional(hs: HarmonicStructure, mu_weights=None) -> MeanFunctional:
    """Solve the self-similarity fixed point for the mean coefficient vector.

    The vector m satisfies m = sum_i mu_i A_i^T m with m(1) = 1, which pins
    down integration of harmonic functions against the self-similar measure
    with the given letter weights (uniform by default).
    """
    n, d = hs.spec.n_letters, hs.d
    mu = np.full(n, 1.0 / n) if mu_weights is None else mu_weights
    mu = convex_weights(mu, n, "measure weights")
    transfer = np.einsum("i,ipq->qp", mu, hs.extensions, optimize=False)
    system = np.vstack([transfer - np.eye(d), np.ones((1, d))])
    rhs = np.zeros(d + 1)
    rhs[-1] = 1.0
    coeffs, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    residual = max(
        float(np.linalg.norm(transfer @ coeffs - coeffs)),
        abs(float(coeffs.sum()) - 1.0),
    )
    if not residual <= MEAN_RESIDUAL_TOL:
        raise NumericalError(
            f"mean fixed point did not solve cleanly (residual {residual:.3g})"
        )
    coeffs.setflags(write=False)
    mu.setflags(write=False)
    return MeanFunctional(coefficients=coeffs, measure_weights=mu, residual=residual)


def normalize_xi(f: PiecewiseHarmonic, mean: MeanFunctional) -> PiecewiseHarmonic:
    """Center by the reference mean and scale so that twice the energy is 1.

    Constant functions (zero energy) map to the zero function.
    """
    if float(np.ptp(f.values)) == 0.0:
        return PiecewiseHarmonic(f.structure, f.level, np.zeros_like(f.values))
    twice = 2.0 * energy(f)
    if twice <= 0.0:
        return PiecewiseHarmonic(f.structure, f.level, np.zeros_like(f.values))
    center = mean.integrate(f)
    return PiecewiseHarmonic(
        f.structure, f.level, (f.values - center) / np.sqrt(twice)
    )
