"""Piecewise harmonic functions, their energies, and cell measures.

A piecewise harmonic function of level m is determined by its values on the
depth-m vertex set: inside every depth-m cell it is the harmonic extension of
its own boundary values.  Energies of such functions stabilize at level m, so
E(f, g) is a finite sum over cells.  The (signed) energy measure of a pair
assigns each word cell twice the rescaled energy of the pulled-back pair, and
the full table of depth-n masses is what the dimension diagnostics consume.

The cell scan at the bottom of this module is the shared engine.  It maps
every member once into the pair's energy basis, where a cell's energy is a
squared norm, stacks the members into one block, refines it one level at a
time by the pair's energy letter matrices in fixed-size lexicographic chunks,
and hands back Gram blocks of pair masses (exactly symmetric and positive
semidefinite in floating point).  The chunk layout depends only on the
requested depth, never on the worker count, and all reductions run in
lexicographic order, so outputs are bitwise reproducible.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .config import CHUNK_CELLS, CONSISTENCY_TOL, MEAN_RESIDUAL_TOL
from .errors import NumericalError, ValidationError
from .harmonic import HarmonicStructure, graph_energy
from .emit import WordColumn, write_table
from .structure import check_cell_cap


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
        vals = np.asarray(self.values, dtype=float)
        count = self.structure.spec.vertex_count(self.level)
        if vals.shape != (count,):
            raise ValidationError(
                f"level {self.level} needs {count} vertex values, got shape {vals.shape}"
            )
        if not vals.flags.writeable:
            object.__setattr__(self, "values", vals)
        else:
            vals = vals.copy()
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


def _weight_products(weights: np.ndarray, depth: int) -> np.ndarray:
    """Per-word products of letter weights at the given depth, in lex order."""
    out = np.ones(1)
    for _ in range(depth):
        out = np.kron(out, weights)
    return out


def lift(f: PiecewiseHarmonic, level: int) -> PiecewiseHarmonic:
    """Re-express f at a deeper level; the function itself is unchanged."""
    if level == f.level:
        return f
    if level < f.level:
        raise ValidationError(
            f"cannot lower a level-{f.level} function to level {level}"
        )
    hs = f.structure
    table = hs.spec.vertex_table(level)
    block = _refine(hs.extensions, f.cell_coeffs, level - f.level)
    values = np.empty(table.num_vertices)
    values[table.slots.ravel()] = block.ravel()
    return PiecewiseHarmonic(hs, level, values)


def energy(f: PiecewiseHarmonic, g: PiecewiseHarmonic | None = None) -> float:
    """E(f, g): the network energy at the common representation level.

    For piecewise harmonics the level-m energies stabilize once m reaches the
    representation level, so this finite sum is the Dirichlet form itself.
    """
    if g is None:
        g = f
    if g.structure is not f.structure:
        raise ValidationError("cannot pair functions on different structures")
    hs = f.structure
    m = max(f.level, g.level)
    inv = _weight_products(1.0 / hs.weights, m)
    slots = hs.spec.vertex_table(m).slots
    return graph_energy(slots, inv, hs.laplacian, lift(f, m).values, lift(g, m).values)


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
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (start_index, mass_block) over depth-``depth`` cells in lex order.

    mass_block[c, i, j] is the pair mass 2 r_w^{-1} E(pullbacks of members i
    and j) for the cell at lex index start_index + c.  Requires depth at or
    above every member's level.  The chunk layout is a fixed function of the
    depth, so results do not depend on ``workers``.

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
    return _scan_chunks(hs, members, depth, workers)


def _scan_chunks(
    hs: HarmonicStructure,
    members: Sequence[PiecewiseHarmonic],
    depth: int,
    workers: int,
) -> Iterator[tuple[int, np.ndarray]]:
    n = hs.spec.n_letters
    t = _chunk_prefix_depth(n, depth)
    inv_letter = 1.0 / hs.weights
    inv_prefix = _weight_products(inv_letter, t)
    inv_tail = _weight_products(inv_letter, depth - t)
    letters, k = hs.energy_letters, len(members)
    width = n ** (depth - t)
    # Every member's energy coordinates at depth ``top``, member-major, with
    # block[i, c] member i's rows under chunk c.  Refinement sends row c to
    # rows c*n .. c*n+n-1, so each member's rows stay contiguous.
    top = max([t] + [m.level for m in members])
    block = np.concatenate(
        [_refine(letters, m.cell_coeffs @ hs.energy_basis.T, top - m.level) for m in members]
    ).reshape(k, n**t, -1, hs.d - 1)

    def one_chunk(chunk: int) -> tuple[int, np.ndarray]:
        rooted = _refine(letters, block[:, chunk].reshape(-1, hs.d - 1), depth - top)
        rooted = rooted.reshape(k, width, hs.d - 1)
        gram = np.einsum("ica,jca->cij", rooted, rooted, optimize=False)
        gram *= (2.0 * inv_prefix[chunk]) * inv_tail[:, None, None]
        return chunk * width, gram

    chunks = range(n ** t)
    if workers <= 1:
        for chunk in chunks:
            yield one_chunk(chunk)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # Submit in bounded waves so at most ``workers`` Gram blocks are alive.
        for lo in range(0, len(chunks), workers):
            yield from pool.map(one_chunk, chunks[lo : lo + workers])


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
    workers: int = 1,
) -> CellMeasureTable:
    """All cell masses of the pair measure at the given depth."""
    if depth < 0:
        raise ValidationError("depth must be nonnegative")
    hs = f.structure
    n = hs.spec.n_letters
    same = g is None or g is f
    members = [f] if same else [f, g]
    scan_depth = max([depth] + [m.level for m in members])
    blocks = scan_cell_masses(hs, members, scan_depth, workers)
    per_cell = np.empty(n ** scan_depth)
    col = (0, 0) if same else (0, 1)
    for start, gram in blocks:
        per_cell[start : start + gram.shape[0]] = gram[:, col[0], col[1]]
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
    if mu_weights is None:
        mu = np.full(n, 1.0 / n)
    else:
        mu = np.asarray(mu_weights, dtype=float)
        if mu.shape != (n,):
            raise ValidationError(f"need one measure weight per letter, got {mu.shape}")
        if not np.all(mu > 0.0):
            raise ValidationError("measure weights must be positive")
        if not abs(float(mu.sum()) - 1.0) <= CONSISTENCY_TOL:
            raise ValidationError("measure weights must sum to 1")
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
