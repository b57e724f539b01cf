"""Per-cell energy-density matrices and rank-one diagnostics.

Given a finite family of normalized piecewise harmonic functions with convex
weights, the combined measure assigns each word cell a mass, and each cell
carries the matrix of pair masses divided by that cell mass.  The scan hands
out each cell's k x (d - 1) block of energy coordinates rather than that
k x k matrix, which gives the factor Y with Z = Y Y^T, of rank at most d - 1.
One reduction per scan chunk, run as the chunk arrives, computes every
per-cell quantity from the chunk's own Y, as one record of named columns:
the mass, the min(k, d - 1) computed eigenvalues of the (d - 1) x (d - 1)
weighted Gram of Y (in closed form on a three-point boundary, d - 1 = 2, by
eigvalsh otherwise), the rank-one pivot, factor and residual, and the
weighted-trace gap.  The density field streams those records: as each chunk
arrives it adds one row of partial sums for the rank statistics and its
extremes for the invariant checks, and is handed, in lex order, to the
caller's per-chunk hook, which is how the commands write per-cell tables as
the scan runs.  So a field holds no per-cell column, only the chunk in hand;
a library read of its columns, Y or the rank-one factors forms them all by
running the scan again.
The reduction keeps every per-cell array cells-last, so that each einsum
contracts along the cells axis: Y as (k, d - 1, cells), its diagonal and
zeta as (k, cells), P as (k, d - 1, cells) and the Grams as
(d - 1, d - 1, cells).  An einsum's summation order follows its operands'
storage, so every output's bits depend on that layout; the elementwise steps
run in place, in the order of the plain formulas, which keeps the bits and
spares each chunk a fresh array, and its page faults, per step.
Deeper cells concentrate these matrices toward rank one; the statistics here
quantify that concentration: second eigenvalues of the trace-one weighted
matrices, the rank-one factorization residuals, and a weighted
eigenvalue-count estimate of the effective dimension.

The module also provides the scaled masses of constant-letter cells and
their closed-form limits, which drive the run-word analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .config import (
    FAMILY_NORM_TOL,
    MASS_FLOOR,
    MAX_FIELD_BYTES,
    PIVOT_TIE_TOL,
    PSD_TOL,
    REPRESENTING_TOL,
    TAU_RANK,
    TRACE_IDENTITY_TOL,
)
from .errors import CapExceededError, NumericalError, ValidationError
from .harmonic import EigenData, HarmonicStructure, graph_energy
from .emit import write_table
from .energy import (
    MeanFunctional,
    PiecewiseHarmonic,
    energy,
    mean_functional,
    normalize_xi,
    scan_cell_masses,
)
from .structure import convex_weights

# ---------------------------------------------------------------------------
# families


@dataclass(frozen=True, eq=False)
class FunctionFamily:
    """Finitely many piecewise harmonic members with convex weights.

    Every member must carry twice-energy 1 within FAMILY_NORM_TOL, the
    normalization the density matrices are built on; a family is refused
    when it is built otherwise.  total_mass, sum_i a_i 2E(e_i), is the
    family's combined mass, which the scan's floor and embed's nu and metric
    scale by, summed here only.
    """

    members: tuple[PiecewiseHarmonic, ...]
    weights: np.ndarray | None = None  # uniform when omitted
    total_mass: float = field(init=False)

    def __post_init__(self) -> None:
        k = len(self.members)
        if k == 0:
            raise ValidationError("family needs at least one member")
        w = np.full(k, 1.0 / k) if self.weights is None else self.weights
        w = convex_weights(w, k, "family weights")
        w.setflags(write=False)
        twice_energies = [2.0 * energy(member) for member in self.members]
        for i, twice in enumerate(twice_energies, 1):
            if abs(twice - 1.0) > FAMILY_NORM_TOL:
                raise ValidationError(f"family member {i} has twice-energy {twice!r}, expected 1")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "members", tuple(self.members))
        object.__setattr__(self, "total_mass", float(np.sum(w * np.asarray(twice_energies))))

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def structure(self) -> HarmonicStructure:
        return self.members[0].structure


def _orthonormalize(
    candidates: Sequence[PiecewiseHarmonic],
    mean: MeanFunctional,
) -> list[PiecewiseHarmonic]:
    """Gram-Schmidt in the 2E inner product after centering, dropping
    candidates that collapse onto the span of the earlier ones.  The
    candidates share one structure and level, so the sweep runs on their
    vertex-value arrays."""
    hs, level = candidates[0].structure, candidates[0].level
    out: list[np.ndarray] = []
    for cand in candidates:
        g = normalize_xi(cand, mean).values
        for member in out:
            g = g - (2.0 * graph_energy(hs, level, g, member)) * member
        twice = 2.0 * graph_energy(hs, level, g)
        if twice <= FAMILY_NORM_TOL:
            continue
        out.append(g / np.sqrt(twice))
    return [PiecewiseHarmonic(hs, level, g) for g in out]


def _indicator_family(
    hs: HarmonicStructure, level: int, mean: MeanFunctional | None
) -> FunctionFamily:
    """Orthonormalized interpolants of the level's vertex indicators; the
    constant direction drops, so the family has one member fewer than the
    level has vertices."""
    if mean is None:
        mean = mean_functional(hs)
    eye = np.eye(hs.spec.vertex_table(level).num_vertices)
    members = _orthonormalize([PiecewiseHarmonic(hs, level, row) for row in eye], mean)
    return FunctionFamily(tuple(members))


def harmonic_family(hs: HarmonicStructure, mean: MeanFunctional | None = None) -> FunctionFamily:
    """Orthonormal mean-zero harmonic members built from the boundary basis:
    d - 1 members on a d-point boundary."""
    return _indicator_family(hs, 0, mean)


def level1_family(hs: HarmonicStructure, mean: MeanFunctional | None = None) -> FunctionFamily:
    """Orthonormal members spanning the level-1 piecewise harmonics."""
    return _indicator_family(hs, 1, mean)


def family_from_values(
    hs: HarmonicStructure,
    level: int,
    value_rows,
    mean: MeanFunctional | None = None,
) -> FunctionFamily:
    """Family from explicit vertex-value rows, normalized member by member."""
    if mean is None:
        mean = mean_functional(hs)
    members = []
    for idx, row in enumerate(value_rows):
        f = normalize_xi(PiecewiseHarmonic(hs, level, row), mean)
        if float(np.ptp(f.values)) == 0.0:
            raise ValidationError(f"member {idx + 1} is constant; it carries no measure")
        members.append(f)
    return FunctionFamily(tuple(members))


# ---------------------------------------------------------------------------
# density matrices


# The per-cell columns a library read of a field forms, all at once.
CELL_COLUMNS = ("indices", "lam", "eigenvalues", "alpha", "residuals", "factors", "zeta")


@dataclass(frozen=True, eq=False)
class DensityMatrixField:
    """Rank statistics of all retained cells at one depth, and their per-cell
    columns on demand.

    Retained means the cell's combined mass stayed at or above the floor;
    rows are in lexicographic cell order throughout.  Every column is the
    same-named column of one reduction of each scan chunk (_density_chunk)
    over the chunk's own cells-last factor Y, k x (d - 1) per cell with
    Z = Y Y^T, so its bits do not depend on how the columns are assembled:
    each is one C-ordered, read-only array joined from C-ordered copies of
    the chunks' parts (_rescanned).  eigenvalues[c] holds the top
    min(k, d - 1) eigenvalues, descending, of the trace-one weighted form
    M = [sqrt(a_i a_j) Z_ij], from the weighted Gram Y^T diag(a) Y; since
    rank Z <= d - 1, the rest of M's spectrum is zero.  With d - 1 = 2 the
    two values are in closed form, lambda_2 from a Schur complement, so it is
    nonnegative and keeps its relative accuracy on nearly rank-one cells;
    other shapes take eigvalsh of the Gram.  alpha[c] is the 0-based member
    index with the largest weighted diagonal entry of Z (smallest index on
    ties), and residuals[c] the relative Frobenius gap between Z and its
    rank-one surrogate zeta zeta^T.

    The field itself holds what the statistics and the invariant checks read,
    streamed from the chunks as they arrive: ``sums``, the totals of
    lambda, lambda * lambda_2, lambda * residual and lambda times the count of
    eigenvalues above tau_rank (each a math.fsum of per-chunk np.sum
    partials), ``min_eigenvalue`` and ``worst_trace_gap``, the smallest
    computed eigenvalue and the largest |sum_i a_i |Y_i|^2 - 1| over the
    retained cells, and ``size``, the retained count; besides them it keeps
    the ``family`` it was built from, whose ``weights`` and ``size`` it
    reads as ``weights`` and ``family_size``, the ``depth``, the ``skipped``
    count and the absolute mass ``floor``.  The field holds no
    per-cell column: the first read of any of CELL_COLUMNS, among them
    ``factors`` (Y) and ``zeta`` (the rank-one factor), forms them all by
    running the deterministic scan that built the field (_records) again,
    and keeps them; ``matrices`` (Z) is formed from ``factors`` on each read.
    """

    family: FunctionFamily
    depth: int
    size: int
    skipped: int
    sums: tuple[float, ...]
    min_eigenvalue: float
    worst_trace_gap: float
    floor: float

    indices, lam, eigenvalues, alpha, residuals, factors, zeta = (
        property(lambda fld, name=name: fld._rescanned[name]) for name in CELL_COLUMNS)

    @property
    def weights(self) -> np.ndarray:
        return self.family.weights

    @property
    def family_size(self) -> int:
        return self.family.size

    @cached_property
    def _rescanned(self) -> dict[str, np.ndarray]:
        """CELL_COLUMNS by name, from the scan run again: each the join, in
        lexicographic order, of C-ordered copies of its chunks' same-named
        columns, so the column is C-ordered too, whatever the chunk's layout.

        The chunk records are kept until the scan ends, and each column is
        joined in turn while its parts are dropped, so the read holds one
        copy of the columns plus the one being joined.
        """
        records = list(_records(self.family, self.depth, self.floor))
        columns = {name: np.concatenate([np.ascontiguousarray(r.pop(name)) for r in records])
                   for name in CELL_COLUMNS}
        for column in columns.values():
            column.setflags(write=False)
        return columns

    @property
    def matrices(self) -> np.ndarray:
        """Z = Y Y^T per cell, k x k, formed on each read and not kept
        (exactly symmetric), once check_field_bytes admits the retained
        cells' matrices."""
        check_field_bytes(self.size, self.depth, self.family_size)
        y = self.factors
        z = np.einsum("cia,cja->cij", y, y, optimize=False)
        z.setflags(write=False)
        return z


def check_field_bytes(cells: int, depth: int, family_size: int) -> None:
    """Raise CapExceededError when k x k float64 matrices for ``cells``
    depth-``depth`` cells would exceed MAX_FIELD_BYTES.  The scan itself forms
    no such matrix; the bound is on the matrices that
    ``DensityMatrixField.matrices`` forms when read.  ``embed`` checks it at
    its cell depth too, though it forms each chunk's matrices only as it
    writes that chunk's rows."""
    need = cells * family_size * family_size * 8
    if need > MAX_FIELD_BYTES:
        raise CapExceededError(
            f"depth {depth} density field of {family_size} members needs {need} bytes, "
            f"cap is {MAX_FIELD_BYTES}"
        )


def _density_chunk(
    a: np.ndarray, floor: float, rows: np.ndarray, x: np.ndarray
) -> dict[str, np.ndarray]:
    """Every per-cell quantity of one scan chunk's retained cells, by name:
    ``indices``, the masses ``lam``, the ``factors`` Y, the spectra
    ``eigenvalues``, _zeta_block's ``alpha``, ``zeta`` and ``residuals``, and
    ``gap``, the chunk's worst weighted-trace gap as a length-1 array (0 when
    the chunk retains no cell).

    The mass is lambda = 2 sum_i a_i |x_i|^2, the factor
    Y = sqrt(2 / lambda) x, and the spectrum that of the
    (d - 1) x (d - 1) weighted Gram G = Y^T diag(a) Y, cut to its
    min(k, d - 1) computed values.  With d - 1 = 2 the spectrum is in closed
    form (_two_column_spectrum); every other shape takes eigvalsh of G.
    The trace gap is |sum_i a_i |Y_i|^2 - 1|, 0 in exact arithmetic.

    Y is stored cells-last, as (k, d - 1, cells): compressing along the last
    axis of the (k, d - 1, cells) view of x makes it so, and the per-cell
    contractions here and in _zeta_block then run along the cells axis
    instead of over tiny matrices one at a time.  An einsum's summation
    order follows its operands' storage, so every output's bits depend on
    that layout.  The trace gap is formed in the trace's own buffer.
    """
    lam = 2.0 * np.einsum("cia,cia,i->c", x, x, a, optimize=False)
    keep = lam >= floor
    lam = lam[keep]
    kept = np.compress(keep, x.transpose(1, 2, 0), axis=2)
    kept *= np.sqrt(2.0 / lam)
    factors = kept.transpose(2, 0, 1)
    if x.shape[2] == 2:
        spectrum = _two_column_spectrum(a, kept[:, 0], kept[:, 1])
    else:
        gram = np.einsum("cia,i,cib->cab", factors, a, factors, optimize=False)
        spectrum = np.linalg.eigvalsh(gram)[:, ::-1]
    trace = np.einsum("iac,iac,i->c", kept, kept, a, optimize=False)
    gap = np.abs(np.subtract(trace, 1.0, out=trace), out=trace).max(initial=0.0, keepdims=True)
    alpha, zeta, residuals = _zeta_block(factors, a)
    return dict(indices=rows[keep], lam=lam, factors=factors, alpha=alpha, zeta=zeta,
                eigenvalues=spectrum[:, : min(x.shape[1:])], residuals=residuals, gap=gap)


def _two_column_spectrum(a: np.ndarray, y0: np.ndarray, y1: np.ndarray) -> np.ndarray:
    """Descending eigenvalues (cells x 2) of G = Y^T diag(a) Y for the columns
    y0, y1 of Y, each k x cells.

    lambda_1 = (g00 + g11 + hypot(g00 - g11, 2 g01)) / 2, the hypot as a
    plain square root, since every g is at most the trace, 1.
    lambda_2 = det G / lambda_1 with det G = g_pp s, where p is the column
    with the larger diagonal entry and s = sum_i a_i r_i^2 the weighted Schur
    complement of r = y_q - (g_pq / g_pp) y_p.  s is a sum of squares, so
    lambda_2 >= 0, and it avoids the cancellation of g00 g11 - g01^2:
    lambda_2 keeps about eps / sqrt(lambda_2) relative accuracy.  The
    per-cell steps reuse a few buffers and the result, in the order of those
    formulas, so they round as the plain expressions do.
    """
    g00 = np.einsum("ic,ic,i->c", y0, y0, a, optimize=False)
    g11 = np.einsum("ic,ic,i->c", y1, y1, a, optimize=False)
    g01 = np.einsum("ic,ic,i->c", y0, y1, a, optimize=False)
    out = np.empty((g00.size, 2))
    gap = g00 - g11
    root = gap * gap
    root += 4.0 * g01 * g01
    np.multiply(0.5, g00 + g11 + np.sqrt(root, out=root), out=out[:, 0])
    gpp = np.maximum(g00, g11, out=g00)
    t = np.divide(g01, gpp, out=g01)
    # r = c0 y0 + c1 y1 with (c0, c1) = (-t, 1) where p = 0 and (1, -t) where
    # p = 1, picked by a 0/1 mask: each product with 0 or 1 is exact, and
    # arithmetic avoids the branches np.where takes on every cell.
    p0 = np.greater_equal(gap, 0.0, out=gap)
    p1 = np.subtract(1.0, p0, out=root)
    r = (p1 - p0 * t) * y0
    r += (p0 - p1 * t) * y1
    s = np.einsum("ic,ic,i->c", r, r, a, optimize=False)
    np.divide(np.multiply(gpp, s, out=s), out[:, 0], out=out[:, 1])
    return out


def _records(family: FunctionFamily, depth: int, floor: float) -> Iterator[dict[str, np.ndarray]]:
    """The _density_chunk record of each scan chunk of the family at depth,
    with the absolute mass floor, in lexicographic order.  scan_cell_masses
    is looked up, and the cell cap checked, as the scan starts, so a wrapper
    put on this module sees the scan."""
    a = family.weights
    for item in scan_cell_masses(family.structure, family.members, depth, weights=a, floor=floor):
        yield _density_chunk(a, floor, *item)


def density_matrices(
    family: FunctionFamily,
    depth: int,
    mass_floor: float = MASS_FLOOR,
    tau_rank: float = TAU_RANK,
    on_chunk: Callable[[dict], object] | None = None,
) -> DensityMatrixField:
    """Rank statistics of every cell whose mass clears the floor, with each
    chunk's per-cell record handed to ``on_chunk`` as it arrives.

    The floor is mass_floor times the family's total_mass, which the family
    summed, with its normalization check, when it was built.  A cell below
    it has no meaningful density and is not refined; skipped counts its
    subtree.  tau_rank is the eigenvalue cutoff of the dimension count; the
    weighted matrices have trace one, so the cutoff is an absolute fraction.

    The loop here is all the field keeps of the scan.  Each chunk, as it
    arrives in lexicographic order, is reduced to its per-cell record
    (_records), passed to ``on_chunk``, and adds its retained count, one
    row of np.sum partials and its extremes; then it drops, so the field
    holds no per-cell column.  The sums are math.fsum over those rows, so
    they depend on the chunk layout, which depends on the depth alone.  The
    extremes are a running np.minimum and np.maximum, which keep a NaN from
    any chunk.
    """
    if not mass_floor > 0.0:
        raise ValidationError("mass floor must be positive")
    if not 0.0 < tau_rank < 1.0:
        raise ValidationError(f"tau_rank must lie in (0, 1), got {tau_rank}")
    floor = mass_floor * family.total_mass
    size, partials = 0, []
    low, worst = np.full(1, np.inf), np.zeros(1)
    for record in _records(family, depth, floor):
        if on_chunk is not None:
            on_chunk(record)
        lam, spectrum = record["lam"], record["eigenvalues"]
        size += lam.size
        # The counts are small integers, so adding them as floats is exact.
        above = np.zeros_like(lam)
        for eigenvalue in spectrum.T:
            above += eigenvalue > tau_rank
        second = np.sum(lam * spectrum[:, 1]) if spectrum.shape[1] > 1 else 0.0
        partials.append((np.sum(lam), second, np.sum(lam * record["residuals"]),
                         np.sum(lam * above)))
        np.minimum(low, spectrum.min(initial=np.inf), out=low)
        np.maximum(worst, record["gap"], out=worst)
    if not size:
        raise ValidationError(
            f"every depth-{depth} cell fell below the mass floor {floor!r}"
        )
    return DensityMatrixField(
        family=family, depth=depth, size=size,
        skipped=family.structure.spec.n_letters ** depth - size,
        sums=tuple(math.fsum(s) for s in zip(*partials)),
        min_eigenvalue=float(low[0]), worst_trace_gap=float(worst[0]), floor=floor,
    )


def verify_field_invariants(field: DensityMatrixField) -> None:
    """Raise unless every retained cell satisfies the Gram and trace identities.

    Checks: the field's min_eigenvalue, the smallest computed eigenvalue of
    the trace-one form over the retained cells, at or above -PSD_TOL, and the
    weighted diagonal of Z, sum_i a_i |Y_i|^2, summing to 1 within
    TRACE_IDENTITY_TOL on every cell (the field's worst_trace_gap).  Both are
    kept as the chunks stream, so the check reads no per-cell column;
    density_matrices refuses a field with no retained cell, so both cover at
    least one cell.
    """
    min_eig = field.min_eigenvalue
    if not min_eig >= -PSD_TOL:  # NaN fails too
        raise ValidationError(f"density matrix lost positivity: min eigenvalue {min_eig:.3g}")
    if not field.worst_trace_gap <= TRACE_IDENTITY_TOL:  # NaN fails too
        raise ValidationError(
            f"weighted trace identity violated by {field.worst_trace_gap:.3g} on a retained cell"
        )


# ---------------------------------------------------------------------------
# rank-one factorization and statistics


def zeta_factors(field: DensityMatrixField) -> DensityMatrixField:
    """The field itself, whose alpha, zeta and residuals are the rank-one
    pivot, factor and residual per cell; reading zeta forms the factors."""
    return field


def _zeta_block(
    y: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pivots, rank-one factors and residuals of the factors y (cells x k x
    (d - 1)), Z = Y Y^T.

    zeta = Y u for the unit pivot row u = Y_alpha / |Y_alpha|.  The part of
    Y that the rank-one term misses, P = Y - zeta u^T = Y (I - u u^T), is
    formed before any product, and Z - zeta zeta^T = P P^T, so the residual
    is |P^T P|_F / |Y^T Y|_F, both (d - 1) x (d - 1).  Subtracting first
    keeps the residual to about eps / sqrt(residual) relative accuracy, where
    a product of Y^T Y with the projector I - u u^T cancels down to about
    eps / residual.

    The einsum reductions follow y's memory layout, so the bits do too: y is
    stored cells-last, as (k, d - 1, cells), and so are the diagonal and
    zeta, (k, cells), the pivot rows u, (d - 1, cells), P, (k, d - 1,
    cells), and the Grams, (d - 1, d - 1, cells).  The pivot is the first
    member whose tie mask holds, member 0 where none does (a NaN row), and
    its diagonal entry and row are copied under those masks.  P and the
    Grams (Y^T Y, then P^T P in its place) share one block, the widest
    temporary, taken before the others, which in a dense scan lets glibc
    reuse the heap the previous chunk left rather than hand it back to the
    kernel and fault it in again.
    """
    members = y.transpose(1, 2, 0)
    k, m, cells = members.shape
    work = np.empty((k + m, m, cells))
    diag = np.einsum("cia,cia->ci", y, y, optimize=False).T
    weighted = diag * weights[:, None]
    # The first index within PIVOT_TIE_TOL of the row maximum, not rounding, wins.
    top = weighted.max(axis=0) * (1.0 - PIVOT_TIE_TOL)
    alpha = np.zeros(cells, dtype=np.intp)
    pivot, pivot_rows = diag[0].copy(), members[0].copy()
    for i in range(k - 1, -1, -1):
        tied = weighted[i] >= top
        np.copyto(alpha, i, where=tied)
        np.copyto(pivot, diag[i], where=tied)
        np.copyto(pivot_rows, members[i], where=tied)
    if cells and float(pivot.min()) <= 0.0:
        raise NumericalError("retained cell with nonpositive pivot diagonal entry")
    root = np.sqrt(pivot, out=pivot)
    zeta = np.einsum("cia,ca->ci", y, pivot_rows.T, optimize=False)
    zeta /= root[:, None]
    u = np.divide(pivot_rows, root, out=pivot_rows)
    p = np.multiply(zeta.T[:, None], u[None], out=work[m:])
    p = np.subtract(members, p, out=p).transpose(2, 0, 1)
    h = np.einsum("cia,cib->cab", y, y, optimize=False, out=work[:m].transpose(2, 0, 1))
    den = np.einsum("cab,cab->c", h, h, optimize=False)
    gap = np.einsum("cia,cib->cab", p, p, optimize=False, out=h)
    num = np.einsum("cab,cab->c", gap, gap, optimize=False)
    return alpha, zeta, np.divide(np.sqrt(num, out=num), np.sqrt(den, out=den), out=num)


@dataclass(frozen=True)
class RankProfile:
    """Mass-weighted rank diagnostics of one depth."""

    depth: int
    mean_lambda2: float
    mean_residual: float
    dim_estimate: float
    skipped_cells: int
    retained_cells: int


def rank_statistics(field: DensityMatrixField) -> RankProfile:
    """Aggregate second eigenvalues, residuals, and eigenvalue counts.

    All means are weighted by cell mass: each is one of the field's streamed
    sums divided by the total mass, each sum a math.fsum over the scan chunks
    of np.sum partials in lexicographic cell order.  The eigenvalue cutoff of
    the dimension count is density_matrices' tau_rank.
    """
    weight_sum, lambda2, residual, count = field.sums
    return RankProfile(
        depth=field.depth,
        mean_lambda2=lambda2 / weight_sum,
        mean_residual=residual / weight_sum,
        dim_estimate=count / weight_sum,
        skipped_cells=field.skipped,
        retained_cells=field.size,
    )


@dataclass(frozen=True, eq=False)
class RepresentingField:
    """Per-cell coefficients writing the combined measure's unit density.

    s[c] is the weighted square sum of the zeta factor, h[c] the coefficient
    vector with h_i = a_i zeta_i / s; their pairing with zeta is 1 by
    construction, re-verified numerically.
    """

    s: np.ndarray
    h: np.ndarray
    violations: int


def representing_field(
    field: DensityMatrixField,
    zeta: DensityMatrixField | None = None,
) -> RepresentingField:
    zeta = field if zeta is None else zeta
    a = field.weights
    s = np.einsum("j,cj->c", a, zeta.zeta ** 2, optimize=False)
    if field.size and float(s.min()) <= 0.0:
        raise NumericalError("nonpositive weighted square sum on a retained cell")
    h = a[None, :] * zeta.zeta / s[:, None]
    pairing = np.einsum("ci,ci->c", h, zeta.zeta, optimize=False)
    bad = int(np.sum(np.abs(pairing - 1.0) > REPRESENTING_TOL))
    bad += int(np.sum(s > 1.0 + REPRESENTING_TOL))
    for arr in (s, h):
        arr.setflags(write=False)
    return RepresentingField(s=s, h=h, violations=bad)


# ---------------------------------------------------------------------------
# single-letter runs


def cell_run_mass(hs: HarmonicStructure, u, letter: int, n: int) -> float:
    """Scaled mass of the depth-n constant-letter cell: r_i^{-n} times the
    mass the measure of the harmonic function with boundary values u puts on
    the word i...i (n letters).

    Evaluated in the pair's energy basis, x <- C~_i x / sqrt(r_i) per letter
    with the normalized letter C~_i = r_i^{-1/2} C_i, where constants have no
    component and the energy is the squared norm.
    """
    if not 1 <= letter <= hs.d:
        raise ValidationError(f"letter {letter} has no fixed boundary point")
    if n < 0:
        raise ValidationError("n must be nonnegative")
    x = hs.energy_basis @ np.asarray(u, dtype=float)
    for _ in range(n):
        x = hs.energy_letters[letter - 1] @ x / np.sqrt(hs.weights[letter - 1])
    return float(2.0 * (x @ x))


def run_mass_limit(hs: HarmonicStructure, data: EigenData, u) -> float:
    """Limit of cell_run_mass as n grows: 2 (u_i, u)^2 times the energy mass
    of the fixed point's right eigenvector."""
    u = np.asarray(u, dtype=float)
    pairing = float(data.left @ u)
    return 2.0 * pairing * pairing * data.energy_mass


# ---------------------------------------------------------------------------
# CSV emission


def write_profile_csv(profiles: Sequence[RankProfile], target) -> None:
    """One row per scanned depth to a path, or to stdout when ``target`` is None."""
    names = ("depth", "mean_lambda2", "mean_residual", "dim_estimate", "skipped_cells")
    write_table(target, names, [np.array([getattr(p, a) for p in profiles]) for a in names])
