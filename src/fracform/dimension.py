"""Per-cell energy-density matrices and rank-one diagnostics.

Given a finite family of normalized piecewise harmonic functions with convex
weights, the combined measure assigns each word cell a mass, and each cell
carries the matrix of pair masses divided by that cell mass.  Deeper cells
concentrate these matrices toward rank one; the statistics here quantify that
concentration: second eigenvalues of the trace-one weighted matrices, the
rank-one factorization residuals, and a weighted eigenvalue-count estimate of
the effective dimension.

The module also provides the scaled masses of constant-letter cells and
their closed-form limits, which drive the run-word analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import (
    CONSISTENCY_TOL,
    FAMILY_NORM_TOL,
    MASS_FLOOR,
    MAX_FIELD_BYTES,
    PIVOT_TIE_TOL,
    PSD_TOL,
    REPRESENTING_TOL,
    TRACE_IDENTITY_TOL,
)
from .errors import CapExceededError, NumericalError, ValidationError
from .harmonic import EigenData, HarmonicStructure, graph_energy
from .emit import WordColumn, write_table
from .energy import (
    MeanFunctional,
    PiecewiseHarmonic,
    _weight_products,
    energy,
    mean_functional,
    normalize_xi,
    scan_cell_masses,
)

# ---------------------------------------------------------------------------
# families


@dataclass(frozen=True, eq=False)
class FunctionFamily:
    """Finitely many piecewise harmonic members with convex weights.

    Members are expected to carry twice-energy 1 (the normalization the
    density matrices are built on); density_matrices re-checks this.
    """

    members: tuple[PiecewiseHarmonic, ...]
    weights: np.ndarray | None = None  # uniform when omitted

    def __post_init__(self) -> None:
        k = len(self.members)
        if k == 0:
            raise ValidationError("family needs at least one member")
        w = np.full(k, 1.0 / k) if self.weights is None else np.asarray(self.weights, dtype=float)
        if w.shape != (k,):
            raise ValidationError(f"{k} members need {k} weights, got shape {w.shape}")
        if not np.all(w > 0.0):
            raise ValidationError("family weights must be positive")
        if not abs(float(w.sum()) - 1.0) <= CONSISTENCY_TOL:
            raise ValidationError("family weights must sum to 1")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "members", tuple(self.members))

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
    slots = hs.spec.vertex_table(level).slots
    inv = _weight_products(1.0 / hs.weights, level)
    out: list[np.ndarray] = []
    for cand in candidates:
        g = normalize_xi(cand, mean).values
        if float(np.ptp(g)) == 0.0:
            continue
        for member in out:
            g = g - (2.0 * graph_energy(slots, inv, hs.laplacian, g, member)) * member
        twice = 2.0 * graph_energy(slots, inv, hs.laplacian, g)
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
    if not members:
        raise ValidationError("no nonconstant members found")
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
    rows = [np.asarray(row, dtype=float) for row in value_rows]
    if not rows:
        raise ValidationError("family needs at least one member")
    members = []
    for idx, row in enumerate(rows):
        f = normalize_xi(PiecewiseHarmonic(hs, level, row), mean)
        if float(np.ptp(f.values)) == 0.0:
            raise ValidationError(f"member {idx + 1} is constant; it carries no measure")
        members.append(f)
    return FunctionFamily(tuple(members))


# ---------------------------------------------------------------------------
# density matrices


@dataclass(frozen=True, eq=False)
class DensityMatrixField:
    """Density matrices of all retained cells at one depth.

    Retained means the cell's combined mass stayed at or above the floor;
    rows are in lexicographic cell order throughout.  matrices[c] is the Z of
    the cell, exactly symmetric because the scan forms each Gram block from
    one array of energy coordinates; eigenvalues[c] is the descending
    spectrum of the trace-one weighted form M = [sqrt(a_i a_j) Z_ij].
    """

    depth: int
    n_letters: int
    weights: np.ndarray
    indices: np.ndarray
    lam: np.ndarray
    matrices: np.ndarray
    eigenvalues: np.ndarray
    skipped: int
    total_mass: float
    floor: float

    @property
    def size(self) -> int:
        return int(self.indices.size)

    @property
    def family_size(self) -> int:
        return int(self.weights.size)


def check_field_bytes(n_letters: int, depth: int, family_size: int) -> None:
    """Raise CapExceededError when the depth's k x k float64 matrices, one per
    cell, would exceed MAX_FIELD_BYTES."""
    need = n_letters ** depth * family_size * family_size * 8
    if need > MAX_FIELD_BYTES:
        raise CapExceededError(
            f"depth {depth} density field of {family_size} members needs {need} bytes, "
            f"cap is {MAX_FIELD_BYTES}"
        )


def density_matrices(
    family: FunctionFamily,
    depth: int,
    workers: int = 1,
    mass_floor: float = MASS_FLOOR,
) -> DensityMatrixField:
    """Build Z and its spectra for every cell whose mass clears the floor.

    The floor is mass_floor times the total combined mass; cells below it
    have no meaningful density and are only counted.
    """
    hs = family.structure
    n = hs.spec.n_letters
    check_field_bytes(n, depth, family.size)
    a = family.weights
    twice_energies = [2.0 * energy(member) for member in family.members]
    for i, twice in enumerate(twice_energies):
        if abs(twice - 1.0) > FAMILY_NORM_TOL:
            raise ValidationError(
                f"family member {i + 1} has twice-energy {twice!r}, expected 1"
            )
    if not mass_floor > 0.0:
        raise ValidationError("mass floor must be positive")
    total = float(np.sum(a * np.asarray(twice_energies)))
    floor = mass_floor * total

    idx_parts: list[np.ndarray] = []
    lam_parts: list[np.ndarray] = []
    z_parts: list[np.ndarray] = []
    skipped = 0
    for start, gram in scan_cell_masses(hs, family.members, depth, workers):
        lam = np.einsum("cii,i->c", gram, a, optimize=False)
        keep = lam >= floor
        kept = gram[keep]
        del gram  # free the block before the scan computes the next wave
        skipped += int(np.sum(~keep))
        if not np.any(keep):
            continue
        idx_parts.append(start + np.nonzero(keep)[0])
        lam_kept = lam[keep]
        lam_parts.append(lam_kept)
        z_parts.append(kept / lam_kept[:, None, None])
    if not idx_parts:
        raise ValidationError(
            f"every depth-{depth} cell fell below the mass floor {floor:.3g}"
        )
    indices = np.concatenate(idx_parts)
    lam = np.concatenate(lam_parts)
    matrices = np.concatenate(z_parts)
    scale = np.sqrt(a)
    weighted = matrices * np.outer(scale, scale)[None, :, :]
    eigenvalues = np.linalg.eigvalsh(weighted)[:, ::-1]
    for arr in (indices, lam, matrices, eigenvalues):
        arr.setflags(write=False)
    return DensityMatrixField(
        depth=depth,
        n_letters=n,
        weights=a,
        indices=indices,
        lam=lam,
        matrices=matrices,
        eigenvalues=eigenvalues,
        skipped=skipped,
        total_mass=total,
        floor=floor,
    )


def verify_field_invariants(field: DensityMatrixField) -> None:
    """Raise unless every retained cell satisfies the Gram and trace identities.

    Checks: min eigenvalue of the trace-one form at or above -PSD_TOL, and
    the weighted diagonal of Z summing to 1 within TRACE_IDENTITY_TOL.
    """
    if field.size == 0:
        raise ValidationError("empty field: all cells were skipped")
    min_eig = float(field.eigenvalues[:, -1].min())
    if not min_eig >= -PSD_TOL:  # NaN fails too
        raise ValidationError(
            f"density matrix lost positivity: min eigenvalue {min_eig:.3g}"
        )
    diag = np.einsum("cii,i->c", field.matrices, field.weights, optimize=False)
    worst = float(np.abs(diag - 1.0).max())
    if not worst <= TRACE_IDENTITY_TOL:
        raise ValidationError(
            f"weighted trace identity violated by {worst:.3g} on a retained cell"
        )


# ---------------------------------------------------------------------------
# rank-one factorization and statistics


@dataclass(frozen=True, eq=False)
class ZetaField:
    """Rank-one factor per retained cell.

    alpha[c] is the 0-based member index with the largest weighted diagonal
    entry (smallest index on ties), zeta[c] the factor column scaled by the
    square root of the pivot, residuals[c] the relative Frobenius gap between
    Z and its rank-one surrogate.
    """

    depth: int
    alpha: np.ndarray
    zeta: np.ndarray
    residuals: np.ndarray


def zeta_factors(field: DensityMatrixField) -> ZetaField:
    z = field.matrices
    diag = np.einsum("cii->ci", z)
    weighted = field.weights[None, :] * diag
    # The first index within PIVOT_TIE_TOL of the row maximum, not rounding, wins.
    tied = weighted >= (1.0 - PIVOT_TIE_TOL) * weighted.max(axis=1, keepdims=True)
    alpha = np.argmax(tied, axis=1)
    rows = np.arange(z.shape[0])
    pivot = diag[rows, alpha]
    if z.shape[0] and float(pivot.min()) <= 0.0:
        raise NumericalError("retained cell with nonpositive pivot diagonal entry")
    zeta = z[rows, :, alpha] / np.sqrt(pivot)[:, None]
    gap = z - zeta[:, :, None] * zeta[:, None, :]
    num = np.sqrt(np.einsum("cij,cij->c", gap, gap, optimize=False))
    den = np.sqrt(np.einsum("cij,cij->c", z, z, optimize=False))
    residuals = num / den
    for arr in (alpha, zeta, residuals):
        arr.setflags(write=False)
    return ZetaField(depth=field.depth, alpha=alpha, zeta=zeta, residuals=residuals)


@dataclass(frozen=True)
class RankProfile:
    """Mass-weighted rank diagnostics of one depth."""

    depth: int
    mean_lambda2: float
    mean_residual: float
    dim_estimate: float
    skipped_cells: int
    retained_cells: int


def rank_statistics(
    field: DensityMatrixField,
    tau_rank: float = 0.05,
    zeta: ZetaField | None = None,
) -> RankProfile:
    """Aggregate second eigenvalues, residuals, and eigenvalue counts.

    All means are weighted by cell mass and summed in lexicographic cell
    order.  tau_rank is the eigenvalue cutoff for the dimension count; the
    weighted matrices have trace one, so the cutoff is an absolute fraction.
    """
    if field.size == 0:
        raise ValidationError("empty field: all cells were skipped")
    if not 0.0 < tau_rank < 1.0:
        raise ValidationError(f"tau_rank must lie in (0, 1), got {tau_rank}")
    if zeta is None:
        zeta = zeta_factors(field)
    lam = field.lam
    weight_sum = float(np.sum(lam))
    if field.family_size > 1:
        lam2 = field.eigenvalues[:, 1]
        mean_lambda2 = float(np.sum(lam * lam2)) / weight_sum
    else:
        mean_lambda2 = 0.0
    mean_residual = float(np.sum(lam * zeta.residuals)) / weight_sum
    counts = np.sum(field.eigenvalues > tau_rank, axis=1)
    dim_estimate = float(np.sum(lam * counts)) / weight_sum
    return RankProfile(
        depth=field.depth,
        mean_lambda2=mean_lambda2,
        mean_residual=mean_residual,
        dim_estimate=dim_estimate,
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

    depth: int
    s: np.ndarray
    h: np.ndarray
    violations: int


def representing_field(
    field: DensityMatrixField,
    zeta: ZetaField | None = None,
) -> RepresentingField:
    if zeta is None:
        zeta = zeta_factors(field)
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
    return RepresentingField(depth=field.depth, s=s, h=h, violations=bad)


# ---------------------------------------------------------------------------
# single-letter runs


def cell_run_mass(hs: HarmonicStructure, u, letter: int, n: int) -> float:
    """Scaled mass of the depth-n constant-letter cell: r_i^{-n} times the
    mass the measure of the harmonic function with boundary values u puts on
    the word i...i (n letters).

    Evaluated in the pair's energy basis, x <- C_i x / r_i per letter, where
    constants have no component and the energy is the squared norm.
    """
    if not 1 <= letter <= hs.d:
        raise ValidationError(f"letter {letter} has no fixed boundary point")
    if n < 0:
        raise ValidationError("n must be nonnegative")
    x = hs.energy_basis @ np.asarray(u, dtype=float)
    for _ in range(n):
        x = hs.energy_letters[letter - 1] @ x / hs.weights[letter - 1]
    return float(2.0 * (x @ x))


def run_mass_limit(hs: HarmonicStructure, data: EigenData, u) -> float:
    """Limit of cell_run_mass as n grows: 2 (u_i, u)^2 times the energy mass
    of the fixed point's right eigenvector."""
    u = np.asarray(u, dtype=float)
    pairing = float(data.left @ u)
    return 2.0 * pairing * pairing * data.energy_mass


# ---------------------------------------------------------------------------
# CSV emission


def write_cells_csv(
    field: DensityMatrixField, zeta: ZetaField, path: str | Path
) -> None:
    """Per-cell rows: word, weight, descending eigenvalues, residual, alpha."""
    k = field.family_size
    header = ["word", "weight"] + [f"lambda{i + 1}" for i in range(k)] + ["residual", "alpha"]
    words = WordColumn(field.indices, field.depth, field.n_letters)
    columns = (words, field.lam, field.eigenvalues, zeta.residuals, zeta.alpha + 1)
    write_table(path, header, columns)


def write_profile_csv(profiles: Sequence[RankProfile], target) -> None:
    """One row per scanned depth to a path, or to stdout when ``target`` is None."""
    names = ("depth", "mean_lambda2", "mean_residual", "dim_estimate", "skipped_cells")
    write_table(target, names, [np.array([getattr(p, a) for p in profiles]) for a in names])
