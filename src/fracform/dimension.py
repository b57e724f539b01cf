"""Per-cell energy-density matrices and rank-one diagnostics.

Given a finite family of normalized piecewise harmonic functions with convex
weights, the combined measure assigns each word cell a mass, and each cell
carries the matrix of pair masses divided by that cell mass.  Deeper cells
concentrate these matrices toward rank one; the statistics here quantify that
concentration: second eigenvalues of the trace-one weighted matrices, the
rank-one factorization residuals, and a weighted eigenvalue-count estimate of
the effective dimension.

The module also provides the boundary-spectral quantities that drive the
run-word analysis: gamma/eta of a harmonic function, the sampled minimum of
gamma over the normalized mean-zero harmonic sphere, scaled masses of
constant-letter cylinders, and projected power iterates.
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
    PSD_TOL,
    REPRESENTING_TOL,
    TRACE_IDENTITY_TOL,
)
from .errors import NumericalError, ValidationError
from .harmonic import EigenData, HarmonicStructure
from .emit import WordColumn, write_table
from .energy import (
    MeanFunctional,
    PiecewiseHarmonic,
    energy,
    interpolate,
    mean_functional,
    normalize_xi,
    scan_cell_masses,
)

__all__ = [
    "FunctionFamily",
    "harmonic_family",
    "level1_family",
    "family_from_values",
    "DensityMatrixField",
    "density_matrices",
    "verify_field_invariants",
    "ZetaField",
    "zeta_factors",
    "RankProfile",
    "rank_statistics",
    "RepresentingField",
    "representing_field",
    "gamma_eta",
    "DeltaEstimate",
    "sample_kset",
    "estimate_delta",
    "cell_run_mass",
    "run_mass_limit",
    "projected_power_limit",
    "cylinder_mass",
    "estimate_ck",
    "write_cells_csv",
    "write_profile_csv",
]


# ---------------------------------------------------------------------------
# families


@dataclass(frozen=True, eq=False)
class FunctionFamily:
    """Finitely many piecewise harmonic members with convex weights.

    Members are expected to carry twice-energy 1 (the normalization the
    density matrices are built on); density_matrices re-checks this.
    """

    members: tuple[PiecewiseHarmonic, ...]
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if len(self.members) == 0:
            raise ValidationError("family needs at least one member")
        if w.shape != (len(self.members),):
            raise ValidationError(
                f"{len(self.members)} members need {len(self.members)} weights, "
                f"got shape {w.shape}"
            )
        if np.any(w <= 0.0):
            raise ValidationError("family weights must be positive")
        if abs(float(w.sum()) - 1.0) > CONSISTENCY_TOL:
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
    candidates that collapse onto the span of the earlier ones."""
    out: list[PiecewiseHarmonic] = []
    for cand in candidates:
        g = normalize_xi(cand, mean)
        if float(np.ptp(g.values)) == 0.0:
            continue
        for member in out:
            g = g - (2.0 * energy(g, member)) * member
        twice = 2.0 * energy(g)
        if twice <= FAMILY_NORM_TOL:
            continue
        out.append(PiecewiseHarmonic(g.structure, g.level, g.values / np.sqrt(twice)))
    return out


def harmonic_family(
    hs: HarmonicStructure,
    mean: MeanFunctional | None = None,
    weights=None,
) -> FunctionFamily:
    """Orthonormal mean-zero harmonic members built from the boundary basis.

    Yields d - 1 members on a d-point boundary: the constant direction drops.
    """
    if mean is None:
        mean = mean_functional(hs)
    d = hs.d
    candidates = [interpolate(hs, 0, np.eye(d)[k]) for k in range(d)]
    members = _orthonormalize(candidates, mean)
    if not members:
        raise ValidationError("no nonconstant harmonic members found")
    if weights is None:
        weights = np.full(len(members), 1.0 / len(members))
    return FunctionFamily(members=tuple(members), weights=weights)


def level1_family(
    hs: HarmonicStructure,
    mean: MeanFunctional | None = None,
    weights=None,
) -> FunctionFamily:
    """Orthonormal members spanning the level-1 piecewise harmonics.

    One candidate per depth-1 vertex (its indicator values, interpolated);
    the span has codimension one in vertex count since constants drop.
    """
    if mean is None:
        mean = mean_functional(hs)
    table = hs.spec.vertex_table(1)
    eye = np.eye(table.num_vertices)
    candidates = [interpolate(hs, 1, eye[v]) for v in range(table.num_vertices)]
    members = _orthonormalize(candidates, mean)
    if weights is None:
        weights = np.full(len(members), 1.0 / len(members))
    return FunctionFamily(members=tuple(members), weights=weights)


def family_from_values(
    hs: HarmonicStructure,
    level: int,
    value_rows,
    weights=None,
    mean: MeanFunctional | None = None,
) -> FunctionFamily:
    """Family from explicit vertex-value rows, normalized member by member."""
    if mean is None:
        mean = mean_functional(hs)
    rows = [np.asarray(row, dtype=float) for row in value_rows]
    members = []
    for idx, row in enumerate(rows):
        f = normalize_xi(interpolate(hs, level, row), mean)
        if float(np.ptp(f.values)) == 0.0:
            raise ValidationError(f"member {idx + 1} is constant; it carries no measure")
        members.append(f)
    if weights is None:
        weights = np.full(len(members), 1.0 / len(members))
    return FunctionFamily(members=tuple(members), weights=weights)


# ---------------------------------------------------------------------------
# density matrices


@dataclass(frozen=True, eq=False)
class DensityMatrixField:
    """Density matrices of all retained cells at one depth.

    Retained means the cell's combined mass stayed at or above the floor;
    rows are in lexicographic cell order throughout.  matrices[c] is the
    symmetrized Z of the cell, eigenvalues[c] the descending spectrum of the
    trace-one weighted form M = [sqrt(a_i a_j) Z_ij].
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
    a = family.weights
    twice_energies = [2.0 * energy(member) for member in family.members]
    for i, twice in enumerate(twice_energies):
        if abs(twice - 1.0) > FAMILY_NORM_TOL:
            raise ValidationError(
                f"family member {i + 1} has twice-energy {twice!r}, expected 1"
            )
    if mass_floor <= 0.0:
        raise ValidationError("mass floor must be positive")
    total = float(np.sum(a * np.asarray(twice_energies)))
    floor = mass_floor * total

    idx_parts: list[np.ndarray] = []
    lam_parts: list[np.ndarray] = []
    z_parts: list[np.ndarray] = []
    skipped = 0
    for start, gram in scan_cell_masses(hs, family.members, depth, workers):
        gram = 0.5 * (gram + gram.transpose(0, 2, 1))
        lam = np.einsum("cii,i->c", gram, a, optimize=False)
        keep = lam >= floor
        skipped += int(np.sum(~keep))
        if not np.any(keep):
            continue
        idx_parts.append(start + np.nonzero(keep)[0])
        lam_kept = lam[keep]
        lam_parts.append(lam_kept)
        z_parts.append(gram[keep] / lam_kept[:, None, None])
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
    if min_eig < -PSD_TOL:
        raise ValidationError(
            f"density matrix lost positivity: min eigenvalue {min_eig:.3g}"
        )
    diag = np.einsum("cii,i->c", field.matrices, field.weights, optimize=False)
    worst = float(np.abs(diag - 1.0).max())
    if worst > TRACE_IDENTITY_TOL:
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
    alpha = np.argmax(field.weights[None, :] * diag, axis=1)
    rows = np.arange(z.shape[0])
    pivot = diag[rows, alpha]
    if z.shape[0] and float(pivot.min()) <= 0.0:
        raise NumericalError("retained cell with nonpositive pivot diagonal entry")
    zeta = z[rows, :, alpha] / np.sqrt(pivot)[:, None]
    outer = zeta[:, :, None] * zeta[:, None, :]
    num = np.sqrt(np.einsum("cij,cij->c", z - outer, z - outer, optimize=False))
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
# boundary-spectral quantities


def gamma_eta(hs: HarmonicStructure, f: PiecewiseHarmonic) -> tuple[float, int]:
    """Largest pairing of a harmonic function with the boundary Laplacian
    columns, and the 1-based index of the first column attaining it."""
    if f.level != 0:
        raise ValidationError("gamma/eta are defined for level-0 (harmonic) functions")
    pairings = hs.laplacian @ f.values
    gamma = float(np.abs(pairings).max())
    eta = int(np.argmax(np.abs(pairings))) + 1
    return gamma, eta


def _mean_zero_energy_basis(hs: HarmonicStructure, mean: MeanFunctional) -> np.ndarray:
    """Columns: an orthonormal basis of the mean-zero boundary vectors under
    the twice-energy inner product."""
    d = hs.d
    # Column k is e_k - m_k * 1, which the mean functional annihilates.
    raw = np.eye(d) - np.outer(np.ones(d), mean.coefficients)
    gram = 2.0 * (raw.T @ (-hs.laplacian) @ raw)
    vals, vecs = np.linalg.eigh(gram)
    keep = vals > 1e-12 * float(vals.max())
    basis = raw @ (vecs[:, keep] / np.sqrt(vals[keep]))
    return basis


def sample_kset(
    hs: HarmonicStructure,
    mean: MeanFunctional | None = None,
    count: int = 1,
    seed: int = 0,
) -> np.ndarray:
    """Boundary vectors of mean-zero harmonic functions with twice-energy 1.

    Uniform on the energy sphere: a counter-based generator keyed by (seed,
    sample index) feeds one Gaussian per sample, so sample i is the same no
    matter how many others are drawn or on which thread.
    """
    if count < 1:
        raise ValidationError("sample count must be at least 1")
    if mean is None:
        mean = mean_functional(hs)
    basis = _mean_zero_energy_basis(hs, mean)
    q = basis.shape[1]
    out = np.empty((count, hs.d))
    for i in range(count):
        rng = np.random.Generator(np.random.Philox(key=[seed, i]))
        x = rng.standard_normal(q)
        norm = float(np.linalg.norm(x))
        while norm == 0.0:
            x = rng.standard_normal(q)
            norm = float(np.linalg.norm(x))
        out[i] = basis @ (x / norm)
    return out


@dataclass(frozen=True, eq=False)
class DeltaEstimate:
    """Sampled upper estimate of the minimum of gamma over the normalized
    mean-zero harmonic functions.  Never a certified bound."""

    value: float
    minimizer: np.ndarray
    samples: int
    refine_steps: int
    seed: int
    certified: bool = False


def estimate_delta(
    hs: HarmonicStructure,
    mean: MeanFunctional | None = None,
    samples: int = 1024,
    refine_steps: int = 64,
    seed: int = 0,
) -> DeltaEstimate:
    """Sample the energy sphere and locally descend the max-pairing objective.

    Each sample runs a projected subgradient descent on the sphere in basis
    coordinates; the reported value is the running minimum over everything
    evaluated, so it is non-increasing in the sample count for a fixed seed.
    """
    if samples < 1:
        raise ValidationError("sample count must be at least 1")
    if mean is None:
        mean = mean_functional(hs)
    basis = _mean_zero_energy_basis(hs, mean)
    pair = hs.laplacian @ basis
    best_val = np.inf
    best_u = np.zeros(hs.d)
    for i in range(samples):
        rng = np.random.Generator(np.random.Philox(key=[seed, i]))
        x = rng.standard_normal(basis.shape[1])
        norm = float(np.linalg.norm(x))
        if norm == 0.0:
            continue
        y = x / norm
        for step in range(refine_steps):
            g = pair @ y
            j = int(np.argmax(np.abs(g)))
            val = abs(float(g[j]))
            if val < best_val:
                best_val = val
                best_u = basis @ y
            grad = np.sign(g[j]) * pair[j]
            tangent = grad - float(grad @ y) * y
            tnorm = float(np.linalg.norm(tangent))
            if tnorm < 1e-14:
                break
            y = y - (0.2 / (1.0 + step)) * tangent / tnorm
            y = y / float(np.linalg.norm(y))
        g = pair @ y
        val = float(np.abs(g).max())
        if val < best_val:
            best_val = val
            best_u = basis @ y
    return DeltaEstimate(
        value=float(best_val),
        minimizer=np.asarray(best_u, dtype=float),
        samples=samples,
        refine_steps=refine_steps,
        seed=seed,
    )


def _propagate(hs: HarmonicStructure, u: np.ndarray, letter: int, steps: int) -> np.ndarray:
    """Apply the letter extension matrix repeatedly, projecting out the mean
    (harmless for energies, crucial for conditioning) and dividing by the
    letter weight each step."""
    a = hs.extensions[letter - 1]
    r = float(hs.weights[letter - 1])
    w = np.asarray(u, dtype=float).copy()
    w -= w.mean()
    for _ in range(steps):
        w = a @ w
        w -= w.mean()
        w /= r
    return w


def cell_run_mass(hs: HarmonicStructure, u, letter: int, n: int) -> float:
    """Scaled mass of the depth-n constant-letter cell: r_i^{-n} times the
    mass the measure of the harmonic function with boundary values u puts on
    the word i...i (n letters).

    Evaluated as twice the energy pairing of the per-step renormalized
    iterate, which agrees with the direct formula exactly in real arithmetic
    and avoids the growth of the constant component in floating point.
    """
    if not 1 <= letter <= hs.d:
        raise ValidationError(f"letter {letter} has no fixed boundary point")
    if n < 0:
        raise ValidationError("n must be nonnegative")
    w = _propagate(hs, u, letter, n)
    return float(2.0 * (w @ (-hs.laplacian) @ w))


def run_mass_limit(hs: HarmonicStructure, data: EigenData, u) -> float:
    """Limit of cell_run_mass as n grows: 2 (u_i, u)^2 times the energy mass
    of the fixed point's right eigenvector."""
    u = np.asarray(u, dtype=float)
    pairing = float(data.left @ u)
    return 2.0 * pairing * pairing * data.energy_mass


def projected_power_limit(hs: HarmonicStructure, u, letter: int, n: int) -> np.ndarray:
    """The mean-zero part of the n-step renormalized letter iterate.

    Converges to the pairing (u_i, u) times the mean-zero part of the
    letter's right eigenvector.
    """
    if not 1 <= letter <= hs.d:
        raise ValidationError(f"letter {letter} has no fixed boundary point")
    # The per-step mean subtraction in the propagation IS the projection:
    # the iterate comes back already mean-free.
    return _propagate(hs, u, letter, n)


def cylinder_mass(hs: HarmonicStructure, u, letter: int, k: int) -> float:
    """Unscaled mass of the depth-k constant-letter cell for the harmonic
    function with boundary values u."""
    if not 1 <= letter <= hs.spec.n_letters:
        raise ValidationError(f"letter {letter} outside alphabet")
    if k < 0:
        raise ValidationError("k must be nonnegative")
    # r^k times the scaled run mass, from the same renormalized iterate.
    w = _propagate(hs, u, letter, k)
    return float(float(hs.weights[letter - 1]) ** k * 2.0 * (w @ (-hs.laplacian) @ w))


def estimate_ck(hs: HarmonicStructure, kset: np.ndarray, k: int) -> float:
    """Smallest sampled fraction of mass kept by the k-fold repetition of
    each sample's own maximizing letter.  A sampling estimate, not a bound
    over the whole normalized set.
    """
    kset = np.asarray(kset, dtype=float)
    if kset.ndim != 2 or kset.shape[1] != hs.d:
        raise ValidationError(f"expected sample rows of length {hs.d}")
    if k < 1:
        raise ValidationError("k must be at least 1")
    best = np.inf
    for u in kset:
        pairings = hs.laplacian @ u
        eta = int(np.argmax(np.abs(pairings))) + 1
        total = float(2.0 * (u @ (-hs.laplacian) @ u))
        if total <= 0.0:
            raise ValidationError("constant sample in the normalized set")
        ratio = cylinder_mass(hs, u, eta, k) / total
        best = min(best, ratio)
    return float(best)


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
    """One row per scanned depth to a path, an open text handle, or stdout (None)."""
    names = ("depth", "mean_lambda2", "mean_residual", "dim_estimate", "skipped_cells")
    write_table(target, names, [np.array([getattr(p, a) for p in profiles]) for a in names])
