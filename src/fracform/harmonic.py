"""Harmonic structures: boundary Laplacians, extension matrices, eigen data.

The pair (D, r) consists of a symmetric matrix D on the boundary vertices and
a positive weight r_i < 1 per letter.  It is accepted only when the level-1
network energy, minimized over interior vertex values, reproduces D exactly:
the Schur complement of the interior block must equal D up to roundoff.  That
fixed-point identity is what makes energies consistent across depths.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .config import (
    CHUNK_CELLS,
    DEFINITENESS_TOL,
    EIGEN_GAP_TOL,
    EIGEN_SIGN_TOL,
    FIXED_POINT_TOL,
    KERNEL_TOL,
    OFFDIAGONAL_TOL,
    SYMMETRY_TOL,
)
from .errors import NotHarmonicError, NumericalError, ValidationError
from .structure import StructureSpec


def validate_laplacian(matrix: np.ndarray) -> np.ndarray:
    """Check the boundary Laplacian axioms and return the matrix as float64.

    Required: symmetry, nonpositive definiteness, kernel spanned by the
    constant vector and nothing else, and nonnegative off-diagonal entries.
    """
    D = np.asarray(matrix, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise ValidationError(f"laplacian must be square, got shape {D.shape}")
    d = D.shape[0]
    scale = float(np.abs(D).max())
    if not scale >= np.finfo(float).tiny:
        raise ValidationError(f"laplacian scale {scale:.3g} is zero or subnormal")
    if float(np.abs(D - D.T).max()) > SYMMETRY_TOL * scale:
        raise ValidationError("laplacian is not symmetric")
    D = 0.5 * (D + D.T)
    off = D - np.diag(np.diag(D))
    if float(off.min()) < -OFFDIAGONAL_TOL * scale:
        raise ValidationError("laplacian has a negative off-diagonal entry")
    eigvals = np.linalg.eigvalsh(D)
    if eigvals[-1] > DEFINITENESS_TOL * scale:
        raise ValidationError(
            f"laplacian is not nonpositive definite (top eigenvalue {eigvals[-1]:.3g})"
        )
    ones = np.ones(d) / np.sqrt(d)
    if float(np.linalg.norm(D @ ones)) > KERNEL_TOL * scale:
        raise ValidationError("laplacian does not annihilate constants")
    # Second-largest eigenvalue must be strictly negative: constants only.
    if d > 1 and eigvals[-2] > -KERNEL_TOL * scale:
        raise ValidationError("laplacian kernel is larger than the constants")
    D.setflags(write=False)
    return D


@dataclass(frozen=True, eq=False)
class HarmonicStructure:
    """A validated harmonic pair (D, r) with its letter extension matrices.

    extensions[i] maps boundary values of a function to the boundary values
    of its harmonic restriction to the letter-(i+1) cell.  Pulling back along
    a word multiplies these in reverse letter order.

    energy_basis is B = L^T Q^T, with |B u|^2 = -u^T D u, where Q spans the
    vectors orthogonal to the constants and L L^T = Q^T (-D) Q.  The letter
    matrices C_i = B A_i Q L^-T satisfy B A_i = C_i B, because every A_i fixes
    the constants that B annihilates, and energy_letters holds them
    normalized, C~_i = r_i^{-1/2} C_i.  The harmonic fixed point
    |x|^2 = sum_i r_i^{-1} |C_i x|^2 reads sum_i C~_i^T C~_i = I, so a cell's
    scaled energy r_w^{-1} |C_w x|^2 is |C~_w x|^2, and a cell's children
    share exactly its own.
    """

    spec: StructureSpec
    laplacian: np.ndarray
    weights: np.ndarray
    extensions: np.ndarray
    energy_basis: np.ndarray
    energy_letters: np.ndarray
    residual: float

    @property
    def d(self) -> int:
        return self.laplacian.shape[0]


def _weight_products(weights: np.ndarray, depth: int, prefix: float = 1.0) -> np.ndarray:
    """Per-word products of letter weights at the given depth, in lex order,
    each started from ``prefix`` and multiplied left to right."""
    out = np.full(1, prefix)
    for _ in range(depth):
        out = np.multiply.outer(out, weights).ravel()
    return out


def _chunk_prefix_depth(n_letters: int, depth: int) -> int:
    """The depth of a lex-order chunk's prefix word: the least t for which
    the subtree under a depth-t word, n_letters**(depth - t) cells, fits in
    CHUNK_CELLS.  The cell scan's walk and graph_energy's weight blocks are
    both cut by it."""
    t = 0
    while n_letters ** (depth - t) > CHUNK_CELLS:
        t += 1
    return t


def _weight_blocks(weights: np.ndarray, depth: int):
    """_weight_products(weights, depth) in the lex-order chunks of
    _chunk_prefix_depth, at most CHUNK_CELLS words each, as (slice,
    products) pairs.

    A block is the subtree under one prefix word, and its products start
    from the prefix's own product and multiply the subtree's letters left to
    right, the very multiplications of the whole column, so the bits are its
    bits.
    """
    sub = depth - _chunk_prefix_depth(len(weights), depth)
    width = len(weights) ** sub
    for b, prefix in enumerate(_weight_products(weights, depth - sub)):
        yield slice(b * width, (b + 1) * width), _weight_products(weights, sub, prefix)


def graph_energy(
    hs: HarmonicStructure, level: int, u: np.ndarray, v: np.ndarray | None = None
) -> float:
    """Bilinear level-``level`` network energy sum_w (1 / r_w) * (-D u|_w, v|_w).

    u and v are vectors on the level's vertex ids; with v omitted this is the
    quadratic form of u.  A level whose largest resistance product r_w^{-1}
    would pass the float range is refused before any table is formed.

    u|_w and v|_w are gathered a block of at most CHUNK_CELLS cells at a
    time, and each block's energies are weighted by its own r_w^{-1}
    (_weight_blocks) into one per-cell column, which is summed once, so the
    only array of the level's cells is that column.
    """
    if level * -math.log(hs.weights.min()) > math.log(sys.float_info.max):
        raise NumericalError(
            f"level {level} resistance products r_w^-1 pass the float range"
        )
    slots = hs.spec.vertex_table(level).slots
    u = np.asarray(u, dtype=float)
    v = u if v is None else np.asarray(v, dtype=float)
    per_cell = np.empty(len(slots))
    for block, inverse in _weight_blocks(1.0 / hs.weights, level):
        uu = u[slots[block]]
        vv = uu if v is u else v[slots[block]]
        per_cell[block] = -np.einsum("cp,pq,cq->c", uu, hs.laplacian, vv, optimize=False) * inverse
    total = float(np.sum(per_cell))
    if not np.isfinite(total):  # einsum overflows without a floating-point error
        raise NumericalError(f"network energy {total!r} is not finite")
    return total


@dataclass(frozen=True, eq=False)
class EigenData:
    """Spectral data of one letter extension matrix at a fixed boundary point.

    left: left eigenvector at the weight r_i, normalized as the D column of
        its fixed point (vanishing off-diagonal pairing is the content of the
        eigen equation).
    right: nonnegative right eigenvector at r_i, scaled so (left, right) = 1.
    energy_mass: the positive number -right^T D right, the energy mass the
        point carries.
    second_modulus: largest modulus among the eigenvalues below r_i.
    """

    left: np.ndarray
    right: np.ndarray
    energy_mass: float
    second_modulus: float


def eigen_data(hs: HarmonicStructure, letter: int) -> EigenData:
    """Eigen decomposition of the letter's extension matrix at its fixed point.

    Only letters with a declared fixed boundary point (1 <= letter <= d)
    carry this data.  Checks: 1 and r_i are simple eigenvalues, every other
    eigenvalue has modulus strictly below r_i, the right eigenvector can be
    taken entrywise nonnegative, and the left one is the corresponding D
    column up to scale; the left-eigenvector and pairing checks are
    relative to that column's norm, so they hold at any scale of D.
    """
    d = hs.d
    if not 1 <= letter <= d:
        raise ValidationError(
            f"letter {letter} has no declared fixed boundary point (need 1..{d})"
        )
    A = hs.extensions[letter - 1]
    ri = float(hs.weights[letter - 1])
    eigvals, vecs = np.linalg.eig(A)
    dist_one = np.abs(eigvals - 1.0)
    dist_ri = np.abs(eigvals - ri)
    if np.sum(dist_one < EIGEN_GAP_TOL) != 1:
        raise ValidationError(f"eigenvalue 1 of letter {letter} is not simple")
    if np.sum(dist_ri < EIGEN_GAP_TOL) != 1:
        raise ValidationError(f"eigenvalue {ri} of letter {letter} is not simple")
    rest = np.abs(eigvals[(dist_one >= EIGEN_GAP_TOL) & (dist_ri >= EIGEN_GAP_TOL)])
    second = float(rest.max()) if rest.size else 0.0
    if second >= ri - EIGEN_GAP_TOL:
        raise ValidationError(
            f"letter {letter}: eigenvalue modulus {second:.6g} is not below r = {ri}"
        )

    # Both checks scale with D, since left is the D column; |pairing| <= |left|
    # because right is a unit vector clipped at zero.
    left = hs.laplacian[:, letter - 1].copy()
    scale = float(np.linalg.norm(left))
    if float(np.linalg.norm(left @ A - ri * left)) > EIGEN_GAP_TOL * scale:
        raise ValidationError(
            f"letter {letter}: D column at the fixed point is not a left eigenvector at r"
        )

    k = int(np.argmin(dist_ri))
    right = np.real(vecs[:, k])
    if float(right.sum()) < 0.0:
        right = -right
    if float(right.min()) < -EIGEN_SIGN_TOL * float(np.abs(right).max()):
        raise ValidationError(
            f"letter {letter}: right eigenvector at r has mixed signs"
        )
    right = np.clip(right, 0.0, None)
    pairing = float(left @ right)
    if abs(pairing) < EIGEN_GAP_TOL * scale:
        raise NumericalError(
            f"letter {letter}: left/right eigenvector pairing is numerically zero"
        )
    right = right / pairing
    mass = float(-(right @ hs.laplacian @ right))
    if mass <= 0.0:
        raise ValidationError(
            f"letter {letter}: energy mass of the fixed point is not positive"
        )
    left.setflags(write=False)
    right.setflags(write=False)
    return EigenData(
        left=left,
        right=right,
        energy_mass=mass,
        second_modulus=second,
    )


def harmonic_structure(spec: StructureSpec) -> HarmonicStructure:
    """Validate the document's (D, r), whose shapes parsing has fixed, as a
    harmonic pair and compute the extension matrices.  The fixed-point check
    is an equality: the boundary trace of the level-1 form must reproduce D
    entrywise within FIXED_POINT_TOL."""
    D, r = spec.laplacian, spec.weights
    if D is None or r is None:
        raise ValidationError(
            "no harmonic data: the structure document declares no laplacian or no weights"
        )
    D = validate_laplacian(D)
    if not np.all((r >= np.finfo(float).tiny) & (r < 1.0)):
        raise ValidationError("letter weights must be normal floats in (0, 1)")

    # The level-1 form sum_i r_i^{-1} (-D) on each cell's corners, and the
    # harmonic extension of every boundary basis vector: boundary values
    # fixed, interior values minimizing the form.
    table = spec.vertex_table(1)
    d, nv, slots = spec.d, table.num_vertices, table.slots
    H = np.zeros((nv, nv))
    np.add.at(H, (slots[:, :, None], slots[:, None, :]), (-D)[None] / r[:, None, None])
    boundary = table.boundary_ids
    interior = np.delete(np.arange(nv), boundary)
    full = np.zeros((nv, d))
    full[boundary] = np.eye(d)
    try:
        full[interior] = np.linalg.solve(
            H[np.ix_(interior, interior)], -H[np.ix_(interior, boundary)]
        )
    except np.linalg.LinAlgError as exc:
        raise NumericalError("interior system is singular") from exc

    # Boundary trace of the level-1 form on the harmonic extensions.  The
    # matrix identity trace = -D checks every bilinear pair at once, so sums
    # of basis vectors are covered by bilinearity.
    traced = full.T @ H @ full
    scale = float(np.abs(D).max())
    residual = float(np.abs(traced + D).max()) / scale
    if not residual <= FIXED_POINT_TOL:  # NaN fails too
        raise NotHarmonicError(
            f"(D, r) is not a harmonic pair: trace residual {residual:.3g}",
            residual=residual,
        )

    exts = full[slots]
    exts.setflags(write=False)
    q = np.linalg.qr(np.column_stack([np.ones(d), np.eye(d)[:, 1:]]))[0][:, 1:]
    chol = np.linalg.cholesky(q.T @ (-D) @ q)
    basis = chol.T @ q.T
    letters = basis @ exts @ np.linalg.solve(chol, q.T).T
    letters = np.ascontiguousarray(letters / np.sqrt(r)[:, None, None])
    basis.setflags(write=False)
    letters.setflags(write=False)
    return HarmonicStructure(
        spec=spec, laplacian=D, weights=r, extensions=exts, energy_basis=basis,
        energy_letters=letters, residual=residual,
    )
