"""Independent recomputations the test suite checks the library against.

Each oracle takes a different route than the shipped code: slots are grouped
by quantized geometry, or glued by the definition of the gluing at every
depth, instead of the level-by-level recurrence of the vertex tables; boundary
forms come from dense Schur complements, cell masses from explicit per-word
matrix products instead of the chunked scan, and big-graph energies from a
scipy.sparse assembly, vicsek's harmonic profile from an exact derivation in
rationals, and sg2's mean_lambda2 from products of its normalized letters,
built from (D, r) by dense elimination in an eigenbasis of -D.  CSV text is
rebuilt one row at a time, with words spelled out by digit expansion of the
lex index and printf-style formatting, never through the block writer, and
lex indices of words come from their base-n digits.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import scipy.sparse
from scipy.sparse.linalg import spsolve


def geometric_slot_ids(realization: dict, boundary: tuple[str, ...], depth: int) -> np.ndarray:
    """Label every (cell, corner) slot by its quantized position under the IFS.

    Words are scanned in lex order and each distinct point gets the next id on
    first sight, which is exactly the numbering contract of the vertex tables.
    """
    matrices, offsets = realization["maps"]
    points = realization["boundary_points"]
    n = len(matrices)
    corners = [points[label] for label in boundary]
    ids: dict[tuple, int] = {}
    rows = []
    for word in itertools.product(range(1, n + 1), repeat=depth):
        row = []
        for corner in corners:
            pt = corner
            for letter in reversed(word):
                pt = matrices[letter - 1] @ pt + offsets[letter - 1]
            key = tuple(np.round(pt, 9))
            row.append(ids.setdefault(key, len(ids)))
        rows.append(row)
    return np.array(rows, dtype=np.int64)


def glued_slot_ids(n_letters: int, n_boundary: int, pairs, depth: int):
    """Vertex table straight from the definition of a p.c.f. gluing.

    Corner p of the boundary is fixed by letter p + 1, so the point the pair
    ((i, p), (j, q)) glues inside cell w is corner p of the depth-``depth``
    cell w.i.(p+1)...(p+1) and corner q of w.j.(q+1)...(q+1).  Those slots are
    merged for every pair and every word w shorter than ``depth`` with a dict
    union, and the classes are numbered on first sight in lex (word, corner)
    order.  Returns (slots, boundary_ids, num_vertices).
    """
    parent: dict = {}

    def find(slot):
        while slot in parent:
            slot = parent[slot]
        return slot

    letters = range(1, n_letters + 1)
    for length in range(depth):
        tail = depth - length - 1
        for w in itertools.product(letters, repeat=length):
            for (i, p), (j, q) in pairs:
                a = find((w + (i,) + (p + 1,) * tail, p))
                b = find((w + (j,) + (q + 1,) * tail, q))
                if a != b:
                    parent[a] = b
    ids: dict = {}
    rows = [
        [ids.setdefault(find((w, p)), len(ids)) for p in range(n_boundary)]
        for w in itertools.product(letters, repeat=depth)
    ]
    boundary = [ids[find(((k + 1,) * depth, k))] for k in range(n_boundary)]
    return np.array(rows, dtype=np.int64), np.array(boundary, dtype=np.int64), len(ids)


# Vicsek's level-1 gluing as ((letter, corner), (letter, corner)), corners
# 0-based: corner cell i meets the centre cell 5 at its corner opposite p_i,
# which is the centre cell's own corner p_i.
VICSEK_PAIRS = (((1, 2), (5, 0)), ((2, 3), (5, 1)), ((3, 0), (5, 2)), ((4, 1), (5, 3)))


def _row_reduce(rows) -> tuple[list[list[Fraction]], int]:
    """Reduced row echelon form of a matrix of Fractions, and its rank."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(m[0])):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        m[rank] = [v / m[rank][col] for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                m[r] = [v - m[r][col] * w for v, w in zip(m[r], m[rank])]
        rank += 1
    return m, rank


def vicsek_harmonic_laws(laplacian, r: Fraction, depths) -> dict:
    """Exact depth-m profile of vicsek's harmonic family, for each m in depths:
    (mean_lambda2, mean_residual squared, dim_estimate), as Fractions.

    The level-1 network glues five cells by VICSEK_PAIRS through
    glued_slot_ids, each cell carrying -laplacian / r, and A_i maps boundary
    values to the harmonic extension's values on the corners of cell i, by
    exact elimination of the interior.  Two premises are checked exactly:
    every corner letter has rank A_i = 2, so its cells see the constants and
    one direction, and the centre letter has A_5^T D A_5 = c D with
    c = 1/9, so it scales the energy form by c.  A cell with a corner letter
    is then rank one, and only the all-centre word 5...5 is not: it carries
    nu = (c / r)^m of the mass, with the root's isotropic trace-one density
    I / (d - 1).  That gives mean_lambda2 = nu / (d - 1), a squared residual
    |I - e e^T|_F^2 / |I|_F^2 nu^2 = (d - 2) / (d - 1) nu^2, and dim_estimate
    = 1 + (d - 2) nu, for an orthonormal family with uniform weights and an
    eigenvalue cutoff below 1 / (d - 1).
    """
    d = len(laplacian)
    slots, boundary_ids, num_vertices = glued_slot_ids(5, d, VICSEK_PAIRS, 1)
    boundary_ids = boundary_ids.tolist()
    form = [[Fraction(0)] * num_vertices for _ in range(num_vertices)]
    for cell in slots.tolist():
        for p, a in enumerate(cell):
            for q, b in enumerate(cell):
                form[a][b] -= Fraction(laplacian[p][q]) / r
    interior = [v for v in range(num_vertices) if v not in boundary_ids]
    augmented = [[form[a][b] for b in interior] + [-form[a][b] for b in boundary_ids]
                 for a in interior]
    solved = [row[len(interior):] for row in _row_reduce(augmented)[0]]
    extension = {v: [Fraction(int(v == b)) for b in boundary_ids] for v in boundary_ids}
    extension.update(zip(interior, solved))
    a_maps = [[extension[v] for v in cell] for cell in slots.tolist()]
    for letter in range(1, d + 1):
        if _row_reduce(a_maps[letter - 1])[1] != 2:
            raise ValueError(f"corner letter {letter} does not have rank 2")
    centre = a_maps[d]
    pulled = [[sum(centre[p][i] * Fraction(laplacian[p][q]) * centre[q][j]
                   for p in range(d) for q in range(d)) for j in range(d)] for i in range(d)]
    c = Fraction(1, 9)
    if pulled != [[c * Fraction(v) for v in row] for row in laplacian]:
        raise ValueError("the centre letter does not scale the form by 1/9")
    laws = {}
    for m in depths:
        nu = (c / r) ** m
        laws[m] = (nu / (d - 1), Fraction(d - 2, d - 1) * nu * nu, 1 + (d - 2) * nu)
    return laws


# The Sierpinski gasket's level-1 gluing in the same form: cell i meets cell
# j at corner p_j of cell i, which is corner p_i of cell j.
SG2_PAIRS = (((1, 1), (2, 0)), ((1, 2), (3, 0)), ((2, 2), (3, 1)))


def sg2_mean_lambda2(laplacian, r, depths) -> dict:
    """Depth-m mean_lambda2 of the Sierpinski gasket's harmonic family, for
    each m in depths, as 1/2 sum_{|w| = m} sigma_2(C~_w)^2.

    The level-1 network glues three cells by SG2_PAIRS through
    glued_slot_ids, each cell carrying -laplacian / r_i, and A_i maps boundary
    values to the harmonic extension's values on the corners of cell i.  In
    coordinates x = T u, T = diag(sqrt(w)) V^T from the two nonzero
    eigenpairs (w, V) of -laplacian, the energy is |x|^2 and the normalized
    letters are C~_i = r_i^{-1/2} T A_i T^+, with C~_w = C~_{w_m} ... C~_{w_1}.
    The family's two members have |x| = 1/sqrt(2) and orthogonal
    coordinates, and uniform weights 1/2, so a cell's mass is
    1/2 |C~_w|_F^2, the total 1, and the mass times the second eigenvalue of
    its trace-one matrix 1/2 sigma_2(C~_w)^2.  sigma_2^2 is taken as
    det^2 / sigma_1^2, the determinant a product of the letters' own, so a
    nearly rank-one cell keeps its relative accuracy.
    """
    laplacian, r = np.asarray(laplacian, dtype=float), np.asarray(r, dtype=float)
    slots, boundary_ids, num_vertices = glued_slot_ids(3, 3, SG2_PAIRS, 1)
    form = np.zeros((num_vertices, num_vertices))
    for cell, corners in enumerate(slots):
        form[np.ix_(corners, corners)] -= laplacian / r[cell]
    interior = np.setdiff1d(np.arange(num_vertices), boundary_ids)
    extension = np.zeros((num_vertices, 3))
    extension[boundary_ids] = np.eye(3)
    extension[interior] = np.linalg.solve(form[np.ix_(interior, interior)],
                                          -form[np.ix_(interior, boundary_ids)])
    w, v = np.linalg.eigh(-laplacian)
    w, v = w[1:], v[:, 1:]
    to_x, from_x = np.sqrt(w)[:, None] * v.T, v / np.sqrt(w)
    letters = np.array([to_x @ extension[slots[i]] @ from_x / np.sqrt(r[i]) for i in range(3)])
    letter_dets = np.linalg.det(letters)
    words, dets, laws = np.eye(2)[None], np.ones(1), {}
    for m in range(1, max(depths) + 1):
        words = np.einsum("lab,wbc->lwac", letters, words).reshape(-1, 2, 2)
        dets = np.outer(letter_dets, dets).ravel()
        if m in depths:
            frobenius = np.einsum("wab,wab->w", words, words)
            top = 0.5 * (frobenius + np.sqrt(frobenius ** 2 - 4.0 * dets ** 2))
            laws[m] = 0.5 * math.fsum(dets ** 2 / top)
    return laws


def schur_boundary_form(slots: np.ndarray, num_vertices: int, boundary_ids: np.ndarray,
                        laplacian: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Eliminate interior vertices of the level-1 energy form, densely.

    Returns the effective quadratic form on the boundary; at a renormalization
    fixed point it equals -laplacian entry for entry.
    """
    form = np.zeros((num_vertices, num_vertices))
    for cell in range(slots.shape[0]):
        idx = slots[cell]
        form[np.ix_(idx, idx)] += (-laplacian) / r[cell]
    interior = np.setdiff1d(np.arange(num_vertices), boundary_ids)
    bb = form[np.ix_(boundary_ids, boundary_ids)]
    bi = form[np.ix_(boundary_ids, interior)]
    ii = form[np.ix_(interior, interior)]
    return bb - bi @ np.linalg.solve(ii, bi.T)


def sparse_energy_form(slots: np.ndarray, num_vertices: int,
                       laplacian: np.ndarray, cell_inv_r: np.ndarray) -> scipy.sparse.csr_matrix:
    """Assemble the level-m form as a sparse matrix from per-cell blocks."""
    d = laplacian.shape[0]
    block = np.broadcast_to(-laplacian, (slots.shape[0], d, d))
    data = block * cell_inv_r[:, None, None]
    rows = np.repeat(slots, d, axis=1).ravel()
    cols = np.tile(slots, (1, d)).ravel()
    form = scipy.sparse.coo_matrix(
        (data.ravel(), (rows, cols)), shape=(num_vertices, num_vertices)
    )
    return form.tocsr()


def sparse_harmonic_extension(form: scipy.sparse.csr_matrix, boundary_ids: np.ndarray,
                              boundary_values: np.ndarray) -> np.ndarray:
    """Solve the interior of a graph-harmonic function with scipy.sparse."""
    num = form.shape[0]
    interior = np.setdiff1d(np.arange(num), boundary_ids)
    values = np.zeros(num)
    values[boundary_ids] = boundary_values
    rhs = -form[interior][:, boundary_ids] @ boundary_values
    values[interior] = spsolve(form[interior][:, interior].tocsc(), rhs)
    return values


def word_pullback_coefficients(extensions: np.ndarray, level1_rows: np.ndarray,
                               word: tuple[int, ...]) -> np.ndarray:
    """Boundary values of a level-1 function restricted to the cell of ``word``.

    level1_rows[i] holds the function's values on the corners of level-1 cell
    i; deeper letters apply the extension matrix of that letter.
    """
    out = level1_rows[word[0] - 1]
    for letter in word[1:]:
        out = extensions[letter - 1] @ out
    return out


def brute_mass_matrix(extensions: np.ndarray, laplacian: np.ndarray, r: np.ndarray,
                      member_rows: list[np.ndarray], word: tuple[int, ...]) -> np.ndarray:
    """Pair masses of one cell from explicit matrix products, no chunking."""
    k = len(member_rows)
    scale = 2.0 / np.prod([r[letter - 1] for letter in word])
    pulled = [word_pullback_coefficients(extensions, rows, word) for rows in member_rows]
    gram = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            gram[i, j] = scale * (pulled[i] @ (-laplacian) @ pulled[j])
    return gram


def brute_density_field(extensions: np.ndarray, laplacian: np.ndarray, r: np.ndarray,
                        member_rows: list[np.ndarray], weights: np.ndarray,
                        depth: int, floor: float):
    """Every retained Z matrix at a depth, with per-word loops throughout.

    Returns (words, Z list, weighted-eigenvalue list) in lex order so the
    chunked scan can be compared row by row.
    """
    n = extensions.shape[0]
    root = np.sqrt(weights)
    words, mats, eigs = [], [], []
    for word in itertools.product(range(1, n + 1), repeat=depth):
        gram = brute_mass_matrix(extensions, laplacian, r, member_rows, word)
        lam = float(np.sum(weights * np.diag(gram)))
        if lam < floor:
            continue
        z = gram / lam
        z = 0.5 * (z + z.T)
        weighted = root[:, None] * z * root[None, :]
        words.append(word)
        mats.append(z)
        eigs.append(np.linalg.eigvalsh(weighted)[::-1])
    return words, mats, eigs


def sg2_exact_cell_masses(boundary_values, depth: int) -> list[Fraction]:
    """Depth-``depth`` cell masses, in lex order and exact rationals, of the
    harmonic function on the Sierpinski gasket with the given corner values.

    Cell i keeps corner p_i, and the midpoint of p_i p_j (k the third corner)
    takes the classical value (2 u_i + 2 u_j + u_k) / 5.  A cell's energy is
    the sum of squared corner differences and its mass twice that energy
    times (5/3)^depth.
    """
    corners = [tuple(Fraction(v) for v in boundary_values)]
    for _ in range(depth):
        refined = []
        for u in corners:
            for i in range(3):
                refined.append(tuple(
                    u[i] if j == i else (2 * u[i] + 2 * u[j] + u[3 - i - j]) / 5
                    for j in range(3)
                ))
        corners = refined
    scale = 2 * Fraction(5, 3) ** depth
    return [
        scale * sum((u[i] - u[j]) ** 2 for i, j in ((0, 1), (0, 2), (1, 2)))
        for u in corners
    ]


def lex_index(word: tuple[int, ...], n_letters: int) -> int:
    """Lex index of ``word`` among words of its length: its letters, each
    shifted down by one, are the base-n digits, most significant first."""
    return sum((letter - 1) * n_letters ** k for k, letter in enumerate(reversed(word)))


def reference_word(index: int, depth: int, n_letters: int) -> str:
    """Dot-joined letters of the word with lex index ``index``: its base-n
    digits, most significant first, each shifted up by one."""
    index = int(index)
    letters = []
    for _ in range(depth):
        index, digit = divmod(index, n_letters)
        letters.append(str(digit + 1))
    return ".".join(reversed(letters))


def reference_csv(header, rows) -> bytes:
    """CSV bytes built row by row: strings as given, integers with %d and
    floats with %.17g."""
    lines = [",".join(header)]
    for row in rows:
        fields = []
        for value in row:
            if isinstance(value, str):
                fields.append(value)
            elif isinstance(value, (int, np.integer)):
                fields.append("%d" % value)
            else:
                fields.append("%.17g" % value)
        lines.append(",".join(fields))
    return ("\n".join(lines) + "\n").encode("utf-8")
