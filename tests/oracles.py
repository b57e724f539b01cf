"""Independent recomputations the test suite checks the library against.

Each oracle takes a different route than the shipped code: slots are grouped
by quantized geometry instead of the matching-based union-find, boundary
forms come from dense Schur complements, cell masses from explicit per-word
matrix products instead of the chunked scan, and big-graph energies from a
scipy.sparse assembly.  CSV text is rebuilt one row at a time, with words
spelled out by digit expansion of the lex index and printf-style formatting,
never through the block writer or the package's word helpers.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.sparse
from scipy.sparse.linalg import spsolve


def geometric_slot_ids(realization: dict, boundary: tuple[str, ...], depth: int) -> np.ndarray:
    """Label every (cell, corner) slot by its quantized position under the IFS.

    Words are scanned in lex order and each distinct point gets the next id on
    first sight, which is exactly the numbering contract of the vertex tables.
    """
    maps = realization["maps"]
    points = realization["boundary_points"]
    n = len(maps)
    corners = [points[label] for label in boundary]
    ids: dict[tuple, int] = {}
    rows = []
    for word in itertools.product(range(1, n + 1), repeat=depth):
        row = []
        for corner in corners:
            pt = corner
            for letter in reversed(word):
                matrix, offset = maps[letter]
                pt = matrix @ pt + offset
            key = tuple(np.round(pt, 9))
            row.append(ids.setdefault(key, len(ids)))
        rows.append(row)
    return np.array(rows, dtype=np.int64)


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
