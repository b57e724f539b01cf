"""The per-chunk reduction against a reference kept verbatim from before it
wrote its steps into reused buffers: every column must keep its bytes, dtype,
shape and memory layout."""

import numpy as np
import pytest

import fracform as ff
from fracform import dimension
from fracform.config import MASS_FLOOR, PIVOT_TIE_TOL
from fracform.errors import NumericalError

from conftest import INTERVAL


# ---------------------------------------------------------------------------
# reference: the reduction as it was before it ran in place, verbatim


def reference_density_chunk(
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
    """
    lam = 2.0 * np.einsum("cia,cia,i->c", x, x, a, optimize=False)
    keep = lam >= floor
    lam = lam[keep]
    # compress along the last axis of the (k, d - 1, cells) view stores Y
    # cells-last, so the per-cell contractions here and in _zeta_block run
    # along the cells axis instead of over tiny matrices one at a time.
    kept = np.compress(keep, x.transpose(1, 2, 0), axis=2)
    kept *= np.sqrt(2.0 / lam)
    factors = kept.transpose(2, 0, 1)
    if x.shape[2] == 2:
        spectrum = reference_two_column_spectrum(a, kept[:, 0], kept[:, 1])
    else:
        gram = np.einsum("cia,i,cib->cab", factors, a, factors, optimize=False)
        spectrum = np.linalg.eigvalsh(gram)[:, ::-1]
    trace = np.einsum("iac,iac,i->c", kept, kept, a, optimize=False)
    gap = np.abs(trace - 1.0).max(initial=0.0, keepdims=True)
    alpha, zeta, residuals = reference_zeta_block(factors, a)
    return dict(indices=rows[keep], lam=lam, factors=factors, alpha=alpha, zeta=zeta,
                eigenvalues=spectrum[:, : min(x.shape[1:])], residuals=residuals, gap=gap)


def reference_two_column_spectrum(a: np.ndarray, y0: np.ndarray, y1: np.ndarray) -> np.ndarray:
    """Descending eigenvalues (cells x 2) of G = Y^T diag(a) Y for the columns
    y0, y1 of Y, each k x cells.

    lambda_1 = (g00 + g11 + hypot(g00 - g11, 2 g01)) / 2, the hypot as a
    plain square root, since every g is at most the trace, 1.
    lambda_2 = det G / lambda_1 with det G = g_pp s, where p is the column
    with the larger diagonal entry and s = sum_i a_i r_i^2 the weighted Schur
    complement of r = y_q - (g_pq / g_pp) y_p.  s is a sum of squares, so
    lambda_2 >= 0, and it avoids the cancellation of g00 g11 - g01^2:
    lambda_2 keeps about eps / sqrt(lambda_2) relative accuracy.
    """
    g00 = np.einsum("ic,ic,i->c", y0, y0, a, optimize=False)
    g11 = np.einsum("ic,ic,i->c", y1, y1, a, optimize=False)
    g01 = np.einsum("ic,ic,i->c", y0, y1, a, optimize=False)
    gap = g00 - g11
    lam1 = 0.5 * (g00 + g11 + np.sqrt(gap * gap + 4.0 * g01 * g01))
    gpp = np.maximum(g00, g11)
    t = g01 / gpp
    # r = c0 y0 + c1 y1 with (c0, c1) = (-t, 1) where p = 0 and (1, -t) where
    # p = 1, picked by a 0/1 mask: each product with 0 or 1 is exact, and
    # arithmetic avoids the branches np.where takes on every cell.
    p0 = (gap >= 0.0).astype(float)
    p1 = 1.0 - p0
    r = (p1 - p0 * t) * y0
    r += (p0 - p1 * t) * y1
    s = np.einsum("ic,ic,i->c", r, r, a, optimize=False)
    return np.stack((lam1, gpp * s / lam1), axis=1)


def reference_zeta_block(
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
    eps / residual.  The einsum reductions follow y's memory layout, so the
    bits do too.
    """
    diag = np.einsum("cia,cia->ci", y, y, optimize=False)
    weighted = weights[None, :] * diag
    # The first index within PIVOT_TIE_TOL of the row maximum, not rounding, wins.
    tied = weighted >= (1.0 - PIVOT_TIE_TOL) * weighted.max(axis=1, keepdims=True)
    alpha = np.argmax(tied, axis=1)
    pivot = np.take_along_axis(diag, alpha[:, None], axis=1)[:, 0]
    if y.shape[0] and float(pivot.min()) <= 0.0:
        raise NumericalError("retained cell with nonpositive pivot diagonal entry")
    # The pivot rows, taken so that they keep the factors' cells-last layout.
    pivot_rows = np.take_along_axis(y.transpose(1, 2, 0), alpha[None, None, :], axis=0)[0].T
    root = np.sqrt(pivot)[:, None]
    zeta = np.einsum("cia,ca->ci", y, pivot_rows, optimize=False) / root
    u = pivot_rows / root
    h = np.einsum("cia,cib->cab", y, y, optimize=False)
    p = y - zeta[:, :, None] * u[:, None, :]
    gap = np.einsum("cia,cib->cab", p, p, optimize=False)
    num = np.sqrt(np.einsum("cab,cab->c", gap, gap, optimize=False))
    den = np.sqrt(np.einsum("cab,cab->c", h, h, optimize=False))
    return alpha, zeta, num / den


# ---------------------------------------------------------------------------
# chunks


def _structure(name):
    spec = ff.validate_structure(INTERVAL) if name == "interval" else ff.builtin_structure(name)
    return ff.harmonic_structure(spec)


def _chunks(name, build, depth):
    """The family weights, the scan's floor and every raw scan chunk."""
    hs = _structure(name)
    fam = getattr(ff, f"{build}_family")(hs)
    total = float(np.sum(fam.weights * [2.0 * ff.energy(m) for m in fam.members]))
    floor = MASS_FLOOR * total
    scan = ff.scan_cell_masses(hs, fam.members, depth, weights=fam.weights, floor=floor)
    return fam.weights, floor, list(scan)


def _assert_same(new, old):
    assert new.dtype == old.dtype
    assert new.shape == old.shape
    assert new.strides == old.strides
    assert new.tobytes() == old.tobytes()


def _assert_same_records(a, floor, rows, x):
    new = dimension._density_chunk(a, floor, rows, x)
    old = reference_density_chunk(a, floor, rows, x)
    assert new.keys() == old.keys()
    for name in old:
        _assert_same(new[name], old[name])
    return new


CASES = [
    ("sg2", "harmonic", 10),     # k = 2, d - 1 = 2: the closed-form spectrum
    ("sg2", "level1", 9),        # k = 5, d - 1 = 2
    ("vicsek", "harmonic", 7),   # k = 3, d - 1 = 3: eigvalsh
    ("vicsek", "level1", 7),     # k = 15, d - 1 = 3, pruned, exact pivot ties
    ("interval", "harmonic", 12),  # k = 1, d - 1 = 1
]


@pytest.mark.parametrize("name,build,depth", CASES)
def test_reduction_matches_reference_bit_for_bit(name, build, depth):
    a, floor, chunks = _chunks(name, build, depth)
    for rows, x in chunks:
        _assert_same_records(a, floor, rows, x)


def test_reference_cases_tie_and_prune():
    # The vicsek level-1 chunks hold cells whose weighted diagonals tie, so
    # the pivot is not simply the largest entry, and the scan prunes cells.
    a, floor, chunks = _chunks("vicsek", "level1", 7)
    assert sum(len(rows) for rows, _ in chunks) < 5 ** 7
    record = _assert_same_records(a, floor, *chunks[0])
    weighted = a * np.einsum("cia,cia->ci", record["factors"], record["factors"])
    top = weighted.max(axis=1, keepdims=True)
    assert np.any((weighted >= (1.0 - PIVOT_TIE_TOL) * top).sum(axis=1) > 1)
    assert np.any(weighted[np.arange(len(weighted)), record["alpha"]] != top[:, 0])


@pytest.mark.parametrize("name,build,depth", CASES)
def test_reduction_matches_reference_when_the_floor_drops_cells(name, build, depth):
    a, _, chunks = _chunks(name, build, depth)
    rows, x = chunks[-1]
    lam = 2.0 * np.einsum("cia,cia,i->c", x, x, a)
    floor = float(np.median(lam))
    record = _assert_same_records(a, floor, rows, x)
    assert 0 < record["lam"].size < lam.size
    _assert_same_records(a, 2.0 * float(lam.max()), rows, x)  # nothing kept


@pytest.mark.parametrize("name,build,depth", CASES)
def test_reduction_matches_reference_on_a_nan_row(name, build, depth):
    # A NaN row in x has a NaN mass, which fails every floor.
    a, floor, chunks = _chunks(name, build, depth)
    rows, x = chunks[0]
    x = x.copy()
    x[3] = np.nan
    record = _assert_same_records(a, floor, rows, x)
    assert rows[3] not in record["indices"]


@pytest.mark.parametrize("build", ["harmonic", "level1"])
def test_reduction_matches_reference_on_an_infinite_row(build):
    # An infinite row is kept, and its factor row, inf * 0, is NaN, so no
    # member ties and the pivot is member 0, as np.argmax of an all-false row
    # gives.  eigvalsh refuses a NaN Gram, so this takes the closed form.
    a, floor, chunks = _chunks("sg2", build, 9)
    rows, x = chunks[0]
    x = x.copy()
    x[7] = np.inf
    with np.errstate(invalid="ignore"):
        record = _assert_same_records(a, floor, rows, x)
    assert record["alpha"][7] == 0
    assert np.isnan(record["residuals"][7])


@pytest.mark.parametrize("name,build,depth", CASES)
def test_zeta_block_matches_reference_on_a_nan_row(name, build, depth):
    a, floor, chunks = _chunks(name, build, depth)
    factors = reference_density_chunk(a, floor, *chunks[0])["factors"]
    y = np.ascontiguousarray(factors.transpose(1, 2, 0))
    y[:, :, 2] = np.nan
    y = y.transpose(2, 0, 1)
    with np.errstate(invalid="ignore"):
        new, old = dimension._zeta_block(y, a), reference_zeta_block(y, a)
    for column_new, column_old in zip(new, old):
        _assert_same(column_new, column_old)
    assert new[0][2] == 0


def test_zeta_block_refuses_a_nonpositive_pivot_like_the_reference():
    y = np.zeros((2, 3, 4)).transpose(2, 0, 1)
    for zeta_block in (dimension._zeta_block, reference_zeta_block):
        with pytest.raises(NumericalError, match="nonpositive pivot"):
            zeta_block(y, np.array([0.5, 0.5]))
