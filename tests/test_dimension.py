import dataclasses
import functools
import math
import types

import numpy as np
import pytest

import fracform as ff
from fracform import dimension, harmonic
from fracform.config import TAU_RANK
from fracform.dimension import _density_chunk, _zeta_block, check_field_bytes
from fracform.errors import CapExceededError, NumericalError, ValidationError

import oracles


# ---------------------------------------------------------------------------
# families

@pytest.mark.parametrize("name,harmonic_k,level1_k", [("sg2", 2, 5), ("vicsek", 3, 15)])
def test_family_sizes(name, harmonic_k, level1_k):
    hs = ff.harmonic_structure(ff.builtin_structure(name))
    assert ff.harmonic_family(hs).size == harmonic_k
    assert ff.level1_family(hs).size == level1_k


@pytest.mark.parametrize("name", ["sg2", "vicsek"])
@pytest.mark.parametrize("build", [ff.harmonic_family, ff.level1_family])
def test_family_members_orthonormal_and_centered(name, build):
    hs = ff.harmonic_structure(ff.builtin_structure(name))
    mean = ff.mean_functional(hs)
    fam = build(hs, mean=mean)
    for i, f in enumerate(fam.members):
        assert mean.integrate(f) == pytest.approx(0.0, abs=1e-10)
        for j, g in enumerate(fam.members):
            target = 1.0 if i == j else 0.0
            assert 2 * ff.energy(f, g) == pytest.approx(target, abs=1e-10)
    assert fam.weights.sum() == pytest.approx(1.0)
    assert fam.weights.min() > 0


def test_family_from_values_rejects_constants(sg2):
    with pytest.raises(ValidationError):
        ff.family_from_values(sg2, 0, [[2.0, 2.0, 2.0]])


def test_family_weights_validated(sg2):
    members = ff.harmonic_family(sg2).members
    with pytest.raises(ValidationError, match="^family weights must sum to 1$"):
        ff.FunctionFamily(members=members, weights=np.array([0.9, 0.2]))
    with pytest.raises(ValidationError, match="^family weights must be positive$"):
        ff.FunctionFamily(members=members, weights=[0.0, 1.0])
    count = r"^family weights: need 2 values, got shape \(3,\)$"
    with pytest.raises(ValidationError, match=count):
        ff.FunctionFamily(members=members, weights=[0.2, 0.3, 0.5])


# ---------------------------------------------------------------------------
# density matrix fields

@pytest.mark.parametrize("name,depth", [("sg2", 2), ("sg2", 3), ("vicsek", 2)])
def test_field_matches_brute_force(name, depth):
    """The chunked scan reproduces an explicit per-word loop."""
    hs = ff.harmonic_structure(ff.builtin_structure(name))
    fam = ff.harmonic_family(hs)
    field = ff.density_matrices(fam, depth)
    rows = [ff.lift(m, 1).cell_coeffs for m in fam.members]
    words, mats, eigs = oracles.brute_density_field(
        hs.extensions, hs.laplacian, hs.weights, rows, fam.weights,
        depth, field.floor,
    )
    assert field.size == len(words)
    for c, word in enumerate(words):
        assert int(field.indices[c]) == oracles.lex_index(word, hs.spec.n_letters)
        np.testing.assert_allclose(field.matrices[c], mats[c], atol=1e-12)
        np.testing.assert_allclose(field.eigenvalues[c], eigs[c], atol=1e-12)


@pytest.mark.parametrize("name", ["sg2", "vicsek"])
def test_field_invariants(name):
    hs = ff.harmonic_structure(ff.builtin_structure(name))
    field = ff.density_matrices(ff.harmonic_family(hs), 4)
    ff.verify_field_invariants(field)
    assert field.eigenvalues[:, 0].max() <= 1.0 + 1e-10
    traces = np.einsum("i,cii->c", field.weights, field.matrices)
    np.testing.assert_allclose(traces, 1.0, atol=1e-12)


@pytest.mark.parametrize("name,depth", [("sg2", 7), ("vicsek", 5)])
@pytest.mark.parametrize("build", [ff.harmonic_family, ff.level1_family])
def test_field_matrices_exactly_symmetric(name, depth, build):
    # No symmetrizing pass follows, so this rests on the einsum forming Z = Y Y^T.
    hs = ff.harmonic_structure(ff.builtin_structure(name))
    field = ff.density_matrices(build(hs), depth)
    assert np.array_equal(field.matrices, field.matrices.transpose(0, 2, 1))


def test_field_byte_budget(sg2, monkeypatch):
    # 3**11 cells of 50 x 50 float64 matrices fit in 4 GiB; 3**12 do not.
    check_field_bytes(3**11, 11, 50)
    with pytest.raises(CapExceededError):
        check_field_bytes(3**12, 12, 50)
    # Fields are built under any cap, since they hold no k x k matrix; reading
    # matrices pays for the retained cells, before it scans again.  The cap is
    # one byte short of all 3**4 cells' 2 x 2 matrices.
    monkeypatch.setattr(dimension, "MAX_FIELD_BYTES", 3**4 * 32 - 1)
    fam = ff.harmonic_family(sg2)
    # The masses come from a field of their own: reading one forms full's columns.
    lam = ff.density_matrices(fam, 4).lam
    lo, hi = float(lam.min()), float(lam.max())
    full = ff.density_matrices(fam, 4)
    pruned = ff.density_matrices(fam, 4, mass_floor=0.5 * (lo + hi) / fam.total_mass)
    assert (full.size, full.skipped) == (3**4, 0) and 0 < pruned.size < full.size
    with pytest.raises(CapExceededError, match=f"density field of 2 members needs {3**4 * 32} "):
        full.matrices
    assert "_rescanned" not in vars(full)
    assert pruned.matrices.shape == (pruned.size, 2, 2)


def test_total_mass_and_floor(sg2):
    fam = ff.harmonic_family(sg2)
    field = ff.density_matrices(fam, 3)
    # members carry twice-energy one and the weights are convex
    assert fam.total_mass == pytest.approx(1.0, rel=1e-12)
    assert field.floor == 1e-14 * fam.total_mass
    lo, hi = float(field.lam.min()), float(field.lam.max())
    assert lo < hi
    raised = ff.density_matrices(fam, 3, mass_floor=0.5 * (lo + hi) / fam.total_mass)
    assert 0 < raised.size < field.size
    assert raised.skipped == field.skipped + field.size - raised.size


def test_all_cells_skipped_raises(sg2):
    fam = ff.harmonic_family(sg2)
    with pytest.raises(ValidationError):
        ff.density_matrices(fam, 2, mass_floor=10.0)


def test_zero_mass_floor_is_refused(sg2):
    with pytest.raises(ValidationError, match="^mass floor must be positive$"):
        ff.density_matrices(ff.harmonic_family(sg2), 2, mass_floor=0.0)


@functools.lru_cache(maxsize=4)
def unpruned_field(name, build, depth):
    """Family, total mass, and the mass, factor, spectrum, pivot and residual
    of every depth-``depth`` cell in lex order: the scan without a floor, each
    chunk reduced as density_matrices reduces it, with a zero floor."""
    hs = ff.harmonic_structure(ff.builtin_structure(name))
    fam = getattr(ff, f"{build}_family")(hs)
    total = fam.total_mass
    records = [_density_chunk(fam.weights, 0.0, rows, x)
               for rows, x in ff.scan_cell_masses(hs, fam.members, depth)]
    names = ("indices", "lam", "factors", "eigenvalues", "alpha", "residuals")
    rows, lam, factors, eigenvalues, alpha, residuals = (
        np.concatenate([record[name] for record in records]) for name in names
    )
    assert np.array_equal(rows, np.arange(hs.spec.n_letters ** depth))
    return fam, total, lam, factors, eigenvalues, alpha, residuals


@pytest.mark.parametrize("name,build,depth", [
    ("vicsek", "level1", 5), ("vicsek", "harmonic", 6),
    ("sg2", "level1", 6), ("sg2", "harmonic", 7),
])
@pytest.mark.parametrize("floor", [1e-14, 1e-10, 1e-6, "above-smallest", "above-median"])
@pytest.mark.parametrize("prefix", [1, 2])
def test_pruned_field_equals_full_field(name, build, depth, floor, prefix, monkeypatch):
    """A scan that stops refining cells below the floor builds the very field
    that filtering the factor field of every cell by the floor builds, however
    many chunks the walk splits the depth into."""
    fam, total, lam, factors, eigenvalues, alpha, residuals = unpruned_field(name, build, depth)
    # The full field is one chunk; the pruned walk splits at depth ``prefix``
    # into n or n^2 chunks, and starts pruning at that depth.
    n = fam.members[0].structure.spec.n_letters
    monkeypatch.setattr(harmonic, "CHUNK_CELLS", n ** (depth - prefix))
    assert harmonic._chunk_prefix_depth(n, depth) == prefix
    if isinstance(floor, str):
        # Just above a real cell's mass, so that cell and its equals drop out.
        live = np.sort(lam[lam >= 1e-14 * total])
        cell = live[0] if floor == "above-smallest" else live[live.size // 2]
        floor = float(np.nextafter(cell, np.inf)) / total
    keep = lam >= floor * total
    field = ff.density_matrices(fam, depth, mass_floor=floor)
    assert np.array_equal(field.indices, np.flatnonzero(keep))
    assert np.array_equal(field.lam, lam[keep])
    assert np.array_equal(field.factors, factors[keep])
    assert np.array_equal(field.eigenvalues, eigenvalues[keep])
    assert np.array_equal(field.alpha, alpha[keep])
    assert np.array_equal(field.residuals, residuals[keep])
    kept = factors[keep]
    assert np.array_equal(field.matrices, np.einsum("cia,cja->cij", kept, kept, optimize=False))
    assert field.skipped == lam.size - int(np.sum(keep))
    assert 0 < field.size


def test_pruned_scan_refines_only_live_cells(vicsek):
    # The level-1 family on vicsek leaves 94% of the depth-8 cells below the
    # floor; the descent refines only the 7,285 cells retained at depth 7.
    fam = ff.level1_family(vicsek)
    field = ff.density_matrices(fam, 8)
    assert (field.size, field.skipped) == (21_865, 368_760)
    assert field.eigenvalues.shape == (21_865, 3)  # min(k, d - 1) = min(15, 3) columns
    assert ff.density_matrices(fam, 7).size == 7_285
    blocks = ff.scan_cell_masses(vicsek, fam.members, 8, weights=fam.weights, floor=field.floor)
    assert sum(x.shape[0] for _, x in blocks) == 36_425 == 5 * 7_285


def _weighted_spectra(field):
    """Descending eigenvalues of the k x k trace-one forms sqrt(a_i a_j) Z_ij."""
    root = np.sqrt(field.weights)
    return np.linalg.eigvalsh(field.matrices * np.outer(root, root))[:, ::-1]


@pytest.mark.parametrize("name,depth", [("vicsek", 6), ("sg2", 8)])
def test_factored_spectrum_matches_full_spectrum(name, depth):
    # k = 15 against d - 1 = 3 on vicsek, k = 5 against d - 1 = 2 on sg2.
    hs = ff.harmonic_structure(ff.builtin_structure(name))
    field = ff.density_matrices(ff.level1_family(hs), depth)
    top = hs.d - 1
    assert field.factors.shape[1:] == (field.family_size, top) and top < field.family_size
    reference = _weighted_spectra(field)
    np.testing.assert_allclose(field.eigenvalues, reference[:, :top], rtol=0, atol=1e-14)
    assert field.eigenvalues.shape == (field.size, min(field.family_size, hs.d - 1))


def test_factored_spectrum_with_fewer_members_than_rank(vicsek):
    # Two members against d - 1 = 3: both spectrum columns are computed.
    rows = [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, -0.5]]
    field = ff.density_matrices(ff.family_from_values(vicsek, 0, rows), 5)
    assert field.eigenvalues.shape == (field.size, 2)
    assert field.factors.shape[1:] == (2, 3)
    np.testing.assert_allclose(field.eigenvalues, _weighted_spectra(field), rtol=0, atol=1e-14)
    ff.verify_field_invariants(field)


def _weighted_gram(field):
    return np.einsum("cia,i,cib->cab", field.factors, field.weights, field.factors, optimize=False)


def test_closed_form_lambda2_matches_mpmath(sg2):
    # Nearly rank-one cells: eigvalsh of the 2 x 2 Gram finds lambda_2 only to
    # about eps * lambda_1 (3.9e-7 relative here); the Schur complement keeps it.
    mpmath = pytest.importorskip("mpmath")
    field = ff.density_matrices(ff.harmonic_family(sg2), 11)
    lam2 = field.eigenvalues[:, 1]
    picks = np.concatenate([
        np.argsort(lam2)[:5], np.random.default_rng(11).choice(field.size, 5, replace=False)
    ])
    a = [mpmath.mpf(float(w)) for w in field.weights]
    with mpmath.workdps(50):
        for c in picks:
            y = [[mpmath.mpf(float(v)) for v in row] for row in field.factors[c]]
            g = [[sum(a[i] * y[i][p] * y[i][q] for i in range(len(a))) for q in (0, 1)]
                 for p in (0, 1)]
            trace, det = g[0][0] + g[1][1], g[0][0] * g[1][1] - g[0][1] ** 2
            exact = (trace - mpmath.sqrt(trace ** 2 - 4 * det)) / 2
            assert abs(lam2[c] - exact) <= 1e-9 * exact, (c, lam2[c], exact)


@pytest.mark.parametrize("build,depth", [(ff.harmonic_family, 11), (ff.level1_family, 9)])
def test_residual_matches_mpmath(sg2, build, depth):
    # Nearly rank-one cells: any product taken before the rank-one part is
    # subtracted from Y cancels down to about eps / residual (1.1e-6 and
    # 3.5e-9 relative here); subtracting first keeps about eps / sqrt(residual).
    mpmath = pytest.importorskip("mpmath")
    field = ff.density_matrices(build(sg2), depth)
    residuals = field.residuals
    picks = np.concatenate([
        np.argsort(residuals)[:5], np.random.default_rng(depth).choice(field.size, 5, replace=False)
    ])
    with mpmath.workdps(50):
        for c in picks:
            y = mpmath.matrix([[mpmath.mpf(float(v)) for v in row] for row in field.factors[c]])
            z = y * y.T
            alpha = int(field.alpha[c])
            zeta = z[:, alpha] / mpmath.sqrt(z[alpha, alpha])
            exact = mpmath.mnorm(z - zeta * zeta.T, "f") / mpmath.mnorm(z, "f")
            assert abs(residuals[c] - exact) <= 1e-10 * exact, (c, residuals[c], exact)


@pytest.mark.parametrize("build,depth", [
    (ff.level1_family, 8), (lambda hs: ff.family_from_values(hs, 0, [[1.0, 0.0, 0.5]]), 6),
])
def test_closed_form_spectrum_agrees_with_eigvalsh(sg2, build, depth):
    # k = 5 and k = 1 members against d - 1 = 2 columns: top = 2 and top = 1.
    field = ff.density_matrices(build(sg2), depth)
    top = min(field.factors.shape[1:])
    gram = _weighted_gram(field)
    computed = field.eigenvalues[:, :top]
    reference = np.linalg.eigvalsh(gram)[:, ::-1][:, :top]
    np.testing.assert_allclose(computed, reference, rtol=0, atol=1e-13 * computed[:, 0].max())
    assert np.all(np.abs(computed - reference) <= 1e-13 * computed[:, :1])
    np.testing.assert_allclose(
        computed.sum(axis=1), np.einsum("caa->c", gram), rtol=0, atol=1e-14
    )
    assert np.all(field.eigenvalues >= 0.0)
    assert field.eigenvalues.shape == (field.size, min(field.family_size, sg2.d - 1))


def test_spectrum_past_two_columns_is_eigvalsh(vicsek):
    # d - 1 = 3 keeps eigvalsh of the einsum Gram, bit for bit.
    field = ff.density_matrices(ff.level1_family(vicsek), 5)
    reference = np.linalg.eigvalsh(_weighted_gram(field))[:, ::-1]
    assert np.array_equal(field.eigenvalues[:, :3], reference)


@pytest.mark.parametrize("build", [ff.harmonic_family, ff.level1_family])
def test_two_column_spectrum_calls_no_eigvalsh(sg2, monkeypatch, build):
    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called on a d - 1 = 2 field")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    field = ff.density_matrices(build(sg2), 6)
    assert field.size == 3 ** 6


def test_density_stage_peak_memory(sg2):
    # A field holds no per-cell column.  The first read of one forms every
    # column: the chunk records are kept until the scan ends, and each column
    # is joined while its parts drop, so the read holds one copy of the
    # columns plus the one being joined (about 1.4x here), not every chunk's
    # parts plus the whole field.
    tracemalloc = pytest.importorskip("tracemalloc")
    field = ff.density_matrices(ff.harmonic_family(sg2), 12)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        field.lam
        current, peak = (traced - base for traced in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    nbytes = sum(getattr(field, name).nbytes for name in dimension.CELL_COLUMNS)
    assert current <= 1.05 * nbytes, current / nbytes
    assert peak <= 1.75 * nbytes, peak / nbytes


def test_pruned_field_holds_no_spare_capacity(vicsek):
    # The field itself holds no per-cell column, and the columns a read forms
    # hold the retained rows alone, not n^depth rows of capacity.
    tracemalloc = pytest.importorskip("tracemalloc")
    fam = ff.level1_family(vicsek)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        field = ff.density_matrices(fam, 8)
        built = tracemalloc.get_traced_memory()[0] - base
        field.lam
        current = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert field.skipped > 10 * field.size
    nbytes = sum(getattr(field, name).nbytes for name in dimension.CELL_COLUMNS)
    assert built <= 0.05 * nbytes, built / nbytes
    assert current <= 1.05 * nbytes, current / nbytes


@pytest.mark.parametrize("bad_chunk", [0, 4, 8])
def test_nan_gap_from_any_chunk_fails_the_trace_check(sg2, monkeypatch, bad_chunk):
    # The worst gap is kept across chunks by a NaN-aware maximum; Python's
    # max(0.0, nan) is 0.0, which would let a NaN after the first chunk pass.
    reduce, width, seen = dimension._density_chunk, 3**9, []

    def one_nan_gap(a, floor, rows, x):
        record = reduce(a, floor, rows, x)
        chunk = int(rows[0]) // width
        seen.append(chunk)
        return {**record, "gap": np.array([np.nan])} if chunk == bad_chunk else record

    monkeypatch.setattr(dimension, "_density_chunk", one_nan_gap)
    field = ff.density_matrices(ff.harmonic_family(sg2), 11)
    assert sorted(seen) == list(range(9))  # sg2 depth 11 scans 9 chunks of 3^9 cells
    with pytest.raises(ValidationError, match="weighted trace identity violated"):
        ff.verify_field_invariants(field)


@pytest.mark.parametrize("bad", [-1e-9, np.nan])
def test_psd_check_reads_computed_columns(vicsek, bad):
    # The field keeps the smallest of the min(k, d - 1) computed eigenvalue
    # columns as the chunks stream, and the check reads it.
    field = ff.density_matrices(ff.level1_family(vicsek), 3)
    assert field.eigenvalues.shape[1] == vicsek.d - 1
    assert field.min_eigenvalue == field.eigenvalues.min()
    ff.verify_field_invariants(field)
    with pytest.raises(ValidationError, match="positivity"):
        ff.verify_field_invariants(dataclasses.replace(field, min_eigenvalue=bad))


@pytest.mark.parametrize("bad_chunk", [0, 4, 8])
def test_nan_eigenvalue_from_any_chunk_fails_the_psd_check(sg2, monkeypatch, bad_chunk):
    # The smallest eigenvalue is kept across chunks by a NaN-keeping minimum.
    reduce, width = dimension._density_chunk, 3**9

    def one_nan_eigenvalue(a, floor, rows, x):
        record = reduce(a, floor, rows, x)
        if int(rows[0]) // width == bad_chunk:
            record["eigenvalues"][-1, -1] = np.nan
        return record

    monkeypatch.setattr(dimension, "_density_chunk", one_nan_eigenvalue)
    field = ff.density_matrices(ff.harmonic_family(sg2), 11)
    assert np.isnan(field.min_eigenvalue)
    with pytest.raises(ValidationError, match="positivity"):
        ff.verify_field_invariants(field)


@pytest.mark.parametrize("bad", [1e-9, np.nan])
def test_trace_check_reads_worst_gap(vicsek, bad):
    # The gate reads the gap the scan chunks computed from their own
    # cells-last factors; a copy in that layout gives the same bits.
    field = ff.density_matrices(ff.level1_family(vicsek), 3)
    y = np.ascontiguousarray(field.factors.transpose(1, 2, 0))
    trace = np.einsum("iac,iac,i->c", y, y, field.weights, optimize=False)
    assert field.worst_trace_gap == np.abs(trace - 1.0).max()
    ff.verify_field_invariants(field)
    with pytest.raises(ValidationError, match="weighted trace identity violated"):
        ff.verify_field_invariants(dataclasses.replace(field, worst_trace_gap=bad))


def test_family_energy_normalization_checked(sg2):
    # The family checks its members' normalization when it is built, so an
    # unnormalized family never reaches a scan.
    f = ff.PiecewiseHarmonic(sg2, 0, np.array([1.0, 0.0, 0.0]))  # 2E = 4
    with pytest.raises(ValidationError, match=r"^family member 1 has twice-energy 4\.0, expected 1$"):
        ff.FunctionFamily(members=(f,), weights=np.array([1.0]))


# ---------------------------------------------------------------------------
# zeta factors and rank profiles

def test_zeta_reconstructs_pivot(sg2):
    field = ff.density_matrices(ff.harmonic_family(sg2), 4)
    zeta = ff.zeta_factors(field)
    for c in range(0, field.size, 7):
        z = field.matrices[c]
        a = zeta.alpha[c]
        assert zeta.zeta[c, a] ** 2 == pytest.approx(z[a, a], rel=1e-12)
        np.testing.assert_allclose(
            zeta.zeta[c] * zeta.zeta[c, a], z[:, a], atol=1e-12
        )
        outer = np.outer(zeta.zeta[c], zeta.zeta[c])
        expected = np.linalg.norm(z - outer) / np.linalg.norm(z)
        assert zeta.residuals[c] == pytest.approx(expected, abs=1e-12)


def test_rank_one_columns_do_not_depend_on_join_layout(vicsek):
    # Some depth-8 chunks retain no cell, and joining their empty parts makes
    # the factor array C-ordered.  The rank-one columns still carry the bits
    # of each chunk's own cells-last factor.
    field = ff.density_matrices(ff.harmonic_family(vicsek), 8)
    assert field.factors.flags.c_contiguous
    zeta = ff.zeta_factors(field)
    cells_last = np.ascontiguousarray(field.factors.transpose(1, 2, 0)).transpose(2, 0, 1)
    alpha, z, residuals = _zeta_block(cells_last, field.weights)
    assert np.array_equal(zeta.alpha, alpha)
    assert np.array_equal(zeta.residuals, residuals)
    assert np.array_equal(zeta.zeta, z)


@pytest.mark.parametrize("depth", [2, 3, 4])
def test_zeta_alpha_is_smallest_tied_index(vicsek, depth):
    # Symmetric cells of the level-1 family have weighted diagonals that tie
    # up to rounding (gaps below 1e-12, against genuine gaps above 2e-5); the
    # pivot must be the first tied member, whatever the rounding.
    field = ff.density_matrices(ff.level1_family(vicsek), depth)
    weighted = field.weights * np.einsum("cii->ci", field.matrices)
    tied = weighted >= (1.0 - 1e-7) * weighted.max(axis=1, keepdims=True)
    assert np.any(tied.sum(axis=1) > 1)
    np.testing.assert_array_equal(ff.zeta_factors(field).alpha, tied.argmax(axis=1))


def test_rank_statistics_recomputed(sg2):
    fam = ff.harmonic_family(sg2)
    field = ff.density_matrices(fam, 5)
    prof = ff.rank_statistics(field)
    lam = field.lam
    expect_l2 = float(np.sum(lam * field.eigenvalues[:, 1]) / np.sum(lam))
    expect_res = float(np.sum(lam * field.residuals) / np.sum(lam))
    expect_dim = float(
        np.sum(lam * np.sum(field.eigenvalues > 0.05, axis=1)) / np.sum(lam)
    )
    assert prof.mean_lambda2 == pytest.approx(expect_l2, rel=1e-13)
    assert prof.dim_estimate == pytest.approx(expect_dim, rel=1e-13)
    assert prof.mean_residual == pytest.approx(expect_res, rel=1e-13)
    assert prof.retained_cells == field.size
    # The cutoff is density_matrices' and reaches the count.
    loose = ff.rank_statistics(ff.density_matrices(fam, 5, tau_rank=0.3))
    expect_loose = float(np.sum(lam * np.sum(field.eigenvalues > 0.3, axis=1)) / np.sum(lam))
    assert loose.dim_estimate == pytest.approx(expect_loose, rel=1e-13)
    assert loose.dim_estimate < prof.dim_estimate
    with pytest.raises(ValidationError, match=r"tau_rank must lie in \(0, 1\), got 1.5"):
        ff.density_matrices(fam, 5, tau_rank=1.5)


@pytest.mark.parametrize("depth", [10, 11, 12])
def test_streamed_means_are_within_rounding_of_fsum(sg2, depth):
    # The means are math.fsum of per-chunk np.sum partials (3 to 27 chunks
    # here); each stays within two rounding units of the correctly rounded
    # sum of the same per-cell products.
    field = ff.density_matrices(ff.harmonic_family(sg2), depth)
    prof = ff.rank_statistics(field)
    lam, eigenvalues = field.lam, field.eigenvalues
    weight = math.fsum(lam)
    expected = {
        "mean_lambda2": math.fsum(lam * eigenvalues[:, 1]) / weight,
        "mean_residual": math.fsum(lam * field.residuals) / weight,
        "dim_estimate": math.fsum(lam * np.sum(eigenvalues > TAU_RANK, axis=1)) / weight,
    }
    for name, value in expected.items():
        assert abs(getattr(prof, name) - value) <= 4.4e-16 * value, name


def test_single_member_family_rank_one(sg2):
    mean = ff.mean_functional(sg2)
    fam = ff.family_from_values(sg2, 0, [[1.0, 0.0, 0.0]], mean=mean)
    assert fam.size == 1
    field = ff.density_matrices(fam, 3)
    prof = ff.rank_statistics(field)
    assert prof.mean_lambda2 == 0.0
    assert prof.dim_estimate == pytest.approx(1.0)
    np.testing.assert_allclose(field.matrices, 1.0, atol=1e-12)


def test_representing_field_identity(vicsek):
    field = ff.density_matrices(ff.level1_family(vicsek), 4)
    zeta = ff.zeta_factors(field)
    rep = ff.representing_field(field, zeta=zeta)
    assert rep.violations == 0
    assert 0 < rep.s.min() and rep.s.max() <= 1 + 1e-10
    pairing = np.einsum("ci,ci->c", rep.h, zeta.zeta)
    np.testing.assert_allclose(pairing, 1.0, atol=1e-10)


def test_representing_field_refuses_a_zero_square_sum(sg2):
    field = ff.density_matrices(ff.harmonic_family(sg2), 2)
    zero = types.SimpleNamespace(zeta=np.zeros_like(field.zeta))
    with pytest.raises(NumericalError, match="^nonpositive weighted square sum on a retained cell$"):
        ff.representing_field(field, zeta=zero)


# ---------------------------------------------------------------------------
# single-letter runs

def test_run_mass_matches_cell_mass(sg2):
    u = np.array([0.3, -1.2, 0.5])
    f = ff.PiecewiseHarmonic(sg2, 0, u)
    assert ff.cell_run_mass(sg2, u, 1, 0) == pytest.approx(2 * ff.energy(f), rel=1e-12)
    for n in (1, 2, 5):
        direct = oracles.brute_mass_matrix(
            sg2.extensions, sg2.laplacian, sg2.weights, [sg2.extensions @ u], (1,) * n
        )[0, 0]
        scaled = direct / 0.6 ** n
        assert ff.cell_run_mass(sg2, u, 1, n) == pytest.approx(scaled, rel=1e-12)


@pytest.mark.parametrize("letter,n,message", [
    (0, 1, "letter 0 has no fixed boundary point"),
    (4, 1, "letter 4 has no fixed boundary point"),
    (1, -1, "n must be nonnegative"),
])
def test_run_mass_refusals(sg2, letter, n, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        ff.cell_run_mass(sg2, [0.3, -1.2, 0.5], letter, n)


def test_run_mass_limit(sg2):
    data = ff.eigen_data(sg2, 1)
    u = np.array([0.0, 1.0, 0.0])
    limit = ff.run_mass_limit(sg2, data, u)
    # independent: 2 (u_i . u)^2 (v_i, -D v_i)
    pairing = float(data.left @ u)
    brute = 2 * pairing ** 2 * float(data.right @ (-sg2.laplacian) @ data.right)
    assert limit == pytest.approx(brute, rel=1e-13)
    assert ff.cell_run_mass(sg2, u, 1, 20) == pytest.approx(limit, rel=1e-10)
