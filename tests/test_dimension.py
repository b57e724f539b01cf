import numpy as np
import pytest

import fracform as ff
from fracform.dimension import check_field_bytes
from fracform.errors import CapExceededError, ValidationError

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
    with pytest.raises(ValidationError):
        ff.FunctionFamily(members=members, weights=np.array([0.9, 0.2]))


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
    # No symmetrizing pass follows the scan, so this rests on the Gram kernel.
    hs = ff.harmonic_structure(ff.builtin_structure(name))
    field = ff.density_matrices(build(hs), depth)
    assert np.array_equal(field.matrices, field.matrices.transpose(0, 2, 1))


def test_field_byte_budget(sg2):
    # 3**11 cells of 50 x 50 float64 matrices fit in 4 GiB; 3**12 do not.
    check_field_bytes(3, 11, 50)
    with pytest.raises(CapExceededError):
        check_field_bytes(3, 12, 50)
    rows = np.random.default_rng(5).standard_normal((50, 6))
    fam = ff.family_from_values(sg2, 1, rows)
    with pytest.raises(CapExceededError, match="density field of 50 members"):
        ff.density_matrices(fam, 13)


def test_total_mass_and_floor(sg2):
    fam = ff.harmonic_family(sg2)
    field = ff.density_matrices(fam, 3)
    # members carry twice-energy one and the weights are convex
    assert field.total_mass == pytest.approx(1.0, rel=1e-12)
    assert field.floor == pytest.approx(1e-14 * field.total_mass)
    lo, hi = float(field.lam.min()), float(field.lam.max())
    assert lo < hi
    raised = ff.density_matrices(fam, 3, mass_floor=0.5 * (lo + hi) / field.total_mass)
    assert 0 < raised.size < field.size
    assert raised.skipped == field.skipped + field.size - raised.size


def test_all_cells_skipped_raises(sg2):
    fam = ff.harmonic_family(sg2)
    with pytest.raises(ValidationError):
        ff.density_matrices(fam, 2, mass_floor=10.0)


def test_family_energy_normalization_checked(sg2):
    f = ff.PiecewiseHarmonic(sg2, 0, np.array([1.0, 0.0, 0.0]))  # 2E = 4
    fam = ff.FunctionFamily(members=(f,), weights=np.array([1.0]))
    with pytest.raises(ValidationError):
        ff.density_matrices(fam, 2)


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
    field = ff.density_matrices(ff.harmonic_family(sg2), 5)
    zeta = ff.zeta_factors(field)
    prof = ff.rank_statistics(field, tau_rank=0.05, zeta=zeta)
    lam = field.lam
    expect_l2 = float(np.sum(lam * field.eigenvalues[:, 1]) / np.sum(lam))
    expect_dim = float(
        np.sum(lam * np.sum(field.eigenvalues > 0.05, axis=1)) / np.sum(lam)
    )
    assert prof.mean_lambda2 == pytest.approx(expect_l2, rel=1e-13)
    assert prof.dim_estimate == pytest.approx(expect_dim, rel=1e-13)
    assert prof.retained_cells == field.size
    with pytest.raises(ValidationError):
        ff.rank_statistics(field, tau_rank=1.5)


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


def test_run_mass_limit(sg2):
    data = ff.eigen_data(sg2, 1)
    u = np.array([0.0, 1.0, 0.0])
    limit = ff.run_mass_limit(sg2, data, u)
    # independent: 2 (u_i . u)^2 (v_i, -D v_i)
    pairing = float(data.left @ u)
    brute = 2 * pairing ** 2 * float(data.right @ (-sg2.laplacian) @ data.right)
    assert limit == pytest.approx(brute, rel=1e-13)
    assert ff.cell_run_mass(sg2, u, 1, 20) == pytest.approx(limit, rel=1e-10)
