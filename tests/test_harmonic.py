import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fracform as ff
from fracform.errors import NotHarmonicError, ValidationError

import oracles

SG2_A1 = np.array([[1.0, 0.0, 0.0], [0.4, 0.4, 0.2], [0.4, 0.2, 0.4]])


def level_one_extension(hs, boundary):
    """V_1 values of the harmonic function with the given boundary values."""
    return ff.lift(ff.PiecewiseHarmonic(hs, 0, boundary), 1).values


@pytest.mark.parametrize("name", ["sg2", "vicsek"])
def test_fixed_point_residual(name):
    hs = ff.harmonic_structure(ff.builtin_structure(name))
    assert hs.residual < 1e-12


@pytest.mark.parametrize("name", ["sg2", "vicsek"])
def test_schur_complement_reproduces_laplacian(name):
    """Independent dense elimination of V_1 interior gives back -D."""
    spec = ff.builtin_structure(name)
    hs = ff.harmonic_structure(spec)
    table = spec.vertex_table(1)
    reduced = oracles.schur_boundary_form(
        table.slots, table.num_vertices, table.boundary_ids,
        hs.laplacian, hs.weights,
    )
    np.testing.assert_allclose(reduced, -hs.laplacian, atol=1e-12)


def test_wrong_weights_raise_with_residual():
    raw = json.loads(ff.builtin_structure_path("sg2").read_text())
    raw["weights"] = [0.5, 0.5, 0.5]
    spec = ff.validate_structure(raw)
    with pytest.raises(NotHarmonicError) as info:
        ff.harmonic_structure(spec)
    assert info.value.residual > 0.01


def test_sg2_extension_matrix_exact(sg2):
    np.testing.assert_allclose(sg2.extensions[0], SG2_A1, atol=1e-15)
    # the other letters are the same map conjugated by corner swaps
    for i in (1, 2):
        perm = np.eye(3)[[i, 0, 3 - i]] if i == 1 else np.eye(3)[[2, 1, 0]]
        np.testing.assert_allclose(
            sg2.extensions[i], perm @ SG2_A1 @ perm.T, atol=1e-15
        )


@pytest.mark.parametrize("name", ["sg2", "vicsek"])
def test_extensions_fix_constants(name):
    hs = ff.harmonic_structure(ff.builtin_structure(name))
    ones = np.ones(hs.spec.d)
    for mat in hs.extensions:
        np.testing.assert_allclose(mat @ ones, ones, atol=1e-14)


@pytest.mark.parametrize("name", ["sg2", "vicsek"])
def test_extension_against_sparse_solve(name):
    """Level-1 interior solve cross-checked with a scipy.sparse elimination."""
    spec = ff.builtin_structure(name)
    hs = ff.harmonic_structure(spec)
    table = spec.vertex_table(1)
    form = oracles.sparse_energy_form(
        table.slots, table.num_vertices, hs.laplacian, 1.0 / hs.weights
    )
    rng = np.random.default_rng(5)
    boundary = rng.standard_normal(spec.d)
    values = oracles.sparse_harmonic_extension(form, table.boundary_ids, boundary)
    direct = level_one_extension(hs, boundary)
    np.testing.assert_allclose(direct, values, atol=1e-12)


# ---------------------------------------------------------------------------
# eigen data

def test_eigen_data_sg2(sg2):
    for letter in (1, 2, 3):
        data = ff.eigen_data(sg2, letter)
        col = sg2.laplacian[:, letter - 1]
        np.testing.assert_allclose(data.left, col, atol=1e-12)
        lhs = sg2.extensions[letter - 1].T @ data.left
        np.testing.assert_allclose(lhs, 0.6 * data.left, atol=1e-12)
        assert data.right.min() >= 0
        assert data.right[letter - 1] == pytest.approx(0.0, abs=1e-12)
        assert data.left @ data.right == pytest.approx(1.0)
        assert data.energy_mass == pytest.approx(0.5, abs=1e-12)
        assert data.second_modulus == pytest.approx(0.2, abs=1e-10)


def test_eigen_spectrum_oracle(sg2):
    mods = np.sort(np.abs(np.linalg.eigvals(sg2.extensions[0])))[::-1]
    np.testing.assert_allclose(mods, [1.0, 0.6, 0.2], atol=1e-12)


def test_eigen_letter_range(sg2, vicsek):
    with pytest.raises(ValidationError):
        ff.eigen_data(sg2, 0)
    with pytest.raises(ValidationError):
        ff.eigen_data(vicsek, 5)  # letter 5 fixes no boundary vertex


# ---------------------------------------------------------------------------
# laplacian validation

def test_validate_laplacian_accepts_k4():
    D = np.array([
        [-3.0, 1.0, 1.0, 1.0],
        [1.0, -3.0, 1.0, 1.0],
        [1.0, 1.0, -3.0, 1.0],
        [1.0, 1.0, 1.0, -3.0],
    ])
    out = ff.validate_laplacian(D)
    np.testing.assert_array_equal(out, D)


def test_validate_laplacian_rejections():
    asym = np.array([[-1.0, 1.0], [0.5, -0.5]])
    with pytest.raises(ValidationError, match="symmetric"):
        ff.validate_laplacian(asym)
    negative_offdiag = np.array([
        [-1.0, 2.0, -1.0], [2.0, -3.0, 1.0], [-1.0, 1.0, 0.0]
    ])
    with pytest.raises(ValidationError):
        ff.validate_laplacian(negative_offdiag)
    nonzero_rows = np.array([[-2.0, 1.0], [1.0, -2.0]])
    with pytest.raises(ValidationError, match="constants"):
        ff.validate_laplacian(nonzero_rows)
    # kernel bigger than constants
    zero = np.zeros((3, 3))
    with pytest.raises(ValidationError):
        ff.validate_laplacian(zero)


# ---------------------------------------------------------------------------
# variational characterization

boundary_vectors = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    min_size=3, max_size=3,
)


@settings(max_examples=25, deadline=None)
@given(boundary_vectors, st.integers(min_value=0, max_value=2 ** 16 - 1))
def test_harmonic_extension_minimizes_energy(boundary, salt):
    """Any interior perturbation can only raise the level-1 energy."""
    spec = ff.builtin_structure("sg2")
    hs = ff.harmonic_structure(spec)
    table = spec.vertex_table(1)
    values = level_one_extension(hs, boundary)
    bump = np.zeros(table.num_vertices)
    interior = np.setdiff1d(np.arange(table.num_vertices), table.boundary_ids)
    bump[interior] = np.random.default_rng(salt).standard_normal(interior.size)
    inv_r = 1.0 / hs.weights
    base = ff.graph_energy(table.slots, inv_r, hs.laplacian, values)
    perturbed = ff.graph_energy(table.slots, inv_r, hs.laplacian, values + bump)
    assert perturbed >= base - 1e-10 * max(1.0, abs(base))


@settings(max_examples=25, deadline=None)
@given(boundary_vectors)
def test_level_one_energy_matches_boundary_form(boundary):
    """E^(1) of the extension equals the boundary quadratic form of -D."""
    spec = ff.builtin_structure("sg2")
    hs = ff.harmonic_structure(spec)
    table = spec.vertex_table(1)
    u = np.asarray(boundary)
    values = level_one_extension(hs, u)
    level1 = ff.graph_energy(table.slots, 1.0 / hs.weights, hs.laplacian, values)
    level0 = float(u @ (-hs.laplacian) @ u)
    assert level1 == pytest.approx(level0, abs=1e-10 * max(1.0, level0))
