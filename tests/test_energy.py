import itertools
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fracform as ff
from fracform import structure
from fracform.config import CHUNK_CELLS, CONSISTENCY_TOL
from fracform.energy import _chunk_prefix_depth, _refine, _vertex_values
from fracform.errors import ValidationError
from fracform.harmonic import _weight_products

import oracles
from conftest import THIN_INTERVAL, random_piecewise_harmonic

def harmonic_fn(hs, boundary):
    return ff.PiecewiseHarmonic(hs, 0, np.asarray(boundary, dtype=float))


# ---------------------------------------------------------------------------
# worked instance

def test_energy_of_first_corner_function(sg2):
    f = harmonic_fn(sg2, [1.0, 0.0, 0.0])
    assert ff.energy(f) == 2.0


def test_cell_energies_of_first_corner_function(sg2):
    u = np.array([1.0, 0.0, 0.0])
    energies = [
        float(mat @ u @ (-sg2.laplacian) @ (mat @ u)) for mat in sg2.extensions
    ]
    np.testing.assert_allclose(energies, [18 / 25, 6 / 25, 6 / 25], atol=1e-15)


def test_cell_masses_of_first_corner_function(sg2):
    f = harmonic_fn(sg2, [1.0, 0.0, 0.0])
    assert ff.measure_table(f).total == pytest.approx(4.0, abs=1e-14)
    masses = ff.measure_table(f, depth=1).masses
    assert masses == pytest.approx([2.4, 0.8, 0.8], abs=1e-14)


def test_measure_table_matches_exact_rationals(sg2):
    # The oracle starts from the exact values of the float inputs, so every
    # difference is the scan's own rounding.
    values = (0.3, -0.2, 0.7)
    exact = oracles.sg2_exact_cell_masses([Fraction(v) for v in values], 8)
    table = ff.measure_table(harmonic_fn(sg2, values), depth=8)
    np.testing.assert_allclose(table.masses, [float(m) for m in exact], rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# unequal resistances


def test_graph_energy_weights_each_cell_by_its_word(interval, rng):
    """Cell w of the interval carries (u_a - u_b)^2 / r_w, with r_w the
    product of its letters' weights."""
    table = interval.spec.vertex_table(3)
    u = rng.standard_normal(table.num_vertices)
    expected = 0.0
    for c, word in enumerate(itertools.product((0.3, 0.7), repeat=3)):
        a, b = table.slots[c]
        expected += (u[a] - u[b]) ** 2 / np.prod(word)
    assert ff.graph_energy(interval, 3, u) == pytest.approx(expected, rel=1e-13)


def test_quadratic_form_gathers_the_vertex_values_once(sg2, rng):
    # With v omitted, graph_energy gathers u once per block of CHUNK_CELLS
    # cells and pairs the block with itself: the same bits as passing u
    # twice.  Its traced peak is 4.0 cells x 8 bytes at this level: the
    # per-cell column, one block's gather (1.7 here, 32768 x 3 of 59049
    # cells) and the block's einsum output; the column times the weight
    # products takes 2.3.  Whole-level gathers made it 6, and a second
    # one 9.
    level = 10
    u = rng.standard_normal(sg2.spec.vertex_table(level).num_vertices)
    tracemalloc = pytest.importorskip("tracemalloc")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        once = ff.graph_energy(sg2, level, u)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert once == ff.graph_energy(sg2, level, u, u)
    cell_bytes = 3 ** level * 8
    assert peak <= 4.5 * cell_bytes, peak / cell_bytes


def test_chunked_graph_energy_matches_one_shot_formula(sg2, rng):
    # Gathered block by block into one per-cell column that is weighted and
    # summed once, the energy keeps the bits of the whole-level formula.
    level = 11
    assert 3 ** level > 5 * CHUNK_CELLS
    slots = sg2.spec.vertex_table(level).slots
    u, v = rng.standard_normal((2, slots.max() + 1))
    weights = _weight_products(1.0 / sg2.weights, level)
    for args in ((u,), (u, v)):
        uu, vv = u[slots], args[-1][slots]
        per_cell = -np.einsum("cp,pq,cq->c", uu, sg2.laplacian, vv, optimize=False)
        assert ff.graph_energy(sg2, level, *args) == float(np.sum(per_cell * weights))


def test_boundary_function_masses_follow_cell_resistances(interval):
    """The harmonic function with boundary values (0, 1) drops by r_w across
    cell w, so the cell's mass is 2 r_w^{-1} r_w^2 = 2 r_w."""
    f = harmonic_fn(interval, [0.0, 1.0])
    masses = ff.measure_table(f, depth=3).masses
    expected = [2.0 * np.prod(word) for word in itertools.product((0.3, 0.7), repeat=3)]
    np.testing.assert_allclose(masses, expected, rtol=1e-13)
    assert (masses[0], masses[-1]) == pytest.approx((0.054, 0.686))


def test_thin_letter_masses_stay_finite_at_depth_21():
    """r_w^{-1} of the word 1...1 is 1e315, past the float range, but the
    scan carries no such factor: the normalized letters never let a cell's
    coordinates outgrow the root's, so the table is finite and consistent."""
    hs = ff.harmonic_structure(ff.validate_structure(THIN_INTERVAL))
    f = harmonic_fn(hs, [1.0, 0.0])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        table = ff.measure_table(f, depth=21)
        parent = ff.measure_table(f, depth=20)
    twice = 2.0 * ff.energy(f)
    assert abs(table.total - twice) <= CONSISTENCY_TOL * max(1.0, twice)
    gap = float(np.abs(table.coarsen().masses - parent.masses).max())
    assert gap <= CONSISTENCY_TOL * max(1.0, float(np.abs(parent.masses).max()))


# ---------------------------------------------------------------------------
# representation plumbing

@pytest.mark.parametrize("name", ["sg2", "vicsek"])
def test_lift_preserves_energy_and_values(name, rng):
    hs = ff.harmonic_structure(ff.builtin_structure(name))
    f = random_piecewise_harmonic(hs, 1, rng)
    base = ff.energy(f)
    shallow = hs.spec.vertex_table(1)
    n = hs.spec.n_letters
    for level in (2, 3, 4):
        lifted = ff.lift(f, level)
        assert ff.energy(lifted) == pytest.approx(base, rel=1e-13)
        # a shallow corner survives as the same corner of the cell obtained
        # by appending its fixed letter
        deep = hs.spec.vertex_table(level)
        for cell in range(n):
            for corner in range(hs.spec.d):
                word = (cell + 1,) + (corner + 1,) * (level - 1)
                deep_id = deep.slots[oracles.lex_index(word, n), corner]
                assert lifted.values[deep_id] == pytest.approx(
                    f.values[shallow.slots[cell, corner]], abs=1e-13
                )


def one_shot_lift(f, level):
    """The whole-level refine and scatter that lift does chunk by chunk."""
    table = f.structure.spec.vertex_table(level)
    block = _refine(f.structure.extensions, f.cell_coeffs, level - f.level)
    values = np.empty(table.num_vertices)
    values[table.slots.ravel()] = block.ravel()
    return values


@pytest.mark.parametrize("name,family,level,chunks", [
    ("sg2", None, 11, 9),
    ("sg2", "harmonic", 11, 9),
    # Level-1 members whose level is the chunk prefix depth itself.
    ("vicsek", "level1", 7, 5),
    # Level-1 members below the prefix depth: one chunk of five rows.
    ("vicsek", "level1", 6, 1),
])
def test_chunked_lift_matches_one_shot_scatter(name, family, level, chunks, rng):
    # Each chunk is refined from its rows at the walk's top depth and
    # scattered in lex order, so the refinement and the writes are those of
    # the whole-level formula, bit for bit, and a family refined as one block
    # gives every member its own formula's column.  (On these structures the
    # cells sharing a vertex agree on it exactly, so the write order is not
    # what this pins.)
    hs = ff.harmonic_structure(ff.builtin_structure(name))
    n = hs.spec.n_letters
    members = ([random_piecewise_harmonic(hs, 0, rng)] if family is None
               else getattr(ff, f"{family}_family")(hs).members)
    assert n ** _chunk_prefix_depth(n, level) == chunks
    expected = np.column_stack([one_shot_lift(m, level) for m in members])
    assert np.array_equal(_vertex_values(members, level), expected)
    assert np.array_equal(ff.lift(members[-1], level).values, expected[:, -1])


def test_lift_keeps_one_vertex_table_of_a_walk(rng):
    hs = ff.harmonic_structure(ff.builtin_structure("sg2"))
    f = random_piecewise_harmonic(hs, 0, rng)
    ff.lift(f, 10)
    ff.lift(f, 11)
    assert list(hs.spec._tables) == [11]


def test_lifting_a_family_builds_the_deep_table_once(monkeypatch):
    # Reading a member's cell coefficients builds the shallow table of its
    # level; that must not evict the deep table the members are lifted to.
    hs = ff.harmonic_structure(ff.builtin_structure("vicsek"))
    members = ff.level1_family(hs).members
    built, build = [], structure.build_vertices

    def counted(spec, depth):
        built.append(depth)
        return build(spec, depth)

    monkeypatch.setattr(structure, "build_vertices", counted)
    for member in members:
        ff.lift(member, 6)
    assert len(members) == 15
    assert built.count(6) == 1


def test_lift_below_level_raises(sg2, rng):
    f = random_piecewise_harmonic(sg2, 2, rng)
    with pytest.raises(ValidationError):
        ff.lift(f, 1)


def cell_restriction(f, letter):
    """f composed with the letter's cell map: one level down, with the
    letter's block of f's cell coefficients as its own."""
    hs = f.structure
    width = hs.spec.n_letters ** (f.level - 1)
    table = hs.spec.vertex_table(f.level - 1)
    values = np.empty(table.num_vertices)
    values[table.slots] = f.cell_coeffs[(letter - 1) * width : letter * width]
    return ff.PiecewiseHarmonic(hs, f.level - 1, values)


def test_self_similar_energy_decomposition(sg2, rng):
    f = random_piecewise_harmonic(sg2, 1, rng)
    total = ff.energy(f)
    parts = [
        ff.energy(cell_restriction(f, i)) / 0.6 for i in (1, 2, 3)
    ]
    assert sum(parts) == pytest.approx(total, rel=1e-13)


def test_arithmetic_lifts_to_common_level(sg2, rng):
    f = random_piecewise_harmonic(sg2, 1, rng)
    g = random_piecewise_harmonic(sg2, 2, rng)
    h = ff.PiecewiseHarmonic(sg2, 2, 2.0 * ff.lift(f, 2).values - g.values)
    assert h.level == 2
    assert ff.energy(h) == pytest.approx(
        4 * ff.energy(f) - 4 * ff.energy(f, g) + ff.energy(g), rel=1e-12
    )

    def boundary(u):
        return u.values[sg2.spec.vertex_table(u.level).boundary_ids]

    np.testing.assert_allclose(
        boundary(h), 2 * boundary(f) - boundary(g), atol=1e-13
    )


def test_value_count_checked(sg2):
    with pytest.raises(ValidationError):
        ff.PiecewiseHarmonic(sg2, 1, np.zeros(5))


# ---------------------------------------------------------------------------
# measure tables

@pytest.mark.parametrize("name", ["sg2", "vicsek"])
def test_measure_total_is_twice_energy(name, rng):
    hs = ff.harmonic_structure(ff.builtin_structure(name))
    f = random_piecewise_harmonic(hs, 1, rng)
    for depth in (0, 1, 3):
        table = ff.measure_table(f, depth=depth)
        assert table.total == pytest.approx(2 * ff.energy(f), rel=1e-13)


def test_measure_against_brute_masses(sg2, rng):
    f = random_piecewise_harmonic(sg2, 1, rng)
    table = ff.measure_table(f, depth=3)
    for word in [(1, 1, 1), (2, 3, 1), (3, 3, 3), (1, 2, 3)]:
        brute = oracles.brute_mass_matrix(
            sg2.extensions, sg2.laplacian, np.full(3, 0.6), [f.cell_coeffs], word
        )[0, 0]
        assert table.masses[oracles.lex_index(word, 3)] == pytest.approx(brute, rel=1e-12)


def test_coarsen_equals_independent_scan(vicsek, rng):
    f = random_piecewise_harmonic(vicsek, 1, rng)
    fine = ff.measure_table(f, depth=3)
    parent = ff.measure_table(f, depth=2)
    np.testing.assert_allclose(
        fine.coarsen().masses, parent.masses, rtol=0, atol=1e-13 * abs(parent.total)
    )
    with pytest.raises(ValidationError):
        ff.measure_table(f, depth=0).coarsen()


def test_cross_measure_is_bilinear(sg2, rng):
    f = random_piecewise_harmonic(sg2, 1, rng)
    g = random_piecewise_harmonic(sg2, 1, rng)
    cross = ff.measure_table(f, g, depth=2)
    assert cross.total == pytest.approx(2 * ff.energy(f, g), rel=1e-12, abs=1e-13)
    ff_t = ff.measure_table(f, depth=2)
    gg_t = ff.measure_table(g, depth=2)
    # pair masses obey Cauchy-Schwarz cell by cell
    bound = np.sqrt(ff_t.masses * gg_t.masses) + 1e-12
    assert np.all(np.abs(cross.masses) <= bound)


def test_measure_csv_round_trip(sg2, capsys):
    f = harmonic_fn(sg2, [1.0, 0.0, 0.0])
    table = ff.measure_table(f, depth=1)
    table.write_csv(None)
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "word,mass"
    assert len(lines) == 4
    word, mass = lines[1].split(",")
    assert word == "1"
    assert float(mass) == table.masses[0]


def test_root_table_word_is_empty_string(sg2, capsys):
    f = harmonic_fn(sg2, [1.0, 0.0, 0.0])
    table = ff.measure_table(f, depth=0)
    table.write_csv(None)
    assert capsys.readouterr().out.splitlines()[1].startswith(",")


def test_scan_workers_leave_vertex_tables_alone(monkeypatch):
    # The vertex-table memo has no lock: every table a scan needs must be
    # built or read on the thread that iterates the scan, whatever workers is.
    hs = ff.harmonic_structure(ff.builtin_structure("sg2"))
    members = ff.harmonic_family(hs).members
    callers = []
    original = ff.StructureSpec.vertex_table

    def spy(spec, depth):
        callers.append(threading.get_ident())
        return original(spec, depth)

    monkeypatch.setattr(ff.StructureSpec, "vertex_table", spy)
    for _ in ff.scan_cell_masses(hs, members, 10, 2):
        pass
    assert callers
    assert set(callers) == {threading.get_ident()}


def test_scan_validates_at_call_time(sg2):
    # The cap must fire on the call itself, before a caller sizes any
    # buffer from n ** depth; deferring it to the first next() once let a
    # MemoryError through ahead of the real diagnostic.
    f = ff.PiecewiseHarmonic(sg2, 0, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ff.CapExceededError, match="cap"):
        ff.scan_cell_masses(sg2, [f], 19)
    with pytest.raises(ff.CapExceededError):
        ff.measure_table(f, depth=19)
    with pytest.raises(ValidationError, match="one weight per member"):
        ff.scan_cell_masses(sg2, [f], 3, floor=1e-14)


# ---------------------------------------------------------------------------
# reference measure and normalization

def test_mean_coefficients(sg2, vicsek):
    np.testing.assert_allclose(
        ff.mean_functional(sg2).coefficients, np.full(3, 1 / 3), atol=1e-13
    )
    np.testing.assert_allclose(
        ff.mean_functional(vicsek).coefficients, np.full(4, 1 / 4), atol=1e-13
    )


def test_integrate_constants_and_linearity(sg2, rng):
    mean = ff.mean_functional(sg2)
    const = harmonic_fn(sg2, [5.0, 5.0, 5.0])
    assert mean.integrate(const) == pytest.approx(5.0, rel=1e-13)
    f = random_piecewise_harmonic(sg2, 2, rng)
    g = random_piecewise_harmonic(sg2, 1, rng)
    lhs = mean.integrate(ff.PiecewiseHarmonic(sg2, 2, 2.0 * f.values - ff.lift(g, 2).values))
    assert lhs == pytest.approx(
        2 * mean.integrate(f) - mean.integrate(g), rel=1e-12, abs=1e-13
    )


def test_integrate_against_vertex_sampling(sg2, rng):
    """Corner-sampled Riemann sums converge to the reported integral."""
    mean = ff.mean_functional(sg2)
    f = random_piecewise_harmonic(sg2, 1, rng)
    exact = mean.integrate(f)
    depth = 9
    lifted = ff.lift(f, depth)
    table = sg2.spec.vertex_table(depth)
    mu = np.full(3 ** depth, (1 / 3) ** depth)
    approx = float(np.sum(lifted.values[table.slots[:, 0]] * mu))
    assert approx == pytest.approx(exact, abs=2e-3 * max(1.0, abs(exact)))


def test_weighted_mean_functional(sg2, rng):
    mu = np.array([0.5, 0.3, 0.2])
    mean = ff.mean_functional(sg2, mu_weights=mu)
    assert mean.residual < 1e-12
    const = harmonic_fn(sg2, [2.0, 2.0, 2.0])
    assert mean.integrate(const) == pytest.approx(2.0, rel=1e-13)
    # self-similarity: integral = sum of weighted cell restriction integrals
    f = random_piecewise_harmonic(sg2, 2, rng)
    parts = [
        mu[i - 1] * mean.integrate(cell_restriction(f, i)) for i in (1, 2, 3)
    ]
    assert mean.integrate(f) == pytest.approx(sum(parts), rel=1e-12)


def test_mean_functional_leaves_caller_weights_writeable(sg2):
    mu = np.array([0.5, 0.3, 0.2])
    mean = ff.mean_functional(sg2, mu)
    assert mu.flags.writeable
    assert not mean.measure_weights.flags.writeable


@pytest.mark.parametrize("mu,message", [
    ([0.5, 0.5, 0.0], "measure weights must be positive"),
    ([0.5, 0.3, 0.3], "measure weights must sum to 1"),
    ([0.5, 0.5], r"measure weights: need 3 values, got shape \(2,\)"),
], ids=["non-positive", "sum", "count"])
def test_mean_functional_refuses_bad_weights(sg2, mu, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        ff.mean_functional(sg2, mu)


def test_normalize_xi(sg2, rng):
    mean = ff.mean_functional(sg2)
    f = random_piecewise_harmonic(sg2, 1, rng)
    xi = ff.normalize_xi(f, mean)
    assert 2 * ff.energy(xi) == pytest.approx(1.0, rel=1e-12)
    assert mean.integrate(xi) == pytest.approx(0.0, abs=1e-12)
    const = harmonic_fn(sg2, [3.0, 3.0, 3.0])
    zero = ff.normalize_xi(const, mean)
    assert not np.any(zero.values)


# ---------------------------------------------------------------------------
# big-graph cross-check

@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 16 - 1), st.integers(min_value=2, max_value=5))
def test_energy_against_sparse_assembly(salt, depth):
    """Level-m energies agree with a scipy.sparse quadratic form."""
    hs = ff.harmonic_structure(ff.builtin_structure("sg2"))
    table = hs.spec.vertex_table(depth)
    rng = np.random.default_rng(salt)
    f = ff.PiecewiseHarmonic(hs, 1, rng.standard_normal(6))
    lifted = ff.lift(f, depth)
    cell_inv_r = 1.0 / (0.6 ** depth) * np.ones(3 ** depth)
    form = oracles.sparse_energy_form(
        table.slots, table.num_vertices, hs.laplacian, cell_inv_r
    )
    quad = float(lifted.values @ (form @ lifted.values))
    assert quad == pytest.approx(ff.energy(f), rel=1e-11, abs=1e-11)
