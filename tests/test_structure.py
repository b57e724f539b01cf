import json

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import fracform as ff
from fracform.errors import ParseError, ValidationError
from fracform.structure import check_cell_cap

import oracles


def load_raw(name):
    return json.loads(ff.builtin_structure_path(name).read_text())


# ---------------------------------------------------------------------------
# vertex tables

def test_vertex_counts_closed_form():
    sg2 = ff.builtin_structure("sg2")
    vicsek = ff.builtin_structure("vicsek")
    for m in range(6):
        assert sg2.vertex_table(m).num_vertices == (3 ** (m + 1) + 3) // 2
    for m in range(5):
        assert vicsek.vertex_table(m).num_vertices == 3 * 5 ** m + 1


@pytest.mark.parametrize("name", ["sg2", "vicsek"])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_slots_match_geometric_quantization(name, depth):
    """The matching-derived vertex ids equal the ids read off the plane."""
    spec = ff.builtin_structure(name)
    table = spec.vertex_table(depth)
    expected = oracles.geometric_slot_ids(spec.realization, spec.boundary, depth)
    np.testing.assert_array_equal(table.slots, expected)


@pytest.mark.parametrize("name", ["sg2", "vicsek"])
def test_boundary_ids_sit_at_corner_cells(name):
    spec = ff.builtin_structure(name)
    n, d = spec.n_letters, spec.d
    for m in range(1, 4):
        table = spec.vertex_table(m)
        for k in range(d):
            cell = k * (n ** m - 1) // (n - 1)
            assert table.slots[cell, k] == table.boundary_ids[k]


def test_first_occurrence_numbering(sg2):
    table = sg2.spec.vertex_table(3)
    seen = set()
    expected_next = 0
    for vid in table.slots.ravel():
        if vid not in seen:
            assert vid == expected_next
            seen.add(vid)
            expected_next += 1


@pytest.mark.parametrize("name,top", [("sg2", 9), ("vicsek", 6)])
def test_tables_are_c_ordered_and_counted_in_closed_form(name, top):
    # values[slots] inherits the slots layout, and einsum rounds differently
    # on a Fortran-ordered operand.
    spec = ff.builtin_structure(name)
    for m in range(top + 1):
        table = ff.build_vertices(spec, m)
        assert table.slots.flags.c_contiguous
        assert table.num_vertices == spec.vertex_count(m)


def test_vertex_count_builds_no_table():
    spec = ff.builtin_structure("sg2")
    assert spec.vertex_count(13) == (3 ** 14 + 3) // 2
    assert 13 not in spec._tables
    with pytest.raises(ff.CapExceededError):
        spec.vertex_count(14)
    with pytest.raises(ValidationError, match="nonnegative"):
        spec.vertex_count(-1)


@st.composite
def gluing_documents(draw):
    """Valid structure documents without a pair: a path through a shuffled
    alphabet keeps the level-1 graph connected, extra pairs use free slots,
    and no pair joins two fixed-point corners."""
    n = draw(st.integers(min_value=2, max_value=5))
    d = draw(st.integers(min_value=2, max_value=n))
    labels = [f"q{k}" for k in range(d)]
    free = {(letter, p) for letter in range(1, n + 1) for p in range(d)}

    def pair(a, b):
        free.difference_update((a, b))
        return (a, b) if draw(st.booleans()) else (b, a)

    order = draw(st.permutations(range(1, n + 1)))
    pairs = []
    for left, right in zip(order, order[1:]):
        a = draw(st.sampled_from(sorted(s for s in free if s[0] == left)))
        b = draw(st.sampled_from(sorted(s for s in free if s[0] == right)))
        pairs.append(pair(a, b))
    while len({s[0] for s in free}) >= 2 and draw(st.booleans()):
        a = draw(st.sampled_from(sorted(free)))
        b = draw(st.sampled_from(sorted(s for s in free if s[0] != a[0])))
        pairs.append(pair(a, b))
    for a, b in pairs:
        assume(not (a[0] == a[1] + 1 and b[0] == b[1] + 1))
    doc = {
        "alphabet_size": n,
        "boundary": labels,
        "fixed_points": {str(k + 1): labels[k] for k in range(d)},
        "gluing": [[i, labels[p], j, labels[q]] for (i, p), (j, q) in pairs],
    }
    return doc, pairs


@given(gluing_documents(), st.integers(min_value=0, max_value=3))
def test_tables_match_definitional_gluing(drawn, depth):
    doc, pairs = drawn
    spec = ff.validate_structure(doc)
    table = ff.build_vertices(spec, depth)
    slots, boundary_ids, count = oracles.glued_slot_ids(spec.n_letters, spec.d, pairs, depth)
    np.testing.assert_array_equal(table.slots, slots)
    np.testing.assert_array_equal(table.boundary_ids, boundary_ids)
    assert table.num_vertices == count == spec.vertex_count(depth)
    assert table.slots.flags.c_contiguous


def test_vertex_table_memoized(sg2):
    assert sg2.spec.vertex_table(4) is sg2.spec.vertex_table(4)


def test_depth_cap():
    spec = ff.builtin_structure("sg2")
    with pytest.raises(ff.CapExceededError):
        spec.vertex_table(30)


@pytest.mark.parametrize("n,depth,cells", [
    (3, 14, "4782969"),
    (3, 30, "205891132094649"),
    (10, 19, "10000000000000000000"),
    (10, 20, "10^20"),
    (3, 10 ** 8, "3^100000000"),
])
def test_cell_cap_message_forms_no_huge_power(n, depth, cells):
    # A count of more than 20 digits prints as a power; 3 ** 10**8 alone would
    # take minutes to form.
    with pytest.raises(ff.CapExceededError) as info:
        check_cell_cap(n, depth)
    assert str(info.value) == f"depth {depth} needs {cells} cells, cap is 4194304"


# ---------------------------------------------------------------------------
# document validation

def test_missing_field_rejected():
    raw = load_raw("sg2")
    del raw["gluing"]
    with pytest.raises(ParseError):
        ff.validate_structure(raw)


def test_fixed_point_normal_form_enforced():
    raw = load_raw("sg2")
    raw["fixed_points"] = {"1": "p2", "2": "p1", "3": "p3"}
    with pytest.raises(ValidationError):
        ff.validate_structure(raw)


def test_gluing_slot_reuse_rejected():
    raw = load_raw("sg2")
    raw["gluing"][1] = [1, "p2", 3, "p1"]  # (1, p2) already glued
    with pytest.raises(ValidationError):
        ff.validate_structure(raw)


def test_self_gluing_rejected():
    raw = load_raw("sg2")
    raw["gluing"][0] = [2, "p1", 2, "p3"]
    with pytest.raises(ValidationError):
        ff.validate_structure(raw)


def test_disconnected_level_one_rejected():
    raw = load_raw("sg2")
    raw["gluing"] = [[1, "p2", 2, "p1"]]  # cell 3 is an island
    del raw["realization"]
    with pytest.raises(ValidationError, match="connect"):
        ff.validate_structure(raw)


def test_realization_geometry_mismatch_rejected():
    raw = load_raw("sg2")
    raw["realization"]["boundary_points"]["p2"] = [1.0, 0.25]
    with pytest.raises(ValidationError):
        ff.validate_structure(raw)


def test_laplacian_shape_rejected():
    raw = load_raw("sg2")
    raw["laplacian"] = [[-1.0, 1.0], [1.0, -1.0]]
    with pytest.raises(ParseError):
        ff.validate_structure(raw)


def test_weight_count_rejected():
    raw = load_raw("sg2")
    raw["weights"] = [0.6, 0.6]
    with pytest.raises(ParseError):
        ff.validate_structure(raw)


def test_unknown_builtin():
    with pytest.raises(ParseError, match="available"):
        ff.builtin_structure("sg9")


def test_structure_without_optional_parts_loads():
    raw = load_raw("sg2")
    del raw["laplacian"]
    del raw["weights"]
    del raw["realization"]
    spec = ff.validate_structure(raw)
    assert spec.laplacian is None
    assert spec.vertex_table(2).num_vertices == 15
