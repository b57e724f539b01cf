import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

import fracform as ff
from fracform.errors import ParseError, ValidationError

import oracles


def load_raw(name):
    return json.loads(ff.builtin_structure_path(name).read_text())


# ---------------------------------------------------------------------------
# words

words = st.lists(st.integers(min_value=1, max_value=5), max_size=10).map(tuple)


@given(words, st.integers(min_value=5, max_value=9))
def test_word_index_round_trip(w, n):
    assert ff.word_index(w, n) == int("0" + "".join(str(c - 1) for c in w), n)


def test_word_edge_cases():
    with pytest.raises(ValidationError):
        ff.word_index((4,), 3)


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


def test_vertex_table_memoized(sg2):
    assert sg2.spec.vertex_table(4) is sg2.spec.vertex_table(4)


def test_depth_cap():
    spec = ff.builtin_structure("sg2")
    with pytest.raises(ff.CapExceededError):
        spec.vertex_table(30)


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
