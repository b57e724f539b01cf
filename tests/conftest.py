import numpy as np
import pytest

import fracform as ff


@pytest.fixture(scope="session")
def sg2():
    return ff.harmonic_structure(ff.builtin_structure("sg2"))


@pytest.fixture(scope="session")
def vicsek():
    return ff.harmonic_structure(ff.builtin_structure("vicsek"))


# A two-letter interval with unequal resistances, so each cell's resistance
# product depends on its word; every built-in has uniform weights.
INTERVAL = {
    "name": "interval", "alphabet_size": 2, "boundary": ["p1", "p2"],
    "fixed_points": {"1": "p1", "2": "p2"}, "gluing": [[1, "p2", 2, "p1"]],
    "laplacian": [[-1.0, 1.0], [1.0, -1.0]], "weights": [0.3, 0.7],
}

# The same interval with one letter's resistance near zero, so the inverse
# resistance products r_w^{-1} of deep cells pass the float range (1e315 for
# the word 1...1 at depth 21).  The cell scan never forms them: it refines by
# the normalized letters C~_i = r_i^{-1/2} C_i, with sum_i C~_i^T C~_i = I.
# graph_energy, which does form them, refuses such a level with one error.
THIN_INTERVAL = {**INTERVAL, "weights": [1e-15, 1 - 1e-15]}


@pytest.fixture(scope="session")
def interval():
    return ff.harmonic_structure(ff.validate_structure(INTERVAL))


@pytest.fixture()
def rng():
    return np.random.default_rng(20260817)


def random_piecewise_harmonic(hs, level, rng):
    table = hs.spec.vertex_table(level)
    return ff.PiecewiseHarmonic(hs, level, rng.standard_normal(table.num_vertices))
