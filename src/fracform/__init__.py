"""Dirichlet forms, energy measures, and rank diagnostics on p.c.f. self-similar sets."""

from .errors import (
    CapExceededError,
    FracformError,
    NotHarmonicError,
    NumericalError,
    ParseError,
    ValidationError,
)
from .structure import (
    StructureSpec,
    VertexTable,
    build_vertices,
    builtin_structure,
    builtin_structure_path,
    load_structure,
    validate_structure,
)
from .harmonic import (
    EigenData,
    HarmonicStructure,
    eigen_data,
    graph_energy,
    harmonic_structure,
    validate_laplacian,
)
from .energy import (
    CellMeasureTable,
    MeanFunctional,
    PiecewiseHarmonic,
    energy,
    lift,
    mean_functional,
    measure_table,
    normalize_xi,
    scan_cell_masses,
)
from .dimension import (
    DensityMatrixField,
    FunctionFamily,
    RankProfile,
    RepresentingField,
    cell_run_mass,
    density_matrices,
    family_from_values,
    harmonic_family,
    level1_family,
    rank_statistics,
    representing_field,
    run_mass_limit,
    verify_field_invariants,
    zeta_factors,
)

__version__ = "0.1.0"
