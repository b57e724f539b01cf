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
    Word,
    build_vertices,
    builtin_structure,
    builtin_structure_path,
    format_word,
    index_to_word,
    load_structure,
    parse_word,
    validate_structure,
    word_index,
)
from .harmonic import (
    EigenData,
    HarmonicStructure,
    eigen_data,
    graph_energy,
    harmonic_extension,
    harmonic_structure,
    validate_laplacian,
)
from .energy import (
    CellMeasureTable,
    MeanFunctional,
    PiecewiseHarmonic,
    cell_mass,
    energy,
    interpolate,
    lift,
    mean_functional,
    measure_table,
    normalize_xi,
    pullback,
    scan_cell_masses,
)
from .dimension import (
    DeltaEstimate,
    DensityMatrixField,
    FunctionFamily,
    RankProfile,
    RepresentingField,
    ZetaField,
    cell_run_mass,
    cylinder_mass,
    density_matrices,
    estimate_ck,
    estimate_delta,
    family_from_values,
    gamma_eta,
    harmonic_family,
    level1_family,
    projected_power_limit,
    rank_statistics,
    representing_field,
    run_mass_limit,
    sample_kset,
    verify_field_invariants,
    zeta_factors,
)

__version__ = "0.1.0"
