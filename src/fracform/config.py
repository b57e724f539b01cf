"""Shared numerical configuration.

Every tolerance used by a validation or invariant check lives in one record,
so no check hides a magic number.  Functions take the record as an argument,
but every caller passes the defaults: no test and no command-line flag relaxes
a check.  Only the cell skip threshold has its own argument (``--mass-floor``).
"""

from __future__ import annotations

from dataclasses import dataclass

# Operations refuse to materialize more word cells than this.
MAX_CELLS = 1 << 22

# Fixed subtree chunk size for the deep table builders.  The chunk layout is a
# function of the requested depth alone, never of the worker count, so results
# are byte-for-byte reproducible no matter how work is scheduled.
CHUNK_CELLS = 1 << 15


@dataclass(frozen=True)
class Tolerances:
    symmetry: float = 1e-12        # |D - D^T| relative to max|D|
    definiteness: float = 1e-10    # largest eigenvalue of D may not exceed this
    kernel: float = 1e-8           # gap separating the constant kernel from the rest
    offdiagonal: float = 1e-12     # off-diagonal entries of D must be >= -tol
    fixed_point: float = 1e-10     # level-1 renormalization residual cap
    eigen_gap: float = 1e-9        # simplicity margin around the weight eigenvalue
    eigen_sign: float = 1e-9       # mixed-sign threshold for the cell eigenvector
    mean_residual: float = 1e-12   # mean-functional fixed-point residual cap
    consistency: float = 1e-12     # refinement / total-mass identities
    trace_identity: float = 1e-12  # weighted trace of a density matrix vs 1
    psd: float = 1e-10             # PSD slack, scaled by the matrix trace
    representing: float = 1e-10    # representing-field range and pairing checks
    mass_floor: float = 1e-14      # cell skip threshold as a fraction of total mass
    family_norm: float = 1e-8      # |2 E(e_i) - 1| allowed for family members


DEFAULT_TOLERANCES = Tolerances()
