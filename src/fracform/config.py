"""Shared numerical configuration.

Every tolerance used by a validation or invariant check is a named module
constant here, so no check hides a magic number.  The checks read them
directly; only the cell skip threshold can be overridden, through the
``mass_floor`` argument of ``density_matrices`` (``--mass-floor``).
"""

# Operations refuse to materialize more word cells than this.
MAX_CELLS = 1 << 22

# A density field of n**depth cells and k members is refused when its k x k
# float64 matrices, counted over every cell, would take more bytes than this.
MAX_FIELD_BYTES = 1 << 32

# Fixed subtree chunk size for the deep table builders.  The chunk layout is a
# function of the requested depth alone, never of the worker count, so results
# are byte-for-byte reproducible no matter how work is scheduled.
CHUNK_CELLS = 1 << 15

SYMMETRY_TOL = 1e-12        # |D - D^T| relative to max|D|
DEFINITENESS_TOL = 1e-10    # largest eigenvalue of D may not exceed this
KERNEL_TOL = 1e-8           # gap separating the constant kernel from the rest
OFFDIAGONAL_TOL = 1e-12     # off-diagonal entries of D must be >= -OFFDIAGONAL_TOL
FIXED_POINT_TOL = 1e-10     # level-1 renormalization residual cap
EIGEN_GAP_TOL = 1e-9        # simplicity margin around the weight eigenvalue
EIGEN_SIGN_TOL = 1e-9       # mixed-sign threshold for the cell eigenvector
MEAN_RESIDUAL_TOL = 1e-12   # mean-functional fixed-point residual cap
CONSISTENCY_TOL = 1e-12     # refinement / total-mass identities
TRACE_IDENTITY_TOL = 1e-12  # weighted trace of a density matrix vs 1
PSD_TOL = 1e-10             # PSD slack, scaled by the matrix trace
PIVOT_TIE_TOL = 1e-9        # weighted diagonals this close (relative) tie for alpha
REPRESENTING_TOL = 1e-10    # representing-field range and pairing checks
MASS_FLOOR = 1e-14          # cell skip threshold as a fraction of total mass
FAMILY_NORM_TOL = 1e-8      # |2 E(e_i) - 1| allowed for family members
