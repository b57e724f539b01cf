"""Shared numerical configuration.

Every tolerance used by a validation or invariant check is a named module
constant here, so no check hides a magic number.  The checks read them
directly.  Two run parameters have their defaults here and can be
overridden, both through arguments of ``density_matrices``: the cell skip
threshold, through ``mass_floor`` (``--mass-floor``), and the eigenvalue
cutoff of the dimension count, through ``tau_rank`` (``--tau-rank``), which
density_matrices applies as the scan chunks stream.  The scan does not
refine a cell below the floor, so a skip covers the cell's whole subtree.
"""

# Operations refuse to materialize more word cells than this.
MAX_CELLS = 1 << 22

# A density field of n**depth cells and k members is refused when its k x k
# float64 matrices, counted over every cell, would take more bytes than this.
# The scan forms no such matrix, and a field holds no factor; this bounds the
# matrices DensityMatrixField.matrices forms when read.  embed checks it at its
# cell depth too, though it forms only each chunk's matrices as it writes them.
MAX_FIELD_BYTES = 1 << 32

# Fixed subtree chunk size of the cell scan, which measure tables, density
# fields and the chain-rule check all read.  Each density-field chunk is
# reduced to its per-cell quantities as it arrives.  The chunk layout is a
# function of the requested depth alone, so results are byte-for-byte
# reproducible.
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
MASS_FLOOR = 1e-14          # skip, and stop refining, cells below this fraction of total mass
TAU_RANK = 0.05             # eigenvalues above this count toward the dimension estimate
FAMILY_NORM_TOL = 1e-8      # |2 E(e_i) - 1| allowed for family members
REALIZATION_TOL = 1e-9      # realization fixed-point and gluing gaps, relative
COINCIDENCE_DECIMALS = 12   # embed: vertex coordinates equal at this rounding coincide
