"""Central tolerance table.

Every numerical gate in the package reads from this module so that the
precision policy is auditable in one place.  All computation is double
precision complex.
"""

# --- generic linear algebra -------------------------------------------------
HERMITICITY_TOL = 1e-9       # max-norm Hermiticity defect accepted before symmetrizing
PSD_CLIP = 1e-9              # negative eigenvalues above -PSD_CLIP are clipped to zero
PSD_REJECT = 1e-6            # eigenvalues below -PSD_REJECT mean the input is not PSD
SUPPORT_TOL = 1e-10          # eigenvalues <= SUPPORT_TOL count as kernel (log / support)

# --- channels ----------------------------------------------------------------
TRACE_TOL = 1e-9             # unit-trace defect accepted for density matrices
KRAUS_COMPLETENESS_TOL = 1e-8   # max-norm defect of sum(K^dag K) = I
SPECTRAL_RADIUS_TOL = 1e-7   # superoperator spectral radius may exceed 1 by at most this
UNITARITY_TOL = 1e-9         # max-norm defect of U^dag U = I
BATH_NORM_TOL = 1e-12        # bath vector norm defect
ZERO_NORM_TOL = 1e-12        # vectors (or vectorized matrices) with 2-norm below this count as zero
UNITAL_TOL = 1e-9            # max-norm defect of tau(I) = I for a unital channel

# --- spectral classification --------------------------------------------------
PERIPHERAL_TOL = 1e-7        # |lambda| > 1 - PERIPHERAL_TOL makes an eigenvalue peripheral
CLUSTER_TOL = 1e-7           # eigenvalues within CLUSTER_TOL of each other form one cluster
FIXED_POINT_PSD_TOL = 1e-6   # relative trace (and rank) floor for positive / negative parts of fixed points
POLAR_TRACE_NORM_TOL = 1e-10 # peripheral eigenvectors with trace norm at or below this count as zero
FIXED_POINT_RESIDUAL_TOL = 1e-7  # ||tau(rho) - rho||_1 gate for reconstructed fixed points
PURITY_PURE_TOL = 1e-9       # purity >= 1 - PURITY_PURE_TOL counts as a pure state
DISTANCE_FLOOR = 1e-13       # orbit distances below this are excluded from rate fits

# --- functionals and orbit evidence -------------------------------------------
REL_ENTROPY_LEAK_TOL = 1e-9  # support leakage above this makes relative entropy infinite
EVIDENCE_GAP = 1e-6          # limit-gap threshold for Lyapunov / deformation evidence
MONOTONE_DEFECT_TOL = 1e-9   # allowed monotonicity violation along orbits
STATE_MATCH_TOL = 1e-9       # trace distance below which two states count as equal
DISTINCT_PAIR_TOL = 1e-9     # state pairs closer than this are rejected as duplicates
WEAK_CONTRACTION_TOL = 1e-9  # trace-distance roundoff slack after a channel: strict decrease, horizon growth (~2.2e-16 a step)
ORACLE_TOL = 1e-8            # default orbit-oracle bound on the max pairwise probe distance
PURITY_SLACK = 1e-9          # advanced states' purity excess; rotation modes add ~2.4e-16 a step, tripping near n = 4e6
PAIR_BOUND_SLACK = 1e-9      # relative slack of the oracle's sqrt(d) * Frobenius bound on a pair's trace norm: the norm and eigvalsh each err by ~d * 2.2e-16

# --- conserved dilations --------------------------------------------------------
COMMUTATOR_TOL = 1e-9        # max-norm defect of [mA (x) I + I (x) mB, U] = 0
EXTREMAL_GAP_TOL = 1e-7      # required gap isolating the extremal bath eigenvalue
BATH_EIGEN_RESIDUAL_TOL = 1e-9   # ||mB phi - mu phi||_2 gate for the bath state
FACTORIZING_SV_TOL = 1e-6    # singular value > 1 - this counts as a factorizing direction
FACTORIZING_RESIDUAL_TOL = 1e-8  # eigen-residual gate for factorizing product states
UNITARY_SCHUR_TOL = 1e-6     # max off-diagonal of the Schur form of a dilation unitary (normal, so diagonal)
