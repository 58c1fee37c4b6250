"""Certificates and numerical verification for geometric properties of the
shifted Gauss hypergeometric function f(z) = z 2F1(a,b;c;z)."""

from .certificates import (
    BoundaryGridSettings,
    Certificate,
    Condition,
    CubicCoefficients,
    LMNCoefficients,
    certify_convexity,
    certify_cor_a2,
    certify_general,
    certify_spirallike,
    certify_spirallike_cor1,
    certify_spirallike_cor2,
    certify_sst_cor_final,
    certify_sst_cor_max,
    certify_sst_cor_p0,
    certify_starlike_order,
    certify_strong_starlike,
    certify_theorem_A,
    spirallike_lmn,
    starlike_order_lmn,
    strong_starlike_cubic,
)
from .errors import (
    HypstarError,
    InvalidC,
    InvalidParams,
    NoConvergence,
    NonFinite,
    PrecondFailed,
    RadiusExceeded,
    ZeroOfF,
)
from .hypergeom import (
    HypergeomParams,
    RingValues,
    SeriesSettings,
    gauss_2f1,
    gauss_2f1_derivative,
    gauss_2f1_grid,
    gauss_2f1_ring,
    log_derivative_q,
    ode_residual,
    shifted_f,
)
from .oracles import (
    LineSearchSettings,
    MinimizerResult,
    ab_gap_direct,
    ab_gap_formula,
    ab_identity_residual,
    half_plane_bound_check,
    minimize_on_positive_line,
    quadratic_nonneg_exact,
    quadratic_nonneg_sampled,
)
from .shapes import (
    AdmissibilityResult,
    BoundaryPoint,
    ShapeClass,
    SpirallikeOrder,
    StarlikeOrder,
    StronglyStarlike,
    admissibility_vi,
    boundary_point,
    boundary_Q,
    boundary_zQprime,
    membership_predicate,
    phi,
    q_class,
)
from .verifier import (
    CrossCheckResult,
    DiskGridSettings,
    VerificationReport,
    cross_check,
    verify_on_disk,
)

__version__ = "0.1.0"
