"""Certified numerics for Ramanujan's partial theta function.

Evaluation with rigorous error bounds, real and complex zero location,
double-zero (spectral) parameter values, separating lines, and a named
claims-verification suite, for the one-sided series
sum_{j>=0} q^{j(j+1)/2} x^j with q in (-1,0) u (0,1).
"""

from .certified import (
    CertifiedValue,
    DEFAULT_TOL,
    Q_MAX,
    truncation_order,
)
from .core import (
    Decomposition,
    decompose,
    functional_equation_residual,
    inside_contour,
    katsnelson_residual,
    limit_function,
    mixed_identity_residuals,
    nu,
    pde_residual,
    phi,
    theta_at_diagonal,
    theta_certified,
    theta_derivative,
)
from .errors import (
    AmbiguousIndexError,
    ContourError,
    ConvergenceError,
    CountMismatchError,
    DomainError,
    IndeterminateSignError,
    InfeasibleToleranceError,
    PThetaError,
    RangeOverflowError,
    SeedFailureError,
    SeparationValidationError,
    StepUnderflowError,
    UnresolvedBracketError,
)
from .separation import (
    SeparationResult,
    left_separating_line_B,
    monotonicity_in_b_probe,
    right_separating_line_B,
    separating_line,
    separating_line_A,
)
from .spectrum import (
    SpectralPoint,
    double_zero_interval_check,
    ordering_check,
    pair_count_between,
    sign_at_anchor,
    spectral_point,
    spectral_point_A,
    spectral_point_B,
)
from .tripleprod import (
    TripleProductParts,
    g_tail,
    jacobi_theta_star,
    theta_via_triple_product,
)
from .zeros import (
    ClippedLeftHalfDisk,
    Disk,
    HalfAnnulusRight,
    Rectangle,
    Trajectory,
    ZeroRecord,
    assign_case_b_indices,
    complex_zeros,
    real_zeros,
    track_zero,
    track_zeros,
    zero_count,
)

__version__ = "0.1.0"

__all__ = [
    "CertifiedValue", "DEFAULT_TOL", "Q_MAX", "truncation_order",
    "Decomposition", "decompose", "functional_equation_residual",
    "inside_contour", "katsnelson_residual", "limit_function",
    "mixed_identity_residuals", "nu", "pde_residual", "phi",
    "theta_at_diagonal", "theta_certified", "theta_derivative",
    "PThetaError", "DomainError", "InfeasibleToleranceError",
    "IndeterminateSignError", "ContourError", "UnresolvedBracketError",
    "CountMismatchError", "StepUnderflowError", "AmbiguousIndexError",
    "SeparationValidationError", "SeedFailureError", "ConvergenceError",
    "RangeOverflowError",
    "SeparationResult", "separating_line", "separating_line_A",
    "left_separating_line_B", "right_separating_line_B",
    "monotonicity_in_b_probe",
    "SpectralPoint", "spectral_point", "spectral_point_A", "spectral_point_B",
    "ordering_check", "pair_count_between", "sign_at_anchor",
    "double_zero_interval_check",
    "TripleProductParts", "g_tail", "jacobi_theta_star",
    "theta_via_triple_product",
    "ZeroRecord", "Disk", "Rectangle", "HalfAnnulusRight",
    "ClippedLeftHalfDisk", "Trajectory", "assign_case_b_indices",
    "complex_zeros", "real_zeros", "track_zero", "track_zeros", "zero_count",
]
