"""Divergences between Poisson Galton-Watson processes with immigration.

Exact values and rigorous lower/upper bounds for Hellinger integrals, power
divergences and relative entropy between two GWI path laws, their Feller-
diffusion-limit analogues, Bayes-risk and Neyman-Pearson error bounds, and
an independent brute-force enumeration oracle to verify it all at desk
scale.
"""

from .params import (
    AdmissibilityError,
    BoundOrderError,
    CaseError,
    CaseTag,
    GWIError,
    LambdaWeights,
    ParamSet,
    PhiDerivatives,
    case_details,
    classify,
    lambda_weights,
    geometric_mean_gap,
    phi_eval,
    varphi_value,
)
from .recursions import (
    CoeffRole,
    CoefficientPair,
    Constellation,
    LogBoundReport,
    RecursionTrace,
    exact_log_hellinger,
    log_hellinger_bounds,
    recursive_log_bounds,
    run_recursion,
    select_coeffs,
    sp3d_log_delta,
    upper_candidates,
)
from .fixed_point import FixedPointResult, solve_fixed_point
from .closed_form import (
    ClosedFormTerms,
    asymptotic_log_slope,
    closed_form_log_lower,
    closed_form_log_upper,
    closed_form_lower_terms,
    closed_form_upper_terms,
)
from .entropy import (
    EntropyReport,
    entropy_lower,
    entropy_report,
    entropy_upper,
    exact_entropy,
    horizontal_component,
    secant_component,
    tangent_component,
    tangent_component_dy,
    tangent_component_limit,
    tangent_derivative_at_ystar,
)
from .diffusion import (
    LimitScalars,
    SDEParams,
    approx_params,
    limit_entropy,
    limit_log_bounds,
    limit_scalars,
    min_admissible_m,
    prelimit_log_bounds,
    time_horizon,
)
from .decisions import (
    DecisionConfig,
    DistinguishabilityVerdict,
    bayes_risk_bounds,
    distinguishability,
    divergence_from_log_hellinger,
    np_type2_bound,
    optimize_bayes_upper,
)
from .oracle import (
    PathLaw,
    TruncationPolicy,
    path_law_atoms,
    enum_bayes_risk,
    enum_log_hellinger,
    enum_log_hellinger_profile,
    enum_np_type2,
    enum_relative_entropy,
    mc_log_hellinger,
)

__version__ = "0.1.0"
