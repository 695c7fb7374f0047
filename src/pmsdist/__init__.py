"""Finite-sample and large-sample distributions of post-model-selection
estimators in Gaussian linear regression: exact formulas, limit formulas,
plug-in estimators, Monte Carlo checks, and scripted experiments."""

from .cdf_estimators import PlugInState, g_check, phi_hat, plug_in_state
from .dist_exact import (
    AccuracyBudget,
    CdfQuery,
    CdfResult,
    SigmaRatioDensity,
    TermTrace,
    cdf_exact,
    delta,
)
from .dist_limit import (
    LocalAlternative,
    LocalShiftConstants,
    OscillationReport,
    cdf_limit,
    cdf_limit_via_integral,
    full_model_gaussian_cdf,
    limit_nonconstancy_scan,
    local_shift_constants,
    pdf_limit,
)
from .errors import (
    DegenerateSampleError,
    DensityUndefinedError,
    ExperimentRefusal,
    PmsdistError,
    ValidationError,
)
from .experiments import (
    SweepReport,
    aic_equivalence_audit,
    convergence_sweep,
    impossibility_demo,
    pilot_delta0,
    tube_sweep,
    uniform_case_sweep,
)
from .fixtures import FIXTURE_NAMES, Fixture, fixture
from .montecarlo import (
    EmpiricalCdf,
    Replications,
    SimulationPlan,
    dump_replications,
    empirical_cdf,
    estimator_error_probability,
    replicate,
    simulate_response,
)
from .regression_core import (
    LimitQuantities,
    ProjectionQuantities,
    RegressionProblem,
    eta,
    limit_quantities,
    order_of,
    projection_quantities,
    restricted_ls,
    sigma_hat,
    t_statistics,
    xi_n,
)
from .selection import (
    GeneralToSpecific,
    InformationCriterion,
    PostSelectionFit,
    SubsetMask,
    Thresholding,
    auxiliary_consistent,
    full_model_t_ratios,
    g2s_order,
    ic_threshold,
    ic_values,
    masked_ls,
    post_select_fit,
    rule_from_json,
    rule_to_json,
    select_g2s,
    select_ic,
    select_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyBudget", "CdfQuery", "CdfResult",
    "DegenerateSampleError", "DensityUndefinedError", "EmpiricalCdf",
    "ExperimentRefusal", "FIXTURE_NAMES", "Fixture", "GeneralToSpecific",
    "InformationCriterion", "LimitQuantities",
    "LocalAlternative", "LocalShiftConstants", "OscillationReport",
    "PlugInState", "PmsdistError", "PostSelectionFit",
    "ProjectionQuantities", "RegressionProblem", "Replications",
    "SigmaRatioDensity", "SimulationPlan", "SubsetMask", "SweepReport",
    "TermTrace", "Thresholding", "ValidationError", "aic_equivalence_audit",
    "auxiliary_consistent", "cdf_exact",
    "cdf_limit", "cdf_limit_via_integral", "convergence_sweep", "delta",
    "dump_replications", "empirical_cdf", "estimator_error_probability",
    "eta", "fixture", "full_model_gaussian_cdf", "full_model_t_ratios",
    "g2s_order", "g_check", "ic_threshold", "ic_values",
    "impossibility_demo", "limit_nonconstancy_scan", "limit_quantities",
    "local_shift_constants", "masked_ls", "order_of", "pdf_limit",
    "phi_hat", "pilot_delta0", "plug_in_state", "post_select_fit",
    "projection_quantities", "replicate", "restricted_ls", "rule_from_json",
    "rule_to_json", "select_g2s", "select_ic",
    "select_threshold", "sigma_hat", "simulate_response",
    "t_statistics", "tube_sweep", "uniform_case_sweep", "xi_n",
]
