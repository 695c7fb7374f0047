"""Data-driven estimators of the finite-sample post-selection cdf.

Two estimators are provided.  The consistent plug-in (`g_check`) evaluates
the zero-drift limit formula with every unknown replaced by its sample
counterpart: the protected-or-estimated order max(p_bar, O) from an
auxiliary consistent scan, sigma_hat for sigma, and the finite-n design
moments X'X/n in place of the limiting ones.  The uncorrelated-case
estimator (`phi_hat`) is the centered Gaussian cdf with the fitted
covariance of the order-p target, appropriate when the later-stage target
correlations vanish.
"""
from __future__ import annotations

import numpy as np

from ._gauss import gaussian_rect
from .dist_exact import AccuracyBudget
from .dist_limit import _cdf_limit_rows
from .errors import DegenerateSampleError, ValidationError, cdf_argument, target_matrix
from .regression_core import (
    RegressionProblem,
    limit_quantities,
    projection_quantities,
    sigma_hat,
)
from .selection import GeneralToSpecific, auxiliary_consistent

__all__ = ["g_check", "phi_hat"]


def g_check(problem: RegressionProblem, Y, A, t, rule: GeneralToSpecific, *,
            aux_scheme: str = "sqrt_log_n",
            budget: AccuracyBudget | None = None) -> float:
    """Consistent plug-in estimate of the post-selection cdf at t: the
    one-row `g_check_values` at this sample's sigma_hat and p_bar.

    Deterministic given (Y, settings, seed).  A zero residual scale (a
    probability-zero event) degenerates the estimate to the point-mass cdf
    at the origin.
    """
    Y = np.asarray(Y, dtype=float)
    # the degenerate branch must come first: the auxiliary scan is
    # undefined when the sample fits exactly
    sig, p_bar = sigma_hat(problem, Y), 0
    if sig != 0.0:
        p_bar = auxiliary_consistent(problem, Y, scheme=aux_scheme)
    return float(g_check_values(problem, A, t, rule, np.array([sig]), np.array([p_bar]),
                                budget=budget)[0])


def g_check_values(problem: RegressionProblem, A, t, rule: GeneralToSpecific,
                   sigma_hats, p_bars, *,
                   budget: AccuracyBudget | None = None) -> np.ndarray:
    """Plug-in estimates for many replications at one argument t.

    At zero drift the estimate at scale sigma_hat is the unit-scale formula
    at t / sigma_hat (the identity every cdf evaluator applies first), so
    whole groups sharing an effective order take one vectorized pass.
    sigma_hats must be finite and nonnegative, a zero one giving the
    point-mass cdf at the origin; p_bars are orders in [0, P].
    """
    budget = budget or AccuracyBudget()
    rule.validate_for(problem.P, problem.O)
    limits = limit_quantities(problem.gram, A, O=problem.O)
    t_arr = cdf_argument(t, limits.k)
    sig = np.asarray(sigma_hats, dtype=float)
    p_bars = np.asarray(p_bars, dtype=int)
    if sig.shape != p_bars.shape or sig.ndim != 1:
        raise ValidationError("sigma_hats and p_bars must be equal-length vectors")
    if np.any((p_bars < 0) | (p_bars > problem.P)):
        raise ValidationError(f"p_bars must lie in [0, {problem.P}]")
    if not np.all(np.isfinite(sig) & (sig >= 0.0)):
        raise ValidationError("sigma_hats must be finite and nonnegative")
    out = np.empty(sig.size)
    zero = sig == 0.0
    out[zero] = 1.0 if np.all(t_arr >= 0.0) else 0.0
    p_eff = np.maximum(p_bars, problem.O)
    nu = np.zeros(problem.P + 1)
    c_of = rule.critical_values(problem.O)
    for p in np.unique(p_eff[~zero]):
        rows = (~zero) & (p_eff == p)
        T = t_arr[None, :] / sig[rows, None]
        totals, _, _, _ = _cdf_limit_rows(limits, int(p), nu, c_of, T=T, budget=budget)
        out[rows] = np.clip(totals, 0.0, 1.0)
    return out


def phi_hat(problem: RegressionProblem, Y, A, p: int, t) -> float:
    """Gaussian cdf estimate with fitted order-p target covariance.

    Evaluates N(0, sigma_hat^2 A[p] (X[p]'X[p]/n)^{-1} A[p]') at t; p = 0
    gives the point-mass cdf.  Raises DegenerateSampleError when the
    residual scale vanishes.
    """
    s = sigma_hat(problem, np.asarray(Y, dtype=float))
    if s == 0.0:
        raise DegenerateSampleError("sigma_hat is zero")
    return float(phi_hat_values(problem, A, p, t, np.array([s]))[0])


def phi_hat_values(problem: RegressionProblem, A, p: int, t,
                   sigma_hats) -> np.ndarray:
    """`phi_hat` at each of a vector of per-replication residual scales.

    Validates once and reads the design record once, then calls
    `gaussian_rect` once per scale, at t / sigma_hat: the loop is not
    vectorized.  (One `gaussian_rect_rows` call over every row would be,
    but `benchmarks/spans.py` counts these calls through this module's
    `gaussian_rect` name.)
    """
    A = target_matrix(A, problem.P)
    if not 0 <= p <= problem.P:
        raise ValidationError(f"p must lie in [0, {problem.P}]")
    t_arr = cdf_argument(t, A.shape[0])
    sig = np.asarray(sigma_hats, dtype=float)
    if sig.ndim != 1 or not np.all(np.isfinite(sig)):
        raise ValidationError("sigma_hats must be a vector of finite values")
    if np.any(sig <= 0.0):
        raise DegenerateSampleError("sigma_hat is zero")
    if p == 0:
        return np.full(sig.shape, 1.0 if np.all(t_arr >= 0.0) else 0.0)
    cov = projection_quantities(problem, A).omega(p)
    out = np.empty(sig.size)
    for j, s in enumerate(sig):
        val, _ = gaussian_rect(t_arr / s, cov)
        out[j] = val
    return out
