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

from dataclasses import dataclass

import numpy as np

from ._gauss import gaussian_rect
from .dist_exact import AccuracyBudget
from .dist_limit import _cdf_limit_rows
from .errors import DegenerateSampleError, ValidationError, cdf_argument
from .regression_core import (
    LimitQuantities,
    RegressionProblem,
    limit_quantities,
    projection_quantities,
    sigma_hat,
)
from .selection import GeneralToSpecific, auxiliary_consistent

__all__ = ["PlugInState", "plug_in_state", "g_check", "g_check_values",
           "phi_hat", "phi_hat_values"]


@dataclass(frozen=True)
class PlugInState:
    """Sample-dependent ingredients of the plug-in cdf estimate.

    p_bar is the auxiliary order estimate, p_eff = max(p_bar, O) the order
    actually plugged into the formula, and limits the finite-n design
    quantities (xi, C, b, zeta, and the Gaussian covariances) evaluated
    from X'X/n."""

    p_bar: int
    p_eff: int
    sigma_hat: float
    limits: LimitQuantities


def _plugged_limits(problem: RegressionProblem, A: np.ndarray) -> LimitQuantities:
    return limit_quantities(problem.gram, A, O=problem.O)


def plug_in_state(problem: RegressionProblem, Y, A,
                  aux_scheme: str = "sqrt_log_n") -> PlugInState:
    """Auxiliary order estimate, residual scale, and plugged design quantities."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    p_bar = auxiliary_consistent(problem, Y, scheme=aux_scheme)
    return PlugInState(p_bar=p_bar, p_eff=max(p_bar, problem.O),
                       sigma_hat=sigma_hat(problem, np.asarray(Y, dtype=float)),
                       limits=_plugged_limits(problem, A))


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
    # the degenerate branch must come first: the auxiliary scan inside
    # plug_in_state is undefined when the sample fits exactly
    sig, p_bar = sigma_hat(problem, Y), 0
    if sig != 0.0:
        p_bar = plug_in_state(problem, Y, A, aux_scheme).p_bar
    return float(g_check_values(problem, A, t, rule, np.array([sig]), np.array([p_bar]),
                                budget=budget)[0])


def g_check_values(problem: RegressionProblem, A, t, rule: GeneralToSpecific,
                   sigma_hats, p_bars, *,
                   budget: AccuracyBudget | None = None) -> np.ndarray:
    """Plug-in estimates for many replications at one argument t.

    Exploits the zero-drift scaling identity — the estimate at scale
    sigma_hat equals the unit-scale formula at t / sigma_hat — to evaluate
    whole groups sharing an effective order in one vectorized pass.
    sigma_hats must be finite and nonnegative; a zero one gives the
    point-mass cdf at the origin.
    """
    budget = budget or AccuracyBudget()
    rule.validate_for(problem.P, problem.O)
    limits = _plugged_limits(problem, np.atleast_2d(np.asarray(A, dtype=float)))
    t_arr = cdf_argument(t, limits.k)
    sig = np.asarray(sigma_hats, dtype=float)
    p_bars = np.asarray(p_bars, dtype=int)
    if sig.shape != p_bars.shape or sig.ndim != 1:
        raise ValidationError("sigma_hats and p_bars must be equal-length vectors")
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
        totals, _, _, _ = _cdf_limit_rows(limits, int(p), nu, 1.0, c_of, T, budget)
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
    """Vectorized `phi_hat` over per-replication residual scales."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    k = A.shape[0]
    if A.shape[1] != problem.P:
        raise ValidationError("target width must equal the problem dimension")
    if not 0 <= p <= problem.P:
        raise ValidationError(f"p must lie in [0, {problem.P}]")
    t_arr = cdf_argument(t, k)
    sig = np.asarray(sigma_hats, dtype=float)
    if not np.all(np.isfinite(sig)):
        raise ValidationError("sigma_hats must be finite")
    if np.any(sig <= 0.0):
        raise DegenerateSampleError("sigma_hat is zero")
    if p == 0:
        return np.full(sig.shape, 1.0 if np.all(t_arr >= 0.0) else 0.0)
    cov = projection_quantities(problem, A, p).omega_np
    out = np.empty(sig.size)
    for j, s in enumerate(sig):
        val, _ = gaussian_rect(t_arr / s, cov)
        out[j] = val
    return out
