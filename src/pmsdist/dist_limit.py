"""Large-sample limit cdf of the post-selection estimator under local drift.

For a parameter sequence theta + gamma/sqrt(n) the scaled estimation error
sqrt(n) A (theta_tilde - theta - gamma/sqrt(n)) converges in distribution;
this module evaluates the limit cdf and its density when one exists.  Both
read the design record `regression_core.LimitQuantities` of the limit Gram
and the constants (p_star, shift vectors beta, scalar drifts nu) of
`regression_core.local_shift_constants`, as the exact cdf of `dist_exact`
does at Q = X'X/n and gamma = sqrt(n) theta.  Like it, each evaluator
divides sigma out first (`_limit_query`) and computes at unit sigma.

Two independent evaluation paths are provided.  The primary path works
through the probabilistic representation of the limit: independent scalar
Gaussians W_p (variance xi_p^2) drive partial sums
Z_p = sum_{r <= p} xi_r^{-2} C_r W_r, and each mixture term is the joint
probability P(Z_p <= u_p, |W_p + nu_p| >= c_p xi_p) times later-stage
interval factors (`dist_exact.tail_products` at scale 1).  Joint
probabilities reduce to closed bivariate-normal forms for scalar targets,
to the two-ray interval of the exact cdf (`_gauss.ray_interval_prob`) at
conditional rank 0, and otherwise to the conditioned-orthant kernel of the
exact cdf (`_gauss.conditional_rows`, at the one scale 1).  The secondary
path (`cdf_limit_via_integral`) evaluates the mixture-of-shifted-Gaussians
integral form directly, with its own shift constants and each term
conditioned on b_p'Z, and exists purely to cross-check the first.  Both
keep one `_gauss.OrderTerm` per order (pi(p) is the chance that order p
is selected): a closed form's values, or the rows' `conditional_rows`
rule, which `_gauss.refine` bisects.  Their `dist_exact.TermTrace`
stacks each record's parts times the order's later-stage factors, and
`dist_exact.cdf_result` forms the result, as in the exact cdf; the n_z
seeded draws enter only at k >= 4 with conditional rank >= 3
(unconditional rank >= 4), once per order (`_rule_rows`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from ._gauss import (
    OrderTerm,
    ScaleMass,
    bvn_cdf,
    condition_on_scalar,
    conditional_rows,
    gauss_draws,
    gaussian_rect,
    gaussian_rect_rows,
    needs_sampling,
    philox,
    rank1_bounds,
    ray_interval_prob,
    refine,
    sym_eigh,
)
from .dist_exact import AccuracyBudget, CdfResult, TermTrace, cdf_result, delta, tail_products
from .errors import DensityUndefinedError, ValidationError, cdf_argument
from .regression_core import LimitQuantities, LocalShiftConstants, local_shift_constants
from .selection import GeneralToSpecific

__all__ = [
    "LocalAlternative",
    "OscillationReport",
    "cdf_limit",
    "cdf_limit_via_integral",
    "pdf_limit",
    "limit_nonconstancy_scan",
    "full_model_gaussian_cdf",
]

_ZERO_SD_REL = 1e-12
# K(y) of `_rule_rows` turns at y = 1 + rho z for these z
_TURN_Z = np.array([0.0, 1.0, -1.0, 3.0, -3.0, 6.0, -6.0])


@dataclass(frozen=True)
class LocalAlternative:
    """Local parameter drift: true coefficients theta + gamma/sqrt(n), scale sigma."""

    theta: np.ndarray
    gamma: np.ndarray
    sigma: float

    def __post_init__(self):
        theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        gamma = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        if theta.ndim != 1 or gamma.shape != theta.shape:
            raise ValidationError("theta and gamma must be vectors of equal length")
        if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(gamma))):
            raise ValidationError("theta and gamma must be finite")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValidationError("sigma must be positive")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "sigma", float(self.sigma))

    @property
    def P(self) -> int:
        return self.theta.size


@dataclass(frozen=True)
class OscillationReport:
    """Values of gamma -> limit cdf over a grid, and their max-min spread."""

    gamma_grid: np.ndarray
    values: np.ndarray
    oscillation: float
    t: np.ndarray


def _limit_query(limits: LimitQuantities, alt: LocalAlternative, t,
                 rule: GeneralToSpecific) -> tuple[np.ndarray, LocalShiftConstants]:
    """Checks shared by the limit evaluators; returns the unit-sigma query:
    (t / sigma, shift constants at drift gamma / sigma)."""
    if alt.P != limits.P:
        raise ValidationError("alternative dimension does not match limits")
    rule.validate_for(limits.P, limits.O)
    return (cdf_argument(t, limits.k) / alt.sigma,
            local_shift_constants(limits.Q, limits.A, alt.theta, alt.gamma / alt.sigma,
                                  limits.O))


# ---------------------------------------------------------------------------
# primary engine: representation-based, vectorized over rows of T
# ---------------------------------------------------------------------------

def _joint_rows(U: np.ndarray, cov_z: np.ndarray, cov_zw: np.ndarray,
                var_w: float, nu: float, B: float, key, n_z: int) -> OrderTerm:
    """P(Z <= u_row, |W + nu| >= B) for centered joint Gaussians (Z, W), B > 0.

    Z is k-variate with covariance cov_z, W scalar with variance var_w,
    Cov(Z, W) = cov_zw.  A scalar Z of nonzero variance is a closed
    bivariate-normal form.  Otherwise Z = g X + R, X = W / sd(W) and R of
    rank r (`condition_on_scalar`), and the rays are |X - x0| >= c for
    x0 = -nu / sd(W) and c = B / sd(W): at r = 0 (Z = g X, also a Z of
    zero variance) the rows' x-intervals meet the rays in closed form
    (`ray_interval_prob`); otherwise `_rule_rows` (keyed by ``key``).
    Returns the rows' `OrderTerm`, its weight pi = P(|W + nu| >= B) the
    value without the orthant: the closed forms give values and pi with no
    error, a rule its per-row `Panels`.
    """
    m, k = U.shape
    sw = np.sqrt(var_w)
    w_lo, w_hi = -nu - B, -nu + B
    if k == 1 and cov_z[0, 0] > _ZERO_SD_REL ** 2 * var_w:
        sz = np.sqrt(float(cov_z[0, 0]))
        rho = float(np.clip(cov_zw[0] / (sz * sw), -1.0, 1.0))
        h = U[:, 0] / sz
        vals = np.clip(np.asarray(bvn_cdf(h, np.full(m, w_lo / sw), rho))
                       + ndtr(h)
                       - np.asarray(bvn_cdf(h, np.full(m, w_hi / sw), rho)), 0.0, 1.0)
    else:
        g, S, L = condition_on_scalar(cov_z, cov_zw, var_w)
        if L.shape[1] > 0:
            return _rule_rows(U, g, S, L, -nu / sw, B / sw, 0.0, key, n_z)
        lo, hi = rank1_bounds(U, g)
        vals = ray_interval_prob(lo, hi, w_lo / sw, w_hi / sw)
    return OrderTerm(vals, ray_interval_prob(-np.inf, np.inf, w_lo / sw, w_hi / sw), 0.0, 0.0)


def _rule_rows(U, g, S, L, x0: float, c: float, rho: float, key, n_z: int) -> OrderTerm:
    """The `conditional_rows` record of int phi(x) K(|x - x0| / c)
    P(R <= u - g x) dx for every row u of U, its weight pi the integral
    without the orthant.

    R ~ N(0, L L') (`condition_on_scalar`); K(y) = 1 - Delta(rho, y, 1),
    the step 1{y >= 1} at rho = 0, turns at y = 1 + rho z for z in
    `_TURN_Z`, which are x-edges of the rows' `conditional_rows` rule.  The
    rule and, where the conditional orthant `needs_sampling`, n_z draws of
    R keyed by philox(*key) are made once, for every round of bisection.
    """
    R = gauss_draws(philox(*key), n_z, L) if needs_sampling(*L.shape) else None

    K = ScaleMass(lambda y: (1.0 - delta(rho, y, 1.0))[None])
    return conditional_rows(U, g, S, L, x0, c, 1.0 + rho * _TURN_Z, K, R)


def _assemble(terms: dict, tails: dict):
    """assemble() -> the trace of the orders' records times tails[p], and their rules."""
    def assemble():
        parts = [term.parts() * tails[p] for p, term in terms.items()]
        return TermTrace(tuple(terms), *np.array(parts).swapaxes(0, 1))

    return assemble, [term.panels for term in terms.values() if term.panels]


def _cdf_limit_rows(limits: LimitQuantities, p_star: int, nu, c_of: np.ndarray, *,
                    T: np.ndarray, budget: AccuracyBudget):
    """All representation terms at unit sigma for each row of T, refined together.

    nu[p] and c_of[p] are the drift and critical value of order p.  Returns
    (totals, trace of orders p_star..P with a trailing axis of rows,
    summed estimates per row, rounds of bisection run).
    """
    P, k = limits.P, limits.k
    tails = tail_products(limits, nu, c_of, p_star)
    shift = {P: np.zeros(k)}
    for p in range(P - 1, p_star - 1, -1):
        shift[p] = shift[p + 1] + limits.C(p + 1) * (nu[p + 1] / limits.xi(p + 1) ** 2)
    # order p_star, whose weight is the chance that no later test rejects
    core, se = gaussian_rect_rows(T + shift[p_star][None, :], limits.omega(p_star),
                                  rng=philox(budget.seed + 977), n_samples=budget.n_z)
    terms = {p_star: OrderTerm(core, 1.0, 0.0, se)}
    # every order conditioned (and, where it must be, sampled) once
    for p in range(p_star + 1, P + 1):
        terms[p] = _joint_rows(T + shift[p][None, :], limits.omega(p), limits.C(p),
                               limits.xi(p) ** 2, nu[p], c_of[p] * limits.xi(p),
                               (budget.seed + 1000 + p, 0), budget.n_z)
    trace, gaps, rounds = refine(*_assemble(terms, tails), budget.tol)
    return trace.total, trace, gaps, rounds


def cdf_limit(limits: LimitQuantities, alt: LocalAlternative, t,
              rule: GeneralToSpecific,
              budget: AccuracyBudget | None = None) -> CdfResult:
    """Limit cdf of the scaled post-selection error at t, under drift alt.

    Evaluates the probabilistic representation term by term (see module
    docstring); the result's term_trace carries the per-order breakdown.
    """
    budget = budget or AccuracyBudget()
    t, consts = _limit_query(limits, alt, t, rule)
    _, trace, gaps, rounds = _cdf_limit_rows(
        limits, consts.p_star, consts.nu, rule.critical_values(limits.O),
        T=t[None, :], budget=budget)
    return cdf_result(trace.row(0), gaps[0], rounds, budget, "representation", limits.k)


# ---------------------------------------------------------------------------
# secondary engine: direct mixture-integral path (cross-check)
# ---------------------------------------------------------------------------

def cdf_limit_via_integral(limits: LimitQuantities, alt: LocalAlternative, t,
                           rule: GeneralToSpecific,
                           budget: AccuracyBudget | None = None) -> CdfResult:
    """Limit cdf evaluated through the shifted-Gaussian mixture integral.

    Independent of `cdf_limit`: uses the direct shift vectors beta(p) and
    the conditional-spread constants (b, zeta) instead of the joint (Z, W)
    covariance, so transcription errors in either path surface as
    disagreement.  Each order term E[1{Z <= u} (1 - Delta(zeta_p,
    nu_p + b_p'Z, B_p))] conditions Z on b_p'Z (`_rule_rows`), which is
    deterministic up to k = 3 and at conditional rank <= 2 (a rank-2
    orthant is a polygon in closed form), and samples only the conditional
    orthant at k >= 4 with conditional rank >= 3; the terms' rules are
    bisected together (`refine`).  Like `cdf_limit`, the result carries the
    per-order term_trace and a warning when its error bound misses
    budget.tol.
    """
    budget = budget or AccuracyBudget()
    t, consts = _limit_query(limits, alt, t, rule)
    p_star = consts.p_star
    c_of = rule.critical_values(limits.O)
    core, se = gaussian_rect(t - consts.beta[p_star], limits.omega(p_star),
                             rng=philox(budget.seed + 31), n_samples=budget.n_z)
    # one row, t; order p_star's weight is the chance no later test rejects
    terms = {p_star: OrderTerm(np.array([core]), 1.0, 0.0, se)}
    for p in range(p_star + 1, limits.P + 1):
        u = t - consts.beta[p]
        xi_p, zeta_p, b_p = limits.xi(p), limits.zeta(p), limits.b(p)
        B = c_of[p] * xi_p
        cov_z = limits.omega(p)
        var_v = float(b_p @ cov_z @ b_p)
        if var_v <= (_ZERO_SD_REL * xi_p) ** 2:
            # the order-p test statistic V = b_p'Z does not load on Z
            val, se = gaussian_rect(u, cov_z, rng=philox(budget.seed + 63, p),
                                    n_samples=budget.n_z)
            pi = 1.0 - float(delta(zeta_p, consts.nu[p], B))
            terms[p] = OrderTerm(np.array([pi * val]), pi, 0.0, se)
            continue
        # condition on X = V / sd(V): 1 - Delta(zeta_p, nu_p + V, B) is the
        # mass K(|X - x0| / c) of `_rule_rows`, x0 = -nu_p / sd(V), c = B / sd(V)
        g, S, L = condition_on_scalar(cov_z, cov_z @ b_p, var_v)
        sv = np.sqrt(var_v)
        terms[p] = _rule_rows(u[None, :], g, S, L, -consts.nu[p] / sv, B / sv,
                              zeta_p / B, (budget.seed + 63, p), budget.n_z)
    tails = tail_products(limits, consts.nu, c_of, p_star)
    trace, gaps, rounds = refine(*_assemble(terms, tails), budget.tol)
    return cdf_result(trace.row(0), gaps[0], rounds, budget, "mixture-integral", limits.k)


def _gaussian_density(cov: np.ndarray):
    """v -> the N(0, cov) density at v, read from the eigenvalues of cov.

    A covariance of which `sym_eigh`, the package's numerical-rank rule,
    counts an eigenvalue as zero is singular and raises
    DensityUndefinedError.  The gate and the density read the same
    eigenvalues, so a covariance that passes cannot give rounding noise.
    """
    lam, vec, keep = sym_eigh(cov)
    if not keep.all():
        raise DensityUndefinedError(
            f"component covariance is singular (eigenvalues {lam[0]:.3e} to {lam[-1]:.3e})")
    log_norm = -0.5 * (float(np.sum(np.log(lam))) + lam.size * np.log(2.0 * np.pi))

    def density(v: np.ndarray) -> float:
        z = vec.T @ v
        return float(np.exp(log_norm - 0.5 * np.sum(z * z / lam)))

    return density


def pdf_limit(limits: LimitQuantities, alt: LocalAlternative, t,
              rule: GeneralToSpecific) -> float:
    """Density of the limit distribution at t.

    Defined when p_star > 0 and every mixture component's covariance
    omega(p), p >= p_star, is nonsingular by `_gaussian_density`'s
    eigenvalue test (the components are then absolutely continuous);
    otherwise raises DensityUndefinedError.  It is 0 at a t with an
    infinite coordinate.  It is sigma^-k times the unit-sigma density.
    """
    t, consts = _limit_query(limits, alt, t, rule)
    p_star = consts.p_star
    if p_star == 0:
        raise DensityUndefinedError("density requires p_star > 0: order 0 is a point mass")
    density = {p: _gaussian_density(limits.omega(p)) for p in range(p_star, limits.P + 1)}

    if not np.all(np.isfinite(t)):
        return 0.0   # every component density vanishes there
    c_of = rule.critical_values(limits.O)
    tails = tail_products(limits, consts.nu, c_of, p_star)

    val = density[p_star](t - consts.beta[p_star]) * tails[p_star]
    for p in range(p_star + 1, limits.P + 1):
        v = t - consts.beta[p]
        a = consts.nu[p] + float(limits.b(p) @ v)
        one_minus = 1.0 - float(delta(limits.zeta(p), a, c_of[p] * limits.xi(p)))
        val += one_minus * density[p](v) * tails[p]
    return float(val * alt.sigma ** -limits.k)


def full_model_gaussian_cdf(limits: LimitQuantities, sigma: float, t) -> float:
    """Cdf of N(0, sigma^2 A Q^{-1} A') at t: the no-selection-effect limit."""
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValidationError("sigma must be positive")
    val, _ = gaussian_rect(cdf_argument(t, limits.k) / sigma, limits.omega(limits.P))
    return float(val)


def limit_nonconstancy_scan(limits: LimitQuantities, theta, sigma: float, t,
                            rule: GeneralToSpecific, gamma_grid,
                            budget: AccuracyBudget | None = None) -> OscillationReport:
    """Max-minus-min of gamma -> limit cdf at t over a grid of drifts.

    A strictly positive oscillation exhibits the dependence of the limit on
    the drift direction; uncorrelated designs report ~0.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    grid = np.atleast_2d(np.asarray(gamma_grid, dtype=float))
    if grid.shape[1] != limits.P:
        raise ValidationError("gamma grid width must equal P")
    if grid.shape[0] == 0:
        raise ValidationError("gamma grid is empty")
    values = np.empty(grid.shape[0])
    for i, gamma in enumerate(grid):
        alt = LocalAlternative(theta=theta, gamma=gamma, sigma=sigma)
        values[i] = cdf_limit(limits, alt, t, rule, budget).value
    return OscillationReport(gamma_grid=grid, values=values,
                             oscillation=float(values.max() - values.min()),
                             t=np.atleast_1d(np.asarray(t, dtype=float)))
