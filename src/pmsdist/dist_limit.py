"""Large-sample limit cdf of the post-selection estimator under local drift.

For a parameter sequence theta + gamma/sqrt(n) the scaled estimation error
sqrt(n) A (theta_tilde - theta - gamma/sqrt(n)) converges in distribution;
this module evaluates the limit cdf, its density when one exists, and the
constants (p_star, shift vectors beta, scalar drifts nu) that parameterize
both.

Two independent evaluation paths are provided.  The primary path works
through the probabilistic representation of the limit: independent scalar
Gaussians W_p (variance sigma^2 xi_p^2) drive partial sums
Z_p = sum_{r <= p} xi_r^{-2} C_r W_r, and each mixture term is the joint
probability P(Z_p <= u_p, |W_p + nu_p| >= c_p sigma xi_p) times later-stage
interval factors.  Joint probabilities reduce to closed bivariate-normal
forms for scalar targets and otherwise to the x-rule of the exact cdf
(`_gauss.selection_rule`, at the one scale 1) against the conditional
orthant (`_gauss.orthant_rows`).  The secondary path (`cdf_limit_via_integral`)
evaluates the mixture-of-shifted-Gaussians integral form directly, with its
own shift constants and each term conditioned on b_p'Z, and exists purely
to cross-check the first.  Both refine through `_gauss.refine`; the n_z
seeded draws enter only at k >= 4, for conditional orthants of rank >= 2
(`_gauss.sampled_rule`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from ._gauss import (
    PANELS,
    TAIL_CUT,
    bvn_cdf,
    condition_on_scalar,
    conditional_kinks,
    gaussian_rect,
    gaussian_rect_rows,
    orthant_rows,
    philox,
    rank1_bounds,
    refine,
    sampled_rule,
    selection_rule,
)
from .dist_exact import AccuracyBudget, CdfResult, budget_warning, delta
from .errors import DensityUndefinedError, ValidationError
from .regression_core import LimitQuantities, order_of
from .selection import GeneralToSpecific

__all__ = [
    "LocalAlternative",
    "LocalShiftConstants",
    "LimitCdfTermTrace",
    "OscillationReport",
    "local_shift_constants",
    "cdf_limit",
    "cdf_limit_via_integral",
    "pdf_limit",
    "limit_nonconstancy_scan",
    "full_model_gaussian_cdf",
    "sample_zw",
]

_ZERO_SD_REL = 1e-12
# Rounding floor of every limit cdf error bound: the accuracy of `bvn_cdf`
_ROUNDING = 1e-14
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
class LocalShiftConstants:
    """p_star together with the shift vectors beta(p) and drift scalars nu_p.

    beta maps p in {p_star, ..., P} to the k-vector shift of the order-p
    mixture component; nu maps p in {p_star+1, ..., P} to the scalar drift
    of the order-p trailing coordinate."""

    p_star: int
    beta: dict[int, np.ndarray]
    nu: dict[int, float]


@dataclass(frozen=True)
class LimitCdfTermTrace:
    """Per-order breakdown of the limit cdf value.

    core_values holds the orthant/joint-probability component of each term,
    delta_products the product of later-stage interval factors, and
    term_values their products; total is the sum of term_values."""

    orders: tuple[int, ...]
    term_values: tuple[float, ...]
    delta_products: tuple[float, ...]
    core_values: tuple[float, ...]

    @property
    def total(self) -> float:
        return float(sum(self.term_values))


@dataclass(frozen=True)
class OscillationReport:
    """Values of gamma -> limit cdf over a grid, and their max-min spread."""

    gamma_grid: np.ndarray
    values: np.ndarray
    oscillation: float
    t: np.ndarray


def local_shift_constants(Q: np.ndarray, A: np.ndarray, theta, gamma,
                          O: int = 0) -> LocalShiftConstants:
    """Shift constants of the limit distribution under drift gamma.

    For p between p_star = max(order(theta), O) and P the mixture component
    of order p is shifted by

        beta(p) = A ( Q[p,p]^{-1} Q[p, p+1:] gamma[p+1:] ; -gamma[p+1:] ),

    so beta(P) = 0 and beta(0) = -A gamma, and for p > p_star the trailing
    coordinate of the order-p fit drifts by

        nu_p = gamma_p + ( Q[p,p]^{-1} Q[p, p+1:] gamma[p+1:] )_p.
    """
    Q = np.asarray(Q, dtype=float)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    P = Q.shape[0]
    if A.shape[1] != P or theta.shape != (P,) or gamma.shape != (P,):
        raise ValidationError("dimension mismatch between Q, A, theta, gamma")
    if not (0 <= O < P):
        raise ValidationError(f"O must lie in [0, P), got {O}")
    p_star = max(order_of(theta), O)
    beta: dict[int, np.ndarray] = {}
    nu: dict[int, float] = {}
    for p in range(p_star, P + 1):
        vec = np.zeros(P)
        if p < P:
            vec[p:] = -gamma[p:]
        if 0 < p < P:
            vec[:p] = np.linalg.solve(Q[:p, :p], Q[:p, p:] @ gamma[p:])
        beta[p] = A @ vec
        if p > p_star:
            nu[p] = float(gamma[p - 1] + vec[p - 1]) if p < P else float(gamma[P - 1])
    return LocalShiftConstants(p_star=p_star, beta=beta, nu=nu)


def _limit_query(limits: LimitQuantities, alt: LocalAlternative, t,
                 rule: GeneralToSpecific) -> tuple[np.ndarray, LocalShiftConstants]:
    """Checks shared by the limit evaluators; returns (t, shift constants)."""
    if alt.P != limits.P:
        raise ValidationError("alternative dimension does not match limits")
    rule.validate_for(limits.P, limits.O)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.shape != (limits.k,):
        raise ValidationError(f"t must have length k={limits.k}")
    if np.any(np.isnan(t)):
        raise ValidationError("t must not be NaN")
    return t, local_shift_constants(limits.Q, limits.A, alt.theta, alt.gamma, limits.O)


def _delta_tails(limits: LimitQuantities, p_star: int, nu, sigma: float,
                 c_of: np.ndarray) -> np.ndarray:
    """prod_{q > p} Delta_q for p = p_star..P, the later-stage interval factors.

    Delta_q = delta(sigma xi_q, nu_q, c_q sigma xi_q) is the probability that
    the order-q test does not reject; entry i belongs to order p_star + i.
    """
    d = [float(delta(sigma * limits.xi(q), nu[q], c_of[q] * sigma * limits.xi(q)))
         for q in range(p_star + 1, limits.P + 1)]
    return np.array([math.prod(d[i:]) for i in range(len(d) + 1)])


# ---------------------------------------------------------------------------
# primary engine: representation-based, vectorized over rows of T
# ---------------------------------------------------------------------------

def _joint_rows(U: np.ndarray, cov_z: np.ndarray, cov_zw: np.ndarray,
                var_w: float, nu: float, B: float, *, seed: int,
                budget: AccuracyBudget, level: int):
    """P(Z <= u_row, |W + nu| >= B) for centered joint Gaussians (Z, W), B > 0.

    Z is k-variate with covariance cov_z, W scalar with variance var_w,
    Cov(Z, W) = cov_zw.  With Z = g X + R, X = W / sd(W) and R of rank r
    (`condition_on_scalar`), the rays are |X - x0| >= c for x0 = -nu / sd(W)
    and c = B / sd(W): a `selection_rule` against P(R <= u - g x), which
    k >= 4 at r >= 2 samples (`sampled_rule`).  k = 1 and r = 0 are closed
    forms.  Returns (values, error bound: dropped mass plus 3 SE, quad_flag).
    """
    m, k = U.shape
    sw = np.sqrt(var_w)
    w_lo, w_hi = -nu - B, -nu + B
    if k == 1:
        sz2 = float(cov_z[0, 0])
        if sz2 <= _ZERO_SD_REL ** 2 * var_w:
            ray = ndtr(w_lo / sw) + 1.0 - ndtr(w_hi / sw)
            return np.where(U[:, 0] >= 0.0, ray, 0.0), 0.0, False
        sz = np.sqrt(sz2)
        rho = float(np.clip(cov_zw[0] / (sz * sw), -1.0, 1.0))
        h = U[:, 0] / sz
        vals = (np.asarray(bvn_cdf(h, np.full(m, w_lo / sw), rho))
                + ndtr(h)
                - np.asarray(bvn_cdf(h, np.full(m, w_hi / sw), rho)))
        return np.clip(vals, 0.0, 1.0), 0.0, False

    g, S, L = condition_on_scalar(cov_z, cov_zw, var_w)
    r = L.shape[1]
    if r == 0:
        # Z = g X: the rows' x-intervals intersected with the two rays
        lo, hi = rank1_bounds(U, g)
        vals = (np.maximum(ndtr(np.minimum(hi, w_lo / sw)) - ndtr(lo), 0.0)
                + np.maximum(ndtr(hi) - ndtr(np.maximum(lo, w_hi / sw)), 0.0))
        return vals, 0.0, False
    vals, errs = _rule_rows(U, g, S, L, -nu / sw, B / sw, 0.0, (seed, 0), budget.n_z, level)
    return vals, errs, True


def _rule_rows(U, g, S, L, x0: float, c: float, rho: float, key, n_z: int, level: int):
    """(values, errors) of int phi(x) K(|x - x0| / c) P(R <= u - g x) dx per row u of U.

    R ~ N(0, L L') (`condition_on_scalar`); K(y) = 1 - Delta(rho, y, 1),
    the step 1{y >= 1} at rho = 0, turns at y = 1 + rho z for z in
    `_TURN_Z`, which are x-edges of the level's `selection_rule`.  Where
    `orthant_rows` has no rule (k >= 4 at rank >= 2), n_z draws of R keyed
    by philox(*key), the same at every level, feed `sampled_rule`, whose
    standard error is floored at 1/n_z: no draw may land in a rare region.
    """
    k, r = L.shape
    R = philox(*key).standard_normal((n_z, r)) @ L.T if r >= 2 and k >= 4 else None
    n_panels = PANELS * (2 ** level)

    def K(y):
        return 1.0 - delta(rho, y, 1.0)

    vals, errs = np.empty(len(U)), np.empty(len(U))
    for j, u in enumerate(U):
        x, wk, dropped = selection_rule(x0, c, K, 1.0 + rho * _TURN_Z,
                                        conditional_kinks(u, g, L), n_panels)
        if R is None:
            # orthant_rows drops the mass below -TAIL_CUT in its own coordinate
            vals[j] = wk @ orthant_rows(u[None, :] - np.outer(x, g), S, L, n_panels)
            errs[j] = dropped + float(ndtr(-TAIL_CUT))
        else:
            vals[j], se = sampled_rule(x, wk, g, u, R)
            errs[j] = dropped + 3.0 * max(se, 1.0 / n_z)
    return vals, errs


def _cdf_limit_rows(limits: LimitQuantities, p_star: int, nu, sigma: float,
                    c_of: np.ndarray, T: np.ndarray, budget: AccuracyBudget):
    """All representation terms for each row of T, refined together.

    nu[p] and c_of[p] are the drift and critical value of order p.  Returns
    (totals, error bounds, terms (n_orders, m), tails (n_orders,), cores
    (n_orders, m), orders, level).
    """
    P, k = limits.P, limits.k
    tails = _delta_tails(limits, p_star, nu, sigma, c_of)
    shift = {P: np.zeros(k)}
    for p in range(P - 1, p_star - 1, -1):
        shift[p] = shift[p + 1] + limits.C(p + 1) * (nu[p + 1] / limits.xi(p + 1) ** 2)
    # the order-0 estimator is the point 0: its orthant is an indicator
    cov0 = sigma ** 2 * limits.omega(p_star) if p_star else np.zeros((k, k))
    core0, se0 = gaussian_rect_rows(T + shift[p_star][None, :], cov0,
                                    rng=philox(budget.seed + 977), n_samples=budget.n_z)

    def at_level(level):
        cores = [core0]
        bound = 3.0 * se0 * tails[0]
        quad_used = False
        for i, p in enumerate(range(p_star + 1, P + 1), start=1):
            xi_p = limits.xi(p)
            vals, err, quad = _joint_rows(
                T + shift[p][None, :], sigma ** 2 * limits.omega(p), sigma ** 2 * limits.C(p),
                sigma ** 2 * xi_p ** 2, nu[p], c_of[p] * sigma * xi_p,
                seed=budget.seed + 1000 + p, budget=budget, level=level)
            cores.append(vals)
            bound = bound + err * tails[i]
            quad_used = quad_used or quad
        cores = np.array(cores)
        terms = cores * tails[:, None]
        return (terms, cores, bound), terms.sum(axis=0), quad_used

    (terms, cores, bound), gap, level = refine(at_level, budget.tol)
    return (terms.sum(axis=0), gap + bound + _ROUNDING, terms, tails, cores,
            np.arange(p_star, P + 1), level)


def cdf_limit(limits: LimitQuantities, alt: LocalAlternative, t,
              rule: GeneralToSpecific,
              budget: AccuracyBudget | None = None) -> CdfResult:
    """Limit cdf of the scaled post-selection error at t, under drift alt.

    Evaluates the probabilistic representation term by term (see module
    docstring); the result's term_trace carries the per-order breakdown.
    """
    budget = budget or AccuracyBudget()
    t, consts = _limit_query(limits, alt, t, rule)
    totals, errs, terms, tails, cores, orders, level = _cdf_limit_rows(
        limits, consts.p_star, consts.nu, alt.sigma, rule.critical_values(limits.O),
        t[None, :], budget)
    total = float(totals[0])
    trace = LimitCdfTermTrace(
        orders=tuple(int(p) for p in orders),
        term_values=tuple(float(v) for v in terms[:, 0]),
        delta_products=tuple(float(v) for v in tails),
        core_values=tuple(float(v) for v in cores[:, 0]))
    clamped = not (0.0 <= total <= 1.0)
    return CdfResult(value=float(np.clip(total, 0.0, 1.0)),
                     abs_error=float(errs[0]),
                     method=f"representation;level={level};n_z={budget.n_z};"
                            f"seed={budget.seed};k={limits.k}",
                     clamped=clamped, warning=budget_warning(float(errs[0]), budget),
                     term_trace=trace)


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
    disagreement.  Each order term E[1{Z <= u} (1 - Delta(sigma zeta_p,
    nu_p + b_p'Z, B_p))] conditions Z on b_p'Z (`_rule_rows`), which is
    deterministic up to k = 3 and samples only the conditional orthant at
    k >= 4 with conditional rank >= 2; the terms are refined together
    (`refine`).  Like `cdf_limit`, the result carries a warning when its
    error bound exceeds budget.tol.
    """
    budget = budget or AccuracyBudget()
    P, k = limits.P, limits.k
    t, consts = _limit_query(limits, alt, t, rule)
    sigma, p_star = alt.sigma, consts.p_star
    c_of = rule.critical_values(limits.O)
    tails = _delta_tails(limits, p_star, consts.nu, sigma, c_of)

    cov0 = sigma ** 2 * limits.omega(p_star) if p_star else np.zeros((k, k))
    core, core_se = gaussian_rect(t - consts.beta[p_star], cov0,
                                  rng=philox(budget.seed + 31), n_samples=budget.n_z)
    fixed, fixed_err, rules = core * tails[0], 3.0 * core_se * tails[0], []
    for i, p in enumerate(range(p_star + 1, P + 1), start=1):
        u = t - consts.beta[p]
        xi_p, zeta_p, b_p = limits.xi(p), limits.zeta(p), limits.b(p)
        B = c_of[p] * sigma * xi_p
        cov_z = sigma ** 2 * limits.omega(p)
        var_v = float(b_p @ cov_z @ b_p)
        if var_v <= (_ZERO_SD_REL * sigma * xi_p) ** 2:
            # the order-p test statistic V = b_p'Z does not load on Z
            val, se = gaussian_rect(u, cov_z, rng=philox(budget.seed + 63, p),
                                    n_samples=budget.n_z)
            fixed += (1.0 - float(delta(sigma * zeta_p, consts.nu[p], B))) * val * tails[i]
            fixed_err += 3.0 * se * tails[i]
            continue
        # condition on X = V / sd(V): 1 - Delta(sigma zeta_p, nu_p + V, B) is the
        # mass K(|X - x0| / c) of `_rule_rows`, x0 = -nu_p / sd(V), c = B / sd(V)
        g, S, L = condition_on_scalar(cov_z, cov_z @ b_p, var_v)
        sv = np.sqrt(var_v)
        rules.append((tails[i], u[None, :], g, S, L, -consts.nu[p] / sv, B / sv,
                      sigma * zeta_p / B, (budget.seed + 63, p)))

    def at_level(level):
        total, err = fixed, fixed_err
        for tail, *rule in rules:
            val, e = _rule_rows(*rule, budget.n_z, level)
            total += float(val[0]) * tail
            err += float(e[0]) * tail
        return (total, err), total, bool(rules)

    (total, err), gap, level = refine(at_level, budget.tol)
    clamped = not (0.0 <= total <= 1.0)
    abs_error = float(gap + err + _ROUNDING)
    return CdfResult(value=float(np.clip(total, 0.0, 1.0)), abs_error=abs_error,
                     method=f"mixture-integral;level={level};n_z={budget.n_z};"
                            f"seed={budget.seed};k={k}",
                     clamped=clamped, warning=budget_warning(abs_error, budget))


def _mvn_pdf(v: np.ndarray, cov: np.ndarray) -> float:
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise DensityUndefinedError("component covariance is singular")
    q = float(v @ np.linalg.solve(cov, v))
    k = v.size
    return float(np.exp(-0.5 * q - 0.5 * logdet - 0.5 * k * np.log(2.0 * np.pi)))


def pdf_limit(limits: LimitQuantities, alt: LocalAlternative, t,
              rule: GeneralToSpecific) -> float:
    """Density of the limit distribution at t.

    Defined when p_star > 0 and the first p_star target columns have full
    row rank (every mixture component is then absolutely continuous);
    otherwise raises DensityUndefinedError.
    """
    t, consts = _limit_query(limits, alt, t, rule)
    sigma = alt.sigma
    p_star = consts.p_star
    if p_star == 0 or np.linalg.matrix_rank(limits.A[:, :p_star]) < limits.k:
        raise DensityUndefinedError(
            "density requires p_star > 0 and a full-row-rank leading target block")

    c_of = rule.critical_values(limits.O)
    tails = _delta_tails(limits, p_star, consts.nu, sigma, c_of)

    val = _mvn_pdf(t - consts.beta[p_star],
                   sigma ** 2 * limits.omega(p_star)) * tails[0]
    for i, p in enumerate(range(p_star + 1, limits.P + 1), start=1):
        v = t - consts.beta[p]
        a = consts.nu[p] + float(limits.b(p) @ v)
        B = c_of[p] * sigma * limits.xi(p)
        one_minus = 1.0 - float(delta(sigma * limits.zeta(p), a, B))
        val += one_minus * _mvn_pdf(v, sigma ** 2 * limits.omega(p)) * tails[i]
    return float(val)


def full_model_gaussian_cdf(limits: LimitQuantities, sigma: float, t) -> float:
    """Cdf of N(0, sigma^2 A Q^{-1} A') at t: the no-selection-effect limit."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    val, _ = gaussian_rect(t, sigma ** 2 * limits.omega(limits.P))
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
    values = np.empty(grid.shape[0])
    for i, gamma in enumerate(grid):
        alt = LocalAlternative(theta=theta, gamma=gamma, sigma=sigma)
        values[i] = cdf_limit(limits, alt, t, rule, budget).value
    return OscillationReport(gamma_grid=grid, values=values,
                             oscillation=float(values.max() - values.min()),
                             t=np.atleast_1d(np.asarray(t, dtype=float)))


def sample_zw(limits: LimitQuantities, sigma: float, n_draws: int,
              seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Draw (W, Z) from the representation underlying the limit cdf.

    W has independent columns W_r ~ N(0, sigma^2 xi_r^2), r = 1..P, and
    Z[:, p-1, :] = sum_{r <= p} xi_r^{-2} C_r W_r is the order-p partial
    sum.  Returns (W of shape (n, P), Z of shape (n, P, k)).
    """
    P, k = limits.P, limits.k
    W = philox(seed).standard_normal((n_draws, P))
    for r in range(1, P + 1):
        W[:, r - 1] *= sigma * limits.xi(r)
    Z = np.zeros((n_draws, P, k))
    acc = np.zeros((n_draws, k))
    for r in range(1, P + 1):
        acc = acc + np.outer(W[:, r - 1], limits.C(r) / limits.xi(r) ** 2)
        Z[:, r - 1, :] = acc
    return W, Z
