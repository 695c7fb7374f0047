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
forms for scalar targets, to the two-ray interval of the exact cdf
(`_gauss.ray_interval_prob`) at conditional rank 0, and otherwise to the
conditioned-orthant kernel of the exact cdf (`_gauss.conditional_rows`,
at the one scale 1).  The secondary path (`cdf_limit_via_integral`)
evaluates the mixture-of-shifted-Gaussians integral form directly, with
its own shift constants and each term conditioned on b_p'Z, and exists
purely to cross-check the first.  Both build the per-order parts of a
`dist_exact.TermTrace` (pi(p) is the chance that order p is selected),
refine them through `_gauss.refine` and form their result with
`dist_exact.cdf_result`, as the exact cdf does; the n_z seeded draws
enter only at k >= 4, once per order (`_rule_rows`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from ._gauss import (
    PANELS,
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
)
from .dist_exact import AccuracyBudget, CdfResult, TermTrace, cdf_result, delta
from .errors import DensityUndefinedError, ValidationError, cdf_argument
from .regression_core import LimitQuantities, order_of
from .selection import GeneralToSpecific

__all__ = [
    "LocalAlternative",
    "LocalShiftConstants",
    "OscillationReport",
    "local_shift_constants",
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
class LocalShiftConstants:
    """p_star together with the shift vectors beta(p) and drift scalars nu_p.

    beta maps p in {p_star, ..., P} to the k-vector shift of the order-p
    mixture component; nu maps p in {p_star+1, ..., P} to the scalar drift
    of the order-p trailing coordinate."""

    p_star: int
    beta: dict[int, np.ndarray]
    nu: dict[int, float]


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
    return (cdf_argument(t, limits.k),
            local_shift_constants(limits.Q, limits.A, alt.theta, alt.gamma, limits.O))


def _method(name: str, budget: AccuracyBudget, k: int):
    """method(level) of a limit cdf result, for `cdf_result`."""
    return lambda level: f"{name};level={level};n_z={budget.n_z};seed={budget.seed};k={k}"


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
                var_w: float, nu: float, B: float, key, n_z: int):
    """P(Z <= u_row, |W + nu| >= B) for centered joint Gaussians (Z, W), B > 0.

    Z is k-variate with covariance cov_z, W scalar with variance var_w,
    Cov(Z, W) = cov_zw.  A scalar Z of nonzero variance is a closed
    bivariate-normal form.  Otherwise Z = g X + R, X = W / sd(W) and R of
    rank r (`condition_on_scalar`), and the rays are |X - x0| >= c for
    x0 = -nu / sd(W) and c = B / sd(W): at r = 0 (Z = g X, also a Z of
    zero variance) the rows' x-intervals meet the rays in closed form
    (`ray_interval_prob`); otherwise `_rule_rows` (keyed by ``key``).
    Returns (rows, quad): rows(level) -> (values, pis, errors, sampling
    errors), pi = P(|W + nu| >= B) being the value without the orthant.
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
            return _rule_rows(U, g, S, L, -nu / sw, B / sw, 0.0, key, n_z), True
        lo, hi = rank1_bounds(U, g)
        vals = ray_interval_prob(lo, hi, w_lo / sw, w_hi / sw)
    pi = ray_interval_prob(-np.inf, np.inf, w_lo / sw, w_hi / sw)
    return (lambda level: (vals, pi, 0.0, 0.0)), False


def _rule_rows(U, g, S, L, x0: float, c: float, rho: float, key, n_z: int):
    """rows(level) -> (values, pis, errors, sampling errors) of
    int phi(x) K(|x - x0| / c) P(R <= u - g x) dx for every row u of U,
    pi being the integral without the orthant.

    R ~ N(0, L L') (`condition_on_scalar`); K(y) = 1 - Delta(rho, y, 1),
    the step 1{y >= 1} at rho = 0, turns at y = 1 + rho z for z in
    `_TURN_Z`, which are x-edges of the level's `conditional_rows`.  Where
    the conditional orthant `needs_sampling`, n_z draws of R keyed by
    philox(*key) are made once, for every level; their error is 3 SE.
    """
    R = gauss_draws(philox(*key), n_z, L) if needs_sampling(*L.shape) else None
    s_breaks = 1.0 + rho * _TURN_Z

    def K(y):
        return 1.0 - delta(rho, y, 1.0)

    def rows(level):
        vals, pis, errs, ses = conditional_rows(U, g, S, L, x0, c, K, s_breaks,
                                                PANELS * (2 ** level), R)
        return vals, pis, errs, 3.0 * ses

    return rows


def _cdf_limit_rows(limits: LimitQuantities, p_star: int, nu, sigma: float,
                    c_of: np.ndarray, T: np.ndarray, budget: AccuracyBudget):
    """All representation terms for each row of T, refined together.

    nu[p] and c_of[p] are the drift and critical value of order p.  Returns
    (totals, trace of orders p_star..P with a trailing axis of rows,
    refinement gaps, level).
    """
    P, k, m = limits.P, limits.k, T.shape[0]
    tails = _delta_tails(limits, p_star, nu, sigma, c_of)
    shift = {P: np.zeros(k)}
    for p in range(P - 1, p_star - 1, -1):
        shift[p] = shift[p + 1] + limits.C(p + 1) * (nu[p + 1] / limits.xi(p + 1) ** 2)
    # the order-0 estimator is the point 0: its orthant is an indicator
    cov0 = sigma ** 2 * limits.omega(p_star) if p_star else np.zeros((k, k))
    core0, se0 = gaussian_rect_rows(T + shift[p_star][None, :], cov0,
                                    rng=philox(budget.seed + 977), n_samples=budget.n_z)
    # terms, weights, errors and sampling errors of order p_star, whose
    # weight is the chance that no later test rejects
    core = np.empty((4, m))
    core[0], core[1], core[2], core[3] = core0 * tails[0], tails[0], 0.0, 3.0 * se0 * tails[0]
    # every order conditioned (and, where it must be, sampled) once
    joint = {p: _joint_rows(T + shift[p][None, :], sigma ** 2 * limits.omega(p),
                            sigma ** 2 * limits.C(p), sigma ** 2 * limits.xi(p) ** 2, nu[p],
                            c_of[p] * sigma * limits.xi(p), (budget.seed + 1000 + p, 0),
                            budget.n_z)
             for p in range(p_star + 1, P + 1)}

    def at_level(level):
        parts = np.empty((4, P - p_star + 1, m))
        parts[:, 0] = core
        for i, p in enumerate(range(p_star + 1, P + 1), start=1):
            parts[0, i], parts[1, i], parts[2, i], parts[3, i] = joint[p][0](level)
            parts[:, i] *= tails[i]
        return TermTrace(tuple(range(p_star, P + 1)), *parts)

    trace, gaps, level = refine(at_level, budget.tol,
                                any(quad for _, quad in joint.values()))
    return trace.total, trace, gaps, level


def cdf_limit(limits: LimitQuantities, alt: LocalAlternative, t,
              rule: GeneralToSpecific,
              budget: AccuracyBudget | None = None) -> CdfResult:
    """Limit cdf of the scaled post-selection error at t, under drift alt.

    Evaluates the probabilistic representation term by term (see module
    docstring); the result's term_trace carries the per-order breakdown.
    """
    budget = budget or AccuracyBudget()
    t, consts = _limit_query(limits, alt, t, rule)
    _, trace, gaps, level = _cdf_limit_rows(
        limits, consts.p_star, consts.nu, alt.sigma, rule.critical_values(limits.O),
        t[None, :], budget)
    return cdf_result(trace.row(0), gaps[0], level, budget,
                      _method("representation", budget, limits.k))


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
    (`refine`).  Like `cdf_limit`, the result carries the per-order
    term_trace and a warning when its error bound misses budget.tol.
    """
    budget = budget or AccuracyBudget()
    P, k = limits.P, limits.k
    t, consts = _limit_query(limits, alt, t, rule)
    sigma, p_star = alt.sigma, consts.p_star
    c_of = rule.critical_values(limits.O)
    tails = _delta_tails(limits, p_star, consts.nu, sigma, c_of)

    # terms, weights, errors and sampling errors of orders p_star..P; the
    # orders without a rule are fixed across levels
    fixed = np.zeros((4, P - p_star + 1))
    cov0 = sigma ** 2 * limits.omega(p_star) if p_star else np.zeros((k, k))
    core, core_se = gaussian_rect(t - consts.beta[p_star], cov0,
                                  rng=philox(budget.seed + 31), n_samples=budget.n_z)
    fixed[:, 0] = core * tails[0], tails[0], 0.0, 3.0 * core_se * tails[0]
    rules = {}
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
            pi = 1.0 - float(delta(sigma * zeta_p, consts.nu[p], B))
            fixed[:, i] = pi * val * tails[i], pi * tails[i], 0.0, 3.0 * se * tails[i]
            continue
        # condition on X = V / sd(V): 1 - Delta(sigma zeta_p, nu_p + V, B) is the
        # mass K(|X - x0| / c) of `_rule_rows`, x0 = -nu_p / sd(V), c = B / sd(V)
        g, S, L = condition_on_scalar(cov_z, cov_z @ b_p, var_v)
        sv = np.sqrt(var_v)
        rules[i] = _rule_rows(u[None, :], g, S, L, -consts.nu[p] / sv, B / sv,
                              sigma * zeta_p / B, (budget.seed + 63, p), budget.n_z)

    def at_level(level):
        parts = fixed.copy()
        for i, rows in rules.items():
            parts[:, i] = [v[0] for v in rows(level)]
            parts[:, i] *= tails[i]
        return TermTrace(tuple(range(p_star, P + 1)), *parts)

    trace, gap, level = refine(at_level, budget.tol, bool(rules))
    return cdf_result(trace, gap, level, budget, _method("mixture-integral", budget, k))


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
