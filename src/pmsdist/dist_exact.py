"""Exact finite-sample cdf of the post-selection estimator's scaled error.

Evaluates, for the general-to-specific procedure, the distribution function

    G(t) = P( sqrt(n) A (theta_tilde - theta) <= t ),

through its explicit finite-n formula: a mixture over candidate orders p of
shifted (possibly singular) Gaussian measures, each weighted by products of
normal interval probabilities integrated against the density of the
residual-scale ratio sigma_hat/sigma.

Evaluation strategy
-------------------
The outer scale integral runs over equal-mass Gauss-Legendre panels of the
chi-based ratio density, truncated where the tail mass drops below 1e-10.

For k <= 3 every term is deterministic.  A scalar target (k = 1) whose
order-p test statistic is a multiple of z (conditional spread zeta_p = 0)
has a closed two-ray interval probability at every scale node.  Every
other order-p integrand depends on z only through the orthant {z <= u}
and the scalar W = b'z + sigma zeta e that the order-p test rejects on, so
z is conditioned on X = W / sd(W).  The test rejects at scale s when
|X - x0| >= s c_p, that is at every scale up to |X - x0| / c_p, so the
scale integral becomes a cumulative scale mass read at each X node, and
the term integrates it against phi(X) times the conditional orthant
probability on Gauss-Legendre panels in X.  Their edges bracket the kinks
of that probability and the near-step the scale mass becomes at large
dof.  The conditional orthant is an indicator, a rank-1 interval, a
bivariate normal cdf (k = 2) or, for k = 3, one more conditioning step
onto a rank-1 interval or a bivariate normal cdf; the selection
probability pi(p) is the same integral without the orthant.  For k >= 4
the conditional orthant is estimated from seeded Gaussian draws of the
residual R = z - g X, integrated exactly over X, so no draw carries the
scale integral.
Results carry an abs_error that combines quadrature refinement,
truncated mass, the defect of sum pi(p) from 1, and (k >= 4 only) three
sampling standard errors, each at least 1/n_z; identical query + budget +
seed replays bit-identically.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincinv, gammaln, ndtr, xlogy

from ._gauss import (
    NODES_PER_PANEL,
    PANELS,
    TAIL_CUT,
    condition_on_scalar,
    conditional_kinks,
    cumulative_rule,
    gaussian_rect,
    gl_panels,
    orthant_rows,
    philox,
    psd_factor,
    ray_halfline_prob,
    refine,
    sampled_rule,
    selection_rule,
)
from .errors import ValidationError
from .regression_core import (
    RegressionProblem,
    eta,
    projection_quantities,
)
from .selection import GeneralToSpecific

__all__ = [
    "CdfQuery",
    "CdfResult",
    "AccuracyBudget",
    "SigmaRatioDensity",
    "delta",
    "sigma_ratio_pdf",
    "cdf_exact",
    "cdf_exact_decomposed",
    "DecomposedCdf",
]

# A conditional spread zeta_p this small relative to xi_p counts as zero:
# the k = 1 term is then two rays in z (`_term_k1`).
_ZERO_SD_REL = 1e-12
# The scale grid: equal-mass panels of the ratio density between these
# quantiles; the mass outside them is reported as truncation error.
_S_Q_LO, _S_Q_HI = 1e-12, 1.0 - 1e-10
_S_TRUNC = _S_Q_LO + (1.0 - _S_Q_HI)
# Ratio-density quantiles whose scales x0 +/- c_p s become x-edges of the
# `selection_rule`: at large dof K_p(|x - x0| / c_p) is a near-step, and
# these edges bracket it.
_STEP_Q = (1e-6, 0.5, 1.0 - 1e-6)


def delta(s: float, a, b):
    """Probability that N(0, s^2) lies within distance b of a.

    Computed as Phi((b-a)/s) - Phi((-b-a)/s), clipped below at 0 (negative
    b) and symmetric in the sign of a; a = +/-inf gives 0.  For s = 0 the
    normal degenerates at zero and the value is the indicator of |a| < b.
    ``a`` and ``b`` may be arrays (broadcast); ``s`` is a nonnegative
    scalar.
    """
    if not (s >= 0.0):
        raise ValidationError(f"spread s must be nonnegative, got {s!r}")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if s == 0.0:
        out = (np.abs(a) < b).astype(float)
        return out if out.ndim else float(out)
    with np.errstate(invalid="ignore", over="ignore"):
        out = ndtr((b - a) / s) - ndtr((-b - a) / s)
    # +/-inf - inf produces NaN only if b is infinite, which is outside the
    # contract; infinite a saturates both cdfs the same way -> 0.
    out = np.where(np.isinf(a), 0.0, out)
    out = np.clip(out, 0.0, 1.0)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class SigmaRatioDensity:
    """Density of sigma_hat/sigma: sqrt(chi^2_dof / dof).

    The chi law with dof degrees of freedom at scale 1/sqrt(dof), in closed
    form: the pdf through gammaln, the cdf through the regularized lower
    incomplete gamma function and the ppf through its inverse.
    """

    dof: int

    def __post_init__(self):
        if not (isinstance(self.dof, (int, np.integer)) and self.dof >= 1):
            raise ValidationError(f"dof must be a positive integer, got {self.dof!r}")
        object.__setattr__(self, "dof", int(self.dof))

    @property
    def _scale(self) -> float:
        return 1.0 / np.sqrt(self.dof)

    def pdf(self, s):
        s = np.asarray(s, dtype=float)
        d, x = self.dof, np.maximum(s, 0.0) / self._scale
        # xlogy keeps the dof = 1 density finite at s = 0
        log_pdf = (np.log(2) - 0.5 * np.log(2) * d - gammaln(0.5 * d)
                   + xlogy(d - 1.0, x) - 0.5 * x ** 2)
        return np.where(s >= 0.0, np.exp(log_pdf) / self._scale, 0.0)[()]

    def ppf(self, q):
        return np.sqrt(2.0 * gammaincinv(0.5 * self.dof, q)) * self._scale

    def cdf(self, s):
        x = np.maximum(np.asarray(s, dtype=float), 0.0) / self._scale
        return gammainc(0.5 * self.dof, 0.5 * x ** 2)


def sigma_ratio_pdf(dof: int, s) -> float | np.ndarray:
    """Density of (chi^2_dof / dof)^(1/2) at s > 0."""
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr <= 0.0):
        raise ValidationError("s must be positive")
    out = SigmaRatioDensity(dof).pdf(s_arr)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class AccuracyBudget:
    """Accuracy settings for the cdf evaluators: three fields.

    tol is the absolute quadrature target; `_gauss.refine` doubles panel
    counts (`_gauss.PANELS`) until successive totals differ by less than
    tol/2 or `_gauss.MAX_REFINEMENTS` doublings are spent, and a result
    whose error bound exceeds tol is flagged.  n_z Gaussian samples, keyed
    by seed, drive the sampled integrals, which remain only for targets
    with k >= 4 rows: the order terms of `cdf_exact`, and the orthants of
    rank >= 2 left after conditioning in both limit paths.
    """

    tol: float = 1e-5
    n_z: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if not (self.tol > 0 and self.n_z >= 100 and self.seed >= 0):
            raise ValidationError("invalid accuracy budget")


def budget_warning(abs_error: float, budget: AccuracyBudget) -> str | None:
    """The warning a cdf result carries when its error bound misses budget.tol."""
    if abs_error > budget.tol:
        return f"abs_error {abs_error:.2e} exceeds tol {budget.tol:.2e}"
    return None


@dataclass(frozen=True)
class CdfQuery:
    """Point query for the finite-sample cdf: target A, argument t, parameters."""

    A: np.ndarray
    t: np.ndarray
    theta: np.ndarray
    sigma: float
    rule: GeneralToSpecific

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        k, P = A.shape
        if np.linalg.matrix_rank(A) < k:
            raise ValidationError("A must have full row rank")
        t = np.atleast_1d(np.asarray(self.t, dtype=float))
        if t.shape != (k,):
            raise ValidationError(f"t must have length k={k}")
        if np.any(np.isnan(t)):
            raise ValidationError("t must not be NaN")
        theta = np.asarray(self.theta, dtype=float)
        if theta.shape != (P,) or not np.all(np.isfinite(theta)):
            raise ValidationError(f"theta must be a finite vector of length {P}")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValidationError("sigma must be positive")
        if not isinstance(self.rule, GeneralToSpecific):
            raise ValidationError("exact cdf is defined for the general-to-specific rule")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "sigma", float(self.sigma))


@dataclass(frozen=True)
class CdfResult:
    """A cdf value with an accuracy bound and an evaluation descriptor."""

    value: float
    abs_error: float
    method: str
    clamped: bool = False
    warning: str | None = None
    term_trace: object | None = None


@dataclass(frozen=True)
class DecomposedCdf:
    """Per-order decomposition: conditional cdfs and selection probabilities."""

    orders: tuple[int, ...]
    conditional: np.ndarray      # G(t | p) for each order
    weights: np.ndarray          # pi(p), all positive, summing to ~1
    total: float
    abs_error: float
    method: str


class _ExactEngine:
    """Assembles the finite-n mixture formula for one (problem, query) pair."""

    def __init__(self, problem: RegressionProblem, query: CdfQuery, budget: AccuracyBudget):
        if query.A.shape[1] != problem.P:
            raise ValidationError("query A width does not match problem dimension")
        query.rule.validate_for(problem.P, problem.O)
        # the query's (theta, sigma) override the problem's: all mean-value
        # quantities below must come from the query's parameter point
        if not np.array_equal(problem.theta, query.theta):
            problem = RegressionProblem(X=problem.X, theta=query.theta,
                                        sigma=problem.sigma, O=problem.O)
        self.problem = problem
        self.query = query
        self.budget = budget
        P, O, n = problem.P, problem.O, problem.n
        self.k = query.A.shape[0]
        self.sqrt_n = np.sqrt(n)
        self.ratio = SigmaRatioDensity(problem.dof)
        self.s_step = self.ratio.ppf(np.array(_STEP_Q))
        self.pq = [None] + [projection_quantities(problem, query.A, p) for p in range(1, P + 1)]
        # sqrt(n) * (trailing coordinate of the order-q mean vector)
        self.m = np.zeros(P + 1)
        for q in range(1, P + 1):
            self.m[q] = self.sqrt_n * self.pq[q].eta_np[q - 1]
        # orthant shifts sqrt(n) A (eta(p) - theta) for each admissible order
        self.shift = {p: self.sqrt_n * (query.A @ (eta(problem, p) - query.theta))
                      for p in range(O, P + 1)}
        self.c = query.rule.critical_values(O)
        self.sigma = query.sigma
        self._z_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    # ---- sampled z draws for k >= 4 terms (one draw per order, reused
    # across refinement levels so refinement measures quadrature only) ----
    def _z_sample(self, p: int) -> tuple[np.ndarray, np.ndarray]:
        """(z, a): z ~ N(0, sigma^2 omega_p) and a = m_p + b_p'z + sigma zeta_p e.

        a is the scaled trailing coordinate of the order-p estimate that the
        order-p test rejects on, drawn jointly with z (e standard normal,
        independent of z).
        """
        if p not in self._z_cache:
            pq = self.pq[p]
            L = psd_factor(pq.omega_np)
            r = L.shape[1]
            xi = philox(self.budget.seed, p).standard_normal((self.budget.n_z, r + 1))
            z = self.sigma * (xi[:, :r] @ L.T)
            a = self.m[p] + z @ pq.b_np + self.sigma * pq.zeta_np * xi[:, r]
            self._z_cache[p] = (z, a)
        return self._z_cache[p]

    # ---- scale grid ----
    def _s_edges(self, n_panels: int) -> np.ndarray:
        return self.ratio.ppf(np.linspace(_S_Q_LO, _S_Q_HI, n_panels + 1))

    def _s_grid(self, n_panels: int, breaks=()):
        edges = self._s_edges(n_panels)
        if len(breaks):
            extra = [b for b in breaks if edges[0] < b < edges[-1]]
            if extra:
                edges = np.unique(np.concatenate([edges, np.asarray(extra)]))
        s, w = gl_panels(edges, NODES_PER_PANEL)
        return s, w * self.ratio.pdf(s), _S_TRUNC

    def _scale_mass(self, p: int, n_panels: int):
        """(K, truncated mass): K(y) integrates pdf(s) tail_p(s) over s <= y.

        K is read through `cumulative_rule` on the panels of `_s_grid`, so
        it costs one partial panel per argument.
        """
        def f(s):
            return self.ratio.pdf(s) * self._tail_products(s)[p]

        K, _ = cumulative_rule(f, self._s_edges(n_panels))
        return K, _S_TRUNC

    def _tail_products(self, s: np.ndarray):
        """prod_{q > p} Delta factors at each scale node, for p = O..P."""
        P, O = self.problem.P, self.problem.O
        tail = {P: np.ones_like(s)}
        for p in range(P - 1, O - 1, -1):
            q = p + 1
            d = delta(self.sigma * self.pq[q].xi_np, self.m[q],
                      s * self.c[q] * self.sigma * self.pq[q].xi_np)
            tail[p] = tail[q] * d
        return tail

    # ---- first (lowest-order) term ----
    def _core_orthant(self, u: np.ndarray) -> tuple[float, float]:
        O = self.problem.O
        if O == 0:
            return (1.0 if np.all(u >= 0.0) else 0.0), 0.0
        return gaussian_rect(u, self.sigma ** 2 * self.pq[O].omega_np,
                             rng=philox(self.budget.seed, 10_000), n_samples=self.budget.n_z)

    # ---- k = 1 without conditional spread: two rays in z ----
    def _term_k1(self, p: int, u: float, n_panels: int):
        """(value, pi_value, error) of the order-p term for a scalar target
        whose order-p test statistic is a multiple of z (zeta_p = 0).

        The inner expectation is then the two-ray interval probability
        P(z <= u, |m_p + b z| >= s c_p sigma xi_p), exact at every scale
        node; the scale integrand kinks where a ray endpoint crosses u, and
        pi(p) is read at u = inf on the same scale grid.
        """
        sig, pq = self.sigma, self.pq[p]
        b, mp = float(pq.b_np[0]), self.m[p]
        cssx = self.c[p] * sig * pq.xi_np
        sd_z = np.sqrt(sig ** 2 * pq.omega_np[0, 0])
        s, w, trunc = self._s_grid(n_panels, breaks=[abs(mp + b * u) / cssx])
        wt = w * self._tail_products(s)[p]
        B = s * cssx
        return (float(np.sum(wt * ray_halfline_prob(mp, b, B, u, sd_z))),
                float(np.sum(wt * ray_halfline_prob(mp, b, B, np.inf, sd_z))), trunc)

    # ---- the scale integral folded into the selection scalar ----
    def _swapped_rule(self, p: int, u: np.ndarray, n_panels: int):
        """x-nodes and weights of the order-p term with the integrals swapped.

        With W = b_p'z + sigma zeta_p e (e standard normal, independent of
        z), 1 - Delta(sigma zeta_p, m_p + b_p'z, B) = P(|m_p + W| >= B | z).
        Split z = g X + R on X = W / (sigma xi_p), with R ~ N(0, S)
        independent of X.  At scale s the order-p test rejects when
        |X - x0| >= s c_p, x0 = -m_p / (sigma xi_p), so z <= u and the
        rejection hold together for every s up to |X - x0| / c_p, and with
        K_p the scale mass below s (`_scale_mass`) the term is

            int phi(x) K_p(|x - x0| / c_p) P(R <= u - g x) dx,

        and pi(p) is the same integral without the orthant.  Returns (x,
        wk, g, S, L, error): the `selection_rule` of K_p with edges at the
        `_STEP_Q` quantiles of the ratio density and at the
        `conditional_kinks`, the split (g, S, L) with S = L L', and the
        truncated scale and x mass.
        """
        pq, sig = self.pq[p], self.sigma
        sw = sig * pq.xi_np
        g, S, L = condition_on_scalar(sig ** 2 * pq.omega_np, sig ** 2 * pq.C_np, sw ** 2)
        K, trunc = self._scale_mass(p, n_panels)
        x, wk, dropped = selection_rule(-self.m[p] / sw, self.c[p], K, self.s_step,
                                        conditional_kinks(u, g, L), n_panels)
        return x, wk, g, S, L, trunc + dropped

    def _term_orthant(self, p: int, u: np.ndarray, n_panels: int):
        """(value, pi_value, error) of the order-p term for k <= 3:
        `_swapped_rule` against the conditional orthant of `orthant_rows`."""
        x, wk, g, S, L, err = self._swapped_rule(p, u, n_panels)
        cond = orthant_rows(u[None, :] - np.outer(x, g), S, L, n_panels)
        # orthant_rows drops the mass below -TAIL_CUT in its own coordinate
        return float(wk @ cond), float(np.sum(wk)), err + float(ndtr(-TAIL_CUT))

    def _term_sampled(self, p: int, u: np.ndarray, n_panels: int):
        """(value, pi_value, error, raw se) of the order-p term for k >= 4:
        `_swapped_rule` against `sampled_rule` on the draws R = z - g X of
        `_z_sample`, so no draw carries the scale integral."""
        x, wk, g, S, L, err = self._swapped_rule(p, u, n_panels)
        z, a = self._z_sample(p)
        R = z - np.outer((a - self.m[p]) / (self.sigma * self.pq[p].xi_np), g)
        val, se = sampled_rule(x, wk, g, u, R)
        return val, float(np.sum(wk)), err, se

    # ---- one full assembly at a given refinement level, for `refine` ----
    def assemble(self, level: int):
        n_panels = PANELS * (2 ** level)
        P, O = self.problem.P, self.problem.O
        t = self.query.t

        s, w, trunc = self._s_grid(n_panels)
        tail = self._tail_products(s)
        orders = list(range(O, P + 1))
        terms = np.zeros(len(orders))
        pis = np.zeros(len(orders))
        err = trunc
        se_total = 0.0

        u0 = t - self.shift[O]
        core, core_se = self._core_orthant(u0)
        w_tail = float(np.sum(w * tail[O]))
        terms[0] = core * w_tail
        pis[0] = w_tail
        se_total += core_se * w_tail

        for i, p in enumerate(range(O + 1, P + 1), start=1):
            u = t - self.shift[p]
            if self.k == 1 and self.pq[p].zeta_np <= _ZERO_SD_REL * self.pq[p].xi_np:
                terms[i], pis[i], e = self._term_k1(p, float(u[0]), n_panels)
            elif self.k <= 3:
                terms[i], pis[i], e = self._term_orthant(p, u, n_panels)
            else:
                terms[i], pis[i], e, se = self._term_sampled(p, u, n_panels)
                # no draw may hit a rare region: the SE is an estimate too
                se_total += max(se, 1.0 / self.budget.n_z)
            err += e
        return (terms, pis, err, se_total, np.array(orders)), float(np.sum(terms)), True

    def evaluate(self):
        b = self.budget
        (terms, pis, err, se_total, orders), gap, level = refine(self.assemble, b.tol)
        total, refine_gap = float(np.sum(terms)), float(gap)
        pi_defect = abs(1.0 - float(np.sum(pis)))
        abs_error = refine_gap + err + pi_defect + 3.0 * se_total
        if refine_gap >= 0.5 * b.tol:
            warning = "refinement budget exhausted before reaching tol"
        else:
            warning = budget_warning(abs_error, b)
        return terms, pis, orders, total, abs_error, level, warning

    def method_string(self, level: int) -> str:
        b = self.budget
        return (f"mixture-formula;s_panels={PANELS * 2 ** level};"
                f"nodes={NODES_PER_PANEL};levels={level};"
                f"n_z={b.n_z};seed={b.seed};k={self.k}")


def cdf_exact(problem: RegressionProblem, query: CdfQuery,
              budget: AccuracyBudget | None = None) -> CdfResult:
    """Finite-sample cdf of sqrt(n) A (theta_tilde - theta) at query.t.

    The design, sample size and protected order come from ``problem``; the
    parameter point (theta, sigma), target matrix, argument and rule come
    from ``query`` (the problem's own theta/sigma are ignored, which makes
    parameter sweeps cheap).  See the module docstring for the evaluation
    strategy and error accounting.
    """
    budget = budget or AccuracyBudget()
    engine = _ExactEngine(problem, query, budget)
    terms, pis, orders, total, abs_error, level, warning = engine.evaluate()
    clamped = not (0.0 <= total <= 1.0)
    value = float(np.clip(total, 0.0, 1.0))
    return CdfResult(value=value, abs_error=float(abs_error),
                     method=engine.method_string(level),
                     clamped=clamped, warning=warning)


def cdf_exact_decomposed(problem: RegressionProblem, query: CdfQuery,
                         budget: AccuracyBudget | None = None) -> DecomposedCdf:
    """Per-order split of the exact cdf: (G(t|p), pi(p)) with Sum G*pi = G(t)."""
    budget = budget or AccuracyBudget()
    engine = _ExactEngine(problem, query, budget)
    terms, pis, orders, total, abs_error, level, warning = engine.evaluate()
    conditional = np.clip(np.divide(terms, pis, out=np.zeros_like(terms),
                                    where=pis > 0), 0.0, 1.0)
    return DecomposedCdf(orders=tuple(int(p) for p in orders),
                         conditional=conditional, weights=pis,
                         total=float(np.clip(total, 0.0, 1.0)),
                         abs_error=float(abs_error),
                         method=engine.method_string(level))
