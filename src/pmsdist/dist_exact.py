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

Every order-p integrand depends on z only through the orthant {z <= u}
and the scalar W = b'z + sigma zeta e that the order-p test rejects on,
so z is conditioned once per order on X = W / sd(W): z = g X + R, with R
of conditional rank r.  The test rejects at scale s when
|X - x0| >= s c_p, and r alone picks how the term is evaluated.  At
r = 0 (z = g X) the orthant is an x-interval, and the term is its mass
outside the two rays at each node of the level's one scale grid, in
closed form; the grid has an edge wherever a ray crosses an interval
end.  Otherwise the test rejects at every scale up to |X - x0| / c_p, so
the scale integral becomes a cumulative scale mass read at each X node,
and the term integrates it against phi(X) times the conditional orthant
probability on Gauss-Legendre panels in X.  Their edges bracket the
kinks of that probability and the near-step the scale mass becomes at
large dof.  The conditional orthant is a rank-1 interval, a bivariate
normal cdf (k = 2) or, for k = 3, one more conditioning step onto a
rank-1 interval or a bivariate normal cdf; only at k >= 4 with r >= 2
is it estimated, from seeded Gaussian draws of R = z - g X integrated
exactly over X (`_gauss.conditional_rows`), so no draw carries the
scale integral.  pi(p) is each term without the orthant.  The order-O
orthant is `_gauss.gaussian_rect`, sampled only at k >= 4 and rank >= 3.
Every cdf evaluator of the package, these and the limit ones of
`dist_limit`, forms its result the same way: per-order parts in a
`TermTrace` (pi(p) G(t | p), pi(p), error bounds and three sampling
standard errors, each at least 1/n_z), refined by `_gauss.refine`, and
`cdf_result`, the one error budget: refinement gap, truncated mass, the
defect of sum pi(p) from 1, sampling error and a 1e-14 rounding floor.
Identical query + budget + seed replays bit-identically.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincinv, gammaln, ndtr, xlogy

from ._gauss import (
    NODES_PER_PANEL,
    PANELS,
    condition_on_scalar,
    conditional_rows,
    cumulative_rule,
    gauss_draws,
    gaussian_rect,
    gl_panels,
    needs_sampling,
    philox,
    rank1_bounds,
    ray_interval_prob,
    refine,
)
from .errors import ValidationError, cdf_argument
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
    "TermTrace",
    "delta",
    "cdf_exact",
    "cdf_result",
]

# The scale grid: equal-mass panels of the ratio density between these
# quantiles; the mass outside them is reported as truncation error.
_S_Q_LO, _S_Q_HI = 1e-12, 1.0 - 1e-10
_S_TRUNC = _S_Q_LO + (1.0 - _S_Q_HI)
# Ratio-density quantiles whose scales x0 +/- c_p s become x-edges of the
# `selection_rule`: at large dof K_p(|x - x0| / c_p) is a near-step, and
# these edges bracket it.
_STEP_Q = (1e-6, 0.5, 1.0 - 1e-6)
# Rounding floor of every cdf error bound: the accuracy of `bvn_cdf`
_ROUNDING = 1e-14


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


@dataclass(frozen=True)
class AccuracyBudget:
    """Accuracy settings for the cdf evaluators: three fields.

    tol is the absolute quadrature target; `_gauss.refine` doubles panel
    counts (`_gauss.PANELS`) until successive totals differ by less than
    tol/2, the sampling error alone exceeds tol, or
    `_gauss.MAX_REFINEMENTS` doublings are spent, and a result whose error
    bound exceeds tol is flagged.  n_z Gaussian samples, keyed by seed
    (both integers), drive the sampled integrals, which remain only for
    targets with k >= 4 rows: orthants of rank >= 2 left after conditioning
    and unconditional ones of rank >= 3, in `cdf_exact` and the limit paths.
    """

    tol: float = 1e-5
    n_z: int = 100_000
    seed: int = 0

    def __post_init__(self):
        integers = all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                       for v in (self.n_z, self.seed))
        if not (integers and self.tol > 0 and self.n_z >= 100 and self.seed >= 0):
            raise ValidationError("invalid accuracy budget")


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
        t = cdf_argument(self.t, k)
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
    term_trace: TermTrace | None = None


@dataclass(frozen=True)
class TermTrace:
    """Per-order breakdown of a cdf value, G(t) = sum_p pi(p) G(t | p).

    For each candidate order in ``orders`` (axis 0 of every array): terms
    pi(p) G(t | p), weights pi(p), errors the term's deterministic error
    bound and sampling its three sampling standard errors.  A batched
    trace has a trailing axis of rows, one per argument t.
    """

    orders: tuple[int, ...]
    terms: np.ndarray
    weights: np.ndarray
    errors: np.ndarray
    sampling: np.ndarray

    @property
    def total(self):
        return self.terms.sum(axis=0)

    @property
    def conditional(self) -> np.ndarray:
        """G(t | p) = terms / weights, clipped to [0, 1]; 0 where pi(p) = 0."""
        ratio = np.divide(self.terms, self.weights, out=np.zeros_like(self.terms),
                          where=self.weights > 0)
        return np.clip(ratio, 0.0, 1.0)

    def row(self, j: int) -> TermTrace:
        """The trace of row j of a batched trace."""
        return TermTrace(self.orders, self.terms[:, j], self.weights[:, j],
                         self.errors[:, j], self.sampling[:, j])


def cdf_result(trace: TermTrace, gap: float, level: int, budget: AccuracyBudget,
               method) -> CdfResult:
    """The one way a cdf result is formed, from a trace `_gauss.refine` returned.

    The error budget is abs_error = gap + sum(errors) + |1 - sum(weights)|
    + sum(sampling) + the 1e-14 rounding floor, gap being the last
    refinement step.  A gap of at least tol/2 with the sampling error
    within tol means refinement ran out of levels; otherwise any abs_error
    above tol is flagged.  ``method(level)`` names the evaluation.
    """
    total = float(trace.total)
    sampling = float(np.sum(trace.sampling))
    abs_error = (float(gap) + float(np.sum(trace.errors))
                 + abs(1.0 - float(np.sum(trace.weights))) + sampling + _ROUNDING)
    warning = None
    if gap >= 0.5 * budget.tol and sampling <= budget.tol:
        warning = "refinement budget exhausted before reaching tol"
    elif abs_error > budget.tol:
        warning = f"abs_error {abs_error:.2e} exceeds tol {budget.tol:.2e}"
    return CdfResult(value=float(np.clip(total, 0.0, 1.0)), abs_error=abs_error,
                     method=method(level), clamped=not (0.0 <= total <= 1.0),
                     warning=warning, term_trace=trace)


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
        k, sig = self.k, self.sigma
        # the order-O orthant does not involve the scale: one evaluation
        cov0 = sig ** 2 * self.pq[O].omega_np if O else np.zeros((k, k))
        self.core = gaussian_rect(query.t - self.shift[O], cov0,
                                  rng=philox(budget.seed, 10_000), n_samples=budget.n_z)
        # every order p > O conditioned once on its selection scalar
        # X = W / (sigma xi_p): z = g X + R with R ~ N(0, S), S = L L'; a
        # rank-0 order (z = g X) keeps the x-interval of {g X <= u}, x0 and
        # c_p of its two-ray term (`_term_k1`)
        self.split: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self.rank0: dict[int, tuple[float, float, float, float]] = {}
        for p in range(O + 1, P + 1):
            pq, sw = self.pq[p], sig * self.pq[p].xi_np
            g, S, L = condition_on_scalar(sig ** 2 * pq.omega_np, sig ** 2 * pq.C_np, sw ** 2)
            self.split[p] = (g, S, L)
            if L.shape[1] == 0:
                lo, hi = rank1_bounds((query.t - self.shift[p])[None, :], g)
                self.rank0[p] = (float(lo[0]), float(hi[0]), -self.m[p] / sw, float(self.c[p]))
        self._z_cache: dict[int, tuple[np.ndarray]] = {}

    # ---- sampled draws for k >= 4 terms (one draw per order, reused
    # across refinement levels so refinement measures quadrature only) ----
    def _z_sample(self, p: int) -> tuple[np.ndarray]:
        """(R,): n_z draws, keyed by (seed, p), of R = z - g X ~ N(0, S_p),
        the part of z the split of `__init__` leaves after conditioning."""
        if p not in self._z_cache:
            R = gauss_draws(philox(self.budget.seed, p), self.budget.n_z, self.split[p][2])
            self._z_cache[p] = (R,)
        return self._z_cache[p]

    # ---- scale grid ----
    def _s_edges(self, n_panels: int) -> np.ndarray:
        return self.ratio.ppf(np.linspace(_S_Q_LO, _S_Q_HI, n_panels + 1))

    def _s_grid(self, n_panels: int, breaks):
        edges = self._s_edges(n_panels)
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

    # ---- conditional rank 0: two rays in the selection scalar ----
    def _term_k1(self, p: int, s: np.ndarray, wt: np.ndarray):
        """(value, pi_value, error) of a rank-0 order p on the level's scale grid.

        The arm of every order whose z is a multiple g X of its selection
        scalar, for any k (the name predates that; `benchmarks/spans.py`
        traces it).  z <= u holds on an x-interval [lo, hi], and at scale s
        the order-p test rejects outside (x0 - c_p s, x0 + c_p s), so the
        inner expectation is `ray_interval_prob` at every scale node s and
        pi(p) is the same on the whole line.  wt holds the grid weights
        times pdf(s) tail_p(s); the error is the truncated scale mass.
        """
        lo, hi, x0, c = self.rank0[p]
        a, b = x0 - c * s, x0 + c * s
        return (float(np.sum(wt * ray_interval_prob(lo, hi, a, b))),
                float(np.sum(wt * ray_interval_prob(-np.inf, np.inf, a, b))), _S_TRUNC)

    # ---- the scale integral folded into the selection scalar ----
    def _conditional_term(self, p: int, u: np.ndarray, n_panels: int, R=None):
        """(value, pi_value, error, se) of the order-p term with the integrals swapped.

        With W = b_p'z + sigma zeta_p e (e standard normal, independent of
        z), 1 - Delta(sigma zeta_p, m_p + b_p'z, B) = P(|m_p + W| >= B | z).
        Split z = g X + R on X = W / (sigma xi_p), with R ~ N(0, S)
        independent of X.  At scale s the order-p test rejects when
        |X - x0| >= s c_p, x0 = -m_p / (sigma xi_p), so z <= u and the
        rejection hold together for every s up to |X - x0| / c_p, and with
        K_p the scale mass below s (`_scale_mass`) the term is

            int phi(x) K_p(|x - x0| / c_p) P(R <= u - g x) dx,

        and pi(p) is the same integral without the orthant: the
        `conditional_rows` of K_p on the split of `__init__`, with edges at
        the `_STEP_Q` quantiles of the ratio density, against the draws R
        if given.  The error adds the truncated scale mass.
        """
        g, S, L = self.split[p]
        K, trunc = self._scale_mass(p, n_panels)
        vals, pis, errs, ses = conditional_rows(
            u[None, :], g, S, L, -self.m[p] / (self.sigma * self.pq[p].xi_np), self.c[p],
            K, self.s_step, n_panels, R)
        return float(vals[0]), float(pis[0]), trunc + float(errs[0]), float(ses[0])

    def _term_orthant(self, p: int, u: np.ndarray, n_panels: int):
        """(value, pi_value, error) of an order whose orthant is exact."""
        return self._conditional_term(p, u, n_panels)[:3]

    def _term_sampled(self, p: int, u: np.ndarray, n_panels: int):
        """(value, pi_value, error, se) of an order whose conditional orthant
        `needs_sampling`, on the draws of `_z_sample`."""
        return self._conditional_term(p, u, n_panels, self._z_sample(p)[0])

    # ---- one full assembly at a given refinement level, for `refine` ----
    def assemble(self, level: int) -> TermTrace:
        n_panels = PANELS * (2 ** level)
        P, O = self.problem.P, self.problem.O
        t = self.query.t

        # one scale grid, with an edge wherever a ray of a rank-0 order
        # crosses an end of its x-interval
        crossings = [abs(end - x0) / c for lo, hi, x0, c in self.rank0.values()
                     for end in (lo, hi) if np.isfinite(end)]
        s, w, trunc = self._s_grid(n_panels, breaks=crossings)
        tail = self._tail_products(s)
        # terms, weights, errors and sampling errors of orders O..P; the
        # order-O core carries the truncated scale mass
        parts = np.zeros((4, P - O + 1))
        core, core_se = self.core
        w_tail = float(np.sum(w * tail[O]))
        parts[:, 0] = core * w_tail, w_tail, trunc, 3.0 * core_se * w_tail
        for i, p in enumerate(range(O + 1, P + 1), start=1):
            u = t - self.shift[p]
            if p in self.rank0:
                parts[:3, i] = self._term_k1(p, s, w * tail[p])
            elif not needs_sampling(self.k, self.split[p][2].shape[1]):
                parts[:3, i] = self._term_orthant(p, u, n_panels)
            else:
                value, pi, err, se = self._term_sampled(p, u, n_panels)
                parts[:, i] = value, pi, err, 3.0 * se
        return TermTrace(tuple(range(O, P + 1)), *parts)

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
    strategy and error accounting; the result's term_trace carries the
    per-order breakdown.
    """
    budget = budget or AccuracyBudget()
    engine = _ExactEngine(problem, query, budget)
    trace, gap, level = refine(engine.assemble, budget.tol, True)
    return cdf_result(trace, gap, level, budget, engine.method_string)
