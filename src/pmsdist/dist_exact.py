"""Exact finite-sample cdf of the post-selection estimator's scaled error.

Evaluates, for the general-to-specific procedure, the distribution function

    G(t) = P( sqrt(n) A (theta_tilde - theta) <= t ),

through its explicit finite-n formula: a mixture over candidate orders p of
shifted (possibly singular) Gaussian measures, each weighted by products of
normal interval probabilities integrated against the density of the
residual-scale ratio sigma_hat/sigma.

Evaluation strategy
-------------------
G at (t, theta, sigma) is G at (t / sigma, theta / sigma, 1): the engine
divides sigma out where it starts and computes at unit sigma.  The
formula is the limit one of `dist_limit` at Q = X'X/n and drift
gamma = sqrt(n) theta, mixed over sigma_hat/sigma: the engine reads the
design record of X'X/n (`regression_core.projection_quantities`) and the
shifts and drifts of `regression_core.local_shift_constants`, and the
later-stage factors prod_{q > p} Delta_q (`tail_products`, shared with
the limit paths at scale 1) are taken at each scale node.  The outer
scale integral runs over equal-mass Gauss-Kronrod panels of the
chi-based ratio density, truncated where the tail mass drops below 1e-10.
What depends on neither t nor theta is built once and shared by every
later call: the design record once per (problem, target), kept on the
problem (one O(P k^2) record per distinct target, whatever n is) with
each order's conditioning split (`LimitQuantities.split`), and the
scale layout (the grid's edges and the `_STEP_Q` scales) once per (dof,
quantiles), all read-only.  What depends on theta but not on t is built
once per theta as a drift record (`_Drift`), kept beside the design
record in one slot per target (`regression_core.kept_drift`) and keyed
by theta / sigma, the critical values and the layout constants: the
shifts, drifts and ray centres, each order p < P's scale mass, and, from
the record's second call on, the node factors no t moves (pdf(s) and
the later-stage products on the scale grid, phi(x) and the scale mass
at the x-nodes) for every panel a call keeps whole (`_gauss.NodeMemo`).
A call computes only what t moves: u, the order-O orthant, the rank-0
intervals and their crossings, the kinks, the orthant at every x-node,
and the factors of the panels its crossings and kinks split; the panels
`refine` bisects are evaluated afresh and never kept, so the record's
size is fixed by its layouts however many t or theta a sweep visits.
Each kept factor comes from elementwise operations on its own node, and
every sum over nodes is formed per call as before, so a result is the
same bit for bit whether its record was cold or warm.

Every order-p integrand depends on z only through the orthant {z <= u}
and the scalar W = b'z + zeta e that the order-p test rejects on,
so z is conditioned once per order on X = W / sd(W): z = g X + R, with R
of conditional rank r.  The test rejects at scale s when
|X - x0| >= s c_p, and r alone picks how the term is evaluated.  At
r = 0 (z = g X) the orthant is an x-interval, and the term is its mass
outside the two rays at each node of the one scale grid, in closed form;
the grid has an edge wherever a ray crosses an interval end.  Otherwise
the test rejects at every scale up to |X - x0| / c_p, so the scale
integral becomes a cumulative scale mass read at each X node (for the
last order, which no later test follows, the ratio density's own cdf in
closed form; for the others a partial panel of the scale grid), and the
term integrates it against phi(X) times the conditional orthant
probability on Gauss-Kronrod panels in X.  Their edges bracket the
kinks of that probability and the near-step the scale mass becomes at
large dof.  The conditional orthant is a rank-1 interval, a bivariate
normal cdf (k = 2), for r = 2 at any k >= 3 a bivariate normal over a
convex polygon in closed form (differences of Owen's T), or for k = 3
Genz's one-dimensional trivariate normal cdf (r = 3); only at k >= 4
with r >= 3 is it estimated, from seeded Gaussian draws of R = z - g X
integrated exactly over X (`_gauss.conditional_rows`), so no draw
carries the scale integral.  pi(p) is each term without the orthant.
The order-O orthant is `_gauss.gaussian_rect`, sampled only at k >= 4
and unconditional rank >= 4.
Every cdf evaluator of the package, these and the limit ones of
`dist_limit`, forms its result the same way: per-order parts in a
`TermTrace` (pi(p) G(t | p), pi(p), error bounds and three sampling
standard errors, each at least 1/n_z), read from one `_gauss.OrderTerm`
per order, whose K25 panel rules `_gauss.refine` bisects where their
|K25 - G12| estimates are large (here order O and the rank-0 orders share
the scale grid, whose totals are their terms and weights), and
`cdf_result`, the one error budget: the summed estimates, dropped mass,
the defect of sum pi(p) from 1 (which carries the truncated scale mass),
sampling error and a 1e-14 rounding floor.  No bisection reduces the
dropped and truncated mass and the rounding floor, so `refine` stops
below that error floor and `cdf_result` names it in its warning.  The exact cdf's method string
is "mixture-formula;levels=l;n_z=...;seed=...;k=...", l the rounds of
bisection `refine` ran.  Identical query + budget + seed replays
bit-identically.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammainc, gammaincinv, gammaln, ndtr

from ._gauss import (
    ROUNDING,
    NodeMemo,
    OrderTerm,
    Panels,
    ScaleMass,
    conditional_rows,
    cumulative_rule,
    cumulative_sums,
    error_floor,
    gauss_draws,
    gaussian_rect,
    gl_panels,
    layout_constants,
    needs_sampling,
    panel_edges,
    philox,
    rank1_bounds,
    ray_interval_prob,
    refine,
    split_edges,
)
from .errors import ValidationError, cdf_argument, target_matrix
from .regression_core import (
    LimitQuantities,
    RegressionProblem,
    kept_drift,
    local_shift_constants,
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
]

# The scale grid: equal-mass panels of the ratio density between these
# quantiles; the mass outside them is missing from sum pi(p), whose defect
# from 1 `cdf_result` charges, once.
_S_Q_LO, _S_Q_HI = 1e-12, 1.0 - 1e-10
# Ratio-density quantiles whose scales x0 +/- c_p s become x-edges of the
# `conditional_rows` rule: at large dof K_p(|x - x0| / c_p) is a near-step,
# and these edges bracket it.
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
    form: the pdf through its logarithm (gammaln, and (dof - 1) log x taken
    as 0 at dof 1, so that density is finite at s = 0), the cdf through the
    regularized lower incomplete gamma function and the ppf through its
    inverse.  At large dof the log-density is a sum of large terms, so the
    pdf carries their rounding (about 1e-11 of its value at dof 1e5); the
    cdf does not.
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
        # (d - 1) log x is -inf at s = 0 and, at dof 1, 0 everywhere, which
        # keeps that density finite there
        with np.errstate(divide="ignore"):
            xlogx = (d - 1.0) * np.log(x) if d > 1 else 0.0
        log_pdf = (np.log(2) - 0.5 * np.log(2) * d - gammaln(0.5 * d)
                   + xlogx - 0.5 * x ** 2)
        return np.where(s >= 0.0, np.exp(log_pdf) / self._scale, 0.0)[()]

    def ppf(self, q):
        return np.sqrt(2.0 * gammaincinv(0.5 * self.dof, q)) * self._scale

    def cdf(self, s):
        x = np.maximum(np.asarray(s, dtype=float), 0.0) / self._scale
        return gammainc(0.5 * self.dof, 0.5 * x ** 2)


@lru_cache
def _ratio_quantiles(dof: int, q: tuple[float, ...]) -> np.ndarray:
    """The ratio density's ppf at the quantiles q, read-only: the scale
    layout depends on the dof alone, so each is computed once per (dof, q)."""
    out = SigmaRatioDensity(dof).ppf(np.array(q))
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class AccuracyBudget:
    """Accuracy settings for the cdf evaluators: three fields.

    tol is the absolute quadrature target: every panel rule runs one
    Gauss-Kronrod pass, and `_gauss.refine` bisects the panels with large
    |K25 - G12| estimates until the summed estimate is below tol/2 or its
    last round is spent.  It does not bisect once the error floor (the
    dropped and truncated mass and the 1e-14 rounding floor, which no
    bisection reduces) plus the sampling error exceeds tol, so a tol below
    the floor costs one pass.  A result whose error bound exceeds tol is
    flagged.  The method string records the rounds of bisection as
    ``levels=``.  n_z Gaussian
    samples, keyed by seed (both integers), drive the sampled integrals, which remain only for
    targets with k >= 4 rows: orthants of rank >= 3 left after conditioning
    and unconditional ones of rank >= 4, in `cdf_exact` and the limit paths
    (rank 2 is a polygon in closed form).
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
        A = target_matrix(self.A)
        k, P = A.shape
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


def tail_products(dq: LimitQuantities, nu, c_of, p0: int, s=1.0):
    """prod_{q > p} Delta_q for p = p0..P, keyed by p: the later-stage factors.

    Delta_q = delta(xi_q, nu_q, s c_q xi_q) is the probability, at unit
    sigma, that the order-q test does not reject at scale s = sigma_hat /
    sigma, with dq the design record, nu_q the drift and c_q the critical
    value of order q.  s is 1 in the limit and the array of scale nodes of
    the exact cdf, whose shape every product takes.
    """
    P = dq.P
    tail = {P: np.ones_like(s, dtype=float)}
    for p in range(P - 1, p0 - 1, -1):
        q = p + 1
        xi = dq.xi(q)
        tail[p] = tail[q] * delta(xi, nu[q], s * c_of[q] * xi)
    return tail


def cdf_result(trace: TermTrace, gap: float, rounds: int, budget: AccuracyBudget,
               name: str, k: int, truncated: float = 0.0) -> CdfResult:
    """The one way a cdf result is formed, from a trace `_gauss.refine` returned.

    The error budget is abs_error = gap + sum(errors) + |1 - sum(weights)|
    + sum(sampling) + the 1e-14 rounding floor, gap being the summed
    |K25 - G12| estimates of the panel rules.  Its floor, which no
    bisection reduces, is `_gauss.error_floor`: sum(errors), the mass
    ``truncated`` outside every rule and the rounding floor.  A floor
    above tol is flagged as such (`refine` ran no round); a gap of at
    least tol/2 with the floor plus the sampling error within tol means
    refinement ran out of rounds; otherwise any abs_error above tol is
    flagged.  The method string names the evaluation,
    "{name};levels={rounds};n_z=...;seed=...;k={k}", the rounds of
    bisection, which with the budget fix every panel and sample.

    The weights sum to 1 up to quadrature, sampling and any mass the
    evaluation drops.  The exact cdf drops the scale mass outside its
    grid, and nothing else charges it: at each scale the order terms are
    probabilities of disjoint events, so they sum to at most 1, and the
    truncated scale mass bounds the total's truncation error once.
    """
    total = float(trace.total)
    sampling = float(np.sum(trace.sampling))
    floor = float(error_floor(trace, truncated))
    abs_error = (float(gap) + float(np.sum(trace.errors))
                 + abs(1.0 - float(np.sum(trace.weights))) + sampling + ROUNDING)
    warning = None
    if floor > budget.tol:
        warning = (f"tol {budget.tol:.2e} is below the error floor {floor:.2e} "
                   "(dropped and truncated mass and rounding)")
    elif gap >= 0.5 * budget.tol and floor + sampling <= budget.tol:
        warning = "refinement budget exhausted before reaching tol"
    elif abs_error > budget.tol:
        warning = f"abs_error {abs_error:.2e} exceeds tol {budget.tol:.2e}"
    method = f"{name};levels={rounds};n_z={budget.n_z};seed={budget.seed};k={k}"
    return CdfResult(value=float(np.clip(total, 0.0, 1.0)), abs_error=abs_error,
                     method=method, clamped=not (0.0 <= total <= 1.0),
                     warning=warning, term_trace=trace)


class _Drift:
    """The t-free half of the exact cdf at one (design record, theta/sigma,
    critical values): what `_ExactEngine` builds once per theta and reads
    at every t, kept beside the design record (`kept_drift`).

    Holds the scale layout it was built on (`_ratio_quantiles`, shared per
    dof), the orthant shifts, the drifts nu_p and the ray centres x0_p =
    -nu_p / xi_p; each order p < P's scale mass K_p as its full-panel sums
    (``mass``, made on first use); and `NodeMemo`s of the factors no t
    moves: at the scale grid's nodes (``grid``: the ratio density pdf(s),
    tail_q(s) for q = O..P and each rank-0 order's pi integrand), and at
    each conditional order's x-rule nodes (``rules``: phi(x) and the rows
    of its scale mass), filled from the record's second call on
    (``served``).  Arrays and numbers only, so a problem carrying it
    pickles.
    """

    def __init__(self, problem: RegressionProblem, dq: LimitQuantities, A: np.ndarray,
                 theta: np.ndarray):
        P, O = problem.P, problem.O
        # the scale layout: the x-edge scales and the scale grid's edges
        self.s_step = _ratio_quantiles(problem.dof, _STEP_Q)
        s_edges = _ratio_quantiles(problem.dof, tuple(panel_edges(_S_Q_LO, _S_Q_HI).tolist()))
        # at unit sigma, the limit formula's constants at Q = X'X/n and
        # gamma = sqrt(n) theta: orthant shifts sqrt(n) A (eta(p) - theta)
        # and drifts sqrt(n) eta_p(p), eta(p) the mean of the order-p
        # restricted estimator
        consts = local_shift_constants(problem.gram, A, np.zeros(P), np.sqrt(problem.n) * theta, O)
        self.shift, self.nu = consts.beta, consts.nu
        for v in self.shift.values():
            v.setflags(write=False)
        self.x0 = {p: -self.nu[p] / dq.xi(p) for p in range(O + 1, P + 1)}
        # the orders of conditional rank 0, whose pi integrands are grid rows
        self.rays = [p for p in self.x0 if dq.split(p)[2].shape[1] == 0]
        self.mass: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.grid = NodeMemo(s_edges)
        self.rules = {p: NodeMemo() for p in self.x0 if p not in self.rays}
        self.served = False


class _ExactEngine:
    """Assembles the finite-n mixture formula for one (problem, query) pair."""

    def __init__(self, problem: RegressionProblem, query: CdfQuery, budget: AccuracyBudget):
        if query.A.shape[1] != problem.P:
            raise ValidationError("query A width does not match problem dimension")
        query.rule.validate_for(problem.P, problem.O)
        self.problem = problem
        self.budget = budget
        P, O = problem.P, problem.O
        self.k = query.A.shape[0]
        self.ratio = SigmaRatioDensity(problem.dof)
        # the scale mass outside the grid, part of the error floor
        self.truncated = _S_Q_LO + (1.0 - _S_Q_HI)
        # at unit sigma (t and theta over sigma): the design record, and the
        # drift record of theta / sigma kept beside it, keyed by everything
        # it is built from that a call may change
        self.u = query.t / query.sigma
        self.design = dq = projection_quantities(problem, query.A)
        self.c = query.rule.critical_values(O)
        theta = query.theta / query.sigma
        key = (theta.tobytes(), self.c.tobytes(), _S_Q_LO, _S_Q_HI, _STEP_Q, layout_constants())
        self.drift = kept_drift(problem, query.A, key,
                                lambda: _Drift(problem, dq, query.A, theta))
        self.shift, self.nu = self.drift.shift, self.drift.nu
        self.s_step, self._s_edges = self.drift.s_step, self.drift.grid.edges
        # the node factors are kept from a drift record's second call on, so
        # a sweep that visits each theta once never pays for keeping them
        self.keep, self.drift.served = self.drift.served, True
        # the order-O orthant does not involve the scale: one evaluation,
        # which can sample only at k >= 4
        rng = philox(budget.seed, 10_000) if self.k >= 4 else None
        self.core = gaussian_rect(self.u - self.shift[O], dq.omega(O),
                                  rng=rng, n_samples=budget.n_z)
        # every order p > O split once on its selection scalar X = W / xi_p
        # (`LimitQuantities.split`): z = g X + R with R ~ N(0, S), S = L L';
        # a rank-0 order (z = g X) keeps the x-interval of {g X <= u}, x0
        # and c_p of its two-ray term (`_term_k1`)
        self.split = {p: dq.split(p) for p in range(O + 1, P + 1)}
        self.rank0: dict[int, tuple[float, float, float, float]] = {}
        for p, (g, _, L) in self.split.items():
            if L.shape[1] == 0:
                lo, hi = rank1_bounds((self.u - self.shift[p])[None, :], g)
                self.rank0[p] = (float(lo[0]), float(hi[0]), self.drift.x0[p], float(self.c[p]))
        self._z_cache: dict[int, tuple[np.ndarray]] = {}
        self._grid: Panels | None = None
        self._orders: dict[int, OrderTerm] = {}

    # ---- sampled draws for k >= 4 terms (one draw per order, shared by
    # every bisection so refinement measures quadrature only) ----
    def _z_sample(self, p: int) -> tuple[np.ndarray]:
        """(R,): n_z draws, keyed by (seed, p), of R = z - g X ~ N(0, S_p),
        the part of z the split of `__init__` leaves after conditioning."""
        if p not in self._z_cache:
            R = gauss_draws(philox(self.budget.seed, p), self.budget.n_z, self.split[p][2])
            self._z_cache[p] = (R,)
        return self._z_cache[p]

    # ---- scale grid ----
    def _grid_factors(self, s: np.ndarray) -> np.ndarray:
        """The scale grid's t-free rows at the nodes s: pdf(s), tail_q(s)
        for q = O..P, then the pi integrand pdf(s) tail_p(s) P(X outside its
        rays) of each order of conditional rank 0."""
        O = self.problem.O
        pdf = self.ratio.pdf(s)
        tail = tail_products(self.design, self.nu, self.c, O, s)
        rows = [pdf, *(tail[q] for q in range(O, self.problem.P + 1))]
        for p in self.drift.rays:
            x0, c = self.drift.x0[p], float(self.c[p])
            rows.append(pdf * tail[p] * ray_interval_prob(-np.inf, np.inf, x0 - c * s, x0 + c * s))
        return np.array(rows)

    def _s_grid(self) -> Panels:
        """The one scale grid's `Panels`: components the core's term and each
        rank-0 order's (`_term_k1`), then their weights, with an edge
        wherever a ray of a rank-0 order crosses an end of its x-interval;
        its t-free factors (`_grid_factors`) are kept on the drift record."""
        O, P, core = self.problem.O, self.problem.P, self.core[0]
        crossings = [abs(end - x0) / c for lo, hi, x0, c in self.rank0.values()
                     for end in (lo, hi) if np.isfinite(end)]

        pi_row = {p: P - O + 2 + i for i, p in enumerate(self.drift.rays)}

        def f(s, a):
            pdf, tail = a[0], a[1:P - O + 2]
            terms = [(core * pdf * tail[0], pdf * tail[0])]
            terms += [(self._term_k1(p, s, pdf * tail[p - O]), a[pi_row[p]]) for p in self.rank0]
            parts = np.array([v for v, _ in terms] + [w for _, w in terms])
            return parts, parts

        return Panels(f, split_edges(self._s_edges, crossings), self._grid_factors,
                      self.drift.grid if self.keep else None)

    def _scale_mass(self, p: int) -> ScaleMass:
        """K(y), the integral of pdf(s) tail_p(s) over the scale grid's
        s <= y, as its K25 and G12 parts.

        The last order P has no later stage (tail_P = 1), so its K is the
        ratio density's own cdf F, in closed form: F(min(y, s_hi)) - F(s_lo)
        above the grid's first edge s_lo and 0 at and below it, s_hi its last
        edge, both parts the same array.  Every other order reads K through
        `cumulative_rule` on `_s_edges`, whose full-panel sums are made once
        per drift record from its grid factors, so it costs one partial
        panel of pdf(s) tail_p(s) per argument.
        """
        if p == self.problem.P:
            cdf, s_lo, s_hi = self.ratio.cdf, self._s_edges[0], self._s_edges[-1]
            below = cdf(s_lo)
            return ScaleMass(lambda y: np.where(y > s_lo, cdf(np.minimum(y, s_hi)) - below,
                                                0.0)[None])

        edges = self._s_edges
        cum = self.drift.mass.get(p)
        if cum is None:
            a = self._grid_factors(gl_panels(edges)[0])
            cum = self.drift.mass[p] = cumulative_sums(a[0] * a[1 + p - self.problem.O], edges)

        def f(s):
            tail = tail_products(self.design, self.nu, self.c, p, s)
            return self.ratio.pdf(s) * tail[p]

        return cumulative_rule(f, edges, cum)

    # ---- conditional rank 0: two rays in the selection scalar ----
    def _term_k1(self, p: int, s: np.ndarray, wt: np.ndarray) -> np.ndarray:
        """The value integrand of a rank-0 order p at the scale nodes s.

        The arm of every order whose z is a multiple g X of its selection
        scalar, for any k (the name predates that; `benchmarks/spans.py`
        traces it).  z <= u holds on an x-interval [lo, hi], and at scale s
        the order-p test rejects outside (x0 - c_p s, x0 + c_p s), so the
        inner expectation is `ray_interval_prob` at every scale node s.
        wt holds pdf(s) tail_p(s).  The pi integrand, the same on the whole
        line, does not depend on t: it is a row of `_grid_factors`.
        """
        lo, hi, x0, c = self.rank0[p]
        return wt * ray_interval_prob(lo, hi, x0 - c * s, x0 + c * s)

    # ---- the scale integral folded into the selection scalar ----
    def _conditional_term(self, p: int, R=None) -> OrderTerm:
        """The `OrderTerm` of order p, one row, with the integrals swapped.

        At unit sigma, with W = b_p'z + zeta_p e (e standard normal,
        independent of z) and B = s c_p xi_p, 1 - Delta(zeta_p, nu_p + b_p'z,
        B) = P(|nu_p + W| >= B | z).  Split z = g X + R on X = W / xi_p,
        with R ~ N(0, S) independent of X.  At scale s the order-p test
        rejects when |X - x0| >= s c_p, x0 = -nu_p / xi_p, so z <= u and
        the rejection hold together for every s up to |X - x0| / c_p, and with
        K_p the scale mass below s (`_scale_mass`) the term is

            int phi(x) K_p(|x - x0| / c_p) P(R <= u - g x) dx,

        and pi(p) is the same integral without the orthant, at u = t / sigma
        - shift_p: the order's `conditional_rows` rule on the split of
        `__init__`, with edges at the `_STEP_Q` quantiles of the ratio
        density, against the draws R if given.  Its panels' totals are the
        term and pi(p), its error the dropped x-mass.
        """
        g, S, L = self.split[p]
        return conditional_rows((self.u - self.shift[p])[None, :], g, S, L, self.drift.x0[p],
                                self.c[p], self.s_step, self._scale_mass(p), R,
                                self.drift.rules.get(p) if self.keep else None)

    def _term_sampled(self, p: int) -> OrderTerm:
        """The `OrderTerm` of an order whose conditional orthant
        `needs_sampling`, on the draws of `_z_sample`."""
        return self._conditional_term(p, self._z_sample(p)[0])

    # ---- the rules, built once, and the trace `refine` reads from them ----
    def panels(self) -> list[Panels]:
        """Every panel rule of the cdf: the scale grid and one per order of
        conditional rank >= 1, made on first use."""
        if self._grid is None:
            self._grid = self._s_grid()
            for p in range(self.problem.O + 1, self.problem.P + 1):
                if p in self.rank0:
                    continue
                sampled = needs_sampling(self.k, self.split[p][2].shape[1])
                self._orders[p] = self._term_sampled(p) if sampled else self._conditional_term(p)
        return [self._grid, *(term.panels[0] for term in self._orders.values())]

    def assemble(self) -> TermTrace:
        """The trace of the rules' current sums: the scale grid's terms and
        weights of order O and the rank-0 orders, and each other order's
        `OrderTerm` parts."""
        O = self.problem.O
        self.panels()
        terms, weights = self._grid.total.reshape(2, -1)
        # the core's sampling error scales with its weight, a grid total
        parts = {O: [terms[0], weights[0], 0.0, 3.0 * self.core[1] * weights[0]]}
        parts.update((p, [terms[i], weights[i], 0.0, 0.0]) for i, p in enumerate(self.rank0, 1))
        parts.update((p, term.parts()[:, 0]) for p, term in self._orders.items())
        orders = sorted(parts)
        return TermTrace(tuple(orders), *np.array([parts[p] for p in orders]).T)


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
    trace, gaps, rounds = refine(engine.assemble, [[p] for p in engine.panels()], budget.tol,
                                 engine.truncated)
    return cdf_result(trace, gaps[0], rounds, budget, "mixture-formula", engine.k,
                      engine.truncated)
