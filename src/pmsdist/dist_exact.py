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
design record of X'X/n (`regression_core.projection_quantities`), and
the later-stage factors prod_{q > p} Delta_q (`tail_products`, shared
with the limit paths at scale 1) are taken at each scale node.  The
scale integral runs over equal-mass Gauss-Kronrod panels of the
chi-based ratio density, truncated where the tail mass drops below 1e-10.
A call evaluates one query (`cdf_exact`) or rows of queries that agree
on A, t, sigma and rule and differ in theta alone (`cdf_exact_rows`,
whose one-row call `cdf_exact` is, so there is one assembly).  Built
once and shared by every later call, all read-only: the design record
per content (X'X/n, target, O), shared by every problem that holds it,
the same design at another n included, with each order's conditioned
orthant (`LimitQuantities.orthant`) and the drift maps
(`LimitQuantities.drift_maps`, the shifts and drifts of
`regression_core.local_shift_constants`, linear in gamma); and the
scale layout (the grid's edges, its nodes s and pdf(s), the `_STEP_Q`
scales) per (dof, quantiles, layout constants).  Built once per call
for all its rows, in the design record's one drift slot keyed by n,
the rows' theta / sigma, the critical values and the layout constants: the
drift record (`_Drift`), so cold rows compute only that record: the
shifts, drifts and ray centres (one product each with the drift maps),
the later-stage products at the layout's nodes for every row in one
pass, and from them every row's scale tables, cumulative sums on the
grid's edges, from one `cumulative_sums` call; its `_gauss.NodeMemo` per
x-rule and row stores nothing on its first read, so a theta a sweep
visits once pays nothing for it.  No call builds a scale grid: order
O's term is its orthant times a table total, a rank-0 order's a few
partial-panel reads of its tables, found for every row's crossings in
one search.  Built per row: what t moves, u against the row's shifts:
the order-O orthant, the rank-0 reads closed on the row's tables, the
kinks (on the kept normals), an x-rule about the row's own ray centre
with the orthant at every x-node (on the kept kernel) and the panels
its kinks split, the row's rounds of bisection and its `cdf_result`.
The panels `refine` bisects are evaluated afresh and never kept, so a
record's size is fixed however many t or theta a sweep visits.  Each
kept factor is elementwise in its node and each table made once from
them, and each row's products and panel sums are formed as a one-row
call forms them, so a result is the same bit for bit from a cold or a
warm record, and as a row or alone.

Every order-p integrand depends on z only through the orthant {z <= u}
and the scalar W = b'z + zeta e that the order-p test rejects on,
so z is conditioned once per order on X = W / sd(W): z = g X + R, with R
of conditional rank r.  The test rejects at scale s when
|X - x0| >= s c_p, and r alone picks how the term is evaluated.  At
r = 0 (z = g X) the orthant is an x-interval, and the term, its mass
outside the two rays integrated over the scale, is read off the tables
at the scales where a ray crosses an end (`_ExactEngine._term_k1`).
Otherwise the test rejects at every scale up to |X - x0| / c_p, so the
scale integral becomes a cumulative scale mass read at each X node (for the
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
The order-O orthant is `_gauss.gaussian_rect` on the design record's
kept factor of omega(O), sampled only at k >= 4 and unconditional rank
>= 4.
Every cdf evaluator of the package, these and the limit ones of
`dist_limit`, forms its result the same way: per-order parts in a
`TermTrace` (pi(p) G(t | p), pi(p), error bounds and three sampling
standard errors, each at least 1/n_z), read from one `_gauss.OrderTerm`
per order, whose K25 panel rules `_gauss.refine` bisects where their
|K25 - G12| estimates are large (order O and the rank-0 orders have no
rule; their table reads' |K25 - G12| joins the estimates), and
`cdf_result`, the one error budget: the summed estimates, dropped mass,
the defect of sum pi(p) from 1 (which carries the truncated scale mass),
sampling error and a 1e-14 rounding floor.  No bisection reduces the
dropped and truncated mass and the rounding floor, so `refine` stops
below that error floor and `cdf_result` names it in its warning.  The
method string "mixture-formula;levels=l;n_z=...;seed=...;k=..." records
l, the rounds of bisection `refine` ran on the row.  Identical query +
budget + seed replays bit-identically.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammainc, gammaincinv, gammaln, ndtr

from ._gauss import (
    ROUNDING,
    NodeMemo,
    OrderTerm,
    Panels,
    close_partial,
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
    partial_panels,
    philox,
    refine,
)
from .errors import ValidationError, cdf_argument, target_matrix
from .regression_core import (
    LimitQuantities,
    RegressionProblem,
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
    "cdf_exact_rows",
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
    form: the cdf through the regularized lower incomplete gamma function,
    the ppf through its inverse, and the pdf as log pdf(s) = c - log s -
    a (u - log(1 + u)), a = dof / 2 and u = s^2 - 1, with c = `_log_norm`:
    no large terms cancel, and the rounding of log1p(u), times a, is what
    remains (1.6e-13 of the value at dof 99,998).  log(1 + u) is 2 log s
    below s = 1/2; at dof 1 the log s terms cancel, and that density is
    finite at s = 0.
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
        x = np.maximum(s, 1e-300)   # s <= 0 is set to 0 below
        u = (x - 1.0) * (x + 1.0)
        if self.dof == 1:
            return np.where(s >= 0.0, np.exp(_log_norm(1) - 0.5 * u), 0.0)[()]
        log_x = np.log(x)
        log_x2 = np.where(x < 0.5, 2.0 * log_x, np.log1p(np.maximum(u, -0.75)))
        log_pdf = _log_norm(self.dof) - 0.5 * self.dof * (u - log_x2) - log_x
        return np.where(s > 0.0, np.exp(log_pdf), 0.0)[()]

    def ppf(self, q):
        return np.sqrt(2.0 * gammaincinv(0.5 * self.dof, q)) * self._scale

    def cdf(self, s):
        x = np.maximum(np.asarray(s, dtype=float), 0.0) / self._scale
        return gammainc(0.5 * self.dof, 0.5 * x ** 2)


@lru_cache
def _log_norm(dof: int) -> float:
    """log 2 + a log a - a - log Gamma(a), a = dof / 2, the ratio density's
    log-norm: from a = 15 on, log 2 + log(a / 2 pi) / 2 less the Stirling
    series of log Gamma(a), whose large terms it leaves out."""
    a = 0.5 * dof
    if a < 15.0:
        return float(np.log(2.0) + a * np.log(a) - a - gammaln(a))
    b = 1.0 / (a * a)
    stirling = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - b / 1188) * b) * b) * b) / a
    return float(np.log(2.0) + 0.5 * np.log(a / (2.0 * np.pi)) - stirling)


@lru_cache
def _ratio_quantiles(dof: int, q: tuple[float, ...]) -> np.ndarray:
    """The ratio density's ppf at the quantiles q, read-only: the scale
    layout depends on the dof alone, so each is computed once per (dof, q)."""
    out = SigmaRatioDensity(dof).ppf(np.array(q))
    out.setflags(write=False)
    return out


@lru_cache
def _scale_layout(dof: int, lo: float, hi: float, layout: tuple):
    """The scale grid at ``dof``, read-only: its edges (`_ratio_quantiles`
    at the `panel_edges` of [lo, hi], per ``layout``), K25 nodes s and pdf(s)."""
    edges = _ratio_quantiles(dof, tuple(panel_edges(lo, hi).tolist()))
    s = gl_panels(edges)[0]
    pdf = SigmaRatioDensity(dof).pdf(s)
    s.setflags(write=False)
    pdf.setflags(write=False)
    return edges, s, pdf


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


def tail_products(dq: LimitQuantities, nu, c_of, p0: int, s=1.0, cdfs=None):
    """prod_{q > p} Delta_q for p = p0..P, keyed by p: the later-stage factors.

    Delta_q = delta(xi_q, nu_q, s c_q xi_q) is the probability, at unit
    sigma, that the order-q test does not reject at scale s = sigma_hat /
    sigma, with dq the design record, nu_q the drift and c_q the critical
    value of order q, here Phi(s c_q - x) - Phi(-s c_q - x) >= 0 with x =
    nu_q / xi_q.  s is 1 in the limit and the array of scale nodes of the
    exact cdf, whose shape every product takes.  A dict ``cdfs`` receives
    each q's two normal cdfs, (Phi(-s c_q - x), Phi(s c_q - x)).
    """
    P = dq.P
    tail = {P: np.ones_like(s, dtype=float)}
    cdfs = {} if cdfs is None else cdfs
    for p in range(P - 1, p0 - 1, -1):
        q = p + 1
        x, sc = nu[q] / dq.xi(q), s * c_of[q]
        lo, hi = cdfs[q] = ndtr(-sc - x), ndtr(sc - x)
        tail[p] = tail[q] * np.maximum(hi - lo, 0.0)
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
    sampling = float(trace.sampling.sum())
    floor = float(error_floor(trace, truncated))
    abs_error = (float(gap) + float(trace.errors.sum())
                 + abs(1.0 - float(trace.weights.sum())) + sampling + ROUNDING)
    warning = None
    if floor > budget.tol:
        warning = (f"tol {budget.tol:.2e} is below the error floor {floor:.2e} "
                   "(dropped and truncated mass and rounding)")
    elif gap >= 0.5 * budget.tol and floor + sampling <= budget.tol:
        warning = "refinement budget exhausted before reaching tol"
    elif abs_error > budget.tol:
        warning = f"abs_error {abs_error:.2e} exceeds tol {budget.tol:.2e}"
    method = f"{name};levels={rounds};n_z={budget.n_z};seed={budget.seed};k={k}"
    clamped = not 0.0 <= total <= 1.0
    return CdfResult(value=float(np.clip(total, 0.0, 1.0)) if clamped else total,
                     abs_error=abs_error, method=method, clamped=clamped,
                     warning=warning, term_trace=trace)


class _Drift:
    """The t-free half of the exact cdf at one (design record, n, rows of
    theta/sigma, critical values): what `_ExactEngine` builds once per set
    of rows and reads at every t, kept in the design record's drift slot
    (`LimitQuantities.drift`).

    Holds the ratio density and the scale layout it was built on
    (`_ratio_quantiles` and `_scale_layout`, shared per dof and layout);
    per order the rows' orthant shifts (m, k), drifts nu_p (the design
    record's `drift_maps` times each row's gamma, no solve) and ray
    centres x0_p = -nu_p / xi_p (m,), with the orders of conditional rank
    0 (``rays``); the scale tables (``mass``: per order a read-only (K25,
    G12) array of `cumulative_sums` rows, (2, m, rows, edges), from one
    evaluation of the tail products at the layout's nodes for every row)
    of order O's weight pdf(s) tail_O(s), each order p < P's scale mass
    w(s) = pdf(s) tail_p(s), and for a rank-0 order also w(s) Phi(x0_p
    -/+ c_p s) and its pi integrand pdf(s) (tail_p(s) - tail_{p-1}(s));
    and a `NodeMemo` per x-rule, keyed by (order, row) (``rules``).
    Arrays and numbers only, so a problem carrying it pickles.
    """

    def __init__(self, problem: RegressionProblem, dq: LimitQuantities, thetas, c):
        P, O, m = problem.P, problem.O, len(thetas)
        self.ratio = SigmaRatioDensity(problem.dof)
        self.s_step = _ratio_quantiles(problem.dof, _STEP_Q)
        self.edges, s, pdf = _scale_layout(problem.dof, _S_Q_LO, _S_Q_HI, layout_constants())
        # at unit sigma, the limit formula's constants at Q = X'X/n and
        # gamma = sqrt(n) theta: orthant shifts sqrt(n) A (eta(p) - theta)
        # and drifts sqrt(n) eta_p(p), eta(p) the mean of the order-p
        # restricted estimator.  Each row's gamma is a one-column matrix,
        # so every row is the matrix-vector product of a one-row call (a
        # product with the gammas as the columns of one matrix rounds
        # differently)
        B, N = dq.drift_maps
        gammas = (np.sqrt(problem.n) * thetas)[:, :, None]
        shift = (B @ gammas[:, None])[..., 0]
        nu = (N @ gammas)[..., 0]
        shift.setflags(write=False)
        nu.setflags(write=False)
        self.shift = {p: shift[:, p - O] for p in range(O, P + 1)}
        self.nu = {p: nu[:, p - O - 1] for p in range(O + 1, P + 1)}
        self.x0 = {p: -v / dq.xi(p) for p, v in self.nu.items()}
        self.rays = [p for p in self.x0 if dq.orthant(p).r == 0]
        self.rules = {(p, j): NodeMemo() for p in self.x0 if p not in self.rays
                      for j in range(m)}
        # Phi(x0_p -/+ c_p s), the two cdfs of each Delta_p, a row per theta
        tail = tail_products(dq, {p: v[:, None] for p, v in self.nu.items()}, c, O, s,
                             cdfs := {})
        rows = {O: [pdf * tail[O]]}
        for p in self.x0:
            w = pdf * tail[p]
            if p in self.rays:
                rows[p] = [w, w * cdfs[p][0], w * cdfs[p][1], pdf * (tail[p] - tail[p - 1])]
            elif p < P:
                rows[p] = [w]
        fx = np.empty((m, sum(map(len, rows.values())), s.size))
        for i, r in enumerate(r for v in rows.values() for r in v):
            fx[:, i] = r
        tables = cumulative_sums(fx, self.edges)
        tables.setflags(write=False)
        ends = itertools.accumulate(map(len, rows.values()))
        self.mass = {p: tables[:, :, end - len(v):end] for (p, v), end in zip(rows.items(), ends)}


class _ExactEngine:
    """Assembles the finite-n mixture formula for one problem at rows of
    theta: one `CdfQuery`, or a sequence of them that agree on A, t, sigma
    and rule (ValidationError otherwise, or when empty).  A per-row
    attribute has an axis of rows: the first for the shifts, drifts, ray
    centres, rank-0 intervals and ``gap``, the second, after its (value,
    SE) or (K25, G12) axis, for ``core`` and the drift record's tables."""

    def __init__(self, problem: RegressionProblem, query, budget: AccuracyBudget):
        queries = (query,) if isinstance(query, CdfQuery) else tuple(query)
        if not queries or not all(isinstance(q, CdfQuery) for q in queries):
            raise ValidationError("the rows must be a non-empty sequence of CdfQuery")
        first = queries[0]
        if first.A.shape[1] != problem.P:
            raise ValidationError("query A width does not match problem dimension")
        if not all((q.A is first.A or np.array_equal(q.A, first.A))
                   and (q.t is first.t or np.array_equal(q.t, first.t))
                   and q.sigma == first.sigma and q.rule == first.rule for q in queries[1:]):
            raise ValidationError("the rows must differ in theta alone (same A, t, sigma, rule)")
        first.rule.validate_for(problem.P, problem.O)
        self.problem, self.budget, self.k, self.m = problem, budget, first.A.shape[0], len(queries)
        O = problem.O
        # the scale mass outside the grid, part of the error floor
        self.truncated = _S_Q_LO + (1.0 - _S_Q_HI)
        # at unit sigma (t and theta over sigma): the design record, shared
        # by every n of its Gram, and the drift record of the rows' theta /
        # sigma in its slot, keyed by everything it is built from that a
        # call may change, n (and with it the dof) first
        self.u = first.t / first.sigma
        self.design = dq = projection_quantities(problem, first.A)
        self.c = first.rule.critical_values(O)
        thetas = np.array([q.theta for q in queries]) / first.sigma
        key = (problem.n, thetas.tobytes(), self.c.tobytes(), _S_Q_LO, _S_Q_HI, _STEP_Q,
               layout_constants())
        self.drift = dq.drift(key, lambda: _Drift(problem, dq, thetas, self.c))
        self.shift, self.nu, self.ratio = self.drift.shift, self.drift.nu, self.drift.ratio
        self.s_step, self._s_edges = self.drift.s_step, self.drift.edges
        # the order-O orthant does not involve the scale: one evaluation
        # per row, which can sample only at k >= 4
        self.core = np.array([
            gaussian_rect(u, dq.omega(O), rng=philox(budget.seed, 10_000) if self.k >= 4 else None,
                          n_samples=budget.n_z, factor=dq.factor(O))
            for u in self.u - self.shift[O]]).T
        # each order p > O is split on its selection scalar X = W / xi_p,
        # z = g X + R (`LimitQuantities.orthant`); a rank-0 order (z = g X)
        # keeps each row's x-interval [lo, hi] of {g X <= u}
        self.rank0 = {p: dq.orthant(p).interval(self.u - self.shift[p]) for p in self.drift.rays}
        self._z_cache: dict[int, tuple[np.ndarray]] = {}
        self._orders: dict[int, OrderTerm] = {}

    # ---- sampled draws for k >= 4 terms (one draw per order, shared by
    # every row and bisection so refinement measures quadrature only) ----
    def _z_sample(self, p: int) -> tuple[np.ndarray]:
        """(R,): n_z draws, keyed by (seed, p), of R = z - g X ~ N(0, S_p),
        the part of z its split (`LimitQuantities.orthant`) leaves after
        conditioning."""
        if p not in self._z_cache:
            R = gauss_draws(philox(self.budget.seed, p), self.budget.n_z, self.design.orthant(p).L)
            self._z_cache[p] = (R,)
        return self._z_cache[p]

    # ---- the scale tables ----
    def _scale_mass(self, p: int, j: int):
        """Row j's K(y), the integral of pdf(s) tail_p(s) over the scale
        grid's s <= y: y -> (K25, G12).

        The last order P has no later stage (tail_P = 1), so its K is the
        ratio density's own cdf F, in closed form, the same for every row:
        F(min(y, s_hi)) - F(s_lo) above the grid's first edge s_lo and 0 at
        and below it, s_hi its last edge, both parts the same array.  Every
        other order reads the row's table (``mass``) through
        `cumulative_rule`, a partial panel per argument.
        """
        if p == self.problem.P:
            cdf, s_lo, s_hi = self.ratio.cdf, self._s_edges[0], self._s_edges[-1]
            below = cdf(s_lo)
            return lambda y: 2 * (np.where(y > s_lo, cdf(np.minimum(y, s_hi)) - below, 0.0),)
        nu = {q: self.nu[q][j] for q in range(p + 1, self.problem.P + 1)}

        def f(s):
            return self.ratio.pdf(s) * tail_products(self.design, nu, self.c, p, s)[p]

        return cumulative_rule(f, self._s_edges, self.drift.mass[p][:, j, 0])

    # ---- conditional rank 0: two rays in the selection scalar ----
    def _term_k1(self, p: int) -> tuple[OrderTerm, np.ndarray]:
        """The `OrderTerm` of a rank-0 order p over the rows, read off
        their scale tables.

        The arm of every order whose z is a multiple g X of its selection
        scalar, for any k (the name predates that; `benchmarks/spans.py`
        traces it).  z <= u holds on an x-interval [lo, hi], and at scale s
        the order-p test rejects outside (x0 - c s, x0 + c s), c = c_p.
        With w(s) = pdf(s) tail_p(s) and M(y), N-(y) and N+(y) the
        integrals of w(s), w(s) Phi(x0 - c s) and w(s) Phi(x0 + c s) over
        the grid's s <= y (the drift record's tables), the term
        int w(s) P(lo <= X <= hi, |X - x0| >= c s) ds is

            Phi(hi) (M(s2) + M(s3)) - Phi(lo) (M(s1) + M(s4))
            + N-(s1) - N-(s2) - N+(s3) + N+(s4),

        s1 = (x0 - lo) / c, s2 = (x0 - hi) / c, s3 = (hi - x0) / c and
        s4 = (lo - x0) / c the scales where a ray crosses an end, read as
        `cumulative_rule` reads them (an infinite end reads a total or 0):
        one partial-panel search and one evaluation of the integrands for
        every row's crossings, each row's panels closed and weighted on
        its own, as a one-row read rounds them.  Returns the term, with
        pi(p) a t-free total, and the reads' |K25 - G12|, its part of the
        engine's ``gap``, a row each.  An empty interval is 0.
        """
        lo, hi = self.rank0[p]
        tables = self.drift.mass[p]
        x0, c, edges = self.drift.x0[p], float(self.c[p]), self._s_edges
        y = (np.array([x0 - lo, x0 - hi, hi - x0, lo - x0]) / c).T
        inside, j, half, s = partial_panels(edges, y)
        # per row (K25, G12) x (M, N-, N+) x (s1..s4): 0 or the total
        # outside the grid, closed at each inside crossing; a row's block
        # is contiguous, as a one-row read's is, for its products below
        reads = np.ascontiguousarray(
            np.where(y[:, None, None] >= edges[-1], tables[:, :, :3, -1:].swapaxes(0, 1), 0.0))
        row = np.nonzero(inside)[0]
        if row.size:
            nu = {q: self.nu[q][row, None] for q in range(p + 1, self.problem.P + 1)}
            w = self.ratio.pdf(s) * tail_products(self.design, nu, self.c, p, s)[p]
            x0s = x0[row, None]
            fs = w * np.array([np.ones_like(s), ndtr(x0s - c * s), ndtr(x0s + c * s)])
            ends = np.searchsorted(row, np.arange(self.m + 1))
            for r in np.flatnonzero(ends[1:] > ends[:-1]):
                mine = slice(ends[r], ends[r + 1])
                reads[r][..., inside[r]] = close_partial(tables[:, r, :3], j[mine], half[mine],
                                                         np.ascontiguousarray(fs[:, mine]))
        term, gap = np.zeros(self.m), np.zeros(self.m)
        a, b = ndtr(lo), ndtr(hi)
        for r in np.flatnonzero(lo <= hi):
            # the term's coefficients of M, N- and N+ at s1..s4
            weights = [-a[r], b[r], b[r], -a[r], 1.0, -1.0, 0.0, 0.0, 0.0, 0.0, -1.0, 1.0]
            k, g = reads[r].reshape(2, -1) @ weights
            term[r], gap[r] = k, abs(k - g)
        return OrderTerm(term, tables[0, :, 3, -1], 0.0, 0.0), gap

    # ---- the scale integral folded into the selection scalar ----
    def _conditional_term(self, p: int, R=None) -> OrderTerm:
        """The `OrderTerm` of order p over the rows, with the integrals swapped.

        At unit sigma, with W = b_p'z + zeta_p e (e standard normal,
        independent of z) and B = s c_p xi_p, 1 - Delta(zeta_p, nu_p + b_p'z,
        B) = P(|nu_p + W| >= B | z).  Split z = g X + R on X = W / xi_p,
        with R ~ N(0, S) independent of X.  At scale s the order-p test
        rejects when |X - x0| >= s c_p, x0 = -nu_p / xi_p, so z <= u and
        the rejection hold together for every s up to |X - x0| / c_p, and with
        K_p the scale mass below s (`_scale_mass`) the term is

            int phi(x) K_p(|x - x0| / c_p) P(R <= u - g x) dx,

        and pi(p) is the same integral without the orthant, at u = t / sigma
        - shift_p: per row, the `conditional_rows` rule on the order's kept
        split (`LimitQuantities.orthant`) about the row's own x0, with edges
        at the `_STEP_Q` quantiles of the ratio density, against the draws
        R if given.  Its panels' totals are the term and pi(p), its error
        the dropped x-mass.
        """
        U, x0 = self.u - self.shift[p], self.drift.x0[p]
        rows = [conditional_rows(U[j:j + 1], self.design.orthant(p), x0[j], self.c[p],
                                 self.s_step, self._scale_mass(p, j), R,
                                 self.drift.rules.get((p, j)))
                for j in range(self.m)]
        return OrderTerm(None, None, rows[0].error, np.concatenate([t.se for t in rows]),
                         tuple(t.panels[0] for t in rows))

    def _term_sampled(self, p: int) -> OrderTerm:
        """The `OrderTerm` of an order whose conditional orthant
        `needs_sampling`, on the draws of `_z_sample`."""
        return self._conditional_term(p, self._z_sample(p)[0])

    # ---- the terms, made once, and the trace `refine` reads from them ----
    def panels(self) -> list[tuple[Panels, ...]]:
        """The x-rules, a `Panels` per row, of each order of conditional
        rank >= 1, with every order's `OrderTerm` made on first use: order
        O's is the core times its table's total W_O, a rank-0 order's
        `_term_k1`.  ``gap``, these table reads' |K25 - G12| per row, joins
        the rules' gap in `cdf_exact_rows` unseen by `refine` (no bisection
        reduces it); below half the truncated scale mass, it flags no
        result whose floor meets tol."""
        if not self._orders:
            O, P = self.problem.O, self.problem.P
            k, g = self.drift.mass[O][:, :, 0, -1]
            core, se = self.core
            self._orders[O] = OrderTerm(core * k, k, 0.0, se * k)
            self.gap = core * abs(k - g)
            for p in range(O + 1, P + 1):
                if p in self.rank0:
                    self._orders[p], gap = self._term_k1(p)
                    self.gap += gap
                elif needs_sampling(self.k, self.design.orthant(p).r):
                    self._orders[p] = self._term_sampled(p)
                else:
                    self._orders[p] = self._conditional_term(p)
        return [term.panels for term in self._orders.values() if term.panels]

    def assemble(self) -> TermTrace:
        """The trace of the terms' current parts, an order per entry of
        axis 0 and a row per query on the trailing axis."""
        self.panels()
        parts = np.array([term.parts() for term in self._orders.values()])
        return TermTrace(tuple(self._orders), *parts.swapaxes(0, 1))


def cdf_exact_rows(problem: RegressionProblem, queries,
                   budget: AccuracyBudget | None = None) -> list[CdfResult]:
    """`cdf_exact` at every query of ``queries``, a sequence of `CdfQuery`
    that agree on A, t, sigma and rule and differ in theta alone (a
    ValidationError otherwise, or when it is empty): the rows of one engine.

    One drift record serves every row (the shifts, drifts, tail products
    and scale tables of all the theta at once) and one partial-panel read
    every row's rank-0 crossings; each row keeps its own order-O orthant,
    x-rules about its own ray centre, rounds of bisection and result.
    Returns a `CdfResult` per query, in order, each equal bit for bit to
    the query's own `cdf_exact` call.
    """
    budget = budget or AccuracyBudget()
    engine = _ExactEngine(problem, queries, budget)
    trace, gaps, rounds = refine(engine.assemble, engine.panels(), budget.tol, engine.truncated)
    return [cdf_result(trace.row(j), gaps[j] + engine.gap[j], int(rounds[j]), budget,
                       "mixture-formula", engine.k, engine.truncated)
            for j in range(engine.m)]


def cdf_exact(problem: RegressionProblem, query: CdfQuery,
              budget: AccuracyBudget | None = None) -> CdfResult:
    """Finite-sample cdf of sqrt(n) A (theta_tilde - theta) at query.t.

    The design, sample size and protected order come from ``problem``; the
    parameter point (theta, sigma), target matrix, argument and rule come
    from ``query`` (the problem's own theta/sigma are ignored, which makes
    parameter sweeps cheap).  The one-row `cdf_exact_rows` call, which a
    sweep over theta makes once for all its points.  See the module
    docstring for the evaluation strategy and error accounting; the
    result's term_trace carries the per-order breakdown.
    """
    return cdf_exact_rows(problem, (query,), budget)[0]
