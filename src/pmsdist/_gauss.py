"""Internal Gaussian / quadrature numerics used by the distribution modules.

Everything here is generic probability plumbing, and the one place the
package computes Gaussian probabilities: normal cdfs, bivariate rectangle
probabilities, rank-aware lower-orthant probabilities for possibly singular
Gaussian vectors, the one conditioned-orthant kernel and Gaussian sampler,
and composite Gauss-Legendre panel rules with their one refinement loop.
"""
from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import ndtr, owens_t

# Standard-normal mass beyond |x| = 9 is ~1.1e-19; quadrature ranges are
# truncated there and the discarded mass is accounted for by callers.
TAIL_CUT = 9.0

# Level l of the cdf evaluators' refined rules has PANELS * 2**l panels of
# NODES_PER_PANEL Gauss-Legendre nodes; `refine` stops at MAX_REFINEMENTS.
PANELS = 12
NODES_PER_PANEL = 12
MAX_REFINEMENTS = 3

# Panels of the trivariate rule in `gaussian_rect_rows`, which has no
# refinement loop: fine enough that the rule's error is at rounding level.
_RECT_PANELS = 24

_leggauss_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    try:
        return _leggauss_cache[n]
    except KeyError:
        xw = leggauss(n)
        _leggauss_cache[n] = xw
        return xw


def norm_pdf(x):
    """Standard normal density at x."""
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x ** 2) / np.sqrt(2.0 * np.pi)


def gl_panels(edges: np.ndarray, nodes_per_panel: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on consecutive intervals.

    Parameters
    ----------
    edges : increasing 1-D array of panel boundaries, length m+1.
    nodes_per_panel : GL nodes per panel.

    Returns
    -------
    nodes, weights : flat arrays of length m * nodes_per_panel. Summing
        ``f(nodes) * weights`` approximates the integral of f over
        [edges[0], edges[-1]].
    """
    edges = np.asarray(edges, dtype=float)
    x, w = _leggauss(nodes_per_panel)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = mid[:, None] + half[:, None] * x[None, :]
    weights = half[:, None] * w[None, :]
    return nodes.ravel(), weights.ravel()


def split_edges(lo: float, hi: float, n_panels: int, breaks=()) -> np.ndarray:
    """Equal-width panel edges on [lo, hi] with extra mandatory break points.

    Break points outside (lo, hi) are ignored.  Duplicate/near-duplicate
    edges are merged so panels never degenerate.
    """
    base = np.linspace(lo, hi, n_panels + 1)
    extra = [b for b in np.atleast_1d(np.asarray(breaks, dtype=float)) if lo < b < hi]
    if not extra:
        return base
    edges = np.unique(np.concatenate([base, np.asarray(extra)]))
    # drop edges closer than a sliver of the range to their neighbor
    keep = np.concatenate([[True], np.diff(edges) > 1e-13 * max(hi - lo, 1.0)])
    edges = edges[keep]
    edges[0], edges[-1] = lo, hi
    return edges


def bvn_cdf(h, k, rho: float) -> np.ndarray:
    """P(X <= h, Y <= k) for standard bivariate normal (X, Y) with corr rho.

    Deterministic evaluation through Owen's T function; h and k may be
    arrays (broadcast), rho is a scalar.  Accuracy ~1e-14.
    """
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    h, k = np.broadcast_arrays(h, k)
    rho = float(min(1.0, max(-1.0, rho)))

    if rho >= 1.0 - 1e-15:
        return ndtr(np.minimum(h, k))
    if rho <= -1.0 + 1e-15:
        return np.clip(ndtr(h) + ndtr(k) - 1.0, 0.0, 1.0)

    out = np.empty(h.shape, dtype=float)
    neg_inf = (h == -np.inf) | (k == -np.inf)
    h_inf = (h == np.inf)
    k_inf = (k == np.inf)
    finite = ~(neg_inf | h_inf | k_inf)

    out[neg_inf] = 0.0
    # one argument at +inf: marginal cdf of the other
    m = h_inf & ~neg_inf
    out[m] = ndtr(k[m])
    m = k_inf & ~neg_inf & ~h_inf
    out[m] = ndtr(h[m])

    if np.any(finite):
        # a subnormal argument is 0 by continuity: rho * h would round back
        # to h while h * sqrt(1 - rho^2) underflows, leaving 0/0 below
        tiny = np.finfo(float).tiny
        hf = np.where(np.abs(h[finite]) < tiny, 0.0, h[finite])
        kf = np.where(np.abs(k[finite]) < tiny, 0.0, k[finite])
        r = np.sqrt(1.0 - rho * rho)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ah = (kf - rho * hf) / (hf * r)
            ak = (hf - rho * kf) / (kf * r)
        th = owens_t(hf, ah)
        tk = owens_t(kf, ak)
        # T(0, a) -> arctan(a)/(2*pi) with a = +/-inf by the sign of the
        # other coordinate; both-zero handled in closed form below.
        zh = hf == 0.0
        zk = kf == 0.0
        th = np.where(zh, 0.25 * np.sign(kf), th)
        tk = np.where(zk, 0.25 * np.sign(hf), tk)
        beta = np.where(
            (hf * kf < 0.0) | ((hf * kf == 0.0) & ((hf < 0.0) | (kf < 0.0))),
            0.5,
            0.0,
        )
        val = 0.5 * (ndtr(hf) + ndtr(kf)) - th - tk - beta
        both0 = zh & zk
        if np.any(both0):
            val = np.where(both0, 0.25 + np.arcsin(rho) / (2.0 * np.pi), val)
        out[finite] = np.clip(val, 0.0, 1.0)
    return out


def psd_factor(cov: np.ndarray, rel_tol: float = 1e-12, scale: float = 0.0) -> np.ndarray:
    """Factor L (k x r) with cov ~= L @ L.T for a symmetric PSD matrix.

    Eigenvalues below rel_tol times the larger of the largest eigenvalue and
    ``scale`` are treated as exact zeros, so r is the numerical rank.  A
    matrix formed by cancellation passes the scale of its operands, so that
    rounding residue counts as zero.
    """
    cov = np.asarray(cov, dtype=float)
    lam, vec = np.linalg.eigh(0.5 * (cov + cov.T))
    lmax = max(float(lam[-1]), scale, 0.0)
    keep = lam > max(lmax * rel_tol, 1e-300)
    return vec[:, keep] * np.sqrt(lam[keep])


def sym_pinv(mat: np.ndarray, rel_tol: float = 1e-12) -> np.ndarray:
    """Moore-Penrose inverse of a symmetric PSD matrix via eigendecomposition.

    Eigenvalues below rel_tol times the largest count as zero (the
    documented generalized-inverse convention of the package).
    """
    mat = np.asarray(mat, dtype=float)
    lam, vec = np.linalg.eigh(0.5 * (mat + mat.T))
    lmax = max(float(np.max(np.abs(lam))), 0.0)
    keep = np.abs(lam) > max(lmax * rel_tol, 1e-300)
    inv = np.zeros_like(lam)
    inv[keep] = 1.0 / lam[keep]
    return (vec * inv) @ vec.T


def rank1_bounds(U: np.ndarray, load: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interval {x : load * x <= u coordinatewise} for every row u of U.

    Returns (lo, hi) arrays over the rows.  Coordinates with negligible
    loading require u >= 0 outright; a row violating that gets the empty
    interval (inf, -inf).
    """
    m = U.shape[0]
    tol = 1e-13 * max(float(np.max(np.abs(load))), 1.0)
    pos, neg = load > tol, load < -tol
    zero = ~(pos | neg)
    hi = np.min(U[:, pos] / load[pos], axis=1) if pos.any() else np.full(m, np.inf)
    lo = np.max(U[:, neg] / load[neg], axis=1) if neg.any() else np.full(m, -np.inf)
    bad = np.any(U[:, zero] < 0.0, axis=1)
    return np.where(bad, np.inf, lo), np.where(bad, -np.inf, hi)


def condition_on_scalar(cov_z: np.ndarray, cov_zw: np.ndarray,
                        var_w: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split centered joint Gaussians (Z, W) as Z = g X + R, X = W / sd(W).

    R ~ N(0, S) is independent of X.  Returns (g, S, L) with L the factor of
    S whose rank is judged against the scale of cov_z: a conditional
    covariance that vanishes up to rounding has rank 0.
    """
    g = cov_zw / var_w * np.sqrt(var_w)
    S = cov_z - np.outer(cov_zw, cov_zw) / var_w
    return g, S, psd_factor(S, scale=float(np.max(np.diag(cov_z))))


def conditional_kinks(u: np.ndarray, g: np.ndarray, L: np.ndarray) -> list[float]:
    """x-values where P(Z <= u | X = x) is not smooth, for Z = g X + L eps.

    Rank 0: the ends of the interval {x : g x <= u}.  Rank 1: crossings of
    two conditional bounds (u_i - g_i x) / L_i and sign flips of
    zero-loading coordinates.  Rank k - 1 >= 2: the x where the k
    conditional hyperplanes in eps-space meet in one point, n'(u - g x) = 0
    for n spanning the null space of L' (a zero-loading coordinate i gives
    n = e_i and its sign flip).  Full rank: none.
    """
    k, r = L.shape
    if r == 0:
        lo, hi = rank1_bounds(u[None, :], g)
        return [float(e) for e in (lo[0], hi[0]) if np.isfinite(e)]
    if r > 1:
        if r == k - 1:
            n = np.linalg.svd(L.T)[2][-1]
            den = float(n @ g)
            if abs(den) > 1e-13 * max(float(np.max(np.abs(g))), 1.0):
                return [float(n @ u) / den]
        return []
    load = L[:, 0]
    tol = 1e-13 * max(float(np.max(np.abs(load))), 1.0)
    breaks: list[float] = []
    idx = [i for i in range(k) if abs(load[i]) > tol]
    for a_pos in range(len(idx)):
        for b_pos in range(a_pos + 1, len(idx)):
            i, j = idx[a_pos], idx[b_pos]
            den = g[i] / load[i] - g[j] / load[j]
            if abs(den) > 1e-13:
                breaks.append((u[i] / load[i] - u[j] / load[j]) / den)
    for i in range(k):
        if abs(load[i]) <= tol and abs(g[i]) > 1e-13:
            breaks.append(u[i] / g[i])
    return [b for b in breaks if np.isfinite(b)]


def ray_interval_prob(lo, hi, a, b):
    """P(lo <= X <= hi, X <= a or X >= b) for X ~ N(0, 1), with a <= b.

    The interval [lo, hi] (empty when lo > hi) meets the two rays in closed
    form; all arguments broadcast.  It is the rank-0 term of both cdf
    engines: Z = g X lies in its orthant on the interval `rank1_bounds`
    gives, and the order's test rejects outside (a, b).
    """
    return (np.maximum(ndtr(np.minimum(hi, a)) - ndtr(lo), 0.0)
            + np.maximum(ndtr(hi) - ndtr(np.maximum(lo, b)), 0.0))


def needs_sampling(k: int, r: int) -> bool:
    """Whether `orthant_rows` (exact at rank <= 1 and in dimension <= 3)
    cannot evaluate a k-variate orthant of rank r.  An unconditional one is
    conditioned once more (`gaussian_rect_rows`): it samples at rank >= 3."""
    return k >= 4 and r >= 2


def cumulative_rule(f, edges: np.ndarray):
    """H(y) = integral of f from edges[0] to y, and the total over all edges.

    f is integrated on Gauss-Legendre panels of ``edges``; a y inside a
    panel closes the sum of the panels below it with a partial panel of the
    same rule, so H can be read at any array of points.  H is 0 at and
    below edges[0] and the total at and above edges[-1].  Its one caller is
    `dist_exact._ExactEngine._scale_mass`, the scale mass that the exact
    cdf hands to `selection_rule`.
    """
    x, w = gl_panels(edges, NODES_PER_PANEL)
    panel_sums = (f(x) * w).reshape(-1, NODES_PER_PANEL).sum(axis=1)
    cum = np.concatenate([[0.0], np.cumsum(panel_sums)])
    t, tw = _leggauss(NODES_PER_PANEL)

    def H(y):
        y = np.asarray(y, dtype=float)
        out = np.where(y >= edges[-1], cum[-1], 0.0)
        inside = (y > edges[0]) & (y < edges[-1])
        if np.any(inside):
            yi = y[inside]
            j = np.minimum(np.searchsorted(edges, yi, side="right") - 1, edges.size - 2)
            half = 0.5 * (yi - edges[j])
            xs = edges[j][:, None] + half[:, None] * (t + 1.0)[None, :]
            out[inside] = cum[j] + half * (f(xs.ravel()).reshape(xs.shape) @ tw)
        return out

    return H, float(cum[-1])


def selection_rule(x0: float, c: float, K, s_breaks, kinks, n_panels: int):
    """x-rule of a term conditioned on its selection scalar X ~ N(0, 1).

    The term is int phi(x) K(|x - x0| / c) f(x) dx: the order-p test
    rejects at scale s when |x - x0| >= c s, K is the mass of the scales
    it rejects at (rising from 0 to at most 1, steepest near the scales
    ``s_breaks``) and f is a conditional probability with non-smooth points
    ``kinks`` (`conditional_kinks`).  Returns Gauss-Legendre nodes on
    n_panels equal panels of [-TAIL_CUT, TAIL_CUT] with extra edges at x0,
    at x0 +/- c s for each s in s_breaks and at the kinks; their weights
    times phi(x) K(|x - x0| / c); and the dropped x-mass 2 Phi(-TAIL_CUT).
    Its one caller is `conditional_rows`.
    """
    s = np.asarray(s_breaks, dtype=float)
    edges = split_edges(-TAIL_CUT, TAIL_CUT, n_panels,
                        breaks=[x0, *(x0 - c * s), *(x0 + c * s), *kinks])
    x, w = gl_panels(edges, NODES_PER_PANEL)
    return x, w * norm_pdf(x) * K(np.abs(x - x0) / c), 2.0 * float(ndtr(-TAIL_CUT))


def refine(evaluate, tol: float, refinable: bool):
    """The one refinement loop: evaluate(level) -> a `dist_exact.TermTrace`.

    If ``refinable``, levels 1, 2, ... follow until each of the trace's
    totals differs from the previous level's by less than tol/2 or its
    sampling error (summed over the orders; no level reduces it) alone
    exceeds tol, or MAX_REFINEMENTS is reached.  Returns (last trace,
    |last - previous totals| (0 without refinement), last level).
    """
    trace = evaluate(0)
    totals = trace.total
    gap, level = np.zeros_like(totals), 0
    if refinable:
        for level in range(1, MAX_REFINEMENTS + 1):
            trace = evaluate(level)
            gap, totals = np.abs(trace.total - totals), trace.total
            if np.all((gap < 0.5 * tol) | (trace.sampling.sum(axis=0) > tol)):
                break
    return trace, gap, level


def orthant_rows(U: np.ndarray, S: np.ndarray, L: np.ndarray, n_panels: int) -> np.ndarray:
    """P(R <= u) for every row u of U, R ~ N(0, S) with L a factor of S.

    Deterministic wherever the dimension allows: numerical rank 0 is an
    indicator, rank 1 an interval of the normal cdf, a full-rank bivariate
    R the bivariate normal cdf, and a trivariate R of rank 2 or 3 an
    integral over Y = R_j / sd(R_j), j the coordinate of largest variance:
    the other two coordinates are h Y + R' with R' of rank r - 1, so

        P(R <= u) = int_{-TAIL_CUT}^{u_j / sd_j} phi(y) P(R' <= u' - h y) dy,

    a rank-1 interval (r = 2) or a bivariate normal cdf (r = 3) under
    n_panels equal-width Gauss-Legendre panels per row.  At r = 2 the row's
    one kink (where the two interval bounds cross, or a zero-loading
    coordinate flips sign) is an extra edge.  The dropped mass below
    -TAIL_CUT is at most Phi(-TAIL_CUT) per row.  Other ranks raise
    ValueError.  Its callers are `gaussian_rect_rows` and
    `conditional_rows`, which integrates it against a `selection_rule`.
    """
    k, r = U.shape[1], L.shape[1]
    if r == 0:
        return np.all(U >= 0.0, axis=1).astype(float)
    if r == 1:
        lo, hi = rank1_bounds(U, L[:, 0])
        return np.maximum(ndtr(hi) - ndtr(lo), 0.0)
    if k == 2:
        s = np.sqrt(np.diag(S))
        return bvn_cdf(U[:, 0] / s[0], U[:, 1] / s[1], S[0, 1] / (s[0] * s[1]))
    if k != 3:
        raise ValueError(f"no deterministic rule for a rank-{r} covariance of dimension {k}")
    # R = L eps; Y = q'eps with q the unit direction of row j, and the rest
    # of eps spans the orthogonal complement of q
    j = int(np.argmax(np.sum(L * L, axis=1)))
    sd_j = float(np.linalg.norm(L[j]))
    q = L[j] / sd_j
    rest = [i for i in range(3) if i != j]
    h = (L @ q)[rest]
    Lr = (L @ np.linalg.svd(q[None, :])[2][1:].T)[rest]    # (2, r - 1), q's complement
    W = U[:, rest]
    y_top = np.clip(U[:, j] / sd_j, -TAIL_CUT, TAIL_CUT)
    edges = -TAIL_CUT + (y_top + TAIL_CUT)[:, None] * np.linspace(0.0, 1.0, n_panels + 1)
    if r == 2:
        n = np.array([Lr[1, 0], -Lr[0, 0]])
        den = float(n @ h)
        if abs(den) > 1e-13 * max(float(np.max(np.abs(h))), 1.0):
            kink = np.clip((W @ n) / den, -TAIL_CUT, y_top)
            edges = np.sort(np.column_stack([edges, kink]), axis=1)
    t, tw = _leggauss(NODES_PER_PANEL)
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])
    y = mid[:, :, None] + half[:, :, None] * t                  # (m, panels, nodes)
    V0 = W[:, 0, None, None] - h[0] * y
    V1 = W[:, 1, None, None] - h[1] * y
    if r == 2:
        lo, hi = rank1_bounds(np.column_stack([V0.ravel(), V1.ravel()]), Lr[:, 0])
        cond = np.maximum(ndtr(hi) - ndtr(lo), 0.0).reshape(y.shape)
    else:
        s = np.sqrt(np.sum(Lr * Lr, axis=1))
        cond = bvn_cdf(V0 / s[0], V1 / s[1], float(Lr[0] @ Lr[1]) / (s[0] * s[1]))
    return np.einsum("mpn,mpn,n,mp->m", cond, norm_pdf(y), tw, half)


def philox(key: int, stream: int = 0) -> np.random.Generator:
    """Generator on the counter-based Philox stream keyed by (key, stream)."""
    return np.random.Generator(np.random.Philox(key=np.array([key, stream], dtype=np.uint64)))


def gauss_draws(rng: np.random.Generator, n: int, L: np.ndarray) -> np.ndarray:
    """n draws (rows) of R = L eps, eps ~ N(0, I_r), from rng: the one
    Gaussian sampler of the cdf evaluators."""
    return rng.standard_normal((n, L.shape[1])) @ L.T


def conditional_rows(U: np.ndarray, g: np.ndarray, S: np.ndarray, L: np.ndarray,
                     x0: float, c: float, K, s_breaks, n_panels: int, R=None):
    """int phi(x) K(|x - x0| / c) P(R <= u - g x) dx for every row u of U.

    The one conditioned-orthant kernel, for R ~ N(0, S = L L') independent
    of X (`condition_on_scalar`), on each row's `selection_rule`.  The
    orthant is `orthant_rows` at every x-node or, given draws R (rows),
    each draw's x-interval {x : g x <= u - R}, whose rule weight is
    averaged.  Returns (values, pis, errors, SEs): pi is the integral
    without the orthant, the error the dropped x-mass (plus the
    Phi(-TAIL_CUT) `orthant_rows` drops), the SE 0 without draws and else
    at least 1/len(R), as no draw may land in a rare region.
    """
    m = len(U)
    vals, pis, errs, ses = np.zeros(m), np.zeros(m), np.zeros(m), np.zeros(m)
    for j, u in enumerate(U):
        x, wk, errs[j] = selection_rule(x0, c, K, s_breaks, conditional_kinks(u, g, L), n_panels)
        pis[j] = np.sum(wk)
        if R is None:
            vals[j] = wk @ orthant_rows(u[None, :] - np.outer(x, g), S, L, n_panels)
            errs[j] += float(ndtr(-TAIL_CUT))
        else:
            lo, hi = rank1_bounds(u[None, :] - R, g)
            cum = np.concatenate([[0.0], np.cumsum(wk)])
            w = np.maximum(cum[np.searchsorted(x, hi, side="right")]
                           - cum[np.searchsorted(x, lo)], 0.0)
            vals[j] = np.mean(w)
            ses[j] = max(float(np.std(w) / np.sqrt(w.size)), 1.0 / w.size)
    return vals, pis, errs, ses


def gaussian_rect_rows(U: np.ndarray, cov: np.ndarray, *, rng=None,
                       n_samples: int = 200_000) -> tuple[np.ndarray, np.ndarray]:
    """Lower-orthant probabilities P(Z <= u) for every row u of U, Z ~ N(0, cov).

    cov is PSD, possibly singular.  Where it `needs_sampling` (k >= 4,
    rank >= 2), Z is conditioned on its coordinate of largest variance,
    which `conditional_rows` integrates exactly: deterministic at rank 2,
    and at rank >= 3 on one seeded sample of n_samples draws (Philox key
    (0, 0) unless ``rng`` is given) shared by all rows.  Returns (probabilities,
    standard_errors): 0 where deterministic, else at least 1/n_samples.
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    m, k = U.shape
    L = psd_factor(cov)
    if not needs_sampling(k, L.shape[1]):
        return orthant_rows(U, cov, L, _RECT_PANELS), np.zeros(m)
    j = int(np.argmax(np.diag(cov)))
    g, S, L = condition_on_scalar(cov, cov[:, j], float(cov[j, j]))
    rng = philox(0) if rng is None else rng
    R = gauss_draws(rng, n_samples, L) if needs_sampling(k, L.shape[1]) else None
    vals, _, _, se = conditional_rows(U, g, S, L, 0.0, 1.0, np.ones_like, (), _RECT_PANELS, R)
    return vals, se


def gaussian_rect(upper: np.ndarray, cov: np.ndarray, *, rng=None,
                  n_samples: int = 200_000) -> tuple[float, float]:
    """Lower-orthant probability P(Z <= upper): the one-row `gaussian_rect_rows`."""
    p, se = gaussian_rect_rows(upper, cov, rng=rng, n_samples=n_samples)
    return float(p[0]), float(se[0])
