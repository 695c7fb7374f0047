"""Internal Gaussian / quadrature numerics used by the distribution modules.

Everything here is generic probability plumbing, and the one place the
package computes Gaussian probabilities: normal cdfs, bivariate rectangle
probabilities, rank-aware lower-orthant probabilities for possibly singular
Gaussian vectors (rank 2 in any dimension in closed form, a bivariate
normal over a convex polygon by differences of Owen's T; a full-rank
trivariate one by Genz's one-dimensional form of Plackett's identity), the
one conditioned-orthant kernel and Gaussian sampler, and composite panel
rules with their one refinement loop.  Sampling is left only at k >= 4
with conditional rank >= 3 (unconditional rank >= 4).

Every panel rule is the 25-node Kronrod extension (K25) of the 12-node
Gauss-Legendre rule (G12), computed by Laurie's (1997) algorithm: the G12
nodes are K25 nodes, so one evaluation gives both, a rule reports its K25
value and |K25 - G12| is its error estimate (QUADPACK's QAG, Piessens et
al. 1983).  Inner rules (the s-panels of `cumulative_rule`, the path
rule of `_trivariate_rows`) return both parts as well, so the estimate
of an outer rule covers the whole nested term.  The outer rules (the
x-rules of `conditional_rows`, the exact cdf's scale grid) and the
s-panels start from the PANELS equal panels of `panel_edges` plus their
break points; the path rule is one panel of [0, 1] plus the edges of its
determinant layer.  An outer rule integrates q order terms, then their
q weights, and its estimate covers the terms.  `refine` bisects the
outer panels whose estimates are large, row by row, and stops a row at
its error floor: the error no bisection reduces (`error_floor`).  Each
order's part of a cdf is one `OrderTerm`, a closed form's or a rule's.
A rule's integrand is split into factors that no argument t moves and
the rest; a `NodeMemo` keeps the factors at the nodes of a t-free layout
for the panels a first pass leaves whole, so a caller that evaluates
many t at one parameter point computes them once.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import ndtr, owens_t

# Standard-normal mass beyond |x| = 9 is ~1.1e-19; quadrature ranges are
# truncated there and the discarded mass is accounted for by callers.
TAIL_CUT = 9.0

# The outer rules and the s-panels start from PANELS equal panels
# (`panel_edges`) of NODES_PER_PANEL Kronrod nodes; `refine` stops after
# MAX_ROUNDS rounds of bisection.
PANELS = 12
NODES_PER_PANEL = 25
MAX_ROUNDS = 10

# Relative eigenvalue cutoff of the one numerical-rank rule (`sym_eigh`).
GINV_REL_TOL = 1e-12
# Rounding floor of every cdf error bound: the accuracy of `bvn_cdf`
ROUNDING = 1e-14


def kronrod_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1] of the (2n + 1)-node Kronrod extension
    of the n-node Gauss-Legendre rule, exact for polynomials of degree
    3n + 1 (n even).

    Laurie's (1997) algorithm builds the Jacobi-Kronrod matrix from the
    Legendre recurrence b_k = k^2 / (4k^2 - 1), whose diagonal vanishes for
    this symmetric weight; its eigenvalues are the nodes and the squared
    first components of its eigenvectors, times b_0 = 2, the weights.
    """
    b = np.zeros(2 * n + 1)
    k = np.arange(1.0, -(-3 * n // 2) + 1)
    b[0], b[1:k.size + 1] = 2.0, k ** 2 / (4.0 * k ** 2 - 1.0)
    s, t = np.zeros(n // 2 + 2), np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        u = 0.0
        for i in range((m + 1) // 2, -1, -1):
            u += b[i + n + 1] * s[i] - b[m - i] * s[i + 1]
            s[i + 1] = u
        s, t = t, s
    s[1:] = s[:-1].copy()
    for m in range(n - 1, 2 * n - 2):
        u = 0.0
        for i in range(m + 1 - n, (m - 1) // 2 + 1):
            j = n - 1 - (m - i)
            u += b[m - i] * s[j + 2] - b[i + n + 1] * s[j + 1]
            s[j + 1] = u
        if m % 2:
            b[(m + 1) // 2 + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    off = np.sqrt(b[1:])
    x, vec = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w = b[0] * vec[0] ** 2
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])


# K25 nodes and weights of one panel on [-1, 1], and the G12 weights at the
# same nodes (zero off the embedded Gauss nodes, every other one)
_K_X, _K_W = kronrod_legendre(12)
_G_W = np.zeros(NODES_PER_PANEL)
_G_W[1::2] = leggauss(12)[1]


def norm_pdf(x):
    """Standard normal density at x."""
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x ** 2) / np.sqrt(2.0 * np.pi)


def gl_panels(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Composite K25 rule on consecutive intervals, with its embedded G12 rule.

    Parameters
    ----------
    edges : increasing 1-D array of panel boundaries, length m+1.

    Returns
    -------
    nodes, k_weights, g_weights : flat arrays of length m * NODES_PER_PANEL,
        increasing nodes.  Summing ``f(nodes) * k_weights`` approximates
        the integral of f over [edges[0], edges[-1]] by K25 on every panel,
        ``f(nodes) * g_weights`` by G12 (zero weight off its nodes).
    """
    edges = np.asarray(edges, dtype=float)
    return _panel_nodes(edges[:-1], edges[1:])


def _panel_nodes(lo: np.ndarray, hi: np.ndarray):
    """`gl_panels` on the panels [lo_i, hi_i], in any order."""
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _K_X
    return nodes.ravel(), (half[:, None] * _K_W).ravel(), (half[:, None] * _G_W).ravel()


def layout_constants() -> tuple[int, float]:
    """(PANELS, TAIL_CUT), read at call time: every panel layout is built
    from them, so anything kept on a layout keys on them."""
    return PANELS, TAIL_CUT


def panel_edges(lo: float, hi: float) -> np.ndarray:
    """Edges of the PANELS equal panels of [lo, hi] that the outer rules and
    the s-panels of `cumulative_rule` start from, before their break points
    (`split_edges`) and bisection (`refine`)."""
    return np.linspace(lo, hi, PANELS + 1)


class Panels:
    """One row's composite K25 rule of one integrand, refined by bisection.

    f(x, a) -> (fk, fg), two arrays of shape (2q, len(x)): q order terms
    followed by their q weights, at the nodes x, with any inner rule at K25
    (fk) and at G12 (fg); a flat integrand returns the same array twice.
    a = factors(x) are the integrand's factors that the query's t does not
    move (an array of rows over the nodes).  Given a `NodeMemo`, the first
    pass reads them for the panels the memo keeps whole; `bisect`
    evaluates its halves afresh.  Every panel keeps its K25 sums of fk and
    its G12 sums of fg.  ``total`` is the K25 integral of every component;
    a panel's estimate is |K25 - G12| summed over the terms (the first half
    of the components), and ``gap`` the sum of the estimates.  `bisect`
    re-evaluates only the halves of the panels it splits.
    """

    def __init__(self, f, edges: np.ndarray, factors, memo: NodeMemo | None = None):
        self.f, self.factors = f, factors
        self.lo, self.hi = edges[:-1], edges[1:]
        self.K, self.G = self._sums(self.lo, self.hi, memo)
        self._estimate()

    def _sums(self, lo, hi, memo=None):
        x, wk, wg = _panel_nodes(lo, hi)
        fk, fg = self.f(x, self.factors(x) if memo is None else memo.read(lo, hi, x, self.factors))
        shape = (-1, lo.size, NODES_PER_PANEL)
        return (fk * wk).reshape(shape).sum(axis=2), (fg * wg).reshape(shape).sum(axis=2)

    def _estimate(self):
        q = len(self.K) // 2
        self.estimates = np.abs(self.K[:q] - self.G[:q]).sum(axis=0)
        self.gap = float(self.estimates.sum())
        self.total = self.K.sum(axis=1)

    @property
    def size(self) -> int:
        return self.lo.size

    def bisect(self, cut: float) -> None:
        """Split every panel whose estimate is at least ``cut`` in two."""
        split = self.estimates >= cut
        if not split.any():
            return
        lo, hi = self.lo[split], self.hi[split]
        mid = 0.5 * (lo + hi)
        K, G = self._sums(np.concatenate([lo, mid]), np.concatenate([mid, hi]))
        keep = ~split
        self.lo = np.concatenate([self.lo[keep], lo, mid])
        self.hi = np.concatenate([self.hi[keep], mid, hi])
        self.K = np.concatenate([self.K[:, keep], K], axis=1)
        self.G = np.concatenate([self.G[:, keep], G], axis=1)
        self._estimate()


class NodeMemo:
    """Integrand factors that no t moves, at the K25 nodes of one panel layout.

    ``edges`` is the layout a rule has before the break points of a
    particular t (bound on first use when None).  A `Panels` first pass
    reads the factors of every panel it keeps whole from here once they
    are filled, evaluates the rest in one call, and fills the whole panels
    it evaluated.  Split and bisected panels are never stored, so the memo
    holds at most one (rows, panels, NODES_PER_PANEL) array of the layout
    however many t it serves.  Each node's factors come from elementwise
    operations on that node alone, so a read equals a fresh evaluation bit
    for bit.
    """

    def __init__(self, edges: np.ndarray | None = None):
        self.edges = self.kept = self.values = None
        if edges is not None:
            self.bind(edges)

    def bind(self, edges: np.ndarray) -> None:
        # per panel, padded by one so that any left edge inside the layout
        # indexes them: its right edge, and that edge again once the panel's
        # factors are kept (NaN before, which equals no edge)
        self.edges, self._right = edges, np.append(edges[1:], np.nan)
        self.kept = np.full(edges.size, np.nan)

    def read(self, lo: np.ndarray, hi: np.ndarray, x: np.ndarray, factors) -> np.ndarray:
        """factors(x) at the nodes x of the panels [lo_i, hi_i] of a layout
        inside the memo's."""
        j = np.searchsorted(self.edges, lo)
        at = self.edges[j] == lo
        need = ~(at & (self.kept[j] == hi))
        n = np.count_nonzero(need)
        if n == lo.size:
            a = factors(x)
        else:
            a = self.values[:, j]
            if n:
                a[:, need] = factors(x.reshape(lo.size, -1)[need].ravel()).reshape(len(a), n, -1)
            a = a.reshape(len(a), -1)
        if n:
            fill = need & at & (self._right[j] == hi)
            if fill.any():
                if self.values is None:
                    self.values = np.empty((len(a), self.edges.size, NODES_PER_PANEL))
                self.values[:, j[fill]] = a.reshape(len(a), lo.size, -1)[:, fill]
                self.kept[j[fill]] = hi[fill]
        return a


@dataclass(frozen=True)
class OrderTerm:
    """One order's part of a trace over its rows, G(t) = sum_p pi(p) G(t | p).

    A closed form gives its term pi(p) G(t | p) and weight pi(p) directly;
    a rule gives None for both and its per-row `Panels`, whose K25 totals
    (term, weight) `refine` moves by bisection.  error is the term's
    deterministic bound (dropped mass) and se the standard error of its
    draws, 0 where nothing is sampled; scalars broadcast over the rows.
    """

    term: object
    weight: object
    error: object
    se: object
    panels: tuple = ()

    def parts(self) -> np.ndarray:
        """(4, rows): term, weight, error bound and sampling error 3 SE."""
        term, weight = (np.array([p.total for p in self.panels]).T if self.panels
                        else (self.term, self.weight))
        out = np.empty((4, *np.shape(term)))
        out[0], out[1], out[2], out[3] = term, weight, self.error, 3.0 * self.se
        return out


def split_edges(base: np.ndarray, breaks) -> np.ndarray:
    """Panel edges ``base`` (increasing) with extra mandatory break points.

    Break points outside (base[0], base[-1]) are ignored.  Duplicate and
    near-duplicate edges are merged so panels never degenerate.
    """
    lo, hi = base[0], base[-1]
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


def sym_eigh(mat: np.ndarray, scale: float = 0.0):
    """(lam, vec, keep): the ascending eigenpairs of the symmetric part of
    mat and the package's one numerical-rank rule, the mask of eigenvalues
    above GINV_REL_TOL times the larger of the largest one and ``scale``.
    A matrix formed by cancellation passes the scale of its operands, so
    that rounding residue counts as zero."""
    mat = np.asarray(mat, dtype=float)
    lam, vec = np.linalg.eigh(0.5 * (mat + mat.T))
    lmax = max(float(lam[-1]), scale, 0.0)
    return lam, vec, lam > max(lmax * GINV_REL_TOL, 1e-300)


def psd_factor(cov: np.ndarray, scale: float = 0.0) -> np.ndarray:
    """Factor L (k x r) with cov ~= L @ L.T for a symmetric PSD matrix, r
    its numerical rank by `sym_eigh` (at ``scale``)."""
    lam, vec, keep = sym_eigh(cov, scale)
    return vec[:, keep] * np.sqrt(lam[keep])


def sym_pinv(mat: np.ndarray) -> np.ndarray:
    """Moore-Penrose inverse of a symmetric PSD matrix via eigendecomposition,
    the eigenvalues `sym_eigh` does not count being zero."""
    lam, vec, keep = sym_eigh(mat)
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

    L is k x r, r >= 0; r below is the rank of the rows with a finite u_i
    (an infinite bound drops its row).  The kinks are the x where r + 1 of
    the conditional hyperplanes in eps-space meet in one point: n'u / n'g
    for every (r + 1)-subset of finite rows of rank r, n spanning the null
    space of their L'.  Rank 0 gives every finite u_i / g_i (the two
    binding ends of 1{g x <= u}, the rest spare edges), rank 1 the
    crossings of two bounds (u_i - g_i x) / L_i, any rank the sign flip
    u_i / g_i of a zero-loading row (n = e_i).  At rank 2 they are where
    the polygon of `_polygon_rows` changes shape, at k >= 4 and rank >= 3
    (sampled) spare edges of the draws' x-rule.  Full row rank: none.
    """
    r = L.shape[1]
    if r == len(u):
        return []   # rows of a full-rank factor are independent
    # an infinite bound drops its coordinate, and with it its kinks
    finite = np.flatnonzero(np.isfinite(u))
    rows = np.array(list(combinations(finite, r + 1)), dtype=int)
    if rows.size:
        _, sv, vt = np.linalg.svd(L[rows].transpose(0, 2, 1))
        full = (sv > 1e-13 * sv[:, :1]).all(axis=1)
        if full.any():
            n = vt[:, -1:]
            num = (n @ u[rows][..., None]).ravel()
            den = (n @ g[rows][..., None]).ravel()
            keep = full & (np.abs(den) > 1e-13 * max(np.abs(g).max(), 1.0))
            return (num[keep] / den[keep]).tolist()
    # no r + 1 finite rows of rank r: full row rank has no kink, a lower
    # rank the kinks of L reduced to it
    _, s, v = np.linalg.svd(L[finite], full_matrices=False)
    rank = np.count_nonzero(s > 1e-13 * max(np.abs(L).max(initial=0.0), 1.0))
    if rank == min(r, len(finite)):
        return []
    return conditional_kinks(u, g, L @ v[:rank].T)


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
    """Whether `orthant_rows` (exact at rank <= 2 and in dimension <= 3)
    cannot evaluate a k-variate orthant of rank r: only at k >= 4 with
    rank >= 3.  An unconditional one is conditioned once more
    (`gaussian_rect_rows`): it samples only at rank >= 4."""
    return k >= 4 and r >= 3


class ScaleMass:
    """A scale mass K(y) -> (K25, G12 parts) of a `conditional_rows` rule.

    It comes in two halves: rows(y) -> (r, len(y)), the values K is formed
    from at each argument, which a `NodeMemo` may keep at the rule's nodes,
    and reduce(y, rows), which forms the two parts from them.  A closed form
    has one row, read as both parts.
    """

    def __init__(self, rows, reduce=None):
        self.rows = rows
        self.reduce = reduce or (lambda y, r: (r[0], r[0]))

    def __call__(self, y):
        return self.reduce(y, self.rows(y))


def cumulative_sums(fx: np.ndarray, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The K25 and G12 integrals, from edges[0] to each edge, of the
    integrand whose values at the nodes of `gl_panels`(edges) are fx."""
    _, wk, wg = gl_panels(edges)
    return tuple(np.concatenate([[0.0], np.cumsum((fx * w).reshape(-1, NODES_PER_PANEL).sum(1))])
                 for w in (wk, wg))


def cumulative_rule(f, edges: np.ndarray, cum=None) -> ScaleMass:
    """H(y) = integral of f from edges[0] to y, as its K25 and G12 parts.

    f is integrated on the K25 panels of ``edges`` (`cumulative_sums`, or
    ``cum`` if already known); a y inside a panel closes the sum of the
    panels below it with a partial panel of the same rule, whose embedded
    G12 nodes give the G12 part, so H can be read at any array of points
    and returns (K25, G12) arrays.  H is 0 at and below edges[0] and the
    total at and above edges[-1].  As a `ScaleMass` its rows at y are f at
    the partial panel's NODES_PER_PANEL nodes (0 outside the edges), and
    reduce sums them.  Its one caller is
    `dist_exact._ExactEngine._scale_mass`, the scale mass that the exact
    cdf hands to its `conditional_rows` rule, for every order but the last
    (whose scale mass is the ratio density's cdf in closed form).
    """
    cum = cumulative_sums(f(gl_panels(edges)[0]), edges) if cum is None else cum

    def partial(y):
        """The inside arguments, and the panel and half-width of each one's partial panel."""
        inside = (y > edges[0]) & (y < edges[-1])
        yi = y[inside]
        j = np.minimum(np.searchsorted(edges, yi, side="right") - 1, edges.size - 2)
        return inside, j, 0.5 * (yi - edges[j])

    def rows(y):
        y = np.asarray(y, dtype=float)
        out = np.zeros((NODES_PER_PANEL, y.size))
        inside, j, half = partial(y)
        if inside.any():
            xs = edges[j][:, None] + half[:, None] * (_K_X + 1.0)[None, :]
            out[:, inside] = f(xs.ravel()).reshape(xs.shape).T
        return out

    def reduce(y, fs):
        y = np.asarray(y, dtype=float)
        out = [np.where(y >= edges[-1], c[-1], 0.0) for c in cum]
        inside, j, half = partial(y)
        if inside.any():
            fs = np.ascontiguousarray(fs[:, inside].T)
            for o, c, w in zip(out, cum, (_K_W, _G_W)):
                o[inside] = c[j] + half * (fs @ w)
        return out

    return ScaleMass(rows, reduce)


def error_floor(trace, truncated: float = 0.0):
    """The part of a trace's error bound that no bisection reduces: the
    dropped mass of its orders, the mass ``truncated`` outside every rule
    (the exact cdf's scale mass) and ROUNDING, per row if batched."""
    return trace.errors.sum(axis=0) + truncated + ROUNDING


def refine(assemble, rules, tol: float, truncated: float = 0.0):
    """The one refinement loop: globally adaptive bisection, row by row.

    rules lists every panel rule of the evaluation, each as its `Panels`
    over the rows, and assemble() -> a `dist_exact.TermTrace` (with a
    trailing axis of rows if batched) reads their current sums.  Row j's
    gap is the sum of its panels' estimates.  A row is live while its gap
    is at least tol/2 and its `error_floor` (with ``truncated``) plus its
    sampling error, summed over the orders, is within tol: no bisection
    reduces either, so a row whose floor misses tol is not bisected at
    all.  While a row is live and fewer than MAX_ROUNDS rounds have run,
    each round bisects the row's panels whose estimate is at least tol/2
    over the row's panel count, of which there is one whenever the gap is
    that large.  A row's panels move only on its own figures, so a batched
    row equals its one-row call.  Returns (trace, gaps over the rows,
    rounds run).
    """
    rounds = 0
    while True:
        trace = assemble()
        gaps = np.zeros(np.size(trace.total))
        for rule in rules:
            gaps += [panels.gap for panels in rule]
        fixed = error_floor(trace, truncated) + trace.sampling.sum(axis=0)
        live = (gaps >= 0.5 * tol) & (np.atleast_1d(fixed) <= tol)
        if rounds == MAX_ROUNDS or not live.any():
            return trace, gaps, rounds
        rounds += 1
        for j in np.flatnonzero(live):
            cut = 0.5 * tol / sum(rule[j].size for rule in rules)
            for rule in rules:
                rule[j].bisect(cut)


def orthant_rows(U: np.ndarray, S: np.ndarray, L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P(R <= u) for every row u of U, R ~ N(0, S) with L a factor of S.

    Deterministic wherever the dimension allows: numerical rank 0 is an
    indicator, rank 1 an interval of the normal cdf, a full-rank bivariate
    R the bivariate normal cdf, rank 2 in any dimension k >= 3 a standard
    bivariate normal over a convex polygon in closed form
    (`_polygon_rows`), and a full-rank trivariate R Genz's one-dimensional
    trivariate normal cdf (`_trivariate_rows`).  Returns the values at
    K25 and at G12, which differ only for the trivariate path integral:
    the closed forms return one array twice.  Other ranks raise ValueError:
    sampling is left only at k >= 4 with conditional rank >= 3
    (unconditional rank >= 4), see `needs_sampling`.  Its callers are
    `gaussian_rect_rows` and the `conditional_rows` rule, which
    integrates it over the selection scalar.
    """
    k, r = U.shape[1], L.shape[1]
    if r == 0:
        v = np.all(U >= 0.0, axis=1).astype(float)
    elif r == 1:
        lo, hi = rank1_bounds(U, L[:, 0])
        v = np.maximum(ndtr(hi) - ndtr(lo), 0.0)
    elif k == 2:
        s = np.sqrt(np.diag(S))
        v = bvn_cdf(U[:, 0] / s[0], U[:, 1] / s[1], S[0, 1] / (s[0] * s[1]))
    elif r == 2:
        v = _polygon_rows(U, L)
    elif k != 3:
        raise ValueError(f"no deterministic rule for a rank-{r} covariance of dimension {k}")
    else:
        return _trivariate_rows(U, S)
    return v, v


def _polygon_rows(U: np.ndarray, L: np.ndarray) -> np.ndarray:
    """P(L eps <= u) for every row u of U, eps ~ N(0, I_2) and L of shape (k, 2).

    Row i of L is the half-plane rho cos(theta - phi_i) <= d_i in polar
    coordinates, phi_i the angle of L_i and d_i = u_i / |L_i| the signed
    distance of its line, so the orthant is a convex polygon.  Between two
    consecutive breakpoint angles (each line's perpendiculars phi_i +/- pi/2,
    each vertex direction and its opposite) one line bounds the ray from
    above, at most one from below, and the binding pair is read at the
    midpoint, in a loop over the k lines on (rows x pieces) arrays.  A line
    at distance h bounds the ray at h / cos(theta - phi), and the mass
    beyond it on a piece is (Owen 1956; DiDonato, Jarnagin & Hageman 1980)

        1/(2 pi) int exp(-h^2 / (2 cos^2(theta - phi))) dtheta
            = T(h, tan(theta_2 - phi)) - T(h, tan(theta_1 - phi)),

    with theta - phi reduced into its branch at the midpoint and clipped to
    [-pi/2, pi/2] (tan just past -pi/2 is large and positive).  Over a run
    of consecutive pieces bound by one line these differences telescope, so
    T is evaluated only at the run's two ends, one difference per run (kept
    apart from the other runs' so that nearly equal T values of a far
    polygon cancel before they are summed).  A row with
    a -inf coordinate is 0, a +inf coordinate drops its line, and a
    zero-loading coordinate drops its line after requiring u_i >= 0.
    """
    m, k = U.shape
    norm = np.hypot(L[:, 0], L[:, 1])
    live = norm > 1e-13 * max(float(norm.max()), 1.0)
    phi = np.arctan2(L[:, 1], L[:, 0])
    D = np.where(live & ~np.isposinf(U), U / np.where(live, norm, 1.0), np.inf)
    # breakpoints; a vertex of parallel or dropped lines is a spare edge
    Uf = np.where(np.isfinite(U), U, 0.0)
    i, j = np.triu_indices(k, 1)
    vert = np.arctan2(L[i, 0] * Uf[:, j] - L[j, 0] * Uf[:, i],
                      Uf[:, i] * L[j, 1] - Uf[:, j] * L[i, 1])
    perp = np.broadcast_to(np.concatenate([phi - 0.5 * np.pi, phi + 0.5 * np.pi]), (m, 2 * k))
    t1 = np.sort(np.concatenate([perp, vert, vert + np.pi], axis=1) % (2.0 * np.pi), axis=1)
    t2 = np.concatenate([t1[:, 1:], t1[:, :1] + 2.0 * np.pi], axis=1)
    tm = 0.5 * (t1 + t2)
    # the binding lines of every piece, one line at a time: line n bounds
    # the ray at d_n / cos(tm - phi_n), from above where the cosine is
    # positive and from below where it is negative
    hi, lo = np.full(tm.shape, np.inf), np.zeros(tm.shape)
    iu, il = np.zeros(tm.shape, dtype=int), np.zeros(tm.shape, dtype=int)
    ct, st = np.cos(tm), np.sin(tm)
    with np.errstate(divide="ignore", invalid="ignore"):
        for n in range(k):
            c = ct * np.cos(phi[n]) + st * np.sin(phi[n])
            bound = D[:, n:n + 1] / c
            up = (c > 0.0) & (bound < hi)
            hi, iu = np.where(up, bound, hi), np.where(up, n, iu)
            down = (c < 0.0) & (bound > lo)
            lo, il = np.where(down, bound, lo), np.where(down, n, il)
    open_ = hi > lo

    def beyond(mask, line, h, ph):
        """Per row, the summed Owen's T differences of the pieces in mask
        for their lines (h, ph): one difference per maximal run of pieces
        bound by one line, from its first piece's start to its last piece's
        end, since inside a run they telescope."""
        same = mask[:, 1:] & mask[:, :-1] & (line[:, 1:] == line[:, :-1])
        first, last = mask.copy(), mask.copy()
        first[:, 1:] &= ~same
        last[:, :-1] &= ~same
        (r0, q0), (r1, q1) = np.nonzero(first), np.nonzero(last)
        r, q = np.concatenate([r1, r0]), np.concatenate([q1, q0])
        n = line[r, q]
        psi = (tm[r, q] - ph[n] + np.pi) % (2.0 * np.pi) - np.pi
        end = np.concatenate([t2[r1, q1], t1[r0, q0]])
        t = owens_t(h[r, n], np.tan(np.clip(psi + (end - tm[r, q]), -0.5 * np.pi, 0.5 * np.pi)))
        return np.bincount(r0, weights=t[:r0.size] - t[r0.size:], minlength=m)

    total = (np.where(open_ & (lo == 0.0), (t2 - t1) / (2.0 * np.pi), 0.0).sum(axis=1)
             + beyond(open_ & (lo > 0.0), il, -D, phi + np.pi)
             - beyond(open_ & np.isfinite(hi), iu, D, phi))
    dead = np.any(np.isneginf(U) | (~live & (U < 0.0)), axis=1)
    return np.where(dead, 0.0, np.clip(total, 0.0, 1.0))


def _trivariate_rows(U: np.ndarray, S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P(R <= u) for every row u of U, R ~ N(0, S) trivariate of full rank.

    Plackett's (1954) identity integrated along Genz's (2004) sine path:
    with h = u / sd(R) and the coordinates ordered so that |rho_23| is the
    largest correlation, rho_12 = sin(a_12 x) and rho_13 = sin(a_13 x)
    (a = arcsin rho) move together from 0 at x = 0, so

        P(R <= u) = Phi(h_1) Phi_2(h_2, h_3; rho_23)
                    + 1/(2 pi) int_0^1 [a_12 f_12(x) + a_13 f_13(x)] dx.

    f_1i = exp(-F/2) Phi(B) is 2 pi cos(a_1i x) times the bivariate density
    of (h_1, h_i) times the conditional cdf of the third coordinate at its
    bound (Genz's PNTGND), 0 where the path's determinant is not positive.
    The x-integral runs on one K25 panel of [0, 1], split at 1 - 2^-l to
    resolve the fall of det R(x) to a small det R near x = 1, and returns
    the values at K25 and at G12, whose difference the enclosing rule's
    estimate carries.  On the panel the integrand is smooth enough that
    the two parts agree at rounding level (within 1e-14 down to
    lambda_min(R) = 1e-10), so the path rule is never bisected.  A row
    with a -inf coordinate is 0; +inf coordinates are dropped, which leaves
    the bivariate or univariate cdf of the rest (`bvn_cdf`), the same in
    both.
    """
    sd = np.sqrt(np.diag(S))
    H = U / sd
    C = np.clip(S / np.outer(sd, sd), -1.0, 1.0)
    out = np.zeros((2, len(H)))
    top = np.isposinf(H)
    live = ~np.any(np.isneginf(H), axis=1)
    first = np.argmax(top, axis=1)
    for i in range(3):
        a, b = [c for c in range(3) if c != i]
        rows = live & top[:, i] & (first == i)
        out[:, rows] = bvn_cdf(H[rows, a], H[rows, b], C[a, b])
    rows = live & ~np.any(top, axis=1)
    o = int(np.argmax(np.abs([C[1, 2], C[0, 2], C[0, 1]])))
    perm = [o] + [c for c in range(3) if c != o]
    h1, h2, h3 = H[np.ix_(rows, perm)].T
    R = C[np.ix_(perm, perm)]
    val = 2 * [ndtr(h1) * bvn_cdf(h2, h3, R[1, 2])]    # at K25 and at G12
    ang = np.arcsin([R[0, 1], R[0, 2]])
    rb = R[1, 2]
    # det R(x) falls to det R at x = 1 within about det R / -det R'(1) of
    # it: extra edges at 1 - 2^-l, l = 1, 2, ..., down to that width (or to
    # rounding) resolve the layer that equal panels miss
    r2, r3 = np.sin(ang)
    d2, d3 = ang * np.cos(ang)
    slope = 2.0 * (rb * (d2 * r3 + r2 * d3) - r2 * d2 - r3 * d3)
    det = 1.0 - r2 * r2 - r3 * r3 - rb * rb + 2.0 * r2 * r3 * rb
    layers = 0
    while layers < 52 and -slope * 0.5 ** layers > det:
        layers += 1
    x, wk, wg = gl_panels(split_edges(np.array([0.0, 1.0]),
                                      1.0 - 0.5 ** np.arange(1, layers + 1)))
    path = np.sin(np.outer(ang, x))           # rho_12(x), rho_13(x)
    cos2 = np.cos(np.outer(ang, x)) ** 2      # 1 - rho^2, without cancellation
    for i, (hi, hc) in enumerate(((h2, h3), (h3, h2))):
        if ang[i] == 0.0:
            continue
        r, rr, ra = path[i], cos2[i], path[1 - i]
        dt = rr * (rr - (ra - rb) ** 2 - 2.0 * ra * rb * (1.0 - r))
        keep = dt > 0.0
        r, rr, ra = r[keep], rr[keep], ra[keep]
        root = np.sqrt(dt[keep])
        ft = (h1[:, None] - r * hi[:, None]) ** 2 / rr + hi[:, None] ** 2
        bt = (np.outer(hc, rr / root) + np.outer(h1, (r * rb - ra) / root)
              + np.outer(hi, (r * ra - rb) / root))
        f = ang[i] / (2.0 * np.pi) * np.exp(-0.5 * ft) * ndtr(bt)
        val = [v + f @ w[keep] for v, w in zip(val, (wk, wg))]
    out[:, rows] = np.clip(val, 0.0, 1.0)
    return out[0], out[1]


def philox(key: int, stream: int = 0) -> np.random.Generator:
    """Generator on the counter-based Philox stream keyed by (key, stream)."""
    return np.random.Generator(np.random.Philox(key=np.array([key, stream], dtype=np.uint64)))


def gauss_draws(rng: np.random.Generator, n: int, L: np.ndarray) -> np.ndarray:
    """n draws (rows) of R = L eps, eps ~ N(0, I_r), from rng: the one
    Gaussian sampler of the cdf evaluators."""
    return rng.standard_normal((n, L.shape[1])) @ L.T


def conditional_rows(U: np.ndarray, g: np.ndarray, S: np.ndarray, L: np.ndarray,
                     x0: float, c: float, s_breaks, K: ScaleMass, R=None,
                     memo: NodeMemo | None = None):
    """The one conditioned-orthant kernel: the rule of
    int phi(x) K(|x - x0| / c) P(R <= u - g x) dx for every row u of U,
    R ~ N(0, S = L L') independent of X ~ N(0, 1).

    The order-p test rejects at scale s when |x - x0| >= c s; the
    `ScaleMass` K(y) -> (K25, G12 parts) is the mass of the scales it
    rejects at (rising from 0 to at most 1, steepest near the scales
    ``s_breaks``).  A row's x-rule is a `Panels` on the `panel_edges` of
    [-TAIL_CUT, TAIL_CUT] with extra edges at x0, at x0 +/- c s for each s
    in s_breaks and at the row's `conditional_kinks`; its components are
    the term and pi, the integral without the orthant.  Its factors are
    phi(x) and K's rows at each node, which depend on no row: a `NodeMemo`
    ``memo`` keeps them on the layout without the kinks, shared by every
    row and call with the same x0, c and s_breaks.  The orthant is
    `orthant_rows` at every x-node or, given draws R (rows), the share of
    the draws whose x-interval {x : g x <= u - R} holds the node.  Returns
    the rows' `OrderTerm`: the x-rules, the error the dropped x-mass, the
    SE 0 without draws and else that of the draws' interval weights on the
    first pass, at least 1/len(R), as no draw may land in a rare region.
    """
    s = np.asarray(s_breaks, dtype=float)
    base = panel_edges(-TAIL_CUT, TAIL_CUT)
    breaks = [x0, *(x0 - c * s), *(x0 + c * s)]
    if memo is not None and memo.edges is None:
        memo.bind(split_edges(base, breaks))
    panels, ses = [], np.zeros(len(U))

    def factors(x):
        return np.vstack([norm_pdf(x)[None], K.rows(np.abs(x - x0) / c)])

    for j, u in enumerate(U):
        edges = split_edges(base, [*breaks, *conditional_kinks(u, g, L)])

        if R is None:
            def orthant(x, u=u):
                return orthant_rows(u[None, :] - np.outer(x, g), S, L)
        else:
            lo, hi = rank1_bounds(u[None, :] - R, g)
            hit = lo <= hi
            lo_s, hi_s, n = np.sort(lo[hit]), np.sort(hi[hit]), len(R)

            def orthant(x, lo_s=lo_s, hi_s=hi_s, n=n):
                share = (np.searchsorted(lo_s, x, side="right")
                         - np.searchsorted(hi_s, x, side="left")) / n
                return share, share

            x, wk, _ = gl_panels(edges)
            cum = np.concatenate([[0.0], np.cumsum(wk * norm_pdf(x) * K(np.abs(x - x0) / c)[0])])
            w = np.maximum(cum[np.searchsorted(x, hi, side="right")]
                           - cum[np.searchsorted(x, lo)], 0.0)
            ses[j] = max(float(np.std(w) / np.sqrt(n)), 1.0 / n)

        def f(x, a, orthant=orthant):
            kk, kg = (a[0] * m for m in K.reduce(np.abs(x - x0) / c, a[1:]))
            ok, og = orthant(x)
            return np.array([kk * ok, kk]), np.array([kg * og, kg])

        panels.append(Panels(f, edges, factors, memo))
    return OrderTerm(None, None, 2.0 * float(ndtr(-TAIL_CUT)), ses, tuple(panels))


def gaussian_rect_rows(U: np.ndarray, cov: np.ndarray, *, rng=None,
                       n_samples: int = 200_000) -> tuple[np.ndarray, np.ndarray]:
    """Lower-orthant probabilities P(Z <= u) for every row u of U, Z ~ N(0, cov).

    cov is PSD, possibly singular.  Where it `needs_sampling` (k >= 4,
    rank >= 3), Z is conditioned on its coordinate of largest variance,
    which `conditional_rows` integrates exactly: deterministic at rank 3,
    whose conditional orthant is a rank-2 polygon, and at rank >= 4 on one
    seeded sample of n_samples draws (Philox key (0, 0) unless ``rng`` is
    given) shared by all rows.  There is no refinement loop: the x-rule
    runs one K25 pass on its `panel_edges` and a full-rank trivariate
    orthant one path panel (`_trivariate_rows`), each with an error at
    rounding level.  Returns (probabilities, standard_errors), where it
    conditions the terms and SE of the rule's `OrderTerm`: the SE is 0
    where deterministic, else at least 1/n_samples.
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    m, k = U.shape
    L = psd_factor(cov)
    if not needs_sampling(k, L.shape[1]):
        return orthant_rows(U, cov, L)[0], np.zeros(m)
    j = int(np.argmax(np.diag(cov)))
    g, S, L = condition_on_scalar(cov, cov[:, j], float(cov[j, j]))
    rng = philox(0) if rng is None else rng
    R = gauss_draws(rng, n_samples, L) if needs_sampling(k, L.shape[1]) else None
    term = conditional_rows(U, g, S, L, 0.0, 1.0, (), ScaleMass(lambda y: np.ones((1, y.size))), R)
    return term.parts()[0], term.se


def gaussian_rect(upper: np.ndarray, cov: np.ndarray, *, rng=None,
                  n_samples: int = 200_000) -> tuple[float, float]:
    """Lower-orthant probability P(Z <= upper): the one-row `gaussian_rect_rows`."""
    p, se = gaussian_rect_rows(upper, cov, rng=rng, n_samples=n_samples)
    return float(p[0]), float(se[0])
