"""Internal Gaussian / quadrature numerics used by the distribution modules.

Everything here is generic probability plumbing, and the one place the
package computes Gaussian probabilities: normal cdfs, bivariate rectangle
probabilities, rank-aware lower-orthant probabilities for possibly singular
Gaussian vectors (rank 2 in any dimension in closed form, a bivariate
normal over a convex polygon as a sum of Owen's T over its edges; a full-rank
trivariate one by Genz's one-dimensional form of Plackett's identity), the
one conditioned-orthant kernel and Gaussian sampler, and composite panel
rules with their one refinement loop.  Sampling is left only at k >= 4
with conditional rank >= 3 (unconditional rank >= 4).

Every panel rule is the 25-node Kronrod extension (K25) of the 12-node
Gauss-Legendre rule (G12), computed by Laurie's (1997) algorithm: the G12
nodes are K25 nodes, so one evaluation gives both, a rule reports its K25
value and |K25 - G12| is its error estimate (QUADPACK's QAG, Piessens et
al. 1983).  Inner rules (the s-panels of `cumulative_rule`, the path
rule of `_Trivariate`) return both parts as well, so the estimate
of an outer rule covers the whole nested term.  The outer rules (the
x-rules of `conditional_rows`) and the s-panels (the exact cdf's scale
tables, `cumulative_sums`) start from the PANELS equal panels of
`panel_edges` plus their break points; the path rule is one panel of
[0, 1] plus the edges of its determinant layer.  An outer rule
integrates q order terms, then their q weights, and its estimate covers
the terms.  `refine` bisects the outer panels whose estimates are large,
row by row, and stops a row at its error floor: the error no bisection
reduces (`error_floor`).  Each
order's part of a cdf is one `OrderTerm`, a closed form's or a rule's.
A rule's integrand is split into factors that no argument t moves and
the rest; a `NodeMemo` keeps the factors at every node of a t-free
layout from its second read on, so a caller that evaluates many t at one
parameter point computes them on its first two reads only.  Likewise a
conditioned orthant (`ConditionedOrthant`) is a record of one split that
keeps what no u moves: the kink rule's null vectors and denominators per
pattern of finite coordinates, the interval loads, and the constants of
its orthant kernel (`orthant_kernel`: the polygon's pairwise cosines and
sines of its normals, the trivariate path rule); a call supplies only its
rows u.
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
_KG_W = np.array([_K_W, _G_W])


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
    pass reads them through it (`NodeMemo.read`); `bisect` evaluates its
    halves afresh.  Every panel keeps its K25 sums of fk and its G12 sums
    of fg.  ``total`` is the K25 integral of every component;
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
        if memo is None:
            x, wk, wg = _panel_nodes(lo, hi)
            a = self.factors(x)
        else:
            x, wk, wg, a = memo.read(lo, hi, self.factors)
        fk, fg = self.f(x, a)
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
    particular t (set by the caller on first use when None).  The first
    read evaluates factors(x) at the caller's nodes and stores nothing, so
    a layout read once costs nothing extra; the second evaluates them at
    every node of the layout in one call (``values``, the factors at
    `gl_panels`(edges)) and keeps those nodes and weights (``nodes``),
    both read-only.  From then on a read of the layout itself returns
    ``nodes`` and ``values`` as they are, and any other read takes the
    caller's panels that are panels of the layout from ``values`` and
    evaluates the rest, the panels its break points split, afresh, at
    nodes formed for all its panels (which costs less than gathering the
    kept ones).  Split and bisected panels are never stored, so the memo
    holds one layout however many t it serves.  Each panel's nodes come
    from its two ends alone and each node's factors from elementwise
    operations on that node alone, so a read equals a fresh evaluation bit
    for bit.
    """

    def __init__(self, edges: np.ndarray | None = None):
        self.edges, self.values, self.nodes, self.seen = edges, None, None, False

    def read(self, lo: np.ndarray, hi: np.ndarray, factors):
        """(x, wk, wg, a): the nodes and weights of `gl_panels` on the
        panels [lo_i, hi_i] of a layout inside the memo's, and factors(x)."""
        if not self.seen:
            self.seen = True
            x, wk, wg = _panel_nodes(lo, hi)
            return x, wk, wg, factors(x)
        if self.values is None:
            self.nodes = np.array(gl_panels(self.edges))
            self.values = factors(self.nodes[0])
            self.nodes.setflags(write=False)
            self.values.setflags(write=False)
        j = np.minimum(np.searchsorted(self.edges, lo), self.edges.size - 2)
        fresh = (self.edges[j] != lo) | (self.edges[j + 1] != hi)
        n = np.count_nonzero(fresh)
        if not n and lo.size == self.edges.size - 1:
            return (*self.nodes, self.values)
        x, wk, wg = _panel_nodes(lo, hi)
        if n == lo.size:
            return x, wk, wg, factors(x)
        a = self.values.reshape(len(self.values), -1, NODES_PER_PANEL)[:, j]
        if n:
            a[:, fresh] = factors(x.reshape(lo.size, -1)[fresh].ravel()).reshape(len(a), n, -1)
        return x, wk, wg, a.reshape(len(a), -1)


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
    extra = np.asarray(breaks, dtype=float).ravel()
    extra = extra[(lo < extra) & (extra < hi)]
    if not extra.size:
        return base
    edges = np.sort(np.concatenate([base, extra]))
    # drop edges closer than a sliver of the range to their neighbor, or equal
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


class _Interval:
    """{x : load * x <= u coordinatewise} for every row u of a U: the kept
    signs of the loads.

    Called on U it returns (lo, hi) arrays over the rows.  Coordinates with
    negligible loading require u >= 0 outright; a row violating that gets
    the empty interval (inf, -inf).  The masks and loads depend on the
    load alone, and a call divides by the kept loads, so it equals a fresh
    evaluation bit for bit.
    """

    def __init__(self, load: np.ndarray):
        tol = 1e-13 * max(float(np.abs(load).max()), 1.0)
        self.pos, self.neg = load > tol, load < -tol
        zero = ~(self.pos | self.neg)
        self.zero = zero if zero.any() else None
        self.up, self.down = load[self.pos], load[self.neg]

    def __call__(self, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        m = U.shape[0]
        hi = (U[:, self.pos] / self.up).min(axis=1) if self.up.size else np.full(m, np.inf)
        lo = (U[:, self.neg] / self.down).max(axis=1) if self.down.size else np.full(m, -np.inf)
        if self.zero is None:
            return lo, hi
        bad = np.any(U[:, self.zero] < 0.0, axis=1)
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


def kink_normals(g: np.ndarray, L: np.ndarray, finite: np.ndarray):
    """The t-free half of `conditional_kinks` for one pattern of finite
    coordinates (indices ``finite``): (rows, n, den), or None where there
    is no kink.

    Z = g X + L eps with L k x r, r >= 0; r below is the rank of the rows
    ``finite`` (an infinite bound drops its row).  The kinks are the x
    where r + 1 of the conditional hyperplanes in eps-space meet in one
    point: n'u / n'g for every (r + 1)-subset of finite rows of rank r, n
    spanning the null space of their L'.  Each kept subset's row indices,
    its null vector n and the denominator den = n'g depend on g and L
    alone; a subset of lower rank or with n'g ~ 0 is dropped.  Where no
    r + 1 finite rows have rank r, a full row rank has no kink and a lower
    rank the kinks of L reduced to it.
    """
    while L.shape[1] < g.size:
        r = L.shape[1]
        rows = np.array(list(combinations(finite, r + 1)), dtype=int)
        if rows.size:
            _, sv, vt = np.linalg.svd(L[rows].transpose(0, 2, 1))
            full = (sv > 1e-13 * sv[:, :1]).all(axis=1)
            if full.any():
                n = vt[:, -1:]
                den = (n @ g[rows][..., None]).ravel()
                keep = full & (np.abs(den) > 1e-13 * max(np.abs(g).max(), 1.0))
                return (rows[keep], n[keep], den[keep]) if keep.any() else None
        _, s, v = np.linalg.svd(L[finite], full_matrices=False)
        rank = np.count_nonzero(s > 1e-13 * max(np.abs(L).max(initial=0.0), 1.0))
        if rank == min(r, len(finite)):
            return None
        L = L @ v[:rank].T
    return None   # rows of a full-rank factor are independent


def conditional_kinks(u: np.ndarray, orthant: ConditionedOrthant) -> list[float]:
    """x-values where P(Z <= u | X = x) is not smooth, for the split
    Z = g X + L eps of ``orthant``: n'u / den for every kept subset of
    `kink_normals` of u's finite coordinates, which the orthant builds on
    the first row with that pattern and keeps.

    Rank 0 gives every finite u_i / g_i (the two binding ends of
    1{g x <= u}, the rest spare edges), rank 1 the crossings of two bounds
    (u_i - g_i x) / L_i, any rank the sign flip u_i / g_i of a
    zero-loading row (n = e_i).  At rank 2 they are where three lines of
    the polygon of `_Polygon` meet, so that an edge appears or vanishes,
    at k >= 4 and rank >= 3 (sampled) spare edges of the draws' x-rule.
    """
    normals = orthant.normals(np.isfinite(u))
    if normals is None:
        return []
    rows, n, den = normals
    return ((n @ u[rows][..., None]).ravel() / den).tolist()


def ray_interval_prob(lo, hi, a, b):
    """P(lo <= X <= hi, X <= a or X >= b) for X ~ N(0, 1), with a <= b.

    The interval [lo, hi] (empty when lo > hi) meets the two rays in closed
    form; all arguments broadcast.  It is the rank-0 term of the limit
    cdf at its one scale (the exact cdf integrates it over the scale
    through its tables, `dist_exact._ExactEngine._term_k1`): Z = g X lies
    in its orthant on the interval `_Interval` gives, and the order's test
    rejects outside (a, b).
    """
    return (np.maximum(ndtr(np.minimum(hi, a)) - ndtr(lo), 0.0)
            + np.maximum(ndtr(hi) - ndtr(np.maximum(lo, b)), 0.0))


def needs_sampling(k: int, r: int) -> bool:
    """Whether `orthant_kernel` (exact at rank <= 2 and in dimension <= 3)
    cannot evaluate a k-variate orthant of rank r: only at k >= 4 with
    rank >= 3.  An unconditional one is conditioned once more
    (`gaussian_rect_rows`): it samples only at rank >= 4."""
    return k >= 4 and r >= 3


def cumulative_sums(fx: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The K25 and G12 integrals, from edges[0] to each edge, of the
    integrands whose values at the nodes of `gl_panels`(edges) are fx (the
    last axis the nodes, any rows before it): one array, the K25 part
    first, each panel's sum formed as `cumulative_rule`'s partial panel."""
    rows = fx.shape[:-1]
    sums = (_KG_W @ fx.reshape(-1, NODES_PER_PANEL).T).reshape(2, *rows, -1)
    sums *= 0.5 * (edges[1:] - edges[:-1])
    out = np.zeros((2, *rows, edges.size))
    np.cumsum(sums, axis=-1, out=out[..., 1:])
    return out


def partial_panels(edges: np.ndarray, y: np.ndarray):
    """The arguments y strictly inside [edges[0], edges[-1]] (a mask over
    y), and for each, in the mask's order, its panel j and the half-width
    and K25 nodes (a row each) of its partial panel [edges[j], y]."""
    inside = (y > edges[0]) & (y < edges[-1])
    yi = y[inside]
    j = np.minimum(np.searchsorted(edges, yi, side="right") - 1, edges.size - 2)
    half = 0.5 * (yi - edges[j])
    return inside, j, half, edges[j][:, None] + half[:, None] * (_K_X + 1.0)[None, :]


def close_partial(c: np.ndarray, j: np.ndarray, half: np.ndarray, fs: np.ndarray):
    """The K25 and G12 integrals to each argument of `partial_panels`:
    ``c`` the `cumulative_sums` of the integrands (the K25 part first, any
    rows before the edges), closed at panel j by the partial panel whose
    integrand values are ``fs`` (the rows, then one row of nodes per
    argument)."""
    return [part[..., j] + half * (fs @ w) for part, w in zip(c, (_K_W, _G_W))]


def cumulative_rule(f, edges: np.ndarray, cum: np.ndarray):
    """H(y) = integral of f from edges[0] to y, as its K25 and G12 parts.

    ``cum`` is f's `cumulative_sums` on ``edges``, made once by the
    caller; a y inside a panel closes the sum of the panels below it with
    a partial panel of the same rule (its G12 nodes give the G12 part),
    found once per read (`partial_panels`).  H is 0 at and below
    edges[0] and the total at and above edges[-1], without evaluating f.
    f(x) may have m rows, with ``cum`` of m rows, and each part then a
    row per integrand.  As the scale mass of a `conditional_rows` rule,
    y -> (K25, G12), the exact cdf reads its scale masses through it
    (`dist_exact._ExactEngine._scale_mass`).
    """
    rows = cum[0].shape[:-1]

    def read(y):
        y = np.asarray(y, dtype=float)
        out = np.where(y >= edges[-1], cum[..., -1:], 0.0)
        inside, j, half, xs = partial_panels(edges, y)
        if inside.any():
            fs = f(xs.ravel()).reshape(*rows, *xs.shape)
            out[..., inside] = close_partial(cum, j, half, fs)
        return out

    return read


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
    is at least tol/2, its `error_floor` (with ``truncated``) plus its
    sampling error, summed over the orders, is within tol, and it has run
    fewer than MAX_ROUNDS rounds: no bisection reduces the floor, so a row
    whose floor misses tol is not bisected at all.  Each round bisects
    every live row's panels whose estimate is at least tol/2 over the
    row's panel count, of which there is one whenever the gap is that
    large.  A row's panels move only on its own figures, so a batched row
    equals its one-row call, rounds included.  Without rules there is
    nothing to bisect: one assemble().  Returns (trace, gaps over the
    rows, the rounds each row ran).
    """
    trace = assemble()
    gaps = np.zeros(np.size(trace.total))
    rounds = np.zeros(gaps.size, dtype=int)
    if not rules:
        return trace, gaps, rounds
    while True:
        gaps = np.zeros(gaps.size)
        for rule in rules:
            gaps += [panels.gap for panels in rule]
        fixed = error_floor(trace, truncated) + trace.sampling.sum(axis=0)
        live = (gaps >= 0.5 * tol) & (np.atleast_1d(fixed) <= tol) & (rounds < MAX_ROUNDS)
        if not live.any():
            return trace, gaps, rounds
        rounds += live
        for j in np.flatnonzero(live):
            cut = 0.5 * tol / sum(rule[j].size for rule in rules)
            for rule in rules:
                rule[j].bisect(cut)
        trace = assemble()


def orthant_kernel(S: np.ndarray, L: np.ndarray):
    """The kernel of P(R <= u), R ~ N(0, S) with L (k x r) a factor of S:
    everything of it that no u moves, built once.

    Called on the rows U it returns the values at K25 and at G12, which
    differ only for the trivariate path integral: the closed forms return
    one array twice.  Deterministic wherever the dimension allows:
    numerical rank 0 is an indicator, rank 1 an interval of the normal cdf
    (`_Rank1`), a full-rank bivariate R the bivariate normal cdf
    (`_Bivariate`), rank 2 in any dimension k >= 3 a standard bivariate
    normal over a convex polygon in closed form, two Owen's T per edge
    (`_Polygon`), and a
    full-rank trivariate R Genz's one-dimensional trivariate normal cdf
    (`_Trivariate`).  Other ranks raise ValueError: sampling is left only
    at k >= 4 with conditional rank >= 3 (unconditional rank >= 4), see
    `needs_sampling`.  Each kernel keeps arrays and numbers only and
    computes per call exactly what a fresh one would, so a kept kernel
    equals a fresh evaluation bit for bit.
    """
    k, r = L.shape
    if r == 0:
        return _Indicator()
    if r == 1:
        return _Rank1(L)
    if k == 2:
        return _Bivariate(S)
    if r == 2:
        return _Polygon(L)
    if k != 3:
        raise ValueError(f"no deterministic rule for a rank-{r} covariance of dimension {k}")
    return _Trivariate(S)


class _Indicator:
    """Rank 0: R = 0, so the orthant holds where u >= 0."""

    def __call__(self, U):
        v = np.all(U >= 0.0, axis=1).astype(float)
        return v, v


class _Rank1:
    """Rank 1: R = L eps, eps ~ N(0, 1), on the interval of `_Interval`."""

    def __init__(self, L):
        self.interval = _Interval(L[:, 0])

    def __call__(self, U):
        lo, hi = self.interval(U)
        v = np.maximum(ndtr(hi) - ndtr(lo), 0.0)
        return v, v


class _Bivariate:
    """A full-rank bivariate R: `bvn_cdf` at the kept sds and correlation."""

    def __init__(self, S):
        self.s = np.sqrt(np.diag(S))
        self.rho = S[0, 1] / (self.s[0] * self.s[1])

    def __call__(self, U):
        v = bvn_cdf(U[:, 0] / self.s[0], U[:, 1] / self.s[1], self.rho)
        return v, v


class _Polygon:
    """P(L eps <= u) for every row u of U, eps ~ N(0, I_2) and L of shape (k, 2).

    Row i of L is the half-plane a_i'x <= d_i, a_i = L_i / |L_i| its unit
    normal and d_i = u_i / |L_i| the signed distance of its line, so the
    orthant is a convex polygon.  Its edge i is the part
    {d_i a_i + tau a_i+ : tau_lo < tau < tau_hi} of line i inside every
    other line j, a_i+ being a_i turned by pi/2: tau (a_j'a_i+) <= d_j -
    d_i (a_j'a_i).  The mass is a sum over the edges (DiDonato, Jarnagin &
    Hageman 1980; Owen 1956)

        P = theta_0 / (2 pi) - sum_i [T(d_i, tau_hi / d_i) - T(d_i, tau_lo / d_i)],

    each edge's difference taken before the sum, so that nearly equal T
    values of a far polygon cancel to 0, and over the edges with d_i != 0.
    theta_0 is the angle of the polygon's tangent cone at the origin: 2 pi
    when every d > 0, 0 when some d < 0, and else the largest gap g between
    the angles of the normals of the lines with d = 0, less pi (0 if
    g <= pi); -0.0 counts as 0.  Each pair's vertex is solved once, on the
    edge of the lower index, and read on the other edge from the same
    point, so that two nearly coincident lines cut each other at one point.
    Parallel lines with the same normal drop the farther line's edge, or of
    two equal lines the later one; with opposite normals they bound a strip,
    and a row whose strip has no width (d_i + d_j <= 0) is 0.  A row with a
    -inf coordinate is 0, a +inf coordinate drops its line, and a
    zero-loading coordinate drops its line after requiring u_i >= 0.  The
    live lines, their norms, a_j'a_i and a_j'a_i+ for every pair and the
    sorted angles of the normals are kept; a call pays for arithmetic on
    (rows x pairs) arrays and two Owen's T per nonempty edge.
    """

    def __init__(self, L):
        norm = np.hypot(L[:, 0], L[:, 1])
        self.live = norm > 1e-13 * max(float(norm.max()), 1.0)
        self.norm = np.where(self.live, norm, 1.0)[:, None]
        a0, a1 = (L / self.norm).T
        # [j, i] over a trailing axis of rows: a_j'a_i, a_j'a_i+ (antisymmetric
        # bit for bit) and i > j
        self.cos = (a0[:, None] * a0 + a1[:, None] * a1)[..., None]
        self.sin = (a1[:, None] * a0 - a0[:, None] * a1)[..., None]
        self.later = (np.arange(L.shape[0]) > np.arange(L.shape[0])[:, None])[..., None]
        self.up, self.down = self.sin > 0.0, self.sin < 0.0
        self.same = (self.sin == 0.0) & (self.cos > 0.0)
        self.opposite = (self.sin == 0.0) & (self.cos < 0.0)
        phi = np.arctan2(L[:, 1], L[:, 0])
        self.order = np.argsort(phi)
        self.phi = phi[self.order]

    def __call__(self, U):
        U = np.ascontiguousarray(U.T)
        keep = self.live[:, None] & np.isfinite(U)
        D = np.where(keep, U / self.norm, 0.0) + 0.0
        Dj, Di = D[:, None], D[None]
        both = keep[:, None] & keep[None]
        with np.errstate(divide="ignore", invalid="ignore"):
            tau = (Dj - Di * self.cos) / self.sin
            # edge i > j reads the vertex off edge j: d_j a_j + tau_ji a_j+
            tau = np.where(self.later, Dj * self.sin + tau.transpose(1, 0, 2) * self.cos, tau)
        hi = np.min(np.where(both & self.up, tau, np.inf), axis=0)
        lo = np.max(np.where(both & self.down, tau, -np.inf), axis=0)
        hidden = both & self.same & ((Di > Dj) | ((Di == Dj) & self.later))
        i, r = np.nonzero(keep & (D != 0.0) & (lo < hi) & ~hidden.any(axis=0))
        h = np.concatenate([D[i, r], D[i, r]])
        t = owens_t(h, np.concatenate([hi[i, r], lo[i, r]]) / h)
        cone = np.where(np.any(keep & (D < 0.0), axis=0), 0.0, 1.0)
        zero = keep & (D == 0.0)
        for row in np.flatnonzero((cone == 1.0) & zero.any(axis=0)):
            phi = self.phi[zero[self.order, row]]
            gap = np.diff(phi, append=phi[0] + 2.0 * np.pi).max()
            cone[row] = max(gap - np.pi, 0.0) / (2.0 * np.pi)
        total = cone - np.bincount(r, weights=t[:r.size] - t[r.size:], minlength=U.shape[1])
        dead = np.any(np.isneginf(U) | (~self.live[:, None] & (U < 0.0)), axis=0)
        dead |= np.any(both & self.opposite & (Di + Dj <= 0.0), axis=(0, 1))
        v = np.where(dead, 0.0, np.clip(total, 0.0, 1.0))
        return v, v


class _Trivariate:
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
    both.  The sds, correlations, order and path rule depend on S alone
    and are kept: per arm 1i, a_1i / (2 pi) and, at the path's nodes
    where the determinant is positive, rho_1i(x), 1 - rho_1i(x)^2, the
    coefficients of B on the other coordinate, on h_1 and on h_i, and the
    two weights; a call pays for F, B and their sums.
    """

    def __init__(self, S):
        self.sd = np.sqrt(np.diag(S))
        self.C = C = np.clip(S / np.outer(self.sd, self.sd), -1.0, 1.0)
        o = int(np.argmax(np.abs([C[1, 2], C[0, 2], C[0, 1]])))
        self.perm = [o] + [c for c in range(3) if c != o]
        R = C[np.ix_(self.perm, self.perm)]
        ang = np.arcsin([R[0, 1], R[0, 2]])
        self.rb = rb = R[1, 2]
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
        self.arms = []
        for i in range(2):
            if ang[i] == 0.0:
                continue
            r, rr, ra = path[i], cos2[i], path[1 - i]
            dt = rr * (rr - (ra - rb) ** 2 - 2.0 * ra * rb * (1.0 - r))
            keep = dt > 0.0
            r, rr, ra = r[keep], rr[keep], ra[keep]
            root = np.sqrt(dt[keep])
            self.arms.append((i, ang[i] / (2.0 * np.pi), r, rr, rr / root,
                              (r * rb - ra) / root, (r * ra - rb) / root, wk[keep], wg[keep]))

    def __call__(self, U):
        H = U / self.sd
        out = np.zeros((2, len(H)))
        top = np.isposinf(H)
        live = ~np.any(np.isneginf(H), axis=1)
        first = np.argmax(top, axis=1)
        for i in range(3):
            rows = live & top[:, i] & (first == i)
            if rows.any():
                a, b = [c for c in range(3) if c != i]
                out[:, rows] = bvn_cdf(H[rows, a], H[rows, b], self.C[a, b])
        rows = live & ~np.any(top, axis=1)
        h1, h2, h3 = H[np.ix_(rows, self.perm)].T
        val = 2 * [ndtr(h1) * bvn_cdf(h2, h3, self.rb)]    # at K25 and at G12
        for i, scale, r, rr, bc, b1, bi, wk, wg in self.arms:
            hi, hc = (h2, h3) if i == 0 else (h3, h2)
            ft = (h1[:, None] - r * hi[:, None]) ** 2 / rr + hi[:, None] ** 2
            bt = np.outer(hc, bc) + np.outer(h1, b1) + np.outer(hi, bi)
            f = scale * np.exp(-0.5 * ft) * ndtr(bt)
            val = [v + f @ w for v, w in zip(val, (wk, wg))]
        out[:, rows] = np.clip(val, 0.0, 1.0)
        return out[0], out[1]


class ConditionedOrthant:
    """One split Z = g X + R, R ~ N(0, S = L L') independent of X ~ N(0, 1)
    (`condition_on_scalar`), with everything of P(Z <= u | X = x) that
    neither u nor x moves: a read-only record made once per split.

    ``interval`` is the `_Interval` of the loads g, {x : g x <= u} (the
    whole orthant at rank 0, and the x-interval of a draw of R);
    ``kernel`` the `orthant_kernel` of (S, L), None where the orthant
    `needs_sampling`; and `normals` the kink rule of `kink_normals` for
    each pattern of finite coordinates of u that has been asked for (at
    most 2^k), built on first use.  A call supplies only its rows:
    ``kernel(u - g x)`` and `conditional_kinks`(u, self).  Arrays and
    numbers only, so a record carrying it pickles.
    """

    def __init__(self, g: np.ndarray, S: np.ndarray, L: np.ndarray):
        self.g, self.S, self.L = g, S, L
        self.k, self.r = L.shape
        self.interval = _Interval(g)
        self.kernel = None if needs_sampling(self.k, self.r) else orthant_kernel(S, L)
        self._normals: dict[bytes, tuple | None] = {}

    def normals(self, finite: np.ndarray):
        """`kink_normals` of the pattern ``finite`` (a mask over the
        coordinates), built on first use and kept."""
        key = finite.tobytes()
        if key not in self._normals:
            self._normals[key] = kink_normals(self.g, self.L, np.flatnonzero(finite))
        return self._normals[key]


def philox(key: int, stream: int = 0, jumps: int = 0) -> np.random.Generator:
    """Generator on the counter-based Philox stream keyed by (key, stream),
    its counter ``jumps`` * 2**128 blocks in: the state of
    ``Philox(...).jumped(jumps)``, set directly at a third of the cost."""
    return np.random.Generator(np.random.Philox(
        counter=[0, 0, jumps, 0], key=np.array([key, stream], dtype=np.uint64)))


def gauss_draws(rng: np.random.Generator, n: int, L: np.ndarray) -> np.ndarray:
    """n draws (rows) of R = L eps, eps ~ N(0, I_r), from rng: the one
    Gaussian sampler of the cdf evaluators."""
    return rng.standard_normal((n, L.shape[1])) @ L.T


def conditional_rows(U: np.ndarray, orthant: ConditionedOrthant, x0: float, c: float,
                     s_breaks, K, R=None, memo: NodeMemo | None = None):
    """The one conditioned-orthant kernel: the rule of
    int phi(x) K(|x - x0| / c) P(R <= u - g x) dx for every row u of U,
    with the split z = g X + R, R ~ N(0, S = L L') independent of
    X ~ N(0, 1), of ``orthant`` (a `ConditionedOrthant`).

    The order-p test rejects at scale s when |x - x0| >= c s; the scale
    mass K(y) -> (K25, G12 parts) is the mass of the scales it
    rejects at (rising from 0 to at most 1, steepest near the scales
    ``s_breaks``).  The rule's layout without kinks is the `panel_edges`
    of [-TAIL_CUT, TAIL_CUT] with extra edges at x0 and at x0 +/- c s for
    each s in s_breaks; a `NodeMemo` ``memo`` keeps it (``memo.edges``),
    else it is made once per call.  A row's x-rule is a `Panels` on that
    layout with the row's `conditional_kinks` inserted; its components are
    the term and pi, the integral without the orthant.  Its factors are
    phi(x) and K's two parts at each node, which depend on no row: the memo
    keeps them on the layout, shared by every row and call with the same
    x0, c and s_breaks.  The orthant is the record's kept kernel at every
    x-node or, given draws R (rows), the share of the draws whose
    x-interval {x : g x <= u - R} holds the node.  A call pays for its
    rows alone: their kinks, the orthant at the nodes and, with draws, the
    draws' intervals.  Returns the rows' `OrderTerm`: the x-rules, the
    error the dropped x-mass, the SE 0 without draws and else that of the
    draws' interval weights on the first pass, at least 1/len(R), as no
    draw may land in a rare region.
    """
    layout = None if memo is None else memo.edges
    if layout is None:
        s = np.asarray(s_breaks, dtype=float)
        layout = split_edges(panel_edges(-TAIL_CUT, TAIL_CUT), [x0, *(x0 - c * s), *(x0 + c * s)])
        if memo is not None:
            memo.edges = layout
    g, panels, ses = orthant.g, [], np.zeros(len(U))

    def factors(x):
        return np.vstack([norm_pdf(x)[None], *K(np.abs(x - x0) / c)])

    for j, u in enumerate(U):
        edges = split_edges(layout, conditional_kinks(u, orthant))

        if R is None:
            def orthant_at(x, u=u):
                return orthant.kernel(u[None, :] - np.outer(x, g))
        else:
            lo, hi = orthant.interval(u[None, :] - R)
            hit = lo <= hi
            lo_s, hi_s, n = np.sort(lo[hit]), np.sort(hi[hit]), len(R)

            def orthant_at(x, lo_s=lo_s, hi_s=hi_s, n=n):
                share = (np.searchsorted(lo_s, x, side="right")
                         - np.searchsorted(hi_s, x, side="left")) / n
                return share, share

            x, wk, _ = gl_panels(edges)
            cum = np.concatenate([[0.0], np.cumsum(wk * norm_pdf(x) * K(np.abs(x - x0) / c)[0])])
            w = np.maximum(cum[np.searchsorted(x, hi, side="right")]
                           - cum[np.searchsorted(x, lo)], 0.0)
            ses[j] = max(float(np.std(w) / np.sqrt(n)), 1.0 / n)

        def f(x, a, orthant_at=orthant_at):
            kk, kg = a[0] * a[1], a[0] * a[2]
            ok, og = orthant_at(x)
            return np.array([kk * ok, kk]), np.array([kg * og, kg])

        panels.append(Panels(f, edges, factors, memo))
    return OrderTerm(None, None, 2.0 * float(ndtr(-TAIL_CUT)), ses, tuple(panels))


def gaussian_rect_rows(U: np.ndarray, cov: np.ndarray, *, rng=None,
                       n_samples: int = 200_000,
                       factor: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Lower-orthant probabilities P(Z <= u) for every row u of U, Z ~ N(0, cov).

    cov is PSD, possibly singular.  Where it `needs_sampling` (k >= 4,
    rank >= 3), Z is conditioned on its coordinate of largest variance,
    which `conditional_rows` integrates exactly: deterministic at rank 3,
    whose conditional orthant is a rank-2 polygon, and at rank >= 4 on one
    seeded sample of n_samples draws (Philox key (0, 0) unless ``rng`` is
    given) shared by all rows.  There is no refinement loop: the x-rule
    runs one K25 pass on its `panel_edges` and a full-rank trivariate
    orthant one path panel (`_Trivariate`), each with an error at
    rounding level.  Returns (probabilities, standard_errors), where it
    conditions the terms and SE of the rule's `OrderTerm`: the SE is 0
    where deterministic, else at least 1/n_samples.  ``factor``, when
    given, is `psd_factor(cov)` made once by the caller
    (`LimitQuantities.factor`).
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    m, k = U.shape
    L = psd_factor(cov) if factor is None else factor
    if not needs_sampling(k, L.shape[1]):
        return orthant_kernel(cov, L)(U)[0], np.zeros(m)
    j = int(np.argmax(np.diag(cov)))
    orthant = ConditionedOrthant(*condition_on_scalar(cov, cov[:, j], float(cov[j, j])))
    rng = philox(0) if rng is None else rng
    R = gauss_draws(rng, n_samples, orthant.L) if needs_sampling(k, orthant.r) else None
    term = conditional_rows(U, orthant, 0.0, 1.0, (), lambda y: 2 * [np.ones(y.size)], R)
    return term.parts()[0], term.se


def gaussian_rect(upper: np.ndarray, cov: np.ndarray, *, rng=None,
                  n_samples: int = 200_000,
                  factor: np.ndarray | None = None) -> tuple[float, float]:
    """Lower-orthant probability P(Z <= upper): the one-row `gaussian_rect_rows`."""
    p, se = gaussian_rect_rows(upper, cov, rng=rng, n_samples=n_samples, factor=factor)
    return float(p[0]), float(se[0])
