"""Oracle tests for the Gaussian probability helpers."""
from itertools import combinations

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr, owens_t
from scipy.stats import multivariate_normal

from pmsdist._gauss import (
    NODES_PER_PANEL,
    ConditionedOrthant,
    NodeMemo,
    Panels,
    _Interval,
    _Polygon,
    bvn_cdf,
    condition_on_scalar,
    conditional_kinks,
    gaussian_rect,
    gaussian_rect_rows,
    gl_panels,
    kronrod_legendre,
    needs_sampling,
    norm_pdf,
    orthant_kernel,
    philox,
    psd_factor,
    ray_interval_prob,
    split_edges,
    sym_pinv,
)
from pmsdist.dist_limit import _gaussian_density
from pmsdist.errors import DensityUndefinedError, ValidationError
from pmsdist.regression_core import limit_quantities


def test_bvn_cdf_against_scipy():
    pts = (-2.0, -0.5, 0.0, 1.0, 2.5)
    for rho in (-0.99, -0.5, 0.0, 0.3, 0.95):
        cov = np.array([[1.0, rho], [rho, 1.0]])
        for h in pts:
            for k in pts:
                want = multivariate_normal(cov=cov).cdf([h, k])
                got = bvn_cdf(h, k, rho)
                assert abs(got - want) < 1e-6, (h, k, rho)


def test_bvn_cdf_degenerate_correlation():
    # rho = 1: P(X <= h, X <= k) = Phi(min(h, k))
    assert abs(bvn_cdf(0.3, 1.2, 1.0) - ndtr(0.3)) < 1e-14
    # rho = -1: P(X <= h, -X <= k) = max(0, Phi(h) + Phi(k) - 1)
    assert abs(bvn_cdf(0.3, 1.2, -1.0) - max(0.0, ndtr(0.3) + ndtr(1.2) - 1.0)) < 1e-14
    assert bvn_cdf(-1.0, 0.5, -1.0) == 0.0


def test_bvn_cdf_marginal_reduction():
    # independence and a +inf-like argument recover one-dimensional values
    assert abs(bvn_cdf(0.7, 9.0, 0.0) - ndtr(0.7) * ndtr(9.0)) < 1e-12
    assert abs(bvn_cdf(30.0, 0.7, 0.4) - ndtr(0.7)) < 1e-12


def _halfline(center, slope, B, u, sd):
    """P(z <= u, |center + slope z| >= B) for z ~ N(0, sd^2) through
    `ray_interval_prob` on X = z / sd: the half-line X <= u / sd against the
    band x0 -/+ c of the X where |center + slope z| < B."""
    B = np.asarray(B, dtype=float)
    if slope == 0.0:
        # the band is empty or the whole line
        keep = np.abs(center) >= B
        return ray_interval_prob(-np.inf, u / sd, np.where(keep, 0.0, -np.inf),
                                 np.where(keep, 0.0, np.inf))
    x0, c = -center / (slope * sd), B / abs(slope * sd)
    return ray_interval_prob(-np.inf, u / sd, x0 - c, x0 + c)


def _ray_halfline_oracle(center, slope, B, u, sd, n=4_000_001):
    """Dense-trapezoid reference for P(z <= u, |center + slope z| >= B)."""
    z = np.linspace(-8.5 * sd, 8.5 * sd, n)
    keep = (z <= u) & (np.abs(center + slope * z) >= B)
    return np.trapezoid(np.where(keep, norm_pdf(z / sd) / sd, 0.0), z)


@pytest.mark.parametrize("center,slope,B,u", [
    (-9.99, 1.0, 1.96, 0.0),
    (2.0, 1.0, 1.96, 0.0),
    (0.0, 1.0, 1.5, 0.7),
    (0.5, -2.0, 1.0, 1.2),
    (0.5, 0.0, 1.0, 0.3),     # zero slope: indicator times half-line mass
    (0.5, 0.0, 0.2, 0.3),
    (1.0, 0.7, 0.0, -0.4),    # B = 0: the constraint is vacuous
])
def test_ray_halfline_prob_against_trapezoid(center, slope, B, u):
    want = _ray_halfline_oracle(center, slope, B, u, 1.3)
    got = _halfline(center, slope, B, u, 1.3)
    assert abs(got - want) < 1e-6


def test_ray_halfline_prob_infinite_halfline():
    # u = +inf integrates the rays over the whole line
    got = _halfline(0.8, 1.0, 1.5, np.inf, 1.0)
    want = ndtr(-(1.5 + 0.8)) + 1.0 - ndtr(1.5 - 0.8)
    assert abs(got - want) < 1e-12


def test_ray_halfline_prob_vector_B():
    # the interval broadcasts against a vector of bands (a, b)
    B = np.array([0.5, 1.0, 2.0])
    got = _halfline(0.3, 1.0, B, 0.9, 1.0)
    single = [_halfline(0.3, 1.0, b, 0.9, 1.0) for b in B]
    assert got.shape == (3,) and np.allclose(got, single, rtol=0.0, atol=1e-14)
    # monotone nonincreasing in the band half-width
    assert got[0] >= got[1] >= got[2]
    # intervals (rows) against bands (columns)
    lo = np.array([[-np.inf], [0.0]])
    grid = ray_interval_prob(lo, 1.1, 0.3 - B, 0.3 + B)
    assert grid.shape == (2, 3)
    assert np.allclose(grid[1], [ray_interval_prob(0.0, 1.1, 0.3 - b, 0.3 + b) for b in B],
                       rtol=0.0, atol=1e-15)


def _ray_interval_oracle(lo, hi, a, b, h=1e-5):
    """Dense midpoint-rule reference for P(lo <= X <= hi, X <= a or X >= b)
    on cells of width h over [-9, 9]; finite ends on multiples of h are
    cell boundaries, so the indicator's jumps cost nothing."""
    x = -9.0 + h * (np.arange(round(18.0 / h)) + 0.5)
    keep = (x >= lo) & (x <= hi) & ((x <= a) | (x >= b))
    return h * float(np.sum(norm_pdf(x[keep])))


@pytest.mark.parametrize("lo,hi,a,b", [
    (-0.5, 1.5, -1.0, 1.0),          # the upper ray cuts the interval
    (-0.5, 1.5, 0.0, 0.7),           # both rays cut it
    (0.3, 0.6, 0.0, 1.0),            # the interval lies inside the band
    (1.0, -1.0, -0.5, 0.5),          # an empty interval
    (-np.inf, np.inf, -1.96, 1.96),  # the whole line: the two tails
    (-2.0, 2.0, 0.4, 0.4),           # a = b: the constraint is vacuous
])
def test_ray_interval_prob_against_midpoint_rule(lo, hi, a, b):
    assert abs(ray_interval_prob(lo, hi, a, b) - _ray_interval_oracle(lo, hi, a, b)) < 1e-9


def test_ray_interval_prob_infinite_ends():
    # infinite interval ends integrate the rays over a half-line or the line
    assert abs(ray_interval_prob(-np.inf, np.inf, -2.3, 0.7)
               - (ndtr(-2.3) + ndtr(-0.7))) < 1e-15
    assert abs(ray_interval_prob(-np.inf, 0.9, -0.2, 0.5)
               - (ndtr(-0.2) + ndtr(0.9) - ndtr(0.5))) < 1e-15
    assert abs(ray_interval_prob(0.1, np.inf, -0.2, 0.5) - ndtr(-0.5)) < 1e-15
    # infinite band ends leave one ray or none
    assert ray_interval_prob(-1.0, 1.0, -np.inf, np.inf) == 0.0
    assert abs(ray_interval_prob(-1.0, 1.0, -np.inf, 0.5) - (ndtr(1.0) - ndtr(0.5))) < 1e-15


def test_gaussian_rect_full_rank_matches_scipy():
    rng = np.random.Generator(np.random.Philox(5))
    for k in (1, 2):
        M = rng.standard_normal((k, k + 1))
        cov = M @ M.T + 0.2 * np.eye(k)
        u = rng.standard_normal(k)
        want = multivariate_normal(cov=cov).cdf(u) if k > 1 else ndtr(u[0] / np.sqrt(cov[0, 0]))
        got, se = gaussian_rect(u, cov, rng=rng, n_samples=1000)
        assert se == 0.0  # closed form for k <= 2
        assert abs(got - want) < 5e-7


def test_gaussian_rect_singular_rank_one():
    # Z = (xi, 2 xi): P(xi <= a, 2 xi <= b) = Phi(min(a, b/2))
    cov = np.array([[1.0, 2.0], [2.0, 4.0]])
    rng = np.random.Generator(np.random.Philox(5))
    got, se = gaussian_rect(np.array([0.5, 0.4]), cov, rng=rng, n_samples=100)
    assert se == 0.0
    assert abs(got - ndtr(0.2)) < 1e-12


def test_gaussian_rect_zero_matrix_is_indicator():
    rng = np.random.Generator(np.random.Philox(5))
    got, _ = gaussian_rect(np.array([0.1, -0.1]), np.zeros((2, 2)), rng=rng, n_samples=100)
    assert got == 0.0
    got, _ = gaussian_rect(np.array([0.1, 0.0]), np.zeros((2, 2)), rng=rng, n_samples=100)
    assert got == 1.0


def test_gaussian_rect_monte_carlo_k4():
    rng = np.random.Generator(np.random.Philox(17))
    M = rng.standard_normal((4, 5))
    cov = M @ M.T + 0.3 * np.eye(4)
    u = np.array([0.4, -0.2, 1.1, 0.6])
    want = multivariate_normal(cov=cov).cdf(u)
    got, se = gaussian_rect(u, cov, rng=np.random.Generator(np.random.Philox(3)),
                            n_samples=400_000)
    assert se > 0.0
    assert abs(got - want) < 4 * se + 1e-4


@pytest.mark.parametrize("cov,sampled", [
    (np.zeros((3, 3)), False),                                   # rank 0
    (np.outer([1.0, -0.5, 2.0], [1.0, -0.5, 2.0]), False),       # rank 1
    (np.array([[1.0, 0.6], [0.6, 2.0]]), False),                 # bivariate
    (np.array([[1.0, 0.3, -0.2, 0.1], [0.3, 1.5, 0.4, 0.0], [-0.2, 0.4, 0.8, -0.3],
               [0.1, 0.0, -0.3, 1.2]]), True),
])
def test_gaussian_rect_rows_reproduce_gaussian_rect(cov, sampled):
    k = cov.shape[0]
    U = np.vstack([np.linspace(-0.8, 1.2, k), np.zeros(k), np.full(k, 0.7),
                   np.full(k, -9.0)])       # last row: no sample lands in it
    n = 70_000
    vals, se = gaussian_rect_rows(U, cov, rng=philox(7), n_samples=n)
    for j, u in enumerate(U):
        want = gaussian_rect(u, cov, rng=philox(7), n_samples=n)
        assert (vals[j], se[j]) == want, j
    if sampled:
        # every row shares one sample; the estimate 0 keeps SE 1/n
        assert vals[-1] == 0.0 and se[-1] == 1.0 / n
    else:
        assert not np.any(se)


def _rank2_orthant_oracle(v, L):
    """P(L eps <= v) for L of shape (k, 2): adaptive quadrature over eps_1,
    split where two of the eps_2 bounds cross or a bound on eps_1 alone
    binds.  A +inf coordinate drops out, a -inf one empties the orthant."""
    keep = ~np.isposinf(v)
    v, L = v[keep], L[keep]
    if np.any(np.isneginf(v)):
        return 0.0
    load = L[:, 1]
    up, down, flat = load > 0, load < 0, load == 0

    def inner(e1):
        w = v - L[:, 0] * e1
        if np.any(w[flat] < 0.0):
            return 0.0
        hi = np.min(w[up] / load[up], initial=np.inf)
        lo = np.max(w[down] / load[down], initial=-np.inf)
        return max(ndtr(hi) - ndtr(lo), 0.0) * norm_pdf(e1)

    slope = np.divide(L[:, 0], load, out=np.zeros(len(v)), where=~flat)
    pts = [(v[i] / load[i] - v[j] / load[j]) / (slope[i] - slope[j])
           for i in range(len(v)) for j in range(i + 1, len(v))
           if not (flat[i] or flat[j]) and slope[i] != slope[j]]
    pts += [v[i] / L[i, 0] for i in np.flatnonzero(flat) if L[i, 0] != 0.0]
    return quad(inner, -12.0, 12.0, points=sorted(p for p in pts if abs(p) < 12.0) or None,
                epsabs=1e-14, epsrel=1e-13, limit=200)[0]


def test_gaussian_rect_trivariate_is_deterministic():
    U = np.array([[0.3, 0.1, 0.2], [0.0, 0.0, 0.0], [-0.5, 1.0, 0.4], [2.0, -1.0, 0.3],
                  [-9.5, 0.0, 0.0]])
    rng = np.random.Generator(np.random.Philox(5))
    M = rng.standard_normal((3, 4))
    full = M @ M.T + 0.3 * np.eye(3)
    vals, se = gaussian_rect_rows(U, full)
    assert not np.any(se)
    # conditioning on the first coordinate under adaptive quadrature
    sd = np.sqrt(full[0, 0])
    h = full[1:, 0] / sd
    C = full[1:, 1:] - np.outer(h, h)
    s = np.sqrt(np.diag(C))
    for u, v in zip(U, vals):
        def integrand(y):
            return norm_pdf(y) * float(bvn_cdf((u[1] - h[0] * y) / s[0],
                                               (u[2] - h[1] * y) / s[1], C[0, 1] / (s[0] * s[1])))
        want = quad(integrand, -12.0, u[0] / sd, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
        assert abs(v - want) < 1e-12, (u, v, want)
    # scipy's randomized lattice rule wanders by several 1e-9 even at
    # abseps 1e-10 (and takes about 0.5 s a row)
    for u, v in zip(U[:2], vals):
        want = multivariate_normal(cov=full, abseps=1e-10, releps=0.0, seed=1).cdf(u)
        assert abs(v - want) < 2e-8, (u, v, want)
    # rank 2: scipy's rule is not accurate for a singular covariance, so the
    # reference is a quadrature over the factor
    L = np.array([[1.0, 0.2], [0.5, 1.0], [-0.3, 0.7]])
    vals, se = gaussian_rect_rows(U, L @ L.T)
    assert not np.any(se)
    for u, v in zip(U, vals):
        assert abs(v - _rank2_orthant_oracle(u, L)) < 1e-12, u


def test_gaussian_rect_k4_rank2_is_deterministic():
    # Z = L eps with L of shape (4, 2) is a bivariate normal over a polygon
    L = np.array([[1.0, 0.2], [0.5, 1.0], [-0.3, 0.7], [0.8, -0.6]])
    U = np.array([[0.3, 0.1, 0.2, 0.4], [0.0, 0.0, 0.0, 0.0], [-0.5, 1.0, 0.4, 2.0],
                  [2.0, -1.0, 0.3, 0.5], [-9.5, 0.0, 0.0, 0.0]])
    vals, se = gaussian_rect_rows(U, L @ L.T)
    assert not np.any(se)
    for u, v in zip(U, vals):
        assert abs(v - _rank2_orthant_oracle(u, L)) < 1e-12, u


def test_gaussian_rect_k4_rank2_with_a_nearly_collinear_pair():
    # coordinates 2 and 3 (from 0) have correlation near 1: conditioned on
    # coordinate 3, the one of largest variance, coordinate 2 kept a loading
    # of 0.0017, a near-step that a 24-panel x-rule missed by 2.8e-4 while
    # reporting SE 0
    L = np.array([[-1.0225874993231236, -0.44436809119270054],
                  [-1.3817956672093117, -0.25412041660238327],
                  [-0.9885391594556918, 1.13937481163987],
                  [-1.0556453990019363, 1.2194585424050568]])
    u = np.array([0.606398581333061, 2.160302020688917, -0.47943005693673457,
                  1.81303515555188])
    vals, se = gaussian_rect_rows(u[None, :], L @ L.T)
    assert se[0] == 0.0
    assert abs(vals[0] - _rank2_orthant_oracle(u, L)) < 1e-12
    assert abs(vals[0] - 0.303697833) < 1e-9


def test_polygon_orthant_on_random_factors():
    # every k x 2 factor is a bivariate normal over a polygon of up to k
    # sides; at k = 2 it is also the bivariate normal cdf
    rng = np.random.default_rng(16)
    for k in range(2, 7):
        for _ in range(6):
            L = rng.standard_normal((k, 2)) * rng.uniform(0.3, 2.0, size=(k, 1))
            U = rng.normal(0.0, 1.5, size=(5, k))
            vals = _Polygon(L)(U)[0]
            for u, v in zip(U, vals):
                assert abs(v - _rank2_orthant_oracle(u, L)) < 1e-13, (L, u)
            if k == 2:
                S = L @ L.T
                s = np.sqrt(np.diag(S))
                want = bvn_cdf(U[:, 0] / s[0], U[:, 1] / s[1], S[0, 1] / (s[0] * s[1]))
                assert np.max(np.abs(vals - want)) < 1e-14, L


_POLYGON_EDGES = {
    # a -inf row is 0 and a +inf coordinate drops its line
    "infinite": ([[1.0, 0.2], [0.5, 1.0], [-0.3, 0.7], [0.8, -0.6]],
                 [[np.inf, 0.3, 0.2, 0.1], [-np.inf, 0.3, 0.2, 0.1], [np.inf, -np.inf, 1.0, 1.0],
                  [np.inf, np.inf, 0.2, np.inf], [np.inf] * 4]),
    # a zero-loading coordinate only asks u_i >= 0
    "zero_loading": ([[1.0, 0.2], [0.0, 0.0], [-0.3, 0.7], [0.8, -0.6]],
                     [[0.3, 0.1, 0.2, 0.4], [0.3, -0.1, 0.2, 0.4], [0.3, 0.0, 0.2, 0.4]]),
    # lines 0-2 are parallel, with the same and opposite normals: no vertex
    "parallel": ([[1.0, 0.5], [2.0, 1.0], [-1.0, -0.5], [0.3, -1.0]],
                 [[0.3, 0.1, 0.2, 0.4], [0.3, 1.0, -0.5, 0.4], [1.0, 1.0, 1.0, 1.0]]),
    # lines through the origin: a vertex at the origin, read by the cone term
    "origin": ([[1.0, 0.2], [0.5, 1.0], [-0.3, 0.7], [0.8, -0.6]],
               [[0.0, 0.0, 0.5, 0.4], [0.0, 0.0, 0.0, 0.0], [0.0, 0.3, -0.2, 0.0]]),
}


@pytest.mark.parametrize("case", sorted(_POLYGON_EDGES))
def test_polygon_orthant_edges(case):
    L, U = (np.array(a, dtype=float) for a in _POLYGON_EDGES[case])
    vals, _ = orthant_kernel(L @ L.T, L)(U)
    for u, v in zip(U, vals):
        assert abs(v - _rank2_orthant_oracle(u, L)) < 1e-14, (u, v)


# lines 1 and 2 meet at (0, 1.2), right above the origin on line 0's
# normal turned by pi/2; line 3 is parallel to line 0 with the opposite
# normal; line 4 has zero loading
_POLYGON_LINES = np.array([[1.0, 0.0], [0.6, 0.8], [-0.5, 0.9], [-2.0, 0.0], [0.0, 0.0]])


@pytest.mark.parametrize("k", [3, 4, 5])
def test_polygon_rows_match_quadrature_over_the_factor(k):
    # the edge sum, two Owen's T per nonempty edge, against adaptive
    # quadrature
    L = _POLYGON_LINES[:k]
    rng = np.random.default_rng(k)
    U = rng.normal(0.3, 1.2, size=(10, k))
    U[0, :3] = (0.3, 0.96, 1.08)          # the vertex (0, 1.2) is on the polygon
    U[1, 0] = np.inf
    U[2, 1] = -np.inf
    U[3, :2] = np.inf
    U[4] = np.inf
    if k >= 4:
        U[5, [0, 3]] = (0.4, 0.6)         # -0.3 <= x <= 0.4 between the parallel lines
        U[6, [0, 3]] = (-0.4, 0.6)        # x <= -0.4 and x >= -0.3: empty
    if k == 5:
        U[7, 4], U[8, 4] = -0.1, 0.0      # zero loading: 0, then no constraint
    vals = _Polygon(L)(U)[0]
    assert vals[2] == 0.0 and (k < 4 or vals[6] == 0.0) and (k < 5 or vals[7] == 0.0)
    for u, v in zip(U, vals):
        assert abs(v - _rank2_orthant_oracle(u, L)) < 1e-13, (u, v)


def test_orthant_rows_leaves_rank_three_in_four_dimensions_to_sampling():
    # no closed form covers rank 3 at k = 4: `needs_sampling` sends it to
    # the draws, and the deterministic kernel refuses it
    L = np.eye(4, 3) + 0.2
    assert needs_sampling(4, 3)
    with pytest.raises(ValueError, match="rank-3 covariance of dimension 4"):
        orthant_kernel(L @ L.T, L)


def test_polygon_orthant_of_a_box_ends_pieces_at_right_angles():
    # an axis-aligned box: every edge ends at a right angle, where its
    # neighbour's a_j'a_i is 0
    L = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    U = np.array([[0.3, 0.1, 0.2, 0.4], [1.0, 1.0, 1.0, 1.0], [0.5, np.inf, 0.5, np.inf],
                  [-0.2, 2.0, 0.5, -1.0]])
    vals, _ = orthant_kernel(L @ L.T, L)(U)
    want = (np.maximum(ndtr(U[:, 0]) - ndtr(-U[:, 2]), 0.0)
            * np.maximum(ndtr(U[:, 1]) - ndtr(-U[:, 3]), 0.0))
    assert np.max(np.abs(vals - want)) < 1e-15, (vals, want)


def _oracle_case(L, U, bound=1e-14):
    L, U = np.array(L, dtype=float), np.array(U, dtype=float)
    vals, _ = orthant_kernel(L @ L.T, L)(U)
    for u, v in zip(U, vals):
        assert abs(v - _rank2_orthant_oracle(u, L)) < bound, (u, v)
    return vals


def test_polygon_orthant_with_the_origin_on_its_boundary():
    # -0.0 is 0: the origin is a vertex (rows 0, 1) or on one line (rows 2,
    # 3), and the cone term reads the gap between the normals of its lines
    L = [[1.0, 0.2], [0.5, 1.0], [-0.3, 0.7], [0.8, -0.6]]
    U = [[-0.0, 0.0, 0.5, 0.4], [0.0, -0.0, 1.0, 1.0], [-0.0, 0.3, 0.5, 0.4],
         [0.4, 0.3, -0.0, 0.6], [-0.0, -0.0, -0.0, -0.0]]
    vals = _oracle_case(L, U)
    assert np.array_equal(vals, _oracle_case(L, np.abs(U)))


def test_polygon_orthant_with_two_equal_lines():
    # the same normal and the same distance, at three scales of L's row: one
    # of the two edges is kept, so the value is that of the lines without
    # the copy
    base = np.array([[1.0, 0.2], [0.5, 1.0], [-0.3, 0.7]])
    U = np.array([[0.3, 0.1, 0.2], [1.0, -0.5, 0.8], [0.0, 0.4, 0.4], [-0.2, 0.9, 1.5]])
    for scale in (1.0, 2.0, 3.0):
        L = np.vstack([base, scale * base[1]])
        V = np.hstack([U, scale * U[:, 1:2]])
        vals = _oracle_case(L, V)
        assert np.max(np.abs(vals - _Polygon(base)(U)[0])) < 1e-15, scale


def test_polygon_orthant_of_a_strip_without_width_is_zero():
    # opposite normals with d_i + d_j = 0: a strip of no width, 0 exactly,
    # through the origin or off it, in either order of the two lines
    L = np.array([[1.0, 0.2], [-2.0, -0.4], [0.5, 1.0], [-0.3, 0.7]])
    U = np.array([[0.3, -0.6, 0.5, 0.4], [-0.3, 0.6, 0.5, 0.4], [0.0, -0.0, 0.5, 0.4],
                  [0.3, -0.5, 0.5, 0.4]])
    for order in ([0, 1, 2, 3], [2, 1, 3, 0]):
        vals = _oracle_case(L[order], U[:, order])
        assert np.array_equal(vals[:3], np.zeros(3)) and vals[3] > 0.0, order


def test_polygon_orthant_with_a_nearly_parallel_pair():
    # line 1 is line 0 turned by 1e-9, with the same and the opposite
    # normal: their vertex is far out or, when their distances nearly
    # agree, anywhere along them, and both edges read it from one point
    turn = np.array([[np.cos(1e-9), -np.sin(1e-9)], [np.sin(1e-9), np.cos(1e-9)]])
    base = np.array([[1.0, 0.2], [0.0, 0.0], [0.5, 1.0], [-0.3, 0.7]])
    for sign in (1.0, -1.0):
        L = base.copy()
        L[1] = sign * (turn @ L[0])
        U = np.array([[0.3, sign * 0.3, 0.5, 0.4], [0.3, sign * 0.35, 0.5, 0.4],
                      [0.3, sign * 0.25, 0.5, 0.4], [0.3, sign * (0.3 + 1e-10), 0.5, 0.4],
                      [0.3, -sign * 0.2, 1.5, 1.4]])
        _oracle_case(L, U, 1e-13)


def test_polygon_orthant_far_from_the_origin_is_zero():
    # a wedge whose vertex is at distance 19 along lines that pass within
    # 0.2-1.9 of the origin: every edge's T values agree in every bit, so
    # the value is exactly 0, with or without a third line cutting it
    for angle in (0.01, 0.1):
        a = np.tan(angle)
        L = [[-a, 1.0], [-a, -1.0], [0.3, 0.2]]
        U = [[-19.0 * a, -19.0 * a, 50.0], [-19.0 * a, -19.0 * a, np.inf],
             [-19.0 * a, -19.0 * a, 7.0]]
        assert np.array_equal(_oracle_case(L, U), np.zeros(3)), angle


def test_polygon_orthant_reads_at_most_two_owens_t_per_edge(monkeypatch):
    import pmsdist._gauss as gauss

    sizes = []

    def counting(h, a):
        sizes.append(np.size(h))
        return owens_t(h, a)

    monkeypatch.setattr(gauss, "owens_t", counting)
    box = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    _Polygon(box)(np.array([[0.3, 0.1, 0.2, 0.4]]))
    assert sizes == [8]
    rng = np.random.default_rng(30)
    for k in range(2, 8):
        L = rng.standard_normal((k, 2))
        U = rng.normal(0.0, 1.5, size=(50, k))
        U[rng.random(U.shape) < 0.1] = np.inf
        del sizes[:]
        _Polygon(L)(U)
        assert sum(sizes) <= 2 * np.count_nonzero(np.isfinite(U)), k


def test_nearly_collinear_rank2_trivariate_is_exact():
    # coordinates 0 and 2 have correlation 0.9997: conditioned on coordinate
    # 0 (the largest variance), the bound left over is a near-step in y
    # that no panel edge brackets, and a rule of 24 or 48 y-panels was
    # 3.3e-4 off
    L = np.array([[0.02130176052042285, -0.9646757412341953],
                  [0.09605219378497029, 0.440263832568417],
                  [0.023859804365035323, -0.9111145678377758]])
    u = np.array([1.65660722, 2.08562309, -0.51495819])
    vals, se = gaussian_rect_rows(u[None, :], L @ L.T)
    assert se[0] == 0.0
    assert abs(vals[0] - _rank2_orthant_oracle(u, L)) < 1e-12


def _correlation(rng, lam_min):
    """Random 3 x 3 correlation matrix with smallest eigenvalue lam_min."""
    M = rng.standard_normal((3, 4))
    C = M @ M.T
    d = np.sqrt(np.diag(C))
    C = C / np.outer(d, d)
    mu = np.linalg.eigvalsh(C)[0]
    return (1.0 - lam_min) * (C - mu * np.eye(3)) / (1.0 - mu) + lam_min * np.eye(3)


# multiples of a step's width at which the oracles split their quadrature
_STEP = np.array([-16.0, -8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0, 16.0])


def _bvn_oracle(a, b, rho):
    """P(X <= a, Y <= b) for a standard bivariate normal with correlation
    rho, by adaptive quadrature over X, split across the step of width
    sqrt(1 - rho^2) / |rho| where Y's conditional bound crosses 0."""
    s = np.sqrt(1.0 - rho * rho)
    top = min(a, 12.0)
    pts = b / rho + s / abs(rho) * _STEP if rho != 0.0 else []
    return quad(lambda y: norm_pdf(y) * ndtr((b - rho * y) / s), -12.0, top,
                points=[p for p in pts if -12.0 < p < top] or None, epsabs=1e-15,
                epsrel=1e-13, limit=400)[0]


def _plackett_oracle(h, C):
    """P(X <= h), X ~ N(0, C) for a full-rank correlation matrix C, from
    Plackett's identity: d P / d rho_ij is the bivariate density of
    (X_i, X_j) at (h_i, h_j) times the conditional cdf of the third
    coordinate.  With the pair of largest |rho| last, rho_12 and rho_13 run
    from 0 along sin(arcsin(rho) x), x in [0, 1], under adaptive quadrature."""
    pairs = [(1, 2), (0, 2), (0, 1)]
    first = int(np.argmax([abs(C[i, j]) for i, j in pairs]))
    order = [first] + [c for c in range(3) if c != first]
    h, C = np.asarray(h, dtype=float)[order], C[np.ix_(order, order)]
    ang = np.arcsin([C[0, 1], C[0, 2]])

    def integrand(x):
        R = C.copy()
        R[0, 1] = R[1, 0] = np.sin(ang[0] * x)
        R[0, 2] = R[2, 0] = np.sin(ang[1] * x)
        total = 0.0
        for i, c in ((1, 2), (2, 1)):
            rho = R[0, i]
            dens = np.exp(-(h[0] ** 2 - 2.0 * rho * h[0] * h[i] + h[i] ** 2)
                          / (2.0 * (1.0 - rho * rho))) / (2.0 * np.pi * np.sqrt(1.0 - rho * rho))
            B, cb = R[np.ix_([0, i], [0, i])], R[[0, i], c]
            var = 1.0 - cb @ np.linalg.solve(B, cb)
            mean = cb @ np.linalg.solve(B, h[[0, i]])
            cond = ndtr((h[c] - mean) / np.sqrt(var)) if var > 0.0 else float(h[c] >= mean)
            total += ang[i - 1] * np.cos(ang[i - 1] * x) * dens * cond
        return total

    path = quad(integrand, 0.0, 1.0, epsabs=1e-15, epsrel=1e-13, limit=400)[0]
    return ndtr(h[0]) * _bvn_oracle(h[1], h[2], C[1, 2]) + path


def _conditioning_oracle(u, cov, j, points=()):
    """P(Z <= u), Z ~ N(0, cov) trivariate, by adaptive quadrature over
    Y = Z_j / sd(Z_j) of the bivariate normal cdf of the other two."""
    sd = np.sqrt(cov[j, j])
    rest = [i for i in range(3) if i != j]
    h = cov[rest, j] / sd
    Cc = cov[np.ix_(rest, rest)] - np.outer(h, h)
    s = np.sqrt(np.diag(Cc))

    def integrand(y):
        return norm_pdf(y) * float(bvn_cdf((u[rest[0]] - h[0] * y) / s[0],
                                           (u[rest[1]] - h[1] * y) / s[1],
                                           Cc[0, 1] / (s[0] * s[1])))

    top = u[j] / sd
    return quad(integrand, -12.0, top, points=[p for p in points if -12.0 < p < top] or None,
                epsabs=1e-15, epsrel=1e-13, limit=400)[0]


def test_plackett_oracle_matches_conditioning_oracle():
    # the Plackett-path oracle of the trivariate tests against the
    # conditioning oracle on well-conditioned matrices
    rng = np.random.default_rng(3)
    for lam_min in (1.0, 0.5, 1e-1):
        C = _correlation(rng, lam_min)
        for h in rng.normal(0.0, 1.2, size=(4, 3)):
            assert abs(_plackett_oracle(h, C) - _conditioning_oracle(h, C, 0)) < 1e-12, (C, h)


@pytest.mark.parametrize("lam_min,bound", [
    (1.0, 1e-12), (1e-2, 1e-12), (1e-4, 1e-12), (1e-6, 1e-9)])
def test_trivariate_orthant_on_ill_conditioned_matrices(lam_min, bound):
    # random correlation matrices with smallest eigenvalue lam_min, scaled
    # to random variances; the path integral is smooth until lam_min falls
    rng = np.random.default_rng(11)
    for _ in range(4):
        d = rng.uniform(0.5, 2.0, size=3)
        C = _correlation(rng, lam_min)
        cov = C * np.outer(d, d)
        L = psd_factor(cov)
        assert L.shape[1] == 3
        H = rng.normal(0.0, 1.2, size=(5, 3))
        vals, _ = orthant_kernel(cov, L)(H * d)
        for h, v in zip(H, vals):
            assert abs(v - _plackett_oracle(h, C)) <= bound, (C, h)


def test_trivariate_path_rule_parts_agree():
    # the path rule of a full-rank trivariate orthant is one K25 panel (plus
    # the edges of its determinant layer) and is never bisected: its K25
    # and G12 parts, whose difference the enclosing rule's estimate
    # carries, agree at rounding level on ill-conditioned matrices down to
    # lambda_min = 1e-10 and with a nearly degenerate pair
    rng = np.random.default_rng(21)
    cases = [_correlation(rng, lam_min) for lam_min in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)
             for _ in range(4)]
    for sign in (1.0, -1.0):
        r = sign * (1.0 - 1e-10)
        cases.append(np.array([[1.0, 0.3, sign * 0.3], [0.3, 1.0, r], [sign * 0.3, r, 1.0]]))
    for C in cases:
        L = psd_factor(C)
        assert L.shape[1] == 3
        H = rng.normal(0.0, 3.0, size=(50, 3))
        k25, g12 = orthant_kernel(C, L)(H)
        assert np.max(np.abs(k25 - g12)) <= 1e-14, C


@pytest.mark.parametrize("C", [
    np.array([[1.0, 0.0, 0.5], [0.0, 1.0, -0.3], [0.5, -0.3, 1.0]]),     # rho_12 = 0
    np.array([[1.0, 0.6, 0.0], [0.6, 1.0, 0.4], [0.0, 0.4, 1.0]]),       # rho_13 = 0
    np.array([[1.0, -0.4, -0.4], [-0.4, 1.0, -0.4], [-0.4, -0.4, 1.0]]),  # all negative
    np.array([[1.0, -0.7, 0.2], [-0.7, 1.0, -0.5], [0.2, -0.5, 1.0]]),
], ids=["rho12_zero", "rho13_zero", "all_negative", "mixed_signs"])
def test_trivariate_orthant_special_correlations(C):
    H = np.array([[0.3, -0.2, 0.8], [0.0, 0.0, 0.0], [-1.5, 1.0, 0.4], [2.5, 2.0, -0.7]])
    vals, _ = orthant_kernel(C, psd_factor(C))(H)
    for h, v in zip(H, vals):
        assert abs(v - _plackett_oracle(h, C)) < 1e-12, h


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_trivariate_orthant_with_a_nearly_degenerate_pair(sign):
    # rho_23 = +/-(1 - 1e-10).  The two oracles take different routes: the
    # path in the correlations, and the conditioning on Z_2, which leaves
    # Z_3 a step of width ~1.4e-5 that both must split across (without
    # the split both miss the same 1.1e-6 at u = 0).  There the closed form
    # 1/8 + sum arcsin(rho_ij) / (4 pi) is a third.
    eps = 1e-10
    C = np.array([[1.0, 0.3, sign * 0.3], [0.3, 1.0, sign * (1.0 - eps)],
                  [sign * 0.3, sign * (1.0 - eps), 1.0]])
    L = psd_factor(C)
    assert L.shape[1] == 3
    H = np.array([[0.3, -0.2, 0.8], [0.0, 0.0, 0.0], [-1.0, 0.5, 0.4], [1.2, 0.7, -0.9]])
    vals, _ = orthant_kernel(C, L)(H)
    width = np.sqrt(1.0 - C[1, 2] ** 2)
    for h, v in zip(H, vals):
        a = _plackett_oracle(h, C)
        b = _conditioning_oracle(h, C, 1, points=(h[2] + width * _STEP) / C[1, 2])
        assert abs(a - b) < 1e-13, (h, a, b)
        assert abs(v - a) < 1e-12, (h, v, a)
    closed = 0.125 + np.sum(np.arcsin([C[0, 1], C[0, 2], C[1, 2]])) / (4.0 * np.pi)
    assert abs(_plackett_oracle(H[1], C) - closed) < 1e-15
    assert abs(vals[1] - closed) < 1e-15


def test_trivariate_orthant_infinite_coordinates():
    # a -inf bound empties the orthant; a +inf one drops its coordinate,
    # leaving the bivariate or univariate cdf of the rest
    rng = np.random.Generator(np.random.Philox(5))
    M = rng.standard_normal((3, 4))
    cov = M @ M.T + 0.3 * np.eye(3)
    sd = np.sqrt(np.diag(cov))
    corr = cov / np.outer(sd, sd)
    inf = np.inf
    U = np.array([[inf, 0.4, -0.3], [0.2, inf, 0.9], [-0.6, 0.1, inf],
                  [inf, inf, 0.2], [inf, -0.5, inf], [0.7, inf, inf],
                  [inf, inf, inf], [-inf, 0.3, 0.3], [inf, -inf, inf]])
    vals, se = gaussian_rect_rows(U, cov)
    assert not np.any(se)
    for u, v in zip(U, vals):
        keep = [i for i in range(3) if u[i] < inf]
        h = u[keep] / sd[keep]
        if np.any(u == -inf):
            want = 0.0
        elif len(keep) == 2:
            want = float(bvn_cdf(h[0], h[1], corr[keep[0], keep[1]]))
        elif len(keep) == 1:
            want = ndtr(h[0])
        else:
            want = 1.0
        assert abs(v - want) < 1e-15, (u, v, want)


def test_gl_panels_integrates_polynomials_exactly():
    edges = np.array([0.0, 0.3, 1.0])
    x, wk, wg = gl_panels(edges)
    assert np.all(np.diff(x) > 0.0)
    # degree 37 is exact under the 25-node Kronrod rule, degree 23 under its
    # embedded 12-node Gauss-Legendre rule
    assert abs(np.sum(wk * x ** 37) - 1.0 / 38.0) < 1e-14
    assert abs(np.sum(wg * x ** 23) - 1.0 / 24.0) < 1e-14
    assert abs(np.sum(wk) - 1.0) < 1e-14 and abs(np.sum(wg) - 1.0) < 1e-14


def test_kronrod_rule_extends_gauss_legendre():
    # Laurie's algorithm reproduces QUADPACK's published K15 constants
    # (the 7-node extension), and the K25 rule of every panel has positive
    # weights, embeds the 12 Gauss-Legendre nodes and is exact for x^j,
    # j <= 37, on [-1, 1]
    x15, w15 = kronrod_legendre(7)
    assert abs(x15[-1] - 0.991455371120812639206854697526329) < 1e-15
    assert abs(w15[7] - 0.209482141084727828012999174891714) < 1e-15
    x, w = kronrod_legendre(12)
    assert x.size == 25 and np.all(w > 0.0) and np.all(np.diff(x) > 0.0)
    gx, gw = np.polynomial.legendre.leggauss(12)
    assert np.max(np.abs(x[1::2] - gx)) < 1e-15
    for j in range(38):
        assert abs(w @ x ** j - (1.0 - (-1.0) ** (j + 1)) / (j + 1)) < 1e-14, j
    # the embedded rule is the Gauss-Legendre rule, exact to degree 23 only
    _, wk, wg = gl_panels(np.array([-1.0, 1.0]))
    assert np.array_equal(wk, w) and np.array_equal(wg[1::2], gw) and not np.any(wg[::2])
    assert abs(wg @ x ** 24 - 2.0 / 25.0) > 1e-8


class _CountingFactors:
    """Two elementwise factor rows, recording the nodes of every call."""

    def __init__(self):
        self.calls = []

    def __call__(self, x):
        self.calls.append(x.size)
        return np.vstack([np.exp(-x ** 2), np.sin(3.0 * x)])


def _read(memo, edges, factors):
    x, wk, wg, a = memo.read(edges[:-1], edges[1:], factors)
    assert _bits((x, wk, wg)) == _bits(gl_panels(edges))
    return a


MEMO_LAYOUT = np.linspace(-1.0, 1.0, 5)


def test_node_memo_stores_nothing_on_its_first_read():
    factors, memo = _CountingFactors(), NodeMemo(MEMO_LAYOUT)
    a = _read(memo, MEMO_LAYOUT, factors)
    assert memo.values is None and factors.calls == [4 * NODES_PER_PANEL]
    assert np.array_equal(a, factors(gl_panels(MEMO_LAYOUT)[0]))


def test_node_memo_fills_its_whole_layout_on_its_second_read():
    # the second read splits a panel, yet the memo stores every panel of
    # its layout, the split one too, in one call
    factors, memo = _CountingFactors(), NodeMemo(MEMO_LAYOUT)
    split = split_edges(MEMO_LAYOUT, [0.2])
    for _ in range(2):
        a = _read(memo, split, factors)
    assert factors.calls[1] == 4 * NODES_PER_PANEL
    assert np.array_equal(a, factors(gl_panels(split)[0]))
    assert memo.values.shape == (2, 4 * NODES_PER_PANEL)
    assert np.array_equal(memo.values, factors(gl_panels(MEMO_LAYOUT)[0]))


def test_node_memo_evaluates_only_the_panels_a_read_splits():
    factors, memo = _CountingFactors(), NodeMemo(MEMO_LAYOUT)
    for _ in range(2):
        _read(memo, MEMO_LAYOUT, factors)
    kept = memo.values.copy()
    for extra in (0.2, -0.9, 0.7):
        split = split_edges(MEMO_LAYOUT, [extra])
        del factors.calls[:]
        a = _read(memo, split, factors)
        assert factors.calls == [2 * NODES_PER_PANEL], extra
        assert np.array_equal(a, factors(gl_panels(split)[0])), extra
    del factors.calls[:]
    assert np.array_equal(_read(memo, MEMO_LAYOUT, factors), kept) and not factors.calls
    assert np.array_equal(memo.values, kept)


def test_bisection_stores_nothing_in_the_node_memo():
    factors, memo = _CountingFactors(), NodeMemo(MEMO_LAYOUT)

    def f(x, a):
        return a, a

    panels = Panels(f, MEMO_LAYOUT, factors, memo)
    panels.bisect(0.0)
    assert memo.values is None
    panels = Panels(f, MEMO_LAYOUT, factors, memo)
    kept = memo.values.copy()
    del factors.calls[:]
    panels.bisect(0.0)
    assert factors.calls == [2 * 4 * NODES_PER_PANEL]
    assert np.array_equal(memo.values, kept)


def test_node_memo_returns_its_layout_as_kept(monkeypatch):
    # the memo keeps its layout's nodes and weights with its factors, read
    # only: from the second read on, a read of the layout forms no nodes
    # and returns the kept arrays, and a split read forms its own
    import pmsdist._gauss as gauss

    sizes, form = [], gauss._panel_nodes

    def counting(lo, hi):
        sizes.append(lo.size)
        return form(lo, hi)

    monkeypatch.setattr(gauss, "_panel_nodes", counting)
    factors, memo = _CountingFactors(), NodeMemo(MEMO_LAYOUT)
    reads = [memo.read(MEMO_LAYOUT[:-1], MEMO_LAYOUT[1:], factors) for _ in range(3)]
    assert sizes == [4, 4]
    assert all(np.shares_memory(v, kept) for v, kept in zip(reads[2], (*memo.nodes, memo.values)))
    assert not memo.nodes.flags.writeable and not memo.values.flags.writeable
    split = split_edges(MEMO_LAYOUT, [0.2])
    del sizes[:], factors.calls[:]
    x, wk, wg, a = memo.read(split[:-1], split[1:], factors)
    assert sizes == [5] and factors.calls == [2 * NODES_PER_PANEL]
    assert _bits((x, wk, wg, a)) == _bits((*gl_panels(split), factors(gl_panels(split)[0])))


def test_psd_factor_reconstructs():
    rng = np.random.Generator(np.random.Philox(11))
    M = rng.standard_normal((3, 2))
    cov = M @ M.T  # rank 2
    L = psd_factor(cov)
    assert L.shape == (3, 2)
    assert np.allclose(L @ L.T, cov, atol=1e-12)


@pytest.mark.parametrize("small,rank", [(2e-12, 2), (5e-13, 1), (-1e-13, 1)])
def test_one_numerical_rank_rule(small, rank):
    # an eigenvalue counts as nonzero above 1e-12 times the largest, in the
    # factor, the pseudo-inverse, the SPD check and the density alike
    M = np.array([[1.0, 0.0], [0.0, small]])
    assert psd_factor(M).shape[1] == rank
    assert np.count_nonzero(sym_pinv(M)) == rank
    if rank == 2:
        limit_quantities(M, np.eye(2))
        _gaussian_density(M)
        return
    with pytest.raises(ValidationError):
        limit_quantities(M, np.eye(2))
    with pytest.raises(DensityUndefinedError):
        _gaussian_density(M)


def test_sym_pinv_properties():
    rng = np.random.Generator(np.random.Philox(13))
    M = rng.standard_normal((4, 2))
    S = M @ M.T  # rank 2, singular
    g = sym_pinv(S)
    assert np.allclose(S @ g @ S, S, atol=1e-10)
    assert np.allclose(g @ S @ g, g, atol=1e-10)
    assert np.allclose(g, np.linalg.pinv(S), atol=1e-10)


def test_norm_pdf_matches_quadrature():
    val, _ = quad(norm_pdf, -np.inf, np.inf)
    assert abs(val - 1.0) < 1e-10
    var, _ = quad(lambda x: x * x * norm_pdf(x), -np.inf, np.inf)
    assert abs(var - 1.0) < 1e-10


def test_condition_on_scalar_judges_rank_on_the_scale_of_cov_z():
    # Z = a W exactly: the conditional covariance is rounding residue,
    # which on its own scale looks like rank 1
    a = np.array([0.1, -0.5])
    var_w = 1.9
    g, S, L = condition_on_scalar(np.outer(a, a) * var_w, a * var_w, var_w)
    assert L.shape == (2, 0)
    assert np.allclose(g, a * np.sqrt(var_w), atol=1e-15)
    # a small but genuine conditional spread keeps its rank
    g, S, L = condition_on_scalar(np.outer(a, a) * var_w + 1e-8 * np.eye(2), a * var_w, var_w)
    assert L.shape == (2, 2)


def _kink_cases():
    """Seeded (u, g, L) for k = 1..5 and r = 0..min(k, 3), L of rank r like
    a factor of `condition_on_scalar`: generic rows, and where that rank
    allows a zero-loading row, a pair of parallel rows of L or a pair
    parallel in (g, L) (whose hyperplanes never meet); also +/-inf
    coordinates, and a zero-loading row whose loaded partners are all
    +inf (the finite rows have rank 0 below the rank of L)."""
    rng = np.random.default_rng(29)
    for k in range(1, 6):
        for r in range(min(k, 3) + 1):
            for variant in ("generic", "zero_loading", "parallel", "coincident", "infinite",
                            "zero_loading_alone"):
                u, g, L = rng.normal(0.0, 1.0, k), rng.normal(0.0, 1.0, k), rng.normal(
                    0.0, 1.0, (k, r))
                if variant == "zero_loading" and k > r:
                    L[0] = 0.0
                elif variant == "parallel" and k > max(r, 1):
                    L[1] = -2.0 * L[0]
                elif variant == "coincident" and k > max(r, 1):
                    L[1], g[1] = 2.0 * L[0], 2.0 * g[0]
                elif variant == "infinite":
                    u[-1] = np.inf
                    u[0] = -np.inf if k >= 2 else u[0]
                elif variant == "zero_loading_alone" and k > r:
                    L[0], u[1:] = 0.0, np.inf
                yield u, g, L


def _same_points(a, b, tol):
    """Whether every point of a is within tol (relative above 1) of one of
    b, and the other way round."""
    def covered(x, y):
        return all(np.any(np.abs(np.asarray(y) - v) <= tol * max(1.0, abs(v))) for v in x)
    return covered(a, b) and covered(b, a)


def _rank1_arm(u, g, load):
    """The crossings and sign flips the rank-1 arm of `conditional_kinks`
    listed before the one rule: (u_i/L_i - u_j/L_j) / (g_i/L_i - g_j/L_j)
    for two loaded coordinates, u_i/g_i for a zero-loading one; an
    infinite u_i gives an infinite point, which the arm dropped."""
    tol = 1e-13 * max(float(np.max(np.abs(load))), 1.0)
    finite = [i for i in range(len(u)) if np.isfinite(u[i])]
    idx = [i for i in finite if abs(load[i]) > tol]
    out = []
    for a, i in enumerate(idx):
        for j in idx[a + 1:]:
            den = g[i] / load[i] - g[j] / load[j]
            if abs(den) > 1e-13:
                out.append((u[i] / load[i] - u[j] / load[j]) / den)
    return out + [u[i] / g[i] for i in finite if abs(load[i]) <= tol and abs(g[i]) > 1e-13]


def _hyperplanes_meet(x, u, g, L):
    """Whether r + 1 of the conditional hyperplanes L_i eps = u_i - g_i x,
    rows of rank r, meet in one point at x; r is the rank of the finite
    rows."""
    finite = np.flatnonzero(np.isfinite(u))
    r = np.linalg.matrix_rank(L[finite]) if L.size else 0
    for rows in combinations(finite, r + 1):
        rows = list(rows)
        A, b = L[rows], u[rows] - g[rows] * x
        if r and np.linalg.matrix_rank(A) < r:
            continue
        eps = np.linalg.lstsq(A, b, rcond=None)[0] if L.size else np.zeros(L.shape[1])
        if np.max(np.abs(A @ eps - b)) <= 1e-9 * max(1.0, float(np.max(np.abs(b)))):
            return True
    return False


def test_conditional_kinks_are_one_rule_at_every_rank():
    # rank 0: the two binding ends of 1{g x <= u}, listed with every other
    # finite bound u_i / g_i as spare edges; rank 1: the crossings and sign
    # flips of the rank-1 arm the rule replaced; every rank: r + 1 of the
    # conditional hyperplanes meet in one point at each kink
    counts = np.zeros(4, dtype=int)
    for u, g, L in _kink_cases():
        r = L.shape[1]
        kinks = conditional_kinks(u, ConditionedOrthant(g, L @ L.T, L))
        counts[r] += len(kinks)
        if r == 0:
            ends = np.concatenate(_Interval(g)(u[None, :]))
            assert all(np.any(np.abs(np.subtract(kinks, e)) <= 1e-15 * max(1.0, abs(e)))
                       for e in ends[np.isfinite(ends)]), (u, g, kinks)
            finite = np.isfinite(u) & (np.abs(g) > 1e-13)
            assert _same_points(kinks, (u[finite] / g[finite]).tolist(), 0.0), (u, g, kinks)
            assert len(kinks) == int(finite.sum())
        if r == 1:
            assert _same_points(kinks, _rank1_arm(u, g, L[:, 0]), 1e-12), (u, g, L, kinks)
        for x in kinks:
            assert _hyperplanes_meet(x, u, g, L), (u, g, L, x)
        if r == len(u):
            assert kinks == []
    assert np.all(counts > 0), counts


# ---------------------------------------------------------------------------
# the kept records against the per-call kernels they replaced
# ---------------------------------------------------------------------------
# The functions below are the kernels as they were evaluated from scratch
# on every call, before `ConditionedOrthant` and `orthant_kernel` kept
# their t-free constants; a kept record must reproduce them bit for bit.

def _fresh_rank1_bounds(U, load):
    m = U.shape[0]
    tol = 1e-13 * max(float(np.max(np.abs(load))), 1.0)
    pos, neg = load > tol, load < -tol
    zero = ~(pos | neg)
    hi = np.min(U[:, pos] / load[pos], axis=1) if pos.any() else np.full(m, np.inf)
    lo = np.max(U[:, neg] / load[neg], axis=1) if neg.any() else np.full(m, -np.inf)
    bad = np.any(U[:, zero] < 0.0, axis=1)
    return np.where(bad, np.inf, lo), np.where(bad, -np.inf, hi)


def _fresh_kinks(u, g, L):
    r = L.shape[1]
    if r == len(u):
        return []
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
    _, s, v = np.linalg.svd(L[finite], full_matrices=False)
    rank = np.count_nonzero(s > 1e-13 * max(np.abs(L).max(initial=0.0), 1.0))
    if rank == min(r, len(finite)):
        return []
    return _fresh_kinks(u, g, L @ v[:rank].T)


def _fresh_polygon(U, L):
    k, m = L.shape[0], U.shape[0]
    norm = np.hypot(L[:, 0], L[:, 1])
    live = norm > 1e-13 * max(float(norm.max()), 1.0)
    norm = np.where(live, norm, 1.0)[:, None]
    a0, a1 = (L / norm).T
    cos = (a0[:, None] * a0 + a1[:, None] * a1)[..., None]
    sin = (a1[:, None] * a0 - a0[:, None] * a1)[..., None]
    later = (np.arange(k) > np.arange(k)[:, None])[..., None]
    U = np.ascontiguousarray(U.T)
    keep = live[:, None] & np.isfinite(U)
    D = np.where(keep, U / norm, 0.0) + 0.0
    Dj, Di = D[:, None], D[None]
    both = keep[:, None] & keep[None]
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = (Dj - Di * cos) / sin
        tau = np.where(later, Dj * sin + tau.transpose(1, 0, 2) * cos, tau)
    hi = np.min(np.where(both & (sin > 0.0), tau, np.inf), axis=0)
    lo = np.max(np.where(both & (sin < 0.0), tau, -np.inf), axis=0)
    hidden = both & (sin == 0.0) & (cos > 0.0) & ((Di > Dj) | ((Di == Dj) & later))
    i, r = np.nonzero(keep & (D != 0.0) & (lo < hi) & ~hidden.any(axis=0))
    h = np.concatenate([D[i, r], D[i, r]])
    t = owens_t(h, np.concatenate([hi[i, r], lo[i, r]]) / h)
    cone = np.where(np.any(keep & (D < 0.0), axis=0), 0.0, 1.0)
    phi = np.arctan2(L[:, 1], L[:, 0])
    for row in np.flatnonzero((cone == 1.0) & np.any(keep & (D == 0.0), axis=0)):
        ang = np.sort(phi[keep[:, row] & (D[:, row] == 0.0)])
        gap = np.diff(ang, append=ang[0] + 2.0 * np.pi).max()
        cone[row] = max(gap - np.pi, 0.0) / (2.0 * np.pi)
    total = cone - np.bincount(r, weights=t[:r.size] - t[r.size:], minlength=m)
    strip = both & (sin == 0.0) & (cos < 0.0) & (Di + Dj <= 0.0)
    dead = np.any(np.isneginf(U) | (~live[:, None] & (U < 0.0)), axis=0) | strip.any(axis=(0, 1))
    return np.where(dead, 0.0, np.clip(total, 0.0, 1.0))


def _fresh_trivariate(U, S):
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
    val = 2 * [ndtr(h1) * bvn_cdf(h2, h3, R[1, 2])]
    ang = np.arcsin([R[0, 1], R[0, 2]])
    rb = R[1, 2]
    r2, r3 = np.sin(ang)
    d2, d3 = ang * np.cos(ang)
    slope = 2.0 * (rb * (d2 * r3 + r2 * d3) - r2 * d2 - r3 * d3)
    det = 1.0 - r2 * r2 - r3 * r3 - rb * rb + 2.0 * r2 * r3 * rb
    layers = 0
    while layers < 52 and -slope * 0.5 ** layers > det:
        layers += 1
    x, wk, wg = gl_panels(split_edges(np.array([0.0, 1.0]),
                                      1.0 - 0.5 ** np.arange(1, layers + 1)))
    path = np.sin(np.outer(ang, x))
    cos2 = np.cos(np.outer(ang, x)) ** 2
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


def _fresh_orthant(U, S, L):
    k, r = U.shape[1], L.shape[1]
    if r == 0:
        v = np.all(U >= 0.0, axis=1).astype(float)
    elif r == 1:
        lo, hi = _fresh_rank1_bounds(U, L[:, 0])
        v = np.maximum(ndtr(hi) - ndtr(lo), 0.0)
    elif k == 2:
        s = np.sqrt(np.diag(S))
        v = bvn_cdf(U[:, 0] / s[0], U[:, 1] / s[1], S[0, 1] / (s[0] * s[1]))
    elif r == 2:
        v = _fresh_polygon(U, L)
    else:
        return _fresh_trivariate(U, S)
    return v, v


def _kept_record_cases():
    """(label, g, L) at k = 2, 3, 4 and ranks 0-3: generic factors, a pair
    of parallel lines, a zero-loading row; the polygon lines of
    `_POLYGON_LINES` and trivariate factors with a zero and a nearly
    degenerate correlation."""
    rng = np.random.default_rng(29_2)
    for k in (2, 3, 4):
        for r in range(min(k, 3) + 1):
            for variant in ("generic", "parallel", "zero_loading"):
                g, L = rng.normal(0.0, 1.0, k), rng.normal(0.0, 1.0, (k, r))
                if variant == "parallel":
                    if not k > max(r, 1):
                        continue
                    L[1] = -2.0 * L[0]
                elif variant == "zero_loading":
                    if not k > r:
                        continue
                    L[0], g[2 % k] = 0.0, 0.0
                yield f"k{k}-r{r}-{variant}", g, L
    for k in (3, 4, 5):
        yield f"lines-k{k}", rng.normal(0.0, 1.0, k), _POLYGON_LINES[:k]
    for name, C in (("rho12_zero", [[1.0, 0.0, 0.5], [0.0, 1.0, -0.3], [0.5, -0.3, 1.0]]),
                    ("degenerate", [[1.0, 0.3, 0.3], [0.3, 1.0, 1.0 - 1e-10],
                                    [0.3, 1.0 - 1e-10, 1.0]])):
        yield f"trivariate-{name}", rng.normal(0.0, 1.0, 3), psd_factor(np.array(C))


def _kept_record_rows(k, rng):
    """Rows u with finite, +inf, -inf and zero coordinates."""
    U = rng.normal(0.2, 1.5, size=(24, k))
    U[1, 0] = np.inf
    U[2, k - 1] = -np.inf
    U[3, [0, k - 1]] = np.inf
    U[4] = np.inf
    U[5] = 0.0
    U[6, 0], U[6, 1] = np.inf, -np.inf
    U[7, 1:] = np.inf
    return U


def _bits(values):
    return [np.asarray(v, dtype=float).tobytes() for v in values]


@pytest.mark.parametrize("label,g,L", list(_kept_record_cases()),
                         ids=[c[0] for c in _kept_record_cases()])
def test_kept_orthant_record_equals_a_fresh_evaluation_bit_for_bit(label, g, L):
    # one record serves every row and call: its kernel (the whole batch,
    # then each row alone), its x-interval and each row's kinks, read
    # twice so that the second read takes the kept kink normals, equal the
    # per-call kernels on the same inputs bit for bit
    S = L @ L.T
    k, r = L.shape
    record = ConditionedOrthant(g, S, L)
    U = _kept_record_rows(k, np.random.default_rng(k + 10 * r))
    assert (record.kernel is None) == needs_sampling(k, r)
    for _ in range(2):
        if record.kernel is not None:
            assert _bits(record.kernel(U)) == _bits(_fresh_orthant(U, S, L)), label
            for u in U:
                assert (_bits(record.kernel(u[None, :]))
                        == _bits(_fresh_orthant(u[None, :], S, L))), (label, u)
        assert _bits(record.interval(U)) == _bits(_fresh_rank1_bounds(U, g)), label
        for u in U:
            kinks = conditional_kinks(u, record)
            assert _bits(kinks) == _bits(_fresh_kinks(u, g, L)), (label, u, kinks)
    assert len(record._normals) <= 2 ** k


def test_split_edges_merges_exact_duplicates_with_the_near_ones():
    # the breaks are sorted in with their duplicates: an exact duplicate is a
    # panel of zero width and falls to the filter that merges edges closer
    # than a sliver of the range, so the edges are those of the distinct
    # values under the same filter
    rng = np.random.default_rng(5)
    base = np.linspace(-2.0, 3.0, 7)
    for _ in range(200):
        breaks = np.concatenate([rng.choice(base, 2), rng.uniform(-3.0, 4.0, 4),
                                 rng.choice(base, 2) + 1e-14 * rng.standard_normal(2)])
        breaks = np.concatenate([breaks, breaks[2:4]])
        want = np.unique(np.concatenate([base, breaks[(breaks > -2.0) & (breaks < 3.0)]]))
        want = want[np.concatenate([[True], np.diff(want) > 5e-13])]
        want[0], want[-1] = -2.0, 3.0
        assert np.array_equal(split_edges(base, breaks), want), breaks
    assert split_edges(base, [5.0, -2.0, 3.0, np.nan]) is base


@pytest.mark.parametrize("g", [np.array([0.5, -1.2, 2.0]), np.array([0.5, 1e-15, -1.2]),
                               np.array([-0.7, -0.2]), np.array([0.0, 0.0])])
def test_interval_of_the_loads_with_and_without_negligible_ones(g):
    # {x : g x <= u} for each row u: the tightest bound of each sign, and
    # empty where a negligible load meets u < 0; without such a load the
    # call has no check to make and gives the same ends
    U = np.random.default_rng(6).standard_normal((40, g.size))
    lo, hi = _Interval(g)(U)
    for u, a, b in zip(U, lo, hi):
        small = np.abs(g) <= 1e-13
        want = (np.inf, -np.inf) if np.any(u[small] < 0.0) else (
            max((u[i] / g[i] for i in np.flatnonzero(g < -1e-13)), default=-np.inf),
            min((u[i] / g[i] for i in np.flatnonzero(g > 1e-13)), default=np.inf))
        assert (a, b) == want, (g, u)
