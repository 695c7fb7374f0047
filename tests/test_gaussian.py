"""Oracle tests for the Gaussian probability helpers."""
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import multivariate_normal

from pmsdist._gauss import (
    bvn_cdf,
    condition_on_scalar,
    gaussian_rect,
    gaussian_rect_rows,
    gl_panels,
    norm_pdf,
    philox,
    psd_factor,
    ray_halfline_prob,
    sym_pinv,
)


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
    got = ray_halfline_prob(center, slope, B, u, 1.3)
    assert abs(got - want) < 1e-6


def test_ray_halfline_prob_infinite_halfline():
    # u = +inf integrates the rays over the whole line
    got = ray_halfline_prob(0.8, 1.0, 1.5, np.inf, 1.0)
    want = ndtr(-(1.5 + 0.8)) + 1.0 - ndtr(1.5 - 0.8)
    assert abs(got - want) < 1e-12


def test_ray_halfline_prob_vector_B():
    B = np.array([0.5, 1.0, 2.0])
    got = ray_halfline_prob(0.3, 1.0, B, 0.9, 1.0)
    single = [ray_halfline_prob(0.3, 1.0, b, 0.9, 1.0) for b in B]
    assert np.allclose(got, single, atol=1e-14)
    # monotone nonincreasing in the band half-width
    assert got[0] >= got[1] >= got[2]


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
    n = 70_000                              # more than one draw chunk
    vals, se = gaussian_rect_rows(U, cov, rng=philox(7), n_samples=n)
    for j, u in enumerate(U):
        want = gaussian_rect(u, cov, rng=philox(7), n_samples=n)
        assert (vals[j], se[j]) == want, j
    if sampled:
        # one shared sample of the full size; the estimate 0 keeps SE 1/n
        z = philox(7).standard_normal((n, 4)) @ psd_factor(cov).T
        hits = [np.count_nonzero(np.all(z <= u, axis=1)) for u in U]
        assert list(vals) == [h / n for h in hits]
        assert vals[-1] == 0.0 and se[-1] == np.sqrt(1.0 / n / n)
    else:
        assert not np.any(se)


def _rank2_orthant_oracle(v, L):
    """P(L eps <= v) for L of shape (3, 2): adaptive quadrature over eps_1,
    split where two of the eps_2 bounds cross."""
    def inner(e1):
        w = v - L[:, 0] * e1
        load = L[:, 1]
        hi = np.min(w[load > 0] / load[load > 0], initial=np.inf)
        lo = np.max(w[load < 0] / load[load < 0], initial=-np.inf)
        return max(ndtr(hi) - ndtr(lo), 0.0) * norm_pdf(e1)

    pts = [(v[i] / L[i, 1] - v[j] / L[j, 1]) / (L[i, 0] / L[i, 1] - L[j, 0] / L[j, 1])
           for i in range(3) for j in range(i + 1, 3)]
    return quad(inner, -12.0, 12.0, points=sorted(p for p in pts if abs(p) < 12.0),
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


def test_gl_panels_integrates_polynomials_exactly():
    edges = np.array([0.0, 0.3, 1.0])
    x, w = gl_panels(edges, 6)
    # degree-7 polynomial is exact under 6-node Gauss-Legendre
    assert abs(np.sum(w * x ** 7) - 1.0 / 8.0) < 1e-14
    assert abs(np.sum(w) - 1.0) < 1e-14


def test_psd_factor_reconstructs():
    rng = np.random.Generator(np.random.Philox(11))
    M = rng.standard_normal((3, 2))
    cov = M @ M.T  # rank 2
    L = psd_factor(cov)
    assert L.shape == (3, 2)
    assert np.allclose(L @ L.T, cov, atol=1e-12)


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
