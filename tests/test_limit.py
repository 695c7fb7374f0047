"""Tests for the limit distribution: representation path, integral path, density."""
import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import multivariate_normal

from pmsdist._gauss import condition_on_scalar
from pmsdist.dist_exact import AccuracyBudget, TermTrace
from pmsdist.dist_limit import (
    LocalAlternative,
    _cdf_limit_rows,
    _joint_rows,
    cdf_limit,
    cdf_limit_via_integral,
    full_model_gaussian_cdf,
    limit_nonconstancy_scan,
    local_shift_constants,
    pdf_limit,
)
from pmsdist.errors import DensityUndefinedError, ValidationError
from pmsdist.fixtures import fixture, random_k1_limit_case
from pmsdist.regression_core import limit_quantities
from pmsdist.selection import GeneralToSpecific

QUICK = AccuracyBudget(tol=1e-6, n_z=20_000, seed=0)


def _alt(fx, gamma=None, theta=None, sigma=1.0):
    P = fx.limits.P
    return LocalAlternative(theta=fx.problem.theta if theta is None else theta,
                            gamma=np.zeros(P) if gamma is None else gamma,
                            sigma=sigma)


def test_scalar_null_case_is_twosided_truncation():
    # P = 1, theta = 0, gamma = 0, threshold c: at t = 0 the limit cdf is
    # Phi(c) (the selection event folds the negative tail in)
    fx = fixture("P1")
    res = cdf_limit(fx.limits, _alt(fx), [0.0], fx.rule, QUICK)
    assert abs(res.value - 0.9750021048517795) < 1e-9
    assert isinstance(res.term_trace, TermTrace)
    assert abs(res.term_trace.total - res.value) < 1e-12


def test_large_drift_recovers_full_model_gaussian():
    # |gamma| huge: the full model is kept with probability ~1 and the
    # limit collapses to the no-selection Gaussian
    fx = fixture("COLL2")
    for gamma in (np.array([0.0, 50.0]), np.array([0.0, -50.0])):
        alt = _alt(fx, gamma=gamma, theta=np.zeros(2))
        for t in ([0.0, 0.0], [0.7, -0.4]):
            res = cdf_limit(fx.limits, alt, t, fx.rule, QUICK)
            want = full_model_gaussian_cdf(fx.limits, 1.0, t)
            assert abs(res.value - want) < 1e-6


def test_nan_t_is_rejected_and_infinite_t_is_valid():
    fx = fixture("P1")
    for evaluate in (cdf_limit, cdf_limit_via_integral):
        with pytest.raises(ValidationError):
            evaluate(fx.limits, _alt(fx), [np.nan], fx.rule, QUICK)
        assert evaluate(fx.limits, _alt(fx), [-np.inf], fx.rule, QUICK).value == 0.0
        assert evaluate(fx.limits, _alt(fx), [np.inf], fx.rule, QUICK).value > 1.0 - 1e-9


def test_two_evaluation_paths_agree():
    # both paths are deterministic at k = 1: they agree within the sum of
    # their reported errors
    for seed in range(200):
        limits, theta, gamma, sigma, rule, t = random_k1_limit_case(seed)
        alt = LocalAlternative(theta=theta, gamma=gamma, sigma=sigma)
        a = cdf_limit(limits, alt, t, rule, QUICK)
        b = cdf_limit_via_integral(limits, alt, t, rule, QUICK)
        assert abs(a.value - b.value) <= a.abs_error + b.abs_error, \
            f"seed {seed}: {a.value} +- {a.abs_error} vs {b.value} +- {b.abs_error}"


def _multivariate_case(P, k, O, theta, critical, seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((P + 3, P))
    Q = M.T @ M / (P + 3) + 0.2 * np.eye(P)
    A = np.eye(k, P) + 0.3 * rng.standard_normal((k, P))
    limits = limit_quantities(Q, A, O=O)
    alt = LocalAlternative(theta=theta, gamma=rng.uniform(-1.5, 1.5, size=P), sigma=1.2)
    return limits, alt, GeneralToSpecific(critical=critical)


@pytest.mark.parametrize("P,k,O,theta,critical,ts", [
    # p_star = 0: orders 2 and 3 take the rank-1 and rank-2 conditional
    # quadratures of the joint (Z, W) probability
    (3, 2, 0, (0.0, 0.0, 0.0), (1.8, 2.0, 2.2),
     [(0.0, 0.0), (0.8, -0.3), (-1.0, 1.5)]),
    # p_star = 2 with k = 3: a rank-2 trivariate orthant core and joint terms
    # of conditional rank 2, all deterministic
    (4, 3, 1, (0.5, -0.4, 0.0, 0.0), (2.0, 1.9, 2.1),
     [(0.0, 0.0, 0.0), (1.0, -0.5, 0.5), (-1.0, 1.0, 1.5)]),
])
def test_two_paths_agree_beyond_scalar_targets(P, k, O, theta, critical, ts):
    limits, alt, rule = _multivariate_case(P, k, O, np.array(theta), critical, seed=P)
    for t in ts:
        a = cdf_limit(limits, alt, t, rule, QUICK)
        b = cdf_limit_via_integral(limits, alt, t, rule, QUICK)
        assert abs(a.value - b.value) <= a.abs_error + b.abs_error, \
            f"t={t}: {a.value} +- {a.abs_error} vs {b.value} +- {b.abs_error}"
        assert (a.warning is not None) == (a.abs_error > QUICK.tol)


def test_vanishing_conditional_covariance_takes_closed_form():
    # order 1 of the P = 3, k = 2 design: Z_1 is carried by W_1 alone, and the
    # conditional covariance is rounding residue of the order of 1e-17
    limits, _, _ = _multivariate_case(3, 2, 0, np.zeros(3), (1.8, 2.0, 2.2), seed=3)
    cov_z, cov_zw, var_w = limits.omega(1), limits.C(1), limits.xi(1) ** 2
    assert condition_on_scalar(cov_z, cov_zw, var_w)[2].shape[1] == 0
    U = np.array([[0.0, 0.0], [0.8, -0.3], [-1.0, 1.5]])
    rows, quad = _joint_rows(U, cov_z, cov_zw, var_w, 0.4, 1.8 * limits.xi(1),
                             (0, 0), QUICK.n_z)
    vals, _, err, _ = rows(0)
    assert err == 0.0 and not quad
    # against Z = C_1 W / xi_1^2 simulated directly
    W = limits.xi(1) * np.random.default_rng(5).standard_normal(400_000)
    Z = np.outer(W, cov_zw / var_w)
    for u, v in zip(U, vals):
        hit = np.all(Z <= u, axis=1) & (np.abs(W + 0.4) >= 1.8 * limits.xi(1))
        assert abs(hit.mean() - v) <= 4.0 * np.sqrt(max(v * (1 - v), 1e-6) / W.size)


def _rays(cov_z, cov_zw, u, x_lo, x_hi):
    """_joint_rows at one row u for W = X ~ N(0, 1) outside (x_lo, x_hi)."""
    rows, quad = _joint_rows(np.atleast_2d(u), cov_z, cov_zw, 1.0,
                             -0.5 * (x_lo + x_hi), 0.5 * (x_hi - x_lo), (0, 0), QUICK.n_z)
    vals, _, err, _ = rows(0)
    return float(vals[0]), err, quad


RAY_PAIRS = [(-2.0, -1.0), (-0.7, 0.5), (-0.3, 1.0), (0.2, 9.5), (-9.5, 9.5)]


def test_joint_rows_closed_forms():
    # Z1 independent of X, Z2 = X: rank 1 with a zero-loading coordinate
    u = np.array([0.4, -0.3])
    for x_lo, x_hi in RAY_PAIRS:
        got, err, quad = _rays(np.eye(2), np.array([0.0, 1.0]), u, x_lo, x_hi)
        want = ndtr(u[0]) * (ndtr(min(u[1], x_lo)) + max(ndtr(u[1]) - ndtr(x_hi), 0.0))
        assert quad and 0.0 < err < 1e-18
        assert abs(got - want) <= 1e-13, (x_lo, x_hi, got, want)
    # rank 0: Z = g X, the orthant is the interval [-0.5, 0.25] in x
    g = np.array([2.0, -1.0])
    lo, hi = -0.5, 0.25
    for x_lo, x_hi in RAY_PAIRS:
        got, err, quad = _rays(np.outer(g, g), g, np.array([0.5, 0.5]), x_lo, x_hi)
        want = (max(ndtr(min(hi, x_lo)) - ndtr(lo), 0.0)
                + max(ndtr(hi) - ndtr(max(lo, x_hi)), 0.0))
        assert not quad and err == 0.0
        assert abs(got - want) <= 1e-15, (x_lo, x_hi, got, want)


def test_joint_rows_rank2_matches_trivariate_cdf():
    rng = np.random.Generator(np.random.Philox(17))
    M = rng.standard_normal((3, 3))
    M[2] /= np.linalg.norm(M[2])          # X = third coordinate, unit variance
    joint = M @ M.T
    u = np.array([0.3, -0.2])

    def cdf3(a):
        return multivariate_normal.cdf(np.array([u[0], u[1], a]), mean=np.zeros(3), cov=joint,
                                       abseps=1e-10, releps=1e-10, maxpts=2_000_000)

    # the upper ray starts beyond the quadrature range: P(Z <= u, X <= x_lo)
    for x_lo in (-1.1, 0.0, 0.6):
        got, _, _ = _rays(joint[:2, :2], joint[:2, 2], u, x_lo, 20.0)
        assert abs(got - cdf3(x_lo)) < 1e-7
    # both rays: P(Z <= u) - P(Z <= u, x_lo < X < x_hi)
    got, _, _ = _rays(joint[:2, :2], joint[:2, 2], u, -1.1, 0.6)
    both = multivariate_normal.cdf(u, mean=np.zeros(2), cov=joint[:2, :2],
                                   abseps=1e-10, releps=1e-10)
    assert abs(got - (both - cdf3(0.6) + cdf3(-1.1))) < 1e-7


def test_sampled_standard_errors_have_a_floor():
    # p_star = 1 on a P = 5, k = 4 design, whose joint terms of conditional
    # rank >= 2 are sampled: at t = -7 no draw lands in any sampled region,
    # yet the value is still an estimate with an error
    limits, alt, rule = _multivariate_case(5, 4, 1, np.array([0.5, 0.0, 0.0, 0.0, 0.0]),
                                           (2.0, 1.9, 2.1, 2.0), seed=5)
    t = np.full(4, -7.0)
    via_integral = cdf_limit_via_integral(limits, alt, t, rule, QUICK)
    assert via_integral.value == 0.0 and via_integral.abs_error > 0.0
    assert cdf_limit(limits, alt, t, rule, QUICK).abs_error > 0.0


def _p5_k4_limit():
    return _multivariate_case(5, 4, 1, np.array([0.5, 0.0, 0.0, 0.0, 0.0]),
                              (2.0, 1.9, 2.1, 2.0), seed=5)


def test_sampled_orders_draw_once(monkeypatch):
    # orders 3, 4 and 5 of the P = 5, k = 4 design sample their conditional
    # orthants of ranks 2, 3 and 4 (the core and order 2 are exact): one
    # draw each, shared by every refinement level
    import pmsdist.dist_limit as dist_limit

    calls = []

    class Counting:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, *args, **kwargs):
            calls.append(args)
            return self.rng.standard_normal(*args, **kwargs)

    original = dist_limit.philox
    monkeypatch.setattr(dist_limit, "philox", lambda *key: Counting(original(*key)))
    limits, alt, rule = _p5_k4_limit()
    budget = AccuracyBudget(tol=1e-6)
    res = cdf_limit(limits, alt, (1.0, -0.5, 0.5, 0.8), rule, budget)
    assert "level=0;" not in res.method    # refined: per-level draws would repeat
    assert calls == [((budget.n_z, r),) for r in (2, 3, 4)], calls
    calls.clear()
    cdf_limit_via_integral(limits, alt, (1.0, -0.5, 0.5, 0.8), rule, budget)
    assert len(calls) == 3, calls


def test_refinement_stops_when_sampling_error_alone_misses_tol():
    # at tol 1e-6 the three sampled orders' error is ~1.9e-4 at every level,
    # so refinement stops after level 1, and the value agrees with the one
    # refined to level 3 (0.00221599) within the reported error
    limits, alt, rule = _p5_k4_limit()
    res = cdf_limit(limits, alt, (1.0, -0.5, 0.5, 0.8), rule, AccuracyBudget(tol=1e-6))
    assert res.method.startswith("representation;level=1;")
    assert res.warning is not None and "exceeds tol" in res.warning
    assert abs(res.value - 0.00221599) <= res.abs_error, res


def test_batched_rows_trace_equals_the_one_row_trace():
    # row j of the batched representation trace is cdf_limit's trace at T[j]
    # (all rows refine to the same level here, as the method strings show)
    limits, alt, rule = _multivariate_case(3, 2, 0, np.zeros(3), (1.8, 2.0, 2.2), seed=3)
    consts = local_shift_constants(limits.Q, limits.A, alt.theta, alt.gamma, limits.O)
    T = np.array([(0.0, 0.0), (0.8, -0.3), (-1.0, 1.5)])
    totals, trace, gaps, level = _cdf_limit_rows(limits, consts.p_star, consts.nu, alt.sigma,
                                                 rule.critical_values(limits.O), T, QUICK)
    assert trace.terms.shape == (len(trace.orders), len(T)) and level == 1
    for j, t in enumerate(T):
        res = cdf_limit(limits, alt, t, rule, QUICK)
        assert res.method.startswith(f"representation;level={level};")
        row = trace.row(j)
        for field in ("terms", "weights", "errors", "sampling"):
            assert np.array_equal(getattr(row, field), getattr(res.term_trace, field)), field
        assert row.orders == res.term_trace.orders and totals[j] == res.value


@pytest.mark.parametrize("theta", [(0.5, 0.0, 0.0, 0.0), (0.5, -0.4, 0.0, 0.0)],
                         ids=["pstar1", "pstar2"])
def test_k3_limit_is_deterministic_and_meets_tol(theta):
    # the P = 4, k = 3 designs above: every joint term is quadrature, so the
    # seed and sample size do not enter, and the value agrees with the
    # deterministic integral path within the sum of the reported errors
    limits, alt, rule = _multivariate_case(4, 3, 1, np.array(theta), (2.0, 1.9, 2.1), seed=4)
    for t in [(0.0, 0.0, 0.0), (1.0, -0.5, 0.5), (-1.0, 1.0, 1.5)]:
        res = cdf_limit(limits, alt, t, rule, QUICK)
        assert res.warning is None, (t, res)
        other = cdf_limit(limits, alt, t, rule, AccuracyBudget(tol=1e-6, n_z=1000, seed=7))
        assert other.value == res.value
        ref = cdf_limit_via_integral(limits, alt, t, rule, QUICK)
        assert ref.warning is None, (t, ref)
        assert abs(res.value - ref.value) <= res.abs_error + ref.abs_error, (t, res, ref)


def test_pdf_matches_finite_differences():
    fx = fixture("ORTHO2")
    alt = _alt(fx, gamma=np.array([0.3, -0.8]))
    rng = np.random.Generator(np.random.Philox(5))
    for _ in range(3):
        t = rng.uniform(-1.5, 1.5, size=2)
        h = 1e-4

        def cdf(u, v):
            return cdf_limit(fx.limits, alt, [u, v], fx.rule, QUICK).value

        fd = (cdf(t[0] + h, t[1] + h) - cdf(t[0] + h, t[1] - h)
              - cdf(t[0] - h, t[1] + h) + cdf(t[0] - h, t[1] - h)) / (4 * h * h)
        assert abs(pdf_limit(fx.limits, alt, t, fx.rule) - fd) < 1e-3


def test_block_orthogonal_target_sees_no_selection_effect():
    fx = fixture("BLOCK_ORTHO")
    for gamma in (np.zeros(2), np.array([0.0, 3.0]), np.array([1.0, -2.0])):
        alt = _alt(fx, gamma=gamma)
        for t in (-1.0, 0.0, 1.5):
            res = cdf_limit(fx.limits, alt, [t], fx.rule, QUICK)
            want = full_model_gaussian_cdf(fx.limits, 1.0, [t])
            assert abs(res.value - want) <= 1e-6
            assert abs(want - ndtr(t)) < 1e-12


def test_local_shift_constants_frozen_collinear_case():
    # Q = [[1, .5], [.5, 1]], theta = 0, gamma = (0, 1): dropping the second
    # coordinate aliases half the drift onto the first
    fx = fixture("COLL2")
    consts = local_shift_constants(fx.Q, np.eye(2), np.zeros(2), np.array([0.0, 1.0]), O=0)
    assert consts.p_star == 0
    assert np.allclose(consts.beta[2], [0.0, 0.0], atol=1e-12)
    assert np.allclose(consts.beta[1], [0.5, -1.0], atol=1e-12)
    assert np.allclose(consts.beta[0], [0.0, -1.0], atol=1e-12)
    assert abs(consts.nu[1] - 0.5) < 1e-12
    assert abs(consts.nu[2] - 1.0) < 1e-12
    # p_star respects both the true order and the protected floor
    assert local_shift_constants(fx.Q, np.eye(2), np.array([1.0, 0.0]),
                                 np.zeros(2), O=0).p_star == 1
    assert local_shift_constants(fx.Q, np.eye(2), np.zeros(2),
                                 np.zeros(2), O=1).p_star == 1


def test_limit_depends_only_on_order_of_theta():
    fx = fixture("ORTHO2")
    gamma = np.array([0.4, -1.1])
    grid = np.column_stack([np.zeros(7), np.linspace(-3, 3, 7)])
    rep_a = limit_nonconstancy_scan(fx.limits, np.array([0.5, 0.15]), 1.0,
                                    [0.0, 0.0], fx.rule, grid, QUICK)
    rep_b = limit_nonconstancy_scan(fx.limits, np.array([1.0, 0.3]), 1.0,
                                    [0.0, 0.0], fx.rule, grid, QUICK)
    assert np.array_equal(rep_a.values, rep_b.values)
    assert rep_a.oscillation == rep_b.values.max() - rep_b.values.min()


def test_nonconstancy_scan_finds_real_oscillation():
    # correlated design, scalar target hitting the tested coordinate:
    # the limit moves substantially with the drift
    fx = fixture("COLL2")
    limits = fixture("COLL2").limits
    grid = np.column_stack([np.zeros(9), np.linspace(-4, 4, 9)])
    rep = limit_nonconstancy_scan(limits, np.array([1.0, 0.0]), 1.0,
                                  [0.0, 0.0], fx.rule, grid, QUICK)
    assert rep.oscillation > 0.3
    assert rep.values.shape == (9,)


def test_cdf_limit_monotone_and_bounded():
    fx = fixture("COLL2")
    alt = _alt(fx, gamma=np.array([0.5, 1.5]), theta=np.zeros(2))
    ts = np.linspace(-3.0, 3.0, 7)
    vals = [cdf_limit(fx.limits, alt, [t, t], fx.rule, QUICK).value for t in ts]
    assert all(0.0 <= v <= 1.0 for v in vals)
    for lo, hi in zip(vals, vals[1:]):
        assert hi >= lo - 1e-6


def test_pdf_undefined_when_mass_has_atoms():
    # theta = 0 with O = 0: the order-0 component is a point mass
    fx = fixture("P1")
    with pytest.raises(DensityUndefinedError):
        pdf_limit(fx.limits, _alt(fx, theta=np.zeros(1)), [0.0], fx.rule)
    # scalar target orthogonal to the leading block: rank condition fails
    from pmsdist.regression_core import limit_quantities
    limits = limit_quantities(np.eye(2), np.array([[0.0, 1.0]]), O=0)
    alt = LocalAlternative(theta=np.array([0.7, 0.0]), gamma=np.zeros(2), sigma=1.0)
    with pytest.raises(DensityUndefinedError):
        pdf_limit(limits, alt, [0.0], GeneralToSpecific(critical=(2.0, 2.0)))


def test_validation_errors():
    fx = fixture("COLL2")
    with pytest.raises(ValidationError):
        cdf_limit(fx.limits, _alt(fx), [0.0], fx.rule, QUICK)  # t too short
    with pytest.raises(ValidationError):
        cdf_limit(fx.limits, _alt(fx), [0.0, 0.0], GeneralToSpecific(critical=(2.0,)), QUICK)
    with pytest.raises(ValidationError):
        LocalAlternative(theta=np.zeros(2), gamma=np.zeros(3), sigma=1.0)
    with pytest.raises(ValidationError):
        LocalAlternative(theta=np.zeros(2), gamma=np.zeros(2), sigma=0.0)
