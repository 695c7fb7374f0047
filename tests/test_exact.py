"""Tests for the finite-sample cdf: mixture formula, scale density, engine."""
import functools
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.special import ndtr
from scipy.stats import chi, chi2

from pmsdist import _gauss
from pmsdist._gauss import (
    TAIL_CUT,
    bvn_cdf,
    condition_on_scalar,
    gl_panels,
    norm_pdf,
    ray_interval_prob,
    refine,
)
from pmsdist.cdf_estimators import g_check_values
from pmsdist.dist_exact import (
    AccuracyBudget,
    CdfQuery,
    SigmaRatioDensity,
    _ExactEngine,
    cdf_exact,
    cdf_exact_rows,
    cdf_result,
    delta,
    tail_products,
)
from pmsdist.dist_limit import (
    LocalAlternative,
    _joint_rows,
    cdf_limit,
    cdf_limit_via_integral,
    pdf_limit,
)
from pmsdist.errors import DensityUndefinedError, ValidationError
from pmsdist.fixtures import fixture
from pmsdist.montecarlo import SimulationPlan, empirical_cdf
from pmsdist.regression_core import (
    _RECORDS,
    RegressionProblem,
    _design_record,
    limit_quantities,
    local_shift_constants,
    projection_quantities,
)
from pmsdist.selection import GeneralToSpecific, InformationCriterion, SubsetMask

QUICK = AccuracyBudget(tol=1e-4, n_z=20_000, seed=0)
E1 = np.array([[1.0, 0.0]])


def _term(engine, p, sampled=False):
    """(value, pi, error, se) of order p's `conditional_rows` rule as it
    stands: after its first pass unless its panels were bisected since."""
    term = engine._term_sampled(p) if sampled else engine._conditional_term(p)
    value, pi, err, _ = term.parts()[:, 0]
    return value, pi, err, float(term.se[0])


def _nu(engine, j=0):
    """Row j's drifts nu_p of an engine, as floats keyed by p."""
    return {p: float(v[j]) for p, v in engine.nu.items()}


def _query(fx, t, theta=None, sigma=None):
    return CdfQuery(A=fx.A, t=t,
                    theta=fx.problem.theta if theta is None else theta,
                    sigma=fx.problem.sigma if sigma is None else sigma,
                    rule=fx.rule)


def test_delta_frozen_value_and_properties():
    assert abs(delta(1.0, 0.0, 1.96) - 0.950004209703559) < 1e-12
    # definition check against the two-sided normal probability
    want = ndtr((2.0 - 0.7) / 1.3) - ndtr((-2.0 - 0.7) / 1.3)
    assert abs(delta(1.3, 0.7, 2.0) - want) < 1e-15
    assert delta(1.0, 0.7, 2.0) == delta(1.0, -0.7, 2.0)       # symmetric in a
    assert delta(1.0, 0.0, -0.5) == 0.0                        # negative width clips
    assert delta(1.0, np.inf, 2.0) == 0.0 == delta(1.0, -np.inf, 2.0)
    assert delta(0.0, 0.5, 1.0) == 1.0 and delta(0.0, 1.5, 1.0) == 0.0
    out = delta(1.0, np.array([0.0, np.inf]), np.array([1.0, 1.0]))
    assert out.shape == (2,) and out[1] == 0.0
    with pytest.raises(ValidationError):
        delta(-1.0, 0.0, 1.0)


def _ratio_pdf_mp(dof, s):
    """The ratio density 2 a^a s^(2a - 1) exp(-a s^2) / Gamma(a), a = dof / 2,
    in 40-digit arithmetic at each s > 0."""
    import mpmath

    with mpmath.workdps(40):
        a = mpmath.mpf(dof) / 2
        c = 2 * a ** a / mpmath.gamma(a)
        return np.array([float(c * x ** (2 * a - 1) * mpmath.exp(-a * x ** 2))
                         for x in map(mpmath.mpf, s)])


@pytest.mark.parametrize("dof", [1, 2, 18, 100_000])
def test_sigma_ratio_density_is_scaled_chi(dof):
    dens = SigmaRatioDensity(dof)
    ref = chi(df=dof, scale=1.0 / np.sqrt(dof))
    q = np.array([1e-12, 1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6, 1.0 - 1e-10])
    s = np.concatenate([[0.0], ref.ppf(q), [0.5, 1.0, 2.0]])
    # s = 0 included: at dof = 1 the density there is sqrt(2 / pi), not NaN.
    # The pdf is held to the 40-digit law: scipy's chi pdf is off by up to
    # 1.5e-10 at dof 100,000, the rounding of its large log terms
    want = np.concatenate([[chi(df=dof).pdf(0.0)], _ratio_pdf_mp(dof, s[1:])])
    np.testing.assert_allclose(dens.pdf(s), want, rtol=1e-12, atol=1e-300)
    np.testing.assert_allclose(dens.cdf(s), ref.cdf(s), rtol=1e-12, atol=1e-300)
    np.testing.assert_allclose(dens.ppf(q), ref.ppf(q), rtol=1e-12)
    assert dens.ppf(0.0) == 0.0 and dens.cdf(0.0) == 0.0 and dens.pdf(-1.0) == 0.0
    mass, _ = quad(dens.pdf, 0.0, 8.0, points=[1.0], limit=200)
    assert abs(mass - 1.0) < 1e-8
    for q in (0.1, 0.5, 0.9):
        assert abs(dens.cdf(dens.ppf(q)) - q) < 1e-10
    # cdf agrees with the chi-squared law of dof * s^2
    assert abs(dens.cdf(0.9) - chi2(df=dof).cdf(dof * 0.81)) < 1e-12
    with pytest.raises(ValidationError):
        SigmaRatioDensity(0)


def test_sigma_ratio_density_at_its_edges():
    # (d - 1) log x is 0 at dof 1, so that density is finite at s = 0, and
    # -inf at dof >= 2, so those densities are 0 there; s < 0 gives 0; no
    # RuntimeWarning on the way
    s = np.array([0.0, -0.5, -np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        one = SigmaRatioDensity(1).pdf(s)
        assert np.isfinite(one[0]) and one[0] > 0.0
        assert abs(one[0] - chi(df=1).pdf(0.0)) < 1e-15 and not np.any(one[1:])
        assert SigmaRatioDensity(1).pdf(0.0) == one[0]
        for dof in (2, 3, 18, 99_998):
            assert not np.any(SigmaRatioDensity(dof).pdf(s)), dof


@pytest.mark.parametrize("dof,tol", [(1, 1e-14), (2, 1e-14), (18, 1e-14), (36, 1e-14),
                                     (99_998, 1e-10)])
def test_last_order_scale_mass_is_the_ratio_cdf(dof, tol):
    # the last order has no later test (tail_P = 1), so its scale mass is
    # the ratio cdf between the grid's edges in closed form, one array for
    # both parts.  It matches the K25 rule of the pdf on the same edges
    # (the form every earlier order keeps) below, inside and above the
    # grid.  At dof 99,998 (COLL2 at n = 1e5) the log-density is a sum of
    # terms near 6e5 whose rounding, 1e-11 of the density, the pdf rule
    # carries and the incomplete gamma function does not
    X = np.random.default_rng(dof).standard_normal((dof + 2, 2))
    problem = RegressionProblem(X=X, theta=np.array([0.5, 0.3]), sigma=1.0, O=0)
    query = CdfQuery(A=np.eye(2), t=(0.25, 0.25), theta=problem.theta, sigma=1.0,
                     rule=fixture("COLL2").rule)
    engine = _ExactEngine(problem, query, AccuracyBudget())
    edges = engine._s_edges
    y = np.concatenate([[0.0, 0.5 * edges[0], edges[0]],
                        np.linspace(edges[0], edges[-1], 52)[1:-1], 0.5 * (edges[1:] + edges[:-1]),
                        [edges[-1], 1.5 * edges[-1], np.inf]])
    k25, g12 = engine._scale_mass(2, 0)(y)
    assert np.array_equal(k25, g12)
    assert not np.any(k25[:3]) and np.all(k25[-3:] == k25[-1])
    pdf_sums = _gauss.cumulative_sums(engine.ratio.pdf(_gauss.gl_panels(edges)[0]), edges)
    rule, _ = _gauss.cumulative_rule(engine.ratio.pdf, edges, pdf_sums)(y)
    assert np.max(np.abs(k25 - rule)) < tol
    ratio = engine.ratio
    assert abs(k25[-1] - (ratio.cdf(edges[-1]) - ratio.cdf(edges[0]))) == 0.0


def test_exact_equals_gaussian_when_target_ignores_tested_coordinate():
    # scalar target (1, 0) on an orthogonal design: the selection event is
    # independent of the target error, so G(t) = Phi(t) at every n
    fx = fixture("BLOCK_ORTHO")
    for t, want in ((-1.0, 0.15865525393145707), (0.0, 0.5), (1.5, 0.9331927987311419)):
        res = cdf_exact(fx.problem, _query(fx, [t]), QUICK)
        assert abs(res.value - want) <= res.abs_error + 1e-9


def test_query_theta_overrides_problem_theta():
    # the parameter point of the query, not the problem, must drive the
    # means: evaluating on a problem built with a different theta is identical
    fx = fixture("P1")
    q = _query(fx, [0.0], theta=np.array([-0.999]))
    res_via_query = cdf_exact(fx.problem, q, QUICK)
    rebuilt = RegressionProblem(X=fx.problem.X, theta=np.array([-0.999]),
                                sigma=1.0, O=0)
    res_via_problem = cdf_exact(rebuilt, q, QUICK)
    assert res_via_query.value == res_via_problem.value
    # with theta far from zero the full model is selected almost surely and
    # the scaled error is standard normal: G(0) ~ 1/2
    assert abs(res_via_query.value - 0.5) < 5e-3
    # sigma rescaling in the query must act too: G(t; sigma) = G(t/s; sigma/s)
    res_a = cdf_exact(fx.problem, _query(fx, [0.8], sigma=2.0), QUICK)
    res_b = cdf_exact(fx.problem, _query(fx, [0.4], sigma=1.0), QUICK)
    assert abs(res_a.value - res_b.value) < 2 * (res_a.abs_error + res_b.abs_error) + 1e-9


def test_engine_shifts_and_drifts_are_the_projection_means():
    # shift(p) = sqrt(n) A (eta(p) - theta) and nu_p = sqrt(n) eta_p(p),
    # eta(p) the least-squares fit of X theta on the first p columns, at a
    # query theta other than the problem's
    ortho, coll = fixture("ORTHO2"), fixture("COLL2")
    cases = [(ortho.problem, ortho.A, ortho.rule, np.array([-0.3, 0.7])),
             (coll.problem, coll.A, coll.rule, np.array([0.2, -0.45])),
             (*_p4_k3_case(), np.array([0.1, -0.6, 0.35, 0.8]))]
    for problem, A, rule, theta in cases:
        assert not np.array_equal(theta, problem.theta)
        query = CdfQuery(A=A, t=np.zeros(A.shape[0]), theta=theta, sigma=1.0, rule=rule)
        engine = _ExactEngine(problem, query, QUICK)
        P, O, sqrt_n = problem.P, problem.O, np.sqrt(problem.n)
        for p in range(O, P + 1):
            eta = np.zeros(P)
            if p:
                eta[:p] = np.linalg.lstsq(problem.X[:, :p], problem.X @ theta, rcond=None)[0]
            assert np.allclose(engine.shift[p][0], sqrt_n * A @ (eta - theta),
                               rtol=0.0, atol=1e-12), p
            if p > O:
                assert abs(engine.nu[p][0] - sqrt_n * eta[p - 1]) <= 1e-12, p


def test_nearly_collinear_design_keeps_its_value():
    # cond(X'X/n) is about 3e14: too ill-conditioned for the limit Gram's
    # positive definiteness gate, but the finite-n law is well defined and
    # its value is frozen (the K25 values, within 1e-13 of 48-panel
    # Gauss-Legendre rules)
    rng = np.random.default_rng(7)
    n = 200
    x2 = rng.standard_normal(n)
    X = np.column_stack([np.ones(n), x2, x2 + 1e-7 * rng.standard_normal(n)])
    problem = RegressionProblem(X=X, theta=np.array([0.5, 0.3, 0.0]), sigma=1.0, O=1)
    assert np.linalg.cond(problem.gram) > 1e14
    with pytest.raises(ValidationError):
        limit_quantities(problem.gram, np.eye(3)[:2], problem.O)
    rule = GeneralToSpecific(critical=(2.0, 2.0))
    for A, t, want in ((np.array([[1.0, 0.0, 0.0]]), [0.3], 0.6197301209392971),
                       (np.eye(3)[:2], [0.3, -0.2], 0.3011254774830683)):
        res = cdf_exact(problem, CdfQuery(A=A, t=t, theta=problem.theta, sigma=1.0, rule=rule))
        assert res.warning is None
        assert abs(res.value - want) <= 1e-15, (res.value, want)


def test_scale_truncation_is_charged_once(monkeypatch):
    # at each scale the order terms are probabilities of disjoint events, so
    # the scale mass outside the grid (1.01e-10) bounds the total's
    # truncation error once: widening the grid moves the value by at most
    # that mass, which abs_error carries in |1 - sum pi(p)| and nowhere else
    import pmsdist.dist_exact as dist_exact

    trunc = dist_exact._S_Q_LO + (1.0 - dist_exact._S_Q_HI)
    problem, A, rule = _p4_k3_case()
    query = CdfQuery(A=A, t=P4_GRID[0], theta=problem.theta, sigma=1.0, rule=rule)
    res = cdf_exact(problem, query)
    tr = res.term_trace
    assert np.sum(tr.errors) < 1e-17 and abs(1.0 - np.sum(tr.weights) - trunc) < 1e-13, tr
    assert res.abs_error < 3.0 * trunc, res
    monkeypatch.setattr(dist_exact, "_S_Q_LO", 1e-15)
    monkeypatch.setattr(dist_exact, "_S_Q_HI", 1.0 - 1e-13)
    wide = cdf_exact(problem, query)
    assert abs(1.0 - np.sum(wide.term_trace.weights)) < 1e-12, wide
    assert abs(wide.value - res.value) <= trunc, (wide, res)


@pytest.mark.parametrize("name,n,t", [("P1", None, (0.0,)), ("COLL2", None, (0.25, 0.25)),
                                      ("COLL2", 100_000, (0.25, 0.25))])
def test_tol_below_the_error_floor_costs_one_pass(name, n, t):
    # the truncated scale mass (1.01e-10) and the rounding floor bound every
    # exact abs_error from below, and no bisection reduces them: a tol under
    # them returns after the first pass, with a warning that names the floor
    fx = fixture(name) if n is None else fixture(name, n=n)
    for tol in (1e-11, 1e-15):
        res = cdf_exact(fx.problem, _query(fx, t), AccuracyBudget(tol=tol))
        assert res.method.startswith("mixture-formula;levels=0;"), res
        assert res.warning is not None and "error floor" in res.warning, res
        assert res.abs_error > 1e-10, res
    # the limit paths drop no mass: their floor is the rounding floor
    alt = LocalAlternative(theta=np.zeros(fx.problem.P),
                           gamma=np.linspace(0.5, 1.0, fx.problem.P), sigma=1.0)
    for evaluate in (cdf_limit, cdf_limit_via_integral):
        res = evaluate(fx.limits, alt, t, fx.rule, AccuracyBudget(tol=1e-15))
        assert "levels=0;" in res.method and "error floor" in res.warning, res


def test_replay_is_bit_identical():
    fx = fixture("COLL2")
    q = _query(fx, [0.3, -0.2])
    r1 = cdf_exact(fx.problem, q, QUICK)
    r2 = cdf_exact(fx.problem, q, QUICK)
    assert r1.value == r2.value and r1.abs_error == r2.abs_error
    assert r1.method == r2.method


def test_cdf_monotone_in_argument():
    fx = fixture("P1")
    vals = [cdf_exact(fx.problem, _query(fx, [t]), QUICK) for t in (-2.0, -1.0, 0.0, 1.0, 2.0)]
    for lo, hi in zip(vals, vals[1:]):
        assert hi.value >= lo.value - (hi.abs_error + lo.abs_error)
    assert cdf_exact(fx.problem, _query(fx, [-20.0]), QUICK).value < 1e-8
    assert cdf_exact(fx.problem, _query(fx, [20.0]), QUICK).value > 1 - 1e-8


def test_decomposition_orders_weights_and_total():
    fx = fixture("COLL2")
    q = _query(fx, [0.5, 0.5])
    point = cdf_exact(fx.problem, q, QUICK)
    dec = point.term_trace
    assert dec.orders == (0, 1, 2)
    assert np.all(dec.weights >= 0.0)
    assert abs(dec.weights.sum() - 1.0) < 10 * point.abs_error + 1e-3
    assert np.all((0.0 <= dec.conditional) & (dec.conditional <= 1.0))
    mix = float(dec.conditional @ dec.weights)
    assert abs(mix - dec.total) < 10 * point.abs_error + 1e-3
    assert abs(dec.total - point.value) < 1e-12


@pytest.mark.parametrize("name,A,t,reps", [
    ("ORTHO2", np.eye(2), (0.4, -0.3), 40_000),
    # COLL2 order 1 with target (0, 1): a point mass at zero, which the
    # swapped rule takes as a rank-0 conditional orthant
    ("COLL2", np.array([[0.0, 1.0]]), (0.7,), 200_000),
], ids=["ORTHO2-k2", "COLL2-k1-degenerate"])
def test_exact_agrees_with_simulation(name, A, t, reps):
    fx = fixture(name)
    t = np.array(t)
    plan = SimulationPlan(problem=fx.problem, rule=fx.rule, A=A,
                          replications=reps, master_seed=2024)
    emp = empirical_cdf(plan, t[None, :], workers=2)
    res = cdf_exact(fx.problem, CdfQuery(A=A, t=t, theta=fx.problem.theta,
                                         sigma=1.0, rule=fx.rule), QUICK)
    gap = abs(res.value - emp.estimates[0])
    assert gap <= 4 * emp.standard_errors[0] + res.abs_error


def test_query_and_budget_validation():
    fx = fixture("COLL2")
    with pytest.raises(ValidationError):
        CdfQuery(A=fx.A, t=[0.0], theta=fx.problem.theta, sigma=1.0, rule=fx.rule)
    with pytest.raises(ValidationError):
        CdfQuery(A=np.array([[1.0, 0.0], [2.0, 0.0]]), t=[0.0, 0.0],
                 theta=fx.problem.theta, sigma=1.0, rule=fx.rule)
    with pytest.raises(ValidationError):
        CdfQuery(A=fx.A, t=[0.0, 0.0], theta=fx.problem.theta, sigma=0.0, rule=fx.rule)
    with pytest.raises(ValidationError):
        CdfQuery(A=fx.A, t=[0.0, 0.0], theta=np.array([0.0, np.nan]),
                 sigma=1.0, rule=fx.rule)
    ic = InformationCriterion(upsilon_n=2.0, family=(
        SubsetMask(bits=(1, 1)), SubsetMask(bits=(1, 0))))
    with pytest.raises(ValidationError):
        CdfQuery(A=fx.A, t=[0.0, 0.0], theta=fx.problem.theta, sigma=1.0, rule=ic)
    with pytest.raises(ValidationError):
        AccuracyBudget(tol=0.0)
    with pytest.raises(ValidationError):
        AccuracyBudget(n_z=10)


def test_query_of_another_width_is_rejected():
    pr = fixture("COLL2").problem
    query = CdfQuery(A=np.eye(3), t=np.zeros(3), theta=np.zeros(3), sigma=1.0,
                     rule=GeneralToSpecific(critical=(2.0, 2.0)))
    with pytest.raises(ValidationError, match="query A width"):
        cdf_exact(pr, query)


def test_budget_sample_size_and_seed_are_integers():
    # a float n_z would fail only once a k >= 4 target draws, and a float
    # seed would replay the draws of its integer part under its own name
    for bad in ({"n_z": 1e4}, {"seed": 1.5}, {"seed": 1.0}, {"n_z": True}):
        with pytest.raises(ValidationError):
            AccuracyBudget(**bad)
    assert AccuracyBudget(n_z=np.int64(1000), seed=np.uint32(3)).seed == 3


def test_nan_t_is_rejected_and_infinite_t_is_valid():
    fx = fixture("COLL2")
    with pytest.raises(ValidationError):
        _query(fx, [0.0, np.nan])
    for A in (fx.A, E1):
        k = A.shape[0]
        lo, hi = (cdf_exact(fx.problem, CdfQuery(A=A, t=np.full(k, t), theta=fx.problem.theta,
                                                 sigma=1.0, rule=fx.rule), QUICK)
                  for t in (-np.inf, np.inf))
        assert lo.value == 0.0 and lo.warning is None
        assert abs(hi.value - 1.0) <= hi.abs_error and hi.warning is None


def test_protected_order_floor_shows_in_weights():
    # ORTHO2 protects the first coordinate: order 0 never appears
    fx = fixture("ORTHO2")
    dec = cdf_exact(fx.problem, _query(fx, [0.0, 0.0]), QUICK).term_trace
    assert dec.orders == (1, 2)


def _p3_k2_case():
    # P = 3, k = 2: order 1 conditions to rank 0, order 2 (zeta = 0) to
    # rank 1 and order 3 (zeta > 0) to the bivariate-normal rank 2
    rng = np.random.default_rng(3)
    n = 30
    X = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
    A = np.eye(2, 3) + 0.3 * rng.standard_normal((2, 3))
    problem = RegressionProblem(X=X, theta=np.array([0.6, 0.3, 0.2]), sigma=1.0, O=0)
    return problem, A, GeneralToSpecific(critical=(1.8, 2.0, 2.2))


def test_k2_term_agrees_with_sampled_term():
    budget = AccuracyBudget()
    ortho, coll = fixture("ORTHO2"), fixture("COLL2")
    cases = [(ortho.problem, ortho.A, ortho.rule, [(0.25, 0.25), (-1.0, 1.5)]),
             (coll.problem, coll.A, coll.rule, [(-1.0, 1.5), (1.5, 1.5)]),
             (*_p3_k2_case(), [(0.0, 0.0), (0.8, -0.3), (-1.0, 1.5)])]
    ranks = set()
    for problem, A, rule, ts in cases:
        for t in ts:
            engine = _ExactEngine(problem, CdfQuery(A=A, t=t, theta=problem.theta,
                                                    sigma=1.0, rule=rule), budget)
            dq = engine.design
            for p in range(problem.O + 1, problem.P + 1):
                ranks.add(condition_on_scalar(dq.omega(p), dq.C(p), dq.xi(p) ** 2)[2].shape[1])
                det, _, det_err = _term(engine, p)[:3]
                val, _, err, se = _term(engine, p, sampled=True)
                assert abs(det - val) <= 3.0 * se + err + det_err, \
                    f"order {p} at t={t}: {det} vs {val} +- {se}"
    assert ranks == {0, 1, 2}


@pytest.mark.parametrize("name,p,t", [("COLL2", 1, (-1.0, -1.0)),
                                      ("ORTHO2", 2, (0.25, 0.25)),
                                      ("ORTHO2", 2, (1.5, 0.25))])
def test_k2_term_matches_adaptive_scale_quadrature(name, p, t):
    # COLL2 order 1: z = (x, 0); ORTHO2 order 2: z = (e, x), e independent
    # of x.  Either way P(z <= u, x outside (x_lo, x_hi)) is a product of
    # normal cdfs, and the scale integral is left to adaptive quadrature.
    fx = fixture(name)
    budget = AccuracyBudget()
    engine = _ExactEngine(fx.problem, _query(fx, t), budget)
    u = engine.u - engine.shift[p][0]
    if name == "COLL2":
        x_end, factor = u[0], float(u[1] >= 0.0)
    else:
        x_end, factor = u[1], ndtr(u[0])
    dq = engine.design
    x0, c = -_nu(engine)[p] / dq.xi(p), engine.c[p]

    def integrand(s):
        x_lo, x_hi = x0 - s * c, x0 + s * c
        rays = ndtr(min(x_end, x_lo)) + max(ndtr(x_end) - ndtr(x_hi), 0.0)
        tail = tail_products(dq, _nu(engine), engine.c, p, np.array([s]))[p][0]
        return engine.ratio.pdf(s) * tail * factor * rays

    lo, hi = engine.ratio.ppf(1e-12), engine.ratio.ppf(1.0 - 1e-10)
    want, _ = quad(integrand, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=500)
    got, _, _ = _term(engine, p)[:3]
    assert abs(got - want) <= 1e-11, (got, want)


@pytest.mark.parametrize("name,t", [("COLL2", -1.0), ("COLL2", 0.25), ("COLL2", 1.5),
                                    ("ORTHO2", 0.25)])
def test_k1_term_matches_adaptive_quadrature(name, t):
    # order 2 with target (1, 0) has conditional spread zeta > 0: the term
    # int pdf(s) tail(s) E[1{z <= u} (1 - Delta(sigma zeta, m + b z, s c
    # sigma xi))] ds, under nested adaptive quadrature in z and s
    fx = fixture(name)
    engine = _ExactEngine(fx.problem, CdfQuery(A=E1, t=[t], theta=fx.problem.theta,
                                               sigma=1.0, rule=fx.rule), AccuracyBudget())
    p, sig = 2, 1.0
    dq = engine.design
    assert dq.zeta(p) > 0.1 * dq.xi(p)
    u = engine.u - engine.shift[p][0]
    b, mp, cssx = float(dq.b(p)[0]), _nu(engine)[p], engine.c[p] * sig * dq.xi(p)
    sd = sig * np.sqrt(dq.omega(p)[0, 0])

    def inner(s):
        def f(z):
            return norm_pdf(z / sd) / sd * (1.0 - delta(sig * dq.zeta(p), mp + b * z, s * cssx))
        val, _ = quad(f, -12.0 * sd, u[0], epsabs=1e-15, epsrel=1e-13, limit=200)
        tail = tail_products(dq, _nu(engine), engine.c, p, np.array([s]))[p][0]
        return engine.ratio.pdf(s) * tail * val

    lo, hi = engine.ratio.ppf(1e-12), engine.ratio.ppf(1.0 - 1e-10)
    want, _ = quad(inner, lo, hi, points=engine.s_step, epsabs=1e-14, epsrel=1e-12, limit=200)
    got, _, _ = _term(engine, p)[:3]
    assert abs(got - want) <= 1e-11, (got, want)


def _two_ray_cases():
    k1_ts = [(-1.5,), (0.0,), (0.25,), (1.5,)]
    for n in (100, 1600, 100_000):
        fx = fixture("P1", n=n, theta=[0.3 / np.sqrt(n)])
        yield fx.problem, fx.A, fx.rule, k1_ts
    for name, A in (("COLL2", (1.0, 0.0)), ("COLL2", (0.0, 1.0)), ("ORTHO2", (0.0, 1.0))):
        fx = fixture(name)
        yield fx.problem, np.array([A]), fx.rule, k1_ts
    coll = fixture("COLL2")
    yield coll.problem, coll.A, coll.rule, [(-1.0, 0.25), (1.5, -1.0), (0.25, 1.5)]


def _total(engine):
    """(unclamped total, abs_error) of an engine, as `cdf_exact` refines it."""
    trace, gaps, rounds = refine(engine.assemble, engine.panels(), engine.budget.tol,
                                 engine.truncated)
    res = cdf_result(trace.row(0), gaps[0] + engine.gap[0], rounds[0], engine.budget,
                     "mixture-formula", engine.k, engine.truncated)
    return float(res.term_trace.total), res.abs_error


def test_two_ray_arm_agrees_with_general_rule():
    # an order whose z is a multiple of its selection scalar (conditional
    # rank 0) is two rays in that scalar, read off the drift record's scale
    # tables (`_term_k1`); with the engine's rank-0 intervals cleared, the
    # swapped rule of `_conditional_term` on the kept r = 0 orthant covers it
    budget = AccuracyBudget()
    for problem, A, rule, ts in _two_ray_cases():
        for t in ts:
            query = CdfQuery(A=A, t=t, theta=problem.theta, sigma=1.0, rule=rule)
            two_ray, general = (_ExactEngine(problem, query, budget) for _ in range(2))
            assert two_ray.rank0, (A, t)
            general.rank0.clear()
            (a, a_err), (b, b_err) = (_total(engine) for engine in (two_ray, general))
            assert abs(a - b) <= a_err + b_err, (A, t, a, b)


@pytest.mark.parametrize("case,arms", [
    ("P1", {1: "two_ray"}),
    ("COLL2", {1: "two_ray", 2: "orthant"}),
    ("P3-k2", {1: "two_ray", 2: "orthant", 3: "orthant"}),
    ("P4-k3", {2: "orthant", 3: "orthant", 4: "orthant"}),
    ("P5-k4", {2: "orthant", 3: "orthant", 4: "sampled", 5: "sampled"}),
])
def test_orders_dispatch_on_conditional_rank(monkeypatch, case, arms):
    # rank 0 takes the two-ray arm for any k, and only a conditional orthant
    # of rank >= 3 at k >= 4 is sampled; the limit's `_joint_rows` is a
    # closed form for the same orders
    if case in ("P1", "COLL2"):
        fx = fixture(case)
        problem, A, rule = fx.problem, fx.A, fx.rule
    else:
        problem, A, rule = {"P3-k2": _p3_k2_case, "P4-k3": _p4_k3_case,
                            "P5-k4": _p5_k4_case}[case]()
    taken = {}
    for arm, name in (("two_ray", "_term_k1"), ("orthant", "_conditional_term"),
                      ("sampled", "_term_sampled")):
        def spy(self, p, *args, _arm=arm, _original=getattr(_ExactEngine, name)):
            # `_term_sampled` reads `_conditional_term` with its draws
            if _arm != "orthant" or not args:
                taken.setdefault(p, set()).add(_arm)
            return _original(self, p, *args)
        monkeypatch.setattr(_ExactEngine, name, spy)
    budget = AccuracyBudget(n_z=2_000)
    query = CdfQuery(A=A, t=np.full(A.shape[0], 0.3), theta=problem.theta, sigma=1.0, rule=rule)
    engine = _ExactEngine(problem, query, budget)
    engine.assemble()
    assert taken == {p: {arm} for p, arm in arms.items()}
    for p, arm in arms.items():
        dq = engine.design
        term = _joint_rows(query.t[None, :], dq, p, 0.3, 2.0 * dq.xi(p), (0, 0), budget.n_z)
        assert bool(term.panels) == (arm != "two_ray"), (p, arm)


def test_k2_points_meet_default_budget_deterministically():
    axis = (-1.0, 0.25, 1.5)
    for name in ("ORTHO2", "COLL2"):
        fx = fixture(name)
        for t in [(a, b) for a in axis for b in axis]:
            res = cdf_exact(fx.problem, _query(fx, t), AccuracyBudget())
            assert res.abs_error <= 1e-5 and res.warning is None, (name, t, res)
            # no sampling: the seed and sample size do not enter the value
            other = cdf_exact(fx.problem, _query(fx, t), AccuracyBudget(seed=7, n_z=1000))
            assert other.value == res.value


def test_sampled_term_does_not_sample_the_scale_integral():
    # order 1 of the P = 3, k = 2 design at t = (-1, 1.5) is a rare event:
    # the term comes from draws far in one tail of the selection scalar, so
    # sampling the scale integral per draw cannot resolve it; integrated
    # over the scalar, the sampled term is the deterministic one
    problem, A, rule = _p3_k2_case()
    budget = AccuracyBudget()
    engine = _ExactEngine(problem, CdfQuery(A=A, t=(-1.0, 1.5), theta=problem.theta,
                                            sigma=1.0, rule=rule), budget)
    det, _, det_err = _term(engine, 1)[:3]
    val, _, _, se = _term(engine, 1, sampled=True)
    assert abs(val - det) <= 4.0 * se + det_err, (val, se, det)


def _p4_k3_case(n=40):
    # at n = 40 the P = 4, O = 1, k = 3 design of the exact_grid benchmark
    # workload: orders 2, 3 and 4 condition to ranks 1, 2 and 3
    rng = np.random.default_rng(20070410)
    X = np.column_stack([np.ones(n), rng.standard_normal((n, 3))])
    A = np.column_stack([np.eye(3), np.zeros(3)]) + 0.3 * rng.standard_normal((3, 4))
    problem = RegressionProblem(X=X, theta=np.array([0.5, 0.4, 0.25, 0.1]), sigma=1.0, O=1)
    return problem, A, GeneralToSpecific(critical=(2.0, 2.0, 2.0))


P4_GRID = [(0.0, 0.0, 0.0), (1.0, -0.5, 0.5), (-1.0, 1.0, 1.5)]


def test_p4_k3_grid_values_are_frozen():
    # the exact_grid benchmark's P = 4, k = 3 points, whose order-4 and
    # core orthants are full-rank trivariate (`_Trivariate`): frozen
    # at the values of 12 equal path panels, which one panel reproduces
    problem, A, rule = _p4_k3_case()
    for t, want in zip(P4_GRID, (0.39652699262430724, 0.4262569572216834,
                                 0.13499028531018303)):
        res = cdf_exact(problem, CdfQuery(A=A, t=t, theta=problem.theta, sigma=1.0, rule=rule))
        assert res.warning is None and res.method.startswith("mixture-formula;levels=0;")
        assert abs(res.value - want) <= 1e-14, (t, res.value, want)


def _benchmark_points():
    """(make_problem, query) of the 39 exact_grid benchmark points and the
    27 P1 queries of its plugin_sweeps workload; make_problem builds the
    point's problem afresh."""
    grid1 = [(t,) for t in np.linspace(-1.5, 1.5, 9)]
    grid2 = [(a, b) for a in (-1.0, 0.25, 1.5) for b in (-1.0, 0.25, 1.5)]
    points = []
    for name in ("ORTHO2", "COLL2"):
        fx = fixture(name)
        points += [(lambda nm=name: fixture(nm).problem,
                    CdfQuery(A=A, t=t, theta=fx.problem.theta, sigma=1.0, rule=fx.rule))
                   for A, grid in ((np.eye(2), grid2), (E1, grid1)) for t in grid]
    problem, A, rule = _p4_k3_case()
    points += [(lambda: _p4_k3_case()[0],
                CdfQuery(A=A, t=t, theta=problem.theta, sigma=1.0, rule=rule))
               for t in P4_GRID]
    for n in (100, 400, 1600):
        fx = fixture("P1", n=n)
        points += [(lambda m=n: fixture("P1", n=m).problem,
                    CdfQuery(A=fx.A, t=[0.0], theta=[lam / np.sqrt(n)], sigma=1.0,
                             rule=fx.rule))
                   for lam in np.linspace(-0.999, 0.999, 9)]
    return points


def test_shared_setup_replays_a_cold_call_bit_for_bit():
    # the design record (per problem and target) and the scale layout (per
    # dof) are built once and shared: a problem that has already served
    # another t and theta gives the value, abs_error, method and warning of
    # a fresh problem with an empty layout cache
    from pmsdist.dist_exact import _ratio_quantiles, _scale_layout

    points = _benchmark_points()
    assert len(points) == 39 + 27
    warm_problems = {}
    for make, query in points:
        _ratio_quantiles.cache_clear()
        _scale_layout.cache_clear()
        cold = _cold(make(), query)
        if make not in warm_problems:
            warm_problems[make] = make()
            moved = CdfQuery(A=query.A, t=query.t + 0.5, theta=0.5 * query.theta + 0.1,
                             sigma=1.0, rule=query.rule)
            cdf_exact(warm_problems[make], moved)
        warm = cdf_exact(warm_problems[make], query)
        assert ((cold.value, cold.abs_error, cold.method, cold.warning)
                == (warm.value, warm.abs_error, warm.method, warm.warning)), (query, cold, warm)


def _bits(res):
    """A result as bytes: value, abs_error, method, warning and its trace."""
    tt = res.term_trace
    arrays = (tt.terms, tt.weights, tt.errors, tt.sampling)
    return (float(res.value).hex(), float(res.abs_error).hex(), res.method, res.warning,
            tt.orders, b"".join(np.asarray(a, dtype=float).tobytes() for a in arrays))


def _cold(problem, query, budget=None):
    """`cdf_exact` of ``problem``, built afresh, on design records of its
    own: the shared table is cleared first, so no record another problem
    holds (at any n of the same Gram) is read."""
    _RECORDS.clear()
    return cdf_exact(problem, query, budget)


def test_drift_record_replays_fresh_problems_bit_for_bit():
    # the t-free half of a call (shifts, drifts, scale masses, node factors)
    # is kept per theta beside the design record: over every exact_grid
    # set, forward, reversed and with another theta between every two
    # points (which takes the slot each time), each point is the point of a
    # fresh problem, trace and all
    points = _benchmark_points()[:39]
    fresh = [_bits(_cold(make(), query)) for make, query in points]
    for order in ("forward", "reversed", "interleaved"):
        index = range(len(points)) if order != "reversed" else range(len(points))[::-1]
        problems = {}
        for i in index:
            make, query = points[i]
            problem = problems.setdefault(make, make())
            if order == "interleaved":
                other = CdfQuery(A=query.A, t=query.t, theta=0.5 * query.theta - 0.2,
                                 sigma=1.0, rule=query.rule)
                cdf_exact(problem, other)
            assert _bits(cdf_exact(problem, query)) == fresh[i], (order, i)


def test_sigma_scaled_query_reads_the_same_drift_record():
    # G(t, theta, sigma) is G(t / sigma, theta / sigma, 1): both read one
    # record, keyed by theta / sigma, and agree bit for bit
    for name in ("COLL2", "P4-k3"):
        problem, A, rule = ((fixture(name).problem, fixture(name).A, fixture(name).rule)
                            if name == "COLL2" else _p4_k3_case())
        t = np.linspace(-0.5, 1.0, A.shape[0])
        for sigma in (3.0, 0.7):
            theta = problem.theta * 1.1
            unit = CdfQuery(A=A, t=t / sigma, theta=theta / sigma, sigma=1.0, rule=rule)
            scaled = CdfQuery(A=A, t=t, theta=theta, sigma=sigma, rule=rule)
            want = [_bits(cdf_exact(problem, unit)) for _ in range(2)]
            slot = projection_quantities(problem, A)._drift
            assert _bits(cdf_exact(problem, scaled)) == want[0] == want[1], (name, sigma)
            assert projection_quantities(problem, A)._drift is slot


def test_bisected_panels_never_enter_the_drift_record():
    # a call that bisects reads the record's node factors but stores none
    # of its halves: the near-step target bisects at the default tol and
    # deeper at 1.2e-10 (tol 1e-13 is below the error floor, 1.01e-10, and
    # bisects nothing), and the calls after it equal a fresh problem's
    fx = fixture("COLL2")
    A = np.array([[0.01, 1.0], [1.0, 0.0]])

    def query(t):
        return CdfQuery(A=A, t=t, theta=fx.problem.theta, sigma=1.0, rule=fx.rule)

    fine = AccuracyBudget(tol=1.2e-10)
    problem = fixture("COLL2").problem
    for t in ((1.0, -0.2), (0.25, 0.25)):
        cdf_exact(problem, query(t))
    deep = cdf_exact(problem, query((1.0, -0.2)), fine)
    assert deep.warning is None and "levels=0" not in deep.method, deep
    assert _bits(deep) == _bits(_cold(fixture("COLL2").problem, query((1.0, -0.2)), fine))
    for t in ((0.25, 0.25), (1.0, -0.2), (-1.0, 1.5)):
        res = cdf_exact(problem, query(t))
        assert _bits(res) == _bits(_cold(fixture("COLL2").problem, query(t))), t


def _memo_bytes(drift):
    """The bytes of a drift record's x-rule memos and its scale tables."""
    tables = sum(K.nbytes + G.nbytes for K, G in drift.mass.values())
    return tables + sum(m.values.nbytes for m in drift.rules.values() if m.values is not None)


def test_drift_slots_and_memos_stay_bounded():
    # one slot per design record whatever number of theta and n a sweep
    # visits (P1 at n = 100 and 400 share the record, and the slot's key
    # leads with n), and node memos sized by the t-free layouts whatever
    # number of t
    fx = fixture("P1", n=400)
    other = fixture("P1", n=100).problem
    for lam in np.linspace(-3.0, 3.0, 200):
        for problem in (other, fx.problem):
            cdf_exact(problem, CdfQuery(A=fx.A, t=[0.1], theta=[lam / 20.0], sigma=1.0,
                                        rule=fx.rule))
    (record,) = fx.problem._records.values()
    assert tuple(other._records.values()) == (record,)
    assert record._drift[0][:2] == (400, np.array([3.0 / 20.0]).tobytes())
    fx = fixture("COLL2")
    sizes, records = [], set()
    for t in np.random.default_rng(26).uniform(-2.0, 2.0, (100, 2)):
        cdf_exact(fx.problem, CdfQuery(A=fx.A, t=t, theta=fx.problem.theta, sigma=1.0,
                                       rule=fx.rule))
        drift = projection_quantities(fx.problem, fx.A)._drift[1]
        records.add(id(drift))
        sizes.append(_memo_bytes(drift))
    assert len(records) == 1 and len(set(sizes[1:])) == 1 and sizes[1] > 0, sizes


def test_shared_records_never_serve_a_stale_drift_record():
    # every n of a fixture has X'X/n = Q, so P1 at n = 100, 400 and 1600
    # share one design record and COLL2 at n = 20 and 200 another: at one
    # theta and t their drift slots' keys differ in n alone, and every call
    # of an interleaving equals a cold call, trace and all
    cases = [(fixture("P1", n=n), [0.0]) for n in (100, 400, 1600)]
    cases += [(fixture("COLL2", n=n), [0.25, 0.25]) for n in (20, 200)]
    queries = [CdfQuery(A=fx.A, t=t, theta=fx.problem.theta + 0.1, sigma=1.0, rule=fx.rule)
               for fx, t in cases]
    cold = [_bits(_cold(fx.at_n(fx.problem.n).problem, q)) for (fx, _), q in zip(cases, queries)]
    order = [0, 3, 1, 4, 2]
    for _ in range(2):
        for i in order + order[::-1]:
            assert _bits(cdf_exact(cases[i][0].problem, queries[i])) == cold[i], i
    p1, _, _, coll2, _ = records = [projection_quantities(fx.problem, fx.A) for fx, _ in cases]
    assert [r is p1 for r in records] == [True] * 3 + [False] * 2
    assert records[4] is coll2
    # a twin problem (the same X) gets the same record; another O or
    # target another
    X = cases[3][0].problem.X
    twin = RegressionProblem(X=X, theta=np.zeros(2), sigma=2.0, O=0)
    assert projection_quantities(twin, np.eye(2)) is coll2
    assert projection_quantities(replace(twin, O=1), np.eye(2)) is not coll2
    assert projection_quantities(twin, E1) is not coll2


def test_patched_layouts_never_read_a_stale_drift_record(monkeypatch):
    # the record's key holds the layout constants read at call time, so a
    # patched layout on a warm problem gives a fresh problem's value: P4's
    # orders 2 and 3 read their scale masses from the record's sums
    import pmsdist.dist_exact as dist_exact

    problem, A, rule = _p4_k3_case()
    queries = [CdfQuery(A=A, t=t, theta=problem.theta, sigma=1.0, rule=rule)
               for t in P4_GRID[:2]]
    for q in queries * 2:
        cdf_exact(problem, q)
    for module, name, value in ((dist_exact, "_S_Q_LO", 1e-15), (_gauss, "PANELS", 7),
                                (dist_exact, "_STEP_Q", (0.5,)), (_gauss, "TAIL_CUT", 8.0)):
        with monkeypatch.context() as m:
            m.setattr(module, name, value)
            for q in queries:
                want = _bits(_cold(_p4_k3_case()[0], q))
                assert _bits(cdf_exact(problem, q)) == want, name
                assert _bits(cdf_exact(problem, q)) == want, name


def test_a_problem_with_a_drift_record_pickles_to_workers():
    # the drift record holds arrays and numbers only: a problem that has
    # served cdf_exact goes to worker processes and simulates as in-process
    fx = fixture("COLL2")
    for t in ((0.25, 0.25), (-1.0, 1.5)):
        cdf_exact(fx.problem, _query(fx, t))
    assert projection_quantities(fx.problem, fx.A)._drift
    plan = SimulationPlan(problem=fx.problem, rule=fx.rule, A=fx.A, replications=16_384,
                          master_seed=26)
    grid = np.array([[0.25, 0.25], [-1.0, 1.5]])
    two, one = (empirical_cdf(plan, grid, workers=w) for w in (2, 1))
    assert np.array_equal(two.estimates, one.estimates)
    assert np.array_equal(two.standard_errors, one.standard_errors)


def test_kept_orthants_pickle_with_their_problem():
    # P4's design record keeps a rank-1, a polygon and a trivariate orthant
    # with their kink normals: arrays and numbers only, so the problem
    # pickles, and the copy reads the same values bit for bit without
    # building them again
    import pickle

    problem, A, rule = _p4_k3_case()
    queries = [CdfQuery(A=A, t=t, theta=problem.theta, sigma=1.0, rule=rule) for t in P4_GRID]
    want = [cdf_exact(problem, q) for q in queries]
    copy = pickle.loads(pickle.dumps(problem))
    kept = projection_quantities(copy, A)._orthants
    # keyed by (order, split on b_p'z)
    assert sorted(kept) == [(2, False), (3, False), (4, False)]
    assert all(o._normals for o in kept.values())
    for q, res in zip(queries, want):
        got = cdf_exact(copy, q)
        assert (got.value, got.abs_error, got.method) == (res.value, res.abs_error, res.method)
    assert projection_quantities(copy, A)._orthants is kept


def test_scale_layout_is_shared_read_only_and_follows_the_quantiles(monkeypatch):
    import pmsdist.dist_exact as dist_exact

    fx = fixture("COLL2")
    q = _query(fx, (0.25, 0.25))
    ratio = SigmaRatioDensity(fx.problem.dof)
    a = _ExactEngine(fx.problem, q, QUICK)
    b = _ExactEngine(fixture("COLL2").problem, q, QUICK)
    assert a.s_step is b.s_step and a._s_edges is b._s_edges
    # the layout's nodes and the ratio density there are kept with its edges
    edges, s, pdf = dist_exact._scale_layout(fx.problem.dof, 1e-12, 1.0 - 1e-10,
                                             _gauss.layout_constants())
    assert edges is a._s_edges and np.array_equal(s, _gauss.gl_panels(edges)[0])
    assert np.array_equal(pdf, ratio.pdf(s))
    for arr in (a.s_step, a._s_edges, s, pdf):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    assert np.array_equal(a._s_edges, ratio.ppf(_gauss.panel_edges(1e-12, 1.0 - 1e-10)))
    assert np.array_equal(a.s_step, ratio.ppf(np.array([1e-6, 0.5, 1.0 - 1e-6])))
    other = _ExactEngine(fixture("COLL2", n=40).problem, q, QUICK)
    assert other._s_edges is not a._s_edges
    # the quantiles are read on every call, so patching them moves the layout
    monkeypatch.setattr(dist_exact, "_S_Q_LO", 1e-15)
    monkeypatch.setattr(dist_exact, "_S_Q_HI", 1.0 - 1e-13)
    monkeypatch.setattr(dist_exact, "_STEP_Q", (0.5,))
    wide = _ExactEngine(fx.problem, q, QUICK)
    assert np.array_equal(wide._s_edges, ratio.ppf(_gauss.panel_edges(1e-15, 1.0 - 1e-13)))
    assert np.array_equal(wide.s_step, ratio.ppf(np.array([0.5])))
    monkeypatch.setattr(_gauss, "PANELS", 6)
    assert _ExactEngine(fx.problem, q, QUICK)._s_edges.size == 7


_leggauss = functools.cache(np.polynomial.legendre.leggauss)


def _dense_gl(edges, nodes):
    """Composite Gauss-Legendre rule with ``nodes`` nodes on each panel of
    ``edges``: the oracles' own rule, far denser than the package's."""
    x, w = _leggauss(nodes)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def _orthant_oracle(v, L):
    """P(L eps <= v) for trivariate L eps, eps standard normal, conditioning on
    eps_1 (ranks 1 and 2) or on the first coordinate (rank 3) under dense
    Gauss-Legendre rules split at every kink of the conditional probability."""
    r = L.shape[1]
    if r == 1:
        load = L[:, 0]
        hi = np.min(v[load > 0] / load[load > 0], initial=np.inf)
        lo = np.max(v[load < 0] / load[load < 0], initial=-np.inf)
        return max(ndtr(hi) - ndtr(lo), 0.0)
    if r == 2:
        pts = []
        for i in range(3):
            for j in range(i + 1, 3):
                den = L[i, 0] / L[i, 1] - L[j, 0] / L[j, 1]
                pts.append((v[i] / L[i, 1] - v[j] / L[j, 1]) / den)
        e1, w = _dense_gl(np.array([-TAIL_CUT, *sorted(p for p in pts if abs(p) < TAIL_CUT),
                                    TAIL_CUT]), 200)
        W = v[None, :] - np.outer(e1, L[:, 0])
        load = L[:, 1]
        hi = np.min(W[:, load > 0] / load[load > 0], axis=1, initial=np.inf)
        lo = np.max(W[:, load < 0] / load[load < 0], axis=1, initial=-np.inf)
        return float(np.sum(w * norm_pdf(e1) * np.maximum(ndtr(hi) - ndtr(lo), 0.0)))
    S = L @ L.T
    sd0 = np.sqrt(S[0, 0])
    h = S[1:, 0] / sd0
    C = S[1:, 1:] - np.outer(h, h)
    s = np.sqrt(np.diag(C))
    top = min(v[0] / sd0, TAIL_CUT)
    y, w = _dense_gl(np.linspace(-TAIL_CUT, top, 41), 20)
    return float(np.sum(w * norm_pdf(y) * bvn_cdf((v[1] - h[0] * y) / s[0],
                                                  (v[2] - h[1] * y) / s[1],
                                                  C[0, 1] / (s[0] * s[1]))))


@pytest.mark.parametrize("n", [40, 6])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_k3_term_matches_adaptive_quadrature(p, n):
    # the term as int phi(x) K(|x - x0| / c) P(R <= u - g x) dx under
    # adaptive quadrature in x, with the scale mass K from an adaptive ODE
    # solve and the conditional orthant from `_orthant_oracle`; at n = 6
    # (two residual degrees of freedom) K(|x - x0| / c) kinks at x0
    problem, A, rule = _p4_k3_case(n)
    budget = AccuracyBudget()
    engine = _ExactEngine(problem, CdfQuery(A=A, t=P4_GRID[0], theta=problem.theta,
                                            sigma=1.0, rule=rule), budget)
    u = engine.u - engine.shift[p][0]
    dq = engine.design
    g, _, L = condition_on_scalar(dq.omega(p), dq.C(p), dq.xi(p) ** 2)
    assert L.shape[1] == p - 1
    x0, c = -_nu(engine)[p] / dq.xi(p), engine.c[p]
    s_lo, s_hi = engine.ratio.ppf(1e-12), engine.ratio.ppf(1.0 - 1e-10)
    dens = chi(df=engine.ratio.dof, scale=1.0 / np.sqrt(engine.ratio.dof))
    K = solve_ivp(lambda s, _: [dens.pdf(s) * tail_products(dq, _nu(engine), engine.c, p, s)[p]],
                  (s_lo, s_hi), [0.0], method="DOP853", rtol=1e-13, atol=1e-16,
                  dense_output=True).sol

    def integrand(x):
        y = min(max(abs(x - x0) / c, s_lo), s_hi)
        return norm_pdf(x) * K(y)[0] * _orthant_oracle(u - g * x, L)

    want, _ = quad(integrand, -TAIL_CUT, TAIL_CUT, points=[x0 - c * s_lo, x0, x0 + c * s_lo],
                   epsabs=1e-13, epsrel=1e-12, limit=400)
    got, _, _ = _term(engine, p)[:3]
    assert abs(got - want) <= 1e-9, (got, want)


def test_k3_points_meet_default_budget_deterministically():
    problem, A, rule = _p4_k3_case()
    for t in P4_GRID:
        query = CdfQuery(A=A, t=t, theta=problem.theta, sigma=1.0, rule=rule)
        res = cdf_exact(problem, query, AccuracyBudget())
        assert res.abs_error <= 1e-5 and res.warning is None, (t, res)
        # no sampling: the seed and sample size do not enter the value
        other = cdf_exact(problem, query, AccuracyBudget(seed=7, n_z=1000))
        assert other.value == res.value


@pytest.mark.parametrize("t", [(np.inf, -0.5, 0.5), (1.0, np.inf, np.inf),
                               (np.inf, np.inf, 0.3)])
def test_k3_infinite_coordinate_is_the_marginal_cdf(t):
    # an infinite coordinate of t drops its row of A: the k = 3 value is
    # the cdf of the remaining rows, within the two reported errors (two
    # infinite coordinates once met inf - inf in `conditional_kinks`)
    problem, A, rule = _p4_k3_case()
    t = np.array(t)
    keep = np.isfinite(t)
    res = cdf_exact(problem, CdfQuery(A=A, t=t, theta=problem.theta, sigma=1.0, rule=rule))
    ref = cdf_exact(problem, CdfQuery(A=A[keep], t=t[keep], theta=problem.theta, sigma=1.0,
                                      rule=rule))
    assert res.warning is None and ref.warning is None
    assert abs(res.value - ref.value) <= res.abs_error + ref.abs_error, (res, ref)


@pytest.mark.parametrize("t", [(np.inf, 0.3), (np.inf, -0.7), (0.3, np.inf)])
def test_k2_infinite_coordinate_keeps_the_kink_of_the_other(t):
    # ORTHO2 with A = I: order 2 gives z = (e, x), so at t = (inf, u) the
    # term is the step 1{x <= u - shift} of the zero-loading coordinate,
    # whose loaded partner the infinite bound drops; as a panel edge the
    # step leaves the one-row marginal up to rounding, inside a panel it
    # costs bisection rounds or about 6e-7
    fx = fixture("ORTHO2")
    t = np.array(t)
    keep = np.isfinite(t)
    res = cdf_exact(fx.problem, _query(fx, t))
    ref = cdf_exact(fx.problem, CdfQuery(A=fx.A[keep], t=t[keep], theta=fx.problem.theta,
                                         sigma=fx.problem.sigma, rule=fx.rule))
    assert res.warning is None and ref.warning is None
    assert abs(res.value - ref.value) <= 1e-12, (res, ref)


def test_k3_exact_agrees_with_simulation():
    problem, A, rule = _p4_k3_case()
    t = np.array(P4_GRID[1])
    plan = SimulationPlan(problem=problem, rule=rule, A=A, replications=200_000,
                          master_seed=2024)
    emp = empirical_cdf(plan, t[None, :])
    res = cdf_exact(problem, CdfQuery(A=A, t=t, theta=problem.theta, sigma=1.0, rule=rule))
    assert abs(res.value - emp.estimates[0]) <= 4 * emp.standard_errors[0] + res.abs_error


@pytest.mark.parametrize("case", ["P4-k3", "COLL2-k2", "COLL2-k1"])
def test_large_n_points_meet_budget_and_agree_with_simulation(case):
    # local alternatives at large n: with many residual degrees of freedom
    # the scale mass K_p(|x - x0| / c_p) is a near-step in the selection
    # scalar, which the swapped rule must bracket to meet tol
    if case == "P4-k3":
        n = 20_000
        problem, A, rule = _p4_k3_case(n)
        problem = RegressionProblem(X=problem.X, theta=problem.theta * np.sqrt(40 / n),
                                    sigma=1.0, O=problem.O)
        t = np.array([1.0, -0.5, 0.5])
    else:
        n = 100_000
        fx = fixture("COLL2")
        fx = fixture(fx.name, n=n, theta=fx.problem.theta * np.sqrt(20 / n))
        problem, A, rule = fx.problem, fx.A, fx.rule
        t = np.array([0.25, -1.0])
        if case == "COLL2-k1":
            A, t = np.array([[1.0, 0.0]]), np.array([0.25])
    res = cdf_exact(problem, CdfQuery(A=A, t=t, theta=problem.theta, sigma=1.0, rule=rule))
    assert res.abs_error <= 1e-5 and res.warning is None, res
    plan = SimulationPlan(problem=problem, rule=rule, A=A, replications=200_000,
                          master_seed=2024)
    emp = empirical_cdf(plan, t[None, :])
    assert abs(res.value - emp.estimates[0]) <= 4 * emp.standard_errors[0] + res.abs_error


def _p5_k4_case():
    rng = np.random.default_rng(5)
    n = 30
    X = np.column_stack([np.ones(n), rng.standard_normal((n, 4))])
    A = np.eye(4, 5) + 0.3 * rng.standard_normal((4, 5))
    problem = RegressionProblem(X=X, theta=np.array([0.5, 0.4, 0.3, 0.2, 0.1]), sigma=1.0, O=1)
    return problem, A, GeneralToSpecific(critical=(2.0, 2.0, 2.0, 2.0))


def test_k4_exact_agrees_with_simulation():
    # k = 4 samples the conditional orthant; its error bound misses the
    # default tol, which the result flags
    problem, A, rule = _p5_k4_case()
    t = np.array([1.0, -0.5, 0.5, 0.8])
    plan = SimulationPlan(problem=problem, rule=rule, A=A, replications=200_000, master_seed=7)
    emp = empirical_cdf(plan, t[None, :])
    res = cdf_exact(problem, CdfQuery(A=A, t=t, theta=problem.theta, sigma=1.0, rule=rule))
    assert abs(res.value - emp.estimates[0]) <= 4 * emp.standard_errors[0] + res.abs_error
    assert res.abs_error > 1e-5 and res.warning is not None


def test_k4_sampled_standard_errors_have_a_floor():
    # at t = -7 no draw of orders 4 and 5 (conditional ranks 3 and 4) lands
    # in the orthant, yet each sampled order is still an estimate from n_z
    # draws: its SE is at least 1/n_z
    problem, A, rule = _p5_k4_case()
    budget = AccuracyBudget()
    res = cdf_exact(problem, CdfQuery(A=A, t=np.full(4, -7.0), theta=problem.theta,
                                      sigma=1.0, rule=rule), budget)
    assert res.abs_error >= 3.0 * 2 / budget.n_z and res.warning is not None, res


def test_k4_rank1_order_does_not_depend_on_the_sample():
    # order 2 of the P = 5, k = 4 design conditions to rank 1, which
    # `orthant_kernel` evaluates exactly: its term is the same whatever the
    # seed and size of the sample the higher orders draw
    # on the first pass and after every panel is bisected
    problem, A, rule = _p5_k4_case()
    query = CdfQuery(A=A, t=(1.0, -0.5, 0.5, 0.8), theta=problem.theta, sigma=1.0, rule=rule)
    engines = [_ExactEngine(problem, query, budget)
               for budget in (AccuracyBudget(), AccuracyBudget(seed=7, n_z=1000))]
    for bisections in (0, 1):
        order2 = []
        for engine in engines:
            if bisections:
                engine.panels()[1][0].bisect(0.0)
            order2.append(engine.assemble().terms[1, 0])
        assert order2[0] == order2[1], (bisections, order2)


def test_k4_rank2_order_refines_across_its_kinks():
    # order 3 of the P = 5, k = 4 design conditions to rank 2: its polygon
    # changes shape where three of the four conditional lines meet, and
    # without x-edges there the 12- and 24-panel Gauss-Legendre rules were
    # both 8.8e-7 off a 384-panel one; the first pass and one bisection of
    # every panel agree with five bisections
    problem, A, rule = _p5_k4_case()
    query = CdfQuery(A=A, t=np.zeros(4), theta=problem.theta, sigma=1.0, rule=rule)
    engine = _ExactEngine(problem, query, AccuracyBudget())
    assert engine.design.orthant(3).L.shape == (4, 2)
    panels, values = engine._conditional_term(3).panels[0], []
    for _ in range(6):
        values.append(panels.total[0])
        panels.bisect(0.0)
    assert panels.size >= 12 * 2 ** 6
    for value in values[:2]:
        assert abs(value - values[5]) < 1e-12, values


def _last_order_oracle(engine):
    """Nested-quad oracle of the last order's term of a P = 2 design.

    With no later test the scale mass is the ratio cdf between the grid's
    quantiles, and the x-integral runs under `quad` split at x0, the
    scale-grid ends, every kink and each coordinate's bound sweeping
    through +/-9 of its loading (the near-step of a small loading).
    """
    p = engine.problem.P
    orthant = engine.design.orthant(p)
    g, L = orthant.g, orthant.L
    assert p == 2 and L.shape[1] == 1
    u = engine.u - engine.shift[p][0]
    x0, c = -_nu(engine)[p] / engine.design.xi(p), engine.c[p]
    s_lo, s_hi = engine.ratio.ppf(1e-12), engine.ratio.ppf(1.0 - 1e-10)
    load = L[:, 0]

    def integrand(x):
        y = abs(x - x0) / c
        mass = engine.ratio.cdf(min(y, s_hi)) - engine.ratio.cdf(s_lo) if y > s_lo else 0.0
        v = u - g * x
        if np.any(v[load == 0.0] < 0.0):
            return 0.0
        hi = np.min(v[load > 0] / load[load > 0], initial=np.inf)
        lo = np.max(v[load < 0] / load[load < 0], initial=-np.inf)
        return norm_pdf(x) * mass * max(ndtr(hi) - ndtr(lo), 0.0)

    points = [x0, x0 - c * s_lo, x0 + c * s_lo, x0 - c * s_hi, x0 + c * s_hi,
              *_gauss.conditional_kinks(u, orthant)]
    for i in np.flatnonzero(g):
        points += list((u[i] - np.linspace(-9.0, 9.0, 19) * load[i]) / g[i])
    edges = [-TAIL_CUT, *sorted(x for x in points if abs(x) < TAIL_CUT), TAIL_CUT]
    return sum(quad(integrand, a, b, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
               for a, b in zip(edges[:-1], edges[1:]) if b > a)


@pytest.mark.parametrize("A,t,first_pass_misses", [
    (((0.01, 1.0), (1.0, 0.0)), (1.0, -0.2), False),
    (((0.001, 1.0), (1.0, 0.0)), (0.3, 0.2), True),
])
def test_near_step_queries_are_within_their_error(A, t, first_pass_misses):
    # COLL2 with a target row nearly parallel to order 2's selection
    # statistic: the conditional bound of its coordinate sweeps through its
    # range within dx ~ 0.01 / |g|, beside a kink but bracketed by no edge.
    # The 12- and 24-panel Gauss-Legendre rules agreed on values 1.1e-4 and
    # 1.5e-4 off while reporting 4e-10 and 2.3e-9.  The second query's
    # first-pass estimate is below its error too: bisection makes it honest
    fx = fixture("COLL2")
    query = CdfQuery(A=np.array(A), t=t, theta=fx.problem.theta, sigma=1.0, rule=fx.rule)
    want = _last_order_oracle(_ExactEngine(fx.problem, query, AccuracyBudget()))
    res = cdf_exact(fx.problem, query)
    assert res.warning is None and "levels=0" not in res.method, res
    assert abs(res.term_trace.terms[-1] - want) <= res.abs_error, (res, want)
    if A[0][0] == 0.01:
        # the 120M-replication Monte Carlo figure of the whole value
        assert abs(res.value - 0.197289) <= 4.0 * 3.6e-5 + res.abs_error, res
    engine = _ExactEngine(fx.problem, query, AccuracyBudget())
    first = engine.assemble().terms[-1, 0]
    gap = sum(rule[0].gap for rule in engine.panels())
    assert (abs(first - want) > gap) == first_pass_misses, (first, want, gap)


def test_spent_rounds_are_flagged(monkeypatch):
    # the first near-step query above meets tol after two rounds of
    # bisection; with no round to run, its first-pass estimate is above
    # tol / 2 while the error floor is far below tol, and the result says
    # refinement ran out
    fx = fixture("COLL2")
    query = CdfQuery(A=np.array([[0.01, 1.0], [1.0, 0.0]]), t=(1.0, -0.2),
                     theta=fx.problem.theta, sigma=1.0, rule=fx.rule)
    budget = AccuracyBudget()
    assert cdf_exact(fx.problem, query, budget).method.startswith("mixture-formula;levels=2;")
    monkeypatch.setattr(_gauss, "MAX_ROUNDS", 0)
    res = cdf_exact(fx.problem, query, budget)
    assert res.warning == "refinement budget exhausted before reaching tol", res
    assert res.method.startswith("mixture-formula;levels=0;") and res.abs_error > budget.tol


@pytest.mark.parametrize("A,t", [(np.eye(2), (0.25, -1.0)), (E1, (0.25,)),
                                 (np.eye(2), (1.5, 1.5)), (np.eye(2), (-1.0, 0.25))])
def test_large_n_last_order_is_within_its_error(A, t):
    # COLL2 at n = 1e5: the scale mass K(|x - x0| / c) is a near-step in x;
    # the order-2 term was 2.0e-10 off at 12 and 24 panels, 20 times their gap
    n = 100_000
    fx = fixture("COLL2")
    fx = fixture("COLL2", n=n, theta=fx.problem.theta * np.sqrt(20 / n))
    query = CdfQuery(A=A, t=t, theta=fx.problem.theta, sigma=1.0, rule=fx.rule)
    res = cdf_exact(fx.problem, query)
    want = _last_order_oracle(_ExactEngine(fx.problem, query, AccuracyBudget()))
    assert res.warning is None
    assert abs(res.term_trace.terms[-1] - want) <= res.abs_error, (res, want)


def test_random_near_parallel_targets_are_within_their_error():
    # seeded P = 2 designs whose first target row (lam, 1), |lam| <= 0.03,
    # is nearly parallel to order 2's selection statistic: every last-order
    # term is within abs_error of its oracle or flagged, and bisection ran
    rng = np.random.default_rng(20)
    bisected = 0
    for _ in range(30):
        n = int(rng.choice([20, 60, 400]))
        rho = rng.uniform(-0.9, 0.9)
        Z = rng.standard_normal((n, 2))
        X = np.column_stack([Z[:, 0], rho * Z[:, 0] + np.sqrt(1.0 - rho ** 2) * Z[:, 1]])
        problem = RegressionProblem(X=X, theta=rng.uniform(-1.0, 1.0, 2) * 4.0 / np.sqrt(n),
                                    sigma=1.0, O=0)
        lam = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, -1.5)
        A = np.array([[lam, 1.0], [1.0, rng.uniform(-0.5, 0.5)]])
        query = CdfQuery(A=A, t=rng.uniform(-1.5, 1.5, 2), theta=problem.theta, sigma=1.0,
                         rule=GeneralToSpecific(critical=tuple(rng.uniform(1.5, 2.5, 2))))
        res = cdf_exact(problem, query)
        want = _last_order_oracle(_ExactEngine(problem, query, AccuracyBudget()))
        assert (abs(res.term_trace.terms[-1] - want) <= res.abs_error
                or res.warning is not None), (res, want)
        bisected += "levels=0" not in res.method
    assert bisected >= 10, bisected


def test_kinks_are_formed_once_per_order_and_row(monkeypatch):
    # the x-edges of a `conditional_rows` rule do not depend on bisection:
    # COLL2's order 2 (conditional rank 1) forms its kinks once per row and
    # cdf call, whatever round `refine` stops at; order 1 (rank 0) takes
    # the two-ray arm and forms none.  The null vectors behind them are
    # formed once per design record, by its first row: a later t of the
    # same target forms none, nor does the limit cdf or `g_check_values`
    # on the same Gram and target, which read the same record.  A = I_2
    # meets tol in the first pass; the near-step target of
    # `test_near_step_queries_are_within_their_error` is bisected, in the
    # exact cdf at (0.25, 0.25) and the default tol, in the limit at
    # (-0.85, -0.15) and tol 1e-9, both above their floors
    import pmsdist.regression_core as regression_core

    calls, normals, built = [], [], []

    class Counting(_gauss.ConditionedOrthant):
        def __init__(self, g, S, L):
            built.append(L.shape)
            super().__init__(g, S, L)

    def spy(u, orthant, _original=_gauss.conditional_kinks):
        calls.append(len(u))
        return _original(u, orthant)

    def spy_normals(g, L, finite, _original=_gauss.kink_normals):
        normals.append(len(g))
        return _original(g, L, finite)

    monkeypatch.setattr(_gauss, "conditional_kinks", spy)
    monkeypatch.setattr(_gauss, "kink_normals", spy_normals)
    monkeypatch.setattr(regression_core, "ConditionedOrthant", Counting)
    fx = fixture("COLL2")
    problem = RegressionProblem(X=np.array(fx.problem.X), theta=fx.problem.theta, sigma=1.0,
                                O=fx.problem.O)
    _RECORDS.clear()   # new records, whatever COLL2 record another holder keeps
    step = np.array([[0.001, 1.0], [1.0, 0.0]])
    levels = set()
    for A in (np.eye(2), step):
        for i, t in enumerate(((0.25, 0.25), (-1.0, 1.5))):
            calls.clear()
            normals.clear()
            query = CdfQuery(A=A, t=t, theta=problem.theta, sigma=1.0, rule=fx.rule)
            res = cdf_exact(problem, query)
            levels.add(res.method.split(";")[1])
            assert calls == [2] and res.warning is None, (A, t, res.method, calls)
            assert normals == ([2] if i == 0 else []), (A, t, normals)
    assert "levels=0" in levels and len(levels) > 1, levels
    shared = limit_quantities(fx.problem.gram, step, O=fx.problem.O)
    assert shared is projection_quantities(problem, step)
    alt = LocalAlternative(theta=np.zeros(2), gamma=np.array([-1.5, -1.5]), sigma=1.0)
    for limits, formed in ((shared, []), (_design_record(shared.Q, shared.A, shared.O), [2])):
        for i in range(2):
            calls.clear()
            normals.clear()
            res = cdf_limit(limits, alt, (-0.85, -0.15), fx.rule, AccuracyBudget(tol=1e-9))
            assert calls == [2] and "levels=0" not in res.method, (res.method, calls)
            assert res.warning is None, res
            assert normals == (formed if i == 0 else []), normals
    # fx.problem has the twin's Gram, and A = I_2 is a target the twin's
    # exact cdf conditioned above: each call reads that warm record
    built.clear()
    for _ in range(3):
        calls.clear()
        normals.clear()
        g_check_values(fx.problem, fx.A, (0.3, -0.2), fx.rule, np.array([0.5, 1.0, 1.7]),
                       np.zeros(3, dtype=int), budget=AccuracyBudget(tol=1e-9))
        assert calls == [2, 2, 2] and normals == [] and built == [], (calls, normals, built)


def test_a_design_record_builds_each_orders_orthant_once(monkeypatch):
    # an order's conditioned orthant (its split, kernel constants and kink
    # normals) depends on the design record alone: three t on P4 build one
    # per conditional order (2, 3 and 4, of ranks 1, 2 and 3) with one kink
    # rule each, and a cdf_limit on the same record (the one
    # `limit_quantities` gives at this Gram) builds none, and reads the
    # values of a record of its own bit for bit
    import pmsdist.regression_core as regression_core

    built, normals = [], []

    class Counting(_gauss.ConditionedOrthant):
        def __init__(self, g, S, L):
            built.append(L.shape)
            super().__init__(g, S, L)

    def spy_normals(g, L, finite, _original=_gauss.kink_normals):
        normals.append(L.shape)
        return _original(g, L, finite)

    monkeypatch.setattr(regression_core, "ConditionedOrthant", Counting)
    monkeypatch.setattr(_gauss, "kink_normals", spy_normals)
    problem, A, rule = _p4_k3_case()
    _RECORDS.clear()   # a new record, whatever P4 record another holder keeps
    for t in P4_GRID:
        cdf_exact(problem, CdfQuery(A=A, t=t, theta=problem.theta, sigma=1.0, rule=rule))
    assert built == [(3, 1), (3, 2), (3, 3)] and normals == built, (built, normals)
    record = projection_quantities(problem, A)
    assert limit_quantities(problem.gram, A, O=problem.O) is record
    alt = LocalAlternative(theta=np.zeros(4), gamma=np.sqrt(problem.n) * problem.theta,
                           sigma=1.0)
    for t in P4_GRID:
        shared = cdf_limit(record, alt, t, rule)
        own = cdf_limit(_design_record(record.Q, record.A, record.O), alt, t, rule)
        assert (shared.value, shared.abs_error) == (own.value, own.abs_error), (t, shared, own)
    assert len(built) == 3 + 3 * 3 and len(normals) == 3 + 3 * 3, (built, normals)


def test_cross_check_keeps_its_split_on_b_per_record(monkeypatch):
    # the cross-check conditions each order on b_p'Z, a split of the record
    # alone: over three t on the P4 limit record it builds each order's
    # kink rule once (3 kink_normals builds, where a split per call built
    # 9), and its values equal those of a fresh record bit for bit
    normals = []

    def spy_normals(g, L, finite, _original=_gauss.kink_normals):
        normals.append(L.shape)
        return _original(g, L, finite)

    monkeypatch.setattr(_gauss, "kink_normals", spy_normals)
    problem, A, rule = _p4_k3_case()
    _RECORDS.clear()   # a new record, whatever P4 record another holder keeps
    record = limit_quantities(problem.gram, A, O=problem.O)
    alt = LocalAlternative(theta=np.zeros(4), gamma=np.sqrt(problem.n) * problem.theta,
                           sigma=1.0)
    kept = [cdf_limit_via_integral(record, alt, t, rule) for t in P4_GRID]
    assert len(normals) == 3, normals
    assert sorted(record._orthants) == [(2, True), (3, True), (4, True)]
    assert limit_quantities(problem.gram, A, O=problem.O) is record
    for t, res in zip(P4_GRID, kept):
        own = cdf_limit_via_integral(_design_record(record.Q, record.A, record.O), alt, t, rule)
        assert _bits(res) == _bits(own), t


def test_scale_tails_are_evaluated_once_per_drift_record(monkeypatch):
    # at a theta the design record has not seen, P4's drift record
    # evaluates the tail products at the scale layout's nodes once, for
    # every table (order O's weight and the scale masses of orders 2 and
    # 3), and no call over three t evaluates them there again: a call reads
    # the tables, and the pdf at the nodes is kept per dof
    import pmsdist.dist_exact as dist_exact

    layout = []

    def spy(dq, nu, c_of, p0, s=1.0, *cdfs, _original=dist_exact.tail_products):
        if np.shape(s) == nodes.shape and np.array_equal(s, nodes):
            layout.append(p0)
        return _original(dq, nu, c_of, p0, s, *cdfs)

    problem, A, rule = _p4_k3_case()
    nodes = gl_panels(_ExactEngine(problem, CdfQuery(A=A, t=P4_GRID[0], theta=problem.theta,
                                                      sigma=1.0, rule=rule), QUICK)._s_edges)[0]
    monkeypatch.setattr(dist_exact, "tail_products", spy)
    theta = 0.5 * problem.theta
    for t in P4_GRID:
        res = cdf_exact(problem, CdfQuery(A=A, t=t, theta=theta, sigma=1.0, rule=rule))
        assert res.method.startswith("mixture-formula;levels=0;"), res
    assert layout == [problem.O], layout
    assert sorted(projection_quantities(problem, A)._drift[1].mass) == [1, 2, 3]


@pytest.mark.parametrize("dof,tol", [(1, 1e-13), (36, 1e-13), (1_599, 1e-13),
                                     (99_998, 2e-13)])
def test_sigma_ratio_density_meets_the_40_digit_law_on_the_scale_grid(dof, tol):
    # log pdf = c(a) - log s - a (u - log1p(u)): no large terms cancel, so
    # at every node of the scale grid the pdf is within tol of the law in
    # relative terms (a log-pdf summed from terms near a log a was
    # off by up to 1.1e-10 at dof 99,998).  At dof 99,998 the rounding of
    # log1p(u), times a = 5e4, is 1.6e-13 at the nodes 7 sd into a tail
    dens = SigmaRatioDensity(dof)
    s = gl_panels(dens.ppf(_gauss.panel_edges(1e-12, 1.0 - 1e-10)))[0]
    assert np.max(np.abs(dens.pdf(s) / _ratio_pdf_mp(dof, s) - 1.0)) <= tol


def test_drift_maps_equal_the_local_shift_constants():
    # at theta = 0 the shifts beta(p) and drifts nu_p are linear in gamma:
    # the design record's maps give `local_shift_constants` at every order
    # p >= O, on the fixtures, P4 and random designs with O > 0
    rng = np.random.default_rng(33)
    cases = [(fixture(name).problem, fixture(name).A) for name in ("P1", "ORTHO2", "COLL2")]
    cases.append(_p4_k3_case()[:2])
    for _ in range(20):
        P = int(rng.integers(2, 7))
        k, n = int(rng.integers(1, P + 1)), P + int(rng.integers(3, 40))
        problem = RegressionProblem(X=rng.standard_normal((n, P)), theta=np.zeros(P),
                                    sigma=1.0, O=int(rng.integers(1, P)))
        cases.append((problem, rng.standard_normal((k, P))))
    for problem, A in cases:
        record = projection_quantities(problem, A)
        B, N = record.drift_maps
        P, O = problem.P, problem.O
        for gamma in 3.0 * rng.standard_normal((3, P)):
            consts = local_shift_constants(record.Q, record.A, np.zeros(P), gamma, O)
            for p in range(O, P + 1):
                assert np.max(np.abs(B[p - O] @ gamma - consts.beta[p])) <= 1e-14, p
                if p > O:
                    assert abs(N[p - O - 1] @ gamma - consts.nu[p]) <= 1e-14, p


def test_rank0_pi_rows_are_differences_of_the_tail_products():
    # pdf(s) tail_p(s) P(X outside the rays of order p) is pdf(s) (tail_p(s)
    # - tail_{p-1}(s)): the t-free pi(p) of the drift record's table, the
    # K25 sum of that row, equals the K25 sum of the two-ray form (the rows
    # agree within 2e-16 of pdf(s), the sums as summed) within 1e-15, as
    # does the table's whole-line read, M - N+ + N-, for P1's order 1 and
    # COLL2's order 1 (rank 0)
    for name, t in (("P1", [0.3]), ("COLL2", [0.25, 0.25])):
        fx = fixture(name)
        for theta in (fx.problem.theta, 1.7 * fx.problem.theta + 0.05):
            engine = _ExactEngine(fx.problem, _query(fx, t, theta=theta), QUICK)
            (p,) = engine.drift.rays
            s, wk, _ = gl_panels(engine._s_edges)
            pdf = engine.ratio.pdf(s)
            tail = tail_products(engine.design, _nu(engine), engine.c, fx.problem.O, s)
            x0, c = engine.drift.x0[p][0], float(engine.c[p])
            rays = pdf * tail[p] * ray_interval_prob(-np.inf, np.inf, x0 - c * s, x0 + c * s)
            K = engine.drift.mass[p][0, 0]
            assert abs(K[3, -1] - wk @ rays) <= 1e-15, (name, theta)
            assert abs(K[3, -1] - (K[0, -1] - K[2, -1] + K[1, -1])) <= 1e-15, (name, theta)
            engine.rank0[p] = (np.array([-np.inf]), np.array([np.inf]))
            assert abs(engine._term_k1(p)[0].parts()[0, 0] - K[3, -1]) <= 1e-15, (name, theta)


# The 27 P1 queries of the plugin_sweeps benchmark (n = 100, 400, 1600 by
# rows; theta = lam / sqrt(n), lam on 9 points of [-0.999, 0.999]).  Within
# 3.5e-13 of the values before the ratio pdf lost its cancellation, whose
# rounding was 1.1e-12 of the density at dof 1,599
P1_SWEEP_VALUES = [
    ["0x1.5feb953f6fc6bp-3", "0x1.dbdc02c85c15cp-4", "0x1.31f0c545d9116p-4",
     "0x1.758e972855fdfp-5", "0x1.f27b3ba4941f4p-1", "0x1.e8a7168c9c865p-1",
     "0x1.d9c1e75666c40p-1", "0x1.c4847fa616636p-1", "0x1.a8051aaf45f47p-1"],
    ["0x1.5a72f982fad7ap-3", "0x1.d213d96a2e2eap-4", "0x1.29e3f4ab36fffp-4",
     "0x1.694c4b63bf871p-5", "0x1.f305e33ec54b4p-1", "0x1.e96b3b48e5edbp-1",
     "0x1.dac38169bb062p-1", "0x1.c5bd84d1dc203p-1", "0x1.a963419e63302p-1"],
    ["0x1.59158b86a3979p-3", "0x1.cfa42cb285301p-4", "0x1.27e3edca839cdp-4",
     "0x1.6642ebbc97ca2p-5", "0x1.f3281bb9ea45dp-1", "0x1.e99bd14358688p-1",
     "0x1.db038245d171ap-1", "0x1.c60b7a68d13f2p-1", "0x1.a9ba9d1d78ff3p-1"],
]


def test_p1_sweep_points_read_the_same_cold_and_warm():
    # every sweep point is a theta its design record has not seen: the
    # first call builds the drift record from the kept maps, the third
    # reads it whole (memos filled on the second), and both give the
    # frozen value
    for n, row in zip((100, 400, 1600), P1_SWEEP_VALUES):
        fx = fixture("P1", n=n)
        for lam, want in zip(np.linspace(-0.999, 0.999, 9), row):
            query = _query(fx, [0.0], theta=[lam / np.sqrt(n)], sigma=1.0)
            cold, _, warm = (cdf_exact(fx.problem, query) for _ in range(3))
            assert _bits(cold) == _bits(warm), (n, lam)
            assert abs(cold.value - float.fromhex(want)) <= 1e-15, (n, lam, cold.value.hex())


def _rows_equal_one_query_calls(problem, queries, budget=None, passes=3):
    """One `cdf_exact_rows` call over ``queries``, made ``passes`` times
    (cold, memo fill, warm), each row equal bit for bit to its own
    `cdf_exact` call on a fresh drift record; returns the first pass."""
    first = cdf_exact_rows(problem, queries, budget)
    rows = [first] + [cdf_exact_rows(problem, queries, budget) for _ in range(passes - 1)]
    for j, query in enumerate(queries):
        want = _bits(cdf_exact(problem, query, budget))
        for results in rows:
            assert len(results) == len(queries)
            assert _bits(results[j]) == want, (j, query.theta, results[j], want)
    return first


def test_p1_sweep_rows_equal_their_one_query_calls():
    # the 27 P1 sweep points, a rows call per n, against their frozen values
    for n, row in zip((100, 400, 1600), P1_SWEEP_VALUES):
        fx = fixture("P1", n=n)
        queries = [_query(fx, [0.0], theta=[lam / np.sqrt(n)], sigma=1.0)
                   for lam in np.linspace(-0.999, 0.999, 9)]
        results = _rows_equal_one_query_calls(fx.problem, queries)
        for res, want in zip(results, row):
            assert abs(res.value - float.fromhex(want)) <= 1e-15, (n, res.value.hex(), want)


@pytest.mark.parametrize("A,t", [(E1, [0.25]), (np.eye(2), [0.25, 1.5])], ids=["k1", "k2"])
def test_coll2_rows_on_a_line_of_theta_equal_their_one_query_calls(A, t):
    # theta on a line moves order 1's ray centre, so its rank-0 crossings
    # fall inside the scale grid at some rows and outside it at others;
    # order 2 is an x-rule about each row's own centre
    fx = fixture("COLL2")
    thetas = [fx.problem.theta + lam * np.array([1.0, 0.0]) for lam in np.linspace(-3.0, 3.0, 9)]
    queries = [CdfQuery(A=A, t=t, theta=theta, sigma=1.0, rule=fx.rule) for theta in thetas]
    engine = _ExactEngine(fx.problem, queries, AccuracyBudget())
    (p,) = engine.drift.rays
    lo, hi = engine.rank0[p]
    x0, edges = engine.drift.x0[p], engine._s_edges
    y = np.array([x0 - lo, x0 - hi, hi - x0, lo - x0]).T / engine.c[p]
    inside = ((y > edges[0]) & (y < edges[-1])).any(axis=1)
    assert inside.any() and not inside.all(), inside
    _rows_equal_one_query_calls(fx.problem, queries)


def test_p4_k3_rows_equal_their_one_query_calls():
    problem, A, rule = _p4_k3_case()
    queries = [CdfQuery(A=A, t=P4_GRID[1], theta=problem.theta + d, sigma=1.0, rule=rule)
               for d in (0.0, -0.2, 0.35)]
    _rows_equal_one_query_calls(problem, queries)


def test_sampled_rows_share_one_draw_per_order(monkeypatch):
    # the P = 5, k = 4 design samples orders 4 and 5: a rows call draws
    # each once for all its rows, and every row equals its one-query call
    import pmsdist.dist_exact as dist_exact

    problem, A, rule = _p5_k4_case()
    draws = []

    def spy(*args, _original=_gauss.gauss_draws):
        draws.append(args[1])
        return _original(*args)

    monkeypatch.setattr(dist_exact, "gauss_draws", spy)
    queries = [CdfQuery(A=A, t=(1.0, -0.5, 0.5, 0.8), theta=problem.theta * f, sigma=1.0,
                        rule=rule) for f in (1.0, 0.5, -0.8)]
    cdf_exact_rows(problem, queries, QUICK)
    assert len(draws) == 2, draws
    _rows_equal_one_query_calls(problem, queries, QUICK, passes=1)


def test_a_one_row_call_is_cdf_exact():
    fx = fixture("ORTHO2")
    query = _query(fx, [0.25, -1.0])
    (res,) = cdf_exact_rows(fx.problem, [query])
    assert _bits(res) == _bits(cdf_exact(fixture("ORTHO2").problem, query))


def test_rows_bisect_and_report_their_own_rounds():
    # at tol 2e-10 the near-parallel COLL2 target needs 1 to 4 rounds of
    # bisection depending on theta: each row stops on its own figures and
    # its levels= is its own one-query call's
    fx = fixture("COLL2")
    A = np.array([[0.01, 1.0], [1.0, 0.0]])
    queries = [CdfQuery(A=A, t=(1.0, -0.2), theta=fx.problem.theta + lam * np.array([0.0, 0.2]),
                        sigma=1.0, rule=fx.rule) for lam in np.linspace(-1.0, 1.0, 5)]
    results = _rows_equal_one_query_calls(fx.problem, queries, AccuracyBudget(tol=2e-10),
                                          passes=1)
    levels = [res.method.split(";")[1] for res in results]
    assert len(set(levels)) >= 2 and "levels=0" not in levels, levels
    assert all(res.warning is None for res in results)


def test_rows_must_differ_in_theta_alone():
    fx = fixture("COLL2")
    base = _query(fx, [0.25, 0.5])
    other = fixture("ORTHO2")
    for changed in (replace(base, A=np.array([[1.0, 0.0], [1.0, 1.0]])),
                    replace(base, t=[0.25, 0.75]), replace(base, sigma=2.0),
                    replace(base, rule=GeneralToSpecific(critical=(1.5, 1.5)))):
        with pytest.raises(ValidationError, match="theta alone"):
            cdf_exact_rows(fx.problem, [base, replace(base, theta=[0.5, 0.5]), changed])
    with pytest.raises(ValidationError, match="non-empty"):
        cdf_exact_rows(fx.problem, [])
    wide = CdfQuery(A=np.eye(3), t=np.zeros(3), theta=np.zeros(3), sigma=1.0,
                    rule=GeneralToSpecific(critical=(1.96,) * 3))
    with pytest.raises(ValidationError, match="width"):
        cdf_exact_rows(other.problem, [wide, wide])


def test_a_new_theta_costs_no_solve_and_no_ray_interval(monkeypatch):
    # once the design record has its drift maps, a P1 point at a new theta
    # (no bisection) solves nothing and evaluates no two-ray probability:
    # its term is read off the drift record's scale tables, its pi a total
    import pmsdist.dist_exact as dist_exact
    import pmsdist.regression_core as regression_core

    calls = {"shift": 0, "rays": 0}

    def spy_shift(*args, _original=regression_core.local_shift_constants):
        calls["shift"] += 1
        return _original(*args)

    def spy_rays(*args, _original=_gauss.ray_interval_prob):
        calls["rays"] += 1
        return _original(*args)

    for module in (regression_core, dist_exact):   # wherever the name is bound
        if hasattr(module, "local_shift_constants"):
            monkeypatch.setattr(module, "local_shift_constants", spy_shift)
    for module in (_gauss, dist_exact):
        if hasattr(module, "ray_interval_prob"):
            monkeypatch.setattr(module, "ray_interval_prob", spy_rays)
    fx = fixture("P1", n=400)
    cdf_exact(fx.problem, _query(fx, [0.0], theta=[0.01], sigma=1.0))
    for lam in np.linspace(-0.999, 0.999, 9):
        calls.update(shift=0, rays=0)
        res = cdf_exact(fx.problem, _query(fx, [0.0], theta=[lam / 20.0], sigma=1.0))
        assert res.method.startswith("mixture-formula;levels=0;"), res
        assert calls == {"shift": 0, "rays": 0}, (lam, calls)


def _rank0_oracle(engine, p, lo, hi):
    """scipy's quad of pdf(s) tail_p(s) P(lo <= X <= hi, |X - x0| >= c s)
    over the scale grid, with the crossings and the x-edge scales as break
    points."""
    edges = engine._s_edges
    x0, c = engine.drift.x0[p][0], float(engine.c[p])

    def f(s):
        tail = tail_products(engine.design, _nu(engine), engine.c, p, np.array([s]))[p][0]
        return float(engine.ratio.pdf(s) * tail * ray_interval_prob(lo, hi, x0 - c * s,
                                                                   x0 + c * s))

    breaks = [abs(end - x0) / c for end in (lo, hi) if np.isfinite(end)]
    points = [y for y in (*breaks, *engine.s_step) if edges[0] < y < edges[-1]]
    val, _ = quad(f, edges[0], edges[-1], points=points or None, epsabs=1e-15,
                  epsrel=1e-13, limit=500)
    return val


def _rank0_cases():
    """(label, engine, order) of a rank-0 order: P1 (one end infinite) at
    dof 399 and 1, COLL2's order 1 at k = 1 and k = 2 (g = (1, 0), one end
    infinite), and at k = 2 with a target that loads it with both signs
    (both ends finite), at dof 18 and 99,998."""
    for n in (400, 2):
        fx = fixture("P1", n=n)
        yield f"P1.n{n}", _ExactEngine(fx.problem, _query(fx, [0.3]), AccuracyBudget()), 1
    signed = np.array([[1.0, 0.0], [-1.0, 1.0]])
    for label, n, A, t in (("COLL2.k1", None, E1, [0.25]),
                           ("COLL2.k2", None, np.eye(2), [0.25, 1.5]),
                           ("COLL2.finite", None, signed, [0.25, 0.5]),
                           ("COLL2.finite.dof99998", 100_000, signed, [0.25, 0.5])):
        fx = fixture("COLL2") if n is None else fixture("COLL2", n=n)
        # the drift sqrt(n) theta of COLL2 at n = 20
        theta = fixture("COLL2").problem.theta * np.sqrt(20 / fx.problem.n)
        query = CdfQuery(A=A, t=t, theta=theta, sigma=1.0, rule=fx.rule)
        yield label, _ExactEngine(fx.problem, query, AccuracyBudget()), 1


def test_rank0_table_reads_match_quadrature_of_the_two_ray_form():
    # each rank-0 term, read off the drift record's tables at the interval
    # of its t and at intervals whose crossings fall below the grid's first
    # edge and above its last, is the two-ray integral over the scale grid
    # within 1e-13, pi(p) the same on the whole line, and an empty interval
    # reads 0.  The reads' |K25 - G12|, which no bisection reduces, stays
    # below half the truncated scale mass (1.01e-10) that floors every error
    # bound (3.5e-11 at dof 1 on the whole line, 4.2e-12 or less elsewhere),
    # so `refine`, which never sees it, cannot be asked to chase it
    for label, engine, p in _rank0_cases():
        assert engine.problem.dof in (399, 1, 18, 99_998) and p in engine.rank0, label
        lo, hi = (float(end[0]) for end in engine.rank0[p])
        assert np.isinf([lo, hi]).sum() == (0 if "finite" in label else 1), (label, lo, hi)
        x0, c, edges = engine.drift.x0[p][0], float(engine.c[p]), engine._s_edges
        inner, outer = c * 0.5 * edges[0], c * 2.0 * edges[-1]
        intervals = [(lo, hi), (x0 - inner, x0 + outer), (x0 - outer, x0 + inner),
                     (x0 - inner, x0 + inner), (x0 - outer, x0 - inner), (-np.inf, np.inf)]
        for lo, hi in intervals:
            engine.rank0[p] = (np.atleast_1d(lo), np.atleast_1d(hi))
            term, gap = engine._term_k1(p)
            value, pi = term.parts()[:2, 0]
            want = _rank0_oracle(engine, p, lo, hi)
            assert abs(value - want) <= 1e-13 and gap <= 5e-11, (label, lo, hi, value, want, gap)
            assert abs(pi - _rank0_oracle(engine, p, -np.inf, np.inf)) <= 1e-13, label
        engine.rank0[p] = (np.array([0.5]), np.array([-0.5]))
        term, gap = engine._term_k1(p)
        assert term.parts()[0, 0] == 0.0 and gap == 0.0, label


def _trace_cases():
    """(label, result) of every cdf evaluator on closed-form, quadrature and
    sampled orders, and the cross-check's order without a rule (BLOCK_ORTHO's
    order 2, whose test statistic does not load on Z)."""
    budget = AccuracyBudget(tol=1e-6, n_z=2_000)
    for name, t in (("COLL2", [0.5, -0.25]), ("ORTHO2", [0.0, 0.3]), ("P1", [0.4]),
                    ("BLOCK_ORTHO", [0.7])):
        fx = fixture(name)
        yield f"exact.{name}", cdf_exact(fx.problem, _query(fx, t), budget)
        alt = LocalAlternative(theta=fx.problem.theta,
                               gamma=np.linspace(0.5, 1.0, fx.problem.P), sigma=1.0)
        for evaluate in (cdf_limit, cdf_limit_via_integral):
            yield f"{evaluate.__name__}.{name}", evaluate(fx.limits, alt, t, fx.rule, budget)
    problem, A, rule = _p5_k4_case()
    t = (1.0, -0.5, 0.5, 0.8)
    yield "exact.P5-k4", cdf_exact(problem, CdfQuery(A=A, t=t, theta=problem.theta,
                                                     sigma=1.0, rule=rule), budget)
    alt = LocalAlternative(theta=problem.theta, gamma=np.zeros(5), sigma=1.0)
    limits = limit_quantities(problem.gram, A, O=problem.O)
    for evaluate in (cdf_limit, cdf_limit_via_integral):
        yield f"{evaluate.__name__}.P5-k4", evaluate(limits, alt, t, rule, budget)


def test_every_evaluator_traces_its_value_by_order():
    # G(t) = sum_p pi(p) G(t | p) for the exact cdf and both limit paths:
    # the terms sum to the value, the weights are a distribution up to the
    # reported error, and each budget part is inside abs_error
    sampled = set()
    for label, res in _trace_cases():
        tr = res.term_trace
        assert tr.orders == tuple(range(tr.orders[0], tr.orders[-1] + 1)), label
        assert not res.clamped and tr.total == res.value, (label, res)
        assert np.all(tr.weights >= 0.0), (label, tr)
        assert abs(tr.weights.sum() - 1.0) <= res.abs_error, (label, tr, res)
        assert np.all((0.0 <= tr.conditional) & (tr.conditional <= 1.0)), (label, tr)
        assert np.all(tr.errors >= 0.0) and np.all(tr.sampling >= 0.0), (label, tr)
        parts = tr.errors.sum() + tr.sampling.sum() + abs(1.0 - tr.weights.sum())
        assert parts < res.abs_error and res.abs_error >= 1e-14, (label, tr, res)
        if tr.sampling.sum() > 0.0:
            sampled.add(label)
    assert sampled == {"exact.P5-k4", "cdf_limit.P5-k4", "cdf_limit_via_integral.P5-k4"}


def _same_result(a, b):
    return (a.value, a.abs_error, a.method, a.warning) == (b.value, b.abs_error, b.method,
                                                           b.warning)


@pytest.mark.parametrize("sigma", [1e-6, 0.37, 3.0, 1e6])
@pytest.mark.parametrize("name", ["COLL2", "ORTHO2", "P1", "BLOCK_ORTHO"])
def test_every_evaluator_is_scale_equivariant(name, sigma):
    # G at (t, theta, sigma) is G at (t / sigma, theta / sigma, 1), and the
    # limit cdf at (t, gamma, sigma) is that at (t, gamma) / sigma and unit
    # sigma: bit for bit, since every evaluator divides sigma out first;
    # the density of a scalar target scales by 1 / sigma
    fx = fixture(name)
    P, k = fx.limits.P, fx.limits.k
    theta = fx.problem.theta.copy()
    theta[-1] = 0.0      # a nonzero drift moves the last order
    t = np.linspace(-0.4, 0.9, k) * sigma
    gamma = np.linspace(-1.5, 0.8, P) * sigma
    for th in (theta * sigma, fx.problem.theta * sigma):
        scaled = cdf_exact(fx.problem, _query(fx, t, theta=th, sigma=sigma))
        unit = cdf_exact(fx.problem, _query(fx, t / sigma, theta=th / sigma, sigma=1.0))
        assert _same_result(scaled, unit), (scaled, unit)
    alt = LocalAlternative(theta=theta, gamma=gamma, sigma=sigma)
    alt1 = LocalAlternative(theta=theta, gamma=gamma / sigma, sigma=1.0)
    for evaluate in (cdf_limit, cdf_limit_via_integral):
        scaled = evaluate(fx.limits, alt, t, fx.rule)
        unit = evaluate(fx.limits, alt1, t / sigma, fx.rule)
        assert _same_result(scaled, unit), (evaluate.__name__, scaled, unit)
    # the density of the first target row, whose components are scalar
    limits = limit_quantities(fx.Q, fx.A[:1], O=fx.problem.O)
    if name == "P1":     # p_star = 0: an atom at the origin, no density
        with pytest.raises(DensityUndefinedError):
            pdf_limit(limits, alt, t[:1], fx.rule)
        return
    want = pdf_limit(limits, alt1, t[:1] / sigma, fx.rule) / sigma
    assert 0.0 < want and abs(pdf_limit(limits, alt, t[:1], fx.rule) - want) <= 1e-15 * want
