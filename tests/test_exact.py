"""Tests for the finite-sample cdf: mixture formula, scale density, engine."""
import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.special import ndtr
from scipy.stats import chi, chi2

from pmsdist._gauss import (
    PANELS,
    TAIL_CUT,
    bvn_cdf,
    condition_on_scalar,
    gl_panels,
    norm_pdf,
    refine,
)
from pmsdist.dist_exact import (
    AccuracyBudget,
    CdfQuery,
    SigmaRatioDensity,
    _ExactEngine,
    cdf_exact,
    cdf_result,
    delta,
)
from pmsdist.dist_limit import LocalAlternative, _joint_rows, cdf_limit, cdf_limit_via_integral
from pmsdist.errors import ValidationError
from pmsdist.fixtures import fixture
from pmsdist.montecarlo import SimulationPlan, empirical_cdf
from pmsdist.regression_core import RegressionProblem, limit_quantities
from pmsdist.selection import GeneralToSpecific, InformationCriterion, SubsetMask

QUICK = AccuracyBudget(tol=1e-4, n_z=20_000, seed=0)
E1 = np.array([[1.0, 0.0]])


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


@pytest.mark.parametrize("dof", [1, 2, 18, 100_000])
def test_sigma_ratio_density_is_scaled_chi(dof):
    dens = SigmaRatioDensity(dof)
    ref = chi(df=dof, scale=1.0 / np.sqrt(dof))
    q = np.array([1e-12, 1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6, 1.0 - 1e-10])
    s = np.concatenate([[0.0], ref.ppf(q), [0.5, 1.0, 2.0]])
    # s = 0 included: at dof = 1 the density there is sqrt(2 / pi), not NaN
    np.testing.assert_allclose(dens.pdf(s), ref.pdf(s), rtol=1e-12, atol=1e-300)
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
            for p in range(problem.O + 1, problem.P + 1):
                pq = engine.pq[p]
                ranks.add(condition_on_scalar(pq.omega_np, pq.C_np, pq.xi_np ** 2)[2].shape[1])
                u = engine.query.t - engine.shift[p]
                det, _, det_err = engine._term_orthant(p, u, PANELS)
                val, _, err, se = engine._term_sampled(p, u, PANELS)
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
    u = engine.query.t - engine.shift[p]
    if name == "COLL2":
        x_end, factor = u[0], float(u[1] >= 0.0)
    else:
        x_end, factor = u[1], ndtr(u[0])
    pq = engine.pq[p]
    x0, c = -engine.m[p] / pq.xi_np, engine.c[p]

    def integrand(s):
        x_lo, x_hi = x0 - s * c, x0 + s * c
        rays = ndtr(min(x_end, x_lo)) + max(ndtr(x_end) - ndtr(x_hi), 0.0)
        tail = engine._tail_products(np.array([s]))[p][0]
        return engine.ratio.pdf(s) * tail * factor * rays

    lo, hi = engine.ratio.ppf(1e-12), engine.ratio.ppf(1.0 - 1e-10)
    want, _ = quad(integrand, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=500)
    got, _, _ = engine._term_orthant(p, u, PANELS)
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
    p, sig = 2, engine.sigma
    pq = engine.pq[p]
    assert pq.zeta_np > 0.1 * pq.xi_np
    u = engine.query.t - engine.shift[p]
    b, mp, cssx = float(pq.b_np[0]), engine.m[p], engine.c[p] * sig * pq.xi_np
    sd = sig * np.sqrt(pq.omega_np[0, 0])

    def inner(s):
        def f(z):
            return norm_pdf(z / sd) / sd * (1.0 - delta(sig * pq.zeta_np, mp + b * z, s * cssx))
        val, _ = quad(f, -12.0 * sd, u[0], epsabs=1e-15, epsrel=1e-13, limit=200)
        tail = engine._tail_products(np.array([s]))[p][0]
        return engine.ratio.pdf(s) * tail * val

    lo, hi = engine.ratio.ppf(1e-12), engine.ratio.ppf(1.0 - 1e-10)
    want, _ = quad(inner, lo, hi, points=engine.s_step, epsabs=1e-14, epsrel=1e-12, limit=200)
    got, _, _ = engine._term_orthant(p, u, PANELS)
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
    res = cdf_result(*refine(engine.assemble, engine.budget.tol, True), engine.budget,
                     engine.method_string)
    return float(res.term_trace.total), res.abs_error


def test_two_ray_arm_agrees_with_general_rule():
    # an order whose z is a multiple of its selection scalar (conditional
    # rank 0) is two rays in that scalar (`_term_k1`); with the engine's
    # rank-0 table cleared, the swapped rule of `_term_orthant` covers it
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
    ("P5-k4", {2: "orthant", 3: "sampled", 4: "sampled", 5: "sampled"}),
])
def test_orders_dispatch_on_conditional_rank(monkeypatch, case, arms):
    # rank 0 takes the two-ray arm for any k, and only a conditional orthant
    # of rank >= 2 at k >= 4 is sampled; the limit's `_joint_rows` is a
    # closed form for the same orders
    if case in ("P1", "COLL2"):
        fx = fixture(case)
        problem, A, rule = fx.problem, fx.A, fx.rule
    else:
        problem, A, rule = {"P3-k2": _p3_k2_case, "P4-k3": _p4_k3_case,
                            "P5-k4": _p5_k4_case}[case]()
    taken = {}
    for arm, name in (("two_ray", "_term_k1"), ("orthant", "_term_orthant"),
                      ("sampled", "_term_sampled")):
        def spy(self, p, *args, _arm=arm, _original=getattr(_ExactEngine, name)):
            taken.setdefault(p, set()).add(_arm)
            return _original(self, p, *args)
        monkeypatch.setattr(_ExactEngine, name, spy)
    budget = AccuracyBudget(n_z=2_000)
    query = CdfQuery(A=A, t=np.full(A.shape[0], 0.3), theta=problem.theta, sigma=1.0, rule=rule)
    engine = _ExactEngine(problem, query, budget)
    engine.assemble(0)
    assert taken == {p: {arm} for p, arm in arms.items()}
    for p, arm in arms.items():
        pq = engine.pq[p]
        _, quad = _joint_rows(query.t[None, :], pq.omega_np, pq.C_np, pq.xi_np ** 2,
                              0.3, 2.0 * pq.xi_np, (0, 0), budget.n_z)
        assert quad == (arm != "two_ray"), (p, arm)


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
    u = engine.query.t - engine.shift[1]
    det, _, det_err = engine._term_orthant(1, u, PANELS)
    val, _, _, se = engine._term_sampled(1, u, PANELS)
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
        e1, w = gl_panels(np.array([-TAIL_CUT, *sorted(p for p in pts if abs(p) < TAIL_CUT),
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
    y, w = gl_panels(np.linspace(-TAIL_CUT, top, 41), 20)
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
    u = engine.query.t - engine.shift[p]
    pq = engine.pq[p]
    g, _, L = condition_on_scalar(pq.omega_np, pq.C_np, pq.xi_np ** 2)
    assert L.shape[1] == p - 1
    x0, c = -engine.m[p] / pq.xi_np, engine.c[p]
    s_lo, s_hi = engine.ratio.ppf(1e-12), engine.ratio.ppf(1.0 - 1e-10)
    dens = chi(df=engine.ratio.dof, scale=1.0 / np.sqrt(engine.ratio.dof))
    K = solve_ivp(lambda s, _: [dens.pdf(s) * engine._tail_products(np.array([s]))[p][0]],
                  (s_lo, s_hi), [0.0], method="DOP853", rtol=1e-13, atol=1e-16,
                  dense_output=True).sol

    def integrand(x):
        y = min(max(abs(x - x0) / c, s_lo), s_hi)
        return norm_pdf(x) * K(y)[0] * _orthant_oracle(u - g * x, L)

    want, _ = quad(integrand, -TAIL_CUT, TAIL_CUT, points=[x0 - c * s_lo, x0, x0 + c * s_lo],
                   epsabs=1e-13, epsrel=1e-12, limit=400)
    got, _, _ = engine._term_orthant(p, u, PANELS)
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
        fx = fx.at_n(n, theta=fx.problem.theta * np.sqrt(20 / n))
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
    # at t = -7 no draw of orders 3-5 (conditional ranks 2-4) lands in the
    # orthant, yet each sampled order is still an estimate from n_z draws:
    # its SE is at least 1/n_z
    problem, A, rule = _p5_k4_case()
    budget = AccuracyBudget()
    res = cdf_exact(problem, CdfQuery(A=A, t=np.full(4, -7.0), theta=problem.theta,
                                      sigma=1.0, rule=rule), budget)
    assert res.abs_error >= 3.0 * 3 / budget.n_z and res.warning is not None, res


def test_k4_rank1_order_does_not_depend_on_the_sample():
    # order 2 of the P = 5, k = 4 design conditions to rank 1, which
    # `orthant_rows` evaluates exactly: its term is the same whatever the
    # seed and size of the sample the higher orders draw
    problem, A, rule = _p5_k4_case()
    query = CdfQuery(A=A, t=(1.0, -0.5, 0.5, 0.8), theta=problem.theta, sigma=1.0, rule=rule)
    for level in (0, 1):
        order2 = []
        for budget in (AccuracyBudget(), AccuracyBudget(seed=7, n_z=1000)):
            order2.append(_ExactEngine(problem, query, budget).assemble(level).terms[1])
        assert order2[0] == order2[1], (level, order2)


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
