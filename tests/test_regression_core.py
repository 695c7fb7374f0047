"""Tests for the regression-model layer: fits, scales, projections, limits."""
import numpy as np
import pytest

from pmsdist.cdf_estimators import g_check, phi_hat_values
from pmsdist.dist_exact import CdfQuery
from pmsdist.errors import DegenerateSampleError, ValidationError
from pmsdist.fixtures import fixture
from pmsdist.montecarlo import SimulationPlan, simulate_response
from pmsdist.regression_core import (
    RegressionProblem,
    limit_quantities,
    local_shift_constants,
    order_of,
    projection_quantities,
    restricted_ls,
    sigma_hat,
    t_statistics,
    xi_n,
)
from pmsdist.selection import GeneralToSpecific, post_select_fit


def _random_problem(seed, n=40, P=3):
    rng = np.random.Generator(np.random.Philox(seed))
    X = rng.standard_normal((n, P))
    theta = rng.standard_normal(P)
    return RegressionProblem(X=X, theta=theta, sigma=1.3, O=0)


def test_restricted_ls_matches_lstsq():
    pr = _random_problem(1)
    Y = simulate_response(pr, (9, 0))
    for p in range(pr.P + 1):
        got = restricted_ls(pr, Y, p)
        assert got.shape == (pr.P,)
        assert np.all(got[p:] == 0.0)
        if p > 0:
            want, *_ = np.linalg.lstsq(pr.X[:, :p], Y, rcond=None)
            assert np.allclose(got[:p], want, atol=1e-10)


def test_sigma_hat_matches_residual_norm():
    pr = _random_problem(2)
    Y = simulate_response(pr, (10, 0))
    beta = restricted_ls(pr, Y, pr.P)
    rss = np.sum((Y - pr.X @ beta) ** 2)
    assert abs(sigma_hat(pr, Y) - np.sqrt(rss / (pr.n - pr.P))) < 1e-12


def test_sigma_hat_zero_for_exact_fit_and_t_raises():
    pr = _random_problem(3)
    Y = pr.X @ pr.theta  # no noise: exact fit
    assert sigma_hat(pr, Y) == 0.0
    with pytest.raises(DegenerateSampleError):
        t_statistics(pr, Y)


@pytest.mark.parametrize("case", ["COLL2", "seeded"])
def test_exact_fit_is_degenerate_and_small_noise_is_not(case):
    # as Y'Y - |Q'Y|^2 the residual sum of squares of an exact fit kept a
    # rounding residue (sigma_hat ~ 3e-8 in both cases), so the degenerate
    # branches below were reached only where the rounding cancelled
    if case == "COLL2":
        fx = fixture("COLL2", theta=np.array([1.0, 1.0]))
        pr, A, rule = fx.problem, fx.A, fx.rule
    else:
        pr = _random_problem(9)
        A, rule = np.eye(pr.P), GeneralToSpecific(critical=(2.0,) * pr.P)
    Y = pr.X @ pr.theta
    assert sigma_hat(pr, Y) == 0.0
    with pytest.raises(DegenerateSampleError):
        t_statistics(pr, Y)
    with pytest.raises(DegenerateSampleError):
        post_select_fit(pr, Y, rule)
    assert g_check(pr, Y, A, np.zeros(pr.P), rule) == 1.0
    # relative noise 1e-8 is a sample, not an exact fit
    noise = np.random.Generator(np.random.Philox(5)).standard_normal(pr.n)
    noisy = Y + 1e-8 * np.linalg.norm(Y) / np.linalg.norm(noise) * noise
    assert sigma_hat(pr, noisy) > 0.0
    assert np.all(np.isfinite(t_statistics(pr, noisy)))
    assert post_select_fit(pr, noisy, rule).sigma_hat > 0.0


def test_t_statistics_definition():
    pr = _random_problem(4)
    Y = simulate_response(pr, (11, 0))
    T = t_statistics(pr, Y)
    assert T[0] == 0.0
    s = sigma_hat(pr, Y)
    for p in range(1, pr.P + 1):
        coef = restricted_ls(pr, Y, p)[p - 1]
        assert abs(T[p] - np.sqrt(pr.n) * coef / (s * xi_n(pr, p))) < 1e-12


def test_xi_n_is_inverse_gram_diagonal():
    pr = _random_problem(5)
    for p in range(1, pr.P + 1):
        inv = np.linalg.inv(pr.gram[:p, :p])
        assert abs(xi_n(pr, p) - np.sqrt(inv[-1, -1])) < 1e-12


def _eta(pr, p):
    """Mean eta(p) of the order-p restricted estimator, theta + beta(p) at
    A = I and drift gamma = theta."""
    consts = local_shift_constants(pr.gram, np.eye(pr.P), np.zeros(pr.P), pr.theta, O=0)
    return pr.theta + consts.beta[p]


def test_eta_endpoints_and_projection():
    pr = _random_problem(6)
    assert np.all(_eta(pr, 0) == 0.0)
    assert np.allclose(_eta(pr, pr.P), pr.theta)
    # eta(p) is the minimizer of the population objective over M_p:
    # the residual X theta - X eta(p) is Gram-orthogonal to the first p columns
    for p in range(1, pr.P):
        eta = _eta(pr, p)
        assert np.all(eta[p:] == 0.0)
        resid = pr.gram @ (pr.theta - eta)
        assert np.allclose(resid[:p], 0.0, atol=1e-10)


def test_eta_frozen_collinear_case():
    # Gram [[1, .5], [.5, 1]], theta = (0, 1): dropping the second coordinate
    # shifts half its weight onto the first
    fx = fixture("COLL2", theta=np.array([0.0, 1.0]))
    assert np.allclose(_eta(fx.problem, 1), [0.5, 0.0], atol=1e-12)


def test_order_of():
    assert order_of(np.array([0.0, 0.0])) == 0
    assert order_of(np.array([1.0, 0.0])) == 1
    assert order_of(np.array([0.0, 1e-300])) == 2


def test_projection_quantities_frozen_collinear_case():
    fx = fixture("COLL2")
    dq = projection_quantities(fx.problem, np.eye(2))
    assert abs(dq.xi(2) - np.sqrt(4.0 / 3.0)) < 1e-12
    assert np.allclose(dq.C(2), [-2.0 / 3.0, 4.0 / 3.0], atol=1e-12)
    assert np.allclose(dq.b(2), [0.0, 1.0], atol=1e-10)
    assert abs(dq.zeta(2)) < 1e-7  # invertible target: W_2 is a function of Z_2
    assert abs(dq.xi(1) - 1.0) < 1e-12
    assert np.allclose(dq.C(1), [1.0, 0.0], atol=1e-12)
    assert np.all(dq.omega(0) == 0.0) and dq.omega(0).shape == (2, 2)


def test_projection_quantities_is_the_record_of_the_gram():
    # the finite-n record is the limit record at Q = X'X/n, field for field
    designs = [(fixture(name).problem, fixture(name).A)
               for name in ("COLL2", "ORTHO2", "BLOCK_ORTHO", "P1")]
    pr4 = _random_problem(8, P=4)
    designs.append((RegressionProblem(X=pr4.X, theta=pr4.theta, sigma=1.0, O=1),
                    np.eye(3, 4) + 0.3 * np.ones((3, 4))))
    for pr, A in designs:
        got = projection_quantities(pr, A)
        want = limit_quantities(pr.gram, A, pr.O)
        for field in ("Q", "A", "xi_inf", "C_inf", "b_inf", "zeta_inf", "omega_inf"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
        assert (got.O, got.q_star) == (want.O, want.q_star)


def test_projection_record_is_built_once_per_problem_and_target():
    fx = fixture("COLL2")
    pr = fx.problem
    rec = projection_quantities(pr, np.eye(2))
    # equal float64 bytes and shape, whatever container: the same record
    assert projection_quantities(pr, [[1, 0], [0, 1]]) is rec
    assert projection_quantities(pr, np.eye(2)) is rec
    # another target, or the same values in another shape: its own record
    e1 = projection_quantities(pr, [[1.0, 0.0]])
    assert e1 is not rec and projection_quantities(pr, [[1.0, 0.0]]) is e1
    e2 = projection_quantities(pr, [[0.0, 1.0]])
    assert np.array_equal(e2.A, [[0.0, 1.0]]) and not np.array_equal(e2.C_inf, e1.C_inf)
    flat = projection_quantities(pr, [1.0, 0.0])
    assert flat is not e1
    assert np.array_equal(flat.omega_inf, e1.omega_inf) and flat.q_star == e1.q_star
    # another problem on the same design keeps its own memo
    twin = RegressionProblem(X=pr.X, theta=pr.theta, sigma=pr.sigma, O=pr.O)
    assert projection_quantities(twin, np.eye(2)) is not rec


@pytest.mark.parametrize("A,fragment", [
    ([[np.nan, 0.0], [0.0, 1.0]], "finite"),
    (np.eye(3), "columns"),
    ([[1.0, 2.0], [2.0, 4.0]], "rank"),
])
def test_memoized_problem_still_validates_new_targets(A, fragment):
    pr = fixture("COLL2").problem
    projection_quantities(pr, np.eye(2))
    with pytest.raises(ValidationError, match=fragment):
        projection_quantities(pr, A)
    assert len(pr._records) == 1


def test_design_records_are_read_only():
    # records are shared by every later cdf on their problem: a write into
    # one must fail rather than move those values
    fx = fixture("COLL2")
    for rec in (projection_quantities(fx.problem, fx.A), fx.limits):
        for field in ("Q", "A", "xi_inf", "C_inf", "b_inf", "zeta_inf", "omega_inf"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(rec, field)[...] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            rec.omega(2)[0, 0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            rec.C(1)[0] = 5.0
    assert fx.limits is fx.limits


def test_zeta_residue_of_either_sign_is_exactly_zero():
    # COLL2 with A = I at p = 2: W_2 is a function of Z_2, and the
    # cancellation in xi^2 - b'C leaves a positive residue of about 2e-16
    fx = fixture("COLL2")
    assert projection_quantities(fx.problem, np.eye(2)).zeta(2) == 0.0
    assert fx.limits.zeta(2) == 0.0


def test_limit_quantities_fixture_structure():
    ortho = fixture("ORTHO2").limits
    assert ortho.q_star == 2
    assert np.allclose(ortho.C(2), [0.0, 1.0], atol=1e-12)
    block = fixture("BLOCK_ORTHO").limits
    assert block.q_star is None           # target blind to the tested coordinate
    assert np.allclose(block.C(2), [0.0], atol=1e-12)
    coll = fixture("COLL2").limits
    assert coll.q_star == 2
    assert abs(coll.xi(2) ** 2 - 4.0 / 3.0) < 1e-12


def test_zeta_invariant_under_choice_of_generalized_inverse():
    # zeta^2 = xi^2 - C' Omega^g C is the same for every (1)-inverse of
    # Omega because C lies in the range of Omega
    fx = fixture("COLL2")
    dq = projection_quantities(fx.problem, np.eye(2))
    for p in (1, 2):
        gp = fx.problem.gram[:p, :p]
        Ap = np.eye(2)[:, :p]
        omega = Ap @ np.linalg.solve(gp, Ap.T)
        lam, vec = np.linalg.eigh(0.5 * (omega + omega.T))
        keep = lam > 1e-12 * lam.max()
        rng = np.random.Generator(np.random.Philox(p))
        for trial in range(3):
            inv = rng.standard_normal(lam.shape)  # garbage on the null space
            inv[keep] = 1.0 / lam[keep]
            g_alt = (vec * inv) @ vec.T
            zeta2_alt = dq.xi(p) ** 2 - dq.C(p) @ g_alt @ dq.C(p)
            assert abs(max(zeta2_alt, 0.0) - dq.zeta(p) ** 2) < 1e-10


def test_covariance_identity_monte_carlo():
    # Cov(sqrt(n) A theta_tilde(p), sqrt(n) theta_tilde_p(p)) = sigma^2 C_np
    fx = fixture("COLL2")
    pr = fx.problem
    reps = 20_000
    rng = np.random.Generator(np.random.Philox(77))
    eps = rng.standard_normal((reps, pr.n))
    Y = (pr.X @ pr.theta)[None, :] + pr.sigma * eps
    for p in (1, 2):
        q, r = pr._qr[p - 1]
        coefs = np.linalg.solve(r, (Y @ q).T).T       # (reps, p)
        target = coefs @ np.eye(2)[:, :p].T           # A theta_tilde(p), (reps, 2)
        trailing = coefs[:, -1]
        want = pr.sigma ** 2 * projection_quantities(pr, np.eye(2)).C(p) / pr.n
        got = np.array([np.cov(target[:, j], trailing)[0, 1] for j in range(2)])
        se = np.sqrt(np.var(target, axis=0) * np.var(trailing) + got ** 2) / np.sqrt(reps)
        assert np.all(np.abs(got - want) <= 4 * se)


def test_problem_validation():
    X = np.ones((10, 1))
    with pytest.raises(ValidationError):
        RegressionProblem(X=np.zeros((10, 2)), theta=np.zeros(2), sigma=1.0, O=0)  # rank
    with pytest.raises(ValidationError):
        RegressionProblem(X=X, theta=np.zeros(1), sigma=0.0, O=0)
    with pytest.raises(ValidationError):
        RegressionProblem(X=X, theta=np.zeros(1), sigma=1.0, O=1)  # O must be < P
    with pytest.raises(ValidationError):
        RegressionProblem(X=X, theta=np.zeros(2), sigma=1.0, O=0)  # theta length


def test_limit_quantities_validation():
    with pytest.raises(ValidationError):
        limit_quantities(np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2))  # not SPD
    with pytest.raises(ValidationError):
        limit_quantities(np.eye(2), np.array([[1.0, 0.0], [2.0, 0.0]]))  # rank-deficient A


def test_non_finite_targets_are_invalid():
    # a NaN entry of A reached numpy's rank test and raised LinAlgError
    # ("SVD did not converge") from every entry point that takes a target
    fx = fixture("COLL2")
    pr = fx.problem
    for A in (np.array([[1.0, np.nan], [0.0, 1.0]]), np.array([[np.inf, 0.0]])):
        for make in (
            lambda: CdfQuery(A=A, t=np.zeros(A.shape[0]), theta=pr.theta, sigma=1.0,
                             rule=fx.rule),
            lambda: SimulationPlan(problem=pr, rule=fx.rule, A=A, replications=10,
                                   master_seed=0),
            lambda: limit_quantities(fx.Q, A),
            lambda: projection_quantities(pr, A),
            lambda: phi_hat_values(pr, A, 2, np.zeros(A.shape[0]), np.ones(1)),
        ):
            with pytest.raises(ValidationError, match="finite"):
                make()


_COLL2 = fixture("COLL2").problem


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: RegressionProblem(X=np.ones(10), theta=np.zeros(1), sigma=1.0, O=0),
     ValidationError, "2-D"),
    (lambda: RegressionProblem(X=np.ones((2, 2)), theta=np.zeros(2), sigma=1.0, O=0),
     ValidationError, "n > P"),
    (lambda: RegressionProblem(X=np.full((4, 1), np.inf), theta=np.zeros(1), sigma=1.0, O=0),
     ValidationError, "finite"),
    (lambda: restricted_ls(_COLL2, np.zeros(3), 1), ValidationError, "shape"),
    (lambda: restricted_ls(_COLL2, np.zeros(_COLL2.n), 3), ValidationError, "outside"),
    (lambda: sigma_hat(_COLL2, np.zeros(3)), ValidationError, "shape"),
    (lambda: xi_n(_COLL2, 0), ValidationError, "outside"),
    (lambda: limit_quantities(np.ones((2, 3)), np.eye(2)), ValidationError, "square"),
    (lambda: limit_quantities(np.eye(2), np.eye(2), O=2), ValidationError, "O must"),
    (lambda: local_shift_constants(np.eye(2), np.eye(2), np.zeros(3), np.zeros(2)),
     ValidationError, "dimension"),
    (lambda: local_shift_constants(np.eye(2), np.eye(2), np.zeros(2), np.zeros(2), O=-1),
     ValidationError, "O must"),
    (lambda: fixture("ORTHO2", n=5), ValidationError, "even n"),
    (lambda: fixture("COLL2", n=10), ValidationError, "divisible by 4"),
    (lambda: fixture("P1", n=1), ValidationError, "n >= 2"),
])
def test_input_checks(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
