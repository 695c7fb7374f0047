"""Tests for the data-driven cdf estimators: plug-in and fitted-Gaussian."""
import numpy as np
import pytest
from scipy.special import ndtr

from pmsdist.cdf_estimators import (
    g_check,
    g_check_values,
    phi_hat,
    phi_hat_values,
)
from pmsdist.dist_exact import AccuracyBudget
from pmsdist.dist_limit import LocalAlternative, cdf_limit
from pmsdist.errors import DegenerateSampleError, ValidationError
from pmsdist.fixtures import fixture
from pmsdist.montecarlo import simulate_response
from pmsdist.regression_core import limit_quantities, sigma_hat
from pmsdist.selection import auxiliary_consistent

QUICK = AccuracyBudget(tol=1e-6, n_z=20_000, seed=0)


def test_plug_in_equals_limit_formula_at_plugged_arguments():
    # with sigma_hat, X'X/n and p_eff handed to the zero-drift limit
    # formula directly, g_check must reproduce cdf_limit exactly
    fx = fixture("COLL2")
    pr = fx.problem
    Y = simulate_response(pr, (17, 0))
    p_eff = max(auxiliary_consistent(pr, Y), pr.O)
    limits = limit_quantities(pr.gram, fx.A, O=pr.O)
    theta = np.zeros(pr.P)
    if p_eff:
        theta[p_eff - 1] = 1.0   # any theta of exact order p_eff
    alt = LocalAlternative(theta=theta, gamma=np.zeros(pr.P), sigma=sigma_hat(pr, Y))
    for t in ([0.2, 0.4], [-0.6, 1.0]):
        want = cdf_limit(limits, alt, t, fx.rule, QUICK).value
        got = g_check(pr, Y, fx.A, t, fx.rule, budget=QUICK)
        assert got == want


def test_batch_matches_scalar_calls():
    fx = fixture("COLL2")
    pr = fx.problem
    t = np.array([0.3, -0.2])
    sigs, pbars, singles = [], [], []
    for r in range(6):
        Y = simulate_response(pr, (23, r))
        sigs.append(sigma_hat(pr, Y))
        pbars.append(auxiliary_consistent(pr, Y))
        singles.append(g_check(pr, Y, fx.A, t, fx.rule, budget=QUICK))
    batch = g_check_values(pr, fx.A, t, fx.rule, np.array(sigs),
                           np.array(pbars), budget=QUICK)
    assert np.allclose(batch, singles, atol=1e-12)


def test_zero_residual_scale_conventions():
    fx = fixture("ORTHO2")
    pr = fx.problem
    Y = pr.X @ pr.theta  # exact fit: sigma_hat = 0
    assert g_check(pr, Y, fx.A, [0.0, 0.0], fx.rule) == 1.0
    assert g_check(pr, Y, fx.A, [0.3, -0.1], fx.rule) == 0.0
    with pytest.raises(DegenerateSampleError):
        phi_hat(pr, Y, fx.A, 2, [0.0, 0.0])
    vals = g_check_values(pr, fx.A, np.array([0.1, 0.1]), fx.rule,
                          np.array([0.0, 0.5]), np.array([2, 2]))
    assert vals[0] == 1.0 and 0.0 < vals[1] < 1.0


def test_phi_hat_is_fitted_gaussian():
    fx = fixture("ORTHO2")
    pr = fx.problem
    Y = simulate_response(pr, (29, 0))
    s = sigma_hat(pr, Y)
    # orthogonal design, identity target: the order-2 fitted law is
    # N(0, s^2 I), so the cdf factorizes into normal marginals
    got = phi_hat(pr, Y, fx.A, 2, [0.5, -0.2])
    want = ndtr(0.5 / s) * ndtr(-0.2 / s)
    assert abs(got - want) < 1e-12
    # p = 0 is the point mass at the origin
    assert phi_hat(pr, Y, fx.A, 0, [0.1, 0.1]) == 1.0
    assert phi_hat(pr, Y, fx.A, 0, [-0.1, 0.1]) == 0.0
    # vectorized form agrees with the scalar one
    vals = phi_hat_values(pr, fx.A, 2, [0.5, -0.2], np.array([s, 2 * s]))
    assert abs(vals[0] - got) < 1e-15
    with pytest.raises(ValidationError):
        phi_hat(pr, Y, fx.A, 3, [0.0, 0.0])
    with pytest.raises(ValidationError):
        phi_hat(pr, Y, fx.A, 2, [0.0])


def test_scalar_target_blind_to_selection_is_order_free():
    # target (1, 0) on the orthogonal design: the fitted covariance is the
    # same at every order, so phi_hat does not depend on p >= 1
    fx = fixture("BLOCK_ORTHO")
    pr = fx.problem
    Y = simulate_response(pr, (31, 0))
    vals = [phi_hat(pr, Y, fx.A, p, [0.7]) for p in (1, 2)]
    assert abs(vals[0] - vals[1]) < 1e-12
    # and g_check reduces to the same Gaussian: no selection effect
    g = g_check(pr, Y, fx.A, [0.7], fx.rule, budget=QUICK)
    assert abs(g - vals[0]) < 1e-9


def test_full_order_plug_in_matches_full_gaussian():
    # when the auxiliary scan lands on the full model the plug-in formula
    # has no later stages left: it equals the fitted full-model Gaussian
    fx = fixture("COLL2")
    pr = fx.problem
    for r in range(40):
        Y = simulate_response(pr, (37, r))
        if auxiliary_consistent(pr, Y) < pr.P:
            continue
        t = [0.4, 0.1]
        got = g_check(pr, Y, fx.A, t, fx.rule, budget=QUICK)
        want = phi_hat(pr, Y, fx.A, pr.P, t)
        assert abs(got - want) < 1e-9
        break
    else:
        pytest.fail("no replication selected the full order")


def test_nan_arguments_are_rejected():
    # no cdf estimate is defined at a NaN argument or scale: each check
    # raises instead of returning NaN; an infinite t stays valid
    fx = fixture("COLL2")
    pr = fx.problem
    Y = simulate_response(pr, (17, 0))
    s = sigma_hat(pr, Y)
    for t in ([np.nan, 0.0], [0.0]):
        with pytest.raises(ValidationError):
            g_check(pr, Y, fx.A, t, fx.rule, budget=QUICK)
        with pytest.raises(ValidationError):
            g_check_values(pr, fx.A, t, fx.rule, np.array([s]), np.array([2]), budget=QUICK)
        with pytest.raises(ValidationError):
            phi_hat(pr, Y, fx.A, 2, t)
    for bad in (np.nan, np.inf, -1.0):
        with pytest.raises(ValidationError):
            g_check_values(pr, fx.A, [0.1, 0.1], fx.rule, np.array([s, bad]), np.array([2, 2]))
    with pytest.raises(ValidationError):
        phi_hat_values(pr, fx.A, 2, [0.1, 0.1], np.array([s, np.nan]))
    assert g_check(pr, Y, fx.A, [np.inf, np.inf], fx.rule, budget=QUICK) == 1.0
    assert phi_hat(pr, Y, fx.A, 2, [-np.inf, 0.0]) == 0.0


def test_phi_hat_values_needs_a_vector_of_scales():
    # a 2-D stack of scales filled only its first entry and returned
    # uninitialised memory (a "cdf" of 1.15) for the rest
    pr = fixture("COLL2").problem
    for bad in ([[1.0, 2.0]], 1.0):
        with pytest.raises(ValidationError, match="sigma_hats"):
            phi_hat_values(pr, np.eye(2), 2, [0.1, 0.1], bad)


def test_out_of_range_orders_are_rejected():
    # a p_bar of P + 1 raised a bare KeyError and one of -1 was read as O:
    # an order outside [0, P] is invalid input
    fx = fixture("COLL2")
    for bad in (-1, fx.problem.P + 1):
        with pytest.raises(ValidationError, match="p_bars"):
            g_check_values(fx.problem, fx.A, [0.1, 0.1], fx.rule, np.array([1.0, 1.0]),
                           np.array([1, bad]), budget=QUICK)


_COLL2 = fixture("COLL2")


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: g_check_values(_COLL2.problem, _COLL2.A, [0.1, 0.1], _COLL2.rule,
                            np.ones(2), np.array([1])),
     ValidationError, "equal-length"),
    (lambda: phi_hat_values(_COLL2.problem, _COLL2.A, 2, [0.1, 0.1], np.array([1.0, 0.0])),
     DegenerateSampleError, "sigma_hat is zero"),
])
def test_input_checks(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
