"""Property-based tests of the structural invariants."""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from pmsdist._gauss import bvn_cdf, ray_interval_prob
from pmsdist.dist_exact import delta
from pmsdist.selection import GeneralToSpecific, SubsetMask, g2s_order

finite = st.floats(min_value=-50.0, max_value=50.0,
                   allow_nan=False, allow_infinity=False)
spread = st.floats(min_value=0.0, max_value=20.0,
                   allow_nan=False, allow_infinity=False)
width = st.floats(min_value=-5.0, max_value=30.0,
                  allow_nan=False, allow_infinity=False)


@given(s=spread, a=finite, b=width)
def test_delta_is_a_probability(s, a, b):
    val = delta(s, a, b)
    assert 0.0 <= val <= 1.0


@given(s=spread, a=finite, b=width)
def test_delta_symmetric_in_center_sign(s, a, b):
    # symmetric up to floating-point roundoff in the two cdf evaluations
    assert abs(delta(s, a, b) - delta(s, -a, b)) < 1e-12


@given(s=spread, a=finite, b1=width, b2=width)
def test_delta_monotone_in_width(s, a, b1, b2):
    lo, hi = min(b1, b2), max(b1, b2)
    assert delta(s, a, lo) <= delta(s, a, hi) + 1e-12


@given(a=finite, b=width)
def test_delta_zero_spread_is_indicator(a, b):
    assert delta(0.0, a, b) == (1.0 if abs(a) < b else 0.0)


@given(st.integers(min_value=1, max_value=8), st.data())
def test_mask_round_trip(P, data):
    idx = data.draw(st.sets(st.integers(min_value=0, max_value=P - 1)))
    mask = SubsetMask.from_indices(P, sorted(idx))
    assert set(mask.indices) == idx
    assert mask.cardinality == len(idx)
    assert SubsetMask(bits=mask.bits) == mask
    assert len(str(mask)) == P


@given(st.data())
def test_g2s_order_bounds_and_monotonicity(data):
    P = data.draw(st.integers(min_value=1, max_value=6))
    O = data.draw(st.integers(min_value=0, max_value=P - 1))
    T = np.array([0.0] + [data.draw(finite) for _ in range(P)])
    crit = np.array([data.draw(st.floats(min_value=0.01, max_value=10.0))
                     for _ in range(P - O)])
    p_hat = g2s_order(T, O, crit)
    assert O <= p_hat <= P
    # raising every threshold can only shrink the selected order
    bump = data.draw(st.floats(min_value=0.0, max_value=5.0))
    assert g2s_order(T, O, crit + bump) <= p_hat
    # the selected order's own statistic clears its threshold
    if p_hat > O:
        assert abs(T[p_hat]) >= crit[p_hat - O - 1]
    # and everything above fails its threshold
    for q in range(p_hat + 1, P + 1):
        assert abs(T[q]) < crit[q - O - 1]


@given(h=finite, k=finite,
       rho=st.floats(min_value=-1.0, max_value=1.0,
                     allow_nan=False, allow_infinity=False))
@settings(max_examples=200)
# subnormal arguments: rho h rounds back to h while h sqrt(1 - rho^2) underflows
@example(h=5e-324, k=5e-324, rho=0.875)
def test_bvn_respects_frechet_bounds(h, k, rho):
    val = float(bvn_cdf(h, k, rho))
    p, q = ndtr(h), ndtr(k)
    assert max(p + q - 1.0, 0.0) - 1e-9 <= val <= min(p, q) + 1e-9


@given(lo=finite, hi=finite, a=finite,
       width=st.floats(min_value=0.0, max_value=40.0,
                       allow_nan=False, allow_infinity=False))
def test_ray_interval_prob_is_dominated_by_interval(lo, hi, a, width):
    interval = max(ndtr(hi) - ndtr(lo), 0.0)
    val = float(ray_interval_prob(lo, hi, a, a + width))
    assert -1e-12 <= val <= interval + 1e-12
    # widening the excluded band can only remove mass
    assert float(ray_interval_prob(lo, hi, a - 1.0, a + width + 1.0)) <= val + 1e-12
    # a = b excludes nothing
    assert abs(float(ray_interval_prob(lo, hi, a, a)) - interval) < 1e-12


@given(st.data())
def test_rule_thresholds_accept_any_positive_finite(data):
    crit = tuple(data.draw(st.floats(min_value=1e-6, max_value=1e6))
                 for _ in range(data.draw(st.integers(1, 4))))
    rule = GeneralToSpecific(critical=crit)
    assert rule.critical == crit
