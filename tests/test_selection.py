"""Tests for selection rules: sequential testing, IC minimization, thresholding."""
import numpy as np
import pytest

from pmsdist.errors import DegenerateSampleError, ValidationError
from pmsdist.fixtures import fixture
from pmsdist.montecarlo import simulate_response
from pmsdist.regression_core import sigma_hat, t_statistics
from pmsdist.selection import (
    GeneralToSpecific,
    InformationCriterion,
    SubsetMask,
    Thresholding,
    auxiliary_consistent,
    full_model_t_ratios,
    g2s_order,
    ic_threshold,
    ic_values,
    masked_ls,
    post_select_fit,
    rule_from_json,
    rule_to_json,
    select_g2s,
    select_ic,
    select_threshold,
)


def _exact_sample(problem, coefs, scale=1.0):
    """Y = X b + v with v orthogonal to col(X), so the fitted coefficients
    are exactly b and sigma_hat is exactly ``scale``."""
    X = problem.X
    n = X.shape[0]
    v = np.zeros(n)
    v[:4] = [1.0, 1.0, -1.0, -1.0]
    v -= X @ np.linalg.lstsq(X, v, rcond=None)[0]
    v *= scale * np.sqrt(problem.dof) / np.linalg.norm(v)
    return X @ np.asarray(coefs, dtype=float) + v


def test_g2s_order_walks_down_from_the_top():
    assert g2s_order(np.array([0.0, 0.5, 3.1]), 0, (2.0, 2.0)) == 2
    assert g2s_order(np.array([0.0, 2.5, 1.0]), 0, (2.0, 2.0)) == 1
    assert g2s_order(np.array([0.0, 0.5, 1.0]), 0, (2.0, 2.0)) == 0
    assert g2s_order(np.array([0.0, -2.5, 1.0]), 0, (2.0, 2.0)) == 1  # two-sided
    assert g2s_order(np.array([0.0, 0.5, 1.9]), 1, (2.0,)) == 1      # protected floor
    assert g2s_order(np.array([0.0, 0.5, 2.0]), 1, (2.0,)) == 2      # >= is enough
    with pytest.raises(ValidationError):
        g2s_order(np.array([0.0, 1.0, 1.0]), 0, (2.0,))


def test_select_g2s_on_constructed_samples():
    pr = fixture("ORTHO2").problem  # O = 1
    rule = GeneralToSpecific(critical=(2.0,))
    assert select_g2s(pr, _exact_sample(pr, [10.0, 0.0]), rule) == 1
    assert select_g2s(pr, _exact_sample(pr, [10.0, 7.0]), rule) == 2
    # threshold is on |T_2| = sqrt(n) |b_2| / sigma_hat with xi = 1 here
    b_crit = 2.0 / np.sqrt(pr.n)
    assert select_g2s(pr, _exact_sample(pr, [0.0, 0.999 * b_crit]), rule) == 1
    assert select_g2s(pr, _exact_sample(pr, [0.0, 1.001 * b_crit]), rule) == 2


def test_rule_critical_value_accessor_and_validation():
    rule = GeneralToSpecific(critical=(1.5, 2.5))
    assert rule.critical_values(0).tolist() == [0.0, 1.5, 2.5]
    assert rule.critical_values(1).tolist() == [0.0, 0.0, 1.5, 2.5]
    rule.validate_for(P=2, O=0)
    with pytest.raises(ValidationError):
        rule.validate_for(P=2, O=1)
    for bad in ((0.0,), (-1.0,), (np.inf,)):
        with pytest.raises(ValidationError):
            GeneralToSpecific(critical=bad)


def test_subset_mask_basics():
    m = SubsetMask.from_indices(4, [0, 2])
    assert m.bits == (1, 0, 1, 0)
    assert m.indices == (0, 2)
    assert m.cardinality == 2
    assert str(m) == "1010"
    assert m.contains(np.array([3.0, 0.0, -1.0, 0.0]))
    assert not m.contains(np.array([3.0, 0.1, -1.0, 0.0]))
    assert SubsetMask.full(3).bits == (1, 1, 1)
    # ties prefer smaller cardinality, then lexicographically smaller bits
    assert SubsetMask(bits=(0, 1)).sort_key() < SubsetMask(bits=(1, 0)).sort_key()
    assert SubsetMask(bits=(1, 0)).sort_key() < SubsetMask(bits=(1, 1)).sort_key()
    with pytest.raises(ValidationError):
        SubsetMask(bits=())
    with pytest.raises(ValidationError):
        SubsetMask(bits=(0, 2))


def test_masked_ls_matches_lstsq_on_subcolumns():
    pr = fixture("COLL2").problem
    Y = simulate_response(pr, (3, 0))
    mask = SubsetMask(bits=(0, 1))
    got = masked_ls(pr, Y, mask)
    want, *_ = np.linalg.lstsq(pr.X[:, [1]], Y, rcond=None)
    assert got[0] == 0.0 and abs(got[1] - want[0]) < 1e-12
    assert np.all(masked_ls(pr, Y, SubsetMask(bits=(0, 0))) == 0.0)


def test_ic_values_formula():
    pr = fixture("COLL2").problem
    Y = simulate_response(pr, (4, 0))
    family = (SubsetMask(bits=(1, 1)), SubsetMask(bits=(1, 0)), SubsetMask(bits=(0, 0)))
    rule = InformationCriterion(upsilon_n=2.0, family=family)
    vals = ic_values(pr, Y, rule)
    for mask in family:
        idx = list(mask.indices)
        resid = Y - (pr.X[:, idx] @ np.linalg.lstsq(pr.X[:, idx], Y, rcond=None)[0]
                     if idx else 0.0)
        want = np.log(resid @ resid) + mask.cardinality * 2.0 / pr.n
        assert abs(vals[mask] - want) < 1e-10


def test_ic_selection_matches_threshold_on_drop_one_family():
    # on the {full, drop-last} family the IC decision is exactly a
    # two-sided t-test of the last coefficient at the ic_threshold cutoff
    pr = fixture("COLL2").problem
    family = (SubsetMask(bits=(1, 1)), SubsetMask(bits=(1, 0)))
    rule = InformationCriterion(upsilon_n=2.0, family=family)
    cut = ic_threshold(pr.n, pr.P, 2.0)
    for i in range(200):
        Y = simulate_response(pr, (11, i))
        keep_full = select_ic(pr, Y, rule).cardinality == 2
        t_drop = t_statistics(pr, Y)[2]
        assert keep_full == (abs(t_drop) > cut)


def test_ic_threshold_frozen_value_and_limit():
    assert abs(ic_threshold(20, 2, 2.0) - 1.3758915) < 1e-6
    # increases to sqrt(upsilon) from below as n grows
    seq = [ic_threshold(n, 2, 2.0) for n in (20, 200, 2000, 2_000_000)]
    assert all(a < b for a, b in zip(seq, seq[1:]))
    assert seq[-1] < np.sqrt(2.0)
    assert abs(seq[-1] - np.sqrt(2.0)) < 1e-5


def test_information_criterion_validation():
    full = SubsetMask(bits=(1, 1))
    drop = SubsetMask(bits=(1, 0))
    with pytest.raises(ValidationError):
        InformationCriterion(upsilon_n=-0.1, family=(full, drop))
    with pytest.raises(ValidationError):
        InformationCriterion(upsilon_n=1.0, family=(drop,))          # no full mask
    with pytest.raises(ValidationError):
        InformationCriterion(upsilon_n=1.0, family=(full,))          # no P-1 mask
    with pytest.raises(ValidationError):
        InformationCriterion(upsilon_n=1.0, family=(full, SubsetMask(bits=(1, 0, 0))))


def test_thresholding_rule_and_selection():
    pr = fixture("ORTHO2").problem
    Y = _exact_sample(pr, [10.0, 0.0])
    rule = Thresholding(cutoff=(2.0, 2.0))
    assert select_threshold(pr, Y, rule).bits == (1, 0)
    # infinite cutoff never keeps, zero cutoff always keeps
    assert select_threshold(pr, Y, Thresholding(cutoff=(np.inf, 0.0))).bits == (0, 1)
    t = full_model_t_ratios(pr, Y)
    assert abs(t[0] - np.sqrt(pr.n) * 10.0) < 1e-8 and abs(t[1]) < 1e-8
    with pytest.raises(ValidationError):
        Thresholding(cutoff=(-1.0,))
    with pytest.raises(ValidationError):
        select_threshold(pr, Y, Thresholding(cutoff=(2.0,)))


def test_post_select_fit_shapes():
    pr = fixture("COLL2").problem
    Y = simulate_response(pr, (5, 0))
    fit = post_select_fit(pr, Y, GeneralToSpecific(critical=(2.0, 2.0)))
    assert isinstance(fit.selected, int) and 0 <= fit.selected <= 2
    assert fit.estimate.shape == (2,) and np.all(fit.estimate[fit.selected:] == 0.0)
    assert fit.sigma_hat == sigma_hat(pr, Y)
    assert fit.ic_values is None
    family = (SubsetMask(bits=(1, 1)), SubsetMask(bits=(0, 1)))
    fit_ic = post_select_fit(pr, Y, InformationCriterion(upsilon_n=2.0, family=family))
    assert isinstance(fit_ic.selected, SubsetMask)
    assert set(fit_ic.ic_values) == set(family)
    with pytest.raises(DegenerateSampleError):
        post_select_fit(pr, pr.X @ pr.theta, GeneralToSpecific(critical=(2.0, 2.0)))


def test_exact_fit_is_degenerate_for_ic_values_and_t_ratios():
    # Y = X theta leaves no residual: the full model's RSS and sigma_hat
    # are zero, so the IC of that mask and every t-ratio are undefined
    pr = fixture("COLL2").problem
    Y = pr.X @ pr.theta
    family = (SubsetMask(bits=(1, 1)), SubsetMask(bits=(1, 0)))
    with pytest.raises(DegenerateSampleError, match="RSS is zero"):
        ic_values(pr, Y, InformationCriterion(upsilon_n=2.0, family=family))
    with pytest.raises(DegenerateSampleError, match="sigma_hat is zero"):
        full_model_t_ratios(pr, Y)


def test_auxiliary_consistent_scans_all_orders():
    pr = fixture("ORTHO2").problem  # O = 1 is ignored by the auxiliary scan
    assert auxiliary_consistent(pr, _exact_sample(pr, [0.0, 0.0])) == 0
    assert auxiliary_consistent(pr, _exact_sample(pr, [10.0, 0.0])) == 1
    assert auxiliary_consistent(pr, _exact_sample(pr, [10.0, 7.0])) == 2
    assert auxiliary_consistent(pr, _exact_sample(pr, [0.0, 7.0]), scheme="bic") == 2
    with pytest.raises(ValidationError):
        auxiliary_consistent(pr, _exact_sample(pr, [0.0, 0.0]), scheme="aicc")


def test_rule_json_round_trips():
    rules = [
        GeneralToSpecific(critical=(2.0, 1.5)),
        InformationCriterion(upsilon_n=np.log(20.0),
                             family=(SubsetMask(bits=(1, 1)), SubsetMask(bits=(1, 0)))),
        Thresholding(cutoff=(1.0, np.inf)),
    ]
    for rule in rules:
        obj = rule_to_json(rule)
        assert rule_from_json(obj) == rule
    with pytest.raises(ValidationError):
        rule_from_json({"type": "lasso"})
    with pytest.raises(ValidationError):
        rule_from_json([])


_WIDE_IC = InformationCriterion(upsilon_n=2.0,
                                family=(SubsetMask(bits=(1, 1, 1)), SubsetMask(bits=(1, 1, 0))))


@pytest.mark.parametrize("rule", [_WIDE_IC, Thresholding(cutoff=(2.0, 2.0, 2.0))])
def test_rules_of_another_width_are_rejected(rule):
    # a P = 3 family on a P = 2 problem ended post_select_fit in an
    # IndexError; every entry point now asks the rule's validate_for
    pr = fixture("COLL2").problem
    Y = simulate_response(pr, (0, 0))
    select = ic_values if isinstance(rule, InformationCriterion) else select_threshold
    for call in (post_select_fit, select):
        with pytest.raises(ValidationError, match="need P = 2"):
            call(pr, Y, rule)


_ORTHO2 = fixture("ORTHO2").problem
_Y = _exact_sample(_ORTHO2, [1.0, 1.0])


@pytest.mark.parametrize("call, fragment", [
    (lambda: InformationCriterion(upsilon_n=1.0, family=()), "non-empty"),
    (lambda: select_ic(_ORTHO2, _Y, _WIDE_IC), "need P = 2"),
    (lambda: post_select_fit(_ORTHO2, _Y, "stepwise"), "unsupported rule type"),
    (lambda: rule_to_json("stepwise"), "unsupported rule type"),
])
def test_input_checks(call, fragment):
    with pytest.raises(ValidationError, match=fragment):
        call()


@pytest.mark.parametrize("name", ["COLL2", "ORTHO2"])
@pytest.mark.parametrize("n", [20, 200, 2000])
def test_kept_factors_give_the_fresh_factor_values_bit_for_bit(name, n):
    # prefix masks read the problem's kept nested QR and the t-ratios its
    # kept gram-inverse diagonal; the other masks still factor per call.
    # Every value equals the one from a QR and an inverse made afresh
    fam = tuple(SubsetMask(bits=b) for b in ((1, 1), (1, 0), (0, 1), (0, 0)))
    rule = InformationCriterion(upsilon_n=2.0, family=fam)
    problem = fixture(name, n=n).problem
    for r in range(5):
        Y = simulate_response(problem, (17, r))
        got = ic_values(problem, Y, rule)
        for mask in fam:
            idx = list(mask.indices)
            if idx:
                q = np.linalg.qr(problem.X[:, idx], mode="reduced")[0]
                res = Y - q @ (q.T @ Y)
                rss = float(res @ res)
            else:
                rss = float(Y @ Y)
            want = float(np.log(rss) + mask.cardinality * 2.0 / n)
            assert got[mask].hex() == want.hex(), mask
        scale = np.sqrt(np.diag(np.linalg.inv(problem.X.T @ problem.X / n)))
        q, rr = np.linalg.qr(problem.X, mode="reduced")
        coef = np.linalg.solve(rr, q.T @ Y)
        want_t = np.sqrt(n) * coef / (sigma_hat(problem, Y) * scale)
        assert full_model_t_ratios(problem, Y).tobytes() == want_t.tobytes()
