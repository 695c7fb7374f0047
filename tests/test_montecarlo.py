"""Tests for the simulation oracle: seeding, chunked kernels, tallies."""
import csv
import tracemalloc

import numpy as np
import pytest

from pmsdist import montecarlo
from pmsdist.errors import ValidationError
from pmsdist.fixtures import fixture
from pmsdist.montecarlo import (
    CHUNK,
    SimulationPlan,
    dump_replications,
    empirical_cdf,
    estimator_error_probability,
    replicate,
    simulate_response,
)
from pmsdist.selection import (
    GeneralToSpecific,
    InformationCriterion,
    SubsetMask,
    Thresholding,
    post_select_fit,
)


def _plan(fx, reps, seed, rule=None):
    return SimulationPlan(problem=fx.problem, rule=fx.rule if rule is None else rule,
                          A=fx.A, replications=reps, master_seed=seed)


def test_worker_count_never_changes_results():
    fx = fixture("COLL2")
    plan = _plan(fx, CHUNK * 2 + 100, seed=7)  # three chunks, one partial
    grid = np.array([[0.5, 0.5], [-0.3, 1.0]])
    results = [empirical_cdf(plan, grid, workers=w) for w in (1, 2, 5)]
    for other in results[1:]:
        assert np.array_equal(results[0].estimates, other.estimates)
        assert np.array_equal(results[0].standard_errors, other.standard_errors)
        assert results[0].model_counts == other.model_counts


def test_replications_are_keyed_individually(tmp_path):
    # row r of the dump must equal the scalar pipeline applied to the
    # response generated from (master_seed, r) — independent of chunking
    fx = fixture("COLL2")
    plan = _plan(fx, 12, seed=31)
    path = tmp_path / "dump_keyed.csv"
    dump_replications(plan, path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12
    for r in (0, 7, 11):
        Y = simulate_response(fx.problem, (31, r))
        fit = post_select_fit(fx.problem, Y, fx.rule)
        row = rows[r]
        assert int(row["rep"]) == r
        assert row["selected_model"] == str(fit.selected)
        got = np.array([float(row[f"estimate_{i}"]) for i in (1, 2)])
        assert np.allclose(got, fit.estimate, atol=1e-12)
        assert abs(float(row["sigma_hat"]) - fit.sigma_hat) < 1e-12


def test_empirical_cdf_fields_are_consistent():
    fx = fixture("ORTHO2")
    plan = _plan(fx, 5000, seed=3)
    grid = np.array([[0.0, 0.0], [1.0, -0.5]])
    emp = empirical_cdf(plan, grid)
    assert emp.replications == 5000
    assert emp.valid + emp.degenerate_count == 5000
    assert sum(emp.model_counts.values()) == emp.valid
    want_se = np.sqrt(emp.estimates * (1 - emp.estimates) / emp.valid)
    assert np.allclose(emp.standard_errors, want_se, atol=1e-15)
    # the mixture of conditional cdfs weighted by model frequencies is exact
    mix = sum(np.asarray(emp.conditional[m]) * cnt
              for m, cnt in emp.model_counts.items()) / emp.valid
    assert np.allclose(mix, emp.estimates, atol=1e-12)
    # scalar grid convenience: a single t works as a 1-row grid
    one = empirical_cdf(plan, np.array([0.0, 0.0]))
    assert one.estimates.shape == (1,) and one.estimates[0] == emp.estimates[0]


def test_reported_se_matches_dispersion_across_masters():
    fx = fixture("ORTHO2")
    grid = np.array([[0.4, 0.4]])
    vals, ses = [], []
    for seed in range(20):
        emp = empirical_cdf(_plan(fx, 4000, seed=seed), grid)
        vals.append(emp.estimates[0])
        ses.append(emp.standard_errors[0])
    ratio = np.std(vals, ddof=1) / np.mean(ses)
    assert 0.6 < ratio < 1.6


COLL2_RULES = [
    GeneralToSpecific(critical=(2.0, 2.0)),
    InformationCriterion(upsilon_n=np.log(20.0), family=(
        SubsetMask(bits=(1, 1)), SubsetMask(bits=(1, 0)),
        SubsetMask(bits=(0, 1)), SubsetMask(bits=(0, 0)))),
    Thresholding(cutoff=(1.5, 2.5)),
]


@pytest.mark.parametrize("rule", COLL2_RULES)
def test_vectorized_kernels_reproduce_scalar_pipeline(rule, tmp_path):
    fx = fixture("COLL2")
    plan = SimulationPlan(problem=fx.problem, rule=rule, A=fx.A,
                          replications=200, master_seed=99)
    path = tmp_path / "dump_kernel.csv"
    dump_replications(plan, path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    for r, row in enumerate(rows):
        Y = simulate_response(fx.problem, (99, r))
        fit = post_select_fit(fx.problem, Y, rule)
        assert row["selected_model"] == str(fit.selected), f"rep {r}"
        got = np.array([float(row[f"estimate_{i}"]) for i in (1, 2)])
        assert np.allclose(got, fit.estimate, atol=1e-10), f"rep {r}"


@pytest.mark.parametrize("rule", [None, *COLL2_RULES[1:]], ids=["g2s", "ic", "threshold"])
def test_replicate_selects_the_kernel_model_of_each_id(rule):
    # replicate makes one key per distinct model id; every replication,
    # over more than one chunk, still reads the model of its own id
    fx = fixture("COLL2")
    plan = _plan(fx, CHUNK + 300, seed=17, rule=rule)
    reps = replicate(plan)
    kernel = montecarlo._Kernel(plan)
    ids = np.concatenate([kernel.run(lo, hi, True)["ids"]
                          for lo, hi in montecarlo._chunk_bounds(plan.replications)])
    assert len(reps.selected) == ids.size == plan.replications
    assert len(reps.models) == np.unique(ids).size
    assert all(m == kernel.key(int(i)) for m, i in zip(reps.selected, ids))


def test_estimator_error_probability_extremes():
    fx = fixture("P1")
    plan = _plan(fx, 2000, seed=5)
    # a huge tolerance band is never exceeded; a vanishing band always is
    assert estimator_error_probability(plan, [0.0], 0.5, delta=2.0) == 0.0
    assert estimator_error_probability(plan, [0.0], 123.0, delta=1e-12) == 1.0
    with pytest.raises(ValidationError):
        estimator_error_probability(plan, [0.0], 0.5, delta=0.0)
    with pytest.raises(ValidationError):
        estimator_error_probability(plan, [0.0, 0.0], 0.5, delta=0.1)


def test_nan_arguments_are_rejected():
    # a NaN delta, reference or grid coordinate has no frequency or cdf to
    # report: each raises instead of reading as 0; so does a reference that
    # is no float at all (a result object, a callable, text)
    plan = _plan(fixture("P1"), 200, seed=5)
    for t, ref, delta in (([0.0], 0.5, np.nan), ([0.0], np.nan, 0.1), ([0.0], np.inf, 0.1),
                          ([np.nan], 0.5, 0.1), ([0.0], empirical_cdf(plan, [[0.0]]), 0.1),
                          ([0.0], lambda: 0.5, 0.1), ([0.0], "half", 0.1)):
        with pytest.raises(ValidationError):
            estimator_error_probability(plan, t, ref, delta=delta)
    with pytest.raises(ValidationError):
        empirical_cdf(plan, [[np.nan], [0.0]])
    with pytest.raises(ValidationError):
        empirical_cdf(plan, [])
    assert empirical_cdf(plan, [[-np.inf], [np.inf]]).estimates.tolist() == [0.0, 1.0]


def test_plan_validation():
    fx = fixture("COLL2")
    with pytest.raises(ValidationError):
        SimulationPlan(problem=fx.problem, rule=fx.rule, A=fx.A,
                       replications=0, master_seed=1)
    with pytest.raises(ValidationError):
        SimulationPlan(problem=fx.problem, rule=fx.rule, A=np.eye(3),
                       replications=10, master_seed=1)
    with pytest.raises(ValidationError):
        SimulationPlan(problem=fx.problem, rule=GeneralToSpecific(critical=(2.0,)),
                       A=fx.A, replications=10, master_seed=1)
    with pytest.raises(ValidationError):
        SimulationPlan(problem=fx.problem, rule="stepwise", A=fx.A,
                       replications=10, master_seed=1)
    plan = _plan(fx, 10, seed=1)
    with pytest.raises(ValidationError):
        empirical_cdf(plan, np.zeros((2, 3)))  # grid width != k


def test_simulate_response_moments_and_keying():
    fx = fixture("P1")
    pr = fx.problem
    ys = np.array([simulate_response(pr, (42, r))[0] for r in range(4)])
    assert len(np.unique(ys)) == 4              # distinct reps differ
    again = simulate_response(pr, (42, 2))
    assert np.array_equal(again, simulate_response(pr, (42, 2)))
    for bad in (42, (42,), (42, 2, 0)):   # the key is a (master, replication) pair
        with pytest.raises(ValidationError, match="pair"):
            simulate_response(pr, bad)
    draws = np.array([simulate_response(pr, (1, r)).mean() for r in range(500)])
    se = pr.sigma / np.sqrt(pr.n * 500)
    assert abs(draws.mean() - pr.theta[0]) < 4 * se


@pytest.mark.parametrize("rule", COLL2_RULES)
def test_full_n_oracle_agrees_with_empirical_cdf(rule):
    # an oracle independent of the sufficient-statistic draws: n-vector
    # errors from this test's own generator, fitted by the scalar pipeline
    fx = fixture("COLL2")
    pr = fx.problem
    reps = 2000
    grid = np.array([[0.0, 0.0], [-0.5, 1.0], [1.0, -0.5]])
    eps = np.random.default_rng(2011).standard_normal((reps, pr.n))
    fits = [post_select_fit(pr, pr.X @ pr.theta + pr.sigma * e, rule) for e in eps]
    errs = np.array([np.sqrt(pr.n) * (fx.A @ (fit.estimate - pr.theta)) for fit in fits])
    full_n = np.mean(np.all(errs[:, None, :] <= grid[None, :, :], axis=2), axis=0)
    plan = SimulationPlan(problem=pr, rule=rule, A=fx.A, replications=20_000, master_seed=8)
    emp = empirical_cdf(plan, grid)
    se = np.sqrt(full_n * (1.0 - full_n) / reps + emp.standard_errors ** 2)
    assert np.all(np.abs(full_n - emp.estimates) <= 4.0 * se)
    # the residual scale: sigma_hat^2 has the same mean in both
    var_full = np.array([fit.sigma_hat for fit in fits]) ** 2
    var_plan = replicate(plan).sigma_hat ** 2
    se = np.sqrt(var_full.var() / reps + var_plan.var() / plan.replications)
    assert abs(var_full.mean() - var_plan.mean()) <= 4.0 * se


def _plan_statistics(plan):
    """(S, RSS) of every replication, drawn chunk by chunk as the plan does."""
    kernel = montecarlo._Kernel(plan)
    parts = [kernel.statistics(lo, hi)[:2]
             for lo, hi in montecarlo._chunk_bounds(plan.replications)]
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def test_statistics_are_keyed_by_replication_not_by_plan_size():
    # a replication's (S, RSS) is the same bits in a 12-replication plan, in
    # a plan whose second chunk is partial, and in a plan of two full
    # chunks; the response simulate_response builds from it gives them back
    # up to the rounding of the lift
    fx = fixture("COLL2")
    pr = fx.problem
    small, mid, big = (_plan_statistics(_plan(fx, reps, seed=23))
                       for reps in (12, CHUNK + 100, 2 * CHUNK))
    q = pr._qr[pr.P - 1][0]
    for r, (a, b) in ((7, (small, mid)), (CHUNK + 50, (mid, big))):
        assert np.array_equal(a[0][r], b[0][r]) and a[1][r] == b[1][r]
        Y = simulate_response(pr, (23, r))
        assert np.allclose(q.T @ Y, b[0][r], rtol=0.0, atol=1e-12)
        assert abs((Y @ Y - np.sum((q.T @ Y) ** 2)) - b[1][r]) < 1e-12


def test_chunk_memory_is_bounded_whatever_n():
    # one chunk at n = 200 000 holds O(CHUNK * P) floats; an n-vector per
    # replication would need 8192 * 200 000 * 8 B, about 13 GB
    fx = fixture("BLOCK_ORTHO", n=200_000)
    plan = _plan(fx, CHUNK, seed=4)
    tracemalloc.start()
    try:
        emp = empirical_cdf(plan, [[0.0], [0.5]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert emp.valid + emp.degenerate_count == CHUNK
    assert peak < 32e6


_COLL2 = fixture("COLL2")


@pytest.mark.parametrize("make, fragment", [
    (lambda: _plan(_COLL2, 10, seed=-1), "master_seed"),
    (lambda: _plan(_COLL2, 10, seed=1, rule=InformationCriterion(
        upsilon_n=2.0, family=(SubsetMask(bits=(1, 1, 1)), SubsetMask(bits=(1, 1, 0))))),
     "need P = 2"),
    (lambda: _plan(_COLL2, 10, seed=1, rule=Thresholding(cutoff=(1.0,))), "need P = 2"),
    (lambda: estimator_error_probability(
        _plan(_COLL2, 10, seed=1, rule=Thresholding(cutoff=(1.0, 1.0))), [0.0, 0.0], 0.5,
        delta=0.1), "general-to-specific"),
])
def test_input_checks(make, fragment):
    with pytest.raises(ValidationError, match=fragment):
        make()
