"""Tests for the simulation oracle: seeding, chunked kernels, tallies."""
import csv
import tracemalloc
from types import SimpleNamespace

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
from pmsdist.regression_core import RegressionProblem
from pmsdist.selection import (
    GeneralToSpecific,
    InformationCriterion,
    SubsetMask,
    Thresholding,
    auxiliary_critical_value,
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
        assert results[0].valid == other.valid
        assert results[0].degenerate_count == other.degenerate_count


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
    return np.concatenate([p[0].T for p in parts]), np.concatenate([p[1] for p in parts])


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


# The (B, P) kernel that the replications-last kernel replaced, kept as the
# oracle it must equal bit for bit: S, t and the fits hold one replication
# per row, models come from np.unique, orders from a reversed argmax and IC
# choices from argmin.  It reads the maps the kernel builds.
def _reference_run(kernel, lo, hi, want_raw):
    pr = kernel.plan.problem
    P = pr.P
    noise = montecarlo._draw_errors(pr, kernel.plan.master_seed, lo, hi)
    rss = pr.sigma ** 2 * noise[:, P]
    S, sig = kernel.mu + pr.sigma * noise[:, :P], np.sqrt(rss / pr.dof)
    ok = sig > 0.0
    t_full = None
    with np.errstate(divide="ignore", invalid="ignore"):
        if want_raw or kernel.mode == "threshold":
            t_full = kernel.sqrt_n * (S @ kernel.full_map.T) / (sig[:, None] * kernel.ginv_sqrt)
    if kernel.mode == "g2s":
        O = pr.O
        sat = np.ones((S.shape[0], P - O + 1), dtype=bool)
        if P > O:
            sat[:, 1:] = np.abs(_reference_sequential_t(kernel, S, sig)[:, O:]) >= kernel.crit
        ids = np.where(ok, P - sat[:, ::-1].argmax(axis=1), O)
    elif kernel.mode == "ic":
        vals = np.empty((S.shape[0], len(kernel.masks)))
        for i, V in enumerate(kernel.bases):
            resid = S - (S @ V) @ V.T
            rss_m = rss + np.einsum("ij,ij->i", resid, resid)
            with np.errstate(divide="ignore"):
                vals[:, i] = np.log(rss_m) + kernel.penalty[i]
            ok = ok & (rss_m > 0.0)
        ids = vals.argmin(axis=1)
    else:
        keep = (np.abs(t_full) >= kernel.cutoff) & ok[:, None]
        ids = keep @ (1 << np.arange(P - 1, -1, -1))
    est = np.empty_like(S)
    for model_id in np.unique(ids):
        np.copyto(est, S @ kernel._fit(int(model_id)).T, where=(ids == model_id)[:, None])
    loss = kernel.sqrt_n * (est @ kernel.plan.A.T - kernel.A_theta)
    return {"ids": ids, "loss": loss, "ok": ok, "sigma": sig, "est": est, "t": t_full}


def _reference_sequential_t(kernel, S, sig):
    with np.errstate(divide="ignore", invalid="ignore"):
        return kernel.sqrt_n * (S @ kernel.trailing.T) / (sig[:, None] * kernel.xi)


def _reference_aux_order(kernel, S, sig, c_aux):
    sat = np.abs(_reference_sequential_t(kernel, S, sig)) >= c_aux
    return np.where(sat.any(axis=1), kernel.P - sat[:, ::-1].argmax(axis=1), 0)


def _reference_cdf_chunk(kernel, lo, hi, grid):
    out = _reference_run(kernel, lo, hi, False)
    ok, ids, loss = out["ok"], out["ids"], out["loss"]
    below = np.repeat(ok[:, None], grid.shape[0], axis=1)
    for j in range(grid.shape[1]):
        below &= loss[:, j, None] <= grid[:, j]
    models = np.unique(ids[ok])
    member = (ids == models[:, None]) & ok
    joint = (member.astype(float) @ below).astype(np.int64)
    keys = [kernel.key(int(m)) for m in models]
    return {"counts": joint.sum(axis=0), "joint": dict(zip(keys, joint)),
            "model": dict(zip(keys, member.sum(axis=1).tolist())),
            "degenerate": int((~ok).sum())}


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


_GRID2 = np.array([[0.0, 0.0], [-0.5, 1.0], [1.0, -0.5], [0.3, 0.3], [-1.0, -1.0]])
_ALL_SUBSETS = tuple(SubsetMask(bits=b) for b in ((0, 0), (1, 0), (0, 1), (1, 1)))
# forty coordinates: thresholding ids are 40-bit codes, far wider than any
# array indexed by id; the four with theta = 0 vary the model kept
_P40 = SimpleNamespace(
    problem=RegressionProblem(X=np.random.default_rng(0).standard_normal((200, 40)),
                              theta=np.r_[0.0, 0.0, np.ones(36), 0.0, 0.0], sigma=1.0, O=0),
    A=np.eye(40)[[0, 39]])
_LAYOUT_CASES = {
    "g2s_large_n": (fixture("BLOCK_ORTHO", n=1000), None, np.array([[-0.5], [0.0], [0.7]])),
    "g2s_small_n": (fixture("ORTHO2", n=20), None, _GRID2),
    "ic": (fixture("COLL2", n=200, theta=[0.1, 0.1]),
           InformationCriterion(upsilon_n=2.0, family=_ALL_SUBSETS), _GRID2),
    "threshold": (fixture("COLL2", n=200, theta=[0.1, 0.1]), Thresholding(cutoff=(2.0, 2.0)),
                  _GRID2),
}


@pytest.mark.parametrize("case", sorted(_LAYOUT_CASES))
@pytest.mark.parametrize("seed", [3, 40])
def test_kernel_equals_the_rows_first_reference_bit_for_bit(case, seed):
    # a full chunk and a partial one; ids, fits, losses, t-ratios and every
    # tally equal those of the (B, P) reference
    fx, rule, grid = _LAYOUT_CASES[case]
    kernel = montecarlo._Kernel(_plan(fx, CHUNK + 1234, seed=seed, rule=rule))
    for lo, hi in montecarlo._chunk_bounds(kernel.plan.replications):
        new, ref = kernel.run(lo, hi, True), _reference_run(kernel, lo, hi, True)
        for field in ("ids", "ok", "sigma"):
            assert _same_bits(new[field], ref[field]), field
        for field in ("est", "loss", "t"):
            assert _same_bits(new[field].T, ref[field]), field
        _assert_same_tallies(kernel, lo, hi, grid)
        if kernel.mode == "g2s":
            S, _, sig = kernel.statistics(lo, hi)
            c_aux = auxiliary_critical_value(fx.problem.n, fx.problem.P)
            assert _same_bits(kernel.order_scan(S, sig, 0, [c_aux] * fx.problem.P),
                              _reference_aux_order(kernel, S.T, sig, c_aux))


def _assert_same_tallies(kernel, lo, hi, grid):
    new, ref = (chunk(kernel, lo, hi, grid)
                for chunk in (montecarlo._cdf_chunk, _reference_cdf_chunk))
    assert _same_bits(new["counts"], ref["counts"])
    assert list(new["joint"]) == list(ref["joint"])
    assert all(_same_bits(new["joint"][m], ref["joint"][m]) for m in ref["joint"])
    assert new["model"] == ref["model"] and new["degenerate"] == ref["degenerate"]


@pytest.mark.parametrize("seed", [3, 40])
def test_forty_bit_threshold_codes_equal_the_reference(seed):
    # the models present are found without an array indexed by id, which
    # would span 2**40 entries here.  Selections and tallies equal the
    # reference bit for bit; at this P, BLAS may round fit @ S and the
    # reference's S @ fit.T apart in the last bits of a partial chunk
    plan = _plan(_P40, CHUNK + 1234, seed=seed, rule=Thresholding(cutoff=(2.0,) * 40))
    kernel = montecarlo._Kernel(plan)
    for lo, hi in montecarlo._chunk_bounds(plan.replications):
        new, ref = kernel.run(lo, hi, True), _reference_run(kernel, lo, hi, True)
        assert new["ids"].min() > 2 ** 32 and len(np.unique(new["ids"])) > 5
        for field in ("ids", "ok", "sigma"):
            assert _same_bits(new[field], ref[field]), field
        for field in ("est", "loss", "t"):
            assert np.allclose(new[field].T, ref[field], rtol=0.0, atol=1e-13), field
        _assert_same_tallies(kernel, lo, hi, _GRID2)
    emp = empirical_cdf(plan, _GRID2)
    assert sum(emp.model_counts.values()) == emp.valid == plan.replications


def test_kernel_tallies_of_one_seed_are_frozen():
    fx, rule, grid = _LAYOUT_CASES["ic"]
    chunk = montecarlo._cdf_chunk(montecarlo._Kernel(_plan(fx, CHUNK, seed=3, rule=rule)),
                                  0, CHUNK, grid)
    assert chunk["counts"].tolist() == [996, 2330, 2341, 1583, 945]
    assert {str(m): c for m, c in chunk["model"].items()} == {
        "00": 944, "01": 3135, "10": 3181, "11": 932}
    assert chunk["degenerate"] == 0


def _patch_draws(monkeypatch, rows, column):
    """Zero noise column(s) ``column`` of the given replications in every draw."""
    draw = montecarlo._draw_errors

    def patched(problem, master, lo, hi):
        out = draw(problem, master, lo, hi)
        out[[r - lo for r in rows if lo <= r < hi], column] = 0.0
        return out
    monkeypatch.setattr(montecarlo, "_draw_errors", patched)


@pytest.mark.parametrize("case", sorted(_LAYOUT_CASES))
def test_rows_without_residual_scale_are_degenerate_and_leave_the_rest(case, monkeypatch):
    # chi2 = 0 gives sigma_hat = 0 in four rows over two chunks: they are
    # counted as degenerate, g2s gives them the protected order, and every
    # other row is tallied as in the unpatched run
    fx, rule, grid = _LAYOUT_CASES[case]
    plan = _plan(fx, CHUNK + 300, seed=9, rule=rule)
    rows = [0, 5, 4000, CHUNK + 17]
    kernel = montecarlo._Kernel(plan)
    outs = [kernel.run(lo, hi, False) for lo, hi in montecarlo._chunk_bounds(plan.replications)]
    ids, ok = (np.concatenate([o[f] for o in outs]) for f in ("ids", "ok"))
    loss = np.concatenate([o["loss"] for o in outs], axis=1)
    assert ok[rows].all()
    ok[rows] = False
    below = np.all(loss[:, ok, None] <= grid.T[:, None, :], axis=0).sum(axis=0)
    models, counts = np.unique(ids[ok], return_counts=True)
    _patch_draws(monkeypatch, rows, fx.problem.P)
    emp = empirical_cdf(plan, grid)
    assert emp.degenerate_count == plan.replications - ok.sum() and emp.valid == ok.sum()
    assert emp.model_counts == {kernel.key(m): c for m, c in zip(models.tolist(),
                                                                 counts.tolist())}
    assert np.array_equal(emp.estimates, below / ok.sum())
    reps = replicate(plan)
    assert not reps.valid[rows].any() and not reps.sigma_hat[rows].any()
    if kernel.mode == "g2s":
        assert [reps.selected[r] for r in rows] == [fx.problem.O] * len(rows)


def test_an_exact_ic_tie_goes_to_the_earlier_mask(monkeypatch):
    # at theta = 0 a replication with z = 0 has S = 0, so every mask leaves
    # the full-model residual sum and the two singletons' criteria tie
    # exactly; the earlier in the kernel's mask order, (0, 1), wins, as in
    # select_ic
    fx = fixture("COLL2", theta=[0.0, 0.0])
    rule = InformationCriterion(upsilon_n=2.0, family=_ALL_SUBSETS[1:])
    rows = [2, 7, 300]
    _patch_draws(monkeypatch, rows, slice(0, fx.problem.P))
    reps = replicate(_plan(fx, 400, seed=5, rule=rule))
    assert reps.valid[rows].all()
    assert [reps.selected[r] for r in rows] == [SubsetMask(bits=(0, 1))] * len(rows)


def test_a_t_ratio_exactly_at_its_cutoff_keeps_the_coordinate():
    fx = fixture("COLL2")
    r, at = 11, np.abs(replicate(_plan(fx, 50, seed=6)).t_ratios[11])
    for i, bits in ((None, (1, 1)), (0, (0, 1)), (1, (1, 0))):
        cutoff = at.copy()
        if i is not None:   # one ulp above |t| drops the coordinate
            cutoff[i] = np.nextafter(cutoff[i], np.inf)
        reps = replicate(_plan(fx, 50, seed=6, rule=Thresholding(cutoff=tuple(cutoff))))
        assert reps.selected[r] == SubsetMask(bits=bits)


@pytest.mark.parametrize("case", sorted(_LAYOUT_CASES))
def test_a_chunk_peaks_under_twelve_rows_of_replications(case):
    # the kernel works in place and frees what later steps do not read, so a
    # chunk's peak heap stays under the trim threshold glibc reaches and
    # repeated calls reuse pages instead of faulting them in again; at P = 2
    # the peak is under twelve float64 rows of length B (0.75 MiB a chunk)
    fx, rule, grid = _LAYOUT_CASES[case]
    kernel = montecarlo._Kernel(_plan(fx, CHUNK, seed=3, rule=rule))
    montecarlo._cdf_chunk(kernel, 0, CHUNK, grid)   # thresholding keeps the fits it builds
    tracemalloc.start()
    try:
        montecarlo._cdf_chunk(kernel, 0, CHUNK, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fx.problem.P == 2 and peak < 12 * 8 * CHUNK, peak
