"""Tests for the experiment sweeps: verdicts, refusals, reproducibility, I/O."""
import csv
import json

import numpy as np
import pytest

from pmsdist import experiments
from pmsdist.dist_exact import AccuracyBudget, CdfQuery, cdf_exact
from pmsdist.dist_limit import LocalAlternative, cdf_limit
from pmsdist.errors import ExperimentRefusal, ValidationError
from pmsdist.experiments import (
    SweepReport,
    aic_equivalence_audit,
    convergence_sweep,
    impossibility_demo,
    pilot_delta0,
    tube_sweep,
    uniform_case_sweep,
)
from pmsdist.fixtures import fixture
from pmsdist.selection import InformationCriterion, SubsetMask, Thresholding

QUICK = AccuracyBudget(tol=1e-5, n_z=20_000, seed=0)


def test_convergence_sweep_passes_on_scalar_fixture():
    rep = convergence_sweep(fixture("P1"), gamma=[0.7], t=[0.3],
                            n_ladder=(100, 400, 1600), budget=QUICK)
    assert rep.passed
    assert rep.verdicts["trend_non_increasing"] and rep.verdicts["endpoint_within_tol"]
    assert rep.columns[0] == "n" and len(rep.rows) == 3
    gaps = [row[rep.columns.index("gap")] for row in rep.rows]
    assert gaps[-1] <= 0.01


def test_sweep_reports_replay_identically():
    a = convergence_sweep(fixture("P1"), gamma=[0.7], t=[0.3],
                          n_ladder=(100, 400), budget=QUICK)
    b = convergence_sweep(fixture("P1"), gamma=[0.7], t=[0.3],
                          n_ladder=(100, 400), budget=QUICK)
    assert a.rows == b.rows and a.verdicts == b.verdicts


def test_report_files_round_trip(tmp_path):
    rep = convergence_sweep(fixture("P1"), gamma=[0.7], t=[0.3],
                            n_ladder=(100, 400), budget=QUICK)
    csv_path = tmp_path / "sweep.csv"
    man_path = tmp_path / "sweep.json"
    rep.write_csv(str(csv_path))
    rep.write_manifest(str(man_path))
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == rep.columns
    assert len(rows) == 1 + len(rep.rows)
    # repr round-trip keeps float cells exact
    gap_col = rep.columns.index("gap")
    assert float(rows[1][gap_col]) == rep.rows[0][gap_col]
    manifest = json.loads(man_path.read_text())
    assert manifest["experiment"] == rep.experiment
    assert manifest["passed"] == rep.passed
    assert manifest["config"] == rep.config
    assert "generated_at" in manifest


def test_tube_sweep_interior_gap_persists():
    rep = tube_sweep(fixture("P1"), t=[0.0], rho_grid=[1.0],
                     n_ladder=(100, 400), n_gamma=5, delta_report=0.05,
                     budget=QUICK)
    assert rep.passed and rep.verdicts["sup_gap_persists"]
    sups = [row[rep.columns.index("sup_gap")] for row in rep.rows]
    assert all(s >= 0.05 for s in sups)


def test_tube_sweep_exterior_mode_vanishes():
    rep = tube_sweep(fixture("P1"), t=[0.0], rho_grid=[1.0],
                     n_ladder=(100, 400, 1600), n_gamma=5,
                     delta_report=0.05, exterior_min=0.25, budget=QUICK)
    assert rep.passed and rep.verdicts["exterior_sup_vanishes"]
    sups = [row[rep.columns.index("sup_gap")] for row in rep.rows]
    assert sups[-1] <= 0.05


def _tube_rows_per_lambda(fx, t, rho_grid, n_ladder, n_gamma, exterior_min):
    """The tube sweep's rows with each point's own limit evaluated at that point."""
    pr, qs = fx.problem, fx.limits.q_star
    rows = []
    for n in n_ladder:
        fx_n = fx.at_n(n)
        for rho in rho_grid:
            sup_gap, arg_lam, kept = 0.0, None, 0
            for lam in np.linspace(-0.999 * rho, 0.999 * rho, n_gamma):
                step = np.zeros(pr.P)
                step[qs - 1] = lam
                theta_n = pr.theta + (step / np.sqrt(n) if exterior_min is None else step)
                if exterior_min is not None and abs(theta_n[qs - 1]) < exterior_min:
                    continue
                kept += 1
                own = cdf_limit(fx.limits, LocalAlternative(theta=theta_n, gamma=np.zeros(pr.P),
                                                            sigma=pr.sigma), t, fx.rule, QUICK)
                res = cdf_exact(fx_n.problem, CdfQuery(A=fx.A, t=t, theta=theta_n,
                                                       sigma=pr.sigma, rule=fx.rule), QUICK)
                gap = abs(res.value - own.value)
                if gap >= sup_gap:
                    sup_gap, arg_lam = gap, float(lam)
            rows.append((n, float(rho), kept, sup_gap, np.nan if arg_lam is None else arg_lam))
    return rows


@pytest.mark.parametrize("name,t,rho_grid,exterior_min", [
    ("P1", [0.0], [1.0], None),
    ("P1", [0.0], [1.0, 4.0], 0.25),
    ("COLL2", [0.0, 0.5], [2.0], None),
    ("COLL2", [0.3, 0.3], [3.0], 0.5),
], ids=["P1-local", "P1-exterior", "COLL2-local", "COLL2-exterior"])
def test_tube_sweep_evaluates_one_own_limit_per_true_order(monkeypatch, name, t, rho_grid,
                                                           exterior_min):
    # at zero drift the own limit depends on theta only through p_star, so a
    # sweep needs at most P - O + 1 limits, and its rows are those of a
    # limit evaluated at every point
    fx = fixture(name)
    n_ladder = (52, 200)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return cdf_limit(*args, **kwargs)

    monkeypatch.setattr(experiments, "cdf_limit", counted)
    rep = tube_sweep(fx, t=t, rho_grid=rho_grid, n_ladder=n_ladder, n_gamma=5,
                     exterior_min=exterior_min, budget=QUICK)
    assert 1 <= len(calls) <= fx.problem.P - fx.problem.O + 1
    if name == "P1" and exterior_min is None:
        assert len(calls) == 2   # lambda = 0 is order 0, every other point order 1
    ref = _tube_rows_per_lambda(fx, np.asarray(t, dtype=float), rho_grid, n_ladder, 5,
                                exterior_min)
    assert np.array_equal(np.array(rep.rows, dtype=float), np.array(ref, dtype=float),
                          equal_nan=True)


def test_refusals():
    blk = fixture("BLOCK_ORTHO")  # q_star is None
    with pytest.raises(ExperimentRefusal):
        tube_sweep(blk, t=[0.0], rho_grid=[1.0], n_ladder=(100,), budget=QUICK)
    with pytest.raises(ExperimentRefusal):
        impossibility_demo(blk, t=[0.0], gamma=[0.0, 1.0], delta0=0.1,
                           n_ladder=(100,), replications=200, budget=QUICK)
    with pytest.raises(ExperimentRefusal):
        uniform_case_sweep(fixture("ORTHO2"), theta_grid=np.zeros((1, 2)),
                           t=[0.0, 0.0], n_ladder=(100,), replications=200)
    # exterior filter that keeps nothing must refuse, not pass vacuously
    with pytest.raises(ExperimentRefusal):
        tube_sweep(fixture("P1"), t=[0.0], rho_grid=[0.5], n_ladder=(100,),
                   n_gamma=5, exterior_min=10.0, budget=QUICK)
    # IC variant requires exactly the two-model {full, drop-last} family
    drop_first = InformationCriterion(upsilon_n=2.0, family=(
        SubsetMask(bits=(1, 1)), SubsetMask(bits=(0, 1))))
    with pytest.raises(ExperimentRefusal):
        impossibility_demo(fixture("COLL2"), t=[0.0, 0.0], gamma=[0.0, 1.0],
                           delta0=0.1, n_ladder=(100,), replications=200,
                           rule=drop_first, budget=QUICK)


def test_pilot_delta0_positive_on_correlated_fixture():
    val = pilot_delta0(fixture("P1"), t=[0.0], gamma_axis=1,
                       lam_grid=np.linspace(-4, 4, 9), budget=QUICK)
    assert 0.05 < val < 0.25  # quarter of an oscillation below 1


def test_impossibility_demo_small_run():
    rep = impossibility_demo(fixture("P1"), t=[0.0], gamma=[1.2], delta0=0.10,
                             n_ladder=(100, 400), replications=400,
                             master_seed=11, budget=QUICK)
    cols = rep.columns
    assert cols == ("n", "reference_fixed", "reference_drift",
                    "error_prob_fixed", "error_prob_drift")
    assert len(rep.rows) == 2
    last = rep.rows[-1]
    assert last[cols.index("error_prob_drift")] >= 0.9
    assert last[cols.index("error_prob_fixed")] <= 0.1
    assert rep.passed and rep.config["rule_mode"] == "g2s"


def test_impossibility_demo_calibrates_delta0_by_the_pilot():
    # delta0 = None is a quarter of the limit-cdf oscillation along the
    # drift axis q_star
    p1 = fixture("P1")
    rep = impossibility_demo(p1, t=[0.0], gamma=[1.2], delta0=None, n_ladder=(400,),
                             replications=200, master_seed=11, budget=QUICK)
    want = pilot_delta0(p1, t=[0.0], gamma_axis=p1.limits.q_star,
                        lam_grid=np.linspace(-4.0, 4.0, 9), budget=QUICK)
    assert rep.config["delta0"] == want > 0.0


def test_impossibility_demo_ic_variant():
    fam = (SubsetMask(bits=(1,)), SubsetMask(bits=(0,)))
    rule = InformationCriterion(upsilon_n=2.0, family=fam)
    rep = impossibility_demo(fixture("P1"), t=[0.0], gamma=[0.8], delta0=0.10,
                             n_ladder=(100, 400), replications=300,
                             rule=rule, master_seed=13, budget=QUICK)
    cols = rep.columns
    assert rep.config["rule_mode"] == "ic_two_model"
    assert rep.rows[-1][cols.index("error_prob_drift")] >= 0.9
    assert rep.verdicts["fixed_theta_error_falls"]


def test_uniform_case_sweep_small_run():
    grid = np.column_stack([np.linspace(-0.5, 0.5, 3), np.linspace(0.5, -0.5, 3)])
    rep = uniform_case_sweep(fixture("BLOCK_ORTHO"), theta_grid=grid,
                             t=[0.2], n_ladder=(100, 400),
                             replications=20_000, est_draws=100,
                             gap_tol=0.05, master_seed=3, workers=2)
    assert rep.passed
    gap_col = rep.columns.index("gap")
    n_col = rep.columns.index("n")
    final_sup = max(row[gap_col] for row in rep.rows if row[n_col] == 400)
    assert final_sup <= 0.05
    with pytest.raises(ValidationError):
        uniform_case_sweep(fixture("BLOCK_ORTHO"), theta_grid=np.zeros((1, 3)),
                           t=[0.0], n_ladder=(100,), replications=200)


def test_uniform_case_sweep_needs_estimator_draws():
    # est_draws = 0 averaged no estimate (NaN gaps, which max() skipped) and
    # passed; a negative count raised numpy's bare ValueError
    grid = np.array([[0.5, 0.1]])
    for bad in (0, -3, 2.5):
        with pytest.raises(ValidationError, match="est_draws"):
            uniform_case_sweep(fixture("BLOCK_ORTHO"), theta_grid=grid, t=[0.2],
                               n_ladder=(100,), replications=200, est_draws=bad)


def test_aic_equivalence_audit_small_run():
    rep = aic_equivalence_audit(fixture("P1"), instances=1000,
                                n_ladder=(20, 200, 2000), master_seed=5)
    assert rep.passed
    assert rep.verdicts["zero_disagreements"]
    assert rep.verdicts["symdiff_non_increasing"]
    cols = rep.columns
    sym = [row for row in rep.rows
           if row[cols.index("metric")] == "asymptotic_cutoff_symdiff"]
    freqs = [row[cols.index("frequency")] for row in sym]
    assert len(freqs) == 3 and freqs[0] >= freqs[-1]


def test_empty_ladders_and_grids_are_invalid():
    # a sweep over no points would pass (or crash) vacuously: every ladder
    # and grid must be non-empty, and n_gamma = 0 names the empty gamma grid
    p1, coll = fixture("P1"), fixture("COLL2")
    grid = np.zeros((1, 2))
    for run in (
        lambda: convergence_sweep(p1, gamma=[0.7], t=[0.3], n_ladder=(), budget=QUICK),
        lambda: tube_sweep(p1, t=[0.0], rho_grid=[1.0], n_ladder=(), budget=QUICK),
        lambda: tube_sweep(p1, t=[0.0], rho_grid=[], n_ladder=(100,), budget=QUICK),
        lambda: impossibility_demo(p1, t=[0.0], gamma=[1.2], delta0=0.1, n_ladder=(),
                                   replications=200, budget=QUICK),
        lambda: uniform_case_sweep(fixture("BLOCK_ORTHO"), theta_grid=grid, t=[0.2],
                                   n_ladder=(), replications=200),
        lambda: aic_equivalence_audit(coll, instances=100, n_ladder=()),
        lambda: pilot_delta0(coll, t=[0.0, 0.0], gamma_axis=2, lam_grid=[], budget=QUICK),
    ):
        with pytest.raises(ValidationError, match="is empty"):
            run()
    with pytest.raises(ValidationError, match="gamma grid"):
        tube_sweep(p1, t=[0.0], rho_grid=[1.0], n_ladder=(100,), n_gamma=0, budget=QUICK)


def test_out_of_range_drift_arguments_are_invalid():
    # a gamma shorter than P was broadcast over every coordinate, and a
    # gamma_axis outside [1, P] scanned the last axis (0) or raised a bare
    # IndexError (P + 1)
    coll = fixture("COLL2")
    for gamma in ([1.25], [1.25, 0.0, 0.5]):
        with pytest.raises(ValidationError, match="gamma must be"):
            impossibility_demo(coll, t=[0.0, 0.0], gamma=gamma, delta0=0.1, n_ladder=(100,),
                               replications=200, budget=QUICK)
    for axis in (0, 3, -1):
        with pytest.raises(ValidationError, match="gamma_axis"):
            pilot_delta0(coll, t=[0.0, 0.0], gamma_axis=axis, lam_grid=[0.0, 1.0],
                         budget=QUICK)


_IC_DROP_LAST = InformationCriterion(upsilon_n=2.0, family=(SubsetMask(bits=(1, 1)),
                                                            SubsetMask(bits=(1, 0))))


@pytest.mark.parametrize("name, rule, delta0, fragment", [
    ("BLOCK_ORTHO", _IC_DROP_LAST, 0.1, "uncorrelated with the target"),
    ("COLL2", Thresholding(cutoff=(1.0, 1.0)), 0.1, "unsupported rule"),
    ("COLL2", None, 0.0, "pilot oscillation is zero"),
])
def test_impossibility_demo_refusals(name, rule, delta0, fragment):
    fx = fixture(name)
    with pytest.raises(ExperimentRefusal, match=fragment):
        impossibility_demo(fx, t=np.zeros(fx.A.shape[0]), gamma=np.zeros(fx.problem.P),
                           delta0=delta0, n_ladder=(100,), replications=200, rule=rule,
                           budget=QUICK)


def test_a_failing_verdict_fails_the_report(tmp_path):
    report = SweepReport(experiment="demo", fixture="P1", columns=("n",), rows=((100,),),
                         verdicts={"holds": True, "fails": False}, master_seed=0,
                         config={}, wall_clock_s=0.0)
    assert report.passed is False
    report.write_manifest(str(tmp_path / "demo.json"))
    assert json.loads((tmp_path / "demo.json").read_text())["passed"] is False


def test_a_paired_impossibility_step_draws_and_evaluates_once_per_chunk(monkeypatch):
    # both curves of one n read the same noise, sigma_hat and plug-in: one
    # draw and one g_check_values call per chunk serve the two points
    from pmsdist import cdf_estimators, montecarlo

    calls = {"draw": 0, "g_check": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(montecarlo, "_draw_errors", counted("draw", montecarlo._draw_errors))
    monkeypatch.setattr(cdf_estimators, "g_check_values",
                        counted("g_check", cdf_estimators.g_check_values))
    rep = impossibility_demo(fixture("P1"), t=[0.0], gamma=[1.2], delta0=0.10, n_ladder=(400,),
                             replications=montecarlo.CHUNK + 100, master_seed=11, budget=QUICK)
    assert calls == {"draw": 2, "g_check": 2}
    assert rep.rows[0][3] < rep.rows[0][4]
