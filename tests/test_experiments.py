"""Tests for the experiment sweeps: verdicts, refusals, reproducibility, I/O."""
import csv
import json

import numpy as np
import pytest

from pmsdist.dist_exact import AccuracyBudget
from pmsdist.errors import ExperimentRefusal, ValidationError
from pmsdist.experiments import (
    aic_equivalence_audit,
    convergence_sweep,
    impossibility_demo,
    pilot_delta0,
    tube_sweep,
    uniform_case_sweep,
)
from pmsdist.fixtures import fixture
from pmsdist.selection import InformationCriterion, SubsetMask

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


def test_impossibility_demo_ic_variant():
    fam = (SubsetMask(bits=(1,)), SubsetMask(bits=(0,)))
    rule = InformationCriterion(upsilon_n=2.0, family=fam)
    rep = impossibility_demo(fixture("P1"), t=[0.0], gamma=[0.8], delta0=0.10,
                             n_ladder=(100, 400), replications=300,
                             rule=rule, master_seed=13, oracle_factor=5,
                             budget=QUICK)
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
    ):
        with pytest.raises(ValidationError, match="is empty"):
            run()
    with pytest.raises(ValidationError, match="gamma grid"):
        tube_sweep(p1, t=[0.0], rho_grid=[1.0], n_ladder=(100,), n_gamma=0, budget=QUICK)
