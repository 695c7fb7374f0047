"""End-to-end CLI tests: parsing, exit codes, JSON output, config merging."""
import json

import numpy as np
import pytest

from pmsdist.cli import EXIT_BUDGET, EXIT_INVALID, EXIT_OK, EXIT_REFUSED, main


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _payload(out):
    return json.loads(out)


def test_cdf_limit_known_value(capsys):
    rc, out, _ = _run(capsys, ["cdf-limit", "--fixture", "P1", "--t", "0.0"])
    assert rc == EXIT_OK
    payload = _payload(out)
    assert abs(payload["value"] - 0.9750021048517795) < 1e-6
    assert payload["command"] == "cdf-limit"
    assert "method" in payload and "abs_error" in payload


def test_cdf_limit_cross_check_and_density(capsys):
    rc, out, _ = _run(capsys, ["cdf-limit", "--fixture", "P1", "--t", "0.0",
                               "--cross-check"])
    assert rc == EXIT_OK
    assert abs(_payload(out)["value"] - 0.9750021048517795) < 1e-4
    rc, out, _ = _run(capsys, ["cdf-limit", "--fixture", "ORTHO2",
                               "--t", "0.1,0.2", "--gamma", "0.5,-0.5",
                               "--density"])
    assert rc == EXIT_OK
    assert _payload(out)["density"] > 0.0


def test_cdf_exact_agrees_with_limit_at_large_n(capsys):
    rc, out, _ = _run(capsys, ["cdf-exact", "--fixture", "P1", "--n", "5000",
                               "--t", "0.0"])
    assert rc == EXIT_OK
    assert abs(_payload(out)["value"] - 0.975) < 0.003


def test_budget_exhaustion_is_reported_not_hidden(capsys):
    rc, out, err = _run(capsys, ["cdf-exact", "--fixture", "P1", "--t", "0.0",
                                 "--tol", "1e-15"])
    assert rc == EXIT_BUDGET
    payload = _payload(out)          # the value is still printed...
    assert 0.97 < payload["value"] < 0.98
    assert payload["warning"]
    assert _payload(err)["error"]["type"] == "PmsdistError"


def test_error_bound_above_tol_exits_2(capsys):
    # the truncated scale and quadrature mass alone bound the error above 1e-12
    rc, out, err = _run(capsys, ["cdf-exact", "--fixture", "COLL2", "--t", "0.5,-0.25",
                                 "--tol", "1e-12"])
    assert rc == EXIT_BUDGET
    payload = _payload(out)
    assert 0.0 < payload["value"] < 1.0
    assert payload["abs_error"] > payload["config"]["tol"]
    assert payload["warning"]
    assert _payload(err)["error"]["type"] == "PmsdistError"


CROSS_CHECK = ["cdf-limit", "--fixture", "COLL2", "--theta", "0,0", "--gamma", "0.5,1",
               "--t", "0.5,-0.25", "--cross-check"]


def test_cross_check_error_above_tol_exits_2(capsys):
    # every limit cdf reports at least the 1e-14 rounding floor, so a tol
    # below it is missed, and the integral path says so
    rc, out, err = _run(capsys, CROSS_CHECK + ["--tol", "1e-15"])
    assert rc == EXIT_BUDGET
    payload = _payload(out)
    assert payload["abs_error"] > payload["config"]["tol"]
    assert payload["warning"]
    assert _payload(err)["error"]["type"] == "PmsdistError"


def test_k2_cross_check_meets_default_tol(capsys):
    # the k = 2 integral path is deterministic and meets the default tol 1e-5
    rc, out, _ = _run(capsys, CROSS_CHECK)
    assert rc == EXIT_OK
    payload = _payload(out)
    assert payload["abs_error"] <= payload["config"]["tol"]
    assert payload["warning"] is None


def test_k2_exact_meets_default_tol(capsys):
    # the deterministic k = 2 terms meet the default tol 1e-5
    rc, out, _ = _run(capsys, ["cdf-exact", "--fixture", "COLL2", "--t", "0.5,-0.25"])
    assert rc == EXIT_OK
    payload = _payload(out)
    assert 0.0 < payload["value"] < 1.0
    assert payload["abs_error"] <= payload["config"]["tol"]
    assert payload["warning"] is None


def test_validation_failures_exit_1(capsys):
    rc, _, err = _run(capsys, ["cdf-exact", "--fixture", "NOPE", "--t", "0.0"])
    assert rc == EXIT_INVALID
    assert _payload(err)["error"]["type"] == "ValidationError"
    rc, _, err = _run(capsys, ["cdf-exact", "--t", "0.0"])      # no fixture
    assert rc == EXIT_INVALID
    rc, _, err = _run(capsys, ["cdf-exact", "--fixture", "P1"])  # no t
    assert rc == EXIT_INVALID
    rc, _, err = _run(capsys, ["cdf-exact", "--fixture", "P1", "--t", "0.0",
                               "--theta", "1,2,3"])              # wrong length
    assert rc == EXIT_INVALID
    rc, _, err = _run(capsys, ["mc", "--fixture", "P1", "--reps", "50"])
    assert rc == EXIT_INVALID                                    # needs --t/--grid


@pytest.mark.parametrize("command", ["cdf-exact", "cdf-limit"])
def test_nan_t_exits_1_and_infinite_t_is_valid(capsys, command):
    rc, out, err = _run(capsys, [command, "--fixture", "P1", "--t=nan"])
    assert rc == EXIT_INVALID and out == ""
    assert _payload(err)["error"]["type"] == "ValidationError"
    for t, lo, hi in (("-inf", 0.0, 0.0), ("inf", 1.0 - 1e-9, 1.0)):
        rc, out, _ = _run(capsys, [command, "--fixture", "P1", f"--t={t}"])
        assert rc == EXIT_OK
        assert lo <= _payload(out)["value"] <= hi


def test_refusal_exits_3(capsys):
    rc, _, err = _run(capsys, ["sweep", "tube", "--fixture", "BLOCK_ORTHO",
                               "--t", "0.0", "--n-ladder", "100"])
    assert rc == EXIT_REFUSED
    assert _payload(err)["error"]["type"] == "ExperimentRefusal"


def test_fit_and_select_round(capsys):
    rc, out, _ = _run(capsys, ["fit", "--fixture", "ORTHO2", "--seed", "4"])
    assert rc == EXIT_OK
    payload = _payload(out)
    assert len(payload["estimate"]) == 2
    assert payload["sigma_hat"] > 0.0
    rc, out, _ = _run(capsys, ["select", "--fixture", "ORTHO2", "--seed", "4"])
    assert rc == EXIT_OK
    assert _payload(out)["selected"] in (1, 2)
    rc, out, _ = _run(capsys, [
        "select", "--fixture", "ORTHO2", "--seed", "4",
        "--rule", '{"type": "threshold", "cutoff": [2.0, "inf"]}'])
    assert rc == EXIT_OK
    assert _payload(out)["selected"].endswith("0")  # last coordinate never kept


def test_mc_output_and_dump(capsys, tmp_path):
    dump = tmp_path / "reps.csv"
    rc, out, _ = _run(capsys, ["mc", "--fixture", "P1", "--t", "0.0",
                               "--reps", "400", "--seed", "9",
                               "--dump", str(dump)])
    assert rc == EXIT_OK
    payload = _payload(out)
    assert payload["replications"] == 400
    assert 0.0 <= payload["estimates"][0] <= 1.0
    header = dump.read_text().splitlines()[0]
    assert header == "rep,selected_model,estimate_1,sigma_hat"
    assert len(dump.read_text().splitlines()) == 401
    # explicit grid rows work too
    rc, out, _ = _run(capsys, ["mc", "--fixture", "ORTHO2",
                               "--grid", "0.0,0.0;1.0,1.0", "--reps", "200"])
    assert rc == EXIT_OK
    assert len(_payload(out)["estimates"]) == 2


def test_estimate_both_estimators(capsys):
    rc, out, _ = _run(capsys, ["estimate", "--fixture", "COLL2", "--t", "0.2,0.2",
                               "--seed", "3"])
    assert rc == EXIT_OK
    assert 0.0 <= _payload(out)["value"] <= 1.0
    rc, out, _ = _run(capsys, ["estimate", "--fixture", "COLL2", "--t", "0.2,0.2",
                               "--estimator", "phi-hat", "--order", "1"])
    assert rc == EXIT_OK
    assert 0.0 <= _payload(out)["value"] <= 1.0


def test_config_file_merging(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"fixture": "P1", "t": "0.0", "tol": 1e-4}))
    rc, out, _ = _run(capsys, ["cdf-limit", "--config", str(cfg)])
    assert rc == EXIT_OK
    assert abs(_payload(out)["value"] - 0.975002) < 1e-4
    # explicit flags beat config values
    rc, out, _ = _run(capsys, ["cdf-limit", "--config", str(cfg),
                               "--t", "100.0"])
    assert rc == EXIT_OK
    assert _payload(out)["value"] > 0.999999
    # unknown keys are rejected loudly
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"fixture": "P1", "t": "0.0", "bogus_knob": 1}))
    rc, _, err = _run(capsys, ["cdf-limit", "--config", str(bad)])
    assert rc == EXIT_INVALID
    assert "bogus_knob" in _payload(err)["error"]["message"]
    # malformed JSON is a validation failure, not a crash
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    rc, _, _ = _run(capsys, ["cdf-limit", "--config", str(broken)])
    assert rc == EXIT_INVALID


def test_sweep_writes_artifacts(capsys, tmp_path):
    prefix = tmp_path / "conv"
    rc, out, _ = _run(capsys, ["sweep", "convergence", "--fixture", "P1",
                               "--t", "0.3", "--gamma", "0.7",
                               "--n-ladder", "100,400", "--out", str(prefix)])
    assert rc == EXIT_OK
    payload = _payload(out)
    assert payload["experiment"] == "convergence_sweep"
    assert payload["passed"] is True
    assert (tmp_path / "conv.csv").exists()
    manifest = json.loads((tmp_path / "conv.json").read_text())
    assert manifest["experiment"] == "convergence_sweep"


def test_self_test_passes(capsys):
    rc, out, _ = _run(capsys, ["self-test"])
    assert rc == EXIT_OK
    assert "5/5 checks passed" in out
    assert out.count("PASS") == 5


def test_write_out_file(capsys, tmp_path):
    out_path = tmp_path / "res.json"
    rc, out, _ = _run(capsys, ["cdf-limit", "--fixture", "P1", "--t", "0.0",
                               "--out", str(out_path)])
    assert rc == EXIT_OK
    on_disk = json.loads(out_path.read_text())
    assert on_disk == _payload(out)


@pytest.mark.parametrize("argv", [
    ["tube", "--fixture", "P1", "--t", "0.0", "--rho-grid", ","],
    ["tube", "--fixture", "P1", "--t", "0.0", "--n-ladder", ","],
    ["convergence", "--fixture", "P1", "--t", "0.3", "--gamma", "0.7", "--n-ladder", ","],
    ["uniform", "--fixture", "BLOCK_ORTHO", "--t", "0.2", "--theta-grid", "0,0", "--n-ladder", ","],
    ["aic-audit", "--fixture", "COLL2", "--instances", "100", "--n-ladder", ","],
    ["tube", "--fixture", "P1", "--t", "0.0", "--n-ladder", "100", "--n-gamma", "0"],
], ids=["tube-rho", "tube-n", "convergence", "uniform", "aic-audit", "n-gamma"])
def test_sweep_over_an_empty_grid_exits_1(capsys, argv):
    rc, out, err = _run(capsys, ["sweep", *argv])
    assert rc == EXIT_INVALID and out == ""
    assert _payload(err)["error"]["type"] == "ValidationError"


@pytest.mark.parametrize("argv", [
    ["estimate", "--fixture", "P1", "--t", "nan"],
    ["estimate", "--fixture", "COLL2", "--t", "nan,0", "--estimator", "phi-hat"],
    ["mc", "--fixture", "COLL2", "--t", "nan,0", "--reps", "100"],
    ["sweep", "impossibility", "--fixture", "P1", "--t", "0.0", "--gamma", "1.2",
     "--delta0", "nan", "--n-ladder", "100", "--reps", "100"],
], ids=["g-check", "phi-hat", "mc", "delta0"])
def test_nan_arguments_exit_1(capsys, argv):
    rc, out, err = _run(capsys, argv)
    assert rc == EXIT_INVALID and out == ""
    assert _payload(err)["error"]["type"] == "ValidationError"
