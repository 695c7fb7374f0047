"""Command-line front end.

Subcommands
    fit           simulate one response and fit a restricted least squares
    select        simulate one response and run a selection rule
    cdf-exact     finite-sample cdf of the post-selection estimator
    cdf-limit     large-sample (drifting-parameter) limit cdf
    estimate      plug-in cdf estimators from one simulated response
    mc            Monte Carlo empirical cdf
    sweep         scripted experiments (convergence, tube, impossibility,
                  uniform, aic-audit)
    self-test     fast internal consistency checks

Results are printed as JSON on stdout with the resolved configuration
embedded.  Failures print a JSON error object on stderr and exit with
1 (invalid input), 2 (accuracy budget exhausted), or 3 (experiment
refused its hypotheses).
"""
from __future__ import annotations

import argparse
import functools
import json
import re
import sys

import numpy as np

from .cdf_estimators import g_check, phi_hat
from .dist_exact import AccuracyBudget, CdfQuery, cdf_exact, delta
from .dist_limit import (
    LocalAlternative,
    cdf_limit,
    cdf_limit_via_integral,
    pdf_limit,
)
from .errors import ExperimentRefusal, PmsdistError, ValidationError
from .experiments import (
    aic_equivalence_audit,
    convergence_sweep,
    impossibility_demo,
    tube_sweep,
    uniform_case_sweep,
)
from .fixtures import FIXTURE_NAMES, fixture
from .montecarlo import (
    SimulationPlan,
    dump_replications,
    empirical_cdf,
    simulate_response,
)
from .regression_core import restricted_ls, sigma_hat, t_statistics
from .selection import SubsetMask, post_select_fit, rule_from_json, rule_to_json

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_BUDGET = 2
EXIT_REFUSED = 3


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ValidationError (exit 1).

    An argument that starts with a minus and a number (``-1,0.5``,
    ``-.5;1``, ``-inf,0``) is a value, not an option, so a comma list or
    grid may start with a negative number after its flag; no option here
    starts that way."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf)", re.IGNORECASE)

    def error(self, message):
        raise ValidationError(message)


def _floats(value: str) -> list[float]:
    return [float(v) for v in value.split(",") if v.strip() != ""]


def _ints(value: str) -> list[int]:
    return [int(v) for v in value.split(",") if v.strip() != ""]


def _grid(value: str) -> list[list[float]]:
    return [_floats(row) for row in value.split(";") if row.strip() != ""]


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")


def _fail(exc: BaseException) -> None:
    print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
          file=sys.stderr)


def _fixture_of(args) -> "fixture":
    if args.fixture is None:
        raise ValidationError("--fixture is required (flag or config key)")
    theta = np.asarray(_floats(args.theta), dtype=float) if args.theta is not None else None
    return fixture(args.fixture, n=args.n, theta=theta, sigma=args.sigma)


def _required_t(args) -> np.ndarray:
    if args.t is None:
        raise ValidationError("--t is required (flag or config key)")
    return np.asarray(_floats(args.t), dtype=float)


def _budget_of(args) -> AccuracyBudget:
    return AccuracyBudget(tol=args.tol, seed=args.seed)


def _base_config(args, fx) -> dict:
    return {"fixture": fx.name, "n": fx.problem.n,
            "theta": fx.problem.theta.tolist(), "sigma": fx.problem.sigma,
            "order_floor": fx.problem.O, "rule": rule_to_json(fx.rule),
            "seed": args.seed}


def _cmd_fit(args) -> int:
    fx = _fixture_of(args)
    Y = simulate_response(fx.problem, (args.seed, 0))
    p = fx.problem.P if args.order is None else int(args.order)
    if not 0 <= p <= fx.problem.P:
        raise ValidationError(f"order must lie in [0, {fx.problem.P}]")
    s = sigma_hat(fx.problem, Y)
    out = {"command": "fit", "order": p,
           "estimate": restricted_ls(fx.problem, Y, p).tolist(),
           "sigma_hat": s,
           "t_stats": t_statistics(fx.problem, Y).tolist() if s > 0 else None,
           "config": _base_config(args, fx)}
    _emit(out, args.out)
    return EXIT_OK


def _cmd_select(args) -> int:
    fx = _fixture_of(args)
    rule = rule_from_json(json.loads(args.rule)) if args.rule else fx.rule
    Y = simulate_response(fx.problem, (args.seed, 0))
    res = post_select_fit(fx.problem, Y, rule)
    out = {"command": "select",
           "selected": str(res.selected) if isinstance(res.selected, SubsetMask)
           else int(res.selected),
           "estimate": res.estimate.tolist(), "sigma_hat": res.sigma_hat,
           "t_stats": res.t_stats.tolist(),
           "ic_values": {str(m): v for m, v in res.ic_values.items()}
           if res.ic_values else None,
           "config": {**_base_config(args, fx), "rule": rule_to_json(rule)}}
    _emit(out, args.out)
    return EXIT_OK


def _cdf_payload(command: str, res, config: dict) -> dict:
    return {"command": command, "value": res.value, "abs_error": res.abs_error,
            "method": res.method, "clamped": res.clamped,
            "warning": res.warning, "config": config}


def _cmd_cdf_exact(args) -> int:
    fx = _fixture_of(args)
    t = _required_t(args)
    res = cdf_exact(fx.problem,
                    CdfQuery(A=fx.A, t=t, theta=fx.problem.theta,
                             sigma=fx.problem.sigma, rule=fx.rule),
                    _budget_of(args))
    cfg = {**_base_config(args, fx), "t": t.tolist(), "tol": args.tol}
    _emit(_cdf_payload("cdf-exact", res, cfg), args.out)
    if res.warning:
        _fail(PmsdistError(res.warning))
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_cdf_limit(args) -> int:
    fx = _fixture_of(args)
    t = _required_t(args)
    gamma = (np.asarray(_floats(args.gamma), dtype=float)
             if args.gamma is not None else np.zeros(fx.problem.P))
    alt = LocalAlternative(theta=fx.problem.theta, gamma=gamma,
                           sigma=fx.problem.sigma)
    budget = _budget_of(args)
    if args.density:
        val = pdf_limit(fx.limits, alt, t, fx.rule)
        cfg = {**_base_config(args, fx), "t": t.tolist(),
               "gamma": gamma.tolist(), "tol": args.tol}
        _emit({"command": "cdf-limit", "density": val, "config": cfg}, args.out)
        return EXIT_OK
    res = (cdf_limit_via_integral if args.cross_check else cdf_limit)(
        fx.limits, alt, t, fx.rule, budget)
    cfg = {**_base_config(args, fx), "t": t.tolist(), "gamma": gamma.tolist(),
           "tol": args.tol, "cross_check": bool(args.cross_check)}
    _emit(_cdf_payload("cdf-limit", res, cfg), args.out)
    if res.warning:
        _fail(PmsdistError(res.warning))
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_estimate(args) -> int:
    fx = _fixture_of(args)
    t = _required_t(args)
    Y = simulate_response(fx.problem, (args.seed, 0))
    if args.estimator == "g-check":
        val = g_check(fx.problem, Y, fx.A, t, fx.rule,
                      aux_scheme=args.aux_scheme, budget=_budget_of(args))
    else:
        p = fx.problem.P if args.order is None else int(args.order)
        val = phi_hat(fx.problem, Y, fx.A, p, t)
    out = {"command": "estimate", "estimator": args.estimator, "value": val,
           "sigma_hat": sigma_hat(fx.problem, Y),
           "config": {**_base_config(args, fx), "t": t.tolist(),
                      "aux_scheme": args.aux_scheme, "order": args.order}}
    _emit(out, args.out)
    return EXIT_OK


def _cmd_mc(args) -> int:
    fx = _fixture_of(args)
    if args.grid is None and args.t is None:
        raise ValidationError("mc needs --t or --grid")
    grid = _grid(args.grid) if args.grid else [_floats(args.t)]
    plan = SimulationPlan(problem=fx.problem, rule=fx.rule, A=fx.A,
                          replications=args.reps, master_seed=args.seed)
    emp = empirical_cdf(plan, grid, workers=args.workers)
    if args.dump:
        dump_replications(plan, args.dump)
    out = {"command": "mc", "grid": emp.grid.tolist(),
           "estimates": emp.estimates.tolist(),
           "standard_errors": emp.standard_errors.tolist(),
           "replications": emp.replications, "valid": emp.valid,
           "degenerate_count": emp.degenerate_count,
           "model_counts": {str(m): int(c) for m, c in emp.model_counts.items()},
           "config": {**_base_config(args, fx), "replications": args.reps,
                      "workers": args.workers, "dump": args.dump}}
    _emit(out, args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    fx = _fixture_of(args)
    t = _floats(args.t) if args.t is not None else None
    ladder = _ints(args.n_ladder)
    if args.kind == "convergence":
        if t is None or args.gamma is None:
            raise ValidationError("convergence sweep needs --t and --gamma")
        rep = convergence_sweep(fx, _floats(args.gamma), t, ladder,
                                budget=_budget_of(args), master_seed=args.seed)
    elif args.kind == "tube":
        if t is None:
            raise ValidationError("tube sweep needs --t")
        rep = tube_sweep(fx, t, _floats(args.rho_grid), ladder,
                         n_gamma=args.n_gamma, delta_report=args.delta_report,
                         exterior_min=args.exterior_min,
                         budget=_budget_of(args), master_seed=args.seed)
    elif args.kind == "impossibility":
        if t is None or args.gamma is None:
            raise ValidationError("impossibility demo needs --t and --gamma")
        rule = rule_from_json(json.loads(args.rule)) if args.rule else None
        rep = impossibility_demo(fx, t, _floats(args.gamma), args.delta0,
                                 ladder, args.reps, rule=rule,
                                 master_seed=args.seed, workers=args.workers,
                                 aux_scheme=args.aux_scheme,
                                 budget=_budget_of(args))
    elif args.kind == "uniform":
        if t is None or args.theta_grid is None:
            raise ValidationError("uniform sweep needs --t and --theta-grid")
        rep = uniform_case_sweep(fx, _grid(args.theta_grid), t, ladder,
                                 replications=args.reps,
                                 est_draws=args.est_draws, order=args.order,
                                 gap_tol=args.gap_tol, master_seed=args.seed,
                                 workers=args.workers)
    else:  # aic-audit
        rep = aic_equivalence_audit(fx, args.instances, n_ladder=tuple(ladder),
                                    upsilon=args.upsilon,
                                    master_seed=args.seed)
    paths = {}
    if args.out:
        rep.write_csv(args.out + ".csv")
        rep.write_manifest(args.out + ".json")
        paths = {"csv": args.out + ".csv", "manifest": args.out + ".json"}
    out = {"command": "sweep", "experiment": rep.experiment,
           "fixture": rep.fixture, "verdicts": rep.verdicts,
           "passed": rep.passed, "rows": len(rep.rows),
           "wall_clock_s": rep.wall_clock_s, "notes": list(rep.notes),
           "config": {**rep.config, "master_seed": rep.master_seed}, **paths}
    _emit(out, None)
    return EXIT_OK


def _cmd_self_test(args) -> int:
    from .fixtures import random_k1_limit_case

    checks = []

    def check(name, fn):
        try:
            ok, detail = fn()
        except Exception as exc:  # pragma: no cover - defensive
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        checks.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})")

    def _single_coordinate_null():
        fx = fixture("P1")
        alt = LocalAlternative(theta=fx.problem.theta, gamma=np.zeros(1), sigma=1.0)
        res = cdf_limit(fx.limits, alt, np.zeros(1), fx.rule)
        return abs(res.value - 0.975) <= 5e-4, f"value={res.value:.6f}"

    def _band_probability():
        got = delta(1.0, 0.0, 1.96)
        return abs(got - 0.9500042) <= 1e-6, f"delta={got:.7f}"

    def _two_path():
        limits, theta, gamma, sigma, rule, t = random_k1_limit_case(5)
        alt = LocalAlternative(theta=theta, gamma=gamma, sigma=sigma)
        a = cdf_limit(limits, alt, t, rule)
        b = cdf_limit_via_integral(limits, alt, t, rule)
        gap = abs(a.value - b.value)
        return gap <= a.abs_error + b.abs_error, f"gap={gap:.2e}"

    def _mc_determinism():
        fx = fixture("ORTHO2")
        plan = SimulationPlan(problem=fx.problem, rule=fx.rule, A=fx.A,
                              replications=20_000, master_seed=11)
        g = [np.zeros(2)]
        e1 = empirical_cdf(plan, g, workers=1)
        e2 = empirical_cdf(plan, g, workers=2)
        same = np.array_equal(e1.estimates, e2.estimates)
        return same, f"estimate={e1.estimates[0]:.5f}"

    def _finite_n_tracks_limit():
        fx = fixture("P1", n=5000)
        res = cdf_exact(fx.problem,
                        CdfQuery(A=fx.A, t=np.zeros(1), theta=fx.problem.theta,
                                 sigma=1.0, rule=fx.rule))
        return abs(res.value - 0.975) <= 0.01, f"value={res.value:.6f}"

    check("limit cdf, single-coordinate null case", _single_coordinate_null)
    check("two-sided band probability", _band_probability)
    check("limit cdf two-path agreement", _two_path)
    check("monte carlo worker invariance", _mc_determinism)
    check("finite-n cdf tracks the limit", _finite_n_tracks_limit)
    print(f"{sum(checks)}/{len(checks)} checks passed")
    return EXIT_OK if all(checks) else EXIT_INVALID


def _add_common(sp) -> None:
    sp.add_argument("--fixture", default=None,
                    help=f"named design: one of {', '.join(FIXTURE_NAMES)}")
    sp.add_argument("--n", type=int, default=None, help="sample size override")
    sp.add_argument("--theta", default=None,
                    help="comma-separated coefficient override")
    sp.add_argument("--sigma", type=float, default=1.0, help="noise scale")
    sp.add_argument("--config", default=None,
                    help="JSON file of option values (flags take precedence)")
    sp.add_argument("--seed", type=int, default=0, help="master seed")
    sp.add_argument("--out", default=None, help="also write output here")
    sp.add_argument("--tol", type=float, default=1e-5,
                    help="accuracy budget for cdf evaluation")
    sp.add_argument("--workers", type=int, default=None,
                    help="process count for Monte Carlo work")


@functools.cache
def build_parser():
    """(parser, subparsers by name): built on the first call of a process
    and shared by every later one, as parsing never changes the tree."""
    parser = _Parser(prog="pmsdist",
                     description="distributions of post-model-selection "
                                 "estimators in Gaussian linear regression")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    subparsers = {}

    def add(name, func, **kw):
        sp = sub.add_parser(name, **kw)
        _add_common(sp)
        sp.set_defaults(func=func)
        subparsers[name] = sp
        return sp

    sp = add("fit", _cmd_fit, help="restricted least squares on one draw")
    sp.add_argument("--order", type=int, default=None)

    sp = add("select", _cmd_select, help="run a selection rule on one draw")
    sp.add_argument("--rule", default=None, help="JSON rule override")

    sp = add("cdf-exact", _cmd_cdf_exact, help="finite-sample cdf")
    sp.add_argument("--t", default=None, help="evaluation point (comma CSV)")

    sp = add("cdf-limit", _cmd_cdf_limit, help="limit cdf under drift")
    sp.add_argument("--t", default=None, help="evaluation point (comma CSV)")
    sp.add_argument("--gamma", default=None, help="drift vector (comma CSV)")
    sp.add_argument("--cross-check", action="store_true",
                    help="evaluate through the independent integral route")
    sp.add_argument("--density", action="store_true",
                    help="evaluate the limit density instead")

    sp = add("estimate", _cmd_estimate, help="plug-in cdf estimators")
    sp.add_argument("--estimator", choices=("g-check", "phi-hat"),
                    default="g-check")
    sp.add_argument("--t", default=None)
    sp.add_argument("--order", type=int, default=None,
                    help="model order for phi-hat (default: full)")
    sp.add_argument("--aux-scheme", choices=("sqrt_log_n", "bic"),
                    default="sqrt_log_n")

    sp = add("mc", _cmd_mc, help="Monte Carlo empirical cdf")
    sp.add_argument("--t", default=None, help="single grid point (comma CSV)")
    sp.add_argument("--grid", default=None,
                    help="semicolon-separated grid rows")
    sp.add_argument("--reps", type=int, default=100_000)
    sp.add_argument("--dump", default=None,
                    help="write per-replication CSV here")

    sp = add("sweep", _cmd_sweep, help="scripted experiments")
    sp.add_argument("kind", choices=("convergence", "tube", "impossibility",
                                     "uniform", "aic-audit"))
    sp.add_argument("--t", default=None)
    sp.add_argument("--gamma", default=None)
    sp.add_argument("--n-ladder", default="100,400,1600")
    sp.add_argument("--rho-grid", default="4")
    sp.add_argument("--n-gamma", type=int, default=9)
    sp.add_argument("--delta-report", type=float, default=0.05)
    sp.add_argument("--exterior-min", type=float, default=None)
    sp.add_argument("--delta0", type=float, default=None)
    sp.add_argument("--reps", type=int, default=2000)
    sp.add_argument("--theta-grid", default=None)
    sp.add_argument("--est-draws", type=int, default=200)
    sp.add_argument("--order", type=int, default=None)
    sp.add_argument("--gap-tol", type=float, default=0.02)
    sp.add_argument("--instances", type=int, default=10_000)
    sp.add_argument("--upsilon", type=float, default=2.0)
    sp.add_argument("--aux-scheme", choices=("sqrt_log_n", "bic"),
                    default="sqrt_log_n")
    sp.add_argument("--rule", default=None, help="JSON rule override")

    sp = add("self-test", _cmd_self_test, help="fast internal checks")

    return parser, subparsers


def _flag_text(value) -> str:
    """A config value as the text of its flag: a string as is, a list as its
    comma-separated items, a list of rows as its rows each ended by ';',
    anything else as its JSON text (a number's repr)."""
    if isinstance(value, list):
        if any(isinstance(v, list) for v in value):
            return "".join(_flag_text(row) + ";" for row in value)
        return ",".join(map(_flag_text, value))
    return value if isinstance(value, str) else json.dumps(value)


def _apply_config(parser, subparsers, argv, args):
    """Re-parse with a JSON config file's values as flags before the
    explicit ones, so those still win and every value is parsed as its
    flag's text (`_flag_text`); a null value sets nothing."""
    with open(args.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValidationError("config file must hold a JSON object")
    flags = {a.dest: a for a in subparsers[args.command]._actions
             if a.option_strings and a.dest not in ("help", "config")}
    unknown = sorted(set(cfg) - set(flags))
    if unknown:
        raise ValidationError(f"unknown config keys: {', '.join(unknown)}")
    extra = []
    for key, value in cfg.items():
        flag = flags[key].option_strings[-1]
        if flags[key].nargs == 0:   # store_true
            if not isinstance(value, bool):
                raise ValidationError(f"config key {key} takes true or false")
            extra += [flag] if value else []
        elif value is not None:
            extra.append(f"{flag}={_flag_text(value)}")
    return parser.parse_args(argv[:1] + extra + argv[1:])


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            args = _apply_config(parser, subparsers, argv, args)
        return args.func(args)
    except ExperimentRefusal as exc:
        _fail(exc)
        return EXIT_REFUSED
    except PmsdistError as exc:
        _fail(exc)
        return EXIT_INVALID
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        _fail(exc)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
