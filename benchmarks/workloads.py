"""The benchmark's workloads: inputs built from the seed, passes of library
calls, and the checks applied to every output.

Each workload is one fixed list of library calls (a *pass*) issued by one
caller, each call after the previous one returns, with ``workers=1``.  The
library only ever sees the generated inputs: t-grids, parameter points,
designs and master seeds.

A run must report every end-to-end metric, but each workload's pass makes
only some kinds of call.  After its timed passes a run therefore issues a
small fixed *probe* of each other workload's family of calls; a metric that
the pass produced no samples for is read from the probe.  Probes lie
outside the timed passes, so they never enter ``wall_s``.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
from collections import defaultdict
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from pmsdist import cli, dist_exact, montecarlo
from pmsdist.dist_exact import AccuracyBudget, CdfQuery
from pmsdist.fixtures import fixture
from pmsdist.montecarlo import CHUNK, SimulationPlan
from pmsdist.regression_core import RegressionProblem
from pmsdist.selection import GeneralToSpecific, InformationCriterion, SubsetMask, Thresholding

WORKLOADS = ("exact_grid", "mc_oracle", "plugin_sweeps")

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")
# Reference master seeds start at 2**40; workload master seeds stay below it
# (see _master_seed), so no workload ever replays a reference stream.
REFERENCE_SEED = 2 ** 40

GRID1 = np.linspace(-1.5, 1.5, 9)[:, None]
_AXIS = (-1.0, 0.25, 1.5)
GRID2 = np.array([(a, b) for a in _AXIS for b in _AXIS])   # the criterion-1 grid
E1 = np.array([[1.0, 0.0]])
BUDGET = AccuracyBudget()


def p4_design() -> tuple[RegressionProblem, np.ndarray, GeneralToSpecific, np.ndarray]:
    """P = 4, O = 1, k = 3 design that sends cdf_exact down the sampled path.

    Drawn from a constant design seed, not the workload seed, so that its
    reference values can be frozen in references.json.
    """
    rng = np.random.default_rng(20070410)
    n = 40
    X = np.column_stack([np.ones(n), rng.standard_normal((n, 3))])
    A = np.column_stack([np.eye(3), np.zeros(3)]) + 0.3 * rng.standard_normal((3, 4))
    problem = RegressionProblem(X=X, theta=np.array([0.5, 0.4, 0.25, 0.1]), sigma=1.0, O=1)
    grid = np.array([[0.0, 0.0, 0.0], [1.0, -0.5, 0.5], [-1.0, 1.0, 1.5]])
    return problem, A, GeneralToSpecific(critical=(2.0, 2.0, 2.0)), grid


@dataclass(frozen=True)
class ExactSet:
    """One design/target pair and the t-grid cdf_exact is evaluated on."""

    name: str
    problem: RegressionProblem
    A: np.ndarray
    rule: GeneralToSpecific
    grid: np.ndarray
    cheap: bool   # part of the exact probe


def exact_sets() -> list[ExactSet]:
    out = []
    for fx_name in ("ORTHO2", "COLL2"):
        fx = fixture(fx_name)
        out.append(ExactSet(f"exact.{fx_name}.k2", fx.problem, np.eye(2), fx.rule, GRID2,
                            cheap=fx_name == "ORTHO2"))
        out.append(ExactSet(f"exact.{fx_name}.k1", fx.problem, E1, fx.rule, GRID1, cheap=True))
    problem, A, rule, grid = p4_design()
    out.append(ExactSet("exact.P4.k3", problem, A, rule, grid, cheap=False))
    return out


@dataclass(frozen=True)
class McCase:
    """One mc_oracle case: a one-chunk plan, called ``calls`` times per pass
    with a different master seed each time."""

    name: str       # metric key: mc_<name>_reps_per_s
    plan: SimulationPlan
    grid: np.ndarray
    calls: int


def mc_cases() -> list[McCase]:
    """The four mc_oracle cases, with master seed 0."""
    block = fixture("BLOCK_ORTHO", n=1000)
    ortho = fixture("ORTHO2", n=20)
    coll = fixture("COLL2", n=200, theta=[0.1, 0.1])
    family = tuple(SubsetMask(bits=b) for b in ((0, 0), (1, 0), (0, 1), (1, 1)))
    specs = [
        ("g2s_large_n", block.problem, block.rule, block.A, GRID1, 2),
        ("g2s_small_n", ortho.problem, ortho.rule, ortho.A, GRID2, 4),
        ("ic", coll.problem, InformationCriterion(upsilon_n=2.0, family=family), coll.A,
         GRID2, 2),
        ("threshold", coll.problem, Thresholding(cutoff=(2.0, 2.0)), coll.A, GRID2, 2),
    ]
    return [McCase(name, SimulationPlan(problem=pr, rule=rule, A=A, replications=CHUNK,
                                        master_seed=0), grid, calls)
            for name, pr, rule, A, grid, calls in specs]


def _master_seed(seed: int, case: int, call: int) -> int:
    return ((seed % 2 ** 32) * 16 + case) * 16 + call


# ---------------------------------------------------------------------------
# results of a run
# ---------------------------------------------------------------------------

class Results:
    """Timed intervals and values per metric key, checks, and sweep report times.

    ``timed[key]`` holds (start, end, work) per call, in raw perf_counter
    seconds; the runner converts them with the run's gauge.
    """

    def __init__(self, gauge):
        self.gauge = gauge
        self.timed: dict[str, list[tuple[float, float, float]]] = defaultdict(list)
        self.calls: list[tuple[float, float]] = []
        self.values: dict[str, list[float]] = defaultdict(list)
        self.checks = 0
        self.failures: list[str] = []
        self.sweep_wall_s = 0.0

    def call(self, fn, *args, **kwargs):
        """(result, start, end) of one library call, after a gauge tick."""
        self.gauge.tick()
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        t1 = perf_counter()
        self.calls.append((t0, t1))
        return out, t0, t1

    def check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(what)


def load_references() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)["sets"]


def _reference(refs: dict, name: str, grid: np.ndarray):
    ref = refs[name]
    if not np.array_equal(np.asarray(ref["grid"], dtype=float), grid):
        raise RuntimeError(f"reference grid of {name} does not match the workload")
    return np.asarray(ref["estimates"]), np.asarray(ref["standard_errors"])


# ---------------------------------------------------------------------------
# the three families of calls
# ---------------------------------------------------------------------------

class ExactFamily:
    """cdf_exact at the default AccuracyBudget on fixed t-grids.

    The default budget fixes the sampling seed, so the seed only sets the
    order in which the points are issued.
    """

    def __init__(self, seed: int, refs: dict, probe: bool):
        self.points = []
        for s in exact_sets():
            if probe and not s.cheap:
                continue
            est, se = _reference(refs, s.name, s.grid)
            for i, t in enumerate(s.grid):
                query = CdfQuery(A=s.A, t=t, theta=s.problem.theta, sigma=1.0, rule=s.rule)
                self.points.append((f"{s.name}[{i}]", s.problem, query, est[i], se[i]))
        order = np.random.default_rng(abs(seed)).permutation(len(self.points))
        self.points = [self.points[i] for i in order]

    def run(self, res: Results) -> None:
        for label, problem, query, ref, ref_se in self.points:
            out, t0, t1 = res.call(dist_exact.cdf_exact, problem, query, BUDGET)
            record_exact(res, query, out, t0, t1)
            # criterion 1's rule: within 4 reference SEs plus the reported error
            res.check(abs(out.value - ref) <= 4.0 * ref_se + out.abs_error,
                      f"{label}: value {out.value:.6f} vs reference {ref:.6f} "
                      f"(SE {ref_se:.1e}, abs_error {out.abs_error:.1e})")


def record_exact(res: Results, query: CdfQuery, out, t0: float, t1: float) -> None:
    key = "exact_k1_point_s" if query.A.shape[0] == 1 else "exact_kvec_point_s"
    res.timed[key].append((t0, t1, 1.0))
    res.values["exact_abs_error"].append(out.abs_error)
    res.values["exact_budget_met"].append(float(out.abs_error <= BUDGET.tol))
    res.check(0.0 <= out.value <= 1.0 and np.isfinite(out.abs_error),
              f"cdf_exact at t={query.t.tolist()} returned {out.value}, {out.abs_error}")


class McFamily:
    """empirical_cdf for the four oracle cases, one chunk per call, keyed by
    seed-derived master seeds.  The probe makes two calls per case."""

    def __init__(self, seed: int, refs: dict, probe: bool):
        self.calls = [(case, replace(case.plan, master_seed=_master_seed(seed, i, j)))
                      for i, case in enumerate(mc_cases())
                      for j in range(2 if probe else case.calls)]
        self.refs = {case.name: _reference(refs, f"mc.{case.name}", case.grid)
                     for case in mc_cases()}

    def run(self, res: Results) -> None:
        for case, plan in self.calls:
            emp, t0, t1 = res.call(montecarlo.empirical_cdf, plan, case.grid, workers=1)
            sample = (t0, t1, float(plan.replications))
            res.timed[f"mc_{case.name}_reps_per_s"].append(sample)
            res.timed["mc_reps"].append(sample)
            self._check(res, case, emp)

    def _check(self, res: Results, case: McCase, emp) -> None:
        res.check(emp.valid + emp.degenerate_count == case.plan.replications,
                  f"mc.{case.name}: valid + degenerate != replications")
        mix = sum(emp.conditional[key] * count for key, count in emp.model_counts.items())
        res.check(bool(np.allclose(mix / emp.valid, emp.estimates, rtol=0.0, atol=1e-12)),
                  f"mc.{case.name}: sum conditional*counts/valid != estimates")
        ref, ref_se = self.refs[case.name]
        # An estimate's own error bound is five of its standard errors, taken
        # at the reference probability so that an estimate of 0 or 1 is not
        # given a zero error.
        own = 5.0 * np.sqrt(ref * (1.0 - ref) / emp.valid)
        bad = np.abs(emp.estimates - ref) > 4.0 * ref_se + own
        for i in np.nonzero(bad)[0]:
            res.check(False, f"mc.{case.name}[{i}]: estimate {emp.estimates[i]:.5f} vs "
                             f"reference {ref[i]:.5f}")
        res.checks += int((~bad).sum())


def _run_cli(argv: list[str]) -> tuple[int, dict | None]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    try:
        return rc, json.loads(buf.getvalue())
    except json.JSONDecodeError:
        return rc, None


class SweepFamily:
    """Scripted experiments through the CLI, plus the scalar queries they make.

    The direct queries repeat the tube sweep's pattern (P1 at each n of the
    ladder, drifted theta, t = 0) so that the per-point cost of cdf_exact in
    this use is measured with tracing off.
    """

    LADDER = (100, 400, 1600)

    def __init__(self, seed: int, probe: bool):
        s = str(seed % 2 ** 31)
        self.probe = probe
        ladder = ",".join(str(n) for n in (self.LADDER[:2] if probe else self.LADDER))
        imp_ladder = "400,1600" if probe else ladder
        self.imp_reps = 256 if probe else 2000
        self.commands = [
            ["sweep", "impossibility", "--fixture", "P1", "--t", "0.0", "--gamma", "1.25",
             "--delta0", "0.1", "--n-ladder", imp_ladder, "--reps", str(self.imp_reps),
             "--workers", "1", "--seed", s],
            ["sweep", "tube", "--fixture", "P1", "--t", "0.0", "--rho-grid", "1",
             "--n-ladder", ladder, "--n-gamma", "3" if probe else "9", "--seed", s],
            ["sweep", "convergence", "--fixture", "P1", "--t", "0.3", "--gamma", "0.7",
             "--n-ladder", ladder, "--seed", s],
            ["sweep", "aic-audit", "--fixture", "COLL2", "--instances",
             "100" if probe else "2000", "--n-ladder", "20,200,2000", "--seed", s],
        ]
        self.imp_replications = 2 * self.imp_reps * len(imp_ladder.split(","))
        self.queries = []
        if not probe:
            base = fixture("P1")
            for n in self.LADDER:
                fx_n = base.at_n(n)
                for lam in np.linspace(-0.999, 0.999, 9):
                    self.queries.append((fx_n.problem, CdfQuery(
                        A=fx_n.A, t=[0.0], theta=[lam / np.sqrt(n)], sigma=1.0,
                        rule=fx_n.rule)))

    def run(self, res: Results) -> None:
        for argv in self.commands:
            (rc, payload), t0, t1 = res.call(_run_cli, argv)
            label = " ".join(argv[:2])
            ok = rc == 0 and payload is not None and payload.get("passed") is True
            res.check(ok, f"{label}: exit {rc}, passed {payload and payload.get('passed')}")
            if payload is not None:
                res.sweep_wall_s += payload["wall_clock_s"]
            if argv[1] == "impossibility" and not self.probe:
                res.timed["mc_reps"].append((t0, t1, float(self.imp_replications)))
            if argv[1] == "aic-audit":
                res.check(bool(payload and payload["verdicts"].get("zero_disagreements")),
                          "aic-audit: the IC choice disagrees with the exact threshold")
        for problem, query in self.queries:
            out, t0, t1 = res.call(dist_exact.cdf_exact, problem, query, BUDGET)
            record_exact(res, query, out, t0, t1)


# ---------------------------------------------------------------------------
# a workload: its pass and the probes of the other families
# ---------------------------------------------------------------------------

class Workload:
    def __init__(self, name: str, seed: int, refs: dict):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        family = {"exact_grid": lambda probe: ExactFamily(seed, refs, probe),
                  "mc_oracle": lambda probe: McFamily(seed, refs, probe),
                  "plugin_sweeps": lambda probe: SweepFamily(seed, probe)}
        self.main = family[name](False)
        self.probes = [family[w](True) for w in WORKLOADS if w != name]

    def run_pass(self, res: Results) -> None:
        self.main.run(res)

    def run_probes(self, res: Results) -> None:
        for probe in self.probes:
            probe.run(res)


def warm_up() -> None:
    """One cheap call per library entry point the workloads use."""
    fx = fixture("ORTHO2")
    dist_exact.cdf_exact(fx.problem, CdfQuery(A=fx.A, t=[0.25, 0.25], theta=fx.problem.theta,
                                              sigma=1.0, rule=fx.rule), BUDGET)
    montecarlo.empirical_cdf(SimulationPlan(problem=fx.problem, rule=fx.rule, A=fx.A,
                                            replications=1024, master_seed=1), GRID2,
                             workers=1)
    rc, _ = _run_cli(["sweep", "convergence", "--fixture", "P1", "--t", "0.3",
                      "--gamma", "0.7", "--n-ladder", "100"])
    if rc != 0:
        raise RuntimeError(f"warm-up sweep exited {rc}")
