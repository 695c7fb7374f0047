"""Scripted stress tests of the distribution theory, each a pure function
of (config, master_seed) emitting a SweepReport.

convergence_sweep     finite-n cdf at drifting parameters vs the limit cdf.
tube_sweep            sup of |finite-n - pointwise limit| over a shrinking
                      drift neighborhood: stays bounded away from zero.
impossibility_demo    error probability of the consistent plug-in estimator:
                      falls at fixed parameters, rises to 1 under drift.
uniform_case_sweep    in the uncorrelated design, the Gaussian estimator is
                      accurate uniformly over a parameter grid.
aic_equivalence_audit two-model information-criterion selection equals a
                      |t|-threshold rule exactly, and approaches the
                      asymptotic cutoff.

Experiments whose hypotheses fail on the supplied fixture raise
ExperimentRefusal instead of emitting vacuous passes.
"""
from __future__ import annotations

import csv
import functools
import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .cdf_estimators import phi_hat_values
from .dist_exact import AccuracyBudget, CdfQuery, CdfResult, cdf_exact, cdf_exact_rows
from .dist_limit import LocalAlternative, cdf_limit, limit_nonconstancy_scan
from .errors import ExperimentRefusal, ValidationError
from .fixtures import Fixture
from .montecarlo import (
    SimulationPlan,
    _draw_errors,
    empirical_cdf,
    estimator_error_probability,
    replicate,
    simulate_response,
)
from .regression_core import RegressionProblem, order_of
from .selection import (
    GeneralToSpecific,
    InformationCriterion,
    SubsetMask,
    full_model_t_ratios,
    ic_threshold,
    select_ic,
)

# Instances of the AIC audit replayed at each n through the scalar pipeline.
SCALAR_REPLAYS = 10

__all__ = [
    "SweepReport",
    "convergence_sweep",
    "tube_sweep",
    "impossibility_demo",
    "uniform_case_sweep",
    "aic_equivalence_audit",
    "pilot_delta0",
]


@dataclass(frozen=True)
class SweepReport:
    """Tabular experiment outcome plus pass/fail verdicts and provenance."""

    experiment: str
    fixture: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    verdicts: dict[str, bool]
    master_seed: int
    config: dict
    wall_clock_s: float
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            for row in self.rows:
                writer.writerow([repr(v) if isinstance(v, float) else v for v in row])

    def write_manifest(self, path: str) -> None:
        payload = {
            "experiment": self.experiment,
            "fixture": self.fixture,
            "config": self.config,
            "master_seed": self.master_seed,
            "verdicts": self.verdicts,
            "passed": self.passed,
            "notes": list(self.notes),
            "wall_clock_s": self.wall_clock_s,
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _ladder(values, name: str = "n_ladder", kind=int) -> list:
    """``values`` as a list of ``kind``; an empty ladder or grid raises
    ValidationError, since a sweep over no points would pass vacuously."""
    out = [kind(v) for v in values]
    if not out:
        raise ValidationError(f"{name} is empty")
    return out


def convergence_sweep(fixture: Fixture, gamma, t, n_ladder, *,
                      budget: AccuracyBudget | None = None,
                      master_seed: int = 0) -> SweepReport:
    """|finite-n cdf at theta + gamma/sqrt(n)  -  limit cdf| along an n-ladder.

    Verdict: the gap trend is non-increasing up to the combined error bounds,
    and the endpoint gap is at most 0.01 (``endpoint_tol`` in the config).
    """
    start = time.perf_counter()
    budget = budget or AccuracyBudget()
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    n_ladder = _ladder(n_ladder)
    pr = fixture.problem
    alt = LocalAlternative(theta=pr.theta, gamma=gamma, sigma=pr.sigma)
    lim = cdf_limit(fixture.limits, alt, t_arr, fixture.rule, budget)
    rows = []
    gaps, errs = [], []
    for n in n_ladder:
        fx_n = fixture.at_n(n)
        theta_n = pr.theta + gamma / np.sqrt(n)
        res = cdf_exact(fx_n.problem,
                        CdfQuery(A=fixture.A, t=t_arr, theta=theta_n,
                                 sigma=pr.sigma, rule=fixture.rule), budget)
        gap = abs(res.value - lim.value)
        err = res.abs_error + lim.abs_error
        gaps.append(gap)
        errs.append(err)
        rows.append((n, res.value, lim.value, gap, err))
    trend_ok = all(gaps[i + 1] <= gaps[i] + errs[i] + errs[i + 1]
                   for i in range(len(gaps) - 1))
    endpoint_tol = 0.01
    endpoint_ok = gaps[-1] <= endpoint_tol
    verdicts = {"trend_non_increasing": bool(trend_ok),
                "endpoint_within_tol": bool(endpoint_ok)}
    return SweepReport(
        experiment="convergence_sweep", fixture=fixture.name,
        columns=("n", "exact", "limit", "gap", "error_bound"),
        rows=tuple(rows), verdicts=verdicts, master_seed=master_seed,
        config={"gamma": gamma.tolist(), "t": t_arr.tolist(),
                "n_ladder": n_ladder, "endpoint_tol": endpoint_tol,
                "tol": budget.tol},
        wall_clock_s=time.perf_counter() - start)


def tube_sweep(fixture: Fixture, t, rho_grid, n_ladder, *,
               n_gamma: int = 9, delta_report: float = 0.05,
               exterior_min: float | None = None,
               budget: AccuracyBudget | None = None,
               master_seed: int = 0) -> SweepReport:
    """Sup over a shrinking drift neighborhood of |finite-n - pointwise limit|.

    For each n and radius rho, parameters theta + gamma/sqrt(n) with gamma
    along the q_star axis and |gamma| < rho are compared against their OWN
    zero-drift limit; the sup staying >= delta_report across the ladder is
    the non-uniformity phenomenon.  ``exterior_min`` switches to FIXED
    parameters theta + lambda e_{q_star} with |lambda| <= rho restricted to
    |theta_{q_star}| >= exterior_min; on that exterior set the sup falls
    with n.  Refuses when no coordinate stays correlated with the target
    (q_star undefined), or when the exterior filter empties the grid; an
    empty ladder, rho grid or gamma grid (n_gamma < 1) is invalid input.

    At zero drift the shifts beta(p) and drifts nu_p of
    `local_shift_constants` vanish, so a point's own limit depends on it
    only through its true order p_star = max(order_of(theta_n), O): the
    sweep evaluates `cdf_limit` once per p_star met, at most P - O + 1
    times, and reads that result at every other point of the same order.
    The finite-n cdfs of one (n, rho) differ in theta alone: one
    `cdf_exact_rows` call evaluates the lambda the sweep keeps.
    """
    start = time.perf_counter()
    budget = budget or AccuracyBudget()
    limits = fixture.limits
    if limits.q_star is None:
        raise ExperimentRefusal(
            "tube_sweep needs a coordinate asymptotically correlated with "
            "the target (q_star); this fixture has none")
    qs = limits.q_star
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    n_ladder, rho_grid = _ladder(n_ladder), _ladder(rho_grid, "rho_grid", float)
    if n_gamma < 1:
        raise ValidationError(f"n_gamma = {n_gamma} leaves the gamma grid empty")
    pr = fixture.problem
    rows = []
    sups_by_n: dict[int, float] = {}
    own_limits: dict[int, CdfResult] = {}
    for n in n_ladder:
        fx_n = fixture.at_n(n)
        for rho in rho_grid:
            kept, queries = [], []
            for lam in np.linspace(-0.999 * rho, 0.999 * rho, n_gamma):
                step = np.zeros(pr.P)
                step[qs - 1] = lam
                if exterior_min is None:
                    theta_n = pr.theta + step / np.sqrt(n)
                else:
                    theta_n = pr.theta + step
                    if abs(theta_n[qs - 1]) < exterior_min:
                        continue
                p_star = max(order_of(theta_n), limits.O)
                if p_star not in own_limits:
                    own_limits[p_star] = cdf_limit(
                        limits, LocalAlternative(theta=theta_n, gamma=np.zeros(pr.P),
                                                 sigma=pr.sigma),
                        t_arr, fixture.rule, budget)
                kept.append((float(lam), own_limits[p_star]))
                queries.append(CdfQuery(A=fixture.A, t=t_arr, theta=theta_n,
                                        sigma=pr.sigma, rule=fixture.rule))
            if not queries:
                raise ExperimentRefusal(
                    "exterior filter leaves no grid points; widen rho or "
                    "lower exterior_min")
            sup_gap, arg_lam = 0.0, None
            for (lam, own_limit), res in zip(kept, cdf_exact_rows(fx_n.problem, queries, budget)):
                gap = abs(res.value - own_limit.value)
                if gap >= sup_gap:
                    sup_gap, arg_lam = gap, lam
            rows.append((n, float(rho), len(queries), sup_gap,
                         np.nan if arg_lam is None else arg_lam))
            sups_by_n[n] = max(sups_by_n.get(n, 0.0), sup_gap)
    if exterior_min is None:
        verdicts = {"sup_gap_persists": bool(
            all(v >= delta_report for v in sups_by_n.values()))}
    else:
        sup_seq = [sups_by_n[n] for n in n_ladder]
        verdicts = {"exterior_sup_vanishes": bool(
            sup_seq[-1] <= delta_report
            and all(sup_seq[i + 1] <= sup_seq[i] + 0.01
                    for i in range(len(sup_seq) - 1)))}
    return SweepReport(
        experiment="tube_sweep", fixture=fixture.name,
        columns=("n", "rho", "grid_points", "sup_gap", "argmax_gamma"),
        rows=tuple(rows), verdicts=verdicts, master_seed=master_seed,
        config={"t": t_arr.tolist(), "rho_grid": rho_grid,
                "n_ladder": n_ladder, "n_gamma": n_gamma,
                "delta_report": delta_report, "exterior_min": exterior_min,
                "tol": budget.tol},
        wall_clock_s=time.perf_counter() - start,
        notes=("The reported sup is over a finite grid: it certifies a "
               "positive lower bound for the true sup, not the liminf "
               "constant itself.",))


def pilot_delta0(fixture: Fixture, t, gamma_axis: int, lam_grid, *,
                 budget: AccuracyBudget | None = None) -> float:
    """Quarter of the limit-cdf oscillation along one drift axis.

    The proof technique bounds the achievable error by half the oscillation
    of gamma -> limit cdf; taking a quarter leaves a safety margin for
    finite-n and Monte Carlo slack.  gamma_axis is 1-based, in [1, P].
    """
    pr = fixture.problem
    if not 1 <= gamma_axis <= pr.P:
        raise ValidationError(f"gamma_axis must lie in [1, {pr.P}], got {gamma_axis!r}")
    grid = np.zeros((len(lam_grid), pr.P))
    grid[:, gamma_axis - 1] = np.asarray(lam_grid, dtype=float)
    report = limit_nonconstancy_scan(fixture.limits, pr.theta, pr.sigma,
                                     np.atleast_1d(np.asarray(t, dtype=float)),
                                     fixture.rule, grid, budget)
    return float(report.oscillation / 4.0)


def impossibility_demo(fixture: Fixture, t, gamma, delta0: float | None,
                       n_ladder, replications: int, *,
                       rule=None, master_seed: int = 0,
                       workers: int | None = None,
                       aux_scheme: str = "sqrt_log_n",
                       budget: AccuracyBudget | None = None) -> SweepReport:
    """Paired error-probability curves of the plug-in cdf estimator.

    At each n the same replication streams drive two curves: the frequency
    of {|estimate - truth| > delta0} at fixed theta (falls with n) and at
    theta + gamma/sqrt(n) (rises toward 1).  Both come from one paired
    `estimator_error_probability` call per n, which draws each chunk's
    noise once and evaluates the plug-in once over both points' rows.
    delta0 = None auto-calibrates via pilot_delta0 along the drift axis.

    ``rule=None`` uses the fixture's sequential rule.  A two-model
    information criterion (full model vs drop-last) is run as its exact
    |t|-threshold equivalent: the sequential rule with protected order
    P - 1 and critical value `ic_threshold(n, P, upsilon_n)` (ties have
    probability 0).  Either way both reference cdfs are exact under the
    rule that is run, the two rows of one `cdf_exact_rows` call per n.
    Refuses when the drift coordinate is uncorrelated with the target.
    """
    start = time.perf_counter()
    budget = budget or AccuracyBudget()
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    n_ladder = _ladder(n_ladder)
    pr = fixture.problem
    if gamma.shape != (pr.P,):
        raise ValidationError(f"gamma must be a vector of length P = {pr.P}")
    rule = fixture.rule if rule is None else rule

    if isinstance(rule, GeneralToSpecific):
        if fixture.limits.q_star is None:
            raise ExperimentRefusal(
                "impossibility_demo needs q_star defined; this fixture's "
                "later-stage fits are uncorrelated with the target")
        drift_axis = fixture.limits.q_star
        mask_mode = False
    elif isinstance(rule, InformationCriterion):
        P = pr.P
        expect = {SubsetMask.full(P), SubsetMask(bits=(1,) * (P - 1) + (0,))}
        if set(rule.family) != expect:
            raise ExperimentRefusal(
                "information-criterion mode supports exactly the family "
                "{full model, drop-last}")
        C_P = fixture.A @ np.linalg.solve(fixture.Q, np.eye(P)[:, P - 1])
        if not np.any(np.abs(C_P) > 1e-12):
            raise ExperimentRefusal(
                "drop-last selection is uncorrelated with the target "
                "(A Q^{-1} e_P = 0); hypothesis violated")
        drift_axis = P
        mask_mode = True
    else:
        raise ExperimentRefusal(f"unsupported rule {type(rule).__name__}")

    if delta0 is None:
        delta0 = pilot_delta0(fixture, t_arr, drift_axis,
                              np.linspace(-4.0, 4.0, 9), budget=budget)
    if delta0 <= 0:
        raise ExperimentRefusal("pilot oscillation is zero; nothing to demonstrate")

    rows = []
    fall_last = rise_last = np.nan
    for n in n_ladder:
        fx_n = fixture.at_n(n)
        theta0 = pr.theta
        theta1 = pr.theta + gamma / np.sqrt(n)
        base, run_rule = fx_n.problem, fixture.rule
        if mask_mode:
            base = RegressionProblem(X=base.X, theta=theta0, sigma=pr.sigma, O=pr.P - 1)
            run_rule = GeneralToSpecific(critical=(ic_threshold(n, pr.P, rule.upsilon_n),))
        refs = [res.value for res in cdf_exact_rows(
            base, [CdfQuery(A=fixture.A, t=t_arr, theta=theta, sigma=pr.sigma, rule=run_rule)
                   for theta in (theta0, theta1)], budget)]
        plans = [SimulationPlan(problem=prob, rule=run_rule, A=fixture.A,
                                replications=replications, master_seed=master_seed)
                 for prob in (base, replace(base, theta=theta1))]
        vals = estimator_error_probability(plans, t_arr, refs, delta0, workers=workers,
                                           aux_scheme=aux_scheme, budget=budget)
        fall_last, rise_last = vals
        rows.append((n, refs[0], refs[1], vals[0], vals[1]))
    verdicts = {"fixed_theta_error_falls": bool(fall_last <= 0.1),
                "drifting_theta_error_rises": bool(rise_last >= 0.9)}
    return SweepReport(
        experiment="impossibility_demo", fixture=fixture.name,
        columns=("n", "reference_fixed", "reference_drift",
                 "error_prob_fixed", "error_prob_drift"),
        rows=tuple(rows), verdicts=verdicts, master_seed=master_seed,
        config={"t": t_arr.tolist(), "gamma": gamma.tolist(),
                "delta0": float(delta0),
                "n_ladder": n_ladder,
                "replications": replications, "aux_scheme": aux_scheme,
                "rule_mode": "ic_two_model" if mask_mode else "g2s",
                "tol": budget.tol},
        wall_clock_s=time.perf_counter() - start)


def uniform_case_sweep(fixture: Fixture, theta_grid, t, n_ladder, *,
                       replications: int = 200_000, est_draws: int = 200,
                       order: int | None = None, gap_tol: float = 0.02,
                       master_seed: int = 0,
                       workers: int | None = None) -> SweepReport:
    """Uncorrelated-design check: the Gaussian plug-in tracks the truth
    uniformly over a theta grid.

    Per n, the metric is the max over theta of |mean Gaussian-estimator
    value - Monte Carlo cdf| at t, the mean over est_draws (a positive
    integer) draws of sigma_hat; verdict: non-increasing up to Monte Carlo
    slack and final value <= gap_tol.  Refuses on fixtures whose
    later-stage fits correlate with the target.
    """
    start = time.perf_counter()
    if fixture.limits.q_star is not None:
        raise ExperimentRefusal(
            "uniform_case_sweep applies to uncorrelated designs only "
            f"(q_star = {fixture.limits.q_star} here)")
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    theta_grid = np.atleast_2d(np.asarray(theta_grid, dtype=float))
    n_ladder = _ladder(n_ladder)
    pr = fixture.problem
    if not (isinstance(est_draws, (int, np.integer)) and est_draws >= 1):
        raise ValidationError(f"est_draws must be a positive integer, got {est_draws!r}")
    if theta_grid.shape[1] != pr.P:
        raise ValidationError("theta grid width must equal P")
    p_used = pr.P if order is None else int(order)
    rows = []
    sup_seq = []
    slack = 0.0
    for n in n_ladder:
        fx_n = fixture.at_n(n)
        sup_gap = 0.0
        # sigma_hat does not depend on theta: one set of draws per n
        chi2 = _draw_errors(fx_n.problem, master_seed + 1, 0, est_draws)[:, -1]
        sig = fx_n.problem.sigma * np.sqrt(chi2 / fx_n.problem.dof)
        for theta in theta_grid:
            prob = replace(fx_n.problem, theta=theta)
            plan = SimulationPlan(problem=prob, rule=fixture.rule, A=fixture.A,
                                  replications=replications,
                                  master_seed=master_seed)
            emp = empirical_cdf(plan, [t_arr], workers=workers)
            phis = phi_hat_values(prob, fixture.A, p_used, t_arr, sig)
            gap = abs(float(np.mean(phis)) - float(emp.estimates[0]))
            se = float(emp.standard_errors[0]) + float(np.std(phis) / np.sqrt(est_draws))
            slack = max(slack, 4.0 * se)
            sup_gap = max(sup_gap, gap)
            rows.append((n, *[float(v) for v in theta],
                         float(np.mean(phis)), float(emp.estimates[0]), gap))
        sup_seq.append(sup_gap)
    verdicts = {
        "final_sup_within_tol": bool(sup_seq[-1] <= gap_tol),
        "trend_non_increasing": bool(all(
            sup_seq[i + 1] <= sup_seq[i] + slack for i in range(len(sup_seq) - 1))),
    }
    return SweepReport(
        experiment="uniform_case_sweep", fixture=fixture.name,
        columns=("n", *[f"theta_{i + 1}" for i in range(pr.P)],
                 "estimator_mean", "mc_cdf", "gap"),
        rows=tuple(rows), verdicts=verdicts, master_seed=master_seed,
        config={"t": t_arr.tolist(), "theta_grid": theta_grid.tolist(),
                "n_ladder": n_ladder,
                "replications": replications, "est_draws": est_draws,
                "order": p_used, "gap_tol": gap_tol},
        wall_clock_s=time.perf_counter() - start)


def aic_equivalence_audit(fixture: Fixture, instances: int, *,
                          n_ladder=(20, 200, 2000), upsilon: float = 2.0,
                          master_seed: int = 0) -> SweepReport:
    """Two-model IC selection vs the exact and asymptotic |t| thresholds.

    Part one replays ``instances`` simulated selections at the fixture's own
    n and counts disagreements between the IC minimizer and the exact
    threshold sqrt((n-P)(e^{upsilon/n}-1)) on the dropped coordinate's
    t-ratio (must be zero).  Part two tracks, along an n-ladder, the
    frequency of the symmetric difference between the IC decision and the
    asymptotic cutoff sqrt(upsilon) (must shrink).  Each n runs the
    vectorized IC kernel over all instances; the first SCALAR_REPLAYS of
    them are also replayed through ``select_ic`` and ``full_model_t_ratios``
    on the full response, and a replay that departs from the kernel or from
    the exact threshold counts as a disagreement.  Each n is replicated
    and replayed once (the fixture's own n is often the first rung), and
    a rung reads its symmetric difference off that n's decisions; the
    disagreements of both parts are still counted, as at distinct n.
    """
    start = time.perf_counter()
    n_ladder = _ladder(n_ladder)
    pr = fixture.problem
    P = pr.P
    full = SubsetMask.full(P)
    rstar = SubsetMask(bits=(1,) * (P - 1) + (0,))
    ic_rule = InformationCriterion(upsilon_n=float(upsilon), family=(full, rstar))
    rows = []

    @functools.cache
    def _run(n: int):
        """(ic_vs_exact disagreements, usable mask, IC picked the full
        model, |t| of the dropped coordinate) at n."""
        prob = fixture.at_n(n).problem
        c_n = ic_threshold(n, P, float(upsilon))
        reps = replicate(SimulationPlan(problem=prob, rule=ic_rule, A=fixture.A,
                                        replications=instances, master_seed=master_seed))
        ok = reps.valid
        picked_full = np.array([m == full for m in reps.models])[reps.model_index]
        t_drop = np.abs(reps.t_ratios[:, P - 1])
        disagree = int(np.sum(ok & (picked_full != (t_drop > c_n))))
        for i in np.nonzero(ok)[0][:SCALAR_REPLAYS]:
            Y = simulate_response(prob, (master_seed, int(i)))
            scalar_full = select_ic(prob, Y, ic_rule) == full
            t_scalar = abs(full_model_t_ratios(prob, Y)[P - 1])
            disagree += int(scalar_full != picked_full[i] or scalar_full != (t_scalar > c_n))
        return disagree, ok, picked_full, t_drop

    disagree0, ok, _, _ = _run(pr.n)
    used0 = int(ok.sum())
    rows.append(("exact_threshold_audit", pr.n, used0, disagree0,
                 disagree0 / used0 if used0 else 0.0))
    sym_freqs = []
    cutoff = float(np.sqrt(upsilon))
    for n in n_ladder:
        disagree_n, ok, picked_full, t_drop = _run(n)
        symdiff_n = int(np.sum(ok & (picked_full != (t_drop >= cutoff))))
        used_n = int(ok.sum())
        disagree0 += disagree_n
        freq = symdiff_n / used_n if used_n else 0.0
        sym_freqs.append(freq)
        rows.append(("asymptotic_cutoff_symdiff", n, used_n, symdiff_n, freq))
    verdicts = {
        "zero_disagreements": bool(disagree0 == 0),
        "symdiff_non_increasing": bool(all(
            sym_freqs[i + 1] <= sym_freqs[i] for i in range(len(sym_freqs) - 1))),
    }
    return SweepReport(
        experiment="aic_equivalence_audit", fixture=fixture.name,
        columns=("metric", "n", "instances_used", "count", "frequency"),
        rows=tuple(rows), verdicts=verdicts, master_seed=master_seed,
        config={"instances": instances, "n_ladder": n_ladder,
                "upsilon": float(upsilon)},
        wall_clock_s=time.perf_counter() - start)
