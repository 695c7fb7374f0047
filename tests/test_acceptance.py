"""End-to-end acceptance checks, one per headline guarantee of the package.

Each test exercises one advertised property at full scale — exact-formula
accuracy against simulation, limit values, evaluation-path agreement,
density consistency, the uncorrelated reduction, non-uniformity of the
convergence, the impossibility demonstration, the information-criterion
equivalence, and the structural invariants — and prints a single PASS/FAIL
line with the measured margin.
"""

import contextlib
import io

import numpy as np

from pmsdist.cli import main
from pmsdist.dist_exact import AccuracyBudget, CdfQuery, cdf_exact
from pmsdist.dist_limit import (
    LocalAlternative,
    cdf_limit,
    cdf_limit_via_integral,
    full_model_gaussian_cdf,
    pdf_limit,
)
from pmsdist.experiments import (
    aic_equivalence_audit,
    convergence_sweep,
    impossibility_demo,
    tube_sweep,
    uniform_case_sweep,
)
from pmsdist.fixtures import fixture, random_k1_limit_case
from pmsdist.montecarlo import SimulationPlan, empirical_cdf
from pmsdist.regression_core import limit_quantities, projection_quantities

BUDGET = AccuracyBudget()               # default: tol 1e-5, 1e5 z-draws
FAST = AccuracyBudget(tol=1e-6)         # scalar targets use the closed form
WORKERS = 4


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _alt(theta, gamma, sigma: float = 1.0) -> LocalAlternative:
    return LocalAlternative(theta=np.asarray(theta, dtype=float),
                            gamma=np.asarray(gamma, dtype=float), sigma=sigma)


def test_criterion_1_exact_cdf_matches_monte_carlo():
    # finite-sample formula vs a 2e5-replication empirical cdf, per point
    # within 4 simulation standard errors plus the reported formula error
    worst, points = 0.0, 0
    for name in ("ORTHO2", "COLL2"):
        fx = fixture(name)
        for A in (np.eye(2), np.array([[1.0, 0.0]])):
            if A.shape[0] == 2:
                axis = (-1.0, 0.25, 1.5)
                grid = np.array([(a, b) for a in axis for b in axis])
            else:
                grid = np.linspace(-1.5, 1.5, 9)[:, None]
            plan = SimulationPlan(problem=fx.problem, rule=fx.rule, A=A,
                                  replications=200_000, master_seed=11)
            emp = empirical_cdf(plan, grid, workers=WORKERS)
            for i, t in enumerate(grid):
                res = cdf_exact(fx.problem,
                                CdfQuery(A=A, t=t, theta=fx.problem.theta,
                                         sigma=1.0, rule=fx.rule), BUDGET)
                allowed = 4.0 * emp.standard_errors[i] + res.abs_error
                worst = max(worst, abs(res.value - emp.estimates[i]) / allowed)
                points += 1
    _report(1, "exact cdf vs simulation", worst <= 1.0,
            f"max gap/(4*SE + abs_error) = {worst:.3f} over {points} points")


def test_criterion_2_limit_value_and_large_n_agreement():
    # the protected scalar design at the null: the limit cdf at t = 0 is the
    # normal cdf at the critical value, and the n = 5000 finite-sample cdf
    # sits within 0.003 of it
    fx = fixture("P1")
    lim = cdf_limit(fx.limits, _alt([0.0], [0.0]), [0.0], fx.rule, FAST).value
    big = fx.at_n(5000)
    res = cdf_exact(big.problem,
                    CdfQuery(A=big.A, t=[0.0], theta=big.problem.theta,
                             sigma=1.0, rule=big.rule), BUDGET)
    gap_value = abs(lim - 0.975)
    gap_n = abs(res.value - lim)
    _report(2, "limit value at the null", gap_value <= 1e-4 and gap_n <= 3e-3,
            f"|limit - 0.975| = {gap_value:.2e}, |exact(n=5000) - limit| = {gap_n:.2e}")


def test_criterion_3_two_evaluation_paths_agree():
    # the direct representation and the conditioning integral are two
    # routes to the same limit cdf: they agree within the sum of their
    # reported errors
    worst, ratio = 0.0, 0.0
    for seed in range(10):
        limits, theta, gamma, sigma, rule, t = random_k1_limit_case(seed)
        alt = LocalAlternative(theta=theta, gamma=gamma, sigma=sigma)
        a = cdf_limit(limits, alt, t, rule, FAST)
        b = cdf_limit_via_integral(limits, alt, t, rule, FAST)
        worst = max(worst, abs(a.value - b.value))
        ratio = max(ratio, abs(a.value - b.value) / (a.abs_error + b.abs_error))
    _report(3, "two evaluation paths", ratio <= 1.0,
            f"max |direct - integral| = {worst:.2e}, max gap/(sum of abs_errors) = "
            f"{ratio:.3f} over 10 randomized cases")


def test_criterion_4_density_is_derivative_of_cdf():
    # central finite differences of the limit cdf reproduce the density on
    # 50 scalar-target points across two designs
    coll = fixture("COLL2")
    cases = [
        (fixture("P1").limits, [0.5], [0.7], fixture("P1").rule,
         np.linspace(-3.0, 3.0, 25)),
        (limit_quantities(coll.Q, np.array([[1.0, 0.0]]), O=0),
         [0.8, 0.0], [0.3, -0.4], coll.rule, np.linspace(-2.5, 2.5, 25)),
    ]
    h, worst = 1e-2, 0.0
    for limits, theta, gamma, rule, grid in cases:
        alt = _alt(theta, gamma)
        for t in grid:
            hi = cdf_limit(limits, alt, [t + h], rule, FAST).value
            lo = cdf_limit(limits, alt, [t - h], rule, FAST).value
            fd = (hi - lo) / (2.0 * h)
            worst = max(worst, abs(pdf_limit(limits, alt, [t], rule) - fd))
    _report(4, "density vs cdf derivative", worst <= 1e-4,
            f"max |pdf - finite difference| = {worst:.2e} over 50 points")


def test_criterion_5_uncorrelated_target_reduction():
    # when the target is uncorrelated with every later-stage statistic the
    # limit collapses to the full-model Gaussian, and the plug-in estimator
    # tracks the empirical cdf uniformly over the coefficient grid
    fx = fixture("BLOCK_ORTHO")
    worst = 0.0
    for gamma in ([0.0, 0.0], [0.8, -0.5], [-1.5, 2.2]):
        for t in np.linspace(-3.0, 3.0, 13):
            val = cdf_limit(fx.limits, _alt(fx.problem.theta, gamma),
                            [t], fx.rule, FAST).value
            worst = max(worst, abs(val - full_model_gaussian_cdf(fx.limits, 1.0, [t])))
    grid = [(0.5, v) for v in (-0.5, -0.2, 0.0, 0.05, 0.5)]
    rep = uniform_case_sweep(fx, grid, [0.0], (400, 1000), gap_tol=0.02,
                             master_seed=0, workers=WORKERS)
    i_n, i_gap = rep.columns.index("n"), rep.columns.index("gap")
    final = max(row[i_gap] for row in rep.rows if row[i_n] == 1000)
    _report(5, "uncorrelated reduction",
            worst <= 1e-6 and rep.passed and final <= 0.02,
            f"max |limit - Gaussian| = {worst:.2e}; "
            f"max over-theta estimator gap at n=1000 = {final:.4f}")


def test_criterion_6_convergence_is_not_uniform():
    # along the adversarial drift tube the finite-sample/limit gap persists
    # at every n, while at any fixed coefficient it vanishes
    tube = tube_sweep(fixture("P1"), [0.0], [1.0], (100, 400, 1600),
                      n_gamma=9, delta_report=0.05, budget=BUDGET)
    i_sup = tube.columns.index("sup_gap")
    sups = [row[i_sup] for row in tube.rows]
    conv = convergence_sweep(fixture("P1"), [0.0], [0.3], (100, 400, 1600),
                             budget=BUDGET)
    end = conv.rows[-1][conv.columns.index("gap")]
    _report(6, "non-uniform convergence",
            tube.passed and min(sups) >= 0.05 and conv.passed and end <= 0.01,
            f"tube sup-gap by n = {['%.3f' % s for s in sups]}, "
            f"fixed-coefficient endpoint gap = {end:.2e}")


def test_criterion_7_no_uniformly_consistent_estimator():
    # pilot: place the drift where the limit value is far from both values
    # the plug-in estimator can settle on (the zero-drift limit and the
    # full-model Gaussian), then demonstrate the dichotomy at scale
    fx = fixture("P1")
    t = [0.0]
    k0 = cdf_limit(fx.limits, _alt([0.0], [0.0]), t, fx.rule, FAST).value
    kinf = full_model_gaussian_cdf(fx.limits, 1.0, t)
    gamma_star, dist = 0.0, 0.0
    for g in np.linspace(0.25, 3.0, 12):
        kg = cdf_limit(fx.limits, _alt([0.0], [g]), t, fx.rule, FAST).value
        d = min(abs(kg - k0), abs(kg - kinf))
        if d > dist:
            gamma_star, dist = float(g), d
    delta0 = 0.5 * dist
    rep = impossibility_demo(fx, t, [gamma_star], delta0, (100, 400, 1600),
                             2000, master_seed=7, workers=WORKERS)
    i_n = rep.columns.index("n")
    last = next(r for r in rep.rows if r[i_n] == 1600)
    rise = last[rep.columns.index("error_prob_drift")]
    fall = last[rep.columns.index("error_prob_fixed")]
    _report(7, "impossibility of uniform estimation",
            rep.passed and rise >= 0.9 and fall <= 0.1,
            f"pilot gamma = {gamma_star:.2f}, delta0 = {delta0:.3f}; at n=1600 "
            f"drift error prob = {rise:.3f}, fixed error prob = {fall:.3f}")


def test_criterion_8_information_criterion_equivalence():
    # penalized selection equals the exact |T| threshold instance by
    # instance, and its disagreement with the asymptotic sqrt(2) cutoff
    # dies out along the sample-size ladder
    rep = aic_equivalence_audit(fixture("COLL2"), 10_000,
                                n_ladder=(20, 200, 2000), upsilon=2.0,
                                master_seed=0)
    i_m, i_c = rep.columns.index("metric"), rep.columns.index("count")
    audits = [r[i_c] for r in rep.rows if r[i_m] == "exact_threshold_audit"]
    freqs = [r[rep.columns.index("frequency")] for r in rep.rows
             if r[i_m] == "asymptotic_cutoff_symdiff"]
    ok = rep.passed and all(c == 0 for c in audits) and \
        all(a >= b for a, b in zip(freqs, freqs[1:]))
    _report(8, "information-criterion equivalence", ok,
            f"threshold disagreements = {audits}, "
            f"asymptotic-cutoff symmetric-difference frequency by n = {freqs}")


def test_criterion_9_structural_invariants(tmp_path):
    # (a) the residual variance term is invariant to the generalized inverse
    zeta_dev = 0.0
    for name in ("ORTHO2", "COLL2"):
        fx = fixture(name)
        dq = projection_quantities(fx.problem, np.eye(2))
        for p in range(1, fx.problem.P + 1):
            Ap = np.eye(2)[:, :p]
            omega = Ap @ np.linalg.solve(fx.problem.gram[:p, :p], Ap.T)
            lam, vec = np.linalg.eigh(0.5 * (omega + omega.T))
            keep = lam > 1e-12 * lam.max()
            rng = np.random.Generator(np.random.Philox(p))
            for _ in range(3):
                inv = rng.standard_normal(lam.shape)   # garbage off the range
                inv[keep] = 1.0 / lam[keep]
                g_alt = (vec * inv) @ vec.T
                zeta2 = dq.xi(p) ** 2 - dq.C(p) @ g_alt @ dq.C(p)
                zeta_dev = max(zeta_dev, abs(max(zeta2, 0.0) - dq.zeta(p) ** 2))
    ok_zeta = zeta_dev <= 1e-10

    # (b) the covariance between the target and the trailing coefficient
    # matches sigma^2 C / n over 1e5 replications
    pr = fixture("COLL2").problem
    reps = 100_000
    rng = np.random.Generator(np.random.Philox(77))
    Y = (pr.X @ pr.theta)[None, :] + pr.sigma * rng.standard_normal((reps, pr.n))
    ok_cov, cov_ratio = True, 0.0
    for p in (1, 2):
        q, r = pr._qr[p - 1]
        coefs = np.linalg.solve(r, (Y @ q).T).T
        target = coefs @ np.eye(2)[:, :p].T
        trailing = coefs[:, -1]
        want = pr.sigma ** 2 * projection_quantities(pr, np.eye(2)).C(p) / pr.n
        got = np.array([np.cov(target[:, j], trailing)[0, 1] for j in range(2)])
        se = np.sqrt(np.var(target, axis=0) * np.var(trailing) + got ** 2) / np.sqrt(reps)
        ok_cov = ok_cov and bool(np.all(np.abs(got - want) <= 4.0 * se))
        nz = se > 0   # coordinates outside the fitted model are exactly zero
        cov_ratio = max(cov_ratio, float(np.max(np.abs(got - want)[nz] / se[nz])))

    # (c) both cdfs are non-decreasing along increasing grids
    coll = fixture("COLL2")
    A1 = np.array([[1.0, 0.0]])
    exact = [cdf_exact(coll.problem,
                       CdfQuery(A=A1, t=[t], theta=coll.problem.theta,
                                sigma=1.0, rule=coll.rule), BUDGET).value
             for t in np.linspace(-2.5, 2.5, 11)]
    p1 = fixture("P1")
    lim = [cdf_limit(p1.limits, _alt([0.0], [0.6]), [t], p1.rule, FAST).value
           for t in np.linspace(-3.0, 3.0, 13)]
    chain = [cdf_exact(coll.problem,
                       CdfQuery(A=np.eye(2), t=[t, t], theta=coll.problem.theta,
                                sigma=1.0, rule=coll.rule), BUDGET)
             for t in (-1.5, -0.5, 0.5, 1.5)]
    ok_mono = (
        all(b - a >= -1e-12 for a, b in zip(exact, exact[1:]))
        and all(b - a >= -1e-12 for a, b in zip(lim, lim[1:]))
        and all(b.value - a.value >= -(a.abs_error + b.abs_error)
                for a, b in zip(chain, chain[1:]))
    )

    # (d) a full scripted experiment is bit-reproducible across worker counts
    csvs = []
    for w in (1, 8):
        out = str(tmp_path / f"workers{w}")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(["sweep", "impossibility", "--fixture", "P1",
                       "--t", "0.0", "--gamma", "1.25", "--delta0", "0.1",
                       "--n-ladder", "100", "--reps", "8692", "--seed", "3",
                       "--workers", str(w), "--out", out])
        assert rc == 0
        csvs.append((tmp_path / f"workers{w}.csv").read_bytes())
    ok_repro = csvs[0] == csvs[1]

    _report(9, "structural invariants",
            ok_zeta and ok_cov and ok_mono and ok_repro,
            f"g-inverse deviation = {zeta_dev:.1e}; covariance max |gap|/SE = "
            f"{cov_ratio:.2f}; grids monotone = {ok_mono}; "
            f"workers 1 vs 8 output identical = {ok_repro}")
