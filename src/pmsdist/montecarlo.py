"""Seeded brute-force oracle: simulate, select, estimate, tally.

In the Gaussian linear model every supported rule (general-to-specific
testing, information criteria over subsets, thresholding) and every
least-squares refit depends on the response Y only through two independent
sufficient statistics: S = Q_P'Y ~ N(Q_P'X theta, sigma^2 I_P), where Q_P
is the orthonormal basis of the column space of X, and the full-model
residual sum of squares RSS ~ sigma^2 chi^2_{n-P}.  The oracle therefore
never builds an n-vector.  Replication r draws P standard normals z_r and
one chi-square variate, S = Q_P'X theta + sigma z_r and RSS = sigma^2
chi^2_r, and the kernels map S through P-space maps built once per call:
Q_P'q_p / r_pp for the trailing coefficient of each nested order,
R_m^{-1} Q_m'Q_P for the refit of each model m, and Q_P'Q_m for the
residual sum of a subset, RSS(m) = Y'Y - |Q_m'Y|^2 with Y'Y = |S|^2 + RSS.
A chunk of CHUNK replications holds O(CHUNK * P) floats whatever n is.

Draws are keyed per chunk with counter-based Philox streams (Salmon et al.
2011, "Parallel random numbers: as easy as 1, 2, 3").  Chunk c of master
seed m draws its (CHUNK, P) normals from Philox(key=[m, c]) and its
chi-square variates, as 2 * Gamma((n - P) / 2), from the jumped copy of
that bit generator taken before any draw; replication c * CHUNK + j is row
j.  Both arrays fill in order, so a partial chunk is the prefix of the full
one: a replication's statistics depend neither on the plan's size nor on
how the chunks are spread over worker processes.  Per-chunk integer tallies
are merged in chunk order.

``simulate_response`` lifts replication r to a full response,
Y = X theta + sigma (Q_P z_r + sqrt(chi^2_r) u_r), with u_r a uniform unit
vector of the residual space drawn from a stream keyed (m, r); the scalar
selection pipeline applied to it reproduces the vectorized kernels.
"""
from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from ._gauss import philox as _rng  # the name benchmarks/baseline.py times
from .errors import ValidationError, cdf_argument
from .regression_core import RegressionProblem, xi_n
from .selection import (
    GeneralToSpecific,
    InformationCriterion,
    SubsetMask,
    Thresholding,
    auxiliary_critical_value,
)

__all__ = [
    "CHUNK",
    "SimulationPlan",
    "EmpiricalCdf",
    "Replications",
    "simulate_response",
    "empirical_cdf",
    "estimator_error_probability",
    "replicate",
    "dump_replications",
]

CHUNK = 8192


@dataclass(frozen=True)
class SimulationPlan:
    """Everything one simulation study needs: problem, rule, target, size, seed."""

    problem: RegressionProblem
    rule: object
    A: np.ndarray
    replications: int
    master_seed: int

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        k, P = A.shape
        if P != self.problem.P:
            raise ValidationError("target width must equal the problem dimension")
        if np.linalg.matrix_rank(A) < k:
            raise ValidationError("A must have full row rank")
        if not (isinstance(self.replications, (int, np.integer)) and self.replications >= 1):
            raise ValidationError("replications must be a positive integer")
        if not (isinstance(self.master_seed, (int, np.integer)) and self.master_seed >= 0):
            raise ValidationError("master_seed must be a nonnegative integer")
        if isinstance(self.rule, GeneralToSpecific):
            self.rule.validate_for(self.problem.P, self.problem.O)
        elif isinstance(self.rule, InformationCriterion):
            if self.rule.family[0].P != self.problem.P:
                raise ValidationError("mask family does not match problem dimension")
        elif isinstance(self.rule, Thresholding):
            if len(self.rule.cutoff) != self.problem.P:
                raise ValidationError("cutoff length must equal the problem dimension")
        else:
            raise ValidationError(f"unsupported rule {type(self.rule).__name__}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "replications", int(self.replications))
        object.__setattr__(self, "master_seed", int(self.master_seed))

    @property
    def k(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class EmpiricalCdf:
    """Empirical distribution of the scaled estimation error over a grid.

    estimates[i] is the fraction of valid replications with the error
    coordinatewise below grid[i]; conditional maps each selected model to
    the within-model fractions, and model_counts to its tally, so that
    sum_p conditional[p] * model_counts[p] / valid == estimates exactly.
    """

    grid: np.ndarray
    estimates: np.ndarray
    standard_errors: np.ndarray
    model_counts: dict
    conditional: dict
    replications: int
    valid: int
    degenerate_count: int


@dataclass(frozen=True)
class Replications:
    """Per-replication outcome of a plan, in replication order.

    selected holds each replication's model (an order or a SubsetMask),
    estimates the (R, P) post-selection fits, t_ratios the (R, P)
    full-model t-ratios, and valid flags the non-degenerate replications.
    """

    selected: list
    estimates: np.ndarray
    sigma_hat: np.ndarray
    t_ratios: np.ndarray
    valid: np.ndarray


def _draw_errors(problem: RegressionProblem, master: int, lo: int, hi: int) -> np.ndarray:
    """Noise of replications lo..hi-1 as rows [z_1..z_P, chi2].

    z is the standard-normal part of S and chi2 the chi^2_{n-P} variate of
    RSS / sigma^2, drawn from the keyed streams of the chunks that cover
    the range.
    """
    P = problem.P
    out = np.empty((hi - lo, P + 1))
    for c in range(lo // CHUNK, (hi - 1) // CHUNK + 1):
        base = c * CHUNK
        a, b = max(lo, base), min(hi, base + CHUNK)
        gen = _rng(master, c)
        # jump before drawing z, so the chi-square stream does not depend
        # on how many rows of z the chunk draws
        chi_gen = np.random.Generator(gen.bit_generator.jumped())
        out[a - lo:b - lo, :P] = gen.standard_normal((b - base, P))[a - base:]
        out[a - lo:b - lo, P] = 2.0 * chi_gen.standard_gamma(problem.dof / 2.0,
                                                             size=b - base)[a - base:]
    return out


def simulate_response(problem: RegressionProblem, seed) -> np.ndarray:
    """The full response Y of one replication.

    ``seed`` is either a (master_seed, replication_index) pair — the keying
    used by every plan-driven routine here — or a bare integer, read as
    (seed, 0).  Identical keys reproduce Y bit-for-bit, and Q_P'Y and the
    residual sum of squares of Y are those of the same replication in any
    plan with that master seed.
    """
    master, rep = (int(v) for v in (seed if isinstance(seed, (tuple, list)) else (seed, 0)))
    noise = _draw_errors(problem, master, rep, rep + 1)[0]
    q = problem._qr[problem.P - 1][0]
    # a uniform direction of the residual space, from a stream segment two
    # jumps past the chunk draws
    g = np.random.Generator(_rng(master, rep).bit_generator.jumped(2)).standard_normal(problem.n)
    g -= q @ (q.T @ g)
    resid = np.sqrt(noise[-1]) * g / np.linalg.norm(g)
    return problem.X @ problem.theta + problem.sigma * (q @ noise[:-1] + resid)


class _Kernel:
    """Vectorized selection + estimation on (S, RSS), built once per call.

    Each model is identified by an integer id: the order for g2s, the index
    into the sorted mask family for IC, the kept bits read as a binary
    number for thresholding.  ``fits[id]`` is the model's P x P map from S
    to its length-P estimate, zero in the rows of excluded coordinates.
    """

    def __init__(self, plan: SimulationPlan):
        self.plan = plan
        pr = plan.problem
        P = self.P = pr.P
        self.sqrt_n = np.sqrt(pr.n)
        self.A_theta = plan.A @ pr.theta
        qf = self.qf = pr._qr[P - 1][0]
        self.mu = qf.T @ (pr.X @ pr.theta)
        # nested order p: coef = G[p] @ S with G[p] = R_p^{-1} Q_p'Q_P
        G = [np.zeros((0, P))] + [solve_triangular(r, q.T @ qf) for q, r in pr._qr]
        self.full_map = G[P]
        self.ginv_sqrt = np.sqrt(np.diag(np.linalg.inv(pr.gram)))
        self.fits: dict[int, np.ndarray] = {}
        rule = plan.rule
        if isinstance(rule, GeneralToSpecific):
            self.mode = "g2s"
            self.xi = np.array([xi_n(pr, p) for p in range(1, P + 1)])
            # column p-1 maps S to the trailing coefficient of order p
            self.trailing = np.stack([G[p][p - 1] for p in range(1, P + 1)], axis=1)
            self.crit = np.asarray(rule.critical, dtype=float)
            self.fits = {p: self._padded(range(p), G[p]) for p in range(P + 1)}
        elif isinstance(rule, InformationCriterion):
            self.mode = "ic"
            self.masks = sorted(rule.family, key=lambda m: m.sort_key())
            self.penalty = np.array([m.cardinality * rule.upsilon_n / pr.n for m in self.masks])
            self.bases = []
            for i, mask in enumerate(self.masks):
                self.fits[i], basis = self._mask_fit(mask.indices)
                self.bases.append(basis)
        else:
            self.mode = "threshold"
            self.cutoff = np.asarray(rule.cutoff, dtype=float)
            self.bit_weights = 1 << np.arange(P - 1, -1, -1)

    def _padded(self, indices, cmap: np.ndarray) -> np.ndarray:
        out = np.zeros((self.P, self.P))
        out[list(indices)] = cmap
        return out

    def _mask_fit(self, indices):
        """(estimate map from R_m^{-1} Q_m'Q_P, basis Q_P'Q_m) of a subset."""
        if not indices:
            return np.zeros((self.P, self.P)), np.zeros((self.P, 0))
        q, r = np.linalg.qr(self.plan.problem.X[:, list(indices)], mode="reduced")
        basis = self.qf.T @ q
        return self._padded(indices, solve_triangular(r, basis.T)), basis

    def key(self, model_id: int):
        """The model an id stands for: an order or a SubsetMask."""
        if self.mode == "g2s":
            return int(model_id)
        if self.mode == "ic":
            return self.masks[model_id]
        return SubsetMask(bits=tuple(int(model_id) >> (self.P - 1 - i) & 1
                                     for i in range(self.P)))

    def _fit(self, model_id: int) -> np.ndarray:
        if model_id not in self.fits:   # thresholding builds its fits on demand
            self.fits[model_id] = self._mask_fit(self.key(model_id).indices)[0]
        return self.fits[model_id]

    def statistics(self, lo: int, hi: int):
        """(S, RSS, sigma_hat) of replications lo..hi-1."""
        pr = self.plan.problem
        noise = _draw_errors(pr, self.plan.master_seed, lo, hi)
        rss = pr.sigma ** 2 * noise[:, self.P]
        return self.mu + pr.sigma * noise[:, :self.P], rss, np.sqrt(rss / pr.dof)

    def sequential_t(self, S: np.ndarray, sig: np.ndarray) -> np.ndarray:
        """(B, P) sequential t-statistics of orders 1..P."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.sqrt_n * (S @ self.trailing) / (sig[:, None] * self.xi)

    def full_t(self, S: np.ndarray, sig: np.ndarray) -> np.ndarray:
        """(B, P) full-model t-ratios."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.sqrt_n * (S @ self.full_map.T) / (sig[:, None] * self.ginv_sqrt)

    def run(self, lo: int, hi: int, want_raw: bool):
        S, rss, sig = self.statistics(lo, hi)
        ok = sig > 0.0
        t_full = self.full_t(S, sig) if want_raw or self.mode == "threshold" else None
        if self.mode == "g2s":
            O, P = self.plan.problem.O, self.P
            sat = np.ones((S.shape[0], P - O + 1), dtype=bool)
            if P > O:
                sat[:, 1:] = np.abs(self.sequential_t(S, sig)[:, O:]) >= self.crit
            ids = np.where(ok, P - sat[:, ::-1].argmax(axis=1), O)
        elif self.mode == "ic":
            vals = np.empty((S.shape[0], len(self.masks)))
            for i, V in enumerate(self.bases):
                resid = S - (S @ V) @ V.T
                rss_m = rss + np.einsum("ij,ij->i", resid, resid)
                with np.errstate(divide="ignore"):
                    vals[:, i] = np.log(rss_m) + self.penalty[i]
                ok = ok & (rss_m > 0.0)
            ids = vals.argmin(axis=1)
        else:
            keep = (np.abs(t_full) >= self.cutoff) & ok[:, None]
            ids = keep @ self.bit_weights
        est = np.empty_like(S)
        for model_id in np.unique(ids):
            np.copyto(est, S @ self._fit(int(model_id)).T, where=(ids == model_id)[:, None])
        loss = self.sqrt_n * (est @ self.plan.A.T - self.A_theta)
        return {"ids": ids, "loss": loss, "ok": ok, "sigma": sig, "est": est, "t": t_full}


def _chunk_bounds(replications: int):
    return [(lo, min(lo + CHUNK, replications)) for lo in range(0, replications, CHUNK)]


def _run_chunks(fn, kernel: _Kernel, workers: int | None, *extra) -> list:
    """fn(kernel, lo, hi, *extra) for every chunk of the plan, in chunk order."""
    bounds = _chunk_bounds(kernel.plan.replications)
    args = ([kernel] * len(bounds), [lo for lo, _ in bounds], [hi for _, hi in bounds],
            *([x] * len(bounds) for x in extra))
    if workers and workers > 1 and len(bounds) > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(fn, *args))
    return list(map(fn, *args))


def _cdf_chunk(kernel: _Kernel, lo: int, hi: int, grid: np.ndarray):
    out = kernel.run(lo, hi, False)
    ok, ids, loss = out["ok"], out["ids"], out["loss"]
    below = np.repeat(ok[:, None], grid.shape[0], axis=1)
    for j in range(grid.shape[1]):
        below &= loss[:, j, None] <= grid[:, j]
    models = np.unique(ids[ok])
    member = (ids == models[:, None]) & ok
    # (models, grid) counts; float products are exact below 2**53
    joint = (member.astype(float) @ below).astype(np.int64)
    keys = [kernel.key(int(m)) for m in models]
    return {"counts": joint.sum(axis=0), "joint": dict(zip(keys, joint)),
            "model": dict(zip(keys, member.sum(axis=1).tolist())),
            "degenerate": int((~ok).sum())}


def _merge_cdf(plan: SimulationPlan, grid: np.ndarray, chunks: list[dict]) -> EmpiricalCdf:
    m = grid.shape[0]
    counts = np.zeros(m, dtype=np.int64)
    joint: dict = {}
    model: dict = {}
    degenerate = 0
    for ch in chunks:
        counts += ch["counts"]
        degenerate += ch["degenerate"]
        for key, val in ch["model"].items():
            model[key] = model.get(key, 0) + val
        for key, val in ch["joint"].items():
            if key in joint:
                joint[key] += val
            else:
                joint[key] = val.copy()
    valid = plan.replications - degenerate
    est = counts / valid if valid else np.zeros(m)
    se = np.sqrt(est * (1.0 - est) / valid) if valid else np.full(m, np.nan)
    conditional = {key: joint[key] / model[key] for key in joint}
    return EmpiricalCdf(grid=grid, estimates=est, standard_errors=se,
                        model_counts=model, conditional=conditional,
                        replications=plan.replications, valid=valid,
                        degenerate_count=degenerate)


def empirical_cdf(plan: SimulationPlan, grid, workers: int | None = None) -> EmpiricalCdf:
    """Empirical cdf of sqrt(n) A (theta_tilde - theta) over the given grid.

    ``grid`` is a sequence of k-vectors.  ``workers`` > 1 distributes the
    fixed-size replication chunks over processes; results are identical for
    any worker count.
    """
    grid_arr = cdf_argument(grid, plan.k, rows=True)
    chunks = _run_chunks(_cdf_chunk, _Kernel(plan), workers, grid_arr)
    return _merge_cdf(plan, grid_arr, chunks)


def _err_chunk(kernel: _Kernel, lo: int, hi: int, t: np.ndarray,
               ref: float, delta: float, c_aux: float, budget):
    from .cdf_estimators import g_check_values

    pr = kernel.plan.problem
    S, _, sig = kernel.statistics(lo, hi)
    ok = sig > 0.0
    # auxiliary order estimate: all-coordinate scan with a diverging cutoff
    sat = np.abs(kernel.sequential_t(S, sig)) >= c_aux
    p_bar = np.where(sat.any(axis=1), pr.P - sat[:, ::-1].argmax(axis=1), 0)
    vals = g_check_values(pr, kernel.plan.A, t, kernel.plan.rule, sig[ok], p_bar[ok],
                          budget=budget)
    exceed = int(np.sum(np.abs(vals - ref) > delta))
    return {"exceed": exceed, "valid": int(ok.sum()), "degenerate": int((~ok).sum())}


def estimator_error_probability(plan: SimulationPlan, t, reference,
                                delta: float, *, workers: int | None = None,
                                aux_scheme: str = "sqrt_log_n",
                                budget=None) -> float:
    """Frequency of {|plug-in cdf estimate - reference| > delta} under the plan.

    ``reference`` is the target cdf value: a float, a result object with a
    ``value`` attribute, or a zero-argument callable producing either.
    """
    if not delta > 0:
        raise ValidationError("delta must be positive")
    if callable(reference):
        reference = reference()
    ref = float(getattr(reference, "value", reference))
    if not np.isfinite(ref):
        raise ValidationError("reference must be finite")
    t_arr = cdf_argument(t, plan.k)
    c_aux = auxiliary_critical_value(plan.problem.n, plan.problem.P, aux_scheme)
    if not isinstance(plan.rule, GeneralToSpecific):
        raise ValidationError("estimator error study needs a general-to-specific plan")
    chunks = _run_chunks(_err_chunk, _Kernel(plan), workers,
                         t_arr, ref, delta, c_aux, budget)
    exceed = sum(c["exceed"] for c in chunks)
    valid = sum(c["valid"] for c in chunks)
    return exceed / valid if valid else 0.0


def replicate(plan: SimulationPlan) -> Replications:
    """Every replication of the plan: selected model, fit, scale, t-ratios."""
    kernel = _Kernel(plan)
    outs = [kernel.run(lo, hi, True) for lo, hi in _chunk_bounds(plan.replications)]
    ids = np.concatenate([o["ids"] for o in outs])
    return Replications(selected=[kernel.key(int(i)) for i in ids],
                        **{name: np.concatenate([o[field] for o in outs])
                           for name, field in (("estimates", "est"), ("sigma_hat", "sigma"),
                                               ("t_ratios", "t"), ("valid", "ok"))})


def dump_replications(plan: SimulationPlan, path: str) -> None:
    """Write one CSV row per replication: rep, selected_model, estimate_1..P, sigma_hat."""
    reps = replicate(plan)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rep", "selected_model"]
                        + [f"estimate_{i}" for i in range(1, plan.problem.P + 1)]
                        + ["sigma_hat"])
        for r, (key, est, sig) in enumerate(zip(reps.selected, reps.estimates,
                                                reps.sigma_hat)):
            writer.writerow([r, str(key)] + [repr(float(v)) for v in est]
                            + [repr(float(sig))])
