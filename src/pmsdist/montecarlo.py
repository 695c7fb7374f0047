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
A chunk of B <= CHUNK replications holds O(CHUNK * P) floats whatever n is, with the
replications last (S (P, B), loss (k, B), grid indicator (m, B), and the indicator of
the models present in blocks of at most 2P float32 rows, never larger than S, however
many models a chunk meets); Python loops run over orders, models, grid columns and grid
rows only, and the draws do not depend on it.  Steps work in place and free what later
steps do not read, so a chunk's peak heap stays under glibc's trim threshold and repeated
calls reuse pages instead of faulting them in afresh.

Draws are keyed per chunk with counter-based Philox streams (Salmon et al.
2011, "Parallel random numbers: as easy as 1, 2, 3").  Chunk c of master
seed m draws its (CHUNK, P) normals from Philox(key=[m, c]) and its
chi-square variates, as 2 * Gamma((n - P) / 2), from the same key with its
counter started 2**128 blocks in (the state ``.jumped()`` reaches, set as a
counter); replication c * CHUNK + j is row j.  Both arrays fill in order,
so a partial chunk is the prefix of the full one: a replication's
statistics depend neither on the plan's size nor on how the chunks are
spread over worker processes.  Per-chunk integer tallies
are merged in chunk order.

Plans that differ only in theta share their noise: z, RSS and sigma_hat do
not depend on theta, only S's mean Q_P'X theta does.  Given such plans,
``estimator_error_probability`` draws each chunk once, forms one S per
plan, and evaluates the plug-in estimate once over every plan's rows; each
frequency equals its one-plan call.

``simulate_response`` lifts replication r to a full response,
Y = X theta + sigma (Q_P z_r + sqrt(chi^2_r) u_r), with u_r a uniform unit
vector of the residual space drawn from the stream keyed (m, r), its
counter 2 * 2**128 blocks in; the scalar selection pipeline applied to it
reproduces the vectorized kernels.
"""
from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._gauss import philox as _rng  # the name benchmarks/baseline.py times
from .errors import ValidationError, cdf_argument, target_matrix
from .regression_core import RegressionProblem, xi_n
from .selection import (
    GeneralToSpecific,
    InformationCriterion,
    SelectionRule,
    SubsetMask,
    auxiliary_critical_value,
)

__all__ = [
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
    rule: SelectionRule
    A: np.ndarray
    replications: int
    master_seed: int

    def __post_init__(self):
        A = target_matrix(self.A, self.problem.P)
        if not (isinstance(self.replications, (int, np.integer)) and self.replications >= 1):
            raise ValidationError("replications must be a positive integer")
        if not (isinstance(self.master_seed, (int, np.integer)) and self.master_seed >= 0):
            raise ValidationError("master_seed must be a nonnegative integer")
        if not isinstance(self.rule, SelectionRule):
            raise ValidationError(f"unsupported rule {type(self.rule).__name__}")
        self.rule.validate_for(self.problem.P, self.problem.O)
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

    models holds each selected model (an order or a SubsetMask) once, in
    model-id order, and model_index each replication's position in it;
    selected is each replication's model, read from the two.  estimates
    holds the (R, P) post-selection fits, t_ratios the (R, P) full-model
    t-ratios, and valid flags the non-degenerate replications.
    """

    models: tuple
    model_index: np.ndarray
    estimates: np.ndarray
    sigma_hat: np.ndarray
    t_ratios: np.ndarray
    valid: np.ndarray

    @cached_property
    def selected(self) -> list:
        return [self.models[i] for i in self.model_index.tolist()]


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
        # 2**128 blocks on, so the chi-square stream does not depend on how
        # many rows of z the chunk draws
        chi_gen = _rng(master, c, 1)
        out[a - lo:b - lo, :P] = gen.standard_normal((b - base, P))[a - base:]
        out[a - lo:b - lo, P] = 2.0 * chi_gen.standard_gamma(problem.dof / 2.0,
                                                             size=b - base)[a - base:]
    return out


def simulate_response(problem: RegressionProblem, seed) -> np.ndarray:
    """The full response Y of one replication.

    ``seed`` is a (master_seed, replication_index) pair, the keying used by
    every plan-driven routine here.  Identical keys reproduce Y
    bit-for-bit, and Q_P'Y and the residual sum of squares of Y are those
    of the same replication in any plan with that master seed.
    """
    if not (isinstance(seed, (tuple, list)) and len(seed) == 2):
        raise ValidationError("seed must be a (master_seed, replication_index) pair")
    master, rep = (int(v) for v in seed)
    noise = _draw_errors(problem, master, rep, rep + 1)[0]
    q = problem._qr[problem.P - 1][0]
    # a uniform direction of the residual space, from a stream segment two
    # jumps past the chunk draws
    g = _rng(master, rep, 2).standard_normal(problem.n)
    g -= q @ (q.T @ g)
    resid = np.sqrt(noise[-1]) * g / np.linalg.norm(g)
    return problem.X @ problem.theta + problem.sigma * (q @ noise[:-1] + resid)


class _Kernel:
    """Vectorized selection + estimation on (S, RSS), built once per call.

    Each model is identified by an integer id: the order for g2s, the index
    into the sorted mask family for IC, the kept bits read as a binary
    number for thresholding.  ``fits[id]`` is the model's P x P map from S
    to its length-P estimate, zero in the rows of excluded coordinates.
    Chunks are (P, B) and every map C-contiguous, so map @ S is one BLAS call.
    """

    def __init__(self, plan: SimulationPlan):
        self.plan = plan
        pr = plan.problem
        P = self.P = pr.P
        self.sqrt_n = np.sqrt(pr.n)
        self.A_theta = plan.A @ pr.theta
        qf = self.qf = pr._qr[P - 1][0]
        self.mu = self.mean(pr.theta)
        # nested order p: coef = G[p] @ S with G[p] = R_p^{-1} Q_p'Q_P.  LU
        # of a triangular R pivots nowhere, so np.linalg.solve is the
        # triangular solve; scipy's solve_triangular on several columns
        # wakes every unpinned BLAS thread, milliseconds per call
        G = [np.zeros((0, P))] + [np.linalg.solve(r, q.T @ qf) for q, r in pr._qr]
        self.full_map = G[P]
        self.ginv_sqrt = np.sqrt(pr.gram_inv_diag)
        self.fits: dict[int, np.ndarray] = {}
        rule = plan.rule
        if isinstance(rule, GeneralToSpecific):
            self.mode = "g2s"
            self.xi = np.array([xi_n(pr, p) for p in range(1, P + 1)])
            # row p-1 maps S to the trailing coefficient of order p
            self.trailing = np.stack([G[p][p - 1] for p in range(1, P + 1)])
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

    def _padded(self, indices, cmap: np.ndarray) -> np.ndarray:
        out = np.zeros((self.P, self.P))
        out[list(indices)] = cmap
        return out

    def _mask_fit(self, indices):
        """(estimate map from R_m^{-1} Q_m'Q_P, basis Q_P'Q_m) of a subset."""
        if not indices:
            return np.zeros((self.P, self.P)), np.zeros((self.P, 0))
        q, r = self.plan.problem._subset_qr(indices)
        basis = self.qf.T @ q
        return self._padded(indices, np.linalg.solve(r, basis.T)), basis

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

    def mean(self, theta: np.ndarray) -> np.ndarray:
        """The mean Q_P'X theta of S at a theta of this design."""
        return self.qf.T @ (self.plan.problem.X @ theta)

    def draw(self, lo: int, hi: int):
        """(z, RSS, sigma_hat) of replications lo..hi-1, z as a (P, B) view:
        everything of a chunk that theta does not move."""
        pr = self.plan.problem
        noise = _draw_errors(pr, self.plan.master_seed, lo, hi)
        rss = pr.sigma ** 2 * noise[:, self.P]
        return noise[:, :self.P].T, rss, np.sqrt(rss / pr.dof)

    def signal(self, mu: np.ndarray, z: np.ndarray) -> np.ndarray:
        """S = mu + sigma z as a C-contiguous (P, B) array."""
        return np.add(mu[:, None], self.plan.problem.sigma * z, order="C")

    def statistics(self, lo: int, hi: int):
        """(S, RSS, sigma_hat) of replications lo..hi-1, S as a (P, B) array."""
        z, rss, sig = self.draw(lo, hi)
        return self.signal(self.mu, z), rss, sig

    def ratios(self, cmap: np.ndarray, scale: np.ndarray, S: np.ndarray, sig: np.ndarray):
        """(P, B) sqrt(n) (cmap @ S) / (scale sigma_hat): sequential or full-model t-ratios."""
        t = cmap @ S
        t *= self.sqrt_n
        with np.errstate(divide="ignore", invalid="ignore"):
            t /= scale[:, None] * sig
        return t

    def order_scan(self, S: np.ndarray, sig: np.ndarray, O: int, crit) -> np.ndarray:
        """(B,) highest order p > O whose |sequential t| reaches crit[p - O - 1], else O."""
        ids = np.full(S.shape[1], O)
        for p, t in enumerate(self.ratios(self.trailing, self.xi, S, sig)[O:], start=O + 1):
            ids = np.where(np.abs(t) >= crit[p - O - 1], p, ids)
        return ids

    def present(self, ids: np.ndarray):
        """Sorted distinct ids, counts; thresholding's P-bit codes are too wide to bincount."""
        if self.mode == "threshold":
            return np.unique(ids, return_counts=True)
        tally = np.bincount(ids)
        return np.flatnonzero(tally), tally[tally > 0]

    def run(self, lo: int, hi: int, want_raw: bool):
        """ids, ok, sigma (B,); est, t (P, B) and loss (k, B) of replications lo..hi-1."""
        S, rss, sig = self.statistics(lo, hi)
        ok = sig > 0.0
        t_full = self.ratios(self.full_map, self.ginv_sqrt, S, sig) if want_raw else None
        if self.mode == "g2s":
            O = self.plan.problem.O
            ids = np.where(ok, self.order_scan(S, sig, O, self.crit), O)
        elif self.mode == "ic":
            ids, best = np.zeros(S.shape[1], dtype=np.intp), np.full(S.shape[1], np.inf)
            resid, val = np.empty_like(S), np.empty_like(rss)
            for i, V in enumerate(self.bases):
                r = S   # the empty mask leaves S itself
                if V.shape[1]:
                    # one column: the outer product is the same single product per
                    # entry as numpy's matmul with an inner dimension of 1, at a third
                    # of its cost
                    (np.multiply if V.shape[1] == 1 else np.matmul)(V, V.T @ S, out=resid)
                    r = np.subtract(S, resid, out=resid)
                np.einsum("ij,ij->j", r, r, out=val)
                val += rss
                ok &= val > 0.0
                with np.errstate(divide="ignore"):
                    np.log(val, out=val)
                val += self.penalty[i]
                ids = np.where(val < best, i, ids)   # strict: a tie keeps the earlier mask
                np.minimum(best, val, out=best)
            del r, resid, val, best
        else:
            ids = np.zeros(S.shape[1], dtype=np.int64)
            for row, c in zip(self.ratios(self.full_map, self.ginv_sqrt, S, sig), self.cutoff):
                ids <<= 1
                ids |= (np.abs(row, out=row) >= c) & ok
            del row
        del rss   # the fits read none of these: free them first (module docstring)
        present = self.present(ids)[0].tolist()
        fits = [self._fit(m) for m in present]   # thresholding's QRs run before est exists
        est = fits[0] @ S
        for model_id, fit in zip(present[1:], fits[1:]):
            np.copyto(est, fit @ S, where=ids == model_id)
        loss = self.plan.A @ est
        loss -= self.A_theta[:, None]
        loss *= self.sqrt_n
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
    """Integer tallies of replications lo..hi-1 on the grid: for each block of at most
    2P models present, one (block, B) @ (B,) per grid row."""
    ok, ids, loss = map(kernel.run(lo, hi, False).get, ("ok", "ids", "loss"))  # est dies here
    below = np.tile(ok, (grid.shape[0], 1))
    for j in range(grid.shape[1]):
        below &= loss[j] <= grid[:, j, None]
    del loss   # free it before the products
    models, tally = kernel.present(ids[ok])
    step, blocks = 2 * kernel.P, []
    for i in range(0, max(models.size, 1), step):
        member = ((ids == models[i:i + step, None]) & ok).astype(np.float32)
        blocks.append(np.array([member @ row for row in below], dtype=np.int64).T)  # exact
    joint = np.concatenate(blocks)
    keys = [kernel.key(m) for m in models.tolist()]
    return {"counts": joint.sum(axis=0), "joint": dict(zip(keys, joint)),
            "model": dict(zip(keys, tally.tolist())),
            "degenerate": int((~ok).sum())}


def _merge_cdf(plan: SimulationPlan, grid: np.ndarray, chunks: list[dict]) -> EmpiricalCdf:
    joint, model = {}, {}
    for ch in chunks:
        for key, val in ch["model"].items():
            model[key] = model.get(key, 0) + val
        for key, val in ch["joint"].items():
            joint[key] = joint.get(key, 0) + val
    counts = sum(ch["counts"] for ch in chunks)
    degenerate = sum(ch["degenerate"] for ch in chunks)
    valid = plan.replications - degenerate
    est = counts / valid if valid else np.zeros(len(grid))
    se = np.sqrt(est * (1.0 - est) / valid) if valid else np.full(len(grid), np.nan)
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


def _err_chunk(kernel: _Kernel, lo: int, hi: int, mus: list, t: np.ndarray,
               refs: list, delta: float, c_aux: float, budget):
    """Exceedances of replications lo..hi-1 at each mean in ``mus``: one draw,
    one auxiliary scan per mean, one plug-in call over every mean's rows."""
    from .cdf_estimators import g_check_values

    pr = kernel.plan.problem
    z, _, sig = kernel.draw(lo, hi)
    ok = sig > 0.0
    # auxiliary order estimate: all-coordinate scan with a diverging cutoff
    p_bars = [kernel.order_scan(kernel.signal(mu, z), sig, 0, [c_aux] * pr.P)[ok]
              for mu in mus]
    vals = g_check_values(pr, kernel.plan.A, t, kernel.plan.rule, np.tile(sig[ok], len(mus)),
                          np.concatenate(p_bars), budget=budget)
    exceed = [int(np.sum(np.abs(v - ref) > delta))
              for v, ref in zip(np.split(vals, len(mus)), refs)]
    return {"exceed": exceed, "valid": int(ok.sum()), "degenerate": int((~ok).sum())}


def _same_but_theta(a: SimulationPlan, b: SimulationPlan) -> bool:
    pa, pb = a.problem, b.problem
    return (np.array_equal(pa.X, pb.X) and pa.sigma == pb.sigma and pa.O == pb.O
            and a.rule == b.rule and np.array_equal(a.A, b.A)
            and a.replications == b.replications and a.master_seed == b.master_seed)


def estimator_error_probability(plan, t, reference, delta: float, *,
                                workers: int | None = None,
                                aux_scheme: str = "sqrt_log_n", budget=None):
    """Frequency of {|plug-in cdf estimate - reference| > delta} under the plan.

    ``reference`` is the target cdf value, a finite float.  ``plan`` may
    also be a sequence of plans that agree on everything but theta (X,
    sigma, O, rule, A, replications, master seed), with ``reference`` a
    sequence of as many values; the result is then one frequency per plan,
    each equal to that plan's own call.  The plans share their noise and
    sigma_hat, so each chunk is drawn once and the plug-in evaluated once
    over every plan's rows.
    """
    if not delta > 0:
        raise ValidationError("delta must be positive")
    single = isinstance(plan, SimulationPlan)
    plans, refs = ([plan], [reference]) if single else (list(plan), reference)
    try:
        refs = [float(r) for r in refs]
    except (TypeError, ValueError):
        refs = None
    if not (refs and len(refs) == len(plans) and np.all(np.isfinite(refs))):
        raise ValidationError("reference must be a finite float, one per plan")
    first = plans[0]
    if not all(isinstance(p, SimulationPlan) and _same_but_theta(first, p) for p in plans):
        raise ValidationError("plans must be SimulationPlans that differ only in theta")
    t_arr = cdf_argument(t, first.k)
    c_aux = auxiliary_critical_value(first.problem.n, first.problem.P, aux_scheme)
    if not isinstance(first.rule, GeneralToSpecific):
        raise ValidationError("estimator error study needs a general-to-specific plan")
    kernel = _Kernel(first)
    chunks = _run_chunks(_err_chunk, kernel, workers,
                         [kernel.mean(p.problem.theta) for p in plans],
                         t_arr, refs, delta, c_aux, budget)
    valid = sum(c["valid"] for c in chunks)
    freqs = [sum(counts) / valid if valid else 0.0
             for counts in zip(*(c["exceed"] for c in chunks))]
    return freqs[0] if single else freqs


def replicate(plan: SimulationPlan) -> Replications:
    """Every replication of the plan: selected model, fit, scale, t-ratios."""
    kernel = _Kernel(plan)
    outs = [kernel.run(lo, hi, True) for lo, hi in _chunk_bounds(plan.replications)]
    ids, index = np.unique(np.concatenate([o["ids"] for o in outs]), return_inverse=True)
    return Replications(models=tuple(kernel.key(int(i)) for i in ids), model_index=index,
                        **{name: np.concatenate([o[field].T for o in outs])
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
        names = [str(m) for m in reps.models]
        for r, (i, est, sig) in enumerate(zip(reps.model_index.tolist(), reps.estimates,
                                              reps.sigma_hat)):
            writer.writerow([r, names[i]] + [repr(float(v)) for v in est]
                            + [repr(float(sig))])
