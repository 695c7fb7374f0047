"""Span tracing of the pmsdist modules from outside the package.

The tracer replaces selected functions and methods with timing wrappers by
patching the names the consuming modules hold, so nothing under ``src/``
changes.  Each wrapped call records one span (name, start, end, parent);
spans stay in memory and are written out once at the end of a run.  Count
hooks attached to a wrapper read the call's arguments and result to record
work counts (rows, elements, draws) where the work happens.
"""
from __future__ import annotations

import importlib
import json
import re
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it covered by its children.

    Children are clipped to their parent's interval and merged before
    subtracting, so overlapping or overhanging children are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = covered_length(children.get(i, []), s.start, s.end)
        out.append((s.end - s.start) - covered)
    return out


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` inside [lo, hi]."""
    total, cur_a, cur_b = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


class Tracer:
    """Records spans and counts for the functions it patches."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, hook=None, pre=None):
        """``fn`` recording a span per call; ``hook(counts, args, kwargs,
        result, token)`` runs after it, with ``token = pre(args, kwargs)``
        taken before it."""
        tracer = self

        def traced(*args, **kwargs):
            token = pre(args, kwargs) if pre is not None else None
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            tracer.counts[name + ".calls"] += 1
            if hook is not None:
                hook(tracer.counts, args, kwargs, result, token)
            return result

        traced.__wrapped__ = fn
        return traced

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_time_by_name(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s, st in zip(self.spans, self_times(self.spans)):
            out[s.name] += st
        return out

    def duration_by_name(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.end - s.start
        return out

    def root_coverage(self, lo: float, hi: float) -> float:
        return covered_length([(s.start, s.end) for s in self.spans if s.parent < 0], lo, hi)

    def write(self, path: str, t0: float) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": [[s.name, s.start - t0, s.end - t0, s.parent]
                                 for s in self.spans]}, fh)
            fh.write("\n")


# ---------------------------------------------------------------------------
# count hooks: read a call's arguments and result
# ---------------------------------------------------------------------------

def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _hook_cdf_exact(counts, args, kwargs, result, token):
    query = _arg(args, kwargs, 1, "query")
    counts["dist_exact.cdf_exact.k1_calls" if query.A.shape[0] == 1
           else "dist_exact.cdf_exact.kvec_calls"] += 1
    level = re.search(r"levels=(\d+)", result.method)
    counts["dist_exact.refine_levels_sum"] += int(level.group(1)) if level else 0
    counts["dist_exact.warning_count"] += result.warning is not None


def _hook_draw(counts, args, kwargs, result, token):
    counts["montecarlo.bytes_drawn"] += result.nbytes


def _hook_cdf_chunk(counts, args, kwargs, result, token):
    lo, hi = _arg(args, kwargs, 1, "lo"), _arg(args, kwargs, 2, "hi")
    counts["montecarlo.chunks"] += 1
    counts["montecarlo.replications"] += hi - lo
    counts["montecarlo.valid"] += (hi - lo) - result["degenerate"]


def _hook_err_chunk(counts, args, kwargs, result, token):
    counts["montecarlo.chunks"] += 1
    counts["montecarlo.replications"] += result["valid"] + result["degenerate"]
    counts["montecarlo.valid"] += result["valid"]


def _hook_limit_rows(counts, args, kwargs, result, token):
    T = _arg(args, kwargs, 5, "T")
    counts["dist_limit.rows_evaluated"] += T.shape[0]
    counts["dist_limit.refine_levels_sum"] += result[-1]


def _hook_g_check(counts, args, kwargs, result, token):
    sig = np.asarray(_arg(args, kwargs, 4, "sigma_hats"), dtype=float)
    p_bars = np.asarray(_arg(args, kwargs, 5, "p_bars"), dtype=int)
    O = _arg(args, kwargs, 0, "problem").O
    counts["cdf_estimators.g_check_values.rows"] += sig.size
    counts["cdf_estimators.g_check_values.groups"] += np.unique(
        np.maximum(p_bars, O)[sig != 0.0]).size


def _hook_bvn(counts, args, kwargs, result, token):
    counts["gauss.bvn_cdf.elements"] += np.size(result)


def _hook_rect(counts, args, kwargs, result, token):
    counts["gauss.gaussian_rect.sampled_calls"] += result[1] > 0.0


def _hook_delta(counts, args, kwargs, result, token):
    counts["dist_exact.delta.elements"] += np.size(result)


def _z_cached(args, kwargs):
    return _arg(args, kwargs, 1, "p") in args[0]._z_cache


def _hook_z_sample(counts, args, kwargs, result, was_cached):
    if not was_cached:
        counts["dist_exact.z_draws"] += result[0].shape[0]


# (span name, owner "module[:Class]", attribute, consuming modules, hook,
# pre-call hook).  A function imported by name elsewhere is patched in each
# consumer too.
TARGETS = [
    ("cli.main", "pmsdist.cli", "main", (), None),
    ("experiments.convergence_sweep", "pmsdist.experiments", "convergence_sweep",
     ("pmsdist.cli",), None),
    ("experiments.tube_sweep", "pmsdist.experiments", "tube_sweep", ("pmsdist.cli",), None),
    ("experiments.impossibility_demo", "pmsdist.experiments", "impossibility_demo",
     ("pmsdist.cli",), None),
    ("experiments.aic_equivalence_audit", "pmsdist.experiments", "aic_equivalence_audit",
     ("pmsdist.cli",), None),
    ("selection.select_ic", "pmsdist.selection", "select_ic", ("pmsdist.experiments",), None),
    ("selection.full_model_t_ratios", "pmsdist.selection", "full_model_t_ratios",
     ("pmsdist.experiments",), None),
    ("montecarlo.simulate_response", "pmsdist.montecarlo", "simulate_response",
     ("pmsdist.experiments", "pmsdist.cli"), None),
    ("montecarlo.empirical_cdf", "pmsdist.montecarlo", "empirical_cdf",
     ("pmsdist.experiments", "pmsdist.cli"), None),
    ("montecarlo.estimator_error_probability", "pmsdist.montecarlo",
     "estimator_error_probability", ("pmsdist.experiments",), None),
    ("montecarlo.cdf_chunk", "pmsdist.montecarlo", "_cdf_chunk", (), _hook_cdf_chunk),
    ("montecarlo.err_chunk", "pmsdist.montecarlo", "_err_chunk", (), _hook_err_chunk),
    ("montecarlo.kernel_setup", "pmsdist.montecarlo:_Kernel", "__init__", (), None),
    ("montecarlo.kernel", "pmsdist.montecarlo:_Kernel", "run", (), None),
    ("montecarlo.draw", "pmsdist.montecarlo", "_draw_errors", ("pmsdist.experiments",),
     _hook_draw),
    ("cdf_estimators.g_check_values", "pmsdist.cdf_estimators", "g_check_values", (),
     _hook_g_check),
    ("dist_limit.cdf_limit", "pmsdist.dist_limit", "cdf_limit",
     ("pmsdist.experiments", "pmsdist.cli"), None),
    ("dist_limit.rows", "pmsdist.dist_limit", "_cdf_limit_rows", ("pmsdist.cdf_estimators",),
     _hook_limit_rows),
    ("dist_exact.cdf_exact", "pmsdist.dist_exact", "cdf_exact",
     ("pmsdist.experiments", "pmsdist.cli"), _hook_cdf_exact),
    ("dist_exact.engine_setup", "pmsdist.dist_exact:_ExactEngine", "__init__", (), None),
    ("dist_exact.term_k1", "pmsdist.dist_exact:_ExactEngine", "_term_k1", (), None),
    ("dist_exact.term_sampled", "pmsdist.dist_exact:_ExactEngine", "_term_sampled", (), None),
    ("dist_exact.z_sample", "pmsdist.dist_exact:_ExactEngine", "_z_sample", (), _hook_z_sample,
     _z_cached),
    ("dist_exact.delta", "pmsdist.dist_exact", "delta", ("pmsdist.dist_limit",), _hook_delta),
    ("gauss.bvn_cdf", "pmsdist._gauss", "bvn_cdf", ("pmsdist.dist_limit",), _hook_bvn),
    ("gauss.gaussian_rect", "pmsdist._gauss", "gaussian_rect",
     ("pmsdist.dist_exact", "pmsdist.dist_limit", "pmsdist.cdf_estimators"), _hook_rect),
    ("regression_core.problem_build", "pmsdist.regression_core:RegressionProblem",
     "__post_init__", (), None),
    ("regression_core.projection_quantities", "pmsdist.regression_core",
     "projection_quantities", ("pmsdist.dist_exact",), None),
    ("regression_core.limit_quantities", "pmsdist.regression_core", "limit_quantities",
     ("pmsdist.fixtures", "pmsdist.cdf_estimators"), None),
    ("fixtures.fixture", "pmsdist.fixtures", "fixture", ("pmsdist.cli",), None),
]


def _owner(spec: str):
    mod_name, _, cls = spec.partition(":")
    mod = importlib.import_module(mod_name)
    return getattr(mod, cls) if cls else mod


def install(tracer: Tracer) -> None:
    """Patch every target in its defining module and in each consumer.

    All patched names of one target share the same wrapper, so a call
    records one span whichever module it came through.
    """
    for name, owner_spec, attr, consumers, hook, *pre in TARGETS:
        owner = _owner(owner_spec)
        original = getattr(owner, attr)
        wrapper = tracer.wrap(name, original, hook, *pre)
        for mod in (owner, *(importlib.import_module(c) for c in consumers)):
            if getattr(mod, attr) is not original:
                raise RuntimeError(f"{mod.__name__}.{attr} is not the traced function")
            tracer._patches.append((mod, attr, original))
            setattr(mod, attr, wrapper)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

EXPERIMENTS = ("convergence_sweep", "tube_sweep", "impossibility_demo",
               "aic_equivalence_audit")

# (name, unit, better): the per-layer metrics every --trace 1 run reports.
PER_LAYER = [
    ("montecarlo.chunks", "count", "lower"),
    ("montecarlo.replications", "count", "lower"),
    ("montecarlo.draw_s", "s", "lower"),
    ("montecarlo.kernel_setup_s", "s", "lower"),
    ("montecarlo.kernel_s", "s", "lower"),
    ("montecarlo.tally_s", "s", "lower"),
    ("montecarlo.err_chunk_s", "s", "lower"),
    ("montecarlo.valid_ratio", "ratio", "higher"),
    ("montecarlo.bytes_drawn", "B-computed", "lower"),
    ("dist_exact.cdf_exact.k1_calls", "count", "lower"),
    ("dist_exact.cdf_exact.kvec_calls", "count", "lower"),
    ("dist_exact.cdf_exact.self_s", "s", "lower"),
    ("dist_exact.engine_setup_s", "s", "lower"),
    ("dist_exact.term_k1_s", "s", "lower"),
    ("dist_exact.term_sampled_s", "s", "lower"),
    ("dist_exact.z_draws", "count", "lower"),
    ("dist_exact.refine_levels_mean", "levels", "lower"),
    ("dist_exact.warning_count", "count", "lower"),
    ("dist_exact.delta.calls", "count", "lower"),
    ("dist_exact.delta.elements", "count", "lower"),
    ("dist_exact.delta.self_s", "s", "lower"),
    ("dist_limit.cdf_limit.calls", "count", "lower"),
    ("dist_limit.cdf_limit.self_s", "s", "lower"),
    ("dist_limit.rows_evaluated", "count", "lower"),
    ("dist_limit.rows_s", "s", "lower"),
    ("dist_limit.refine_levels", "levels", "lower"),
    ("cdf_estimators.g_check_values.calls", "count", "lower"),
    ("cdf_estimators.g_check_values.rows", "count", "lower"),
    ("cdf_estimators.g_check_values.groups", "count", "lower"),
    ("cdf_estimators.g_check_values.self_s", "s", "lower"),
    ("gauss.bvn_cdf.calls", "count", "lower"),
    ("gauss.bvn_cdf.elements", "count", "lower"),
    ("gauss.bvn_cdf.self_s", "s", "lower"),
    ("gauss.gaussian_rect.calls", "count", "lower"),
    ("gauss.gaussian_rect.sampled_calls", "count", "lower"),
    ("gauss.gaussian_rect.self_s", "s", "lower"),
    ("regression_core.problem_build.calls", "count", "lower"),
    ("regression_core.problem_build.self_s", "s", "lower"),
    ("regression_core.projection_quantities.calls", "count", "lower"),
    ("regression_core.projection_quantities.self_s", "s", "lower"),
    ("regression_core.limit_quantities.calls", "count", "lower"),
    ("regression_core.limit_quantities.self_s", "s", "lower"),
    ("fixtures.fixture.calls", "count", "lower"),
    ("fixtures.fixture.self_s", "s", "lower"),
    ("selection.select_ic.calls", "count", "lower"),
    ("selection.select_ic.self_s", "s", "lower"),
    ("selection.full_model_t_ratios.calls", "count", "lower"),
    ("selection.full_model_t_ratios.self_s", "s", "lower"),
    ("montecarlo.simulate_response.calls", "count", "lower"),
    ("montecarlo.simulate_response.self_s", "s", "lower"),
    ("experiments.convergence_sweep.self_s", "s", "lower"),
    ("experiments.tube_sweep.self_s", "s", "lower"),
    ("experiments.impossibility_demo.self_s", "s", "lower"),
    ("experiments.aic_equivalence_audit.self_s", "s", "lower"),
    ("experiments.report_gap_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.uncovered_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def layer_values(tracer: Tracer, wall: tuple[float, float], untraced_wall_s: float,
                 report_wall_s: float) -> dict[str, float]:
    """Per-layer metric values of the traced work.

    ``wall`` is the (start, end) of the traced work, ``untraced_wall_s`` the
    duration of the same work run untraced, and ``report_wall_s`` the sum of
    the ``wall_clock_s`` fields of the sweep reports it produced.
    """
    c = tracer.counts
    selft = tracer.self_time_by_name()
    dur = tracer.duration_by_name()
    cdf_calls = c["dist_exact.cdf_exact.calls"]
    rows_calls = c["dist_limit.rows.calls"]
    reps = c["montecarlo.replications"]
    v = {
        "montecarlo.draw_s": dur["montecarlo.draw"],
        "montecarlo.kernel_setup_s": dur["montecarlo.kernel_setup"],
        "montecarlo.kernel_s": selft["montecarlo.kernel"],
        "montecarlo.tally_s": selft["montecarlo.cdf_chunk"],
        "montecarlo.err_chunk_s": selft["montecarlo.err_chunk"],
        "montecarlo.valid_ratio": c["montecarlo.valid"] / reps if reps else 0.0,
        "dist_exact.cdf_exact.self_s": selft["dist_exact.cdf_exact"],
        "dist_exact.engine_setup_s": dur["dist_exact.engine_setup"],
        "dist_exact.term_k1_s": dur["dist_exact.term_k1"],
        "dist_exact.term_sampled_s": dur["dist_exact.term_sampled"],
        "dist_exact.refine_levels_mean":
            c["dist_exact.refine_levels_sum"] / cdf_calls if cdf_calls else 0.0,
        "dist_limit.rows_s": dur["dist_limit.rows"],
        "dist_limit.refine_levels":
            c["dist_limit.refine_levels_sum"] / rows_calls if rows_calls else 0.0,
        "experiments.report_gap_s":
            sum(dur["experiments." + e] for e in EXPERIMENTS) - report_wall_s,
        "trace.spans": len(tracer.spans),
        "trace.uncovered_s": (wall[1] - wall[0]) - tracer.root_coverage(*wall),
        "trace.overhead_s": (wall[1] - wall[0]) - untraced_wall_s,
    }
    for name, _, _ in PER_LAYER:
        if name not in v:
            base, _, field = name.rpartition(".")
            v[name] = selft[base] if field == "self_s" else c[name]
    return {name: float(v[name]) for name, _, _ in PER_LAYER}
