"""Tests of the benchmark harness: self-time arithmetic, the tail-percentile
rule, metric names, patching that leaves the package as it found it, and
wall time that leaves out calibration.

    python3 -m pytest -q benchmarks/test_bench.py
"""
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
from gauge import CAL_REF_S, Gauge  # noqa: E402
import spans  # noqa: E402
from spans import METRIC_NAME, Span, Tracer, covered_length, self_times  # noqa: E402


def test_self_time_subtracts_children_once():
    s = [Span("root", 0.0, 10.0, -1),
         Span("a", 1.0, 4.0, 0),
         Span("a.x", 2.0, 3.0, 1),
         Span("b", 3.5, 6.0, 0),      # overlaps a: the union covers 1.0..6.0
         Span("c", 9.0, 12.0, 0)]     # overhangs the root's end: clipped to 9..10
    assert self_times(s) == pytest.approx([10.0 - 5.0 - 1.0, 3.0 - 1.0, 1.0, 2.5, 3.0])


def test_covered_length_merges_and_clips():
    assert covered_length([], 0.0, 1.0) == 0.0
    assert covered_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.5, 5.5) == pytest.approx(3.0)
    assert covered_length([(2.0, 1.0), (7.0, 8.0)], 0.0, 5.0) == 0.0


def test_tracer_records_parents_and_restores_names():
    import types

    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    originals = (mod.inner, mod.outer)
    tr = Tracer()
    for name in ("inner", "outer"):
        original = getattr(mod, name)
        tr._patches.append((mod, name, original))
        setattr(mod, name, tr.wrap(name, original))
    assert mod.outer(1) == 4
    tr.unpatch()
    assert (mod.inner, mod.outer) == originals
    assert [(s.name, s.parent) for s in tr.spans] == [("outer", -1), ("inner", 0)]
    assert tr.counts["outer.calls"] == tr.counts["inner.calls"] == 1


def test_install_patches_every_consumer_and_unpatch_restores():
    import pmsdist.cli
    import pmsdist.dist_exact
    import pmsdist.experiments

    before = (pmsdist.dist_exact.cdf_exact, pmsdist.experiments.cdf_exact,
              pmsdist.cli.cdf_exact)
    tr = Tracer()
    spans.install(tr)
    try:
        wrapped = pmsdist.dist_exact.cdf_exact
        assert wrapped is not before[0]
        assert pmsdist.experiments.cdf_exact is wrapped and pmsdist.cli.cdf_exact is wrapped
    finally:
        tr.unpatch()
    assert (pmsdist.dist_exact.cdf_exact, pmsdist.experiments.cdf_exact,
            pmsdist.cli.cdf_exact) == before


@pytest.mark.parametrize("n, expected", [
    (19, None),                # 50th percentile has only 9 samples beyond it
    (20, 50.0),
    (40, 75.0),
    (100, 90.0),
    (200, 95.0),
    (1000, 99.0),
    (10_000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    got = run.tail_percentile(list(range(n)))
    if expected is None:
        assert got is None
        return
    q, value = got
    assert q == expected
    assert sum(1 for x in range(n) if x > value) >= 10


def test_metric_names_are_valid_unique_and_match_benchmark_json():
    e2e = [name for name, _, _ in run.END_TO_END]
    layer = [name for name, _, _ in spans.PER_LAYER]
    for name in e2e + layer:
        assert METRIC_NAME.fullmatch(name), name
    assert len(set(e2e + layer)) == len(e2e) + len(layer)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == spans.PER_LAYER


def test_pass_seconds_leaves_out_calibration_samples():
    g = Gauge()
    # one sample before the pass [1, 10], two in it outside its calls, one inside
    # its first call, one straddling its end
    g.mids = [0.5, 2.0, 3.5, 8.0, 10.0]
    g.durations = [CAL_REF_S] * 5
    assert g.sampled_within(1.0, 10.0) == pytest.approx(3 * CAL_REF_S)
    assert g.busy(3.0, 4.0) == pytest.approx(1.0 - CAL_REF_S)
    # every sample takes CAL_REF_S, so the scale is 1 and only the
    # calibration time inside the pass comes off it
    calls = [(3.0, 4.0), (5.0, 7.5)]
    assert run._pass_seconds(g, calls, 1.0, 10.0) == pytest.approx(9.0 - 3 * CAL_REF_S)
