"""pmsdist benchmark runner.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One process, one caller, ``workers=1`` and
BLAS pinned to one thread.  ``--trace 0`` times passes of the workload with
tracing off and reports the end-to-end metrics; ``--trace 1`` runs one
pass (plus probes) untraced and then traced, and reports the per-layer
metrics.  Either way the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it list
every metric by name and unit, the tails and sample counts of the p50
metrics, the bases of the ratios, the environment and any failed check.
See benchmarks/README.md.
"""
import os
import sys
import time

# Pin BLAS before numpy is imported, here and in the set-up child processes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 4     # this process plus three fresh set-up processes
PROBE_REPEATS = 3
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

# (name, unit, better): the end-to-end metrics every --trace 0 run reports.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("exact_k1_point_s_p50", "s", "lower"),
    ("exact_kvec_point_s_p50", "s", "lower"),
    ("exact_budget_met_ratio", "ratio", "higher"),
    ("exact_abs_error_max", "1", "lower"),
    ("mc_reps_per_s", "reps/s", "higher"),
    ("mc_g2s_large_n_reps_per_s", "reps/s", "higher"),
    ("mc_g2s_small_n_reps_per_s", "reps/s", "higher"),
    ("mc_ic_reps_per_s", "reps/s", "higher"),
    ("mc_threshold_reps_per_s", "reps/s", "higher"),
]


def tail_percentile(samples):
    """Highest ladder percentile with at least ten samples beyond it.

    Nearest-rank: percentile q is the sample of rank ceil(q n / 100), and
    the samples beyond it are the n - rank larger ones.  Returns
    (percentile, value), or None when even the lowest rung has fewer than
    ten samples beyond it.
    """
    xs = sorted(samples)
    n = len(xs)
    best = None
    for q in TAIL_LADDER:
        rank = max(1, -(-round(q * 10) * n // 1000))   # ceil(q n / 100), exactly
        if n - rank >= 10:
            best = (q, xs[rank - 1])
    return best


def git_commit(root: str):
    """The checked-out commit read from .git, or None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "workers": 1,
        "git_commit": git_commit(ROOT),
        "seed": seed,
    }


def child_setup_s(workload: str, seed: int) -> float:
    """Set-up time, in reference seconds, measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def setup(workload: str, seed: int):
    """Import, build the inputs from the seed, one warm-up call per entry point.

    Returns the workload, a gauge, and the set-up time in reference seconds,
    scaled by calibration samples taken right after it.
    """
    import workloads
    from gauge import Gauge

    wl = workloads.Workload(workload, seed, workloads.load_references())
    workloads.warm_up()
    t_end = time.perf_counter()
    gauge = Gauge()
    for _ in range(5):
        gauge.sample()
    return wl, gauge, gauge.seconds(T_START, t_end)


def _durations(gauge, samples):
    return [gauge.seconds(t0, t1) for t0, t1, _ in samples]


def _pass_seconds(gauge, calls, p0: float, p1: float) -> float:
    """A pass in reference seconds: each library call scaled by the gauge
    around it, the time between calls by the gauge around the whole pass.
    The calibration samples taken during the pass are not counted."""
    inside = [(t0, t1) for t0, t1 in calls if p0 <= t0 and t1 <= p1]
    between = gauge.busy(p0, p1) - sum(gauge.busy(t0, t1) for t0, t1 in inside)
    return (sum(gauge.seconds(t0, t1) for t0, t1 in inside)
            + between * gauge.scale(p0, p1))


def end_to_end(gauge, main_res, probe_res, passes, setup_samples, peak_rss_mb):
    """End-to-end metric values, with tails, sample counts and ratio bases.

    Times are in reference seconds (see gauge.py); "raw" keeps the measured
    value.  A metric whose samples the workload's passes did not produce is
    read from the probes; "from" records which.
    """
    def pick(key, kind):
        table = getattr(main_res, kind)
        if table.get(key):
            return table[key], "pass"
        return getattr(probe_res, kind)[key], "probe"

    walls = [_pass_seconds(gauge, main_res.calls, p0, p1) for p0, p1, _ in passes]
    out = {
        "setup_s": {"value": statistics.median(setup_samples), "samples": len(setup_samples)},
        "wall_s": {"value": statistics.median(walls), "samples": len(walls),
                   "raw": statistics.median(gauge.busy(t0, t1) for t0, t1, _ in passes)},
        "peak_rss_mb": {"value": peak_rss_mb},
    }
    for key in ("exact_k1_point_s", "exact_kvec_point_s"):
        samples, src = pick(key, "timed")
        xs = _durations(gauge, samples)
        tail = tail_percentile(xs)
        out[key + "_p50"] = {
            "value": statistics.median(xs), "samples": len(xs), "from": src,
            "raw": statistics.median(gauge.busy(t0, t1) for t0, t1, _ in samples),
            "tail": None if tail is None else {"percentile": tail[0], "value": tail[1]}}
    met, src = pick("exact_budget_met", "values")
    out["exact_budget_met_ratio"] = {"value": sum(met) / len(met), "base": len(met),
                                     "from": src}
    errs, src = pick("exact_abs_error", "values")
    out["exact_abs_error_max"] = {"value": max(errs), "samples": len(errs), "from": src}
    samples, src = pick("mc_reps", "timed")
    out["mc_reps_per_s"] = {
        "value": sum(w for _, _, w in samples) / sum(_durations(gauge, samples)),
        "samples": len(samples), "from": src,
        "raw": sum(w for _, _, w in samples) / sum(gauge.busy(t0, t1) for t0, t1, _ in samples)}
    for name, _, _ in END_TO_END:
        if name.startswith("mc_") and name not in out:
            samples, src = pick(name, "timed")
            rates = [w / d for (_, _, w), d in zip(samples, _durations(gauge, samples))]
            out[name] = {"value": statistics.median(rates), "samples": len(rates),
                         "from": src,
                         "raw": statistics.median(w / gauge.busy(t0, t1)
                                                  for t0, t1, w in samples)}
    for name, unit, _ in END_TO_END:
        out[name]["unit"] = unit
    return out


def run_timed(wl, gauge, seconds: float, workload: str, seed: int, setup_first: float) -> dict:
    import workloads

    setup_samples = [setup_first] + [child_setup_s(workload, seed)
                                     for _ in range(SETUP_SAMPLES - 1)]
    main_res = workloads.Results(gauge)
    probe_res = workloads.Results(gauge)
    passes = []
    with gauge.sampling():
        t0 = time.perf_counter()
        while True:
            p0 = time.perf_counter()
            wl.run_pass(main_res)
            p1 = time.perf_counter()
            passes.append((p0, p1, 1.0))
            gauge.sample()   # every pass has a calibration sample after its end
            # start another pass only if it should end within the run's seconds
            if (p1 - t0) + statistics.median(b - a for a, b, _ in passes) > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for _ in range(PROBE_REPEATS):
            wl.run_probes(probe_res)
        gauge.sample()
    metrics = end_to_end(gauge, main_res, probe_res, passes, setup_samples, peak_rss_mb)
    checks = main_res.checks + probe_res.checks
    failures = main_res.failures + probe_res.failures
    metrics["check_failed_ratio"] = {"value": len(failures) / checks, "base": checks,
                                     "unit": "ratio"}
    return {"metrics": metrics, "checks": checks, "failures": failures,
            "passes": len(passes), "calibration_samples": len(gauge.durations),
            "calibration_median_s": statistics.median(gauge.durations)}


def run_traced(wl, workload: str, seed: int) -> dict:
    import workloads
    from gauge import Gauge
    from spans import PER_LAYER, Tracer, install, layer_values

    # one sample now, so that no calibration runs inside the timed units
    idle = Gauge(interval=float("inf"))
    idle.sample()

    def unit(res):
        wl.run_pass(res)
        wl.run_probes(res)

    plain = workloads.Results(idle)
    u0 = time.perf_counter()
    unit(plain)
    untraced_s = time.perf_counter() - u0

    tracer = Tracer()
    traced = workloads.Results(idle)
    install(tracer)
    try:
        w0 = time.perf_counter()
        unit(traced)
        w1 = time.perf_counter()
    finally:
        tracer.unpatch()
    values = layer_values(tracer, (w0, w1), untraced_s, traced.sweep_wall_s)
    # each experiment's span must enclose the wall time its own report states
    traced.check(values["experiments.report_gap_s"] >= 0.0,
                 "experiment spans are shorter than the reports' wall_clock_s")
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json"), w0)
    units = {name: unit_ for name, unit_, _ in PER_LAYER}
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    return {"metrics": metrics, "checks": plain.checks + traced.checks,
            "failures": plain.failures + traced.failures, "passes": 1,
            "untraced_s": untraced_s, "traced_s": w1 - w0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="pmsdist benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pmsdist", "__init__.py")):
        print(f"error: no pmsdist sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    wl, gauge, setup_first = setup(args.workload, args.seed)
    if args.setup_only:
        print(repr(setup_first))
        return 0

    if args.trace:
        out = run_traced(wl, args.workload, args.seed)
    else:
        out = run_timed(wl, gauge, args.seconds, args.workload, args.seed, setup_first)
    report = {"workload": args.workload, "trace": args.trace,
              "environment": environment(args.seed), **out}
    for name, m in out["metrics"].items():
        extra = "".join(f"  {k}={m[k]}" for k in ("raw", "samples", "base", "tail", "from")
                        if k in m)
        print(f"{name:46s} {m['value']:<24.10g} {m['unit']}{extra}")
    for msg in out["failures"][:20]:
        print(f"FAILED CHECK: {msg}")
    print("report " + json.dumps(report))
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"report-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    wanted = ([n for n, _, _ in END_TO_END] if not args.trace
              else [n for n in out["metrics"]])
    result = {
        "correct": not out["failures"],
        "attempted": out["checks"],
        "failed": len(out["failures"]),
        "metrics": {n: {"value": out["metrics"][n]["value"], "unit": out["metrics"][n]["unit"]}
                    for n in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
