"""Re-measure the per-module baseline numbers quoted in benchmarks/README.md.

    python3 benchmarks/baseline.py

Prints, with BLAS pinned to one thread:
  * one 8192-replication g2s chunk on BLOCK_ORTHO at n = 1000, split into
    building the per-replication Philox generators, drawing the noise, and
    the rest of the chunk;
  * cdf_exact per point: k = 2 on COLL2 over the criterion-1 grid, and
    k = 1 on COLL2 over the 9-point grid;
  * cdf_limit per point at k = 2 on COLL2;
  * the calibration kernel's median time over the measurement (see
    gauge.py), which says how fast the machine was running.

Times are measured seconds, not reference seconds.
"""
import os
import statistics
import sys
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402

from pmsdist import dist_limit, montecarlo  # noqa: E402
from pmsdist.dist_exact import AccuracyBudget, CdfQuery, cdf_exact  # noqa: E402
from pmsdist.fixtures import fixture  # noqa: E402

import workloads  # noqa: E402
from gauge import Gauge  # noqa: E402


def _time(fn, repeats=1):
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


def main() -> int:
    gauge = Gauge()
    gauge.sample()
    fx = fixture("BLOCK_ORTHO", n=1000)
    plan = montecarlo.SimulationPlan(problem=fx.problem, rule=fx.rule, A=fx.A,
                                     replications=montecarlo.CHUNK, master_seed=5)
    reps = range(montecarlo.CHUNK)
    chunk = statistics.median(_time(lambda: montecarlo.empirical_cdf(
        plan, workloads.GRID1, workers=1), 3))
    gens = statistics.median(_time(lambda: [montecarlo._rng(5, r) for r in reps], 3))
    draw = statistics.median(_time(lambda: montecarlo._draw_errors(
        fx.problem, 5, 0, montecarlo.CHUNK), 3))
    print(f"BLOCK_ORTHO n=1000 chunk of {montecarlo.CHUNK}: {chunk:.3f} s; "
          f"generators {gens:.3f} s, drawing noise {draw - gens:.3f} s, "
          f"rest of chunk {chunk - draw:.3f} s")

    budget = AccuracyBudget()
    coll = fixture("COLL2")
    for A, grid, label in ((np.eye(2), workloads.GRID2, "k=2"),
                           (workloads.E1, workloads.GRID1, "k=1")):
        times = []
        for t in grid:
            gauge.sample()
            query = CdfQuery(A=A, t=t, theta=coll.problem.theta, sigma=1.0, rule=coll.rule)
            times.append(_time(lambda: cdf_exact(coll.problem, query, budget))[0])
        print(f"cdf_exact COLL2 {label}: {min(times):.3f}-{max(times):.3f} s per point, "
              f"median {statistics.median(times):.3f} s over {len(times)} points")

    alt = dist_limit.LocalAlternative(theta=coll.problem.theta, gamma=np.zeros(2), sigma=1.0)
    times = [statistics.median(_time(lambda: dist_limit.cdf_limit(
        coll.limits, alt, t, coll.rule, budget), 5)) for t in workloads.GRID2]
    print(f"cdf_limit COLL2 k=2: median {1e3 * statistics.median(times):.2f} ms per point "
          f"over {len(times)} points")
    gauge.sample()
    print(f"calibration kernel: median {1e3 * statistics.median(gauge.durations):.2f} ms "
          f"over {len(gauge.durations)} samples")
    return 0


if __name__ == "__main__":
    sys.exit(main())
