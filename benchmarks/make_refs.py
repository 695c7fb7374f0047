"""Regenerate references.json: high-replication empirical cdfs for every
exact_grid and mc_oracle point, with their standard errors.

Run from the repository root:

    python3 benchmarks/make_refs.py [--replications N] [--workers W]

The master seeds start at workloads.REFERENCE_SEED, a range no workload
seed maps to.  Each reference simulates the same law the workload's value
estimates, so a check compares the two within the reference's standard
error plus the value's own error bound.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from pmsdist.montecarlo import SimulationPlan, empirical_cdf  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--replications", type=int, default=2_000_000)
    ap.add_argument("--workers", type=int, default=2)
    args = ap.parse_args()

    plans = []
    for i, s in enumerate(workloads.exact_sets()):
        plans.append((s.name, SimulationPlan(problem=s.problem, rule=s.rule, A=s.A,
                                             replications=args.replications,
                                             master_seed=workloads.REFERENCE_SEED + i),
                      s.grid))
    for i, case in enumerate(workloads.mc_cases()):
        plan = replace(case.plan, replications=args.replications,
                       master_seed=workloads.REFERENCE_SEED + 16 + i)
        plans.append((f"mc.{case.name}", plan, case.grid))

    sets = {}
    for name, plan, grid in plans:
        t0 = time.perf_counter()
        emp = empirical_cdf(plan, grid, workers=args.workers)
        sets[name] = {"grid": grid.tolist(), "estimates": emp.estimates.tolist(),
                      "standard_errors": emp.standard_errors.tolist(),
                      "replications": plan.replications, "valid": emp.valid,
                      "master_seed": plan.master_seed}
        print(f"{name}: {time.perf_counter() - t0:.1f} s", flush=True)
    with open(workloads.REFERENCE_FILE, "w") as fh:
        json.dump({"generator": "benchmarks/make_refs.py", "sets": sets}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
