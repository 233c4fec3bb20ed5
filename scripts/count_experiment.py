#!/usr/bin/env python3
"""Count reconciliation experiment: random dense instances vs the exact engine.

For a sweep of seeds, generates a random weighted corank-one instance, runs
the solver in its `auto` formulation, and compares the number of critical
points with the exact prediction.  A shortfall of the weight route whose
found and lost points add up to the generic count it deformed from reads
"lost N to infinity": such weights lose those points.  Any other mismatch
prints full path forensics and makes the script exit 1.
"""

import argparse
import sys

from slra import solver, structured


def run(n: int, seeds: range, section: int) -> bool:
    """Print one line per seed; True when no seed mismatches."""
    hits = lost = 0
    for seed in seeds:
        inst = structured.dense_instance(n, n, n - 1, seed=seed, s=section)
        ss = solver.solve(inst, "auto", solver.TrackerConfig(seed=seed))
        report = solver.reconcile(ss)
        generic = report.get("generic_count")
        if report["agreement"]:
            status = "ok"
            hits += 1
        elif generic and report["found"] + report["lost_to_infinity"] == generic:
            status = f"lost {report['lost_to_infinity']} to infinity"
            lost += 1
        else:
            status = "MISMATCH"
        print(f"seed {seed:>4}: found {report['found']:>4} "
              f"expected {report['predicted']} [{status}]")
        if status == "MISMATCH":
            print("  paths:", report["paths"])
            print("  ", report.get("suggestion", ""))
    print(f"{hits}/{len(seeds)} matched, {lost} short by points lost to infinity")
    return hits + lost == len(seeds)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=3, help="square format")
    parser.add_argument("--s", type=int, default=0, help="section codimension")
    parser.add_argument("--seeds", type=int, default=10, help="number of seeds")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    sys.exit(0 if run(args.n, range(args.first_seed, args.first_seed + args.seeds),
                      args.s) else 1)
