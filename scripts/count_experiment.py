#!/usr/bin/env python3
"""Count reconciliation experiment: random dense instances vs the exact engine.

For a sweep of seeds, generates a random weighted corank-one instance, runs
the solver in its `auto` formulation, and compares the number of critical
points with the exact prediction.  A mismatch prints full path forensics.
"""

import argparse

from slra import solver, structured


def run(n: int, seeds: range, section: int) -> None:
    hits = 0
    for seed in seeds:
        inst = structured.dense_instance(n, n, n - 1, seed=seed, s=section)
        ss = solver.solve(inst, "auto", solver.TrackerConfig(seed=seed, charts=1))
        report = solver.reconcile(ss)
        status = "ok" if report["agreement"] else "MISMATCH"
        print(f"seed {seed:>4}: found {report['found']:>4} "
              f"expected {report['predicted']} [{status}]")
        if report["agreement"]:
            hits += 1
        else:
            print("  paths:", report["paths"])
            print("  ", report.get("suggestion", ""))
    print(f"{hits}/{len(list(seeds))} matched")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=3, help="square format")
    parser.add_argument("--s", type=int, default=0, help="section codimension")
    parser.add_argument("--seeds", type=int, default=10, help="number of seeds")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    run(args.n, range(args.first_seed, args.first_seed + args.seeds), args.s)
