#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at minimal size, untraced and
traced, must report every metric BENCHMARK.json names, each with its unit,
and a whole-number failure count against at least one attempt.

    python3 perfbench/selftest.py        # about half a minute
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins the BLAS threads before numpy loads)


def check(line: dict, spec: list[dict], where: str) -> list[str]:
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: keys {sorted(line)}")
    if not (isinstance(line["attempted"], int) and line["attempted"] >= 1):
        problems.append(f"{where}: attempted = {line['attempted']!r}")
    if not isinstance(line["failed"], int) or not 0 <= line["failed"] <= line["attempted"]:
        problems.append(f"{where}: failed = {line['failed']!r}")
    if line["correct"] is not True:
        problems.append(f"{where}: correct = {line['correct']!r}")
    metrics = line["metrics"]
    if set(metrics) != {m["name"] for m in spec}:
        problems.append(f"{where}: metric names differ: "
                        f"{sorted(set(metrics) ^ {m['name'] for m in spec})}")
    for m in spec:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {got.get('unit')!r}")
        if not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: {m['name']} value {got.get('value')!r}")
    json.dumps(line)  # must serialize
    return problems


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    run.load_program()
    import workloads

    names = [w["name"] for w in bench["workloads"]]
    if tuple(names) != workloads.WORKLOADS:
        print(f"workloads differ: {names} vs {workloads.WORKLOADS}")
        return 1
    problems = []
    for name in names:
        for trace, spec in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            line, _ = run.measure(name, seed=1, seconds=0, trace=trace, small=True)
            found = check(line, spec, f"{name} trace={trace}")
            print(f"{name} trace={trace}: attempted {line['attempted']} "
                  f"failed {line['failed']} {'ok' if not found else 'FAIL'}")
            problems.extend(found)
    for p in problems:
        print("  " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
