#!/usr/bin/env python3
"""Benchmark of the slra package: time to all critical points and to exact
degrees, with a traced run that breaks the time down per module.

    python3 perfbench/run.py --workload solve-stream --seed 1 --seconds 32 --trace 0

Run from the repository root.  The benchmark imports the package from
`src/` of the tree it sits in, makes the workload's inputs from `--seed`,
runs a fixed number of passes of checked operations, sized to last about
`--seconds` seconds, and prints as its last line one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones of BENCHMARK.json; with `--trace 1` they are
the per-layer ones, and the raw spans are written to perfbench/out/.  See README.md in this directory.
"""

import os
import sys

# One BLAS/OpenMP thread: fixed before numpy loads, so every run (and the
# set-up probes, which inherit the environment) uses the same thread count.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
TAIL_PERCENTILE = 90


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Put the tree's own sources first on the path and import them."""
    if not (SRC / "slra" / "__init__.py").is_file():
        fail(f"no slra package under {SRC}; run from a checkout of the repository")
    try:
        import scipy.sparse  # noqa: F401
    except ImportError as exc:
        fail(f"scipy.sparse cannot be imported ({exc}); the solver needs it "
             "although pyproject.toml does not declare it")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads  # noqa: F401


def environment(args) -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def measure_setup() -> tuple[float, list[float]]:
    """Median wall time of fresh interpreters running setup_probe.py."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py")],
                              cwd=ROOT, capture_output=True, text=True)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
    return statistics.median(times), times


def tail(samples: list[float]) -> tuple[float, int]:
    """Nearest-rank TAIL_PERCENTILE of the pooled per-operation latencies,
    and the number of samples beyond it.

    A fixed percentile does not move with the number of passes a run fits.
    "The highest percentile with ten samples beyond it" does: on exact queries
    it jumped from 16 ms to 1.1 s as runs went from one to seven passes,
    so a faster program would have read as a slower tail.
    """
    xs = sorted(samples)
    rank = math.ceil(TAIL_PERCENTILE / 100 * len(xs))
    return xs[rank - 1], len(xs) - rank


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Pass:
    def __init__(self, index: int, seconds: float, results: list):
        self.index, self.seconds, self.results = index, seconds, results

    def solves(self) -> list:
        return [res for _, res in self.results if res.stats]

    def latencies(self) -> list[float]:
        return [res.latency_s for res in self.solves()]

    def paths_per_s(self) -> float:
        return sum(res.work for res in self.solves()) / self.seconds


def run_ops(ops) -> tuple[float, list]:
    """Run one pass; an operation that raises is a failed operation."""
    from workloads import OpResult

    results = []
    t0 = perf_counter()
    for label, op in ops:
        try:
            res = op()
        except Exception as exc:  # counted and reported, the run goes on
            res = OpResult(ok=False, work=0, latency_s=None,
                           note=f"{type(exc).__name__}: {exc}")
        results.append((label, res))
    return perf_counter() - t0, results


def pass_count(workload: str, seconds: float) -> int:
    """Passes that fill about `seconds` at the nominal pass length.  The count
    does not depend on how fast the host runs, so two runs with one seed
    attempt the same operations."""
    import workloads

    return max(1, round(seconds / workloads.PASS_SECONDS[workload]))


def run_passes(workload: str, seed: int, seconds: float, small: bool) -> list[Pass]:
    import workloads

    passes = []
    for index in range(pass_count(workload, seconds)):
        ops = workloads.PASSES[workload](seed, index, small)
        workloads.clear_caches()  # every pass starts as cold as a fresh process
        dt, results = run_ops(ops)
        passes.append(Pass(index, dt, results))
    return passes


def summarize(passes: list[Pass]) -> dict:
    """Counts, checks and PathStats totals over the given passes."""
    results = [res for p in passes for _, res in p.results]
    failures = [f"pass {p.index} {label}: {res.note}" for p in passes
                for label, res in p.results if not res.ok]
    stats: dict = {}
    for res in results:
        for key, value in res.stats.items():
            if isinstance(value, int):
                stats[key] = stats.get(key, 0) + value
    starts = sorted({res.stats["start_kind"] for res in results if res.stats})
    solves = [res for res in results if res.stats]
    return {
        "attempted": len(results),
        "failed": len(failures),
        "exact_mismatch": any(res.exact_mismatch for res in results),
        "failures": failures,
        "work": sum(res.work for res in results),
        "latencies": [x for p in passes for x in p.latencies()],
        "path_stats": stats,
        "start_kinds": starts,
        "found": sum(res.found for res in solves),
        "count_agreement": (sum(res.ok for res in solves) / len(solves)
                            if solves else 0.0),
    }


def end_to_end(passes: list[Pass], summary: dict, setup_s: float) -> dict:
    lat = summary["latencies"]
    tail_s, _ = tail(lat)
    values = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.seconds for p in passes), "s"),
        "p50_ms": (1000.0 * statistics.median(lat), "ms"),
        "tail_ms": (1000.0 * tail_s, "ms"),
        "work_per_s": (statistics.median(p.paths_per_s() for p in passes), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def install_tracer():
    """Wrap the functions and methods the program looks up at call time."""
    from spans import Tracer
    from slra import chow, cli, eddegree, polyarith, solver, structured, systems

    tr = Tracer()

    def on(owner, attrs, prefix, count=None):
        for attr in attrs:
            tr.wrap(owner, attr, f"{prefix}.{attr}", count)

    on(structured, ["dense_instance", "hankel_instance", "load_dataset"], "structured")
    on(systems, ["primal_corank1", "dual_rank1", "rank1_direct", "normal_space",
                 "hankel_rank1"], "systems",
       lambda a, res: {"systems.terms": sum(len(eq.terms) for eq in res.equations)})
    on(solver, ["solve", "_build_charts", "solve_system", "square_up",
                "normalize_equations", "choose_start", "track_batch",
                "_batched_solve", "newton_target", "_endgame", "refine_full",
                "_polish_extended", "_dedup", "_fold_symmetry",
                "_conjugate_mismatch", "classify_point", "_predict"], "solver")
    on(solver.CompiledSystem, ["__init__"], "solver.CompiledSystem",
       lambda a, res: {"solver.monomials": a[0].nm})
    on(solver.CompiledSystem, ["eval_and_jac", "eval", "jac", "monomial_values"],
       "solver.CompiledSystem")
    on(solver.MultihomogStart, ["eval_and_jac"], "solver.MultihomogStart")
    on(solver.PowerStart, ["eval_and_jac"], "solver.PowerStart")
    on(solver.Homotopy, ["eval_jac"], "solver.Homotopy",
       lambda a, res: {"solver.rows": a[1].shape[0]})
    on(eddegree, ["ed_degree", "sectional_ed_rank1", "sectional_ed_corank1",
                  "hankel_ed_generic", "hankel_ed_polynomial",
                  "sylvester_ed_generic", "conjectured_corank1_unit",
                  "segre_polar_classes"], "eddegree")
    on(chow, ["ed_generic_determinantal", "sectional_integrals",
              "determinantal_desingularization", "_tensor_universal"], "chow")
    tr.wrap(chow.ChowRing, "multiply", "chow.ChowRing.multiply",
            lambda a, res: {"chow.multiply_calls": 1}, span=False)
    on(polyarith.ExactPoly, ["_mul"], "polyarith.ExactPoly",
       lambda a, res: {"polyarith.terms": len(a[0].terms) * len(a[1].terms)})
    on(cli, ["main"], "cli")
    return tr


TARGET_EVAL = ["solver.CompiledSystem." + a
               for a in ("eval_and_jac", "eval", "jac", "monomial_values")]
QUERIES = ["eddegree." + a for a in ("ed_degree", "sectional_ed_rank1",
                                     "sectional_ed_corank1", "hankel_ed_generic",
                                     "hankel_ed_polynomial", "sylvester_ed_generic",
                                     "conjectured_corank1_unit")] \
    + ["chow.ed_generic_determinantal"]


def per_layer(tr, summary: dict, overhead: float, cache_ratios: dict) -> dict:
    g = tr.group_time
    stats = summary["path_stats"]
    paths = stats.get("n_paths", 0)
    rounds = tr.calls("solver.Homotopy.eval_jac")
    c = tr.counters
    values = {
        "solver.track_s": (g(["solver.track_batch"]), "s"),
        "solver.track_rounds": (rounds, "count"),
        "solver.rows_per_round": (c["solver.rows"] / rounds if rounds else 0.0, "rows"),
        "solver.start_eval_s": (g(["solver.MultihomogStart.eval_and_jac",
                                   "solver.PowerStart.eval_and_jac"]), "s"),
        "solver.linsolve_s": (g(["solver._batched_solve"]), "s"),
        "solver.target_eval_s": (g(TARGET_EVAL), "s"),
        "solver.path_success_ratio": (
            (stats.get("n_converged", 0) + stats.get("n_singular", 0)) / paths
            if paths else 0.0, "ratio"),
        "solver.accept_ratio": (summary["found"] / paths if paths else 0.0, "ratio"),
        "solver.paths": (paths, "count"),
        "solver.converged": (stats.get("n_converged", 0), "count"),
        "solver.singular": (stats.get("n_singular", 0), "count"),
        "solver.diverged": (stats.get("n_diverged", 0), "count"),
        "solver.failed": (stats.get("n_failed", 0), "count"),
        "solver.filtered": (stats.get("n_filtered", 0), "count"),
        "solver.raw_points": (stats.get("n_raw_points", 0), "count"),
        "solver.count_agreement": (summary["count_agreement"], "ratio"),
        "solver.refine_s": (g(["solver.refine_full"]), "s"),
        "solver.polish_s": (g(["solver._polish_extended"]), "s"),
        "solver.dedup_s": (g(["solver._dedup", "solver._fold_symmetry",
                              "solver._conjugate_mismatch"]), "s"),
        "solver.classify_s": (g(["solver.classify_point"]), "s"),
        "solver.start_s": (g(["solver.square_up", "solver.normalize_equations",
                              "solver.choose_start"]), "s"),
        "solver.compile_s": (g(["solver.CompiledSystem.__init__"]), "s"),
        "solver.monomials": (c["solver.monomials"], "count"),
        "structured.instance_s": (g(["structured.dense_instance",
                                     "structured.hankel_instance",
                                     "structured.load_dataset"]), "s"),
        "systems.build_s": (g(["systems." + a for a in (
            "primal_corank1", "dual_rank1", "rank1_direct", "normal_space",
            "hankel_rank1")]), "s"),
        "systems.terms": (c["systems.terms"], "count"),
        "eddegree.predict_s": (g(["solver._predict"]), "s"),
        "eddegree.query_s": (g(QUERIES), "s"),
        "eddegree.cache_hit_ratio": (cache_ratios["eddegree"], "ratio"),
        "chow.desingularization_s": (g(["chow.determinantal_desingularization"]), "s"),
        "chow.integrals_s": (g(["chow.sectional_integrals"],
                               minus=["chow.determinantal_desingularization"]), "s"),
        "chow.multiply_calls": (c["chow.multiply_calls"], "count"),
        "chow.cache_hit_ratio": (cache_ratios["chow"], "ratio"),
        "polyarith.mul_s": (g(["polyarith.ExactPoly._mul"]), "s"),
        "polyarith.mul_calls": (tr.calls("polyarith.ExactPoly._mul"), "count"),
        "polyarith.terms": (c["polyarith.terms"], "count"),
        "cli.table_s": (g(["cli.main"]), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.spans": (len(tr.start), "count"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def traced_run(workload: str, seed: int, small: bool):
    """Pass 0 untraced, then the same pass traced; the ratio of the two pass
    times is the tracing overhead."""
    import workloads

    ops = workloads.PASSES[workload](seed, 0, small)
    workloads.clear_caches()
    plain_s, _ = run_ops(ops)
    tr = install_tracer()
    workloads.clear_caches()
    try:
        traced_s, results = run_ops(ops)
    finally:
        tr.restore()
    ratios = {m: workloads.cache_hit_ratio(m) for m in ("chow", "eddegree")}
    passes = [Pass(0, traced_s, results)]
    return passes, tr, traced_s / plain_s - 1.0, ratios, plain_s


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: int,
            small: bool = False) -> tuple[dict, dict]:
    """Run the workload; returns (result line, details)."""
    import workloads
    from setup_probe import warm_up

    if workload not in workloads.WORKLOADS:
        fail(f"unknown workload {workload!r}; choose from {workloads.WORKLOADS}")
    details: dict = {}
    if trace:
        warm_up()
        passes, tr, overhead, ratios, plain_s = traced_run(workload, seed, small)
        summary = summarize(passes)
        metrics = per_layer(tr, summary, overhead, ratios)
        out = HERE / "out" / f"trace-{workload}-seed{seed}"
        tr.save(out, {"workload": workload, "seed": seed, "pass": 0,
                      "untraced_s": plain_s, "traced_s": passes[0].seconds})
        details["trace_file"] = str(out.with_suffix(".npz").relative_to(ROOT))
        details["self_time_top"] = tr.summary()[:15]
    else:
        setup_s, setup_samples = measure_setup()
        warm_up()
        passes = run_passes(workload, seed, seconds, small)
        summary = summarize(passes)
        metrics = end_to_end(passes, summary, setup_s)
        details["setup_samples_s"] = setup_samples
    lat = summary["latencies"]
    _, beyond = tail(lat) if lat else (0.0, 0)
    details.update({
        "passes": len(passes),
        "pass_s": [p.seconds for p in passes],
        "latency_samples": len(lat),
        "tail_percentile": TAIL_PERCENTILE,
        "tail_samples_beyond": beyond,
        "work": summary["work"],
        "path_stats": summary["path_stats"],
        "start_kinds": summary["start_kinds"],
        "count_agreement": summary["count_agreement"],
        "failures": summary["failures"][:20],
        "solve_latency_s": [[label, res.latency_s] for label, res in passes[0].results
                            if res.stats],
    })
    line = {"correct": not summary["exact_mismatch"],
            "attempted": summary["attempted"], "failed": summary["failed"],
            "metrics": metrics}
    return line, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_program()
    env = environment(args)
    line, details = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"environment": env, "details": details}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
