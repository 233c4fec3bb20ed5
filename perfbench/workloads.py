"""The benchmark workloads: inputs made from the seed, and checked operations.

A workload is a fixed number of passes.  Pass `k` of a run with seed `S` is a
list of operations whose inputs depend only on `(S, k)`, so the same seed gives
the same inputs, and every pass of a run does the same kind and amount of work
on fresh data.  Each operation returns an `OpResult` saying whether its output
passed the benchmark's check; an operation that raises is a failed operation
too (the runner catches it).

Why each workload exists is documented in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

from slra import chow, cli, eddegree, polyarith, solver, structured

# The bundled order-5 Hankel data and the counts the README promises for it.
HANKEL33_EXPECTED = {("ones", 1): 6, ("omega", 1): 10, ("theta", 1): 4,
                     ("ones", 2): 9, ("omega", 2): 13, ("theta", 2): 7}
README_VALUES = ((["eddeg", "generic", "--m", "4", "--n", "4", "--r", "2",
                   "--s", "0"], 1350),
                 (["eddeg", "hankel", "--d", "8", "--r", "4"], 121),
                 (["eddeg", "sylvester", "--m", "2", "--n", "5", "--k", "2"], 26))

# The exact grid: every format m <= n <= EXACT_N at every rank.  N = 7 keeps it
# near 4.3 s cold; 8x8 at r = 3..5 alone costs about a minute.
EXACT_N = 7


@dataclass
class OpResult:
    ok: bool                        # output passed the benchmark's check
    work: int                       # paths tracked, or exact answers given
    latency_s: float | None         # per-operation latency sample, if any
    note: str = ""                  # why the check failed
    stats: dict = field(default_factory=dict)   # PathStats of a solve
    found: int = 0                  # critical points returned by a solve
    exact_mismatch: bool = False    # two exact routes disagreed


Op = tuple[str, Callable[[], OpResult]]


def derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# solve workloads
# ---------------------------------------------------------------------------

def _solve_op(label: str, make, formulation: str, seed: int, charts: int = 2,
              expected: int | None = None) -> Op:
    """Build the instance, solve it, and compare the number of critical
    points with the exact prediction (or with `expected` for bundled data)."""

    def run() -> OpResult:
        t0 = perf_counter()
        inst = make()
        ss = solver.solve(inst, formulation,
                          solver.TrackerConfig(seed=seed, charts=charts))
        latency = perf_counter() - t0
        want = expected if expected is not None else ss.predicted
        problems = []
        if want is None:
            problems.append("no exact prediction to check against")
        elif ss.n_complex != want:
            problems.append(f"found {ss.n_complex}, predicted {want}")
        problems.extend(ss.warnings)
        return OpResult(ok=not problems, work=ss.stats.n_paths,
                        latency_s=latency, note="; ".join(problems),
                        stats=vars(ss.stats).copy(), found=ss.n_complex)

    return label, run


def solve_stream_pass(seed: int, index: int, small: bool = False) -> list[Op]:
    """Ten small solves, in `auto` formulation unless noted.

    A weighted dense 2x2 rank-one instance (two charts of 9 paths), three
    2x2 `primal` instances with linear sections s = 0..2, and the bundled
    order-5 Hankel data (whose counts are known for all three weight
    patterns) at ranks 1 and 2.  Dense data and every tracker seed come from
    (seed, pass, position).  Larger dense instances are left out: their time
    varies 2-3x with the seed alone (README.md), more than a 50 s run can
    average out.
    """
    ops: list[Op] = []

    def s(pos: int) -> int:
        return derived_seed(seed, index, pos)

    k = s(0)
    ops.append(_solve_op("dense 2x2 r=1",
                         lambda: structured.dense_instance(2, 2, 1, seed=k),
                         "auto", k))
    for sec in ((0, 1, 2) if not small else (1,)):
        k = s(10 + sec)
        ops.append(_solve_op(
            f"dense 2x2 r=1 s={sec} primal",
            lambda sec=sec, k=k: structured.dense_instance(2, 2, 1, seed=k, s=sec),
            "primal", k))
    hankel = structured.load_dataset("hankel33")
    combos = sorted(HANKEL33_EXPECTED) if not small else [("omega", 1)]
    for pos, (kind, r) in enumerate(combos):
        k = s(20 + pos)
        ops.append(_solve_op(
            f"hankel33 {kind} r={r}",
            lambda kind=kind, r=r: hankel.with_weights(
                structured.hankel_weights(5, kind)).with_rank(r),
            "auto", k, expected=HANKEL33_EXPECTED[(kind, r)]))
    return ops


# ---------------------------------------------------------------------------
# the exact grid
# ---------------------------------------------------------------------------

def _cached_functions():
    out = []
    for module in (chow, eddegree, polyarith):
        for obj in vars(module).values():
            if hasattr(obj, "cache_info") and obj not in out:
                out.append(obj)
    return out


CACHED = _cached_functions()


def clear_caches() -> None:
    for fn in CACHED:
        fn.cache_clear()


def cache_hit_ratio(module_name: str) -> float:
    hits = misses = 0
    for fn in CACHED:
        if fn.__module__ == f"slra.{module_name}":
            info = fn.cache_info()
            hits += info.hits
            misses += info.misses
    return hits / (hits + misses) if hits + misses else 0.0


def _exact_result(problems: list[str], answers: int,
                  latency: float | None = None) -> OpResult:
    return OpResult(ok=not problems, work=answers, latency_s=latency,
                    note="; ".join(problems), exact_mismatch=bool(problems))


def _format_op(m: int, n: int, r: int, rng: np.random.Generator) -> Op:
    """First answer for the format (timed), then a seeded sweep over s and the
    cross-checks that apply to the format."""
    top = m * n - 1
    order = [int(x) for x in rng.permutation(top + 1)]

    def run() -> OpResult:
        t0 = perf_counter()
        first = eddegree.ed_degree(eddegree.EDDegreeQuery(m, n, r, order[0]))
        latency = perf_counter() - t0
        values = {order[0]: first}
        for s in order[1:]:
            values[s] = eddegree.ed_degree(eddegree.EDDegreeQuery(m, n, r, s))
        problems = []
        answers = len(values)
        if any(v < 0 for v in values.values()):
            problems.append("negative degree")
        bound = eddegree.stabilization_bound(m, n, r)
        if any(values[s] != values[0] for s in range(min(bound, top + 1))):
            problems.append(f"value changes below the stabilization bound {bound}")
        if r == 1 or (m == n and r == n - 1):
            # chow against the closed forms (polar duality for corank one)
            closed = (eddegree.sectional_ed_rank1 if r == 1
                      else eddegree.sectional_ed_corank1)
            for s in order:
                via_chow = chow.ed_generic_determinantal(m, n, r, s)
                answers += 1
                if via_chow != closed(m, n, s) or via_chow != values[s]:
                    problems.append(f"chow {via_chow} != closed form at s={s}")
                    break
        return _exact_result(problems, answers, latency)

    return f"format {m}x{n} r={r}", run


def _hankel_op(ds: list[int]) -> Op:
    def run() -> OpResult:
        problems = []
        answers = 0
        for d in ds:
            for r in range(1, d // 2 + 1):
                value = eddegree.hankel_ed_generic(d, r)
                poly = eddegree.hankel_ed_polynomial(r)
                answers += 2
                if poly(d) != value:
                    problems.append(f"hankel d={d} r={r}: {value} != {poly(d)}")
        return _exact_result(problems, answers)
    return "hankel", run


def _sylvester_op(pairs: list[tuple[int, int]]) -> Op:
    def run() -> OpResult:
        problems = []
        answers = 0
        for m, n in pairs:
            for k in range(1, m + 1):
                value = eddegree.sylvester_ed_generic(m, n, k)
                answers += 1
                if k == m and value != 4 * (m + n) - 2:
                    problems.append(f"sylvester ({m},{n},{m}) = {value}")
        return _exact_result(problems, answers)
    return "sylvester", run


def _unit_op(ns: list[int]) -> Op:
    def run() -> OpResult:
        problems = []
        answers = 0
        for n in ns:
            for s in range(n * n):
                unit = eddegree.ed_degree(
                    eddegree.EDDegreeQuery(n, n, n - 1, s, "linear", "unit"))
                generic = eddegree.sectional_ed_corank1(n, n, s)
                answers += 1
                if not 0 <= unit <= generic:
                    problems.append(f"unit n={n} s={s}: {unit} vs generic {generic}")
        return _exact_result(problems, answers)
    return "unit-weight corank one", run


def run_cli(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"slra {' '.join(argv)} exited with {code}")
    return json.loads(buf.getvalue())


def _tables_op() -> Op:
    def run() -> OpResult:
        problems = []
        t1 = run_cli(["eddeg", "table1", "--n", "2..5"])
        for n, col in t1["blocks"]["linear_generic"]["values"].items():
            want = [eddegree.sectional_ed_corank1(int(n), int(n), s)
                    for s in range(len(col))]
            if col != want:
                problems.append(f"table1 linear generic n={n}")
        t3 = run_cli(["eddeg", "table3-omega"])
        for order, row in t3["rows"].items():
            d = int(order) - 1
            if row != [eddegree.hankel_ed_generic(d, r) for r in range(1, d // 2 + 1)]:
                problems.append(f"table3 order {order}")
        t4 = run_cli(["eddeg", "table4-generic"])
        for key, row in t4["rows"].items():
            m, n = (int(x) for x in key.split(","))
            if row[-1] != 4 * (m + n) - 2:
                problems.append(f"table4 ({m},{n})")
        answers = 3
        for argv, want in README_VALUES:
            got = run_cli(argv)["value"]
            answers += 1
            if got != want:
                problems.append(f"slra {' '.join(argv)} gave {got}, README says {want}")
        return _exact_result(problems, answers)
    return "cli tables", run


def exact_grid_ops(seed: int, index: int, small: bool = False) -> list[Op]:
    """Every format m <= n <= N at every rank with an s sweep, plus Hankel,
    Sylvester, unit-weight and CLI table queries, in a seeded order.  Run on
    empty caches (the runner clears them before each pass), the first query
    of each format is cold and the rest of its sweep hits the caches."""
    rng = np.random.default_rng(derived_seed(seed, index))
    top = EXACT_N if not small else 3
    ops = [_format_op(m, n, r, rng)
           for n in range(1, top + 1) for m in range(1, n + 1)
           for r in range(1, m + 1)]
    ops.append(_hankel_op(list(range(2, 13 if not small else 5))))
    ops.append(_sylvester_op([(m, n) for n in range(1, (7 if not small else 3))
                              for m in range(1, n + 1)]))
    ops.append(_unit_op(list(range(2, 6 if not small else 3))))
    ops.append(_tables_op())
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# solve-section
# ---------------------------------------------------------------------------

def solve_section_pass(seed: int, index: int, small: bool = False) -> list[Op]:
    """The exact-degree grid, then six larger rank-one instances with linear
    sections in the overdetermined `normal` formulation, one chart each,
    every chart's paths tracked in one batch: two each of 3x3 with s = 1 (18
    variables, 22 equations, 935 paths), 2x4 with s = 1 (660 paths) and 2x3
    with s = 2 (112 paths).  The median solve is then the mean of the two 2x4
    solves.  The 3x3 and 2x3 instances return one point more than predicted
    at every seed tried; those count as failed operations.

    The exact grid is here rather than in a workload of its own because runs
    of exact queries alone did not repeat: the pure-Python exact engine on a
    shared host spread its times by a fifth to a third from run to run
    (README.md).  Within this pass it is about a tenth of the time.
    """
    specs = [(3, 3, 1), (3, 3, 1), (2, 4, 1), (2, 4, 1), (2, 3, 2), (2, 3, 2)]
    if small:
        specs = [(2, 2, 1)]
    ops = exact_grid_ops(seed, index, small)
    for pos, (m, n, s) in enumerate(specs):
        k = derived_seed(seed, index, pos)
        ops.append(_solve_op(
            f"normal {m}x{n} r=1 s={s}",
            lambda m=m, n=n, s=s, k=k: structured.dense_instance(m, n, 1, seed=k, s=s),
            "normal", k, charts=1))
    return ops


PASSES = {"solve-stream": solve_stream_pass,
          "solve-section": solve_section_pass}
WORKLOADS = tuple(PASSES)

# Nominal length of one pass on a 2-core x86-64 machine.  A run makes
# round(seconds / nominal) passes, at least one, whatever the host's speed,
# so the operations attempted (and the failures among them) depend only on
# the seed and --seconds.
PASS_SECONDS = {"solve-stream": 5.5, "solve-section": 47.5}
