"""Command-line interface: exact degree tables, the solver, instance
generation, and one-command reproductions of the worked examples.

Commands
    eddeg          exact ED degree calculators and reference tables
    solve          homotopy continuation on an instance file
    make-instance  reproducible random instance generation
    reproduce      run a bundled dataset against its expected values

Output is JSON by default (CSV for table subcommands via --csv).  Exit codes:
0 ok, 1 usage/input error, 2 expectation mismatch, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

import numpy as np

from . import chow, eddegree, solver, structured, systems

# Reference values for the affine unit-weight corank-one columns; no formula
# is implemented for these (the conjectured correction covers linear sections
# only), so the table subcommand reports them as reference data.
AFFINE_UNIT_REFERENCE = {
    2: [2, 6, 4, 2],
    3: [3, 15, 31, 39, 39, 33, 21, 9, 3],
    4: [4, 28, 92, 188, 260, 284, 284, 284, 284, 284, 264, 204, 120, 52, 16, 4],
    5: [5, 45, 205, 605, 1221, 1805, 2125, 2205, 2205, 2205, 2205, 2205,
        2205, 2205, 2205, 2205],
}

TABLE4_PAIRS = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5),
                (4, 4), (4, 5)]


def _emit(payload: dict, csv_text: str | None, use_csv: bool) -> None:
    if use_csv and csv_text is not None:
        sys.stdout.write(csv_text)
    else:
        json.dump(payload, sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")


def _parse_n_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


# ---------------------------------------------------------------------------
# eddeg
# ---------------------------------------------------------------------------

def table1_blocks(ns: list[int]) -> dict:
    smax = 15
    blocks: dict[str, dict] = {}
    lin_unit, aff_unit, lin_gen, aff_gen = {}, {}, {}, {}
    for n in ns:
        top = n * n - 1
        lin_gen[n] = [eddegree.sectional_ed_corank1(n, n, s)
                      for s in range(min(smax, top) + 1)]
        aff_gen[n] = [eddegree.affine_section_ed(
            eddegree.EDDegreeQuery(n, n, n - 1, s, "affine", "generic"))
            for s in range(min(smax, top) + 1)]
        lin_unit[n] = [eddegree.conjectured_corank1_unit(n, n, s)
                       for s in range(min(smax, top) + 1)]
        aff_unit[n] = AFFINE_UNIT_REFERENCE.get(n)
    blocks["linear_unit"] = {"values": lin_unit, "basis": "conjecture-based"}
    blocks["affine_unit"] = {"values": aff_unit, "basis": "reference data"}
    blocks["linear_generic"] = {"values": lin_gen, "basis": "exact"}
    blocks["affine_generic"] = {"values": aff_gen, "basis": "exact"}
    return blocks


def _table1_csv(blocks: dict, ns: list[int]) -> str:
    lines = []
    for name in ("linear_unit", "affine_unit", "linear_generic", "affine_generic"):
        block = blocks[name]
        lines.append(f"# {name} ({block['basis']})")
        lines.append("s," + ",".join(f"n={n}" for n in ns))
        cols = block["values"]
        depth = max(len(cols[n] or []) for n in ns)
        for s in range(depth):
            row = [str(s)]
            for n in ns:
                vals = cols[n] or []
                row.append(str(vals[s]) if s < len(vals) else "")
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def cmd_eddeg(args) -> int:
    sub = args.eddeg_command
    use_csv = getattr(args, "csv", False)
    if sub == "segre":
        pc = eddegree.segre_polar_classes(args.m, args.n)
        payload = {
            "command": "eddeg segre",
            "m": args.m, "n": args.n,
            "face_volumes": list(eddegree.segre_face_volumes(args.m, args.n)),
            "polar_classes": list(pc.deltas),
            "ed_degree": pc.total(),
        }
        _emit(payload, None, use_csv)
        return 0
    if sub == "generic":
        value = chow.ed_generic_determinantal(args.m, args.n, args.r, args.s)
        _emit({"command": "eddeg generic", "m": args.m, "n": args.n,
               "r": args.r, "s": args.s, "value": value}, None, use_csv)
        return 0
    if sub == "hankel":
        value = eddegree.hankel_ed_generic(args.d, args.r)
        _emit({"command": "eddeg hankel", "d": args.d, "r": args.r,
               "value": value}, None, use_csv)
        return 0
    if sub == "sylvester":
        value = eddegree.sylvester_ed_generic(args.m, args.n, args.k)
        _emit({"command": "eddeg sylvester", "m": args.m, "n": args.n,
               "k": args.k, "value": value}, None, use_csv)
        return 0
    if sub == "corank1":
        if args.weights == "generic":
            q = eddegree.EDDegreeQuery(args.n, args.n, args.n - 1, args.s,
                                       args.section, "generic")
            value = eddegree.ed_degree(q)
            basis = "exact"
        else:
            if args.section != "linear":
                print("no unit-weight formula for affine sections", file=sys.stderr)
                return 1
            value = eddegree.conjectured_corank1_unit(args.n, args.n, args.s)
            basis = "conjecture-based"
        _emit({"command": "eddeg corank1", "n": args.n, "s": args.s,
               "weights": args.weights, "section": args.section,
               "value": value, "basis": basis}, None, use_csv)
        return 0
    if sub == "unit-gap":
        value = eddegree.corank1_unit_gap(args.m, args.n, args.s)
        _emit({"command": "eddeg unit-gap", "m": args.m, "n": args.n,
               "s": args.s, "value": value,
               "basis": "conjecture-based correction"}, None, use_csv)
        return 0
    if sub == "table1":
        ns = _parse_n_range(args.n)
        blocks = table1_blocks(ns)
        _emit({"command": "eddeg table1", "n": ns, "blocks": blocks},
              _table1_csv(blocks, ns), use_csv)
        return 0
    if sub == "table3-omega":
        rows = {}
        for order in range(3, 10):
            d = order - 1
            rows[order] = [eddegree.hankel_ed_generic(d, r)
                           for r in range(1, d // 2 + 1)]
        csv_text = "n\\r," + ",".join(str(r) for r in range(1, 5)) + "\n"
        for order, vals in rows.items():
            csv_text += str(order) + "," + ",".join(str(v) for v in vals) + "\n"
        _emit({"command": "eddeg table3-omega", "rows": rows}, csv_text, use_csv)
        return 0
    if sub == "table4-generic":
        rows = {}
        for (m, n) in TABLE4_PAIRS:
            rows[f"{m},{n}"] = [eddegree.sylvester_ed_generic(m, n, k)
                                for k in range(1, m + 1)]
        csv_text = "(m;n)\\k,1,2,3,4\n"
        for key, vals in rows.items():
            csv_text += "(" + key.replace(",", ";") + ")," \
                + ",".join(str(v) for v in vals) + "\n"
        _emit({"command": "eddeg table4-generic", "rows": rows}, csv_text, use_csv)
        return 0
    print(f"unknown eddeg subcommand {sub!r}", file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _complex_cell(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _report_points(solution_set: solver.SolutionSet) -> list[dict]:
    out = []
    for p in solution_set.points:
        out.append({
            "X": [[_complex_cell(z) for z in row] for row in np.asarray(p.X)],
            "objective": p.objective,
            "residual": p.residual,
            "is_real": p.is_real,
            "class": p.classification,
        })
    return out


def run_report(command: str, seed: int, solution_set: solver.SolutionSet,
               wall_ms: float) -> dict:
    stats = solution_set.stats
    return {
        "command": command,
        "seed": seed,
        "config": {
            "track_tol": solver.TRACK_TOL, "newton_tol": solver.NEWTON_TOL,
            "dedup_tol": solver.DEDUP_TOL, "real_tol": solver.REAL_TOL,
            "min_step": solver.MIN_STEP, "max_step": solver.MAX_STEP,
            "max_steps": solver.MAX_STEPS, "start_kind": stats.start_kind,
            "seed": seed,
        },
        "n_paths": stats.n_paths,
        "n_converged": stats.n_converged,
        "n_diverged": stats.n_diverged,
        "n_filtered": stats.n_filtered,
        "generic_count": solution_set.generic_count,
        "n_lost": stats.n_lost,
        "n_complex": solution_set.n_complex,
        "n_real": solution_set.n_real,
        "n_local_min": solution_set.n_local_min,
        "points": _report_points(solution_set),
        "expected": solution_set.predicted,
        "agreement": solution_set.agreement,
        "warnings": solution_set.warnings,
        "wall_ms": wall_ms,
    }


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = int(np.random.SeedSequence().entropy % (2 ** 31))
    print(f"derived seed: {seed}", file=sys.stderr)
    return seed


def cmd_solve(args) -> int:
    try:
        instance = structured.load_instance(args.input)
    except (OSError, ValueError) as exc:
        print(f"cannot load instance: {exc}", file=sys.stderr)
        return 1
    if args.weights:
        if instance.family == "hankel":
            order = int(instance.params["hankel_order"])
            instance = instance.with_weights(structured.hankel_weights(order, args.weights))
        elif args.weights == "unit":
            instance = instance.with_weights(
                structured.WeightMatrix.ones(instance.m, instance.n))
        else:
            print("weight override is only available for Hankel instances "
                  "(omega|ones|theta) or as 'unit'", file=sys.stderr)
            return 1
    if args.r is not None:
        instance = instance.with_rank(args.r)
    seed = _resolve_seed(args)
    cfg = solver.TrackerConfig(seed=seed)
    t0 = time.perf_counter()
    try:
        solution_set = solver.solve(instance, args.formulation, cfg,
                                    expected=args.expect)
    except ValueError as exc:
        print(f"cannot solve: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - internal failure contract
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    wall = (time.perf_counter() - t0) * 1000.0
    report = run_report(f"solve {args.input}", seed, solution_set, wall)
    json.dump(report, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    if args.expect is not None and solution_set.n_complex != args.expect:
        return 2
    return 0


# ---------------------------------------------------------------------------
# make-instance
# ---------------------------------------------------------------------------

def cmd_make_instance(args) -> int:
    if args.seed is None:
        print("--seed is required for reproducible instances", file=sys.stderr)
        return 1
    rng = np.random.default_rng(args.seed)
    try:
        # the builders reject a weight kind their family does not take
        if args.family == "dense":
            rank = args.r if args.r is not None else min(args.m, args.n) - 1
            inst = structured.dense_instance(
                args.m, args.n, rank, seed=args.seed, weights=args.weights or "random",
                s=args.s, section=args.section, project_data=args.project)
        elif args.family == "hankel":
            order = args.order or args.n
            data = rng.integers(-10, 11, size=order).tolist()
            inst = structured.hankel_instance(order, data, weights=args.weights or "omega",
                                              r=args.r or 1)
        elif args.family == "sylvester":
            a = rng.integers(-10, 11, size=args.m + 1).tolist()
            b = rng.integers(-10, 11, size=args.n + 1).tolist()
            inst = structured.sylvester_instance(args.m, args.n, args.k, a, b,
                                                 weights=args.weights or "omega")
        else:
            if args.weights is not None:
                raise ValueError("catalecticant instances carry fixed tensor "
                                 "weights; drop --weights")
            vals = rng.integers(-10, 11, size=15)
            data = {name: int(v) for name, v in
                    zip(structured.CATALECTICANT_COORDS, vals)}
            inst = structured.catalecticant_instance(data)
        structured.save_instance(inst, args.out)
    except (ValueError, OSError) as exc:
        print(f"cannot build instance: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {args.out} (seed {args.seed})")
    return 0


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

EXAMPLE36_CLOSEST = np.array([
    [-9.664, 2.805, 7.113, -10.754],
    [14.942, 6.520, 3.149, -8.783],
    [8.344, 0.615, -2.185, 2.177],
])


def _check(name: str, ok: bool, detail: str, results: list) -> bool:
    results.append({"check": name, "pass": bool(ok), "detail": detail})
    return bool(ok)


def reproduce_rey(seed: int, results: list) -> bool:
    inst = structured.load_dataset("rey")
    cfg = solver.TrackerConfig(seed=seed)
    ss = solver.solve(inst, "dual-rank1", cfg)
    ok = _check("complex count", ss.n_complex == 39, f"found {ss.n_complex}, expect 39", results)
    ok &= _check("real count", ss.n_real == 19, f"found {ss.n_real}, expect 19", results)
    ok &= _check("local minima", ss.n_local_min == 7, f"found {ss.n_local_min}, expect 7", results)
    const = [p for p in ss.points if p.is_real
             and np.max(np.abs(np.real(p.X) - (-25.375))) < 1e-8]
    ok &= _check("constant critical matrix", len(const) == 1,
                 "entries within 1e-8 of -25.375" if const else "not found", results)
    return ok


def reproduce_hankel33(seed: int, results: list) -> bool:
    inst = structured.load_dataset("hankel33")
    expected = {("ones", 1): 6, ("omega", 1): 10, ("theta", 1): 4,
                ("ones", 2): 9, ("omega", 2): 13, ("theta", 2): 7}
    ok = True
    for (kind, r), want in expected.items():
        variant = inst.with_weights(structured.hankel_weights(5, kind)).with_rank(r)
        ss = solver.solve(variant, "auto", solver.TrackerConfig(seed=seed))
        ok &= _check(f"{kind} rank {r}", ss.n_complex == want,
                     f"found {ss.n_complex}, expect {want}", results)
    return ok


def reproduce_example36(seed: int, results: list) -> bool:
    inst = structured.load_dataset("example36")
    cfg = solver.TrackerConfig(seed=seed)
    ss = solver.solve(inst, "normal", cfg)
    ok = _check("complex count", ss.n_complex == 83, f"found {ss.n_complex}, expect 83", results)
    ok &= _check("real count", ss.n_real == 7, f"found {ss.n_real}, expect 7", results)
    closest = ss.closest()
    match = closest is not None and np.max(
        np.abs(np.real(closest.X) - EXAMPLE36_CLOSEST)) < 5e-4
    ok &= _check("closest matrix", match,
                 "matches the reference to 3 decimals" if match else "mismatch", results)
    return ok


def catalecticant_count_instances(seed: int):
    """The count's tensor-weight instance, its generic-weight variant and the
    drawn coefficients w_k, each spread as w_k / |positions of k| so that the
    coordinate weights sum back to w_k exactly."""
    rng = np.random.default_rng(seed)
    data = rng.integers(-10, 11, size=15).astype(float)
    data[0] += 11  # keep the leading coefficient away from zero
    theta = structured.catalecticant_instance(
        dict(zip(structured.CATALECTICANT_COORDS, data.tolist())))
    coeffs = rng.integers(1, 21, size=15)
    st = theta.structure()
    generic = theta.with_weights(structured.WeightMatrix.from_rows(
        [[Fraction(int(coeffs[k]), len(st.positions(k))) for k in row] for row in st.grid]))
    return theta, generic, coeffs


def reproduce_catalecticant_count(seed: int, results: list) -> bool:
    theta, generic, _ = catalecticant_count_instances(seed)
    sys_theta = systems.catalecticant_rank2(theta)
    cfg = solver.TrackerConfig(seed=seed)
    stats = solver.PathStats()
    raw = solver.solve_system(sys_theta, cfg, stats=stats)
    ded = solver._dedup(raw, solver.DEDUP_TOL)
    warnings: list[str] = []
    folded = solver._fold_symmetry(ded, sys_theta, solver.DEDUP_TOL, warnings)
    ok = _check("tensor-weight raw count", len(ded) == 390,
                f"found {len(ded)} filtered parameter solutions, expect 390 = 2*195",
                results)
    ok &= _check("tensor-weight folded count", len(folded) == 195,
                 f"found {len(folded)}, expect 195", results)
    sys_gen = systems.catalecticant_rank2(generic)
    stats2 = solver.PathStats()
    raw2 = solver.solve_system(sys_gen, cfg, stats=stats2)
    ded2 = solver._dedup(raw2, solver.DEDUP_TOL)
    folded2 = solver._fold_symmetry(ded2, sys_gen, solver.DEDUP_TOL, warnings)
    ok &= _check("generic-weight raw count", len(ded2) == 3626,
                 f"found {len(ded2)}, expect 3626 = 2*1813", results)
    ok &= _check("generic-weight folded count", len(folded2) == 1813,
                 f"found {len(folded2)}, expect 1813", results)
    return ok


SLOW_REPRODUCTIONS = {"catalecticant-count"}


def cmd_reproduce(args) -> int:
    name = args.name
    if name in SLOW_REPRODUCTIONS and not args.allow_slow:
        print(f"reproduction {name!r} tracks about 240,000 paths; "
              "pass --allow-slow to run it", file=sys.stderr)
        return 1
    seed = args.seed if args.seed is not None else 1
    runners = {
        "rey": reproduce_rey,
        "hankel33": reproduce_hankel33,
        "example36": reproduce_example36,
        "catalecticant-count": reproduce_catalecticant_count,
    }
    if name not in runners:
        print(f"unknown reproduction {name!r}; choose from {sorted(runners)}",
              file=sys.stderr)
        return 1
    results: list[dict] = []
    t0 = time.perf_counter()
    try:
        ok = runners[name](seed, results)
    except Exception as exc:  # pragma: no cover - internal failure contract
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    report = {
        "command": f"reproduce {name}",
        "seed": seed,
        "status": "PASS" if ok else "FAIL",
        "checks": results,
        "wall_ms": (time.perf_counter() - t0) * 1000.0,
    }
    json.dump(report, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slra",
        description="Exact ED degrees and homotopy continuation for weighted "
                    "structured low-rank approximation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ed = sub.add_parser("eddeg", help="exact ED degree calculators")
    ed_sub = p_ed.add_subparsers(dest="eddeg_command", required=True)

    p = ed_sub.add_parser("segre", help="face volumes and polar classes of rank-one matrices")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = ed_sub.add_parser("generic", help="generic sectional ED degree of rank <= r")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, default=0)

    p = ed_sub.add_parser("hankel", help="generic ED degree of rank <= r Hankel forms")
    p.add_argument("--d", type=int, required=True, help="degree of the binary form")
    p.add_argument("--r", type=int, required=True)

    p = ed_sub.add_parser("sylvester", help="generic ED degree of the approximate-GCD locus")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = ed_sub.add_parser("corank1", help="square corank-one sectional ED degree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, default=0)
    p.add_argument("--weights", choices=("generic", "unit"), default="generic")
    p.add_argument("--section", choices=("linear", "affine"), default="linear")

    p = ed_sub.add_parser("unit-gap", help="conjectured generic-to-unit drop")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, default=0)

    p = ed_sub.add_parser("table1", help="corank-one table for square formats")
    p.add_argument("--n", type=str, default="2..5", help="range like 2..5")
    p.add_argument("--csv", action="store_true")

    p = ed_sub.add_parser("table3-omega", help="Hankel generic chart")
    p.add_argument("--csv", action="store_true")

    p = ed_sub.add_parser("table4-generic", help="Sylvester generic chart")
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("solve", help="find all complex critical points")
    p.add_argument("--input", required=True)
    p.add_argument("--formulation", default="auto",
                   choices=("auto",) + solver.FORMULATIONS)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--expect", type=int, default=None)
    p.add_argument("--weights", default=None,
                   help="weight override: omega|ones|theta (Hankel) or unit")
    p.add_argument("--r", type=int, default=None, help="rank override")

    p = sub.add_parser("make-instance", help="write a reproducible instance file")
    p.add_argument("--family", required=True,
                   choices=("dense", "hankel", "sylvester", "catalecticant"))
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--s", type=int, default=0)
    p.add_argument("--order", type=int, default=None, help="Hankel order")
    p.add_argument("--section", choices=("linear", "affine"), default="linear")
    p.add_argument("--weights", default=None,
                   help="dense: random (default)|unit; hankel/sylvester: "
                        "omega (default)|ones|theta; none for catalecticant")
    p.add_argument("--project", action="store_true",
                   help="project the data matrix onto the section")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("reproduce", help="run a bundled dataset against its "
                                         "expected values")
    p.add_argument("name", choices=("rey", "hankel33", "example36",
                                    "catalecticant-count"))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--allow-slow", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return 0 if exc.code == 0 else 1
    try:
        if args.command == "eddeg":
            return cmd_eddeg(args)
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "make-instance":
            return cmd_make_instance(args)
        if args.command == "reproduce":
            return cmd_reproduce(args)
    except ValueError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - internal failure contract
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    return 1


if __name__ == "__main__":
    sys.exit(main())
