"""Fingerprint every system builder, so that two checkouts can be compared
bitwise.

Prints one line per case: its name and a SHA-256 over the exact bits of what
the builder returned (term order and coefficients of every equation, the
potential, grad_map, merge block, the chart map and degenerate
predicate at a fixed point, seeds and lifts, section arrays, projected data,
and the points and path counts of a few small solves through every route:
seeded fill, weight route and start system, one with paths that stall).
Every builder reads an ``Instance``; the rank-one charts get the instance at
the rank they take.
Run it in each checkout and diff the outputs:

    PYTHONPATH=src python3 scripts/compare_builders.py > builders.txt
"""

from __future__ import annotations

import hashlib

import numpy as np

from slra import cli, polyarith, solver, structured, systems


def _bits(obj) -> str:
    if isinstance(obj, np.ndarray):
        return f"{obj.shape}{obj.dtype}{obj.tobytes().hex()}"
    if isinstance(obj, polyarith.Poly):
        # the value of each coefficient, whatever its type (int, float, complex)
        return repr([(e, complex(c).real.hex(), complex(c).imag.hex())
                     for e, c in obj.terms.items()])
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_bits(x) for x in obj) + "]"
    if isinstance(obj, float):
        return obj.hex()
    return repr(obj)


def _system(system: systems.PolySystem) -> list:
    pt = np.linspace(0.3, 1.7, system.n_vars) * np.exp(0.4j)
    mat = system.reconstruct(pt)
    return [system.variables, system.var_labels, system.equations,
            system.potential, system.grad_map, system.merge_block,
            system.symmetry is not None, np.asarray(mat),
            [system.degenerate(pt, mat, tol) if system.degenerate else None
             for tol in (1e-8, 1e-1)]]


def _rank_one_charts(name: str, inst: structured.Instance, seed: int):
    """dual_rank1 (at corank one) and rank1_direct (at rank one) on the
    instance's data and weights, plain and mixed."""
    n = inst.n
    rng = np.random.default_rng(seed)
    mix = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    for builder, r in ((systems.dual_rank1, min(inst.m, n) - 1), (systems.rank1_direct, 1)):
        at_rank = inst.with_rank(r)
        yield f"{name} {builder.__name__} plain", _system(builder(at_rank))
        yield f"{name} {builder.__name__} mixed", _system(builder(at_rank, col_mix=mix))


def _lift(system, X, N):
    try:
        return system.lift(X, N)
    except np.linalg.LinAlgError as exc:  # a seed whose kernel misses the chart
        return repr(exc)


def _points(ss) -> list:
    return [[p.X, p.is_real, p.classification, p.objective] for p in ss.points]


def cases():
    for seed in (3, 5):
        for m, n, r in ((2, 2, 1), (3, 3, 2), (2, 3, 1), (3, 3, 1), (2, 4, 1)):
            for s, kind in ((0, "linear"), (1, "linear"), (1, "affine"),
                            (2, "linear"), (2, "affine")):
                name = f"dense {m}x{n} r={r} s={s} {kind} seed={seed}"
                inst = structured.dense_instance(m, n, r, seed, s=s, section=kind)
                projected = structured.dense_instance(m, n, r, seed, s=s, section=kind,
                                                      project_data=True)
                yield name + " section", list(inst.section())
                yield name + " projected", [projected.data_array(), projected.section()]
                if m == n and r == n - 1:
                    yield name + " primal", _system(systems.primal_corank1(inst))
                X, N = systems.normal_space_seeds(inst, 4, np.random.default_rng(seed))
                yield name + " seeds", [X, N]
                # the mixed chart every normal solve tracks, and the plain
                # one its start-system fallback runs in
                for label, system in (
                        ("mixed", solver._build_charts(
                            inst, "normal", solver.TrackerConfig(seed=seed))),
                        ("plain", systems.normal_space(inst))):
                    yield f"{name} normal {label}", _system(system)
                    yield f"{name} normal {label} lift", _lift(system, X, N)
    hankel = structured.load_dataset("hankel33")
    for kind in ("omega", "ones", "theta"):
        inst = hankel.with_weights(structured.hankel_weights(5, kind))
        yield f"hankel33 {kind} section", list(inst.section())
        yield f"hankel33 {kind} r=1", _system(systems.hankel_rank1(inst))
        yield f"hankel33 {kind} r=2", _system(systems.primal_corank1(inst.with_rank(2)))
    yield "hankel33 omega r=2 normal", _system(systems.normal_space(
        hankel.with_weights(structured.hankel_weights(5, "omega")).with_rank(2)))
    yield from _rank_one_charts("rey", structured.load_dataset("rey"), 1)
    for m, n, r, seed in ((2, 3, 1, 3), (3, 3, 2, 5)):
        yield from _rank_one_charts(f"dense {m}x{n} r={r} seed={seed}",
                                    structured.dense_instance(m, n, r, seed), seed)
    for m, n, k in ((1, 2, 1), (2, 3, 2), (1, 3, 1), (2, 2, 2)):
        inst = structured.sylvester_instance(m, n, k, list(range(1, m + 2)),
                                             list(range(-n, 1)))
        yield f"sylvester ({m},{n},{k}) section", list(inst.section())
        if inst.m == inst.n:
            yield f"sylvester ({m},{n},{k}) primal", _system(systems.primal_corank1(inst))
    schultz = structured.load_dataset("schultz")
    yield "schultz section", list(schultz.section())
    yield "schultz catalecticant", _system(
        solver._build_charts(schultz, "catalecticant", solver.TrackerConfig()))
    for seed in (1, 2, 3):
        theta, generic, _ = cli.catalecticant_count_instances(seed)
        for label, inst in (("theta", theta), ("generic", generic)):
            system = systems.catalecticant_rank2(inst)
            yield f"catalecticant-count seed={seed} {label}", _system(system)
    theta = hankel.with_weights(structured.hankel_weights(5, "theta"))
    for label, inst, form in (
            ("solve dense 2x3 r=1 s=2", structured.dense_instance(2, 3, 1, 6, s=2),
             "normal"),
            ("solve dense 3x3 r=2 s=1", structured.dense_instance(3, 3, 2, 4, s=1),
             "normal"),
            ("solve hankel33 omega r=1", hankel.with_rank(1), "auto"),
            ("solve rey dual-rank1", structured.load_dataset("rey"), "dual-rank1"),
            ("solve hankel33 theta r=2", theta.with_rank(2), "auto"),
            ("solve dense 2x2 r=1 s=1 primal", structured.dense_instance(2, 2, 1, 7, s=1),
             "primal"),
            ("solve dense 3x3 r=2 weight route", structured.dense_instance(3, 3, 2, 3),
             "auto")):
        ss = solver.solve(inst, form, solver.TrackerConfig(seed=1))
        yield label, [_points(ss), vars(ss.stats)]
    # the tracker seed of this solve in perfbench's solve-stream seed 2, pass
    # 0 (derived_seed(2, 0, 23)): some of its paths stall short of t = 1 far
    # from the data, so it shows what the tracker's end step does with them
    ones = hankel.with_weights(structured.hankel_weights(5, "ones"))
    ss = solver.solve(ones.with_rank(2), "auto", solver.TrackerConfig(seed=2164777691))
    yield "solve hankel33 ones r=2", [_points(ss), vars(ss.stats)]


def main() -> None:
    total = 0
    for name, payload in cases():
        total += 1
        print(f"{hashlib.sha256(_bits(payload).encode()).hexdigest()[:16]}  {name}")
    print(f"{total} cases")


if __name__ == "__main__":
    main()
