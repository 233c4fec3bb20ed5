"""Fingerprint every system builder, so that two checkouts can be compared
bitwise.

Prints one line per case: its name and a SHA-256 over the exact bits of what
the builder returned (term order and coefficients of every equation, the
potential, grad_map, merge block, chart tag, the chart map and degenerate
predicate at a fixed point, seeds and lifts, section arrays, projected data,
and the points of a few small seeded solves).  A builder that refuses a case
(``normal_space`` on a Hankel instance, before it took every family) is
fingerprinted by its error message.  Run it in each checkout and
diff the outputs:

    PYTHONPATH=src python3 scripts/compare_builders.py > builders.txt

Checkouts that predate ``polyarith.Poly`` build their systems from
``systems.CPoly``, whose coefficients are all complex; both are fingerprinted
by the value of each coefficient.  Checkouts that predate
``Instance.section()`` and the instance-reading ``hankel_rank1``/
``catalecticant_rank2`` are read through their older forms (``linear_rows``,
coordinate lists, ``coeff_weights``), which the shims below translate.
"""

from __future__ import annotations

import hashlib

import numpy as np

from slra import cli, polyarith, solver, structured, systems

# the polynomial type: polyarith.Poly, or systems.CPoly in older checkouts
POLY = getattr(polyarith, "Poly", None) or systems.CPoly


def _bits(obj) -> str:
    if isinstance(obj, np.ndarray):
        return f"{obj.shape}{obj.dtype}{obj.tobytes().hex()}"
    if isinstance(obj, POLY):
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
            system.chart_tag, system.symmetry is not None, np.asarray(mat),
            [system.degenerate(pt, mat, tol) if system.degenerate else None
             for tol in (1e-8, 1e-1)]]


def _section(inst: structured.Instance):
    if hasattr(inst, "section"):
        return inst.section()
    C = inst.linear_rows()
    c = [float(x.constant) for x in inst.constraints]
    return C, np.array(c + [0.0] * (len(C) - len(c)))


def _hankel_rank1(inst):
    try:
        return systems.hankel_rank1(inst)
    except TypeError:
        coords = [float(x) for x in inst.structure().coords_from_matrix(inst.data_array())]
        return systems.hankel_rank1(inst.structure().n_coords, inst.weights, coords)


def _catalecticant_count_systems(seed: int) -> list:
    if hasattr(cli, "catalecticant_count_instances"):
        theta, generic, _ = cli.catalecticant_count_instances(seed)
        return [systems.catalecticant_rank2(theta), systems.catalecticant_rank2(generic)]
    rng = np.random.default_rng(seed)
    data = rng.integers(-10, 11, size=15).astype(float)
    data[0] += 11
    coeffs = rng.integers(1, 21, size=15).astype(float)
    return [systems.catalecticant_rank2(data.tolist()),
            systems.catalecticant_rank2(data.tolist(), coeff_weights=coeffs.tolist())]


def _normal_space(inst):
    try:
        return _system(systems.normal_space(inst))
    except ValueError as exc:  # checkouts whose normal_space took dense instances only
        return repr(exc)


def _rank_one_charts(name: str, inst: structured.Instance, seed: int):
    """dual_rank1 and rank1_direct on the instance's data, plain and mixed."""
    U, Lam = inst.data_array(), inst.weights.as_array()
    rng = np.random.default_rng(seed)
    n = U.shape[1]
    mix = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    for builder in (systems.dual_rank1, systems.rank1_direct):
        yield f"{name} {builder.__name__} plain", _system(builder(U, Lam))
        yield f"{name} {builder.__name__} mixed", _system(builder(U, Lam, col_mix=mix))


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
                yield name + " section", list(_section(inst))
                yield name + " projected", [projected.data_array(), _section(projected)]
                if m == n and r == n - 1:
                    yield name + " primal", _system(systems.primal_corank1(inst))
                charts, _ = solver._build_charts(
                    inst, "normal", solver.TrackerConfig(seed=seed, charts=2))
                X, N = systems.normal_space_seeds(inst, 4, np.random.default_rng(seed))
                yield name + " seeds", [X, N]
                for system in charts:
                    yield f"{name} normal {system.chart_tag}", _system(system)
                    yield f"{name} normal {system.chart_tag} lift", _lift(system, X, N)
    hankel = structured.load_dataset("hankel33")
    for kind in ("omega", "ones", "theta"):
        inst = hankel.with_weights(structured.hankel_weights(5, kind))
        yield f"hankel33 {kind} section", list(_section(inst))
        yield f"hankel33 {kind} r=1", _system(_hankel_rank1(inst))
        yield f"hankel33 {kind} r=2", _system(systems.primal_corank1(inst.with_rank(2)))
    yield "hankel33 omega r=2 normal", _normal_space(
        hankel.with_weights(structured.hankel_weights(5, "omega")).with_rank(2))
    yield from _rank_one_charts("rey", structured.load_dataset("rey"), 1)
    for m, n, r, seed in ((2, 3, 1, 3), (3, 3, 2, 5)):
        yield from _rank_one_charts(f"dense {m}x{n} r={r} seed={seed}",
                                    structured.dense_instance(m, n, r, seed), seed)
    for m, n, k in ((1, 2, 1), (2, 3, 2), (1, 3, 1), (2, 2, 2)):
        inst = structured.sylvester_instance(m, n, k, list(range(1, m + 2)),
                                             list(range(-n, 1)))
        yield f"sylvester ({m},{n},{k}) section", list(_section(inst))
        if inst.m == inst.n:
            yield f"sylvester ({m},{n},{k}) primal", _system(systems.primal_corank1(inst))
    schultz = structured.load_dataset("schultz")
    yield "schultz section", list(_section(schultz))
    charts, _ = solver._build_charts(schultz, "catalecticant", solver.TrackerConfig())
    yield "schultz catalecticant", _system(charts[0])
    for seed in (1, 2, 3):
        for label, system in zip(("theta", "generic"), _catalecticant_count_systems(seed)):
            yield f"catalecticant-count seed={seed} {label}", _system(system)
    for label, inst, form in (
            ("solve dense 2x3 r=1 s=2", structured.dense_instance(2, 3, 1, 6, s=2), "normal"),
            ("solve dense 3x3 r=2 s=1", structured.dense_instance(3, 3, 2, 4, s=1), "normal"),
            ("solve hankel33 omega r=1", hankel.with_rank(1), "auto")):
        ss = solver.solve(inst, form, solver.TrackerConfig(seed=1, charts=1))
        yield label, [_points(ss), vars(ss.stats)]


def main() -> None:
    total = 0
    for name, payload in cases():
        total += 1
        print(f"{hashlib.sha256(_bits(payload).encode()).hexdigest()[:16]}  {name}")
    print(f"{total} cases")


if __name__ == "__main__":
    main()
