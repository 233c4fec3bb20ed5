"""Acceptance suite: one test per criterion (criterion 11 has a fast and a
gated part), each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Criterion 11's catalecticant count tracks about 240,000 paths and is
gated behind ED_SLRA_ALLOW_SLOW=1 (it is also marked ``slow``).
"""

import os
import time
from fractions import Fraction

import numpy as np
import pytest
from conftest import eckart_young

from slra import chow, eddegree, solver, structured, systems
from slra.cli import reproduce_catalecticant_count

ALLOW_SLOW = os.environ.get("ED_SLRA_ALLOW_SLOW", "") == "1"


def report(num: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:>2}: {status} - {desc}"
    if detail and not ok:
        line += f" ({detail})"
    print(line)
    assert ok, line


# Printed reference columns for the square corank-one table (s downward).
LINEAR_GENERIC = {
    2: [6, 4, 2, 0],
    3: [39, 39, 39, 39, 33, 21, 9, 3, 0],
    4: [284, 284, 284, 284, 284, 284, 284, 284, 284, 264, 204, 120, 52, 16, 4, 0],
    5: [2205] * 16,
}
AFFINE_GENERIC = {
    2: [6, 6, 4, 2],
    3: [39, 39, 39, 39, 39, 33, 21, 9, 3],
    4: [284] * 10 + [264, 204, 120, 52, 16, 4],
}
LINEAR_UNIT = {
    2: [2, 4, 2, 0],
    3: [3, 15, 31, 39, 33, 21, 9, 3, 0],
    4: [4, 28, 92, 188, 260, 284, 284, 284, 284, 264, 204, 120, 52, 16, 4, 0],
    5: [5, 45, 205, 605, 1221, 1805, 2125, 2205, 2205, 2205, 2205, 2205,
        2205, 2205, 2205, 2205],
}

EXAMPLE_35_SEQUENCES = {
    (4, 4, 2): [1350, 1350, 1350, 1350, 1330, 1250, 1074, 818, 532, 276, 100, 20],
    (3, 4, 2): [83, 83, 83, 83, 83, 83, 73, 49, 22, 6, 0, 0],
    (3, 5, 2): [143, 143, 143, 143, 143, 143, 143, 143, 128, 88, 40, 10],
}

TABLE3_OMEGA = {
    3: [4], 4: [7], 5: [10, 13], 6: [13, 34], 7: [16, 64, 40],
    8: [19, 103, 142], 9: [22, 151, 334, 121],
}

TABLE4_GENERIC = {
    (2, 2): [10, 14], (2, 3): [39, 18], (2, 4): [83, 22], (2, 5): [143, 26],
    (3, 3): [14, 83, 22], (3, 4): [83, 143, 26], (3, 5): [284, 219, 30],
    (4, 4): [18, 284, 219, 30], (4, 5): [143, 676, 311, 34],
}

# Minimal polynomial (degree 10) of the leading entries of six of the
# critical matrices of the rank-one benchmark instance.
REY_DEGREE10 = [
    -1977632463563766878765625,
    27039129499043116889674775,
    -41350080445712457319337106,
    44612094455115888622678587,
    2688673091228371095762316,
    -14854532690380098143152,
    -2198728936046680414272,
    7285836260028875412,
    1602205386689376672,
    27858648335954688,
    164466028468224,
]


def test_criterion_1_corank1_table_generic_blocks():
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for n, column in LINEAR_GENERIC.items():
        got = [eddegree.sectional_ed_corank1(n, n, s) for s in range(len(column))]
        if got != column:
            ok, detail = False, f"linear n={n}: {got}"
    for n, column in AFFINE_GENERIC.items():
        got = [eddegree.affine_section_ed(
            eddegree.EDDegreeQuery(n, n, n - 1, s, "affine", "generic"))
            for s in range(len(column))]
        if got != column:
            ok, detail = False, f"affine n={n}: {got}"
    # affine column for n = 5 via the shift (not printed in the reference)
    got5 = [eddegree.affine_section_ed(
        eddegree.EDDegreeQuery(5, 5, 4, s, "affine", "generic")) for s in range(16)]
    ok &= got5 == [2205] * 16
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(1, "corank-one table, generic linear and affine blocks "
              f"(exact, {elapsed:.3f}s < 1s)", ok, detail)


def test_criterion_2_generic_sequences():
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for (m, n, r), expect in EXAMPLE_35_SEQUENCES.items():
        got = [chow.ed_generic_determinantal(m, n, r, s) for s in range(12)]
        if got != expect:
            ok, detail = False, f"({m},{n},{r}): {got}"
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    report(2, "intermediate-rank sectional sequences via the localization engine "
              f"(exact, {elapsed:.3f}s < 10s)", ok, detail)


def test_criterion_3_hankel_chart():
    t0 = time.perf_counter()
    ok = True
    detail = ""
    polys = {r: eddegree.hankel_ed_polynomial(r) for r in (1, 2, 3, 4)}
    count = 0
    for order, row in TABLE3_OMEGA.items():
        d = order - 1
        for r, expect in enumerate(row, start=1):
            count += 1
            value = eddegree.hankel_ed_generic(d, r)  # binomial == series
            if value != expect or polys[r](d) != expect:
                ok, detail = False, f"(n={order}, r={r})"
    ok &= count == 16
    for r in range(1, 5):
        ok &= eddegree.hankel_ed_generic(2 * r, r) == (3 ** (r + 1) - 1) // 2
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(3, "Hankel generic chart: 16 entries by binomial sum, generating "
              f"function and interpolation (exact, {elapsed:.3f}s < 1s)", ok, detail)


def test_criterion_4_sylvester_chart():
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for (m, n), row in TABLE4_GENERIC.items():
        got = [eddegree.sylvester_ed_generic(m, n, k) for k in range(1, len(row) + 1)]
        if got != row:
            ok, detail = False, f"(m,n)=({m},{n}): {got}"
    for m in range(2, 7):
        for n in range(m, 7):
            ok &= eddegree.sylvester_ed_generic(m, n, m) == 4 * (m + n) - 2
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    report(4, "Sylvester generic chart via the rank-one reduction "
              f"(exact, {elapsed:.3f}s < 30s)", ok, detail)


def test_criterion_5_unit_weight_conjecture():
    ok = True
    detail = ""
    for n, column in LINEAR_UNIT.items():
        got = [eddegree.conjectured_corank1_unit(n, n, s)
               for s in range(len(column))]
        if got != column:
            ok, detail = False, f"n={n}: {got}"
    report(5, "unit-weight columns from the conjectured correction "
              "(exact, labeled conjecture-based)", ok, detail)


def test_criterion_6_rank_one_benchmark():
    t0 = time.perf_counter()
    inst = structured.load_dataset("rey")
    ss = solver.solve(inst, "dual-rank1", solver.TrackerConfig(seed=1))
    elapsed = time.perf_counter() - t0
    ok = (ss.n_complex, ss.n_real, ss.n_local_min) == (39, 19, 7)
    detail = f"counts {(ss.n_complex, ss.n_real, ss.n_local_min)}"
    const = [p for p in ss.points if p.is_real
             and np.max(np.abs(np.real(p.X) + 25.375)) < 1e-8]
    ok &= len(const) == 1
    # the two quoted leading entries are roots of the stated degree-10
    # polynomial, checked in exact rational arithmetic
    for target in (0.0826, -48.1160):
        reals = [p for p in ss.points if p.is_real]
        nearest = min(reals, key=lambda p: abs(float(np.real(p.X[0, 0])) - target))
        x = Fraction(float(np.real(nearest.X[0, 0])))
        value = sum(Fraction(c) * x ** k for k, c in enumerate(REY_DEGREE10))
        magnitude = sum(abs(Fraction(c)) * abs(x) ** k
                        for k, c in enumerate(REY_DEGREE10))
        ok &= abs(value) / magnitude < 1e-6
    ok &= elapsed < 60.0
    report(6, "weighted rank-one benchmark: 39 complex / 19 real / 7 minima, "
              f"constant matrix and degree-10 coordinates ({elapsed:.1f}s < 60s)",
           ok, detail)


def test_criterion_7_hankel_counts():
    t0 = time.perf_counter()
    inst = structured.load_dataset("hankel33")
    expected = {("omega", 1): 10, ("ones", 1): 6, ("theta", 1): 4,
                ("omega", 2): 13, ("ones", 2): 9, ("theta", 2): 7}
    ok = True
    detail = ""
    for (kind, r), want in expected.items():
        variant = inst.with_weights(structured.hankel_weights(5, kind)).with_rank(r)
        formulation = "hankel-rank1" if r == 1 else "primal"
        ss = solver.solve(variant, formulation, solver.TrackerConfig(seed=2))
        if ss.n_complex != want:
            ok, detail = False, f"{kind} r={r}: {ss.n_complex} != {want}"
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    report(7, "order-5 Hankel counts (10,6,4) and (13,9,7) "
              f"({elapsed:.1f}s < 60s)", ok, detail)


def test_criterion_8_seeded_small_instances():
    results = []
    # twelve 2x2 runs with generic weights and linear sections
    for seed in (11, 12, 13):
        for s, expect in enumerate((6, 4, 2, 0)):
            inst = structured.dense_instance(2, 2, 1, seed=seed, s=s)
            ss = solver.solve(inst, "primal", solver.TrackerConfig(seed=seed))
            results.append((f"2x2 seed={seed} s={s}", ss.n_complex == expect,
                            ss.n_complex, expect))
    # four 3x3 generic corank-one runs
    for seed in (21, 22, 23, 24):
        inst = structured.dense_instance(3, 3, 2, seed=seed)
        ss = solver.solve(inst, "dual-rank1",
                          solver.TrackerConfig(seed=seed, charts=1))
        results.append((f"3x3 generic seed={seed}", ss.n_complex == 39,
                        ss.n_complex, 39))
    # four 3x3 unit-weight runs, cross-checked against the truncation oracle
    for seed in (31, 32, 33, 34):
        inst = structured.dense_instance(3, 3, 2, seed=seed, weights="unit")
        ss = solver.solve(inst, "dual-rank1", solver.TrackerConfig(seed=seed))
        best = ss.closest()
        ey = eckart_young(inst.data_array(), 2)
        good = (ss.n_complex == 3 and best is not None
                and np.max(np.abs(np.real(best.X) - ey)) < 1e-6)
        results.append((f"3x3 unit seed={seed}", good, ss.n_complex, 3))
    hits = sum(1 for _, good, *_ in results if good)
    failures = [f"{name}: got {got}, want {want}"
                for name, good, got, want in results if not good]
    ok = hits >= 19
    report(8, f"seeded small instances match exact counts on {hits}/20 "
              "(need >= 19)", ok, "; ".join(failures))


def test_criterion_9_duality_bijection():
    ok = True
    details = []
    for seed in (41, 42, 43, 44, 45):
        inst = structured.dense_instance(3, 3, 2, seed=seed)
        U, Lam = inst.data_array(), inst.weights.as_array()
        # the Hadamard dual: rank one on data Lam * U with weights 1 / Lam
        dual = structured.Instance(
            m=3, n=3, r=1, family="dense",
            U=tuple(tuple(int(w * u) for w, u in zip(wrow, urow))
                    for wrow, urow in zip(inst.weights.rows, inst.U)),
            weights=structured.WeightMatrix.from_rows(
                [[1 / w for w in row] for row in inst.weights.rows]))
        cfg = solver.TrackerConfig(seed=seed, charts=1)
        corank = solver.solve(inst, "normal", cfg)
        rank1 = solver.solve(dual, "normal", cfg)
        ys = [p.X for p in rank1.points]
        matched = 0
        for p in corank.points:
            yt = systems.dual_transfer(p.X, Lam, U)
            dist = min(np.max(np.abs(yt - y)) / (1.0 + np.max(np.abs(yt)))
                       for y in ys)
            if dist < 1e-6:
                matched += 1
        n_real_x, n_real_y = corank.n_real, rank1.n_real
        good = (corank.n_complex == len(ys) == matched == 39
                and n_real_x == n_real_y)
        ok &= good
        if not good:
            details.append(f"seed={seed}: X={corank.n_complex} Y={len(ys)} "
                           f"matched={matched} real=({n_real_x},{n_real_y})")
    report(9, "corank-one and rank-one critical sets correspond bijectively "
              "under the Hadamard transfer on 5 seeded instances", ok,
           "; ".join(details))


def test_criterion_10_property_suite():
    from conftest import fd_gradient_error
    from test_chow import oracle_special_integral, quotient_monomial, special_words

    ok = True
    details = []

    # gradient vs finite differences, every formulation
    rey = structured.load_dataset("rey")
    e36 = structured.load_dataset("example36")
    h5 = structured.load_dataset("hankel33")
    sc = structured.load_dataset("schultz")
    formulations = {
        "primal": systems.primal_corank1(structured.dense_instance(3, 3, 2, seed=11, s=1)),
        "dual-rank1": systems.dual_rank1(rey.with_rank(2)),
        "normal": systems.normal_space(e36),
        "hankel-rank1": systems.hankel_rank1(
            h5.with_weights(structured.hankel_weights(5, "theta"))),
        "catalecticant": systems.catalecticant_rank2(sc),
    }
    for name, system in formulations.items():
        err = fd_gradient_error(system, npts=20)
        if err >= 1e-6:
            ok = False
            details.append(f"{name} gradient error {err:.2e}")

    # conjugate-pair closure on the benchmark solve
    ss = solver.solve(rey, "dual-rank1", solver.TrackerConfig(seed=1))
    if any("conjugate" in w for w in ss.warnings) or (39 - ss.n_real) % 2:
        ok = False
        details.append("conjugate closure failed")

    # determinism across reruns with the same seed
    inst = structured.dense_instance(2, 2, 1, seed=8, s=1)

    def snapshot():
        out = solver.solve(inst, "primal", solver.TrackerConfig(seed=9))
        return [(np.round(p.X, 8).tolist(), p.is_real) for p in out.points]

    if snapshot() != snapshot():
        ok = False
        details.append("rerun determinism failed")

    # Bott integrals of special-class products vs the Chern-root oracle up to
    # ambient rank 5
    for (r, m) in [(1, 3), (2, 3), (1, 4), (2, 4), (3, 4), (1, 5), (2, 5),
                   (3, 5), (4, 5)]:
        ring = chow.grassmannian_ring(r, m)
        for word in special_words(ring.dim, m - r):
            if quotient_monomial(ring, word).integral() != \
                    oracle_special_integral(word, r, m):
                ok = False
                details.append(f"integral mismatch in Gr({r},{m}) at c_{word}(Q)")

    report(10, "property suite: gradients, conjugation, determinism, "
               "special-class integrals vs oracle", ok, "; ".join(details))


def test_criterion_11_example36():
    ok = True
    details = []
    inst = structured.load_dataset("example36")
    ss = solver.solve(inst, "normal", solver.TrackerConfig(seed=1))
    if (ss.n_complex, ss.n_real) != (83, 7):
        ok = False
        details.append(f"constrained rank-2 benchmark counts {(ss.n_complex, ss.n_real)}")
    from slra.cli import EXAMPLE36_CLOSEST
    closest = ss.closest()
    if closest is None or np.max(np.abs(np.real(closest.X) - EXAMPLE36_CLOSEST)) >= 5e-4:
        ok = False
        details.append("closest matrix mismatch")
    report(11, "constrained rank-2 benchmark: 83/7 with closest-point match", ok,
           "; ".join(details))


@pytest.mark.slow
def test_criterion_11_slow_reproductions():
    if not ALLOW_SLOW:
        print("ACCEPTANCE 11: SKIPPED (gated; set ED_SLRA_ALLOW_SLOW=1)")
        pytest.skip("gated behind ED_SLRA_ALLOW_SLOW=1")
    results = []
    ok = reproduce_catalecticant_count(1, results)
    report(11, "slow reproduction: the catalecticant counts 390 = 2*195, "
               "3626 = 2*1813", ok,
           "; ".join(f"{r['check']}: {r['detail']}" for r in results if not r["pass"]))
