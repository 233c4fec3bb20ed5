"""Schubert-engine tests, anchored by a Chern-root brute-force oracle.

The oracle multiplies Schur polynomials (built by semistandard tableau
enumeration, never by Pieri) in the Chern roots, re-expands the product in
the Schur basis by leading-term peeling, and reduces modulo the relations
e_i(all roots) = 0, under which every class whose partition leaves the
r x (m-r) box is zero.  It is deliberately independent of the engine.
"""

import hashlib
import math
import random

import pytest

from slra import chow
from slra.polyarith import Poly


# -- oracle ----------------------------------------------------------------

def ssyt_schur(lam, nvars: int) -> Poly:
    """Schur polynomial s_lam(x_1..x_nvars) as a sum over semistandard
    tableaux (rows weakly increasing, columns strictly increasing)."""
    if not lam:
        return Poly.const(nvars, 1)
    terms: dict[tuple, int] = {}

    def rows(length, minimums):
        # weakly increasing rows, entry j strictly above minimums[j]
        def rec(j, lo, row):
            if j == length:
                yield tuple(row)
                return
            for v in range(max(lo, minimums[j] + 1), nvars + 1):
                rec_gen = rec(j + 1, v, row + [v])
                yield from rec_gen
        yield from rec(0, 1, [])

    def fill(i, above):
        if i == len(lam):
            yield []
            return
        mins = [above[j] if j < len(above) else 0 for j in range(lam[i])]
        for row in rows(lam[i], mins):
            for rest in fill(i + 1, row):
                yield [row] + rest

    for tab in fill(0, []):
        exps = [0] * nvars
        for row in tab:
            for v in row:
                exps[v - 1] += 1
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + 1
    return Poly(nvars, terms)


def schur_expand(poly: Poly, nvars: int) -> dict[tuple, int]:
    """Expand a symmetric polynomial in the Schur basis by peeling the
    lexicographically leading monomial."""
    out: dict[tuple, int] = {}
    p = poly
    guard = 0
    while not p.is_zero():
        guard += 1
        assert guard < 10000, "expansion failed to terminate"
        lead = max(p.terms)
        coeff = p.terms[lead]
        lam = tuple(x for x in lead if x)
        assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1)), \
            "input was not symmetric"
        out[lam] = out.get(lam, 0) + coeff
        p = p - coeff * ssyt_schur(lam, nvars)
    return out


def oracle_product(lam, mu, r, m) -> dict[tuple, int]:
    prod = ssyt_schur(tuple(lam), r) * ssyt_schur(tuple(mu), r)
    expanded = schur_expand(prod, r)
    return {nu: c for nu, c in expanded.items()
            if not nu or nu[0] <= m - r}


# -- engine vs oracle --------------------------------------------------------

@pytest.mark.parametrize("r,m", [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4),
                                 (3, 4), (1, 5), (2, 5), (3, 5), (4, 5)])
def test_pieri_vs_chern_root_oracle(r, m):
    ring = chow.grassmannian_ring(r, m)
    parts = ring.grass.partitions
    for i, lam in enumerate(parts):
        for mu in parts[i:]:
            got = ring.grass.schubert_mult(lam, mu)
            want = oracle_product(lam, mu, r, m)
            assert got == want, (lam, mu, got, want)


def test_p1_square_vanishes():
    ring = chow.grassmannian_ring(1, 2)
    s1 = ring.sigma((1,))
    assert (s1 * s1) == ring.zero()


def test_gr24_sigma1_square():
    ring = chow.grassmannian_ring(2, 4)
    s1 = ring.sigma((1,))
    assert s1 * s1 == ring.sigma((2,)) + ring.sigma((1, 1))


def test_gr24_degree():
    ring = chow.grassmannian_ring(2, 4)
    s1 = ring.sigma((1,))
    assert (s1 ** 4).integral() == 2
    # oracle agrees
    acc = {(0,) * 2: 1}
    prod = ssyt_schur((1,), 2) ** 4
    assert schur_expand(prod, 2).get((2, 2)) == 2


# -- tensor products -----------------------------------------------------------

def elementary_values(roots) -> list[int]:
    """e_0..e_k of k integers, as the coefficients of prod (1 + root * t)."""
    out = [1]
    for x in roots:
        out = [a + x * b for a, b in zip(out + [0], [0] + out)]
    return out


@pytest.mark.parametrize("p,q", [(p, q) for p in range(2, 7) for q in range(2, 7)
                                 if p + q <= 8])
def test_tensor_universal_on_integer_roots(p, q):
    # c_d(A (x) B) evaluated at integer Chern roots is e_d of the pairwise
    # sums a_i + b_j; nothing is expanded symbolically on this side
    rng = random.Random(100 * p + q)
    for _ in range(3):
        a = [rng.randint(-4, 4) for _ in range(p)]
        b = [rng.randint(-4, 4) for _ in range(q)]
        ea_vals, eb_vals = elementary_values(a), elementary_values(b)
        want = elementary_values([x + y for x in a for y in b])
        for d in range(p * q + 1):
            got = sum(coeff
                      * math.prod(ea_vals[i] ** k for i, k in enumerate(ea, start=1))
                      * math.prod(eb_vals[j] ** k for j, k in enumerate(eb, start=1))
                      for (ea, eb), coeff in chow._tensor_universal(p, q, d))
            assert got == want[d], (a, b, d)
    assert all(type(c) is int for _, c in chow._tensor_universal(p, q, p * q // 2))


# -- push-forward to the Grassmannian ----------------------------------------

SMALL_GRASSMANNIANS = [(r, m) for m in range(1, 6) for r in range(1, m + 1)]


@pytest.mark.parametrize("r,m", SMALL_GRASSMANNIANS)
def test_complement_pairing_is_the_product_integral(r, m):
    ring = chow.grassmannian_ring(r, m)
    parts = ring.grass.partitions
    for lam in parts:
        for mu in parts:
            if sum(lam) + sum(mu) != ring.dim:
                continue
            a, b = ring.sigma(lam), ring.sigma(mu)
            assert ring.pairing(a, b) == (a * b).integral(), (lam, mu)


@pytest.mark.parametrize("r,m", [(1, 3), (2, 4), (2, 5), (3, 6)])
def test_segre_class_inverts_chern_class(r, m):
    # s(S^n) = c(Q)^n is the inverse of c(S^n) = c(S)^n
    ring = chow.grassmannian_ring(r, m)
    for n in (1, 2, 3):
        assert ring.chern_sub() ** n * ring.chern_quot() ** n == ring.one()


@pytest.mark.parametrize("r,m", SMALL_GRASSMANNIANS + [(3, 6)])
def test_grassmannian_tangent_top_class_is_euler_characteristic(r, m):
    # the Schubert cells of Gr(r, m) number binom(m, r)
    tangent = chow.grassmannian_tangent(r, m)
    assert tangent.graded_part(r * (m - r)).integral() == math.comb(m, r)


def test_grassmannian_tangent_of_projective_space():
    # Gr(1, m) = P^(m-1), whose tangent Chern class is (1 + sigma_1)^m
    for m in range(2, 6):
        ring = chow.grassmannian_ring(1, m)
        assert chow.grassmannian_tangent(1, m) == (ring.one() + ring.sigma((1,))) ** m


def test_sectional_integrals_on_projective_space():
    # (m, n, r) = (1, n, 1): the desingularization is P^(n-1), where the Euler
    # sequence gives c(T) = (1 + zeta)^n, so I_j = binom(n, n - 1 - j)
    for n in range(2, 6):
        assert chow.sectional_integrals(1, n, 1) == \
            tuple(math.comb(n, n - 1 - j) for j in range(n))


def test_desingularization_rejects_bad_formats():
    with pytest.raises(ValueError):
        chow.determinantal_desingularization(4, 3, 2)
    for r in (0, 4):
        with pytest.raises(ValueError):
            chow.determinantal_desingularization(3, 5, r)


@pytest.mark.parametrize("m,n,expect", [
    (3, 3, (9, 18, 24, 18, 6)),
    (2, 2, (4, 4, 2)),
])
def test_tangent_degrees_reproduce_face_volumes(m, n, expect):
    assert chow.sectional_integrals(m, n, 1) == expect


# -- ED degrees ----------------------------------------------------------------

def test_ed_generic_rank1_3x3():
    assert chow.ed_generic_determinantal(3, 3, 1, 0) == 39


def test_ed_generic_sequences():
    assert [chow.ed_generic_determinantal(4, 4, 2, s) for s in range(12)] == \
        [1350, 1350, 1350, 1350, 1330, 1250, 1074, 818, 532, 276, 100, 20]
    assert chow.ed_generic_determinantal(3, 4, 2, 6) == 73
    assert chow.ed_generic_determinantal(3, 5, 2, 11) == 10


def test_ed_generic_8x8():
    # ED duality pairs rank r with rank n - r on square formats
    assert chow.ed_generic_determinantal(8, 8, 3) == 880266758984
    assert chow.ed_generic_determinantal(8, 8, 5) == 880266758984
    assert chow.ed_generic_determinantal(8, 8, 3, 10) == 880266533192
    assert chow.ed_generic_determinantal(8, 8, 3, 30) == 77169361944
    assert chow.ed_generic_determinantal(8, 8, 5, 50) == 50244768


# SHA-256 of the lines "m n r s value" (joined by newlines) for every
# m <= n <= 7, 1 <= r <= m and 0 <= s < mn: 1,974 values
GRID_DIGEST = "aaf3708489672c3d87d62a5ca15632d4175a7a5cfed251b3ecfc471d4600eb9a"


def test_exact_grid_digest():
    rows = [f"{m} {n} {r} {s} {chow.ed_generic_determinantal(m, n, r, s)}"
            for n in range(1, 8) for m in range(1, n + 1) for r in range(1, m + 1)
            for s in range(m * n)]
    assert len(rows) == 1974
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == GRID_DIGEST


def test_ed_symmetry_in_format():
    for (m, n, r) in [(2, 3, 1), (3, 4, 2), (2, 5, 1), (3, 5, 2), (4, 5, 3),
                      (5, 4, 2), (5, 3, 1)]:
        for s in (0, 2, 5):
            assert chow.ed_generic_determinantal(m, n, r, s) == \
                chow.ed_generic_determinantal(n, m, r, s)


def test_ed_out_of_range():
    with pytest.raises(ValueError):
        chow.ed_generic_determinantal(3, 3, 4, 0)
    with pytest.raises(ValueError):
        chow.ed_generic_determinantal(3, 3, 1, 9)
    assert chow.ed_generic_determinantal(3, 3, 1, 8) == 0


def test_full_rank_variety_has_degree_zero():
    assert chow.ed_generic_determinantal(2, 2, 2, 0) == 0
    assert all(chow.ed_generic_determinantal(1, 4, 1, s) == 0 for s in range(4))


def test_partition_helpers():
    assert chow.normalize_partition((3, 2, 0, 0)) == (3, 2)
    with pytest.raises(ValueError):
        chow.normalize_partition((1, 2))
    box = chow.partitions_in_box(2, 2)
    assert len(box) == 6
