"""Intersection-engine tests, anchored by a Chern-root brute-force oracle.

The oracle multiplies Schur polynomials (built by semistandard tableau
enumeration, never by Pieri) in the Chern roots, re-expands the product in
the Schur basis by leading-term peeling, and reduces modulo the relations
e_i(all roots) = 0, under which every class whose partition leaves the
r x (m-r) box is zero.  It is deliberately independent of the engine.

The engine keeps equivariant lifts at the torus-fixed points, and two lifts
of one class may differ, so identities between classes are checked as
integrals against every monomial in c_1(Q)..c_(m-r)(Q), which span the ring.
"""

import hashlib
import math

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


def oracle_special_integral(degrees, r, m) -> int:
    """The integral over Gr(r, m) of prod_j c_j(Q), as the box coefficient of
    the product of the one-row Schur polynomials s_(j) in r Chern roots."""
    prod = Poly.const(r, 1)
    for j in degrees:
        prod = prod * ssyt_schur((j,), r)
    return schur_expand(prod, r).get((m - r,) * r, 0)


def special_words(total: int, largest: int):
    """Partitions of `total` into parts at most `largest`, largest first."""
    if total == 0:
        yield ()
        return
    for j in range(min(total, largest), 0, -1):
        for rest in special_words(total - j, j):
            yield (j,) + rest


def quotient_monomial(ring, word):
    quot = ring.chern_quot()
    out = ring.one()
    for j in word:
        out = out * quot.graded_part(j)
    return out


def assert_same_class(ring, a, b):
    """a and b agree after pairing each graded part with every monomial in
    the c_j(Q) of the complementary degree."""
    for k in range(ring.dim + 1):
        for word in special_words(ring.dim - k, ring.m - ring.r):
            mono = quotient_monomial(ring, word)
            assert ring.pairing(a.graded_part(k), mono) == \
                ring.pairing(b.graded_part(k), mono), (k, word)


# -- engine vs oracle --------------------------------------------------------

ORACLE_GRASSMANNIANS = [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4),
                        (3, 4), (1, 5), (2, 5), (3, 5), (4, 5)]


@pytest.mark.parametrize("r,m", ORACLE_GRASSMANNIANS)
def test_special_class_integrals_vs_chern_root_oracle(r, m):
    ring = chow.grassmannian_ring(r, m)
    for word in special_words(ring.dim, m - r):
        got = quotient_monomial(ring, word).integral()
        assert got == oracle_special_integral(word, r, m), word


def pluecker_degree(r: int, m: int) -> int:
    """deg Gr(r, m) in the Pluecker embedding: dim! prod_(i<r) i! / (m-r+i)!"""
    return math.factorial(r * (m - r)) * math.prod(
        math.factorial(i) for i in range(r)) // math.prod(
        math.factorial(m - r + i) for i in range(r))


def test_gr24_degree():
    for m in range(2, 8):
        for r in range(1, m):
            ring = chow.grassmannian_ring(r, m)
            c1 = ring.chern_quot().graded_part(1)
            assert (c1 ** ring.dim).integral() == pluecker_degree(r, m), (r, m)
    # oracle agrees on Gr(2, 4)
    assert oracle_special_integral((1, 1, 1, 1), 2, 4) == 2


# -- push-forward to the Grassmannian ----------------------------------------

SMALL_GRASSMANNIANS = [(r, m) for m in range(1, 6) for r in range(1, m + 1)]


@pytest.mark.parametrize("r,m", SMALL_GRASSMANNIANS)
def test_complement_pairing_is_the_product_integral(r, m):
    ring = chow.grassmannian_ring(r, m)
    whole = [ring.chern_sub(), ring.chern_quot(), chow.grassmannian_tangent(r, m)]
    parts = [(k, c.graded_part(k)) for c in whole for k in range(ring.dim + 1)]
    for k, a in parts:
        for l, b in parts:
            if k + l == ring.dim:
                assert ring.pairing(a, b) == (a * b).integral(), (k, l)


def test_bott_sum_that_is_not_integral_raises():
    # on P^2 the fixed point 0 has Euler class (1 - 0)(2 - 0) = 2
    ring = chow.grassmannian_ring(1, 3)
    with pytest.raises(ArithmeticError):
        chow.ChowClass(ring, {2: (1, 0, 0)}).integral()


@pytest.mark.parametrize("r,m", [(1, 3), (2, 4), (2, 5), (3, 6)])
def test_segre_class_inverts_chern_class(r, m):
    # s(S^n) = c(Q)^n is the inverse of c(S^n) = c(S)^n
    ring = chow.grassmannian_ring(r, m)
    for n in (1, 2, 3):
        assert_same_class(ring, ring.chern_sub() ** n * ring.chern_quot() ** n, ring.one())


@pytest.mark.parametrize("r,m", [(r, m) for m in range(1, 8) for r in range(1, m + 1)])
def test_grassmannian_tangent_top_class_is_euler_characteristic(r, m):
    # the Schubert cells of Gr(r, m) number binom(m, r)
    tangent = chow.grassmannian_tangent(r, m)
    dim = r * (m - r)
    assert tangent.graded_part(dim).integral() == math.comb(m, r)
    # c_1(T Gr) = m c_1(Q), so its top power integrates to m^dim deg Gr
    assert (tangent.graded_part(1) ** dim).integral() == m ** dim * pluecker_degree(r, m)


def test_grassmannian_tangent_of_projective_space():
    # Gr(1, m) = P^(m-1), whose tangent Chern class is (1 + c_1(Q))^m
    for m in range(2, 6):
        ring = chow.grassmannian_ring(1, m)
        hyperplane = ring.chern_quot().graded_part(1)
        assert_same_class(ring, chow.grassmannian_tangent(1, m),
                          (ring.one() + hyperplane) ** m)


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

