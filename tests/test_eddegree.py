from fractions import Fraction

import pytest

from slra import chow, eddegree
from slra.eddegree import (EDDegreeQuery, affine_section_ed,
                           conjectured_corank1_unit, corank1_unit_gap,
                           ed_degree, hankel_ed_generic,
                           hankel_ed_polynomial, sectional_ed_corank1,
                           sectional_ed_rank1, segre_face_volumes,
                           segre_polar_classes, stabilization_bound,
                           sylvester_ed_generic)


def test_face_volumes():
    assert segre_face_volumes(3, 3) == (9, 18, 24, 18, 6)
    assert segre_face_volumes(2, 2) == (4, 4, 2)
    assert segre_face_volumes(1, 1) == (1,)


def test_face_volumes_non_square():
    assert segre_face_volumes(5, 7) == (35, 175, 665, 1890, 4032, 6440, 7600,
                                        6440, 3710, 1302, 210)


def test_polar_classes():
    pc = segre_polar_classes(3, 3)
    assert pc.deltas == (3, 6, 12, 12, 6)
    assert pc.padded(8) == (3, 6, 12, 12, 6, 0, 0, 0)
    assert segre_polar_classes(2, 2).deltas == (2, 2, 2)


def test_polar_classes_vanish_up_to_dual_codimension():
    # delta_ell = 0 for ell <= codim(dual) - 2 = n - m - 1
    for (m, n) in [(2, 3), (2, 4), (2, 5), (3, 5)]:
        pc = segre_polar_classes(m, n)
        for ell in range(n - m - 1):
            assert pc.delta(ell) == 0


def test_polar_classes_degenerate_formats_vanish():
    # rank-one 1 x n matrices fill the whole space: no critical points off it;
    # the section cap at s = mn - 1 makes both engines agree on zero
    for n in (2, 3, 4):
        assert sectional_ed_rank1(1, n, 0) == 0
        assert chow.ed_generic_determinantal(1, n, 1, 0) == 0


def test_sectional_rank1():
    assert sectional_ed_rank1(3, 3, 0) == 39
    assert sectional_ed_rank1(3, 3, 4) == 6
    assert sectional_ed_rank1(3, 3, 7) == 0


def test_sectional_corank1():
    assert sectional_ed_corank1(3, 3, 0) == 39
    assert sectional_ed_corank1(3, 3, 5) == 21
    assert sectional_ed_corank1(3, 3, 8) == 0


def test_rank1_nonincreasing_and_terminal_zero():
    for (m, n) in [(2, 2), (2, 4), (3, 3), (3, 4)]:
        vals = [sectional_ed_rank1(m, n, s) for s in range(m * n)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] == 0


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4),
                                 (4, 4), (2, 5), (3, 5), (4, 5), (5, 5)])
def test_rank1_agrees_with_chow(m, n):
    assert sectional_ed_rank1(m, n, 0) == chow.ed_generic_determinantal(m, n, 1, 0)


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4)])
def test_corank1_agrees_with_chow(m, n):
    for s in range(m * n):
        assert sectional_ed_corank1(m, n, s) == \
            chow.ed_generic_determinantal(m, n, m - 1, s)


def test_hankel_values():
    assert hankel_ed_generic(4, 1) == 10
    assert hankel_ed_generic(4, 2) == 13
    assert hankel_ed_generic(8, 4) == 121
    # the square 4 x 4 Hankel determinant: (3^(r+1) - 1) / 2 with r = 3
    assert hankel_ed_generic(6, 3) == 40 == (3 ** 4 - 1) // 2


def test_hankel_rank_exceeds_format():
    with pytest.raises(ValueError, match="rank exceeds Hankel format"):
        hankel_ed_generic(3, 2)


def test_hankel_polynomials():
    assert hankel_ed_polynomial(1).coeffs == (Fraction(-2), Fraction(3))
    assert hankel_ed_polynomial(2).coeffs == \
        (Fraction(19), Fraction(-39, 2), Fraction(9, 2))
    assert hankel_ed_polynomial(4).coeffs == \
        (Fraction(2059), Fraction(-6909, 4), Fraction(4221, 8),
         Fraction(-279, 4), Fraction(27, 8))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_hankel_polynomial_interpolates(r):
    poly = hankel_ed_polynomial(r)
    assert poly.degree() == r
    for d in range(2 * r, 13):
        assert poly(d) == hankel_ed_generic(d, r)


def test_hankel_diagonal_power_formula():
    for r in range(1, 6):
        assert hankel_ed_generic(2 * r, r) == (3 ** (r + 1) - 1) // 2


def test_unit_gap_values():
    assert corank1_unit_gap(2, 2, 0) == 4
    assert [corank1_unit_gap(3, 3, s) for s in range(4)] == [36, 24, 8, 0]
    assert conjectured_corank1_unit(3, 3, 0) == 3
    assert conjectured_corank1_unit(2, 2, 0) == 2


def test_unit_gap_values_non_square():
    assert [corank1_unit_gap(3, 4, s) for s in range(4)] == [80, 68, 40, 12]
    assert [corank1_unit_gap(4, 6, s) for s in range(7)] == \
        [1320, 1296, 1208, 992, 644, 280, 60]


UNIT_LINEAR_COLUMNS = {
    2: [2, 4, 2, 0],
    3: [3, 15, 31, 39, 33, 21, 9, 3, 0],
    4: [4, 28, 92, 188, 260, 284, 284, 284, 284, 264, 204, 120, 52, 16, 4, 0],
    5: [5, 45, 205, 605, 1221, 1805, 2125, 2205, 2205, 2205, 2205, 2205,
        2205, 2205, 2205, 2205],
}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_conjectured_unit_column(n):
    # conjecture-based values; a falsifying case should fail loudly here
    got = [conjectured_corank1_unit(n, n, s) for s in range(len(UNIT_LINEAR_COLUMNS[n]))]
    assert got == UNIT_LINEAR_COLUMNS[n]


def test_unit_weight_query_gives_the_conjectured_value():
    # the query path the solver's prediction takes for unit weights
    for s, value in enumerate(UNIT_LINEAR_COLUMNS[3]):
        q = EDDegreeQuery(3, 3, 2, s, "linear", "unit")
        assert ed_degree(q) == conjectured_corank1_unit(3, 3, s) == value


def test_sylvester_values():
    assert sylvester_ed_generic(2, 2, 2) == 14
    assert sylvester_ed_generic(3, 5, 1) == 284
    assert sylvester_ed_generic(2, 3, 1) == 39
    assert sylvester_ed_generic(2, 5, 2) == 26
    assert sylvester_ed_generic(4, 5, 2) == 676


def test_sylvester_square_case_closed_form():
    for m in range(2, 7):
        for n in range(m, 7):
            assert sylvester_ed_generic(m, n, m) == 4 * (m + n) - 2


def test_affine_shift():
    q = EDDegreeQuery(3, 3, 2, 4, "affine", "generic")
    assert affine_section_ed(q) == 39
    q = EDDegreeQuery(2, 2, 1, 1, "affine", "generic")
    assert affine_section_ed(q) == 6
    # affine s=1 always equals linear s=0
    for (m, n, r) in [(2, 2, 1), (3, 3, 2), (3, 4, 2)]:
        a = ed_degree(EDDegreeQuery(m, n, r, 1, "affine", "generic"))
        b = ed_degree(EDDegreeQuery(m, n, r, 0, "linear", "generic"))
        assert a == b


def test_stabilization_bound():
    assert stabilization_bound(4, 4, 2) == 4
    assert stabilization_bound(3, 5, 2) == 8
    assert stabilization_bound(3, 5, 1) == 3          # n - m + 1 for rank one
    # constancy below the bound, strict decrease at it
    for (m, n, r) in [(4, 4, 2), (3, 4, 2), (3, 5, 2)]:
        bound = stabilization_bound(m, n, r)
        base = chow.ed_generic_determinantal(m, n, r, 0)
        for s in range(bound):
            assert chow.ed_generic_determinantal(m, n, r, s) == base
        assert chow.ed_generic_determinantal(m, n, r, bound) < base


def test_query_validation():
    with pytest.raises(ValueError):
        EDDegreeQuery(3, 3, 4, 0)
    with pytest.raises(ValueError):
        EDDegreeQuery(3, 3, 1, 9)
    with pytest.raises(ValueError):
        EDDegreeQuery(3, 3, 1, 0, "diagonal")
    with pytest.raises(ValueError):
        ed_degree(EDDegreeQuery(3, 4, 2, 0, "linear", "unit"))


def test_transposition_canonicalization():
    assert sectional_ed_rank1(4, 3, 0) == sectional_ed_rank1(3, 4, 0)
    assert segre_face_volumes(4, 2) == segre_face_volumes(2, 4)
    assert corank1_unit_gap(4, 3, 1) == corank1_unit_gap(3, 4, 1)
