import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from slra.eddegree import _hankel_series_coeff, _unit_gap_degrees
from slra.polyarith import Poly

S = Poly.var(2, 0)
T = Poly.var(2, 1)


def test_product_of_binomials():
    p = (1 + S) * (1 + T)
    assert p.coeff((0, 0)) == 1
    assert p.coeff((1, 0)) == 1
    assert p.coeff((0, 1)) == 1
    assert p.coeff((1, 1)) == 1
    assert len(p.terms) == 4


def test_square_of_sum():
    sq = (S + T) ** 2
    assert sq.coeff((2, 0)) == 1
    assert sq.coeff((1, 1)) == 2
    assert sq.coeff((0, 2)) == 1


def test_face_volume_coefficient_2x2():
    p = (1 + S) ** 2 * (1 + T) ** 2
    assert p.coeff((1, 1)) == 4


def test_coeff_of_segre_polys():
    base = (1 + S) ** 3 * (1 + T) ** 3
    assert base.coeff((2, 2)) == 9
    assert (base * (S + T) ** 4).coeff((2, 2)) == 6


def test_int_coefficients_beyond_64_bits_stay_exact():
    c = ((2 ** 40 + S) ** 2).coeff((0, 0))
    assert c == 2 ** 80 and type(c) is int


def test_coeff_of_zero_poly():
    zero = Poly.const(2, 0)
    assert zero.coeff((3, 1)) == 0


def test_coeff_length_mismatch():
    p = Poly(1, {(0,): 1, (1,): 1})
    with pytest.raises(ValueError):
        p.coeff((1, 2))


def test_mixed_variables_rejected():
    with pytest.raises(ValueError, match="differ"):
        Poly.var(1, 0) + Poly.var(2, 1)


# Generating-function coefficients behind the degree formulas, which eddegree
# evaluates as finite binomial sums.

def test_series_coeff_univariate():
    # (1+z)^4 / (1-2z)^3
    assert _hankel_series_coeff(4, 3, 1) == 10
    assert _hankel_series_coeff(4, 3, 0) == 1


def test_series_coeff_bivariate():
    # constant term of 4 (1+t)^2 (1+s)^2 / ((1+2t)(1+2s))
    assert _unit_gap_degrees(2, 2)[0] == 4


@pytest.mark.parametrize("d", range(2, 13))
def test_rank_one_closed_form(d):
    # z-coefficient 1 of (1+z)^d / (1-2z)^(d-1) is 3d - 2
    assert _hankel_series_coeff(d, d - 1, 1) == 3 * d - 2


small_polys = st_.builds(
    lambda terms: Poly(2, {e: c for e, c in terms}),
    st_.lists(st_.tuples(
        st_.tuples(st_.integers(0, 3), st_.integers(0, 3)),
        st_.integers(-9, 9)), max_size=4),
)


@settings(max_examples=150, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=80, deadline=None)
@given(small_polys)
def test_additive_inverse(a):
    assert (a - a).is_zero()
    assert a + Poly.const(2, 0) == a
