"""Closed-form ED degree calculators for low-rank matrix families.

Everything here is exact integer combinatorics, as finite binomial sums:

  * polar classes of the rank-one (Segre) variety via face volumes,
  * sectional ED degrees for rank 1 and corank 1 through polar-class duality,
  * the affine/linear shift for generic weights,
  * secant varieties of the rational normal curve (low-rank Hankel matrices):
    binomial sum, checked against its generating function, and interpolated
    polynomials in the ambient degree,
  * the conjectural unit-weight correction for corank-one sections (exposed
    with "conjectured" naming on purpose: it reproduces every tabulated value
    but is not proved),
  * the Sylvester (approximate GCD) family, which reduces to a rank-one format.

Intermediate-rank cases delegate to the chow engine; the invariant tests pin
the two routes against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from . import chow


def _binom(n: int, k: int) -> int:
    """binom(n, k) as the x^k coefficient of (1+x)^n: zero outside 0 <= k <= n."""
    return comb(n, k) if 0 <= k <= n else 0


# ---------------------------------------------------------------------------
# Rank-one (Segre) polar classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolarClassSequence:
    """Polar class degrees delta_0..delta_(m+n-2) of the rank-one variety."""

    m: int
    n: int
    deltas: tuple[int, ...]

    def __post_init__(self):
        if len(self.deltas) != self.m + self.n - 1:
            raise ValueError("polar class sequence has wrong length")

    def delta(self, ell: int) -> int:
        """delta_ell, zero outside the stored range (never inferred by slicing)."""
        if ell < 0:
            raise ValueError("negative polar index")
        return self.deltas[ell] if ell < len(self.deltas) else 0

    def padded(self, length: int) -> tuple[int, ...]:
        return tuple(self.delta(i) for i in range(length))

    def total(self) -> int:
        return sum(self.deltas)


def _canon(m: int, n: int) -> tuple[int, int]:
    """Transposition invariance: all formulas assume m <= n."""
    if m < 1 or n < 1:
        raise ValueError("matrix format must be positive")
    return (m, n) if m <= n else (n, m)


@lru_cache(maxsize=None)
def segre_face_volumes(m: int, n: int) -> tuple[int, ...]:
    """V_k = coefficient of s^(m-1) t^(n-1) in (1+s)^m (1+t)^n (s+t)^k.

    Equivalently the summed normalized volumes of the k-faces of the product
    of simplices Delta_(m-1) x Delta_(n-1).  Expanding (s+t)^k gives
    V_k = sum_j binom(k, j) binom(m, m-1-j) binom(n, n-1-k+j).
    """
    m, n = _canon(m, n)
    return tuple(sum(comb(k, j) * _binom(m, m - 1 - j) * _binom(n, n - 1 - k + j)
                     for j in range(k + 1))
                 for k in range(m + n - 1))


@lru_cache(maxsize=None)
def segre_polar_classes(m: int, n: int) -> PolarClassSequence:
    """delta_ell = sum_k (-1)^(m+n-k) binom(k+1, ell+1) V_k for the Segre."""
    m, n = _canon(m, n)
    v = segre_face_volumes(m, n)
    top = m + n - 2
    deltas = tuple(
        sum((-1) ** (m + n - k) * comb(k + 1, ell + 1) * v[k]
            for k in range(ell, top + 1))
        for ell in range(top + 1)
    )
    return PolarClassSequence(m, n, deltas)


def sectional_ed_rank1(m: int, n: int, s: int) -> int:
    """Generic ED degree of rank <= 1 matrices in a generic codim-s slice."""
    m, n = _canon(m, n)
    if not 0 <= s <= m * n - 1:
        raise ValueError("section codimension out of range")
    pc = segre_polar_classes(m, n)
    return sum(pc.delta(ell) for ell in range(s, m * n - 1))


def sectional_ed_corank1(m: int, n: int, s: int) -> int:
    """Generic ED degree of corank >= 1 matrices in a generic codim-s slice.

    Uses polar-class duality: delta_ell of the corank-one variety equals
    delta_(mn-2-ell) of the rank-one variety.
    """
    m, n = _canon(m, n)
    if not 0 <= s <= m * n - 1:
        raise ValueError("section codimension out of range")
    pc = segre_polar_classes(m, n)
    return sum(pc.delta(ell) for ell in range(0, m * n - 1 - s))


# ---------------------------------------------------------------------------
# Low-rank Hankel matrices (secant varieties of the rational normal curve)
# ---------------------------------------------------------------------------

def hankel_ed_generic(d: int, r: int) -> int:
    """Generic ED degree of rank <= r Hankel matrices filled by a degree-d form.

    Computed as sum_i binom(d+1-r, i) binom(d-r-i, r-i) 2^(r-i) and
    cross-checked against the z^r coefficient of (1+z)^(d+1-r)/(1-2z)^(d-2r+1);
    the two must agree exactly.
    """
    if r < 1:
        raise ValueError("rank must be positive")
    if 2 * r > d:
        raise ValueError("rank exceeds Hankel format")
    value = sum(comb(d + 1 - r, i) * comb(d - r - i, r - i) * 2 ** (r - i)
                for i in range(0, r + 1))
    check = _hankel_series_coeff(d + 1 - r, d - 2 * r + 1, r)
    if check != value:
        raise AssertionError(
            f"binomial sum {value} disagrees with series coefficient {check}")
    return value


def _hankel_series_coeff(a: int, b: int, r: int) -> int:
    """z^r coefficient of (1+z)^a / (1-2z)^b, for b >= 1:
    sum_i binom(a, i) binom(b-1+r-i, r-i) 2^(r-i)."""
    return sum(_binom(a, i) * comb(b - 1 + r - i, r - i) * 2 ** (r - i)
               for i in range(r + 1))


@dataclass(frozen=True)
class IntegerPolynomial:
    """Polynomial with rational coefficients, ascending order."""

    coeffs: tuple[Fraction, ...]

    def __call__(self, x: int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def degree(self) -> int:
        return len(self.coeffs) - 1


def hankel_ed_polynomial(r: int) -> IntegerPolynomial:
    """The generic Hankel ED degree at fixed rank r, as a polynomial in d.

    Obtained by Lagrange interpolation of hankel_ed_generic at r+1 integer
    points; for fixed r the count is polynomial of degree r in d.
    """
    if r < 1:
        raise ValueError("rank must be positive")
    xs = list(range(2 * r, 3 * r + 1))
    ys = [hankel_ed_generic(d, r) for d in xs]
    # Newton form, then expand to monomial coefficients
    divided = [Fraction(y) for y in ys]
    for level in range(1, len(xs)):
        for i in range(len(xs) - 1, level - 1, -1):
            divided[i] = (divided[i] - divided[i - 1]) / (xs[i] - xs[i - level])
    coeffs = [Fraction(0)] * len(xs)
    # build product form incrementally: p(x) = sum divided[k] prod_{j<k}(x - xs[j])
    basis = [Fraction(1)] + [Fraction(0)] * (len(xs) - 1)
    for k in range(len(xs)):
        for i, c in enumerate(basis):
            coeffs[i] += divided[k] * c
        if k + 1 < len(xs):
            new = [Fraction(0)] * len(xs)
            for i, c in enumerate(basis):
                if c:
                    new[i + 1] += c
                    new[i] -= c * xs[k]
            basis = new
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return IntegerPolynomial(tuple(coeffs))


# ---------------------------------------------------------------------------
# Unit-weight corank-one correction (conjectural)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _unit_gap_degrees(m: int, n: int) -> tuple[int, ...]:
    """W_j = coeff of t^(m-2) s^(n-2) in 4 (1+t)^m (1+s)^n (t+s)^j / ((1+2t)(1+2s)).

    Expanding (t+s)^j gives W_j = 4 sum_i binom(j, i) A(m, m-2-i) A(n, n-2-j+i)
    with A(m, c) = sum_(a<=c) binom(m, c-a) (-2)^a, the t^c coefficient of
    (1+t)^m / (1+2t) (zero for c < 0).
    """
    m, n = _canon(m, n)

    def a_coeff(size: int, c: int) -> int:
        return sum(_binom(size, c - a) * (-2) ** a for a in range(c + 1))

    return tuple(4 * sum(comb(j, i) * a_coeff(m, m - 2 - i) * a_coeff(n, n - 2 - j + i)
                         for i in range(j + 1))
                 for j in range(m + n - 3))


def corank1_unit_gap(m: int, n: int, s: int) -> int:
    """Conjectured drop from the generic to the unit-weight corank-one count.

    This is the sectional generic ED degree of the locus where the rank-one
    variety touches the isotropic quadric; subtracting it from
    sectional_ed_corank1 gives the CONJECTURED unit-weight value.  Callers
    must label results derived from it as conjecture-based.
    """
    m, n = _canon(m, n)
    if m < 2 or n < 2:
        raise ValueError("need m, n >= 2")
    if s < 0:
        raise ValueError("negative section codimension")
    w = _unit_gap_degrees(m, n)
    top = m + n - 4
    return sum(
        sum((-1) ** (top - j) * comb(j + 1, i + 1) * w[j]
            for j in range(i, top + 1))
        for i in range(s, top + 1)
    )


def conjectured_corank1_unit(m: int, n: int, s: int) -> int:
    """Conjectured EDdegree for unit weights: generic value minus the gap."""
    return sectional_ed_corank1(m, n, s) - corank1_unit_gap(m, n, s)


# ---------------------------------------------------------------------------
# Sylvester family, affine sections, stabilization
# ---------------------------------------------------------------------------

def sylvester_ed_generic(m: int, n: int, k: int) -> int:
    """Generic ED degree of the approximate-GCD locus for Syl_k at degrees (m, n).

    The common-factor locus is the image of a Segre variety; its generic ED
    degree equals that of rank-one matrices of format (m-k+2) x (n-m+2k).
    For the square case k = m this evaluates to 4(m+n) - 2.
    """
    if not 1 <= k <= m <= n:
        raise ValueError("need 1 <= k <= m <= n")
    return chow.ed_generic_determinantal(m - k + 2, n - m + 2 * k, 1, 0)


@dataclass(frozen=True)
class EDDegreeQuery:
    """One sectional ED degree request: format, rank bound, section, weights."""

    m: int
    n: int
    r: int
    s: int = 0
    section: str = "linear"   # "linear" | "affine"
    weights: str = "generic"  # "generic" | "unit"

    def __post_init__(self):
        if not 1 <= self.r <= min(self.m, self.n):
            raise ValueError("rank bound out of range")
        if not 0 <= self.s <= self.m * self.n - 1:
            raise ValueError("section codimension out of range")
        if self.section not in ("linear", "affine"):
            raise ValueError("section kind must be linear or affine")
        if self.weights not in ("generic", "unit"):
            raise ValueError("weight kind must be generic or unit")


def affine_section_ed(query: EDDegreeQuery) -> int:
    """Generic ED degree of an affine section: codim s behaves like linear s-1.

    The s = 0 affine case has no section at all and returns the linear s = 0
    value.  Only generic weights are supported (the shift is a generic-weight
    statement).
    """
    if query.weights != "generic":
        raise ValueError("the affine shift is only available for generic weights")
    s_eff = max(query.s - 1, 0)
    return ed_degree(EDDegreeQuery(query.m, query.n, query.r, s_eff,
                                   "linear", "generic"))


def ed_degree(query: EDDegreeQuery) -> int:
    """Dispatch a sectional ED degree query to the right engine."""
    m, n = _canon(query.m, query.n)
    if query.section == "affine":
        return affine_section_ed(EDDegreeQuery(m, n, query.r, query.s,
                                               "affine", query.weights))
    if query.weights == "unit":
        if query.r == n - 1 and m == n:
            return conjectured_corank1_unit(m, n, query.s)
        raise ValueError("no closed form for these unit weights; use the solver")
    if query.r == 1:
        return sectional_ed_rank1(m, n, query.s)
    if query.r == m - 1 and m == n:
        return sectional_ed_corank1(m, n, query.s)
    return chow.ed_generic_determinantal(m, n, query.r, query.s)


def stabilization_bound(m: int, n: int, r: int) -> int:
    """Sections of codim s < r(r+n-m) do not change the generic ED degree."""
    m, n = _canon(m, n)
    if not 1 <= r <= m:
        raise ValueError("rank bound out of range")
    return r * (r + n - m)

