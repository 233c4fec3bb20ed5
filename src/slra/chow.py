"""A miniature intersection-theory engine for determinantal ED degrees.

The m x n matrices of rank <= r (m <= n) are resolved by the projective
bundle P(E) over the Grassmannian Gr(r, m), with E = S^n for the tautological
subbundle S.  Every integral over P(E) is pushed forward to Gr(r, m) through
pi_*(zeta^(e-1+k)) = s_k(E), where s(E) = c(S)^-n = c(Q)^n, so the only ring
needed is the Chow ring of Gr(r, m).  Classes are kept in its Schubert basis:

  * sigma_lambda indexed by partitions inside the r x (m-r) box,
  * general products via the Giambelli determinant expanded through iterated
    Pieri steps,
  * the integral of a class is its coefficient of the box class, and the
    integral of a product of two classes pairs complementary partitions
    without forming the product,
  * everything over exact integers, truncated eagerly above the top degree.

The entry point ed_generic_determinantal(m, n, r, s) evaluates the sectional
generic ED degree of the rank <= r locus cut by a generic codimension-s
linear space.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from math import comb

from .polyarith import Poly

Partition = tuple[int, ...]


def normalize_partition(parts) -> Partition:
    """Drop trailing zeros and validate weak decrease."""
    p = tuple(int(x) for x in parts)
    while p and p[-1] == 0:
        p = p[:-1]
    if any(x < 0 for x in p) or any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValueError(f"not a partition: {parts}")
    return p


def partitions_in_box(rows: int, cols: int) -> list[Partition]:
    """All partitions with at most `rows` parts, each at most `cols`."""
    out: list[Partition] = []

    def rec(prefix: list[int], maxpart: int, depth: int):
        out.append(tuple(prefix))
        if depth == rows:
            return
        for part in range(min(maxpart, cols), 0, -1):
            rec(prefix + [part], part, depth + 1)

    rec([], cols, 0)
    out.sort(key=lambda p: (sum(p), p))
    return out


class GrassmannianRing:
    """Chow ring of Gr(r, m): rank-r subbundles S of O^m, quotient Q.

    Schubert classes sigma_lambda for lambda inside the r x (m-r) box, graded
    by |lambda| with top degree r(m-r); the integral of the box class is 1.
    """

    def __init__(self, r: int, m: int):
        if not 0 < r <= m:
            raise ValueError("need 0 < r <= m")
        self.r = r
        self.m = m
        self.cols = m - r
        self.dim = r * self.cols
        self.box: Partition = normalize_partition((self.cols,) * r)
        self.partitions = partitions_in_box(r, self.cols)
        self._pset = set(self.partitions)
        # the complement in the box: sigma_lam * sigma_dual[lam] = sigma_box
        self.dual = {lam: normalize_partition([self.cols - x for x in
                                               (lam + (0,) * (r - len(lam)))[::-1]])
                     for lam in self.partitions}
        self._mult_cache: dict[tuple[Partition, Partition], dict[Partition, int]] = {}

    # -- Schubert combinatorics ---------------------------------------------

    def pieri(self, lam: Partition, k: int) -> dict[Partition, int]:
        """sigma_lam * sigma_k: horizontal strips of size k inside the box."""
        if k == 0:
            return {lam: 1} if lam in self._pset else {}
        if k < 0 or k > self.cols:
            return {}
        out: dict[Partition, int] = {}
        lamx = lam + (0,) * (self.r - len(lam))

        def rec(i: int, remaining: int, built: list[int]):
            if i == self.r:
                if remaining == 0:
                    out[normalize_partition(built)] = 1
                return
            lo = lamx[i]
            hi = self.cols if i == 0 else min(built[i - 1], lamx[i - 1])
            # new row length mu_i with lam_i <= mu_i <= min(lam_{i-1}, mu_{i-1})
            for mu_i in range(lo, hi + 1):
                add = mu_i - lo
                if add > remaining:
                    break
                rec(i + 1, remaining - add, built + [mu_i])

        rec(0, k, [])
        return out

    def _giambelli_terms(self, mu: Partition) -> dict[tuple[int, ...], int]:
        """Expand sigma_mu = det(sigma_{mu_i + j - i}) into special-class words."""
        ell = len(mu)
        if ell <= 1:
            return {tuple(mu): 1}
        out: dict[tuple[int, ...], int] = {}
        for perm in permutations(range(ell)):
            degs = []
            ok = True
            for i in range(ell):
                d = mu[i] + perm[i] - i
                if d < 0 or d > self.cols:
                    ok = False
                    break
                if d > 0:
                    degs.append(d)
            if not ok:
                continue
            sign = 1
            for i in range(ell):
                for j in range(i + 1, ell):
                    if perm[i] > perm[j]:
                        sign = -sign
            key = tuple(sorted(degs, reverse=True))
            out[key] = out.get(key, 0) + sign
        return {k: v for k, v in out.items() if v}

    def schubert_mult(self, lam: Partition, mu: Partition) -> dict[Partition, int]:
        """Product of two Schubert basis classes, truncated to the box."""
        if sum(lam) + sum(mu) > self.dim:
            return {}
        if sum(mu) > sum(lam):
            lam, mu = mu, lam
        key = (lam, mu)
        cached = self._mult_cache.get(key)
        if cached is not None:
            return cached
        total: dict[Partition, int] = {}
        for word, coeff in self._giambelli_terms(mu).items():
            acc: dict[Partition, int] = {lam: coeff}
            for k in word:
                nxt: dict[Partition, int] = {}
                for nu, c in acc.items():
                    for rho in self.pieri(nu, k):
                        nxt[rho] = nxt.get(rho, 0) + c
                acc = nxt
                if not acc:
                    break
            for nu, c in acc.items():
                v = total.get(nu, 0) + c
                if v:
                    total[nu] = v
                else:
                    del total[nu]
        self._mult_cache[key] = total
        return total


class ChowRing:
    """Chow ring of a Grassmannian: classes in the Schubert basis sigma_lambda."""

    def __init__(self, grass: GrassmannianRing):
        self.grass = grass
        self.dim = grass.dim

    # -- class constructors --------------------------------------------------

    def zero(self) -> "ChowClass":
        return ChowClass(self, {})

    def one(self) -> "ChowClass":
        return ChowClass(self, {(): 1})

    def sigma(self, parts) -> "ChowClass":
        lam = normalize_partition(parts)
        if lam not in self.grass._pset:
            return self.zero()
        return ChowClass(self, {lam: 1})

    def chern_sub(self) -> "ChowClass":
        """c(S) of the tautological subbundle: c_i(S) = (-1)^i sigma_(1^i)."""
        return sum(((-1) ** i * self.sigma((1,) * i) for i in range(self.grass.r + 1)),
                   self.zero())

    def chern_quot(self) -> "ChowClass":
        """c(Q) of the tautological quotient: c_j(Q) = sigma_j."""
        return sum((self.sigma((j,)) for j in range(self.grass.cols + 1)), self.zero())

    # -- arithmetic core -----------------------------------------------------

    def multiply(self, a: "ChowClass", b: "ChowClass") -> "ChowClass":
        if a.ring is not b.ring or a.ring is not self:
            raise ValueError("classes live in different rings")
        out: dict[Partition, int] = {}
        for lam, c1 in a.terms.items():
            for mu, c2 in b.terms.items():
                c = c1 * c2
                for nu, cs in self.grass.schubert_mult(lam, mu).items():
                    out[nu] = out.get(nu, 0) + c * cs
        return ChowClass(self, out)

    def integral(self, a: "ChowClass") -> int:
        """Degree of the zero-cycle part: the coefficient of sigma_box."""
        return a.terms.get(self.grass.box, 0)

    def pairing(self, a: "ChowClass", b: "ChowClass") -> int:
        """The integral of a * b without forming it: sigma_lam * sigma_mu
        integrates to 1 when mu is lam's complement in the box, else to 0."""
        dual = self.grass.dual
        return sum(c * b.terms.get(dual[lam], 0) for lam, c in a.terms.items())


class ChowClass:
    """Element of a ChowRing: Schubert coefficients keyed by partition."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: ChowRing, terms: dict[Partition, int]):
        self.ring = ring
        self.terms = {k: v for k, v in terms.items() if v}

    def __add__(self, other) -> "ChowClass":
        if isinstance(other, int):
            other = other * self.ring.one()
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return ChowClass(self.ring, out)

    __radd__ = __add__

    def __neg__(self) -> "ChowClass":
        return ChowClass(self.ring, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other) -> "ChowClass":
        return self + (-other if isinstance(other, ChowClass) else -other)

    def __mul__(self, other) -> "ChowClass":
        if isinstance(other, int):
            return ChowClass(self.ring, {k: other * v for k, v in self.terms.items()})
        return self.ring.multiply(self, other)

    def __rmul__(self, other) -> "ChowClass":
        return self.__mul__(other)

    def __pow__(self, n: int) -> "ChowClass":
        out = self.ring.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.terms == (other * self.ring.one()).terms
        return self.ring is other.ring and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def graded_part(self, d: int) -> "ChowClass":
        return ChowClass(self.ring,
                         {lam: v for lam, v in self.terms.items() if sum(lam) == d})

    def integral(self) -> int:
        return self.ring.integral(self)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{v}*s{list(lam)}" if lam else f"{v}"
                          for lam, v in sorted(self.terms.items(),
                                               key=lambda t: (sum(t[0]), t[0])))


@lru_cache(maxsize=None)
def _tensor_universal(p: int, q: int, d: int) -> tuple:
    """Degree-d part of c(A (x) B) as a polynomial in e_i(A-roots), e_j(B-roots).

    Returns ((ea, eb), coeff) pairs where ea[i-1] is the exponent of e_i of the
    first root set (similarly eb): the terms of c_d in _tensor_chern(p, q).
    """
    return tuple(((e[:p], e[p:]), c) for e, c in _tensor_chern(p, q)[d].terms.items())


@lru_cache(maxsize=None)
def _tensor_chern(p: int, q: int) -> tuple[Poly, ...]:
    """c_0..c_pq(A (x) B) for ranks p, q, in Z[e_1..e_p, f_1..f_q].

    The p + q variables are e_i = c_i(A), then f_j = c_j(B); the roots never
    appear.  Newton's identities give the power sums p_k(A), p_k(B); the
    Chern character is multiplicative, so p_k(A (x) B) = sum_l binom(k, l)
    p_l(A) p_(k-l)(B); and Newton's identities back give
    k c_k = sum_i (-1)^(i-1) c_(k-i) p_i, an exact division by k.
    """
    n = p + q
    top = p * q
    zero = Poly(n)
    pa = _power_sums(n, 0, p, top)
    pb = _power_sums(n, p, q, top)
    psum = [sum((comb(k, l) * pa[l] * pb[k - l] for l in range(k + 1)), zero)
            for k in range(top + 1)]
    chern = [Poly.const(n, 1)]
    for k in range(1, top + 1):
        acc = sum(((-1) ** (i - 1) * chern[k - i] * psum[i] for i in range(1, k + 1)), zero)
        if any(c % k for c in acc.terms.values()):
            raise ArithmeticError(f"c_{k} of a tensor product is not integral")
        chern.append(Poly(n, {e: c // k for e, c in acc.terms.items()}))
    return tuple(chern)


def _power_sums(n: int, offset: int, rank: int, top: int) -> list[Poly]:
    """p_0..p_top of `rank` roots with e_i the variable offset + i - 1 of n,
    by Newton: p_k = sum_(i<k) (-1)^(i-1) e_i p_(k-i) + (-1)^(k-1) k e_k."""
    elem = {i: Poly.var(n, offset + i - 1) for i in range(1, rank + 1)}
    sums = [Poly.const(n, rank)]
    for k in range(1, top + 1):
        acc = (-1) ** (k - 1) * k * elem[k] if k <= rank else Poly(n)
        for i in range(1, min(k - 1, rank) + 1):
            acc = acc + (-1) ** (i - 1) * elem[i] * sums[k - i]
        sums.append(acc)
    return sums


@lru_cache(maxsize=None)
def grassmannian_ring(r: int, m: int) -> ChowRing:
    """The Chow ring of Gr(r, m), shared with its product cache by every n."""
    return ChowRing(GrassmannianRing(r, m))


@lru_cache(maxsize=None)
def grassmannian_tangent(r: int, m: int) -> ChowClass:
    """c(T Gr(r, m)) = c(S^dual (x) Q), where c_i(S^dual) = sigma_(1^i) and
    c_j(Q) = sigma_j.  Each monomial of _tensor_universal is one product of a
    shorter monomial with a single Schubert class."""
    ring = grassmannian_ring(r, m)
    gens = ([ring.sigma((1,) * i) for i in range(1, r + 1)]
            + [ring.sigma((j,)) for j in range(1, m - r + 1)])
    monomials = {(0,) * len(gens): ring.one()}

    def monomial(exps: tuple[int, ...]) -> ChowClass:
        if exps not in monomials:
            t = next(t for t, k in enumerate(exps) if k)
            lower = exps[:t] + (exps[t] - 1,) + exps[t + 1:]
            monomials[exps] = monomial(lower) * gens[t]
        return monomials[exps]

    total = ring.one()
    for d in range(1, ring.dim + 1):
        for (ea, eb), coeff in _tensor_universal(r, m - r, d):
            total = total + coeff * monomial(ea + eb)
    return total


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
