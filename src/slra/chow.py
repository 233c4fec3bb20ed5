"""A miniature intersection-theory engine for determinantal ED degrees.

The only geometry needed here is the Chow ring of a Grassmannian Gr(r, m)
(rank-r subbundles of the trivial rank-m bundle), extended by one projective
bundle P(S^n) whose hyperplane class desingularizes the variety of m x n
matrices of rank <= r.  Classes are kept in the Schubert basis
sigma_lambda * zeta^k, which makes integrals single coefficient reads:

  * sigma_lambda indexed by partitions inside the r x (m-r) box,
  * general products via the Giambelli determinant expanded through iterated
    Pieri steps,
  * the hyperplane class zeta = c1 of the dual tautological sub-line-bundle,
    reduced through the Grothendieck relation sum_i c_i(E) zeta^(e-i) = 0,
  * everything over exact integers, truncated eagerly above the top degree.

The entry point ed_generic_determinantal(m, n, r, s) evaluates the sectional
generic ED degree of the rank <= r locus cut by a generic codimension-s
linear space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import comb

from .polyarith import ExactPoly

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
    """Chow ring of a Grassmannian, optionally extended by one P(E).

    Without a bundle the hyperplane power is always zero.  With a bundle of
    rank e, classes are spanned by sigma_lambda * zeta^k for 0 <= k < e, with
    zeta^e rewritten through the Grothendieck relation
    sum_{i=0}^{e} c_i(E) zeta^{e-i} = 0 and everything truncated above
    dim = dim Gr + e - 1.
    """

    def __init__(self, grass: GrassmannianRing, bundle_rank: int = 0,
                 bundle_chern: "ChowClass | None" = None):
        self.grass = grass
        self.e = bundle_rank
        if bundle_rank:
            if bundle_chern is None:
                raise ValueError("bundle extension needs a total Chern class")
            self.dim = grass.dim + bundle_rank - 1
            self._rel = [bundle_chern.graded_part(i).terms for i in range(bundle_rank + 1)]
            self._zred: dict[int, dict[tuple[Partition, int], int]] = {}
        else:
            self.dim = grass.dim

    # -- class constructors --------------------------------------------------

    def zero(self) -> "ChowClass":
        return ChowClass(self, {})

    def one(self) -> "ChowClass":
        return ChowClass(self, {((), 0): 1})

    def sigma(self, parts) -> "ChowClass":
        lam = normalize_partition(parts)
        if lam not in self.grass._pset:
            return self.zero()
        return ChowClass(self, {(lam, 0): 1})

    def zeta(self) -> "ChowClass":
        if not self.e:
            raise ValueError("ring has no projective-bundle factor")
        return ChowClass(self, {((), 1): 1})

    def chern_sub(self) -> "BundleExpr":
        """Tautological subbundle S: c_i(S) = (-1)^i sigma_(1^i)."""
        total = self.one()
        for i in range(1, self.grass.r + 1):
            total = total + (-1) ** i * self.sigma((1,) * i)
        return BundleExpr(self, self.grass.r, total)

    def chern_quot(self) -> "BundleExpr":
        """Tautological quotient Q: c_i(Q) = sigma_i."""
        total = self.one()
        for i in range(1, self.grass.cols + 1):
            total = total + self.sigma((i,))
        return BundleExpr(self, self.grass.cols, total)

    # -- arithmetic core -----------------------------------------------------

    def _zeta_reduction(self, p: int) -> dict[tuple[Partition, int], int]:
        """Rewrite zeta^p (p >= e) in the sigma * zeta^(<e) basis."""
        if p < self.e:
            return {((), p): 1}
        cached = self._zred.get(p)
        if cached is not None:
            return cached
        if p == self.e:
            out: dict[tuple[Partition, int], int] = {}
            for i in range(1, self.e + 1):
                for (lam, _z), c in self._rel[i].items():
                    k = self.e - i
                    if sum(lam) + k > self.dim:
                        continue
                    key = (lam, k)
                    out[key] = out.get(key, 0) - c
            out = {k: v for k, v in out.items() if v}
        else:
            prev = self._zeta_reduction(p - 1)
            out = {}
            for (lam, k), c in prev.items():
                for key, c2 in self._shift_zeta(lam, k + 1).items():
                    v = out.get(key, 0) + c * c2
                    if v:
                        out[key] = v
                    else:
                        del out[key]
        self._zred[p] = out
        return out

    def _shift_zeta(self, lam: Partition, k: int) -> dict[tuple[Partition, int], int]:
        """sigma_lam * zeta^k reduced to the basis."""
        if sum(lam) + k > self.dim:
            return {}
        if k < self.e or self.e == 0:
            return {(lam, k): 1}
        out: dict[tuple[Partition, int], int] = {}
        for (mu, j), c in self._zeta_reduction(k).items():
            for nu, c2 in self.grass.schubert_mult(lam, mu).items():
                if sum(nu) + j > self.dim:
                    continue
                key = (nu, j)
                v = out.get(key, 0) + c * c2
                if v:
                    out[key] = v
                else:
                    del out[key]
        return out

    def multiply(self, a: "ChowClass", b: "ChowClass") -> "ChowClass":
        if a.ring is not b.ring or a.ring is not self:
            raise ValueError("classes live in different rings")
        out: dict[tuple[Partition, int], int] = {}
        for (lam, i), c1 in a.terms.items():
            for (mu, j), c2 in b.terms.items():
                if sum(lam) + sum(mu) + i + j > self.dim:
                    continue
                c = c1 * c2
                for nu, cs in self.grass.schubert_mult(lam, mu).items():
                    for key, cz in self._shift_zeta(nu, i + j).items():
                        v = out.get(key, 0) + c * cs * cz
                        if v:
                            out[key] = v
                        else:
                            del out[key]
        return ChowClass(self, out)

    def integral(self, a: "ChowClass") -> int:
        """Degree of the zero-cycle part: coefficient of sigma_box * zeta^(e-1)."""
        if self.e:
            return a.terms.get((self.grass.box, self.e - 1), 0)
        return a.terms.get((self.grass.box, 0), 0)


class ChowClass:
    """Element of a ChowRing in the sigma_lambda * zeta^k basis."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: ChowRing, terms: dict[tuple[Partition, int], int]):
        self.ring = ring
        self.terms = {k: v for k, v in terms.items() if v}

    def __add__(self, other) -> "ChowClass":
        if isinstance(other, int):
            other = other * self.ring.one()
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            else:
                del out[k]
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
                         {(lam, k): v for (lam, k), v in self.terms.items()
                          if sum(lam) + k == d})

    def integral(self) -> int:
        return self.ring.integral(self)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (lam, k), v in sorted(self.terms.items(), key=lambda t: (sum(t[0][0]) + t[0][1], t[0])):
            name = f"s{list(lam)}" if lam else "1"
            if k:
                name += f"*z^{k}"
            bits.append(f"{v}*{name}")
        return " + ".join(bits)


@dataclass(frozen=True)
class BundleExpr:
    """A vector bundle presented by its rank and total Chern class."""

    ring: ChowRing
    rank: int
    chern: ChowClass

    def chern_part(self, i: int) -> ChowClass:
        return self.chern.graded_part(i)

    def whitney(self, other: "BundleExpr") -> "BundleExpr":
        return BundleExpr(self.ring, self.rank + other.rank, self.chern * other.chern)

    def power(self, n: int) -> "BundleExpr":
        out = BundleExpr(self.ring, 0, self.ring.one())
        for _ in range(n):
            out = out.whitney(self)
        return out

    def dual(self) -> "BundleExpr":
        total = self.ring.zero()
        for d in range(self.ring.dim + 1):
            part = self.chern.graded_part(d)
            total = total + ((-1) ** d) * part
        return BundleExpr(self.ring, self.rank, total)

    def tensor_line(self, ell: ChowClass) -> "BundleExpr":
        """E tensor L for a line bundle with c1 = ell:
        c_k = sum_i binom(rank - i, k - i) c_i(E) ell^(k-i)."""
        ring = self.ring
        total = ring.zero()
        ell_pows = [ring.one()]
        for _ in range(min(self.rank, ring.dim)):
            ell_pows.append(ell_pows[-1] * ell)
        for k in range(0, min(self.rank, ring.dim) + 1):
            part = ring.zero()
            for i in range(0, k + 1):
                ci = self.chern_part(i)
                if not ci.terms:
                    continue
                part = part + comb(self.rank - i, k - i) * (ci * ell_pows[k - i])
            total = total + part
        return BundleExpr(ring, self.rank, total)

    def tensor(self, other: "BundleExpr") -> "BundleExpr":
        """General tensor product via the universal polynomial in Chern roots."""
        if self.rank == 1:
            return other.tensor_line(self.chern_part(1))
        if other.rank == 1:
            return self.tensor_line(other.chern_part(1))
        ring = self.ring
        p, q = self.rank, other.rank
        ca = [self.chern_part(i) for i in range(p + 1)]
        cb = [other.chern_part(j) for j in range(q + 1)]
        maxdeg = min(p * q, ring.dim)
        total = ring.one()
        for d in range(1, maxdeg + 1):
            for (ea, eb), coeff in _tensor_universal(p, q, d):
                term = coeff * ring.one()
                for i, mult in enumerate(ea, start=1):
                    for _ in range(mult):
                        term = term * ca[i]
                for j, mult in enumerate(eb, start=1):
                    for _ in range(mult):
                        term = term * cb[j]
                total = total + term
        return BundleExpr(ring, p * q, total)


@lru_cache(maxsize=None)
def _tensor_universal(p: int, q: int, d: int) -> tuple:
    """Degree-d part of c(A (x) B) as a polynomial in e_i(A-roots), e_j(B-roots).

    Returns ((ea, eb), coeff) pairs where ea[i-1] is the exponent of e_i of the
    first root set (similarly eb): the terms of c_d in _tensor_chern(p, q).
    """
    return tuple(((e[:p], e[p:]), c) for e, c in _tensor_chern(p, q)[d].terms.items())


@lru_cache(maxsize=None)
def _tensor_chern(p: int, q: int) -> tuple[ExactPoly, ...]:
    """c_0..c_pq(A (x) B) for ranks p, q, in Z[e_1..e_p, f_1..f_q].

    The variables are e_i = c_i(A) and f_j = c_j(B); the roots never appear.
    Newton's identities give the power sums p_k(A), p_k(B); the Chern
    character is multiplicative, so p_k(A (x) B) = sum_l binom(k, l)
    p_l(A) p_(k-l)(B); and Newton's identities back give
    k c_k = sum_i (-1)^(i-1) c_(k-i) p_i, an exact division by k.
    """
    names = (tuple(f"e{i}" for i in range(1, p + 1))
             + tuple(f"f{j}" for j in range(1, q + 1)))
    top = p * q
    zero = ExactPoly(names)
    pa = _power_sums(names, 0, p, top)
    pb = _power_sums(names, p, q, top)
    psum = [sum((comb(k, l) * pa[l] * pb[k - l] for l in range(k + 1)), zero)
            for k in range(top + 1)]
    chern = [ExactPoly.constant(1, names)]
    for k in range(1, top + 1):
        acc = sum(((-1) ** (i - 1) * chern[k - i] * psum[i] for i in range(1, k + 1)), zero)
        if any(c % k for c in acc.terms.values()):
            raise ArithmeticError(f"c_{k} of a tensor product is not integral")
        chern.append(ExactPoly(names, {e: c // k for e, c in acc.terms.items()}))
    return tuple(chern)


def _power_sums(names: tuple[str, ...], offset: int, rank: int, top: int) -> list[ExactPoly]:
    """p_0..p_top of `rank` roots with e_i = names[offset + i - 1], by Newton:
    p_k = sum_(i<k) (-1)^(i-1) e_i p_(k-i) + (-1)^(k-1) k e_k."""
    nvars = len(names)
    elem = {i: ExactPoly(names, {tuple(int(j == offset + i - 1) for j in range(nvars)): 1})
            for i in range(1, rank + 1)}
    sums = [ExactPoly.constant(rank, names)]
    for k in range(1, top + 1):
        acc = (-1) ** (k - 1) * k * elem[k] if k <= rank else ExactPoly(names)
        for i in range(1, min(k - 1, rank) + 1):
            acc = acc + (-1) ** (i - 1) * elem[i] * sums[k - i]
        sums.append(acc)
    return sums


def grassmannian_ring(r: int, m: int) -> ChowRing:
    """The Chow ring of Gr(r, m) alone (no hyperplane class)."""
    return ChowRing(GrassmannianRing(r, m))


def projective_bundle(ring: ChowRing, bundle: BundleExpr) -> ChowRing:
    """Extend by P(bundle); adjoins zeta with the Grothendieck relation."""
    if ring.e:
        raise ValueError("ring already carries a projective-bundle factor")
    if bundle.rank < 1:
        raise ValueError("projective bundle of a rank-0 bundle")
    return ChowRing(ring.grass, bundle.rank, bundle.chern)


@dataclass(frozen=True)
class Desingularization:
    """P(S^n) over Gr(r, m) mapping onto the rank <= r matrices in P^(mn-1)."""

    ring: ChowRing
    tangent: BundleExpr
    zeta: ChowClass
    dim: int


@lru_cache(maxsize=None)
def determinantal_desingularization(m: int, n: int, r: int) -> Desingularization:
    """P(S^n) over Gr(r, m), assuming m <= n.

    The construction resolves the rank <= r locus birationally only for
    m <= n; with m > n its polar classes pick up an exceptional-locus
    contribution (empirically the polar classes of the rank r-1 locus), so
    callers transpose first.
    """
    if m > n:
        raise ValueError("desingularization requires m <= n; transpose first")
    if not 1 <= r <= min(m, n):
        raise ValueError("need 1 <= r <= min(m, n)")
    base = grassmannian_ring(r, m)
    s_chern = base.chern_sub().chern
    e = r * n
    chern_e = base.one()
    for _ in range(n):
        chern_e = chern_e * s_chern
    ring = projective_bundle(base, BundleExpr(base, e, chern_e))

    sub = ring.chern_sub()
    quot = ring.chern_quot()
    zeta = ring.zeta()
    bundle_e = sub.power(n)

    tangent_grass = sub.dual().tensor(quot)
    tangent_rel = bundle_e.tensor_line(zeta)  # includes the trivial summand
    tangent = BundleExpr(ring, ring.dim,
                         tangent_grass.chern * tangent_rel.chern)
    return Desingularization(ring, tangent, zeta, ring.dim)


@lru_cache(maxsize=None)
def sectional_integrals(m: int, n: int, r: int) -> tuple[int, ...]:
    """I_j = integral of c_{d-j}(T) * zeta^j over the desingularization, j = 0..d.

    Transposition-invariant: the format is canonicalized to m <= n.
    """
    if m > n:
        m, n = n, m
    des = determinantal_desingularization(m, n, r)
    out = []
    zpow = des.ring.one()
    for j in range(des.dim + 1):
        cj = des.tangent.chern_part(des.dim - j)
        out.append((cj * zpow).integral())
        if j < des.dim:
            zpow = zpow * des.zeta
    return tuple(out)


def polar_classes_determinantal(m: int, n: int, r: int) -> list[int]:
    """delta_i of the rank <= r determinantal variety, i = 0..dim."""
    ints = sectional_integrals(m, n, r)
    d = len(ints) - 1
    return [sum((-1) ** (d - j) * comb(j + 1, i + 1) * ints[j]
                for j in range(i, d + 1))
            for i in range(d + 1)]


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
