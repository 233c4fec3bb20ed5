"""Sparse multivariate polynomials: the one polynomial type of the package.

A Poly in n variables maps exponent tuples of length n to coefficients; the
operands of a sum or product must have the same n.  Coefficients keep their
type: Python ints stay exact at any size (the test suite builds its Schur
polynomial oracle this way), floats and complex numbers make the critical
equations of ``systems``.  A scalar factor scales the terms.  Values
are never mutated after construction.
"""

from __future__ import annotations

from typing import Mapping, Sequence

Exponent = tuple[int, ...]


class Poly:
    """Sparse polynomial in n positional variables."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Exponent, object] | None = None):
        self.n = n
        self.terms: dict[Exponent, object] = {}
        if terms:
            for e, c in terms.items():
                if len(e) != n:
                    raise ValueError(f"exponent vector {e} does not match {n} variables")
                if c != 0:
                    self.terms[tuple(e)] = c

    @classmethod
    def const(cls, n: int, c) -> "Poly":
        return cls(n, {(0,) * n: c})

    @classmethod
    def var(cls, n: int, i: int) -> "Poly":
        e = [0] * n
        e[i] = 1
        return cls(n, {tuple(e): 1})

    def _check(self, other: "Poly") -> None:
        if other.n != self.n:
            raise ValueError(f"operands in {other.n} and {self.n} variables differ")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "Poly":
        if isinstance(other, Poly):
            self._check(other)
        else:
            other = Poly.const(self.n, other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, 0) + c
            if v != 0:
                out[e] = v
            else:
                out.pop(e, None)
        return Poly(self.n, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return Poly(self.n, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        return self._mul(other)

    __rmul__ = __mul__

    def _mul(self, other: "Poly") -> "Poly":
        out: dict[Exponent, object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Poly(self.n, out)

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.const(self.n, 1)
        for _ in range(k):
            result = result._mul(self)
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        return self.terms == other.terms

    # -- calculus and queries ----------------------------------------------

    def diff(self, i: int) -> "Poly":
        out: dict[Exponent, object] = {}
        for e, c in self.terms.items():
            if e[i]:
                d = list(e)
                d[i] -= 1
                key = tuple(d)
                out[key] = out.get(key, 0) + c * e[i]
        return Poly(self.n, out)

    def eval(self, x: Sequence):
        total = 0
        for e, c in self.terms.items():
            v = c
            for xi, ei in zip(x, e):
                if ei:
                    v = v * xi ** ei
            total += v
        return total

    def coeff(self, exps: Sequence[int]):
        """The coefficient of the given exponent vector (0 if absent)."""
        exps = tuple(exps)
        if len(exps) != self.n:
            raise ValueError("exponent vector length mismatch")
        return self.terms.get(exps, 0)

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def degree_on(self, indices: Sequence[int]) -> int:
        idx = list(indices)
        return max((sum(e[i] for i in idx) for e in self.terms), default=-1)

    def is_zero(self) -> bool:
        return not self.terms


# the benchmark's tracer wraps polyarith.ExactPoly._mul; this name is for it
ExactPoly = Poly
