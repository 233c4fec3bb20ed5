"""Exact sparse multivariate polynomials over the integers.

The one user in the package is chow._tensor_chern, which writes the Chern
classes of a tensor product (for the tangent bundle S^dual (x) Q of a
Grassmannian) as polynomials in the Chern classes of the factors; the tests
also build Schur polynomials with it.  Coefficients are Python ints, so all
arithmetic is arbitrary precision; these polynomials overflow 64 bits already
for moderate formats.  A polynomial is stored sparsely as a map from exponent
tuples to coefficients, keyed against an ordered variable list; both operands
of a sum or product must use the same variable list.

Everything is a plain value: no mutation after construction, safe to share.
"""

from __future__ import annotations

from typing import Mapping, Sequence

Exponent = tuple[int, ...]


class ExactPoly:
    """Sparse multivariate polynomial with exact integer coefficients."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponent, int] | None = None):
        self.variables: tuple[str, ...] = tuple(variables)
        clean: dict[Exponent, int] = {}
        if terms:
            nv = len(self.variables)
            for exps, coeff in terms.items():
                if len(exps) != nv:
                    raise ValueError(f"exponent vector {exps} does not match {nv} variables")
                if coeff:
                    clean[tuple(exps)] = int(coeff)
        self.terms: dict[Exponent, int] = clean

    @classmethod
    def constant(cls, value: int, variables: Sequence[str] = ()) -> "ExactPoly":
        if value == 0:
            return cls(variables, {})
        return cls(variables, {(0,) * len(tuple(variables)): value})

    def _coerce(self, other) -> "ExactPoly":
        if isinstance(other, int):
            return ExactPoly.constant(other, self.variables)
        if not isinstance(other, ExactPoly):
            return NotImplemented
        if other.variables != self.variables:
            raise ValueError(f"variables {other.variables} differ from {self.variables}")
        return other

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "ExactPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            c = out.get(exps, 0) + coeff
            if c:
                out[exps] = c
            else:
                out.pop(exps, None)
        return ExactPoly(self.variables, out)

    __radd__ = __add__

    def __neg__(self) -> "ExactPoly":
        return ExactPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "ExactPoly":
        return self + (-other if isinstance(other, ExactPoly) else -int(other))

    def __mul__(self, other) -> "ExactPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._mul(other)

    __rmul__ = __mul__

    def _mul(self, other: "ExactPoly") -> "ExactPoly":
        out: dict[Exponent, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(x + y for x, y in zip(e1, e2))
                c = out.get(exps, 0) + c1 * c2
                if c:
                    out[exps] = c
                else:
                    del out[exps]
        return ExactPoly(self.variables, out)

    def __pow__(self, n: int) -> "ExactPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = ExactPoly.constant(1, self.variables)
        for _ in range(n):
            result = result._mul(self)
        return result

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    # -- queries -----------------------------------------------------------

    def coeff(self, exps: Sequence[int]) -> int:
        """Exact coefficient of the given exponent vector (0 if absent)."""
        exps = tuple(exps)
        if len(exps) != len(self.variables):
            raise ValueError("exponent vector length mismatch")
        return self.terms.get(exps, 0)

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for exps in sorted(self.terms):
            mono = "*".join(f"{v}^{e}" if e > 1 else v
                            for v, e in zip(self.variables, exps) if e)
            c = self.terms[exps]
            bits.append(f"{c}{'*' + mono if mono else ''}")
        return " + ".join(bits)
