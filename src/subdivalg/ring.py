"""Exact coefficient arithmetic in Q[b, a].

Everything in this package computes over the ring of polynomials in two
formal parameters b and a with rational coefficients.  Keeping b and a
symbolic means every verified identity holds for all rational
specializations at once; `Coeff.specialize` recovers a concrete instance
when numeric parameters are wanted.

A coefficient is stored sparsely as {(deg_b, deg_a): value} with zero
values pruned.  A rational value is stored as an `int` when it is
integral and as a `Fraction` otherwise, and every result is normalised
back to that form, so structural equality coincides with ring equality.
Symbolic runs on integral input therefore never touch `Fraction`
arithmetic; `specialize` and `constant_value` still return `Fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Optional, Union

RationalLike = Union[int, Fraction]


class Coeff:
    """An element of Q[b, a], immutable by convention."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[dict] = None):
        cleaned = {}
        if terms:
            for key, value in terms.items():
                if type(value) is not int:
                    if type(value) is not Fraction:
                        value = Fraction(value)
                    if value.denominator == 1:
                        value = value.numerator
                if value:
                    cleaned[key] = value
        self._terms = cleaned

    @staticmethod
    def zero() -> "Coeff":
        return Coeff()

    @staticmethod
    def one() -> "Coeff":
        return Coeff({(0, 0): 1})

    @staticmethod
    def rational(value: RationalLike) -> "Coeff":
        return Coeff({(0, 0): value})

    @staticmethod
    def param_term(deg_b: int, deg_a: int, value: RationalLike = 1) -> "Coeff":
        if deg_b < 0 or deg_a < 0:
            raise ValueError("parameter exponents must be nonnegative")
        return Coeff({(deg_b, deg_a): value})

    def terms(self) -> Iterator[tuple[tuple[int, int], RationalLike]]:
        """Yield ((deg_b, deg_a), value) pairs in descending degree order."""
        return iter(sorted(self._terms.items(), reverse=True))

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Coeff):
            return NotImplemented
        return self._terms == other._terms

    def __neg__(self) -> "Coeff":
        return Coeff({k: -v for k, v in self._terms.items()})

    def __add__(self, other: "Coeff") -> "Coeff":
        if not isinstance(other, Coeff):
            return NotImplemented
        merged = dict(self._terms)
        for key, value in other._terms.items():
            merged[key] = merged.get(key, 0) + value
        return Coeff(merged)

    def __sub__(self, other: "Coeff") -> "Coeff":
        if not isinstance(other, Coeff):
            return NotImplemented
        merged = dict(self._terms)
        for key, value in other._terms.items():
            merged[key] = merged.get(key, 0) - value
        return Coeff(merged)

    def __mul__(self, other: "Coeff") -> "Coeff":
        if not isinstance(other, Coeff):
            return NotImplemented
        product: dict = {}
        for (b1, a1), v1 in self._terms.items():
            for (b2, a2), v2 in other._terms.items():
                key = (b1 + b2, a1 + a2)
                product[key] = product.get(key, 0) + v1 * v2
        return Coeff(product)

    def specialize(self, beta: RationalLike, alpha: RationalLike) -> Fraction:
        """Evaluate at numeric parameter values."""
        beta = Fraction(beta)
        alpha = Fraction(alpha)
        total = Fraction(0)
        for (deg_b, deg_a), value in self._terms.items():
            total += value * beta**deg_b * alpha**deg_a
        return total

    def substitute(
        self,
        beta: Optional[RationalLike] = None,
        alpha: Optional[RationalLike] = None,
    ) -> "Coeff":
        """Substitute numeric values for b and/or a; None keeps the symbol."""
        if beta is None and alpha is None:
            return self
        out: dict = {}
        for (deg_b, deg_a), value in self._terms.items():
            if beta is not None:
                value *= Fraction(beta) ** deg_b
                deg_b = 0
            if alpha is not None:
                value *= Fraction(alpha) ** deg_a
                deg_a = 0
            key = (deg_b, deg_a)
            out[key] = out.get(key, 0) + value
        return Coeff(out)

    def constant_value(self) -> Fraction:
        """The rational value of a constant coefficient.

        Raises ValueError when b or a actually occurs.
        """
        for (deg_b, deg_a), _ in self._terms.items():
            if deg_b or deg_a:
                raise ValueError("coefficient is not constant")
        return Fraction(self._terms.get((0, 0), 0))

    def __str__(self) -> str:
        return render_terms([(self, [])])

    def __repr__(self) -> str:
        return f"Coeff({self!s})"


ZERO = Coeff.zero()
ONE = Coeff.one()
BETA = Coeff.param_term(1, 0)
ALPHA = Coeff.param_term(0, 1)


def render_terms(pairs: Iterable) -> str:
    """Canonical text of a sum of (Coeff, variable factor texts) pairs.

    One summand per (rational, b-power, a-power) of each coefficient, in
    the order of pairs and then of descending parameter degrees; "0" for
    an empty sum.
    """
    parts = []
    for coeff, var_factors in pairs:
        for (deg_b, deg_a), value in coeff.terms():
            factors = []
            mag = abs(value)
            if mag != 1 or (deg_b == 0 and deg_a == 0 and not var_factors):
                factors.append(str(mag))
            if deg_b:
                factors.append("b" if deg_b == 1 else f"b^{deg_b}")
            if deg_a:
                factors.append("a" if deg_a == 1 else f"a^{deg_a}")
            factors.extend(var_factors)
            text = "*".join(factors)
            if not parts:
                parts.append(text if value > 0 else "-" + text)
            else:
                parts.append(("+ " if value > 0 else "- ") + text)
    return " ".join(parts) if parts else "0"


def resolve_param(value: Optional[RationalLike], symbolic: Coeff) -> Coeff:
    """Turn an optional numeric parameter into a coefficient.

    None keeps the generic symbol (b or a); a number specializes.
    """
    if value is None:
        return symbolic
    return Coeff.rational(value)
