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

The public constructor `Coeff(dict)` validates and normalises its input.
Arithmetic builds its results with the internal `Coeff._raw(dict)`,
which takes the dict as it is: every value nonzero, and an integral
value stored as an `int`.  `+`, `-` and negation keep that invariant by
normalising only the values they compute.  `*` has two fast paths: by
the unit coefficient 1 it returns the other operand unchanged (a
`Coeff` is never mutated, so sharing it is safe), and one term times
one term builds its single key directly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Optional, Union

RationalLike = Union[int, Fraction]


_UNIT = {(0, 0): 1}


def _merge(out: dict, terms: dict, negate: bool) -> dict:
    """Add terms into out, or subtract them when negate, normalising each
    value computed and dropping the ones that cancel; returns out."""
    get = out.get
    for key, value in terms.items():
        old = get(key)
        if old is None:
            out[key] = -value if negate else value
            continue
        value = old - value if negate else old + value
        if type(value) is not int and value.denominator == 1:
            value = value.numerator
        if value:
            out[key] = value
        else:
            del out[key]
    return out


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
    def _raw(terms: dict) -> "Coeff":
        # internal: terms already pruned and normalised (module docstring)
        c = object.__new__(Coeff)
        c._terms = terms
        return c

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
        return Coeff._raw({k: -v for k, v in self._terms.items()})

    def __add__(self, other: "Coeff") -> "Coeff":
        if not isinstance(other, Coeff):
            return NotImplemented
        return Coeff._raw(_merge(dict(self._terms), other._terms, False))

    def __sub__(self, other: "Coeff") -> "Coeff":
        if not isinstance(other, Coeff):
            return NotImplemented
        return Coeff._raw(_merge(dict(self._terms), other._terms, True))

    def __mul__(self, other: "Coeff") -> "Coeff":
        if not isinstance(other, Coeff):
            return NotImplemented
        left, right = self._terms, other._terms
        if left == _UNIT:
            return other
        if right == _UNIT:
            return self
        if len(left) == 1 and len(right) == 1:
            [((b1, a1), v1)] = left.items()
            [((b2, a2), v2)] = right.items()
            value = v1 * v2
            if type(value) is not int and value.denominator == 1:
                value = value.numerator
            return Coeff._raw({(b1 + b2, a1 + a2): value})
        product: dict = {}
        for (b1, a1), v1 in left.items():
            for (b2, a2), v2 in right.items():
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
