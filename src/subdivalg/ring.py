"""Exact coefficient arithmetic in Q[b, a].

Everything in this package computes over the ring of polynomials in two
formal parameters b and a with rational coefficients.  Keeping b and a
symbolic means every verified identity holds for all rational
specializations at once; `substitute_coeff` recovers a concrete instance
when numeric parameters are wanted.

A coefficient in a term dict is a nonzero `int`, `Fraction` or `Coeff`.
A value with no b or a in it is written as the plain number (an `int`
when integral, though `Fraction` arithmetic may leave an integral
`Fraction`), and a `Coeff` holds a value where a parameter is left.
Numeric runs (b and a given) therefore do their arithmetic natively, and
symbolic runs mix numbers with `Coeff`s through the reflected operators:
an `int` or `Fraction` operand of `+`, `-`, `*` or `==` acts as the
constant `Coeff` it equals, on either side.  `Coeff` arithmetic whose
result happens to be constant may leave a constant `Coeff`.  Equality
and text do not depend on which one holds a constant: a constant `Coeff`
equals its number in both directions, and `render_terms` prints a number
as it prints the constant `Coeff`.

A `Coeff` is stored sparsely as {(deg_b, deg_a): value} with zero values
pruned, a value stored as an `int` when integral and as a `Fraction`
otherwise.
The public constructor `Coeff(dict)` validates and normalises its input.
Arithmetic builds its results with the internal `Coeff._raw(dict)`,
which takes the dict as it is: `+`, `-` and negation keep the invariant
by normalising only the values they compute, and so does `*`, which has
fast paths besides.  By the unit 1, on either side, it returns the other
operand unchanged (a `Coeff` is never mutated, so sharing it is safe;
`ONE * 3` is the number 3).  By a number it scales the values and keeps
the keys, and by a one-term `Coeff` it shifts the other operand's keys
and scales its values, with nothing to merge (Q is a field, so no product
of nonzero values vanishes).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Optional, Union

RationalLike = Union[int, Fraction]


_CONST = (0, 0)
_UNIT = {_CONST: 1}


def _plus_constant(terms: dict, value: RationalLike) -> "Coeff":
    """The Coeff of terms plus the number value."""
    out = dict(terms)
    value = out.get(_CONST, 0) + value
    if type(value) is not int and value.denominator == 1:
        value = value.numerator
    if value:
        out[_CONST] = value
    else:
        out.pop(_CONST, None)
    return Coeff._raw(out)


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

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if type(other) is Coeff:
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == ({_CONST: other} if other else {})
        return NotImplemented

    def __neg__(self) -> "Coeff":
        return Coeff._raw({k: -v for k, v in self._terms.items()})

    def __add__(self, other) -> "Coeff":
        if type(other) is Coeff:
            return Coeff._raw(_merge(dict(self._terms), other._terms, False))
        if isinstance(other, (int, Fraction)):
            return _plus_constant(self._terms, other)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other) -> "Coeff":
        if type(other) is Coeff:
            return Coeff._raw(_merge(dict(self._terms), other._terms, True))
        if isinstance(other, (int, Fraction)):
            return _plus_constant(self._terms, -other)
        return NotImplemented

    def __rsub__(self, other) -> "Coeff":
        if isinstance(other, (int, Fraction)):
            return -self + other
        return NotImplemented

    def __mul__(self, other):
        left = self._terms
        if type(other) is not Coeff:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if other == 1:
                return self
            if left == _UNIT:
                return other
            if not other:
                return Coeff._raw({})
            out = {}
            for key, value in left.items():
                value *= other
                if type(value) is not int and value.denominator == 1:
                    value = value.numerator
                out[key] = value
            return Coeff._raw(out)
        right = other._terms
        if left == _UNIT:
            return other
        if right == _UNIT:
            return self
        if len(right) != 1:
            left, right = right, left
        if len(right) == 1:
            [((b2, a2), v2)] = right.items()
            out = {}
            for (b1, a1), v1 in left.items():
                value = v1 * v2
                if type(value) is not int and value.denominator == 1:
                    value = value.numerator
                out[(b1 + b2, a1 + a2)] = value
            return Coeff._raw(out)
        product: dict = {}
        get = product.get
        for (b1, a1), v1 in left.items():
            for (b2, a2), v2 in right.items():
                key = (b1 + b2, a1 + a2)
                product[key] = get(key, 0) + v1 * v2
        out = {}
        for key, value in product.items():
            if type(value) is not int and value.denominator == 1:
                value = value.numerator
            if value:
                out[key] = value
        return Coeff._raw(out)

    __rmul__ = __mul__

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

    def __str__(self) -> str:
        return render_terms([(self, "")])

    def __repr__(self) -> str:
        return f"Coeff({self!s})"


# A term coefficient: a nonzero number, or a Coeff where b or a is left.
CoeffLike = Union[int, Fraction, Coeff]

ZERO = Coeff.zero()
ONE = Coeff.one()
BETA = Coeff.param_term(1, 0)
ALPHA = Coeff.param_term(0, 1)


# (deg_b, deg_a) -> its text, "b^2*a", "" for (0, 0); filled as met
_PARAM_TEXT: dict = {}


def _param_text(deg_b: int, deg_a: int) -> str:
    factors = []
    if deg_b:
        factors.append("b" if deg_b == 1 else f"b^{deg_b}")
    if deg_a:
        factors.append("a" if deg_a == 1 else f"a^{deg_a}")
    return "*".join(factors)


def render_terms(pairs: Iterable) -> str:
    """Canonical text of a sum of (coefficient, monomial text) pairs, where
    the text of the empty monomial is "" and a coefficient is a Coeff or a
    number, printed as the constant Coeff it equals.

    One summand per (rational, b-power, a-power) of each coefficient, in
    the order of pairs and then of descending parameter degrees; "0" for
    an empty sum.
    """
    parts = []
    param_text = _PARAM_TEXT
    for coeff, mono in pairs:
        if type(coeff) is Coeff:
            items = coeff._terms.items()
            if len(items) > 1:
                items = sorted(items, reverse=True)
        else:
            items = ((_CONST, coeff),)
        for key, value in items:
            params = param_text.get(key)
            if params is None:
                params = param_text[key] = _param_text(*key)
            num = value.numerator
            negative = num < 0
            if negative:
                num = -num
            den = value.denominator
            if den != 1:
                text = f"{num}/{den}"
            elif num != 1 or not (params or mono):
                text = str(num)
            else:
                text = ""
            if params:
                text = f"{text}*{params}" if text else params
            if mono:
                text = f"{text}*{mono}" if text else mono
            if parts:
                parts.append(("- " if negative else "+ ") + text)
            else:
                parts.append("-" + text if negative else text)
    return " ".join(parts) if parts else "0"


def substitute_coeff(
    coeff: CoeffLike, beta: Optional[RationalLike] = None, alpha: Optional[RationalLike] = None
) -> CoeffLike:
    """A term coefficient with numeric values for b and/or a (None keeps the
    symbol): a number stays as it is, and a `Coeff` left constant becomes
    its number, 0 when it vanishes."""
    if type(coeff) is not Coeff:
        return coeff
    coeff = coeff.substitute(beta, alpha)
    terms = coeff._terms
    if not terms:
        return 0
    if len(terms) == 1 and _CONST in terms:
        return terms[_CONST]
    return coeff


def resolve_param(value: Optional[RationalLike], symbolic: Coeff) -> CoeffLike:
    """Turn an optional numeric parameter into a coefficient.

    None keeps the generic symbol (b or a); a number specializes to
    itself, an integral Fraction to its int.
    """
    if value is None:
        return symbolic
    if type(value) is not int and value.denominator == 1:
        return value.numerator
    return value
