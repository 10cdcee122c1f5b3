"""Exact coefficient arithmetic in Q[b, a].

Everything in this package computes over the ring of polynomials in two
formal parameters b and a with rational coefficients.  Keeping b and a
symbolic means every verified identity holds for all rational
specializations at once; `substitute_coeff` recovers a concrete instance
when numeric parameters are wanted.

A coefficient in a term dict is a nonzero `int`, `Fraction` or `Coeff`,
one form per value: a value with no b or a in it is the plain number (an
`int` when integral), and a `Coeff` always holds b or a.  Numeric runs
therefore do their arithmetic natively, and symbolic runs mix numbers
and `Coeff`s through the reflected `+`, `-` and `*`.  A sum of two
`Coeff`s that cancels every parameter is its number, 0 when nothing is
left, and a `Coeff` times 0 is 0; a sum with a number, or a product of
two `Coeff`s, keeps a parameter (Q[b, a] is an integral domain).  So a
`Coeff` never equals a number.

`accumulate` is the one "merge term, drop zero" loop of the package: it
merges the term dicts of every sparse polynomial and the value dicts of
`Coeff`, and stores each integral `Fraction` it writes as its `int`.

A `Coeff` is stored sparsely as {(deg_b, deg_a): value}, zero values
pruned and integral values stored as `int`s.  The public constructor
`Coeff(dict)` normalises its input and raises `ValueError` when no b or a
is left; arithmetic builds its results with the internal
`Coeff._raw(dict)`, which takes the dict as it is.  `*` has fast paths
that merge nothing: by a number it scales the values, and by a one-term
`Coeff` it shifts the other operand's keys and scales its values (Q is a
field, so no product of nonzero values vanishes).

`spread_params` turns a polynomial's term dict into one whose values are
all numbers, each key led by the degree of each symbolic parameter, b
before a (with both symbolic, by the `Coeff` key itself), so that its
products multiply numbers and add keys; `fold_params` strips that lead
back into the values.  The series sweeps compute on these dicts.

Each key slot has a power table, `_Powers`, and `mono_text` joins the
entries of a key's present slots: `render_terms` writes a `Coeff` key
over the two tables named b and a, `poly` a monomial over its slots'.
`render_terms` writes every value, a number or a `Coeff` value, by one
branch as numerator and denominator, divided by its term's divisor as it
is written; so a result kept at the integral point is written as the
value it stands for (see `poly.SparsePoly.text`).

`integral_point` gives the point (L*b, L^2*a) with integral coordinates
at which the normal form, the Buchberger check, the series sweeps and the
game's callers `subdivalg reduce` and `verify_t_unique` work for a
rational point (b, a) (see `poly.rescaled`).  `resolve` turns the pair
(b, a) into coefficients, the symbol where a value is None.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import getitem
from typing import Iterable, Optional, Union

RationalLike = Union[int, Fraction]


_CONST = (0, 0)


def accumulate(out: dict, pairs: Iterable) -> dict:
    """Add each (key, coeff) of pairs into out, dropping every key whose
    coefficient becomes zero and storing an integral `Fraction` as its
    `int`; returns out.  A caller subtracts by passing negated pairs."""
    get = out.get
    for key, coeff in pairs:
        old = get(key)
        if old is None:
            if coeff:
                if type(coeff) is Fraction and coeff.denominator == 1:
                    coeff = coeff.numerator
                out[key] = coeff
        else:
            coeff = old + coeff
            if coeff:
                if type(coeff) is Fraction and coeff.denominator == 1:
                    coeff = coeff.numerator
                out[key] = coeff
            else:
                del out[key]
    return out


class Coeff:
    """An element of Q[b, a], immutable by convention."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[dict] = None):
        items = terms.items() if terms else ()
        values = ((k, v if type(v) in (int, Fraction) else Fraction(v)) for k, v in items)
        self._terms = accumulate({}, values)
        if self._terms.keys() <= {_CONST}:
            raise ValueError("a Coeff holds b or a; write a constant as its number")

    @staticmethod
    def _raw(terms: dict) -> "Coeff":
        # internal: terms already pruned and normalised (module docstring)
        c = object.__new__(Coeff)
        c._terms = terms
        return c

    @staticmethod
    def param_term(deg_b: int, deg_a: int) -> "Coeff":
        if deg_b < 0 or deg_a < 0:
            raise ValueError("parameter exponents must be nonnegative")
        return Coeff({(deg_b, deg_a): 1})

    def __eq__(self, other) -> bool:
        return type(other) is Coeff and self._terms == other._terms

    def __neg__(self) -> "Coeff":
        return Coeff._raw({k: -v for k, v in self._terms.items()})

    def __add__(self, other) -> CoeffLike:
        if type(other) is Coeff:
            return _settle(accumulate(dict(self._terms), other._terms.items()))
        if isinstance(other, (int, Fraction)):
            return Coeff._raw(accumulate(dict(self._terms), ((_CONST, other),)))
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other) -> CoeffLike:
        if type(other) is Coeff or isinstance(other, (int, Fraction)):
            return self + -other
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
            if not other:
                return 0
            out = {}
            for key, value in left.items():
                value *= other
                if type(value) is not int and value.denominator == 1:
                    value = value.numerator
                out[key] = value
            return Coeff._raw(out)
        right = other._terms
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
        products = (
            ((b1 + b2, a1 + a2), v1 * v2)
            for (b1, a1), v1 in left.items()
            for (b2, a2), v2 in right.items()
        )
        return Coeff._raw(accumulate({}, products))

    __rmul__ = __mul__

    def __str__(self) -> str:
        return render_terms([(self, "", 1)])

    def __repr__(self) -> str:
        return f"Coeff({self!s})"


# A term coefficient: a nonzero number, or a Coeff where b or a is left.
CoeffLike = Union[int, Fraction, Coeff]


def _settle(terms: dict) -> CoeffLike:
    """The term coefficient of a value dict: a Coeff while b or a is left,
    else its number, 0 when the dict is empty."""
    if len(terms) > 1 or _CONST not in terms:
        return Coeff._raw(terms) if terms else 0
    return terms[_CONST]


BETA = Coeff.param_term(1, 0)
ALPHA = Coeff.param_term(0, 1)


class _Powers(dict):
    """One key slot's power table: exponent -> the text of that power.  It
    holds 1 -> the slot's name and writes any other exponent e, negative
    ones too, as name^e at first use."""

    __slots__ = ()

    def __missing__(self, e: int) -> str:
        text = self[e] = f"{self[1]}^{e}"
        return text


def mono_text(tables: tuple, key: tuple) -> str:
    """Text of the key over the slots' power tables, "" for the empty
    monomial."""
    return "*".join(map(getitem, compress(tables, key), filter(None, key)))


# b's and a's power tables; (deg_b, deg_a) -> its text, "b^2*a", filled as met
_PARAM_POWERS = (_Powers({1: "b"}), _Powers({1: "a"}))
_PARAM_TEXT: dict = {}


def render_terms(terms: Iterable) -> str:
    """Canonical text of a sum of (coefficient, monomial text, divisor)
    triples, where the text of the empty monomial is "" and a coefficient,
    a Coeff or a number, is written divided by its int divisor > 0.

    One summand per (rational, b-power, a-power) of each coefficient, in
    the order of terms and then of descending parameter degrees; "0" for
    an empty sum.  A number is read as the one value of the empty
    parameter key, so every value is written by one branch: its numerator
    and denominator, divided by the divisor with one gcd and no Fraction
    built.  Each summand is written with its sign, "+ " or "- ", and the
    first sign is settled once the sum is joined.
    """
    parts = []
    param_text = _PARAM_TEXT
    for coeff, mono, divisor in terms:
        if type(coeff) is Coeff:
            items = coeff._terms.items()
            if len(items) > 1:
                items = sorted(items, reverse=True)
        else:
            items = ((_CONST, coeff),)
        for key, num in items:
            params = param_text.get(key)
            if params is None:
                params = param_text[key] = mono_text(_PARAM_POWERS, key)
            if type(num) is int:
                den = 1
            else:
                num, den = num.numerator, num.denominator
            if divisor != 1:
                common = gcd(num, divisor)
                num, den = num // common, den * (divisor // common)
            sign = "+ "
            if num < 0:
                sign, num = "- ", -num
            tail = f"{params}*{mono}" if params and mono else params or mono
            if den != 1:
                parts.append(f"{sign}{num}/{den}*{tail}" if tail else f"{sign}{num}/{den}")
            elif num != 1:
                parts.append(f"{sign}{num}*{tail}" if tail else f"{sign}{num}")
            else:
                parts.append(sign + (tail or "1"))
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def substitute_coeff(
    coeff: CoeffLike, beta: Optional[RationalLike] = None, alpha: Optional[RationalLike] = None
) -> CoeffLike:
    """A term coefficient with numeric values for b and/or a (None keeps the
    symbol): a number stays as it is, and a `Coeff` left constant becomes
    its number, 0 when it vanishes.  With both None a `Coeff` comes back as
    it is.  An integral b or a, an int or an integral Fraction, is used as
    its int, so an int value times its powers multiplies ints."""
    if type(coeff) is not Coeff or (beta is None and alpha is None):
        return coeff
    # a symbol kept stands at the power 1**deg and keeps its degree
    kept_b, kept_a = beta is None, alpha is None
    b, a = resolve(1 if kept_b else beta, 1 if kept_a else alpha)
    images = (
        ((deg_b * kept_b, deg_a * kept_a), value * b**deg_b * a**deg_a)
        for (deg_b, deg_a), value in coeff._terms.items()
    )
    return _settle(accumulate({}, images))


def fraction_values(coeff: CoeffLike) -> list:
    """The non-int values of a coefficient that is not an int: a Fraction
    is its own one value, and a `Coeff` gives its Fraction values."""
    if type(coeff) is Coeff:
        return [value for value in coeff._terms.values() if type(value) is not int]
    return [coeff]


def symbolic_params(beta: Optional[RationalLike], alpha: Optional[RationalLike]) -> tuple:
    """The positions in a Coeff key, 0 for b and 1 for a, of the parameters
    left symbolic (None)."""
    return tuple(pos for pos, value in enumerate((beta, alpha)) if value is None)


def spread_params(terms: dict, params: tuple) -> dict:
    """The terms of a polynomial with each coefficient spread over its
    parameter degrees: every key is led by the degree of each parameter of
    params, b before a, and every value is a number.  With no params,
    terms itself."""
    if not params:
        return terms
    lead = slice(params[0], params[-1] + 1)  # (0, 1): the Coeff key itself
    out = {}
    for key, coeff in terms.items():
        items = coeff._terms.items() if type(coeff) is Coeff else ((_CONST, coeff),)
        for degrees, value in items:
            out[degrees[lead] + key] = value
    return out


def fold_params(terms: dict, params: tuple) -> dict:
    """The inverse of spread_params: the leading degree slots go back into
    the values, a Coeff where b or a is left."""
    if not params:
        return terms
    width = len(params)
    before, after = (0,) * params[0], (0,) * (1 - params[-1])
    grouped: dict = {}
    for key, value in terms.items():
        grouped.setdefault(key[width:], {})[before + key[:width] + after] = value
    return {key: _settle(values) for key, values in grouped.items()}


def integral_point(beta: Optional[RationalLike], alpha: Optional[RationalLike]) -> tuple:
    """(L, L*b, L^2*a), the last two ints, for L the lcm of the
    denominators of b and a when both are numbers; (1, beta, alpha) when
    a symbol is left."""
    if beta is None or alpha is None:
        return 1, beta, alpha
    scale = lcm(beta.denominator, alpha.denominator)
    return scale, (scale * beta).numerator, (scale * scale * alpha).numerator


def resolve(beta: Optional[RationalLike], alpha: Optional[RationalLike]) -> tuple:
    """(b, a) as coefficients: None keeps the symbol of its position, b or
    a, and a number specializes to itself, an integral Fraction to its
    int."""
    b = BETA if beta is None else beta
    a = ALPHA if alpha is None else alpha
    if type(b) is Fraction and b.denominator == 1:
        b = b.numerator
    if type(a) is Fraction and a.denominator == 1:
        a = a.numerator
    return b, a
