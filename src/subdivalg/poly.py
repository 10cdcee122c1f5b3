"""Sparse polynomials in the pair variables x[i,j] and the row variables t[i].

A monomial in the x variables is a plain tuple of exponents with one slot
per pair (i, j), 1 <= i < j <= n, laid out row-major:

    n = 4:   x[1,2], x[1,3], x[1,4], x[2,3], x[2,4], x[3,4]

Row-major position also fixes the term order: x[1,2] is the largest
variable and x[n-1,n] the smallest, and two monomials compare at the
largest variable whose exponents differ (the one with the bigger exponent
there is the bigger monomial).  With this layout that is exactly Python's
tuple comparison, so `max(p.terms)` is the head monomial of p.

A t-monomial is an exponent tuple of length n, slot i-1 for t[i].

All five sparse polynomial types derive from `SparsePoly`, defined here:
`XPoly` (x variables) and `TPoly` (t variables) live in this module,
`QPoly` and `QTruncSeries` (Laurent exponents in q[1..n]) and `TWSeries`
(t[1..n] and w) in `series`.
Each stores {exponent tuple: coefficient} with zero coefficients pruned.
A coefficient is a nonzero `int`, `Fraction` or `Coeff` (see `ring`):
values with no b or a in them are plain numbers, and a `Coeff` stands
where a parameter is left.  The constructor, sums, products and the
parser merge their terms with `ring.accumulate`, which stores an
integral value as an `int`, so each value has one form and `==` is ring
equality.  Instances are immutable by convention; operations always
build new values.

`rescaled` carries a polynomial to the integral point of a rational
point and returns the factors it applied.  There are two ways back: the
value route, `unscaled`, divides a result back into a polynomial, and the
text route, `text(factors)`, writes each coefficient divided by its
factor with no polynomial built, so a result that is only printed, and
its d-image, stay at the integral point.

Text form (used by the parser, the formatter, and the CLI):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := rat | var | var '^' uint
    var    := 'x[' uint ',' uint ']' | 't[' uint ']' | 'b' | 'a'
    rat    := uint | uint '/' uint

Whitespace is insignificant.  x-variables and t-variables never mix in
one polynomial.  The formatter, `SparsePoly.text` (which `str` calls with
no factors), emits one grammar term per (rational, b-power, a-power,
monomial) combination, monomials in descending term order, so
parse(format(p)) == p.

Each key slot has a power table from `ring`, `variable_names(letter, n)`:
exponent -> the text of that power, "x[1,2]" at 1 and "x[1,2]^e" (Laurent
keys too, "q[2]^-1") filled at first use.  `ring.mono_text` joins the
table entries of a key's present slots.  `read_monomial`, the reader of
trace lines, inverts the tables: it looks each factor of x[i,j] or
x[i,j]^e, e >= 2 in ASCII digits, up by its name, and hands any other
text to the parser.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress
from math import gcd, lcm
from operator import add, mul, sub
from typing import Iterator, Optional

from .ring import (
    Coeff,
    CoeffLike,
    RationalLike,
    _Powers,
    accumulate,
    fraction_values,
    mono_text,
    render_terms,
    substitute_coeff,
)

Monomial = tuple  # exponent tuple over the x variables, row-major
Triple = tuple  # (i, j, k) with 1 <= i < j < k <= n


def num_vars(n: int) -> int:
    return n * (n - 1) // 2


@lru_cache(maxsize=None)
def pair_list(n: int) -> tuple:
    """All pairs (i, j), i < j, in row-major order."""
    return tuple((i, j) for i in range(1, n) for j in range(i + 1, n + 1))


@lru_cache(maxsize=None)
def pair_position(n: int) -> dict:
    """Map each pair (i, j) to its slot in the exponent tuple."""
    return {pair: pos for pos, pair in enumerate(pair_list(n))}


@lru_cache(maxsize=None)
def slot_partners(width: int, same_row: bool) -> tuple:
    """Per slot x[i,j], the pairs (slot of its partner, (i, j, k)) for
    k > j, ascending: the partner is x[i,k] when same_row, else x[j,k].

    So the triples of a monomial m in lex order are the (i, j, k) of its
    present slots' pairs whose partner is present too."""
    n = ambient_size(width)
    positions = pair_position(n)
    return tuple(
        tuple((positions[(i, k) if same_row else (j, k)], (i, j, k)) for k in range(j + 1, n + 1))
        for i, j in pair_list(n)
    )


@lru_cache(maxsize=None)
def ambient_size(width: int) -> int:
    """Recover n from the length of an exponent tuple."""
    n = 1
    while num_vars(n) < width:
        n += 1
    if num_vars(n) != width:
        raise ValueError(f"{width} is not of the form n*(n-1)/2")
    return n


def var_position(i: int, j: int, n: int) -> int:
    try:
        return pair_position(n)[(i, j)]
    except KeyError:
        raise ValueError(f"x[{i},{j}] is not a variable for n={n}") from None


def mono_one(n: int) -> Monomial:
    return (0,) * num_vars(n)


def mono_from_pairs(n: int, exponents: dict) -> Monomial:
    """Build a monomial from {(i, j): exponent}; zero entries are dropped."""
    exps = [0] * num_vars(n)
    for (i, j), e in exponents.items():
        if e < 0:
            raise ValueError("exponents must be nonnegative")
        if e:
            exps[var_position(i, j, n)] += e
    return tuple(exps)


def _check_widths(a: tuple, b: tuple) -> None:
    if len(a) != len(b):
        raise ValueError(f"exponent tuples of lengths {len(a)} and {len(b)} do not match")


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    _check_widths(a, b)
    return tuple(map(add, a, b))


def mono_div(a: Monomial, b: Monomial) -> Optional[Monomial]:
    """a / b, or None when b does not divide a."""
    _check_widths(a, b)
    out = tuple(map(sub, a, b))
    return None if out and min(out) < 0 else out


def _has_partner(m: Monomial, same_row: bool) -> bool:
    """True when some present slot of m has its partner present too."""
    rows = compress(slot_partners(len(m), same_row), m)
    return any(m[pos] for row in rows for pos, _ in row)


def is_pathless(m: Monomial) -> bool:
    """True when no x[i,j]*x[j,k] with i < j < k divides m."""
    return not _has_partner(m, False)


def is_forkless(m: Monomial) -> bool:
    """True when no x[i,j]*x[i,k] with i < j < k divides m."""
    return not _has_partner(m, True)


@lru_cache(maxsize=None)
def _pathless_weights(width: int) -> tuple:
    n = ambient_size(width)
    return tuple(n - j + i for i, j in pair_list(n))


def weight_pathless(m: Monomial) -> int:
    """Sum of exponent * (n - j + i); drops strictly at every pathless step."""
    return sum(map(mul, m, _pathless_weights(len(m))))


def all_monomials(n: int, degree: int) -> Iterator[Monomial]:
    """All monomials of exact total degree in the x variables for this n,
    in ascending exponent-tuple order: stars and bars, one exponent between
    each two of the width - 1 bars chosen in lex order."""
    width = num_vars(n)
    if width == 0:
        if degree == 0:
            yield ()
        return
    end = degree + width - 1
    for bars in combinations(range(end), width - 1):
        yield tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, end)))


@lru_cache(maxsize=None)
def variable_names(letter: str, n: int) -> tuple:
    """The power table of each key slot, named x[i,j] in row-major order,
    else letter[i]."""
    if letter == "x":
        names = [f"x[{i},{j}]" for i, j in pair_list(n)]
    else:
        names = [f"{letter}[{i}]" for i in range(1, n + 1)]
    return tuple(_Powers({1: name}) for name in names)


def format_monomial(m: Monomial) -> str:
    """Bare monomial text, '1' for the empty monomial."""
    return mono_text(variable_names("x", ambient_size(len(m))), m) or "1"


class SparsePoly:
    """{exponent tuple: coefficient} over the ambient size n, zero
    coefficients pruned; a coefficient is an int, Fraction or Coeff.

    The base of XPoly and TPoly here and of QPoly, QTruncSeries and
    TWSeries in `series`.  A subclass fixes the key width (`_width`) and
    the variable letter (`_letter`); arithmetic takes two values of one
    class and one ambient size.  Products of nonzero coefficients are
    nonzero (Q[b,a] is an integral domain), so only merging can create a
    zero to prune.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Optional[dict] = None):
        width = self._width(n)
        terms = terms or {}
        for key in terms:
            if len(key) != width:
                raise ValueError(f"exponent tuple {key} does not match n={n}")
        self.n = n
        self.terms = accumulate({}, terms.items())

    @staticmethod
    def _width(n: int) -> int:
        return n

    @classmethod
    def _raw(cls, n: int, terms: dict):
        # internal: terms already pruned and of the right width
        p = object.__new__(cls)
        p.n = n
        p.terms = terms
        return p

    def _like(self, terms: dict):
        """A value of the same class and ambient as self."""
        return self._raw(self.n, terms)

    @classmethod
    def one(cls, n: int):
        return cls.constant(n, 1)

    @classmethod
    def constant(cls, n: int, coeff: CoeffLike):
        return cls(n, {(0,) * cls._width(n): coeff})

    def _check_ambient(self, other):
        if self.n != other.n:
            raise ValueError(f"ambient size mismatch: {self.n} vs {other.n}")

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __neg__(self):
        return self._like({m: -c for m, c in self.terms.items()})

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check_ambient(other)
        return self._like(accumulate(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check_ambient(other)
        return self._like(accumulate(dict(self.terms), ((m, -c) for m, c in other.terms.items())))

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check_ambient(other)
        return self._like(accumulate({}, self._products(other)))

    def _products(self, other):
        """(m1 + m2, c1 * c2) for every pair of terms, before merging."""
        right = other.terms.items()
        for m1, c1 in self.terms.items():
            for m2, c2 in right:
                yield tuple(map(add, m1, m2)), c1 * c2

    def scale(self, coeff: CoeffLike):
        if coeff == 1:
            return self
        products = ((m, coeff * c) for m, c in self.terms.items())
        return self._like(accumulate({}, products))

    def mul_term(self, mono: tuple, coeff: CoeffLike):
        """Multiply by a single term coeff * mono."""
        products = ((mono_mul(m, mono), coeff * c) for m, c in self.terms.items())
        return self._like(accumulate({}, products))

    def substitute(
        self,
        beta: Optional[RationalLike] = None,
        alpha: Optional[RationalLike] = None,
    ):
        """Specialize parameters in every coefficient; None keeps the symbol.
        A coefficient left constant becomes its number."""
        if beta is None and alpha is None:
            return self
        return self._like(
            {m: s for m, c in self.terms.items() if (s := substitute_coeff(c, beta, alpha))}
        )

    def text(self, factors: Optional[list] = None) -> str:
        """The text of `unscaled(self, factors)`, written without building
        it: each coefficient of a term of degree d is divided by factors[d]
        as it is written.  With factors None, str(self)."""
        tables = variable_names(self._letter, self.n)
        terms = self.terms
        return render_terms(
            (terms[m], mono_text(tables, m), factors[sum(m)] if factors else 1)
            for m in sorted(terms, reverse=True)
        )

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, {self!s})"


class XPoly(SparsePoly):
    """Polynomial in the x variables over Q[b, a]."""

    __slots__ = ()
    _letter = "x"
    _width = staticmethod(num_vars)

    @classmethod
    def variable(cls, i: int, j: int, n: int) -> "XPoly":
        exps = [0] * num_vars(n)
        exps[var_position(i, j, n)] = 1
        return cls._raw(n, {tuple(exps): 1})

    @classmethod
    def from_monomial(cls, m: Monomial) -> "XPoly":
        return cls(ambient_size(len(m)), {m: 1})


class TPoly(SparsePoly):
    """Polynomial in t[1..n] over Q[b, a]."""

    __slots__ = ()
    _letter = "t"

    @classmethod
    def variable(cls, i: int, n: int) -> "TPoly":
        if not 1 <= i <= n:
            raise ValueError(f"t[{i}] is not a variable for n={n}")
        exps = [0] * n
        exps[i - 1] = 1
        return cls._raw(n, {tuple(exps): 1})


def ring_map(image, one):
    """The ring map that sends the variable of key slot pos to image(pos),
    as a function applied to each polynomial p; one, a value of the target
    SparsePoly class, is the empty product, and each result is built like
    it.

    The map keeps two memos for every later input: each power of an image,
    built once as the previous power times the image, and each monomial's
    image, built once as the product of its powers.  The memos are per map,
    so a sweep builds one map and applies it to each of its inputs, and the
    memos go when the sweep drops the map.  image(pos) is called at most
    once per slot, when a first input uses that slot; when it raises,
    nothing is stored, and the map stays usable for inputs without that
    slot.  An input's terms are summed into one dict, each scaled by its
    coefficient on the way in.
    """
    powers: dict = {}  # slot -> [image, image^2, ...]
    monomials: dict = {}  # key -> the image of its monomial

    def power(pos: int, e: int):
        known = powers.get(pos)
        if known is None:
            known = powers[pos] = [image(pos)]
        while len(known) < e:
            known.append(known[-1] * known[0])
        return known[e - 1]

    def monomial(key: tuple):
        term = None
        for pos, e in enumerate(key):
            if e:
                term = power(pos, e) if term is None else term * power(pos, e)
        if term is None:
            term = one
        monomials[key] = term
        return term

    def apply(p: SparsePoly):
        out: dict = {}
        for key, coeff in p.terms.items():
            known = monomials.get(key)
            terms = (monomial(key) if known is None else known).terms.items()
            if coeff != 1:
                terms = ((m, coeff * c) for m, c in terms)
            accumulate(out, terms)
        return one._like(out)

    return apply


def rescaled(p: SparsePoly, scale: int) -> tuple:
    """(q, factors): q = K*L^D*p(x/L) for L = scale, D the largest degree
    of p and K > 0 the least that makes every number and every Coeff value
    an int, so a term c*m becomes c*K*L^(D-|m|); factors[d] = K*L^(D-d).
    (p, None) when L = 1 and every value is an int, so that every factor is
    1.  `unscaled(r, factors)` divides back to a polynomial, and
    `r.text(factors)` writes the text of that polynomial without it.

    The relation x[i,j]*x[j,k] - x[i,k]*(x[i,j] + x[j,k] + b) - a is
    homogeneous of weight 2 when x and b weigh 1 and a weighs 2.  So a step
    of either reduction at the integral point (L*b, L^2*a) of
    `ring.integral_point` on q makes the move it makes at (b, a) on p: every
    term it writes has the factor of its degree, and terms merge and cancel
    alike, since a monomial has one degree.  L is the lcm of the
    denominators, so every step multiplies ints; where a symbol is left,
    L = 1 and K alone clears p's denominators.  `d_image` keeps each term's
    degree, so the factors divide a d-image back too."""
    # (degree, value) of each number, and each Coeff value, that is not an int
    others = [
        (sum(key), value)
        for key, c in p.terms.items()
        if type(c) is not int
        for value in fraction_values(c)
    ]
    if scale == 1 and not others:
        return p, None
    top = max(map(sum, p.terms), default=0)
    # the part of each denominator that L^(D-d) leaves
    clear = lcm(*[c.denominator // gcd(c.denominator, scale ** (top - d)) for d, c in others])
    factors = [clear * scale ** (top - degree) for degree in range(top + 1)]
    terms = {}
    for key, c in p.terms.items():
        factor = factors[sum(key)]
        # the factor is a multiple of a Fraction's denominator
        terms[key] = c.numerator * (factor // c.denominator) if type(c) is Fraction else c * factor
    return p._like(terms), factors


def unscaled(r: SparsePoly, factors: Optional[list]) -> SparsePoly:
    """The inverse of the `rescaled` call that gave factors, on r, a value
    of its input's class or its d-image, with no degree above the input's:
    each term of degree d times 1/factors[d], in one `accumulate` pass,
    which stores an integral quotient as its int; r itself when factors is
    None.  This is the value route, for a caller that keeps computing;
    `r.text(factors)` is the text of the result, built without it."""
    if factors is None:
        return r
    inverses = [Fraction(1, factor) for factor in factors]
    return r._like(accumulate({}, ((key, c * inverses[sum(key)]) for key, c in r.terms.items())))


def d_image(p: XPoly) -> TPoly:
    """Substitute t[i] for every x[i,j]; a ring homomorphism onto t[1..n-1]."""
    n = p.n
    rows = [i - 1 for i, _ in pair_list(n)]
    slots = range(len(rows))

    def images():
        for mono, coeff in p.terms.items():
            texp = [0] * n
            for pos in compress(slots, mono):
                texp[rows[pos]] += mono[pos]
            yield tuple(texp), coeff

    return TPoly._raw(n, accumulate({}, images()))


# ---------------------------------------------------------------------------
# parsing


class PolyParseError(ValueError):
    """Syntax or range error in polynomial text, with a position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            raise PolyParseError(f"expected '{ch}'", self.pos)

    def read_uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            raise PolyParseError("expected an unsigned integer", start)
        try:
            return int(self.text[start : self.pos])
        except ValueError:
            # int() refuses more digits than sys.get_int_max_str_digits() allows
            raise PolyParseError("integer has too many digits", start) from None

    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def _parse_terms(text: str, n: int, family: str) -> dict:
    """Parse the grammar into {exponent tuple: coefficient} for one variable
    family; a coefficient with no b or a is a number, which `accumulate`
    stores as an int when integral."""
    width = num_vars(n) if family == "x" else n
    sc = _Scanner(text)

    def parse_factor(coeff: CoeffLike, exps: list) -> CoeffLike:
        ch = sc.peek()
        start = sc.pos
        if "0" <= ch <= "9":
            numerator = sc.read_uint()
            if sc.take("/"):
                denominator = sc.read_uint()
                if denominator == 0:
                    raise PolyParseError("zero denominator", start)
                return coeff * Fraction(numerator, denominator)
            return coeff * numerator
        if ch == "b" or ch == "a":
            sc.pos += 1
            e = sc.read_uint() if sc.take("^") else 1
            if not e:
                return coeff
            return coeff * Coeff.param_term(e if ch == "b" else 0, e if ch == "a" else 0)
        if ch == "x" or ch == "t":
            if ch != family:
                raise PolyParseError(f"{ch}-variables are not allowed here", sc.pos)
            sc.pos += 1
            sc.expect("[")
            i = sc.read_uint()
            if family == "x":
                sc.expect(",")
                j = sc.read_uint()
                sc.expect("]")
                if not 1 <= i < j:
                    raise PolyParseError(f"x[{i},{j}] violates i < j", start)
                if j > n:
                    raise PolyParseError(f"x[{i},{j}] is out of range for n={n}", start)
                pos = pair_position(n)[(i, j)]
            else:
                sc.expect("]")
                if not 1 <= i <= n:
                    raise PolyParseError(f"t[{i}] is out of range for n={n}", start)
                pos = i - 1
            e = sc.read_uint() if sc.take("^") else 1
            exps[pos] += e
            return coeff
        raise PolyParseError("expected a factor", sc.pos)

    def parse_term() -> tuple:
        exps = [0] * width
        coeff = parse_factor(1, exps)
        while sc.take("*"):
            coeff = parse_factor(coeff, exps)
        return tuple(exps), coeff

    def signed_terms():
        negative = sc.take("-")
        while True:
            mono, coeff = parse_term()
            yield mono, -coeff if negative else coeff
            if sc.done():
                return
            if sc.take("+"):
                negative = False
            elif sc.take("-"):
                negative = True
            else:
                raise PolyParseError("expected '+', '-', or end of input", sc.pos)

    return accumulate({}, signed_terms())


def parse_poly(text: str, n: int) -> XPoly:
    """Parse x-variable polynomial text for ambient size n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return XPoly._raw(n, _parse_terms(text, n, "x"))


def parse_tpoly(text: str, n: int) -> TPoly:
    """Parse t-variable polynomial text for ambient size n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return TPoly._raw(n, _parse_terms(text, n, "t"))


def parse_monomial(text: str, n: int) -> Monomial:
    """Parse a single monomial with coefficient one."""
    terms = _parse_terms(text, n, "x")
    if len(terms) != 1:
        raise PolyParseError("expected a single monomial", 0)
    mono, coeff = next(iter(terms.items()))
    if coeff != 1:
        raise PolyParseError("expected coefficient one", 0)
    return mono


@lru_cache(maxsize=None)
def _slot_of_name(n: int) -> dict:
    """x[i,j] -> its slot: the inverse of the x power tables at exponent 1."""
    return {table[1]: pos for pos, table in enumerate(variable_names("x", n))}


def _written_exponent(digits: str) -> Optional[int]:
    """The exponent e >= 2 that a power table writes as these digits: ASCII,
    no leading zero; None for any other text."""
    if digits.isascii() and digits.isdigit() and digits[0] != "0" and digits != "1":
        try:
            return int(digits)
        except ValueError:  # more digits than int() reads
            pass
    return None


def read_monomial(text: str, n: int) -> Monomial:
    """A monomial with coefficient one, as in trace lines.  Text written as
    `mono_text` writes it is read by lookup in the inverse of the power
    tables, factor by factor; a repeated factor multiplies.  Any other text
    goes to `parse_monomial`, with its errors and positions."""
    slots = _slot_of_name(n)
    exps = [0] * len(slots)
    for factor in text.split("*"):
        name, power, digits = factor.partition("^")
        pos = slots.get(name)
        e = _written_exponent(digits) if power else 1
        if pos is None or e is None:
            return parse_monomial(text, n)
        exps[pos] += e
    return tuple(exps)
