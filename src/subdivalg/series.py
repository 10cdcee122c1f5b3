"""Fraction and truncated-series realizations of the algebra maps.

Three coordinate systems appear here:

* Laurent polynomials in q[1..n] (`QPoly`), with formal fractions over
  products of the binomials q[j] - q[i] (`QRatFrac`).  The substitution

      a_image_rat:  x[i,j]  ->  -(q[i]*q[j] + b*q[j] + a) / (q[j] - q[i])

  is a ring homomorphism that kills every defining relation, checked by
  `verify_a_kills_j`.  `a_map` sums a polynomial's terms over one common
  denominator and maps the content that every lifted term shares once; a
  sweep builds one `a_map` and applies it to each input, so each power
  and each monomial image is built once per sweep (`a_image_rat` is the
  one-input form).  Fractions are never reduced; equality goes through
  cross multiplication, so every comparison is exact.

* Truncated Laurent series (`QTruncSeries`): terms are kept while their
  negative mass (sum of the negated negative exponents) is at most the
  truncation order W.  A pathless monomial is S-friendly for S its rows
  (every variable x[i,j] has i in S and j not in S, since an index that
  is both a row and a column is a path x[i,j]*x[j,k]), and for it the
  expansion

      a_s_expand:  x[i,j]  ->  sum_k ( -q[i]^(k+1)*q[j]^-k
                                       - b*q[i]^k*q[j]^-k
                                       - a*q[i]^k*q[j]^-(k+1) ),  k <= W

  is exact for every retained exponent: positions in S only ever receive
  nonnegative exponents and positions outside S nonpositive ones, so
  negative masses add across factors and nothing pruned can come back.

* Power series in w with t-polynomial coefficients (`TWSeries`), keyed
  by (t[1..n] exponents..., w exponent) and kept while the w exponent is
  at most W.  Both truncated classes share one base that cuts a key by a
  single hook, its mass: neg_mass for `QTruncSeries`, the power of w
  here.  A product visits each operand's terms grouped by mass, in
  ascending mass, so the pairs past the order are cut a group at a time.
  Powers of w always add; negative masses add unless a slot is positive in
  one operand and negative in the other (their sign masks clash), and only
  then is each pair's key checked on its own.  Each value builds its mass
  groups and sign masks once, on first read, and keeps them, so a factor,
  image power or right side reused in many products is grouped once.  `b_map`
  sends a q-exponent vector to the t-monomial of its positive part times
  w^(negative mass); `e_image` substitutes

      t[i]  ->  -(t[i] + b + a*w) * (1 + t[i]*w + t[i]^2*w^2 + ...)

  truncated at order W.  `verify_ed_eq_ba` checks, per pathless monomial,
  that the two routes into w-series agree; `verify_e_left_inverse` checks
  that taking the w-constant term of e_image and substituting
  t[i] -> -t[i] - b recovers the input.  A sweep builds each substitution
  once (`e_map`, `g_map`, on `poly.ring_map`), so each power of a
  variable's image, and each monomial's image, is built once for all of
  its inputs.  `ed_ba_sweep` holds one e.d side per d-image for the whole
  walk, and one b.a side per monomial on the current path.

Flat keys.  When b or a is symbolic, `ed_ba_sweep` and `a_map` run
on flat keys: a key is led by one exponent slot per parameter left
symbolic (b before a; with both symbolic, the `Coeff` key itself), before
its q or t slots, and every value is a Python number.  A product then
multiplies numbers and adds keys, in the same `_products` and
`accumulate` as every other slot.  `flat` spreads the `Coeff` values of
each factor, image or input over the slots once, on entry, and
`ring.fold_params` folds a flat numerator back into `Coeff` values; no
flat value leaves this module.  The slots are never negative, and w stays
the last slot of a `TWSeries` key, so neg_mass, the sign masks and the w
mass, and with them every cut, read flat keys as they read the others.  A
numeric run has no parameter slot and keeps the keys it always had: two
zero slots would only make every key longer, which cost 16% on the
integer a-kills-j sweeps.

Rational points.  With x, b and a weighed as at `poly.rescaled`, q and t
weighing 1 and w weighing -1, every map here keeps weight: each factor,
variable image and fraction image has the weight of its variable, and
`b_map` keeps it.  So putting L*b for b and L^2*a for a multiplies each
coefficient of a key by L to the weight of its parameters, and a check at
(b, a) holds exactly when it holds at the integral point (B, A) =
(L*b, L^2*a) of `ring.integral_point`, where every product multiplies
ints.  `ed_ba_sweep` builds its factors and images at (B, A): both sides
of a monomial scale alike, key by key.  The other two sweeps take each
input p rescaled, K*L^D*p(x/L).  Its fraction image at (B, A) is K*L^D
times that of p at (b, a) with q -> q/L, so it is zero exactly when that
is.  The e map at order 0 and the g map at (B, A), applied to p(t/L),
give their images of p at (b, a) with t -> t/L, so g.e fixes the
rescaled input exactly when it fixes p.  Reports, counts and failure
lines are those of (b, a).
"""

from __future__ import annotations

import random
from functools import cache
from itertools import combinations
from operator import add, itemgetter, sub
from typing import Iterable, Optional

from .poly import (
    Monomial,
    SparsePoly,
    TPoly,
    XPoly,
    accumulate,
    ambient_size,
    d_image,
    format_monomial,
    is_pathless,
    mono_one,
    pair_list,
    rescaled,
    ring_map,
)
from .groebner import ideal_generator
from .rewrite import COEFF_CHOICES, Report, derive_seed, random_terms, random_xpoly
from .ring import (
    ALPHA,
    BETA,
    CoeffLike,
    RationalLike,
    fold_params,
    integral_point,
    resolve,
    spread_params,
    substitute_coeff,
    symbolic_params,
)


def neg_mass(exponents: tuple) -> int:
    """Sum of -e over the negative entries of a q-exponent vector."""
    return -sum([e for e in exponents if e < 0])


def sign_masks(keys: Iterable) -> tuple:
    """(positive, negative) as int bitmasks: bit s is set when slot s is
    positive, or negative, in some key."""
    positive = negative = 0
    for slot, column in enumerate(zip(*keys)):
        if max(column) > 0:
            positive |= 1 << slot
        if min(column) < 0:
            negative |= 1 << slot
    return positive, negative


def flat(s: SparsePoly, params: tuple) -> SparsePoly:
    """s of the same class on flat keys, led by the parameter slots."""
    return s._like(spread_params(s.terms, params)) if params else s


class QPoly(SparsePoly):
    """Laurent polynomial in q[1..n]; exponents may be negative."""

    __slots__ = ()
    _letter = "q"


def q_exponent(n: int, entries: dict) -> tuple:
    """The q-exponent vector with entry e in slot i-1 for each {i: e}."""
    return tuple(entries.get(i, 0) for i in range(1, n + 1))


def q_binomial(i: int, j: int, n: int) -> QPoly:
    """The denominator factor q[j] - q[i]."""
    return QPoly(n, {q_exponent(n, {j: 1}): 1, q_exponent(n, {i: 1}): -1})


def denominator_poly(n: int, factors: dict) -> QPoly:
    """Expand prod (q[j] - q[i])^mult for a multiset {(i, j): mult}."""
    out = QPoly.one(n)
    for (i, j), mult in sorted(factors.items()):
        binom = q_binomial(i, j, n)
        for _ in range(mult):
            out = out * binom
    return out


class QRatFrac:
    """A formal fraction numerator / prod (q[j] - q[i])^mult, never reduced.

    Mathematical equality is `(f - g).is_zero()`; `==` is not defined on
    purpose.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: QPoly, denominator: Optional[dict] = None):
        self.numerator = numerator
        cleaned = {}
        if denominator:
            for (i, j), mult in denominator.items():
                if not 1 <= i < j <= numerator.n:
                    raise ValueError(f"bad denominator factor ({i},{j})")
                if mult < 0:
                    raise ValueError("denominator multiplicities must be nonnegative")
                if mult:
                    cleaned[(i, j)] = mult
        self.denominator = cleaned

    @property
    def n(self) -> int:
        return self.numerator.n

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def __neg__(self) -> "QRatFrac":
        return QRatFrac(-self.numerator, self.denominator)

    def __add__(self, other: "QRatFrac") -> "QRatFrac":
        if not isinstance(other, QRatFrac):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"ambient size mismatch: {self.n} vs {other.n}")
        common = dict(self.denominator)
        for key, mult in other.denominator.items():
            common[key] = max(common.get(key, 0), mult)

        def lifted(frac: "QRatFrac") -> QPoly:
            # the numerator over the common denominator; no product by one
            lift = {k: m - e for k, m in common.items() if (e := frac.denominator.get(k, 0)) < m}
            return frac.numerator * denominator_poly(self.n, lift) if lift else frac.numerator

        return QRatFrac(lifted(self) + lifted(other), common)

    def __sub__(self, other: "QRatFrac") -> "QRatFrac":
        return self + (-other)

    def __mul__(self, other: "QRatFrac") -> "QRatFrac":
        if not isinstance(other, QRatFrac):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"ambient size mismatch: {self.n} vs {other.n}")
        merged = dict(self.denominator)
        for key, mult in other.denominator.items():
            merged[key] = merged.get(key, 0) + mult
        return QRatFrac(self.numerator * other.numerator, merged)

    def __str__(self) -> str:
        text = f"({self.numerator})"
        if self.denominator:
            factors = []
            for (i, j), mult in sorted(self.denominator.items()):
                base = f"(q[{j}]-q[{i}])"
                factors.append(base if mult == 1 else f"{base}^{mult}")
            text += " / " + "*".join(factors)
        return text

    def __repr__(self) -> str:
        return f"QRatFrac({self!s})"


def a_map(
    n: int,
    beta: Optional[RationalLike] = None,
    alpha: Optional[RationalLike] = None,
):
    """The map x[i,j] -> -(q[i]*q[j] + b*q[j] + a)/(q[j] - q[i]) on XPolys
    of ambient size n, built once and applied to each input; it returns a
    QRatFrac.

    An input p is summed over one common denominator, prod (q[j] - q[i])^top
    with top the largest exponent of x[i,j] in p.  A term with exponent e of
    x[i,j] contributes N^e * (q[j] - q[i])^(top - e), N the numerator of
    the image of x[i,j]: the image of its lifted key under a `ring_map`
    with one slot per N and one per binomial.  The lifted keys share their
    per-slot minimum, common (0 on each binomial slot, as top - e is 0
    where e is largest), so the numerator is image(common) times the sum
    of each term's image(key - common): the content that every term shares
    is mapped and multiplied in once, and not at all when that sum is 0.
    The map's memos keep each power and monomial image for later inputs; a
    multiple g*m of a relation g leaves g's own lifted keys once m's
    content is taken out.  The zero polynomial maps to QRatFrac(0, {}).

    The sum runs on flat keys (see the module docstring): a parameter left
    symbolic is one more variable of the map, ahead of the x variables,
    whose image is its own exponent slot, so every product multiplies
    numbers; the numerator is folded back into Coeff values at the end."""
    params = symbolic_params(beta, alpha)
    lead = len(params)
    b, a = resolve(beta, alpha)
    pairs = pair_list(n)
    width = len(pairs)

    def image(slot: int) -> QPoly:
        # The slots: params, then N of each variable, then its binomial.
        if slot < lead:
            return flat(QPoly.constant(n, (BETA, ALPHA)[params[slot]]), params)
        i, j = pairs[(slot - lead) % width]
        if slot >= lead + width:
            return flat(q_binomial(i, j, n), params)
        exponents = (q_exponent(n, {i: 1, j: 1}), q_exponent(n, {j: 1}), q_exponent(n, {}))
        return flat(QPoly(n, dict(zip(exponents, (-1, -b, -a)))), params)

    numerator_of = ring_map(image, flat(QPoly.one(n), params))

    def apply(p: XPoly) -> QRatFrac:
        top = tuple(map(max, zip(*p.terms)))
        # Each key led by its parameter degrees and followed by top - key.
        lifted = {key + tuple(map(sub, top, key)): c for key, c in p.terms.items()}
        lifted = spread_params(lifted, params)
        common = tuple(map(min, zip(*lifted)))
        shared = any(common)
        if shared:
            lifted = {tuple(map(sub, key, common)): c for key, c in lifted.items()}
        numerator = numerator_of(SparsePoly._raw(n, lifted))
        if shared and numerator.terms:
            numerator = numerator_of(SparsePoly._raw(n, {common: 1})) * numerator
        return QRatFrac(
            QPoly._raw(n, fold_params(numerator.terms, params)),
            {pairs[pos]: e for pos, e in enumerate(top) if e},
        )

    return apply


def a_image_rat(
    p: XPoly,
    beta: Optional[RationalLike] = None,
    alpha: Optional[RationalLike] = None,
) -> QRatFrac:
    """Apply x[i,j] -> -(q[i]*q[j] + b*q[j] + a)/(q[j] - q[i]) to p, on a
    map built for p alone (see `a_map`)."""
    return a_map(p.n, beta, alpha)(p)


def verify_a_kills_j(
    n: int,
    samples: int,
    seed: int,
    beta: Optional[RationalLike] = None,
    alpha: Optional[RationalLike] = None,
) -> Report:
    """Every defining relation, and random multiples of them, map to zero.

    The products come from one random.Random(seed) stream, so each failure
    carries the text of the polynomial that did not map to zero.  beta and
    alpha are substituted into each drawn coefficient, which can cancel
    (b+1 at b=-1).  One `a_map` maps every polynomial, so its memos serve
    them all; at a rational point each polynomial is mapped rescaled, at
    the integral point (see the module docstring)."""
    report = Report(
        dict(n=n, samples=samples, seed=seed, beta=beta, alpha=alpha),
        {"generators": 0, "products": 0},
    )
    scale, beta_at, alpha_at = integral_point(beta, alpha)
    fraction_of = a_map(n, beta_at, alpha_at)
    triples = list(combinations(range(1, n + 1), 3))
    for triple in triples:
        g = ideal_generator(*triple, n, beta, alpha)
        if not fraction_of(rescaled(g, scale)[0]).is_zero():
            report.failures.append(f"generator {triple}: {g}")
        report.counts["generators"] += 1
    rng = random.Random(seed)
    for index in range(samples if triples else 0):
        triple = triples[rng.randrange(len(triples))]
        g = ideal_generator(*triple, n, beta, alpha)
        coeff = substitute_coeff(rng.choice(COEFF_CHOICES), beta, alpha)
        [mono] = random_xpoly(n, 3, 1, rng).terms  # one term: COEFF_CHOICES has no 0
        product = g.mul_term(mono, coeff)
        if not fraction_of(rescaled(product, scale)[0]).is_zero():
            report.failures.append(f"product {index} over generator {triple}: {product}")
        report.counts["products"] += 1
    return report


class _Truncated(SparsePoly):
    """Terms kept while _mass(key) <= order: the base of QTruncSeries and
    TWSeries, which differ only in `_mass`, `_masses_add`, the key width and
    how they print.

    A product groups each operand's terms by mass and visits the pairs of
    groups in ascending mass.  The mass of a product key is at most the sum
    of its factors' masses, so a pair of groups whose masses sum to at most
    the order is kept whole, with no mass taken per pair.  Past that sum,
    when `_masses_add` holds for the two operands (the masses sum exactly),
    every pair is cut and so is every heavier group of the right operand;
    otherwise each pair's key is checked before its coefficients are
    multiplied.

    A value is immutable by convention, so it builds its mass groups, and a
    QTruncSeries its sign masks, at most once, on first read, and keeps
    them in `_groups` and `_masks`: an operand reused in many products, as a
    sweep's cached factors and each parent's right side are, is grouped
    once.  `__init__` and `_held` leave both empty."""

    __slots__ = ("order", "_groups", "_masks")

    def __init__(self, n: int, order: int, terms: Optional[dict] = None):
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        super().__init__(n, terms)
        self.terms = {k: c for k, c in self.terms.items() if self._mass(k) <= order}
        self.order = order
        self._groups = self._masks = None

    @classmethod
    def one(cls, n: int, order: int):
        return cls(n, order, {(0,) * cls._width(n): 1})

    @classmethod
    def _held(cls, n: int, order: int, terms: dict):
        # internal: terms already pruned and cut at order; flat keys (see
        # the module docstring) are led by parameter slots past _width(n)
        s = cls._raw(n, terms)
        s.order = order
        s._groups = s._masks = None
        return s

    def _like(self, terms: dict):
        return self._held(self.n, self.order, terms)

    def _check_ambient(self, other):
        if self.n != other.n or self.order != other.order:
            raise ValueError("mismatched ambient size or truncation order")

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.order == other.order and super().__eq__(other)

    def _masses_add(self, other) -> bool:
        """Whether _mass(m1 + m2) == _mass(m1) + _mass(m2) for every key m1
        of self and m2 of other."""
        return True

    def _mass_groups(self) -> list:
        """[(mass, [(key, coeff), ...]), ...] in ascending mass, built on
        first read and kept."""
        kept = self._groups
        if kept is None:
            groups: dict = {}
            mass = self._mass
            for item in self.terms.items():
                groups.setdefault(mass(item[0]), []).append(item)
            kept = self._groups = sorted(groups.items())
        return kept

    def _products(self, other):
        mass, order = self._mass, self.order
        exact = self._masses_add(other)
        right = other._mass_groups()
        for mass1, group1 in self._mass_groups():
            for mass2, group2 in right:
                cut = mass1 + mass2 > order
                if cut and exact:
                    break
                for m1, c1 in group1:
                    for m2, c2 in group2:
                        key = tuple(map(add, m1, m2))
                        if not cut or mass(key) <= order:
                            yield key, c1 * c2

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, order={self.order}, {self!s})"


class QTruncSeries(_Truncated):
    """Laurent terms in q[1..n] kept while neg_mass(exponent) <= order."""

    __slots__ = ()
    _letter = "q"
    _mass = staticmethod(neg_mass)

    def _masses_add(self, other) -> bool:
        # neg_mass adds unless some slot is positive in one operand and
        # negative in the other; then it is only subadditive.
        pos1, neg1 = self._sign_masks()
        pos2, neg2 = other._sign_masks()
        return not (pos1 & neg2 or neg1 & pos2)

    def _sign_masks(self) -> tuple:
        """sign_masks of the keys, built on first read and kept."""
        kept = self._masks
        if kept is None:
            kept = self._masks = sign_masks(self.terms)
        return kept


def factor_series(
    i: int, j: int, n: int, order: int, beta_c: CoeffLike, alpha_c: CoeffLike
) -> QTruncSeries:
    """The expansion of one factor x[i,j], cut at negative mass order:
    -sum_k (q[i]^(k+1)*q[j]^-k + b*q[i]^k*q[j]^-k + a*q[i]^k*q[j]^-(k+1))."""

    def summands():
        for k in range(order + 1):
            yield q_exponent(n, {i: k + 1, j: -k}), -1
            yield q_exponent(n, {i: k, j: -k}), -beta_c
            if k + 1 <= order:
                yield q_exponent(n, {i: k, j: -(k + 1)}), -alpha_c

    return QTruncSeries(n, order, accumulate({}, summands()))


def a_s_expand(
    m: Monomial,
    order: int,
    beta: Optional[RationalLike] = None,
    alpha: Optional[RationalLike] = None,
) -> QTruncSeries:
    """Expand the fraction image of a pathless monomial as a series.

    Exact for every exponent with negative mass <= order: m is S-friendly
    for S its rows, so the geometric expansion of each factor may be cut
    at k = order because negative masses only accumulate (see the module
    docstring).
    """
    if not is_pathless(m):
        raise ValueError(f"{format_monomial(m)} is not pathless")
    n = ambient_size(len(m))
    beta_c, alpha_c = resolve(beta, alpha)
    pairs = pair_list(n)
    return ring_map(
        lambda pos: factor_series(*pairs[pos], n, order, beta_c, alpha_c),
        QTruncSeries.one(n, order),
    )(XPoly.from_monomial(m))


class TWSeries(_Truncated):
    """Power series in w up to the truncation order, t[1..n] polynomial
    coefficients; a key is (t[1..n] exponents..., w exponent)."""

    __slots__ = ()
    _width = staticmethod(lambda n: n + 1)
    _mass = itemgetter(-1)

    @property
    def coeffs(self) -> tuple:
        """The TPoly coefficient of each power of w, from w^0 to w^order."""
        buckets: list = [{} for _ in range(self.order + 1)]
        for key, coeff in self.terms.items():
            buckets[key[-1]][key[:-1]] = coeff
        return tuple(TPoly._raw(self.n, bucket) for bucket in buckets)

    def __str__(self) -> str:
        powers = ["", "*w"] + [f"*w^{d}" for d in range(2, self.order + 1)]
        return " + ".join(f"({c}){w}" for c, w in zip(self.coeffs, powers))


def b_map(f: QTruncSeries) -> TWSeries:
    """Exponent vector -> t-monomial of its positive part times w^neg_mass.

    On flat keys the leading parameter slots, never negative, are part of
    the positive part, so they lead the image unchanged.  Distinct
    vectors can share an image (q[1]^-1 and q[2]^-1 both go to w), and
    accumulate merges them."""

    def images():
        for exps, coeff in f.terms.items():
            pos = tuple([e if e > 0 else 0 for e in exps])
            yield pos + (sum(pos) - sum(exps),), coeff  # sum(pos) - sum(exps) == neg_mass(exps)

    # f is cut at its order, so no image is past it
    return TWSeries._held(f.n, f.order, accumulate({}, images()))


def variable_series(
    pos: int, n: int, order: int, beta_c: CoeffLike, alpha_c: CoeffLike
) -> TWSeries:
    """The image of t[pos+1]: -(t + b + a*w)*(1 + t*w + t^2*w^2 + ...) up to order."""

    def key(t: int, w: int) -> tuple:
        return tuple(t if s == pos else w if s == n else 0 for s in range(n + 1))

    front = TWSeries(n, order, {key(1, 0): -1, key(0, 0): -beta_c, key(0, 1): -alpha_c})
    geometric = TWSeries(n, order, {key(k, k): 1 for k in range(order + 1)})
    return front * geometric


def e_map(n: int, order: int, beta_c: CoeffLike, alpha_c: CoeffLike):
    """The ring map t[i] -> variable_series of t[i], built once and applied to
    each input; t[n] has no image, and an input that uses it raises."""

    def image(pos: int) -> TWSeries:
        if pos == n - 1:
            raise ValueError(f"t[{n}] has no series image")
        return variable_series(pos, n, order, beta_c, alpha_c)

    return ring_map(image, TWSeries.one(n, order))


def e_image(
    p: TPoly,
    order: int,
    beta: Optional[RationalLike] = None,
    alpha: Optional[RationalLike] = None,
) -> TWSeries:
    """Substitute t[i] -> -(t[i] + b + a*w)*(sum_k t[i]^k w^k) up to order.

    The input may use t[1..n-1] only; t[n] has no image.
    """
    return e_map(p.n, order, *resolve(beta, alpha))(p)


def verify_ed_eq_ba(
    m: Monomial,
    order: int,
    beta: Optional[RationalLike] = None,
    alpha: Optional[RationalLike] = None,
) -> bool:
    """Per pathless monomial: e_image(d_image(m)) equals b_map(a_s_expand(m))."""
    right = b_map(a_s_expand(m, order, beta, alpha))
    left = e_image(d_image(XPoly.from_monomial(m)), order, beta, alpha)
    return left == right


def ed_ba_sweep(
    n: int,
    max_degree: int,
    w_order: int,
    beta: Optional[RationalLike] = None,
    alpha: Optional[RationalLike] = None,
) -> Report:
    """Check e.d = b.a, as verify_ed_eq_ba does, on every pathless monomial
    of degree <= max_degree.

    The walk is depth first.  A child is its parent times one variable whose
    slot is at least the parent's last occupied slot, so every monomial is
    reached once, with its variables added in ascending slot order.  A
    child that is not pathless is cut off with its subtree: every multiple
    of it has the same path.  The right side of a child is its parent's
    times the factor_series of the new variable, the left fold a_s_expand
    takes (exact, because negative masses only add up on the S-friendly
    pathless monomials); only the right sides on the current path are held.
    The left side depends on the d-image alone, the tuple of row degrees, so
    one left side is held per d-image for the whole call: it is built on
    first use as the left side of its parent's d-image times the
    variable_series of the new variable's row.  The factors are built once
    per call, and flattened once when b or a is symbolic, so the walk's
    products run on flat keys, or at the integral point when b and a are
    rational (see the module docstring).  Failures come
    out by degree, then ascending exponent tuple, as all_monomials yields
    the monomials.
    """
    report = Report(
        dict(n=n, max_degree=max_degree, w_order=w_order, beta=beta, alpha=alpha),
        {"monomials": 0},
    )
    root = mono_one(n)
    width = len(root)
    n = ambient_size(width)  # as verify_ed_eq_ba reads it off a monomial
    pairs = pair_list(n)
    _, beta_at, alpha_at = integral_point(beta, alpha)
    beta_c, alpha_c = resolve(beta_at, alpha_at)
    params = symbolic_params(beta, alpha)
    row = cache(lambda i: flat(variable_series(i - 1, n, w_order, beta_c, alpha_c), params))
    factor = cache(lambda pos: flat(factor_series(*pairs[pos], n, w_order, beta_c, alpha_c), params))
    failures: list = []
    image = (0,) * n
    lefts = {image: flat(TWSeries.one(n, w_order), params)}  # d-image -> its left side
    # Each entry: a monomial to visit, the slot of its last variable (None
    # for the root), its parent's d-image and its parent's right side.
    stack = [(root, None, image, flat(QTruncSeries.one(n, w_order), params))]
    while stack and max_degree >= 0:
        m, last, image, right = stack.pop()
        if last is not None:
            i = pairs[last][0]
            parent, image = image, image[: i - 1] + (image[i - 1] + 1,) + image[i:]
            if image not in lefts:
                lefts[image] = lefts[parent] * row(i)
            right = right * factor(last)
        degree = sum(m)
        if lefts[image] != b_map(right):
            failures.append((degree, m))
        report.counts["monomials"] += 1
        if degree < max_degree:
            # Pushed in descending slot order, the children pop in ascending order.
            for pos in range(width - 1, (last or 0) - 1, -1):
                child = m[:pos] + (m[pos] + 1,) + m[pos + 1 :]
                if is_pathless(child):
                    stack.append((child, pos, image, right))
    report.failures.extend(format_monomial(m) for _, m in sorted(failures))
    return report


def random_tpoly(n: int, max_deg: int, max_terms: int, rng: random.Random) -> TPoly:
    """Random polynomial in t[1..n-1]; same coefficient pool as random_xpoly."""
    return TPoly._raw(n, random_terms(n, n - 1, max_deg, max_terms, rng))


def g_map(n: int, beta_c: CoeffLike):
    """The ring map t[i] -> -t[i] - b on all rows, built once and applied to
    each input."""
    beta_term = TPoly.constant(n, beta_c)
    return ring_map(lambda pos: -(TPoly.variable(pos + 1, n) + beta_term), TPoly.one(n))


def verify_e_left_inverse(
    n: int,
    samples: int,
    seed: int,
    beta: Optional[RationalLike] = None,
    alpha: Optional[RationalLike] = None,
) -> Report:
    """The g map after the w-constant term of e_image is the identity; sample
    `index` draws its input from random.Random(derive_seed(seed, index)),
    then substitutes beta and alpha, so a drawn term can cancel (b+1 at b=-1).

    The e map (order 0) and the g map are built once per call, so each
    power of a variable's image, and each monomial's image, is built once
    for all the samples, at the integral point when b and a are rational,
    where each input is checked rescaled (see the module docstring)."""
    max_deg, max_terms = 3, 4  # the size of each drawn input
    report = Report(
        dict(n=n, samples=samples, seed=seed, max_deg=max_deg, max_terms=max_terms,
             beta=beta, alpha=alpha),
        {"inputs": 0},
    )
    scale, beta_at, alpha_at = integral_point(beta, alpha)
    beta_c, alpha_c = resolve(beta_at, alpha_at)
    e_of = e_map(n, 0, beta_c, alpha_c)
    g_of = g_map(n, beta_c)
    for index in range(samples):
        sample_seed = derive_seed(seed, index)
        p = random_tpoly(n, max_deg, max_terms, random.Random(sample_seed)).substitute(beta, alpha)
        q = rescaled(p, scale)[0]
        if g_of(e_of(q).coeffs[0]) != q:
            report.failures.append(f"sample {index} seed {sample_seed} input {p}")
        report.counts["inputs"] += 1
    return report
