"""Fraction and truncated-series realizations of the algebra maps.

Three coordinate systems appear here:

* Laurent polynomials in q[1..n] (`QPoly`), with formal fractions over
  products of the binomials q[j] - q[i] (`QRatFrac`).  The substitution

      a_image_rat:  x[i,j]  ->  -(q[i]*q[j] + b*q[j] + a) / (q[j] - q[i])

  is a ring homomorphism that kills every defining relation, checked by
  `verify_a_kills_j`.  Fractions are never reduced; equality goes through
  cross multiplication, so every comparison is exact.

* Truncated Laurent series (`QTruncSeries`): terms are kept while their
  negative mass (sum of the negated negative exponents) is at most the
  truncation order W.  For an S-friendly monomial (every variable x[i,j]
  has i in S, j not in S) the expansion

      a_s_expand:  x[i,j]  ->  sum_k ( -q[i]^(k+1)*q[j]^-k
                                       - b*q[i]^k*q[j]^-k
                                       - a*q[i]^k*q[j]^-(k+1) ),  k <= W

  is exact for every retained exponent: positions in S only ever receive
  nonnegative exponents and positions outside S nonpositive ones, so
  negative masses add across factors and nothing pruned can come back.

* Power series in w with t-polynomial coefficients (`TWSeries`).
  `b_map` sends a q-exponent vector to the t-monomial of its positive
  part times w^(negative mass); `e_image` substitutes

      t[i]  ->  -(t[i] + b + a*w) * (1 + t[i]*w + t[i]^2*w^2 + ...)

  truncated at order W.  `verify_ed_eq_ba` checks, per pathless monomial,
  that the two routes into w-series agree; `verify_e_left_inverse` checks
  that taking the w-constant term of e_image and substituting
  t[i] -> -t[i] - b recovers the input.
"""

from __future__ import annotations

import random
from operator import add
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
    mono_pairs,
    pair_list,
    ring_map,
)
from .groebner import ideal_generator
from .rewrite import COEFF_CHOICES, Report, derive_seed, random_terms, random_xpoly
from .ring import ALPHA, BETA, Coeff, RationalLike, resolve_param


def neg_mass(exponents: tuple) -> int:
    """Sum of -e over the negative entries of a q-exponent vector."""
    return sum(-e for e in exponents if e < 0)


class QPoly(SparsePoly):
    """Laurent polynomial in q[1..n]; exponents may be negative."""

    __slots__ = ()
    _letter = "q"


def q_binomial(i: int, j: int, n: int) -> QPoly:
    """The denominator factor q[j] - q[i]."""
    e_i = [0] * n
    e_i[i - 1] = 1
    e_j = [0] * n
    e_j[j - 1] = 1
    return QPoly(n, {tuple(e_j): Coeff.one(), tuple(e_i): -Coeff.one()})


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

    @classmethod
    def from_poly(cls, p: QPoly) -> "QRatFrac":
        return cls(p, {})

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
        lift_self = {k: m - self.denominator.get(k, 0) for k, m in common.items()}
        lift_other = {k: m - other.denominator.get(k, 0) for k, m in common.items()}
        numerator = self.numerator * denominator_poly(self.n, lift_self) + (
            other.numerator * denominator_poly(self.n, lift_other)
        )
        return QRatFrac(numerator, common)

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

    def scale(self, coeff: Coeff) -> "QRatFrac":
        return QRatFrac(self.numerator.scale(coeff), self.denominator)

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


def a_image_rat(
    p: XPoly,
    beta: Optional[RationalLike] = None,
    alpha: Optional[RationalLike] = None,
) -> QRatFrac:
    """Apply x[i,j] -> -(q[i]*q[j] + b*q[j] + a)/(q[j] - q[i]) to p."""
    n = p.n
    beta_c = resolve_param(beta, BETA)
    alpha_c = resolve_param(alpha, ALPHA)
    numerators = {}

    def factor_numerator(i: int, j: int) -> QPoly:
        if (i, j) not in numerators:
            e_ij = [0] * n
            e_ij[i - 1] += 1
            e_ij[j - 1] += 1
            e_j = [0] * n
            e_j[j - 1] = 1
            numerators[(i, j)] = QPoly(
                n,
                {
                    tuple(e_ij): -Coeff.one(),
                    tuple(e_j): -beta_c,
                    (0,) * n: -alpha_c,
                },
            )
        return numerators[(i, j)]

    total = QRatFrac.from_poly(QPoly.zero(n))
    for mono, coeff in p.terms.items():
        numerator = QPoly.constant(n, coeff)
        denominator: dict = {}
        for (i, j), e in mono_pairs(mono):
            factor = factor_numerator(i, j)
            for _ in range(e):
                numerator = numerator * factor
            denominator[(i, j)] = e
        total = total + QRatFrac(numerator, denominator)
    return total


def verify_a_kills_j(
    n: int,
    samples: int = 50,
    seed: int = 0,
    beta: Optional[RationalLike] = None,
    alpha: Optional[RationalLike] = None,
) -> Report:
    """Every defining relation, and random multiples of them, map to zero.

    The products come from one random.Random(seed) stream, so each failure
    carries the text of the polynomial that did not map to zero."""
    from itertools import combinations

    report = Report(
        dict(n=n, samples=samples, seed=seed, beta=beta, alpha=alpha),
        {"generators": 0, "products": 0},
    )
    triples = list(combinations(range(1, n + 1), 3))
    for triple in triples:
        g = ideal_generator(*triple, n, beta, alpha)
        if not a_image_rat(g, beta, alpha).is_zero():
            report.failures.append(f"generator {triple}: {g}")
        report.counts["generators"] += 1
    rng = random.Random(seed)
    for index in range(samples if triples else 0):
        triple = triples[rng.randrange(len(triples))]
        g = ideal_generator(*triple, n, beta, alpha)
        coeff = rng.choice(COEFF_CHOICES)
        mono = random_xpoly(n, 3, 1, rng).terms
        mono = next(iter(mono)) if mono else None
        product = g.mul_term(mono, coeff) if mono is not None else g.scale(coeff)
        if not a_image_rat(product, beta, alpha).is_zero():
            report.failures.append(f"product {index} over generator {triple}: {product}")
        report.counts["products"] += 1
    return report


class QTruncSeries(SparsePoly):
    """Laurent terms in q[1..n] kept while neg_mass(exponent) <= order."""

    __slots__ = ("order",)
    _letter = "q"

    def __init__(self, n: int, order: int, terms: Optional[dict] = None):
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        terms = {k: c for k, c in (terms or {}).items() if neg_mass(k) <= order}
        super().__init__(n, terms)
        self.order = order

    @classmethod
    def one(cls, n: int, order: int) -> "QTruncSeries":
        return cls(n, order, {(0,) * n: Coeff.one()})

    def _like(self, terms: dict) -> "QTruncSeries":
        s = self._raw(self.n, terms)
        s.order = self.order
        return s

    def _check_ambient(self, other: "QTruncSeries"):
        if self.n != other.n or self.order != other.order:
            raise ValueError("mismatched ambient size or truncation order")

    def __eq__(self, other) -> bool:
        if type(other) is not QTruncSeries:
            return NotImplemented
        return self.order == other.order and super().__eq__(other)

    def _products(self, other: "QTruncSeries"):
        # Skip a pair before multiplying when its exponent is truncated.
        right = other.terms.items()
        for m1, c1 in self.terms.items():
            for m2, c2 in right:
                key = tuple(map(add, m1, m2))
                if neg_mass(key) <= self.order:
                    yield key, c1 * c2

    def __repr__(self) -> str:
        return f"QTruncSeries(n={self.n}, order={self.order}, {self!s})"


def is_s_friendly(m: Monomial, subset: frozenset) -> bool:
    """Every variable x[i,j] of m has i in the subset and j outside it."""
    for (i, j), _ in mono_pairs(m):
        if i not in subset or j in subset:
            return False
    return True


def factor_series(
    i: int, j: int, n: int, order: int, beta_c: Coeff, alpha_c: Coeff
) -> QTruncSeries:
    """The expansion of one factor x[i,j], cut at negative mass order:
    -sum_k (q[i]^(k+1)*q[j]^-k + b*q[i]^k*q[j]^-k + a*q[i]^k*q[j]^-(k+1))."""

    def exponent(e_i: int, e_j: int) -> tuple:
        exps = [0] * n
        exps[i - 1] = e_i
        exps[j - 1] = e_j
        return tuple(exps)

    def summands():
        for k in range(order + 1):
            yield exponent(k + 1, -k), Coeff.one()
            yield exponent(k, -k), beta_c
            if k + 1 <= order:
                yield exponent(k, -(k + 1)), alpha_c

    return QTruncSeries(n, order, accumulate({}, summands(), negate=True))


def a_s_expand(
    m: Monomial,
    subset: Iterable,
    order: int,
    beta: Optional[RationalLike] = None,
    alpha: Optional[RationalLike] = None,
) -> QTruncSeries:
    """Expand the fraction image of an S-friendly monomial as a series.

    Exact for every exponent with negative mass <= order: the geometric
    expansion of each factor may be cut at k = order because negative
    masses only accumulate (see the module docstring).
    """
    n = ambient_size(len(m))
    subset = frozenset(subset)
    if not subset <= set(range(1, n)):
        raise ValueError(f"subset must lie in 1..{n - 1}")
    if not is_s_friendly(m, subset):
        raise ValueError(f"{format_monomial(m)} is not friendly for {sorted(subset)}")
    beta_c = resolve_param(beta, BETA)
    alpha_c = resolve_param(alpha, ALPHA)
    out = QTruncSeries.one(n, order)
    for (i, j), e in mono_pairs(m):
        factor = factor_series(i, j, n, order, beta_c, alpha_c)
        for _ in range(e):
            out = out * factor
    return out


class TWSeries:
    """Power series in w up to the truncation order, TPoly coefficients."""

    __slots__ = ("n", "order", "coeffs")

    def __init__(self, n: int, order: int, coeffs: Optional[Iterable] = None):
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        if coeffs is None:
            coeffs = [TPoly.zero(n)] * (order + 1)
        coeffs = tuple(coeffs)
        if len(coeffs) != order + 1:
            raise ValueError("need exactly order + 1 coefficients")
        for c in coeffs:
            if c.n != n:
                raise ValueError("coefficient ambient size mismatch")
        self.n = n
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def zero(cls, n: int, order: int) -> "TWSeries":
        return cls(n, order)

    @classmethod
    def one(cls, n: int, order: int) -> "TWSeries":
        return cls.from_tpoly(TPoly.one(n), order)

    @classmethod
    def from_tpoly(cls, p: TPoly, order: int) -> "TWSeries":
        coeffs = [p] + [TPoly.zero(p.n)] * order
        return cls(p.n, order, coeffs)

    def _check_compatible(self, other: "TWSeries"):
        if self.n != other.n or self.order != other.order:
            raise ValueError("mismatched ambient size or truncation order")

    def __eq__(self, other) -> bool:
        if not isinstance(other, TWSeries):
            return NotImplemented
        return self.n == other.n and self.order == other.order and self.coeffs == other.coeffs

    def __add__(self, other: "TWSeries") -> "TWSeries":
        if not isinstance(other, TWSeries):
            return NotImplemented
        self._check_compatible(other)
        return TWSeries(self.n, self.order, [x + y for x, y in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "TWSeries") -> "TWSeries":
        if not isinstance(other, TWSeries):
            return NotImplemented
        self._check_compatible(other)
        return TWSeries(self.n, self.order, [x - y for x, y in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other: "TWSeries") -> "TWSeries":
        if not isinstance(other, TWSeries):
            return NotImplemented
        self._check_compatible(other)
        out = [TPoly.zero(self.n) for _ in range(self.order + 1)]
        for d1, c1 in enumerate(self.coeffs):
            if c1.is_zero():
                continue
            for d2 in range(self.order + 1 - d1):
                c2 = other.coeffs[d2]
                if not c2.is_zero():
                    out[d1 + d2] = out[d1 + d2] + c1 * c2
        return TWSeries(self.n, self.order, out)

    def scale(self, coeff: Coeff) -> "TWSeries":
        return TWSeries(self.n, self.order, [c.scale(coeff) for c in self.coeffs])

    def __str__(self) -> str:
        parts = [f"({self.coeffs[0]})"]
        for d in range(1, self.order + 1):
            w = "w" if d == 1 else f"w^{d}"
            parts.append(f"({self.coeffs[d]})*{w}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"TWSeries(n={self.n}, order={self.order}, {self!s})"


def b_map(f: QTruncSeries) -> TWSeries:
    """Exponent vector -> t-monomial of its positive part times w^neg_mass."""
    images = (
        ((neg_mass(exps), tuple(max(e, 0) for e in exps)), coeff)
        for exps, coeff in f.terms.items()
    )
    buckets: list = [{} for _ in range(f.order + 1)]
    for (d, key), coeff in accumulate({}, images, negate=False).items():
        buckets[d][key] = coeff
    return TWSeries(f.n, f.order, [TPoly._raw(f.n, bucket) for bucket in buckets])


def variable_series(pos: int, n: int, order: int, beta_c: Coeff, alpha_c: Coeff) -> TWSeries:
    """The image of t[pos+1]: -(t + b + a*w)*(1 + t*w + t^2*w^2 + ...) up to order."""
    t_i = TPoly.variable(pos + 1, n)
    geometric = [TPoly.one(n)]
    for _ in range(order):
        geometric.append(geometric[-1] * t_i)
    front = [TPoly.zero(n)] * (order + 1)
    front[0] = -(t_i + TPoly.constant(n, beta_c))
    if order >= 1:
        front[1] = TPoly.constant(n, -alpha_c)
    return TWSeries(n, order, front) * TWSeries(n, order, geometric)


def e_image(
    p: TPoly,
    order: int,
    beta: Optional[RationalLike] = None,
    alpha: Optional[RationalLike] = None,
) -> TWSeries:
    """Substitute t[i] -> -(t[i] + b + a*w)*(sum_k t[i]^k w^k) up to order.

    The input may use t[1..n-1] only; t[n] has no image.
    """
    n = p.n
    for exps in p.terms:
        if exps[n - 1]:
            raise ValueError(f"t[{n}] has no series image")
    beta_c = resolve_param(beta, BETA)
    alpha_c = resolve_param(alpha, ALPHA)
    return ring_map(
        p,
        lambda pos: variable_series(pos, n, order, beta_c, alpha_c),
        TWSeries.one(n, order),
        TWSeries.zero(n, order),
    )


def friendly_rows(m: Monomial) -> frozenset:
    """The rows with positive total exponent; the canonical S for a pathless m."""
    n = ambient_size(len(m))
    rows = [0] * (n + 1)
    for (i, _), e in mono_pairs(m):
        rows[i] += e
    return frozenset(i for i in range(1, n) if rows[i] > 0)


def verify_ed_eq_ba(
    m: Monomial,
    order: int,
    beta: Optional[RationalLike] = None,
    alpha: Optional[RationalLike] = None,
) -> bool:
    """Per pathless monomial: e_image(d_image(m)) equals b_map(a_s_expand(m))."""
    if not is_pathless(m):
        raise ValueError(f"{format_monomial(m)} is not pathless")
    subset = friendly_rows(m)
    left = e_image(d_image(XPoly.from_monomial(m)), order, beta, alpha)
    right = b_map(a_s_expand(m, subset, order, beta, alpha))
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
    of it has the same path.  Each side of a child is one product away from
    its parent's: the right side is the parent's times the factor_series of
    the new variable, the left fold a_s_expand takes (exact, because
    negative masses only add up on the S-friendly pathless monomials); the
    left side is the parent's times the variable_series of its row.  The
    factors are built once per call and only the pairs of series on the
    current path are held.  Failures come out by degree, then ascending
    exponent tuple, as all_monomials yields the monomials.
    """
    report = Report(
        dict(n=n, max_degree=max_degree, w_order=w_order, beta=beta, alpha=alpha),
        {"monomials": 0},
    )
    root = mono_one(n)
    width = len(root)
    n = ambient_size(width)  # as verify_ed_eq_ba reads it off a monomial
    pairs = pair_list(n)
    beta_c = resolve_param(beta, BETA)
    alpha_c = resolve_param(alpha, ALPHA)
    factors: dict = {}
    rows: dict = {}
    failures: list = []

    def visit(m: Monomial, last: int, degree: int, left: TWSeries, right: QTruncSeries):
        if left != b_map(right):
            failures.append((degree, m))
        report.counts["monomials"] += 1
        if degree == max_degree:
            return
        for pos in range(last, width):
            child = m[:pos] + (m[pos] + 1,) + m[pos + 1 :]
            if not is_pathless(child):
                continue
            i, j = pairs[pos]
            if pos not in factors:
                factors[pos] = factor_series(i, j, n, w_order, beta_c, alpha_c)
            if i not in rows:
                rows[i] = variable_series(i - 1, n, w_order, beta_c, alpha_c)
            visit(child, pos, degree + 1, left * rows[i], right * factors[pos])

    if max_degree >= 0:
        visit(root, 0, 0, TWSeries.one(n, w_order), QTruncSeries.one(n, w_order))
    report.failures.extend(format_monomial(m) for _, m in sorted(failures))
    return report


def random_tpoly(n: int, max_deg: int, max_terms: int, rng: random.Random) -> TPoly:
    """Random polynomial in t[1..n-1]; same coefficient pool as random_xpoly."""
    return TPoly._raw(n, random_terms(n, n - 1, max_deg, max_terms, rng))


def g_substitute(p: TPoly, beta: Optional[RationalLike] = None) -> TPoly:
    """Substitute t[i] -> -t[i] - b into p (all rows, including t[n])."""
    n = p.n
    beta_term = TPoly.constant(n, resolve_param(beta, BETA))
    return ring_map(
        p, lambda pos: -(TPoly.variable(pos + 1, n) + beta_term), TPoly.one(n), TPoly.zero(n)
    )


def verify_e_left_inverse(
    n: int,
    samples: int,
    seed: int,
    max_deg: int = 3,
    max_terms: int = 4,
    beta: Optional[RationalLike] = None,
    alpha: Optional[RationalLike] = None,
) -> Report:
    """g_substitute after the w-constant term of e_image is the identity; sample
    `index` draws its input from random.Random(derive_seed(seed, index))."""
    report = Report(
        dict(n=n, samples=samples, seed=seed, max_deg=max_deg, max_terms=max_terms,
             beta=beta, alpha=alpha),
        {"inputs": 0},
    )
    for index in range(samples):
        sample_seed = derive_seed(seed, index)
        p = random_tpoly(n, max_deg, max_terms, random.Random(sample_seed))
        constant_term = e_image(p, 0, beta, alpha).coeffs[0]
        if g_substitute(constant_term, beta) != p:
            report.failures.append(f"sample {index} seed {sample_seed} input {p}")
        report.counts["inputs"] += 1
    return report
