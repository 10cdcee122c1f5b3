"""Fraction substitution, series expansion, and the square e.d = b.a."""

import random
from fractions import Fraction
from functools import partial

import pytest

from conftest import a_kills_j_draws, random_pathless_monomial
from test_groebner import PARAMS
from subdivalg import series
from subdivalg.groebner import ideal_generator
from subdivalg.poly import (
    TPoly,
    XPoly,
    all_monomials,
    ambient_size,
    d_image,
    format_monomial,
    is_pathless,
    mono_from_pairs,
    mono_one,
    pair_list,
    parse_tpoly,
)
from subdivalg.rewrite import (
    FirstByOrder,
    LastByOrder,
    Report,
    derive_seed,
    random_xpoly,
    reduce_pathless,
)
from subdivalg.ring import ALPHA, BETA, Coeff, integral_point, resolve_param
from subdivalg.series import (
    QPoly,
    QRatFrac,
    QTruncSeries,
    TWSeries,
    a_image_rat,
    a_s_expand,
    b_map,
    denominator_poly,
    e_image,
    ed_ba_sweep,
    q_binomial,
    q_exponent,
    random_tpoly,
    rescaled,
    verify_a_kills_j,
    verify_e_left_inverse,
    verify_ed_eq_ba,
)


def mono(n: int, *pairs) -> tuple:
    exps = {}
    for i, j in pairs:
        exps[(i, j)] = exps.get((i, j), 0) + 1
    return mono_from_pairs(n, exps)


def rows(m: tuple) -> frozenset:
    """The rows i of the variables x[i,j] of m: the S for which a pathless
    m is S-friendly."""
    return frozenset(i for (i, _), e in zip(pair_list(ambient_size(len(m))), m) if e)


def s_adequate(exps: tuple, subset) -> bool:
    """Nonnegative exponents on the subset, nonpositive off it."""
    return all(e >= 0 if pos in subset else e <= 0 for pos, e in enumerate(exps, start=1))


def test_a_image_single_variable():
    f = a_image_rat(XPoly.variable(1, 2, 2))
    assert f.numerator == QPoly(
        2, {(1, 1): -1, (0, 1): -BETA, (0, 0): -ALPHA}
    )
    assert f.denominator == {(1, 2): 1}
    assert str(f) == "(-q[1]*q[2] - b*q[2] - a) / (q[2]-q[1])"


def test_a_image_constant():
    f = a_image_rat(XPoly.one(3))
    assert f.numerator == QPoly.one(3)
    assert f.denominator == {}


def test_a_image_kills_generator():
    g = ideal_generator(1, 2, 3, 3)
    assert a_image_rat(g).is_zero()
    g5 = ideal_generator(2, 3, 5, 5)
    assert a_image_rat(g5).is_zero()


def test_rat_eq_ignores_representation():
    n = 3
    f = a_image_rat(XPoly.variable(1, 2, n))
    padded = QRatFrac(
        f.numerator * q_binomial(2, 3, n),
        {(1, 2): 1, (2, 3): 1},
    )
    assert (f - padded).is_zero()
    assert not (f - QRatFrac(QPoly(n))).is_zero()
    with pytest.raises(ValueError):
        f - QRatFrac(QPoly(4))


def test_a_image_is_multiplicative():
    rng = random.Random(31)
    for trial in range(60):
        n = rng.randint(2, 4)
        max_deg = 3 if trial % 10 == 0 else 2
        p = random_xpoly(n, max_deg, 2, rng)
        q = random_xpoly(n, 2, 2, rng)
        assert (a_image_rat(p * q) - a_image_rat(p) * a_image_rat(q)).is_zero()
        assert (a_image_rat(p + q) - (a_image_rat(p) + a_image_rat(q))).is_zero()


def summed_a_image(p, beta, alpha) -> QRatFrac:
    """The fraction image of p as the sum, by QRatFrac.__add__, of each
    term's image, a product of one QRatFrac per variable."""
    n = p.n
    beta_c, alpha_c = resolve_param(beta, BETA), resolve_param(alpha, ALPHA)
    images = []
    for i, j in pair_list(n):
        numerator = {q_exponent(n, {i: 1, j: 1}): -1, q_exponent(n, {j: 1}): -beta_c}
        numerator[q_exponent(n, {})] = -alpha_c
        images.append(QRatFrac(QPoly(n, numerator), {(i, j): 1}))
    total = QRatFrac(QPoly(n))
    for key, coeff in p.terms.items():
        term = QRatFrac(QPoly.constant(n, coeff))
        for image, e in zip(images, key):
            for _ in range(e):
                term = term * image
        total = total + term
    return total


# Each parameter kind, and one symbol left beside a nonzero number.
IMAGE_PARAMS = PARAMS + ((None, 3), (2, None))


@pytest.mark.parametrize("beta, alpha", IMAGE_PARAMS)
def test_a_image_matches_sum_of_term_images(beta, alpha):
    """One common denominator, with the content that every term shares
    mapped once, gives the numerator and denominator that adding the term
    images one by one gives, as dicts."""
    rng = random.Random(derive_seed(37, IMAGE_PARAMS.index((beta, alpha))))
    inputs = [XPoly(3), XPoly.constant(3, Fraction(-5, 2))]
    # A relation and multiples of it: their terms' images cancel.  The
    # monomials share none of g's variables x[1,2], x[1,4], x[2,4], or
    # some of them, and the constant is a parameter factor.
    g = ideal_generator(1, 2, 4, 4, beta, alpha)
    disjoint = XPoly(4, {mono(4, (1, 3), (1, 3), (3, 4)): 2})
    overlap = XPoly(4, {mono(4, (1, 2), (1, 2), (2, 4), (3, 4)): -1})
    factor = XPoly.constant(4, ALPHA * BETA + ALPHA).substitute(beta, alpha)
    inputs += [g, g * XPoly.variable(1, 2, 4) * XPoly.variable(2, 3, 4), g * disjoint, g * overlap]
    # Polynomials off the ideal times the same monomials and constant, a
    # single term and a constant.
    for m in (disjoint, overlap, factor):
        inputs += [random_xpoly(4, 2, 3, rng).substitute(beta, alpha) * m for _ in range(4)]
    inputs += [XPoly(4, {mono(4, (1, 3), (2, 4), (2, 4)): BETA + 1}).substitute(beta, alpha), factor]
    for n in range(2, 6):
        inputs += [random_xpoly(n, 3, 4, rng).substitute(beta, alpha) for _ in range(12)]
    shared = 0
    for p in inputs:
        f, expected = a_image_rat(p, beta, alpha), summed_a_image(p, beta, alpha)
        assert f.numerator.terms == expected.numerator.terms, str(p)
        assert f.denominator == expected.denominator, str(p)
        shared += bool(f.numerator.terms) and any(map(min, zip(*p.terms)))
    assert shared >= 8
    zero = a_image_rat(inputs[0], beta, alpha)
    assert (zero.numerator.terms, zero.denominator) == ({}, {})
    for relation in inputs[2:6]:
        f = a_image_rat(relation, beta, alpha)
        assert f.is_zero() and f.denominator


def test_a_kills_j_sweep_builds_one_map_and_each_image_once(monkeypatch):
    """Each sweep builds one fraction map, at the integral point, and that
    map builds each slot's image at most once for all the polynomials it
    maps.  A second sweep builds a map of its own: nothing outlives a
    sweep."""
    maps, images = [], []
    real_a_map, real_ring_map = series.a_map, series.ring_map

    def a_map(*args):
        maps.append(args)
        return real_a_map(*args)

    def ring_map(image, one):
        sweep = len(maps)
        return real_ring_map(lambda slot: images.append((sweep, slot)) or image(slot), one)

    monkeypatch.setattr(series, "a_map", a_map)
    monkeypatch.setattr(series, "ring_map", ring_map)
    n, width = 6, 15
    for beta, alpha in ((None, None), (Fraction(1, 3), Fraction(2, 5)), (3, -2)):
        first = len(maps)
        for _ in range(2):
            assert verify_a_kills_j(n, 60, 3, beta, alpha).ok
        assert maps[first:] == [(n, *integral_point(beta, alpha)[1:])] * 2
        built = [[slot for sweep, slot in images if sweep == first + k] for k in (1, 2)]
        assert len(set(built[0])) == len(built[0]) > width
        assert sorted(built[0]) == sorted(built[1])
        assert max(built[0]) < 2 * width + (2 if beta is None else 0)


def test_verify_a_kills_j():
    assert verify_a_kills_j(3, samples=20, seed=5).ok
    report = verify_a_kills_j(4, samples=20, seed=5)
    assert report.ok
    assert report.counts == {"generators": 4, "products": 20}
    assert verify_a_kills_j(4, samples=10, seed=5, beta=1, alpha=0).ok


def test_a_image_detects_perturbed_generator():
    g = ideal_generator(1, 2, 3, 3) + XPoly.constant(3, ALPHA)
    assert not a_image_rat(g).is_zero()
    assert not (a_image_rat(g) - QRatFrac(QPoly(3))).is_zero()


def test_a_s_expand_identity():
    assert a_s_expand(mono_one(2), 3) == QTruncSeries.one(2, 3)


def test_a_s_expand_single_variable():
    s = a_s_expand(mono(2, (1, 2)), 1)
    assert s.terms == {
        (1, 0): -1,
        (0, 0): -BETA,
        (0, -1): -ALPHA,
        (2, -1): -1,
        (1, -1): -BETA,
    }


def test_a_s_expand_support_is_adequate():
    m = mono(3, (1, 3), (2, 3))
    assert rows(m) == {1, 2}
    s = a_s_expand(m, 3)
    assert s.terms
    for exps in s.terms:
        assert s_adequate(exps, rows(m))


def test_a_s_expand_rejects_bad_input():
    with pytest.raises(ValueError, match="is not pathless"):
        a_s_expand(mono(3, (1, 2), (2, 3)), 2)  # 2 is a row and a column


def test_friendly_rows_makes_pathless_monomials_friendly():
    rng = random.Random(37)
    for _ in range(200):
        n = rng.randint(2, 5)
        m = random_pathless_monomial(n, 4, rng)
        subset = rows(m)
        for (i, j), e in zip(pair_list(n), m):
            assert not e or (i in subset and j not in subset)
        s = a_s_expand(m, 2)
        for exps in s.terms:
            assert s_adequate(exps, subset)


def test_b_map_monomials():
    s = QTruncSeries(3, 1, {(2, 0, -1): 1})
    image = b_map(s)
    assert image.coeffs[0].is_zero()
    assert image.coeffs[1] == parse_tpoly("t[1]^2", 3)

    s2 = QTruncSeries(2, 2, {(1, -2): 1})
    image2 = b_map(s2)
    assert image2.coeffs[0].is_zero()
    assert image2.coeffs[1].is_zero()
    assert image2.coeffs[2] == parse_tpoly("t[1]", 2)

    # Mixed signs, some keys meeting in one image key: each vector goes to
    # its positive part and w^neg_mass, and coefficients add up there.
    terms = {
        (1, -1, -1): 1,
        (1, -2, 0): 2,
        (-1, 2, -1): BETA,
        (3, 0, -2): -ALPHA,
        (0, 1, -2): Fraction(1, 2),
        (-2, 0, 0): -1,
    }
    mixed = QTruncSeries(3, 2, terms)
    expected: dict = {}
    for exps, coeff in terms.items():
        key = tuple(max(e, 0) for e in exps) + (-sum(e for e in exps if e < 0),)
        expected[key] = expected.get(key, 0) + coeff
    assert b_map(mixed).terms == {k: c for k, c in expected.items() if c}
    assert b_map(mixed).terms[(1, 0, 0, 2)] == 3


def test_b_map_is_multiplicative_on_adequate_support():
    rng = random.Random(41)

    def random_adequate(n: int, subset: frozenset, order: int) -> QTruncSeries:
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exps = tuple(
                rng.randint(0, 2) if pos in subset else -rng.randint(0, 1)
                for pos in range(1, n + 1)
            )
            terms[exps] = rng.randint(-3, 3)
        return QTruncSeries(n, order, terms)

    for _ in range(100):
        n = rng.randint(2, 4)
        subset = frozenset(
            i for i in range(1, n) if rng.random() < 0.6
        ) or frozenset({1})
        order = rng.randint(2, 4)
        f = random_adequate(n, subset, order)
        g = random_adequate(n, subset, order)
        assert b_map(f * g) == b_map(f) * b_map(g)
        assert b_map(f + g) == b_map(f) + b_map(g)


def test_e_image_single_variable():
    series = e_image(parse_tpoly("t[1]", 2), 2)
    assert series.coeffs == (
        parse_tpoly("-t[1] - b", 2),
        parse_tpoly("-t[1]^2 - b*t[1] - a", 2),
        parse_tpoly("-t[1]^3 - b*t[1]^2 - a*t[1]", 2),
    )
    assert str(series) == (
        "(-t[1] - b) + (-t[1]^2 - b*t[1] - a)*w + (-t[1]^3 - b*t[1]^2 - a*t[1])*w^2"
    )


def test_e_image_constant_and_product():
    assert e_image(TPoly.one(3), 2) == TWSeries.one(3, 2)
    product = e_image(parse_tpoly("t[1]*t[2]", 3), 0)
    assert product.coeffs[0] == parse_tpoly(
        "t[1]*t[2] + b*t[1] + b*t[2] + b^2", 3
    )


def test_e_image_rejects_last_variable():
    with pytest.raises(ValueError):
        e_image(parse_tpoly("t[3]", 3), 1)


def test_e_image_specialized():
    series = e_image(parse_tpoly("t[1]", 2), 1, beta=1, alpha=0)
    assert series.coeffs[0] == parse_tpoly("-t[1] - 1", 2)
    assert series.coeffs[1] == parse_tpoly("-t[1]^2 - t[1]", 2)


def test_verify_ed_eq_ba_examples():
    assert verify_ed_eq_ba(mono(2, (1, 2)), 4)
    assert verify_ed_eq_ba(mono_one(2), 3)
    assert verify_ed_eq_ba(mono(3, (1, 3), (2, 3)), 5)
    assert verify_ed_eq_ba(mono(4, (1, 2), (3, 4)), 3, beta=1, alpha=0)
    with pytest.raises(ValueError):
        verify_ed_eq_ba(mono(3, (1, 2), (2, 3)), 3)


def test_ed_ba_sweep_small():
    report3 = ed_ba_sweep(3, 3, 4)
    assert report3.ok
    assert report3.checked == 16
    report4 = ed_ba_sweep(4, 3, 4)
    assert report4.ok
    assert report4.checked == 59


# Both symbols, numbers, and one symbol left, as the sweeps take them.
SWEEP_PARAMS = [(None, None), (Fraction(1, 3), 2), (None, 3), (2, None)]


def sweeps_agree(beta, alpha) -> list:
    """Compare ed_ba_sweep's counts and failures with one verify_ed_eq_ba per
    monomial, for n = 3..5, every max degree <= 3 and w order 2; return the
    failures of the largest case."""
    for n in range(3, 6):
        count = 0
        failures = []
        for max_degree in range(4):
            for m in all_monomials(n, max_degree):
                if is_pathless(m):
                    count += 1
                    if not verify_ed_eq_ba(m, 2, beta, alpha):
                        failures.append(format_monomial(m))
            report = ed_ba_sweep(n, max_degree, 2, beta, alpha)
            assert report.counts == {"monomials": count}
            assert report.failures == failures
    return report.failures


@pytest.mark.parametrize("beta, alpha", SWEEP_PARAMS)
def test_ed_ba_sweep_matches_per_monomial_checks(beta, alpha, monkeypatch):
    assert sweeps_agree(beta, alpha) == []
    original = series.factor_series

    def broken(i, j, n, order, beta_c, alpha_c):
        s = original(i, j, n, order, beta_c, alpha_c)
        if (i, j) != (1, 3):
            return s
        terms = dict(s.terms)
        key = tuple(1 if pos == i else 0 for pos in range(1, n + 1))
        terms[key] = terms[key] + terms[key]
        return QTruncSeries(n, order, terms)

    # Doubling one coefficient of the x[1,3] factor breaks both routes alike.
    monkeypatch.setattr(series, "factor_series", broken)
    failures = sweeps_agree(beta, alpha)
    assert len(failures) >= 5
    assert all("x[1,3]" in f for f in failures)


@pytest.mark.parametrize("beta, alpha", SWEEP_PARAMS)
def test_ed_ba_left_sides_held_per_d_image_cannot_hide_a_wrong_one(beta, alpha, monkeypatch):
    original = series.variable_series

    def broken(pos, n, order, beta_c, alpha_c):
        s = original(pos, n, order, beta_c, alpha_c)
        if pos != 1:
            return s
        terms = dict(s.terms)
        key = tuple(1 if slot == pos else 0 for slot in range(n + 1))  # t[2]*w^0
        terms[key] = terms[key] + terms[key]
        return TWSeries(n, order, terms)

    # Doubling one coefficient of the image of t[2] breaks the left side of
    # every monomial with a variable in row 2, and only those.
    monkeypatch.setattr(series, "variable_series", broken)
    failures = sweeps_agree(beta, alpha)
    assert len(failures) >= 5
    assert all("x[2," in f for f in failures)


def coeffs_built(monkeypatch, run) -> int:
    """How many Coeff values run() builds, by the constructor or Coeff._raw."""
    built = []
    raw, init = Coeff._raw, Coeff.__init__

    def counted_raw(terms):
        built.append(None)
        return raw(terms)

    def counted_init(self, terms=None):
        built.append(None)
        init(self, terms)

    with monkeypatch.context() as patch:
        patch.setattr(Coeff, "_raw", staticmethod(counted_raw))
        patch.setattr(Coeff, "__init__", counted_init)
        run()
    return len(built)


def test_symbolic_sweeps_build_no_coeff_per_product(monkeypatch):
    """With b and a symbolic, ed_ba_sweep and a_image_rat multiply numbers
    on flat keys.  The Coeffs they build come from the factors and images
    they flatten once, so their number does not grow with the work done."""
    reports, images = [], []
    sweeps = [
        coeffs_built(monkeypatch, lambda: reports.append(ed_ba_sweep(5, max_degree, 3)))
        for max_degree in (1, 3)
    ]
    assert sweeps[0] == sweeps[1]
    assert all(report.ok for report in reports)
    assert reports[0].checked < reports[1].checked
    g = ideal_generator(1, 3, 5, 5)
    product = g * XPoly(5, {mono(5, (1, 2), (2, 4), (4, 5)): BETA + 1})
    maps = [coeffs_built(monkeypatch, lambda: images.append(a_image_rat(p))) for p in (g, product)]
    assert maps[0] == maps[1]
    assert all(image.is_zero() for image in images)
    assert len(images[0].denominator) < len(images[1].denominator)


# b = 0, a = 0, negative values, and an integral b beside a rational a and
# the reverse.
RATIONAL_POINTS = [
    (Fraction(1, 3), Fraction(2, 5)),
    (0, Fraction(-3, 4)),
    (Fraction(-5, 2), 0),
    (2, Fraction(1, 3)),
    (Fraction(3, 4), -5),
    (Fraction(-2, 3), Fraction(-7, 6)),
]


def scaled_alike(small, big, factor) -> None:
    """big has the keys of small, each value factor(key) times small's."""
    assert big.terms.keys() == small.terms.keys()
    for key, c in small.terms.items():
        assert big.terms[key] == factor(key) * c, (key, small, big)


def rescale_constant(p, q, scale) -> tuple:
    """(K, D) with q = K*L^D*p(x/L), D the largest degree of p, checked term
    by term: K is a positive int and every value of q an int."""
    assert q.terms.keys() == p.terms.keys()
    assert all(type(c) is int for c in q.terms.values())
    top = max(map(sum, p.terms))
    [clear] = {q.terms[m] / (c * Fraction(scale) ** (top - sum(m))) for m, c in p.terms.items()}
    assert clear > 0 and clear.denominator == 1
    return clear, top


@pytest.mark.parametrize("beta, alpha", RATIONAL_POINTS)
def test_integral_point_scales_each_coefficient_by_its_weight(beta, alpha):
    """The oracle of the rational sweeps (series module docstring).  At
    (B, A) = (L*b, L^2*a) each coefficient is L to the power of its
    parameters' weight times its value at (b, a), coefficient by
    coefficient: both ed-ba sides of every pathless monomial, the fraction
    image's numerator and the e and g maps, on inputs rescaled by
    `rescaled`."""
    scale, big_b, big_a = integral_point(beta, alpha)
    assert scale > 1 and type(big_b) is int and type(big_a) is int
    beta_c, alpha_c = resolve_param(beta, BETA), resolve_param(alpha, ALPHA)
    order = 2
    for n in range(2, 6):
        for degree in range(4):
            for m in filter(is_pathless, all_monomials(n, degree)):
                x = XPoly.from_monomial(m)

                def sides(b, a):
                    return e_image(d_image(x), order, b, a), b_map(a_s_expand(m, order, b, a))

                # t^e*w^k has weight |e| - k, so its parameters degree - that
                for small, big in zip(sides(beta, alpha), sides(big_b, big_a)):
                    scaled_alike(
                        small, big, lambda key: Fraction(scale) ** (degree - sum(key[:-1]) + key[-1])
                    )

    rng = random.Random(derive_seed(53, RATIONAL_POINTS.index((beta, alpha))))
    mapped = 0
    for n in range(2, 6):
        for _ in range(10):
            p = random_xpoly(n, 3, 4, rng).substitute(beta, alpha)
            image = a_image_rat(p, beta, alpha)
            if image.is_zero():  # p is in the ideal
                continue
            q = rescaled(p, scale)[0]
            clear, top = rescale_constant(p, q, scale)
            big = a_image_rat(q, big_b, big_a)
            assert big.denominator == image.denominator
            width = top + sum(image.denominator.values())
            scaled_alike(
                image.numerator, big.numerator, lambda key: clear * Fraction(scale) ** (width - sum(key))
            )
            mapped += 1

            p = random_tpoly(n, 3, 4, rng).substitute(beta, alpha)
            if not p.terms:
                continue
            q = rescaled(p, scale)[0]
            clear, top = rescale_constant(p, q, scale)
            small = series.e_map(n, 0, beta_c, alpha_c)(p).coeffs[0]
            big = series.e_map(n, 0, big_b, big_a)(q).coeffs[0]
            factor = lambda key: clear * Fraction(scale) ** (top - sum(key))
            scaled_alike(small, big, factor)
            scaled_alike(series.g_map(n, beta_c)(small), series.g_map(n, big_b)(big), factor)
    assert mapped >= 30


def doubled(s, key):
    """s with the value at key doubled."""
    terms = dict(s.terms)
    terms[key] += terms[key]
    return type(s)(s.n, s.order, terms)


@pytest.mark.parametrize("beta, alpha", [RATIONAL_POINTS[0], RATIONAL_POINTS[3]])
def test_rational_sweeps_multiply_ints_and_report_as_the_fraction_route(
    beta, alpha, monkeypatch
):
    """At a rational point the three sweeps compare series and map inputs
    whose values are all ints, and each Report equals the one built case by
    case at (b, a) with Fractions.  Three broken maps make some cases of
    each sweep fail on both routes: x[1,3]'s factor and t[2]'s image each
    double one value, and the generator of (1, 3, 4) gains a constant."""
    n, max_degree, order, samples, seed = 5, 3, 3, 40, 2
    factor, variable, generator = series.factor_series, series.variable_series, series.ideal_generator
    monkeypatch.setattr(
        series, "factor_series",
        lambda i, j, n, *rest: doubled(factor(i, j, n, *rest), q_exponent(n, {1: 1}))
        if (i, j) == (1, 3) else factor(i, j, n, *rest),
    )
    monkeypatch.setattr(
        series, "variable_series",
        lambda pos, n, *rest: doubled(variable(pos, n, *rest), (0, 1) + (0,) * (n - 1))
        if pos == 1 else variable(pos, n, *rest),
    )
    monkeypatch.setattr(
        series, "ideal_generator",
        lambda i, j, k, n, *rest: generator(i, j, k, n, *rest)
        + XPoly.constant(n, Fraction(1, 7) if (i, j, k) == (1, 3, 4) else 0),
    )

    seen, points = [], []
    with monkeypatch.context() as patch:
        real_eq, real_b_map = series.TWSeries.__eq__, series.b_map
        real_a_map, real_e_map = series.a_map, series.e_map

        def recorded_a_map(n, b=None, a=None):
            points.append((b, a))
            fraction_of = real_a_map(n, b, a)
            return lambda p: seen.append(p) or fraction_of(p)

        def recorded_e_map(*args):
            points.append(args[2:])
            e = real_e_map(*args)
            return lambda p: seen.append(p) or e(p)

        patch.setattr(series.TWSeries, "__eq__", lambda s, t: seen.extend((s, t)) or real_eq(s, t))
        patch.setattr(series, "b_map", lambda f: seen.append(f) or real_b_map(f))
        patch.setattr(series, "a_map", recorded_a_map)
        patch.setattr(series, "e_map", recorded_e_map)
        reports = [
            ed_ba_sweep(n, max_degree, order, beta, alpha),
            verify_a_kills_j(n, samples, seed, beta, alpha),
            verify_e_left_inverse(n, samples, seed, beta, alpha),
        ]
    # per monomial two compared and one mapped by b_map; one input per case
    assert len(seen) == 3 * reports[0].checked + 10 + 2 * samples
    for s in seen:
        assert s.terms and all(type(c) is int for c in s.terms.values())
    assert set(points) == {integral_point(beta, alpha)[1:]}

    count, ed_ba = 0, []
    for degree in range(max_degree + 1):
        for m in filter(is_pathless, all_monomials(n, degree)):
            count += 1
            if not verify_ed_eq_ba(m, order, beta, alpha):
                ed_ba.append(format_monomial(m))
    draws = a_kills_j_draws(n, samples, seed, beta, alpha)
    inverse = []
    g_of = series.g_map(n, resolve_param(beta, BETA))
    for index in range(samples):
        sample_seed = derive_seed(seed, index)
        p = random_tpoly(n, 3, 4, random.Random(sample_seed)).substitute(beta, alpha)
        if g_of(e_image(p, 0, beta, alpha).coeffs[0]) != p:
            inverse.append(f"sample {index} seed {sample_seed} input {p}")
    assert reports == [
        Report(
            dict(n=n, max_degree=max_degree, w_order=order, beta=beta, alpha=alpha),
            {"monomials": count},
            ed_ba,
        ),
        Report(
            dict(n=n, samples=samples, seed=seed, beta=beta, alpha=alpha),
            {"generators": 10, "products": samples},
            [f"{label}: {p}" for label, p in draws if not a_image_rat(p, beta, alpha).is_zero()],
        ),
        Report(
            dict(n=n, samples=samples, seed=seed, max_deg=3, max_terms=4, beta=beta, alpha=alpha),
            {"inputs": samples},
            inverse,
        ),
    ]
    for report in reports:
        assert 0 < len(report.failures) < report.checked


def test_d_image_agrees_across_games():
    rng = random.Random(43)
    for _ in range(50):
        n = rng.randint(3, 4)
        p = random_xpoly(n, 4, 4, rng)
        q1, _ = reduce_pathless(p, FirstByOrder())
        q2, _ = reduce_pathless(p, LastByOrder())
        assert d_image(q1 - q2).is_zero()
        assert d_image(q1) == d_image(q2)


def test_e_left_inverse_manual():
    for text, n in (("t[1]", 2), ("t[1]^2*t[2] + a*t[3]", 4), ("1", 2)):
        p = parse_tpoly(text, n)
        constant = e_image(p, 0).coeffs[0]
        assert series.g_map(n, BETA)(constant) == p


def test_verify_e_left_inverse():
    report = verify_e_left_inverse(4, 50, seed=7)
    assert report.ok
    assert report.checked == 50
    assert verify_e_left_inverse(3, 20, seed=7, beta=2, alpha=3).ok


def test_maps_reused_across_inputs():
    """One e map or g map applied to input after input, in either order,
    gives for each input what a map built for it alone gives."""
    rng = random.Random(67)
    for beta, alpha in ((None, None), (2, Fraction(-1, 3))):
        beta_c, alpha_c = resolve_param(beta, BETA), resolve_param(alpha, ALPHA)
        for n in (2, 3, 4):
            inputs = [random_tpoly(n, 3, 4, rng) for _ in range(12)]
            # e_image builds a fresh map for each input, and so does this g.
            fresh = [series.g_map(n, resolve_param(beta, BETA))(p) for p in inputs]
            cases = [(partial(series.g_map, n, beta_c), fresh)]
            for order in range(4):
                fresh = [e_image(p, order, beta, alpha) for p in inputs]
                cases.append((partial(series.e_map, n, order, beta_c, alpha_c), fresh))
            for build, fresh in cases:
                forward = build()
                assert [forward(p) for p in inputs] == fresh
                backward = build()
                assert [backward(p) for p in reversed(inputs)] == fresh[::-1]


def test_e_map_rejects_last_variable_and_stays_usable():
    e = series.e_map(3, 1, BETA, ALPHA)
    with pytest.raises(ValueError, match=r"t\[3\] has no series image"):
        e(parse_tpoly("t[1]*t[3]^2", 3))
    assert e(parse_tpoly("t[1]", 3)) == e_image(parse_tpoly("t[1]", 3), 1)


def test_e_inverse_sweep_builds_each_variable_series_once(monkeypatch):
    original = series.variable_series
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(series, "variable_series", counted)
    counts = []
    for _ in range(2):
        calls.clear()
        assert verify_e_left_inverse(7, 120, seed=5).ok
        counts.append(len(calls))
    # At most one per row t[1..6]; the second sweep builds them all again,
    # so no map outlives the sweep that built it.
    assert 0 < counts[0] <= 6
    assert counts == [counts[0], counts[0]]


def test_g_map_involution():
    rng = random.Random(47)
    g = series.g_map(4, BETA)
    for _ in range(100):
        p = random_tpoly(4, 3, 4, rng)
        assert g(g(p)) == p


def test_qtrunc_pruning():
    s = QTruncSeries(2, 1, {(0, -2): 1, (1, 0): 1})
    assert s.terms == {(1, 0): 1}
    deep = QTruncSeries(2, 1, {(0, -1): 1})
    assert (deep * deep).terms == {}


def test_twseries_pruning():
    # a key is (t[1], t[2], w exponent)
    s = TWSeries(2, 1, {(0, 0, 2): 1, (1, 0, 0): 1})
    assert s.terms == {(1, 0, 0): 1}
    assert s.coeffs == (parse_tpoly("t[1]", 2), TPoly(2))
    w = TWSeries(2, 1, {(0, 0, 1): 1})
    assert (w * w).terms == {}
    with pytest.raises(ValueError):
        TWSeries(2, 1, {(0, 0): 1})
    with pytest.raises(ValueError):
        w * TWSeries.one(2, 2)
    assert TWSeries(2, 1) != TWSeries(2, 2)


@pytest.mark.parametrize("cls", [QTruncSeries, TWSeries])
def test_truncated_constant(cls):
    two = cls.constant(2, 1, 2)
    assert two.order == 1
    assert repr(two).startswith(f"{cls.__name__}(n=2, order=1, ")
    assert two * cls.one(2, 1) == two
    assert two * two == cls.constant(2, 1, 4)
    assert cls.constant(2, 1, Fraction(2, 2)) == cls.one(2, 1)
    assert cls.constant(2, 1, 0) == cls(2, 1)
    assert cls.constant(2, 1, 0).is_zero()


def dense_mul(x: list, y: list) -> list:
    """The product of two w-series given as one TPoly per power of w, cut at
    the last power: the convolution of the coefficient lists."""
    out = [TPoly(x[0].n) for _ in x]
    for d1, c1 in enumerate(x):
        for d2 in range(len(x) - d1):
            out[d1 + d2] = out[d1 + d2] + c1 * y[d2]
    return out


def test_twseries_arithmetic_matches_dense_reference():
    rng = random.Random(53)

    def random_series(n: int, order: int) -> tuple:
        """A random TWSeries and its dense form; the power order + 1 is cut."""
        dense = [
            random_tpoly(n, 2, 3, rng) if rng.random() < 0.7 else TPoly(n)
            for _ in range(order + 2)
        ]
        terms = {t + (d,): c for d, p in enumerate(dense) for t, c in p.terms.items()}
        return TWSeries(n, order, terms), dense[: order + 1]

    for order in range(4):
        for _ in range(15):
            n = rng.randint(2, 4)
            (x, dx), (y, dy) = random_series(n, order), random_series(n, order)
            assert x.coeffs == tuple(dx)
            assert (x * y).coeffs == tuple(dense_mul(dx, dy))
            assert (x + y).coeffs == tuple(a + b for a, b in zip(dx, dy))
            assert (x - y).coeffs == tuple(a - b for a, b in zip(dx, dy))


def test_denominator_poly():
    assert denominator_poly(3, {}) == QPoly.one(3)
    assert denominator_poly(3, {(1, 2): 2}) == q_binomial(1, 2, 3) * q_binomial(
        1, 2, 3
    )
