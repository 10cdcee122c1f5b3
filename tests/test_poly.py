"""Monomials, predicates, weights, term order, d_image, and the parser."""

import math
import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GAME_RESULT, random_monomial
from test_ring import value_of
from subdivalg.poly import (
    PolyParseError,
    TPoly,
    XPoly,
    all_monomials,
    d_image,
    format_monomial,
    is_forkless,
    is_pathless,
    mono_div,
    mono_from_pairs,
    mono_mul,
    mono_one,
    mono_text,
    num_vars,
    pair_list,
    parse_monomial,
    parse_poly,
    parse_tpoly,
    ring_map,
    variable_names,
    weight_pathless,
)
from subdivalg.rewrite import random_xpoly
from subdivalg.ring import ALPHA, BETA
from subdivalg.series import QPoly, QTruncSeries


def mono(n: int, *pairs) -> tuple:
    exps = {}
    for i, j in pairs:
        exps[(i, j)] = exps.get((i, j), 0) + 1
    return mono_from_pairs(n, exps)


# exhaustive-scan oracles, straight from the divisor definitions


def pathless_oracle(m: tuple, n: int) -> bool:
    pos = {pair: p for p, pair in enumerate(pair_list(n))}
    for i, j, k in combinations(range(1, n + 1), 3):
        if m[pos[(i, j)]] and m[pos[(j, k)]]:
            return False
    return True


def forkless_oracle(m: tuple, n: int) -> bool:
    pos = {pair: p for p, pair in enumerate(pair_list(n))}
    for i, j, k in combinations(range(1, n + 1), 3):
        if m[pos[(i, j)]] and m[pos[(i, k)]]:
            return False
    return True


def test_pair_layout():
    assert pair_list(4) == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    assert num_vars(4) == 6
    assert num_vars(1) == 0
    assert mono_one(3) == (0, 0, 0)


def test_monomial_arithmetic():
    a = mono(3, (1, 2), (2, 3))
    b = mono(3, (2, 3))
    assert mono_mul(a, b) == mono(3, (1, 2), (2, 3), (2, 3))
    assert mono_div(a, b) == mono(3, (1, 2))
    assert mono_div(b, a) is None


def test_mono_from_pairs_rejects_negative():
    with pytest.raises(ValueError):
        mono_from_pairs(3, {(1, 2): -1})
    with pytest.raises(ValueError):
        mono_from_pairs(3, {(2, 2): 1})


def test_poly_arithmetic_examples():
    x12 = XPoly.variable(1, 2, 3)
    x23 = XPoly.variable(2, 3, 3)
    assert x12 * x23 == parse_poly("x[1,2]*x[2,3]", 3)
    p = parse_poly("x[1,2]*x[2,3] - b*x[1,3] - a", 3)
    assert p + p.scale(-1) == XPoly(3)
    beta_p = XPoly.constant(3, BETA)
    assert (x12 + beta_p) * (x12 - beta_p) == parse_poly("x[1,2]^2 - b^2", 3)


def test_poly_ambient_mismatch():
    with pytest.raises(ValueError):
        XPoly.variable(1, 2, 3) + XPoly.variable(1, 2, 4)


# name -> (constructor from (n, terms), key width for n)
SPARSE_CLASSES = {
    "XPoly": (XPoly, num_vars),
    "TPoly": (TPoly, lambda n: n),
    "QPoly": (QPoly, lambda n: n),
    "QTruncSeries": (lambda n, terms: QTruncSeries(n, 2, terms), lambda n: n),
}


@pytest.mark.parametrize("name", sorted(SPARSE_CLASSES))
def test_sparse_class_contract(name):
    make, width = SPARSE_CLASSES[name]
    one = (0,) * width(3)
    unit = (1,) + one[1:]
    with pytest.raises(ValueError):
        make(3, {one + (0,): 1})
    p = make(3, {unit: BETA, one: 1})
    with pytest.raises(ValueError):
        p + make(4, {(0,) * width(4): 1})
    # XPoly at n=3 and the others at n=3 share the key width 3
    other_name = "TPoly" if name == "XPoly" else "XPoly"
    other_make, _ = SPARSE_CLASSES[other_name]
    other = other_make(3, {one: 1})
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        with pytest.raises(TypeError):
            op(p, other)
    assert make(3, {unit: 0, one: Fraction(2, 2)}).terms == {one: 1}
    assert type(make(3, {one: Fraction(2, 2)}).terms[one]) is int
    assert (p - p).terms == {}
    assert p + make(3, {unit: -BETA}) == make(3, {one: 1})
    assert p != other


def test_qtrunc_order_mismatch():
    with pytest.raises(ValueError):
        QTruncSeries.one(2, 1) * QTruncSeries.one(2, 2)
    assert QTruncSeries(2, 1, {}) != QTruncSeries(2, 2, {})


def test_is_pathless_examples():
    assert not is_pathless(mono(3, (1, 2), (2, 3)))
    assert is_pathless(mono(3, (1, 3), (2, 3)))
    assert not is_pathless(mono(4, (1, 2), (1, 3), (2, 4)))
    assert is_pathless(mono_one(3))


def test_is_forkless_examples():
    assert is_forkless(mono(3, (1, 2), (1, 2)))
    assert not is_forkless(mono(3, (1, 2), (1, 3)))
    assert is_forkless(mono(3, (1, 2), (2, 3)))
    assert is_forkless(mono_one(4))


def test_predicates_match_divisor_scan():
    for n in range(1, 5):
        for degree in range(5):
            for m in all_monomials(n, degree):
                assert is_pathless(m) == pathless_oracle(m, n)
                assert is_forkless(m) == forkless_oracle(m, n)


def test_forkless_matches_row_map_characterization():
    # forkless <=> each row's exponents sit on a single column f(i) > i
    for n in range(2, 5):
        for degree in range(5):
            for m in all_monomials(n, degree):
                rows = {}
                for (i, j), e in ((pair_list(n)[p], e) for p, e in enumerate(m) if e):
                    rows.setdefault(i, set()).add(j)
                expected = all(len(cols) <= 1 for cols in rows.values())
                assert is_forkless(m) == expected


def test_weight_examples():
    assert weight_pathless(mono_one(4)) == 0
    assert weight_pathless(mono(4, (1, 2), (2, 3), (3, 4))) == 9
    assert weight_pathless(mono(4, (1, 4))) == 1


def test_weights_are_additive():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(2, 5)
        a = random_monomial(n, 4, rng)
        b = random_monomial(n, 4, rng)
        assert weight_pathless(mono_mul(a, b)) == weight_pathless(a) + weight_pathless(b)


def test_order_examples():
    # the term order is tuple comparison of row-major exponent tuples
    assert mono(3, (1, 2)) > mono(3, (2, 3))
    m = mono(3, (1, 3), (2, 3))
    assert not m < m and not m > m
    assert mono_one(4) < mono(4, (3, 4))


def test_order_properties_random_triples():
    rng = random.Random(6)
    for _ in range(1000):
        n = rng.randint(2, 5)
        a, b, c = (random_monomial(n, 4, rng) for _ in range(3))
        # antisymmetry
        assert (a < b) == (b > a)
        assert a == b or (a < b) != (b < a)
        # transitivity
        if a <= b and b <= c:
            assert a <= c
        # multiplicativity
        if a <= b:
            assert mono_mul(c, a) <= mono_mul(c, b)
        # 1 is minimal
        assert mono_one(n) <= a


def test_d_image_examples():
    p = parse_poly("x[1,2]*x[2,3]*x[3,4]", 4)
    assert d_image(p) == parse_tpoly("t[1]*t[2]*t[3]", 4)
    assert d_image(XPoly.one(4)) == TPoly.one(4)
    game = parse_poly(GAME_RESULT, 4)
    factored = parse_tpoly("t[1]", 4) * parse_tpoly(
        "2*t[1] + 2*t[2] + t[3] + t[1]^2 + t[2]^2 + t[1]*t[2] + t[1]*t[3]"
        " + t[2]*t[3] + 1",
        4,
    )
    assert d_image(game) == factored


def test_d_image_is_a_homomorphism():
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randint(2, 4)
        p = random_xpoly(n, 3, 3, rng)
        q = random_xpoly(n, 3, 3, rng)
        assert d_image(p * q) == d_image(p) * d_image(q)
        assert d_image(p + q) == d_image(p) + d_image(q)


def test_d_image_avoids_last_row():
    rng = random.Random(8)
    for _ in range(100):
        p = random_xpoly(4, 4, 4, rng)
        for exps in d_image(p).terms:
            assert exps[-1] == 0


def test_ring_map_builds_each_monomial_image_once(monkeypatch):
    n = 3
    calls, products = [], []
    real_mul = TPoly.__mul__

    def counted_mul(self, other):
        products.append((self, other))
        return real_mul(self, other)

    def image(pos):
        calls.append(pos)
        if pos == 2:
            raise ValueError("t[3] has no image")
        return TPoly.variable(pos + 1, n) + TPoly.constant(n, pos + 2)

    monkeypatch.setattr(TPoly, "__mul__", counted_mul)
    apply = ring_map(image, TPoly.one(n))
    p = parse_tpoly("t[1]^2*t[2] - 3*t[1]*t[2] + 2/3*t[2]^2 + b", n)
    first = apply(p)
    # The squares of both images, and t[1]^2*t[2] and t[1]*t[2] as products
    # of powers: each built once, on the first input.
    assert (calls, len(products)) == ([0, 1], 4)
    second = apply(p)
    shared = apply(parse_tpoly("t[1]*t[2] + 5*t[2]^2", n))
    assert (calls, len(products)) == ([0, 1], 4)
    monkeypatch.undo()
    x, y = (TPoly.variable(i, n) + TPoly.constant(n, i + 1) for i in (1, 2))
    expected = x * x * y - (x * y).scale(3) + (y * y).scale(Fraction(2, 3)) + TPoly.constant(n, BETA)
    assert first == second == expected
    assert first is not second
    assert shared == x * y + (y * y).scale(5)
    # An image that raises stores nothing: it is asked again and raises
    # again, and inputs without its slot still map.
    for _ in range(2):
        with pytest.raises(ValueError, match="no image"):
            apply(parse_tpoly("t[1]*t[3]", n))
    assert calls == [0, 1, 2, 2]
    assert apply(parse_tpoly("t[1]^2*t[2]", n)) == x * x * y
    assert calls == [0, 1, 2, 2]


def test_all_monomials_counts():
    for n in range(1, 5):
        width = num_vars(n)
        for degree in range(4):
            produced = list(all_monomials(n, degree))
            assert len(set(produced)) == len(produced)
            if width:
                assert len(produced) == math.comb(degree + width - 1, width - 1)
            else:
                assert len(produced) == (1 if degree == 0 else 0)


def test_parse_examples():
    p = parse_poly("x[1,2]*x[2,3] - b*x[1,3] - a", 3)
    assert len(p.terms) == 3
    assert p.terms.get(mono(3, (1, 3)), 0) == -BETA
    assert p.terms.get(mono_one(3), 0) == -ALPHA
    assert parse_poly("0", 3) == XPoly(3)
    assert str(XPoly(3)) == "0"


def test_parse_errors():
    with pytest.raises(PolyParseError):
        parse_poly("x[2,2]", 3)
    with pytest.raises(PolyParseError):
        parse_poly("x[1,4]", 3)
    with pytest.raises(PolyParseError):
        parse_poly("x[1,2] +", 3)
    with pytest.raises(PolyParseError):
        parse_poly("t[1]", 3)
    with pytest.raises(PolyParseError):
        parse_poly("1/0", 3)
    with pytest.raises(PolyParseError):
        parse_tpoly("t[4]", 3)
    with pytest.raises(PolyParseError):
        parse_tpoly("x[1,2]", 3)
    try:
        parse_poly("x[1,2] * * x[2,3]", 3)
    except PolyParseError as exc:
        assert exc.position > 0
    else:
        raise AssertionError("expected a parse error")


def test_parse_merges_and_cancels():
    assert parse_poly("x[1,2] - x[1,2]", 3) == XPoly(3)
    assert parse_poly("x[1,2]*x[1,2]", 3) == parse_poly("x[1,2]^2", 3)
    assert parse_poly("1/2*x[1,2] + 1/2*x[1,2]", 3) == parse_poly("x[1,2]", 3)


def test_parse_monomial():
    assert parse_monomial("x[1,2]*x[2,3]", 3) == mono(3, (1, 2), (2, 3))
    assert parse_monomial("1", 3) == mono_one(3)
    with pytest.raises(PolyParseError):
        parse_monomial("2*x[1,2]", 3)
    with pytest.raises(PolyParseError):
        parse_monomial("x[1,2] + x[2,3]", 3)


def test_format_round_trip_random():
    rng = random.Random(9)
    for _ in range(300):
        n = rng.randint(1, 5)
        p = random_xpoly(n, 4, 5, rng)
        assert parse_poly(str(p), n) == p


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
def test_format_round_trip_small(e12, e13, e23):
    p = XPoly(3, {(e12, e13, e23): BETA + 2})
    assert parse_poly(str(p), 3) == p


def test_format_canonical_order():
    text = "x[1,2]*x[2,3] - x[1,3]*x[2,3] - b*x[1,3] - a"
    assert str(parse_poly(text, 3)) == text
    assert format_monomial(mono_one(3)) == "1"
    assert format_monomial(mono(3, (1, 2), (1, 2), (2, 3))) == "x[1,2]^2*x[2,3]"


def test_mono_text_writes_each_power_from_its_slot_table():
    """Laurent, two-digit and t keys; the expected strings were printed by
    the formatter that wrote each power from the slot names."""
    cases = [
        (variable_names("q", 3), (1, -1, 12), "q[1]*q[2]^-1*q[3]^12"),
        (variable_names("q", 4), (-2, 0, -10, 1), "q[1]^-2*q[3]^-10*q[4]"),
        (
            variable_names("x", 11),
            mono_from_pairs(11, {(1, 10): 10, (10, 11): 1, (2, 3): 12}),
            "x[1,10]^10*x[2,3]^12*x[10,11]",
        ),
        (variable_names("t", 4), (0, 3, 1, 0), "t[2]^3*t[3]"),
        (variable_names("t", 4), (0, 0, 0, 0), ""),
    ]
    for tables, key, expected in cases:
        assert mono_text(tables, key) == expected
        # a table filled by the first call writes the same text again
        assert mono_text(tables, key) == expected
    assert format_monomial(mono_from_pairs(11, {(9, 11): 1, (1, 2): 100})) == "x[1,2]^100*x[9,11]"


def test_degenerate_n1():
    assert parse_poly("b - a", 1).n == 1
    assert is_pathless(mono_one(1)) and is_forkless(mono_one(1))
    assert d_image(parse_poly("2", 1)) == parse_tpoly("2", 1)


# parse(str(p)) == p over integer, p/q, b and a coefficients; integral values
# are stored as int and the rest as Fraction, and both must print the same way.
rational_values = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
)
param_coeffs = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), rational_values, max_size=3
).map(value_of)


@st.composite
def sparse_polys(draw, cls):
    n = draw(st.integers(1, 5))
    width = num_vars(n) if cls is XPoly else n
    keys = st.lists(st.integers(0, 3), min_size=width, max_size=width).map(tuple)
    return cls(n, draw(st.dictionaries(keys, param_coeffs, max_size=4)))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(sparse_polys(XPoly), sparse_polys(TPoly))
def test_parse_round_trip_property(p, q):
    assert parse_poly(str(p), p.n) == p
    assert parse_tpoly(str(q), q.n) == q
    assert str(parse_poly(str(p), p.n)) == str(p)
    assert str(parse_tpoly(str(q), q.n)) == str(q)


def test_parse_overlong_integer_raises_parse_error():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    digits = "1" * (limit + 1)
    for text in (f"2*b + {digits}", f"2*b + 3/{digits}", f"2*b + 3*b^{digits}"):
        for parse in (parse_poly, parse_tpoly):
            with pytest.raises(PolyParseError) as info:
                parse(text, 3)
            assert info.value.position == text.index(digits)


@pytest.mark.parametrize(
    "parse, text, message, position",
    [
        (parse_poly, "x[\u0661,\u0662]", "expected an unsigned integer", 2),
        (parse_poly, "x[1,2]^\u00b2", "expected an unsigned integer", 7),
        (parse_poly, "\u00b2", "expected a factor", 0),
        (parse_tpoly, "t[\u0661]", "expected an unsigned integer", 2),
    ],
)
def test_parse_accepts_only_ascii_digits(parse, text, message, position):
    with pytest.raises(PolyParseError) as info:
        parse(text, 3)
    assert str(info.value) == f"{message} (at position {position})"
    assert info.value.position == position


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.text(alphabet="xtba[],0123456789/^*+- .", max_size=40), st.integers(1, 5))
def test_parse_garbage_raises_only_parse_errors(text, n):
    for parse in (parse_poly, parse_tpoly):
        try:
            parse(text, n)
        except PolyParseError:
            pass
