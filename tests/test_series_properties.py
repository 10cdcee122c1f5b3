"""Property: a truncated product, which visits the terms by mass groups and
cuts whole groups past the order, equals the product that multiplies every
pair of terms and keeps the key when its own mass is at most the order.
The mass groups and sign masks a value keeps are those of its terms."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from subdivalg.poly import accumulate  # noqa: E402
from subdivalg.rewrite import COEFF_CHOICES  # noqa: E402
from subdivalg.series import QTruncSeries, TWSeries, flat, neg_mass  # noqa: E402


def per_pair_product(f, g, mass) -> dict:
    """The terms of f * g, from every pair of terms and the mass of its key."""
    out: dict = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            key = tuple(x + y for x, y in zip(m1, m2))
            if mass(key) <= f.order:
                out[key] = out[key] + c1 * c2 if key in out else c1 * c2
    return {key: c for key, c in out.items() if c}


def clash(f, g) -> bool:
    """Some slot is positive in a key of one operand and negative in a key of
    the other, so neg_mass need not add over their pairs."""
    return any(
        x * y < 0 for m1 in f.terms for m2 in g.terms for x, y in zip(m1, m2)
    )


coeffs = st.sampled_from(COEFF_CHOICES)


@st.composite
def qtrunc_pairs(draw):
    """Two QTruncSeries of one size and order.  Unless signs may clash, each
    slot has one sign in both operands, as on S-friendly monomials."""
    n = draw(st.integers(1, 4))
    order = draw(st.integers(0, 4))
    if draw(st.booleans()):
        slots = [st.integers(-3, 3)] * n
    else:
        slots = [st.integers(0, 3) if draw(st.booleans()) else st.integers(-3, 0) for _ in range(n)]
    keys = st.tuples(*slots)

    def series():
        terms = draw(st.lists(st.tuples(keys, coeffs), max_size=6))
        return QTruncSeries(n, order, accumulate({}, terms))

    return series(), series()


@st.composite
def tw_pairs(draw):
    """Two TWSeries of one size and order; keys past the order are cut."""
    n = draw(st.integers(1, 4))
    order = draw(st.integers(0, 4))
    keys = st.tuples(*[st.integers(0, 2)] * n, st.integers(0, order + 1))

    def series():
        terms = draw(st.lists(st.tuples(keys, coeffs), max_size=6))
        return TWSeries(n, order, accumulate({}, terms))

    return series(), series()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(qtrunc_pairs())
def test_qtrunc_product_matches_per_pair_reference(pair):
    f, g = pair
    assert f._masses_add(g) == (not clash(f, g))
    assert (f * g).terms == per_pair_product(f, g, neg_mass)
    assert (g * f).terms == per_pair_product(g, f, neg_mass)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(tw_pairs())
def test_tw_product_matches_per_pair_reference(pair):
    f, g = pair
    w_power = lambda key: key[-1]  # noqa: E731
    assert (f * g).terms == per_pair_product(f, g, w_power)
    assert (g * f).terms == per_pair_product(g, f, w_power)


def test_clashing_pair_past_the_mass_sum_is_kept():
    # neg_mass(k1) = neg_mass(k2) = 1, their sum 2 exceeds the order 1, but
    # q[1]^-1 * q[1]*q[2]^-1 = q[2]^-1 has neg_mass 1 and stays.
    k1, k2 = (-1, 0), (1, -1)
    f = QTruncSeries(2, 1, {k1: 1})
    g = QTruncSeries(2, 1, {k2: 3, (0, 0): 1})
    assert neg_mass((0, -1)) < neg_mass(k1) + neg_mass(k2)
    assert not f._masses_add(g)
    expected = {(0, -1): 3, k1: 1}
    assert (f * g).terms == expected
    assert (g * f).terms == expected
    # Without the clash the same mass sum cuts the pair.
    h = QTruncSeries(2, 1, {(0, -1): 1})
    assert f._masses_add(h)
    assert (f * h).terms == {}


def regrouped(s) -> list:
    """The mass groups of s recomputed from its terms: [(mass, {key: coeff})]
    in ascending mass."""
    groups: dict = {}
    for key, c in s.terms.items():
        groups.setdefault(s._mass(key), {})[key] = c
    return sorted(groups.items())


def masks_of(s) -> tuple:
    """(positive, negative) bitmasks of the slots some key of s has positive,
    or negative, recomputed from its terms."""
    width = len(next(iter(s.terms), ()))

    def bits(test) -> int:
        return sum(1 << slot for slot in range(width) if any(test(k[slot]) for k in s.terms))

    return bits(lambda e: e > 0), bits(lambda e: e < 0)


def assert_grading_kept(s, masks: bool):
    """s keeps its mass groups, and its sign masks when masks, and both are
    those of its terms; a second read returns the kept object."""
    assert s._groups is not None
    assert [(mass, dict(group)) for mass, group in s._groups] == regrouped(s)
    assert s._mass_groups() is s._groups
    if masks:
        assert s._masks == masks_of(s)
        assert s._sign_masks() is s._masks
    else:
        assert s._masks is None


def assert_products_keep_grading(f, g, mass, masks: bool):
    """f and g reused on both sides: every product equals the per-pair
    reference, before and after the operands keep their grading."""
    for left, right in ((f, g), (g, f), (f, f), (g, g), (f, g)):
        assert (left * right).terms == per_pair_product(left, right, mass)
        assert_grading_kept(left, masks)
        assert_grading_kept(right, masks)


def fresh_values(f, g) -> list:
    """Values built from f and g by a sum, a difference, a negation, flat
    and _held: each starts with no grading kept."""
    held = type(f)._held(f.n, f.order, dict(f.terms))
    values = [f + g, f - g, -f, flat(f, (0, 1)), flat(g, (1,)), held]
    for value in values:
        assert value._groups is None and value._masks is None
    return values


@settings(derandomize=True, deadline=None, max_examples=150)
@given(qtrunc_pairs())
def test_qtrunc_kept_grading_is_that_of_the_terms(pair):
    f, g = pair
    assert f._groups is None and f._masks is None
    assert_products_keep_grading(f, g, neg_mass, masks=True)
    assert f._masses_add(g) == (not clash(f, g))
    for value in fresh_values(f, g):
        # a flat value is led by parameter slots, so it multiplies its like
        assert_products_keep_grading(value, value, neg_mass, masks=True)
        assert_products_keep_grading(value, -value, neg_mass, masks=True)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(tw_pairs())
def test_tw_kept_grading_is_that_of_the_terms(pair):
    f, g = pair
    w_power = lambda key: key[-1]  # noqa: E731
    assert_products_keep_grading(f, g, w_power, masks=False)
    for value in fresh_values(f, g):
        assert_products_keep_grading(value, -value, w_power, masks=False)


def test_kept_grading_with_clashing_masks_and_at_order_zero():
    # q[1]^-1 against q[1]*q[2]^-1: slot 0 clashes, so the pair is checked
    # on its own, and the kept masks must say so on every later product.
    f = QTruncSeries(2, 1, {(-1, 0): 1, (0, 0): 2})
    g = QTruncSeries(2, 1, {(1, -1): 3, (0, 0): 1})
    assert_products_keep_grading(f, g, neg_mass, masks=True)
    assert f._masks == (0, 1) and g._masks == (1, 2)
    assert not f._masses_add(g) and not g._masses_add(f)
    assert (f * g).terms == {(0, -1): 3, (-1, 0): 1, (1, -1): 6, (0, 0): 2}
    # At order 0 every key with a negative slot is cut: one group of mass 0.
    zero = QTruncSeries(2, 0, {(-1, 0): 1, (1, 0): 2, (0, 0): 5, (1, -1): 3})
    assert zero.terms == {(1, 0): 2, (0, 0): 5}
    assert_products_keep_grading(zero, QTruncSeries(2, 0, {(0, 2): -1}), neg_mass, masks=True)
    assert zero._groups == [(0, [((1, 0), 2), ((0, 0), 5)])]
    tw = TWSeries(2, 0, {(1, 0, 0): 1, (0, 1, 1): 4})
    assert_products_keep_grading(tw, TWSeries.one(2, 0), lambda key: key[-1], masks=False)
    assert tw._groups == [(0, [((1, 0, 0), 1)])]
    # An empty series keeps an empty grading.
    empty = QTruncSeries(2, 1)
    assert (empty * f).terms == {} and empty._groups == [] and empty._masks == (0, 0)
