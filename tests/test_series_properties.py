"""Property: a truncated product, which visits the terms by mass groups and
cuts whole groups past the order, equals the product that multiplies every
pair of terms and keeps the key when its own mass is at most the order."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from subdivalg.poly import accumulate  # noqa: E402
from subdivalg.rewrite import COEFF_CHOICES  # noqa: E402
from subdivalg.series import QTruncSeries, TWSeries, neg_mass  # noqa: E402


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
