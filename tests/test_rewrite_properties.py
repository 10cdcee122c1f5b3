"""Property: the pathless game never leaves the class of its input modulo the
defining ideal, so its result has the input's forkless normal form."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from subdivalg.groebner import generate_basis, normal_form  # noqa: E402
from subdivalg.poly import XPoly, accumulate, num_vars  # noqa: E402
from subdivalg.rewrite import (  # noqa: E402
    COEFF_CHOICES,
    FirstByOrder,
    LastByOrder,
    RandomStrategy,
    reduce_pathless,
)

BASES = {n: generate_basis(n) for n in range(3, 6)}


@st.composite
def xpolys(draw):
    """Up to five terms of degree <= 4 at n = 3..5, coefficients as in random_xpoly."""
    n = draw(st.integers(3, 5))
    width = num_vars(n)
    monomials = st.lists(st.integers(0, width - 1), max_size=4).map(
        lambda slots: tuple(slots.count(pos) for pos in range(width))
    )
    terms = draw(st.lists(st.tuples(monomials, st.sampled_from(COEFF_CHOICES)), max_size=5))
    return XPoly(n, accumulate({}, terms))


game_strategies = st.one_of(
    st.just(FirstByOrder()),
    st.just(LastByOrder()),
    st.builds(RandomStrategy, st.integers(0, 2**32 - 1)),
)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(xpolys(), game_strategies)
def test_game_keeps_the_normal_form(p, strategy):
    basis = BASES[p.n]
    result, _ = reduce_pathless(p, strategy)
    assert normal_form(result, basis) == normal_form(p, basis)
