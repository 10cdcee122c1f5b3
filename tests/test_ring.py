"""Coefficient ring Q[b, a]: arithmetic, specialization, rendering."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subdivalg.ring import ALPHA, BETA, Coeff, resolve_param, substitute_coeff

rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=100
)


def has_param(terms: dict) -> bool:
    """Whether a value dict keeps a nonzero term with b or a, as a Coeff must."""
    return any(key != (0, 0) and value for key, value in terms.items())


def coeff_dicts(keys, values, max_size: int):
    """Coeffs built from value dicts that keep b or a."""
    return st.dictionaries(keys, values, max_size=max_size).filter(has_param).map(Coeff)


def value_of(terms: dict):
    """The one form of a value dict: a Coeff while b or a is left, else its
    number, an int when integral and 0 when nothing is left."""
    if has_param(terms):
        return Coeff(terms)
    value = Fraction(terms.get((0, 0), 0))
    return value.numerator if value.denominator == 1 else value


coeffs = coeff_dicts(st.tuples(st.integers(0, 4), st.integers(0, 4)), rationals, 4)


def random_coeff(rng: random.Random):
    """Up to four random terms, as a Coeff or, with no b or a, a number."""
    terms = {}
    for _ in range(rng.randint(0, 4)):
        key = (rng.randint(0, 4), rng.randint(0, 4))
        terms[key] = Fraction(rng.randint(-100, 100), rng.randint(1, 100))
    return value_of(terms)


def test_add_examples():
    assert (BETA + 1) + (-1 - BETA) == 0
    assert BETA + ALPHA == Coeff({(1, 0): 1, (0, 1): 1})
    half_beta = Fraction(1, 2) * BETA
    assert half_beta + half_beta == BETA


def test_mul_examples():
    assert BETA * BETA == Coeff.param_term(2, 0)
    assert (BETA + ALPHA) * 1 == BETA + ALPHA
    assert (BETA + 1) * (BETA - 1) == Coeff.param_term(2, 0) - 1


def test_arithmetic_that_cancels_every_parameter_is_a_number():
    for one in ((BETA + 1) - BETA, (BETA + 1) + (-BETA), (2 - ALPHA) + (ALPHA - 1)):
        assert one == 1 and type(one) is int
    for zero in (BETA - BETA, BETA + (-BETA), BETA * 0, 0 * BETA, (BETA + ALPHA) - (ALPHA + BETA)):
        assert zero == 0 and type(zero) is int
    half = (BETA * ALPHA + Fraction(1, 2)) - ALPHA * BETA
    assert half == Fraction(1, 2) and type(half) is Fraction
    two = (BETA + Fraction(3, 2)) - (BETA - Fraction(1, 2))
    assert two == 2 and type(two) is int


def test_constructors_store_numbers_as_ints():
    from subdivalg.poly import XPoly, parse_poly

    parsed = parse_poly("b^0*x[1,2] + 2*a^0*x[1,3] - b^0*a^0", 3)
    assert parsed == parse_poly("x[1,2] + 2*x[1,3] - 1", 3)
    assert all(type(c) is int for c in parsed.terms.values())
    built = XPoly(3, {(1, 0, 0): Fraction(4, 2), (0, 1, 0): 0})
    assert built.terms == {(1, 0, 0): 2} and type(built.terms[(1, 0, 0)]) is int
    constant = XPoly.constant(3, Fraction(4, 2))
    assert constant == XPoly(3, {(0, 0, 0): 2}) and type(constant.terms[(0, 0, 0)]) is int
    assert XPoly.constant(3, 0).is_zero()


def test_coeff_constructor_rejects_a_constant():
    for make in (
        lambda: Coeff(),
        lambda: Coeff({}),
        lambda: Coeff({(0, 0): 3}),
        lambda: Coeff({(0, 0): 3, (1, 0): 0}),
        lambda: Coeff.param_term(0, 0),
    ):
        with pytest.raises(ValueError):
            make()


def test_specialize_examples():
    assert substitute_coeff(BETA * BETA - ALPHA, 1, 0) == 1
    assert substitute_coeff(BETA, -1, 0) == -1
    assert substitute_coeff(BETA * ALPHA, 2, 3) == 6


def test_zero_and_one():
    assert BETA * 1 is BETA and 1 * BETA is BETA
    assert Coeff({(1, 0): Fraction(2, 4), (0, 0): 0}) == Fraction(1, 2) * BETA


def test_ring_axioms_random_triples():
    rng = random.Random(41)
    for _ in range(1000):
        a, b, c = (random_coeff(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + 0 == a
        assert a * 1 == a
        assert a + (-a) == 0
        assert a - b == a + (-b)


@given(coeffs, coeffs)
def test_add_commutes(a, b):
    assert a + b == b + a


@given(coeffs, coeffs, coeffs)
def test_mul_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


def test_specialize_is_a_homomorphism():
    rng = random.Random(42)
    for _ in range(1000):
        a, b = random_coeff(rng), random_coeff(rng)
        beta0 = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        alpha0 = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        at = lambda c: substitute_coeff(c, beta0, alpha0)  # noqa: E731
        assert at(a + b) == at(a) + at(b)
        assert at(a * b) == at(a) * at(b)
        # The value itself, term by term: evaluation at another point is a
        # homomorphism too.
        assert at(a) == sum(v * beta0**i * alpha0**j for (i, j), v in reference(a).items())


def test_substitute_partial():
    c = BETA * BETA + BETA * ALPHA + 3
    beta_fixed = substitute_coeff(c, beta=2)
    assert beta_fixed == ALPHA + ALPHA + 7
    assert substitute_coeff(c) is c
    assert substitute_coeff(c, beta=1, alpha=0) == 4


def test_constant_value():
    # substitute_coeff keeps a number as it is, turns a Coeff left constant
    # into its number, 0 when it vanishes, and keeps a Coeff where b or a
    # is left.
    third = Fraction(3, 7)
    assert substitute_coeff(third) is third and substitute_coeff(third, 1, 2) is third
    zero = substitute_coeff(BETA - 2, 2)
    assert zero == 0 and type(zero) is int
    assert substitute_coeff(BETA) is BETA
    assert substitute_coeff(BETA * ALPHA, alpha=2) == 2 * BETA


def test_param_term_rejects_negative_exponents():
    try:
        Coeff.param_term(-1, 0)
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError")


def test_resolve_param():
    assert resolve_param(None, BETA) == BETA
    assert resolve_param(3, BETA) == 3
    assert resolve_param(Fraction(1, 2), ALPHA) == Fraction(1, 2)


def test_rendering():
    assert str(BETA) == "b"
    assert str(ALPHA) == "a"
    assert str(BETA * BETA - 1) == "b^2 - 1"
    assert str(-BETA + ALPHA) == "-b + a"
    assert str(-2 * BETA * ALPHA) == "-2*b*a"


def test_render_terms_edge_cases():
    """Canonical text of edge cases; the expected strings were printed by
    the earlier factor-list formatter, so they pin the text across
    rewrites of it."""
    from subdivalg.poly import SparsePoly, TPoly, XPoly, mono_from_pairs
    from subdivalg.ring import render_terms
    from subdivalg.series import QPoly

    def x(*pairs):
        exps: dict = {}
        for pair in pairs:
            exps[pair] = exps.get(pair, 0) + 1
        return mono_from_pairs(3, exps)

    half = Fraction(1, 2)
    table = [
        (-1, "-1"),
        (1, "1"),
        (-half, "-1/2"),
        (-BETA, "-b"),
        (Coeff({(0, 3): Fraction(5, 7), (1, 0): -1}), "-b + 5/7*a^3"),
        (Coeff({(0, 0): Fraction(-3, 2), (1, 0): -1, (0, 2): half}), "-b + 1/2*a^2 - 3/2"),
        (XPoly(3), "0"),
        (XPoly(1), "0"),
        (XPoly.constant(3, -1), "-1"),
        (XPoly.one(3), "1"),
        (XPoly.constant(1, 5), "5"),
        (XPoly(3, {x((1, 2)): -half * BETA}), "-1/2*b*x[1,2]"),
        (XPoly.constant(3, Coeff.param_term(2, 1)), "b^2*a"),
        (XPoly(3, {x((1, 2), (1, 2), (1, 2)): 1}), "x[1,2]^3"),
        (
            XPoly(3, {
                x((1, 3)): Fraction(-3, 2),
                x((2, 3)): Fraction(2, 3) * BETA,
                x(): Fraction(-1, 5),
            }),
            "-3/2*x[1,3] + 2/3*b*x[2,3] - 1/5",
        ),
        (XPoly(3, {x((1, 2), (2, 3)): -1, x((1, 3)): 1}), "-x[1,2]*x[2,3] + x[1,3]"),
        (
            XPoly(3, {
                x((1, 2), (1, 2), (2, 3)): -BETA,
                x(): 2 * BETA + Fraction(7, 3) * Coeff.param_term(0, 2) - 1,
            }),
            "-b*x[1,2]^2*x[2,3] + 2*b + 7/3*a^2 - 1",
        ),
        (XPoly(3, {x((1, 2)): BETA + 1, x(): -4}), "b*x[1,2] + x[1,2] - 4"),
        (
            XPoly(3, {
                x((1, 3), (1, 3)): -Coeff.param_term(3, 2),
                x(): half * ALPHA,
            }),
            "-b^3*a^2*x[1,3]^2 + 1/2*a",
        ),
        (
            TPoly(3, {(0, 2, 0): -half * BETA, (1, 0, 1): 1}),
            "t[1]*t[3] - 1/2*b*t[2]^2",
        ),
        (TPoly.constant(3, Fraction(-7, 3)), "-7/3"),
        (
            QPoly(2, {
                (-1, 0): 1,
                (3, -1): Fraction(-2, 3),
                (1, 1): -BETA,
            }),
            "-2/3*q[1]^3*q[2]^-1 - b*q[1]*q[2] + q[1]^-1",
        ),
        (QPoly(3, {(1, -1, 1): 1}), "q[1]*q[2]^-1*q[3]"),
    ]
    for value, expected in table:
        if isinstance(value, (Coeff, SparsePoly)):
            text = str(value)
        else:
            text = render_terms([(value, "")])
        assert text == expected, (repr(value), expected)


def test_general_product_normalises_and_prunes():
    """Products of multi-term coefficients: a cross term that cancels is
    dropped, and an integral Fraction is stored as an int."""
    product = (BETA + 1) * (BETA - 1)
    assert product == BETA * BETA - 1
    assert sorted(product._terms) == [(0, 0), (2, 0)]
    half = Fraction(1, 2)
    product = (half * BETA + half) * (BETA + 1)
    assert product._terms == {(2, 0): Fraction(1, 2), (1, 0): 1, (0, 0): Fraction(1, 2)}
    assert type(product._terms[(1, 0)]) is int


def test_resolve_param_returns_the_number():
    third = Fraction(1, 3)
    assert resolve_param(third, BETA) is third
    assert type(resolve_param(2, BETA)) is int and resolve_param(2, BETA) == 2
    two = resolve_param(Fraction(4, 2), BETA)
    assert type(two) is int and two == 2
    assert resolve_param(None, ALPHA) is ALPHA


# Storage: a value is an int when integral and a Fraction otherwise, and
# arithmetic agrees with plain Fraction arithmetic on the same entries.


def reference(value) -> dict:
    """The Fraction reference {(deg_b, deg_a): value} of a Coeff or a number."""
    if type(value) is Coeff:
        return {key: Fraction(v) for key, v in value._terms.items()}
    return {(0, 0): Fraction(value)} if value else {}


def pruned(terms: dict) -> dict:
    return {key: value for key, value in terms.items() if value}


def ref_combine(x: dict, y: dict, sign: int) -> dict:
    out = dict(x)
    for key, value in y.items():
        out[key] = out.get(key, Fraction(0)) + sign * value
    return pruned(out)


def ref_mul(x: dict, y: dict) -> dict:
    out: dict = {}
    for (b1, a1), v1 in x.items():
        for (b2, a2), v2 in y.items():
            key = (b1 + b2, a1 + a2)
            out[key] = out.get(key, Fraction(0)) + v1 * v2
    return pruned(out)


def ref_substitute(x: dict, beta, alpha) -> dict:
    out: dict = {}
    for (deg_b, deg_a), value in x.items():
        if beta is not None:
            value, deg_b = value * Fraction(beta) ** deg_b, 0
        if alpha is not None:
            value, deg_a = value * Fraction(alpha) ** deg_a, 0
        out[(deg_b, deg_a)] = out.get((deg_b, deg_a), Fraction(0)) + value
    return pruned(out)


def assert_normalised(value):
    """value has its one form: a number is an int when integral, and a
    Coeff holds b or a, each of its values normalised."""
    if type(value) is Coeff:
        assert any(key != (0, 0) for key in value._terms)
        values = list(value._terms.values())
    else:
        values = [value]
    for v in values:
        assert type(v) in (int, Fraction)
        assert type(v) is int or v.denominator != 1


mixed_values = st.one_of(st.integers(-50, 50), rationals)
mixed_coeffs = coeff_dicts(st.tuples(st.integers(0, 3), st.integers(0, 3)), mixed_values, 4)
params = st.one_of(st.none(), st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
# One nonzero term with b or a, as the tail coefficients -b and -a of a basis
# element are: such an operand takes the one-term path of `*` on either side.
param_keys = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda key: key != (0, 0))
one_term = st.builds(lambda key, value: Coeff({key: value}), param_keys, mixed_values.filter(bool))


@settings(derandomize=True, max_examples=150)
@given(mixed_coeffs, mixed_coeffs, one_term, params, params)
@example(  # 3/2 * 2/3 is integral, so the product stores the int 1, and x + y is 3/2
    x=Coeff({(0, 0): Fraction(3, 2), (1, 0): Fraction(-4, 3), (2, 1): Fraction(1, 5)}),
    y=Coeff({(1, 0): Fraction(4, 3), (2, 1): Fraction(-1, 5)}),
    z=Coeff({(1, 1): Fraction(2, 3)}),
    beta=None,
    alpha=None,
)
def test_arithmetic_matches_fraction_reference(x, y, z, beta, alpha):
    rx, ry, rz = reference(x), reference(y), reference(z)
    cases = [
        (x + y, ref_combine(rx, ry, 1)),
        (x - y, ref_combine(rx, ry, -1)),
        (x * y, ref_mul(rx, ry)),
        (x * z, ref_mul(rx, rz)),
        (z * x, ref_mul(rz, rx)),
        (z * y, ref_mul(rz, ry)),
        (-x, {key: -value for key, value in rx.items()}),
        (substitute_coeff(x, beta, alpha), ref_substitute(rx, beta, alpha)),
    ]
    for result, expected in cases:
        assert reference(result) == expected
        assert_normalised(result)


def test_integral_results_are_stored_as_int():
    third = Fraction(1, 3) * BETA
    assert (Coeff({(0, 1): 3}) * third)._terms == {(1, 1): 1}
    assert type((third + third + third)._terms[(1, 0)]) is int
    assert type(Coeff({(1, 0): Fraction(4, 2)})._terms[(1, 0)]) is int
    assert type((Fraction(1, 2) * BETA)._terms[(1, 0)]) is Fraction
    one = (third + 1) + (third + third - BETA)
    assert one == 1 and type(one) is int
    two = substitute_coeff(BETA, beta=Fraction(6, 3))
    assert two == 2 and type(two) is int


def test_non_integral_fraction_is_stored_as_given():
    half = Fraction(1, 2)
    assert Coeff({(1, 0): half})._terms[(1, 0)] is half
    assert Coeff({(2, 1): half, (0, 0): half})._terms[(0, 0)] is half


def test_substitute_coeff_at_both_parameters_is_a_number():
    cases = (BETA - 2 * ALPHA, BETA * ALPHA + 3, Fraction(1, 3) * BETA, Fraction(1, 3))
    assert [type(substitute_coeff(c, 2, 3)) for c in cases] == [int, int, Fraction, Fraction]
    assert substitute_coeff(BETA - 2, 2, 0) == 0


def test_symbolic_runs_on_integral_input_store_no_fraction():
    from subdivalg.poly import mono_from_pairs, parse_poly
    from subdivalg.rewrite import FirstByOrder, reduce_pathless
    from subdivalg.series import a_s_expand

    def values(p):
        """Every rational stored in p, in its Coeffs and as plain numbers."""
        out = []
        for c in p.terms.values():
            out.extend(c._terms.values() if isinstance(c, Coeff) else [c])
        return out

    result, _ = reduce_pathless(parse_poly("3*x[1,2]*x[2,3]*x[3,4] - b*x[2,3]", 4), FirstByOrder())
    mono = mono_from_pairs(4, {(1, 3): 2, (1, 4): 1, (2, 4): 1})
    series = a_s_expand(mono, 3)
    for p in (result, series):
        assert values(p)
        assert all(type(value) is int for value in values(p))


# With numeric b and a every coefficient is a plain number: the parse
# after substitution, the game, the normal form over a numeric basis, the
# relations, and the series products of the ed-ba sweep.  Integral b and a
# on integral input keep every value an int.

NUMERIC_PARAMS = [(3, Fraction(1, 2)), (Fraction(-6, 2), 2)]


def numbers_only(terms: dict, integral: bool) -> bool:
    """Every value is a plain number, an int when integral, and every value
    is an int when b, a and the input are integral."""
    kinds = (int,) if integral else (int, Fraction)
    return bool(terms) and all(
        type(c) in kinds and (type(c) is int or c.denominator != 1) for c in terms.values()
    )


def test_rational_forkless_normal_form_stores_no_integral_fraction():
    """The CI's forkless input at n=6 with b=2/3 and a=3/2, whose steps
    multiply coefficients like 3/2 and 2/3 into integers."""
    from subdivalg.groebner import generate_basis, normal_form
    from subdivalg.poly import parse_poly

    beta, alpha = Fraction(2, 3), Fraction(3, 2)
    text = (
        "5/4*x[1,2]^2*x[1,3]^2*x[1,4]^2*x[1,5]^2*x[1,6]^2"
        " - 7/3*b*x[1,2]*x[1,3]*x[1,4]*x[2,5]*x[2,6]*x[3,4]"
    )
    p = parse_poly(text, 6).substitute(beta, alpha)
    result = normal_form(p, generate_basis(6, beta, alpha))
    assert len(result.terms) == 3478
    assert numbers_only(result.terms, False)
    assert any(type(c) is int for c in result.terms.values())


@pytest.mark.parametrize("beta, alpha", NUMERIC_PARAMS)
def test_numeric_parameters_leave_no_coeff(beta, alpha, monkeypatch):
    from subdivalg import series
    from subdivalg.groebner import generate_basis, ideal_generator, normal_form
    from subdivalg.poly import parse_poly
    from subdivalg.rewrite import FirstByOrder, LastByOrder, reduce_pathless, relation_monomials

    integral = Fraction(beta).denominator == Fraction(alpha).denominator == 1
    text = "2*b*x[1,2]*x[2,3]*x[3,4] - a^2*x[1,3]*x[3,4] + 3*b*a*x[2,4] + x[1,2]*x[2,4] + b - b"
    p = parse_poly(text, 4).substitute(beta, alpha)
    assert numbers_only(p.terms, integral)
    for strategy in (FirstByOrder(), LastByOrder()):
        result, _ = reduce_pathless(p, strategy, beta, alpha)
        assert numbers_only(result.terms, integral)
    basis = generate_basis(4, beta, alpha)
    assert numbers_only(normal_form(p, basis).terms, integral)
    assert numbers_only(dict(enumerate(basis.tail[1:])), integral)
    for triple in relation_monomials(4):
        assert numbers_only(basis.element(triple).terms, integral)
        assert numbers_only(ideal_generator(*triple, 4, beta, alpha).terms, integral)

    compared: list = []
    real_eq, real_b_map = series.TWSeries.__eq__, series.b_map

    def eq(left, right):
        compared.extend((left, right))
        return real_eq(left, right)

    def b_map(f):
        compared.append(f)
        return real_b_map(f)

    monkeypatch.setattr(series.TWSeries, "__eq__", eq)
    monkeypatch.setattr(series, "b_map", b_map)
    assert series.ed_ba_sweep(4, 3, 3, beta, alpha).ok
    # per monomial: the right product, then the left product and its b_map
    assert len(compared) > 3 * 20
    for s in compared:
        assert numbers_only(s.terms, integral)

    # The random sweeps draw from a pool that holds b, a and b+1, and then
    # substitute the parameters into what they drew.
    from subdivalg import rewrite

    drawn: list = []

    def recording(module, name, arg=0):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            drawn.append(args[arg])
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    def recording_map(name):
        real_map = getattr(series, name)

        def built(*args):
            real = real_map(*args)
            return lambda p: drawn.append(p) or real(p)

        monkeypatch.setattr(series, name, built)

    recording(rewrite, "reduce_pathless")
    recording_map("a_map")
    recording_map("e_map")
    assert rewrite.verify_t_unique(5, 6, 2, 1, beta=beta, alpha=alpha).ok
    assert series.verify_a_kills_j(5, 12, 1, beta, alpha).ok
    assert series.verify_e_left_inverse(5, 12, 1, beta=beta, alpha=alpha).ok
    kinds = {type(p).__name__ for p in drawn}
    assert kinds == {"XPoly", "TPoly"}
    # 6 trials under 2 strategies, 10 generators and 12 products, 12 samples
    assert len(drawn) == 6 * 2 + 10 + 12 + 12
    assert sum(bool(p.terms) for p in drawn) > 40
    for p in drawn:
        assert not p.terms or numbers_only(p.terms, integral)


# Fast paths: a product by the number 1 returns the Coeff, one term times
# one term builds its key directly, and +, - and negation normalise only the
# values they compute.  Operands are drawn to reach each of them: the
# numbers 1, -1, 0, 2 and 1/2, one-term values whose products or sums are
# integral Fractions (2 * 1/2, 1/2 + 1/2), and second operands that cancel
# some or all terms of the first, so that a sum may be a number.

fast_values = st.sampled_from(
    [1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-2, 3),
     Fraction(1, 3)]
)
keys = st.tuples(st.integers(0, 2), st.integers(0, 2))
coeff_operands = st.one_of(
    st.builds(lambda key, value: Coeff({key: value}), keys.filter(any), fast_values),
    coeff_dicts(keys, fast_values, 3),
    mixed_coeffs,
)
fast_operands = st.one_of(st.sampled_from([1, -1, 0, 2, Fraction(1, 2)]), coeff_operands)


@st.composite
def operand_pairs(draw):
    """(Coeff, Coeff or number)."""
    x = draw(coeff_operands)
    if draw(st.booleans()):
        return x, draw(fast_operands)
    # y cancels the terms of x that `cancel` marks and adds terms of its own
    size = len(reference(x))
    cancel = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    terms = {key: -value for (key, value), drop in zip(x._terms.items(), cancel) if drop}
    for key, value in reference(draw(fast_operands)).items():
        terms.setdefault(key, value)
    return x, value_of(terms)


@settings(derandomize=True, max_examples=400)
@given(operand_pairs())
def test_fast_paths_match_fraction_reference(pair):
    x, y = pair
    rx, ry = reference(x), reference(y)
    cases = [
        (x + y, ref_combine(rx, ry, 1)),
        (y + x, ref_combine(rx, ry, 1)),
        (x - y, ref_combine(rx, ry, -1)),
        (y - x, ref_combine(ry, rx, -1)),
        (x * y, ref_mul(rx, ry)),
        (y * x, ref_mul(rx, ry)),
        (-x, {key: -value for key, value in rx.items()}),
    ]
    for result, expected in cases:
        assert reference(result) == expected
        assert_normalised(result)
    assert [reference(x), reference(y)] == [rx, ry]


def test_scale_and_ring_map_by_unit_coefficients():
    from subdivalg.poly import TPoly, ring_map
    from subdivalg.series import random_tpoly

    def general_ring_map(p, image):
        """ring_map without scale: each term starts from its coefficient."""
        total = TPoly(p.n)
        for key, coeff in p.terms.items():
            term = TPoly.constant(p.n, coeff)
            for pos, e in enumerate(key):
                for _ in range(e):
                    term = term * image(pos)
            total = total + term
        return total

    rng = random.Random(61)
    for _ in range(40):
        n = rng.randint(2, 4)
        p = random_tpoly(n, 3, 4, rng)
        units = TPoly(n, {key: rng.choice([1, -1]) for key in p.terms})
        images = [random_tpoly(n, 2, 3, rng) for _ in range(n)]
        for q in (p, units, TPoly(n, dict.fromkeys(p.terms, 1))):
            assert q.scale(1) == q
            assert ring_map(images.__getitem__, TPoly.one(n))(q) == (
                general_ring_map(q, images.__getitem__)
            )


# Mixed operands: an int or a Fraction on either side of +, - and *, and of
# == and !=, where a Coeff never equals a number.  A result is a Coeff, or 0
# for a product by 0; either way it agrees with the Fraction reference.
# Numbers include integral Fractions such as 4/2, which arithmetic on
# Fractions produces.

numbers = st.one_of(
    st.integers(-20, 20),
    rationals,
    st.sampled_from([0, 1, -1, Fraction(4, 2), Fraction(2, 3) * Fraction(3, 2), Fraction(0)]),
)


@st.composite
def mixed_pairs(draw):
    """(Coeff, number); the number is often minus the Coeff's constant
    term, as a Fraction or as an int, so that their sum cancels it."""
    x = draw(coeff_operands)
    v = draw(numbers)
    if draw(st.booleans()):
        v = -reference(x).get((0, 0), Fraction(0))
        if draw(st.booleans()) and v.denominator == 1:
            v = v.numerator
    return x, v


@settings(derandomize=True, max_examples=400)
@given(mixed_pairs())
def test_mixed_operands_match_fraction_reference(pair):
    x, v = pair
    before = dict(x._terms)
    rx, rv = reference(x), reference(v)
    cases = [
        (x + v, ref_combine(rx, rv, 1)),
        (v + x, ref_combine(rx, rv, 1)),
        (x - v, ref_combine(rx, rv, -1)),
        (v - x, ref_combine(rv, rx, -1)),
        (x * v, ref_mul(rx, rv)),
        (v * x, ref_mul(rx, rv)),
        (-(v * x), {key: -value for key, value in ref_mul(rx, rv).items()}),
        (-x, {key: -value for key, value in rx.items()}),
    ]
    for result, expected in cases:
        assert reference(result) == expected
        assert_normalised(result)
    assert (x == v) is False and (v == x) is False
    assert (x != v) is True and (v != x) is True
    assert x._terms == before


def test_unit_and_one_term_fast_paths_with_numbers():
    assert BETA * 1 is BETA and 1 * BETA is BETA
    assert (BETA * 2)._terms == {(1, 0): 2}
    product = Fraction(2, 3) * Coeff({(1, 1): Fraction(3, 2)})
    assert product._terms == {(1, 1): 1} and type(product._terms[(1, 1)]) is int
    assert BETA * 0 == 0 and type(BETA * 0) is int
    assert BETA + 0 == BETA and 0 - BETA == -BETA
    assert (1 - BETA)._terms == {(0, 0): 1, (1, 0): -1}
    assert (BETA + 1) - BETA == 1 and 1 == (BETA + 1) - BETA
    assert BETA != 1 and 1 != BETA and BETA != 0
    assert (BETA == "b") is False and BETA != None  # noqa: E711
    with pytest.raises(TypeError):
        BETA + "b"
    with pytest.raises(TypeError):
        1.5 * BETA


def test_constant_held_as_number_or_coeff_is_one_value():
    """An int and an integral Fraction holding one constant give equal
    polynomials with the same text, and the public constructor stores the
    int."""
    from subdivalg.poly import TPoly, XPoly, mono_from_pairs, parse_poly, parse_tpoly

    integral = Fraction(2, 3) * Fraction(3, 2)
    assert type(integral) is Fraction and integral == 1
    x_key = mono_from_pairs(3, {(1, 2): 1, (2, 3): 2})
    t_key = (0, 1, 2)
    for cls, n, key, parse, text in (
        (XPoly, 3, x_key, parse_poly, "x[1,2]*x[2,3]^2 - 3/2"),
        (TPoly, 3, t_key, parse_tpoly, "t[2]*t[3]^2 - 3/2"),
    ):
        one = (0,) * len(key)
        polys = [
            cls._raw(n, {key: 1, one: Fraction(-3, 2)}),
            cls._raw(n, {key: integral, one: Fraction(-6, 4)}),
            cls._raw(n, {key: (BETA + 1) - BETA, one: Fraction(-3, 2)}),
            cls(n, {key: integral, one: Fraction(-3, 2)}),
            parse(text, n),
        ]
        assert type(polys[3].terms[key]) is int
        for p in polys:
            assert str(p) == text
            for q in polys:
                assert p == q and q == p and not p != q
                assert (p - q).is_zero()
        assert str(polys[0].scale(BETA)) == str(polys[1].scale(BETA))
    # the parser stores an integral product of its rationals as an int
    parsed = parse_poly("4/2*x[1,2] + 3/2*2/3*x[1,3] + 6/4*x[2,3]", 3)
    assert sorted(type(c).__name__ for c in parsed.terms.values()) == ["Fraction", "int", "int"]


# Flat keys: `spread_params` leads each key with the degree of each
# symbolic parameter, b before a, and `fold_params` strips that lead back
# into the values.

FLAT_PARAMS = [(0,), (1,), (0, 1)]
flat_values = st.one_of(st.integers(-9, 9), rationals).filter(bool)


@st.composite
def flat_cases(draw):
    """(params, n, p, q): two term dicts over Laurent keys of width n whose
    Coeffs hold only the parameters of params."""
    params = draw(st.sampled_from(FLAT_PARAMS))
    degrees = st.integers(0, 3)
    param_keys = st.tuples(*(degrees if pos in params else st.just(0) for pos in (0, 1)))
    values = st.dictionaries(param_keys, flat_values, max_size=3).map(value_of)
    n = draw(st.integers(1, 3))
    keys = st.tuples(*[st.integers(-2, 2)] * n)
    polys = st.dictionaries(keys, values.filter(lambda v: v != 0), max_size=4)
    return params, n, draw(polys), draw(polys)


@settings(derandomize=True, max_examples=300)
@given(flat_cases())
def test_flat_keys_lead_with_the_parameter_degrees(case):
    from subdivalg.ring import fold_params, spread_params
    from subdivalg.series import QPoly

    params, n, p, q = case
    for terms in (p, q):
        spread = spread_params(terms, params)
        assert fold_params(spread, params) == terms
        expected = {
            tuple(degrees[pos] for pos in params) + key: value
            for key, coeff in terms.items()
            for degrees, value in reference(coeff).items()
        }
        assert spread == expected
        assert all(type(value) is not Coeff for value in spread.values())
    left, right = QPoly(n, p), QPoly(n, q)
    flat_product = QPoly._raw(n, spread_params(left.terms, params)) * QPoly._raw(
        n, spread_params(right.terms, params)
    )
    assert fold_params(flat_product.terms, params) == (left * right).terms


def test_flat_keys_without_parameters_are_the_terms_themselves():
    from subdivalg.ring import fold_params, spread_params

    terms = {(1, 0): 2, (0, 1): Fraction(1, 3)}
    assert spread_params(terms, ()) is terms and fold_params(terms, ()) is terms
    # both parameters symbolic: the lead is the Coeff's own key
    spread = spread_params({(1, 0): Coeff({(2, 1): 3, (0, 0): -1})}, (0, 1))
    assert spread == {(2, 1, 1, 0): 3, (0, 0, 1, 0): -1}


def reference_param_text(deg_b: int, deg_a: int) -> str:
    """The text b^i*a^j was written as before the power tables wrote it."""
    factors = []
    if deg_b:
        factors.append("b" if deg_b == 1 else f"b^{deg_b}")
    if deg_a:
        factors.append("a" if deg_a == 1 else f"a^{deg_a}")
    return "*".join(factors)


def test_parameter_text_is_written_from_the_power_tables():
    """Every b^i*a^j, i and j up to 12, with sign, Fraction value and
    monomial, reads as before the power tables wrote it; the literals were
    printed by that writer.  Each is written twice, so a filled table
    writes the same again."""
    from subdivalg.ring import _PARAM_POWERS, mono_text, render_terms

    literals = [
        (Coeff({(12, 12): 1}), "", "b^12*a^12"),
        (Coeff({(1, 0): -1}), "x[1,2]", "-b*x[1,2]"),
        (Coeff({(0, 10): Fraction(-3, 7)}), "x[1,2]^2", "-3/7*a^10*x[1,2]^2"),
        (Coeff({(2, 1): 5, (0, 12): -1, (0, 0): Fraction(1, 2)}), "", "5*b^2*a - a^12 + 1/2"),
        (Coeff({(11, 0): Fraction(2, 3), (0, 1): -1}), "t[1]", "2/3*b^11*t[1] - a*t[1]"),
    ]
    for _ in range(2):
        for coeff, mono, text in literals:
            assert render_terms([(coeff, mono)]) == text
        for i in range(13):
            for j in range(13):
                assert mono_text(_PARAM_POWERS, (i, j)) == reference_param_text(i, j)
                if not i and not j:
                    continue
                params = reference_param_text(i, j)
                for value, head in ((1, ""), (-1, "-"), (Fraction(-3, 7), "-3/7*"), (4, "4*")):
                    coeff = Coeff({(i, j): value})
                    assert str(coeff) == render_terms([(coeff, "")]) == head + params
                    assert render_terms([(coeff, "x[1,2]^3")]) == f"{head}{params}*x[1,2]^3"
    assert mono_text(_PARAM_POWERS, (2, 1)) == "b^2*a"
    assert mono_text(_PARAM_POWERS, (0, 0)) == ""
