"""Reductions at a rational point run at the integral point.

The relation x[i,j]*x[j,k] - x[i,k]*(x[i,j] + x[j,k] + b) - a is
homogeneous when x and b weigh 1 and a weighs 2.  So the game, the normal
form and the Buchberger check at (b, a) make the same moves at
(L*b, L^2*a) on `rescaled(p, L)`, and their results divide back term by
term.  The normal form and the Buchberger check rescale on their own;
`reduce_pathless` plays at the point it is given, and its callers that
want ints, `subdivalg reduce` and `verify_t_unique`, rescale for it.  Here
the engines and the callers' route are checked against the route that
steps at (b, a) itself, and symbolic runs against numeric ones by
specialising b and a.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement, count
from math import lcm

import pytest

from conftest import drop_constant_term
from subdivalg import groebner, poly, rewrite
from subdivalg.groebner import _fork_triples, buchberger_check, generate_basis, normal_form
from subdivalg.poly import XPoly, d_image, parse_poly, rescaled, unscaled
from subdivalg.rewrite import (
    FirstByOrder,
    LastByOrder,
    RandomStrategy,
    Report,
    RewriteError,
    RuleSet,
    derive_seed,
    find_path_triples,
    pathless_step,
    random_xpoly,
    reduce_pathless,
    relation_monomials,
    strategy_suite,
    verify_t_unique,
)
from subdivalg.ring import ALPHA, BETA, integral_point, resolve, spread_params

# The rational points of the series sweeps' oracle, each coordinate in turn
# zero, integral and not.
RATIONAL_POINTS = [
    (Fraction(1, 3), Fraction(2, 5)),
    (0, Fraction(-3, 4)),
    (Fraction(-5, 2), 0),
    (2, Fraction(1, 3)),
    (Fraction(3, 4), -5),
    (Fraction(-2, 3), Fraction(-7, 6)),
]
# Points where L = 1: symbolic, and one symbol beside a Fraction.
UNIT_POINTS = [(None, None), (Fraction(1, 3), None), (None, Fraction(-2, 5))]
POINTS = RATIONAL_POINTS + UNIT_POINTS
# Where L = 1 leaves a Fraction b or a, which every step multiplies by.
ONE_SYMBOL = UNIT_POINTS[1:]


def strategies(seed: int) -> list:
    return [FirstByOrder(), LastByOrder(), RandomStrategy(seed)]


def inputs(beta, alpha, count: int, seed: int, n_range=(3, 6)) -> list:
    """Random polynomials of mixed degrees with 3/2 times the drawn
    coefficients, at (b, a)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = random_xpoly(rng.randint(*n_range), 5, 5, rng).scale(Fraction(3, 2))
        p = p.substitute(beta, alpha)
        if p.terms:
            out.append(p)
    return out


def numbers(values) -> list:
    """Each coefficient that is a number, and each value of each Coeff."""
    return list(spread_params({(i,): c for i, c in enumerate(values)}, (0, 1)).values())


def integral(values) -> bool:
    return all(type(c) is int for c in numbers(values))


def watched(monkeypatch, module, name: str, seen: list):
    """Wrap module.name, a step of either reduction, to record the move,
    a copy of the term dict and the other arguments of each call before
    it runs."""
    real = getattr(module, name)

    def wrapper(terms, mono, triple, *rest):
        seen.append(((mono, triple), dict(terms), rest))
        return real(terms, mono, triple, *rest)

    monkeypatch.setattr(module, name, wrapper)


def fraction_game(p: XPoly, strategy, beta, alpha) -> tuple:
    """(result, moves) of the game stepped at (b, a) itself."""
    b, a = resolve(beta, alpha)
    step = lambda terms, mono, triple: pathless_step(terms, mono, triple, b, a)  # noqa: E731
    terms, moves = p.terms, []
    for mono, triple, terms in rewrite.rewrite(
        p, "pathless game", RuleSet(find_path_triples), step, strategy
    ):
        moves.append((mono, triple))
    return XPoly._raw(p.n, dict(terms)), moves


def fraction_step(basis):
    """A basis step at (b, a) itself: the step kernels with the tail
    (None, -1, -b, -a) of the basis's `params`."""
    kernels = groebner._fork_kernels(basis.n)
    b, a = basis.params
    tail = None, -1, -b, -a
    return lambda terms, mono, triple: rewrite.kernel_step(terms, mono, kernels[triple], tail)


def fraction_normal_form(p: XPoly, basis, strategy=FirstByOrder()) -> tuple:
    """(normal form, moves) by basis steps at (b, a)."""
    step = fraction_step(basis)
    terms, moves = p.terms, []
    for mono, triple, terms in rewrite.rewrite(
        p, "normal form", RuleSet(_fork_triples), step, strategy
    ):
        moves.append((mono, triple))
    return XPoly._raw(p.n, dict(terms)), moves


def fraction_spolys(basis) -> list:
    """(pair, s-polynomial) of every pair the Buchberger check walks, each
    written by basis steps at (b, a)."""
    heads = {triple: monos[1] for triple, monos in relation_monomials(basis.n).items()}
    step = fraction_step(basis)
    out = []
    for t1, t2 in combinations_with_replacement(heads, 2):
        if any(map(min, heads[t1], heads[t2])):
            lcm = tuple(map(max, heads[t1], heads[t2]))
            terms = {lcm: 1}
            step(terms, lcm, t2)
            terms[lcm] = -1
            step(terms, lcm, t1)
            out.append(((t1, t2), XPoly._raw(basis.n, terms)))
    return out


def fraction_buchberger(basis) -> Report:
    """The Buchberger check with each s-polynomial written and reduced at
    (b, a)."""
    b, a = basis.params
    params = {"n": basis.n, "elements": len(relation_monomials(basis.n))}
    params["beta"] = None if b is BETA else Fraction(b)
    params["alpha"] = None if a is ALPHA else Fraction(a)
    spolys = fraction_spolys(basis)
    report = Report(params, {"pairs": len(spolys)})
    for (t1, t2), s in spolys:
        if fraction_normal_form(s, basis)[0].terms:
            report.failures.append(f"pair {t1} {t2}")
    return report


def weight_scale(beta, alpha) -> int:
    """L, the lcm of the denominators of b and a, 1 where a symbol is left."""
    if beta is None or alpha is None:
        return 1
    return lcm(Fraction(beta).denominator, Fraction(alpha).denominator)


@pytest.mark.parametrize("beta, alpha", POINTS)
def test_rescaled_is_integral_and_unscaled_inverts_it(beta, alpha):
    """q = K*L^D*p(x/L) holds ints only, in numbers and in Coeff values,
    K the least that does it, applied at L = 1 too; the factors returned
    beside q are K*L^(D-d) per degree d, None where L = 1 and nothing is
    cleared, and `unscaled` divides each term back by them, each value an
    int where it is integral."""
    scale = integral_point(beta, alpha)[0]
    assert (scale > 1) == ((beta, alpha) in RATIONAL_POINTS)
    for p in inputs(beta, alpha, 40, 11):
        q, factors = rescaled(p, scale)
        assert q.terms.keys() == p.terms.keys() and integral(q.terms.values())
        top = max(map(sum, p.terms))
        # each value of q over the same value of p: K*L^(D-|m|)
        spread_p, spread_q = (spread_params(s.terms, (0, 1)) for s in (p, q))
        assert spread_q.keys() == spread_p.keys()
        [clear] = {
            Fraction(spread_q[key]) / spread_p[key] / scale ** (top - sum(key[2:]))
            for key in spread_p
        }
        assert clear.denominator == 1 and clear > 0
        # K is the least: K/prime leaves some value of q/prime a fraction
        for prime in (2, 3, 5, 7):
            if clear % prime == 0:
                assert any(v % prime for v in numbers(q.terms.values()))
        expected = [clear * scale ** (top - d) for d in range(top + 1)]
        assert factors == (None if scale == clear == 1 else expected)
        assert (q is p) == (factors is None)
        back = unscaled(q, factors)
        assert back == p
        # one form per value: an integral quotient comes back as its int
        spread_back = spread_params(back.terms, (0, 1))
        assert {k: type(v) for k, v in spread_back.items()} == {
            k: type(v) for k, v in spread_p.items()
        }
    # An integral input at L = 1 is its own rescaling; Coeff values count.
    p = parse_poly("2*x[1,2]*x[2,3] - 3*b*x[1,3] + a", 3)
    q, factors = rescaled(p, 1)
    assert q is p and factors is None and unscaled(p, factors) is p
    half = parse_poly("1/2*b*x[1,2]*x[2,3] + a", 3)
    assert rescaled(half, 1) == (parse_poly("b*x[1,2]*x[2,3] + 2*a", 3), [2, 2, 2])


def test_a_reduction_reads_its_inputs_values_once(monkeypatch):
    """At (1/3, 2/5), `normal_form` reads the non-int values of an input
    with k non-int coefficients k times: the way back divides by the
    factors `rescaled` returned, with no second scan of the input.
    `reduce_pathless` plays at the point it is given and reads none."""
    beta, alpha = Fraction(1, 3), Fraction(2, 5)
    example = parse_poly("3/2*x[1,2]*x[2,3]*x[3,4] - 5/4*x[1,3]*x[3,4] + 2*x[1,2]^2*x[1,3]", 4)
    calls = []
    real = poly.fraction_values
    monkeypatch.setattr(poly, "fraction_values", lambda c: calls.append(c) or real(c))
    for p in [example] + inputs(beta, alpha, 12, 17):
        k = sum(type(c) is not int for c in p.terms.values())
        basis = generate_basis(p.n, beta, alpha)
        for reduce, reads in (
            (lambda: reduce_pathless(p, FirstByOrder(), beta, alpha), 0),
            (lambda: normal_form(p, basis), k),
        ):
            calls.clear()
            reduce()
            assert len(calls) == reads, p
    assert sum(type(c) is not int for c in example.terms.values()) == 2


@pytest.mark.parametrize("beta, alpha", POINTS)
def test_game_at_the_integral_point_makes_the_fraction_route_moves(beta, alpha, monkeypatch):
    """The route `subdivalg reduce` takes: under first, last and random,
    `reduce_pathless` on `rescaled(p, L)` at (L*b, L^2*a) makes the moves
    of the game stepped at (b, a), each of its steps sees only ints where
    L > 1 or no number is left, its trace replays at the integral point,
    and `unscaled` of its result is the result of `reduce_pathless` at
    (b, a).  That game steps at (b, a) as given, makes the same moves and
    replays its trace there."""
    point = POINTS.index((beta, alpha))
    scale, beta_at, alpha_at = integral_point(beta, alpha)
    steps = 0
    for index, p in enumerate(inputs(beta, alpha, 25, derive_seed(29, point))):
        q, factors = rescaled(p, scale)
        for strategy in strategies(derive_seed(31, point, index)):
            seen: list = []
            direct_seen: list = []
            with monkeypatch.context() as patch:
                watched(patch, rewrite, "pathless_step", seen)
                result, trace = reduce_pathless(q, strategy, beta_at, alpha_at)
            with monkeypatch.context() as patch:
                watched(patch, rewrite, "pathless_step", direct_seen)
                direct, direct_trace = reduce_pathless(p, strategy, beta, alpha)
            expected, moves = fraction_game(p, strategy, beta, alpha)
            assert [(step.monomial, step.triple) for step in trace] == moves
            assert [move for move, _, _ in seen] == moves
            if (beta, alpha) not in ONE_SYMBOL:
                for _, terms, params in seen:
                    assert integral(terms.values()) and integral(params)
            assert unscaled(result, factors) == direct == expected
            assert [(step.monomial, step.triple) for step in direct_trace] == moves
            assert [move for move, _, _ in direct_seen] == moves
            assert all(params == resolve(beta, alpha) for _, _, params in direct_seen)
            if moves:
                assert trace[-1].after == result
                assert direct_trace[-1].after == expected
            steps += len(moves)
    assert steps >= 100


@pytest.mark.parametrize("beta, alpha", POINTS)
def test_normal_form_at_the_integral_point_makes_the_fraction_route_moves(
    beta, alpha, monkeypatch
):
    """`normal_form` reduces on the basis, whose steps run at the integral
    point and see only ints where L > 1 or no number is left, and gives
    the normal form and the moves of basis steps at (b, a)."""
    point = POINTS.index((beta, alpha))
    steps = 0
    for index, p in enumerate(inputs(beta, alpha, 25, derive_seed(37, point), (4, 6))):
        basis = generate_basis(p.n, beta, alpha)
        for strategy in strategies(derive_seed(41, point, index)):
            seen: list = []
            with monkeypatch.context() as patch:
                watched(patch, groebner, "reduce_step", seen)
                result = normal_form(p, basis, strategy)
            expected, moves = fraction_normal_form(p, basis, strategy)
            assert result == expected
            assert [move for move, _, _ in seen] == moves
            for _, terms, (on,) in seen:
                assert on is basis
                assert (beta, alpha) in ONE_SYMBOL or integral(terms.values())
            steps += len(moves)
    assert steps >= 50


@pytest.mark.parametrize("beta, alpha", POINTS)
def test_buchberger_check_on_the_twin_reports_as_the_fraction_route(
    beta, alpha, monkeypatch
):
    """The check at a rational point writes and reduces every s-polynomial
    at the integral point, on the basis, where each step sees only ints:
    each is the s-polynomial at (b, a) rescaled by L = lcm(den b, den a),
    and the Report names (b, a) as the route at (b, a) does.  With the
    constant term of the (1, 2, 3) step dropped, both routes fail the same
    pairs."""
    scale = weight_scale(beta, alpha)
    for n in (4, 5):
        basis = generate_basis(n, beta, alpha)
        seen, reduced = [], []
        real_rewrite = groebner.rewrite
        with monkeypatch.context() as patch:
            watched(patch, groebner, "reduce_step", seen)
            patch.setattr(
                groebner, "rewrite", lambda p, *rest: reduced.append(p) or real_rewrite(p, *rest)
            )
            report = buchberger_check(basis)
        assert report == fraction_buchberger(basis) and report.ok
        # each s-polynomial at the integral point is the one at (b, a), rescaled
        spolys = [s for _, s in fraction_spolys(basis)]
        assert reduced == ([rescaled(s, scale)[0] for s in spolys] if scale > 1 else spolys)
        assert seen and all(on is basis for _, _, (on,) in seen)
        if (beta, alpha) not in ONE_SYMBOL:
            assert all(integral(terms.values()) for _, terms, _ in seen)
        with monkeypatch.context() as patch:
            drop_constant_term(patch)
            broken = generate_basis(n, beta, alpha)
            report = buchberger_check(broken)
            assert report == fraction_buchberger(broken)
        assert report.ok == (alpha == 0)


@pytest.mark.parametrize(
    "beta, alpha", [(Fraction(1, 3), Fraction(2, 5)), (Fraction(3, 2), Fraction(-1, 3))]
)
def test_one_basis_per_rational_point(beta, alpha, monkeypatch):
    """A basis at a rational point is one object, with (b, a) as its params
    and the integral tail (-L*b, -L^2*a) as ints, and the Buchberger check
    leaves its rules alone, even when a step fails partway."""
    made = []

    class Counted(groebner.GroebnerBasis):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(groebner, "GroebnerBasis", Counted)
        basis = generate_basis(5, beta, alpha)
    assert made == [basis] and not hasattr(basis, "twin")
    scale = weight_scale(beta, alpha)
    assert basis.scale == scale > 1 and basis.params == (beta, alpha)
    assert basis.tail[2:] == (-scale * beta, -scale * scale * alpha)
    assert all(type(c) is int for c in basis.tail[1:])
    rules = basis.rules
    calls = count()
    real_step = groebner.reduce_step

    def failing(terms, mono, triple, on):
        if next(calls) == 20:
            raise RewriteError("stop")
        return real_step(terms, mono, triple, on)

    monkeypatch.setattr(groebner, "reduce_step", failing)
    with pytest.raises(RewriteError, match="^stop$"):
        buchberger_check(basis)
    assert next(calls) > 20
    assert basis.rules is rules and len(rules) == 0


def every_other_doubled(d_image_of):
    """A d-image function that doubles the image on every second call."""
    calls = count()
    return lambda p: d_image_of(p).scale(2) if next(calls) % 2 else d_image_of(p)


@pytest.mark.parametrize("beta, alpha", POINTS)
def test_t_unique_compares_images_at_the_integral_point(beta, alpha, monkeypatch):
    """verify_t_unique plays every strategy at the integral point, where
    each step sees ints, and its report, failure lines included, is the
    one built from games at (b, a).  A d_image that doubles every second
    image, patched by its rewrite-module name, fails every trial on both
    routes, so the images of each failure line are divided back."""
    n, trials, n_strategies, seed = 4, 6, 3, 7
    for broken in (False, True):
        seen = []
        with monkeypatch.context() as patch:
            watched(patch, rewrite, "pathless_step", seen)
            if broken:
                patch.setattr(rewrite, "d_image", every_other_doubled(d_image))
            report = verify_t_unique(n, trials, n_strategies, seed, 4, 4, beta, alpha)
        assert seen
        if (beta, alpha) not in ONE_SYMBOL:
            assert all(integral(terms.values()) for _, terms, _ in seen)
        image_of = every_other_doubled(d_image) if broken else d_image
        failures = []
        for trial in range(trials):
            trial_seed = derive_seed(seed, trial)
            p = random_xpoly(n, 4, 4, random.Random(trial_seed)).substitute(beta, alpha)
            images = [
                image_of(fraction_game(p, strategy, beta, alpha)[0])
                for strategy in strategy_suite(n_strategies, seed, trial)
            ]
            failures += [
                f"trial {trial} seed {trial_seed} input {p}; "
                f"strategy 0 image {images[0]}; strategy {idx} image {images[idx]}"
                for idx in range(1, n_strategies)
                if images[idx] != images[0]
            ]
        assert report.failures == failures
        assert report.counts == {"inputs": trials}
        assert len(failures) == (trials if broken else 0)


# The specialisations sigma of the law below: numbers for both of b and a,
# zero for both, b = -1 where b+1 cancels, and one symbol kept.
SPECIALISATIONS = [
    (2, 3),
    (Fraction(1, 3), -2),
    (0, 0),
    (-1, 0),
    (Fraction(-1, 2), None),
    (None, Fraction(2, 3)),
]


def test_symbolic_runs_specialise_to_numeric_runs():
    """sigma(NF(p)) == NF at sigma of sigma(p), and the d-image of a
    finished game specialises the same way, under first, last and a seeded
    random strategy, for 160 random inputs at each specialisation: the
    symbolic route, which rescales nothing, against the numeric one, which
    runs at the integral point where b and a are rational.  The games
    themselves may differ, since terms can cancel at sigma."""
    rng = random.Random(43)
    samples = [random_xpoly(rng.randint(3, 6), 4, 5, rng) for _ in range(160)]
    bases = {n: generate_basis(n) for n in range(3, 7)}
    symbolic = [
        (normal_form(p, bases[p.n]), [d_image(reduce_pathless(p, s)[0]) for s in strategies(i)])
        for i, p in enumerate(samples)
    ]
    checks = 0
    for beta, alpha in SPECIALISATIONS:
        numeric = {n: generate_basis(n, beta, alpha) for n in range(3, 7)}
        for index, (p, (form, images)) in enumerate(zip(samples, symbolic)):
            special = p.substitute(beta, alpha)
            assert form.substitute(beta, alpha) == normal_form(special, numeric[p.n])
            for strategy, image in zip(strategies(index), images):
                result, _ = reduce_pathless(special, strategy, beta, alpha)
                assert image.substitute(beta, alpha) == d_image(result)
                checks += 1
    assert checks == 3 * 160 * len(SPECIALISATIONS)
