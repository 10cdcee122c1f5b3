"""Basis family, reduction, Buchberger criterion, and ideal membership."""

import gc
import random
import re
import weakref
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import comb
from operator import add, mul

import pytest

from conftest import ALT_SCRIPT, GAME_SCRIPT, GAME_START, applied, drop_constant_term
from subdivalg import groebner, rewrite
from subdivalg.groebner import (
    GroebnerBasis,
    buchberger_check,
    generate_basis,
    ideal_generator,
    ideal_member,
    normal_form,
    reduce_step,
)
from subdivalg.poly import (
    XPoly,
    accumulate,
    all_monomials,
    format_monomial,
    is_forkless,
    mono_div,
    mono_from_pairs,
    mono_mul,
    mono_one,
    parse_poly,
    rescaled,
    unscaled,
)
from subdivalg.rewrite import (
    FirstByOrder,
    LastByOrder,
    RandomStrategy,
    ResourceLimitError,
    RewriteError,
    ScriptStrategy,
    derive_seed,
    parse_script,
    pathless_step,
    random_xpoly,
    reduce_pathless,
    relation_monomials,
)
from subdivalg.ring import ALPHA, BETA, integral_point, resolve_param


def mono(n: int, *pairs) -> tuple:
    exps = {}
    for i, j in pairs:
        exps[(i, j)] = exps.get((i, j), 0) + 1
    return mono_from_pairs(n, exps)


def head(p: XPoly) -> tuple:
    """(monomial, coefficient) at the order-largest monomial of p."""
    m = max(p.terms)
    return m, p.terms[m]


def spol(g1: XPoly, g2: XPoly) -> XPoly:
    """c2*s1*g1 - c1*s2*g2, with c1, c2 the head coefficients and s1, s2
    the shifts that take both heads to their lcm, built in one dict: the
    reference the kernel-written s-polynomials are checked against."""
    h1, c1 = head(g1)
    h2, c2 = head(g2)
    lcm = tuple(map(max, h1, h2))
    s1 = mono_div(lcm, h1)
    s2 = mono_div(lcm, h2)
    terms = {tuple(map(add, m, s1)): c2 * c for m, c in g1.terms.items()}
    shifted = ((tuple(map(add, m, s2)), -c1 * c) for m, c in g2.terms.items())
    return g1._like(accumulate(terms, shifted))


def test_generate_basis_shape():
    assert [buchberger_check(generate_basis(n)).params["elements"] for n in (2, 3, 5)] == [0, 1, 10]
    basis = generate_basis(3)
    element = basis.element((1, 2, 3))
    assert head(element) == (mono(3, (1, 3), (1, 2)), 1)
    assert element == parse_poly(
        "x[1,3]*x[1,2] - x[1,2]*x[2,3] + x[1,3]*x[2,3] + b*x[1,3] + a", 3
    )
    assert element == -ideal_generator(1, 2, 3, 3)
    with pytest.raises(KeyError):
        basis.element((1, 2, 4))


# (beta, alpha) pairs: symbolic, integer, rational, and each of them zero.
PARAMS = ((None, None), (3, -2), (Fraction(2, 3), Fraction(-3, 2)), (0, None), (None, 0), (0, 0))


def reference_generator(i, j, k, n, beta, alpha):
    """The relation built with XPoly arithmetic."""
    x_ij, x_jk, x_ik = (XPoly.variable(*pair, n) for pair in ((i, j), (j, k), (i, k)))
    b = XPoly.constant(n, resolve_param(beta, BETA))
    a = XPoly.constant(n, resolve_param(alpha, ALPHA))
    return x_ij * x_jk - x_ik * (x_ij + x_jk + b) - a


def fraction_tail(basis: GroebnerBasis) -> tuple:
    """The tail (None, -1, -b, -a) of head - element at the basis's
    `params`, where its `tail` is the one at the integral point."""
    b, a = basis.params
    return None, -1, -b, -a


@pytest.mark.parametrize("beta, alpha", PARAMS)
def test_basis_matches_arithmetic_reference(beta, alpha):
    for n in range(3, 8):
        basis = generate_basis(n, beta, alpha)
        assert list(relation_monomials(n)) == list(combinations(range(1, n + 1), 3))
        for (i, j, k), (path, fork, *rest) in relation_monomials(n).items():
            element = basis.element((i, j, k))
            expected = reference_generator(i, j, k, n, beta, alpha)
            relation = ideal_generator(i, j, k, n, beta, alpha)
            assert relation == expected
            assert element == -expected
            assert head(element) == (mono(n, (i, k), (i, j)), 1)
            # A zero parameter leaves its term out rather than storing a zero.
            assert len(relation.terms) == 3 + (beta != 0) + (alpha != 0)
            assert all(relation.terms.values()) and all(element.terms.values())
            assert (mono(n, (i, k)) in relation.terms) == (beta != 0)
            assert (mono_one(n) in relation.terms) == (alpha != 0)
            # The tail at (b, a) is head - element: the relation without its head term.
            coeffs = (1 if c is None else c for c in fraction_tail(basis))
            assert accumulate({}, zip((path, *rest), coeffs)) == {
                m: c for m, c in expected.terms.items() if m != fork
            }


def fork_rich(n: int, rng: random.Random) -> XPoly:
    """A random polynomial times a random fork x[i,j]*x[i,k]."""
    i, j, k = sorted(rng.sample(range(1, n + 1), 3))
    return random_xpoly(n, 3, 4, rng) * XPoly.from_monomial(mono(n, (i, j), (i, k)))


def check_steps_match_reference(p: XPoly, basis: GroebnerBasis) -> int:
    """Every step that applies to q = rescaled(p, L), at the basis's
    integral point, divides back to p - c*s*g built with XPoly arithmetic at
    (b, a), writes s times x[i,j]*x[j,k], x[i,k]*x[j,k], x[i,k] and 1 in
    that order, and names every monomial it changed; returns the count."""
    q, factors = rescaled(p, basis.scale)
    steps = 0
    for m, c in p.terms.items():
        for triple, (path, fork, *rest) in relation_monomials(basis.n).items():
            shift = mono_div(m, fork)
            if shift is None:
                continue
            expected = p - basis.element(triple).mul_term(shift, c)
            terms = dict(q.terms)
            written = reduce_step(terms, m, triple, basis)
            assert written == [mono_mul(shift, t) for t in (path, *rest)]
            assert unscaled(XPoly._raw(p.n, terms), factors) == expected
            assert all(terms.values())
            changed = {
                key for key in set(q.terms) | set(terms) if q.terms.get(key) != terms.get(key)
            }
            assert changed <= {m, *written}
            steps += 1
    return steps


@pytest.mark.parametrize("beta, alpha", PARAMS)
def test_reduce_step_matches_arithmetic_reference(beta, alpha):
    rng = random.Random(derive_seed(11, PARAMS.index((beta, alpha))))
    steps = 0
    for n in (3, 4, 5, 6):
        basis = generate_basis(n, beta, alpha)
        for _ in range(30):
            p = fork_rich(n, rng).substitute(beta, alpha)
            steps += check_steps_match_reference(p, basis)
    assert steps >= 300


@pytest.mark.parametrize("beta, alpha", PARAMS)
def test_element_is_negated_relation_with_monic_head(beta, alpha):
    for n in range(3, 7):
        basis = generate_basis(n, beta, alpha)
        for triple, (_, fork, *_) in relation_monomials(n).items():
            element = basis.element(triple)
            assert head(element) == (fork, 1)
            assert element == -ideal_generator(*triple, n, beta, alpha)


def test_ideal_generator_specialization():
    g = ideal_generator(1, 2, 3, 3, beta=1, alpha=0)
    assert g == parse_poly("x[1,2]*x[2,3] - x[1,3]*x[1,2] - x[1,3]*x[2,3] - x[1,3]", 3)
    with pytest.raises(ValueError):
        ideal_generator(2, 1, 3, 3)


def test_reduce_step_examples():
    basis = generate_basis(3)
    fork = mono(3, (1, 3), (1, 2))
    expected = parse_poly("x[1,2]*x[2,3] - x[1,3]*x[2,3] - b*x[1,3] - a", 3)
    assert applied(reduce_step, XPoly.from_monomial(fork), fork, (1, 2, 3), basis) == expected
    deeper = mono(3, (1, 3), (1, 3), (1, 2))
    reduced = applied(reduce_step, XPoly.from_monomial(deeper), deeper, (1, 2, 3), basis)
    assert reduced == expected * XPoly.variable(1, 3, 3)
    scaled = parse_poly("b*x[1,3]*x[1,2] + x[2,3]", 3)
    reduced = applied(reduce_step, scaled, fork, (1, 2, 3), basis)
    assert reduced == expected.scale(BETA) + XPoly.variable(2, 3, 3)


def test_reduce_step_errors():
    basis = generate_basis(4)
    forkless_poly = parse_poly("x[1,2]*x[2,3] + b*x[1,3]", 4)
    path = mono(4, (1, 2), (2, 3))
    fork = mono(4, (1, 3), (1, 2))
    wider = mono(5, (1, 3), (1, 2))
    cases = (
        (forkless_poly, path, (1, 2, 3)),  # head does not divide
        (XPoly.from_monomial(fork), fork, (1, 2, 4)),
        (forkless_poly, fork, (1, 2, 3)),  # absent monomial
        (XPoly.from_monomial(fork), fork, (2, 1, 3)),
        (XPoly.from_monomial(fork), fork, (1, 2, 5)),  # no such element at n=4
        (forkless_poly, mono(4, (1, 3), (1, 3)), (1, 2, 3)),  # absent, head does not divide
        (XPoly.from_monomial(wider), wider, (1, 2, 3)),  # another ambient size
    )
    for p, at, triple in cases:
        terms = dict(p.terms)
        text = f"basis element {triple} does not reduce {format_monomial(at)}"
        with pytest.raises(RewriteError, match=f"^{re.escape(text)}$"):
            reduce_step(terms, at, triple, basis)
        assert terms == p.terms


def test_normal_form_script():
    basis = generate_basis(3)
    fork = mono(3, (1, 3), (1, 2))
    p = XPoly.from_monomial(fork)
    assert normal_form(p, basis, ScriptStrategy(((fork, (1, 2, 3)),))) == normal_form(p, basis)
    with pytest.raises(RewriteError, match="script exhausted"):
        normal_form(p, basis, ScriptStrategy(()))
    with pytest.raises(RewriteError, match="script step 1 does not apply"):
        normal_form(p, basis, ScriptStrategy(((fork, (1, 2, 4)),)))


def test_normal_form_fixes_forkless():
    basis = generate_basis(4)
    for degree in range(4):
        for m in all_monomials(4, degree):
            if is_forkless(m):
                p = XPoly.from_monomial(m)
                assert normal_form(p, basis) == p


def test_normal_form_kills_generators():
    for n in (3, 4, 5):
        basis = generate_basis(n)
        for i, j, k in combinations(range(1, n + 1), 3):
            assert normal_form(ideal_generator(i, j, k, n), basis).is_zero()


def test_normal_form_is_forkless():
    basis = generate_basis(4)
    p = parse_poly("x[1,4]*x[1,3]*x[1,2]", 4)
    nf = normal_form(p, basis)
    assert nf != p
    assert all(is_forkless(m) for m in nf.terms)
    assert not nf.is_zero()
    start = parse_poly(GAME_START, 4)
    assert normal_form(start, basis) == start  # a path has no row fork


def test_confluence_random_choosers():
    bases = {n: generate_basis(n) for n in (2, 3, 4, 5)}
    rng = random.Random(17)
    for trial in range(200):
        n = rng.randint(2, 5)
        p = random_xpoly(n, 4, 5, rng)
        reference = normal_form(p, bases[n])
        for s in range(3):
            strategy = RandomStrategy(derive_seed(17, trial, s))
            assert normal_form(p, bases[n], strategy) == reference


def test_consistency_with_pathless_game():
    bases = {n: generate_basis(n) for n in (3, 4, 5)}
    strategies = (FirstByOrder(), LastByOrder(), RandomStrategy(23))
    rng = random.Random(19)
    for trial in range(200):
        n = rng.randint(3, 5)
        p = random_xpoly(n, 4, 4, rng)
        q, _ = reduce_pathless(p, strategies[trial % 3])
        assert normal_form(p - q, bases[n]).is_zero()


def test_reduce_step_only_introduces_smaller_monomials():
    basis = generate_basis(4)
    rng = random.Random(29)
    for _ in range(100):
        p = random_xpoly(4, 4, 4, rng)
        for target in p.terms:
            for triple, (_, fork, *_) in relation_monomials(4).items():
                if not all(x >= y for x, y in zip(target, fork)):
                    continue
                reduced = applied(reduce_step, p, target, triple, basis)
                assert target not in reduced.terms
                for m in reduced.terms:
                    if m not in p.terms:
                        assert m < target


def test_normal_form_step_bound():
    basis = generate_basis(4)
    p = parse_poly("x[1,4]*x[1,3]*x[1,2]", 4)
    with pytest.raises(ResourceLimitError, match="normal form did not terminate within 1 steps"):
        normal_form(p, basis, max_steps=1)


def u_elements(a, b, c, d, n):
    basis = generate_basis(n)
    return (
        basis.element((a, b, c)),
        basis.element((a, b, d)),
        basis.element((a, c, d)),
        basis.element((b, c, d)),
    )


def test_spol_examples():
    basis = generate_basis(4)
    g = basis.element((1, 2, 3))
    assert spol(g, g).is_zero()

    u1, u2, u3, u4 = u_elements(1, 2, 3, 4, 4)
    x_ad = XPoly.variable(1, 4, 4)
    x_ac = XPoly.variable(1, 3, 4)
    assert spol(u1, u2) == x_ad * u1 - x_ac * u2

    basis6 = generate_basis(6)
    g1 = basis6.element((1, 2, 3))
    g2 = basis6.element((4, 5, 6))
    m1 = XPoly.from_monomial(max(g1.terms))
    m2 = XPoly.from_monomial(max(g2.terms))
    assert spol(g1, g2) == m2 * g1 - m1 * g2


def test_proof_identities():
    for n in (4, 5, 6):
        for a, b, c, d in combinations(range(1, n + 1), 4):
            u1, u2, u3, u4 = u_elements(a, b, c, d, n)
            x = lambda i, j: XPoly.variable(i, j, n)
            beta = XPoly.constant(n, BETA)
            first = (
                u1 * (x(a, d) - x(b, d))
                - u2 * (x(a, c) - x(b, c))
                - u3 * (x(b, c) - x(b, d))
                + u4 * (x(a, c) - x(a, d))
            )
            assert first.is_zero()
            second = (
                beta * u3 - beta * u2 - x(a, b) * u4 - x(b, c) * u2
                + x(b, c) * u3 + x(a, d) * u4 + x(c, d) * u1 - x(c, d) * u2
            )
            assert x(a, d) * u1 - x(a, b) * u3 == second
            third = (
                beta * u3 - beta * u2 - x(a, b) * u4 + x(a, c) * u4
                - x(b, d) * u1 + x(c, d) * u1 + x(b, d) * u3 - x(c, d) * u2
            )
            assert x(a, c) * u2 - x(a, b) * u3 == third


def test_proof_identity_head_products_distinct():
    from subdivalg.poly import mono_mul, var_position

    for n in (4, 5, 6):
        for a, b, c, d in combinations(range(1, n + 1), 4):
            u1, u2, u3, u4 = u_elements(a, b, c, d, n)
            heads = [max(u.terms) for u in (u1, u2, u3, u4)]

            def shifted(i, j, u_index):
                exps = [0] * len(heads[0])
                exps[var_position(i, j, n)] = 1
                return mono_mul(tuple(exps), heads[u_index])

            first = [
                shifted(b, c, 1), shifted(a, c, 3), shifted(b, d, 0),
                shifted(b, c, 2), shifted(a, d, 3), shifted(b, d, 2),
            ]
            second = [
                heads[2], heads[1], shifted(a, b, 3), shifted(b, c, 1),
                shifted(b, c, 2), shifted(a, d, 3), shifted(c, d, 0),
                shifted(c, d, 1),
            ]
            third = [
                heads[2], heads[1], shifted(a, b, 3), shifted(a, c, 3),
                shifted(b, d, 0), shifted(c, d, 0), shifted(b, d, 2),
                shifted(c, d, 1),
            ]
            for batch in (first, second, third):
                assert len(set(batch)) == len(batch)


def test_buchberger_small():
    assert buchberger_check(generate_basis(3))
    assert buchberger_check(generate_basis(4))
    assert buchberger_check(generate_basis(5))


def test_buchberger_detects_perturbation(monkeypatch):
    drop_constant_term(monkeypatch)
    for n in (4, 5, 6):
        report = buchberger_check(generate_basis(n))
        assert not report
        # The overlaps of (1, 2, 3), (1, 2, k) and (1, 3, k), for each k > 3.
        expected = [
            f"pair {t1} {t2}"
            for k in range(4, n + 1)
            for t1, t2 in combinations(((1, 2, 3), (1, 2, k), (1, 3, k)), 2)
        ]
        assert sorted(report.failures) == sorted(expected)
        assert len(report.failures) == 3 * (n - 3)


def checked_pairs(monkeypatch, basis: GroebnerBasis) -> tuple:
    """The pairs the Buchberger check names, the s-polynomials it reduces,
    in order, and the basis of each step it takes: each reduction runs on
    the table's memo and is then made to end on a nonzero state, so that
    every pair is a failure."""
    reduced, bases = [], []
    real_rewrite, real_step = groebner.rewrite, groebner.reduce_step
    _, memo = groebner._overlap_table(basis.n)

    def recorded(p, name, rules, step, *rest):
        assert rules is memo and not rest
        reduced.append(p)
        yield from real_rewrite(p, name, rules, step)
        yield None, None, {mono_one(p.n): 1}

    def stepped(terms, mono, triple, on):
        bases.append(on)
        return real_step(terms, mono, triple, on)

    with monkeypatch.context() as patch:
        patch.setattr(groebner, "rewrite", recorded)
        patch.setattr(groebner, "reduce_step", stepped)
        report = buchberger_check(basis)
    assert report.counts["pairs"] == len(report.failures) == len(reduced)
    return report.failures, reduced, bases


def overlapping_heads(n: int) -> list:
    """Every pair of triples whose heads have a common variable, by brute
    force over all pairs, in `combinations_with_replacement` order."""
    heads = {triple: monos[1] for triple, monos in relation_monomials(n).items()}
    pairs = combinations_with_replacement(heads, 2)
    return [(t1, t2) for t1, t2 in pairs if any(map(mul, heads[t1], heads[t2]))]


def test_buchberger_pairs_are_the_overlaps(monkeypatch):
    """The pairs drawn from the triples of each head variable are those of
    every head pair with a common variable, in the same order."""
    for n in range(2, 10):
        pairs, _, _ = checked_pairs(monkeypatch, generate_basis(n))
        assert pairs == [f"pair {t1} {t2}" for t1, t2 in overlapping_heads(n)]
        assert len(pairs) == comb(n, 3) + 3 * comb(n, 4)


@pytest.mark.parametrize("beta, alpha", PARAMS)
def test_buchberger_spolys_match_elements(monkeypatch, beta, alpha):
    """The check writes each s-polynomial with the step kernels, never from
    the elements; it must still be spol of two elements at the point the
    basis steps at, the integral point (L*b, L^2*a), and each of its steps
    is on the basis; spol of those elements scaled by 2 and 3 (head
    coefficients 2 and 3) is 6 times it."""
    _, beta_at, alpha_at = integral_point(beta, alpha)
    steps = 0
    for n in range(3, 8):
        basis = generate_basis(n, beta, alpha)
        pairs, reduced, bases = checked_pairs(monkeypatch, basis)
        expected = overlapping_heads(n)
        assert pairs == [f"pair {t1} {t2}" for t1, t2 in expected]
        assert all(on is basis for on in bases)
        steps += len(bases)
        at = generate_basis(n, beta_at, alpha_at)
        assert at.scale == 1 and at.tail == basis.tail
        for (t1, t2), s in zip(expected, reduced):
            g1, g2 = at.element(t1), at.element(t2)
            assert s.terms == spol(g1, g2).terms
            assert spol(g1.scale(2), g2.scale(3)) == s.scale(6)
            assert all(s.terms.values())
            assert s.is_zero() == (t1 == t2)
    assert steps > 0


def test_overlap_table_is_built_once_per_n(monkeypatch):
    """The check's table at n lists the overlaps, each with the lcm of its
    heads, and is built once.  Its fork-triple memo is filled by the first
    pass of checks at n and only read by later ones, at any point, and a
    normal form outside a check leaves it alone."""
    for n in range(2, 8):
        pairs, _ = groebner._overlap_table(n)
        heads = {triple: monos[1] for triple, monos in relation_monomials(n).items()}
        assert [(t1, t2) for t1, t2, _ in pairs] == overlapping_heads(n)
        assert [lcm for _, _, lcm in pairs] == [
            tuple(map(max, heads[t1], heads[t2])) for t1, t2 in overlapping_heads(n)
        ]
        assert groebner._overlap_table(n) is groebner._overlap_table(n)
    _, memo = groebner._overlap_table(6)
    found = []

    def counted(m):
        found.append(m)
        return groebner._fork_triples(m)

    monkeypatch.setattr(memo, "find", counted)
    memo.clear()
    points = ((None, None), (3, -2), (Fraction(1, 3), 2), (0, 0))
    for beta, alpha in points:
        assert buchberger_check(generate_basis(6, beta, alpha))
    size = len(memo)
    assert len(found) == size > 0
    found.clear()
    assert buchberger_check(generate_basis(6))
    assert found == []
    for beta, alpha in points:
        assert buchberger_check(generate_basis(6, beta, alpha))
    assert found == [] and len(memo) == size
    basis = generate_basis(6)
    p = fork_rich(6, random.Random(59)) + XPoly.from_monomial(mono(6, (1, 2), (1, 3), (1, 4), (5, 6)))
    assert normal_form(p, basis) != p
    assert len(basis.rules) > 0 and basis.rules is not memo
    assert found == [] and len(memo) == size


def test_reused_basis_gives_fresh_normal_forms():
    """A basis keeps step kernels and fork triples across normal forms; one
    reused for every earlier normal form gives the same result as a fresh
    one, and normal forms are unique, so both strategies agree."""
    rng = random.Random(37)
    for n in (5, 6):
        reused = generate_basis(n)
        for _ in range(30):
            p = fork_rich(n, rng)
            fresh = normal_form(p, generate_basis(n))
            assert fresh != p and all(is_forkless(m) for m in fresh.terms)
            for strategy in (FirstByOrder(), LastByOrder()):
                assert normal_form(p, reused, strategy) == fresh
                assert normal_form(p, generate_basis(n), strategy) == fresh


@pytest.mark.parametrize("beta, alpha", PARAMS)
def test_one_relation_two_readings(beta, alpha):
    """Both reductions read the relation g = ideal_generator(i, j, k) at the
    point a basis steps at, the integral point (L*b, L^2*a): a game
    step takes c*r*x[i,j]*x[j,k] to c*r*(x[i,j]*x[j,k] - g), and a basis step
    takes c*r*x[i,k]*x[i,j] to c*r*(x[i,k]*x[i,j] + g).  Each returns the
    monomials it wrote in its kernel's order: all four of the other terms,
    with coefficient 0 where b or a is 0."""
    _, beta_at, alpha_at = integral_point(beta, alpha)
    b, a = resolve_param(beta_at, BETA), resolve_param(alpha_at, ALPHA)
    checked = 0
    for n in range(3, 7):
        basis = generate_basis(n, beta, alpha)
        cofactors = (mono_one(n), mono(n, (1, n)), mono(n, (1, 2), (2, 3), (n - 1, n)))
        for triple, (path, fork, ik_jk, ik, one) in relation_monomials(n).items():
            g = ideal_generator(*triple, n, beta_at, alpha_at)
            for r in cofactors:
                c = (BETA + 1, 2, Fraction(3, 2))[checked % 3]
                rg = g.mul_term(r, c)
                at = mono_mul(path, r)
                terms = {at: c}
                written = pathless_step(terms, at, triple, b, a)
                assert XPoly._raw(n, terms) == XPoly.from_monomial(at).scale(c) - rg
                assert written == [mono_mul(m, r) for m in (fork, ik_jk, ik, one)]
                at = mono_mul(fork, r)
                terms = {at: c}
                written = reduce_step(terms, at, triple, basis)
                assert XPoly._raw(n, terms) == XPoly.from_monomial(at).scale(c) + rg
                assert written == [mono_mul(m, r) for m in (path, ik_jk, ik, one)]
                checked += 1
    assert checked == 3 * (1 + 4 + 10 + 20)


def test_rule_sets_go_without_the_cycle_collector(monkeypatch):
    """A basis holds its rule set, which holds nothing of the basis, and a
    game's rule set lives in its call: reference counting alone frees both."""
    made = []

    class Recorded(rewrite.RuleSet):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(weakref.ref(self))

    p = parse_poly("x[1,4]*x[1,3]*x[1,2] + b*x[1,2]*x[2,3]*x[3,4]", 4)
    enabled = gc.isenabled()
    gc.disable()
    try:
        basis = generate_basis(4)
        assert normal_form(p, basis) != p
        refs = weakref.ref(basis), weakref.ref(basis.rules)
        del basis
        assert [ref() for ref in refs] == [None, None]
        monkeypatch.setattr(rewrite, "RuleSet", Recorded)
        _, trace = reduce_pathless(p)
        assert trace and len(made) == 1 and made[0]() is None
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("beta, alpha", PARAMS)
def test_spol_matches_arithmetic_reference(beta, alpha):
    pairs = 0
    for n in (3, 4, 5, 6):
        basis = generate_basis(n, beta, alpha)
        elements = [basis.element(triple) for triple in relation_monomials(n)]
        doubled = [g.scale(2) for g in elements]
        # Head coefficients 1 and 1, 2 and 2, and 1 and 2.
        for first, second in ((elements, elements), (doubled, doubled), (elements, doubled)):
            for g1, g2 in product(first, second):
                (h1, c1), (h2, c2) = head(g1), head(g2)
                if not any(map(min, h1, h2)):
                    continue
                lcm = tuple(map(max, h1, h2))
                expected = g1.mul_term(mono_div(lcm, h1), c2) - g2.mul_term(mono_div(lcm, h2), c1)
                got = spol(g1, g2)
                assert got == expected
                assert all(got.terms.values())
                pairs += 1
    # The Buchberger check's 1, 7, 25 and 65 pairs at n = 3..6, each pair of
    # two elements in both orders, for each of the three combinations.
    assert pairs == 3 * (2 * (1 + 7 + 25 + 65) - (1 + 4 + 10 + 20))


def test_ideal_member_examples():
    basis = generate_basis(3)
    assert ideal_member(ideal_generator(1, 2, 3, 3), basis)
    assert not ideal_member(XPoly.variable(1, 2, 3), basis)
    p = parse_poly(GAME_START, 4)
    q1, _ = reduce_pathless(p, parse_script(GAME_SCRIPT, 4), beta=1, alpha=0)
    q2, _ = reduce_pathless(p, parse_script(ALT_SCRIPT, 4), beta=1, alpha=0)
    specialized = generate_basis(4, beta=1, alpha=0)
    assert ideal_member(q1 - q2, specialized)
    assert not ideal_member(q1 - q2, generate_basis(4))  # generic parameters see a different ideal


def test_ambient_mismatch():
    with pytest.raises(ValueError):
        normal_form(XPoly.variable(1, 2, 3), generate_basis(4))
