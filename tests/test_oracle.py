"""sympy as an outside oracle for the Groebner basis and the normal form.

With generators ordered x[1,2] > x[1,3] > ... > x[n-1,n] and the lex term
order, sympy's reduced Groebner basis of the defining relations must be
exactly `generate_basis`, and `sympy.reduced` must leave the remainder that
`normal_form` computes.  Neither check runs any code of this package on
the sympy side.
"""

import random
from fractions import Fraction

import pytest

from subdivalg.groebner import generate_basis, ideal_generator, normal_form
from subdivalg.poly import pair_list
from subdivalg.rewrite import random_xpoly, relation_monomials
from subdivalg.ring import Coeff

sympy = pytest.importorskip("sympy")

PARAMS = [(1, 2), (0, 0), (Fraction(1, 3), -1)]


def gens(n: int) -> list:
    return [sympy.Symbol(f"x{i}_{j}") for i, j in pair_list(n)]


def to_sympy(p, symbols: list):
    """The polynomial as a sympy expression; b and a become symbols b, a,
    and a coefficient that is a plain number is a constant."""
    b, a = sympy.symbols("b a")
    total = sympy.Integer(0)
    for mono, coeff in p.terms.items():
        x_part = sympy.Mul(*(s**e for s, e in zip(symbols, mono)))
        items = coeff._terms.items() if isinstance(coeff, Coeff) else [((0, 0), coeff)]
        for (deg_b, deg_a), value in items:
            scalar = sympy.Rational(value.numerator, value.denominator)
            total += scalar * b**deg_b * a**deg_a * x_part
    return sympy.expand(total)


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("beta, alpha", PARAMS)
def test_reduced_lex_basis_matches_sympy(n, beta, alpha):
    symbols = gens(n)
    relations = [
        to_sympy(ideal_generator(i, j, k, n, beta, alpha), symbols)
        for i in range(1, n + 1) for j in range(i + 1, n + 1) for k in range(j + 1, n + 1)
    ]
    oracle = sympy.groebner(relations, *symbols, order="lex")
    basis = generate_basis(n, beta, alpha)
    ours = [to_sympy(basis.element(triple), symbols) for triple in relation_monomials(n)]
    assert set(oracle.exprs) == set(ours)


def test_normal_form_matches_sympy_remainder():
    n = 4
    symbols = gens(n)
    reduced = 0
    for index in range(21):
        beta, alpha = PARAMS[index % len(PARAMS)]
        basis = generate_basis(n, beta, alpha)
        oracle = [to_sympy(basis.element(triple), symbols) for triple in relation_monomials(n)]
        p = random_xpoly(n, 4, 4, random.Random(index)).substitute(beta, alpha)
        _, remainder = sympy.reduced(to_sympy(p, symbols), oracle, *symbols, order="lex")
        result = normal_form(p, basis)
        assert sympy.expand(remainder) == to_sympy(result, symbols), index
        reduced += result != p
    assert reduced >= 10  # most inputs have a fork to reduce
