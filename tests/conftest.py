"""Shared test data: the worked-example game scripts and small generators.

The two scripts start from x[1,2]*x[2,3]*x[3,4] at n=4 and end at two
different pathless polynomials with the same d-image; GAME_SCRIPT is the
move sequence of the worked example and ALT_SCRIPT differs from it in the
order of the middle moves.
"""

import random
from itertools import combinations

from subdivalg import groebner, series
from subdivalg.poly import is_pathless, num_vars
from subdivalg.rewrite import COEFF_CHOICES, random_xpoly
from subdivalg.ring import substitute_coeff

GAME_START = "x[1,2]*x[2,3]*x[3,4]"

GAME_SCRIPT = """\
m=x[1,2]*x[2,3]*x[3,4] t=(1,2,3)
m=x[1,2]*x[1,3]*x[3,4] t=(1,3,4)
m=x[1,3]*x[2,3]*x[3,4] t=(2,3,4)
m=x[1,3]*x[3,4] t=(1,3,4)
m=x[1,3]*x[2,4]*x[3,4] t=(1,3,4)
"""

ALT_SCRIPT = """\
m=x[1,2]*x[2,3]*x[3,4] t=(1,2,3)
m=x[1,3]*x[2,3]*x[3,4] t=(1,3,4)
m=x[1,4]*x[2,3]*x[3,4] t=(2,3,4)
m=x[1,2]*x[1,3]*x[3,4] t=(1,3,4)
m=x[1,3]*x[3,4] t=(1,3,4)
"""

# End states of the two scripts at beta=1, alpha=0, in canonical text form.
GAME_RESULT = (
    "x[1,2]*x[1,3]*x[1,4] + x[1,2]*x[1,4]*x[3,4] + x[1,2]*x[1,4]"
    " + x[1,3]*x[1,4]*x[2,4] + x[1,3]*x[1,4] + x[1,3]*x[2,3]*x[2,4]"
    " + x[1,3]*x[2,4] + x[1,4]*x[2,4]*x[3,4] + x[1,4]*x[2,4]"
    " + x[1,4]*x[3,4] + x[1,4]"
)

ALT_RESULT = (
    "x[1,2]*x[1,3]*x[1,4] + x[1,2]*x[1,4]*x[3,4] + x[1,2]*x[1,4]"
    " + x[1,3]*x[1,4]*x[2,3] + x[1,3]*x[1,4] + x[1,4]*x[2,3]*x[2,4]"
    " + x[1,4]*x[2,3] + x[1,4]*x[2,4]*x[3,4] + x[1,4]*x[2,4]"
    " + x[1,4]*x[3,4] + x[1,4]"
)

GAME_D_IMAGE = (
    "t[1]^3 + t[1]^2*t[2] + t[1]^2*t[3] + 2*t[1]^2 + t[1]*t[2]^2"
    " + t[1]*t[2]*t[3] + 2*t[1]*t[2] + t[1]*t[3] + t[1]"
)


def random_monomial(n: int, max_deg: int, rng: random.Random) -> tuple:
    width = num_vars(n)
    exps = [0] * width
    if width:
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(width)] += 1
    return tuple(exps)


def random_pathless_monomial(n: int, max_deg: int, rng: random.Random) -> tuple:
    while True:
        m = random_monomial(n, max_deg, rng)
        if is_pathless(m):
            return m


def applied(step, p, *args, **kwargs):
    """The polynomial an in-place rewriting step makes of a copy of p's terms;
    p itself is left as it was."""
    terms = dict(p.terms)
    step(terms, *args, **kwargs)
    return type(p)._raw(p.n, terms)


def drop_constant_term(monkeypatch, triple=(1, 2, 3)):
    """Bases made after this call step at triple's head without writing the
    constant term, so that the rule the Buchberger check reads loses its -a."""
    kernels = groebner._fork_kernels

    def broken(n):
        width, head, edits = kernels(n)[triple]
        return {**kernels(n), triple: (width, head, edits[:-1])}

    monkeypatch.setattr(groebner, "_fork_kernels", broken)


def a_kills_j_draws(n, samples, seed, beta, alpha) -> list:
    """(label, polynomial) of each case verify_a_kills_j checks, in its
    order and at (beta, alpha): every generator, then the products drawn
    from random.Random(seed).  The generators come from
    series.ideal_generator, as the sweep's do, so a patch there shows."""
    triples = list(combinations(range(1, n + 1), 3))
    draws = [(f"generator {t}", series.ideal_generator(*t, n, beta, alpha)) for t in triples]
    rng = random.Random(seed)
    for index in range(samples):
        triple = triples[rng.randrange(len(triples))]
        coeff = substitute_coeff(rng.choice(COEFF_CHOICES), beta, alpha)
        [mono] = random_xpoly(n, 3, 1, rng).terms
        product = series.ideal_generator(*triple, n, beta, alpha).mul_term(mono, coeff)
        draws.append((f"product {index} over generator {triple}", product))
    return draws
