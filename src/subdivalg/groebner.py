"""Groebner machinery for the defining relations.

The relations

    x[i,j]*x[j,k] - x[i,k]*(x[i,j] + x[j,k] + b) - a        (i < j < k)

generate the ideal the quotient algebra divides by.  Negating each one
gives a monic family with head term x[i,k]*x[i,j] under the term order
of the poly module:

    x[i,k]*x[i,j] - x[i,j]*x[j,k] + x[i,k]*x[j,k] + b*x[i,k] + a

This family is a Groebner basis; `buchberger_check` confirms the
criterion mechanically and `normal_form` reduces any polynomial to its
unique forkless representative (the monomials with no x[i,j]*x[i,k]
divisor are exactly the irreducible ones).  `ideal_generator` writes the
five terms of a relation from the monomials `rewrite.relation_monomials`
lists, leaving out the b and a terms where those parameters are zero.

One check covers every n.  Two heads x[i,k]*x[i,j] that share a variable
share its two indices, so each s-polynomial the check reduces lives on
at most 4 indices; heads with no common variable need no check.  A step
uses the element of a triple of its monomial's indices and writes
monomials on the same indices, so the reduction stays on them.  An
order-preserving map of {1..4} into {1..n} keeps the term order (lex on
row-major slots) and takes relations to relations, so `verify --n 4
groebner` covers every n; larger n stress-test the engine.

`normal_form` runs the engine of the rewrite module on the basis's
`RuleSet`; the engine's step bound guards against defects, not against
the math.  `spol` writes both shifted elements into one dict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement, compress
from operator import add, mul
from typing import Optional

from .poly import (
    Monomial,
    Triple,
    XPoly,
    accumulate,
    format_monomial,
    mono_div,
    mono_lcm,
    slot_partners,
)
from .rewrite import (
    DEFAULT_MAX_STEPS,
    FirstByOrder,
    Report,
    RewriteError,
    RuleSet,
    Strategy,
    compile_kernel,
    kernel_step,
    relation_monomials,
    rewrite,
)
from .ring import ALPHA, BETA, RationalLike, resolve_param


def ideal_generator(
    i: int,
    j: int,
    k: int,
    n: int,
    beta: Optional[RationalLike] = None,
    alpha: Optional[RationalLike] = None,
) -> XPoly:
    """The defining relation x[i,j]*x[j,k] - x[i,k]*(x[i,j]+x[j,k]+b) - a,
    its terms written from their monomials; a zero b or a term is left out."""
    if not (1 <= i < j < k <= n):
        raise ValueError(f"need 1 <= i < j < k <= n, got ({i},{j},{k}) with n={n}")
    path, fork, ik_jk, ik, one = relation_monomials(n)[(i, j, k)]
    b, a = resolve_param(beta, BETA), resolve_param(alpha, ALPHA)
    terms = accumulate({path: 1, fork: -1, ik_jk: -1}, ((ik, b), (one, a)), negate=True)
    return XPoly._raw(n, terms)


@dataclass(frozen=True)
class BasisElement:
    """The basis element poly of triple, with head monomial head.

    tail is derived: the monomials and coefficients of head - poly.  A
    monic head cancels in it, leaving poly's other terms negated in
    poly's order; any other head stays, with coefficient 1 - lead."""

    triple: Triple
    poly: XPoly
    head: Monomial
    tail: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tail = accumulate({self.head: 1}, self.poly.terms.items(), negate=True)
        object.__setattr__(self, "tail", (tuple(tail), tuple(tail.values())))


class GroebnerBasis:
    """The monic basis, one element per triple i < j < k, in lex order.

    `rules` is its RuleSet, shared by every normal form on it: the rule of
    each element, compiled at first use, and the fork triples of each
    monomial.  It holds nothing of the basis, so it goes with it."""

    def __init__(self, n: int, elements: list):
        self.n = n
        self.elements = tuple(elements)
        self._by_triple = {e.triple: e for e in self.elements}
        self.rules = RuleSet(_fork_triples)

    def element(self, triple: Triple) -> BasisElement:
        return self._by_triple[triple]

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


def generate_basis(
    n: int,
    beta: Optional[RationalLike] = None,
    alpha: Optional[RationalLike] = None,
) -> GroebnerBasis:
    """Basis elements -1 * relation, head x[i,k]*x[i,j], for all triples."""
    elements = []
    for i, j, k in combinations(range(1, n + 1), 3):
        poly = -ideal_generator(i, j, k, n, beta, alpha)
        head, lead = poly.head()
        if lead != 1:
            raise ValueError(f"basis element {(i, j, k)} is not monic: {poly}")
        elements.append(BasisElement((i, j, k), poly, head))
    return GroebnerBasis(n, elements)


def _fork_triples(m: Monomial) -> list:
    """Triples (i, j, k) whose basis head x[i,k]*x[i,j] divides m, lex order."""
    partners = slot_partners(len(m), True)
    return [t for row in compress(partners, m) for pos, t in row if m[pos]]


def reduce_step(terms: dict, mono: Monomial, triple: Triple, basis: GroebnerBasis) -> list:
    """One reduction terms - c*s*g in place at monomial mono, with c its
    coefficient, g the basis element of triple and s = mono / head(g): the
    `kernel_step` of g's tail, head(g) - g, compiled once per basis; returns
    the monomials it wrote.  A step that does not apply raises RewriteError
    and changes nothing."""
    compiled = basis.rules.compiled
    rule = compiled.get(triple)
    if rule is None and (g := basis._by_triple.get(triple)) is not None:
        coeffs = tuple(None if c == 1 else c for c in g.tail[1])
        rule = compiled[triple] = compile_kernel(g.head, g.tail[0]), coeffs
    written = None if rule is None else kernel_step(terms, mono, *rule)
    if written is None:
        raise RewriteError(f"basis element {triple} does not reduce {format_monomial(mono)}")
    return written


def normal_form(
    p: XPoly,
    basis: GroebnerBasis,
    strategy: Strategy = FirstByOrder(),
    max_steps: int = DEFAULT_MAX_STEPS,
) -> XPoly:
    """Reduce to the unique forkless representative."""
    if p.n != basis.n:
        raise ValueError(f"ambient size mismatch: {p.n} vs {basis.n}")
    # The step is looked up per step, so run-time wrappers of it see every call.
    step = lambda terms, mono, triple: reduce_step(terms, mono, triple, basis)  # noqa: E731
    terms = None
    for _, _, terms in rewrite(p, "normal form", basis.rules, step, strategy, max_steps):
        pass
    return p if terms is None else XPoly._raw(p.n, terms)


def spol(g1: XPoly, g2: XPoly) -> XPoly:
    """c2*s1*g1 - c1*s2*g2, with c1, c2 the head coefficients and s1, s2
    the shifts that take both heads to their lcm, built in one dict."""
    h1, c1 = g1.head()
    h2, c2 = g2.head()
    lcm = mono_lcm(h1, h2)
    s1 = mono_div(lcm, h1)
    s2 = mono_div(lcm, h2)
    terms = {tuple(map(add, m, s1)): c2 * c for m, c in g1.terms.items()}
    shifted = ((tuple(map(add, m, s2)), c1 * c) for m, c in g2.terms.items())
    return g1._like(accumulate(terms, shifted, negate=True))


def _heads_disjoint(a: Monomial, b: Monomial) -> bool:
    return not any(map(mul, a, b))


def buchberger_check(basis: GroebnerBasis, max_steps: int = DEFAULT_MAX_STEPS) -> Report:
    """Every s-polynomial of a non-disjoint head pair reduces to zero; each
    pair whose s-polynomial does not is one failure, named by its triples.

    Pairs with disjoint heads reduce to zero automatically and are skipped.
    """
    report = Report({"n": basis.n, "elements": len(basis)}, {"pairs": 0})
    for e1, e2 in combinations_with_replacement(basis.elements, 2):
        if _heads_disjoint(e1.head, e2.head):
            continue
        if not normal_form(spol(e1.poly, e2.poly), basis, max_steps=max_steps).is_zero():
            report.failures.append(f"pair {e1.triple} {e2.triple}")
        report.counts["pairs"] += 1
    return report


def ideal_member(p: XPoly, basis: Optional[GroebnerBasis] = None) -> bool:
    """Membership in the defining ideal: the normal form vanishes.

    Pass a specialized basis when p lives at numeric parameter values.
    """
    if basis is None:
        basis = generate_basis(p.n)
    return normal_form(p, basis).is_zero()
