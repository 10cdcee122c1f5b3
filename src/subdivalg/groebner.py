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
five terms of a relation straight from their monomials, leaving out the
b and a terms where those parameters are zero.

`normal_form` runs the rewriting engine of the rewrite module with the
fork triples of a monomial and `reduce_step`, which subtracts in place a
multiple of a basis element chosen so the rewritten monomial is replaced
by strictly smaller ones, and returns the monomials of that multiple, so
the engine updates its reducible set without rescanning.  Each
`BasisElement` carries its tail pre-negated, head - g, in which a monic
head cancels; a step deletes the rewritten monomial outright and adds
the shifted tail times its coefficient.  The engine's step bound guards
against defects, not against the math.

Whatever depends on the basis alone is worked out once per basis, at
first use, and kept on the `GroebnerBasis`: per element a step kernel,
from which a step writes its monomials by a few slot edits of one list,
and per monomial its fork triples, which every normal form on the basis
shares (the Buchberger check meets the same monomials in many
s-polynomials).  Nothing is cached per process, so a basis's memos go
with it.  `spol` writes both shifted elements into one dict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
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
    mono_from_pairs,
    mono_lcm,
    slot_partners,
)
from .rewrite import DEFAULT_MAX_STEPS, FirstByOrder, Report, RewriteError, Strategy, rewrite
from .ring import ALPHA, BETA, RationalLike, resolve_param


@lru_cache(maxsize=None)
def _relation_monomials(n: int) -> dict:
    """Per triple (i, j, k), the monomials of its relation's five terms:
    x[i,j]*x[j,k], x[i,k]*x[i,j], x[i,k]*x[j,k], x[i,k] and 1."""
    return {
        (i, j, k): tuple(
            mono_from_pairs(n, dict.fromkeys(pairs, 1))
            for pairs in (((i, j), (j, k)), ((i, k), (i, j)), ((i, k), (j, k)), ((i, k),), ())
        )
        for i, j, k in combinations(range(1, n + 1), 3)
    }


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
    path, fork, ik_jk, ik, one = _relation_monomials(n)[(i, j, k)]
    terms = {path: 1, fork: -1, ik_jk: -1}
    b = resolve_param(beta, BETA)
    if b:
        terms[ik] = -b
    a = resolve_param(alpha, ALPHA)
    if a:
        terms[one] = -a
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

    A basis also keeps what its normal forms reuse, filled at first use:
    per triple, the step kernel of its element (see `reduce_step`), and
    per monomial, its fork triples.  Both depend on the basis alone, so
    every normal form on it shares them, and they go with it."""

    def __init__(self, n: int, elements: list):
        self.n = n
        self.elements = tuple(elements)
        self._by_triple = {e.triple: e for e in self.elements}
        self._kernels: dict = {}
        self._forks: dict = {}

    def element(self, triple: Triple) -> BasisElement:
        return self._by_triple[triple]

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def fork_triples(self, m: Monomial) -> list:
        """The fork triples of m, found once per basis."""
        found = self._forks.get(m)
        if found is None:
            found = self._forks[m] = _fork_triples(m)
        return found

    def _step_kernel(self, triple: Triple) -> Optional[tuple]:
        """The step kernel of triple's element, cached; None for no element.

        A kernel is (width, head, coeffs, edits): the width of a monomial,
        the (slot, exponent) pairs of the head, the tail coefficients, and
        per tail monomial the (slot, change) pairs that take the monomial
        before it, the head for the first, to it."""
        element = self._by_triple.get(triple)
        if element is None:
            return None
        monos, coeffs = element.tail
        edits = []
        before = element.head
        for after in monos:
            edits.append(tuple((s, y - x) for s, (x, y) in enumerate(zip(before, after)) if x != y))
            before = after
        head = tuple((s, e) for s, e in enumerate(element.head) if e)
        kernel = self._kernels[triple] = (len(element.head), head, coeffs, tuple(edits))
        return kernel


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
    """One reduction terms - c*s*g in place at monomial mono of the term
    dict, with c its coefficient, g the basis element of triple and
    s = mono / head(g); returns the monomials of c*s*tail that it wrote,
    in the tail's order.

    Since c*s*head(g) is the term c*mono, the step deletes mono and adds
    c*s times g's pre-negated tail, head(g) - g; for a monic g that tail
    leaves mono out, and for any other g it puts c*(1 - lead) back there.
    Where those monomials go depends on g alone: the basis keeps, per
    triple, a kernel with g's head slots and the slot edits from its head
    to each tail monomial in turn, so the step tests the head slots of
    mono and writes the monomials by editing one copy of it in place.
    A step that does not apply raises RewriteError and changes nothing."""
    kernel = basis._kernels.get(triple) or basis._step_kernel(triple)
    coeff = terms.get(mono)
    if (
        kernel is None
        or coeff is None
        or len(mono) != kernel[0]
        or any(mono[s] < e for s, e in kernel[1])
    ):
        raise RewriteError(f"basis element {triple} does not reduce {format_monomial(mono)}")
    _, _, coeffs, edits = kernel
    del terms[mono]
    out = list(mono)
    written = []
    for edit in edits:
        for slot, change in edit:
            out[slot] += change
        written.append(tuple(out))
    accumulate(terms, zip(written, [coeff * c for c in coeffs]), negate=False)
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
    # Callees are looked up per call, so run-time wrappers of them see every call.
    step = partial(reduce_step, basis=basis)
    terms = None
    for _, _, terms in rewrite(p, "normal form", basis.fork_triples, step, strategy, max_steps):
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
