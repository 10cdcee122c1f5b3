"""Groebner machinery for the defining relations.

The relations

    x[i,j]*x[j,k] - x[i,k]*(x[i,j] + x[j,k] + b) - a        (i < j < k)

generate the ideal the quotient algebra divides by.  Negating each one
gives a monic family with head term x[i,k]*x[i,j] under the term order
of the poly module:

    x[i,k]*x[i,j] - x[i,j]*x[j,k] + x[i,k]*x[j,k] + b*x[i,k] + a

This family is a Groebner basis; `buchberger_check` confirms the
criterion mechanically and `normal_form`, the rewrite engine on the
basis's fork-triple memo, reduces any polynomial to its unique forkless
representative, the monomials with no x[i,j]*x[i,k] divisor.  Relations
and elements are written from the monomials `rewrite.relation_monomials`
lists per triple, the table the game reads with head x[i,j]*x[j,k]; a
zero b or a term is left out.  A step writes head - element,
x[i,j]*x[j,k] - x[i,k]*x[j,k] - b*x[i,k] - a, by one kernel per triple
built once per n: the same four coefficients for every triple, 0 where b
or a is, which accumulate drops.

The check walks the overlaps, the C(n,3) + 3*C(n,4) pairs of triples
whose heads share a variable, and writes each s-polynomial as the
difference of the overlap's two one-step reductions (Bergman's diamond
lemma).  Two such heads share that variable's two indices, so each
s-polynomial and its reduction live on at most 4: an order-preserving map
of {1..4} into {1..n} keeps the term order (lex on row-major slots) and
takes relations to relations, so `verify --n 4 groebner` covers every n.
Nothing of the overlaps depends on b or a: one table per n, cached like
`relation_monomials(n)`, lists the pairs, each with the lcm of its heads,
and holds the fork-triple memo the check's reductions run on.  The first
check at n in a process builds it and fills the memo, to 707 monomials at
n=7 and 2,410 at n=9 when b and a are nonzero, so a one-shot `verify`
scans as much as before and every later check at n scans nothing.  The
check reduces with the rewrite engine directly, on the table's memo and
by `reduce_step` on the basis; a normal form keeps its basis's own memo.

Rational points.  A basis keeps (b, a) as its `params`, which `element`
and the check's report read, and steps at the integral point of
`ring.integral_point`: its `tail` holds -L*b and -L^2*a, ints when both
are numbers.  `normal_form` reduces the `poly.rescaled` input and divides
the result back; `buchberger_check` writes and reduces every s-polynomial
there, where each is the one at (b, a) rescaled (see `poly.rescaled`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, compress
from typing import Optional

from .poly import (
    Monomial,
    Triple,
    XPoly,
    accumulate,
    format_monomial,
    rescaled,
    slot_partners,
    unscaled,
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
from .ring import ALPHA, BETA, RationalLike, integral_point, resolve


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
    b, a = resolve(beta, alpha)
    terms = accumulate({path: 1, fork: -1, ik_jk: -1}, ((ik, -b), (one, -a)))
    return XPoly._raw(n, terms)


class GroebnerBasis:
    """The monic basis at n and the resolved `params` (b, a), one element
    per triple of `relation_monomials(n)`.  A step runs at the integral
    point (L*b, L^2*a), L = `scale` (1 where a symbol is left): `kernels`
    holds each triple's step kernel and `tail` the coefficients there of
    x[i,j]*x[j,k], x[i,k]*x[j,k], x[i,k] and 1 in head - element, None for
    1.  `rules`, the fork-triple memo of every normal form on the basis,
    holds nothing of it."""

    def __init__(
        self,
        n: int,
        beta: Optional[RationalLike] = None,
        alpha: Optional[RationalLike] = None,
    ):
        self.n = n
        self.params = resolve(beta, alpha)
        self.scale, beta_at, alpha_at = integral_point(beta, alpha)
        b_at, a_at = resolve(beta_at, alpha_at)
        self.tail = None, -1, -b_at, -a_at
        self.kernels = _fork_kernels(n)
        self.rules = RuleSet(_fork_triples)

    def element(self, triple: Triple) -> XPoly:
        """x[i,k]*x[i,j] - x[i,j]*x[j,k] + x[i,k]*x[j,k] + b*x[i,k] + a."""
        path, fork, ik_jk, ik, one = relation_monomials(self.n)[triple]
        terms = accumulate({fork: 1, path: -1, ik_jk: 1}, zip((ik, one), self.params))
        return XPoly._raw(self.n, terms)


def generate_basis(
    n: int,
    beta: Optional[RationalLike] = None,
    alpha: Optional[RationalLike] = None,
) -> GroebnerBasis:
    """Basis elements -1 * relation, head x[i,k]*x[i,j], for all triples."""
    return GroebnerBasis(n, beta, alpha)


def _fork_triples(m: Monomial) -> list:
    """Triples (i, j, k) whose basis head x[i,k]*x[i,j] divides m, lex order."""
    partners = slot_partners(len(m), True)
    return [t for row in compress(partners, m) for pos, t in row if m[pos]]


@lru_cache(maxsize=None)
def _fork_kernels(n: int) -> dict:
    """Per triple, the kernel of a basis step at n: head x[i,k]*x[i,j],
    writing x[i,j]*x[j,k], x[i,k]*x[j,k], x[i,k] and 1."""
    table = relation_monomials(n).items()
    return {t: compile_kernel(fork, (path, *rest)) for t, (path, fork, *rest) in table}


def reduce_step(terms: dict, mono: Monomial, triple: Triple, basis: GroebnerBasis) -> list:
    """One reduction terms - c*s*g in place at monomial mono, with c its
    coefficient, g the basis element of triple at the basis's integral
    point and s = mono / head(g), by the triple's kernel; returns the
    monomials it wrote.  A step that does not apply raises RewriteError
    and changes nothing."""
    kernel = basis.kernels.get(triple)
    written = None if kernel is None else kernel_step(terms, mono, kernel, basis.tail)
    if written is None:
        raise RewriteError(f"basis element {triple} does not reduce {format_monomial(mono)}")
    return written


def normal_form(
    p: XPoly,
    basis: GroebnerBasis,
    strategy: Strategy = FirstByOrder(),
    max_steps: int = DEFAULT_MAX_STEPS,
) -> XPoly:
    """Reduce to the unique forkless representative: `rescaled(p, L)` on
    the basis, divided back."""
    if p.n != basis.n:
        raise ValueError(f"ambient size mismatch: {p.n} vs {basis.n}")
    # The step is looked up per step, so run-time wrappers of it see every call.
    step = lambda terms, mono, triple: reduce_step(terms, mono, triple, basis)  # noqa: E731
    q, factors = rescaled(p, basis.scale)
    terms = None
    for _, _, terms in rewrite(q, "normal form", basis.rules, step, strategy, max_steps):
        pass
    if terms is None:
        return p
    return unscaled(XPoly._raw(p.n, terms), factors)


@lru_cache(maxsize=None)
def _overlap_table(n: int) -> tuple:
    """The Buchberger check's table at n: (pairs, rules).  pairs lists each
    pair (t1, t2) of triples whose heads share a variable, in
    `combinations_with_replacement` order over `relation_monomials(n)`,
    with the lcm of the two heads; rules is the fork-triple memo the
    check's reductions run on, filled by the first check at n and read by
    every later one.  The same at every (b, a)."""
    heads = {triple: monos[1] for triple, monos in relation_monomials(n).items()}
    groups = (compress(heads, column) for column in zip(*heads.values()))
    pairs = {pair for group in groups for pair in combinations_with_replacement(group, 2)}
    table = [(t1, t2, tuple(map(max, heads[t1], heads[t2]))) for t1, t2 in sorted(pairs)]
    return table, RuleSet(_fork_triples)


def buchberger_check(basis: GroebnerBasis) -> Report:
    """Each s-polynomial of the C(n,3) + 3*C(n,4) pairs of triples whose
    heads share a variable, t2's step at the lcm of the heads minus t1's
    (Bergman), reduces to zero; each pair, in the order of the n's overlap
    table, whose s-polynomial does not is one failure.  Each s-polynomial
    is written with the basis's kernels and tail, so at a rational point
    it is the one at (b, a) rescaled, and reduced by the rewrite engine on
    the table's fork-triple memo with `reduce_step` on the basis.  The
    report's params name b and a as the other sweeps do: a number as a
    Fraction, the symbol as None."""
    n = basis.n
    pairs, memo = _overlap_table(n)
    b, a = basis.params
    params = {"n": n, "elements": len(relation_monomials(n))}
    params["beta"] = None if b is BETA else Fraction(b)
    params["alpha"] = None if a is ALPHA else Fraction(a)
    report = Report(params, {"pairs": len(pairs)})
    kernels, tail = basis.kernels, basis.tail
    step = lambda terms, mono, triple: reduce_step(terms, mono, triple, basis)  # noqa: E731
    for t1, t2, lcm in pairs:
        terms = {lcm: 1}
        kernel_step(terms, lcm, kernels[t2], tail)
        terms[lcm] = -1
        kernel_step(terms, lcm, kernels[t1], tail)
        for _, _, terms in rewrite(XPoly._raw(n, terms), "normal form", memo, step):
            pass
        if terms:
            report.failures.append(f"pair {t1} {t2}")
    return report


def ideal_member(p: XPoly, basis: GroebnerBasis) -> bool:
    """Membership in the ideal of basis: the normal form vanishes.

    Pass a specialized basis when p lives at numeric parameter values.
    """
    return normal_form(p, basis).is_zero()
