"""Symmetric form of the relations, the S_n action, and the forkless basis.

Extending the variables by x[j,i] := -b - x[i,j] for i < j makes the
defining relation of each triple fully symmetric:

    J(i,j,k) = x[i,j]*x[j,k] + x[j,k]*x[k,i] + x[k,i]*x[i,j]
               + b*(x[i,j] + x[j,k] + x[k,i]) + b^2 - a

`j_generator` expands this back into the upper-triangular variables and
agrees with the defining relation when i < j < k.  Permutations act by
sigma . x[i,j] = x[sigma(i),sigma(j)], again expanded through the
extension rule, and map the relation family to itself modulo the ideal.

Forkless monomials (no x[i,j]*x[i,k] divisor) are exactly the products
prod x[i, f(i)]^(g(i)) with one target f(i) > i per row; they form the
irreducible monomials of the groebner module.  Their count per degree
has generating function prod_{j=0}^{n-2} (1 + j*t) / (1-t)^(n-1), which
`gf_coeffs` expands and `count_forkless` confirms by enumeration.
"""

from __future__ import annotations

import random
from functools import cache
from itertools import combinations, permutations
from math import comb
from typing import NamedTuple, Optional

from .groebner import generate_basis, ideal_generator, ideal_member
from .poly import XPoly, num_vars, pair_list, ring_map, var_position
from .rewrite import Report
from .ring import ALPHA, BETA, RationalLike, resolve_param

Permutation = tuple  # images (sigma(1), ..., sigma(n)), 1-based


def check_permutation(sigma: Permutation, n: int):
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError(f"{sigma} is not a permutation of 1..{n}")


def x_general(
    i: int,
    j: int,
    n: int,
    beta: Optional[RationalLike] = None,
) -> XPoly:
    """x[i,j] for i < j, and the extension -b - x[j,i] for i > j."""
    if i == j:
        raise ValueError("x[i,i] is not defined")
    if i < j:
        return XPoly.variable(i, j, n)
    beta_c = resolve_param(beta, BETA)
    return -XPoly.variable(j, i, n) - XPoly.constant(n, beta_c)


def j_generator(
    i: int,
    j: int,
    k: int,
    n: int,
    beta: Optional[RationalLike] = None,
    alpha: Optional[RationalLike] = None,
) -> XPoly:
    """The symmetric relation J(i,j,k); any order of distinct indices."""
    if len({i, j, k}) != 3:
        raise ValueError("indices must be pairwise distinct")
    beta_c = resolve_param(beta, BETA)
    alpha_c = resolve_param(alpha, ALPHA)
    x_ij = x_general(i, j, n, beta)
    x_jk = x_general(j, k, n, beta)
    x_ki = x_general(k, i, n, beta)
    linear = (x_ij + x_jk + x_ki).scale(beta_c)
    constant = XPoly.constant(n, beta_c * beta_c - alpha_c)
    return x_ij * x_jk + x_jk * x_ki + x_ki * x_ij + linear + constant


def apply_perm(
    sigma: Permutation,
    p: XPoly,
    beta: Optional[RationalLike] = None,
) -> XPoly:
    """Substitute x[sigma(i),sigma(j)] for every x[i,j] of p."""
    n = p.n
    check_permutation(sigma, n)
    pairs = pair_list(n)

    def image(pos: int) -> XPoly:
        i, j = pairs[pos]
        return x_general(sigma[i - 1], sigma[j - 1], n, beta)

    return ring_map(image, XPoly.one(n))(p)


def verify_symmetry(
    n: int,
    seed: int,
    samples: int,
    beta: Optional[RationalLike] = None,
    alpha: Optional[RationalLike] = None,
) -> Report:
    """Check the symmetric form against the defining relations and the action."""
    triples = list(combinations(range(1, n + 1), 3))
    report = Report(
        dict(n=n, seed=seed, samples=samples, beta=beta, alpha=alpha),
        {"relations": len(triples), "images": samples * len(triples)},
    )

    # Each ordering's J is built once per sweep; j_generator is looked up
    # at each miss, so a run-time replacement of it is still called.
    relation = cache(lambda *ordering: j_generator(*ordering, n, beta, alpha))

    for i, j, k in triples:
        if relation(i, j, k) != ideal_generator(i, j, k, n, beta, alpha):
            report.failures.append(f"j_generator{(i, j, k)} != defining relation")
        reference = relation(i, j, k)
        for ordering in permutations((i, j, k)):
            if relation(*ordering) != reference:
                report.failures.append(f"j_generator{ordering} breaks symmetry")

    rng = random.Random(seed)
    basis = generate_basis(n, beta, alpha)
    for index in range(samples):
        sigma = list(range(1, n + 1))
        rng.shuffle(sigma)
        sigma = tuple(sigma)
        for i, j, k in triples:
            mapped = apply_perm(sigma, relation(i, j, k), beta)
            target = relation(sigma[i - 1], sigma[j - 1], sigma[k - 1])
            if mapped != target:
                report.failures.append(f"sigma={sigma} triple={(i, j, k)} equivariance")
            g = ideal_generator(i, j, k, n, beta, alpha)
            if not ideal_member(apply_perm(sigma, g, beta), basis):
                report.failures.append(f"sigma={sigma} triple={(i, j, k)} membership")
    return report


def enumerate_forkless(n: int, degree: int) -> list:
    """All forkless monomials of the exact degree, descending term order.

    Generated from the (f, g) shape: per row i, either exponent zero or a
    single target column f(i) > i carrying a positive exponent g(i).
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    width = num_vars(n)
    if width == 0:
        return [()] if degree == 0 else []
    out: list = []
    _forkless_rows(n, 1, degree, [0] * width, out)
    out.sort(reverse=True)
    return out


def _forkless_rows(n: int, row: int, remaining: int, exps: list, out: list):
    """Append each forkless completion of exps from row on, of degree remaining, to out."""
    if row == n:
        if remaining == 0:
            out.append(tuple(exps))
        return
    _forkless_rows(n, row + 1, remaining, exps, out)
    for e in range(1, remaining + 1):
        for col in range(row + 1, n + 1):
            pos = var_position(row, col, n)
            exps[pos] = e
            _forkless_rows(n, row + 1, remaining - e, exps, out)
            exps[pos] = 0


class CountTable(NamedTuple):
    n: int
    counts: tuple

    def to_csv(self) -> str:
        return "\n".join(f"{k},{c}" for k, c in enumerate(self.counts))


def count_forkless(n: int, max_degree: int) -> CountTable:
    """Forkless monomial counts per degree 0..max_degree, by enumeration."""
    return CountTable(n, tuple(len(enumerate_forkless(n, k)) for k in range(max_degree + 1)))


def gf_coeffs(n: int, max_degree: int) -> CountTable:
    """Series coefficients of prod_{j=0}^{n-2} (1 + j*t) / (1-t)^(n-1)."""
    if n == 1:
        return CountTable(1, tuple(1 if k == 0 else 0 for k in range(max_degree + 1)))
    numerator = [1]
    for j in range(n - 1):
        next_coeffs = [0] * (len(numerator) + 1)
        for deg, c in enumerate(numerator):
            next_coeffs[deg] += c
            next_coeffs[deg + 1] += c * j
        numerator = next_coeffs
    counts = []
    for k in range(max_degree + 1):
        total = 0
        for deg, c in enumerate(numerator):
            if deg > k:
                break
            total += c * comb(k - deg + n - 2, n - 2)
        counts.append(total)
    return CountTable(n, tuple(counts))
