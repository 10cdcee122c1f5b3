"""Symmetric-group action, defining relations, and forkless enumeration."""

import gc
import random
from itertools import permutations
from math import comb

import pytest

from subdivalg.algebra import (
    apply_perm,
    count_forkless,
    enumerate_forkless,
    gf_coeffs,
    j_generator,
    verify_symmetry,
    x_general,
)
from subdivalg.groebner import generate_basis, ideal_generator, ideal_member, normal_form
from subdivalg.poly import (
    XPoly,
    all_monomials,
    is_forkless,
    mono_from_pairs,
    mono_one,
    pair_list,
    parse_poly,
    ring_map,
)
from subdivalg.rewrite import random_xpoly
from subdivalg.ring import BETA


def mono(n: int, *pairs) -> tuple:
    exps = {}
    for i, j in pairs:
        exps[(i, j)] = exps.get((i, j), 0) + 1
    return mono_from_pairs(n, exps)


def test_x_general_examples():
    assert x_general(1, 2, 3) == XPoly.variable(1, 2, 3)
    assert x_general(2, 1, 3) == parse_poly("-x[1,2] - b", 3)
    assert x_general(3, 1, 3) == parse_poly("-x[1,3] - b", 3)
    assert x_general(2, 1, 3, beta=5) == parse_poly("-x[1,2] - 5", 3)
    with pytest.raises(ValueError):
        x_general(2, 2, 3)


def test_j_generator_matches_defining_relation():
    g = j_generator(1, 2, 3, 3)
    assert g == ideal_generator(1, 2, 3, 3)
    assert g == parse_poly(
        "x[1,2]*x[2,3] - x[1,3]*x[1,2] - x[1,3]*x[2,3] - b*x[1,3] - a", 3
    )


def test_j_generator_is_index_symmetric():
    for n in (3, 4):
        reference = j_generator(1, 2, 3, n)
        for i, j, k in permutations((1, 2, 3)):
            assert j_generator(i, j, k, n) == reference


def test_j_generator_specialized():
    g = j_generator(1, 2, 3, 3, beta=0, alpha=0)
    assert g == parse_poly("x[1,2]*x[2,3] - x[1,3]*x[1,2] - x[1,3]*x[2,3]", 3)


def test_j_generator_rejects_repeats():
    with pytest.raises(ValueError):
        j_generator(1, 1, 3, 3)


def test_apply_perm_examples():
    swap = (2, 1, 3)
    assert apply_perm(swap, XPoly.variable(1, 3, 3)) == XPoly.variable(2, 3, 3)
    assert apply_perm(swap, XPoly.variable(1, 2, 3)) == parse_poly("-x[1,2] - b", 3)
    identity = (1, 2, 3)
    p = parse_poly("x[1,2]*x[2,3] + b*x[1,3] + a", 3)
    assert apply_perm(identity, p) == p


def test_apply_perm_is_multiplicative():
    rng = random.Random(59)
    for _ in range(100):
        n = rng.randint(3, 4)
        sigma = tuple(rng.sample(range(1, n + 1), n))
        p = random_xpoly(n, 3, 3, rng)
        q = random_xpoly(n, 3, 3, rng)
        assert apply_perm(sigma, p * q) == apply_perm(sigma, p) * apply_perm(sigma, q)
        assert apply_perm(sigma, p + q) == apply_perm(sigma, p) + apply_perm(sigma, q)


def test_perm_map_reused_across_inputs():
    """One ring map of a permutation, applied to input after input in either
    order, gives what apply_perm, which builds a map per call, gives."""
    rng = random.Random(71)
    for beta in (None, 3):
        for n in (3, 4, 5):
            sigma = tuple(rng.sample(range(1, n + 1), n))
            images = [x_general(sigma[i - 1], sigma[j - 1], n, beta) for i, j in pair_list(n)]

            def build():
                return ring_map(images.__getitem__, XPoly.one(n))

            inputs = [random_xpoly(n, 3, 3, rng) for _ in range(12)]
            fresh = [apply_perm(sigma, p, beta) for p in inputs]
            forward = build()
            assert [forward(p) for p in inputs] == fresh
            backward = build()
            assert [backward(p) for p in reversed(inputs)] == fresh[::-1]


def test_apply_perm_composition():
    rng = random.Random(61)
    for _ in range(100):
        n = rng.randint(3, 5)
        sigma = tuple(rng.sample(range(1, n + 1), n))
        tau = tuple(rng.sample(range(1, n + 1), n))
        composite = tuple(sigma[tau[i - 1] - 1] for i in range(1, n + 1))
        p = random_xpoly(n, 2, 3, rng)
        assert apply_perm(composite, p) == apply_perm(sigma, apply_perm(tau, p))


def test_apply_perm_validates():
    with pytest.raises(ValueError):
        apply_perm((1, 1, 3), XPoly.one(3))
    with pytest.raises(ValueError):
        apply_perm((1, 2), XPoly.one(3))


def test_verify_symmetry_small():
    for n in (1, 2, 3, 4):
        report = verify_symmetry(n, seed=11, samples=5)
        assert report.ok
        assert report.failures == []
        if n < 3:
            assert report.counts == {"relations": 0, "images": 0}
    assert verify_symmetry(3, seed=11, samples=5, beta=1, alpha=0).ok


def test_verify_symmetry_builds_each_ordering_once(monkeypatch):
    import subdivalg.algebra

    calls = []

    def corrupt(i, j, k, n, beta=None, alpha=None):
        calls.append((i, j, k))
        return j_generator(i, j, k, n, beta, alpha) - XPoly.constant(n, BETA * BETA)

    monkeypatch.setattr(subdivalg.algebra, "j_generator", corrupt)
    report = verify_symmetry(4, seed=3, samples=4)
    # The replacement is called, once for each of the 24 orderings of the
    # four triples; the corruption keeps the symmetry and the action, so
    # only the comparison with each defining relation fails.
    assert sorted(calls) == sorted(permutations(range(1, 5), 3))
    assert report.failures == [
        f"j_generator{t} != defining relation" for t in ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
    ]
    assert report.counts == {"relations": 4, "images": 16}


def test_corrupted_generator_is_caught():
    def corrupt(i, j, k, n):
        return j_generator(i, j, k, n) - XPoly.constant(n, BETA * BETA)

    reference = corrupt(1, 2, 3, 3)
    for i, j, k in permutations((1, 2, 3)):
        assert corrupt(i, j, k, 3) == reference  # symmetry survives the corruption
    assert reference != ideal_generator(1, 2, 3, 3)
    assert reference != -ideal_generator(1, 2, 3, 3)
    assert not ideal_member(reference, generate_basis(3))


def test_perm_sends_generators_into_ideal():
    n = 4
    basis = generate_basis(n)
    for sigma in permutations(range(1, n + 1)):
        image = apply_perm(sigma, j_generator(1, 2, 3, n))
        assert normal_form(image, basis).is_zero()


def test_enumerate_forkless_examples():
    listed = enumerate_forkless(3, 2)
    assert listed == [
        mono(3, (1, 2), (1, 2)),
        mono(3, (1, 2), (2, 3)),
        mono(3, (1, 3), (1, 3)),
        mono(3, (1, 3), (2, 3)),
        mono(3, (2, 3), (2, 3)),
    ]
    for earlier, later in zip(listed, listed[1:]):
        assert earlier > later
    assert enumerate_forkless(2, 3) == [mono(2, (1, 2), (1, 2), (1, 2))]
    assert enumerate_forkless(4, 0) == [mono_one(4)]
    assert enumerate_forkless(1, 0) == [()]
    assert enumerate_forkless(1, 2) == []


def test_enumerate_forkless_matches_filter():
    for n in (2, 3, 4):
        for degree in range(5):
            expected = sorted(
                (m for m in all_monomials(n, degree) if is_forkless(m)),
                reverse=True,
            )
            assert enumerate_forkless(n, degree) == expected


def test_count_forkless_tables():
    assert count_forkless(3, 3).counts == (1, 3, 5, 7)
    assert count_forkless(4, 3).counts == (1, 6, 17, 34)
    assert count_forkless(2, 5).counts == (1, 1, 1, 1, 1, 1)
    assert count_forkless(1, 3).counts == (1, 0, 0, 0)


def test_count_matches_generating_function():
    for n in range(1, 7):
        assert count_forkless(n, 6) == gf_coeffs(n, 6)


def test_count_csv_format():
    assert count_forkless(4, 3).to_csv() == "0,1\n1,6\n2,17\n3,34"


def test_counts_equal_all_monomial_filter():
    for n in (2, 3, 4):
        table = count_forkless(n, 4)
        for degree in range(5):
            brute = sum(1 for m in all_monomials(n, degree) if is_forkless(m))
            assert table.counts[degree] == brute


def test_normal_forms_land_in_forkless_span():
    for n in (3, 4):
        basis = generate_basis(n)
        for degree in range(4):
            for m in all_monomials(n, degree):
                nf = normal_form(XPoly.from_monomial(m), basis)
                for term in nf.terms:
                    assert is_forkless(term)
                    assert sum(term) <= degree
                if is_forkless(m):
                    assert nf == XPoly.from_monomial(m)


def test_reduction_preserves_degree_filtration():
    rng = random.Random(67)
    for _ in range(200):
        n = rng.randint(3, 5)
        basis = generate_basis(n)
        p = random_xpoly(n, 4, 4, rng)
        nf = normal_form(p, basis)
        if not nf.is_zero():
            assert max(map(sum, nf.terms)) <= max(map(sum, p.terms))


def test_forkless_count_degree_one():
    for n in (2, 3, 4, 5, 6):
        assert count_forkless(n, 1).counts[1] == comb(n, 2)


def test_recursive_walks_leave_no_reference_cycles():
    """The powers of a ring map, the monomial and forkless enumerations and
    the ed-ba walk keep no function that refers to itself, so reference
    counting alone frees all they build."""
    from subdivalg.series import ed_ba_sweep

    j = j_generator(1, 3, 2, 4)
    calls = (
        lambda: enumerate_forkless(6, 3),
        lambda: list(all_monomials(4, 3)),
        lambda: apply_perm((2, 1, 4, 3), j * j),
        lambda: ed_ba_sweep(5, 2, 2),
        lambda: verify_symmetry(4, 0, 2),
    )
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for call in calls:
            assert call()
            assert gc.collect() == 0, call
    finally:
        if enabled:
            gc.enable()
