"""Acceptance suite: one test per headline claim, each with a timing budget.

Every test prints a single "criterion NN ...: PASS" line (visible with
pytest -s or in the captured output section) and enforces the stated
wall-clock bound where one applies.
"""

import random
import time
from itertools import combinations

from conftest import (
    ALT_SCRIPT,
    GAME_D_IMAGE,
    GAME_RESULT,
    GAME_SCRIPT,
    GAME_START,
    random_pathless_monomial,
)
from subdivalg.algebra import count_forkless, gf_coeffs, verify_symmetry
from subdivalg.groebner import (
    buchberger_check,
    generate_basis,
    ideal_generator,
    ideal_member,
    normal_form,
)
from subdivalg.poly import (
    XPoly,
    all_monomials,
    d_image,
    is_forkless,
    is_pathless,
    mono_div,
    mono_from_pairs,
    mono_mul,
    parse_poly,
    parse_tpoly,
    weight_pathless,
)
from subdivalg.rewrite import (
    FirstByOrder,
    LastByOrder,
    RandomStrategy,
    derive_seed,
    parse_script,
    random_xpoly,
    reduce_pathless,
    verify_t_unique,
)
from subdivalg.ring import ALPHA, BETA
from subdivalg.series import (
    a_image_rat,
    ed_ba_sweep,
    verify_a_kills_j,
    verify_e_left_inverse,
    verify_ed_eq_ba,
)


def report(number: int, label: str, elapsed: float) -> None:
    print(f"criterion {number:02d} {label}: PASS ({elapsed:.2f}s)")


def test_criterion_01_worked_example():
    start = time.perf_counter()
    p = parse_poly(GAME_START, 4)
    result, trace = reduce_pathless(p, parse_script(GAME_SCRIPT, 4), beta=1, alpha=0)
    assert result == parse_poly(GAME_RESULT, 4)
    assert len(result.terms) == 11
    assert len(trace) == 5
    factored = parse_tpoly("t[1]", 4) * parse_tpoly(
        "2*t[1] + 2*t[2] + t[3] + t[1]^2 + t[2]^2 + t[1]*t[2] + t[1]*t[3] + t[2]*t[3] + 1",
        4,
    )
    assert d_image(result) == factored
    assert str(d_image(result)) == GAME_D_IMAGE
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, "worked example and its t-image", elapsed)


def test_criterion_02_two_games_same_image():
    start = time.perf_counter()
    p = parse_poly(GAME_START, 4)
    q1, _ = reduce_pathless(p, parse_script(GAME_SCRIPT, 4), beta=1, alpha=0)
    q2, _ = reduce_pathless(p, parse_script(ALT_SCRIPT, 4), beta=1, alpha=0)
    assert q1 != q2
    assert all(is_pathless(m) for m in q1.terms)
    assert all(is_pathless(m) for m in q2.terms)
    basis = generate_basis(4, beta=1, alpha=0)
    assert ideal_member(q1 - q2, basis)
    assert d_image(q1) == d_image(q2)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, "distinct games agree after d", elapsed)


def test_criterion_03_t_unique_sweep():
    start = time.perf_counter()
    for n in (3, 4, 5, 6):
        result = verify_t_unique(n, 100, 5, derive_seed(2026, n))
        assert result.ok
        assert result.checked == 100
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(3, "t-image unique over 400 games x 5 strategies", elapsed)


def test_criterion_04_groebner_confirmation():
    start = time.perf_counter()
    for n in (3, 4, 5, 6):
        assert buchberger_check(generate_basis(n))

    n = 6
    basis = generate_basis(n)
    beta_poly = XPoly.constant(n, BETA)
    for a, b, c, d in combinations(range(1, n + 1), 4):
        u1 = basis.element((a, b, c))
        u2 = basis.element((a, b, d))
        u3 = basis.element((a, c, d))
        u4 = basis.element((b, c, d))
        x = lambda i, j: XPoly.variable(i, j, n)
        assert (
            u1 * (x(a, d) - x(b, d))
            - u2 * (x(a, c) - x(b, c))
            - u3 * (x(b, c) - x(b, d))
            + u4 * (x(a, c) - x(a, d))
        ).is_zero()
        assert x(a, d) * u1 - x(a, b) * u3 == (
            beta_poly * u3 - beta_poly * u2 - x(a, b) * u4 - x(b, c) * u2
            + x(b, c) * u3 + x(a, d) * u4 + x(c, d) * u1 - x(c, d) * u2
        )
        assert x(a, c) * u2 - x(a, b) * u3 == (
            beta_poly * u3 - beta_poly * u2 - x(a, b) * u4 + x(a, c) * u4
            - x(b, d) * u1 + x(c, d) * u1 + x(b, d) * u3 - x(c, d) * u2
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(4, "basis property and proof identities", elapsed)


def test_criterion_05_confluence():
    start = time.perf_counter()
    bases = {n: generate_basis(n) for n in (2, 3, 4, 5)}
    rng = random.Random(2026)
    for trial in range(200):
        n = rng.randint(2, 5)
        p = random_xpoly(n, 4, 5, rng)
        reference = normal_form(p, bases[n])
        assert all(is_forkless(m) for m in reference.terms)
        for variant in range(3):
            strategy = RandomStrategy(derive_seed(2026, trial, variant))
            assert normal_form(p, bases[n], strategy) == reference
    elapsed = time.perf_counter() - start
    report(5, "200 inputs, order of reduction irrelevant", elapsed)


def test_criterion_06_fraction_substitution_kills_ideal():
    start = time.perf_counter()
    for n in (3, 4, 5, 6):
        assert verify_a_kills_j(n, samples=50, seed=derive_seed(6, n)).ok
    perturbed = ideal_generator(1, 2, 3, 4) + XPoly.constant(4, ALPHA)
    assert not a_image_rat(perturbed).is_zero()
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(6, "fractions annihilate the defining ideal", elapsed)


def test_criterion_07_square_identity():
    start = time.perf_counter()
    for n in (1, 2, 3, 4):
        sweep = ed_ba_sweep(n, 3, 4)
        assert sweep.ok
    rng = random.Random(2027)
    for _ in range(100):
        m = random_pathless_monomial(5, 5, rng)
        assert verify_ed_eq_ba(m, 5)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(7, "e.d equals b.a on pathless monomials", elapsed)


def test_criterion_08_series_left_inverse():
    start = time.perf_counter()
    assert verify_e_left_inverse(4, 100, seed=81).ok
    assert verify_e_left_inverse(5, 100, seed=82).ok
    elapsed = time.perf_counter() - start
    report(8, "constant term of e inverts under g", elapsed)


def test_criterion_09_dimension_counts():
    start = time.perf_counter()
    for n in range(1, 7):
        assert count_forkless(n, 6) == gf_coeffs(n, 6)
    for n, expected in ((3, (1, 3, 5, 7)), (4, (1, 6, 17, 34))):
        assert count_forkless(n, 3).counts == expected
        for degree in range(4):
            brute = sum(1 for m in all_monomials(n, degree) if is_forkless(m))
            assert brute == expected[degree]
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(9, "degree counts match the product formula", elapsed)


def test_criterion_10_symmetry():
    start = time.perf_counter()
    for n in (3, 4, 5):
        result = verify_symmetry(n, seed=derive_seed(10, n), samples=10)
        assert result.ok
        assert result.failures == []
    elapsed = time.perf_counter() - start
    report(10, "symmetric group acts on the quotient", elapsed)


def test_criterion_11_weight_descent():
    start = time.perf_counter()
    games = 0
    steps = 0
    rng = random.Random(2028)
    strategies = (FirstByOrder(), LastByOrder(), RandomStrategy(11))
    inputs = [(4, parse_poly(GAME_START, 4))]
    for _ in range(100):
        n = rng.randint(3, 5)
        inputs.append((n, random_xpoly(n, 4, 4, rng)))
    for n, p in inputs:
        for strategy in strategies:
            _, trace = reduce_pathless(p, strategy)
            games += 1
            for step in trace:
                steps += 1
                i, j, k = step.triple
                divisor = mono_from_pairs(n, {(i, j): 1, (j, k): 1})
                base = mono_div(step.monomial, divisor)
                assert base is not None
                x_ij = mono_from_pairs(n, {(i, j): 1})
                x_jk = mono_from_pairs(n, {(j, k): 1})
                x_ik = mono_from_pairs(n, {(i, k): 1})
                replacements = [
                    mono_mul(base, mono_mul(x_ik, x_ij)),
                    mono_mul(base, mono_mul(x_ik, x_jk)),
                    mono_mul(base, x_ik),
                    base,
                ]
                before = weight_pathless(step.monomial)
                for m in replacements:
                    assert weight_pathless(m) < before
    assert steps > 100
    elapsed = time.perf_counter() - start
    report(11, f"weight drops at each of {steps} steps in {games} games", elapsed)
