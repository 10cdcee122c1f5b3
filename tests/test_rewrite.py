"""The pathless game: single steps, strategies, traces, and d-image agreement;
the rewriting engine against a full-rescan reference loop."""

import gc
import itertools
import random
import re
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import comb, prod
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ALT_RESULT,
    ALT_SCRIPT,
    GAME_D_IMAGE,
    GAME_RESULT,
    GAME_SCRIPT,
    GAME_START,
    applied,
)
from subdivalg.groebner import (
    _fork_triples,
    generate_basis,
    normal_form,
    reduce_step,
)
from subdivalg import poly
from subdivalg.poly import (
    PolyParseError,
    XPoly,
    all_monomials,
    ambient_size,
    d_image,
    is_forkless,
    is_pathless,
    mono_div,
    mono_from_pairs,
    mono_mul,
    mono_one,
    pair_list,
    pair_position,
    parse_monomial,
    parse_poly,
    parse_tpoly,
    weight_pathless,
)
from subdivalg.rewrite import (
    DEFAULT_MAX_STEPS,
    FirstByOrder,
    LastByOrder,
    RandomStrategy,
    ResourceLimitError,
    RewriteError,
    RuleSet,
    ScriptStrategy,
    derive_seed,
    find_path_triples,
    format_trace,
    parse_script,
    pathless_step,
    random_xpoly,
    reduce_pathless,
    rewrite,
    strategy_suite,
    verify_t_unique,
)
from subdivalg.ring import BETA, Coeff, resolve, substitute_coeff


def mono(n: int, *pairs) -> tuple:
    exps = {}
    for i, j in pairs:
        exps[(i, j)] = exps.get((i, j), 0) + 1
    return mono_from_pairs(n, exps)


def test_find_path_triples_examples():
    assert find_path_triples(mono(4, (1, 2), (2, 3), (3, 4))) == [(1, 2, 3), (2, 3, 4)]
    assert find_path_triples(mono(3, (1, 3), (2, 3))) == []
    assert find_path_triples(mono_one(4)) == []


def test_find_path_triples_matches_pathless():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(2, 5)
        width = n * (n - 1) // 2
        exps = [0] * width
        for _ in range(rng.randint(0, 4)):
            exps[rng.randrange(width)] += 1
        m = tuple(exps)
        triples = find_path_triples(m)
        assert triples == sorted(triples)
        assert (not triples) == is_pathless(m)


def test_scans_and_weight_match_brute_force():
    """The triples of both rules and the pathless weight, from their
    definitions, on every monomial of degree <= 3 at n <= 6."""
    checked = 0
    for n in range(1, 7):
        positions = pair_position(n)
        triples = list(combinations(range(1, n + 1), 3))
        for degree in range(4):
            for m in all_monomials(n, degree):
                present = {pair for pair, pos in positions.items() if m[pos]}
                paths = [(i, j, k) for i, j, k in triples if {(i, j), (j, k)} <= present]
                forks = [(i, j, k) for i, j, k in triples if {(i, j), (i, k)} <= present]
                weight = sum(m[pos] * (n - j + i) for (i, j), pos in positions.items())
                assert find_path_triples(m) == paths
                assert _fork_triples(m) == forks
                assert weight_pathless(m) == weight
                checked += 1
    assert checked == 1211


def present_rows(m: tuple) -> dict:
    """{i: [j, ...]} over the variables x[i,j] present in m, both ascending."""
    rows: dict = {}
    for i, j in itertools.compress(pair_list(ambient_size(len(m))), m):
        rows.setdefault(i, []).append(j)
    return rows


def scans_by_definition(m: tuple) -> tuple:
    """Path and fork triples of m from the rows of its present variables;
    checks that is_pathless and is_forkless agree with them."""
    rows = present_rows(m)
    paths = [(i, j, k) for i, cols in rows.items() for j in cols for k in rows.get(j, ())]
    forks = [(i, j, k) for i, cols in rows.items() for j, k in combinations(cols, 2)]
    assert (is_pathless(m), is_forkless(m)) == (not paths, not forks)
    return paths, forks


def test_scans_match_present_rows_exhaustively():
    """Every monomial with exponents <= 2 at n <= 4."""
    checked = 0
    for n in range(1, 5):
        for m in itertools.product(range(3), repeat=n * (n - 1) // 2):
            assert (find_path_triples(m), _fork_triples(m)) == scans_by_definition(m)
            checked += 1
    assert checked == 1 + 3 + 27 + 729


@st.composite
def sparse_monomials(draw):
    n = draw(st.integers(1, 10))
    width = n * (n - 1) // 2
    exps = [0] * width
    if width:
        for pos in draw(st.lists(st.integers(0, width - 1), max_size=12)):
            exps[pos] += draw(st.integers(1, 3))
    return tuple(exps)


@settings(derandomize=True, max_examples=300)
@given(sparse_monomials())
def test_scans_match_present_rows(m):
    assert (find_path_triples(m), _fork_triples(m)) == scans_by_definition(m)


def test_step_generic_example():
    p = parse_poly("x[1,2]*x[2,3]", 3)
    stepped = applied(pathless_step, p, mono(3, (1, 2), (2, 3)), (1, 2, 3))
    assert stepped == parse_poly("x[1,3]*x[1,2] + x[1,3]*x[2,3] + b*x[1,3] + a", 3)


def test_step_worked_example_first_move():
    p = parse_poly(GAME_START, 4)
    stepped = applied(pathless_step, p, mono(4, (1, 2), (2, 3), (3, 4)), (1, 2, 3), beta=1, alpha=0)
    assert stepped == parse_poly(
        "x[1,2]*x[1,3]*x[3,4] + x[1,3]*x[2,3]*x[3,4] + x[1,3]*x[3,4]", 4
    )


def test_step_propagates_coefficient():
    m = mono(3, (1, 2), (2, 3))
    p = parse_poly("x[1,2]*x[2,3]", 3).scale(-BETA)
    stepped = applied(pathless_step, p, m, (1, 2, 3))
    expected = parse_poly("x[1,3]*x[1,2] + x[1,3]*x[2,3] + b*x[1,3] + a", 3).scale(-BETA)
    assert stepped == expected


def test_step_weight_descent():
    m = mono(4, (1, 2), (2, 3), (3, 4))
    p = parse_poly(GAME_START, 4)
    bound = weight_pathless(m)
    stepped = applied(pathless_step, p, m, (1, 2, 3))
    for produced in stepped.terms:
        assert weight_pathless(produced) < bound


def test_step_without_weight_drop_raises(monkeypatch):
    # the check must raise even under python -O, where an assert would vanish
    import subdivalg.rewrite

    # Kernels are built once per width; clearing that cache makes the step
    # build them again and so consult the patched weight.
    kernels = subdivalg.rewrite._path_kernels
    kernels.cache_clear()
    monkeypatch.setattr(subdivalg.rewrite, "weight_pathless", lambda m: 0)
    terms = dict(parse_poly(GAME_START, 4).terms)
    try:
        with pytest.raises(RewriteError, match="does not drop the pathless weight"):
            pathless_step(terms, mono(4, (1, 2), (2, 3), (3, 4)), (1, 2, 3))
    finally:
        kernels.cache_clear()
    assert terms == parse_poly(GAME_START, 4).terms


def test_step_errors():
    p = parse_poly("x[1,2]*x[2,3]", 3)
    m = mono(3, (1, 2), (2, 3))
    q = parse_poly("x[1,3]*x[2,3] + x[1,2]*x[2,3]", 3)
    cases = (
        (p, m, (2, 1, 3), "malformed triple (2, 1, 3) for n=3"),
        (p, mono(3, (1, 3)), (1, 2, 3), "monomial x[1,3] is absent"),
        (q, mono(3, (1, 3), (2, 3)), (1, 2, 3), "x[1,2]*x[2,3] does not divide x[1,3]*x[2,3]"),
    )
    for poly, at, triple, message in cases:
        terms = dict(poly.terms)
        with pytest.raises(RewriteError) as raised:
            pathless_step(terms, at, triple)
        assert str(raised.value) == message
        assert terms == poly.terms


@pytest.mark.parametrize(
    "beta, alpha",
    [(None, None), (-3, 2), (Fraction(1, 3), Fraction(-2, 5))],
    ids=["symbolic", "integer", "rational"],
)
def test_step_matches_arithmetic_reference(beta, alpha):
    """Every applicable (monomial, triple) of degree <= 3 at n <= 5: the
    step against the relation's replacement built with XPoly arithmetic,
    on term dicts that already hold some of the written monomials, so that
    merging and cancellation are covered too."""
    b, a = resolve(beta, alpha)
    checked = 0
    for n in range(3, 6):
        x = partial(XPoly.variable, n=n)
        filler = mono(n, *[(1, 2)] * 5)  # of degree 5, so never written
        for degree in range(2, 4):
            for m in all_monomials(n, degree):
                for i, j, k in find_path_triples(m):
                    c = (BETA + 1, 2, Fraction(3, 2))[checked % 3]
                    r = mono_div(m, mono(n, (i, j), (j, k)))
                    expected_written = tuple(
                        mono_mul(r, mono(n, *pairs))
                        for pairs in (((i, k), (i, j)), ((i, k), (j, k)), ((i, k),), ())
                    )
                    # Cancel one written monomial's new coefficient and merge into another.
                    dropped = checked % 4
                    added = (c, c, c * b, c * a)[dropped]
                    terms = {m: c, filler: 7, expected_written[dropped]: -added}
                    terms[expected_written[(dropped + 1) % 4]] = 5
                    before = XPoly(n, dict(terms))
                    replacement = x(i, k) * (x(i, j) + x(j, k) + XPoly.constant(n, b))
                    replacement = replacement + XPoly.constant(n, a)
                    head, rest = XPoly.from_monomial(m), XPoly.from_monomial(r)
                    expected = before - head.scale(c) + rest.scale(c) * replacement
                    written = pathless_step(terms, m, (i, j, k), beta, alpha)
                    assert written == list(expected_written)
                    assert XPoly._raw(n, terms) == expected
                    assert expected_written[dropped] not in terms
                    checked += 1
    assert checked == 142


def test_game_script_reproduces_worked_example():
    p = parse_poly(GAME_START, 4)
    script = parse_script(GAME_SCRIPT, 4)
    result, trace = reduce_pathless(p, script, beta=1, alpha=0)
    assert str(result) == GAME_RESULT
    assert len(trace) == 5
    assert d_image(result) == parse_tpoly(GAME_D_IMAGE, 4)


def test_footnote_pair():
    p = parse_poly(GAME_START, 4)
    q1, _ = reduce_pathless(p, parse_script(GAME_SCRIPT, 4), beta=1, alpha=0)
    q2, _ = reduce_pathless(p, parse_script(ALT_SCRIPT, 4), beta=1, alpha=0)
    assert str(q2) == ALT_RESULT
    assert q1 != q2
    assert all(is_pathless(m) for m in q1.terms)
    assert all(is_pathless(m) for m in q2.terms)
    assert d_image(q1) == d_image(q2)


def test_pathless_input_is_fixed():
    p = parse_poly("x[1,3]*x[2,3] + b*x[1,2]", 3)
    for strategy in (FirstByOrder(), LastByOrder(), RandomStrategy(3)):
        result, trace = reduce_pathless(p, strategy)
        assert result == p
        assert trace == []


def test_script_errors():
    p = parse_poly(GAME_START, 4)
    with pytest.raises(RewriteError):
        # one move is not enough to finish
        reduce_pathless(p, parse_script("m=x[1,2]*x[2,3]*x[3,4] t=(1,2,3)", 4))
    with pytest.raises(RewriteError):
        # the named monomial is absent
        reduce_pathless(p, parse_script("m=x[1,2]*x[2,3] t=(1,2,3)", 4))
    with pytest.raises(RewriteError):
        parse_script("m=x[1,2]*x[2,3]*x[3,4] (1,2,3)", 4)
    with pytest.raises(RewriteError):
        parse_script("m=x[1,2]*x[2,3]*x[3,4] t=(1,2)", 4)


def test_trace_round_trip():
    p = parse_poly(GAME_START, 4)
    _, trace = reduce_pathless(p, FirstByOrder(), beta=1, alpha=0)
    text = format_trace(trace)
    script = parse_script(text, 4)
    assert script.steps == tuple((s.monomial, s.triple) for s in trace)
    replayed, _ = reduce_pathless(p, script, beta=1, alpha=0)
    result, _ = reduce_pathless(p, FirstByOrder(), beta=1, alpha=0)
    assert replayed == result


def test_trace_text_reads_back_as_its_moves(monkeypatch):
    """parse_script(format_trace(trace)) gives back the moves of random games
    under first, last and random at n = 4, 7, 10 and 11, on inputs with one
    factor of a path raised to up to 12, so that two-digit indices and
    exponents >= 10 are read; every line is read by lookup, never by the
    parser."""
    monkeypatch.setattr(poly, "parse_monomial", None)
    rng = random.Random(29)
    texts = []
    for trial in range(40):
        n = (4, 7, 10, 11)[trial % 4]
        i, j, k = sorted(rng.sample(range(1, n + 1), 3))
        exps = {(i, j): rng.randint(1, 12), (j, k): rng.randint(1, 2)}
        for _ in range(rng.randint(0, 2)):
            u, v = sorted(rng.sample(range(1, n + 1), 2))
            exps[(u, v)] = exps.get((u, v), 0) + 1
        p = XPoly(n, {mono_from_pairs(n, exps): 1, mono(n, (i, k), (j, k)): -2})
        for strategy in (FirstByOrder(), LastByOrder(), RandomStrategy(derive_seed(29, trial))):
            _, trace = reduce_pathless(p, strategy, beta=2, alpha=-1)
            text = format_trace(trace)
            assert parse_script(text, n).steps == tuple((s.monomial, s.triple) for s in trace)
            texts.append(text)
    joined = "\n".join(texts)
    assert re.search(r"x\[\d+,1[01]\]", joined) and re.search(r"\^1[0-2]\b", joined)


# A trace line's monomial text at n=11 that the lookup does not read, and
# what parse_script and a replay on x[1,2]^2*x[2,3] + x[1,10]*x[10,11] give
# for it: the parser's error, or the pairs read and the replay's error.
# Every message was printed by the parser-only reader.
FALLBACK_LINES = [
    ("x[2,1]", None, "x[2,1] violates i < j (at position 0)"),
    ("x[1,12]", None, "x[1,12] is out of range for n=11 (at position 0)"),
    ("x[1,2]^0", {}, "script step 1 does not apply: monomial 1 is absent"),
    ("x[1,2]^02", {(1, 2): 2}, "script step 1 does not apply: monomial x[1,2]^2 is absent"),
    ("x[1,2]^1*x[2,3]", {(1, 2): 1, (2, 3): 1},
     "script step 1 does not apply: monomial x[1,2]*x[2,3] is absent"),
    ("x[1,2]^", None, "expected an unsigned integer (at position 7)"),
    ("x[1,2]^\u00b2", None, "expected an unsigned integer (at position 7)"),
    ("x[\u0661,\u0662]", None, "expected an unsigned integer (at position 2)"),
    ("x[1,2] * x[2,3]", {(1, 2): 1, (2, 3): 1},
     "script step 1 does not apply: monomial x[1,2]*x[2,3] is absent"),
    ("x[1, 2]", {(1, 2): 1}, "script step 1 does not apply: monomial x[1,2] is absent"),
    ("x[1,2]**x[2,3]", None, "expected a factor (at position 7)"),
    ("2*x[1,2]", None, "expected coefficient one (at position 0)"),
    ("b*x[1,2]", None, "expected coefficient one (at position 0)"),
    ("1", {}, "script step 1 does not apply: monomial 1 is absent"),
    ("", None, "expected a factor (at position 0)"),
]


@pytest.mark.parametrize("text, read, message", FALLBACK_LINES)
def test_unwritten_trace_text_goes_to_the_parser(monkeypatch, text, read, message):
    parsed = []
    monkeypatch.setattr(poly, "parse_monomial", lambda t, n: parsed.append(t) or parse_monomial(t, n))
    line = f"m={text} t=(1,2,3)"
    if read is None:
        with pytest.raises(PolyParseError) as caught:
            parse_script(line, 11)
        assert str(caught.value) == message
        assert caught.value.position == int(message.rsplit(" ", 1)[1][:-1])
    else:
        script = parse_script(line, 11)
        assert script.steps == ((mono_from_pairs(11, read), (1, 2, 3)),)
        p = parse_poly("x[1,2]^2*x[2,3] + x[1,10]*x[10,11]", 11)
        with pytest.raises(RewriteError, match=f"^{re.escape(message)}$"):
            reduce_pathless(p, script)
    assert parsed == [text]


def test_written_trace_text_is_read_by_lookup(monkeypatch):
    """A repeated factor reads as its square, and an exponent with more
    digits than int() reads gets the parser's answer."""
    monkeypatch.setattr(poly, "parse_monomial", None)
    steps = parse_script("m=x[1,2]*x[1,2] t=(1,2,3)\nm=x[1,10]^12*x[10,11] t=(1,10,11)", 11).steps
    assert steps == (
        (mono_from_pairs(11, {(1, 2): 2}), (1, 2, 3)),
        (mono_from_pairs(11, {(1, 10): 12, (10, 11): 1}), (1, 10, 11)),
    )
    monkeypatch.undo()
    text = "x[1,2]^" + "9" * 5000
    try:
        expected = parse_monomial(text, 11)
    except PolyParseError as exc:
        with pytest.raises(PolyParseError, match=re.escape(str(exc))):
            parse_script(f"m={text} t=(1,2,3)", 11)
    else:
        assert parse_script(f"m={text} t=(1,2,3)", 11).steps == ((expected, (1, 2, 3)),)


def test_random_strategy_is_deterministic():
    rng = random.Random(12)
    for _ in range(20):
        n = rng.randint(3, 5)
        p = random_xpoly(n, 4, 4, rng)
        strategy = RandomStrategy(rng.randrange(2**32))
        r1, t1 = reduce_pathless(p, strategy)
        r2, t2 = reduce_pathless(p, strategy)
        assert r1 == r2
        assert [(s.monomial, s.triple) for s in t1] == [
            (s.monomial, s.triple) for s in t2
        ]


def test_results_are_pathless_and_sound():
    bases = {n: generate_basis(n) for n in (3, 4, 5)}
    rng = random.Random(13)
    strategies = (FirstByOrder(), LastByOrder(), RandomStrategy(77))
    for trial in range(200):
        n = rng.randint(3, 5)
        p = random_xpoly(n, 4, 4, rng)
        q, trace = reduce_pathless(p, strategies[trial % 3])
        assert all(is_pathless(m) for m in q.terms)
        for step in trace:
            assert step.monomial not in step.after.terms
        assert normal_form(p - q, bases[n]).is_zero()


def test_verify_t_unique_small():
    report = verify_t_unique(4, trials=25, strategies=4, seed=101)
    assert report.ok
    assert report.checked == 25
    assert report.failures == []


def test_verify_t_unique_specialized_params():
    report = verify_t_unique(4, trials=10, strategies=3, seed=5, beta=1, alpha=0)
    assert report.ok


def test_strategy_suite():
    suite = strategy_suite(5, seed=3, trial=9)
    assert isinstance(suite[0], FirstByOrder)
    assert isinstance(suite[1], LastByOrder)
    assert len(suite) == 5
    assert all(isinstance(s, RandomStrategy) for s in suite[2:])
    assert suite == strategy_suite(5, seed=3, trial=9)
    assert suite != strategy_suite(5, seed=3, trial=10)
    with pytest.raises(ValueError):
        strategy_suite(1, seed=3, trial=0)


def test_derive_seed_is_stable():
    assert derive_seed(3, 9, 0) == derive_seed(3, 9, 0)
    assert derive_seed(3, 9, 0) != derive_seed(3, 9, 1)
    assert derive_seed(3, 9) != derive_seed(3, 10)


def test_d_invariance_counterexample():
    # q is one game step from p, yet d_image(p) != d_image(q): finished games
    # agree in d_image, but d_image is not constant along the congruence the
    # steps generate.  This pair (n = 3) is the smallest witness, so agreement
    # of finished games cannot follow from congruence alone.
    p = XPoly.variable(1, 2, 3) * XPoly.variable(2, 3, 3)
    terms = dict(p.terms)
    pathless_step(terms, next(iter(terms)), (1, 2, 3))
    q = XPoly._raw(3, terms)
    assert d_image(p) == parse_tpoly("t[1]*t[2]", 3)
    assert d_image(q) == parse_tpoly("t[1]^2 + t[1]*t[2] + b*t[1] + a", 3)
    assert d_image(p) != d_image(q)
    assert normal_form(p - q, generate_basis(3)).is_zero()
    # the gap survives specializing both parameters to zero
    assert d_image(p.substitute(0, 0)) != d_image(q.substitute(0, 0))


def test_script_strategy_from_steps():
    steps = ((mono(3, (1, 2), (2, 3)), (1, 2, 3)),)
    result, trace = reduce_pathless(parse_poly("x[1,2]*x[2,3]", 3), ScriptStrategy(steps))
    assert result == parse_poly("x[1,3]*x[1,2] + x[1,3]*x[2,3] + b*x[1,3] + a", 3)
    assert len(trace) == 1


def test_engine_step_bound():
    p = parse_poly(GAME_START, 4)
    _, trace = reduce_pathless(p)
    assert len(trace) > 1
    with pytest.raises(ResourceLimitError) as info:
        list(rewrite(p, "pathless game", RuleSet(find_path_triples), pathless_step, max_steps=1))
    assert str(info.value) == "pathless game did not terminate within 1 steps"
    exact = rewrite(p, "pathless game", RuleSet(find_path_triples), pathless_step, max_steps=len(trace))
    assert [(m, t, XPoly._raw(4, dict(terms))) for m, t, terms in exact] == [
        (s.monomial, s.triple, s.after) for s in trace
    ]


# Parameters of the replay checks: symbolic, integer, rational and zero.
REPLAY_PARAMS = ((None, None), (2, 3), (Fraction(1, 3), -2), (0, 0))


def live_states(p, strategy, beta, alpha) -> list:
    """Copies of the states the engine yields in the game reduce_pathless plays."""
    b, a = resolve(beta, alpha)
    step = partial(pathless_step, beta=b, alpha=a)
    game = rewrite(p, "pathless game", RuleSet(find_path_triples), step, strategy)
    return [XPoly._raw(p.n, dict(terms)) for _, _, terms in game]


def test_trace_after_replays_the_live_states():
    rng = random.Random(31)
    inputs = [parse_poly(GAME_START, 4), parse_poly("x[1,2]*x[2,3]*x[3,4]*x[4,5]*x[5,6]", 6)]
    inputs += [random_xpoly(5, 4, 4, rng) for _ in range(3)]
    steps = 0
    for (beta, alpha), p in itertools.product(REPLAY_PARAMS, inputs):
        p = p.substitute(beta, alpha)
        _, played = reduce_pathless(p, RandomStrategy(7), beta, alpha)
        script = ScriptStrategy(tuple((s.monomial, s.triple) for s in played))
        for strategy in (FirstByOrder(), LastByOrder(), RandomStrategy(7), script):
            states = live_states(p, strategy, beta, alpha)
            result, trace = reduce_pathless(p, strategy, beta, alpha)
            assert len(trace) == len(states)
            if trace:
                # Out of order: the last step first, then a middle one.
                middle = len(trace) // 2
                assert trace[-1].after == states[-1] == result
                assert trace[middle].after == states[middle]
            else:
                assert result is p
            assert [s.after for s in trace] == states
            steps += len(trace)
    assert steps > 1000


def live_moves(p, name, triples_of, step, strategy) -> tuple:
    """(moves, final): each move of the engine as (the state it starts from,
    monomial, triple), read from the live terms, and the state it ends on."""
    moves, before = [], dict(p.terms)
    for mono, triple, terms in rewrite(p, name, RuleSet(triples_of), step, strategy):
        moves.append((before, mono, triple))
        before = dict(terms)
    return moves, before


def test_first_and_last_picks_match_brute_force():
    """Under first every move rewrites the largest present monomial that has
    a triple, by its lex-first triple; under last the smallest, by its
    lex-last triple; and no triple is left at the end.  Both reductions,
    every replay point, random inputs at n <= 6 with a path and a fork
    multiplied in so that most take several steps."""
    rng = random.Random(53)
    inputs = []
    for t in range(24):
        n = 3 + t % 4
        i, j, k = sorted(rng.sample(range(1, n + 1), 3))
        q = random_xpoly(n, 3, 4, rng)
        fork, path = (mono_from_pairs(n, {pair: 1, (i, j): 1}) for pair in ((i, k), (j, k)))
        inputs.append(q * XPoly.from_monomial(fork) + q * XPoly.from_monomial(path))
    moves_seen = 0
    for (beta, alpha), p in itertools.product(REPLAY_PARAMS, inputs):
        p = p.substitute(beta, alpha)
        b, a = resolve(beta, alpha)
        basis = generate_basis(p.n, beta, alpha)
        rules = (
            ("pathless game", find_path_triples, partial(pathless_step, beta=b, alpha=a)),
            ("normal form", _fork_triples, partial(reduce_step, basis=basis)),
        )
        for name, triples_of, step in rules:
            for strategy, pick, end in ((FirstByOrder(), max, 0), (LastByOrder(), min, -1)):
                moves, final = live_moves(p, name, triples_of, step, strategy)
                for before, mono, triple in moves:
                    expected = pick(m for m in before if triples_of(m))
                    assert (mono, triple) == (expected, triples_of(expected)[end])
                assert not any(triples_of(m) for m in final)
                moves_seen += len(moves)
    assert moves_seen > 2000, moves_seen


@pytest.mark.parametrize("strategy", ["first", object(), None], ids=["str", "object", "None"])
def test_unknown_strategy_raises_before_any_step(strategy):
    """A strategy that is none of the four classes is refused by name, by
    both reductions, whether or not the input has anything to rewrite."""
    basis = generate_basis(4)
    for text in ("x[1,2]*x[2,3] + x[1,2]*x[1,3]", "x[1,4] + 3"):
        p = parse_poly(text, 4)
        for reduce in (partial(reduce_pathless, p, strategy), partial(normal_form, p, basis, strategy)):
            with pytest.raises(TypeError, match=re.escape(f"unknown strategy {strategy!r}")):
                reduce()


def test_trace_repr_shows_the_move_without_replaying():
    p = parse_poly("x[1,2]*x[2,3]*x[3,4]*x[4,5]*x[5,6]", 6)
    trace = reduce_pathless(p, RandomStrategy(5))[1]
    texts = [repr(s) for s in trace]
    assert len(trace) > 50 and trace[0]._record._states is None
    assert texts == [f"TraceStep({s.monomial!r}, {s.triple!r})" for s in trace]


def test_trace_is_freed_by_reference_counting():
    p = parse_poly(GAME_START, 4)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for read in (False, True):
            trace = reduce_pathless(p, RandomStrategy(3))[1]
            if read:
                assert trace[1].after != trace[0].after
            del trace
            assert gc.collect() == 0, read
    finally:
        if enabled:
            gc.enable()


def test_reduce_pathless_is_bounded(monkeypatch):
    # reduce_pathless passes no bound, so the engine's default applies
    assert rewrite.__defaults__[-1] == DEFAULT_MAX_STEPS
    monkeypatch.setattr(rewrite, "__defaults__", (FirstByOrder(), 2))
    with pytest.raises(ResourceLimitError, match="pathless game did not terminate within 2 steps"):
        reduce_pathless(parse_poly(GAME_START, 4))


def checked_step(step, terms: dict, mono, triple) -> dict:
    """Apply an in-place step to a copy of terms and return the copy, checking
    that the step changed no coefficient but at mono and the monomials it
    returned, and that it changed nothing when it raised."""
    after = dict(terms)
    try:
        written = step(after, mono, triple)
    except RewriteError:
        assert after == terms
        raise
    changed = {m for m in terms.keys() | after.keys() if terms.get(m) != after.get(m)}
    assert changed <= {mono, *written}
    return after


def reference_rewrite(
    p, name, triples_of, step, strategy=FirstByOrder(), max_steps=DEFAULT_MAX_STEPS
):
    """The engine before it kept a reducible set or rewrote in place: every
    step copies the terms, re-sorts them all and finds the triples of each
    one again."""
    rng = random.Random(strategy.seed) if isinstance(strategy, RandomStrategy) else None
    script = strategy.steps if isinstance(strategy, ScriptStrategy) else None
    current = p.terms
    for count in itertools.count(1):
        if script is not None and count <= len(script):
            mono, triple = script[count - 1]
        else:
            ordered = sorted(current, reverse=True)
            choices = [(m, ts) for m in ordered if (ts := triples_of(m))]
            if not choices:
                return
            if script is not None:
                raise RewriteError(f"script exhausted before the {name} finished")
            if isinstance(strategy, FirstByOrder):
                mono, triple = choices[0][0], choices[0][1][0]
            elif isinstance(strategy, LastByOrder):
                mono, triple = choices[-1][0], choices[-1][1][-1]
            else:
                flat = [(m, t) for m, ts in choices for t in ts]
                mono, triple = flat[rng.randrange(len(flat))]
        if count > max_steps:
            raise ResourceLimitError(f"{name} did not terminate within {max_steps} steps")
        try:
            current = checked_step(step, current, mono, triple)
        except RewriteError as exc:
            if script is None:
                raise
            raise RewriteError(f"script step {count} does not apply: {exc}") from None
        yield mono, triple, current


def run_engine(steps) -> tuple:
    """(the steps an engine yielded, each with a copy of its term dict,
    (error type, text) or None)."""
    out = []
    try:
        for mono, triple, terms in steps:
            out.append((mono, triple, dict(terms)))
    except (RewriteError, ResourceLimitError) as exc:
        return out, (type(exc), str(exc))
    return out, None


# Inputs where a step cancels another reducible monomial to zero: the
# first in the game, the second in the normal form, both under `first`.
CANCELLING = (
    "x[1,2]*x[2,3]*x[3,4] - x[1,3]*x[2,3]*x[3,4]",
    "x[1,2]*x[1,3]*x[1,4] + x[1,3]*x[1,4]*x[2,3]",
)


def reducible_set_events(p, triples_of, steps) -> tuple:
    """How many steps cancel a reducible monomial other than their own, and
    how many re-create a monomial that an earlier step removed."""
    cancelled = recreated = 0
    before, removed = p.terms, set()
    for mono, _, after in steps:
        cancelled += any(m != mono and m not in after and triples_of(m) for m in before)
        recreated += any(m in removed and m not in before for m in after)
        removed.update(m for m in before if m not in after)
        before = after
    return cancelled, recreated


def test_engine_matches_full_rescan():
    rng = random.Random(23)
    inputs = [parse_poly(text, 4) for text in CANCELLING]
    inputs += [random_xpoly(3 + t % 5, 4 if t % 5 < 3 else 3, 5, rng) for t in range(25)]
    bases = {n: generate_basis(n) for n in range(3, 8)}
    events = {}
    for trial, p in enumerate(inputs):
        basis = bases[p.n]
        rules = (
            ("pathless game", find_path_triples, pathless_step),
            ("normal form", _fork_triples, partial(reduce_step, basis=basis)),
        )
        for name, triples_of, step in rules:
            strategies = [FirstByOrder(), LastByOrder()]
            strategies += [RandomStrategy(derive_seed(23, trial, s)) for s in range(3)]
            for strategy in strategies:
                expected, error = run_engine(reference_rewrite(p, name, triples_of, step, strategy))
                assert error is None
                got = run_engine(rewrite(p, name, RuleSet(triples_of), step, strategy))
                assert got == (expected, None)
                moves = [SimpleNamespace(monomial=m, triple=t) for m, t, _ in expected]
                script = parse_script(format_trace(moves), p.n)
                # The script in full and cut short, a script whose first step
                # does not apply, and a step bound one short of the game.
                replays = [
                    (script, DEFAULT_MAX_STEPS),
                    (ScriptStrategy(script.steps[: len(expected) // 2]), DEFAULT_MAX_STEPS),
                    (ScriptStrategy(script.steps[1:]), DEFAULT_MAX_STEPS),
                    (strategy, max(len(expected) - 1, 0)),
                ]
                for replay, bound in replays:
                    got = run_engine(rewrite(p, name, RuleSet(triples_of), step, replay, bound))
                    want = run_engine(reference_rewrite(p, name, triples_of, step, replay, bound))
                    assert got == want
                counts = reducible_set_events(p, triples_of, expected)
                events[name] = [a + b for a, b in zip(events.get(name, (0, 0)), counts)]
    # Both rules meet both ways a step changes the reducible set besides its own monomial.
    assert all(cancelled and recreated for cancelled, recreated in events.values()), events


def test_reductions_leave_their_input_unchanged():
    basis = generate_basis(4)
    rules = ((find_path_triples, pathless_step), (_fork_triples, partial(reduce_step, basis=basis)))
    # Each input has both a path and a fork, so both reductions take steps.
    for text in ("x[1,4]*x[1,3]*x[1,2] + b*x[1,2]*x[2,3]", "x[1,2]*x[1,3]*x[2,3] - a*x[1,3]*x[3,4]"):
        p = parse_poly(text, 4)
        before = dict(p.terms)
        _, trace = reduce_pathless(p)
        assert trace and normal_form(p, basis) != p
        for triples_of, step in rules:
            states = [terms for _, _, terms in rewrite(p, "test", RuleSet(triples_of), step)]
            assert states and all(terms is not p.terms for terms in states)
        assert p.terms == before


def dissections(m: int, k: int) -> int:
    """D(m, k) = C(m-3, k)*C(m+k-1, k)/(k+1), the number of dissections of
    a convex m-gon by k diagonals (Kirkman 1857, Cayley 1890)."""
    return comb(m - 3, k) * comb(m + k - 1, k) // (k + 1)


GAMES_ON_THE_PATH = [
    (n, strategy)
    for n in range(3, 8)
    for strategy in (FirstByOrder(), LastByOrder(), RandomStrategy(derive_seed(41, n)))
] + [(8, FirstByOrder())]


@pytest.mark.parametrize(
    "n, strategy", GAMES_ON_THE_PATH, ids=[f"{n}-{type(s).__name__}" for n, s in GAMES_ON_THE_PATH]
)
def test_path_game_counts_polygon_dissections(n, strategy):
    """An oracle outside the engine (Meszaros, "Root polytopes,
    triangulations, and the subdivision algebra I", Trans. AMS 2011): at
    a = 0, play the path x[1,2]*...*x[n-1,n] to the end and set every x to
    1.  Among the terms of x-degree d, the coefficient of b^(n-1-d) is then
    D(n+1, d-1), and no other (x-degree, b-degree) pair occurs."""
    path = XPoly.from_monomial(mono_from_pairs(n, {(i, i + 1): 1 for i in range(1, n)}))
    result, _ = reduce_pathless(path, strategy, alpha=0)
    sums: dict = {}
    for m, coeff in result.terms.items():
        for (deg_b, deg_a), value in coeff._terms.items() if isinstance(coeff, Coeff) else [((0, 0), coeff)]:
            assert deg_a == 0
            key = sum(m), deg_b
            sums[key] = sums.get(key, 0) + value
    assert sums == {(d, n - 1 - d): dissections(n + 1, d - 1) for d in range(1, n)}
    if n == 8:
        assert [sums[d, 7 - d] for d in range(7, 0, -1)] == [429, 1287, 1485, 825, 225, 27, 1]


CATALAN = [comb(2 * k, k) // (k + 1) for k in range(6)]


@pytest.mark.parametrize("strategy", [FirstByOrder(), LastByOrder(), RandomStrategy(1)], ids=repr)
@pytest.mark.parametrize("n", range(3, 7))
def test_complete_graph_volumes_are_catalan_products(n, strategy):
    """An oracle outside the engine (Zeilberger, "Proof of a conjecture of
    Chan, Robbins, and Yuen", ETNA 9, 1999): play K_n, the product of all
    x[i,j], at b = a = 0 and set every x to 1.  The sum is C_1*...*C_{n-1},
    the volume of the Chan-Robbins-Yuen polytope, and every term has degree
    n(n-1)/2.  At x = 1, b = -1, a = 0 every relation vanishes (1 = 1 + 1 - 1),
    so every result sums to 1 there, played at that point or symbolically.
    Random draws cost time linear in the reducible monomials, so the random
    game at b = -1 and the symbolic games stop at n = 5."""
    pairs = combinations(range(1, n + 1), 2)
    k_n = XPoly.from_monomial(mono_from_pairs(n, dict.fromkeys(pairs, 1)))
    result, _ = reduce_pathless(k_n, strategy, 0, 0)
    assert sum(result.terms.values()) == prod(CATALAN[1:n])
    assert {sum(m) for m in result.terms} == {n * (n - 1) // 2}
    if n < 6 or not isinstance(strategy, RandomStrategy):
        result, _ = reduce_pathless(k_n, strategy, -1, 0)
        assert sum(result.terms.values()) == 1
    if n < 6:
        result, _ = reduce_pathless(k_n, strategy)
        assert sum(substitute_coeff(c, -1, 0) for c in result.terms.values()) == 1
