"""The pathless reduction game and the rewriting engine behind both reductions.

A monomial divisible by x[i,j]*x[j,k] with i < j < k may be rewritten by

    x[i,j]*x[j,k]  ->  x[i,k]*(x[i,j] + x[j,k] + b) + a

applied to the whole coefficient of that monomial.  Play until no monomial
contains such a divisor; the result is pathless.  The game is not
confluent: different choices can end in different pathless polynomials.
What stays invariant is the image of the result under d_image, and
`verify_t_unique` checks that empirically over randomized strategies.

Every step strictly drops the pathless weight of the rewritten monomial
on all four replacement monomials, which is why the game always ends;
the weight is linear, so checking the drop once per triple, on the bare
relation x[i,j]*x[j,k], covers every monomial.

Both reductions read one relation, whose monomials `relation_monomials`
lists per triple: the game with head x[i,j]*x[j,k], the forkless normal
form of `groebner` negated, with head x[i,k]*x[i,j].  A rule is a head
monomial and its replacement, as in Bergman's reduction systems ("The
diamond lemma for ring theory", Adv. Math. 1978); both compile into one
kernel, which `kernel_step`, the one writer of a step's monomials, runs.

`rewrite` is the one reduction loop: a strategy picks each step, and a
`RuleSet` memoises the triples of each monomial.  It owns one copy of the
input's terms and keeps the reducible monomials sorted, updated from the
written monomials only, as in the in-place division of Monagan & Pearce
(CASC 2007), with a sorted list in place of their heap.  The strategy is
resolved once, before the first step, and an unknown one raises TypeError.
The rewritten monomial leaves the list at the index the strategy picked it
from (only a script step bisects for it), and the triple counts a random
draw reads are kept under RandomStrategy only.  A game's trace
keeps its moves, not a polynomial per step: `TraceStep.after` is replayed
from the input on the first read, so printing the moves builds none.

Rational points.  `reduce_pathless` plays at the point it is given, and
its trace replays there.  The callers that want ints, `subdivalg reduce`
and `verify_t_unique`, play on the `poly.rescaled` input at the integral
point (L*b, L^2*a) of `ring.integral_point`, where the game makes the
moves it makes at (b, a) (see `poly.rescaled`).
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left, bisect_right
from functools import lru_cache
from typing import Callable, Iterator, Optional, Union

from .poly import (
    Monomial,
    Triple,
    XPoly,
    accumulate,
    ambient_size,
    d_image,
    format_monomial,
    mono_from_pairs,
    mono_text,
    num_vars,
    read_monomial,
    rescaled,
    slot_partners,
    variable_names,
    weight_pathless,
)
from .ring import ALPHA, BETA, CoeffLike, RationalLike, integral_point, resolve


DEFAULT_MAX_STEPS = 500_000


class RewriteError(ValueError):
    """A step or strategy was asked to do something the rule does not allow."""


class ResourceLimitError(RuntimeError):
    """A reduction hit its step limit before it finished."""


class _Fields:
    """Equality, hash and repr over the fields named in __slots__, in
    order; two values are equal only when their classes are the same."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = (f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({', '.join(fields)})"


class FirstByOrder(_Fields):
    """Largest reducible monomial, lexicographically smallest triple."""

    __slots__ = ()


class LastByOrder(_Fields):
    """Smallest reducible monomial, lexicographically largest triple."""

    __slots__ = ()


class RandomStrategy(_Fields):
    """Uniform choice among (reducible monomial, applicable triple) pairs.

    Choices come from random.Random(seed), so replays are deterministic.
    """

    __slots__ = ("seed",)

    def __init__(self, seed: int):
        self.seed = seed


class ScriptStrategy(_Fields):
    """Fixed list of (monomial, triple) steps; each must apply in turn."""

    __slots__ = ("steps",)

    def __init__(self, steps: tuple):
        self.steps = steps


Strategy = Union[FirstByOrder, LastByOrder, RandomStrategy, ScriptStrategy]


class TraceStep:
    """One move of a game: its monomial and triple, and `after`, the
    polynomial it leaves.  The first read of any step's `after` replays the
    game from its `_Moves` record and keeps every state; `repr` reads none."""

    __slots__ = ("monomial", "triple", "_record", "_index")

    def __init__(self, monomial: Monomial, triple: Triple, record: "_Moves", index: int):
        self.monomial, self.triple, self._record, self._index = monomial, triple, record, index

    @property
    def after(self) -> XPoly:
        return self._record.states()[self._index]

    def __repr__(self) -> str:
        return f"TraceStep({self.monomial!r}, {self.triple!r})"


class _Moves:
    """One game's input p, its step coefficients (None, None, b, a) and its
    (monomial, triple) moves.  `states()` replays the moves from p on its
    first call, by the game's own step kernels and coefficients, and keeps
    one XPoly per move.  The steps point at the record, never it at them,
    so reference counting alone frees a trace."""

    __slots__ = ("p", "coeffs", "moves", "_states")

    def __init__(self, p: XPoly, coeffs: tuple):
        self.p, self.coeffs, self.moves, self._states = p, coeffs, [], None

    def states(self) -> list:
        if self._states is None:
            n = self.p.n
            kernels = _path_kernels(num_vars(n))
            terms = dict(self.p.terms)
            states = []
            for mono, triple in self.moves:
                kernel_step(terms, mono, kernels[triple], self.coeffs)
                states.append(XPoly._raw(n, dict(terms)))
            self._states = states
        return self._states


def find_path_triples(m: Monomial) -> list:
    """All (i, j, k), i < j < k, with x[i,j]*x[j,k] dividing m, in lex order."""
    partners = slot_partners(len(m), False)
    return [t for row in itertools.compress(partners, m) for pos, t in row if m[pos]]


@lru_cache(maxsize=None)
def relation_monomials(n: int) -> dict:
    """Per triple (i, j, k), the monomials of its relation's five terms:
    x[i,j]*x[j,k], x[i,k]*x[i,j], x[i,k]*x[j,k], x[i,k] and 1."""
    return {
        (i, j, k): tuple(
            mono_from_pairs(n, dict.fromkeys(pairs, 1))
            for pairs in (((i, j), (j, k)), ((i, k), (i, j)), ((i, k), (j, k)), ((i, k),), ())
        )
        for i, j, k in itertools.combinations(range(1, n + 1), 3)
    }


class RuleSet(dict):
    """One reduction's memo: rules[m] lists the triples of monomial m in lex
    order, found by find(m) at first use."""

    def __init__(self, find: Callable):
        super().__init__()
        self.find = find

    def __missing__(self, m: Monomial) -> list:
        found = self[m] = self.find(m)
        return found


def compile_kernel(head: Monomial, monos) -> tuple:
    """(width, head, edits): the width of a monomial, the (slot, exponent)
    pairs of head, and per monomial the (slot, change) pairs that take the
    one before it, head for the first, to it."""
    edits = tuple(
        tuple((s, y - x) for s, (x, y) in enumerate(zip(before, after)) if x != y)
        for before, after in zip((head, *monos), monos)
    )
    return len(head), tuple((s, e) for s, e in enumerate(head) if e), edits


def kernel_step(terms: dict, mono: Monomial, kernel: tuple, coeffs) -> Optional[list]:
    """Replace c*mono in the term dict by c*coeffs[t] at r times the kernel's
    t-th monomial, r = mono / head, in place; returns those monomials, or
    None, changing nothing, when the head does not divide mono or mono is
    absent.  A coefficient None stands for 1: c is copied, not multiplied."""
    width, head, edits = kernel
    if len(mono) != width:
        return None
    for slot, exponent in head:
        if mono[slot] < exponent:
            return None
    coeff = terms.pop(mono, None)
    if coeff is None:
        return None
    out = list(mono)
    written = []
    for edit in edits:
        for slot, change in edit:
            out[slot] += change
        written.append(tuple(out))
    values = [coeff if c is None else coeff * c for c in coeffs]
    accumulate(terms, zip(written, values))
    return written


@lru_cache(maxsize=None)
def _path_kernels(width: int) -> dict:
    """Per triple, the kernel of a game step on monomials of this width,
    each checked to drop the pathless weight on the bare relation."""
    kernels = {}
    for triple, (path, *written) in relation_monomials(ambient_size(width)).items():
        bound = weight_pathless(path)
        if any(weight_pathless(m) >= bound for m in written):
            raise RewriteError(f"step at {format_monomial(path)} does not drop the pathless weight")
        kernels[triple] = compile_kernel(path, written)
    return kernels


def pathless_step(
    terms: dict,
    mono: Monomial,
    triple: Triple,
    beta: Optional[CoeffLike] = None,
    alpha: Optional[CoeffLike] = None,
) -> list:
    """The `kernel_step` of the game at monomial mono and triple (i, j, k);
    returns the monomials it wrote, r times x[i,k]*x[i,j], x[i,k]*x[j,k],
    x[i,k] and 1.  A step that does not apply raises RewriteError and
    changes nothing.  beta and alpha are used as given, None for the symbol."""
    kernel = _path_kernels(len(mono)).get(triple)
    if kernel is None:
        raise RewriteError(f"malformed triple {triple} for n={ambient_size(len(mono))}")
    coeffs = None, None, BETA if beta is None else beta, ALPHA if alpha is None else alpha
    written = kernel_step(terms, mono, kernel, coeffs)
    if written is None:
        if mono not in terms:
            raise RewriteError(f"monomial {format_monomial(mono)} is absent")
        i, j, k = triple
        raise RewriteError(f"x[{i},{j}]*x[{j},{k}] does not divide {format_monomial(mono)}")
    return written


def rewrite(
    p: XPoly,
    name: str,
    rules: RuleSet,
    step: Callable,
    strategy: Strategy = FirstByOrder(),
    max_steps: int = DEFAULT_MAX_STEPS,
) -> Iterator[tuple]:
    """Rewrite p until no monomial has a triple, yielding (monomial, triple,
    terms) per step.  rules[m] lists the triples of m in lex order.
    step(terms, m, t) rewrites the term dict there in place, removing m's
    term, and returns every other monomial whose coefficient it changed, or
    raises RewriteError before changing anything.

    The strategy is resolved once, before the first step; one that is none
    of the four strategy classes raises TypeError.  The rewritten monomial
    leaves the sorted reducible list at the index it was picked from (the
    end under first, 0 under last, the draw's rank under random); only a
    script step bisects for it.  The written monomials are bisected in or
    out.  The triple count per reducible monomial, which a random draw
    reads, is kept under RandomStrategy only.

    The engine rewrites its own copy of p's terms, so p never changes; the
    yielded terms are that live copy, which the next step changes again, so
    a caller that keeps a state copies it.  The last state is final once
    the generator returns: `reduce_pathless` and `groebner.normal_form`
    take it as their result's terms without a copy.
    """
    first = isinstance(strategy, FirstByOrder)
    last = isinstance(strategy, LastByOrder)
    rng = random.Random(strategy.seed) if isinstance(strategy, RandomStrategy) else None
    script = strategy.steps if isinstance(strategy, ScriptStrategy) else None
    if not (first or last or rng is not None or script is not None):
        raise TypeError(f"unknown strategy {strategy!r}")
    terms = dict(p.terms)
    reducible = sorted(m for m in terms if rules[m])
    # The triple count of each reducible monomial, which RandomStrategy draws by.
    counts = None if rng is None else [len(rules[m]) for m in reducible]
    for count in itertools.count(1):
        if script is not None:
            if count > len(script):
                if reducible:
                    raise RewriteError(f"script exhausted before the {name} finished")
                return
            mono, triple = script[count - 1]
            at = None
        elif not reducible:
            return
        elif first:
            at = -1
            mono = reducible[-1]
            triple = rules[mono][0]
        elif last:
            at = 0
            mono = reducible[0]
            triple = rules[mono][-1]
        else:
            # Index into the (monomial, triple) pairs listed by descending monomial.
            ends = list(itertools.accumulate(reversed(counts)))
            index = rng.randrange(ends[-1])
            rank = bisect_right(ends, index)
            at = -1 - rank
            mono = reducible[at]
            triple = rules[mono][index - ends[rank - 1] if rank else index]
        if count > max_steps:
            raise ResourceLimitError(f"{name} did not terminate within {max_steps} steps")
        try:
            written = step(terms, mono, triple)
        except RewriteError as exc:
            if script is None:
                raise
            raise RewriteError(f"script step {count} does not apply: {exc}") from None
        if at is None:
            # A step that applied found mono present with a triple: it is listed.
            at = bisect_left(reducible, mono)
        del reducible[at]
        if counts is not None:
            del counts[at]
        for m in written:
            present = m in terms
            # A listed monomial has triples, found while it was present.
            if rules[m] if present else rules.get(m):
                at = bisect_left(reducible, m)
                listed = at < len(reducible) and reducible[at] == m
                if present and not listed:
                    reducible.insert(at, m)
                    if counts is not None:
                        counts.insert(at, len(rules[m]))
                elif listed and not present:
                    del reducible[at]
                    if counts is not None:
                        del counts[at]
        yield mono, triple, terms


def reduce_pathless(
    p: XPoly,
    strategy: Strategy = FirstByOrder(),
    beta: Optional[RationalLike] = None,
    alpha: Optional[RationalLike] = None,
) -> tuple:
    """Play the game to a pathless polynomial at (b, a) as given; returns
    (result, trace).  The trace keeps the moves only: each step's `after`
    is replayed from p at the same (b, a) on the first read of any of
    them, so a caller that prints the moves and the result never builds a
    polynomial per step.  At a rational point every step multiplies
    Fractions; a caller that wants ints plays on `poly.rescaled(p, L)` at
    the integral point (L*b, L^2*a) of `ring.integral_point`, as
    `subdivalg reduce` and `verify_t_unique` do."""
    b, a = resolve(beta, alpha)
    # The callee is looked up at each call, so run-time wrappers see every call.
    step = lambda terms, mono, triple: pathless_step(terms, mono, triple, b, a)  # noqa: E731
    record = _Moves(p, (None, None, b, a))
    moves = record.moves
    terms = None
    game = rewrite(p, "pathless game", RuleSet(find_path_triples), step, strategy)
    for mono, triple, terms in game:
        moves.append((mono, triple))
    trace = [TraceStep(mono, triple, record, index) for index, (mono, triple) in enumerate(moves)]
    if not moves:
        return p, trace
    return XPoly._raw(p.n, terms), trace


def format_trace(trace: list) -> str:
    """One line per step: m=<monomial> t=(i,j,k), each monomial written from
    the power tables of its ambient, read once per trace."""
    if not trace:
        return ""
    tables = variable_names("x", ambient_size(len(trace[0].monomial)))
    lines = []
    for step in trace:
        i, j, k = step.triple
        lines.append(f"m={mono_text(tables, step.monomial) or '1'} t=({i},{j},{k})")
    return "\n".join(lines)


def parse_script(text: str, n: int) -> ScriptStrategy:
    """Read trace-format lines back as a script strategy.  Each monomial goes
    to `read_monomial`, which looks up the text `format_trace` writes and
    hands any other text to the parser, errors and positions included."""
    steps = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        head, sep, tail = line.partition(" t=(")
        if not head.startswith("m=") or not sep or not tail.endswith(")"):
            raise RewriteError(f"line {lineno}: expected 'm=<monomial> t=(i,j,k)'")
        mono = read_monomial(head[2:], n)
        try:
            i, j, k = (int(part) for part in tail[:-1].split(","))
        except ValueError:
            raise RewriteError(f"line {lineno}: malformed triple") from None
        steps.append((mono, (i, j, k)))
    return ScriptStrategy(tuple(steps))


COEFF_CHOICES = (1, -1, 2, -2, BETA, ALPHA, BETA + 1)


def random_terms(
    length: int, slots: int, max_deg: int, max_terms: int, rng: random.Random
) -> dict:
    """Up to max_terms random terms {exponent tuple: coefficient}: each key has the
    given length and degree <= max_deg spread over its first `slots`
    positions, each coefficient comes from COEFF_CHOICES.  Seed-stable."""

    def draws():
        for _ in range(rng.randint(1, max_terms)):
            exps = [0] * length
            if slots:
                for _ in range(rng.randint(0, max_deg)):
                    exps[rng.randrange(slots)] += 1
            yield tuple(exps), rng.choice(COEFF_CHOICES)

    return accumulate({}, draws())


def random_xpoly(n: int, max_deg: int, max_terms: int, rng: random.Random) -> XPoly:
    """Random polynomial: up to max_terms terms of degree <= max_deg each,
    coefficients from {1, -1, 2, -2, b, a, b+1}.  Seed-stable."""
    width = num_vars(n)
    return XPoly._raw(n, random_terms(width, width, max_deg, max_terms, rng))


def derive_seed(seed: int, *parts: int) -> int:
    """Stable per-trial stream seed from a base seed and indices."""
    out = seed & 0xFFFFFFFFFFFFFFFF
    for part in parts:
        out = (out * 1000003 + part + 1) & 0xFFFFFFFFFFFFFFFF
    return out


TOO_FEW_STRATEGIES = "need at least two strategies to compare"


def strategy_suite(count: int, seed: int, trial: int) -> list:
    """The two deterministic strategies plus seeded random ones."""
    if count < 2:
        raise ValueError(TOO_FEW_STRATEGIES)
    suite: list = [FirstByOrder(), LastByOrder()]
    for s in range(count - 2):
        suite.append(RandomStrategy(derive_seed(seed, trial, s)))
    return suite


class Report(_Fields):
    """What a verification sweep checked and which cases failed.

    `params` holds the sweep's inputs (n, seed, sizes, beta, alpha),
    `counts` the cases checked of each kind, and `failures` one line per
    failed case, with what it takes to replay it.  A report is truthy
    exactly when no case failed.  It is mutable, so it has no hash.
    """

    __slots__ = ("params", "counts", "failures")
    __hash__ = None

    def __init__(self, params: dict, counts: dict, failures: Optional[list] = None):
        self.params, self.counts = params, counts
        self.failures = [] if failures is None else failures

    @property
    def checked(self) -> int:
        return sum(self.counts.values())

    @property
    def ok(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.ok


def verify_t_unique(
    n: int,
    trials: int,
    strategies: int,
    seed: int,
    max_deg: int = 4,
    max_terms: int = 5,
    beta: Optional[RationalLike] = None,
    alpha: Optional[RationalLike] = None,
) -> Report:
    """Reduce random inputs under several strategies; d_images must agree.

    Trial `trial` draws its input from random.Random(derive_seed(seed, trial)),
    then substitutes beta and alpha into it, so a drawn term can cancel
    (b+1 at b=-1) and leave fewer terms.  Each strategy plays on
    `rescaled(p, L)` at the integral point (L*b, L^2*a), as `subdivalg
    reduce` does, and the d-images are compared there; only a failure line
    writes its two images divided by the trial's factors."""
    if strategies < 2:
        raise ValueError(TOO_FEW_STRATEGIES)
    report = Report(
        dict(n=n, trials=trials, strategies=strategies, seed=seed, max_deg=max_deg,
             max_terms=max_terms, beta=beta, alpha=alpha),
        {"inputs": 0},
    )
    scale, beta_at, alpha_at = integral_point(beta, alpha)
    for trial in range(trials):
        trial_seed = derive_seed(seed, trial)
        p = random_xpoly(n, max_deg, max_terms, random.Random(trial_seed)).substitute(beta, alpha)
        q, factors = rescaled(p, scale)
        images = []
        for strat in strategy_suite(strategies, seed, trial):
            result, _ = reduce_pathless(q, strat, beta_at, alpha_at)
            images.append(d_image(result))
        report.counts["inputs"] += 1
        for idx in range(1, len(images)):
            if images[idx] != images[0]:
                report.failures.append(
                    f"trial {trial} seed {trial_seed} input {p}; strategy 0 image "
                    f"{images[0].text(factors)}; strategy {idx} image {images[idx].text(factors)}"
                )
    return report
