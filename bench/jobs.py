"""Seeded job streams for the three benchmark workloads.

A stream is an endless sequence of rounds.  Every round of a workload
holds the same job classes (shape, size, strategy and parameter kind) in
the same numbers, shuffled; only the concrete inputs change from round to
round.  Runs measure whole rounds, so the input mix of a run does not
depend on where the clock stopped.

A round is a list of groups.  The first job of a group is its leader;
the other jobs are checked against the leader's output (same d-image,
same normal form, byte-identical replay).

Inputs do not repeat inside a stream, nor repeat the argvs a stream is
told to avoid, except where the command itself repeats them: a replay
job reduces its leader's input again.  The `count`/`basis` jobs draw
(n, degree) from a finite pool and repeat only once it is used up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import count as counter
from typing import Iterator, Optional

STRATEGIES = ("first", "last", "random")
PARAM_KINDS = ("sym", "int", "rat")

# Path-rich shapes for the game, on abstract vertices 1..V.  Every
# rewrite touches only the vertices of the shape, so a monotone
# relabelling into 1..n gives an isomorphic game: the cost of a job is
# set by its shape, strategy and parameter kind, not by the labels.  The
# shapes cost about 1 : 1.35 : 2 : 2.5, so that with the fast replays and
# t-unique sweeps the median and the 90th percentile of a round fall inside
# a shape's cluster of job times, not in a gap between two clusters.
GAME_SHAPES = (
    ((1, 2), (2, 3), (3, 4), (4, 5), (3, 4)),
    ((1, 2), (2, 3), (2, 3), (3, 4), (4, 5)),
    ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6)),
    ((1, 2), (2, 3), (3, 4), (4, 5), (3, 4), (2, 6)),
)

# Fork-rich shapes: several factors in one row.
FORK_SHAPES = (
    ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4)),
    ((1, 2), (1, 2), (1, 3), (1, 4), (2, 3), (2, 5)),
    ((1, 2), (1, 5), (1, 4), (2, 5), (2, 6), (3, 4), (3, 6)),
)

# (n, max degree, truncation order) of the ed-ba sweeps in a series round.
ED_BA_SIZES = ((4, 2, 4), (5, 2, 3), (6, 2, 2), (7, 1, 4))
A_KILLS_J_SIZES = ((5, 5), (7, 4))  # (n, samples)
E_INVERSE_SIZES = ((6, 120), (7, 120))  # (n, samples)

# (n, degree) pools for count and basis, kept below ~5000 enumerated
# monomials so that no single job sets the peak memory of a run.
COUNT_POOL = tuple((5, d) for d in range(3, 8)) + tuple((6, d) for d in range(3, 6)) + ((7, 3),)
BASIS_POOL = tuple((5, d) for d in range(2, 7)) + tuple((6, d) for d in range(2, 5)) + ((7, 2), (7, 3))


@dataclass(frozen=True)
class Job:
    argv: tuple
    check: str
    # For a replay: the file the harness fills with the leader's trace
    # before the job runs.
    script_file: Optional[str] = None


def _monomial_text(pairs: dict) -> list:
    return [f"x[{i},{j}]" if e == 1 else f"x[{i},{j}]^{e}" for (i, j), e in sorted(pairs.items())]


def _term(coeff: Fraction, params: tuple, pairs: dict) -> str:
    factors = [] if coeff == 1 and (params or pairs) else [str(coeff)]
    return "*".join(factors + list(params) + _monomial_text(pairs))


def _poly_text(terms: list) -> str:
    """terms: (sign, coeff, params, pairs); the first sign must be +."""
    out = _term(*terms[0][1:])
    for sign, coeff, params, pairs in terms[1:]:
        out += f" {sign} " + _term(coeff, params, pairs)
    return out


def _shift(pairs: dict, up: tuple = (), down: tuple = ()) -> dict:
    out = dict(pairs)
    for p in down:
        out[p] -= 1
        if not out[p]:
            del out[p]
    for p in up:
        out[p] = out.get(p, 0) + 1
    return out


MAX_DRAWS = 200


class Stream:
    """The job stream of one workload for one seed."""

    def __init__(self, workload: str, seed, script_dir: str, avoid=()):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.script_dir = script_dir
        self.tag = f"{workload}-{seed}"
        self.seen: set = set(avoid)
        self.scripts = counter()

    # -- inputs --------------------------------------------------------

    def _int(self) -> str:
        return str(self.rng.choice([v for v in range(-30, 31) if v]))

    def _rat(self) -> str:
        q = self.rng.choice((2, 3, 5, 7))
        return str(Fraction(self.rng.choice([v for v in range(-20, 21) if v % q]), q))

    def params(self, kind: str, seeded: bool) -> list:
        """--beta/--alpha flags for a parameter kind.

        "sym" keeps b and a symbolic.  A command whose input does not
        depend on a seed would repeat with both symbolic, so there one
        of the two gets an integer value and the other stays symbolic.
        """
        if kind == "sym":
            if seeded:
                return []
            return [self.rng.choice(("--beta=", "--alpha=")) + self._int()]
        if kind == "int":
            return ["--beta=" + self._int(), "--alpha=" + self._int()]
        return ["--beta=" + self._rat(), "--alpha=" + self.rng.choice((self._int, self._rat))()]

    def coeff(self) -> Fraction:
        return Fraction(self.rng.randint(1, 9), self.rng.choice((1, 1, 2, 3)))

    def labelled(self, shape: tuple, sizes: tuple) -> tuple:
        """(n, {(i, j): exponent}) for shape under a random monotone relabelling."""
        vertices = max(v for pair in shape for v in pair)
        n = self.rng.choice([s for s in sizes if s >= vertices])
        labels = sorted(self.rng.sample(range(1, n + 1), vertices))
        pairs: dict = {}
        for u, v in shape:
            key = (labels[u - 1], labels[v - 1])
            pairs[key] = pairs.get(key, 0) + 1
        return n, pairs

    def fresh(self, make) -> list:
        """Call make() until none of the argv lists it returns was used
        before in this stream; make() draws new inputs on every call."""
        for _ in range(MAX_DRAWS):
            argvs = make()
            keys = [tuple(argv) for argv in argvs]
            if not any(key in self.seen for key in keys) and len(set(keys)) == len(keys):
                break
        # After MAX_DRAWS the input space of this job class is nearly used
        # up; the last draw is taken even though it repeats.
        self.seen.update(keys)
        return argvs

    # -- job groups ----------------------------------------------------

    def game_group(self, shape: tuple, strategy: str, other: str, kind: str, replay: bool) -> list:
        """A path-rich input p under one strategy; a companion in the same
        coset under another (the d-images must agree); with replay, a replay
        of p's trace (its output must equal p's byte for byte)."""

        def make():
            n, pairs = self.labelled(shape, (6, 7))
            c = self.coeff()
            flags = self.params(kind, seeded=True)
            p = _poly_text([("+", c, (), pairs)])
            paths = [((i, j), (j, k)) for (i, j) in pairs for (j2, k) in pairs if j2 == j]
            ij, jk = self.rng.choice(paths)
            ik = (ij[0], jk[1])
            m = _shift(pairs, down=(ij, jk))
            # One rewrite of p at x_ij*x_jk, written out.
            companion = _poly_text([
                ("+", c, (), _shift(m, up=(ik, ij))),
                ("+", c, (), _shift(m, up=(ik, jk))),
                ("+", c, ("b",), _shift(m, up=(ik,))),
                ("+", c, ("a",), m),
            ])
            return [
                self._reduce_pathless(n, strategy, flags, p),
                self._reduce_pathless(n, other, flags, companion),
            ]

        lead_argv, comp_argv = self.fresh(make)
        group = [Job(tuple(lead_argv), "pathless"), Job(tuple(comp_argv), "pathless_companion")]
        if replay:
            script = f"{self.script_dir}/replay-{self.tag}-{next(self.scripts)}.txt"
            flags = [f for f in lead_argv if f.startswith(("--beta=", "--alpha="))]
            replay_argv = self._reduce_pathless(int(lead_argv[2]), "script", flags, lead_argv[-1], script)
            group.append(Job(tuple(replay_argv), "replay", script))
        return group

    def _reduce_pathless(self, n: int, strategy: str, flags: list, poly: str, script=None) -> list:
        argv = ["reduce", "--n", str(n), "--mode", "pathless", "--strategy", strategy]
        if strategy == "random":
            argv += ["--seed", str(self.rng.randrange(10**6))]
        if script:
            argv += ["--script-file", script]
        return argv + ["--trace", "--d-image", *flags, poly]

    def forkless_group(self, shape: tuple, kind: str) -> list:
        """A fork-rich input and a companion in the same coset; the normal
        form is unique, so both must print the same result."""

        def make():
            n, pairs = self.labelled(shape, (5, 6))
            c = self.coeff()
            flags = self.params(kind, seeded=True)
            forks = [(a, b) for a in pairs for b in pairs if a[0] == b[0] and a[1] < b[1]]
            ij, ik = self.rng.choice(forks)
            jk = (ij[1], ik[1])
            m = _shift(pairs, down=(ij, ik))
            # x_ik*x_ij = x_ij*x_jk - x_ik*x_jk - b*x_ik - a modulo the ideal.
            companion = _poly_text([
                ("+", c, (), _shift(m, up=(ij, jk))),
                ("-", c, (), _shift(m, up=(ik, jk))),
                ("-", c, ("b",), _shift(m, up=(ik,))),
                ("-", c, ("a",), m),
            ])
            head = ["reduce", "--n", str(n), "--mode", "forkless", *flags]
            return [head + [_poly_text([("+", c, (), pairs)])], head + [companion]]

        lead_argv, comp_argv = self.fresh(make)
        return [Job(tuple(lead_argv), "forkless"), Job(tuple(comp_argv), "forkless_companion")]

    def verify(self, which: str, n: int, kind: str, extra: tuple = (), seeded: bool = False) -> list:
        def make():
            argv = ["verify", "--n", str(n), which, *extra]
            if seeded:
                argv += ["--seed", str(self.rng.randrange(10**6))]
            return [argv + self.params(kind, seeded)]

        return [Job(tuple(self.fresh(make)[0]), "verify")]

    def count(self, pool: tuple) -> list:
        def make():
            n, d = self.rng.choice(pool)
            return [["count", "--n", str(n), "forkless", "--max-degree", str(d), "--check-gf"]]

        return [Job(tuple(self.fresh(make)[0]), "count")]

    def basis(self, pool: tuple) -> list:
        def make():
            n, d = self.rng.choice(pool)
            return [["basis", "--n", str(n), "forkless", "--degree", str(d)]]

        return [Job(tuple(self.fresh(make)[0]), "basis")]

    # -- rounds --------------------------------------------------------

    def round(self, r: int) -> list:
        groups = WORKLOADS[self.workload](self, r)
        self.rng.shuffle(groups)
        return groups

    def rounds(self) -> Iterator[list]:
        for r in counter():
            yield self.round(r)


def game_round(s: Stream, r: int) -> list:
    # game: the pathless game on path-rich monomials, n=6..7, degree 5..6,
    # every shape under every strategy once per round.  Dominant layer:
    # rewrite (triple scans and steps); ring and poly arithmetic stay
    # light and no fraction or series map runs.  Replays, one per shape,
    # step through the game with almost no triple scan.
    groups = []
    for si, shape in enumerate(GAME_SHAPES):
        for ti, strategy in enumerate(STRATEGIES):
            other = STRATEGIES[(ti + 1) % 3]
            kind = PARAM_KINDS[(si + ti + r) % 3]
            groups.append(s.game_group(shape, strategy, other, kind, replay=ti == r % 3))
    for i, n in enumerate((5, 6)):
        groups.append(s.verify(
            "t-unique", n, PARAM_KINDS[(i + r) % 3],
            ("--trials", "8", "--strategies", "4", "--max-deg", "5", "--max-terms", "3"),
            seeded=True,
        ))
    return groups


def forkless_round(s: Stream, r: int) -> list:
    # forkless: Groebner normal forms of fork-rich inputs (n=5..6), the
    # Buchberger check at n=7 and 9, ideal membership in the symmetry sweep,
    # and forkless counts.  Dominant layers: groebner and poly (every
    # normal-form step rebuilds p - g*m), with ring underneath; the
    # pathless game and the series maps stay idle.
    groups = []
    for si, shape in enumerate(FORK_SHAPES):
        for ki in range(len(PARAM_KINDS)):
            groups.append(s.forkless_group(shape, PARAM_KINDS[(si + ki + r) % 3]))
    for i, n in enumerate((7, 9)):
        groups.append(s.verify("groebner", n, PARAM_KINDS[(i + r) % 3]))
    groups.append(s.verify("symmetry", 4, PARAM_KINDS[r % 3], ("--samples", "3"), seeded=True))
    groups.append(s.verify("symmetry", 5, PARAM_KINDS[(r + 1) % 3], ("--samples", "2"), seeded=True))
    groups.append(s.count(COUNT_POOL))
    groups.append(s.basis(BASIS_POOL))
    return groups


def series_round(s: Stream, r: int) -> list:
    # series: the fraction and series maps, n=4..7, truncation orders
    # 2..4.  Dominant layers: ring (Coeff and Fraction arithmetic) and
    # series; neither reduction engine runs, so a change to rewrite or
    # groebner should not move this workload.
    groups = []
    for kind in PARAM_KINDS:
        for n, deg, order in ED_BA_SIZES:
            groups.append(s.verify("ed-ba", n, kind, ("--max-degree", str(deg), "--w-order", str(order))))
        for n, samples in A_KILLS_J_SIZES:
            groups.append(s.verify("a-kills-j", n, kind, ("--samples", str(samples)), seeded=True))
        for n, samples in E_INVERSE_SIZES:
            groups.append(s.verify("e-inverse", n, kind, ("--samples", str(samples)), seeded=True))
    return groups


WORKLOADS = {"game": game_round, "forkless": forkless_round, "series": series_round}
