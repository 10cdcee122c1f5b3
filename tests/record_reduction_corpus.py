"""Record the golden reduction corpus in tests/data/reduction_corpus.json.

Each entry is a seeded random input that is not yet pathless, with its pathless result and trace
under the first, last and three seeded random strategies, and its forkless
normal form.  tests/test_corpus.py checks every entry.  The file pins
today's output: re-record it only when a change of output is intended.

    PYTHONPATH=src python3 tests/record_reduction_corpus.py [OUT]
"""

import json
import random
import sys
from pathlib import Path

from subdivalg.groebner import generate_basis, normal_form
from subdivalg.poly import is_pathless
from subdivalg.rewrite import (
    FirstByOrder,
    LastByOrder,
    RandomStrategy,
    derive_seed,
    format_trace,
    random_xpoly,
    reduce_pathless,
)

CORPUS_SEED = 4
INPUTS = 32
RANDOM_STRATEGIES = 3
MAX_DEG = 5
MAX_TERMS = 4
DEFAULT_OUT = Path(__file__).resolve().parent / "data" / "reduction_corpus.json"


def strategies(index: int) -> dict:
    """Strategy label -> strategy; random labels carry their seed."""
    out = {"first": FirstByOrder(), "last": LastByOrder()}
    for s in range(RANDOM_STRATEGIES):
        seed = derive_seed(CORPUS_SEED, index, s)
        out[f"random:{seed}"] = RandomStrategy(seed)
    return out


def draw_input(n: int, rng: random.Random):
    """The first random_xpoly draw from rng that the game can rewrite."""
    while True:
        p = random_xpoly(n, MAX_DEG, MAX_TERMS, rng)
        if not all(is_pathless(m) for m in p.terms):
            return p


def record() -> list:
    bases = {}
    entries = []
    for index in range(INPUTS):
        n = 3 + index % 4
        p = draw_input(n, random.Random(derive_seed(CORPUS_SEED, index)))
        basis = bases.setdefault(n, generate_basis(n))
        runs = {}
        for label, strategy in strategies(index).items():
            result, trace = reduce_pathless(p, strategy)
            runs[label] = {"result": str(result), "trace": format_trace(trace)}
        entries.append({
            "n": n,
            "input": str(p),
            "pathless": runs,
            "normal_form": str(normal_form(p, basis)),
        })
    return entries


if __name__ == "__main__":
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_OUT
    out.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
