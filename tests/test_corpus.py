"""The golden reduction corpus: results and traces stay byte-identical.

tests/data/reduction_corpus.json holds seeded random inputs with their
pathless results and traces under five strategies and their forkless
normal forms, recorded by tests/record_reduction_corpus.py.
"""

import json
from pathlib import Path

import pytest

from subdivalg.groebner import generate_basis, normal_form
from subdivalg.poly import parse_poly
from subdivalg.rewrite import (
    FirstByOrder,
    LastByOrder,
    RandomStrategy,
    format_trace,
    parse_script,
    reduce_pathless,
)

CORPUS = json.loads(
    (Path(__file__).resolve().parent / "data" / "reduction_corpus.json").read_text(encoding="utf-8")
)


def strategy_of(label: str):
    if label == "first":
        return FirstByOrder()
    if label == "last":
        return LastByOrder()
    kind, _, seed = label.partition(":")
    assert kind == "random", label
    return RandomStrategy(int(seed))


def test_corpus_shape():
    assert len(CORPUS) >= 30
    assert {entry["n"] for entry in CORPUS} == {3, 4, 5, 6}
    for entry in CORPUS:
        labels = list(entry["pathless"])
        assert labels[:2] == ["first", "last"] and len(labels) == 5
        assert all(run["trace"] for run in entry["pathless"].values())


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_corpus_entry(index):
    entry = CORPUS[index]
    n = entry["n"]
    p = parse_poly(entry["input"], n)
    assert str(p) == entry["input"]
    basis = generate_basis(n)
    nf = normal_form(p, basis)
    assert str(nf) == entry["normal_form"]
    for label, run in entry["pathless"].items():
        result, trace = reduce_pathless(p, strategy_of(label))
        assert str(result) == run["result"], label
        assert format_trace(trace) == run["trace"], label
        replayed, _ = reduce_pathless(p, parse_script(run["trace"], n))
        assert replayed == result, label
        # The game stays in the coset of p, so both engines meet.
        assert normal_form(result, basis) == nf, label
        if label.startswith("random:"):
            assert normal_form(p, basis, strategy=strategy_of(label)) == nf, label
