"""The traced benchmark's layer table still matches the package.

bench/spans.py wraps the functions and methods named in its LAYERS table
at run time.  A name that no longer resolves breaks the traced run, and a
wrapped sparse class that inherits from another wrapped one would count
that class's arithmetic under both names.  The wrapping replaces module
attributes, so the reduction entry points and the `verify` sweep table
must look their callees up in the module on each call rather than bind
them at import.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from subdivalg import cli, groebner, rewrite
from subdivalg.poly import parse_poly

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def layers():
    if not SPANS.exists():
        pytest.skip("bench/ is not in this checkout")
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_layer_target_resolves(layers):
    for targets in layers.values():
        for target in targets:
            module_name, qualname = target.split(":")
            owner = importlib.import_module(f"subdivalg.{module_name}")
            for part in qualname.split("."):
                owner = getattr(owner, part)
            assert callable(owner), target


def test_sparse_classes_are_siblings(layers):
    from subdivalg.poly import TPoly, XPoly
    from subdivalg.series import QPoly, QTruncSeries, TWSeries

    classes = (XPoly, TPoly, QPoly, QTruncSeries, TWSeries)
    for a in classes:
        for b in classes:
            assert a is b or not issubclass(a, b), (a, b)


def counting(monkeypatch, module, name: str) -> list:
    """Replace module.name by a wrapper that appends to the returned list."""
    original = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_reduce_pathless_calls_module_callees(monkeypatch):
    p = parse_poly("x[1,2]*x[2,3]*x[3,4]*x[4,5] + b*x[1,3]*x[3,5]", 5)
    scans = counting(monkeypatch, rewrite, "find_path_triples")
    steps = counting(monkeypatch, rewrite, "pathless_step")
    for strategy in (rewrite.FirstByOrder(), rewrite.LastByOrder(), rewrite.RandomStrategy(5)):
        scans.clear()
        steps.clear()
        _, trace = rewrite.reduce_pathless(p, strategy)
        assert len(trace) > 1
        assert len(steps) == len(trace)
        assert len(scans) >= len(trace)


def test_trace_replay_calls_no_layer(monkeypatch):
    # Reading `after` replays the moves by the step kernels alone, so the
    # traced step and scan counts are the game's own.
    p = parse_poly("x[1,2]*x[2,3]*x[3,4]*x[4,5] + b*x[1,3]*x[3,5]", 5)
    _, trace = rewrite.reduce_pathless(p, rewrite.RandomStrategy(5))
    scans = counting(monkeypatch, rewrite, "find_path_triples")
    steps = counting(monkeypatch, rewrite, "pathless_step")
    assert len({len(step.after.terms) for step in trace}) > 1
    assert scans == [] and steps == []


def test_normal_form_calls_module_callees(monkeypatch):
    p = parse_poly("x[1,4]*x[1,3]*x[1,2] + x[1,3]^2*x[1,2]", 4)
    basis = groebner.generate_basis(4)
    expected = sum(1 for _ in rewrite.rewrite(
        p,
        "normal form",
        rewrite.RuleSet(groebner._fork_triples),
        lambda terms, mono, triple: groebner.reduce_step(terms, mono, triple, basis),
    ))
    assert expected > 1
    steps = counting(monkeypatch, groebner, "reduce_step")
    groebner.normal_form(p, basis)
    assert len(steps) == expected


def test_verify_groebner_calls_module_callees(monkeypatch, capsys):
    checks = counting(monkeypatch, cli, "buchberger_check")
    bases = counting(monkeypatch, cli, "generate_basis")
    assert cli.main(["verify", "--n", "4", "groebner"]) == 0
    assert capsys.readouterr().out.endswith("verify groebner: PASS\n")
    assert len(checks) == 1 and len(bases) == 1
