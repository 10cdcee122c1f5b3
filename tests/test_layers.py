"""The traced benchmark's layer table still matches the package.

bench/spans.py wraps the functions and methods named in its LAYERS table
at run time.  A name that no longer resolves breaks the traced run, and a
wrapped sparse class that inherits from another wrapped one would count
that class's arithmetic under both names.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
    from subdivalg.series import QPoly, QTruncSeries

    classes = (XPoly, TPoly, QPoly, QTruncSeries)
    for a in classes:
        for b in classes:
            assert a is b or not issubclass(a, b), (a, b)
