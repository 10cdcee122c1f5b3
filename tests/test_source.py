"""The package carries no API that only its own tests call.

Every module-level function and class in src/subdivalg must be referenced,
by name, attribute or import, from the code of some package module other
than `__init__.py`, outside its own definition.  The names used from
outside the package are exempt: those the acceptance tests import, the
targets the traced benchmark wraps (bench/spans.py LAYERS), the `cmd_*`
handlers `cli.main` finds through `globals()`, and the console script.

Invariants must hold under `python -O`, which strips `assert`, so the
package has no bare `assert` statement.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "subdivalg"
SPANS = ROOT / "bench" / "spans.py"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


MODULES = {path.stem: parse(path) for path in sorted(PACKAGE.glob("*.py"))}


def definitions() -> dict:
    """(module, name) -> line of every module-level function and class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {
        (module, node.name): node.lineno
        for module, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, kinds)
    }


def referenced(node: ast.AST) -> set:
    """The names node refers to, by name, attribute or import."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def references() -> dict:
    """name -> the (module, top-level name) pairs whose code refers to it;
    a statement that defines nothing is owned by None."""
    out: dict = {}
    for module, tree in MODULES.items():
        if module == "__init__":
            continue
        for stmt in tree.body:
            owner = getattr(stmt, "name", None)
            for name in referenced(stmt):
                out.setdefault(name, set()).add((module, owner))
    return out


def acceptance_imports() -> set:
    tree = parse(ROOT / "tests" / "test_acceptance.py")
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("subdivalg")
        for alias in node.names
    }


def layer_targets() -> set:
    """Top-level names the traced benchmark wraps; none without bench/."""
    if not SPANS.exists():
        return set()
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {
        target.split(":")[1].split(".")[0]
        for targets in module.LAYERS.values()
        for target in targets
    }


def script_entries() -> set:
    """The functions named in pyproject.toml's [project.scripts]."""
    entries, inside = set(), False
    for line in (ROOT / "pyproject.toml").read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            inside = line == "[project.scripts]"
        elif inside and "=" in line:
            entries.add(line.split("=", 1)[1].strip().strip("\"'").split(":")[1])
    return entries


def test_every_definition_has_a_caller_in_the_package():
    exempt = acceptance_imports() | layer_targets() | script_entries()
    refs = references()
    orphans = [
        f"{module}.py:{line} {name}"
        for (module, name), line in sorted(definitions().items())
        if name not in exempt
        and not name.startswith("cmd_")
        and not refs.get(name, set()) - {(module, name)}
    ]
    assert orphans == []


def test_no_bare_assert():
    asserts = [
        f"{module}.py:{node.lineno}"
        for module, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []
