"""The package carries no API that only its own tests call.

Every module-level function and class in src/subdivalg must be referenced,
by name, attribute or import, from the code of some package module other
than `__init__.py`, outside its own definition.  Every name a module-level
assignment binds must be read, by name, attribute or import, somewhere in
that code.  The names used from outside the package are exempt: those the
acceptance tests import, the targets the traced benchmark wraps
(bench/spans.py LAYERS), the `cmd_*` handlers `cli.main` finds through
`globals()`, and the console script.

Every method of a package class, dunders aside, must be called, as
`x.name(...)`, outside its own body; a property need only be referenced by
its name.  Exempt: the methods the acceptance tests call and the methods
the traced benchmark wraps.

`__init__.py` holds the package docstring and `__version__` only: every
name is imported from its module.

Invariants must hold under `python -O`, which strips `assert`, so the
package has no bare `assert` statement.
"""

import ast
import importlib.util
from collections import Counter
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


def assignments() -> dict:
    """(module, name) -> line of every name a module-level assignment binds,
    `__init__.py` aside."""
    return {
        (module, node.id): stmt.lineno
        for module, tree in MODULES.items()
        if module != "__init__"
        for stmt in tree.body
        if isinstance(stmt, (ast.Assign, ast.AnnAssign))
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }


def methods() -> dict:
    """(module, "Class.method") -> its def node, for every method of a
    module-level class, dunders aside."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    return {
        (module, f"{cls.name}.{node.name}"): node
        for module, tree in MODULES.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, kinds) and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def referenced(node: ast.AST) -> Counter:
    """The names node reads, by name, attribute or import, each with the
    number of its references."""
    names: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def called(node: ast.AST) -> Counter:
    """The names node calls, as `name(...)` or `x.name(...)`, each with the
    number of its calls."""
    names: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            if isinstance(sub.func, ast.Name):
                names[sub.func.id] += 1
            elif isinstance(sub.func, ast.Attribute):
                names[sub.func.attr] += 1
    return names


def is_property(node: ast.AST) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list)


def package_total(count) -> Counter:
    """count summed over every package module, `__init__.py` aside."""
    total: Counter = Counter()
    for module, tree in MODULES.items():
        if module != "__init__":
            total.update(count(tree))
    return total


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


def acceptance_tree() -> ast.Module:
    return parse(ROOT / "tests" / "test_acceptance.py")


def acceptance_imports() -> set:
    tree = acceptance_tree()
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("subdivalg")
        for alias in node.names
    }


def acceptance_method_calls() -> set:
    """The names of the methods the acceptance tests call."""
    return {
        node.func.attr
        for node in ast.walk(acceptance_tree())
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }


def layer_qualnames() -> set:
    """The "Class.method" or function names the traced benchmark wraps;
    none without bench/."""
    if not SPANS.exists():
        return set()
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {target.split(":")[1] for targets in module.LAYERS.values() for target in targets}


def layer_targets() -> set:
    """Top-level names the traced benchmark wraps."""
    return {qualname.split(".")[0] for qualname in layer_qualnames()}


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


def test_every_assigned_name_is_read_in_the_package():
    exempt = acceptance_imports() | layer_targets() | script_entries()
    total = package_total(referenced)
    unread = [
        f"{module}.py:{line} {name}"
        for (module, name), line in sorted(assignments().items())
        if name not in exempt and not total[name]
    ]
    assert unread == []


def test_every_method_has_a_caller_in_the_package():
    exempt = acceptance_method_calls() | {name.split(".")[-1] for name in layer_qualnames()}
    refs, calls = package_total(referenced), package_total(called)
    orphans = [
        f"{module}.py:{node.lineno} {qualname}"
        for (module, qualname), node in sorted(methods().items())
        if node.name not in exempt
        and (
            refs[node.name] == referenced(node)[node.name]
            if is_property(node)
            else calls[node.name] == called(node)[node.name]
        )
    ]
    assert orphans == []


def test_package_root_holds_only_its_docstring_and_version():
    tree = MODULES["__init__"]
    body = tree.body[1:] if ast.get_docstring(tree) is not None else tree.body
    extra = [
        f"__init__.py:{stmt.lineno}"
        for stmt in body
        if not (
            isinstance(stmt, ast.Assign)
            and [ast.unparse(target) for target in stmt.targets] == ["__version__"]
        )
    ]
    assert extra == []


def test_no_bare_assert():
    asserts = [
        f"{module}.py:{node.lineno}"
        for module, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def test_only_ring_reads_the_coeff_layout():
    """A `Coeff` keeps its {(deg_b, deg_a): value} dict in `_terms`, and only
    `ring` reads it, so its layout is one module's business."""
    readers = [
        f"{module}.py:{node.lineno}"
        for module, tree in MODULES.items()
        if module != "ring"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_terms"
    ]
    assert readers == []
