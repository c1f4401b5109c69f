"""Leftovers in the library source: imports a module never uses, private
module-level functions that nothing in ``src/`` calls, public functions
and classes that no caller reads, a second copy of the axiom scans, and
spaces built around the one constructor from the int form."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "exactmetric"


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def referenced_names(tree):
    """Every name a module reads: bare names, attribute names, and the names
    inside string annotations such as ``"Isometry"``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                names |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
    return names


def imported_names(tree):
    """``(bound name, line)`` of every import outside ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield bound, node.lineno


def test_every_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = parse(path)
        used = referenced_names(tree)
        unused += [
            f"{path.name}:{line} {name}"
            for name, line in imported_names(tree)
            if name not in used
        ]
    assert unused == []


def test_every_private_function_is_referenced():
    trees = {path: parse(path) for path in sorted(SRC.rglob("*.py"))}
    used = set().union(*(referenced_names(t) for t in trees.values()))
    unreferenced = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    ]
    assert unreferenced == []


def string_names(tree):
    """The parts of dotted-name string constants, such as the
    ``"KatetovFunction.__post_init__"`` a benchmark span patches by name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                yield from parts


def test_every_public_name_has_a_caller():
    """A public module-level function or class is read by another top-level
    statement of the library, by the benchmark, or by the acceptance tests;
    the ``__init__`` re-export does not count."""
    statements = [
        (path, node, referenced_names(node))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for node in parse(path).body
    ]
    outside = referenced_names(parse(ROOT / "tests" / "test_acceptance.py"))
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = parse(path)
        outside |= referenced_names(tree) | set(string_names(tree))
    unreferenced = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in outside
        and not any(
            node.name in names
            for _, other, names in statements
            if other is not node
        )
    ]
    assert unreferenced == []


def test_axiom_violations_are_reported_only_by_metric():
    """``metric.validate`` holds the one copy of the axiom scans; a module
    that builds a failing ``ValidationReport`` itself has grown another."""
    reporters = [
        path.name
        for path in sorted(SRC.rglob("*.py"))
        if "ValidationReport(False" in path.read_text(encoding="utf-8")
    ]
    assert reporters == ["metric.py"]


def test_spaces_are_built_only_through_from_scaled():
    """Outside ``metric``, the library builds a space from its int matrix
    with ``FiniteMetricSpace.from_scaled``, which keeps that matrix as
    ``scaled``; a direct ``FiniteMetricSpace(...)`` call would turn it into
    ``Fraction``s only for ``scaled`` to compute it again."""
    callers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "metric.py"
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Call)
        and "FiniteMetricSpace" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        )
    ]
    assert callers == []
