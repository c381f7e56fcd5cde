"""Every definition in src/hamsync has a caller in the package or the benchmark.

A top-level function or class, or a non-dunder method or property of a
top-level class, counts as used when its name appears outside its own
definition in src/hamsync or bench/: as a name, an attribute, an imported
name, a string in ``hamsync.__all__``, or a string in the patch tables of
``bench/tracer.py``.  Tests do not count: code that only a test reaches is
dead.  Matching is by name alone, so dead code that shares its name with
something live goes unnoticed.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hamsync"
BENCH = ROOT / "bench"

# Kept without a caller, each for a reason outside the package.
ALLOWED: dict[str, str] = {}

_TRACER_TABLES = {"FUNCTIONS", "PARTIES", "METHODS"}


def _definitions(tree: ast.Module, module: str):
    """(qualified name, bare name, first line, last line) per definition."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        yield f"{module}.{node.name}", node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, defs) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    qualified = f"{module}.{node.name}.{member.name}"
                    yield qualified, member.name, member.lineno, member.end_lineno


def _strings_in_assignments(tree: ast.Module, targets: set[str]):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in targets for t in node.targets
        ):
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    yield sub.lineno, sub.value


def _references(tree: ast.Module, path: Path):
    """(line, name) for every name the file refers to."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield node.lineno, alias.name
    if path == PACKAGE / "__init__.py":
        yield from _strings_in_assignments(tree, {"__all__"})
    if path == BENCH / "tracer.py":
        yield from _strings_in_assignments(tree, _TRACER_TABLES)


def unreferenced() -> set[str]:
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for path in sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py"))
    }
    where: dict[str, list[tuple[Path, int]]] = defaultdict(list)
    for path, tree in trees.items():
        for line, name in _references(tree, path):
            where[name].append((path, line))
    dead = set()
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for qualified, name, first, last in _definitions(tree, path.stem):
            if not any(
                other != path or not first <= line <= last for other, line in where[name]
            ):
                dead.add(qualified)
    return dead


def test_every_definition_has_a_caller():
    assert unreferenced() == set(ALLOWED)
