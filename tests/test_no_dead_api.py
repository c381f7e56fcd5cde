"""Every definition in src/hamsync has a caller in the package or the benchmark.

A top-level function or class, or a non-dunder method or property of a
top-level class, counts as used when its name appears outside its own
definition in src/hamsync or bench/: as a name, an attribute, an imported
name, a string in ``hamsync.__all__``, or a string in the patch tables of
``bench/tracer.py``.  Tests do not count: code that only a test reaches is
dead.  Matching is by name alone, so dead code that shares its name with
something live goes unnoticed.

A definition that only the tracer's tables name is kept for the benchmark
alone, so each one is listed in TRACER_ONLY with the ROADMAP item that
deletes it, and a new one fails the test until it is listed.

A dunder method is called through syntax (an operator, a call, repr), which
matching by name cannot see.  So every dunder a top-level class defines,
beyond the __init__ and __post_init__ that construction calls, is listed in
DUNDERS with the reason it stays, and a new one fails the test until it is
listed.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src", "hamsync")  # both relative to a checkout's root
BENCH = Path("bench")

# Kept without a caller, each for a reason outside the package.
ALLOWED: dict[str, str] = {}

# Named only by bench/tracer.py's patch tables, each with the ROADMAP item
# that deletes it together with the benchmark readings it feeds.
TRACER_ONLY: dict[str, str] = {
    "gf2codes.unique_decode": "item 16 (b)",
    "gf2codes.list_decode_exhaustive": "item 16 (b)",
    "syncdet.coset_representative": "item 16 (b)",
}

# Dunders kept beyond __init__ and __post_init__, each with its caller.
DUNDERS: dict[str, str] = {
    "hashing.SecondaryHash.__call__": (
        "find_secondary_hash and multinba's parties apply the hash to residues"
    ),
    "transport._RecvSentinel.__repr__": (
        "the RECV a party yields reads as RECV, not an object address, in an"
        " assertion or a traceback"
    ),
}

_CONSTRUCTION = {"__init__", "__post_init__"}

_TRACER_TABLES = {"FUNCTIONS", "PARTIES", "METHODS"}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module, module: str):
    """(qualified name, bare name, first line, last line) per definition."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        yield f"{module}.{node.name}", node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, defs) and not _is_dunder(member.name):
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


def _references(tree: ast.Module, path: Path, tracer_tables: bool):
    """(line, name) for every name the file refers to, counting the strings
    in the tracer's tables only when tracer_tables is set."""
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
    if tracer_tables and path == BENCH / "tracer.py":
        yield from _strings_in_assignments(tree, _TRACER_TABLES)


def unreferenced(root: Path = ROOT, tracer_tables: bool = True) -> set[str]:
    """Definitions in the checkout at root with no caller."""
    files = sorted((root / PACKAGE).glob("*.py")) + sorted((root / BENCH).glob("*.py"))
    trees = {path.relative_to(root): ast.parse(path.read_text(), str(path)) for path in files}
    where: dict[str, list[tuple[Path, int]]] = defaultdict(list)
    for path, tree in trees.items():
        for line, name in _references(tree, path, tracer_tables):
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


def tracer_only(root: Path = ROOT) -> set[str]:
    """Definitions that have a caller only through the tracer's tables."""
    return unreferenced(root, tracer_tables=False) - unreferenced(root)


def dunders(root: Path = ROOT) -> set[str]:
    """The dunder methods that top-level classes in the package at root
    define, beyond those construction calls."""
    found = set()
    for path in sorted((root / PACKAGE).glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if (
                        isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and _is_dunder(member.name)
                        and member.name not in _CONSTRUCTION
                    ):
                        found.add(f"{path.stem}.{node.name}.{member.name}")
    return found


def test_every_definition_has_a_caller():
    assert unreferenced() == set(ALLOWED)


def test_tracer_only_definitions_are_listed():
    assert tracer_only() == set(TRACER_ONLY)


def test_an_unlisted_tracer_only_definition_is_caught(tmp_path):
    # A copy of the checkout gains a function that only the tracer names.
    for folder in (PACKAGE, BENCH):
        (tmp_path / folder).mkdir(parents=True)
        for path in (ROOT / folder).glob("*.py"):
            (tmp_path / folder / path.name).write_text(path.read_text())
    syncdet = tmp_path / PACKAGE / "syncdet.py"
    syncdet.write_text(syncdet.read_text() + "\n\ndef traced_only():\n    return None\n")
    tracer = tmp_path / BENCH / "tracer.py"
    table = '"syncdet": ("coset_representative", "build_greedy_coloring"),'
    assert table in tracer.read_text()
    tracer.write_text(tracer.read_text().replace(table, table[:-2] + ', "traced_only"),'))
    assert tracer_only(tmp_path) == set(TRACER_ONLY) | {"syncdet.traced_only"}
    assert unreferenced(tmp_path) == set(ALLOWED)


def test_dunders_are_listed():
    assert dunders() == set(DUNDERS)


def test_an_unlisted_dunder_is_caught(tmp_path):
    # A copy of the package gains Word.__xor__, which no package code uses.
    (tmp_path / PACKAGE).mkdir(parents=True)
    for path in (ROOT / PACKAGE).glob("*.py"):
        (tmp_path / PACKAGE / path.name).write_text(path.read_text())
    bitword = tmp_path / PACKAGE / "bitword.py"
    flip = "    def flip(self, positions"
    assert flip in bitword.read_text()
    xor = "    def __xor__(self, other):\n        return Word(self.value ^ other.value, self.n)\n\n"
    bitword.write_text(bitword.read_text().replace(flip, xor + flip))
    assert dunders(tmp_path) == set(DUNDERS) | {"bitword.Word.__xor__"}
