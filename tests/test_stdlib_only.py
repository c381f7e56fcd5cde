"""The package and the benchmark import only the standard library.

Every import in src/hamsync/*.py and in the benchmark's own modules
(bench/*.py except its tests) must name a standard-library module, the
hamsync package or a module of bench/ itself.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _imported_roots(path: Path):
    """(line, top-level module name) for every absolute import in the file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_code_imports_only_the_standard_library():
    files = sorted((ROOT / "src" / "hamsync").glob("*.py"))
    files += sorted(p for p in BENCH.glob("*.py") if not p.name.startswith("test_"))
    allowed = set(sys.stdlib_module_names) | {"hamsync"} | {p.stem for p in BENCH.glob("*.py")}
    outside = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in files
        for line, name in _imported_roots(path)
        if name not in allowed
    ]
    assert len(files) > 10
    assert outside == []
