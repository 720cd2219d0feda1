"""The library's runtime code imports only the standard library and itself."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "cuberec").glob("*.py"))


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_library_imports_only_stdlib():
    assert SOURCES
    allowed = set(sys.stdlib_module_names) | {"cuberec"}
    found = [
        f"{path.name}:{lineno} imports {name}"
        for path in SOURCES
        for lineno, name in _imported_modules(ast.parse(path.read_text(), filename=str(path)))
        if name.partition(".")[0] not in allowed
    ]
    assert found == []
