"""numpy is the only runtime dependency: every library module imports only
the standard library, numpy and its own package."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "regdecode"


def _imports(path: Path):
    """(line, top-level module name) of each absolute import in a module."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_library_imports_only_stdlib_and_numpy():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    allowed = sys.stdlib_module_names | {"numpy"}
    outside = [f"{path.name}:{line} imports {name}" for path in modules
               for line, name in _imports(path) if name not in allowed]
    assert not outside
