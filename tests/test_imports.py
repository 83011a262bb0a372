"""Every name a module imports is referenced in that module, and the library
imports only at module level.

Parses the library modules (bar ``__init__.py``, whose imports are its
exports), the tests and the demos, and reports each imported name that no
expression, decorator, annotation or ``__all__`` entry refers to. In the
library it also reports each import inside a function body, which hides a
dependency from the top of its module.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "sparsecut").glob("*.py"))
FILES = sorted(
    [p for p in LIBRARY if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "demos").glob("*.py"))
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # names a module re-exports by listing them in __all__
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def function_imports(source: str) -> list[str]:
    found = set()
    for function in ast.walk(ast.parse(source)):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for node in ast.walk(function):
                if isinstance(node, ast.Import):
                    found |= {(node.lineno, alias.name) for alias in node.names}
                elif isinstance(node, ast.ImportFrom):
                    found.add((node.lineno, "." * node.level + (node.module or "")))
    return [f"line {line}: {module}" for line, module in sorted(found)]


def test_checker_flags_an_unused_import():
    source = "import numpy as np\nfrom .graph import Cut, Graph\n\ndef f(g: Graph):\n    pass\n"
    assert unused_imports(source) == ["line 1: np", "line 2: Cut"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_import_in_a_function():
    source = (
        "import math\n\ndef f():\n    from .partition import sweep\n"
        "    def g():\n        import os.path\n        from . import walk\n"
    )
    assert function_imports(source) == ["line 4: .partition", "line 6: os.path", "line 7: ."]


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_imports_in_library_functions(path):
    assert function_imports(path.read_text()) == []
