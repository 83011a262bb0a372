"""Every name a module imports is referenced in that module, the library
imports only at module level, and its private names serve the library.

Parses the library modules (bar ``__init__.py``, whose imports are its
exports), the tests and the demos, and reports each imported name that no
expression, decorator, annotation or ``__all__`` entry refers to. In the
library it also reports each import inside a function body, which hides a
dependency from the top of its module, and each module-level private name
that no other statement of the library refers to: a helper kept alive only
by its own test. It reports each ``np.asarray`` or ``np.array`` call of the
library that casts to int64. Last, each message the library raises as
ValueError, GraphFormatError, CertificateViolation or ConvergenceError must
be named by some test.
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


def int64_casts(source: str) -> list[str]:
    """Lines of the ``np.asarray`` and ``np.array`` calls that pass ``dtype=np.int64``.

    Such a cast of vertex ids truncates floats and parses strings, where
    ``graph._vertex_ids`` raises.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("asarray", "array")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "np"
            and any(
                k.arg == "dtype" and isinstance(k.value, ast.Attribute) and k.value.attr == "int64"
                for k in node.keywords
            )
        ):
            found.append(f"line {node.lineno}")
    return found


def test_checker_flags_an_int64_cast():
    source = (
        "import numpy as np\n\ndef f(ids, n):\n    a = np.asarray(ids, dtype=np.int64)\n"
        "    b = np.array(list(ids), dtype=np.int64)\n    c = np.asarray(ids, dtype=np.float64)\n"
        "    return np.zeros(n, dtype=np.int64), np.asarray(ids).astype(np.int64)\n"
    )
    assert int64_casts(source) == ["line 4", "line 5"]


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_int64_casts_in_library(path):
    assert int64_casts(path.read_text()) == []


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_names`` of the sources that no other top-level statement names."""
    defined, reads = [], []
    for module, source in sources.items():
        for statement in ast.parse(source).body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [statement.name]
            elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
                targets = getattr(statement, "targets", None) or [statement.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            nodes = list(ast.walk(statement))
            reads.append(
                {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                | {n.attr for n in nodes if isinstance(n, ast.Attribute)}
            )
            defined += [
                (module, name, len(reads) - 1)
                for name in names
                if name.startswith("_") and not name.endswith("__")
            ]
    unread = (
        f"{module}: {name}"
        for module, name, own in defined
        if not any(name in read for i, read in enumerate(reads) if i != own)
    )
    return list(dict.fromkeys(unread))  # a name bound twice is listed once


def test_checker_flags_an_unreferenced_private_name():
    sources = {
        "a.py": (
            "def _kept(x):\n    return x\n\ndef _alone(n):\n    return _alone(n - 1)\n\n"
            "_TABLE = {}\n_UNUSED, __all__ = 1, []\n_UNUSED = 2\n"
        ),
        "b.py": "from . import a\nfrom .a import _kept\n\ndef f():\n    return _kept(a._TABLE)\n",
    }
    assert unreferenced_private_names(sources) == ["a.py: _alone", "a.py: _UNUSED"]


def test_every_library_private_name_is_referenced_elsewhere_in_the_library():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in LIBRARY}
    assert unreferenced_private_names(sources) == []


PINNED_ERRORS = ("ValueError", "GraphFormatError", "CertificateViolation", "ConvergenceError")


def unpinned_messages(library: dict[str, str], tests: list[str]) -> list[str]:
    """Messages of the library's PINNED_ERRORS raises that no test string holds.

    A message is the raise's first argument when it is a string literal, or
    the leading literal of an f-string; a message passed in a variable is
    not seen.
    """
    pinned = [
        node.value
        for source in tests
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    found = []
    for module, source in library.items():
        for node in ast.walk(ast.parse(source)):
            call = node.exc if isinstance(node, ast.Raise) else None
            if not (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id in PINNED_ERRORS
                and call.args
            ):
                continue
            message = call.args[0]
            if isinstance(message, ast.JoinedStr) and message.values:
                message = message.values[0]
            if isinstance(message, ast.Constant) and isinstance(message.value, str):
                if not any(message.value in text for text in pinned):
                    found.append(f"{module} line {node.lineno}: {message.value}")
    return found


def test_checker_flags_an_unpinned_message():
    library = {
        "a.py": (
            "def f(x, n):\n    if x:\n        raise ValueError('x must be pinned')\n"
            "    if n < 0:\n        raise GraphFormatError(f'bad id {n}', 1)\n"
            "    if n > 9:\n        raise ValueError(f'n={n} > 9')\n"
            "    raise RuntimeError('not a ValueError')\n"
        ),
        "b.py": "def g(m):\n    raise ValueError(m)\n\ndef h():\n    raise ValueError('pinned')\n",
        "c.py": (
            "def k(t):\n    raise CertificateViolation(f'kept too little at step {t}')\n\n"
            "def m(x):\n    raise ConvergenceError('lost it', x)\n"
        ),
    }
    tests = ["def test_h():\n    with raises_message('pinned'):\n        h()\n"]
    assert unpinned_messages(library, tests) == [
        "a.py line 3: x must be pinned",
        "a.py line 5: bad id ",
        "a.py line 7: n=",
        "c.py line 2: kept too little at step ",
        "c.py line 5: lost it",
    ]


def test_every_library_error_message_is_pinned_by_a_test():
    library = {str(p.relative_to(ROOT)): p.read_text() for p in LIBRARY}
    tests = [p.read_text() for p in (ROOT / "tests").glob("*.py")]
    assert unpinned_messages(library, tests) == []
