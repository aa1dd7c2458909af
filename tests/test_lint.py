"""Hygiene of the package, checked with the standard library's ``ast``.

Every module imports at module level only, and reads every name it imports
there.  ``__init__.py`` re-exports what it imports and is exempt from the
second rule; ``from __future__ import annotations`` binds no name.  No
module uses an ``assert`` statement, which ``python -O`` strips: a check
that must hold raises an error of the package.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nmk"
MODULES = sorted(PACKAGE.glob("*.py"))


def _bound_names(node):
    """The names an import statement binds, with their line numbers."""
    for alias in node.names:
        if alias.name == "annotations" and getattr(node, "module", None) == "__future__":
            continue
        name = alias.asname or alias.name.split(".")[0]
        yield name, node.lineno


def _read_names(tree):
    """Every name the module reads.  A string that parses as an expression
    counts too, so that a quoted annotation ("ChannelMap | None") is read."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return names


def lint(source: str, exempt_unused: bool = False) -> list[str]:
    """Problems in one module's source: imports inside a function,
    module-level imports whose names the module never reads, and
    ``assert`` statements."""
    tree = ast.parse(source)
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            problems.append(f"line {node.lineno}: assert, which python -O strips")
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    problems.append(f"line {node.lineno}: import inside {func.name}()")
    if not exempt_unused:
        read = _read_names(tree)
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for name, lineno in _bound_names(node):
                    if name not in read:
                        problems.append(f"line {lineno}: {name!r} is imported but never read")
    return problems


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports(path):
    assert lint(path.read_text(), exempt_unused=path.name == "__init__.py") == []


def test_lint_catches_unused_and_local_imports():
    source = (
        "from __future__ import annotations\n"
        "from dataclasses import dataclass, field\n"
        "import numpy as np\n"
        "def f():\n"
        "    import math\n"
        "    return np.zeros(1), math.pi\n"
        "@dataclass\n"
        "class C:\n"
        "    x: 'np.ndarray'\n"
    )
    assert lint(source) == [
        "line 5: import inside f()",
        "line 2: 'field' is imported but never read",
    ]


def test_lint_catches_assert():
    source = "def f(x):\n    assert x > 0\n    return x\n"
    assert lint(source) == ["line 2: assert, which python -O strips"]
