"""No module under ``src/projnorm`` imports a name it never uses.

An ``ast`` scan of every module except ``__init__`` (whose imports are its
exports) collects each name bound by an import and each name the module
reads or binds elsewhere; an imported name with no other use fails.
``from __future__ import annotations`` binds nothing and is skipped.
"""

import ast
from pathlib import Path

import projnorm

SRC = Path(projnorm.__file__).resolve().parent


def _unused_imports(tree: ast.AST) -> list:
    """``(line, name)`` for each imported name the module never uses."""
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    modules = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    assert len(modules) >= 9
    found = {path.name: unused for path in modules if (unused := _unused_imports(ast.parse(path.read_text())))}
    assert found == {}


def test_the_scan_sees_each_kind_of_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\nimport sys\nfrom math import comb, gcd as g\n"
        "from .exactalg import RingMismatchError\n"
        "def f(x: comb) -> int:\n    return sys.maxsize\n"
    )
    assert _unused_imports(ast.parse(source)) == [(2, "os"), (2, "osp"), (4, "g"), (5, "RingMismatchError")]
