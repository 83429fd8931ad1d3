"""The package has no runtime dependencies: it imports only the stdlib.

An ``ast`` scan of every module under ``src/projnorm`` collects the top
level name of each absolute import, at module level or inside a function
(``cli`` imports ``shutil`` lazily), and each must be in
``sys.stdlib_module_names``.  Where the stdlib reads TOML (3.11 on),
``pyproject.toml`` must also declare ``dependencies = []``.

The module needs no pytest and no installed package, so it also runs as a
plain script on any supported Python:

    python tests/test_no_runtime_deps.py
"""

import ast
import sys
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "projnorm"


def _absolute_imports(tree: ast.AST) -> set:
    """Top level names of the absolute imports anywhere in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_src_import_is_stdlib():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    imported = {
        name: path.name for path in modules for name in _absolute_imports(ast.parse(path.read_text(encoding="utf-8")))
    }
    # the scan reaches function bodies
    assert imported.get("shutil") == "cli.py"
    assert {name: where for name, where in imported.items() if name not in sys.stdlib_module_names} == {}


def test_the_scan_sees_nested_and_skips_relative_imports():
    source = (
        "import os.path, json as j\nfrom fractions import Fraction\nfrom . import cli\nfrom .chern import dual\n"
        "def f():\n    import numpy\n    from scipy.linalg import solve\n"
    )
    assert _absolute_imports(ast.parse(source)) == {"os", "json", "fractions", "numpy", "scipy"}


def test_pyproject_declares_no_dependencies():
    if tomllib is None:
        return  # no TOML reader in the 3.10 stdlib; the import scan still runs
    with open(ROOT / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    assert project["dependencies"] == []


if __name__ == "__main__":
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
    print(f"{len(tests)} checks passed")
