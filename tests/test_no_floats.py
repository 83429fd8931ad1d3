"""The north star's "exact rationals with no floats" rule, checked
statically and at run time.

An ``ast`` scan of every module under ``src/projnorm`` finds no float or
complex literal and no name ``float``, and every ``math`` function the
package reads is one of the exact integer functions in ``EXACT_MATH``.
The scan cannot see ``int / int``, so every report argv of
``test_golden_cli.REPORT_CASES`` and a short ``verify-formulas`` run once
more in process, with ``Fraction`` refusing a float argument and a
profile hook failing on any float that a package function returns.

The module needs no pytest, so it also runs as a plain script on any
supported Python (the run-time check imports the package):

    PYTHONPATH=src python tests/test_no_floats.py
"""

import ast
import sys
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "projnorm"

#: The ``math`` functions that take and return exact integers.
EXACT_MATH = {"comb", "factorial", "lcm", "gcd", "isqrt"}


def _inexact_uses(tree: ast.AST) -> list:
    """``(line, what)`` for each float or complex literal, each name
    ``float``, and each ``math`` use outside ``EXACT_MATH``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "float"))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "math":
            if node.attr not in EXACT_MATH:
                found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, f"math.{a.name}") for a in node.names if a.name not in EXACT_MATH]
        elif isinstance(node, ast.Import):
            found += [(node.lineno, f"math as {a.asname}") for a in node.names if a.name == "math" and a.asname]
    return found


def test_the_package_has_no_float_literal_name_or_inexact_math():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    found = {path.name: uses for path in modules if (uses := _inexact_uses(ast.parse(path.read_text())))}
    assert found == {}


def test_the_scan_sees_each_kind_of_inexact_use():
    source = "import math as m\nfrom math import sqrt, gcd\nx = 0.5 + 2j + float(1) + math.log(2) + math.comb(3, 1)\n"
    found = sorted(what for _, what in _inexact_uses(ast.parse(source)))
    assert found == ["0.5", "2j", "float", "math as m", "math.log", "math.sqrt"]


def test_no_report_builds_a_fraction_from_a_float_or_returns_a_float():
    import projnorm
    from test_golden_cli import REPORT_CASES, run_case

    package = str(Path(projnorm.__file__).parent)
    argvs = [*REPORT_CASES.values(), ["verify-formulas", "--ranks", "1..4", "--trials", "5"]]
    seen = {"returns": 0, "fractions": 0}
    floats = []

    def profile(frame, event, arg):
        if event == "return" and frame.f_code.co_filename.startswith(package):
            seen["returns"] += 1
            if isinstance(arg, float):
                floats.append((frame.f_code.co_name, arg))

    saved = vars(Fraction)["__new__"]
    new = Fraction.__new__

    def exact_new(cls, *args, **kwargs):
        seen["fractions"] += 1
        if any(isinstance(a, float) for a in (*args, *kwargs.values())):
            raise TypeError(f"a Fraction built from a float: {args}")
        return new(cls, *args, **kwargs)

    Fraction.__new__ = exact_new
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        outputs = [run_case(argv) for argv in argvs]
    finally:
        sys.setprofile(previous)
        Fraction.__new__ = saved
    assert floats == []
    # the hooks saw the package run, and the suite passed
    assert seen["returns"] > 0 and seen["fractions"] > 0
    assert "\nexit: 0\n" in outputs[-1]


if __name__ == "__main__":
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
    print(f"{len(tests)} checks passed")
