"""Every function under ``src/projnorm`` is entered by some CLI report, or
is named in ``UNREACHED`` with the reason it is kept.

The argvs of ``test_golden_cli.REPORT_CASES`` run in-process under
``sys.setprofile``, which records each Python function entered.  Code
objects are matched to qualified names through ``ast`` (by file, first
line and name), since Python 3.10 has no ``co_qualname``.  A function
that no report reaches and that is not listed fails the test, and so
does a listed name that is reached or no longer exists: library code a
command does not need either gets a caller or goes.
"""

import ast
import sys
from pathlib import Path

import projnorm
from test_golden_cli import REPORT_CASES, run_case

SRC = Path(projnorm.__file__).resolve().parent

_SURFACE_COUNTS = "surface section counts, to be wired into check surface (ROADMAP item 7)"
_RANK_VANISHING = "the realizability gate on rank-1 hypersurface data"
_REPR = "debugging output; no report prints a ring or class"
_MODEL_VALUE = "a hypersurface model is an immutable value named by its degree; no report prints, compares, hashes or assigns one"

#: Functions no report argv enters, and why each is kept.
UNREACHED = {
    "chern.dual": "the tests check that every closed form commutes with duality",
    "chern.satisfies_rank_vanishing": _RANK_VANISHING,
    "chern.validate_rank_vanishing": _RANK_VANISHING,
    "exactalg.numerically_equal": "library API, tested: surface classes equal in every pairing (det E of the Ulrich dual)",
    "exactalg.DivisorVector.__neg__": "GradedClass.__neg__ and a - b of surface divisors need it",
    "ulrich.h0_powers_surface": _SURFACE_COUNTS,
    "ulrich.h0_powers_surface_det_special": _SURFACE_COUNTS,
    "rr.Surface.hyperplane": "library API, tested: a surface's hyperplane class; ROADMAP item 14 makes it a field",
    "report.ScanReport.from_json": "the README promises that a JSON report reads back into a ScanReport",
    "report._decode": "the cell decoder of ScanReport.from_json",
    "exactalg.GradedClass.__repr__": _REPR,
    "exactalg.RankOneRing.__repr__": _REPR,
    "exactalg.SurfaceLattice.__repr__": _REPR,
    "exactalg._format_component": "the component formatter of GradedClass.__repr__",
    "rr._Hypersurface.__setattr__": _MODEL_VALUE,
    "rr._Hypersurface.__delattr__": _MODEL_VALUE,
    "rr._Hypersurface.__eq__": _MODEL_VALUE,
    "rr._Hypersurface.__hash__": _MODEL_VALUE,
    "rr._Hypersurface.__repr__": _MODEL_VALUE,
    "cli.entry": "the console-script entry point; the tests call main directly",
    "cli._stdout_to_devnull": "runs only when the reader of stdout has gone (a closed pipe)",
}


def _functions() -> dict:
    """``(file, first line, name)`` of every ``def`` under ``SRC`` -> its
    qualified name, ``module.Class.method`` or ``module.f.<locals>.g``."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                # a decorated function's code starts at its first decorator
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first, child.name)] = qualname
                visit(child, path, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, path.stem + ".")
    return found


def _entered_by_reports() -> set:
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in REPORT_CASES.values():
            run_case(argv)
    finally:
        sys.setprofile(previous)
    return entered


def test_unreached_functions_are_exactly_the_listed_ones(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    functions = _functions()
    entered = _entered_by_reports()
    names = set(functions.values())
    unreached = {name for key, name in functions.items() if key not in entered}
    assert sorted(UNREACHED.keys() - names) == [], "listed names that no longer exist"
    assert sorted(UNREACHED.keys() & (names - unreached)) == [], "listed names a report now reaches"
    assert sorted(unreached - UNREACHED.keys()) == [], "functions no report reaches"
