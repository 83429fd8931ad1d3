"""Golden lock on the CLI surface: help text, usage errors, exit codes and
the bytes of the grid-scan and audit reports.

Each case in ``CASES`` has a file ``tests/golden/cli/<name>.txt`` holding
the argv, the exit code, stdout and stderr of one in-process run with
``COLUMNS=80``.  Regenerate them after an intended change with

    PYTHONPATH=src python tests/test_golden_cli.py

(pytest is not needed) and say why in CHANGES.md.  With ``--check`` the
same command compares instead of writing, names each mismatch and exits 1
if there is one; that is how the files are checked on an interpreter
without pytest.  Outside Python 3.10-3.12 both write or check only
``REPORT_CASES`` and name the help and usage cases they skipped.

The files lock one terminal width.  ``test_argparse_text_matches_a_full_tree``
checks help, usage and error text at three widths against ``full_parser``,
a tree in which every command has a parser, as ``cli.build_parser`` gives
only the commands the argv names.
"""

import argparse
import gettext
import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from projnorm import cli
from projnorm.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli"

#: The files were taken on Python 3.11.  Help and usage-error text reads
#: the same on 3.10 and 3.12; 3.13 wraps long usage lines at other points.
SAME_ARGPARSE_TEXT = (3, 10) <= sys.version_info[:2] <= (3, 12)

_SURFACE = ["--h2", "4", "--hk", "0", "--k2", "0", "--chi", "2", "--r", "2", "--c1", "3", "--c2", "14"]

#: Cases whose output is argparse's own help or usage text.
ARGPARSE_CASES = {
    # help at every level
    "help_root": ["--help"],
    "help_check": ["check", "--help"],
    "help_scan": ["scan", "--help"],
    "help_verify_formulas": ["verify-formulas", "--help"],
    "help_kko_audit": ["kko-audit", "--help"],
    "help_check_curve": ["check", "curve", "--help"],
    "help_check_surface_hyp": ["check", "surface-hyp", "--help"],
    "help_check_threefold_hyp": ["check", "threefold-hyp", "-h"],
    "help_check_surface": ["check", "surface", "--help"],
    "help_check_preset": ["check", "preset", "--help"],
    "help_scan_ci": ["scan", "ci", "--help"],
    "help_scan_p3": ["scan", "p3", "--help"],
    "help_scan_p4": ["scan", "p4", "--help"],
    "help_scan_curve": ["scan", "curve", "--help"],
    # usage errors
    "error_no_command": [],
    "error_unknown_command": ["frobnicate"],
    "error_unknown_check_target": ["check", "frobnicate"],
    "error_unknown_scan_grid": ["scan", "p5", "--dmax", "3"],
    "error_missing_check_target": ["check"],
    "error_missing_scan_grid": ["--format", "json", "scan"],
    "error_missing_required_flag": ["check", "surface-hyp", "--d", "4"],
    "error_missing_preset_name": ["check", "preset"],
    "error_invalid_int": ["check", "surface-hyp", "--d", "four", "--r", "2"],
    "error_invalid_rational": ["check", "surface", "--h2", "x", *_SURFACE[2:]],
    "error_root_format_xml": ["--format", "xml", "check", "surface-hyp", "--d", "4", "--r", "2"],
    "error_leaf_format_xml": ["scan", "ci", "--rmax", "3", "--format", "xml"],
    "error_unrecognized_argument": ["check", "curve", "--g", "3", "--d", "4", "--bogus"],
    "error_leaf_option_before_command": ["--d", "4", "check", "surface-hyp", "--r", "2"],
    "error_help_of_unknown_command": ["frobnicate", "--help"],
}

#: Cases whose output is a report, written by this package alone.
REPORT_CASES = {
    # --format placement and spelling
    "format_root_abbrev": ["--form", "json", "check", "surface-hyp", "--d", "4", "--r", "2"],
    "format_leaf_abbrev": ["check", "surface-hyp", "--d", "4", "--r", "2", "--form", "json"],
    "format_equals": ["check", "preset", "quartic-k3", "--format=csv"],
    "format_leaf_wins": ["--format", "json", "scan", "p3", "--dmax", "3", "--rmax", "2", "--format", "csv"],
    "format_root_only": ["--format", "csv", "check", "surface", *_SURFACE],
    "format_default_table": ["check", "curve", "--g", "3", "--d", "4", "--p", "2", "--p", "3"],
    # an empty grid is the scanner's input error, not argparse's
    "error_empty_scan_grid_p3": ["scan", "p3", "--dmax", "5", "--rmax", "0"],
    "error_empty_scan_grid_p4": ["scan", "p4", "--dmax", "2", "--rmax", "3"],
    "error_empty_scan_grid_curve": ["scan", "curve", "--gmax", "-1", "--dmax", "3"],
    # the Ulrich solver on P^4 and P^3, and c1.K != 0 on surfaces
    "check_threefold_hyp_d5_r3": ["check", "threefold-hyp", "--d", "5", "--r", "3"],
    "check_threefold_hyp_d6_r2": ["check", "threefold-hyp", "--d", "6", "--r", "2"],
    "check_threefold_hyp_d3_r2_json": ["check", "threefold-hyp", "--d", "3", "--r", "2", "--format", "json"],
    "check_surface_hyp_d5_r2": ["check", "surface-hyp", "--d", "5", "--r", "2"],
    "check_surface_c1_with_k": [
        "check", "surface", "--h2", "3", "--hk", "-3", "--k2", "3", "--chi", "1",
        "--r", "2", "--c1", "2,-1", "--c2", "4",
    ],
    # fractional divisor coefficients and integer scalars on a lattice
    "check_surface_fractional_c1_csv": [
        "check", "surface", "--h2", "9", "--hk", "-9", "--k2", "9", "--chi", "1",
        "--r", "2", "--c1", "3/2,1/2", "--c2", "5/2", "--format", "csv",
    ],
    # curve verdicts: the boundary-equality note, a fired Clifford bound and
    # its JSON witness; a positive general window with the Clifford witness
    # "<"; the 2d <= g+p+1 syzygy witness, no Clifford witness, genus below 3
    "check_curve_g3_d4_boundary_json": [
        "check", "curve", "--g", "3", "--d", "4", "--general", "--very-ample", "--cliff", "1", "--format", "json",
    ],
    "check_curve_g15_d14_cliff2": ["check", "curve", "--g", "15", "--d", "14", "--r", "2", "--p", "2", "--p", "8", "--cliff", "2"],
    "check_curve_g2_d1_csv": ["check", "curve", "--g", "2", "--d", "1", "--p", "5", "--general", "--format", "csv"],
    # the pn-degree and n1-koszul-degree fired notes, positive syzygy rows and
    # mrc-count without its boundary note
    "check_curve_g4_d30_fired_csv": [
        "check", "curve", "--g", "4", "--d", "30", "--p", "2", "--p", "3", "--general", "--very-ample", "--cliff", "1",
        "--format", "csv",
    ],
    # a Clifford index above (g-1)//2 is an input error
    "error_clifford_out_of_range": ["check", "curve", "--g", "3", "--d", "1", "--cliff", "100"],
    # so is a syzygy level given twice, which would print its row twice
    "error_repeated_syzygy_level": ["check", "curve", "--g", "3", "--d", "4", "--p", "2", "--p", "2"],
    # presets: an unknown name and a threefold preset
    "error_unknown_preset": ["check", "preset", "no-such-variety"],
    "check_preset_sextic_threefold_r2": ["check", "preset", "sextic-threefold", "--r", "2"],
    # the formula suite: class-ring products, closed forms and the oracle
    "verify_formulas_default": ["verify-formulas"],
    "verify_formulas_ranks_1_2_seed_5": ["verify-formulas", "--ranks", "1..2", "--trials", "3", "--seed", "5"],
    "verify_formulas_ranks_10_12_json": ["verify-formulas", "--ranks", "10..12", "--trials", "4", "--seed", "3", "--format", "json"],
}

# grid scans with odd-parity cells, genus below 3 and both sides of d > g+1,
# and the audit table, in every format
_REPORTS = {
    "scan_p3": ["scan", "p3", "--dmax", "5", "--rmax", "3"],
    "scan_p4": ["scan", "p4", "--dmax", "7", "--rmax", "3"],
    "scan_curve": ["scan", "curve", "--gmax", "4", "--dmax", "7"],
    "scan_ci": ["scan", "ci", "--rmax", "9"],
    "kko_audit": ["kko-audit"],
}
for _name, _argv in _REPORTS.items():
    for _fmt in ("table", "json", "csv"):
        REPORT_CASES[f"{_name}_{_fmt}"] = [*_argv, "--format", _fmt]

CASES = {**ARGPARSE_CASES, **REPORT_CASES}

#: Command names given as option values: they name no command.
OPTION_VALUE_CASES = {
    "command_name_as_int_value": ["scan", "ci", "--rmax", "check"],
    "command_name_as_leaf_value": ["check", "curve", "--g", "scan", "--d", "3"],
}


def run_case(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return (
        f"argv: {' '.join(argv)}\n"
        f"exit: {code}\n"
        f"--- stdout\n{out.getvalue()}"
        f"--- stderr\n{err.getvalue()}"
    )


def pytest_generate_tests(metafunc):
    # parametrized through the hook, so writing the files needs no pytest
    if metafunc.function is test_cli_matches_golden:
        metafunc.parametrize("name", sorted(CASES))
    if metafunc.function is test_argparse_text_matches_a_full_tree:
        metafunc.parametrize("columns", ["40", "80", "132"])
        metafunc.parametrize("name", sorted({**ARGPARSE_CASES, **OPTION_VALUE_CASES}))


def test_cli_matches_golden(name, monkeypatch):
    if name in ARGPARSE_CASES and not SAME_ARGPARSE_TEXT:
        import pytest

        pytest.skip("argparse wraps help text differently on this Python")
    monkeypatch.setenv("COLUMNS", "80")
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert run_case(CASES[name]) == expected


def test_every_golden_file_has_a_case():
    assert sorted(path.stem for path in GOLDEN.glob("*.txt")) == sorted(CASES)


def _add_every_command(parser, dest: str, commands: dict) -> None:
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, node in commands.items():
        child = sub.add_parser(name, **({} if node.help is None else {"help": node.help}))
        if isinstance(node, cli.Group):
            _add_every_command(child, node.dest, node.commands)
            continue
        child.add_argument("--format", choices=cli._FORMATS, dest="format_leaf", default=None)
        for flag, spec in node.arguments:
            child.add_argument(flag, **spec)


def full_parser() -> argparse.ArgumentParser:
    """``cli.COMMANDS`` with a real parser for every command and the
    default formatter: the reference for help, usage and error text."""
    parser = argparse.ArgumentParser(prog="projnorm", description=cli.build_parser(()).description)
    parser.add_argument("--format", choices=cli._FORMATS, dest="format_root", default=None)
    _add_every_command(parser, "command", cli.COMMANDS)
    return parser


def test_argparse_text_matches_a_full_tree(name, columns, monkeypatch):
    argv = {**ARGPARSE_CASES, **OPTION_VALUE_CASES}[name]
    monkeypatch.setenv("COLUMNS", columns)
    built = run_case(argv)
    reference = full_parser()
    monkeypatch.setattr(cli, "build_parser", lambda argv: reference)
    assert built == run_case(argv)


def test_parsers_only_for_the_commands_the_argv_names(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv, expected in (
        (["check", "surface-hyp", "--d", "4", "--r", "2"], ["projnorm", "projnorm check", "projnorm check surface-hyp"]),
        (["kko-audit"], ["projnorm", "projnorm kko-audit"]),
        (["--help"], ["projnorm"]),
    ):
        built.clear()
        run_case(argv)
        assert built == expected, argv


def test_argparse_and_gettext_are_left_as_they_are():
    before = (argparse._, argparse.ArgumentParser.__init__, argparse.HelpFormatter.__init__)
    run_case(["check", "surface-hyp", "--d", "4", "--r", "2"])
    run_case(["--help"])
    assert argparse._ is gettext.gettext
    after = (argparse._, argparse.ArgumentParser.__init__, argparse.HelpFormatter.__init__)
    assert all(a is b for a, b in zip(after, before))
    assert argparse.ArgumentParser.__init__.__module__ == argparse.HelpFormatter.__init__.__module__ == "argparse"


if __name__ == "__main__":
    check = sys.argv[1:] == ["--check"]
    if sys.argv[1:] not in ([], ["--check"]):
        sys.exit("usage: python tests/test_golden_cli.py [--check]")
    os.environ["COLUMNS"] = "80"
    GOLDEN.mkdir(parents=True, exist_ok=True)
    # argparse text from another Python would break the tests on 3.10-3.12
    cases = CASES if SAME_ARGPARSE_TEXT else REPORT_CASES
    mismatched = []
    for name, argv in cases.items():
        path = GOLDEN / f"{name}.txt"
        if not check:
            path.write_text(run_case(argv), encoding="utf-8")
        elif not path.exists() or run_case(argv) != path.read_text(encoding="utf-8"):
            mismatched.append(name)
            print(f"mismatch {name}")
    for name in sorted(CASES.keys() - cases.keys()):
        print(f"skipped {name}: argparse text differs on this Python")
    if check:
        print(f"{len(cases) - len(mismatched)} of {len(cases)} cases match")
    sys.exit(1 if mismatched else 0)
