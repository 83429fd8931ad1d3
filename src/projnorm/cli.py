"""Command-line front end: single-case checks, grid scans, formula
self-verification and report emission.

Output is a single report per invocation, rendered as a plain table,
JSON or CSV (``--format``).  All values are exact; rationals print as
p/q.  Exit codes: 0 ran, 2 input error, 3 formula-verification failure.
The argv is the whole input: no environment variable changes a report.
The seed of the randomized verification is ``--seed`` (default 7).  Only
help and usage text follow the terminal width, as argparse's text does.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from .chern import ChernVector
from .exactalg import (
    DEFAULT_SEED,
    DataError,
    SolverError,
    as_fraction,
    binom,
    parse_rational,
    ring_degree,
)
from .normality import (
    CurveCase,
    ci_example_scan,
    classify_p3_hypersurface,
    classify_p4_hypersurface,
    curve_thresholds,
    curve_verdicts,
    dimension_test,
    kko_audit,
    mrc_check,
    sectional_curve_criterion,
    surface_acm_criterion,
)
from .report import ScanReport, grid_scan
from .rr import (
    HypersurfaceP3,
    HypersurfaceP4,
    chi_surface,
    chi_threefold_hypersurface,
    parity_ok,
    solve_ulrich_chern,
    surface_model,
    surface_numbers,
)
from .ulrich import casnati_c2, ulrich_c3_p4_hypersurface
from .verify import formula_suite

_CHECK_COLUMNS = ("status", "k", "lhs", "relation", "rhs", "value", "threshold", "notes")


def _value_row(name: str, value):
    return (("value", name), (None, None, None, None, None, value, None, ""))


def _verdict_row(v):
    """A verdict's report row; each witness side becomes a ``Fraction`` cell here."""
    w = v.witness
    return (
        ("verdict", v.rule),
        (
            v.status_label,
            v.k,
            as_fraction(w.lhs) if w else None,
            w.relation if w else None,
            as_fraction(w.rhs) if w else None,
            None,
            v.theorem,
            "; ".join(v.notes),
        ),
    )


def _acm_rows(acm) -> list:
    """The ACM-criterion verdict followed by its degeneracy-locus data, in field order."""
    deg = acm.degeneracy
    return [_verdict_row(acm.verdict)] + [
        _value_row(f"degeneracy_{name}", value) for name, value in zip(deg._fields, deg)
    ]


def _check_report(title: str, provenance: str, rows) -> ScanReport:
    return ScanReport.build(
        title=title,
        params=("kind", "name"),
        columns=_CHECK_COLUMNS,
        provenance=(provenance,) * len(_CHECK_COLUMNS),
        rows=rows,
    )


# ---------------------------------------------------------------------------
# check commands


def check_surface_hyp(d: int, r: int) -> ScanReport:
    V = HypersurfaceP3(d)
    S = V.surface()
    E = solve_ulrich_chern(V, r)
    h0 = r * d
    c1sq, c1k, c2 = surface_numbers(S, E)
    v2, v3, counts = classify_p3_hypersurface(d, r)

    rows = [
        _value_row("d", d),
        _value_row("r", r),
        _value_row("h0", h0),
        _value_row("chi_structure_sheaf", S.chi_o),
        _value_row("c1_h_coefficient", Fraction(r * (d - 1), 2)),
        _value_row("c1_sq", c1sq),
        _value_row("c1_k", c1k),
        _value_row("c2", c2),
        _value_row("chi_bundle", chi_surface(S, E)),
        _value_row("h0_tensor2", counts.tensor2),
        _value_row("h0_sym2", counts.sym2),
        _value_row("h0_sym3", counts.sym3),
        _value_row("dim_tensor2_h0", h0 * h0),
        _value_row("dim_sym2_h0", binom(h0 + 1, 2)),
        _value_row("dim_sym3_h0", binom(h0 + 2, 3)),
        _value_row("slack3", as_fraction(v3.witness.lhs - v3.witness.rhs)),
        _verdict_row(dimension_test(h0, 2, counts.tensor2, strong=True)),
        _verdict_row(v2),
        _verdict_row(v3),
    ]
    if r >= 2 and h0 >= r + 3:
        rows.extend(_acm_rows(surface_acm_criterion(h0, r, c1sq, c1k, c2)))
    else:
        rows.append(_value_row("acm_criterion_note", "skipped: needs rank >= 2 and h0 >= r+3"))
    rows.append(_verdict_row(sectional_curve_criterion(S, E)))
    return _check_report(
        f"surface hypersurface check (d={d}, r={r})",
        "rr.solve_ulrich_chern; ulrich.h0_powers_p3_hypersurface; normality.classify_p3_hypersurface",
        rows,
    )


def check_threefold_hyp(d: int, r: int) -> ScanReport:
    V = HypersurfaceP4(d)
    E = solve_ulrich_chern(V, r)
    h0 = r * d
    strong, plain, powers = classify_p4_hypersurface(d, r)
    rows = [
        _value_row("d", d),
        _value_row("r", r),
        _value_row("h0", h0),
        _value_row("c1_h_coefficient", Fraction(r * (d - 1), 2)),
        _value_row("c2_h", ring_degree(E.c2)),
        _value_row("c3", ring_degree(E.c3)),
        _value_row("c3_closed_form", ulrich_c3_p4_hypersurface(d, r)),
        _value_row("chi_bundle", chi_threefold_hypersurface(V, E)),
        _value_row("chi_tensor2", powers.chi_tensor2),
        _value_row("chi_sym2", powers.chi_sym2),
        _value_row("c3_tensor2", as_fraction(powers.c3_tensor2)),
        _value_row("c3_sym2", as_fraction(powers.c3_sym2)),
        _value_row("dim_tensor2_h0", h0 * h0),
        _value_row("dim_sym2_h0", binom(h0 + 1, 2)),
        _verdict_row(strong),
        _verdict_row(plain),
        _verdict_row(sectional_curve_criterion(V, E)),
    ]
    return _check_report(
        f"threefold hypersurface check (d={d}, r={r})",
        "rr.solve_ulrich_chern; ulrich.chi_powers_p4_hypersurface; normality.classify_p4_hypersurface",
        rows,
    )


def check_curve(args) -> ScanReport:
    case = CurveCase(
        genus=args.g,
        degree=args.d,
        rank=args.r,
        syzygy_levels=tuple(args.p or ()),
        clifford=args.cliff,
        very_ample=args.very_ample,
        general=args.general,
    )
    rows = [
        _value_row("g", case.genus),
        _value_row("d", case.degree),
        _value_row("r", case.rank),
        _value_row("clifford_index", case.clifford),
        _value_row("slope", Fraction(case.degree + case.genus - 1)),
        _value_row("h0", case.rank * case.degree),
    ]
    rows.extend(_verdict_row(v) for v in curve_verdicts(case))
    if case.genus < 3:
        rows.append(_value_row("mrc_note", "skipped: needs genus >= 3"))
    return _check_report(
        f"curve check (g={case.genus}, d={case.degree}, r={case.rank})",
        "normality.curve_thresholds; normality.mrc_check; normality.kko_curve_window",
        rows,
    )


def _parse_divisor(text: str):
    parts = [parse_rational(chunk) for chunk in text.split(",")]
    if len(parts) == 1:
        return (parts[0], Fraction(0))
    if len(parts) == 2:
        return tuple(parts)
    raise ValueError("divisor spec must be 'a' (a*H) or 'a,b' (a*H + b*K)")


def check_surface(args) -> ScanReport:
    S = surface_model(args.h2, args.hk, args.k2, args.chi)
    E = ChernVector.of(S.lattice, args.r, _parse_divisor(args.c1), args.c2)
    c1sq, c1k, c2 = surface_numbers(S, E)
    h0 = args.h if args.h is not None else args.r * S.degree
    if isinstance(h0, Fraction):
        if h0.denominator != 1:
            raise DataError("h^0 must be an integer")
        h0 = int(h0)
    rows = [
        _value_row("h2", S.lattice.gram[0][0]),
        _value_row("hk", S.lattice.gram[0][1]),
        _value_row("k2", S.lattice.gram[1][1]),
        _value_row("chi_structure_sheaf", S.chi_o),
        _value_row("r", args.r),
        _value_row("h0", h0),
        _value_row("c1_sq", c1sq),
        _value_row("c1_k", c1k),
        _value_row("c2", c2),
        _value_row("casnati_c2_reference", casnati_c2(c1sq, c1k, args.r, S.degree, S.chi_o)),
    ]
    rows.extend(_acm_rows(surface_acm_criterion(h0, args.r, c1sq, c1k, c2)))
    rows.append(_verdict_row(sectional_curve_criterion(S, E)))
    return _check_report(
        "general surface check",
        "normality.surface_acm_criterion; normality.sectional_curve_criterion",
        rows,
    )


#: Named worked examples for ``check preset NAME``: the check and its degree.
PRESETS = {
    "quadric-surface": (check_surface_hyp, 2),
    "cubic-surface": (check_surface_hyp, 3),
    "quartic-k3": (check_surface_hyp, 4),
    "quintic-surface": (check_surface_hyp, 5),
    "sextic-surface": (check_surface_hyp, 6),
    "cubic-threefold": (check_threefold_hyp, 3),
    "quartic-threefold": (check_threefold_hyp, 4),
    "quintic-threefold": (check_threefold_hyp, 5),
    "sextic-threefold": (check_threefold_hyp, 6),
}


def check_preset(name: str, r: int) -> ScanReport:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    check, d = PRESETS[name]
    return check(d, r)


# ---------------------------------------------------------------------------
# scans


def _count_cells(v) -> tuple:
    """A count verdict's status and the two sides of its witness, as ``Fraction`` cells."""
    w = v.witness
    return (v.status_label, as_fraction(w.lhs), as_fraction(w.rhs))


def _p3_cells(d: int, r: int) -> tuple:
    if not parity_ok(r, d):
        return ("odd", None, None, None, None)
    v2, v3, _ = classify_p3_hypersurface(d, r)
    return ("ok", *_count_cells(v2), as_fraction(v3.witness.lhs - v3.witness.rhs))


def _p4_cells(d: int, r: int) -> tuple:
    if not parity_ok(r, d):
        return ("odd", None, None, None, None, None, None)
    strong, plain, _ = classify_p4_hypersurface(d, r)
    return ("ok", *_count_cells(strong), *_count_cells(plain))


def _curve_cells(g: int, d: int) -> tuple:
    case = CurveCase(g, d, syzygy_levels=(2,), very_ample=True, general=True)
    pn, n1, np2, _, sharp = curve_thresholds(case)  # the Clifford row has no index here
    return (pn.fired, n1.fired, np2.fired, sharp.fired, mrc_check(case).fired if g >= 3 else None)


def scan_p3(dmax: int, rmax: int) -> ScanReport:
    return grid_scan(
        f"surface hypersurface scan (2 <= d <= {dmax}, r <= {rmax})",
        ("d", "r"),
        ("parity", "status", "dim_sym2_h0", "h0_sym2", "slack3"),
        ("normality.classify_p3_hypersurface",) * 5,
        (range(2, dmax + 1), range(1, rmax + 1)),
        _p3_cells,
    )


def scan_p4(dmax: int, rmax: int) -> ScanReport:
    return grid_scan(
        f"threefold hypersurface scan (4 <= d <= {dmax}, r <= {rmax})",
        ("d", "r"),
        (
            "parity",
            "strong_status",
            "dim_tensor2_h0",
            "chi_tensor2",
            "status",
            "dim_sym2_h0",
            "chi_sym2",
        ),
        ("normality.classify_p4_hypersurface",) * 7,
        (range(4, dmax + 1), range(1, rmax + 1)),
        _p4_cells,
    )


def scan_curve(gmax: int, dmax: int) -> ScanReport:
    return grid_scan(
        f"curve threshold scan (g <= {gmax}, d <= {dmax}; generality flags assumed)",
        ("g", "d"),
        ("pn", "n1_koszul", "np_p2", "general_sharp", "mrc"),
        ("normality.curve_thresholds",) * 4 + ("normality.mrc_check",),
        (range(0, gmax + 1), range(1, dmax + 1)),
        _curve_cells,
    )


def kko_audit_report() -> ScanReport:
    rows = [
        ((row.h, row.j, row.a, row.b), (row.genus_floor, row.bound, row.ok))
        for row in kko_audit()
    ]
    return ScanReport.build(
        title="special line-bundle locus audit (low-degree window: d in {g, g+1} is always projectively normal for Ulrich line bundles, g >= 3)",
        params=("h", "j", "a", "b"),
        columns=("genus_floor", "bound", "ok"),
        provenance=("normality.kko_audit",) * 3,
        rows=rows,
    )


# ---------------------------------------------------------------------------
# argument parsing and dispatch


class Leaf(NamedTuple):
    """A command that runs: its ``add_argument`` specs and what it does."""

    arguments: tuple  # (name or flag, add_argument keyword arguments) pairs
    run: Callable  # parsed namespace -> (report, exit code)
    help: str | None = None


class Group(NamedTuple):
    """A command that takes a subcommand, stored under ``dest``."""

    dest: str
    commands: dict
    help: str | None = None


def _verify_formulas(args) -> tuple:
    report, ok = formula_suite(_parse_ranks(args.ranks), args.trials, args.seed)
    return report, 0 if ok else 3


_FORMATS = ("table", "json", "csv")
_INT = dict(type=int, required=True)
_RATIONAL = dict(type=parse_rational, required=True)
_D_R = (("--d", _INT), ("--r", _INT))

#: The command tree, written down once: ``build_parser`` builds parsers
#: from it and ``dispatch`` runs the leaf that a parsed argv selects.
COMMANDS = {
    "verify-formulas": Leaf(
        (
            ("--ranks", dict(default="1..6", help="rank range, e.g. 1..6")),
            ("--trials", dict(type=int, default=20)),
            ("--seed", dict(type=int, default=DEFAULT_SEED)),
        ),
        _verify_formulas,
        "run the splitting-principle and Riemann-Roch self-checks",
    ),
    "check": Group(
        "target",
        {
            "curve": Leaf(
                (
                    ("--g", _INT),
                    ("--d", _INT),
                    ("--r", dict(type=int, default=1)),
                    ("--p", dict(type=int, action="append", help="syzygy level(s) p >= 2, repeatable")),
                    ("--cliff", dict(type=int, default=None, help="Clifford index of the curve, if known")),
                    ("--general", dict(action="store_true", help="treat curve and bundle as general")),
                    ("--very-ample", dict(action="store_true", dest="very_ample")),
                ),
                lambda a: (check_curve(a), 0),
            ),
            "surface-hyp": Leaf(_D_R, lambda a: (check_surface_hyp(a.d, a.r), 0)),
            "threefold-hyp": Leaf(_D_R, lambda a: (check_threefold_hyp(a.d, a.r), 0)),
            "surface": Leaf(
                (
                    ("--h2", _RATIONAL),
                    ("--hk", _RATIONAL),
                    ("--k2", _RATIONAL),
                    ("--chi", _RATIONAL),
                    ("--r", _INT),
                    ("--c1", dict(required=True, help="divisor 'a' (a*H) or 'a,b' (a*H + b*K)")),
                    ("--c2", _RATIONAL),
                    ("--h", dict(type=int, default=None, help="h^0(E); defaults to r*H^2")),
                ),
                lambda a: (check_surface(a), 0),
            ),
            "preset": Leaf(
                (("name", {}), ("--r", dict(type=int, default=2))),
                lambda a: (check_preset(a.name, a.r), 0),
            ),
        },
        "single-case verdicts",
    ),
    "scan": Group(
        "grid",
        {
            "ci": Leaf((("--rmax", _INT),), lambda a: (ci_example_scan(a.rmax), 0)),
            "p3": Leaf((("--dmax", _INT), ("--rmax", _INT)), lambda a: (scan_p3(a.dmax, a.rmax), 0)),
            "p4": Leaf((("--dmax", _INT), ("--rmax", _INT)), lambda a: (scan_p4(a.dmax, a.rmax), 0)),
            "curve": Leaf((("--gmax", _INT), ("--dmax", _INT)), lambda a: (scan_curve(a.gmax, a.dmax), 0)),
        },
        "grid scans",
    ),
    "kko-audit": Leaf((), lambda a: (kko_audit_report(), 0), "audit the special line-bundle locus dimension bounds"),
}


def build_parser(argv) -> argparse.ArgumentParser:
    """The argparse tree of ``COMMANDS``, with parsers only for the
    commands named in ``argv``.

    One invocation parses one path, and each ``ArgumentParser`` is costly
    to build (its constructor looks up messages through gettext), so a
    command that ``argv`` does not name gets no parser: ``_parser_or_none``
    is the ``parser_class`` of every subcommand group and returns ``None``
    for it.  argparse uses only the name and help of such a command, for
    usage, help and invalid-choice text, so that text is unchanged at every
    terminal width.  ``--format`` is accepted both before and after the
    subcommand; the trailing occurrence wins.
    """
    import shutil  # lazily, as argparse does: only a parser build needs it

    parser = argparse.ArgumentParser(
        prog="projnorm",
        description="Exact projective-normality checks for Ulrich bundles on curves, surfaces and low-dimensional hypersurfaces.",
        # one terminal-size query per tree: the default formatter queries
        # again for every formatter, and add_argument builds one per call
        formatter_class=functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2),
    )
    parser.add_argument("--format", choices=_FORMATS, dest="format_root", default=None)
    _add_commands(parser, "command", COMMANDS, set(argv))
    return parser


def _parser_or_none(*, named: bool, **kwargs):
    """The ``parser_class`` of every subcommand group: a parser for a
    command the argv names, nothing for the others."""
    return argparse.ArgumentParser(**kwargs) if named else None


def _add_commands(parser, dest: str, commands: dict, selected: set) -> None:
    # no group has a positional before its subcommand, so the prefix of the
    # children's prog is the parser's own; unset, argparse formats a usage
    # line to find it
    sub = parser.add_subparsers(dest=dest, required=True, parser_class=_parser_or_none, prog=parser.prog)
    for name, node in commands.items():
        # an explicit help=None would still list the name under the choices
        kwargs = {} if node.help is None else {"help": node.help}
        child = sub.add_parser(name, named=name in selected, formatter_class=parser.formatter_class, **kwargs)
        if child is None:
            continue
        if isinstance(node, Group):
            _add_commands(child, node.dest, node.commands, selected)
            continue
        child.add_argument("--format", choices=_FORMATS, dest="format_leaf", default=None)
        for flag, spec in node.arguments:
            child.add_argument(flag, **spec)


def _parse_ranks(spec: str):
    lo, sep, hi = spec.partition("..")
    try:
        ranks = range(int(lo), int(hi if sep else lo) + 1)
    except ValueError:
        raise ValueError(f"ranks must be N or LO..HI, got {spec!r}") from None
    if not ranks:
        raise ValueError(f"empty rank range {spec!r}")
    return ranks


def dispatch(args) -> tuple:
    node = COMMANDS[args.command]
    while isinstance(node, Group):
        node = node.commands[getattr(args, node.dest)]
    return node.run(args)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    fmt = args.format_leaf or args.format_root or "table"
    try:
        report, code = dispatch(args)
        text = report.render(fmt)  # inside: an int past the int->str digit limit is a ValueError
    except (SolverError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        sys.stdout.write(text)
    except BrokenPipeError:
        _stdout_to_devnull()
    return code


def _stdout_to_devnull() -> None:
    """Send the rest of stdout to devnull once its reader is gone (``| head``).

    This is Python's recipe for SIGPIPE: later writes and the flush at exit
    can no longer raise, so the run still ends with its own exit code.
    """
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def entry() -> None:
    try:
        sys.exit(main())
    finally:
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            _stdout_to_devnull()


if __name__ == "__main__":
    entry()
