"""Report serialization round-trips, CLI behavior, exit codes, determinism."""

import csv
import io
import json
import shlex
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from projnorm import cli
from projnorm.cli import main
from projnorm.report import _FRACTION_RE, Row, ScanReport
from projnorm.rr import HypersurfaceP3


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def sample_report():
    return ScanReport.build(
        title="sample",
        params=("d", "r"),
        columns=("status", "margin", "ok", "note"),
        provenance=("op",) * 4,
        rows=[
            ((2, 1), ("fine", Fraction(3, 7), True, None)),
            ((2, 2), ("bad", Fraction(-14, 1), False, "x")),
        ],
    )


def test_report_json_round_trip():
    report = sample_report()
    assert ScanReport.from_json(report.to_json()) == report


def test_report_rejects_fraction_lookalike_strings():
    with pytest.raises(ValueError):
        ScanReport.build(
            "t", ("a",), ("b",), ("p",), [((1,), ("3/4",))]
        ).to_json()


class _IntSubclass(int):
    pass


class _StrSubclass(str):
    pass


@pytest.mark.parametrize("fmt", ("table", "json", "csv"))
def test_report_rejects_a_float_cell_in_every_format(fmt):
    # a float above all, and every other cell no format may print: _cell_text
    # is the one cell-type guard, and JSON reaches it too.  Cells are looked
    # up by exact type, so a subclass of int or str is refused as well.
    for cell in (0.5, 1j, b"x", (1,), Decimal("1"), _IntSubclass(1), _StrSubclass("x")):
        report = ScanReport.build("t", ("a",), ("b",), ("p",), [((1,), (cell,))])
        with pytest.raises(TypeError, match=f"unsupported cell type {type(cell).__name__}$"):
            report.render(fmt)


def test_report_sorting_and_shape_checks():
    with pytest.raises(ValueError):
        ScanReport("t", ("a",), ("b",), (), (Row((1,), (2,)),))
    with pytest.raises(ValueError):
        ScanReport("t", ("a",), ("b",), ("p",), (Row((1, 2), (3,)),))


def test_report_csv_and_table_render():
    report = sample_report()
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0] == "d,r,status,margin,ok,note"
    assert "3/7" in csv_text and "-14" in csv_text and "true" in csv_text
    table = report.to_table()
    assert table.startswith("# sample")
    with pytest.raises(ValueError):
        report.render("yaml")


def test_cli_check_surface_hyp_json():
    code, out, _ = run_cli("--format", "json", "check", "surface-hyp", "--d", "4", "--r", "2")
    assert code == 0
    doc = json.loads(out)
    rows = {(row["params"]["kind"], row["params"]["name"]): row["values"] for row in doc["rows"]}
    verdict = rows[("verdict", "2-normality-count")]
    assert verdict["status"] == "not-2-normal"
    assert verdict["lhs"] == "36/1" and verdict["rhs"] == "40/1"
    assert rows[("value", "c2")]["value"] == "14/1"
    report = ScanReport.from_json(out)
    assert ScanReport.from_json(report.to_json()) == report


def test_cli_parity_error_exit_code():
    code, out, err = run_cli("check", "surface-hyp", "--d", "4", "--r", "3")
    assert code == 2
    assert "r*(d-1) must be even" in err
    assert out == ""


def test_cli_verify_formulas_pass():
    code, out, _ = run_cli("verify-formulas", "--ranks", "1..3", "--trials", "4", "--seed", "7")
    assert code == 0
    assert "false" not in out


def test_cli_verify_formulas_deterministic():
    runs = [run_cli("--format", "json", "verify-formulas", "--ranks", "1..2", "--trials", "3", "--seed", "9") for _ in range(2)]
    assert runs[0] == runs[1]


def test_cli_seed_comes_from_argv_alone(monkeypatch):
    argv = ("verify-formulas", "--ranks", "1..2", "--trials", "3")
    monkeypatch.delenv("PROJNORM_SEED", raising=False)
    without = run_cli(*argv)
    monkeypatch.setenv("PROJNORM_SEED", "13")
    assert run_cli(*argv) == without


def test_cli_preset_quartic_k3():
    code, out, _ = run_cli("--format", "json", "check", "preset", "quartic-k3", "--r", "2")
    assert code == 0
    doc = json.loads(out)
    assert "d=4" in doc["title"]
    code, _, err = run_cli("check", "preset", "no-such-variety")
    assert code == 2 and "unknown preset" in err


def test_cli_check_surface_matches_hypersurface_route():
    code, out, _ = run_cli(
        "--format", "json", "check", "surface",
        "--h2", "4", "--hk", "0", "--k2", "0", "--chi", "2",
        "--r", "2", "--c1", "3", "--c2", "14",
    )
    assert code == 0
    doc = json.loads(out)
    rows = {(row["params"]["kind"], row["params"]["name"]): row["values"] for row in doc["rows"]}
    assert rows[("verdict", "acm-degeneracy")]["status"] == "not-2-normal"
    assert rows[("value", "degeneracy_h1_lower")]["value"] == "17/1"
    assert rows[("value", "casnati_c2_reference")]["value"] == "14/1"


def test_cli_check_surface_reads_joined_fractions_and_exact_decimals():
    def values(*c1_c2):
        code, out, err = run_cli(
            "--format", "csv", "check", "surface",
            "--h2", "4", "--hk", "0", "--k2", "0", "--chi", "2", "--r", "2", *c1_c2,
        )
        assert code == 0 and err == ""
        return {row["name"]: row["value"] for row in csv.DictReader(io.StringIO(out)) if row["kind"] == "value"}

    # a negative p/q is given joined to its option; its cell prints as read
    assert values("--c1", "3", "--c2=-7/4")["c2"] == "-7/4"
    # an exact decimal is a rational: c1 = 1.5 H = 3/2 H gives c1^2 = 9/4 * 4
    assert values("--c1", "1.5", "--c2", "14")["c1_sq"] == "9"


@pytest.mark.xfail(
    strict=True,
    reason=(
        "ROADMAP item 3: check surface-hyp applies the q = p_g = 0 ACM criterion to surfaces "
        "with p_g > 0; gating it on Surface.geometric_genus changes check surface-hyp stdout, "
        "which bench/reference.json locks, so the gate lands with new reference digests"
    ),
)
def test_acm_degeneracy_fires_only_with_vanishing_geometric_genus():
    fired = set()
    for d, r in ((4, 6), (5, 2)):
        if HypersurfaceP3(d).surface().geometric_genus == 0:
            continue
        _, out, _ = run_cli("--format", "json", "check", "surface-hyp", "--d", str(d), "--r", str(r))
        status = {row["params"]["name"]: row["values"]["status"] for row in json.loads(out)["rows"]}
        if status["acm-degeneracy"] == "not-2-normal":
            fired.add((d, r))
    assert fired == set()


def test_cli_check_curve_rules():
    code, out, _ = run_cli(
        "--format", "json", "check", "curve", "--g", "3", "--d", "4",
        "--p", "2", "--cliff", "1", "--general", "--very-ample",
    )
    assert code == 0
    doc = json.loads(out)
    status = {
        row["params"]["name"]: row["values"]["status"]
        for row in doc["rows"]
        if row["params"]["kind"] == "verdict"
    }
    assert status["general-sharp-degree"] == "positive"
    assert status["mrc-count"] == "positive"
    assert status["pn-degree"] == "inconclusive"
    assert status["low-degree-window"] == "positive"  # d = g+1


def test_cli_threefold_boundary():
    code, out, _ = run_cli("--format", "json", "check", "threefold-hyp", "--d", "5", "--r", "3")
    assert code == 0
    doc = json.loads(out)
    rows = {(row["params"]["kind"], row["params"]["name"]): row["values"] for row in doc["rows"]}
    plain = rows[("verdict", "2-normality-count")]
    assert plain["status"] == "inconclusive" and plain["relation"] == "="
    strong = rows[("verdict", "strong-2-normality-count")]
    assert strong["status"] == "not-strongly-2-normal"


def test_cli_scans_sorted_and_deterministic():
    for argv in (
        ("scan", "ci", "--rmax", "9"),
        ("scan", "p3", "--dmax", "5", "--rmax", "4"),
        ("scan", "p4", "--dmax", "6", "--rmax", "4"),
        ("scan", "curve", "--gmax", "4", "--dmax", "6"),
        ("kko-audit",),
    ):
        first = run_cli("--format", "json", *argv)
        second = run_cli("--format", "json", *argv)
        assert first == second and first[0] == 0
        doc = json.loads(first[1])
        params = [tuple(row["params"].values()) for row in doc["rows"]]
        assert all(a < b for a, b in zip(params, params[1:]))


def test_scans_call_each_traced_function_once_per_cell(monkeypatch):
    # bench/tracing.py HOT requires these spans on the scans workload; a
    # change that stops calling one per cell changes the benchmark's traces
    from projnorm import normality
    from projnorm.rr import parity_ok

    calls = Counter()

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in (
        (cli, "classify_p3_hypersurface"),
        (cli, "classify_p4_hypersurface"),
        (cli, "curve_thresholds"),
        (cli, "mrc_check"),
        (normality, "h0_powers_p3_hypersurface"),
        (normality, "chi_powers_p4_hypersurface"),
        (normality, "dimension_test"),
    ):
        counted(module, name)

    cells = sum(parity_ok(r, d) for d in range(2, 8) for r in range(1, 6))
    cli.scan_p3(7, 5)
    assert calls == {"classify_p3_hypersurface": cells, "h0_powers_p3_hypersurface": cells, "dimension_test": 2 * cells}
    calls.clear()
    cells = sum(parity_ok(r, d) for d in range(4, 9) for r in range(1, 6))
    cli.scan_p4(8, 5)
    assert calls == {"classify_p4_hypersurface": cells, "chi_powers_p4_hypersurface": cells, "dimension_test": 2 * cells}
    calls.clear()
    cli.scan_curve(5, 4)
    assert calls == {"curve_thresholds": 6 * 4, "mrc_check": 3 * 4}


def test_hypersurface_checks_evaluate_each_closed_form_once(monkeypatch):
    # the value rows and the verdicts of one check come from one classifier
    # call; each function is counted in every projnorm namespace that binds
    # it, as bench/tracing.py wraps it, so a direct call from cli is seen too
    from projnorm import cli, normality, ulrich

    calls = Counter()
    for module, name in (
        (normality, "classify_p3_hypersurface"),
        (normality, "classify_p4_hypersurface"),
        (ulrich, "h0_powers_p3_hypersurface"),
        (ulrich, "chi_powers_p4_hypersurface"),
        (normality, "dimension_test"),
    ):
        inner = getattr(module, name)

        def wrapper(*args, _inner=inner, _name=name, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.partition(".")[0] == "projnorm" and getattr(mod, name, None) is inner:
                monkeypatch.setattr(mod, name, wrapper)

    cli.check_surface_hyp(5, 2)
    assert calls == {"classify_p3_hypersurface": 1, "h0_powers_p3_hypersurface": 1, "dimension_test": 3}
    calls.clear()
    cli.check_threefold_hyp(5, 3)
    assert calls == {"classify_p4_hypersurface": 1, "chi_powers_p4_hypersurface": 1, "dimension_test": 2}


def test_cli_value_past_the_int_digit_limit_is_an_input_error():
    # a report cell too long for str(int) is rejected like any bad input:
    # exit 2, one error line, nothing on stdout
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run_cli("check", "curve", "--g", "9" * 400, "--d", "9" * 400)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    readme = README.read_text(encoding="utf-8")
    block = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})


def test_readme_command_lines_exit_zero():
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("projnorm ")]
    assert lines
    assert [line for line in lines if run_cli(*shlex.split(line)[1:])[0] != 0] == []


def test_cli_csv_format():
    code, out, _ = run_cli("--format", "csv", "scan", "p3", "--dmax", "4", "--rmax", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d,r,parity,status,dim_sym2_h0,h0_sym2,slack3"
    assert len(lines) == 1 + 3 * 3


def test_cli_verification_failure_exit_code(monkeypatch):
    import projnorm.cli as cli_mod

    def fake_suite(ranks, trials, seed):
        return sample_report(), False

    monkeypatch.setattr(cli_mod, "formula_suite", fake_suite)
    code, out, _ = run_cli("verify-formulas")
    assert code == 3
    assert out.startswith("# sample")


def _exhausted(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("where", ["dispatch", "render", "write"])
def test_cli_exits_2_with_one_error_line_when_memory_runs_out(where, monkeypatch):
    # ROADMAP item 23: exhausted memory ends in exit code 2 and one error
    # line, not a traceback, whether dispatch, rendering or the write runs out
    if where == "dispatch":
        monkeypatch.setattr(cli, "dispatch", _exhausted)
    elif where == "render":
        monkeypatch.setattr(ScanReport, "render", _exhausted)
    out, err = io.StringIO(), io.StringIO()
    if where == "write":
        monkeypatch.setattr(out, "write", _exhausted)
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["scan", "p3", "--dmax", "3", "--rmax", "2"])
    assert (code, out.getvalue(), err.getvalue()) == (2, "", "error: out of memory\n")


def _failed_rows(report) -> set:
    return {row.params for row in report.rows if row.values == (False,)}


def test_cli_exits_3_when_the_sym_k_first_chern_check_fails(monkeypatch):
    from projnorm import verify
    from projnorm.exactalg import divisor

    sym_k_c1 = verify.sym_k_c1

    def off_at_3(E, k):
        return sym_k_c1(E, k) + divisor(E.ring, 1) if k == 3 else sym_k_c1(E, k)

    monkeypatch.setattr(verify, "sym_k_c1", off_at_3)
    report, ok = verify.formula_suite(range(1, 3), 4, 7)
    assert not ok
    assert _failed_rows(report) == {("sym-k-first-chern", "r=1"), ("sym-k-first-chern", "r=2")}
    code, out, _ = run_cli("verify-formulas", "--ranks", "1..2", "--trials", "4")
    assert code == 3 and "false" in out


def test_formula_suite_catches_a_miscounted_structure_sheaf(monkeypatch):
    from projnorm import verify
    from projnorm.exactalg import binom

    monkeypatch.setattr(verify, "binom", lambda n, k: binom(n, k) + (n == 5))
    report, ok = verify.formula_suite(range(1, 2), 1, 7)
    assert not ok
    assert _failed_rows(report) == {("threefold-chi-structure-sheaf", "d=1..8")}


def test_formula_suite_rejects_an_empty_rank_range_before_any_check(monkeypatch):
    from projnorm import verify

    def no_check(*args):
        raise AssertionError("a check ran")

    for name in ("splitting_oracle", "root_points", "_count_paths_ok", "_chi_structure_sheaf_ok"):
        monkeypatch.setattr(verify, name, no_check)
    with pytest.raises(ValueError, match="empty rank range"):
        verify.formula_suite(ranks=())


def test_count_paths_catch_a_perturbed_closed_form():
    from projnorm import verify
    from projnorm.rr import HypersurfaceP3, HypersurfaceP4
    from projnorm.ulrich import chi_powers_p4_hypersurface, h0_powers_p3_hypersurface

    for model, powers, closed_form in (
        (HypersurfaceP3, verify._surface_powers, h0_powers_p3_hypersurface),
        (HypersurfaceP4, verify._threefold_powers, chi_powers_p4_hypersurface),
    ):
        assert verify._count_paths_ok(model, powers, closed_form, range(2, 5), range(1, 4))
        for i in range(len(closed_form(3, 2))):
            def perturbed(d, r):
                record = closed_form(d, r)
                return record._replace(**{record._fields[i]: record[i] + 1})

            assert not verify._count_paths_ok(model, powers, perturbed, range(2, 5), range(1, 4))


from hypothesis import example, given, settings
from hypothesis import strategies as st

#: Full unicode, lone surrogates included: quotes, backslashes, control
#: characters and non-ASCII all reach the JSON escaper.
_text = st.text(st.characters(exclude_categories=()), max_size=8)
_names = st.lists(_text, unique=True, max_size=3)
_cells = st.one_of(
    st.integers(min_value=-10**9, max_value=10**9),
    st.integers(min_value=-2**80, max_value=2**80),
    st.booleans(),
    st.none(),
    st.fractions(min_value=-100, max_value=100, max_denominator=97),
    _text.filter(lambda text: not _FRACTION_RE.fullmatch(text)),
)


@given(st.lists(st.tuples(st.integers(0, 50), _cells, _cells), min_size=0, max_size=8))
# a rational followed by a newline, and one with a non-ASCII digit, are strings
@example([(0, "3/4\n", "\u0663/4")])
def test_report_round_trip_property(rows):
    report = ScanReport.build(
        "prop",
        ("i",),
        ("x", "y"),
        ("p", "p"),
        [((i,), (x, y)) for i, x, y in rows],
    )
    assert ScanReport.from_json(report.to_json()) == report


@st.composite
def _reports(draw):
    params, columns = draw(_names), draw(_names)
    rows = draw(st.lists(st.tuples(
        st.tuples(*[_cells] * len(params)), st.tuples(*[_cells] * len(columns))
    ), max_size=4))
    provenance = draw(st.tuples(*[_text] * len(columns)))
    return ScanReport.build(draw(_text), params, columns, provenance, rows)


def _reference_cell(value):
    # the document json.dumps is given: a rational becomes "p/q", any other cell stays as it is
    return f"{value.numerator}/{value.denominator}" if isinstance(value, Fraction) else value


#: A report whose names and cells hold ``%``: the JSON row template must not read them as conversions.
_PERCENT_REPORT = ScanReport.build("%s", ("%", "%s"), ("a%%b",), ("%d",), [((1, "%s"), ("100%",))])


@settings(max_examples=300)
@given(_reports())
@example(_PERCENT_REPORT)
def test_report_json_is_the_stdlib_indent_2_layout(report):
    doc = {
        "title": report.title,
        "params": list(report.params),
        "columns": list(report.columns),
        "provenance": list(report.provenance),
        "rows": [
            {
                "params": {k: _reference_cell(v) for k, v in zip(report.params, row.params)},
                "values": {k: _reference_cell(v) for k, v in zip(report.columns, row.values)},
            }
            for row in report.rows
        ],
    }
    assert report.to_json() == json.dumps(doc, indent=2)
    assert ScanReport.from_json(report.to_json()) == report


def _reference_text(value):
    # the table and CSV text of a cell, written out case by case
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, Fraction):
        return str(value.numerator)
    return str(value)


def _reference_lines(report):
    return [list(report.params) + list(report.columns)] + [
        [_reference_text(v) for v in row.params + row.values] for row in report.rows
    ]


def _reference_table(report):
    # every column padded to its widest cell or name with ljust, two spaces
    # apart, trailing whitespace stripped from each line
    header, *body = _reference_lines(report)
    widths = [len(h) for h in header]
    for line in body:
        for i, cell in enumerate(line):
            widths[i] = max(widths[i], len(cell))

    def fmt(line):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)).rstrip()

    lines = [f"# {report.title}", fmt(header), "-" * (sum(widths) + 2 * (len(widths) - 1))]
    return "\n".join(lines + [fmt(line) for line in body]) + "\n"


def _reference_csv(report):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for line in _reference_lines(report):
        writer.writerow(line)
    return buf.getvalue()


@settings(max_examples=300)
@given(_reports())
# no parameters, no columns, no rows; then the same header with two empty rows
@example(ScanReport.build("", (), (), (), []))
@example(ScanReport.build("e", (), (), (), [((), ()), ((), ())]))
@example(_PERCENT_REPORT)
@example(sample_report())
# a cell with a newline would print as two lines and shift the columns after it
@example(ScanReport.build("t", ("a",), ("b", "c"), ("p", "p"), [((1,), ("x\ny", 2))]))
# breaks that the per-line strip would drop, or that the joining newline would absorb
@example(ScanReport.build("t\r", ("a",), ("b",), ("p",), [((1,), (2,))]))
@example(ScanReport.build("t", ("a",), ("b\u2028",), ("p",), [((1,), ("y\x0b",))]))
def test_report_table_and_csv_are_the_reference_layouts(report):
    # a table line is one line of text, so a title, name or cell with a line
    # break (anything str.splitlines splits on) has no table layout
    texts = [report.title] + [text for line in _reference_lines(report) for text in line]
    if any("".join(text.splitlines()) != text for text in texts):
        with pytest.raises(ValueError, match="line break"):
            report.to_table()
    else:
        assert report.to_table() == _reference_table(report)
    assert report.to_csv() == _reference_csv(report)


@pytest.mark.parametrize("params, columns", [(("i", "i"), ("x",)), (("i",), ("x", "x"))])
def test_report_rejects_repeated_names(params, columns):
    # a repeated key would make to_json drop every value but the last
    with pytest.raises(ValueError, match="repeated"):
        ScanReport.build("t", params, columns, ("p",) * len(columns), [])


def test_cli_format_flag_after_subcommand():
    before = run_cli("--format", "json", "check", "surface-hyp", "--d", "4", "--r", "2")
    after = run_cli("check", "surface-hyp", "--d", "4", "--r", "2", "--format", "json")
    assert before == after


def test_cli_parse_ranks_single_value():
    from projnorm.cli import _parse_ranks

    assert list(_parse_ranks("4")) == [4]
    assert list(_parse_ranks("2..5")) == [2, 3, 4, 5]


def test_cli_parse_ranks_names_the_accepted_forms():
    from projnorm.cli import _parse_ranks

    for spec in ("a", "1..x", "1..2..3", "..3", ""):
        with pytest.raises(ValueError) as info:
            _parse_ranks(spec)
        assert str(info.value) == f"ranks must be N or LO..HI, got {spec!r}"


def test_cli_verify_formulas_rejects_empty_rank_range():
    code, out, err = run_cli("verify-formulas", "--ranks", "3..1", "--trials", "2")
    assert code == 2 and out == ""
    assert err == "error: empty rank range '3..1'\n"


_small = st.integers(-2, 7).map(str)
_GRID_FLAGS = {"p3": ("--dmax", "--rmax"), "p4": ("--dmax", "--rmax"), "curve": ("--gmax", "--dmax")}
_formats = st.sampled_from([(), ("--format", "json"), ("--format", "csv")])
_rational = st.tuples(st.integers(-3, 9), st.sampled_from(["", "/2", "/3"])).map(lambda t: f"{t[0]}{t[1]}")
_SURFACE_FLAGS = ("--h2", "--hk", "--k2", "--chi")
#: One strategy per leaf of ``cli.COMMANDS``, keyed by its command path.
_BOUNDED_ARGV = {
    **{
        ("check", leaf): st.tuples(_small, _small).map(lambda t, leaf=leaf: ["check", leaf, "--d", t[0], "--r", t[1]])
        for leaf in ("surface-hyp", "threefold-hyp")
    },
    ("check", "curve"): st.tuples(
        _small, _small, _small,
        st.lists(st.sampled_from(["--p", "--cliff"]).flatmap(lambda f: _small.map(lambda v: [f, v])), max_size=2),
        st.sets(st.sampled_from(["--general", "--very-ample"])),
    ).map(lambda t: ["check", "curve", "--g", t[0], "--d", t[1], "--r", t[2], *sum(t[3], []), *sorted(t[4])]),
    # the lattice entries, c1 and c2 go as --flag=value, so that a negative
    # p/q reaches parse_rational instead of reading as an option
    ("check", "surface"): st.tuples(
        st.lists(_rational, min_size=4, max_size=4),
        _small,
        st.lists(_rational, min_size=1, max_size=2).map(",".join),
        _rational,
        st.one_of(st.none(), _small),
    ).map(lambda t: [
        "check", "surface", *[f"{flag}={v}" for flag, v in zip(_SURFACE_FLAGS, t[0])], "--r", t[1],
        f"--c1={t[2]}", f"--c2={t[3]}", *([] if t[4] is None else ["--h", t[4]]),
    ]),
    ("check", "preset"): st.tuples(st.sampled_from(sorted(cli.PRESETS) + ["no-such-variety"]), _small).map(
        lambda t: ["check", "preset", t[0], "--r", t[1]]
    ),
    **{
        ("scan", grid): st.tuples(_small, _small).map(
            lambda t, grid=grid: ["scan", grid, _GRID_FLAGS[grid][0], t[0], _GRID_FLAGS[grid][1], t[1]]
        )
        for grid in sorted(_GRID_FLAGS)
    },
    ("scan", "ci"): _small.map(lambda v: ["scan", "ci", "--rmax", v]),
    ("verify-formulas",): st.tuples(st.integers(-1, 3), st.integers(-1, 3), st.booleans(), st.integers(0, 3)).map(
        lambda t: ["verify-formulas", "--ranks", f"{t[0]}..{t[1]}" if t[2] else str(t[0]), "--trials", str(t[3]), "--seed", "1"]
    ),
    ("kko-audit",): st.just(["kko-audit"]),
}
_bounded_argv = st.one_of(*_BOUNDED_ARGV.values())


def _leaf_paths(commands, prefix=()):
    for name, node in commands.items():
        if isinstance(node, cli.Group):
            yield from _leaf_paths(node.commands, prefix + (name,))
        else:
            yield prefix + (name,)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_bounded_argv_draws_every_leaf_command(data):
    assert sorted(_BOUNDED_ARGV) == sorted(_leaf_paths(cli.COMMANDS))
    for path, strategy in _BOUNDED_ARGV.items():
        assert tuple(data.draw(strategy)[: len(path)]) == path


@settings(max_examples=120, deadline=None)
@given(_formats, _bounded_argv)
def test_cli_bounded_argv_exit_codes(fmt, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main([*fmt, *argv])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert "error:" in err.getvalue() and out.getvalue() == ""


def test_cli_divisor_spec_error():
    code, _, err = run_cli(
        "check", "surface", "--h2", "4", "--hk", "0", "--k2", "0", "--chi", "2",
        "--r", "2", "--c1", "1,2,3", "--c2", "14",
    )
    assert code == 2 and "divisor spec" in err


def _child_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH, so a
    child interpreter imports projnorm without an install."""
    import os
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_cli_import_loads_no_dataclass_machinery():
    """``import projnorm.cli`` loads none of the modules that ``dataclasses``
    brings in: every CLI process would pay for them at its start."""
    import subprocess
    import sys

    probe = "import sys\nbefore = set(sys.modules)\nimport projnorm.cli\nprint(*sorted(set(sys.modules) - before))"
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_child_env(), check=True, timeout=60
    )
    loaded = set(done.stdout.split())
    assert "projnorm.cli" in loaded
    assert sorted(loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}) == []


def test_cross_process_determinism_under_hash_randomization():
    import subprocess
    import sys

    def run(hashseed):
        env = dict(_child_env(), PYTHONHASHSEED=hashseed)
        return subprocess.run(
            [sys.executable, "-m", "projnorm", "--format", "json", "scan", "ci", "--rmax", "9"],
            capture_output=True,
            env=env,
            check=True,
        ).stdout

    assert run("0") == run("4242")


#: A verify-formulas run that reports a failed check, so the process exits 3.
_FAILING_SUITE = (
    "import projnorm.cli as cli\n"
    "suite = cli.formula_suite\n"
    "cli.formula_suite = lambda *args: (suite(*args)[0], False)\n"
    "cli.entry()\n"
)


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize(
    "command, code",
    [
        (["-m", "projnorm", "scan", "curve", "--gmax", "60", "--dmax", "200"], 0),
        (["-m", "projnorm", "check", "surface-hyp", "--d", "4", "--r", "2"], 0),
        (["-m", "projnorm", "--help"], 0),
        (["-c", _FAILING_SUITE, "verify-formulas", "--ranks", "1..1", "--trials", "1"], 3),
    ],
)
def test_closed_stdout_pipe_keeps_exit_code_and_quiet_stderr(command, code, unbuffered):
    import os
    import subprocess
    import sys

    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child starts
    try:
        done = subprocess.run(
            [sys.executable, *command], stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (code, b"")
