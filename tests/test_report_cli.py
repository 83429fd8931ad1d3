"""Report serialization round-trips, CLI behavior, exit codes, determinism."""

import io
import json
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from projnorm.cli import main
from projnorm.report import _FRACTION_RE, Row, ScanReport, _encode


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


@pytest.mark.parametrize("fmt", ("table", "json", "csv"))
def test_report_rejects_a_float_cell_in_every_format(fmt):
    report = ScanReport.build("t", ("a",), ("b",), ("p",), [((1,), (0.5,))])
    with pytest.raises(TypeError):
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


def test_cli_seed_env_default(monkeypatch):
    monkeypatch.setenv("PROJNORM_SEED", "13")
    a = run_cli("verify-formulas", "--ranks", "1..2", "--trials", "3")
    b = run_cli("verify-formulas", "--ranks", "1..2", "--trials", "3", "--seed", "13")
    assert a == b


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
    from projnorm import cli, normality
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


def test_formula_suite_rejects_an_empty_rank_range_before_any_check(monkeypatch):
    from projnorm import verify

    def no_check(*args):
        raise AssertionError("a check ran")

    for name in ("splitting_oracle", "_sampled_ok", "_surface_counts_ok", "_threefold_counts_ok", "_chi_structure_sheaf_ok"):
        monkeypatch.setattr(verify, name, no_check)
    with pytest.raises(ValueError, match="empty rank range"):
        verify.formula_suite(ranks=())


from fractions import Fraction as _F

from hypothesis import given, settings
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
    _text.filter(lambda text: not _FRACTION_RE.match(text)),
)


@given(st.lists(st.tuples(st.integers(0, 50), _cells, _cells), min_size=0, max_size=8))
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


@settings(max_examples=300)
@given(_reports())
def test_report_json_is_the_stdlib_indent_2_layout(report):
    doc = {
        "title": report.title,
        "params": list(report.params),
        "columns": list(report.columns),
        "provenance": list(report.provenance),
        "rows": [
            {
                "params": {k: _encode(v) for k, v in zip(report.params, row.params)},
                "values": {k: _encode(v) for k, v in zip(report.columns, row.values)},
            }
            for row in report.rows
        ],
    }
    assert report.to_json() == json.dumps(doc, indent=2)
    assert ScanReport.from_json(report.to_json()) == report


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


def test_cli_verify_formulas_rejects_empty_rank_range():
    code, out, err = run_cli("verify-formulas", "--ranks", "3..1", "--trials", "2")
    assert code == 2 and out == ""
    assert err == "error: empty rank range '3..1'\n"


_small = st.integers(-2, 7).map(str)
_GRID_FLAGS = {"p3": ("--dmax", "--rmax"), "p4": ("--dmax", "--rmax"), "curve": ("--gmax", "--dmax")}
_formats = st.sampled_from([(), ("--format", "json"), ("--format", "csv")])
_bounded_argv = st.one_of(
    st.tuples(st.sampled_from(["surface-hyp", "threefold-hyp"]), _small, _small).map(
        lambda t: ["check", t[0], "--d", t[1], "--r", t[2]]
    ),
    st.tuples(
        _small, _small, _small,
        st.lists(st.sampled_from(["--p", "--cliff"]).flatmap(lambda f: _small.map(lambda v: [f, v])), max_size=2),
        st.sets(st.sampled_from(["--general", "--very-ample"])),
    ).map(lambda t: ["check", "curve", "--g", t[0], "--d", t[1], "--r", t[2], *sum(t[3], []), *sorted(t[4])]),
    st.tuples(st.sampled_from(sorted(_GRID_FLAGS)), _small, _small).map(
        lambda t: ["scan", t[0], _GRID_FLAGS[t[0]][0], t[1], _GRID_FLAGS[t[0]][1], t[2]]
    ),
    _small.map(lambda v: ["scan", "ci", "--rmax", v]),
    st.tuples(st.integers(-1, 3), st.integers(-1, 3), st.booleans(), st.integers(0, 3)).map(
        lambda t: ["verify-formulas", "--ranks", f"{t[0]}..{t[1]}" if t[2] else str(t[0]), "--trials", str(t[3]), "--seed", "1"]
    ),
)


@settings(max_examples=60, deadline=None)
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


def test_cross_process_determinism_under_hash_randomization():
    import os
    import subprocess
    import sys

    def run(hashseed):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
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
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
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
