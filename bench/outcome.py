"""Judging operation outcomes: expected exit codes, reference digests,
replay identity, row counts and spot checks computed with integers.

Every check here is independent of projnorm: it reads only the argv and
the bytes the CLI printed.
"""

from __future__ import annotations

import csv
import io
import json
import re

import workloads


def parse_report(text: str, fmt: str) -> list:
    """Rows of a rendered report as dicts of column name -> cell text.

    Cells read as the table renderer prints them: None is empty, booleans
    are true/false, rationals are p/q or an integer.
    """
    if fmt == "json":
        doc = json.loads(text)
        return [
            {k: _cell_text(v) for k, v in {**row["params"], **row["values"]}.items()}
            for row in doc["rows"]
        ]
    if fmt == "csv":
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        return [dict(zip(header, line)) for line in reader]
    lines = text.splitlines()
    header = lines[1]
    starts = [m.start() for m in re.finditer(r"\S+", header)]
    names = header.split()
    bounds = list(zip(starts, starts[1:] + [None]))
    return [{name: line[a:b].strip() for name, (a, b) in zip(names, bounds)} for line in lines[3:]]


def _cell_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str) and value.endswith("/1"):
        return value[:-2]
    return str(value)


def spot_check(argv: list, text: str) -> list:
    """Problems found in the output of ``argv`` by independent integer checks."""
    if not text:
        return [] if workloads.expected_exit(argv) == 2 else ["no output"]
    rest, fmt = workloads.split_format(argv)
    opts = workloads.options(rest)
    rows = parse_report(text, fmt)
    problems = []
    want_rows = workloads.expected_rows(argv)
    if want_rows is not None and len(rows) != want_rows:
        problems.append(f"{len(rows)} rows, expected {want_rows}")
    if rest[:2] in (["scan", "p3"], ["scan", "p4"]):
        for row in rows:
            d, r = int(row["d"]), int(row["r"])
            odd = (r * (d - 1)) % 2 == 1
            if row["parity"] != ("odd" if odd else "ok"):
                problems.append(f"d={d} r={r}: parity {row['parity']}")
            elif not odd and row["dim_sym2_h0"] != str(workloads.sym2_dim(r, d)):
                problems.append(f"d={d} r={r}: dim_sym2_h0 {row['dim_sym2_h0']}")
            elif rest[1] == "p4" and not odd and row["dim_tensor2_h0"] != str((r * d) ** 2):
                problems.append(f"d={d} r={r}: dim_tensor2_h0 {row['dim_tensor2_h0']}")
    elif rest[:2] == ["scan", "curve"]:
        for row in rows:
            g, d = int(row["g"]), int(row["d"])
            if row["pn"] != ("true" if d > g + 1 else "false"):
                problems.append(f"g={g} d={d}: pn {row['pn']}")
    elif rest[:2] == ["scan", "ci"]:
        if [row["d"] for row in rows] != [str(d) for d in range(6, 35, 2)]:
            problems.append("ci degrees are not 6, 8, ..., 34")
    elif rest[0] == "verify-formulas":
        if any(row["ok"] != "true" for row in rows):
            problems.append("a verification row is not ok")
    elif rest[0] == "check":
        values = {row["name"]: row for row in rows}
        if rest[1] == "curve":
            g, d = int(opts["g"]), int(opts["d"])
            status = values["pn-degree"]["status"]
            if status != ("positive" if d > g + 1 else "inconclusive"):
                problems.append(f"pn-degree {status} at g={g} d={d}")
        elif rest[1] in ("surface-hyp", "threefold-hyp", "preset"):
            r = int(opts.get("r", 2))
            d = int(opts["d"]) if "d" in opts else workloads.PRESETS[rest[2]][1]
            if values["h0"]["value"] != str(r * d):
                problems.append(f"h0 {values['h0']['value']} at d={d} r={r}")
            if values["dim_sym2_h0"]["value"] != str(workloads.sym2_dim(r, d)):
                problems.append(f"dim_sym2_h0 {values['dim_sym2_h0']['value']} at d={d} r={r}")
    return problems


def row_count(fmt: str, newlines: int, json_rows: int) -> int:
    """Rows of a report from counts taken while it was written."""
    if fmt == "json":
        return json_rows
    if newlines == 0:
        return 0
    return newlines - (1 if fmt == "csv" else 3)


def op_failures(ops: list, results: list, reference=None, first=None) -> list:
    """One entry per operation: the reasons it failed (empty when it did not).

    ``results`` holds dicts with ``code``, ``digest``, ``rows`` and
    ``stderr``.  An operation fails when its exit code differs from the
    one the input rules give, when stderr shows a traceback or an exit 2
    without an ``error:`` line, when its report has the wrong number of
    rows, when its stdout digest differs from ``reference`` (digests taken
    at the benchmark's reference commit) or from ``first`` (the same argv
    in an earlier interpreter).
    """
    out = []
    for i, (argv, res) in enumerate(zip(ops, results)):
        why = []
        want = workloads.expected_exit(argv)
        if res["code"] != want:
            why.append(f"exit {res['code']}, expected {want}")
        if "Traceback" in res["stderr"] or (res["code"] == 2 and not res["stderr"].startswith("error: ")):
            why.append("stderr: " + res["stderr"][:120])
        want_rows = workloads.expected_rows(argv)
        if res["code"] == 0 and want_rows is not None and res["rows"] != want_rows:
            why.append(f"{res['rows']} rows, expected {want_rows}")
        if reference is not None and res["digest"] != reference[i]:
            why.append("stdout differs from the reference digest")
        if first is not None and res["digest"] != first[i]:
            why.append("stdout differs from an earlier replay")
        out.append(why)
    return out
