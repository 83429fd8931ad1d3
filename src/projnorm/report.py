"""Tabular reports with deterministic JSON, CSV and plain-table rendering.

Cells hold exact values only: integers, booleans, exact rationals,
strings and None.  Rationals serialize as "p/q" strings (never floats),
always with the slash so that parsing is unambiguous, and
``ScanReport.from_json(report.to_json()) == report`` holds for every
report this package emits.  Identical inputs produce byte-identical
output in every format.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Tuple

_FRACTION_RE = re.compile(r"^-?\d+/\d+$")

Cell = object  # int | bool | str | Fraction | None


@dataclass(frozen=True)
class Row:
    params: tuple
    values: tuple


@dataclass(frozen=True)
class ScanReport:
    """A titled table: parameter columns, value columns, one provenance tag per value column."""

    title: str
    params: Tuple[str, ...]
    columns: Tuple[str, ...]
    provenance: Tuple[str, ...]
    rows: Tuple[Row, ...]

    def __post_init__(self) -> None:
        if len(self.provenance) != len(self.columns):
            raise ValueError("need exactly one provenance tag per value column")
        for row in self.rows:
            if len(row.params) != len(self.params) or len(row.values) != len(self.columns):
                raise ValueError("row shape does not match the header")
        for kind, names in (("parameter", self.params), ("column", self.columns)):
            if len(set(names)) != len(names):
                raise ValueError(f"repeated {kind} name in {names!r}")

    @staticmethod
    def build(title, params, columns, provenance, rows) -> "ScanReport":
        built = tuple(Row(tuple(p), tuple(v)) for p, v in rows)
        return ScanReport(title, tuple(params), tuple(columns), tuple(provenance), built)

    # -- JSON -----------------------------------------------------------

    def to_json(self) -> str:
        """The exact text of ``json.dumps(doc, indent=2)`` for the report's document.

        The document has the keys title, params, columns, provenance and
        rows; each row is ``{"params": {name: cell}, "values": {name:
        cell}}`` with cells encoded by ``_encode``.  The text is built
        here rather than by ``json.dumps``, whose indented mode runs the
        pure-Python encoder; names are unique, so no key repeats.
        """
        param_keys = [f"        {encode_basestring_ascii(k)}: " for k in self.params]
        value_keys = [f"        {encode_basestring_ascii(k)}: " for k in self.columns]
        rows = [
            '    {\n      "params": ' + _json_object(param_keys, row.params)
            + ',\n      "values": ' + _json_object(value_keys, row.values) + "\n    }"
            for row in self.rows
        ]
        return (
            '{\n  "title": ' + encode_basestring_ascii(self.title)
            + ',\n  "params": ' + _json_names(self.params)
            + ',\n  "columns": ' + _json_names(self.columns)
            + ',\n  "provenance": ' + _json_names(self.provenance)
            + ',\n  "rows": ' + _json_block(rows, "  ", "[]") + "\n}"
        )

    @staticmethod
    def from_json(text: str) -> "ScanReport":
        doc = json.loads(text)
        params = tuple(doc["params"])
        columns = tuple(doc["columns"])
        rows = tuple(
            Row(
                tuple(_decode(row["params"][k]) for k in params),
                tuple(_decode(row["values"][k]) for k in columns),
            )
            for row in doc["rows"]
        )
        return ScanReport(doc["title"], params, columns, tuple(doc["provenance"]), rows)

    # -- CSV and plain table ---------------------------------------------

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(list(self.params) + list(self.columns))
        for row in self.rows:
            writer.writerow([_cell_text(v) for v in row.params + row.values])
        return buf.getvalue()

    def to_table(self) -> str:
        header = list(self.params) + list(self.columns)
        body = [[_cell_text(v) for v in row.params + row.values] for row in self.rows]
        widths = [len(h) for h in header]
        for line in body:
            for i, cell in enumerate(line):
                widths[i] = max(widths[i], len(cell))
        def fmt(line):
            return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)).rstrip()
        rule = "-" * (sum(widths) + 2 * (len(widths) - 1))
        lines = [f"# {self.title}", fmt(header), rule]
        lines.extend(fmt(line) for line in body)
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json() + "\n"
        if fmt == "csv":
            return self.to_csv()
        if fmt == "table":
            return self.to_table()
        raise ValueError(f"unknown format {fmt!r}")


def _encode(value: Cell):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, str):
        if _FRACTION_RE.match(value):
            raise ValueError("string cells must not look like rationals")
        return value
    raise TypeError(f"unsupported cell type {type(value).__name__}")


def _json_cell(value: Cell) -> str:
    """The JSON text of ``_encode(value)``, as ``json.dumps`` writes it."""
    encoded = _encode(value)
    if isinstance(encoded, str):
        return encode_basestring_ascii(encoded)
    if encoded is None:
        return "null"
    if encoded is True:
        return "true"
    if encoded is False:
        return "false"
    return int.__repr__(encoded)


def _json_block(items: list, indent: str, brackets: str) -> str:
    """Lay out ``items``, each already indented one level below ``indent``,
    as ``json.dumps(indent=2)`` lays out a container whose closing bracket
    sits at ``indent``; an empty container is just ``brackets``."""
    if not items:
        return brackets
    return brackets[0] + "\n" + ",\n".join(items) + "\n" + indent + brackets[1]


def _json_names(names: tuple) -> str:
    return _json_block([f"    {encode_basestring_ascii(name)}" for name in names], "  ", "[]")


def _json_object(keys: list, cells: tuple) -> str:
    return _json_block([key + _json_cell(cell) for key, cell in zip(keys, cells)], "      ", "{}")


def _decode(value):
    if isinstance(value, str) and _FRACTION_RE.match(value):
        return Fraction(value)
    return value


def _cell_text(value: Cell) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)
    # the types to_json cannot encode (a float above all) print in no format
    raise TypeError(f"unsupported cell type {type(value).__name__}")
