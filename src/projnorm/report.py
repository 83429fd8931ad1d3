"""Tabular reports with deterministic JSON, CSV and plain-table rendering.

Cells hold exact values only: integers, booleans, exact rationals,
strings and None.  Rationals serialize as "p/q" strings (never floats),
always with the slash so that parsing is unambiguous, and
``ScanReport.from_json(report.to_json()) == report`` holds for every
report this package emits.  Identical inputs produce byte-identical
output in every format.  ``grid_scan`` is the one row builder of every
scan: one row per point of a grid of parameter ranges.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import NamedTuple, Tuple

_FRACTION_RE = re.compile(r"^-?\d+/\d+$")

Cell = object  # int | bool | str | Fraction | None


class Row(NamedTuple):
    params: tuple
    values: tuple


class _ReportFields(NamedTuple):
    title: str
    params: Tuple[str, ...]
    columns: Tuple[str, ...]
    provenance: Tuple[str, ...]
    rows: Tuple[Row, ...]


class ScanReport(_ReportFields):
    """A titled table: parameter columns, value columns, one provenance tag per value column.

    ``ScanReport(...)``, ``_make`` and ``_replace`` check that there is one
    provenance tag per value column, that every row has the header's
    shape and that no parameter or column name repeats.
    """

    __slots__ = ()

    def __new__(cls, title: str, params: tuple, columns: tuple, provenance: tuple, rows: tuple) -> "ScanReport":
        return cls._make((title, params, columns, provenance, rows))

    @classmethod
    def _make(cls, fields) -> "ScanReport":
        fields = tuple(fields)
        _, params, columns, provenance, rows = fields
        if len(provenance) != len(columns):
            raise ValueError("need exactly one provenance tag per value column")
        for row in rows:
            if len(row.params) != len(params) or len(row.values) != len(columns):
                raise ValueError("row shape does not match the header")
        for kind, names in (("parameter", params), ("column", columns)):
            if len(set(names)) != len(names):
                raise ValueError(f"repeated {kind} name in {names!r}")
        return tuple.__new__(cls, fields)

    @staticmethod
    def build(title, params, columns, provenance, rows) -> "ScanReport":
        built = tuple(Row(tuple(p), tuple(v)) for p, v in rows)
        return ScanReport(title, tuple(params), tuple(columns), tuple(provenance), built)

    # -- JSON -----------------------------------------------------------

    def to_json(self) -> str:
        """The exact text of ``json.dumps(doc, indent=2)`` for the report's document.

        The document has the keys title, params, columns, provenance and
        rows; each row is ``{"params": {name: cell}, "values": {name:
        cell}}`` with cells written by ``_json_cell``.  The text is built
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


def grid_scan(title, params, columns, provenance, ranges, cells) -> ScanReport:
    """One row per grid point, ``cells(*point)`` for each point of the
    product of ``ranges`` (one range per parameter), so the rows come out
    in increasing parameter order."""
    if not all(ranges):
        spans = ", ".join(f"{name} in {values.start}..{values.stop - 1}" for name, values in zip(params, ranges))
        raise ValueError(f"empty grid: {spans}")
    rows = [(point, cells(*point)) for point in itertools.product(*ranges)]
    return ScanReport.build(title, params, columns, provenance, rows)


def _json_cell(value: Cell) -> str:
    """The JSON text of a cell, a rational always as "p/q"; ``_cell_text`` refuses other types."""
    if value is None or isinstance(value, int):
        return _cell_text(value) or "null"
    if isinstance(value, str):
        if _FRACTION_RE.match(value):
            raise ValueError("string cells must not look like rationals")
        return encode_basestring_ascii(value)
    # tested after int and str: isinstance(x, Fraction) goes through ABCMeta
    if isinstance(value, Fraction):
        return f'"{value.numerator}/{value.denominator}"'
    return _cell_text(value)


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
    # the one cell-type guard: a float above all prints in no format
    raise TypeError(f"unsupported cell type {type(value).__name__}")
