"""Tabular reports with deterministic JSON, CSV and plain-table rendering.

Cells hold exact values only, of exactly the types ``int``, ``bool``,
``str``, ``Fraction`` and ``NoneType``: each format looks a cell's
renderer up by ``type(cell)``, so a subclass of one of them (an ``IntEnum``,
a ``str`` subclass) is refused with ``TypeError`` like a float.
Rationals serialize as "p/q" strings (never floats), always with the
slash so that parsing is unambiguous, and
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

#: A string cell this matches in full would read back as a rational.
_FRACTION_RE = re.compile(r"-?[0-9]+/[0-9]+")

Cell = object  # int | bool | str | Fraction | None

#: Builds a record from its field tuple without the keyword-default wrapper.
_new = tuple.__new__


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
        return _new(cls, fields)

    @staticmethod
    def build(title, params, columns, provenance, rows) -> "ScanReport":
        built = tuple([_new(Row, (tuple(p), tuple(v))) for p, v in rows])
        return ScanReport(title, tuple(params), tuple(columns), tuple(provenance), built)

    # -- JSON -----------------------------------------------------------

    def to_json(self) -> str:
        """The exact text of ``json.dumps(doc, indent=2)`` for the report's document.

        The document has the keys title, params, columns, provenance and
        rows; each row is ``{"params": {name: cell}, "values": {name:
        cell}}`` with cells written by ``_json_cell``.  The text is built
        here rather than by ``json.dumps``, whose indented mode runs the
        pure-Python encoder: the row layout is escaped once into a ``%``
        template, filled once per row.  Names are unique, so no key repeats.
        """
        row = (
            '    {\n      "params": ' + _json_template(self.params)
            + ',\n      "values": ' + _json_template(self.columns) + "\n    }"
        )
        rows = [row % tuple(map(_json_cell, params + values)) for params, values in self.rows]
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

    def _text_rows(self) -> list:
        return [list(map(_cell_text, params + values)) for params, values in self.rows]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.params + self.columns)
        writer.writerows(self._text_rows())
        return buf.getvalue()

    def to_table(self) -> str:
        """Left-justified columns two spaces apart, each as wide as its
        widest cell or name, with trailing whitespace stripped per line.

        A line break (any character ``str.splitlines`` splits on) in the
        title, a name or a cell raises ``ValueError``.  It is found once,
        on the lines before the strip, which would drop one at a line end.
        """
        header = self.params + self.columns
        body = self._text_rows()
        widths = [len(name) for name in header]
        if body:
            widths = [max(w, *map(len, column)) for w, column in zip(widths, zip(*body))]
        line = "  ".join([f"{{:<{w}}}" for w in widths]).format
        title = f"# {self.title}"
        lines = [title, line(*header), "-" * (sum(widths) + 2 * (len(widths) - 1))]
        lines += [line(*cells) for cells in body]
        # len(rows) + 3 lines, each as built; the list comparison also
        # catches a "\r" that the joining "\n" would make one "\r\n" break
        if ("\n".join(lines) + "\n").splitlines() != lines:
            raise ValueError("a table title, name or cell holds a line break")
        return "\n".join([title] + [text.rstrip() for text in lines[1:]]) + "\n"

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


def _json_str(value: str) -> str:
    if _FRACTION_RE.fullmatch(value):
        raise ValueError("string cells must not look like rationals")
    return encode_basestring_ascii(value)


#: The table and CSV text of a cell by its exact type; ``str(Fraction)`` is "n" or "n/d".
_CELL_TEXT = {
    int: str,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "",
    str: str,
    Fraction: str,
}

#: The JSON text of a cell by its exact type, a rational always as "p/q".
_JSON_CELL = {
    **_CELL_TEXT,
    type(None): lambda value: "null",
    str: _json_str,
    Fraction: lambda value: f'"{value.numerator}/{value.denominator}"',
}


def _json_cell(value: Cell) -> str:
    """The JSON text of a cell; a type ``_JSON_CELL`` lacks goes to ``_cell_text``, which refuses it."""
    return _JSON_CELL.get(type(value), _cell_text)(value)


def _cell_text(value: Cell) -> str:
    render = _CELL_TEXT.get(type(value))
    if render is None:
        # the one cell-type guard: a float above all prints in no format
        raise TypeError(f"unsupported cell type {type(value).__name__}")
    return render(value)


def _json_block(items: list, indent: str, brackets: str) -> str:
    """Lay out ``items``, each already indented one level below ``indent``,
    as ``json.dumps(indent=2)`` lays out a container whose closing bracket
    sits at ``indent``; an empty container is just ``brackets``."""
    if not items:
        return brackets
    return brackets[0] + "\n" + ",\n".join(items) + "\n" + indent + brackets[1]


def _json_names(names: tuple) -> str:
    return _json_block([f"    {encode_basestring_ascii(name)}" for name in names], "  ", "[]")


def _json_template(keys: tuple) -> str:
    """A row's ``{key: cell}`` object as a ``%`` template with one ``%s`` per
    cell; the escaped keys are ``%%``-escaped in turn."""
    items = [f"        {encode_basestring_ascii(key).replace('%', '%%')}: %s" for key in keys]
    return _json_block(items, "      ", "{}")


def _decode(value):
    if isinstance(value, str) and _FRACTION_RE.fullmatch(value):
        return Fraction(value)
    return value
