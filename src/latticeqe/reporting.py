"""Deterministic report serialization.

CSV files carry a header row, UTF-8 text, LF line endings, and floats in
shortest round-trip decimal form; JSON files use sorted keys and two-space
indentation. Identical configs and seeds must reproduce byte-identical
files, so volatile data (wall time) stays out of the serialized payload.

A report holds its cells as one list per column, in column order. Both
writers format each column once and join the lines, byte for byte what
``csv.writer`` and ``json.dumps`` write for the rows. Every cell must be a
scalar: ``None``, ``bool``, ``int``, ``float``, ``str``, or a numpy bool,
integer or floating scalar. A column whose cells share one plain type is
converted to text by a single ``map`` of that type's formatter; other
columns are first converted cell by cell to plain scalars, then formatted
with the same formatters.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from pathlib import Path

import numpy as np

__all__ = ["ExperimentReport", "config_hash", "write_csv", "write_json", "emit_report"]


def _plain(value):
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def config_hash(config: dict) -> str:
    canonical = json.dumps(_plain(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class _Rows(Sequence):
    """Read-only view of a report's rows, each a dict in column order."""

    __slots__ = ("_report",)

    def __init__(self, report: ExperimentReport):
        self._report = report

    def __len__(self) -> int:
        cells = self._report.cells
        return len(cells[0]) if cells else 0

    def __getitem__(self, i) -> dict:
        i = range(len(self))[i]
        return {name: column[i] for name, column in zip(self._report.columns, self._report.cells)}

    def __iter__(self):
        columns = self._report.columns
        return (dict(zip(columns, row)) for row in zip(*self._report.cells))


@dataclass(eq=False)
class ExperimentReport:
    experiment: str
    columns: list[str]
    cells: list[list]  # one list per column, in column order
    metadata: dict = field(default_factory=dict)
    wall_time_s: float | None = None  # informational only, never serialized

    @property
    def rows(self) -> _Rows:
        return _Rows(self)

    @property
    def passed(self) -> bool:
        return "pass" not in self.columns or all(self.cells[self.columns.index("pass")])


# (accepted types, plain type), in order: bool before int, its superclass.
_SCALARS = (((bool, np.bool_), bool), ((int, np.integer), int), ((float, np.floating), float), (str, str))
_BOOL = {True: "true", False: "false"}
# json writes the non-finite floats by these names (allow_nan=True).
_JSON_FLOAT = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _scalar(value):
    """A cell as a scalar of exact plain type; TypeError for anything else."""
    if value is None:
        return None
    for accepted, plain in _SCALARS:
        if isinstance(value, accepted):
            return plain(value)
    raise TypeError(f"report cell {value!r} of type {type(value).__name__} is not a scalar")


def _json_float(value: float) -> str:
    text = float.__repr__(value)
    return _JSON_FLOAT.get(text, text)


# Cell text by exact plain type, as the csv module and json.dumps write them.
_CSV_TEXT = {float: float.__repr__, int: int.__repr__, bool: _BOOL.__getitem__, str: str,
             type(None): lambda value: ""}
_JSON_TEXT = {float: _json_float, int: int.__repr__, bool: _BOOL.__getitem__, str: encode_basestring,
              type(None): lambda value: "null"}


def _column_texts(column: list, formats: dict) -> list[str]:
    """One column's cells as text: one ``map`` when they share a plain type."""
    kinds = set(map(type, column))
    if len(kinds) == 1 and (kind := kinds.pop()) in formats:
        return list(map(formats[kind], column))
    return [formats[type(value)](value) for value in map(_scalar, column)]


def _probe_csv(char: str) -> bool:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([char])
    return buf.getvalue() != char + "\n"


# The characters that make csv.writer quote a field: the delimiter, the quote
# character and the line terminator, and on some Python versions also "\r".
_CSV_SPECIAL = tuple(filter(_probe_csv, ',"\r\n'))


def _csv_fields(texts: list[str]) -> list[str]:
    """Cell texts as csv.writer quotes them; one search when none needs quotes."""
    joined = "".join(texts)
    if not any(map(joined.__contains__, _CSV_SPECIAL)):
        return texts
    return ['"' + text.replace('"', '""') + '"' if any(map(text.__contains__, _CSV_SPECIAL)) else text
            for text in texts]


def _cell_texts(report: ExperimentReport, order: list[int], formats: dict) -> list[list[str]]:
    """The text of each column in ``order``, after checking the report's shape."""
    columns = list(report.columns)
    if len(set(columns)) != len(columns):
        raise ValueError(f"duplicate report columns in {columns}")
    if len(report.cells) != len(columns):
        raise ValueError(f"{len(report.cells)} cell lists for the report's columns {columns}")
    lengths = sorted(set(map(len, report.cells)))
    if len(lengths) > 1:
        raise ValueError(f"report columns of unequal lengths {lengths}")
    return [_column_texts(report.cells[i], formats) for i in order]


def write_csv(report: ExperimentReport, path) -> Path:
    path = Path(path)
    texts = _cell_texts(report, range(len(report.columns)), _CSV_TEXT)
    columns = [_csv_fields([name, *column]) for name, column in zip(report.columns, texts)]
    if len(columns) == 1:  # csv.writer quotes a record made of one empty field
        columns = [['""' if text == "" else text for text in columns[0]]]
    lines = list(map(",".join, zip(*columns))) or [""]  # no columns: an empty header line
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def write_json(report: ExperimentReport, path) -> Path:
    """JSON with sorted keys and ``indent=2``, as ``json.dumps`` would write it.

    The header is ``json.dumps`` output; the rows, whose key is the last in
    sorted order, are spliced in. Each row is the join of every key's
    separator with that column's cell text, built for all rows in one pass.
    """
    path = Path(path)
    names = sorted(report.columns)
    texts = _cell_texts(report, [report.columns.index(name) for name in names], _JSON_TEXT)
    head = {
        "experiment": report.experiment,
        "metadata": _plain(report.metadata),
        "columns": list(report.columns),
        "passed": report.passed,
    }
    text = json.dumps(head, sort_keys=True, indent=2, ensure_ascii=False)
    n = len(texts[0]) if texts else 0
    parts = []
    for i, (name, column) in enumerate(zip(names, texts)):
        sep = ",\n" if i else "    {\n"
        parts += [itertools.repeat(f"{sep}      {encode_basestring(name)}: ", n), column]
    parts.append(itertools.repeat("\n    }", n))
    body = ",\n".join(map("".join, zip(*parts)))
    body = "[\n" + body + "\n  ]" if body else "[]"
    text = text[: -len("\n}")] + ',\n  "rows": ' + body + "\n}\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def emit_report(report: ExperimentReport, out_dir) -> list[Path]:
    """Write ``<experiment>.csv`` and ``<experiment>.json`` into ``out_dir``; returns both paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return [write_csv(report, out_dir / f"{report.experiment}.csv"),
            write_json(report, out_dir / f"{report.experiment}.json")]
