"""Deterministic report serialization.

CSV files carry a header row, UTF-8 text, LF line endings, and floats in
shortest round-trip decimal form; JSON files use sorted keys and two-space
indentation. Identical configs and seeds must reproduce byte-identical
files, so volatile data (wall time) stays out of the serialized payload.

A report holds its cells as one list per column, in column order. The
writers stream it in one pass over chunks of ``_CHUNK`` rows, so their
memory does not grow with the row count, and write byte for byte what
``csv.writer`` and ``json.dumps`` write for the rows. Each chunk of a column
is formatted once and both files share the text: numbers and bools read
the same in both, and only non-finite floats, ``None`` and strings have
JSON forms of their own. Ints and strings are formatted once per distinct
value in the chunk. Every cell must be a scalar: ``None``, ``bool``,
``int``, ``float``, ``str``, or a numpy bool, integer or floating scalar. A
chunk whose cells share one plain type is formatted by a single ``map``;
any other chunk is converted cell by cell to plain scalars first. Each
file is written to a sibling ``.part`` file and renamed into place once
both are complete, so a bad cell or a failed write leaves no report behind.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
from collections.abc import Sequence
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from pathlib import Path

import numpy as np

__all__ = ["ExperimentReport", "config_hash", "emit_report"]


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
_PLAIN = frozenset((bool, int, float, str, type(None)))
_BOOL = {True: "true", False: "false"}
# json writes the non-finite floats by these names (allow_nan=True).
_JSON_FLOAT = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_CHUNK = 2048  # rows formatted and written at a time


def _scalar(value):
    """A cell as a scalar of exact plain type; TypeError for anything else."""
    if value is None:
        return None
    for accepted, plain in _SCALARS:
        if isinstance(value, accepted):
            return plain(value)
    raise TypeError(f"report cell {value!r} of type {type(value).__name__} is not a scalar")


def _plain(value):
    """Scalars as ``_scalar`` gives them, lists and tuples as lists and dicts as dicts of plain values.

    Other values pass through. A value of exact plain scalar type is returned
    as it is, before any ``isinstance`` test: ``_scalar`` would return it unchanged.
    """
    if type(value) in _PLAIN:
        return value
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if any(isinstance(value, accepted) for accepted, _ in _SCALARS):
        return _scalar(value)
    return value


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


def _each_distinct(format, cells: list) -> list[str]:
    """``format`` of each cell, called once per distinct cell; not for floats (``-0.0 == 0.0``, ``nan != nan``)."""
    unique = set(cells)
    return list(map(dict(zip(unique, map(format, unique))).__getitem__, cells))


def _texts(cells: list) -> tuple[list[str], list[str]]:
    """A chunk of one column as (CSV, JSON) texts: one ``map`` when the cells share a plain type."""
    kinds = set(map(type, cells))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is float:
        texts = list(map(float.__repr__, cells))
        return texts, list(map(_JSON_FLOAT.get, texts, texts)) if "n" in "".join(texts) else texts
    if kind is int or kind is bool:
        texts = _each_distinct(int.__repr__ if kind is int else _BOOL.__getitem__, cells)
        return texts, texts
    if kind is str:
        return _csv_fields(cells), _each_distinct(encode_basestring, cells)
    if kind is type(None):
        return [""] * len(cells), ["null"] * len(cells)
    pairs = [_texts([value]) for value in map(_scalar, cells)]
    return [text for (text,), _ in pairs], [text for _, (text,) in pairs]


def _csv_lines(columns: list[list[str]]) -> str:
    """CSV fields, one list per column, as LF-terminated lines."""
    if len(columns) == 1:  # csv.writer quotes a record made of one empty field
        columns = [['""' if text == "" else text for text in columns[0]]]
    return "\n".join(map(",".join, zip(*columns))) + "\n"


def _pieces(report: ExperimentReport):
    """The report as (CSV, JSON) text pairs: the heads, one pair per chunk of rows, then the tails.

    The report's shape is checked before the first pair. The JSON head is
    ``json.dumps`` output; the rows, whose key is the last in sorted order,
    are spliced in, each the join of every key's separator with that
    column's cell text.
    """
    columns = list(report.columns)
    if len(set(columns)) != len(columns):
        raise ValueError(f"duplicate report columns in {columns}")
    if len(report.cells) != len(columns):
        raise ValueError(f"{len(report.cells)} cell lists for the report's columns {columns}")
    lengths = sorted(set(map(len, report.cells)))
    if len(lengths) > 1:
        raise ValueError(f"report columns of unequal lengths {lengths}")
    n = lengths[0] if lengths else 0
    head = {"experiment": report.experiment, "metadata": _plain(report.metadata), "columns": columns,
            "passed": report.passed}
    text = json.dumps(head, sort_keys=True, indent=2, ensure_ascii=False)
    yield _csv_lines([[name] for name in _csv_fields(columns)]), text[: -len("\n}")] + ',\n  "rows": ['
    order = sorted(range(len(columns)), key=columns.__getitem__)
    keys = [(",\n" if i else "    {\n") + f"      {encode_basestring(columns[j])}: " for i, j in enumerate(order)]
    for start in range(0, n, _CHUNK):
        texts = [_texts(column[start:start + _CHUNK]) for column in report.cells]
        m = len(texts[0][0])
        parts = []
        for key, j in zip(keys, order):
            parts += [itertools.repeat(key, m), texts[j][1]]
        parts.append(itertools.repeat("\n    }", m))
        yield (_csv_lines([csv_texts for csv_texts, _ in texts]),
               (",\n" if start else "\n") + ",\n".join(map("".join, zip(*parts))))
    yield "", ("\n  ]" if n else "]") + "\n}\n"


def _write(report: ExperimentReport, csv_path, json_path) -> list[Path]:
    """Write the report's CSV and JSON files (a path of ``None`` is skipped) in one pass; returns the paths.

    Each file is written to a sibling ``.part`` file and renamed into place
    once both are complete; on any failure neither report file is left.
    """
    pieces = _pieces(report)
    first = next(pieces)  # checks the shape before a file is opened
    targets = [(k, Path(path)) for k, path in enumerate((csv_path, json_path)) if path is not None]
    temps = [path.with_name(path.name + ".part") for _, path in targets]
    files, placed = [], []
    try:
        with contextlib.ExitStack() as stack:
            for temp in temps:
                files.append(stack.enter_context(open(temp, "w", encoding="utf-8", newline="")))
            for texts in itertools.chain([first], pieces):
                for (k, _), fh in zip(targets, files):
                    fh.write(texts[k])
        for (_, path), temp in zip(targets, temps):
            os.replace(temp, path)
            placed.append(path)
    except BaseException:
        for path in temps[: len(files)] + placed:
            path.unlink(missing_ok=True)
        raise
    return [path for _, path in targets]


def emit_report(report: ExperimentReport, out_dir) -> list[Path]:
    """Write ``<experiment>.csv`` and ``<experiment>.json`` into ``out_dir``; returns both paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return _write(report, out_dir / f"{report.experiment}.csv", out_dir / f"{report.experiment}.json")
