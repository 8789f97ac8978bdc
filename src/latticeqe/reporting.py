"""Deterministic report serialization.

CSV files carry a header row, UTF-8 text, LF line endings, and floats in
shortest round-trip decimal form; JSON files use sorted keys and two-space
indentation. Identical configs and seeds must reproduce byte-identical
files, so volatile data (wall time) stays out of the serialized payload.

Both writers work column by column. Every row must be keyed by exactly the
report's columns, and every cell must be a scalar: ``None``, ``bool``,
``int``, ``float``, ``str``, or a numpy bool, integer or floating scalar.
A column whose cells share one plain type is converted to text by a single
``map`` of that type's formatter; other columns are first converted cell by
cell to plain scalars, then formatted with the same formatters.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from itertools import repeat
from json.encoder import encode_basestring
from operator import eq, itemgetter, methodcaller
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


@dataclass(eq=False)
class ExperimentReport:
    experiment: str
    columns: list[str]
    rows: list[dict]
    metadata: dict = field(default_factory=dict)
    wall_time_s: float | None = None  # informational only, never serialized

    @property
    def passed(self) -> bool:
        return all(map(methodcaller("get", "pass", True), self.rows))


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


def _text_rows(report: ExperimentReport, names, formats: dict):
    """The report's cells as text, one tuple per row, columns in ``names`` order."""
    columns = list(report.columns)
    if len(set(columns)) != len(columns):
        raise ValueError(f"duplicate report columns in {columns}")
    expected = set(columns)
    if not all(map(eq, map(dict.keys, report.rows), repeat(expected))):
        i, row = next((i, row) for i, row in enumerate(report.rows) if row.keys() != expected)
        raise ValueError(f"row {i} has keys {sorted(map(str, row))}, the report's columns are {columns}")
    texts = [_column_texts(list(map(itemgetter(name), report.rows)), formats) for name in names]
    return zip(*texts) if texts else [()] * len(report.rows)


def write_csv(report: ExperimentReport, path) -> Path:
    path = Path(path)
    rows = _text_rows(report, report.columns, _CSV_TEXT)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(report.columns)
        writer.writerows(rows)
    return path


def write_json(report: ExperimentReport, path) -> Path:
    """JSON with sorted keys and ``indent=2``, as ``json.dumps`` would write it.

    The header is ``json.dumps`` output; the rows, whose key is the last in
    sorted order, are rendered from one template per report and spliced in.
    """
    path = Path(path)
    names = sorted(report.columns)
    rows = _text_rows(report, names, _JSON_TEXT)
    head = {
        "experiment": report.experiment,
        "metadata": _plain(report.metadata),
        "columns": list(report.columns),
        "passed": report.passed,
    }
    text = json.dumps(head, sort_keys=True, indent=2, ensure_ascii=False)
    if names:
        fields = (encode_basestring(name).replace("%", "%%") for name in names)
        template = "    {\n" + ",\n".join(f"      {key}: %s" for key in fields) + "\n    }"
    else:
        template = "    {}"
    body = ",\n".join(map(template.__mod__, rows))
    body = "[\n" + body + "\n  ]" if body else "[]"
    text = text[: -len("\n}")] + ',\n  "rows": ' + body + "\n}\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def emit_report(report: ExperimentReport, out_dir, formats=("csv", "json")) -> list[Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    writers = {"csv": write_csv, "json": write_json}
    paths = []
    for fmt in formats:
        if fmt not in writers:
            raise ValueError(f"unknown report format {fmt!r}")
        paths.append(writers[fmt](report, out_dir / f"{report.experiment}.{fmt}"))
    return paths
