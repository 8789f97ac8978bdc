"""Columnar reports and writers against the row-by-row writers they replaced."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeqe import cli
from latticeqe.reporting import ExperimentReport, emit_report, write_csv, write_json

from oracles import loop_write_csv, loop_write_json

FLOAT_EDGES = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, 1e16, 1e-7, 0.1 + 0.2, 1.0, -123456789.125]

plain_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(FLOAT_EDGES)
plain_ints = st.integers(min_value=-(10**30), max_value=10**30)
texts = st.text(st.sampled_from(list(',"\n\r;% {}\\\'\txé☃\U0001f600')) | st.characters(), max_size=8)


def to_float32(value):
    with np.errstate(over="ignore"):
        return np.float32(value)


SCALARS = {
    "float": plain_floats,
    "int": plain_ints,
    "bool": st.booleans(),
    "none": st.none(),
    "str": texts,
    "np.float64": plain_floats.map(np.float64),
    "np.float32": plain_floats.map(to_float32),
    "np.int64": st.integers(-(2**63), 2**63 - 1).map(np.int64),
    "np.uint8": st.integers(0, 255).map(np.uint8),
    "np.bool_": st.booleans().map(np.bool_),
}
any_scalar = st.one_of(*SCALARS.values())


@st.composite
def reports(draw):
    names = draw(st.lists(texts, unique=True, max_size=5))
    n_rows = draw(st.integers(0, 6))
    # Each column is either of one type (the fast path) or mixed (cell by cell).
    kinds = [draw(st.sampled_from(sorted(SCALARS) + ["mixed"])) for _ in names]
    columns = [
        draw(st.lists(SCALARS[kind] if kind != "mixed" else any_scalar, min_size=n_rows, max_size=n_rows))
        for kind in kinds
    ]
    experiment = draw(texts)
    metadata = {"version": "0.1.0", "config": {"note": draw(texts), "n_values": [1, 2]}}
    return ExperimentReport(experiment, names, columns, metadata)


def assert_same_bytes(report, tmp_path):
    for new, old in ((write_csv, loop_write_csv), (write_json, loop_write_json)):
        try:
            b = old(report, tmp_path / "old").read_bytes()
        except UnicodeEncodeError:
            # a lone surrogate has no UTF-8 form: both writers must refuse it
            with pytest.raises(UnicodeEncodeError):
                new(report, tmp_path / "new")
            continue
        a = new(report, tmp_path / "new").read_bytes()
        assert a == b


@settings(max_examples=300, deadline=None)
@given(report=reports())
def test_writers_match_row_by_row_bytes(report, tmp_path_factory):
    assert_same_bytes(report, tmp_path_factory.mktemp("w"))


@pytest.mark.parametrize("kind", sorted(SCALARS))
def test_edge_values_of_each_type(kind, tmp_path):
    values = {
        "float": FLOAT_EDGES,
        "np.float64": [np.float64(v) for v in FLOAT_EDGES],
        "np.float32": [to_float32(v) for v in FLOAT_EDGES],
        "int": [0, -1, 2**70, -(2**70)],
        "np.int64": [np.int64(0), np.int64(-(2**63)), np.int64(2**63 - 1)],
        "np.uint8": [np.uint8(0), np.uint8(255)],
        "bool": [True, False],
        "np.bool_": [np.bool_(True), np.bool_(False)],
        "none": [None, None],
        "str": ["", "a,b", 'say "hi"', "two\nlines", "cr\rlf", "café ☃ \U0001f600", "100%"],
    }[kind]
    report = ExperimentReport("edge", ["x", "pass"], [values, [True] * len(values)], {"k": 1})
    assert_same_bytes(report, tmp_path)


def test_mixed_column(tmp_path):
    cells = [1, 2.5, None, True, "s", np.float64(-0.0), np.int64(7), np.bool_(False), math.nan]
    report = ExperimentReport("mixed", ["mixed", "const"], [cells, [1.0] * len(cells)], {})
    assert_same_bytes(report, tmp_path)


# Zero rows, zero columns, and one column whose name and cell are empty: a
# record made of one empty field is the one csv.writer quotes whole.
@pytest.mark.parametrize("columns, rows", [
    (["a", "b"], [[], []]),
    ([], []),
    ([""], [["", None, "x"]]),
])
def test_empty_reports(columns, rows, tmp_path):
    assert_same_bytes(ExperimentReport("empty", columns, rows, {}), tmp_path)


@settings(max_examples=200, deadline=None)
@given(name=texts, cells=st.lists(texts | st.none(), max_size=6))
def test_one_column_reports(name, cells, tmp_path_factory):
    assert_same_bytes(ExperimentReport("one", [name], [cells], {}), tmp_path_factory.mktemp("w"))


@pytest.mark.parametrize("writer", [write_csv, write_json])
@pytest.mark.parametrize("columns, row", [
    (["a", "b"], [[0, 1]]),  # fewer cell lists than columns
    (["a"], [[0, 1], [0, 2]]),  # more cell lists than columns
    (["a", "b"], [[0, 1], [0]]),  # columns of unequal lengths
    (["a", "a"], [[0, 1], [0, 1]]),  # duplicate column names
])
def test_key_column_mismatch_raises(writer, columns, row, tmp_path):
    report = ExperimentReport("bad", columns, row, {})
    with pytest.raises(ValueError):
        writer(report, tmp_path / "bad")


@pytest.mark.parametrize("writer", [write_csv, write_json])
@pytest.mark.parametrize("cell", [[1, 2], (1.0,), {"k": 1}, 1j, np.array([1.0])])
def test_non_scalar_cell_raises(writer, cell, tmp_path):
    report = ExperimentReport("bad", ["a"], [[1.0, cell]], {})
    with pytest.raises(TypeError):
        writer(report, tmp_path / "bad")


CLI_JOBS = [
    ["var-scan", "--d", "2", "--N", "4,6", "--obs", "centered-half"],
    ["var-scan", "--d", "1", "--N", "8,16", "--obs", "centered-half", "--mode", "periodic"],
    ["degeneracy", "--d", "2", "--N", "2,4,6"],
    ["lemma-c1", "--d", "2", "--N", "3,4"],
    ["lemma-c1", "--d", "3", "--N", "2"],
    ["correspond", "--d", "2", "--N", "2,3,4"],
    ["schrodinger", "--task", "counterexample", "--M", "100", "--N", "10,20"],
    ["schrodinger", "--task", "partial-qe", "--M", "100", "--N", "4,8", "--obs", "block-constant"],
    ["correlator", "--N", "10,20", "--R", "3"],
    ["bessel", "--d", "2", "--N", "2,4", "--obs", "half-indicator,parity", "--random", "3"],
]


@pytest.mark.parametrize("argv", CLI_JOBS, ids=lambda argv: "-".join(argv[:3]))
def test_cli_reports_match_row_by_row_bytes(argv, tmp_path, monkeypatch):
    captured = []

    def capture(report, out_dir):
        captured.append(report)
        return emit_report(report, out_dir)

    monkeypatch.setattr(cli, "emit_report", capture)
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    (report,) = captured
    for ext, oracle in (("csv", loop_write_csv), ("json", loop_write_json)):
        written = (tmp_path / f"{report.experiment}.{ext}").read_bytes()
        assert written == oracle(report, tmp_path / f"oracle.{ext}").read_bytes()


def test_row_view():
    report = ExperimentReport("view", ["a", "pass"], [[1, 2, 3], [True, np.bool_(True), False]], {})
    assert len(report.rows) == 3
    assert report.rows[-1] == {"a": 3, "pass": False}
    assert list(report.rows) == [report.rows[i] for i in range(3)]
    assert list(report.rows[0]) == ["a", "pass"]
    with pytest.raises(IndexError):
        report.rows[3]
    assert not report.passed
    assert len(ExperimentReport("none", [], [], {}).rows) == 0
    assert ExperimentReport("none", [], [], {}).passed
