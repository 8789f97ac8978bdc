"""Columnar reports and writers against the row-by-row writers they replaced."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latticeqe
from latticeqe import cli, reporting
from latticeqe.experiments import ExperimentConfig, run
from latticeqe.reporting import ExperimentReport, emit_report

from oracles import _plain, loop_write_csv, loop_write_json, peak_bytes

CHUNK = reporting._CHUNK


# The one-pass writer behind emit_report, with one of its two files.
def write_csv(report, path):
    return reporting._write(report, path, None)[0]


def write_json(report, path):
    return reporting._write(report, None, path)[0]

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


MIXED = [1, 2.5, None, True, "s", np.float64(-0.0), np.int64(7), np.bool_(False), math.nan, -math.inf,
         np.float32(0.1), np.uint8(255), 'a,"b"', "é\n☃", ""]
STRINGS = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rlf", "tab\tback\\slash", "ctrl\x01\x1f",
           "café ☃ \U0001f600", "", "100%"]


def chunked_report(n: int) -> ExperimentReport:
    """``n`` rows whose columns change kind, distinct values and quoting from one chunk to the next."""
    rows = range(n)
    columns = {
        "int": [i * (-1) ** i * 10**(i % 25) for i in rows],
        "float": [math.nan if i == CHUNK + 1 else i / 3 - 1e6 for i in rows],  # non-finite in one chunk
        "edges": [FLOAT_EDGES[i % len(FLOAT_EDGES)] for i in rows],
        "mixed": [MIXED[i % len(MIXED)] for i in rows],
        "str": [STRINGS[i % len(STRINGS)] + str(i // 3) for i in rows],
        "quote-late": ["x,y" if i == 2 * CHUNK + 4 else "x" for i in rows],
        "np.float64": [np.float64(i / 7) for i in rows],
        "float-then-none": [float(i) if i < CHUNK else None for i in rows],
        "none": [None] * n,
        "pass": [i % 5 != 3 for i in rows],
    }
    return ExperimentReport("chunked", list(columns), list(columns.values()), {"rows": n, "note": "é"})


@pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
def test_chunk_boundaries_match_row_by_row_bytes(n, tmp_path):
    report = chunked_report(n)
    assert_same_bytes(report, tmp_path)
    one = ExperimentReport("one", [""], [[None if i % 3 else "" if i % 2 else "é" for i in range(n)]], {})
    assert_same_bytes(one, tmp_path)
    for path, oracle in zip(emit_report(report, tmp_path / "out"), (loop_write_csv, loop_write_json)):
        assert path.read_bytes() == oracle(report, tmp_path / "oracle").read_bytes()


def assert_no_report(report, tmp_path):
    """Every writer raises on ``report`` and leaves the directory as it was."""
    (tmp_path / "earlier.csv").write_text("kept")
    for write in (write_csv, write_json):
        with pytest.raises((TypeError, ValueError, OSError)):
            write(report, tmp_path / f"{report.experiment}.{write.__name__}")
    with pytest.raises((TypeError, ValueError, OSError)):
        emit_report(report, tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["earlier.csv"]
    assert (tmp_path / "earlier.csv").read_text() == "kept"


@pytest.mark.parametrize("cells", [
    [[1.0] * (3 * CHUNK + 5), [True] * (3 * CHUNK + 4) + [[1]]],  # a bad cell in the last chunk
    [[1.0] * (3 * CHUNK + 5), [True] * (3 * CHUNK + 4)],  # columns of unequal lengths
])
def test_bad_report_leaves_no_file(cells, tmp_path):
    assert_no_report(ExperimentReport("bad", ["x", "pass"], cells, {}), tmp_path)


def test_write_error_leaves_no_file(tmp_path, monkeypatch):
    """A disk that fills up after the first chunk: the writers raise and leave nothing behind."""
    class Full:
        def __init__(self, fh):
            self.fh, self.left = fh, 2

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.left -= 1
            if not self.left:
                raise OSError(28, "No space left on device")
            return self.fh.write(text)

    monkeypatch.setattr(reporting, "open", lambda *args, **kwargs: Full(open(*args, **kwargs)), raising=False)
    assert_no_report(chunked_report(3 * CHUNK + 5), tmp_path)


def test_emission_memory_does_not_grow_with_rows(tmp_path):
    def emit(n):
        rows = range(n)
        cells = [[8] * n, [f"{i};{-i}" for i in rows], [str(i % 8) for i in rows], [i % 25 for i in rows],
                 [i / 9 for i in rows], [True] * n]
        report = ExperimentReport("big", ["N", "t", "eps", "count", "x", "pass"], cells, {})
        return peak_bytes(lambda: emit_report(report, tmp_path))

    small, large = emit(4 * CHUNK), emit(16 * CHUNK)
    assert large <= 1.1 * small, (small, large)


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


def test_plain_values_match_isinstance_chain():
    # the numpy-to-plain conversion of metadata and config hashes, against the chain it replaced
    values = [np.float64(0.1), np.float32(-0.0), np.int8(-3), np.uint64(2**63), np.bool_(False), True, 7, 2.5,
              "s", None, (np.int32(4), [np.bool_(True), (np.float16(1.5),)])]
    for value in values:
        new, old = reporting._plain(value), _plain(value)
        assert repr(new) == repr(old) and type(new) is type(old)
    # dict values convert as well; the chain passed dicts through
    nested = reporting._plain({"k": np.int64(1), "d": {"x": [np.bool_(True)]}})
    assert nested == {"k": 1, "d": {"x": [True]}}
    assert type(nested["k"]) is int and type(nested["d"]["x"][0]) is bool


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_version_agrees_everywhere():
    import tomllib

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    declared = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["version"]
    report = run(ExperimentConfig("degeneracy", n_values=(2,)))
    assert report.metadata["version"] == latticeqe.__version__ == declared
