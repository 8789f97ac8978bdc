"""Golden bytes: every report of a fixed list of small CLI configs, by sha256.

``golden_reports.json`` holds the digest of each CSV and JSON file the jobs
below write. Any drift in a report's bytes, from any layer, fails here. After
a change that is meant to alter report bytes, re-record the digests with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from latticeqe.cli import main

GOLDEN = Path(__file__).with_name("golden_reports.json")

JOBS = [
    "var-scan --d 1 --N 8,16,33 --obs centered-half",
    "var-scan --d 2 --N 4,6 --obs half-indicator",
    "var-scan --d 1 --N 8,16 --obs centered-half --mode periodic",
    "var-scan --d 3 --N 2,3 --obs centered-half",
    "degeneracy --d 2 --N 2,4,6",
    "degeneracy --d 1 --N 4,9 --mode periodic",
    "degeneracy --d 2 --N 11,23",
    "degeneracy --d 3 --N 4,6 --mode periodic",
    "lemma-c1 --d 1 --N 2,5,9",
    "lemma-c1 --d 2 --N 3,4",
    "lemma-c1 --d 3 --N 2,3",
    "lemma-c1 --d 2 --N 11",
    "correspond --d 2 --N 2,3,4",
    "correspond --d 1 --N 5,8",
    "schrodinger --task counterexample --M 100 --N 10,20",
    "schrodinger --task partial-qe --M 100 --N 4,8 --obs block-constant",
    "correlator --N 10,20 --R 3",
    "correlator --N 5,130,300 --R 4",
    "bessel --d 1 --N 4,7 --obs half-indicator",
    "bessel --d 2 --N 2,4 --obs half-indicator,parity --random 3",
]


def digests(job: str, out: Path) -> dict[str, str]:
    """sha256 of each report the job writes into the empty directory ``out``."""
    assert main(job.split() + ["--out", str(out)]) in (0, 2)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("job", JOBS)
def test_reports_match_golden_bytes(job, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert digests(job, tmp_path) == golden[job]


def test_golden_file_covers_every_job():
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == sorted(JOBS)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = {job: digests(job, Path(tmp) / str(i)) for i, job in enumerate(JOBS)}
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    sys.stdout.write(f"recorded {len(record)} jobs in {GOLDEN}\n")
