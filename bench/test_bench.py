"""Smoke tests of the benchmark: tiny sizes, every metric, the oracle's rules."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.2", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "qe-dense", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _report(variance: str) -> dict[str, bytes]:
    return {"var-scan.csv": f"N,var,pass\n8,{variance},true\n".encode()}


def test_oracle_separates_drift_from_failure():
    reference = {"var-scan.csv": "N,var,pass\n8,0.125,true\n"}
    assert worker.check_reports(_report("0.125"), reference) == ([], 0)
    assert worker.check_reports(_report("0.12500000000000003"), reference) == ([], 1)
    problems, drift = worker.check_reports(_report("0.1251"), reference)
    assert drift == 1 and "drifts beyond tolerance" in problems[0]


def test_oracle_checks_seeded_rows_by_invariant():
    header = "N,d,obs,lhs,rhs,slack,pass\n"
    good = header + "4,2,random-diagonal-2,1.5,4.0,2.5,true\n"
    bad = header + "4,2,random-diagonal-2,5.0,4.0,-1.0,true\n"
    reference = {"bessel.csv": header}
    assert worker.check_reports({"bessel.csv": good.encode()}, reference) == ([], 0)
    assert worker.check_reports({"bessel.csv": bad.encode()}, reference)[0]
