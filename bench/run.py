"""latticeqe benchmark: certification workloads, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload qe-dense --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones (pass time, set-up time, peak resident
memory, share of jobs that passed); with ``--trace 1`` they are the
per-layer ones from a traced run. Everything the run leaves behind goes
under ``.benchrun/`` in the checkout, including a result file with the
environment, every sample and, for a traced run, the spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from worker import WORKLOADS  # the job lists; the worker imports latticeqe only when it runs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

# Fresh interpreters timed to the end of set-up, before and again after the
# one that runs the passes, so that the samples span the run; the median of
# all of them is setup_s.
SETUP_PROBES = {"full": 3, "smoke": 1}
# Whole run, in seconds; the worker is killed past it.
DEADLINE = 170.0

# Metric names and units, as declared at the root of the checkout.
SPEC = ROOT / "BENCHMARK.json"


class Worker:
    """A worker process timed from launch to its ``ready`` line."""

    def __init__(self, args: list[str], env: dict, deadline: float):
        start = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                                     stdout=subprocess.PIPE, text=True)
        self.timer = threading.Timer(max(1.0, deadline - time.monotonic()), self.proc.kill)
        self.timer.start()
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        self.ready = line.strip() == "ready"

    def finish(self) -> tuple[int, str]:
        try:
            out = self.proc.stdout.read()
            return self.proc.wait(), out
        finally:
            self.timer.cancel()
            self.proc.stdout.close()


def source_digest(jobs: list[str]) -> str:
    """Digest of what the computed counts depend on: the sources and the job list."""
    h = hashlib.sha256("\n".join(jobs).encode())
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE

    if not (ROOT / "src" / "latticeqe" / "__init__.py").is_file():
        return fail(f"no latticeqe sources under {ROOT / 'src'}")
    size = "smoke" if args.smoke else "full"
    tag = f"{args.workload}-{size}-seed{args.seed}-trace{args.trace}"
    runs = ROOT / ".benchrun"
    work = runs / tag
    env = {k: v for k, v in os.environ.items() if k != "QE_THREADS"}
    common = ["--workload", args.workload, "--seed", str(args.seed), "--work", str(work)]
    if args.smoke:
        common.append("--smoke")

    def probe_setups() -> bool:
        for _ in range(0 if args.trace else SETUP_PROBES[size]):
            probe = Worker(common + ["--setup-only"], env, deadline)
            rc, _ = probe.finish()
            if not probe.ready or rc != 0:
                return False
            setups.append(probe.setup_s)
        return True

    setups = []
    if not probe_setups():
        return fail("a set-up probe failed")
    worker = Worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline)
    rc, out = worker.finish()
    if not worker.ready or rc != 0 or not out.strip():
        return fail(f"worker exited with status {rc}")
    setups.append(worker.setup_s)
    if not probe_setups():
        return fail("a set-up probe failed")
    result = json.loads(out.strip().splitlines()[-1])

    correct = result["failed"] == 0
    if args.trace:
        metrics = result["layers"]
        correct = correct and result["counts_repeat"]
        counts_file = runs / f"counts-{args.workload}-{size}-{source_digest(result['jobs'])}.json"
        if counts_file.is_file():
            previous = json.loads(counts_file.read_text(encoding="utf-8"))
            if previous != result["counts"]:
                correct = False
                result["failures"].append(f"computed counts differ from an earlier run: {counts_file.name}")
        else:
            counts_file.write_text(json.dumps(result["counts"], sort_keys=True) + "\n", encoding="utf-8")
    else:
        metrics = {
            "pass_s": statistics.median(result["pass_s"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_frac": 1.0 - result["failed"] / result["attempted"],
        }
    declared = json.loads(SPEC.read_text(encoding="utf-8"))["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        return fail(f"metric names do not match: {sorted(set(metrics) ^ set(units))}")

    record = {
        "workload": args.workload, "size": size, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "env": result["env"], "jobs": result["jobs"],
        "samples": {"pass_s": result["pass_s"], "setup_s": setups,
                    "traced_pass_s": result.get("traced_pass_s", [])},
        "metrics": metrics, "failures": result["failures"], "spans": result.get("spans", []),
    }
    side = runs / f"result-{tag}.json"
    side.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    env_line = ", ".join(f"{k}={v}" for k, v in result["env"].items())
    print(f"bench: {tag}: {env_line}")
    print(f"bench: medians of {len(result['pass_s'])} passes, {len(setups)} set-ups"
          + (f", {len(result['traced_pass_s'])} traced passes" if args.trace else "") + f"; details in {side}")
    for failure in result["failures"]:
        print(f"bench: FAIL {failure}")
    if args.trace:
        selfs = {k[: -len(".self_s")]: v for k, v in metrics.items() if k.endswith(".self_s")}
        total = sum(selfs.values()) or 1.0
        for layer, value in sorted(selfs.items(), key=lambda kv: -kv[1]):
            print(f"bench:   {layer:24s} self {value:9.4f} s  {100 * value / total:5.1f}%")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
