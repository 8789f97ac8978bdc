"""One fresh benchmark process: set up a workload, run passes, check outputs.

Started by ``run.py``. It imports ``latticeqe`` from the checkout's ``src/``,
writes the workload's inputs, prints ``ready`` (the end of set-up), and then
runs the workload's job list in a warm-up pass followed by timed passes
until ``--seconds`` have elapsed. With ``--trace 1`` untraced and traced
passes alternate, after one traced pass under ``tracemalloc`` that gives
the peak memory of each layer. The last line of standard output is one JSON object with
the measurements and the verdict of every job.

Recording the reference reports kept in ``reference.json.gz``::

    python3 bench/worker.py --workload qe-dense --record-reference [--smoke]
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import glob
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = Path(__file__).resolve().parent / "reference.json.gz"

# A numeric cell drifts when |value - reference| > ATOL + RTOL * |reference|.
# ATOL covers cells at rounding-noise level (residuals, Gram errors, the
# vanishing partial-QE variance), RTOL everything else.
RTOL, ATOL = 1e-9, 1e-12

# Job lists per workload, at full and at smoke size. A CLI job is a
# ``latticeqe`` command line; ``{potential}`` is replaced by the generated
# potential file. The ``library`` job calls the time-average layer directly.
# The certification jobs (lemma-c1 to correlator) ride in qe-dense at sizes
# where their Python loops stay a small share of the pass: pass times of
# Python-bound code swing by half between slow and fast phases of a shared
# host, several minutes long, while numpy-bound passes swing by a fifth.
WORKLOADS = {
    "qe-dense": {
        "full": [
            "var-scan --d 2 --N 32,48,64 --obs centered-half",
            "var-scan --d 2 --N 32,48 --obs centered-half --mode periodic",
            "var-scan --d 1 --N 1024,2048,4096 --obs centered-half",
            "var-scan --d 3 --N 8,12,14 --obs centered-half",
            "library --timeavg-N 24 --theta-N 12",
            "lemma-c1 --d 2 --N 16",
            "correspond --d 2 --N 8,12,16",
            "degeneracy --d 2 --N 8,16,24,32",
            "bessel --d 2 --N 8,16,32 --obs half-indicator,parity --random 20",
            "correlator --N 50,100,200,400,800,1600 --R 3",
        ],
        "smoke": [
            "var-scan --d 2 --N 4,6,8 --obs centered-half",
            "var-scan --d 2 --N 4,6 --obs centered-half --mode periodic",
            "var-scan --d 1 --N 16,32,64 --obs centered-half",
            "var-scan --d 3 --N 2,3,4 --obs centered-half",
            "library --timeavg-N 4 --theta-N 3",
            "lemma-c1 --d 2 --N 4",
            "correspond --d 2 --N 2,3,4",
            "degeneracy --d 2 --N 2,4,6,8",
            "bessel --d 2 --N 2,4 --obs half-indicator,parity --random 3",
            "correlator --N 10,20 --R 3",
        ],
    },
    "schrodinger-bands": {
        "full": [
            "schrodinger --task counterexample --M 100 --N 100,300,600,1000",
            "schrodinger --task partial-qe --M 100 --N 32,64,128,256,512 --obs block-constant",
            "schrodinger --task partial-qe --N 4,8,16,20 --obs block-constant --potential {potential}",
        ],
        "smoke": [
            "schrodinger --task counterexample --M 100 --N 10,20",
            "schrodinger --task partial-qe --M 100 --N 4,8,16 --obs block-constant",
            "schrodinger --task partial-qe --N 2,4 --obs block-constant --potential {potential}",
        ],
    },
}

# d=2 staggered potential with periods (2, 2): degenerate eigenvalue classes
# in a numeric eigenbasis.
STAGGERED_2D = {"d": 2, "q": [2, 2], "values": [0.0, 100.0, 100.0, 0.0]}

# Passes measured at least, whatever --seconds says.
MIN_PASSES = 3


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                threads = int(fn())
                break
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "qe_threads": os.environ.get("QE_THREADS"),
        "machine": platform.machine(),
    }


def make_jobs(workload: str, size: str, seed: int, inputs: Path) -> list[tuple[str, list[str]]]:
    """(key, argv) per job; the key is the command template, the argv is ready to run."""
    inputs.mkdir(parents=True, exist_ok=True)
    potential = inputs / "staggered_2d.json"
    potential.write_text(json.dumps(STAGGERED_2D, sort_keys=True) + "\n", encoding="utf-8")
    jobs = []
    for key in WORKLOADS[workload][size]:
        argv = key.format(potential=potential).split()
        if argv[0] != "library":
            argv += ["--seed", str(seed)]
        jobs.append((key, argv))
    return jobs


def library_job(qe, argv: list[str], out: Path):
    """Time average, center matrix and theta decomposition of a centered observable."""
    import numpy as np

    lattice, observables, spectra, ta = qe.lattice, qe.observables, qe.spectra, qe.time_average
    n_avg, n_theta = int(argv[argv.index("--timeavg-N") + 1]), int(argv[argv.index("--theta-N") + 1])
    a = ta.centered(observables.build_observable("centered-half", lattice.cube(n_avg, 2)))
    T = ta.time_averaged_observable(spectra.sine_basis(n_avg, 2), a)
    C, _, _ = ta.center_matrix(a)
    b = ta.centered(observables.build_observable("centered-half", lattice.cube(n_theta, 2)))
    D = ta.theta_decompose(b)
    rows = [
        ("time_average_hs", ta.hs_norm(T)),
        ("time_average_trace", float(np.trace(T))),
        ("center_hs", ta.hs_norm(C)),
        ("theta_components", len(D.components)),
        ("theta_nnz", sum(c.nnz for c in D.components.values())),
        ("theta_total_hs", ta.hs_norm(D.total_matrix())),
    ]
    text = "quantity,value\n" + "".join(f"{name},{value!r}\n" for name, value in rows)
    (out / "library.csv").write_text(text, encoding="utf-8")


def run_job(qe, argv: list[str], out: Path, sink: io.StringIO) -> str | None:
    """Run one job, writing its reports into ``out``; returns an error or None."""
    try:
        with contextlib.redirect_stdout(sink):
            if argv[0] == "library":
                library_job(qe, argv, out)
                return None
            rc = qe.cli.main(argv + ["--out", str(out)])
    except Exception as exc:  # a raising job is a failed job, the run goes on
        return f"raised {type(exc).__name__}: {exc}"
    return None if rc == 0 else f"exit status {rc}"


def _parse(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _seeded(header: list[str], row: list[str]) -> bool:
    """Rows whose inputs come from --seed: the random observables."""
    return "obs" in header and row[header.index("obs")].startswith("random-diagonal")


def stable_csv(text: str) -> str:
    """The CSV without its seed-dependent rows: what the reference records."""
    header, rows = _parse(text)
    kept = [header] + [r for r in rows if not _seeded(header, r)]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(kept)
    return buf.getvalue()


def _close(value: str, ref: str) -> bool:
    if value == ref:
        return True
    parts, ref_parts = value.split(";"), ref.split(";")
    if len(parts) != len(ref_parts):
        return False
    for x, y in zip(parts, ref_parts):
        try:
            fx, fy = float(x), float(y)
        except ValueError:
            return False
        if not abs(fx - fy) <= ATOL + RTOL * abs(fy):
            return False
    return True


def check_reports(files: dict[str, bytes], reference: dict | None) -> tuple[list[str], int]:
    """Problems with one job's reports, and how many CSV files drift bytewise."""
    problems, drift = [], 0
    csvs = {name: data.decode("utf-8") for name, data in files.items() if name.endswith(".csv")}
    if not csvs:
        return ["no CSV report written"], 0
    if reference is None:
        return ["no reference recorded for this job"], 0
    for name, text in csvs.items():
        header, rows = _parse(text)
        if "pass" in header:
            col = header.index("pass")
            failing = sum(1 for r in rows if r[col] != "true")
            if failing:
                problems.append(f"{name}: {failing} rows with pass=false")
        for r in rows:
            if _seeded(header, r):
                # Seed-dependent rows have no recorded value; check the
                # Bessel identities they must satisfy instead.
                cell = dict(zip(header, r))
                lhs, rhs, slack = float(cell["lhs"]), float(cell["rhs"]), float(cell["slack"])
                if not (0.0 < lhs <= rhs <= 4.0 ** int(cell["d"]) and slack == rhs - lhs):
                    problems.append(f"{name}: row {cell['obs']} N={cell['N']} breaks lhs <= rhs")
        stable, ref_text = stable_csv(text), reference.get(name)
        if ref_text is None:
            problems.append(f"{name}: no reference")
            continue
        if stable == ref_text:
            continue
        drift += 1
        ref_header, ref_rows = _parse(ref_text)
        header, rows = _parse(stable)
        if header != ref_header or len(rows) != len(ref_rows):
            problems.append(f"{name}: columns or row count differ from the reference")
            continue
        for i, (r, ref_r) in enumerate(zip(rows, ref_rows)):
            bad = [h for h, x, y in zip(header, r, ref_r) if not _close(x, y)]
            if bad:
                problems.append(f"{name}: row {i + 1} drifts beyond tolerance in {', '.join(bad)}")
                break
    return problems, drift


def run_pass(qe, jobs, outs, tracer=None, memory=False) -> tuple[float, list, list[tuple[str | None, dict]]]:
    """Time one pass over the jobs; returns (seconds, spans, [(error, report digests)])."""
    for out in outs:
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
    sink = io.StringIO()
    if tracer is not None:
        tracer.begin_pass(memory)
    start = time.perf_counter()
    errors = [run_job(qe, argv, out, sink) for (_, argv), out in zip(jobs, outs)]
    elapsed = time.perf_counter() - start
    spans = tracer.end_pass() if tracer is not None else None
    # Digests only: holding whole reports would add to the peak resident set.
    digests = [{p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
               for out in outs]
    return elapsed, spans, list(zip(errors, digests))


def reports(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def load_reference() -> dict:
    return json.loads(gzip.decompress(REFERENCE.read_bytes())) if REFERENCE.is_file() else {}


# Counts derived from sizes alone; they must repeat exactly from pass to pass
# and from run to run of the same source.
COMPUTED = (
    "spectra.basis.calls", "spectra.basis.bytes", "spectra.basis.factor_ratio",
    "spectra.pairs.visited", "spectra.pairs.kept", "spectra.pairs.yield",
    "time_average.contract.ops", "schrodinger.eigensolve.calls", "schrodinger.eigensolve.v3",
    "correspondence.verify.columns", "correlators.scan.evals", "reporting.emit.rows",
)


def layer_metrics(totals: dict) -> dict:
    """Per-layer metric values of one traced pass, by metric name."""
    out = {f"{layer}.self_s": agg["self_s"] for layer, agg in totals.items()}
    basis, pairs = totals["spectra.basis"], totals["spectra.pairs"]
    basis_bytes = basis["counts"].get("bytes", 0)
    visited = pairs["counts"].get("visited", 0)
    out.update({
        "spectra.basis.calls": basis["calls"],
        "spectra.basis.bytes": basis_bytes,
        "spectra.basis.factor_ratio": basis["counts"].get("factor_bytes", 0) / basis_bytes if basis_bytes else 0.0,
        "spectra.basis.peak_mb": basis["peak_mb"],
        "spectra.pairs.visited": visited,
        "spectra.pairs.kept": pairs["counts"].get("kept", 0),
        "spectra.pairs.yield": pairs["counts"].get("kept", 0) / visited if visited else 0.0,
        "time_average.contract.ops": totals["time_average.contract"]["counts"].get("ops", 0),
        "time_average.timeavg.peak_mb": totals["time_average.timeavg"]["peak_mb"],
        "schrodinger.eigensolve.calls": totals["schrodinger.eigensolve"]["calls"],
        "schrodinger.eigensolve.v3": totals["schrodinger.eigensolve"]["counts"].get("v3", 0),
        "schrodinger.eigensolve.peak_mb": totals["schrodinger.eigensolve"]["peak_mb"],
        "correspondence.verify.columns": totals["correspondence.verify"]["counts"].get("columns", 0),
        "correlators.scan.evals": totals["correlators.scan"]["counts"].get("evals", 0),
        "reporting.emit.rows": totals["reporting.emit"]["counts"].get("rows", 0),
        "reporting.emit.bytes": totals["reporting.emit"]["counts"].get("bytes", 0),
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true", help="exit once set-up is done")
    parser.add_argument("--record-reference", action="store_true",
                        help="run one pass at seed 0 and store its reports as the reference")
    parser.add_argument("--work", default=str(ROOT / ".benchrun" / "record"))
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import latticeqe
    import latticeqe.cli  # noqa: F401  (loads every module the CLI reaches)

    if Path(latticeqe.__file__).resolve().parent != (src / "latticeqe").resolve():
        print(f"worker: imported latticeqe from {latticeqe.__file__}, not from {src}", file=sys.stderr)
        return 1
    size = "smoke" if args.smoke else "full"
    seed = 0 if args.record_reference else args.seed
    work = Path(args.work)
    jobs = make_jobs(args.workload, size, seed, work / "inputs")
    outs = [work / "out" / str(i) for i in range(len(jobs))]
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if args.record_reference:
        _, _, outcomes = run_pass(latticeqe, jobs, outs)
        recorded = {}
        for (key, _), out, (error, _) in zip(jobs, outs, outcomes):
            if error is not None:
                print(f"worker: {key}: {error}", file=sys.stderr)
                return 1
            recorded[key] = {name: stable_csv(data.decode("utf-8"))
                             for name, data in reports(out).items() if name.endswith(".csv")}
        store = load_reference()
        store.setdefault(size, {})[args.workload] = recorded
        text = json.dumps(store, sort_keys=True, indent=0).encode("utf-8")
        REFERENCE.write_bytes(gzip.compress(text, compresslevel=9, mtime=0))
        print(json.dumps({"recorded": args.workload, "size": size, "jobs": len(recorded)}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer, layer_totals  # bench/ is on sys.path as the script's directory

        tracer = Tracer()
        tracer.install(latticeqe)

    # Every later pass, traced or not, must write the bytes of the warm-up pass.
    _, _, warm = run_pass(latticeqe, jobs, outs)
    passes = [("warm-up", warm)]
    plain, traced, per_pass = [], [], []
    start = time.perf_counter()
    if tracer is not None:
        # One pass under tracemalloc gives the peaks; it is too slow to time.
        _, spans, outcomes = run_pass(latticeqe, jobs, outs, tracer, memory=True)
        passes.append(("memory-traced pass", outcomes))
        peaks = layer_metrics(layer_totals(spans))
    while (time.perf_counter() - start < args.seconds or len(plain) < MIN_PASSES
           or (tracer is not None and len(traced) < MIN_PASSES)):
        elapsed, _, outcomes = run_pass(latticeqe, jobs, outs)
        plain.append(elapsed)
        passes.append((f"pass {len(plain)}", outcomes))
        if len(plain) == MIN_PASSES:
            # The resident set creeps up from pass to pass, so its peak is
            # taken over a fixed amount of work, not over the run's length.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            elapsed, spans, outcomes = run_pass(latticeqe, jobs, outs, tracer)
            traced.append(elapsed)
            passes.append((f"traced pass {len(traced)}", outcomes))
            per_pass.append(layer_metrics(layer_totals(spans)))
            last_spans = spans

    # The last pass left its reports on disk. Where they carry the warm-up
    # bytes, checking them against the reference checks every such pass.
    references = load_reference().get(size, {}).get(args.workload, {})
    verdict, drift, failures = [], 0, []
    for (key, _), out, (error, digests), (_, last) in zip(jobs, outs, warm, passes[-1][1]):
        if error is not None:
            problems = []
        elif last != digests:
            problems = ["reports on disk differ from the warm-up pass, not checked"]
        else:
            problems, job_drift = check_reports(reports(out), references.get(key))
            drift += job_drift
        verdict.append(problems)
        failures += [f"{key}: {p}" for p in problems]
    attempted = failed = 0
    for label, outcomes in passes:
        for (key, _), (error, digests), (_, base), problems in zip(jobs, outcomes, warm, verdict):
            attempted += 1
            if error is not None:
                failures.append(f"{key} ({label}): {error}")
            elif digests != base:
                failures.append(f"{key} ({label}): reports differ from the warm-up pass")
            elif not problems:
                continue
            failed += 1

    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "pass_s": plain,
        "peak_rss_mb": peak_rss_mb,
        "env": environment(args.seed),
        "jobs": [key for key, _ in jobs],
    }
    if tracer is not None:
        first = per_pass[0]
        metrics = {name: statistics.median(m[name] for m in per_pass) for name in first}
        metrics.update({name: first[name] for name in COMPUTED})
        metrics.update({name: value for name, value in peaks.items() if name.endswith(".peak_mb")})
        metrics["reporting.emit.digest_drift"] = drift
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        result.update({
            "traced_pass_s": traced,
            "layers": metrics,
            "counts": {name: first[name] for name in COMPUTED},
            "counts_repeat": all(m[name] == first[name] for m in per_pass + [peaks] for name in COMPUTED),
            "spans": [span.as_dict(i) for i, span in enumerate(last_spans)],
        })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
