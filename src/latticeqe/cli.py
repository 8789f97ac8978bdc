"""Command-line driver: ``latticeqe <experiment> [flags]``.

Flags may also come from a JSON config file (--config); explicit flags win.
Exit status: 0 when every assertion row passes, 2 when at least one fails or
a numerical computation fails (an eigensolver that does not converge; no
report is written then), 1 on usage, configuration or allocation errors, or
when the report cannot be written.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

from .experiments import EXPERIMENTS, RUNS, ConfigError, ExperimentConfig, run
from .reporting import emit_report


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _add_flags(p: _Parser) -> dict[str, str]:
    """Add the shared flag set to ``p``; returns the flag of each config field."""
    actions = [
        p.add_argument("--config", help="JSON config file; flags override it"),
        p.add_argument("--d", type=int, help="lattice dimension"),
        p.add_argument("--N", dest="n_values", type=_int_list, help="comma-separated ascending box sizes"),
        p.add_argument("--obs", type=_str_list, help="observable names or .json files, comma-separated, none repeated"),
        p.add_argument("--mode", choices=("dirichlet", "periodic")),
        p.add_argument("--q", type=_int_list, help="periods, comma-separated"),
        p.add_argument("--potential", help="potential JSON file"),
        p.add_argument("--M", dest="mass", type=float, help="staggered potential gap"),
        p.add_argument("--task", choices=tuple(key.split()[-1] for key in RUNS if key.startswith("schrodinger "))),
        p.add_argument("--R", dest="max_offset", type=int, help="max kernel offset"),
        p.add_argument("--tol", type=float, help="bound on residual, Gram error and inclusion"),
        p.add_argument("--bound", type=float),
        p.add_argument("--random", dest="random_count", type=int, help="number of seeded random diagonals to add"),
        p.add_argument("--seed", type=int, help="a random-diagonal is drawn from default_rng([seed, N]), "
                       "or [seed, N, i] in bessel, i its place in --obs then the --random draws"),
        p.add_argument("--unchecked", action="store_true", help="run inadmissible observables anyway (report only)"),
        p.add_argument("--exploratory", action="store_true",
                       help="allow periods above 2 in partial-qe scans (nothing asserted)"),
        p.add_argument("--out", help="output directory for CSV/JSON"),
    ]
    return {a.dest: a.option_strings[0] for a in actions}


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built on first use and shared by later calls."""
    parser = _Parser(prog="latticeqe", description=__doc__)
    sub = parser.add_subparsers(dest="experiment", metavar="|".join(EXPERIMENTS), parser_class=_Parser)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)  # absent flags stay unset
        flag = _add_flags(p)
        reads = [f"{key} reads {', '.join(map(flag.get, RUNS[key][1]))}" for key in RUNS if key.split()[0] == name]
        p.description = ("; ".join(reads) + "; --config, --seed and --out are accepted by every experiment. "
                         "Any other flag or config key must keep its default.")
    return parser


@functools.cache
def _field_names() -> frozenset[str]:
    """The config field names, gathered on first use and shared by later runs."""
    return frozenset(f.name for f in dataclasses.fields(ExperimentConfig))


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    names = _field_names()
    values = {}
    if "config" in args:
        try:
            values = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}")
        if not isinstance(values, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object, not {type(values).__name__}")
        unknown = ", ".join(map(repr, sorted(values.keys() - names)))
        if unknown:
            raise ConfigError(f"unknown config field {unknown} in {args.config}")
    values.update((key, value) for key, value in vars(args).items() if key in names)
    return ExperimentConfig(**values)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        cfg = _build_config(args)
        report = run(cfg)
    except ValueError as exc:  # ConfigError and LcViolationError included
        print(f"latticeqe: error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:  # a numerical failure, such as an unconverged solve; no report is written yet
        print(f"latticeqe: error: {args.experiment} failed: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # no report is written yet
        reason = str(exc) or "allocation failed"
        print(f"latticeqe: error: {args.experiment} ran out of memory: {reason}", file=sys.stderr)
        return 1
    try:
        paths = emit_report(report, cfg.out)
    except OSError as exc:  # no report is left behind
        print(f"latticeqe: error: cannot write the report: {exc}", file=sys.stderr)
        return 1
    status = "ok" if report.passed else "FAIL"
    print(
        f"{report.experiment}: {len(report.rows)} rows, {status}, "
        f"config {report.metadata['config_hash'][:12]}, {report.wall_time_s:.2f}s -> "
        + ", ".join(str(p) for p in paths)
    )
    return 0 if report.passed else 2


if __name__ == "__main__":
    raise SystemExit(main())
