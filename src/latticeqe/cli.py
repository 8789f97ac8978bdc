"""Command-line driver: ``latticeqe <experiment> [flags]``.

Flags may also come from a JSON config file (--config); explicit flags win.
Exit status: 0 when every assertion row passes, 2 when at least one fails,
1 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .experiments import EXPERIMENTS, ConfigError, ExperimentConfig, run
from .reporting import emit_report
from .schrodinger import LcViolationError


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


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built on first use and shared by later calls."""
    parser = _Parser(prog="latticeqe", description=__doc__)
    sub = parser.add_subparsers(dest="experiment", metavar="|".join(EXPERIMENTS), parser_class=_Parser)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file; flags override it")
        p.add_argument("--d", type=int, default=None, help="lattice dimension")
        p.add_argument("--N", dest="n_values", type=_int_list, default=None,
                       help="comma-separated ascending box sizes")
        p.add_argument("--obs", type=_str_list, default=None,
                       help="observable names or .json files, comma-separated")
        p.add_argument("--mode", choices=("dirichlet", "periodic"), default=None)
        p.add_argument("--q", type=_int_list, default=None, help="periods, comma-separated")
        p.add_argument("--potential", default=None, help="potential JSON file")
        p.add_argument("--M", dest="mass", type=float, default=None, help="staggered potential gap")
        p.add_argument("--task", choices=("counterexample", "partial-qe"), default=None)
        p.add_argument("--R", dest="max_offset", type=int, default=None, help="max kernel offset")
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--bound", type=float, default=None)
        p.add_argument("--random", dest="random_count", type=int, default=None,
                       help="number of seeded random diagonals to add")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--unchecked", action="store_true", default=None,
                       help="run inadmissible observables anyway (report only)")
        p.add_argument("--exploratory", action="store_true", default=None,
                       help="allow periods above 2 in partial-qe scans (nothing asserted)")
        p.add_argument("--out", default=None, help="output directory for CSV/JSON")
    return parser


def _build_config(experiment: str, args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig(experiment=experiment)
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {args.config}")
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed config file {args.config}: {exc}")
        for key, value in data.items():
            if key == "experiment":
                continue
            if not hasattr(cfg, key):
                raise ConfigError(f"unknown config field {key!r}")
            if key in ("n_values", "obs", "q") and value is not None:
                value = tuple(value)
            setattr(cfg, key, value)
    for key in ("d", "n_values", "obs", "mode", "q", "potential", "mass", "task",
                "max_offset", "tol", "bound", "random_count", "seed", "unchecked",
                "exploratory", "out"):
        value = getattr(args, key)
        if value is not None:
            setattr(cfg, key, value)
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        cfg = _build_config(args.experiment, args)
        report = run(cfg)
    except (ConfigError, LcViolationError, ValueError) as exc:
        print(f"latticeqe: error: {exc}", file=sys.stderr)
        return 1
    paths = emit_report(report, cfg.out)
    status = "ok" if report.passed else "FAIL"
    print(
        f"{report.experiment}: {len(report.rows)} rows, {status}, "
        f"config {report.metadata['config_hash'][:12]}, {report.wall_time_s:.2f}s -> "
        + ", ".join(str(p) for p in paths)
    )
    return 0 if report.passed else 2


if __name__ == "__main__":
    raise SystemExit(main())
