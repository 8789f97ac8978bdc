"""Experiment implementations behind the command-line driver."""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
import time
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .correspondence import verify_correspondence_family
from .lattice import UnsupportedPeriodError, cube
from .observables import build_observable
from .reporting import ExperimentReport, config_hash
from .schrodinger import (
    LcViolationError,
    counterexample_mass_profile,
    counterexample_potential,
    lattice_block,
    load_potential,
    partial_qe_experiment,
)
from .spectra import (
    _grid_points,
    _sign_pairs,
    bloch_basis,
    dirichlet_eigenvalues,
    lemma_c1_bins,
    periodic_eigenvalues,
    sine_basis,
)
from .time_average import bessel_bound_check, centered, quantum_variance
from .correlators import wucha_error_scan

__all__ = ["ConfigError", "ExperimentConfig", "EXPERIMENTS", "RUNS", "reader", "run"]


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass
class ExperimentConfig:
    """Run settings; a ``--config`` file is a JSON object of these fields, arrays for tuples, flags win."""

    experiment: str
    d: int = 1
    n_values: tuple[int, ...] = ()
    obs: tuple[str, ...] = ("half-indicator",)
    mode: str = "dirichlet"
    q: tuple[int, ...] | None = None
    potential: str | None = None
    mass: float = 100.0
    task: str = "counterexample"
    max_offset: int = 3
    tol: float = 1e-10
    bound: float | None = None
    random_count: int = 0
    seed: int = 0
    unchecked: bool = False
    exploratory: bool = False
    out: str = field(default=".", compare=False)  # execution detail, not part of the config identity

    def canonical(self) -> dict:
        """The config identity: every compared field, tuples as lists."""
        return {f.name: list(v) if isinstance(v := getattr(self, f.name), tuple) else v
                for f in fields(self) if f.compare}

    def validate(self):
        """Check each field against its annotation, that the fields the run does not read (``RUNS``, by
        experiment and schrodinger task) keep their defaults, then the values; ``ConfigError`` (exit 1) if bad."""
        shapes = _shapes()
        for f in fields(self):
            value = getattr(self, f.name)
            try:
                setattr(self, f.name, _conform(*shapes[f.name], value))
            except (TypeError, OverflowError):  # OverflowError: an int too large for a float field
                raise ConfigError(f"config field {f.name!r} expects {f.type}, got {value!r}") from None
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        key = reader(self.experiment, self.task)
        if key not in RUNS:
            raise ConfigError(f"unknown schrodinger task {self.task!r}")
        _, reads = RUNS[key]
        for f in fields(self):
            value = getattr(self, f.name)  # same type as well as value: a run records what it was given
            if f.name not in reads + _READ_BY_ALL and (type(value) is not type(f.default) or value != f.default):
                raise ConfigError(f"config field {f.name!r}: {key} reads only {', '.join(reads)} "
                                  f"(and seed, out), so {f.name!r} must keep its default {f.default!r}")
        if not self.n_values:
            raise ConfigError("need at least one box size (--N)")
        if list(self.n_values) != sorted(self.n_values) or len(set(self.n_values)) != len(self.n_values):
            raise ConfigError(f"box sizes must be strictly ascending, got {self.n_values}")
        if any(N < 1 for N in self.n_values):
            raise ConfigError("box sizes must be positive")
        if self.d < 1:
            raise ConfigError("dimension must be positive")
        for name, flag in (("max_offset", "R"), ("random_count", "random"), ("seed", "seed"), ("bound", "bound"),
                           ("tol", "tol")):
            if (value := getattr(self, name)) is not None and value < 0:
                raise ConfigError(f"config field {name!r} (--{flag}) must be nonnegative, got {value!r}")
        if self.random_count > sys.maxsize:  # no list of observables can be that long
            raise ConfigError(f"config field 'random_count' (--random) must be at most {sys.maxsize}, "
                              f"got {self.random_count}")
        if self.mode not in ("dirichlet", "periodic"):
            raise ConfigError(f"unknown boundary mode {self.mode!r}")
        if any(c < 1 for c in self.q or ()):
            raise ConfigError(f"config field 'q' (--q) needs periods of at least 1, got {self.q}")
        if not self.obs and "obs" in reads and not self.random_count:
            raise ConfigError(f"config field 'obs' (--obs): {self.experiment} needs at least one observable")
        if self.experiment == "var-scan" and len(self.obs) > 1:
            raise ConfigError(f"config field 'obs' (--obs): var-scan scans one observable, got {list(self.obs)}")
        # a repeated entry would only repeat its rows (in schrodinger even a random-diagonal's draw)
        if repeated := next((spec for i, spec in enumerate(self.obs) if spec in self.obs[:i]), None):
            raise ConfigError(f"config field 'obs' (--obs) lists {repeated!r} more than once")
        if self.potential is not None and not Path(self.potential).is_file():
            raise ConfigError(f"potential file not found: {self.potential}")
        for spec in self.obs:
            if spec.endswith(".json") and not Path(spec).is_file():
                raise ConfigError(f"observable file not found: {spec}")
        out = Path(self.out)
        nearest = next(path for path in (out, *out.parents) if path.exists())  # "." or "/" at the latest
        if not nearest.is_dir():
            raise ConfigError(f"output directory (--out) {self.out!r} cannot be made: "
                              f"{str(nearest)!r} is not a directory")


@functools.cache
def _shapes() -> dict[str, tuple[bool, bool, type]]:
    """Each field's annotation as (optional, tuple of items, scalar type), resolved on first use.

    The annotations are strings; ``validate`` reads this table on every run.
    """
    shapes = {}
    for name, hint in typing.get_type_hints(ExperimentConfig).items():
        args = typing.get_args(hint)
        optional = type(None) in args
        if optional:
            hint = args[0]
        many = typing.get_origin(hint) is tuple
        shapes[name] = (optional, many, typing.get_args(hint)[0] if many else hint)
    return shapes


def _conform(optional: bool, many: bool, kind: type, value):
    """``value`` as a field of this shape (see ``_shapes``) stores it; ``TypeError`` if mistyped.

    A bool is no number.
    """
    if optional and value is None:
        return None
    if many:
        if not isinstance(value, (list, tuple)):
            raise TypeError
        return tuple(_conform(False, False, kind, v) for v in value)
    if isinstance(value, bool) != (kind is bool):
        raise TypeError
    if kind is int:
        return operator.index(value)
    if kind is float and math.isfinite(value):
        return value
    if kind in (str, bool) and isinstance(value, kind):
        return value
    raise TypeError


def _basis(cfg: ExperimentConfig, N: int):
    if cfg.mode == "periodic":
        return bloch_basis(N, cfg.d)
    return sine_basis(N, cfg.d)


def _columns(names: str, records) -> dict[str, list]:
    """A table from one tuple per row, holding the cells of the space-separated ``names`` in order."""
    records = list(records)
    return {name: [r[i] for r in records] for i, name in enumerate(names.split())}


# Each experiment's tag in the keys of its random-diagonal draws: [seed, tag, N], and [seed, tag, N, i] in
# bessel. numpy pads a key with zeros, so without the tags bessel's [seed, N, 0] would draw var-scan's [seed, N].
_SEED_TAGS = {"var-scan": 1, "schrodinger": 2, "bessel": 3}


def _run_var_scan(cfg: ExperimentConfig):
    spec = cfg.obs[0]
    bound = cfg.bound if cfg.bound is not None else 1.0

    def one(N):
        a = build_observable(spec, cube(N, cfg.d), q=cfg.q, seed=(cfg.seed, _SEED_TAGS["var-scan"], N))
        var = quantum_variance(_basis(cfg, N), centered(a))
        return N, var, var * N, var * N <= bound

    return _columns("N var var_times_N pass", map(one, cfg.n_values))


def _run_degeneracy(cfg: ExperimentConfig):
    def one(N):
        basis = _basis(cfg, N)
        sizes = np.bincount(basis.labels)
        label = np.empty((N,) * cfg.d, dtype=basis.labels.dtype)
        label.flat[basis.order] = basis.labels  # the class of each frequency
        # a frequency and its axis-sorted permutation share a class
        perm_ok = bool(np.array_equal(label, label[tuple(np.sort(np.indices(label.shape), axis=0))]))
        singles = bool(np.all(sizes == 1))
        ok = perm_ok and (singles if cfg.d == 1 and cfg.mode == "dirichlet" else True)
        return N, sizes.size, int(sizes.max()), int(sizes @ sizes), singles, perm_ok, ok

    return _columns("N n_classes max_class_size sum_sq_sizes all_singletons perm_consistent pass",
                    map(one, cfg.n_values))


def _run_lemma_c1(cfg: ExperimentConfig):
    d = cfg.d
    table = {name: [] for name in ("N", "theta", "t", "eps", "epsp", "count", "bound", "pass")}
    # Every cell string is formatted once per value: per sign vector (the first
    # 2^d eps' of the sign pairs, in index order), and per grid point from
    # per-axis lookup tables.
    signs = np.array([";".join(map(str, eps)) for eps in _sign_pairs(d)[1][: 2**d].tolist()], dtype=object)
    for N in cfg.n_values:
        s, t, count = lemma_c1_bins(N, d)  # in sorted((t, eps, eps')) order
        points, at = np.unique(t, return_inverse=True)
        axis = range(-2 * N, 2 * N + 1)
        theta = {tl: repr(tl / (N + 1)) for tl in axis}
        text = {tl: str(tl) for tl in axis}
        coords = _grid_points(points, N, d)
        for name, strings in (("theta", theta), ("t", text)):
            cells = np.array([";".join(map(strings.__getitem__, c)) for c in coords], dtype=object)
            table[name] += cells[at].tolist()
        eps, epp = np.divmod(s, 2**d)
        table["eps"] += signs[eps].tolist()
        table["epsp"] += signs[epp].tolist()
        bound = 2 * N ** (d - 1)
        table["N"] += [N] * len(count)
        table["count"] += count.tolist()
        table["bound"] += [bound] * len(count)
        table["pass"] += (count <= bound).tolist()
    return table


def _spectral_inclusion_error(N: int, d: int) -> float:
    dir_eigs = dirichlet_eigenvalues(N, d)
    per_eigs = periodic_eigenvalues(2 * N + 2, d)
    # fl(a - b) is monotone in b, so the nearest value is a neighbour of a's place in the sorted spectrum
    above = np.searchsorted(per_eigs, dir_eigs)
    gaps = [np.abs(dir_eigs - per_eigs[np.clip(i, 0, per_eigs.size - 1)]) for i in (above - 1, above)]
    return float(np.max(np.minimum(*gaps)))


def _run_correspond(cfg: ExperimentConfig):
    def one(N):
        max_residual, gram_error = verify_correspondence_family(sine_basis(N, cfg.d))
        inclusion = _spectral_inclusion_error(N, cfg.d)
        ok = max_residual <= cfg.tol and gram_error <= cfg.tol and inclusion <= cfg.tol
        return N, cfg.d, max_residual, gram_error, inclusion, ok

    return _columns("N d max_residual gram_error spectral_inclusion_error pass", map(one, cfg.n_values))


def _run_counterexample(cfg: ExperimentConfig):
    def one(N):
        profile = counterexample_mass_profile(cfg.mass, N)
        complete = profile.bands_complete
        return (N, cfg.mass, 2 * N, profile.low_band_count, profile.high_band_count, complete,
                profile.max_low_even_mass, profile.max_high_odd_mass, profile.mass_bound,
                complete and profile.bound_holds)

    return _columns("N M volume low_band_count high_band_count bands_complete max_low_even_mass "
                    "max_high_odd_mass mass_bound pass", map(one, cfg.n_values))


def _run_partial_qe(cfg: ExperimentConfig):
    potential = load_potential(cfg.potential) if cfg.potential else counterexample_potential(cfg.mass)
    q = ";".join(str(c) for c in potential.q)
    first_var: dict[str, float] = {}

    def one(spec, N):
        box = lattice_block(potential.q, N)
        a = build_observable(spec, box, q=potential.q, seed=(cfg.seed, _SEED_TAGS["schrodinger"], N))
        try:
            result = partial_qe_experiment(potential, N, a, enforce_lc=not cfg.unchecked,
                                           exploratory=cfg.exploratory)
        except UnsupportedPeriodError as exc:
            raise ConfigError(f"{exc}; pass --exploratory to scan anyway (no guarantees)") from None
        except LcViolationError as exc:
            raise LcViolationError(f"{exc}; rerun with --unchecked to measure the failing observable") from None
        if result.lc_checked:
            ok = result.variance <= first_var.setdefault(spec, result.variance) + 1e-15
        else:
            ok = True  # reporting only: inadmissible observable, nothing asserted
        return N, q, spec, result.variance, result.lc_deviation, result.lc_checked, ok

    return _columns("N q obs variance lc_deviation lc_checked pass",
                    itertools.starmap(one, itertools.product(cfg.obs, cfg.n_values)))


def _run_correlator(cfg: ExperimentConfig):
    rows = wucha_error_scan(cfg.n_values, cfg.max_offset)
    scan = {name: [row[name] for row in rows] for name in ("N", "z", "max_err", "err_times_N")}
    first = {}
    for z, scaled in zip(scan["z"], scan["err_times_N"]):
        first.setdefault(z, scaled)
    if cfg.bound is not None:
        bound = [cfg.bound] * len(scan["z"])
    else:
        bound = [max(2.0 * first[z], 1e-8) for z in scan["z"]]
    return {**scan, "bound": bound, "pass": list(map(operator.le, scan["err_times_N"], bound))}


def _run_bessel(cfg: ExperimentConfig):
    specs = list(cfg.obs) + ["random-diagonal"] * cfg.random_count

    def records():
        for N in cfg.n_values:
            box = cube(N, cfg.d)
            for i, spec in enumerate(specs):
                a = build_observable(spec, box, q=cfg.q, seed=(cfg.seed, _SEED_TAGS["bessel"], N, i))
                lhs, rhs = bessel_bound_check(a)
                name = spec if spec != "random-diagonal" else f"random-diagonal-{i}"
                yield N, cfg.d, name, lhs, rhs, rhs - lhs, lhs <= rhs * (1 + 1e-12)

    return _columns("N d obs lhs rhs slack pass", records())


def reader(experiment: str, task: str) -> str:
    """The key of ``RUNS`` for a run: the experiment, and for schrodinger its task too."""
    return f"{experiment} --task {task}" if experiment == "schrodinger" else experiment


# Each run, keyed by ``reader(experiment, task)``: its runner and the config
# fields it reads. Every other field must keep its default, except those in
# _READ_BY_ALL: ``seed`` too is accepted everywhere, so one seed can be passed
# to every job whether or not its observables are random.
RUNS = {key: (runner, tuple(names.split())) for key, runner, names in (
    ("var-scan", _run_var_scan, "d n_values obs mode q bound"),
    ("degeneracy", _run_degeneracy, "d n_values mode"),
    ("lemma-c1", _run_lemma_c1, "d n_values"),
    ("correspond", _run_correspond, "d n_values tol"),
    ("schrodinger --task counterexample", _run_counterexample, "n_values task mass"),
    ("schrodinger --task partial-qe", _run_partial_qe, "n_values task mass potential obs unchecked exploratory"),
    ("correlator", _run_correlator, "n_values max_offset bound"),
    ("bessel", _run_bessel, "d n_values obs q random_count"),
)}
EXPERIMENTS = tuple(dict.fromkeys(key.split()[0] for key in RUNS))  # the subcommands, in order
_READ_BY_ALL = ("experiment", "seed", "out")


def run(cfg: ExperimentConfig) -> ExperimentReport:
    """Validate, dispatch, and package an experiment run."""
    cfg.validate()
    start = time.perf_counter()
    runner, _ = RUNS[reader(cfg.experiment, cfg.task)]
    table = runner(cfg)
    wall = time.perf_counter() - start
    canonical = cfg.canonical()
    metadata = {"version": __version__, "config_hash": config_hash(canonical), "config": canonical}
    return ExperimentReport(cfg.experiment, list(table), list(table.values()), metadata, wall_time_s=wall)

