"""Built-in diagonal observables for the experiment driver.

All builders return sup-norm <= 1 diagonals so every experiment can run
without external data files.
"""

from __future__ import annotations

import json

import numpy as np

from .lattice import LatticeBox, Observable

__all__ = ["BUILTIN_OBSERVABLES", "build_observable"]


def _coord1(box: LatticeBox) -> np.ndarray:
    # 1-based first coordinate of every site, flat in linear-index order
    return np.repeat(np.arange(1, box.sides[0] + 1), box.volume // box.sides[0])


def half_indicator(box: LatticeBox) -> Observable:
    """Indicator of the first half along coordinate 1."""
    x1 = _coord1(box)
    return Observable.diagonal(box, (x1 <= box.sides[0] // 2).astype(float))


def centered_half(box: LatticeBox) -> Observable:
    """Centered indicator of the middle half-box along coordinate 1.

    The first-half indicator is blind to the sine basis (its expectations
    are exactly the uniform average), so decay experiments use the centered
    block, whose variance shows the generic 1/N behavior.
    """
    s = box.sides[0]
    lo, hi = s // 4, s // 4 + s // 2
    x1 = _coord1(box)
    ind = ((x1 > lo) & (x1 <= hi)).astype(float)
    return Observable.diagonal(box, ind - ind.mean())


def single_site(box: LatticeBox) -> Observable:
    """Indicator of the corner site (1, ..., 1)."""
    vals = np.zeros(box.volume)
    vals[0] = 1.0
    return Observable.diagonal(box, vals)


def parity(box: LatticeBox) -> Observable:
    """Indicator of sites with odd coordinate sum."""
    total = sum(np.ix_(*(np.arange(1, n + 1) for n in box.sides)))  # broadcast per-axis coordinates
    vals = (total % 2 == 1).astype(float)
    return Observable.diagonal(box, vals.reshape(-1))


def block_constant(box: LatticeBox, q) -> Observable:
    """Half indicator over period-block indices along coordinate 1.

    Constant on every translate of the fundamental block, hence admissible
    for the partial-equidistribution experiments.
    """
    q = tuple(int(c) for c in q)
    if len(q) != box.d or any(s % c != 0 for s, c in zip(box.sides, q)):
        raise ValueError(f"periods {q} do not divide box sides {box.sides}")
    x1 = _coord1(box)
    block = (x1 - 1) // q[0]
    nblocks = box.sides[0] // q[0]
    return Observable.diagonal(box, (block < nblocks // 2).astype(float))


def random_diagonal(box: LatticeBox, seed: tuple[int, ...]) -> Observable:
    """Uniform diagonal with values in [-1, 1], drawn from ``default_rng(list(seed))``.

    The only place a generator is made, so a run that builds no random
    observable never loads ``numpy.random``.
    """
    if seed is None:
        raise ValueError("random-diagonal needs a seed key")
    return Observable.diagonal(box, np.random.default_rng(list(seed)).uniform(-1.0, 1.0, box.volume))


# Each builtin by name, its builder called with (box, q, seed); q defaults to all ones.
_BUILDERS = {
    "half-indicator": lambda box, q, seed: half_indicator(box),
    "centered-half": lambda box, q, seed: centered_half(box),
    "single-site": lambda box, q, seed: single_site(box),
    "parity": lambda box, q, seed: parity(box),
    "block-constant": lambda box, q, seed: block_constant(box, q if q is not None else (1,) * box.d),
    "random-diagonal": lambda box, q, seed: random_diagonal(box, seed),
}
BUILTIN_OBSERVABLES = tuple(_BUILDERS)


def build_observable(
    spec: str,
    box: LatticeBox,
    q=None,
    seed: tuple[int, ...] | None = None,
) -> Observable:
    """Resolve an observable spec: a builtin name or a JSON file of values.

    ``q`` sets the periods of ``block-constant`` (default all ones). ``seed``
    is the key of a ``random-diagonal``, a tuple of nonnegative ints whose
    values are drawn from ``np.random.default_rng(list(seed))``; the other
    observables ignore it.
    """
    if spec.endswith(".json"):
        with open(spec, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:
                raise ValueError(f"observable file {spec}: {exc}") from None
        if not isinstance(data, dict) or "values" not in data:
            raise ValueError(f"observable file {spec}: expected a JSON object with key 'values'")
        try:
            return Observable.diagonal(box, np.asarray(data["values"], dtype=float))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"observable file {spec}: key 'values': {exc}") from None
    if spec not in _BUILDERS:
        raise ValueError(f"unknown observable {spec!r} (builtins: {', '.join(BUILTIN_OBSERVABLES)})")
    return _BUILDERS[spec](box, q, seed)
