"""Finite boxes of the integer lattice and the objects living on them.

A box is a product of 1-based integer ranges ``[[1, side_l]]``. Functions on
a box are stored flat in row-major site order, coordinate 1 slowest.
Wavefunctions are square-summable functions on a box; observables are
diagonal functions or finite-range kernels stored sparsely by offset
``z``, whose entries live on the shift set ``L_z`` of sites ``x`` with
``x + z`` still in the box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BoxMismatchError",
    "UnsupportedPeriodError",
    "LatticeBox",
    "cube",
    "Wavefunction",
    "Observable",
    "ShiftSet",
    "shift_set",
]


class BoxMismatchError(ValueError):
    """Operands are attached to different boxes."""


class UnsupportedPeriodError(ValueError):
    """Period structure outside the supported range."""


@dataclass(frozen=True)
class LatticeBox:
    """The box ``prod_l [[1, sides[l]]]`` with 1-based coordinates."""

    sides: tuple[int, ...]

    def __post_init__(self):
        sides = tuple(int(s) for s in self.sides)
        if len(sides) < 1:
            raise ValueError("a box needs at least one dimension")
        if any(s < 1 for s in sides):
            raise ValueError(f"box sides must be positive, got {sides}")
        object.__setattr__(self, "sides", sides)

    @property
    def d(self) -> int:
        return len(self.sides)

    @property
    def volume(self) -> int:
        out = 1
        for s in self.sides:
            out *= s
        return out


def cube(N: int, d: int) -> LatticeBox:
    """The cube ``[[1, N]]^d``."""
    return LatticeBox((N,) * d)


@dataclass(frozen=True, eq=False)
class Wavefunction:
    """A complex-valued function on a box, stored flat in linear-index order.

    Treat instances as immutable; all operations return new objects.
    """

    box: LatticeBox
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.dtype.kind not in "fc":
            vals = vals.astype(float)
        vals = vals.reshape(-1)
        if vals.size != self.box.volume:
            raise ValueError(
                f"expected {self.box.volume} values for box {self.box.sides}, got {vals.size}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("wavefunction values must be finite")
        object.__setattr__(self, "values", vals)

    def grid(self) -> np.ndarray:
        return self.values.reshape(self.box.sides)

    @classmethod
    def from_grid(cls, box: LatticeBox, grid) -> "Wavefunction":
        return cls(box, np.asarray(grid).reshape(-1))

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


@dataclass(eq=False)
class Observable:
    """A diagonal observable or finite-range kernel on a box.

    Entries are stored per offset ``z``: ``offsets[z][i]`` holds ``K(x, x+z)``
    for the site ``x`` with linear index ``i``. Entries at sites where
    ``x + z`` leaves the box must vanish.
    """

    box: LatticeBox
    offsets: dict[tuple[int, ...], np.ndarray]

    def __post_init__(self):
        clean = {}
        for z, vals in self.offsets.items():
            z = tuple(int(c) for c in z)
            if len(z) != self.box.d:
                raise ValueError(f"offset {z} has wrong dimension for box {self.box.sides}")
            vals = np.asarray(vals)
            if vals.dtype.kind not in "fc":
                vals = vals.astype(float)
            vals = vals.reshape(-1)
            if vals.size != self.box.volume:
                raise ValueError(f"offset {z}: expected {self.box.volume} entries")
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"offset {z}: entries must be finite")
            if any(z) and np.any(vals[~shift_set(self.box, z).mask] != 0):  # every site keeps offset 0
                raise ValueError(f"offset {z}: nonzero entries at sites where x+z leaves the box")
            clean[z] = vals
        self.offsets = clean

    @classmethod
    def diagonal(cls, box: LatticeBox, values) -> "Observable":
        return cls(box, {(0,) * box.d: np.asarray(values).reshape(-1)})

    @classmethod
    def kernel(cls, box: LatticeBox, offsets: dict) -> "Observable":
        return cls(box, offsets)

    @property
    def kind(self) -> str:
        zero = (0,) * self.box.d
        return "diagonal" if all(z == zero for z in self.offsets) else "kernel"

    @property
    def range(self) -> int:
        if not self.offsets:
            return 0
        return max(sum(abs(c) for c in z) for z in self.offsets)

    @property
    def sup_norm(self) -> float:
        if not self.offsets:
            return 0.0
        return float(max(np.max(np.abs(v)) for v in self.offsets.values()))

    def diag(self) -> np.ndarray:
        zero = (0,) * self.box.d
        if zero in self.offsets:
            return self.offsets[zero]
        return np.zeros(self.box.volume)

    def require_diagonal(self) -> np.ndarray:
        if self.kind != "diagonal":
            raise ValueError("operation requires a diagonal observable")
        return self.diag()

    def to_matrix(self) -> np.ndarray:
        """Dense matrix ``M[i, j] = K(x_i, x_j)``.

        Nonzero entries lie inside the shift set of their offset, so site
        ``i`` pairs with ``j = i + sum_l z_l * stride_l`` in row-major order.
        """
        vol = self.box.volume
        dtype = complex if any(v.dtype.kind == "c" for v in self.offsets.values()) else float
        M = np.zeros((vol, vol), dtype=dtype)
        sides = self.box.sides
        strides = [int(np.prod(sides[l + 1 :])) for l in range(len(sides))]
        for z, vals in self.offsets.items():
            i = np.flatnonzero(vals)
            M[i, i + sum(zl * sl for zl, sl in zip(z, strides))] = vals[i]
        return M


@dataclass(frozen=True, eq=False)
class ShiftSet:
    """The set ``L_z`` of sites x with x+z still inside the box."""

    box: LatticeBox
    z: tuple[int, ...]
    mask: np.ndarray  # flat boolean, linear-index order


def shift_set(box: LatticeBox, z) -> ShiftSet:
    z = tuple(int(c) for c in z)
    if len(z) != box.d:
        raise ValueError(f"offset {z} has wrong dimension for box {box.sides}")
    axis_masks = []
    for zl, s in zip(z, box.sides):
        x = np.arange(1, s + 1)
        axis_masks.append((x + zl >= 1) & (x + zl <= s))
    mask = axis_masks[0]
    for am in axis_masks[1:]:
        mask = np.multiply.outer(mask, am)
    return ShiftSet(box, z, mask.reshape(-1))
