"""Shift overlaps of sine eigenfunctions and the one-dimensional universality scan.

The zero-boundary translation ``rho_z`` of a function on ``[[1, N]]`` is
``(rho_z psi)(x) = psi(x + z)`` where ``x + z`` stays in the box, else 0.
The shift overlaps ``<s_j, rho_z s_j>`` of the sine eigenfunctions admit a
universal description through the spherical function

    Phi_lam(n) = cos(n arccos(lam / 2)),

realized operator-wise by Chebyshev-type matrices T_n (value 1/2 at distance
n from the diagonal) satisfying T_{n+1} = A T_n - T_{n-1}; away from the
boundary the box recursion reproduces the full-line pattern exactly, which
pins the overlap error down to O(1/N).
"""

from __future__ import annotations

import numpy as np

from .spectra import _add_neighbours, _lam1

__all__ = [
    "spherical",
    "chebyshev_operator",
    "sine_shift_overlaps",
    "wucha_error_scan",
]


def spherical(lam: float, n: int) -> float:
    """Spherical function of the line at spectral parameter lam, order n.

    Evaluated by the three-term recursion (rather than arccos) to stay exact
    against the operator recursion near the spectral edges.
    """
    if abs(lam) > 2.0:
        raise ValueError(f"spectral parameter {lam} outside [-2, 2]")
    if n < 0:
        raise ValueError("order must be nonnegative")
    return float(_spherical_orders(lam, n)[n])


def _spherical_orders(lam, n: int) -> list:
    """Phi_lam(0), ..., Phi_lam(n) by the three-term recursion.

    ``lam`` may be an array: each entry then goes through the same
    floating-point operations as the scalar recursion, so the values agree
    bit for bit. Order 0 is the scalar 1.0.
    """
    prev, cur = 1.0, lam / 2.0
    orders = [prev, cur]
    for _ in range(n - 1):
        prev, cur = cur, lam * cur - prev
        orders.append(cur)
    return orders[: n + 1]


def chebyshev_operator(n: int, N: int) -> np.ndarray:
    """The matrix Phi_A(n) on [[1, N]] built by the operator recursion, ``A T`` as a neighbour sum."""
    if not 0 <= n <= N - 1:
        raise ValueError(f"order {n} outside [[0, {N - 1}]]")
    prev = np.eye(N)
    if n == 0:
        return prev
    cur = np.zeros((N, N))
    _add_neighbours(cur, prev / 2.0, 1, "dirichlet")
    for _ in range(n - 1):
        nxt = np.zeros((N, N))
        _add_neighbours(nxt, cur, 1, "dirichlet")
        nxt -= prev
        prev, cur = cur, nxt
    return cur


def sine_shift_overlaps(N: int, z: int) -> np.ndarray:
    """Overlaps <s_j, rho_z s_j> for every frequency j on [[1, N]]."""
    z = abs(int(z))
    if z == 0 or z >= N:
        return np.ones(N) if z == 0 else np.zeros(N)
    return _shift_overlaps(N, (z,))[0]


# Rows of the sine factor per block of the streamed overlap kernel.
_BLOCK = 64


def _shift_overlaps(N: int, offsets) -> np.ndarray:
    """Overlaps <s_j, rho_z s_j>, one row per offset z in [[1, N-1]].

    The factor ``S[x, j] = scale * sin(x j pi / (N+1))`` depends on the exact
    integer ``x j`` only, so it is symmetric bit for bit, and only its lower
    staircase is evaluated: ``ceil(N / _BLOCK)`` near-equal row blocks
    ``[r0, r1)``, each over the columns ``[0, r1)``. A block's own columns
    ``[r0, r1)`` take their rows ``x < r1`` from a contiguous copy of the
    block's transpose; earlier columns add the block's rows to their running
    sums, reading the last ``max(offsets)`` rows before the block from a
    carried halo. Each column is summed along x in order, so the overlaps
    equal those of the dense factor bit for bit. Own columns are summed by
    ``einsum``, which adds the products in order into a zeroed output; that
    is the same sequence as a sum along x, as no product is ``±0`` (no sine
    argument is an exact multiple of pi). A running sum must start from its
    carried value, which ``einsum`` cannot, so it is written as the first
    row of the product buffer and summed with the block's products. Blocks
    hold at least two rows and columns: a single column would be reduced
    along its contiguous axis, where numpy sums pairwise.
    """
    offsets = list(offsets)
    out = np.zeros((len(offsets), N))
    if not offsets:
        return out
    R = max(offsets)
    x = np.arange(1.0, N + 1.0)  # products x j < 2^53 are exact in floats
    scale = np.sqrt(2.0 / (N + 1))
    halo = np.empty((0, 0))  # rows [lo, r0) of the factor, columns [0, r0)
    buf = np.empty((_BLOCK + 1) * N)  # carried sums, then the products of one offset
    for rows in np.array_split(np.arange(N), -(-N // _BLOCK)):
        r0, r1 = int(rows[0]), int(rows[-1]) + 1
        lo = r0 - len(halo)
        end = r1 - lo
        window = np.empty((end, r1))  # the factor's rows [lo, r1), columns [0, r1)
        window[: r0 - lo, :r0] = halo
        block = window[r0 - lo:]
        np.multiply.outer(x[r0:r1], x[:r1], out=block)
        block *= np.pi
        block /= N + 1
        np.sin(block, out=block)
        block *= scale
        own = np.ascontiguousarray(block.T)  # the factor's rows [0, r1), columns [r0, r1)
        window[: r0 - lo, r0:] = own[lo:r0]  # for the next halo, when it reaches above r0
        for row, z in zip(out, offsets):
            if r1 > z:  # pairs (x, x + z) with x + z < r1, own columns
                np.einsum("ij,ij->j", own[: r1 - z], own[z:r1], out=row[r0:r1])
            m = min(r1 - r0, r1 - z)  # pairs with r0 <= x + z < r1, earlier columns
            if r0 and m > 0:
                prod = buf[: (m + 1) * r0].reshape(m + 1, r0)
                prod[0] = row[:r0]
                np.multiply(window[end - m - z: end - z, :r0], window[end - m:, :r0], out=prod[1:])
                row[:r0] = prod.sum(axis=0)
        halo = window[max(0, r1 - R) - lo:].copy()
    return out


def wucha_error_scan(n_values, R: int) -> list[dict]:
    """Worst-frequency gap between shift overlaps and the spherical values.

    For each box size and each |z| <= R, reports
    max_j |<s_j, rho_z s_j> - Phi_{lam_j}(|z|)| together with its product
    with N; the product stays bounded along the scan while the error itself
    decays like 1/N. The overlaps of all offsets come from one streamed pass
    over the lower half of the sine factor per box size.
    """
    n_values = [int(N) for N in n_values]
    if not n_values:
        raise ValueError("need at least one box size")
    if R < 0:
        raise ValueError(f"offset range {R} is negative")
    if R > min(n_values) - 1:
        raise ValueError(f"offset range {R} too large for smallest box {min(n_values)}")
    rows = []
    for N in n_values:
        lam = _lam1("dirichlet", N)
        if np.any(np.abs(lam) > 2.0):
            raise ValueError(f"spectral parameters outside [-2, 2] for N = {N}")
        overlaps = [np.ones(N), *_shift_overlaps(N, range(1, R + 1))]
        for z, (ov, sph) in enumerate(zip(overlaps, _spherical_orders(lam, R))):
            err = float(np.max(np.abs(ov - sph)))
            rows.append({"N": N, "z": z, "max_err": err, "err_times_N": err * N})
    return rows
