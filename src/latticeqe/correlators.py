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

The overlaps have a closed form: with ``a = j pi / (N+1)``,
``<s_j, rho_z s_j> = ((N-z) cos(za) + sin((z+1)a) / sin a) / (N+1)``, so their
gap to ``Phi`` is ``(U_z(cos a) - (z+1) cos(za)) / (N+1)`` (``U_z`` the
Chebyshev polynomial of the second kind): exactly 0 at ``z = 1``. Offsets
``z >= 2`` are computed from it in ``O(N)``; offset 1 is summed from the sine
factor by a streamed kernel that keeps the dense sum's bits, rounding noise
included.
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
    """Overlaps <s_j, rho_z s_j> for every frequency j on [[1, N]].

    Offset 0 gives ones and offsets ``|z| >= N`` give zeros. Offset 1 is the
    dense sum along x of the sine factor's products, bit for bit, from a
    streamed kernel; every other offset is the closed form of that sum,
    within rounding of it.
    """
    z = abs(int(z))
    if z == 0 or z >= N:
        return np.ones(N) if z == 0 else np.zeros(N)
    return _offset_one_overlaps(N) if z == 1 else _closed_form_overlaps(N, z)


def _closed_form_overlaps(N: int, z: int) -> np.ndarray:
    """Overlaps at offset ``z`` in [[1, N-1]] from their closed form, ``O(N)``.

    With ``a = j pi / (N+1)``, ``2 sin(ax) sin(a(x+z)) = cos(az) - cos(a(2x+z))``,
    and the sum over ``x`` in [[1, N-z]] gives
    ``((N-z) cos(za) - sin((N-z)a) (-1)^j / sin a) / (N+1)``. As
    ``(N-z)a - j pi = -(z+1)a``, the second term is ``sin((z+1)a) / sin a``.
    Each angle is an integer multiple of ``pi / (N+1)``, reduced as an integer
    below ``2 pi`` (and ``a`` to at most ``pi/2``, where ``sin a`` keeps its
    relative accuracy), so the result is within a few ``eps`` of the exact
    overlap at every ``N``, where the dense sum is within ``O(N eps)``.
    """
    K = N + 1
    j = np.arange(1, K)
    step = np.pi / K
    cos_za = np.cos(z * j % (2 * K) * step)
    ratio = np.sin((z + 1) * j % (2 * K) * step) / np.sin(np.minimum(j, K - j) * step)
    return ((N - z) * cos_za + ratio) / K


# Rows of the sine factor per block of the streamed offset-1 kernel.
_BLOCK = 64


def _offset_one_overlaps(N: int) -> np.ndarray:
    """Overlaps <s_j, rho_1 s_j> for ``N >= 2``, with the bits of the dense factor's sums.

    The factor ``S[x, j] = scale * sin(x j pi / (N+1))`` depends on the exact
    integer ``x j`` only, so it is symmetric bit for bit, and only its lower
    staircase is evaluated: ``ceil(N / _BLOCK)`` near-equal row blocks
    ``[r0, r1)``, each over the columns ``[0, r1)``. A block's own columns
    ``[r0, r1)`` take their rows ``x < r1`` from a contiguous copy of the
    block's transpose; earlier columns add the products of the block's rows
    with the rows above them (the first with the previous block's last row)
    to their running sums. Each column is summed along x in order, so the
    overlaps equal those of the dense factor bit for bit. Own columns are
    summed by ``einsum``, which adds the products in order into a zeroed
    output; that is the same sequence as a sum along x, as no product is
    ``±0`` (no sine argument is an exact multiple of pi). A running sum must
    start from its carried value, which ``einsum`` cannot, so it is written
    as the first row of the product buffer and summed with the block's
    products. Blocks hold at least two rows and columns: a single column
    would be reduced along its contiguous axis, where numpy sums pairwise.
    The block, its transpose and the products reuse three buffers, so a box
    allocates ``O(_BLOCK N)`` memory once.
    """
    out = np.empty(N)
    x = np.arange(1.0, N + 1.0)  # products x j < 2^53 are exact in floats
    scale = np.sqrt(2.0 / (N + 1))
    splits = np.array_split(np.arange(N), -(-N // _BLOCK))
    height = len(splits[0])
    block_buf, own_buf = np.empty(height * N), np.empty(height * N)
    prod_buf = np.empty((height + 1) * N)  # carried sums, then the products with earlier columns
    last = np.empty(N)  # the previous block's last row of the factor, columns [0, r0)
    for rows in splits:
        r0, r1 = int(rows[0]), int(rows[-1]) + 1
        m = r1 - r0
        block = block_buf[: m * r1].reshape(m, r1)  # the factor's rows [r0, r1), columns [0, r1)
        np.multiply.outer(x[r0:r1], x[:r1], out=block)
        block *= np.pi
        block /= N + 1
        np.sin(block, out=block)
        block *= scale
        own = own_buf[: r1 * m].reshape(r1, m)  # the factor's rows [0, r1), columns [r0, r1)
        own[...] = block.T
        np.einsum("ij,ij->j", own[:-1], own[1:], out=out[r0:r1])
        if r0:  # pairs (x, x + 1) with r0 <= x + 1 < r1, earlier columns
            prod = prod_buf[: (m + 1) * r0].reshape(m + 1, r0)
            prod[0] = out[:r0]
            np.multiply(last[:r0], block[0, :r0], out=prod[1])
            np.multiply(block[:-1, :r0], block[1:, :r0], out=prod[2:])
            out[:r0] = prod.sum(axis=0)
        last[:r1] = block[-1]
    return out


def wucha_error_scan(n_values, R: int) -> list[dict]:
    """Worst-frequency gap between shift overlaps and the spherical values.

    For each box size and each |z| <= R, reports
    max_j |<s_j, rho_z s_j> - Phi_{lam_j}(|z|)| together with its product
    with N; the product stays bounded along the scan while the error itself
    decays like 1/N. The overlaps are those of :func:`sine_shift_overlaps`:
    one streamed pass over the lower half of the sine factor per box size for
    ``z = 1``, and ``O(N)`` closed forms for the other offsets.
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
        for z, sph in enumerate(_spherical_orders(lam, R)):
            err = float(np.max(np.abs(sine_shift_overlaps(N, z) - sph)))
            rows.append({"N": N, "z": z, "max_err": err, "err_times_N": err * N})
    return rows
