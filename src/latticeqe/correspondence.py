"""Embedding of zero-boundary eigenfunctions into wraparound boxes.

A function on the box with sides ``n_l`` extends to the doubled box with
sides ``2 n_l + 2`` by three conditions: it equals ``2^(-d/2)`` times the
source on the original block, vanishes on every hyperplane where some
coordinate is divisible by ``n_l + 1``, and is antisymmetric under the
reflection ``x_l -> -x_l`` (mod ``2 n_l + 2``) of each coordinate. The extension
exists, is unique, preserves norms and inner products, and sends adjacency
eigenfunctions to eigenfunctions of the wraparound adjacency with the same
eigenvalue. This module certifies that for a whole eigenfamily at once.
"""

from __future__ import annotations

import numpy as np

from .lattice import Wavefunction
from .spectra import SpectralData, _add_neighbours

__all__ = ["verify_correspondence", "verify_correspondence_family"]


def _axis_maps(n: int):
    """Source index (0-based) and sign for each target coordinate v in [[1, 2n+2]]; walls get 0 and 0."""
    v = np.arange(1, 2 * n + 3)
    wall, low = v % (n + 1) == 0, v <= n
    idx = np.where(wall, 0, np.where(low, v - 1, 2 * n + 1 - v))
    sgn = np.where(wall, 0.0, np.where(low, 1.0, -1.0))
    return idx, sgn


def _embedding_maps(sides):
    """The source site (flat, row-major) of every target site, and the scaled sign tensor of the extension."""
    idxs, sgns = zip(*(_axis_maps(n) for n in sides))
    sign = sgns[0]
    for s in sgns[1:]:
        sign = np.multiply.outer(sign, s)
    return np.ravel_multi_index(np.ix_(*idxs), sides), 2.0 ** (-len(sides) / 2.0) * sign


def verify_correspondence(psi: Wavefunction, lam: float) -> float:
    """Eigen-residual of the embedded function under the wraparound adjacency.

    The input must be an eigenfunction for eigenvalue lam, normalized to
    within 1e-8; returns ||A_periodic E psi - lam E psi||, E the extension, the
    residual that :func:`verify_correspondence_family` gives the one-column
    family.
    """
    if abs(psi.norm() - 1.0) > 1e-8:
        raise ValueError(f"input not normalized: ||psi|| = {psi.norm()}")
    return verify_correspondence_family(SpectralData(psi.box, np.array([lam]), psi.values[:, None]))[0]


# Columns per chunk of the residual.
_CHUNK = 16


def verify_correspondence_family(basis: SpectralData):
    """Batch certification of an embedded orthonormal eigenfamily.

    Embeds every basis column at once: one gather of the source sites from
    the transposed vectors into a C-contiguous ``(n,) + doubled sides``
    block, columns first, scaled in place by the sign tensor. The residual
    is then built in chunks of whole columns: the wraparound adjacency of
    the chunk as the in-place neighbour sum over the trailing axes, minus
    its eigenvalues times the chunk. Each column gets the same
    floating-point operations as the embedding and neighbour sum of that
    column alone would give it, and the embedded block is the only
    block-sized array. A real column's squared norm is ``np.dot`` of its
    contiguous row with itself, the ``ddot`` that ``np.linalg.norm`` runs,
    with one ``sqrt`` at the maximum; a complex column keeps
    ``np.linalg.norm``. Returns
    ``(max_residual, gram_error)``: the largest eigen-residual norm over the
    columns, and the max-norm deviation of the embedded family's Gram matrix
    from the identity.
    """
    box, n = basis.box, basis.n
    vectors = basis.vectors
    if not np.all(np.isfinite(vectors)):
        raise ValueError("basis vectors must be finite")
    source, sign = _embedding_maps(box.sides)
    images = np.take(np.ascontiguousarray(vectors.T), source.ravel(), axis=1).reshape((n,) + sign.shape)
    images *= sign
    max_residual = max_square = 0.0
    for c in range(0, n, _CHUNK):
        chunk = images[c:c + _CHUNK]
        residual = np.zeros_like(chunk)
        _add_neighbours(np.moveaxis(residual, 0, -1), np.moveaxis(chunk, 0, -1), box.d, "periodic")
        residual -= basis.eigenvalues[c:c + _CHUNK].reshape((-1,) + (1,) * box.d) * chunk
        rows = residual.reshape(len(chunk), -1)
        if np.iscomplexobj(rows):
            max_residual = max(max_residual, *map(np.linalg.norm, rows))
        else:  # np.linalg.norm's ddot without its sqrt, which is monotone: one sqrt at the largest square
            max_square = max(max_square, *map(np.dot, rows, rows))
    E = images.reshape(n, -1)
    gram = E.conj() @ E.T
    gram[np.diag_indices(n)] -= 1  # in place, the same subtraction as gram - eye(n)
    return float(max(max_residual, np.sqrt(max_square))), float(np.max(np.abs(gram)))
