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
    """Per-axis source indices and the scaled sign tensor of the extension."""
    idxs, sgns = zip(*(_axis_maps(n) for n in sides))
    sign = sgns[0]
    for s in sgns[1:]:
        sign = np.multiply.outer(sign, s)
    return np.ix_(*idxs), 2.0 ** (-len(sides) / 2.0) * sign


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

    Embeds every basis column at once: one gather of the ``sides + (n,)``
    block, scaled in place by the sign tensor. The residual is then built
    in column chunks: the wraparound adjacency of the chunk as the in-place
    neighbour sum, minus its eigenvalues times the chunk. Each column gets
    the same floating-point operations as the embedding and neighbour sum
    of that column alone would give it, and the embedded block is the only
    block-sized array. Returns ``(max_residual, gram_error)``:
    the largest eigen-residual norm over the columns, and the max-norm
    deviation of the embedded family's Gram matrix from the identity.
    """
    box, n = basis.box, basis.n
    vectors = basis.vectors
    if not np.all(np.isfinite(vectors)):
        raise ValueError("basis vectors must be finite")
    index, sign = _embedding_maps(box.sides)
    images = vectors.reshape(box.sides + (n,))[index]
    images *= sign[..., None]
    max_residual = 0.0
    for c in range(0, n, _CHUNK):
        cols = slice(c, c + _CHUNK)
        chunk = images[..., cols]
        residual = np.zeros_like(chunk)
        _add_neighbours(residual, chunk, box.d, "periodic")
        residual -= basis.eigenvalues[cols] * chunk
        # np.linalg.norm copies each strided column to a contiguous vector first,
        # so every norm sums in the order of the one-column computation.
        max_residual = max(max_residual, *map(np.linalg.norm, residual.reshape(-1, residual.shape[-1]).T))
    E = images.reshape(-1, n)
    gram = E.conj().T @ E
    gram[np.diag_indices(n)] -= 1  # in place, the same subtraction as gram - eye(n)
    return float(max_residual), float(np.max(np.abs(gram)))
