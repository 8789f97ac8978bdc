"""Embedding of zero-boundary eigenfunctions into wraparound boxes.

A function on the box with sides ``n_l`` extends to the doubled box with
sides ``2 n_l + 2`` by three conditions: it equals ``2^(-d/2)`` times the
source on the original block, vanishes on every hyperplane where some
coordinate is divisible by ``n_l + 1``, and is antisymmetric under the
reflection of each coordinate. The extension exists, is unique, preserves
norms and inner products, and sends adjacency eigenfunctions to eigenfunctions
of the wraparound adjacency with the same eigenvalue.
"""

from __future__ import annotations

import numpy as np

from .lattice import LatticeBox, Observable, UnsupportedPeriodError, Wavefunction, shift_set
from .spectra import SpectralData, _add_neighbours, bloch_basis, default_deg_tol

__all__ = [
    "reflect",
    "embedding_target",
    "embed",
    "embed_block",
    "extend_observable",
    "verify_correspondence",
    "verify_correspondence_family",
    "complete_to_periodic_basis",
]


def reflect(x, l: int, box: LatticeBox) -> tuple[int, ...]:
    """Reflection of coordinate l (1-based): x_l maps to side - x_l.

    Defined on boxes whose l-th side is even (the doubled form 2n+2); the
    map is taken modulo the side so x_l = side is a fixed point, making the
    reflection an involution on the whole box.
    """
    if not 1 <= l <= box.d:
        raise ValueError(f"coordinate index {l} outside 1..{box.d}")
    side = box.sides[l - 1]
    if side % 2 != 0:
        raise ValueError(f"reflection needs an even side, got {side} on coordinate {l}")
    if not box.contains(x):
        raise IndexError(f"site {tuple(x)} outside box with sides {box.sides}")
    out = list(int(c) for c in x)
    r = (side - out[l - 1]) % side
    out[l - 1] = r if r != 0 else side
    return tuple(out)


def embedding_target(box: LatticeBox) -> LatticeBox:
    """The doubled box with sides 2 n_l + 2."""
    return LatticeBox(tuple(2 * s + 2 for s in box.sides))


def _axis_maps(n: int):
    # For target coordinate v in [[1, 2n+2]]: source index (0-based) and sign.
    side = 2 * n + 2
    idx = np.zeros(side, dtype=int)
    sgn = np.zeros(side)
    for v in range(1, side + 1):
        if v % (n + 1) == 0:
            continue
        if v <= n:
            idx[v - 1] = v - 1
            sgn[v - 1] = 1.0
        else:
            idx[v - 1] = (side - v) - 1
            sgn[v - 1] = -1.0
    return idx, sgn


def _embedding_maps(sides):
    """Per-axis source indices and the scaled sign tensor of the extension."""
    idxs, sgns = zip(*(_axis_maps(n) for n in sides))
    sign = sgns[0]
    for s in sgns[1:]:
        sign = np.multiply.outer(sign, s)
    return np.ix_(*idxs), 2.0 ** (-len(sides) / 2.0) * sign


def embed(psi: Wavefunction) -> Wavefunction:
    """Antisymmetric norm-preserving extension to the doubled box."""
    index, sign = _embedding_maps(psi.box.sides)
    return Wavefunction.from_grid(embedding_target(psi.box), sign * psi.grid()[index])


def embed_block(psi: Wavefunction, q, N: int) -> Wavefunction:
    """Extension for a block with per-coordinate periods q_l (sides q_l N).

    The eigenfunction correspondence requires every period to be 1 or 2;
    longer periods are refused.
    """
    q = tuple(int(c) for c in q)
    if any(c not in (1, 2) for c in q):
        raise UnsupportedPeriodError(f"periods {q} unsupported: every q_l must be 1 or 2")
    expected = tuple(c * N for c in q)
    if psi.box.sides != expected:
        raise ValueError(f"wavefunction sides {psi.box.sides} do not match q*N = {expected}")
    return embed(psi)


def extend_observable(a: Observable) -> Observable:
    """Zero extension of an observable to the doubled box.

    Keeps every entry K(x, y) with both sites in the source block and sets
    everything else to zero, so that uniform averages rescale by the volume
    ratio and quadratic forms match those of embedded wavefunctions up to
    the factor 2^d.
    """
    target = embedding_target(a.box)
    offsets = {}
    src_block = tuple(slice(0, n) for n in a.box.sides)
    for z, vals in a.offsets.items():
        out = np.zeros(target.sides, dtype=vals.dtype)
        src = vals.reshape(a.box.sides).copy()
        # keep only pairs with x+z still inside the source block
        src[~shift_set(a.box, z).mask.reshape(a.box.sides)] = 0
        out[src_block] = src
        offsets[z] = out.reshape(-1)
    return Observable(target, offsets)


def verify_correspondence(psi: Wavefunction, lam: float) -> float:
    """Eigen-residual of the embedded function under the wraparound adjacency.

    The input must be an eigenfunction for eigenvalue lam, normalized to
    within 1e-8; returns ||A_periodic (embed psi) - lam * embed psi||, the
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
    neighbour sum behind ``spectra.apply_adjacency``, minus its eigenvalues
    times the chunk. Each column gets the same floating-point operations as
    :func:`embed` and ``apply_adjacency`` would give it, and the embedded
    block is the only block-sized array. Returns ``(max_residual, gram_error)``:
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


def complete_to_periodic_basis(embedded: np.ndarray, eigenvalues, N: int, d: int) -> SpectralData:
    """Extend an embedded eigenfamily to a full wraparound eigenbasis.

    Works classwise on the Bloch spectrum of the doubled cube: within each
    degeneracy class the Bloch vectors spanning the eigenspace are projected
    onto the orthogonal complement of the embedded members and
    re-orthonormalized, so the returned basis contains the embedded family
    and diagonalizes the wraparound adjacency.
    """
    match_tol = max(default_deg_tol(d), 1e-8)
    side = 2 * N + 2
    bloch = bloch_basis(side, d)
    embedded = np.asarray(embedded, dtype=complex)
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    matched = np.zeros(eigenvalues.size, dtype=bool)
    columns, out_eigs = [], []
    for cls in np.split(np.arange(bloch.n), np.flatnonzero(np.diff(bloch.labels)) + 1):
        rep = float(np.mean(bloch.eigenvalues[cls]))
        sel = np.abs(eigenvalues - rep) <= match_tol
        matched |= sel
        E = embedded[:, sel]
        need = len(cls) - E.shape[1]
        if need < 0:
            raise ValueError(f"class at eigenvalue {rep} too small for embedded family")
        B = bloch.vectors[:, cls]
        U, s, _ = np.linalg.svd(B - E @ (E.conj().T @ B), full_matrices=False)  # the class's complement of E
        if need and s[need - 1] < 1e-6:
            raise ValueError(f"rank collapse completing class at eigenvalue {rep}")
        columns.append(np.column_stack([E, U[:, :need]]))
        out_eigs.extend([rep] * len(cls))
    if not matched.all():
        raise ValueError(f"embedded eigenvalues {eigenvalues[~matched]} match no wraparound class")
    # every class keeps its size and its eigenvalues become their mean: the rule gives the Bloch partition again
    return SpectralData(bloch.box, np.array(out_eigs), np.column_stack(columns))
