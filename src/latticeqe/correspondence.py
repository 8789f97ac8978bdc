"""Embedding of zero-boundary eigenfunctions into wraparound boxes.

A function on the box with sides ``n_l`` extends to the doubled box with
sides ``2 n_l + 2`` by three conditions: it equals ``2^(-d/2)`` times the
source on the original block, vanishes on every hyperplane where some
coordinate is divisible by ``n_l + 1``, and is antisymmetric under the
reflection ``x_l -> -x_l`` (mod ``2 n_l + 2``) of each coordinate. The extension
exists, is unique, preserves norms and inner products, and sends adjacency
eigenfunctions to eigenfunctions of the wraparound adjacency with the same
eigenvalue. This module certifies that for a whole eigenfamily at once.

The extension is the tensor product of the 1-D extensions, one per axis.
So a sine or Bloch basis (:class:`~latticeqe.spectra.ProductBasis`) is
certified from its 1-D factor alone: each embedded column is a tensor
product of embedded 1-D columns, and its residual and the family's Gram
matrix compose exactly from 1-D inner products. Any other basis embeds its
dense columns.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .lattice import Wavefunction
from .spectra import ProductBasis, SpectralData, _add_neighbours

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


def _embed(vectors: np.ndarray, sides) -> np.ndarray:
    """The embedded columns as one C-contiguous ``(n,) + doubled sides`` block, columns first.

    One gather of the source sites from the transposed vectors, scaled in
    place by the sign tensor.
    """
    source, sign = _embedding_maps(sides)
    images = np.take(np.ascontiguousarray(vectors.T), source.ravel(), axis=1).reshape((len(vectors.T),) + sign.shape)
    images *= sign
    return images


def _ring_residual(images: np.ndarray, eigenvalues: np.ndarray) -> np.ndarray:
    """Rows ``A E_j - lam_j E_j`` of embedded columns: the neighbour sum over the trailing axes, minus lam_j E_j."""
    d = images.ndim - 1
    residual = np.zeros_like(images)
    _add_neighbours(np.moveaxis(residual, 0, -1), np.moveaxis(images, 0, -1), d, "periodic")
    residual -= eigenvalues.reshape((-1,) + (1,) * d) * images
    return residual.reshape(len(images), -1)


def _square_norms(rows: np.ndarray) -> np.ndarray:
    """Each row's squared norm by the dots ``np.linalg.norm`` takes: one ``ddot``, or one per part if complex."""
    if np.iscomplexobj(rows):
        return np.array([row.real.dot(row.real) + row.imag.dot(row.imag) for row in rows])
    return np.array([row.dot(row) for row in rows])


# Columns per chunk of the residual.
_CHUNK = 16


def _residual_chunks(images: np.ndarray, eigenvalues: np.ndarray):
    """``(start, rows)`` for each chunk of ``_CHUNK`` embedded columns, rows their residuals ``A E_j - lam_j E_j``."""
    for c in range(0, len(images), _CHUNK):
        yield c, _ring_residual(images[c:c + _CHUNK], eigenvalues[c:c + _CHUNK])


def verify_correspondence_family(basis: SpectralData):
    """Batch certification of an embedded orthonormal eigenfamily.

    Returns ``(max_residual, gram_error)``: the largest eigen-residual norm
    over the embedded columns under the wraparound adjacency, and the
    max-norm deviation of the embedded family's Gram matrix from the
    identity. The path goes by the basis type.

    A :class:`~latticeqe.spectra.ProductBasis` (sine or Bloch) is certified
    per axis and builds nothing on the doubled box: the embedded column of
    frequency ``k`` is ``W_k = w_(k_1) x ... x w_(k_d)``, ``w`` the embedded
    1-D factor columns. With ``r = A w - lam1 w`` (``A`` the ring adjacency),
    ``n = <w, w>``, ``c = <w, r>``, ``s = <r, r>`` per 1-D column and
    ``delta_k = sum_l lam1[k_l] - eigs[k]`` (the float eigenvalue's defect),

        ||A W_k - eigs[k] W_k||^2 = delta^2 prod_l n_l
            + sum_l (2 delta Re c_l + s_l) prod_(m != l) n_m
            + 2 sum_(l < m) Re(conj(c_l) c_m) prod_(j != l, m) n_j,

    broadcast over the ``N^d`` frequencies in ``O(d^2 N^d)``. The Gram matrix
    is ``g1 x ... x g1``, ``g1 = W^H W`` the 1-D Gram matrix, so its largest
    off-diagonal entry is ``max_s off^s dmax^(d-s)`` (``off`` the largest
    off-diagonal and ``dmax`` the largest diagonal modulus of ``g1``), and its
    diagonal deviation is read from the extremes of the real diagonal of
    ``g1`` (every product on a complex one). These are the dense check's two
    quantities composed exactly from the computed 1-D data, not bounds; they
    differ from the dense check only by rounding. At ``d = 1`` they are the
    dense check's bits.

    Any other basis embeds its columns in one gather into a C-contiguous
    ``(n,) + doubled sides`` block and builds the residual a chunk of whole
    columns at a time, each column getting the same floating-point
    operations as its embedding and neighbour sum alone would; the
    embedded block is the only block-sized array. A column's squared norm
    takes the dots ``np.linalg.norm`` takes, with one ``sqrt`` at the
    maximum.
    """
    if isinstance(basis, ProductBasis):
        return _product_certificates(basis)
    box, n = basis.box, basis.n
    vectors = basis.vectors
    if not np.all(np.isfinite(vectors)):
        raise ValueError("basis vectors must be finite")
    images = _embed(vectors, box.sides)
    max_square = 0.0
    for _, rows in _residual_chunks(images, basis.eigenvalues):
        max_square = max(max_square, *_square_norms(rows))
    E = images.reshape(n, -1)
    gram = E.conj() @ E.T
    gram[np.diag_indices(n)] -= 1  # in place, the same subtraction as gram - eye(n)
    return float(np.sqrt(max_square)), float(np.max(np.abs(gram)))


def _product_certificates(pb: ProductBasis):
    """``verify_correspondence_family`` of a product basis, composed from its embedded 1-D factor."""
    N, d = pb.N, pb.d
    order = np.argsort(pb.lam1, kind="stable")  # the 1-D basis's columns: at d = 1 the family itself
    W = _embed(pb.factor()[:, order], (N,))
    s, c = np.empty(N), np.empty(N, W.dtype)
    for k, rows in _residual_chunks(W, pb.lam1[order]):
        s[k:k + len(rows)] = _square_norms(rows)
        c[k:k + len(rows)] = np.einsum("kx,kx->k", W[k:k + len(rows)].conj(), rows)
    g = W.conj() @ W.T
    del W
    D = g.diagonal().copy()
    g[np.diag_indices(N)] = 0
    off, dmax = float(np.max(np.abs(g))), float(np.max(np.abs(D)))
    del g
    # the diagonal entries prod_l D[k_l] - 1 as prod_l (1 + e_l) - 1, summed from e = D - 1 to keep their
    # own digits; on a real diagonal that is increasing in each e_l, so the extremes give the largest
    e = (D if np.iscomplexobj(D) else np.array([D.min(), D.max()])) - 1
    p = e
    for _ in range(d - 1):
        p = np.add.outer(p, e) + np.multiply.outer(p, e)
    gram_error = max(float(np.max(np.abs(p))), *(off**k * dmax ** (d - k) for k in range(1, d + 1)))

    def axis(v, l):  # per-axis values along axis l of the frequency grid
        return v.reshape((N,) + (1,) * (d - 1 - l))

    n = D.real
    norms = [axis(n, l) for l in range(d)]

    def others(*skip):
        return reduce(np.multiply, [norms[m] for m in range(d) if m not in skip], 1.0)

    delta = _sum_defect(pb.lam1[order], pb.eigs.reshape((N,) * d)[np.ix_(*[order] * d)])
    total = delta * delta
    total *= others()
    term = np.empty_like(total)
    for l in range(d):
        np.multiply(delta, axis(c.real, l), out=term)
        term *= 2
        term += axis(s, l)
        term *= others(l)
        total += term
        for m in range(l + 1, d):
            pair = axis(c.real, l) * axis(c.real, m)
            if np.iscomplexobj(c):
                pair += axis(c.imag, l) * axis(c.imag, m)
            pair *= 2
            total += np.multiply(pair, others(l, m), out=term)
    return float(np.sqrt(max(float(total.max()), 0.0))), gram_error


def _sum_defect(lam1: np.ndarray, eigs: np.ndarray) -> np.ndarray:
    """``sum_l lam1[k_l] - eigs[k]`` on the frequency grid of ``eigs``, its axes all indexed like ``lam1``.

    The sum is carried as its float sum in axis order and the rounding
    error of each addition, which is exact (Knuth's two-sum); the float sum
    is the one the product eigenvalues take, so on a product basis the
    defect is those errors.
    """
    total, defect = lam1, np.zeros(len(lam1))
    for _ in range(eigs.ndim - 1):
        left = total[..., None]
        total = left + lam1
        err = total - left
        lost = lam1 - err
        np.subtract(total, err, out=err)
        np.subtract(left, err, out=err)
        err += lost  # (left - (total - (total - left))) + (lam1 - (total - left))
        del lost
        err += defect[..., None]
        defect = err
    defect += total - eigs
    return defect
