"""Analytic eigenpairs of the box adjacency matrices and degeneracy counting.

With zero boundary conditions the adjacency matrix of ``[[1, N]]^d`` is
diagonalized by the product sine basis

    s^(k)(x) = (2/(N+1))^(d/2) * prod_l sin(k_l pi x_l / (N+1)),

with eigenvalue ``sum_l 2 cos(k_l pi / (N+1))``. With wraparound boundary
conditions the eigenbasis consists of Bloch exponentials
``N^(-d/2) exp(2 pi i <k, x> / N)`` with eigenvalue
``sum_l 2 cos(2 pi k_l / N)``. This module provides both bases in factored
form with dense vectors on request, the dense adjacency matrix and the
in-place neighbour sum, tolerance-based degeneracy classes, the one
enumerator of equal-eigenvalue pairs, and the exact count of the frequency
pairs (k, m) among them whose signed combination hits a frequency theta.
"""

from __future__ import annotations

import itertools
from functools import cached_property, reduce

import numpy as np

from .lattice import LatticeBox, cube

__all__ = [
    "default_deg_tol",
    "dirichlet_eigenvalues",
    "periodic_eigenvalues",
    "sine_matrix",
    "sine_square_sums",
    "bloch_matrix",
    "ProductBasis",
    "SpectralData",
    "sine_basis",
    "bloch_basis",
    "adjacency_matrix",
    "degeneracy_classes",
    "lemma_c1_count",
    "lemma_c1_counts",
    "lemma_c1_bins",
]


def default_deg_tol(d: int) -> float:
    """The largest neighbour gap (``2e-9 d``; 2d is the spectral radius) chained into one class.

    So a class may hold distinct eigenvalues, and at scale it does:
    ``sine_basis(512, 2)`` has 131,073 distinct eigenvalues in 131,067
    classes, six exact gaps of 1.164e-9 chained. See ROADMAP direction 1.
    """
    return 1e-9 * 2 * d


_FIRST_FREQ = {"dirichlet": 1, "periodic": 0}  # the frequency of the 1-D factor's column 0


def _product_eigenvalues(lam1: np.ndarray, d: int) -> np.ndarray:
    """Eigenvalues ``sum_l lam1[k_l]`` of a d-fold Kronecker sum, row-major in k."""
    eigs = lam1
    for _ in range(d - 1):
        eigs = np.add.outer(eigs, lam1).reshape(-1)
    return eigs


def _lam1(mode: str, N: int) -> np.ndarray:
    if mode == "dirichlet":
        return 2.0 * np.cos(np.arange(1, N + 1) * np.pi / (N + 1))
    if mode == "periodic":
        return 2.0 * np.cos(2.0 * np.pi * np.arange(0, N) / N)
    raise ValueError(f"unknown boundary mode {mode!r}")


class SpectralData:
    """Eigenvalues (ascending), orthonormal eigenvectors, degeneracy classes.

    ``vectors[:, j]`` is the eigenvector for ``eigenvalues[j]`` and
    ``labels[j]`` its degeneracy class, numbered in eigenvalue order: maximal
    runs chained by neighbour gaps of at most :func:`default_deg_tol`, the
    package's one rule for equal eigenvalues. ``classes`` (columns per class)
    is a list view. Both are computed on first access and cached.

    This is the numeric basis. The factored bases, :class:`ProductBasis` and
    :class:`~latticeqe.schrodinger.FloquetBasis`, are subclasses that build
    ``vectors`` on first read and override :meth:`expectations` with a
    contraction in their factored form.
    """

    def __init__(self, box: LatticeBox, eigenvalues, vectors):
        self.box = box
        self.eigenvalues = eigenvalues
        self.vectors = vectors

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @cached_property
    def labels(self) -> np.ndarray:
        return _class_labels(self.eigenvalues, default_deg_tol(self.box.d))

    @cached_property
    def classes(self) -> list[list[int]]:
        return _class_lists(self.labels)

    def expectations(self, diag: np.ndarray) -> np.ndarray:
        """<psi_j, a psi_j> for a diagonal a, in eigenvalue order."""
        return (np.abs(self.vectors) ** 2).T @ diag


class ProductBasis(SpectralData):
    """The eigenbasis of the cube ``[[1, N]]^d`` kept as a d-fold tensor power.

    Mode ``dirichlet`` has the sine factor with frequencies 1..N, mode
    ``periodic`` the Bloch factor with frequencies 0..N-1. ``eigs`` lists the
    eigenvalues in row-major frequency order, ``order`` their stable
    ascending sort, so ``eigenvalues`` is ``eigs[order]``. Nothing of size
    ``N^(2d)`` is held; :meth:`matrix` builds the dense Kronecker power and
    ``vectors`` its sorted columns on first read.
    """

    def __init__(self, mode: str, N: int, d: int):
        self.mode, self.N, self.d = mode, N, d
        self.lam1 = _lam1(mode, N)
        self.eigs = _product_eigenvalues(self.lam1, d)
        self.order = np.argsort(self.eigs, kind="stable")
        self.box = cube(N, d)
        self.eigenvalues = self.eigs[self.order]

    def freqs(self) -> list[tuple[int, ...]]:
        """Frequency multi-indices in row-major order."""
        first = _FIRST_FREQ[self.mode]
        return list(itertools.product(range(first, first + self.N), repeat=self.d))

    def factor(self) -> np.ndarray:
        """The 1-D eigenvector matrix, sine or Bloch: column k is the factor for frequency k."""
        N = self.N
        x, k = np.arange(1, N + 1), np.arange(N) + _FIRST_FREQ[self.mode]
        if self.mode == "dirichlet":
            return np.sqrt(2.0 / (N + 1)) * np.sin(np.outer(x, k) * np.pi / (N + 1))
        return np.exp(2j * np.pi * np.outer(x, k) / N) / np.sqrt(N)

    def matrix(self) -> np.ndarray:
        """Dense ``N^d x N^d`` Kronecker power, columns in row-major frequency order."""
        return reduce(np.kron, [self.factor()] * self.d)

    @cached_property
    def vectors(self) -> np.ndarray:
        """Dense eigenvectors in eigenvalue order, via ``sine_matrix``/``bloch_matrix``."""
        dense = sine_matrix if self.mode == "dirichlet" else bloch_matrix
        return dense(self.N, self.d)[0][:, self.order]

    def expectations(self, diag: np.ndarray) -> np.ndarray:
        """<psi_k, a psi_k> for a diagonal a, in eigenvalue order.

        Bloch vectors have |b_k(x)|^2 = N^-d, so every expectation is the site
        mean. Sine vectors have |s_k(x)|^2 = prod_l w(x_l), the squared sine
        factors of :func:`sine_square_sums` with every period 1.
        """
        if self.mode == "periodic":
            return np.full(diag.size, diag.mean())
        return sine_square_sums(diag, self.N, (1,) * self.d).reshape(-1)[self.order]


def sine_square_sums(diag: np.ndarray, N: int, q) -> np.ndarray:
    """Sums of a diagonal against products of squared sine factors, per residue class.

    On the block with sides ``q_l N`` the squared normalized sine factor of
    frequency ``j`` along axis l is ``w(x) = q_l (1 - cos(2 pi j x / L)) / L``,
    ``L = q_l N + 1``. Returns ``g[k, r]``, the sum of the diagonal over the
    sites whose ``x - 1`` has row-major residue ``r`` mod q, weighted by
    ``prod_l w(x_l)`` at ``j = k_l``; k runs row-major over ``[[1, N]]^d``.
    Each axis contracts in turn, residue by residue, as a real DFT of length
    L of the values padded with a zero at ``x = 0``. Time is
    ``O(N^d log N)``; no array exceeds ``O(N^d)``.
    """
    if np.iscomplexobj(diag):
        return sine_square_sums(diag.real, N, q) + 1j * sine_square_sums(diag.imag, N, q)
    d = len(q)
    j = np.arange(1, N + 1)
    g = diag.reshape(sum(((N, c) for c in q), ()))  # axes (n_1, r_1, n_2, r_2, ...), x - 1 = c n + r
    for l, c in enumerate(q):
        L = c * N + 1
        fold = np.minimum(j, L - j)  # cos is even mod L; rfft keeps j <= L/2
        g = np.moveaxis(g, (2 * l, 2 * l + 1), (0, 1))
        padded = np.zeros((c, L) + g.shape[2:])  # (r, x = 0..L-1, rest)
        for r in range(c):
            padded[r, r + 1 :: c] = g[:, r]
        f = np.fft.rfft(padded, axis=1)
        del padded
        # c (f[:, :1] - f[:, fold]) / L, the same operations in place on the gathered copy
        h = f.real[:, fold]
        np.subtract(f.real[:, :1], h, out=h)
        del f
        h *= c
        h /= L
        g = np.moveaxis(h, (1, 0), (2 * l, 2 * l + 1))
    return g.transpose(list(range(0, 2 * d, 2)) + list(range(1, 2 * d, 2))).reshape(N**d, -1)


def sine_matrix(N: int, d: int):
    """Sine eigenvectors of the zero-boundary cube, in frequency order.

    Returns ``(S, freqs, eigs)`` where column j of S is the sine vector for
    ``freqs[j]`` and ``eigs[j]`` its eigenvalue. Frequencies are in row-major
    order (not sorted by eigenvalue).
    """
    pb = ProductBasis("dirichlet", N, d)
    return pb.matrix(), pb.freqs(), pb.eigs


def bloch_matrix(N: int, d: int):
    """Bloch eigenvectors of the wraparound cube, in frequency order."""
    pb = ProductBasis("periodic", N, d)
    return pb.matrix(), pb.freqs(), pb.eigs


def dirichlet_eigenvalues(N: int, d: int) -> np.ndarray:
    """All eigenvalues of the zero-boundary cube, ascending."""
    return np.sort(_product_eigenvalues(_lam1("dirichlet", N), d))


def periodic_eigenvalues(N: int, d: int) -> np.ndarray:
    """All eigenvalues of the wraparound cube, ascending."""
    return np.sort(_product_eigenvalues(_lam1("periodic", N), d))


def sine_basis(N: int, d: int) -> ProductBasis:
    """Full sine eigenbasis of the zero-boundary cube, eigenvalues ascending."""
    return ProductBasis("dirichlet", N, d)


def bloch_basis(N: int, d: int) -> ProductBasis:
    """Full Bloch eigenbasis of the wraparound cube, eigenvalues ascending."""
    return ProductBasis("periodic", N, d)


# Neighbours along one axis as (target, source) slice pairs for in-place sums.
# Wraparound: np.roll(g, 1) and then np.roll(g, -1), each as the interior and
# then the wrapped end. Zero boundary: the upper neighbour, then the lower.
_NEIGHBOUR_SLICES = {
    "periodic": ((slice(1, None), slice(None, -1)), (slice(None, 1), slice(-1, None)),
                 (slice(None, -1), slice(1, None)), (slice(-1, None), slice(None, 1))),
    "dirichlet": ((slice(None, -1), slice(1, None)), (slice(1, None), slice(None, -1))),
}


def _add_neighbours(out: np.ndarray, g: np.ndarray, d: int, mode: str) -> None:
    """Add the nearest-neighbour sum of ``g`` over its leading ``d`` axes to ``out``, in place."""
    if mode not in _NEIGHBOUR_SLICES:
        raise ValueError(f"unknown boundary mode {mode!r}")
    for axis in range(d):
        lead = (slice(None),) * axis
        for dst, src in _NEIGHBOUR_SLICES[mode]:
            out[lead + (dst,)] += g[lead + (src,)]


def adjacency_matrix(box: LatticeBox, mode: str = "dirichlet") -> np.ndarray:
    """Dense adjacency matrix of a box (materialized only where needed): ``_add_neighbours`` as a matrix."""
    if mode not in _NEIGHBOUR_SLICES:
        raise ValueError(f"unknown boundary mode {mode!r}")
    site = np.arange(box.volume).reshape(box.sides)
    A = np.zeros((box.volume, box.volume))
    for axis in range(box.d):
        lead = (slice(None),) * axis
        for dst, src in _NEIGHBOUR_SLICES[mode]:
            A[site[lead + (dst,)], site[lead + (src,)]] += 1.0
    return A


def _class_labels(eigenvalues, tol: float) -> np.ndarray:
    """The class of each ascending eigenvalue, numbered from 0: a neighbour gap above ``tol`` starts a class."""
    gaps = np.diff(np.asarray(eigenvalues, dtype=float))
    if np.any(gaps < -1e-15):
        raise ValueError("eigenvalues must be sorted ascending")
    return np.concatenate(([0], np.cumsum(gaps > tol)))[: len(eigenvalues)]


def _class_lists(labels: np.ndarray) -> list[list[int]]:
    """The positions of each class of ``labels`` (contiguous, numbered in order), as lists."""
    idx = list(range(labels.size))
    ends = np.cumsum(np.bincount(labels)).tolist()
    return [idx[lo:hi] for lo, hi in zip([0] + ends, ends)]


def degeneracy_classes(eigenvalues, tol: float) -> list[list[int]]:
    """The positions of ascending eigenvalues in maximal runs chained by neighbour gaps within ``tol``."""
    return _class_lists(_class_labels(eigenvalues, tol))


def _check_signs(eps, d: int):
    eps = tuple(int(c) for c in eps)
    if len(eps) != d or not all(c in (1, -1) for c in eps):
        raise ValueError(f"sign vector {eps} not in {{1,-1}}^{d}")
    return eps


def _theta_to_int(N: int, d: int, theta):
    theta = tuple(float(c) for c in theta)
    if len(theta) != d:
        raise ValueError(f"theta {theta} has wrong dimension")
    t = []
    for c in theta:
        ti = round(c * (N + 1))
        if abs(c * (N + 1) - ti) > 1e-9 or abs(ti) > 2 * N:
            raise ValueError(f"theta {theta} not of the form t/(N+1) with |t| <= 2N")
        t.append(int(ti))
    return tuple(t)


def lemma_c1_count(N: int, d: int, theta, eps, eps_prime) -> int:
    """Count pairs (k, m) with equal eigenvalues and (k.eps + m.eps')/(N+1) = theta.

    Reads the one bin of :func:`lemma_c1_counts` (0 when it is absent). The
    count never exceeds ``2 N^(d-1)`` for nonzero theta.
    """
    eps = _check_signs(eps, d)
    epp = _check_signs(eps_prime, d)
    t = _theta_to_int(N, d, theta)
    if all(c == 0 for c in t):
        raise ValueError("theta = 0 is excluded (zero-frequency diagonal branch)")
    return lemma_c1_counts(N, d).get((t, eps, epp), 0)


def _sign_pairs(d: int):
    """The 4^d sign-vector pairs ``(eps, eps')`` as two ``(4^d, d)`` arrays, eps slowest."""
    E = np.array(list(itertools.product((1, -1), repeat=d)))
    return np.repeat(E, len(E), axis=0), np.tile(E, (len(E), 1))


def _equal_pairs(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every ordered pair ``(u[p], v[p])`` of sorted positions in one class of ``SpectralData.labels``.

    The classes come in order; inside one, u runs over the members and v fastest.
    """
    size = np.bincount(labels)[labels]  # class size at each sorted position
    start = np.searchsorted(labels, labels)  # class start at each sorted position
    u = np.repeat(np.arange(size.size), size)
    v = np.arange(u.size) + np.repeat(start - (np.cumsum(size) - size), size)
    return u, v


def _signed_sums(N: int, d: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """``t[p, s]``, the row-major index of ``k.eps + m.eps' + 2N`` on the grid ``[[0, 4N]]^d``.

    k and m are the frequencies at the row-major indices ``i[p], j[p]`` of
    the sine basis, and ``(eps, eps')`` the s-th sign pair of
    :func:`_sign_pairs`; the grid is that of ``time_average.fourier_coefficients``.
    """
    w = (4 * N + 1) ** np.arange(d - 1, -1, -1)  # row-major strides of the t grid
    Kw = (np.indices((N,) * d).reshape(d, -1).T + 1) * w  # frequency of each index, scaled by w
    eps, epp = _sign_pairs(d)
    return Kw[i] @ eps.T + Kw[j] @ epp.T + 2 * N * w.sum()


def _grid_points(index: np.ndarray, N: int, d: int) -> list[tuple[int, ...]]:
    """The points t of ``[[-2N, 2N]]^d`` at the row-major grid indices of :func:`_signed_sums`."""
    t = np.stack(np.unravel_index(index, (4 * N + 1,) * d), axis=1) - 2 * N
    return list(map(tuple, t.tolist()))


def lemma_c1_bins(N: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pair counts of :func:`lemma_c1_counts` as arrays, in the same (sorted) order.

    Returns ``(s, t, count)``, one entry per nonempty bin: the sign-pair
    index ``s = e 2^d + e'``, where e and e' are the places of eps and eps'
    in ``itertools.product((1, -1), repeat=d)``; the row-major index of
    ``t + 2N`` on the grid ``[[0, 4N]]^d``; and the number of pairs.
    """
    basis = sine_basis(N, d)
    key = _signed_sums(N, d, *(basis.order[p] for p in _equal_pairs(basis.labels)))
    key *= 4**d
    key += np.arange(4**d - 1, -1, -1)  # sorted keys: t ascending, then s descending
    key, count = np.unique(key, return_counts=True)
    t, r = np.divmod(key, 4**d)
    nonzero = t != (4 * N + 1) ** d // 2  # the grid's center is t = 0
    return (4**d - 1 - r)[nonzero], t[nonzero], count[nonzero]


def lemma_c1_counts(N: int, d: int) -> dict:
    """Exhaustive pair counts for every nonzero theta and sign combination.

    Takes all ordered frequency pairs (k, m) inside each degeneracy class
    of :func:`sine_basis` (the pairs with equal eigenvalues) from
    :func:`_equal_pairs`, the enumerator it shares with
    ``time_average.time_averaged_observable`` and ``theta_decompose``, and
    bins them by ``t = k.eps + m.eps'`` for every sign choice, which covers
    every admissible nonzero theta in one sweep. Returns a mapping
    ``(t, eps, eps') -> count`` in sorted key order; absent keys have count
    zero.
    """
    s, t, count = lemma_c1_bins(N, d)
    eps, epp = _sign_pairs(d)
    eps, epp = [tuple(e) for e in eps.tolist()], [tuple(e) for e in epp.tolist()]
    return {(tk, eps[sl], epp[sl]): c for tk, sl, c in zip(_grid_points(t, N, d), s.tolist(), count.tolist())}
