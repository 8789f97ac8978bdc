"""Analytic eigenpairs of the box adjacency matrices and degeneracy counting.

With zero boundary conditions the adjacency matrix of ``[[1, N]]^d`` is
diagonalized by the product sine basis

    s^(k)(x) = (2/(N+1))^(d/2) * prod_l sin(k_l pi x_l / (N+1)),

with eigenvalue ``sum_l 2 cos(k_l pi / (N+1))``. With wraparound boundary
conditions the eigenbasis consists of Bloch exponentials
``N^(-d/2) exp(2 pi i <k, x> / N)`` with eigenvalue
``sum_l 2 cos(2 pi k_l / N)``. This module provides both bases, matrix-free
adjacency application, tolerance-based degeneracy classes, and the exact
enumeration of frequency pairs (k, m) that share an eigenvalue while their
signed combination hits a prescribed frequency theta.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .lattice import LatticeBox, Wavefunction, cube

__all__ = [
    "default_deg_tol",
    "dirichlet_eigenvalue",
    "dirichlet_eigenpair",
    "periodic_eigenvalue",
    "periodic_eigenpair",
    "dirichlet_eigenvalues",
    "periodic_eigenvalues",
    "sine_matrix",
    "bloch_matrix",
    "ProductBasis",
    "SpectralData",
    "sine_basis",
    "bloch_basis",
    "apply_adjacency",
    "adjacency_matrix",
    "degeneracy_classes",
    "lemma_c1_count",
    "lemma_c1_counts",
]


def default_deg_tol(d: int) -> float:
    # Analytic eigenvalues cluster far tighter than genuine gaps at desk
    # scales; 2d is the spectral radius.
    return 1e-9 * 2 * d


def _check_dirichlet_freq(N: int, d: int, k):
    k = tuple(int(c) for c in k)
    if len(k) != d or not all(1 <= c <= N for c in k):
        raise IndexError(f"frequency {k} outside [[1,{N}]]^{d}")
    return k


def dirichlet_eigenvalue(N: int, d: int, k) -> float:
    k = _check_dirichlet_freq(N, d, k)
    return float(sum(2.0 * np.cos(c * np.pi / (N + 1)) for c in k))


def dirichlet_eigenpair(N: int, d: int, k):
    """Analytic eigenvalue and normalized sine vector for frequency k."""
    k = _check_dirichlet_freq(N, d, k)
    x = np.arange(1, N + 1)
    factor = np.sqrt(2.0 / (N + 1))
    vec = np.array([1.0])
    for c in k:
        vec = np.multiply.outer(vec, factor * np.sin(c * np.pi * x / (N + 1)))
    return dirichlet_eigenvalue(N, d, k), Wavefunction(cube(N, d), vec.reshape(-1))


def periodic_eigenvalue(N: int, d: int, k) -> float:
    k = tuple(int(c) for c in k)
    if len(k) != d or not all(0 <= c <= N - 1 for c in k):
        raise IndexError(f"frequency {k} outside [[0,{N - 1}]]^{d}")
    return float(sum(2.0 * np.cos(2.0 * np.pi * c / N) for c in k))


def periodic_eigenpair(N: int, d: int, k):
    """Eigenvalue and normalized Bloch vector for frequency k."""
    lam = periodic_eigenvalue(N, d, k)
    k = tuple(int(c) for c in k)
    x = np.arange(1, N + 1)
    vec = np.array([1.0 + 0.0j])
    for c in k:
        vec = np.multiply.outer(vec, np.exp(2j * np.pi * c * x / N) / np.sqrt(N))
    return lam, Wavefunction(cube(N, d), vec.reshape(-1))


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


@dataclass(eq=False)
class ProductBasis:
    """The eigenbasis of the cube ``[[1, N]]^d`` kept as a d-fold tensor power.

    Mode ``dirichlet`` has the sine factor with frequencies 1..N, mode
    ``periodic`` the Bloch factor with frequencies 0..N-1. ``eigs`` lists the
    eigenvalues in row-major frequency order, ``order`` their stable
    ascending sort. Nothing of size ``N^(2d)`` is held; :meth:`matrix`
    builds the dense Kronecker power on request.
    """

    mode: str
    N: int
    d: int
    lam1: np.ndarray = field(init=False)
    eigs: np.ndarray = field(init=False)
    order: np.ndarray = field(init=False)

    def __post_init__(self):
        self.lam1 = _lam1(self.mode, self.N)
        self.eigs = _product_eigenvalues(self.lam1, self.d)
        self.order = np.argsort(self.eigs, kind="stable")

    def freqs(self) -> list[tuple[int, ...]]:
        """Frequency multi-indices in row-major order."""
        first = 1 if self.mode == "dirichlet" else 0
        return list(itertools.product(range(first, first + self.N), repeat=self.d))

    def factor(self) -> np.ndarray:
        """The 1-D eigenvector matrix: column k is the factor for frequency k."""
        N = self.N
        x = np.arange(1, N + 1)
        if self.mode == "dirichlet":
            return np.sqrt(2.0 / (N + 1)) * np.sin(np.outer(x, x) * np.pi / (N + 1))
        return np.exp(2j * np.pi * np.outer(x, np.arange(0, N)) / N) / np.sqrt(N)

    def matrix(self) -> np.ndarray:
        """Dense ``N^d x N^d`` Kronecker power, columns in row-major frequency order."""
        F1 = self.factor()
        F = F1
        for _ in range(self.d - 1):
            F = np.kron(F, F1)
        return F


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


class SpectralData:
    """Eigenvalues (ascending), orthonormal eigenvectors, degeneracy classes.

    ``vectors[:, j]`` is the eigenvector for ``eigenvalues[j]``; ``classes``
    partitions column indices into maximal groups of eigenvalues chained by
    gaps within the detection tolerance ``tol``. ``freqs`` carries the
    analytic frequency multi-indices when the basis has them, else None.

    A basis built on a :class:`ProductBasis` (``product``) stores only the
    factored form and the sorted eigenvalues. Its ``vectors``, ``classes``
    and ``freqs`` are computed on first access and cached; ``n`` and
    ``eigenvalues`` never build them.
    """

    def __init__(self, box: LatticeBox, eigenvalues, vectors=None, classes=None, freqs=None,
                 *, product: ProductBasis | None = None, tol: float | None = None):
        if product is None and (vectors is None or classes is None):
            raise TypeError("a basis without a product form needs vectors and classes")
        self.box = box
        self.eigenvalues = eigenvalues
        self.product = product
        self.tol = tol
        for name, value in (("vectors", vectors), ("classes", classes), ("freqs", freqs)):
            if value is not None:
                vars(self)[name] = value

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @cached_property
    def vectors(self) -> np.ndarray:
        pb = self.product
        dense = sine_matrix if pb.mode == "dirichlet" else bloch_matrix
        return dense(pb.N, pb.d)[0][:, pb.order]

    @cached_property
    def classes(self) -> list[list[int]]:
        return degeneracy_classes(self.eigenvalues, self.tol)

    @cached_property
    def freqs(self) -> list[tuple[int, ...]] | None:
        if self.product is None:
            return None
        freqs = self.product.freqs()
        return [freqs[i] for i in self.product.order]


def _product_spectral_data(mode: str, N: int, d: int, tol: float | None) -> SpectralData:
    pb = ProductBasis(mode, N, d)
    tol = default_deg_tol(d) if tol is None else tol
    return SpectralData(cube(N, d), pb.eigs[pb.order], product=pb, tol=tol)


def sine_basis(N: int, d: int, tol: float | None = None) -> SpectralData:
    """Full sine eigenbasis of the zero-boundary cube, eigenvalues ascending."""
    return _product_spectral_data("dirichlet", N, d, tol)


def bloch_basis(N: int, d: int, tol: float | None = None) -> SpectralData:
    """Full Bloch eigenbasis of the wraparound cube, eigenvalues ascending."""
    return _product_spectral_data("periodic", N, d, tol)


def apply_adjacency(psi: Wavefunction, mode: str = "dirichlet") -> Wavefunction:
    """Matrix-free nearest-neighbor sum, cost linear in the box volume."""
    g = psi.grid()
    out = np.zeros_like(g)
    for axis, s in enumerate(psi.box.sides):
        if mode == "periodic":
            out = out + np.roll(g, 1, axis=axis) + np.roll(g, -1, axis=axis)
        elif mode == "dirichlet":
            lo = [slice(None)] * psi.box.d
            hi = [slice(None)] * psi.box.d
            lo[axis] = slice(0, s - 1)
            hi[axis] = slice(1, s)
            out[tuple(lo)] += g[tuple(hi)]
            out[tuple(hi)] += g[tuple(lo)]
        else:
            raise ValueError(f"unknown boundary mode {mode!r}")
    return Wavefunction.from_grid(psi.box, out)


def adjacency_matrix(box: LatticeBox, mode: str = "dirichlet") -> np.ndarray:
    """Dense adjacency matrix of a box (materialized only where needed)."""
    if mode not in ("dirichlet", "periodic"):
        raise ValueError(f"unknown boundary mode {mode!r}")
    vol = box.volume
    A = np.zeros((vol, vol))
    idx = np.arange(vol)
    stride = 1
    for axis in range(box.d - 1, -1, -1):
        s = box.sides[axis]
        coord = (idx // stride) % s
        fwd = coord < s - 1
        i, j = idx[fwd], idx[fwd] + stride
        A[i, j] += 1.0
        A[j, i] += 1.0
        if mode == "periodic":
            edge = coord == s - 1
            i, j = idx[edge], idx[edge] - (s - 1) * stride
            A[i, j] += 1.0
            A[j, i] += 1.0
        stride *= s
    return A


def degeneracy_classes(eigenvalues, tol: float) -> list[list[int]]:
    """Partition ascending eigenvalues into maximal near-degenerate groups.

    Consecutive values within ``tol`` share a class; the gap between
    adjacent classes exceeds ``tol``.
    """
    vals = np.asarray(eigenvalues, dtype=float)
    if vals.size == 0:
        return []
    gaps = np.diff(vals)
    if np.any(gaps < -1e-15):
        raise ValueError("eigenvalues must be sorted ascending")
    bounds = [0, *(np.flatnonzero(gaps > tol) + 1).tolist(), vals.size]
    idx = list(range(vals.size))
    return [idx[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


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


def lemma_c1_count(N: int, d: int, theta, eps, eps_prime, tol: float | None = None) -> int:
    """Count pairs (k, m) with equal eigenvalues and (k.eps + m.eps')/(N+1) = theta.

    For fixed sign vectors the offset constraint determines k from m, so the
    enumeration walks m over the cube and solves for k, an O(N^d) pass.
    The count never exceeds ``2 N^(d-1)`` for nonzero theta.
    """
    eps = _check_signs(eps, d)
    epp = _check_signs(eps_prime, d)
    t = _theta_to_int(N, d, theta)
    if all(c == 0 for c in t):
        raise ValueError("theta = 0 is excluded (zero-frequency diagonal branch)")
    tol = default_deg_tol(d) if tol is None else tol

    m = np.indices((N,) * d).reshape(d, -1) + 1
    k = np.empty_like(m)
    for l in range(d):
        k[l] = eps[l] * t[l] - eps[l] * epp[l] * m[l]
    valid = np.all((k >= 1) & (k <= N), axis=0)
    table = 2.0 * np.cos(np.arange(0, N + 1) * np.pi / (N + 1))
    lam_m = table[m].sum(axis=0)
    lam_k = table[np.where(valid, k, 0)].sum(axis=0)
    return int(np.count_nonzero(valid & (np.abs(lam_k - lam_m) <= tol)))


def lemma_c1_counts(N: int, d: int, tol: float | None = None) -> dict:
    """Exhaustive pair counts for every nonzero theta and sign combination.

    Walks all ordered frequency pairs (k, m) inside each degeneracy class
    (exactly the pairs with equal eigenvalues at the working tolerance) and
    bins them by ``t = k.eps + m.eps'`` for every sign choice, which covers
    every admissible nonzero theta in one sweep. Returns a mapping
    ``(t, eps, eps') -> count``; absent keys have count zero.
    """
    tol = default_deg_tol(d) if tol is None else tol
    pb = ProductBasis("dirichlet", N, d)
    freqs, order = pb.freqs(), pb.order
    classes = degeneracy_classes(pb.eigs[order], tol)
    sign_vectors = list(itertools.product((1, -1), repeat=d))
    counts: dict = {}
    for cls in classes:
        members = [freqs[order[i]] for i in cls]
        for k in members:
            for m in members:
                for eps in sign_vectors:
                    for epp in sign_vectors:
                        t = tuple(k[l] * eps[l] + m[l] * epp[l] for l in range(d))
                        if all(c == 0 for c in t):
                            continue
                        key = (t, eps, epp)
                        counts[key] = counts.get(key, 0) + 1
    return counts
