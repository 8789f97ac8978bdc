"""Quantum variance, time-averaged observables, and their Fourier anatomy.

The quantum variance of an observable T over an orthonormal basis is the
mean of |<psi_j, T psi_j>|^2. Conjugating a diagonal observable by the
propagator exp(i t A) and averaging over all times compresses it onto the
degeneracy classes of A; in the sine basis the compressed center matrix
C = S* a S splits into sparse frequency components C_theta built from the
discrete Fourier coefficients

    e_theta . a = sum_x exp(-i pi <theta, x>) a(x, x),

with theta ranging over (1/(N+1)) [[-2N, 2N]]^d. Summing |<e~_theta, a~>|^2
over all theta is controlled by a Bessel inequality over 4^d orthogonal
classes, which is the engine behind the variance decay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import BoxMismatchError, Observable
from .spectra import (
    ProductBasis,
    SpectralData,
    _equal_pairs,
    _grid_points,
    _sign_pairs,
    _signed_sums,
    sine_basis,
)

__all__ = [
    "hs_norm",
    "expectations",
    "quantum_variance",
    "centered",
    "time_averaged_observable",
    "numeric_time_average",
    "fourier_coefficient",
    "fourier_phases",
    "fourier_coefficients",
    "center_matrix",
    "ThetaComponent",
    "ThetaDecomposition",
    "theta_decompose",
    "bessel_bound_check",
]


def hs_norm(M) -> float:
    """Hilbert-Schmidt (Frobenius) norm: sqrt of the sum of squared entries."""
    M = np.asarray(M)
    return float(np.sqrt(np.vdot(M, M).real))


def expectations(basis: SpectralData, T) -> np.ndarray:
    """Diagonal matrix elements <psi_j, T psi_j> over the basis columns.

    T may be a diagonal or kernel :class:`Observable`, or a dense matrix. A
    diagonal observable goes to the basis's own ``expectations``, which a
    factored basis (sine, Bloch or Floquet blocks) contracts without the
    dense eigenvectors.
    """
    if isinstance(T, Observable):
        if T.box != basis.box:
            raise BoxMismatchError("observable and basis live on different boxes")
        if T.kind == "diagonal":
            return basis.expectations(T.diag())
        T = T.to_matrix()
    T = np.asarray(T)
    if T.shape != (basis.box.volume, basis.box.volume):
        raise BoxMismatchError(f"matrix shape {T.shape} does not match box volume")
    V = basis.vectors
    return np.einsum("xj,xj->j", V.conj(), T @ V)


def quantum_variance(basis: SpectralData, T) -> float:
    """Mean of |<psi_j, T psi_j>|^2 over the eigenbasis."""
    vals = expectations(basis, T)
    return float(np.mean(np.abs(vals) ** 2))


def centered(a: Observable) -> Observable:
    """Subtract the uniform average from a diagonal observable."""
    diag = a.require_diagonal()
    return Observable.diagonal(a.box, diag - diag.mean())


def time_averaged_observable(basis: SpectralData, a: Observable) -> np.ndarray:
    """Infinite-time average of the conjugated observable.

    Equals the sum over degeneracy classes of P a P with P the orthogonal
    projector onto the class. In the eigenbasis that is the center matrix
    C = V* a V with the entries between different classes set to zero, so
    the average is V C V*. C keeps the pairs ``spectra._equal_pairs`` finds
    in the basis's ``labels``.

    On a sine or Bloch basis (a :class:`ProductBasis`) V is the d-fold
    tensor power of the 1-D factor F: C is formed axis by axis as in
    :func:`center_matrix`, rows and columns in frequency order, and V C V*
    as 2d products with F, one per axis, each applied to C in place. Time
    is O(d N^(2d+1)) and memory O(V^2 + pairs): one V x V array, scratch of
    about V^2/N entries and the pairs, freed before the products. Any other
    basis takes three dense products, O(V^3) time, with at most four V x V
    arrays alive at once.
    """
    if a.box != basis.box:
        raise BoxMismatchError("observable and basis live on different boxes")
    diag = a.require_diagonal()
    if isinstance(basis, ProductBasis):
        C = _product_center(basis, diag)
        _keep_only(C, *(basis.order[p] for p in _equal_pairs(basis.labels)))  # pairs in frequency order
        return _expand_product(basis, C)
    V = basis.vectors
    C = V.conj().T @ (diag[:, None] * V)
    _keep_only(C, *_equal_pairs(basis.labels))
    C = V @ C  # rebinding frees the masked C before the last product
    return C @ V.conj().T


def _keep_only(C: np.ndarray, i: np.ndarray, j: np.ndarray) -> None:
    """Zero every entry of C but those at ``(i[p], j[p])``, in place."""
    kept = C[i, j]
    C.fill(0)
    C[i, j] = kept


# Bytes of one block of in-place work on a V x V array: small enough to stay in cache
# between its copy to scratch and its product, large enough that small boxes take few blocks.
_CHUNK_BYTES = 1 << 18


def _chunk_entries(C: np.ndarray) -> int:
    """Entries of C in one block of in-place work: ``_CHUNK_BYTES`` worth, or all of C if less."""
    return min(C.size, _CHUNK_BYTES // C.itemsize)


def _product_center(pb: ProductBasis, diag: np.ndarray) -> np.ndarray:
    """C = V* a V for V the tensor power of ``pb``, rows and columns in row-major frequency order.

    At d = 1 this is the numeric basis's product F* (a F), F the 1-D factor.
    For d >= 2 it contracts one site axis at a time with
    ``P[x, k, m] = conj(F[x, k]) F[x, m]`` (at d = 1, P would hold N results),
    which leaves the axes in the order (k_1, m_1, ..., k_d, m_d). They are
    permuted to (k_1, ..., k_d, m_1, ..., m_d) in place, a run of k_1 slabs at
    a time through scratch: each slab spans the same entries in both orders.
    """
    N, d = pb.N, pb.d
    F = pb.factor()
    if d == 1:
        aF = diag[:, None] * F
        F = F.conj().T  # rebinding frees the factor before the product
        return F @ aF
    P = F.conj()[:, :, None] * F[:, None, :]
    C = diag.reshape((N,) * d)
    for _ in range(d):
        C = np.tensordot(C, P, axes=([0], [0]))  # site axis x_l -> frequency axes (k_l, m_l)
    perm = list(range(0, 2 * d, 2)) + list(range(1, 2 * d, 2))
    step = max(1, _chunk_entries(C) // C[0].size)
    buf = np.empty((step,) + C.shape[1:], C.dtype)
    for k in range(0, N, step):
        src = C[k : k + step]
        tmp = buf[: len(src)]
        np.copyto(tmp, src)
        np.copyto(src, tmp.transpose(perm))
    return C.reshape(N**d, N**d)


def _blocks(X: np.ndarray, size: int) -> list[np.ndarray]:
    """Views covering X, shaped (lead, N, width), that a product along the middle axis maps to themselves.

    Each holds at most ``size`` entries: a run of leading slabs, or a column run of one slab.
    """
    lead, N, width = X.shape
    if N * width <= size:
        step = size // (N * width)
        return [X[i : i + step] for i in range(0, lead, step)]
    step = max(1, size // N)
    return [X[i : i + 1, :, c : c + step] for i in range(lead) for c in range(0, width, step)]


def _expand_product(pb: ProductBasis, C: np.ndarray) -> np.ndarray:
    """V C V* for V the tensor power of ``pb``, as 2d per-axis products applied to C in place.

    Axis j of ``C`` viewed as ``(N,) * 2d`` is contracted with F for the d
    row axes and with conj(F) for the d column axes. Each product runs over
    blocks of C that it maps to themselves: each block is copied to scratch
    and multiplied back into its place. ``C`` is overwritten and returned.
    """
    N, d = pb.N, pb.d
    F = pb.factor()
    buf = np.empty(_chunk_entries(C), C.dtype)
    for j, M in enumerate([F] * d + [F.conj()] * d):
        for block in _blocks(C.reshape(N**j, N, -1), buf.size):
            tmp = buf[: block.size].reshape(block.shape)
            np.copyto(tmp, block)
            if j < 2 * d - 1:
                np.matmul(M, tmp, out=block)
            else:  # blocks (rows, N, 1) of the last axis: rows of C times M^T, in one product
                np.matmul(tmp.reshape(-1, N), M.T, out=block.reshape(-1, N))
    return C


def _trapezoid_phase_average(omega: np.ndarray, T: float, steps: int):
    """Trapezoid average over [0, T] of exp(i omega t), elementwise in omega."""
    t = np.linspace(0.0, T, steps + 1)
    w = np.full(steps + 1, 1.0 / steps)
    w[0] *= 0.5
    w[-1] *= 0.5
    avg = np.zeros(omega.shape, dtype=complex)
    chunk = max(1, 2_000_000 // max(1, omega.size))  # time steps per block of about 2e6 phases
    for i0 in range(0, steps + 1, chunk):
        tc = t[i0 : i0 + chunk]
        wc = w[i0 : i0 + chunk]
        phases = np.exp(1j * np.multiply.outer(tc, omega))
        avg += np.tensordot(wc, phases, axes=(0, 0))
    return avg


def numeric_time_average(a: Observable, basis: SpectralData, T: float, steps: int | None = None) -> np.ndarray:
    """Trapezoid quadrature of the time-averaged conjugated observable.

    Uses the spectral form of the propagator: in the eigenbasis the
    integrand is C(j, j') exp(i t (lam_j' - lam_j)) with C = V* a V, so the
    quadrature reduces to averaging phase factors. Serves as an independent
    oracle for :func:`time_averaged_observable`; the step count defaults to
    64 per unit time since the integrand frequencies are bounded by the
    spectral diameter.
    """
    if T <= 0:
        raise ValueError("averaging time T must be positive")
    if steps is None:
        steps = max(2, int(round(64 * T)))
    if steps < 2:
        raise ValueError("need at least 2 quadrature steps")
    if a.box != basis.box:
        raise BoxMismatchError("observable and basis live on different boxes")
    diag = a.require_diagonal()
    V = basis.vectors
    C = V.conj().T @ (diag[:, None] * V)
    lam = basis.eigenvalues
    omega = lam[None, :] - lam[:, None]  # omega[j, j'] = lam[j'] - lam[j]
    avg = _trapezoid_phase_average(omega, float(T), int(steps))
    return V @ (C * avg) @ V.conj().T


def _require_cube(a: Observable):
    sides = a.box.sides
    if len(set(sides)) != 1:
        raise ValueError("Fourier machinery requires a cubical box")
    return sides[0], a.box.d


def fourier_coefficient(a: Observable, t) -> complex:
    """Discrete Fourier coefficient e_theta . a at theta = t/(N+1), |t_l| <= 2N.

    The entry ``t + 2N`` of :func:`fourier_coefficients`.
    """
    N, d = _require_cube(a)
    t = tuple(int(c) for c in t)
    if len(t) != d or any(abs(c) > 2 * N for c in t):
        raise ValueError(f"frequency index {t} not in [[-2N, 2N]]^{d} for N = {N}")
    return complex(fourier_coefficients(a)[tuple(c + 2 * N for c in t)])


def fourier_phases(N: int) -> np.ndarray:
    """The phases exp(-i pi x t/(N+1)) for x in [[1, N]], t in [[-2N, 2N]]: shape (N, 4N+1)."""
    x = np.arange(1, N + 1)
    t = np.arange(-2 * N, 2 * N + 1)
    return np.exp(-1j * np.pi * np.outer(x, t) / (N + 1))


def fourier_coefficients(a: Observable) -> np.ndarray:
    """All coefficients e_theta . a on the grid t in [[-2N, 2N]]^d.

    Returns an array of shape (4N+1,)*d; entry at index (t_1+2N, ...) holds
    the coefficient for theta = t/(N+1).
    """
    N, d = _require_cube(a)
    P = fourier_phases(N)
    g = a.require_diagonal().reshape(a.box.sides).astype(complex)
    for _ in range(d):
        g = np.tensordot(g, P, axes=([0], [0]))
    return g


def center_matrix(a: Observable):
    """Center matrix C = S* a S in row-major frequency order.

    Returns ``(C, freqs, eigs)`` with frequencies and eigenvalues aligned to
    the rows/columns of C. The sine basis is a tensor power of the 1-D
    factor S1, so C contracts one axis at a time with
    ``P[x, k, m] = S1[x, k] S1[x, m]`` and has its axes permuted in place:
    time O(d N^(2d+1)), one V x V array and scratch of about V^2/N entries,
    without the dense sine matrix.
    """
    N, d = _require_cube(a)
    pb = ProductBasis("dirichlet", N, d)
    return _product_center(pb, a.require_diagonal()), pb.freqs(), pb.eigs


@dataclass(eq=False)
class ThetaComponent:
    """One frequency component of the masked center matrix, as COO arrays.

    Entry p sits at the frequency-pair position ``(rows[p], cols[p])`` in
    row-major frequency order, each position at most once; only pairs with
    equal eigenvalues and a sign combination hitting t appear, so for nonzero
    t the support has at most 2 * 4^d * N^(d-1) sites and every entry is
    bounded by (2/(N+1))^d |e_theta . a|. ``nnz`` counts the nonzero values.
    """

    t: tuple[int, ...]
    coefficient: complex
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    nnz: int

    def matrix(self, n: int) -> np.ndarray:
        M = np.zeros((n, n), dtype=complex)
        M[self.rows, self.cols] = self.values
        return M


@dataclass(eq=False)
class ThetaDecomposition:
    """Frequency decomposition of the class-masked center matrix, ``n = N^d`` rows and columns."""

    N: int
    d: int
    n: int
    components: dict[tuple[int, ...], ThetaComponent]

    def component_matrix(self, t) -> np.ndarray:
        t = tuple(int(c) for c in t)
        if t in self.components:
            return self.components[t].matrix(self.n)
        return np.zeros((self.n, self.n), dtype=complex)

    def total_matrix(self) -> np.ndarray:
        """The sum of the components, each position adding its entries in component (grid) order."""
        out = np.zeros((self.n, self.n), dtype=complex)
        comps = self.components.values()
        if comps:
            rows, cols, values = (np.concatenate([getattr(c, name) for c in comps])
                                  for name in ("rows", "cols", "values"))
            np.add.at(out, (rows, cols), values)
        return out


def theta_decompose(a: Observable) -> ThetaDecomposition:
    """Split the class-masked center matrix into frequency components.

    Every entry of C = S* a S expands into a signed combination of at most
    4^d Fourier coefficients; restricted to equal-eigenvalue pairs, binning
    the terms by their frequency t = k.eps + m.eps' yields components that
    sum back to the masked center matrix. The zero component is exactly
    (N/(N+1))^d <a> Id. The pairs (inside the classes of
    :func:`~latticeqe.spectra.sine_basis`) come from ``spectra._equal_pairs``,
    as for :func:`time_averaged_observable` and ``lemma_c1_counts``. The
    components come in grid order of t, their entries in pair order; each
    entry adds its terms in sign-pair order, starting from zero.
    """
    N, d = _require_cube(a)
    basis = sine_basis(N, d)
    i, j = (basis.order[p] for p in _equal_pairs(basis.labels))
    t = _signed_sums(N, d, i, j)
    eps, epp = _sign_pairs(d)
    coeffs = fourier_coefficients(a).reshape(-1)
    terms = coeffs[t] * (np.prod(-eps * epp, axis=1) / (2 * (N + 1)) ** d)
    # one entry per (t, pair), t slowest
    t *= len(i)
    t += np.arange(len(i))[:, None]
    entry, inverse = np.unique(t, return_inverse=True)
    del t
    # bincount adds each entry's terms in sign-pair order, starting from zero
    values = np.bincount(inverse.reshape(-1), weights=terms.real.reshape(-1)).astype(complex)
    values.imag = np.bincount(inverse.reshape(-1), weights=terms.imag.reshape(-1))
    component, pair = np.divmod(entry, len(i))
    bounds = [0, *(np.flatnonzero(np.diff(component)) + 1).tolist(), len(entry)]
    rows, cols = i[pair], j[pair]
    nnz = np.add.reduceat(values != 0, bounds[:-1]).tolist()
    flat = component[bounds[:-1]]
    components = {
        tk: ThetaComponent(tk, coeff, rows[lo:hi], cols[lo:hi], values[lo:hi], count)
        for tk, coeff, lo, hi, count in zip(_grid_points(flat, N, d), coeffs[flat].tolist(),
                                            bounds[:-1], bounds[1:], nnz)
    }
    return ThetaDecomposition(N, d, N**d, components)


def _bessel_kernel(N: int) -> np.ndarray:
    """``M[x, y] = sum_t exp(-i pi (x - y) t/(N+1))`` over ``t`` in ``[[-2N, 2N]]``, for ``x, y`` in ``[[1, N]]``.

    ``[[-2N, 2N]]`` is two periods ``2(N+1)`` of ``t`` less the three ``t``
    congruent to ``-1, 0, 1``, and ``|x - y| <= N``, so
    ``M = 4(N+1) I - (1 + 2 cos(pi (x - y)/(N+1)))``.
    """
    x = np.arange(1, N + 1)
    M = -(1 + 2 * np.cos(np.pi * np.subtract.outer(x, x) / (N + 1)))
    M[np.diag_indices(N)] += 4 * (N + 1)
    return M


def bessel_bound_check(a: Observable):
    """Summed squared Fourier overlaps against the 4^d class Bessel bound.

    Returns ``(lhs, rhs)`` where lhs sums |<e~_theta, a~>|^2 over the full
    frequency grid (with a~ the zero-padded normalized diagonal on
    [[0, N]]^d) and rhs = 4^d sup|a|^2. The bound holds when lhs <= rhs;
    the caller gives the verdict, so a violation is reported, not raised.

    The sum is a quadratic form, taken without the grid: with g the
    diagonal on the N^d sites, ``sum_t |e_t . a|^2 = <g, (M x ... x M) g>``
    for the kernel ``M = 4(N+1) I - (1 + 2 cos(pi (x - y)/(N+1)))``, and
    each overlap is the coefficient over (N+1)^d. ``M`` is applied one axis
    at a time: time O(d N^(d+1)), memory a few N^d arrays and ``M``, where
    :func:`fourier_coefficients` builds the (4N+1)^d complex grid. The two
    agree to a few eps, relative.
    """
    N, d = _require_cube(a)
    g = a.require_diagonal().reshape(a.box.sides)
    M = _bessel_kernel(N)
    h = g
    for _ in range(d):
        h = np.tensordot(h, M, axes=([0], [0]))  # site axis x_l -> (M g) axis, moved last
    lhs = float(np.vdot(g, h).real / (N + 1) ** (2 * d))
    rhs = float(4**d * a.sup_norm**2)
    return lhs, rhs
