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

import itertools
from dataclasses import dataclass

import numpy as np

from .lattice import BoxMismatchError, Observable
from .spectra import ProductBasis, SpectralData, default_deg_tol, degeneracy_classes, sine_matrix

__all__ = [
    "hs_norm",
    "expectations",
    "quantum_variance",
    "centered",
    "time_averaged_observable",
    "numeric_time_average",
    "fourier_coefficient",
    "fourier_coefficients",
    "center_matrix",
    "ThetaComponent",
    "ThetaDecomposition",
    "theta_decompose",
    "bessel_bound_check",
    "tilde_exponential",
    "theta_classes",
]


def hs_norm(M) -> float:
    """Hilbert-Schmidt (Frobenius) norm: sqrt of the sum of squared entries."""
    return float(np.sqrt(np.sum(np.abs(np.asarray(M)) ** 2)))


def expectations(basis: SpectralData, T) -> np.ndarray:
    """Diagonal matrix elements <psi_j, T psi_j> over the basis columns.

    T may be a diagonal or kernel :class:`Observable`, or a dense matrix. A
    diagonal observable on a basis with a factored form (sine, Bloch or
    Floquet blocks) is contracted in that form, without the dense
    eigenvectors.
    """
    if isinstance(T, Observable):
        if T.box != basis.box:
            raise BoxMismatchError("observable and basis live on different boxes")
        if T.kind == "diagonal":
            if basis.product is not None:
                return basis.product.expectations(T.diag())
            return (np.abs(basis.vectors) ** 2).T @ T.diag()
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
    projector onto the class, which is exact (no quadrature) and costs
    O(sum class_size^2 * volume).
    """
    if a.box != basis.box:
        raise BoxMismatchError("observable and basis live on different boxes")
    diag = a.require_diagonal()
    V = basis.vectors
    dtype = complex if (np.iscomplexobj(V) or np.iscomplexobj(diag)) else float
    out = np.zeros((basis.box.volume, basis.box.volume), dtype=dtype)
    for cls in basis.classes:
        Vc = V[:, cls]
        mid = Vc.conj().T @ (diag[:, None] * Vc)
        out += Vc @ mid @ Vc.conj().T
    return out


def _trapezoid_phase_average(omega: np.ndarray, T: float, steps: int, chunk_elems: int = 2_000_000):
    """Trapezoid average over [0, T] of exp(i omega t), elementwise in omega."""
    t = np.linspace(0.0, T, steps + 1)
    w = np.full(steps + 1, 1.0 / steps)
    w[0] *= 0.5
    w[-1] *= 0.5
    avg = np.zeros(omega.shape, dtype=complex)
    chunk = max(1, chunk_elems // max(1, omega.size))
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
    """Discrete Fourier coefficient e_theta . a at theta = t/(N+1)."""
    N, d = _require_cube(a)
    t = tuple(int(c) for c in t)
    if len(t) != d:
        raise ValueError(f"frequency index {t} has wrong dimension")
    g = a.require_diagonal().reshape(a.box.sides).astype(complex)
    x = np.arange(1, N + 1)
    for tl in t:
        phase = np.exp(-1j * np.pi * tl * x / (N + 1))
        g = np.tensordot(g, phase, axes=([0], [0]))
    return complex(g)


def fourier_coefficients(a: Observable) -> np.ndarray:
    """All coefficients e_theta . a on the grid t in [[-2N, 2N]]^d.

    Returns an array of shape (4N+1,)*d; entry at index (t_1+2N, ...) holds
    the coefficient for theta = t/(N+1).
    """
    N, d = _require_cube(a)
    x = np.arange(1, N + 1)
    t = np.arange(-2 * N, 2 * N + 1)
    P = np.exp(-1j * np.pi * np.outer(x, t) / (N + 1))  # (N, 4N+1)
    g = a.require_diagonal().reshape(a.box.sides).astype(complex)
    for _ in range(d):
        g = np.tensordot(g, P, axes=([0], [0]))
    return g


def center_matrix(a: Observable):
    """Center matrix C = S* a S in row-major frequency order.

    Returns ``(C, freqs, eigs)`` with frequencies and eigenvalues aligned to
    the rows/columns of C.
    """
    N, d = _require_cube(a)
    diag = a.require_diagonal()
    S, freqs, eigs = sine_matrix(N, d)
    return S.T @ (diag[:, None] * S), freqs, eigs


@dataclass(eq=False)
class ThetaComponent:
    """One frequency component of the masked center matrix.

    ``entries`` maps frequency-pair positions (i, j) in row-major frequency
    order to values; only pairs with equal eigenvalues and a sign combination
    hitting t appear, so for nonzero t the support has at most
    2 * 4^d * N^(d-1) sites and every entry is bounded by
    (2/(N+1))^d |e_theta . a|.
    """

    t: tuple[int, ...]
    theta: tuple[float, ...]
    coefficient: complex
    entries: dict[tuple[int, int], complex]

    @property
    def nnz(self) -> int:
        return sum(1 for v in self.entries.values() if v != 0)

    def matrix(self, n: int) -> np.ndarray:
        M = np.zeros((n, n), dtype=complex)
        for (i, j), v in self.entries.items():
            M[i, j] = v
        return M


@dataclass(eq=False)
class ThetaDecomposition:
    """Frequency decomposition of the class-masked center matrix."""

    N: int
    d: int
    freqs: list[tuple[int, ...]]
    eigenvalues: np.ndarray
    components: dict[tuple[int, ...], ThetaComponent]

    @property
    def n(self) -> int:
        return len(self.freqs)

    def component_matrix(self, t) -> np.ndarray:
        t = tuple(int(c) for c in t)
        if t in self.components:
            return self.components[t].matrix(self.n)
        return np.zeros((self.n, self.n), dtype=complex)

    def total_matrix(self) -> np.ndarray:
        out = np.zeros((self.n, self.n), dtype=complex)
        for comp in self.components.values():
            for (i, j), v in comp.entries.items():
                out[i, j] += v
        return out


def theta_decompose(a: Observable, tol: float | None = None) -> ThetaDecomposition:
    """Split the class-masked center matrix into frequency components.

    Every entry of C = S* a S expands into a signed combination of at most
    4^d Fourier coefficients; restricted to equal-eigenvalue pairs, binning
    the terms by their frequency t = k.eps + m.eps' yields components that
    sum back to the masked center matrix. The zero component is exactly
    (N/(N+1))^d <a> Id.
    """
    N, d = _require_cube(a)
    tol = default_deg_tol(d) if tol is None else tol
    pb = ProductBasis("dirichlet", N, d)
    freqs, eigs, order = pb.freqs(), pb.eigs, pb.order
    coeffs = fourier_coefficients(a)
    scale = 1.0 / (2 * (N + 1)) ** d
    classes = degeneracy_classes(eigs[order], tol)
    sign_vectors = list(itertools.product((1, -1), repeat=d))
    sign_pairs = []
    for eps in sign_vectors:
        for epp in sign_vectors:
            sgn = 1
            for el, e2 in zip(eps, epp):
                sgn *= -el * e2
            sign_pairs.append((eps, epp, sgn))

    components: dict[tuple[int, ...], ThetaComponent] = {}
    for cls in classes:
        members = [int(order[i]) for i in cls]
        for i in members:
            k = freqs[i]
            for j in members:
                m = freqs[j]
                for eps, epp, sgn in sign_pairs:
                    t = tuple(k[l] * eps[l] + m[l] * epp[l] for l in range(d))
                    coeff = complex(coeffs[tuple(c + 2 * N for c in t)])
                    comp = components.get(t)
                    if comp is None:
                        comp = ThetaComponent(
                            t=t,
                            theta=tuple(c / (N + 1) for c in t),
                            coefficient=coeff,
                            entries={},
                        )
                        components[t] = comp
                    comp.entries[(i, j)] = comp.entries.get((i, j), 0.0) + sgn * coeff * scale
    return ThetaDecomposition(N, d, freqs, eigs, components)


def bessel_bound_check(a: Observable):
    """Summed squared Fourier overlaps against the 4^d class Bessel bound.

    Returns ``(lhs, rhs)`` where lhs sums |<e~_theta, a~>|^2 over the full
    frequency grid (with a~ the zero-padded normalized diagonal on
    [[0, N]]^d) and rhs = 4^d sup|a|^2.
    """
    N, d = _require_cube(a)
    coeffs = fourier_coefficients(a)
    lhs = float(np.sum(np.abs(coeffs) ** 2) / (N + 1) ** (2 * d))
    rhs = float(4**d * a.sup_norm**2)
    if lhs > rhs * (1 + 1e-12) + 1e-300:
        raise ArithmeticError(f"Bessel bound violated: lhs={lhs} > rhs={rhs}")
    return lhs, rhs


def tilde_exponential(N: int, d: int, t) -> np.ndarray:
    """Unit exponential vector on [[0, N]]^d at frequency theta = t/(N+1)."""
    t = tuple(int(c) for c in t)
    x = np.arange(0, N + 1)
    vec = np.array([1.0 + 0.0j])
    for tl in t:
        vec = np.multiply.outer(vec, np.exp(1j * np.pi * tl * x / (N + 1)))
    return vec.reshape(-1) / np.sqrt(float((N + 1) ** d))


def theta_classes(N: int, d: int) -> dict:
    """Partition of the frequency grid into the 4^d orthogonality classes.

    Frequencies sharing coordinatewise sign and parity patterns have
    mutually orthogonal tilde exponentials. Keys are (signs, parities).
    """
    out: dict = {}
    for t in itertools.product(range(-2 * N, 2 * N + 1), repeat=d):
        signs = tuple(1 if c >= 0 else -1 for c in t)
        parities = tuple(c % 2 for c in t)
        out.setdefault((signs, parities), []).append(t)
    return out
