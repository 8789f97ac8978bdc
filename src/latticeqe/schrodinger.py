"""Truncated periodic Schrödinger operators on lattice blocks.

An operator here is nearest-neighbor hopping on the block
``prod_l [[1, q_l N]]`` plus a diagonal potential that repeats the values on
the fundamental block ``prod_l [[1, q_l]]``. The staggered two-periodic
potential with a large gap M produces two spectral bands whose eigenfunctions
concentrate on alternating sublattices, the standard obstruction to
equidistribution; observables that are constant on period blocks remain
well-behaved, which the partial equidistribution experiment measures.

With zero boundaries and every period in {1, 2} the operator splits into
``N^d`` Floquet blocks of size ``prod(q)`` (:class:`FloquetBasis`); the
experiments solve those. The dense operator and ``eigh`` serve periods of
three or more, wraparound boundaries, and the tests as the oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .lattice import LatticeBox, Observable, UnsupportedPeriodError
from .spectra import SpectralData, adjacency_matrix, default_deg_tol, degeneracy_classes, sine_square_sums
from .time_average import centered, quantum_variance

__all__ = [
    "PeriodicPotential",
    "load_potential",
    "lattice_block",
    "TruncatedOperator",
    "build_operator",
    "EigenSolveResult",
    "eigensolve_symmetric",
    "eigenbasis",
    "FloquetBasis",
    "floquet_eigenbasis",
    "counterexample_potential",
    "MassProfile",
    "counterexample_mass_profile",
    "LcViolationError",
    "lc_deviation",
    "PartialQeResult",
    "partial_qe_experiment",
]


@dataclass(frozen=True, eq=False)
class PeriodicPotential:
    """Potential values on the fundamental block, repeated over the lattice."""

    q: tuple[int, ...]
    values: np.ndarray  # shape q, row-major

    def __post_init__(self):
        q = tuple(int(c) for c in self.q)
        if any(c < 1 for c in q):
            raise ValueError(f"periods must be positive, got {q}")
        vals = np.asarray(self.values, dtype=float).reshape(q)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "values", vals)

    @property
    def d(self) -> int:
        return len(self.q)

    @classmethod
    def from_dict(cls, data: dict) -> "PeriodicPotential":
        q = tuple(int(c) for c in data["q"])
        if int(data.get("d", len(q))) != len(q):
            raise ValueError("field d inconsistent with length of q")
        return cls(q, np.asarray(data["values"], dtype=float).reshape(q))

    def to_dict(self) -> dict:
        return {"d": self.d, "q": list(self.q), "values": [float(v) for v in self.values.reshape(-1)]}

    def on_box(self, box: LatticeBox) -> np.ndarray:
        """Periodic extension evaluated at every site of a box, flat."""
        if box.d != self.d:
            raise ValueError("box dimension does not match potential")
        grids = np.indices(box.sides)  # 0-based coordinates
        idx = tuple((grids[l] % self.q[l]) for l in range(self.d))
        return self.values[idx].reshape(-1)


def load_potential(path) -> PeriodicPotential:
    """Read a potential from JSON with fields d, q, values (row-major)."""
    with open(path, "r", encoding="utf-8") as fh:
        return PeriodicPotential.from_dict(json.load(fh))


def lattice_block(q, N: int) -> LatticeBox:
    """The block with sides q_l * N."""
    if N < 1:
        raise ValueError("N must be at least 1")
    return LatticeBox(tuple(int(c) * N for c in q))


@dataclass(eq=False)
class TruncatedOperator:
    """Dense symmetric matrix of a truncated Schrödinger operator."""

    box: LatticeBox
    mode: str
    potential: PeriodicPotential
    matrix: np.ndarray


def build_operator(potential: PeriodicPotential, N: int, mode: str = "dirichlet") -> TruncatedOperator:
    """Adjacency of the block plus the periodic diagonal potential."""
    box = lattice_block(potential.q, N)
    H = adjacency_matrix(box, mode)
    H[np.diag_indices_from(H)] += potential.on_box(box)
    return TruncatedOperator(box, mode, potential, H)


@dataclass(eq=False)
class EigenSolveResult:
    eigenvalues: np.ndarray
    vectors: np.ndarray
    residual: float
    gram_error: float

    def basis(self, box: LatticeBox, tol: float | None = None) -> SpectralData:
        """The solved eigenbasis on a box, with degeneracy classes."""
        tol = default_deg_tol(box.d) if tol is None else tol
        return SpectralData(box, self.eigenvalues, self.vectors, degeneracy_classes(self.eigenvalues, tol))


def eigensolve_symmetric(H: np.ndarray, sym_tol: float = 1e-10) -> EigenSolveResult:
    """Full spectral decomposition of a real symmetric matrix.

    Orthogonal reduction to tridiagonal form followed by implicitly shifted
    iteration, via LAPACK. Eigenvalues come back ascending; each eigenvector
    is normalized with its first significant component positive so repeated
    runs are bitwise reproducible.
    """
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    scale = max(1.0, float(np.max(np.abs(H))))
    if np.max(np.abs(H - H.T)) > sym_tol * scale:
        raise ValueError("matrix is not symmetric")
    try:
        eigs, vecs = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise RuntimeError(f"eigensolver did not converge: {exc}") from exc
    mag = np.abs(vecs)
    lead = np.argmax(mag > 1e-12 * np.max(mag, axis=0), axis=0)
    flip = vecs[lead, np.arange(vecs.shape[1])] < 0
    vecs[:, flip] = -vecs[:, flip]
    residual = float(np.max(np.linalg.norm(H @ vecs - vecs * eigs, axis=0))) if H.size else 0.0
    gram_error = float(np.max(np.abs(vecs.T @ vecs - np.eye(H.shape[0]))))
    return EigenSolveResult(eigs, vecs, residual, gram_error)


def eigenbasis(op: TruncatedOperator, tol: float | None = None) -> SpectralData:
    """Numeric eigenbasis of a truncated operator with degeneracy classes."""
    return eigensolve_symmetric(op.matrix).basis(op.box, tol)


@dataclass(eq=False)
class FloquetBasis:
    """Eigenbasis of the zero-boundary operator ``A + V``, periods in {1, 2}, by blocks.

    On the block with sides ``q_l N`` the vectors

        psi(x) = c[r(x)] * prod_l sqrt(2 q_l / (q_l N + 1)) sin(k_l x_l),

    ``k_l = pi j_l / (q_l N + 1)``, ``j_l = 1..N``, ``r(x)`` the row-major
    residue of ``x - 1`` mod ``q``, are eigenfunctions exactly when ``c`` is
    an eigenvector of the ``Q x Q`` block (``Q = prod q``)

        B(k) = diag(values) + sum_l 2 cos(k_l) F_l,

    where ``F_l`` flips residue bit l if ``q_l = 2`` and is the identity if
    ``q_l = 1``. Every normalized sine factor puts weight one on each residue
    class, and factors of different ``j`` are orthogonal on each class, so
    orthonormal ``c`` give an orthonormal eigenbasis.

    One batched ``eigh`` solves all ``N^d`` blocks. Kept are the amplitudes
    ``amplitudes[k, r, s]`` (k row-major over j, s the block eigenvector),
    the eigenvalues ``eigs`` (row-major in (k, s)), their stable ascending
    sort ``order``, and the certificates ``residual`` and ``gram_error``, the
    worst ``||B c - c w||`` and ``|c^T c - I|`` over the block solves.
    :meth:`vectors` assembles the dense eigenvectors on request.

    Inside a degenerate eigenspace this is one choice of basis, the Floquet
    modes; a quantity that depends on that choice, such as the quantum
    variance, is taken over this basis. A basis-invariant replacement is
    still open.
    """

    potential: PeriodicPotential
    N: int

    def __post_init__(self):
        q, N = self.potential.q, self.N
        if any(c not in (1, 2) for c in q):
            raise UnsupportedPeriodError(f"Floquet blocks need periods in {{1, 2}}, got {q}")
        self.box = lattice_block(q, N)
        d, Q = len(q), self.potential.values.size
        B = np.zeros((N,) * d + (Q, Q))
        r = np.arange(Q)
        B[..., r, r] = self.potential.values.reshape(-1)
        stride = Q
        for l, c in enumerate(q):
            stride //= c
            hop = 2.0 * np.cos(self._k(l)).reshape([N if m == l else 1 for m in range(d)])
            B[..., r, r ^ (stride if c == 2 else 0)] += hop[..., None]
        B = B.reshape(-1, Q, Q)
        w, amp = np.linalg.eigh(B)
        self.amplitudes = amp
        self.eigs = w.reshape(-1)
        self.order = np.argsort(self.eigs, kind="stable")
        # Certificates slice by slice: full-size temporaries would triple the peak memory.
        res, gram = [], []
        for s in range(0, len(B), 1 << 14):
            b, c, ws = B[s : s + (1 << 14)], amp[s : s + (1 << 14)], w[s : s + (1 << 14)]
            res.append(np.max(np.linalg.norm(b @ c - c * ws[:, None, :], axis=1)))
            gram.append(np.max(np.abs(np.swapaxes(c, 1, 2) @ c - np.eye(Q))))
        self.residual, self.gram_error = float(max(res)), float(max(gram))

    def _k(self, l: int) -> np.ndarray:
        c = self.potential.q[l]
        return np.pi * np.arange(1, self.N + 1) / (c * self.N + 1)

    def freqs(self) -> None:
        """Floquet modes carry no frequency multi-index of the cube."""
        return None

    def expectations(self, diag: np.ndarray) -> np.ndarray:
        """<psi, a psi> for a diagonal a, in eigenvalue order.

        ``|psi(x)|^2 = |c[r(x)]|^2 prod_l w_l(x_l)``, so the expectation is
        ``sum_r |c[r]|^2 g_r(k)`` with ``g`` from :func:`sine_square_sums`.
        """
        g = sine_square_sums(diag, self.N, self.potential.q)
        return np.einsum("krs,krs,kr->ks", self.amplitudes, self.amplitudes, g).reshape(-1)[self.order]

    def vectors(self) -> np.ndarray:
        """Dense eigenvectors in eigenvalue order (volume squared memory)."""
        q, N = self.potential.q, self.N
        sines = np.ones((1, 1))  # rows: sites, row-major; columns: k, row-major
        for l, c in enumerate(q):
            x = np.arange(1, c * N + 1)
            sines = np.kron(sines, np.sqrt(2.0 * c / (c * N + 1)) * np.sin(np.outer(x, self._k(l))))
        grid = np.indices(self.box.sides).reshape(len(q), -1)
        residue = np.ravel_multi_index(grid % np.array(q)[:, None], q)
        psi = sines[:, :, None] * self.amplitudes[:, residue, :].transpose(1, 0, 2)
        return psi.reshape(self.box.volume, -1)[:, self.order]


def floquet_eigenbasis(potential: PeriodicPotential, N: int) -> SpectralData:
    """Floquet block eigenbasis of the zero-boundary operator, eigenvalues ascending."""
    fb = FloquetBasis(potential, N)
    return SpectralData(fb.box, fb.eigs[fb.order], product=fb, tol=default_deg_tol(fb.box.d))


def counterexample_potential(M: float) -> PeriodicPotential:
    """Two-periodic staggered potential: 0 on odd sites, M on even sites."""
    return PeriodicPotential((2,), np.array([0.0, float(M)]))


@dataclass(eq=False)
class MassProfile:
    """Band counts and sublattice masses for the staggered potential."""

    M: float
    N: int
    eigenvalues: np.ndarray
    low_band_count: int
    high_band_count: int
    even_masses: np.ndarray  # per eigenfunction, ascending eigenvalue order
    mass_bound: float
    residual: float  # worst ||B c - c w|| over the Floquet block solves
    gram_error: float  # worst |c^T c - I| over the Floquet block solves

    @property
    def bands_complete(self) -> bool:
        total = self.eigenvalues.size
        return self.low_band_count == total // 2 and self.high_band_count == total // 2

    @property
    def max_low_even_mass(self) -> float:
        return float(np.max(self.even_masses[: self.low_band_count]))

    @property
    def max_high_odd_mass(self) -> float:
        return float(np.max(1.0 - self.even_masses[self.eigenvalues.size - self.high_band_count :]))

    @property
    def bound_holds(self) -> bool:
        return self.max_low_even_mass <= self.mass_bound and self.max_high_odd_mass <= self.mass_bound


def counterexample_mass_profile(M: float, N: int) -> MassProfile:
    """Diagonalize the staggered operator and profile sublattice masses.

    With M > 4 the spectrum splits into N eigenvalues in [-2, 2] and N in
    [M-2, M+2]; every low-band eigenfunction carries at most 4/(M-2)^2 of
    its mass on even sites, and high-band eigenfunctions at most that much
    on odd sites. The operator is solved as N Floquet blocks of size 2; an
    eigenfunction's even-site mass is ``|c[1]|^2`` (residue 1 holds the even
    sites), so no ``2N x 2N`` matrix is built.
    """
    if M <= 4:
        raise ValueError("need M > 4: the two spectral bands must not overlap")
    fb = FloquetBasis(counterexample_potential(M), N)
    eigenvalues = fb.eigs[fb.order]
    even_masses = (fb.amplitudes[:, 1, :] ** 2).reshape(-1)[fb.order]
    low = int(np.count_nonzero((eigenvalues >= -2 - 1e-9) & (eigenvalues <= 2 + 1e-9)))
    high = int(np.count_nonzero((eigenvalues >= M - 2 - 1e-9) & (eigenvalues <= M + 2 + 1e-9)))
    return MassProfile(
        M=float(M),
        N=N,
        eigenvalues=eigenvalues,
        low_band_count=low,
        high_band_count=high,
        even_masses=even_masses,
        mass_bound=4.0 / (M - 2) ** 2,
        residual=fb.residual,
        gram_error=fb.gram_error,
    )


class LcViolationError(ValueError):
    """Observable breaks the block-orbit sum condition."""


def lc_deviation(a: Observable, q) -> float:
    """Worst spread of block-orbit sums across fundamental-block positions.

    For each position x in the fundamental block, sums the diagonal over the
    orbit x + (n_1 q_1, ..., n_d q_d); a compliant observable gives the same
    sum at every position.
    """
    q = tuple(int(c) for c in q)
    diag = a.require_diagonal().reshape(a.box.sides)
    if any(s % c != 0 for s, c in zip(a.box.sides, q)):
        raise ValueError(f"box sides {a.box.sides} are not multiples of periods {q}")
    d = a.box.d
    blocked = diag
    for l in range(d):
        s = a.box.sides[l]
        blocked = blocked.reshape(blocked.shape[: 2 * l] + (s // q[l], q[l]) + blocked.shape[2 * l + 1 :])
    # axes now alternate (orbit_1, pos_1, orbit_2, pos_2, ...)
    sums = blocked.sum(axis=tuple(range(0, 2 * d, 2))).reshape(-1)
    return float(np.max(np.abs(sums[:, None] - sums[None, :])))


@dataclass(eq=False)
class PartialQeResult:
    N: int
    q: tuple[int, ...]
    variance: float
    lc_deviation: float
    lc_checked: bool
    residual: float  # worst eigenpair residual of the solve behind the variance
    gram_error: float  # worst deviation of its Gram matrix from the identity


def partial_qe_experiment(
    potential: PeriodicPotential,
    N: int,
    a: Observable,
    enforce_lc: bool = True,
    exploratory: bool = False,
    lc_tol: float = 1e-12,
) -> PartialQeResult:
    """Quantum variance of a centered observable over an eigenbasis of the block operator.

    The observable must have sup-norm at most 1 and satisfy the block-orbit
    sum condition; violations raise :class:`LcViolationError` with the
    measured deviation unless ``enforce_lc`` is off (useful to exhibit the
    failure mode). Both are checked before any operator is built. Periods
    above 2 are admitted only in exploratory mode, where nothing is asserted
    about the outcome.

    Periods in {1, 2} use the Floquet block basis (:class:`FloquetBasis`);
    longer periods use the dense operator and ``eigh``. Inside degenerate
    eigenspaces the variance depends on the basis chosen there: it is taken
    over the Floquet modes, or over LAPACK's choice on the dense path. A
    basis-invariant replacement is still open.
    """
    q = potential.q
    dense = any(c not in (1, 2) for c in q)
    if dense and not exploratory:
        raise UnsupportedPeriodError(
            f"periods {q} exceed 2; pass exploratory=True to scan anyway (no guarantees)"
        )
    box = lattice_block(q, N)
    if a.box != box:
        raise ValueError(f"observable box {a.box.sides} does not match block {box.sides}")
    if a.sup_norm > 1.0 + 1e-12:
        raise ValueError(f"observable sup-norm {a.sup_norm} exceeds 1")
    deviation = lc_deviation(a, q)
    scale = max(1.0, float(np.max(np.abs(a.diag())))) * box.volume
    checked = deviation <= lc_tol * scale
    if enforce_lc and not checked:
        raise LcViolationError(
            f"block-orbit sums differ by {deviation:.3e} (tolerance {lc_tol * scale:.3e}); "
            "rerun with enforce_lc=False to measure the failing observable"
        )
    if dense:
        solved = eigensolve_symmetric(build_operator(potential, N, "dirichlet").matrix)
        basis = solved.basis(box)
    else:
        basis = floquet_eigenbasis(potential, N)
        solved = basis.product
    variance = quantum_variance(basis, centered(a))
    return PartialQeResult(
        N=N,
        q=q,
        variance=variance,
        lc_deviation=deviation,
        lc_checked=checked,
        residual=solved.residual,
        gram_error=solved.gram_error,
    )
