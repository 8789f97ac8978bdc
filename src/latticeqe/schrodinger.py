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
experiments solve those, blocks of one or two sites in closed form and larger
ones with a batched ``eigh``. The dense operator and ``eigh`` serve periods
of three or more, wraparound boundaries, and the tests as the oracle.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import LatticeBox, Observable, UnsupportedPeriodError
from .spectra import SpectralData, adjacency_matrix, sine_square_sums
from .time_average import centered, quantum_variance

__all__ = [
    "PeriodicPotential",
    "load_potential",
    "lattice_block",
    "build_operator",
    "EigenSolveResult",
    "eigensolve_symmetric",
    "eigenbasis",
    "FloquetBasis",
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
        if not np.all(np.isfinite(vals)):
            raise ValueError("potential values must be finite")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "values", vals)

    @property
    def d(self) -> int:
        return len(self.q)

    @classmethod
    def from_dict(cls, data: dict) -> "PeriodicPotential":
        """A potential from a JSON object with keys ``q``, ``values`` and optionally ``d``."""
        if not isinstance(data, dict):
            raise ValueError(f"expected a JSON object with keys 'q' and 'values', got {type(data).__name__}")
        for key in ("q", "values"):
            if key not in data:
                raise ValueError(f"missing key {key!r}")
        try:
            q = tuple(int(c) for c in data["q"])
        except (TypeError, ValueError):
            raise ValueError(f"key 'q' must be a list of integers, got {data['q']!r}") from None
        if data.get("d", len(q)) != len(q):
            raise ValueError(f"key 'd' must equal the length of q, got {data['d']!r}")
        try:
            values = np.asarray(data["values"], dtype=float).reshape(q)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"key 'values' must hold {int(np.prod(q))} numbers: {exc}") from None
        return cls(q, values)

    def on_box(self, box: LatticeBox) -> np.ndarray:
        """Periodic extension evaluated at every site of a box, flat."""
        if box.d != self.d:
            raise ValueError("box dimension does not match potential")
        return self.values[np.ix_(*(np.arange(s) % c for s, c in zip(box.sides, self.q)))].reshape(-1)


def load_potential(path) -> PeriodicPotential:
    """Read a potential from JSON with fields d, q, values (row-major)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return PeriodicPotential.from_dict(json.load(fh))
        except ValueError as exc:  # malformed JSON included
            raise ValueError(f"potential file {path}: {exc}") from None


def lattice_block(q, N: int) -> LatticeBox:
    """The block with sides q_l * N."""
    if N < 1:
        raise ValueError("N must be at least 1")
    return LatticeBox(tuple(int(c) * N for c in q))


def build_operator(potential: PeriodicPotential, N: int, mode: str = "dirichlet") -> np.ndarray:
    """Dense matrix of the adjacency of ``lattice_block(potential.q, N)`` plus the periodic diagonal potential."""
    box = lattice_block(potential.q, N)
    H = adjacency_matrix(box, mode)
    H[np.diag_indices_from(H)] += potential.on_box(box)
    return H


def _block_certificates(B: np.ndarray, c: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """The worst ``||B c - c w||`` and ``|c^T c - I|`` over a stack of eigensolves, ``2^14`` blocks at a time.

    ``B`` is an ``(n, Q, Q)`` stack, ``c`` its eigenvectors in columns and
    ``w`` the ``(n, Q)`` eigenvalues; a dense solve is a stack of one. Each
    residual array is scaled in place by ``2^-e``, ``max|R| < 2^e``, before
    the norm squares it: a power of two scales exactly, so wherever no square
    over- or underflows the norm has the unscaled norm's bits, and it stays
    finite where entries of ``B`` pass ``sqrt(DBL_MAX)``.
    """
    Q = c.shape[1]
    res, gram = [], []
    for s in range(0, len(B), 1 << 14):
        b, v, ws = B[s : s + (1 << 14)], c[s : s + (1 << 14)], w[s : s + (1 << 14)]
        R = b @ v
        R -= v * ws[:, None, :]
        e = int(np.frexp(max(R.max(), -R.min()))[1])
        np.ldexp(R, -e, out=R)
        res.append(np.ldexp(np.max(np.linalg.norm(R, axis=1)), e))
        del R  # before the Gram product: a dense solve would hold one more V x V array
        gram.append(np.max(np.abs(np.swapaxes(v, 1, 2) @ v - np.eye(Q))))
    return float(max(res)), float(max(gram))


class EigenSolveResult(SpectralData):
    """A numeric eigenbasis from the dense solve, with its certificates.

    ``residual`` and ``gram_error`` are the worst ``||H v - v lambda||`` over
    the eigenpairs and the worst ``|V^T V - I|``, computed with the solve.
    """

    def __init__(self, box: LatticeBox, eigenvalues, vectors, residual: float, gram_error: float):
        super().__init__(box, eigenvalues, vectors)
        self.residual, self.gram_error = residual, gram_error


def eigensolve_symmetric(H: np.ndarray, box: LatticeBox) -> EigenSolveResult:
    """Full spectral decomposition of a real symmetric matrix on a box, as an eigenbasis.

    Orthogonal reduction to tridiagonal form followed by implicitly shifted
    iteration, via LAPACK. A matrix that is not ``box.volume`` square, or
    whose asymmetry exceeds ``1e-10`` times ``max(1, max|H|)``, is refused.
    Eigenvalues come back ascending; each eigenvector is normalized with its
    first significant component positive so repeated runs are bitwise
    reproducible.
    """
    H = np.asarray(H, dtype=float)
    if H.shape != (box.volume, box.volume):
        raise ValueError(f"expected a {box.volume} x {box.volume} matrix for the box {box.sides}, got shape {H.shape}")
    scale = max(1.0, float(np.max(np.abs(H))))
    if np.max(np.abs(H - H.T)) > 1e-10 * scale:
        raise ValueError("matrix is not symmetric")
    try:
        eigs, vecs = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise RuntimeError(f"eigensolver did not converge: {exc}") from exc
    mag = np.abs(vecs)
    lead = np.argmax(mag > 1e-12 * np.max(mag, axis=0), axis=0)
    del mag  # one V x V array fewer while the certificates are taken
    flip = vecs[lead, np.arange(vecs.shape[1])] < 0
    vecs[:, flip] = -vecs[:, flip]
    return EigenSolveResult(box, eigs, vecs, *_block_certificates(H[None], vecs[None], eigs[None]))


def eigenbasis(potential: PeriodicPotential, N: int) -> EigenSolveResult:
    """The dense solve of the zero-boundary operator on ``lattice_block(potential.q, N)``."""
    return eigensolve_symmetric(build_operator(potential, N), lattice_block(potential.q, N))


@dataclass(eq=False)
class FloquetBasis(SpectralData):
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

    Blocks of one or two sites (``Q <= 2``, the staggered potential among
    them) are solved in closed form, all ``k`` at once
    (:meth:`_two_site_solve`); larger blocks by one batched ``eigh``. The
    block size picks the solve. Kept are the amplitudes
    ``amplitudes[k, r, s]`` (k row-major over j, s the block eigenvector),
    the eigenvalues ``eigs`` (row-major in (k, s)), their stable ascending
    sort ``order`` and ``eigenvalues = eigs[order]``. The certificates
    ``residual`` and ``gram_error``, the worst ``||B c - c w||`` and
    ``|c^T c - I|`` over the block solves, are computed on first read from a
    rebuilt block stack by the routine that certifies the dense solve
    (:func:`eigensolve_symmetric`), so a run that reports neither never pays
    for them and the basis never holds the stack; they check the closed form
    as they check ``eigh``. ``vectors`` assembles the dense eigenvectors on
    first read.

    Inside a degenerate eigenspace this is one choice of basis, the Floquet
    modes; a quantity that depends on that choice, such as the quantum
    variance, is taken over this basis. A basis-invariant replacement is
    still open.
    """

    potential: PeriodicPotential
    N: int

    def __post_init__(self):
        q = self.potential.q
        if any(c not in (1, 2) for c in q):
            raise UnsupportedPeriodError(f"Floquet blocks need periods in {{1, 2}}, got {q}")
        self.box = lattice_block(q, self.N)
        if self.potential.values.size <= 2:
            w, self.amplitudes = self._two_site_solve()
        else:
            w, self.amplitudes = np.linalg.eigh(self._blocks())
        self.eigs = w.reshape(-1)
        self.order = np.argsort(self.eigs, kind="stable")
        self.eigenvalues = self.eigs[self.order]

    def _hops(self) -> list[np.ndarray]:
        """``2 cos(k_l)`` for each axis l, shaped to broadcast over the row-major k grid."""
        d = self.potential.d
        return [2.0 * np.cos(self._k(l)).reshape([self.N if m == l else 1 for m in range(d)]) for l in range(d)]

    def _blocks(self) -> np.ndarray:
        """The ``N^d`` blocks ``B(k)``, k row-major, as one ``(N^d, Q, Q)`` stack."""
        q, N = self.potential.q, self.N
        d, Q = len(q), self.potential.values.size
        B = np.zeros((N,) * d + (Q, Q))
        r = np.arange(Q)
        B[..., r, r] = self.potential.values.reshape(-1)
        stride = Q
        for c, hop in zip(q, self._hops()):
            stride //= c
            B[..., r, r ^ (stride if c == 2 else 0)] += hop[..., None]
        return B.reshape(-1, Q, Q)

    def _two_site_solve(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenpairs of the ``1 x 1`` or ``2 x 2`` blocks in closed form, laid out as ``eigh`` lays them out.

        The block ``[[a, b], [b, c]]`` is read off the potential and the
        cosines, with the diagonal summed in the order :meth:`_blocks` sums it.
        Its eigenvalues are ``m -+ r``, ``m = (a + c)/2``, ``r = hypot((a - c)/2, b)``:
        the one of larger magnitude is ``m + sign(m) r``, the other comes from
        LAPACK ``dlaev2``'s quotient ``(acmx/rt1) acmn - (b/rt1) b``, so neither
        cancels and no product of two entries can overflow. The eigenvector of
        ``m + r`` is ``(|a - c|/2 + r, b)``, reversed if ``a < c``; the other
        is its rotation by a right angle. A ``1 x 1`` block is its entry, with
        amplitude 1.
        """
        grid = (self.N,) * self.potential.d
        diag, b = list(self.potential.values.reshape(-1)), None
        for c, hop in zip(self.potential.q, self._hops()):
            if c == 1:
                diag = [x + hop for x in diag]
            else:
                b = hop
        if b is None:  # every axis has period 1, so the entry spans the grid
            return diag[0].reshape(-1, 1), np.ones((diag[0].size, 1, 1))
        # a and c vary along the period-1 axes only and b along the period-2 axis;
        # the arithmetic broadcasts them over the grid.
        a, c = diag
        # Halves first: a + c and a - c may overflow where the eigenvalues do not.
        half_a, half_c = 0.5 * a, 0.5 * c
        h, m = half_a - half_c, half_a + half_c
        r = np.hypot(h, b)  # > 0: b = 2 cos(k) with 0 < k < pi/2
        big = m + np.copysign(r, m)
        swap = np.abs(a) > np.abs(c)
        small = (np.where(swap, a, c) / big) * np.where(swap, c, a) - (b / big) * b
        w = np.empty(grid + (2,))
        w[..., 0], w[..., 1] = np.minimum(small, big), np.maximum(small, big)
        del small, big  # each grid-sized temporary goes after its last use
        t = b / (np.abs(h) + r)  # |t| <= 1, and 0 where |h| + r overflows
        del r
        cs = 1.0 / np.sqrt(1.0 + t * t)
        sn = t * cs
        del t
        up = h >= 0
        u, v = np.where(up, cs, sn), np.where(up, sn, cs)  # (u, v): eigenvector of m + r
        del cs, sn
        amplitudes = np.empty(grid + (2, 2))
        amplitudes[..., 0, 0], amplitudes[..., 1, 0] = -v, u
        amplitudes[..., 0, 1], amplitudes[..., 1, 1] = u, v
        return w.reshape(-1, 2), amplitudes.reshape(-1, 2, 2)

    @cached_property
    def _certificates(self) -> tuple[float, float]:
        """The block solves' certificates, from a rebuilt stack."""
        return _block_certificates(self._blocks(), self.amplitudes, self.eigs.reshape(-1, self.amplitudes.shape[1]))

    @property
    def residual(self) -> float:
        return self._certificates[0]

    @property
    def gram_error(self) -> float:
        return self._certificates[1]

    def _k(self, l: int) -> np.ndarray:
        c = self.potential.q[l]
        return np.pi * np.arange(1, self.N + 1) / (c * self.N + 1)

    def expectations(self, diag: np.ndarray) -> np.ndarray:
        """<psi, a psi> for a diagonal a, in eigenvalue order.

        ``|psi(x)|^2 = |c[r(x)]|^2 prod_l w_l(x_l)``, so the expectation is
        ``sum_r |c[r]|^2 g_r(k)`` with ``g`` from :func:`sine_square_sums`.
        """
        g = sine_square_sums(diag, self.N, self.potential.q)
        return np.einsum("krs,krs,kr->ks", self.amplitudes, self.amplitudes, g).reshape(-1)[self.order]

    @cached_property
    def vectors(self) -> np.ndarray:
        """Dense eigenvectors in eigenvalue order (volume squared memory)."""
        q, N = self.potential.q, self.N
        sines = np.ones((1, 1))  # rows: sites, row-major; columns: k, row-major
        for l, c in enumerate(q):
            x = np.arange(1, c * N + 1)
            sines = np.kron(sines, np.sqrt(2.0 * c / (c * N + 1)) * np.sin(np.outer(x, self._k(l))))
        residue = np.ravel_multi_index(np.ix_(*(np.arange(s) % c for s, c in zip(self.box.sides, q))), q).reshape(-1)
        psi = sines[:, :, None] * self.amplitudes[:, residue, :].transpose(1, 0, 2)
        return psi.reshape(self.box.volume, -1)[:, self.order]


def counterexample_potential(M: float) -> PeriodicPotential:
    """Two-periodic staggered potential: 0 on odd sites, M on even sites."""
    return PeriodicPotential((2,), np.array([0.0, float(M)]))


@dataclass(eq=False)
class MassProfile:
    """Band counts and sublattice masses for the staggered potential, with the basis they come from.

    ``basis.eigenvalues`` is the spectrum, ascending; ``basis.residual`` and
    ``basis.gram_error`` certify the block solves, computed on first read.
    """

    basis: FloquetBasis
    low_band_count: int
    high_band_count: int
    even_masses: np.ndarray  # per eigenfunction, ascending eigenvalue order
    odd_masses: np.ndarray  # the same on odd sites, read apart: 1 - even_masses cancels in the high band
    mass_bound: float

    @property
    def bands_complete(self) -> bool:
        total = self.basis.n
        return self.low_band_count == total // 2 and self.high_band_count == total // 2

    @cached_property
    def max_low_even_mass(self) -> float:
        """Largest even-site mass in the low band; ``nan`` if its window caught no eigenvalue."""
        return _max_or_nan(self.even_masses[: self.low_band_count])

    @cached_property
    def max_high_odd_mass(self) -> float:
        """Largest odd-site mass in the high band; ``nan`` if its window caught no eigenvalue."""
        return _max_or_nan(self.odd_masses[self.basis.n - self.high_band_count :])

    @property
    def bound_holds(self) -> bool:
        """Both band maxima within the bound; false if either is ``nan``."""
        return self.max_low_even_mass <= self.mass_bound and self.max_high_odd_mass <= self.mass_bound


def _max_or_nan(masses: np.ndarray) -> float:
    return float(np.max(masses)) if masses.size else math.nan


def counterexample_mass_profile(M: float, N: int) -> MassProfile:
    """Diagonalize the staggered operator and profile sublattice masses.

    With M > 4 the spectrum splits into N eigenvalues in [-2, 2] and N in
    [M-2, M+2]; every low-band eigenfunction carries at most 4/(M-2)^2 of
    its mass on even sites, and high-band eigenfunctions at most that much
    on odd sites. The operator is solved as N Floquet blocks of size 2; an
    eigenfunction's even-site mass is ``|c[1]|^2`` (residue 1 holds the even
    sites) and its odd-site mass ``|c[0]|^2``, so no ``2N x 2N`` matrix is
    built. ``M`` may be at most
    ``sqrt(DBL_MAX)`` (about 1.34e154), beyond which ``(M-2)^2`` overflows.
    """
    if M <= 4:
        raise ValueError("need M > 4: the two spectral bands must not overlap")
    if M - 2 > math.sqrt(sys.float_info.max):
        raise ValueError(f"need M <= {math.sqrt(sys.float_info.max)!r}: the mass bound 4/(M-2)^2 "
                         f"would overflow, got {M!r}")
    fb = FloquetBasis(counterexample_potential(M), N)
    eigenvalues = fb.eigenvalues
    odd_masses, even_masses = (np.square(fb.amplitudes[:, r, :].reshape(-1)[fb.order]) for r in (0, 1))
    low = int(np.count_nonzero((eigenvalues >= -2 - 1e-9) & (eigenvalues <= 2 + 1e-9)))
    high = int(np.count_nonzero((eigenvalues >= M - 2 - 1e-9) & (eigenvalues <= M + 2 + 1e-9)))
    return MassProfile(
        basis=fb,
        low_band_count=low,
        high_band_count=high,
        even_masses=even_masses,
        odd_masses=odd_masses,
        mass_bound=4.0 / (M - 2) ** 2,
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
    diag = a.require_diagonal()
    if any(s % c != 0 for s, c in zip(a.box.sides, q)):
        raise ValueError(f"box sides {a.box.sides} are not multiples of periods {q}")
    # axes (orbit_1, pos_1, orbit_2, pos_2, ...), the residue reshape of spectra.sine_square_sums
    blocked = diag.reshape(sum(((s // c, c) for s, c in zip(a.box.sides, q)), ()))
    sums = blocked.sum(axis=tuple(range(0, 2 * a.box.d, 2))).reshape(-1)
    return float(np.max(np.abs(sums[:, None] - sums[None, :])))


@dataclass(eq=False)
class PartialQeResult:
    variance: float
    lc_deviation: float
    lc_checked: bool
    basis: FloquetBasis | EigenSolveResult  # the eigenbasis behind the variance, with its residual and gram_error


def partial_qe_experiment(
    potential: PeriodicPotential,
    N: int,
    a: Observable,
    enforce_lc: bool = True,
    exploratory: bool = False,
) -> PartialQeResult:
    """Quantum variance of a centered observable over an eigenbasis of the block operator.

    The observable must have sup-norm at most 1 and satisfy the block-orbit
    sum condition up to ``1e-12 max(1, sup|a|) V``, V the block volume;
    violations raise :class:`LcViolationError` with the
    measured deviation unless ``enforce_lc`` is off (useful to exhibit the
    failure mode). Both are checked before any operator is built. Periods
    above 2 are admitted only in exploratory mode, where nothing is asserted
    about the outcome.

    Periods in {1, 2} use the Floquet block basis (:class:`FloquetBasis`),
    solved in closed form when at most one period is 2 and by a batched
    ``eigh`` of the blocks otherwise; longer periods use the dense solve
    (:func:`eigenbasis`). The result keeps that basis as ``basis``, and with
    it the certificates ``basis.residual`` and ``basis.gram_error``, on the
    Floquet path computed on first read. Inside degenerate eigenspaces the
    variance depends on the basis chosen there: it is taken over the Floquet
    modes, or over LAPACK's choice on the dense path. A basis-invariant
    replacement is still open.
    """
    q = potential.q
    dense = any(c not in (1, 2) for c in q)
    if dense and not exploratory:
        raise UnsupportedPeriodError(f"periods {q} exceed 2 and are admitted only in exploratory scans")
    box = lattice_block(q, N)
    if a.box != box:
        raise ValueError(f"observable box {a.box.sides} does not match block {box.sides}")
    sup = a.sup_norm
    if sup > 1.0 + 1e-12:
        raise ValueError(f"observable sup-norm {sup} exceeds 1")
    deviation = lc_deviation(a, q)  # a is diagonal from here on, so sup is also the largest |diagonal entry|
    tol = 1e-12 * max(1.0, sup) * box.volume
    checked = deviation <= tol
    if enforce_lc and not checked:
        raise LcViolationError(f"block-orbit sums differ by {deviation:.3e} (tolerance {tol:.3e})")
    basis = eigenbasis(potential, N) if dense else FloquetBasis(potential, N)
    return PartialQeResult(
        variance=quantum_variance(basis, centered(a)),
        lc_deviation=deviation,
        lc_checked=checked,
        basis=basis,
    )
