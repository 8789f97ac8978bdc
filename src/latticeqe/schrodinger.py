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
experiments solve those, in closed form as ``2 x 2`` Walsh pairs when the
potential depends only on the parity of the residue (every potential with at
most one period 2, and the staggered one in any dimension) and with a
batched ``eigh`` otherwise. The dense operator and ``eigh`` serve periods of
three or more, wraparound boundaries, and the tests as the oracle.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import cache, cached_property

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


@cache
def _walsh_pairs(q: tuple[int, ...]) -> tuple[np.ndarray, list, np.ndarray]:
    """The residue parities and Walsh signs of the pair solve for periods ``q`` in {1, 2}.

    With ``Q = prod(q)`` residues and ``P = max(Q/2, 1)`` pairs: ``odd[r]``,
    the parity of the number of bits set in residue ``r``; ``signs[l]``,
    ``(-1)^(s_l)`` for each pair representative ``s < P`` on a period-2 axis
    ``l``, shaped to broadcast over the pairs and the k grid, and ``None`` on
    a period-1 axis; ``chi[r, j] = sqrt(2/Q) (-1)^(s.r)``
    for the column ``j`` of pair ``s = j mod P``.
    """
    Q = math.prod(q)
    P = max(Q // 2, 1)
    signs, stride = [], Q
    for c in q:
        stride //= c
        sign = np.array([-1.0 if s & stride else 1.0 for s in range(P)]).reshape((P,) + (1,) * len(q))
        signs.append(sign if c == 2 else None)
    odd = np.array([bin(r).count("1") % 2 for r in range(Q)])
    chi = np.array([[math.sqrt(2.0 / Q) * (-1.0) ** bin(j % P & r).count("1") for j in range(2 * P)] for r in range(Q)])
    for table in (odd, chi, *(x for x in signs if x is not None)):
        table.flags.writeable = False  # every caller shares the cached tables
    return odd, signs, chi


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

    A parity potential, one whose values depend only on the parity of the
    number of bits set in the residue (every potential with ``Q <= 2``, and
    the staggered potential in any dimension), is solved in closed form, all
    ``k`` and all ``Q/2`` Walsh pairs of each block at once
    (:meth:`_pair_solve`); any other by one batched ``eigh``. Exact equality
    of the values picks the solve. Kept are the amplitudes
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
    modes, and for a parity potential the Walsh pairs inside each block; a
    quantity that depends on that choice, such as the quantum variance, is
    taken over this basis. A basis-invariant replacement is still open.
    """

    potential: PeriodicPotential
    N: int

    def __post_init__(self):
        q = self.potential.q
        if any(c not in (1, 2) for c in q):
            raise UnsupportedPeriodError(f"Floquet blocks need periods in {{1, 2}}, got {q}")
        self.box = lattice_block(q, self.N)
        values = self.potential.values.reshape(-1)
        if (values == values[_walsh_pairs(q)[0]]).all():  # a parity potential
            w, self.amplitudes = self._pair_solve()
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

    def _pair_solve(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenpairs of the blocks of a parity potential in closed form, laid out as ``eigh`` lays them out.

        With ``d'`` periods 2 the Walsh characters ``chi_s(r) = (-1)^(s.r)``
        diagonalise the hops between residues: ``F_l chi_s = (-1)^(s_l) chi_s``,
        so ``e_s = sum_l (-1)^(s_l) 2 cos(k_l)`` over the period-2 axes. A
        potential that takes ``v_even`` on residues of even popcount and
        ``v_odd`` on the others couples ``chi_s`` only with ``chi_(s XOR 1...1)``,
        whose hop eigenvalue is ``-e_s``. In the frame of the even and odd
        parts of ``chi_s`` each of the ``Q/2`` pairs, ``s`` with its first
        period-2 bit clear, is the ``2 x 2`` block ``[[a, b], [b, c]]`` with
        ``a = v_even + h``, ``c = v_odd + h``, ``b = e_s`` and ``h`` the hops
        of the period-1 axes, summed in the order :meth:`_blocks` sums them.

        Its eigenvalues are ``m -+ r``, ``m = (a + c)/2``, ``r = hypot((a - c)/2, b)``:
        the one of larger magnitude is ``m + sign(m) r``, the other comes from
        LAPACK ``dlaev2``'s quotient ``(acmx/rt1) acmn - (b/rt1) b``, so neither
        cancels and no product of two entries can overflow. The eigenvector of
        ``m + r`` is ``(|a - c|/2 + r, b)``, reversed if ``a < c``; the other
        is its rotation by a right angle. Where ``a = c`` and ``b = 0`` the
        block is ``m`` times the identity, and so is its pair. Each pair
        vector ``(x, y)`` becomes ``c[r] = sqrt(2/Q) chi_s(r) (x or y by the
        parity of r)``; with one period 2 that is ``(x, y)`` itself. With more,
        the ``Q`` eigenvalues of each block are sorted ascending and the
        columns with them. A ``1 x 1`` block is its entry, with amplitude 1.
        The blocks are solved a slab of the k grid's first axis at a time
        (:meth:`_solve_slab`), about ``2^12`` blocks or one index of that
        axis, so that no temporary grows with the grid.
        """
        N, d, hops = self.N, self.potential.d, self._hops()
        Q = self.potential.values.size
        if Q == 1:  # every axis has period 1, so the entry is the value plus each hop, spanning the grid
            entry = self.potential.values.reshape(-1)[0]
            for hop in hops:
                entry = entry + hop
            return entry.reshape(-1, 1), np.ones((entry.size, 1, 1))
        w, amplitudes = np.empty((N**d, Q)), np.empty((N**d, Q, Q))
        per = N ** (d - 1)  # blocks per index along the first axis
        step = max(1, (1 << 12) // per)
        for i in range(0, N, step):
            rows = slice(i * per, min(i + step, N) * per)
            self._solve_slab([hops[0][i : i + step], *hops[1:]], w[rows], amplitudes[rows])
        return w, amplitudes

    def _solve_slab(self, hops: list[np.ndarray], w: np.ndarray, amplitudes: np.ndarray) -> None:
        """Solve the blocks of one slab into ``w`` and ``amplitudes``, as :meth:`_pair_solve` says.

        ``hops`` are the slab's ``2 cos(k_l)`` per axis, each shaped to
        broadcast over the slab's k grid.
        """
        odd, signs, chi = _walsh_pairs(self.potential.q)
        P = len(odd) // 2
        diag, b = list(self.potential.values.reshape(-1)[:2]), None
        for sign, hop in zip(signs, hops):
            if sign is None:
                diag = [x + hop for x in diag]
            else:  # every pair's first period-2 bit is clear, so the first such axis hops with +
                b = hop if b is None else b + sign * hop  # (P, grid...) after the first
        # a and c vary along the period-1 axes only and b along the pairs and the
        # period-2 axes; the arithmetic broadcasts them over the pairs and the grid.
        a, c = diag
        # Halves first: a + c and a - c may overflow where the eigenvalues do not.
        half_a, half_c = 0.5 * a, 0.5 * c
        h, m = half_a - half_c, half_a + half_c
        r = np.hypot(h, b)  # > 0 with one period 2: b = 2 cos(k) with 0 < k < pi/2
        big = m + np.copysign(r, m)
        swap = np.abs(a) > np.abs(c)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # 0/0 only where h = b = 0
            small = (np.where(swap, a, c) / big) * np.where(swap, c, a) - (b / big) * b
            t = b / (np.abs(h) + r)  # |t| <= 1, and 0 where |h| + r overflows
        if P > 1 and not r.all():  # blocks m I: their pair is m, m with the identity
            flat = r == 0
            small[flat], t[flat] = big[flat], 0.0
        pairs_w = w.T.reshape((2, P) + r.shape[-len(hops):])  # [m - r or m + r, pair, k...]
        np.minimum(small, big, out=pairs_w[0])
        np.maximum(small, big, out=pairs_w[1])
        cs = 1.0 / np.sqrt(1.0 + t * t)
        sn = t * cs
        up = h >= 0
        u, v = np.where(up, cs, sn).reshape(P, -1).T, np.where(up, sn, cs).reshape(P, -1).T  # eigenvector of m + r
        # [k, parity of the residue, column]: column j < P holds pair j's vector of
        # m - r, (-v, u), and column P + j its vector of m + r
        columns = amplitudes if P == 1 else np.empty((len(u), 2, 2 * P))
        np.negative(v, out=columns[:, 0, :P])
        columns[:, 0, P:] = columns[:, 1, :P] = u
        columns[:, 1, P:] = v
        if P == 1:  # the residue is its parity, chi = 1, and the pair's eigenvalues are ascending already
            return
        order = np.argsort(w, axis=1, kind="stable")
        w.sort(axis=1, kind="stable")  # in place, the values take_along_axis(w, order) would give
        columns = np.take_along_axis(columns, order[:, None, :], axis=2)
        np.multiply(columns[:, odd, :], np.take(chi, order, axis=1).transpose(1, 0, 2), out=amplitudes)

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
    solved in closed form when the values depend only on the residue's parity
    (at most one period 2, or a staggered potential) and by a batched
    ``eigh`` of the blocks otherwise; longer periods use the dense solve
    (:func:`eigenbasis`). The result keeps that basis as ``basis``, and with
    it the certificates ``basis.residual`` and ``basis.gram_error``, on the
    Floquet path computed on first read. Inside degenerate eigenspaces the
    variance depends on the basis chosen there: it is taken over the Floquet
    modes (inside a block, the Walsh pairs of a parity potential or LAPACK's
    choice), or over LAPACK's choice on the dense path. A basis-invariant
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
