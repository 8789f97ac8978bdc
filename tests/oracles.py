"""Test-only reference implementations, and a memory probe.

Each reference is an independent, slower construction of something the
library computes faster, or the one-column form of a batched library
computation; tests compare the library against them. None of them is part
of the package.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np

from latticeqe.correspondence import _embed, _embedding_maps, _residual_chunks
from latticeqe.lattice import LatticeBox, Wavefunction
from latticeqe.schrodinger import FloquetBasis
from latticeqe.spectra import ProductBasis, _add_neighbours


# -- report writers: the row-by-row serializers the columnar ones replaced ----

def _plain(value):
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _cell(value) -> str:
    value = _plain(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def loop_write_csv(report, path) -> Path:
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(report.columns)
        for row in report.rows:
            writer.writerow([_cell(row.get(col)) for col in report.columns])
    return path


def loop_write_json(report, path) -> Path:
    path = Path(path)
    payload = {
        "experiment": report.experiment,
        "metadata": _plain(report.metadata),
        "columns": list(report.columns),
        "rows": [{k: _plain(v) for k, v in row.items()} for row in report.rows],
        "passed": report.passed,
    }
    text = json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


# -- adjacency ----------------------------------------------------------------

def loop_adjacency_matrix(box: LatticeBox, mode: str) -> np.ndarray:
    """Dense adjacency matrix by a stride loop over the axes, last axis first."""
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


def apply_adjacency(psi: Wavefunction, mode: str) -> Wavefunction:
    """The nearest-neighbour sum of one function, by the in-place kernel of the correspondence check."""
    g = psi.grid()
    out = np.zeros_like(g)
    _add_neighbours(out, g, psi.box.d, mode)
    return Wavefunction.from_grid(psi.box, out)


def roll_adjacency(psi: Wavefunction, mode: str) -> np.ndarray:
    """Nearest-neighbour sum of ``psi`` as a grid, by ``np.roll`` sums or boundary-clipped slices."""
    g = psi.grid()
    out = np.zeros_like(g)
    for axis, s in enumerate(psi.box.sides):
        if mode == "periodic":
            out = out + np.roll(g, 1, axis=axis) + np.roll(g, -1, axis=axis)
        else:
            lo = [slice(None)] * psi.box.d
            hi = [slice(None)] * psi.box.d
            lo[axis] = slice(0, s - 1)
            hi[axis] = slice(1, s)
            out[tuple(lo)] += g[tuple(hi)]
            out[tuple(hi)] += g[tuple(lo)]
    return out


# -- embedding ----------------------------------------------------------------

def doubled(box: LatticeBox) -> LatticeBox:
    """The wraparound box with sides 2 n_l + 2."""
    return LatticeBox(tuple(2 * s + 2 for s in box.sides))


def loop_axis_maps(n: int):
    """Source index (0-based) and sign of each target coordinate v in [[1, 2n+2]], one v at a time."""
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


def embed(psi: Wavefunction) -> Wavefunction:
    """The antisymmetric extension of one function, by the gather of the correspondence check."""
    source, sign = _embedding_maps(psi.box.sides)
    return Wavefunction.from_grid(doubled(psi.box), sign * psi.values[source])


def embed_by_reflections(psi: Wavefunction) -> Wavefunction:
    """The antisymmetric extension built by sweeping reflections axis by axis.

    Copies the scaled source block, zeroes the divisible hyperplanes, then
    propagates with a sign flip across each coordinate reflection in turn.
    Agrees exactly with ``embed``: the extension is uniquely determined.
    """
    target = doubled(psi.box)
    dtype = complex if np.iscomplexobj(psi.values) else float
    out = np.zeros(target.sides, dtype=dtype)
    src_block = tuple(slice(0, n) for n in psi.box.sides)
    out[src_block] = 2.0 ** (-psi.box.d / 2.0) * psi.grid()
    for axis, n in enumerate(psi.box.sides):
        lower = [slice(None)] * target.d
        upper = [slice(None)] * target.d
        lower[axis] = slice(0, n)
        upper[axis] = slice(n + 1, 2 * n + 1)
        out[tuple(upper)] = -np.flip(out[tuple(lower)], axis=axis)
    return Wavefunction.from_grid(target, out)


def loop_correspondence_family(basis):
    """One ``embed`` and one ``apply_adjacency`` per basis column."""
    images = []
    residuals = []
    for j in range(basis.n):
        psi = Wavefunction(basis.box, basis.vectors[:, j])
        image = embed(psi)
        res = apply_adjacency(image, "periodic").values - basis.eigenvalues[j] * image.values
        residuals.append(np.linalg.norm(res))
        images.append(image.values)
    E = np.column_stack(images)
    gram = E.conj().T @ E
    gram_error = float(np.max(np.abs(gram - np.eye(basis.n))))
    return float(max(residuals)), gram_error


def _exact(z) -> tuple[Fraction, Fraction]:
    z = complex(z)
    return Fraction(z.real), Fraction(z.imag)


def _times(u, v) -> tuple[Fraction, Fraction]:
    return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def exact_product_certificates(pb: ProductBasis):
    """The factored correspondence certificate's two squares, in exact rational arithmetic.

    Takes the computed 1-D data of the factored check: the embedded factor
    columns ``w_k`` (in the 1-D eigenvalue order), their computed ring
    residuals ``r_k`` and their computed Gram matrix ``g1``. For every
    frequency ``k`` it builds, entry by entry on the doubled box, the
    embedded column ``W_k = w_(k_1) x ... x w_(k_d)`` and its residual
    ``delta_k W_k + sum_l w x .. x r_(k_l) x .. x w``, ``delta_k`` the exact
    defect ``sum_l lam1[k_l] - eigs[k]``. Returns ``(max_k ||R_k||^2, max
    |(g1 x ... x g1) - I|^2, scale)`` as exact fractions, with ``scale``
    (a float) the largest ``(|delta_k| prod ||w|| + sum_l ||r_(k_l)||
    prod_(m != l) ||w||)^2``, the size of the terms that the composition
    rounds against. Small boxes only: ``V (2N+2)^d`` entries and ``V^2``
    Gram entries.
    """
    N, d = pb.N, pb.d
    order = np.argsort(pb.lam1, kind="stable")
    lam = pb.lam1[order]
    W = _embed(pb.factor()[:, order], (N,))
    r = np.concatenate([rows for _, rows in _residual_chunks(W, lam)])
    g = W.conj() @ W.T
    w_norm, r_norm = np.linalg.norm(W, axis=1), np.linalg.norm(r, axis=1)
    w_exact, r_exact = [[_exact(x) for x in row] for row in W], [[_exact(x) for x in row] for row in r]
    eigs = pb.eigs.reshape((N,) * d)
    worst_residual, scale = Fraction(0), 0.0
    for k in itertools.product(range(N), repeat=d):
        delta = sum(Fraction(lam[kl]) for kl in k) - Fraction(eigs[tuple(order[list(k)])])
        square = Fraction(0)
        for site in itertools.product(range(2 * N + 2), repeat=d):
            factors = [w_exact[kl][x] for kl, x in zip(k, site)]
            entry = (delta, Fraction(0))
            for f in factors:
                entry = _times(entry, f)
            for l in range(d):
                term = r_exact[k[l]][site[l]]
                for m in range(d):
                    if m != l:
                        term = _times(term, factors[m])
                entry = (entry[0] + term[0], entry[1] + term[1])
            square += entry[0] ** 2 + entry[1] ** 2
        worst_residual = max(worst_residual, square)
        norms = [w_norm[kl] for kl in k]
        size = abs(float(delta)) * math.prod(norms) + sum(
            r_norm[kl] * math.prod(norms[:l] + norms[l + 1:]) for l, kl in enumerate(k))
        scale = max(scale, size * size)
    g_exact = [[_exact(x) for x in row] for row in g]
    worst_gram = Fraction(0)
    for k in itertools.product(range(N), repeat=d):
        for m in itertools.product(range(N), repeat=d):
            entry = (Fraction(1), Fraction(0))
            for kl, ml in zip(k, m):
                entry = _times(entry, g_exact[kl][ml])
            if k == m:
                entry = (entry[0] - 1, entry[1])
            worst_gram = max(worst_gram, entry[0] ** 2 + entry[1] ** 2)
    return worst_residual, worst_gram, scale


# -- correlators --------------------------------------------------------------

def dense_shift_overlaps(S1: np.ndarray, z: int) -> np.ndarray:
    """<s_j, rho_z s_j> from the dense 1-D sine factor, summed along x in order."""
    N = len(S1)
    return np.sum(S1[: N - z] * S1[z:], axis=0)


def slab_shift_overlaps(N: int, z: int, width: int = 512) -> np.ndarray:
    """:func:`dense_shift_overlaps` of the sine factor, built a slab of columns at a time.

    Each slab's entries come from the arithmetic of ``ProductBasis.factor``
    and each column is summed along x in order, so the result has the dense
    factor's bits without an ``N x N`` array. Slabs are near-equal and at
    least two columns wide, as a one-column sum would be pairwise.
    """
    x = np.arange(1, N + 1)
    slabs = np.array_split(np.arange(1, N + 1), -(-N // width))
    return np.concatenate([
        dense_shift_overlaps(np.sqrt(2.0 / (N + 1)) * np.sin(np.outer(x, k) * np.pi / (N + 1)), z)
        for k in slabs
    ])


def matmul_chebyshev_operator(n: int, N: int) -> np.ndarray:
    """Phi_A(n) on [[1, N]] by the operator recursion with dense products ``A @ T_n``."""
    A = loop_adjacency_matrix(LatticeBox((N,)), "dirichlet")
    prev = np.eye(N)
    if n == 0:
        return prev
    cur = A / 2.0
    for _ in range(n - 1):
        prev, cur = cur, A @ cur - prev
    return cur


def infinite_chebyshev(n: int, N: int) -> np.ndarray:
    """Restriction to [[1, N]] of the full-line pattern: 1/2 at distance n."""
    if n == 0:
        return np.eye(N)
    x = np.arange(N)
    return np.where(np.abs(x[:, None] - x[None, :]) == n, 0.5, 0.0)


# -- certificates -------------------------------------------------------------

def dense_certificates(H: np.ndarray, eigenvalues: np.ndarray, vectors: np.ndarray) -> tuple[float, float]:
    """Residual and Gram error of a dense solve, as ``eigensolve_symmetric`` once took them on the matrix itself.

    The squares in the norm overflow once entries pass about ``1e154``.
    """
    residual = float(np.max(np.linalg.norm(H @ vectors - vectors * eigenvalues, axis=0)))
    gram_error = float(np.max(np.abs(vectors.T @ vectors - np.eye(H.shape[0]))))
    return residual, gram_error


def floquet_blocks(potential, N: int) -> np.ndarray:
    """All ``N^d`` Floquet blocks ``B(k)`` of a potential with periods in {1, 2}, k row-major, as one stack.

    ``B(k) = diag(values) + sum_l 2 cos(k_l) F_l``, ``F_l`` flipping residue
    bit l on a period-2 axis and the identity on a period-1 axis, the hops
    added axis by axis.
    """
    q = potential.q
    d, Q = len(q), potential.values.size
    B = np.zeros((N,) * d + (Q, Q))
    r = np.arange(Q)
    B[..., r, r] = potential.values.reshape(-1)
    stride = Q
    for l, c in enumerate(q):
        stride //= c
        k = np.pi * np.arange(1, N + 1) / (c * N + 1)
        hop = 2.0 * np.cos(k).reshape([N if m == l else 1 for m in range(d)])
        B[..., r, r ^ (stride if c == 2 else 0)] += hop[..., None]
    return B.reshape(-1, Q, Q)


def eager_floquet_certificates(potential, N: int) -> tuple[float, float]:
    """Residual and Gram error of the Floquet block solve, computed right after the solve.

    Builds the whole block stack (:func:`floquet_blocks`), takes the
    eigenpairs ``(w, amp)`` from a fresh ``FloquetBasis``'s own solve (closed
    form or batched ``eigh``) and takes the worst ``||B c - c w||`` and
    ``|c^T c - I|`` in slices of ``2^14`` blocks, all in one pass as
    ``FloquetBasis`` construction once did.
    """
    Q = potential.values.size
    B = floquet_blocks(potential, N)
    solved = FloquetBasis(potential, N)
    w, amp = solved.eigs.reshape(-1, Q), solved.amplitudes
    res, gram = [], []
    for s in range(0, len(B), 1 << 14):
        b, c, ws = B[s : s + (1 << 14)], amp[s : s + (1 << 14)], w[s : s + (1 << 14)]
        res.append(np.max(np.linalg.norm(b @ c - c * ws[:, None, :], axis=1)))
        gram.append(np.max(np.abs(np.swapaxes(c, 1, 2) @ c - np.eye(Q))))
    return float(max(res)), float(max(gram))


# -- center matrix ------------------------------------------------------------

def sine_axis_center_matrix(a) -> np.ndarray:
    """C = S* a S over the sine basis, one site axis at a time, as ``center_matrix`` first did it."""
    N, d = a.box.sides[0], a.box.d
    S1 = ProductBasis("dirichlet", N, d).factor()
    P = S1[:, :, None] * S1[:, None, :]
    C = a.require_diagonal().reshape((N,) * d)
    for _ in range(d):
        C = np.tensordot(C, P, axes=([0], [0]))
    C = C.transpose(list(range(0, 2 * d, 2)) + list(range(1, 2 * d, 2)))
    return C.reshape(N**d, N**d)


# -- Fourier classes ----------------------------------------------------------

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


# -- degeneracy report: class lists and a dict keyed by frequency tuples -------

def loop_degeneracy_row(N: int, d: int, mode: str, classes, freqs) -> tuple:
    """One ``degeneracy`` report row from class lists and the sorted columns' frequencies."""
    sizes = [len(c) for c in classes]
    cls_of = {freqs[j]: ci for ci, cls in enumerate(classes) for j in cls}
    perm_ok = all(cls_of[tuple(sorted(freq))] == ci for freq, ci in cls_of.items())
    singles = all(s == 1 for s in sizes)
    ok = perm_ok and (singles if d == 1 and mode == "dirichlet" else True)
    return N, len(sizes), max(sizes), sum(s * s for s in sizes), singles, perm_ok, ok


# -- full-size temporaries and coordinate grids: the forms the lean ones replaced

def sine_square_sums_reference(diag: np.ndarray, N: int, q) -> np.ndarray:
    """``spectra.sine_square_sums`` as one expression per axis, each temporary a new array."""
    if np.iscomplexobj(diag):
        return sine_square_sums_reference(diag.real, N, q) + 1j * sine_square_sums_reference(diag.imag, N, q)
    d = len(q)
    j = np.arange(1, N + 1)
    g = diag.reshape(sum(((N, c) for c in q), ()))
    for l, c in enumerate(q):
        L = c * N + 1
        fold = np.minimum(j, L - j)
        g = np.moveaxis(g, (2 * l, 2 * l + 1), (0, 1))
        padded = np.zeros((c, L) + g.shape[2:])
        for r in range(c):
            padded[r, r + 1 :: c] = g[:, r]
        f = np.fft.rfft(padded, axis=1).real
        g = np.moveaxis(c * (f[:, :1] - f[:, fold]) / L, (1, 0), (2 * l, 2 * l + 1))
    return g.transpose(list(range(0, 2 * d, 2)) + list(range(1, 2 * d, 2))).reshape(N**d, -1)


def indices_coord1(box: LatticeBox) -> np.ndarray:
    """The 1-based first coordinate of every site, from the full ``np.indices`` grid."""
    return (np.indices(box.sides)[0] + 1).reshape(-1)


def indices_parity(box: LatticeBox) -> np.ndarray:
    """The odd-coordinate-sum indicator, summed over the full ``np.indices`` grid."""
    return ((np.indices(box.sides) + 1).sum(axis=0) % 2 == 1).astype(float).reshape(-1)


def indices_on_box(potential, box: LatticeBox) -> np.ndarray:
    """``PeriodicPotential.on_box`` indexed by the residues of the full ``np.indices`` grid."""
    grids = np.indices(box.sides)
    return potential.values[tuple(grids[l] % potential.q[l] for l in range(potential.d))].reshape(-1)


def indices_floquet_vectors(fb) -> np.ndarray:
    """``FloquetBasis.vectors`` with each site's residue from the full ``np.indices`` grid."""
    q, N = fb.potential.q, fb.N
    sines = np.ones((1, 1))
    for l, c in enumerate(q):
        x = np.arange(1, c * N + 1)
        sines = np.kron(sines, np.sqrt(2.0 * c / (c * N + 1)) * np.sin(np.outer(x, fb._k(l))))
    grid = np.indices(fb.box.sides).reshape(len(q), -1)
    residue = np.ravel_multi_index(grid % np.array(q)[:, None], q)
    psi = sines[:, :, None] * fb.amplitudes[:, residue, :].transpose(1, 0, 2)
    return psi.reshape(fb.box.volume, -1)[:, fb.order]


# -- memory -------------------------------------------------------------------

def peak_bytes(fn) -> int:
    """Peak bytes traced by ``tracemalloc`` while ``fn()`` runs, its result included."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
