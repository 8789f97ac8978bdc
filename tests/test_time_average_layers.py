"""Class-masked time average, factored center matrix, shared pair enumerator and
vectorized kernel matrices, each against the loop it replaced."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeqe.experiments import RUNS, ExperimentConfig
from latticeqe.lattice import LatticeBox, Observable, cube, shift_set
from latticeqe.schrodinger import FloquetBasis, PeriodicPotential
from latticeqe.spectra import (
    ProductBasis,
    SpectralData,
    _equal_pairs,
    adjacency_matrix,
    bloch_basis,
    default_deg_tol,
    degeneracy_classes,
    lemma_c1_bins,
    lemma_c1_counts,
    sine_basis,
    sine_matrix,
)
from latticeqe.time_average import (
    center_matrix,
    expectations,
    fourier_coefficients,
    theta_decompose,
    time_averaged_observable,
)

from oracles import peak_bytes, sine_axis_center_matrix

# -- oracles: the loops the vectorized code replaced --------------------------

def loop_time_average(basis, a):
    diag = a.require_diagonal()
    V = basis.vectors
    dtype = complex if (np.iscomplexobj(V) or np.iscomplexobj(diag)) else float
    out = np.zeros((basis.box.volume, basis.box.volume), dtype=dtype)
    for cls in basis.classes:
        Vc = V[:, cls]
        mid = Vc.conj().T @ (diag[:, None] * Vc)
        out += Vc @ mid @ Vc.conj().T
    return out


def loop_lemma_c1_counts(N, d):
    pb = ProductBasis("dirichlet", N, d)
    freqs, order = pb.freqs(), pb.order
    classes = degeneracy_classes(pb.eigs[order], default_deg_tol(d))
    sign_vectors = list(itertools.product((1, -1), repeat=d))
    counts = {}
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


def loop_theta_entries(a):
    """``{t: (coefficient, entries)}`` in the loop's insertion order."""
    N, d = a.box.sides[0], a.box.d
    pb = ProductBasis("dirichlet", N, d)
    freqs, order = pb.freqs(), pb.order
    coeffs = fourier_coefficients(a)
    scale = 1.0 / (2 * (N + 1)) ** d
    classes = degeneracy_classes(pb.eigs[order], default_deg_tol(d))
    sign_pairs = []
    for eps in itertools.product((1, -1), repeat=d):
        for epp in itertools.product((1, -1), repeat=d):
            sgn = 1
            for el, e2 in zip(eps, epp):
                sgn *= -el * e2
            sign_pairs.append((eps, epp, sgn))
    out = {}
    for cls in classes:
        members = [int(order[i]) for i in cls]
        for i in members:
            for j in members:
                k, m = freqs[i], freqs[j]
                for eps, epp, sgn in sign_pairs:
                    t = tuple(k[l] * eps[l] + m[l] * epp[l] for l in range(d))
                    coeff = complex(coeffs[tuple(c + 2 * N for c in t)])
                    entries = out.setdefault(t, (coeff, {}))[1]
                    entries[(i, j)] = entries.get((i, j), 0.0) + sgn * coeff * scale
    return out


def loop_to_matrix(K):
    vol = K.box.volume
    dtype = complex if any(v.dtype.kind == "c" for v in K.offsets.values()) else float
    M = np.zeros((vol, vol), dtype=dtype)
    sites = np.indices(K.box.sides).reshape(K.box.d, -1).T  # 0-based, row-major
    for z, vals in K.offsets.items():
        for i, x in enumerate(sites):
            if vals[i] != 0:
                M[i, np.ravel_multi_index(tuple(x + z), K.box.sides)] = vals[i]
    return M


def bits(values):
    return np.array(list(values), dtype=complex).view(np.uint64)


# -- time average -------------------------------------------------------------

def random_diagonal(box, rng, complex_values):
    vals = rng.uniform(-1.0, 1.0, box.volume)
    if complex_values:
        vals = vals + 1j * rng.uniform(-1.0, 1.0, box.volume)
    return Observable.diagonal(box, vals)


def numeric_basis(N, d):
    """An eigh basis of the adjacency matrix, which derives its classes by the package's rule."""
    box = cube(N, d)
    return SpectralData(box, *np.linalg.eigh(adjacency_matrix(box)))


@st.composite
def bases(draw):
    kind = draw(st.sampled_from(["sine", "bloch", "floquet", "numeric"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "floquet":
        d = draw(st.integers(1, 2))
        q = tuple(draw(st.sampled_from((1, 2))) for _ in range(d))
        values = [draw(st.sampled_from((0.0, 1.0, 100.0))) for _ in range(int(np.prod(q)))]
        N = draw(st.integers(1, {1: 20, 2: 5}[d]))
        return FloquetBasis(PeriodicPotential(q, values), N), rng
    d = draw(st.integers(1, 3))
    N = draw(st.integers(1, {1: 30, 2: 10, 3: 5}[d]))
    if kind == "numeric":
        return numeric_basis(N, d), rng
    return (sine_basis if kind == "sine" else bloch_basis)(N, d), rng


def rotate_within_classes(basis, rng):
    V = basis.vectors.copy()
    for cls in basis.classes:
        M = rng.normal(size=(len(cls), len(cls)))
        if np.iscomplexobj(V):
            M = M + 1j * rng.normal(size=M.shape)
        Q, _ = np.linalg.qr(M)
        V[:, cls] = V[:, cls] @ Q
    return SpectralData(basis.box, basis.eigenvalues, V)


class TestTimeAverage:
    @settings(max_examples=80, deadline=None)
    @given(case=bases(), complex_values=st.booleans())
    def test_matches_class_loop(self, case, complex_values):
        basis, rng = case
        a = random_diagonal(basis.box, rng, complex_values)
        fast = time_averaged_observable(basis, a)
        oracle = loop_time_average(basis, a)
        assert fast.dtype == oracle.dtype
        assert np.max(np.abs(fast - oracle)) <= 1e-12 * a.sup_norm
        rotated = time_averaged_observable(rotate_within_classes(basis, rng), a)
        assert np.max(np.abs(rotated - fast)) <= 1e-12 * a.sup_norm

    @pytest.mark.parametrize("make", [sine_basis, bloch_basis])
    def test_at_most_four_volume_squared_arrays(self, make):
        basis = make(20, 2)
        a = random_diagonal(basis.box, np.random.default_rng(3), True)
        V = basis.vectors
        peak = peak_bytes(lambda: time_averaged_observable(basis, a))
        # V itself plus at most three arrays of its size made inside
        assert peak <= 3 * V.shape[0] ** 2 * np.dtype(complex).itemsize + (1 << 16)


# -- center matrix ------------------------------------------------------------

class TestCenterMatrix:
    @pytest.mark.parametrize("d,Ns", [(1, [1, 2, 7, 40]), (2, [1, 3, 8, 15]), (3, [2, 4, 6])])
    @pytest.mark.parametrize("complex_values", [False, True])
    def test_matches_dense(self, d, Ns, complex_values):
        rng = np.random.default_rng(d)
        for N in Ns:
            a = random_diagonal(cube(N, d), rng, complex_values)
            C, freqs, eigs = center_matrix(a)
            S, dense_freqs, dense_eigs = sine_matrix(N, d)
            assert freqs == dense_freqs and np.array_equal(eigs, dense_eigs)
            assert np.max(np.abs(C - S.T @ (a.diag()[:, None] * S))) <= 1e-12 * a.sup_norm

    @pytest.mark.parametrize("d,Ns", [(2, [1, 2, 8, 11]), (3, [1, 2, 5])])
    @pytest.mark.parametrize("complex_values", [False, True])
    def test_bitwise_equal_to_axis_loop(self, d, Ns, complex_values):
        # the kernel shared with the factored time average, against the code it was lifted from
        rng = np.random.default_rng(10 + d)
        for N in Ns:
            a = random_diagonal(cube(N, d), rng, complex_values)
            C, oracle = center_matrix(a)[0], sine_axis_center_matrix(a)
            assert C.dtype == oracle.dtype and C.shape == oracle.shape
            assert C.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("N", [1, 2, 7, 40])
    @pytest.mark.parametrize("complex_values", [False, True])
    def test_one_axis_is_the_numeric_product(self, N, complex_values):
        # at d = 1, V = F: the numeric basis's product bit for bit, the axis loop within rounding
        a = random_diagonal(cube(N, 1), np.random.default_rng(N), complex_values)
        F = sine_basis(N, 1).factor()
        C = center_matrix(a)[0]
        assert C.tobytes() == (F.T @ (a.diag()[:, None] * F)).tobytes()
        assert np.max(np.abs(C - sine_axis_center_matrix(a))) <= 1e-12 * a.sup_norm

    @pytest.mark.parametrize("complex_values", [False, True])
    def test_one_axis_peak_memory(self, complex_values):
        # P[x, k, m] would hold N results; F, a F, the product and a complex cast of F fit in four
        N = 300
        a = random_diagonal(cube(N, 1), np.random.default_rng(7), complex_values)
        basis = sine_basis(N, 1)
        basis.labels  # cached outside the measured calls
        result = N * N * np.dtype(complex if complex_values else float).itemsize
        assert peak_bytes(lambda: center_matrix(a)) <= 4 * result
        assert peak_bytes(lambda: time_averaged_observable(basis, a)) <= 4 * result
        T = time_averaged_observable(basis, a)
        assert np.max(np.abs(T - loop_time_average(basis, a))) <= 1e-12 * a.sup_norm

    @pytest.mark.parametrize("d,N", [(2, 24), (2, 32), (3, 8), (4, 5)])
    @pytest.mark.parametrize("complex_values", [False, True])
    def test_permuted_a_slab_run_at_a_time(self, d, N, complex_values):
        # boxes whose k_1 slabs take several runs of the in-place permutation
        a = random_diagonal(cube(N, d), np.random.default_rng(20 + d), complex_values)
        assert center_matrix(a)[0].tobytes() == sine_axis_center_matrix(a).tobytes()

    @pytest.mark.parametrize("d,N", [(2, 32), (3, 8)])
    @pytest.mark.parametrize("complex_values", [False, True])
    def test_one_volume_squared_array(self, d, N, complex_values):
        # C and a V^2/N share; a transposed copy of C would pass 2
        a = random_diagonal(cube(N, d), np.random.default_rng(30 + d), complex_values)
        itemsize = np.dtype(complex if complex_values else float).itemsize
        assert peak_bytes(lambda: center_matrix(a)) <= 1.2 * N ** (2 * d) * itemsize

    def test_scale_without_dense_basis(self, monkeypatch):
        def refuse(self):
            raise AssertionError("dense sine matrix built")

        monkeypatch.setattr(ProductBasis, "matrix", refuse)
        N, d = 64, 2
        a = random_diagonal(cube(N, d), np.random.default_rng(5), False)
        C, _, _ = center_matrix(a)
        assert C.shape == (N**d, N**d)
        assert np.max(np.abs(C - C.T)) <= 1e-12
        assert np.trace(C) == pytest.approx(np.sum(a.diag()), abs=1e-10)
        # the diagonal is <s_k, a s_k>, which the factored contraction gives too
        basis = sine_basis(N, d)
        np.testing.assert_allclose(np.diag(C)[basis.order], expectations(basis, a),
                                   rtol=0, atol=1e-12)


# -- pair enumerator ----------------------------------------------------------

PAIR_SIZES = [(1, N) for N in (1, 2, 5, 9, 16)] + [(2, N) for N in (1, 2, 5, 8, 12)]
PAIR_SIZES += [(3, N) for N in (2, 3, 5)]


class TestPairEnumerator:
    @pytest.mark.parametrize("d,N", PAIR_SIZES)
    def test_lemma_c1_counts_match_loop(self, d, N):
        new, old = lemma_c1_counts(N, d), loop_lemma_c1_counts(N, d)
        assert new == old
        assert list(new) == sorted(old)
        for (t, eps, epp), count in new.items():
            assert all(type(c) is int for c in t + eps + epp) and type(count) is int

    @pytest.mark.parametrize("d,N", PAIR_SIZES)
    def test_theta_decompose_bitwise(self, d, N):
        rng = np.random.default_rng(N)
        a = Observable.diagonal(cube(N, d), rng.uniform(-1, 1, N**d))
        dec, old = theta_decompose(a), loop_theta_entries(a)
        assert list(dec.components) == sorted(old)
        for t, (coeff, entries) in old.items():
            comp = dec.components[t]
            assert comp.coefficient == coeff
            assert list(zip(comp.rows.tolist(), comp.cols.tolist())) == list(entries)
            assert np.array_equal(bits(comp.values), bits(entries.values()))
            assert comp.nnz == sum(1 for v in entries.values() if v != 0)

    @pytest.mark.parametrize("d,N", [(1, 4), (2, 4)])
    def test_theta_nnz_skips_exact_zeros(self, d, N):
        # the alternating sign has exactly vanishing Fourier coefficients, so some entries are 0.0
        dec = theta_decompose(Observable.diagonal(cube(N, d), (-1.0) ** np.arange(N**d)))
        comps = list(dec.components.values())
        assert [comp.nnz for comp in comps] == [np.count_nonzero(comp.values) for comp in comps]
        assert any(comp.nnz < comp.values.size for comp in comps)

    @pytest.mark.parametrize("d,N", [(1, 9), (2, 5), (2, 8), (3, 3)])
    def test_theta_matrices_match_entry_loops(self, d, N):
        # the COO arrays against the entry-dict loops they replaced, bit for bit
        rng = np.random.default_rng(N)
        dec = theta_decompose(Observable.diagonal(cube(N, d), rng.uniform(-1, 1, N**d)))
        total = np.zeros((dec.n, dec.n), dtype=complex)
        for comp in dec.components.values():
            M = np.zeros((dec.n, dec.n), dtype=complex)
            for i, j, v in zip(comp.rows.tolist(), comp.cols.tolist(), comp.values.tolist()):
                M[i, j] = v
                total[i, j] += v
            assert np.array_equal(bits(comp.matrix(dec.n)), bits(M))
            assert np.array_equal(bits(dec.component_matrix(comp.t)), bits(M))
        assert np.array_equal(bits(dec.total_matrix()), bits(total))

    @pytest.mark.parametrize("d,N", PAIR_SIZES)
    def test_lemma_c1_bins_strictly_increasing(self, d, N):
        # the report reads the bins in this order and sorts nothing
        s, t, count = lemma_c1_bins(N, d)
        assert np.all(np.diff(t * 4**d - s) > 0)
        assert np.all(count > 0) and not np.any(t == (4 * N + 1) ** d // 2)

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["sine", "bloch", "numeric"]), dN=st.sampled_from(
        [(1, n) for n in range(1, 30)] + [(2, n) for n in range(1, 13)] + [(3, n) for n in range(1, 6)]),
        seed=st.integers(0, 2**32 - 1))
    def test_equal_pairs_are_the_in_class_pairs(self, kind, dN, seed):
        d, N = dN
        if kind == "numeric":
            basis = rotate_within_classes(numeric_basis(N, d), np.random.default_rng(seed))
        else:
            basis = (sine_basis if kind == "sine" else bloch_basis)(N, d)
        u, v = _equal_pairs(basis.labels)
        assert np.array_equal(basis.labels[u], basis.labels[v])
        expected = [(x, y) for cls in basis.classes for x in cls for y in cls]
        assert list(zip(u.tolist(), v.tolist())) == expected
        sum_sq = sum(len(cls) ** 2 for cls in basis.classes)
        if kind != "numeric":
            mode = "dirichlet" if kind == "sine" else "periodic"
            report = RUNS["degeneracy"][0](ExperimentConfig("degeneracy", d=d, n_values=(N,), mode=mode))
            assert report["sum_sq_sizes"] == [sum_sq]
        assert u.size == sum_sq

    @pytest.mark.parametrize("d,N", [(1, 2), (1, 9), (2, 4), (2, 7), (3, 2), (3, 3)])
    def test_lemma_c1_report_in_sorted_count_order(self, d, N):
        cfg = ExperimentConfig("lemma-c1", d=d, n_values=(N,))
        table = RUNS["lemma-c1"][0](cfg)
        expected = sorted(lemma_c1_counts(N, d).items())
        signs = lambda eps: ";".join(map(str, eps))
        assert table["t"] == [";".join(map(str, t)) for (t, _, _), _ in expected]
        assert table["theta"] == [";".join(repr(c / (N + 1)) for c in t) for (t, _, _), _ in expected]
        assert table["eps"] == [signs(eps) for (_, eps, _), _ in expected]
        assert table["epsp"] == [signs(epp) for (_, _, epp), _ in expected]
        assert table["count"] == [count for _, count in expected]
        assert all(type(c) is int for c in table["count"])
        assert table["pass"] == [count <= 2 * N ** (d - 1) for _, count in expected]


# -- library bits -------------------------------------------------------------

def sha256(*arrays):
    digest = hashlib.sha256()
    for x in arrays:
        digest.update(np.ascontiguousarray(x).tobytes())
    return digest.hexdigest()


# SHA-256 of outputs no report reads: the time average (sine with accidental classes,
# Bloch with a complex diagonal, a dense eigh basis) and every theta component's
# (t, rows, cols, values), in t order. Any change to their bits must be deliberate.
LIBRARY_DIGESTS = {
    ("sine", 11, 2, 0): "e30e072cb14a55567c555d9c232b44bdee0093f3aaa49f19ea914c8055ee0310",
    ("bloch", 4, 3, 1): "949efdc209d74ad3d342ab594865bcf709dde57a29a79bf6331c88ca3651d8ed",
    ("numeric", 6, 2, 2): "f5c1bafcfcb5b2aa66b46b7636806346adf3d474f5f3c4ebb18252247ca009ad",
    ("theta", 9, 1, 3): "c1fd2f5b3bd6136e206f2933dbbe60d77461222103c98260bde5b4ce797e1e8f",
    ("theta", 8, 2, 4): "309110a7d906c9c93a05cbd0dffd5422dbd77925e1a1cadf357a499415ffa03e",
    ("theta", 4, 3, 5): "9a01c02072b7a00840fde65253f12bc92e243c0f0a5e01eb5a4b64ad4c295753",
}


@pytest.mark.parametrize("kind,N,d,seed", list(LIBRARY_DIGESTS))
def test_library_digests(kind, N, d, seed):
    rng = np.random.default_rng(seed)
    if kind == "theta":
        dec = theta_decompose(random_diagonal(cube(N, d), rng, False))
        comps = sorted(dec.components.items())
        digest = sha256(*(x for t, c in comps for x in (np.array(t, dtype=np.int64), c.rows, c.cols, c.values)))
    else:
        basis = {"sine": sine_basis, "bloch": bloch_basis, "numeric": numeric_basis}[kind](N, d)
        digest = sha256(time_averaged_observable(basis, random_diagonal(basis.box, rng, kind == "bloch")))
    assert digest == LIBRARY_DIGESTS[kind, N, d, seed]


# -- kernel matrices ----------------------------------------------------------

class TestToMatrix:
    @pytest.mark.parametrize("sides", [(6,), (1,), (3, 5), (4, 1, 3), (2, 3, 4)])
    @pytest.mark.parametrize("complex_values", [False, True])
    def test_matches_site_loop(self, sides, complex_values):
        box = LatticeBox(sides)
        rng = np.random.default_rng(len(sides))
        # offsets up to the box edge, where only one site keeps x + z inside
        offsets = {(0,) * box.d, tuple(s - 1 for s in sides), tuple(1 - s for s in sides)}
        offsets |= {tuple(int(rng.integers(1 - s, s)) for s in sides) for _ in range(4)}
        kernel = {}
        for z in offsets:
            vals = rng.uniform(-1, 1, box.volume)
            if complex_values:
                vals = vals + 1j * rng.uniform(-1, 1, box.volume)
            vals[rng.random(box.volume) < 0.2] = 0.0
            kernel[z] = np.where(shift_set(box, z).mask, vals, 0.0)
        K = Observable.kernel(box, kernel)
        M, oracle = K.to_matrix(), loop_to_matrix(K)
        assert M.dtype == oracle.dtype
        assert np.array_equal(M, oracle)
