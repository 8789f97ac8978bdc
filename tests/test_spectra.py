import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeqe import experiments
from latticeqe.experiments import RUNS, ExperimentConfig
from latticeqe.lattice import LatticeBox, Wavefunction, cube
from latticeqe.schrodinger import FloquetBasis, PeriodicPotential, eigensolve_symmetric
from latticeqe.spectra import (
    ProductBasis,
    SpectralData,
    adjacency_matrix,
    bloch_basis,
    bloch_matrix,
    default_deg_tol,
    degeneracy_classes,
    lemma_c1_count,
    lemma_c1_counts,
    sine_basis,
    sine_matrix,
    sine_square_sums,
)
from oracles import (
    apply_adjacency,
    loop_adjacency_matrix,
    loop_degeneracy_row,
    roll_adjacency,
    sine_square_sums_reference,
)


class TestDirichletEigenpairs:
    def test_two_site_eigenvalue(self):
        lam = ProductBasis("dirichlet", 2, 1).eigs[0]  # frequency (1,)
        assert lam == pytest.approx(2 * np.cos(np.pi / 3))
        assert lam == pytest.approx(1.0)

    def test_cancelling_frequencies(self):
        lam = ProductBasis("dirichlet", 2, 2).eigs[1]  # frequency (1, 2), row-major
        assert lam == pytest.approx(0.0, abs=1e-15)

    def test_three_site_vector(self):
        vec = ProductBasis("dirichlet", 3, 1).factor()[:, 0]
        assert np.allclose(vec, [0.5, np.sqrt(2) / 2, 0.5])


class TestPeriodicEigenpairs:
    def test_constant_mode(self):
        pb = ProductBasis("periodic", 4, 1)
        assert pb.eigs[0] == pytest.approx(2.0)
        assert np.allclose(np.abs(pb.factor()[:, 0]), 0.5)

    def test_quarter_mode(self):
        assert ProductBasis("periodic", 4, 1).eigs[1] == pytest.approx(0.0, abs=1e-15)

    def test_bloch_gram_identity(self):
        vecs = ProductBasis("periodic", 4, 1).factor()
        gram = vecs.conj().T @ vecs
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12


class TestEigenpairsAreFactorViews:
    @pytest.mark.parametrize("mode,dense,closed", [
        ("dirichlet", sine_matrix, lambda k, N: 2 * np.cos(k * np.pi / (N + 1))),
        ("periodic", bloch_matrix, lambda k, N: 2 * np.cos(2 * np.pi * k / N)),
    ], ids=["dirichlet", "periodic"])
    @pytest.mark.parametrize("d,N", [(1, 1), (1, 7), (2, 1), (2, 4), (3, 3)])
    def test_bitwise_equal_to_factor_columns(self, mode, dense, closed, d, N):
        # each dense column is the Kronecker product of the 1-D factor's
        # columns for its frequency, and its eigenvalue the sum of theirs
        pb = ProductBasis(mode, N, d)
        F, first = pb.factor(), pb.freqs()[0][0]
        M, freqs, eigs = dense(N, d)
        assert freqs == pb.freqs() and np.array_equal(M, pb.matrix()) and np.array_equal(eigs, pb.eigs)
        for idx, k in enumerate(freqs):
            assert np.array_equal(M[:, idx], functools.reduce(np.kron, [F[:, c - first] for c in k]))
            assert eigs[idx] == functools.reduce(lambda a, b: a + b, [pb.lam1[c - first] for c in k])
            assert eigs[idx] == pytest.approx(sum(closed(c, N) for c in k), abs=1e-12)


class TestApplyAdjacency:
    def test_delta_dirichlet(self):
        psi = Wavefunction(cube(3, 1), [1.0, 0.0, 0.0])
        assert np.allclose(apply_adjacency(psi, "dirichlet").values, [0, 1, 0])

    def test_delta_periodic(self):
        psi = Wavefunction(cube(3, 1), [1.0, 0.0, 0.0])
        assert np.allclose(apply_adjacency(psi, "periodic").values, [0, 1, 1])

    def test_sine_eigenrelation_2d(self):
        pb = ProductBasis("dirichlet", 5, 2)
        for lam, column in zip(pb.eigs, pb.matrix().T):
            vec = Wavefunction(cube(5, 2), column)
            err = apply_adjacency(vec, "dirichlet").values - lam * vec.values
            assert np.max(np.abs(err)) < 1e-12

    def test_bloch_eigenrelation(self):
        pb = ProductBasis("periodic", 5, 1)
        for lam, column in zip(pb.eigs, pb.matrix().T):
            vec = Wavefunction(cube(5, 1), column)
            err = apply_adjacency(vec, "periodic").values - lam * vec.values
            assert np.max(np.abs(err)) < 1e-12

    def test_matches_dense_matrix(self):
        rng = np.random.default_rng(2)
        box = cube(4, 2)
        psi = Wavefunction(box, rng.normal(size=box.volume))
        for mode in ("dirichlet", "periodic"):
            A = adjacency_matrix(box, mode)
            assert np.allclose(A @ psi.values, apply_adjacency(psi, mode).values)

    @pytest.mark.parametrize("mode", ["dirichlet", "periodic"])
    @pytest.mark.parametrize("sides", [(1,), (2,), (7,), (1, 2), (2, 5), (3, 1, 2), (2, 2, 2), (4, 3, 5)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_bitwise_equal_to_roll_and_slice_sums(self, mode, sides, dtype):
        rng = np.random.default_rng(len(sides) * 31 + sum(sides))
        box = LatticeBox(sides)
        values = rng.normal(size=box.volume)
        if dtype is complex:
            values = values + 1j * rng.normal(size=box.volume)
        psi = Wavefunction(box, values)
        got = apply_adjacency(psi, mode).grid()
        assert got.dtype == values.dtype
        assert np.array_equal(got, roll_adjacency(psi, mode))

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="boundary mode"):
            apply_adjacency(Wavefunction(cube(3, 1), [1.0, 0.0, 0.0]), "twisted")

    @pytest.mark.parametrize("mode", ["dirichlet", "periodic"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_adjacency_matrix_bitwise_equal_to_stride_loop(self, mode, d):
        # sides 1 and 2 included: with wraparound their neighbours coincide and add up
        for sides in itertools.product(range(1, 8), repeat=d):
            box = LatticeBox(sides)
            assert adjacency_matrix(box, mode).tobytes() == loop_adjacency_matrix(box, mode).tobytes()

    def test_periodic_small_sides(self):
        # side 2 wraps onto the single neighbor twice, side 1 onto itself
        A2 = adjacency_matrix(cube(2, 1), "periodic")
        assert np.array_equal(A2, [[0, 2], [2, 0]])
        A1 = adjacency_matrix(cube(1, 1), "periodic")
        assert np.array_equal(A1, [[2]])


class TestSineSquareSums:
    @settings(max_examples=80, deadline=None)
    @given(q=st.lists(st.sampled_from((1, 2)), min_size=1, max_size=3), N=st.integers(1, 9),
           complex_values=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_bitwise_equal_to_one_expression_per_axis(self, q, N, complex_values, seed):
        # the in-place contraction performs the reference's operations in the same order
        rng = np.random.default_rng(seed)
        V = N ** len(q) * math.prod(q)
        diag = rng.standard_normal(V) + (1j * rng.standard_normal(V) if complex_values else 0.0)
        g, oracle = sine_square_sums(diag, N, tuple(q)), sine_square_sums_reference(diag, N, tuple(q))
        assert g.dtype == oracle.dtype and g.shape == oracle.shape
        assert np.ascontiguousarray(g).tobytes() == np.ascontiguousarray(oracle).tobytes()


class TestBases:
    @pytest.mark.parametrize("d,nmax", [(1, 12), (2, 12)])
    def test_sine_gram_identity(self, d, nmax):
        for N in (2, 5, nmax):
            basis = sine_basis(N, d)
            gram = basis.vectors.T @ basis.vectors
            assert np.max(np.abs(gram - np.eye(basis.n))) < 1e-10

    def test_bloch_gram_identity_2d(self):
        basis = bloch_basis(5, 2)
        gram = basis.vectors.conj().T @ basis.vectors
        assert np.max(np.abs(gram - np.eye(basis.n))) < 1e-10

    @pytest.mark.parametrize("d,N", [(1, 8), (2, 6), (3, 8)])
    def test_eigen_residuals(self, d, N):
        basis = sine_basis(N, d)
        for j in range(basis.n):
            psi = Wavefunction(basis.box, basis.vectors[:, j])
            err = apply_adjacency(psi, "dirichlet").values - basis.eigenvalues[j] * psi.values
            assert np.max(np.abs(err)) <= 1e-12 * 2 * d

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_spectral_radius(self, d):
        basis = sine_basis(4, d)
        assert np.all(np.abs(basis.eigenvalues) <= 2 * d + 1e-12)
        per = bloch_basis(4, d)
        assert np.all(np.abs(per.eigenvalues) <= 2 * d + 1e-12)

    def test_eigenvalues_ascending(self):
        basis = sine_basis(7, 2)
        assert np.all(np.diff(basis.eigenvalues) >= 0)


class TestDegeneracyClasses:
    def test_2d_two_site_spectrum(self):
        basis = sine_basis(2, 2)
        sizes = [len(c) for c in basis.classes]
        assert sizes == [1, 2, 1]

    @pytest.mark.parametrize("N", [3, 7, 20, 51])
    def test_1d_simple(self, N):
        basis = sine_basis(N, 1)
        assert all(len(c) == 1 for c in basis.classes)

    def test_permutations_share_class(self):
        for N in (3, 5, 8):
            basis = sine_basis(N, 2)
            freqs = [basis.freqs()[i] for i in basis.order]
            cls_of = {}
            for ci, cls in enumerate(basis.classes):
                for j in cls:
                    cls_of[freqs[j]] = ci
            for freq, ci in cls_of.items():
                assert cls_of[freq[::-1]] == ci

    def test_tolerance_grouping(self):
        classes = degeneracy_classes([0.0, 1e-12, 0.5, 0.5 + 1e-12, 2.0], 1e-9)
        assert classes == [[0, 1], [2, 3], [4]]

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            degeneracy_classes([1.0, 0.0], 1e-9)

    @given(
        gaps=st.lists(st.sampled_from([0.0, 0.5e-9, 1e-9, 1.5e-9, 1e-3, 0.25]), max_size=40),
        start=st.floats(-6.0, 6.0),
    )
    def test_partition_matches_chaining_loop(self, gaps, start):
        vals = np.cumsum([start, *gaps])
        classes = [[0]]
        for i in range(1, vals.size):
            if vals[i] - vals[classes[-1][-1]] <= 1e-9:
                classes[-1].append(i)
            else:
                classes.append([i])
        assert degeneracy_classes(vals, 1e-9) == classes

    def test_empty(self):
        assert degeneracy_classes([], 1e-9) == []

    def test_genuine_gaps_resolve_at_desk_scale(self):
        # distinct analytic eigenvalues stay far above the class tolerance
        for N in range(2, 13):
            vals = np.sort(sine_matrix(N, 2)[2])
            gaps = np.diff(vals)
            gaps = gaps[gaps > default_deg_tol(2)]
            assert gaps.min() > 1e-3


def labels_of(classes):
    """The label array of a list of classes: the class of each position."""
    labels = np.empty(sum(map(len, classes)), dtype=int)
    for ci, cls in enumerate(classes):
        labels[cls] = ci
    return labels


@st.composite
def ascending_values(draw):
    """Ascending arrays whose neighbour gaps are exact ties, ``tol`` and one ulp either side, or wide."""
    tol = default_deg_tol(draw(st.integers(1, 3), label="d"))
    vals = [draw(st.floats(-6.0, 6.0), label="start")]
    for step in draw(st.lists(st.sampled_from(["tie", "below", "at", "above", "wide"]), max_size=40)):
        v = vals[-1]
        if step == "tie":
            vals.append(v)
        elif step == "wide":
            vals.append(v + draw(st.floats(1e-6, 1.0)))
        else:
            # the value whose computed gap to v is the largest within tol, then one ulp on
            w = v + tol
            while w - v > tol:
                w = np.nextafter(w, -np.inf)
            while np.nextafter(w, np.inf) - v <= tol:
                w = np.nextafter(w, np.inf)
            vals.append({"below": np.nextafter(w, -np.inf), "at": w, "above": np.nextafter(w, np.inf)}[step])
    return tol, np.array(vals[: draw(st.integers(0, len(vals)), label="size")])


@st.composite
def analytic_and_numeric_bases(draw):
    kind = draw(st.sampled_from(["sine", "bloch", "floquet", "eigh"]))
    if kind == "floquet":
        d = draw(st.integers(1, 2))
        q = tuple(draw(st.sampled_from((1, 2))) for _ in range(d))
        values = [draw(st.sampled_from((0.0, 1.0, 100.0))) for _ in range(int(np.prod(q)))]
        return FloquetBasis(PeriodicPotential(q, values), draw(st.integers(1, {1: 20, 2: 5}[d])))
    d = draw(st.integers(1, 3))
    N = draw(st.integers(1, {1: 30, 2: 12, 3: 5}[d]))
    if kind == "eigh":
        box = cube(N, d)
        return eigensolve_symmetric(adjacency_matrix(box, draw(st.sampled_from(["dirichlet", "periodic"]))), box)
    return (sine_basis if kind == "sine" else bloch_basis)(N, d)


class TestClassLabels:
    """``SpectralData.labels`` against the class lists of ``degeneracy_classes``."""

    @settings(max_examples=300)
    @given(case=ascending_values())
    def test_labels_match_class_lists(self, case):
        tol, vals = case
        d = {default_deg_tol(d): d for d in (1, 2, 3)}[tol]
        labels = SpectralData(cube(1, d), vals, np.zeros((1, vals.size))).labels  # labels read eigenvalues and d
        classes = degeneracy_classes(vals, tol)
        assert labels.dtype.kind == "i" and np.array_equal(labels, labels_of(classes))
        chained = [0]  # the chaining rule, one neighbour at a time
        for lo, hi in zip(vals[:-1], vals[1:]):
            chained.append(chained[-1] + int(hi - lo > tol))
        assert labels.tolist() == chained[: vals.size]

    @settings(max_examples=60, deadline=None)
    @given(basis=analytic_and_numeric_bases())
    def test_bases_label_by_the_class_lists(self, basis):
        classes = degeneracy_classes(basis.eigenvalues, default_deg_tol(basis.box.d))
        assert np.array_equal(basis.labels, labels_of(classes))
        assert basis.classes == classes

    @pytest.mark.parametrize("vals", [[1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, -1e-14]])
    def test_unsorted_rejected(self, vals):
        basis = SpectralData(cube(len(vals), 1), np.array(vals), np.eye(len(vals)))
        with pytest.raises(ValueError, match="sorted ascending"):
            basis.labels
        with pytest.raises(ValueError, match="sorted ascending"):
            basis.classes

    @pytest.mark.parametrize("mode", ["dirichlet", "periodic"])
    @pytest.mark.parametrize("d,Ns", [(1, (1, 2, 5, 9, 16)), (2, (1, 2, 3, 11, 23, 24)), (3, (1, 2, 4, 5, 6, 8))])
    def test_degeneracy_rows_match_loop(self, mode, d, Ns):
        table = RUNS["degeneracy"][0](ExperimentConfig("degeneracy", d=d, n_values=Ns, mode=mode))
        rows = list(zip(*table.values()))
        expected = []
        for N in Ns:
            pb = ProductBasis(mode, N, d)
            freqs = [pb.freqs()[i] for i in pb.order]
            classes = degeneracy_classes(pb.eigs[pb.order], default_deg_tol(d))
            expected.append(loop_degeneracy_row(N, d, mode, classes, freqs))
        assert rows == expected
        assert [tuple(map(type, r)) for r in rows] == [tuple(map(type, r)) for r in expected]

    @pytest.mark.parametrize("mode", ["dirichlet", "periodic"])
    def test_split_class_fails_the_permutation_check(self, mode, monkeypatch):
        # labels that part a frequency from its axis-sorted permutation
        real = experiments._basis

        def split(cfg, N):
            basis = real(cfg, N)
            labels = basis.labels.copy()
            freqs = [basis.freqs()[i] for i in basis.order]
            j = next(j for j, k in enumerate(freqs) if list(k) != sorted(k) and labels[j - 1] == labels[j])
            labels[j:] += 1  # the class of column j splits in two before it
            vars(basis)["labels"] = labels
            return basis

        monkeypatch.setattr(experiments, "_basis", split)
        table = RUNS["degeneracy"][0](ExperimentConfig("degeneracy", d=2, n_values=(4,), mode=mode))
        basis = split(ExperimentConfig("degeneracy", d=2, n_values=(4,), mode=mode), 4)
        expected = loop_degeneracy_row(4, 2, mode, basis.classes, [basis.freqs()[i] for i in basis.order])
        assert list(zip(*table.values())) == [expected]
        assert expected[5] is False and expected[6] is False


def brute_force_pair_count(N, d, t, eps, epp, tol):
    table = 2.0 * np.cos(np.arange(1, N + 1) * np.pi / (N + 1))
    count = 0
    for k in itertools.product(range(1, N + 1), repeat=d):
        for m in itertools.product(range(1, N + 1), repeat=d):
            if any(k[l] * eps[l] + m[l] * epp[l] != t[l] for l in range(d)):
                continue
            lam_k = sum(table[c - 1] for c in k)
            lam_m = sum(table[c - 1] for c in m)
            if abs(lam_k - lam_m) <= tol:
                count += 1
    return count


class TestLemmaC1:
    def test_example_single_pair(self):
        assert lemma_c1_count(5, 1, (2 / 6,), (1,), (1,)) == 1
        assert brute_force_pair_count(5, 1, (2,), (1,), (1,), 4e-9) == 1

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for d, N in [(1, 6), (2, 4), (2, 5)]:
            for _ in range(25):
                t = tuple(int(rng.integers(-2 * N, 2 * N + 1)) for _ in range(d))
                if all(c == 0 for c in t):
                    continue
                eps = tuple(int(c) for c in rng.choice([1, -1], size=d))
                epp = tuple(int(c) for c in rng.choice([1, -1], size=d))
                theta = tuple(c / (N + 1) for c in t)
                assert lemma_c1_count(N, d, theta, eps, epp) == brute_force_pair_count(
                    N, d, t, eps, epp, default_deg_tol(d)
                )

    def test_1d_bound(self):
        N = 9
        for t in range(-2 * N, 2 * N + 1):
            if t == 0:
                continue
            for eps in ((1,), (-1,)):
                for epp in ((1,), (-1,)):
                    assert lemma_c1_count(N, 1, (t / (N + 1),), eps, epp) <= 2

    def test_counts_match_single_queries(self):
        N, d = 6, 2
        counts = lemma_c1_counts(N, d)
        rng = np.random.default_rng(4)
        keys = sorted(counts)
        for key in [keys[int(i)] for i in rng.integers(0, len(keys), size=10)]:
            t, eps, epp = key
            theta = tuple(c / (N + 1) for c in t)
            assert lemma_c1_count(N, d, theta, eps, epp) == counts[key]
        # a key absent from the exhaustive map must count zero
        assert lemma_c1_count(N, d, (1 / (N + 1), 2 / (N + 1)), (1, 1), (1, 1)) == counts.get(
            ((1, 2), (1, 1), (1, 1)), 0
        )

    @pytest.mark.parametrize("d,N", [(1, 1), (1, 4), (1, 6), (2, 2), (2, 3), (3, 2)])
    def test_single_query_reads_its_bin(self, d, N):
        # every key of the exhaustive map, and every other nonzero t (at d = 3
        # for two sign pairs) must count zero
        counts = lemma_c1_counts(N, d)
        signs = list(itertools.product((1, -1), repeat=d))
        pairs = list(itertools.product(signs, signs)) if d < 3 else [(signs[0], signs[0]), (signs[2], signs[5])]
        grid = [t for t in itertools.product(range(-2 * N, 2 * N + 1), repeat=d) if any(t)]
        queries = set(counts) | {(t, eps, epp) for t in grid for eps, epp in pairs}
        assert len(queries) > len(counts)
        for t, eps, epp in queries:
            theta = tuple(c / (N + 1) for c in t)
            assert lemma_c1_count(N, d, theta, eps, epp) == counts.get((t, eps, epp), 0)

    def test_exhaustive_bound_2d(self):
        for N in range(2, 9):
            counts = lemma_c1_counts(N, 2)
            assert max(counts.values()) <= 2 * N

    def test_zero_theta_rejected(self):
        with pytest.raises(ValueError, match="theta = 0"):
            lemma_c1_count(5, 1, (0.0,), (1,), (1,))

    def test_malformed_theta_rejected(self):
        with pytest.raises(ValueError):
            lemma_c1_count(5, 1, (0.3,), (1,), (1,))
        with pytest.raises(ValueError):
            lemma_c1_count(5, 1, ((2 * 5 + 1) / 6,), (1,), (1,))
