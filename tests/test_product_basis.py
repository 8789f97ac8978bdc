"""Factored product eigenbasis: lazy fields, dense oracle, time average, and scale."""

import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latticeqe import spectra
from latticeqe.lattice import Observable, cube
from latticeqe.schrodinger import FloquetBasis, PeriodicPotential, eigenbasis
from latticeqe.spectra import ProductBasis, SpectralData, bloch_basis, default_deg_tol, degeneracy_classes, sine_basis
from latticeqe.time_average import expectations, hs_norm, quantum_variance, time_averaged_observable

from oracles import peak_bytes

BASES = {"dirichlet": sine_basis, "periodic": bloch_basis}


def dense_copy(basis: SpectralData) -> SpectralData:
    """The same basis without its product form, so every contraction is dense."""
    return SpectralData(basis.box, basis.eigenvalues, basis.vectors)


def random_diagonal(N, d, seed, complex_values):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-1.0, 1.0, N**d)
    if complex_values:
        vals = vals + 1j * rng.uniform(-1.0, 1.0, N**d)
    return Observable.diagonal(cube(N, d), vals)


class TestFactoredContraction:
    @settings(max_examples=60, deadline=None)
    @given(
        mode=st.sampled_from(sorted(BASES)),
        dN=st.sampled_from([(1, n) for n in range(1, 40)] + [(2, n) for n in range(1, 13)]
                           + [(3, n) for n in range(1, 7)]),
        seed=st.integers(0, 2**32 - 1),
        complex_values=st.booleans(),
    )
    def test_matches_dense_path(self, mode, dN, seed, complex_values):
        d, N = dN
        basis = BASES[mode](N, d)
        a = random_diagonal(N, d, seed, complex_values)
        fast = expectations(basis, a)
        assert "vectors" not in vars(basis)
        dense = expectations(dense_copy(basis), a)
        assert np.max(np.abs(fast - dense)) <= 1e-12 * np.max(np.abs(dense))
        assert quantum_variance(basis, a) == pytest.approx(quantum_variance(dense_copy(basis), a),
                                                           rel=1e-12)

    def test_kernel_observable_builds_vectors_on_demand(self):
        box = cube(5, 2)
        K = Observable.kernel(box, {(0, 0): np.ones(25), (1, 0): np.zeros(25)})
        basis = sine_basis(5, 2)
        assert "vectors" not in vars(basis)
        assert np.allclose(expectations(basis, K), 1.0, atol=1e-12)
        assert "vectors" in vars(basis)


class TestFactoredTimeAverage:
    @settings(max_examples=40, deadline=None)
    @given(
        mode=st.sampled_from(sorted(BASES)),
        dN=st.sampled_from([(1, n) for n in range(1, 30)] + [(2, n) for n in range(1, 13)]
                           + [(3, n) for n in range(1, 6)]),
        seed=st.integers(0, 2**32 - 1),
        complex_values=st.booleans(),
    )
    # d = 2, N = 11 has classes of accidentally equal eigenvalues
    @example(mode="dirichlet", dN=(2, 11), seed=0, complex_values=False)
    @example(mode="periodic", dN=(2, 11), seed=1, complex_values=True)
    @example(mode="dirichlet", dN=(3, 1), seed=2, complex_values=True)
    @example(mode="periodic", dN=(3, 2), seed=3, complex_values=False)
    def test_matches_dense_path(self, mode, dN, seed, complex_values):
        d, N = dN
        basis = BASES[mode](N, d)
        a = random_diagonal(N, d, seed, complex_values)
        fast = time_averaged_observable(basis, a)
        assert "vectors" not in vars(basis)
        dense = time_averaged_observable(dense_copy(basis), a)
        assert fast.dtype == dense.dtype
        assert np.max(np.abs(fast - dense)) <= 1e-12 * a.sup_norm

    @pytest.mark.parametrize("mode", sorted(BASES))
    @pytest.mark.parametrize("d,N", [(2, 24), (3, 8)])
    @pytest.mark.parametrize("complex_values", [False, True])
    def test_matches_dense_path_in_many_blocks(self, mode, d, N, complex_values):
        # boxes whose V x V array spans many blocks of the in-place products
        basis = BASES[mode](N, d)
        a = random_diagonal(N, d, N, complex_values)
        fast = time_averaged_observable(basis, a)
        dense = time_averaged_observable(dense_copy(basis), a)
        assert fast.dtype == dense.dtype
        assert np.max(np.abs(fast - dense)) <= 1e-12 * a.sup_norm

    @pytest.mark.parametrize("mode,d,N,complex_values",
                             [("dirichlet", 2, 32, False), ("dirichlet", 2, 32, True),
                              ("dirichlet", 3, 8, False), ("dirichlet", 3, 8, True),
                              ("periodic", 3, 8, True)])  # Bloch classes are the largest
    def test_one_volume_squared_buffer(self, mode, d, N, complex_values):
        # the average itself, scratch of a V^2/N share and the pair arrays (1.15 V^2 for
        # Bloch at d = 3, N = 8); a second V x V buffer would pass 2
        basis = BASES[mode](N, d)
        a = random_diagonal(N, d, 4, complex_values)
        itemsize = np.dtype(complex if complex_values else float).itemsize
        assert peak_bytes(lambda: time_averaged_observable(basis, a)) <= 1.25 * N ** (2 * d) * itemsize

    @pytest.mark.parametrize("d,N", [(2, 64), (3, 16)])
    def test_scale_without_dense_vectors(self, d, N, monkeypatch):
        def refuse(*args):
            raise AssertionError("dense eigenvectors built")

        monkeypatch.setattr(ProductBasis, "vectors", property(refuse))
        monkeypatch.setattr(ProductBasis, "matrix", refuse)
        monkeypatch.setattr(spectra, "sine_matrix", refuse)
        a = random_diagonal(N, d, N, False)
        start = time.perf_counter()
        T = time_averaged_observable(sine_basis(N, d), a)
        elapsed = time.perf_counter() - start
        assert T.shape == (N**d, N**d)
        assert np.trace(T) == pytest.approx(np.sum(a.diag()), abs=1e-10)
        # the average pinches a onto the classes, which cannot raise the norm
        assert hs_norm(T) <= hs_norm(a.diag()) * (1 + 1e-12)
        assert elapsed <= 5.0


def old_sine_matrix(N, d):
    # the dense construction the factored basis replaced, kept as the oracle
    x = np.arange(1, N + 1)
    S1 = np.sqrt(2.0 / (N + 1)) * np.sin(np.outer(x, x) * np.pi / (N + 1))
    S = S1
    for _ in range(d - 1):
        S = np.kron(S, S1)
    lam1 = 2.0 * np.cos(x * np.pi / (N + 1))
    eigs = lam1
    for _ in range(d - 1):
        eigs = np.add.outer(eigs, lam1).reshape(-1)
    return S, eigs


def old_bloch_matrix(N, d):
    x = np.arange(1, N + 1)
    k = np.arange(0, N)
    B1 = np.exp(2j * np.pi * np.outer(x, k) / N) / np.sqrt(N)
    B = B1
    for _ in range(d - 1):
        B = np.kron(B, B1)
    lam1 = 2.0 * np.cos(2.0 * np.pi * k / N)
    eigs = lam1
    for _ in range(d - 1):
        eigs = np.add.outer(eigs, lam1).reshape(-1)
    return B, eigs


class TestLazyFields:
    @pytest.mark.parametrize("d,N", [(1, 9), (2, 6), (3, 4)])
    @pytest.mark.parametrize("mode,build,oracle", [
        ("dirichlet", sine_basis, old_sine_matrix),
        ("periodic", bloch_basis, old_bloch_matrix),
    ])
    def test_vectors_bit_identical_to_dense_columns(self, d, N, mode, build, oracle):
        M, eigs = oracle(N, d)
        order = np.argsort(eigs, kind="stable")
        basis = build(N, d)
        assert np.array_equal(basis.eigenvalues, eigs[order])
        assert np.array_equal(basis.vectors, M[:, order])

    def test_n_and_eigenvalues_build_nothing(self):
        basis = sine_basis(6, 2)
        assert basis.n == 36 and basis.eigenvalues.shape == (36,)
        assert not {"vectors", "labels", "classes"} & set(vars(basis))

    def test_fields_cached(self):
        basis = bloch_basis(4, 2)
        assert basis.vectors is basis.vectors
        assert basis.labels is basis.labels
        assert basis.classes is basis.classes

    def test_freqs_follow_sort_order(self):
        basis = sine_basis(5, 2)
        for j, k in enumerate([basis.freqs()[i] for i in basis.order]):
            assert basis.eigs[basis.order[j]] == basis.eigenvalues[j]
            assert basis.eigenvalues[j] == pytest.approx(sum(2 * np.cos(c * np.pi / 6) for c in k))

    def test_numeric_basis_needs_vectors(self):
        with pytest.raises(TypeError):
            SpectralData(cube(2, 1), np.zeros(2))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ProductBasis("neumann", 4, 1)


FACTORED = {
    "sine": lambda: sine_basis(5, 2),
    "bloch": lambda: bloch_basis(4, 3),
    "floquet": lambda: FloquetBasis(PeriodicPotential((2, 1), [0.0, 3.0]), 4),
}


class TestOneObjectPerBasis:
    """The sine, Bloch and Floquet bases are ``SpectralData`` themselves, with no wrapper."""

    @pytest.mark.parametrize("kind", sorted(FACTORED))
    def test_factored_bases_are_spectral_data(self, kind):
        basis = FACTORED[kind]()
        assert isinstance(basis, SpectralData)
        assert not hasattr(basis, "product")
        assert basis.n == basis.box.volume == basis.eigs.size

    @pytest.mark.parametrize("kind", sorted(FACTORED))
    def test_eigenvalues_are_eigs_in_order(self, kind):
        basis = FACTORED[kind]()
        assert basis.eigenvalues.tobytes() == basis.eigs[basis.order].tobytes()

    @pytest.mark.parametrize("kind", sorted(FACTORED))
    def test_fields_held_only_once_read(self, kind):
        basis = FACTORED[kind]()
        for name in ("vectors", "labels", "classes"):
            assert name not in vars(basis)
            getattr(basis, name)
            assert name in vars(basis)

    def test_product_keyword_gone(self):
        pb = sine_basis(3, 1)
        with pytest.raises(TypeError):
            SpectralData(pb.box, pb.eigenvalues, product=pb)

    @pytest.mark.parametrize("numeric", [
        lambda: eigenbasis(PeriodicPotential((2, 1), [0.0, 3.0]), 3),
        lambda: dense_copy(bloch_basis(4, 2)),
    ], ids=["real", "complex"])
    @pytest.mark.parametrize("complex_values", [False, True])
    def test_numeric_expectations_are_the_dense_expression(self, numeric, complex_values):
        basis = numeric()
        rng = np.random.default_rng(7)
        vals = rng.uniform(-1.0, 1.0, basis.n)
        if complex_values:
            vals = vals + 1j * rng.uniform(-1.0, 1.0, basis.n)
        a = Observable.diagonal(basis.box, vals)
        expected = (np.abs(basis.vectors) ** 2).T @ a.diag()
        assert basis.expectations(a.diag()).tobytes() == expected.tobytes()
        assert expectations(basis, a).tobytes() == expected.tobytes()


class TestDerivedClasses:
    """Every basis takes its classes from one rule: neighbours chained within ``default_deg_tol(d)``."""

    @pytest.mark.parametrize("d,N", [(1, 9), (2, 6), (2, 11), (3, 4)])
    @pytest.mark.parametrize("build", [sine_basis, bloch_basis])
    def test_numeric_basis_derives_the_product_partition(self, build, d, N):
        basis = build(N, d)
        numeric = SpectralData(basis.box, basis.eigenvalues, basis.vectors)
        expected = degeneracy_classes(basis.eigenvalues, default_deg_tol(d))
        assert numeric.classes == expected
        assert basis.classes == expected
        assert numeric.classes is numeric.classes
        assert d == 1 or max(map(len, expected)) > 1

    @pytest.mark.parametrize("N", [3, 4, 6])
    def test_floquet_and_dense_solve_derive_the_same_partition(self, N):
        potential = PeriodicPotential((2, 2), np.array([[0.0, 1.0], [1.0, 0.0]]))
        floquet = FloquetBasis(potential, N)
        dense = eigenbasis(potential, N)
        for basis in (floquet, dense):
            assert basis.classes == degeneracy_classes(basis.eigenvalues, default_deg_tol(2))
        assert floquet.classes == dense.classes
        assert max(map(len, floquet.classes)) > 1


class TestScale:
    """Sizes whose dense basis would need gigabytes to terabytes."""

    @pytest.mark.parametrize("d,N", [(2, 1024), (3, 128), (4, 48)])
    @pytest.mark.parametrize("mode", sorted(BASES))
    def test_variance_without_dense_vectors(self, d, N, mode, monkeypatch):
        def refuse(self):
            raise AssertionError(f"dense {self.N}^{self.d} basis materialized")

        monkeypatch.setattr(ProductBasis, "matrix", refuse)
        start = time.perf_counter()
        basis = BASES[mode](N, d)
        assert "vectors" not in vars(basis)
        vals = np.random.default_rng(N).uniform(-1.0, 1.0, N**d)
        a = Observable.diagonal(cube(N, d), vals)
        exp = expectations(basis, a)
        var = quantum_variance(basis, a)
        elapsed = time.perf_counter() - start
        assert "vectors" not in vars(basis)
        # sum_k |psi_k(x)|^2 = 1 at every site, so the expectations average to <a>
        assert np.mean(exp) == pytest.approx(vals.mean(), abs=1e-12)
        assert 0.0 <= var <= 1.0
        assert elapsed <= 5.0
