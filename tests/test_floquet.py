"""Floquet block eigenbasis of Dirichlet periodic Schrödinger operators: dense oracle and scale."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeqe import schrodinger, spectra
from latticeqe.lattice import Observable, UnsupportedPeriodError
from latticeqe.observables import block_constant, parity
from latticeqe.schrodinger import (
    FloquetBasis,
    PeriodicPotential,
    build_operator,
    counterexample_mass_profile,
    counterexample_potential,
    eigenbasis,
    eigensolve_symmetric,
    floquet_eigenbasis,
    lattice_block,
    partial_qe_experiment,
)
from latticeqe.spectra import SpectralData
from latticeqe.time_average import centered, expectations, quantum_variance


def scale_of(potential: PeriodicPotential) -> float:
    """Bound on the operator norm: hopping 2d plus the largest potential value."""
    return 2.0 * potential.d + max(1.0, float(np.max(np.abs(potential.values))))


def dense_copy(basis: SpectralData) -> SpectralData:
    """The same basis without its factored form, so every contraction is dense."""
    return SpectralData(basis.box, basis.eigenvalues, basis.vectors, basis.classes)


@st.composite
def potentials(draw):
    d = draw(st.integers(1, 3))
    q = tuple(draw(st.sampled_from((1, 2))) for _ in range(d))
    Q = int(np.prod(q))
    # Values from a small set give exact and cross-block degeneracies;
    # continuous values give generic spectra.
    value = st.one_of(st.sampled_from((0.0, 1.0, 100.0)), st.floats(-50.0, 50.0))
    values = [draw(value) for _ in range(Q)]
    N = draw(st.integers(1, {1: 24, 2: 6, 3: 3}[d]))
    return PeriodicPotential(q, values), N


class TestDenseOracle:
    @settings(max_examples=80, deadline=None)
    @given(case=potentials(), seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_eigh(self, case, seed):
        potential, N = case
        scale = scale_of(potential)
        H = build_operator(potential, N).matrix
        dense = eigensolve_symmetric(H)
        basis = floquet_eigenbasis(potential, N)
        fb = basis.product
        assert fb.residual <= 1e-12 * scale
        assert fb.gram_error <= 1e-12 * scale
        assert np.max(np.abs(basis.eigenvalues - dense.eigenvalues)) <= 1e-12 * scale

        rng = np.random.default_rng(seed)
        a = Observable.diagonal(basis.box, rng.uniform(-1.0, 1.0, basis.box.volume))
        fast = expectations(basis, a)
        assert "vectors" not in vars(basis)

        V = basis.vectors
        assert np.max(np.linalg.norm(H @ V - V * basis.eigenvalues, axis=0)) <= 1e-12 * scale
        assert np.max(np.abs(V.T @ V - np.eye(basis.n))) <= 1e-12 * scale
        # The factored contraction against the assembled vectors of the same basis.
        assert np.max(np.abs(fast - expectations(dense_copy(basis), a))) <= 1e-12 * scale

        # Per degeneracy class, sum_j <psi_j, a psi_j> = tr(P_c a) does not depend
        # on the basis chosen inside the class, so it is comparable with eigh's.
        # The dense projector P_c is off by about eps * scale / gap (Davis-Kahan),
        # gap the distance to the nearest other eigenvalue, so the tolerance
        # grows as neighbouring classes close in.
        oracle = np.einsum("xj,x,xj->j", dense.vectors, a.diag(), dense.vectors)
        ev = basis.eigenvalues
        for cls in basis.classes:
            lo, hi = cls[0], cls[-1]
            below = ev[lo] - ev[lo - 1] if lo else np.inf
            above = ev[hi + 1] - ev[hi] if hi + 1 < basis.n else np.inf
            gap = min(below, above)
            tol = len(cls) * scale * (1e-12 + 1e-14 / gap)
            assert abs(np.sum(fast[cls]) - np.sum(oracle[cls])) <= tol

    @pytest.mark.parametrize("N", [1, 7, 50, 200])
    @pytest.mark.parametrize("M", [4.5, 10.0, 100.0])
    def test_counterexample_profile(self, M, N):
        profile = counterexample_mass_profile(M, N)
        op = build_operator(counterexample_potential(M), N)
        dense = eigensolve_symmetric(op.matrix)
        even = np.arange(1, op.box.volume + 1) % 2 == 0
        even_masses = np.sum(dense.vectors[even, :] ** 2, axis=0)
        np.testing.assert_allclose(profile.eigenvalues, dense.eigenvalues, rtol=1e-9, atol=1e-12 * M)
        np.testing.assert_allclose(profile.even_masses, even_masses, rtol=1e-9)
        assert profile.residual <= 1e-12 * (M + 2)
        assert profile.gram_error <= 1e-12 * (M + 2)

    def test_partial_qe_certificates_and_variance(self):
        potential = counterexample_potential(100.0)
        for N in (4, 16, 40):
            box = lattice_block((2,), N)
            a = block_constant(box, (2,))
            result = partial_qe_experiment(potential, N, a)
            assert result.residual <= 1e-12 * scale_of(potential)
            assert result.gram_error <= 1e-12 * scale_of(potential)
            oracle = quantum_variance(eigenbasis(build_operator(potential, N)), centered(a))
            assert result.variance == pytest.approx(oracle, rel=1e-9, abs=1e-12)

    def test_complex_diagonal_splits_into_parts(self):
        potential = PeriodicPotential((2, 1), [[0.0], [3.0]])
        basis = floquet_eigenbasis(potential, 5)
        rng = np.random.default_rng(5)
        vals = rng.uniform(-1, 1, basis.box.volume) + 1j * rng.uniform(-1, 1, basis.box.volume)
        a = Observable.diagonal(basis.box, vals)
        fast = expectations(basis, a)
        assert np.max(np.abs(fast - expectations(dense_copy(basis), a))) <= 1e-12 * 6

    def test_freqs_absent(self):
        assert floquet_eigenbasis(counterexample_potential(10.0), 3).freqs is None

    def test_rejects_long_periods_and_empty_blocks(self):
        with pytest.raises(UnsupportedPeriodError):
            FloquetBasis(PeriodicPotential((3,), [0.0, 1.0, 2.0]), 4)
        with pytest.raises(ValueError, match="at least 1"):
            FloquetBasis(counterexample_potential(10.0), 0)


@pytest.fixture
def no_dense_operator(monkeypatch):
    """Make every dense eigensolve and adjacency allocation raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("dense operator path taken")

    for module in (schrodinger, spectra):
        monkeypatch.setattr(module, "adjacency_matrix", refuse)
    monkeypatch.setattr(schrodinger, "eigensolve_symmetric", refuse)


class TestScale:
    """Sizes whose dense V x V operator would need gigabytes to terabytes."""

    def test_counterexample_at_a_hundred_thousand(self, no_dense_operator):
        start = time.perf_counter()
        profile = counterexample_mass_profile(100.0, 10**5)
        elapsed = time.perf_counter() - start
        assert profile.bands_complete and profile.bound_holds
        assert profile.residual <= 1e-12 * 102 and profile.gram_error <= 1e-12 * 102
        assert elapsed <= 5.0

    @pytest.mark.parametrize("q,N", [((2, 2), 256), ((2, 2, 2), 32)])
    def test_partial_qe(self, q, N, no_dense_operator):
        rng = np.random.default_rng(len(q))
        potential = PeriodicPotential(q, rng.uniform(0.0, 100.0, 2 ** len(q)))
        start = time.perf_counter()
        a = block_constant(lattice_block(q, N), q)
        result = partial_qe_experiment(potential, N, a)
        elapsed = time.perf_counter() - start
        assert result.lc_checked
        assert 0.0 <= result.variance <= 1.0
        assert result.residual <= 1e-12 * scale_of(potential)
        assert result.gram_error <= 1e-12 * scale_of(potential)
        assert elapsed <= 5.0


class TestPathChoice:
    def test_long_periods_take_the_dense_path(self, monkeypatch):
        calls = []
        solve = schrodinger.eigensolve_symmetric

        def spy(H):
            calls.append(H.shape)
            return solve(H)

        def refuse(*args, **kwargs):
            raise AssertionError("Floquet blocks used for period 3")

        monkeypatch.setattr(schrodinger, "eigensolve_symmetric", spy)
        monkeypatch.setattr(schrodinger, "FloquetBasis", refuse)
        potential = PeriodicPotential((3,), [0.0, 1.0, 2.0])
        result = partial_qe_experiment(potential, 4, block_constant(lattice_block((3,), 4), (3,)),
                                       exploratory=True)
        assert calls == [(12, 12)]
        assert result.residual <= 1e-12 * 4 and result.gram_error <= 1e-12 * 4

    @pytest.mark.parametrize(
        "make, error",
        [
            (lambda box: Observable.diagonal(box, 2.0 * np.ones(box.volume)), "sup-norm"),
            (lambda box: parity(box), "block-orbit"),
            (lambda box: Observable.diagonal(lattice_block((2,), 3), np.zeros(6)), "does not match"),
        ],
    )
    def test_usage_errors_before_any_operator(self, make, error, no_dense_operator, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("operator built before validation")

        monkeypatch.setattr(schrodinger, "FloquetBasis", refuse)
        monkeypatch.setattr(schrodinger, "build_operator", refuse)
        N = 5000
        with pytest.raises(ValueError, match=error):
            partial_qe_experiment(counterexample_potential(100.0), N, make(lattice_block((2,), N)))


def old_sign_convention(vecs):
    # the per-column loop the vectorized sign convention replaced, kept as the oracle
    vecs = vecs.copy()
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        lead = np.argmax(np.abs(col) > 1e-12 * np.max(np.abs(col)))
        if col[lead] < 0:
            vecs[:, j] = -col
    return vecs


class TestSignConvention:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["random", "chain"]))
    def test_bitwise_equal_to_loop(self, n, seed, kind):
        if kind == "random":
            H = np.random.default_rng(seed).normal(size=(n, n))
            H = (H + H.T) / 2
        else:
            # staggered chain: degenerate-free but with vanishing leading components
            H = build_operator(PeriodicPotential((2,), [0.0, float(seed % 7)]), n).matrix
        _, raw = np.linalg.eigh(H)
        assert np.array_equal(eigensolve_symmetric(H).vectors, old_sign_convention(raw))
