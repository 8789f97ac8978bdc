"""Floquet block eigenbasis of Dirichlet periodic Schrödinger operators: dense oracle and scale."""

import math
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latticeqe import schrodinger, spectra
from latticeqe.lattice import LatticeBox, Observable, UnsupportedPeriodError
from latticeqe.observables import block_constant, parity
from latticeqe.schrodinger import (
    EigenSolveResult,
    FloquetBasis,
    PeriodicPotential,
    build_operator,
    counterexample_mass_profile,
    counterexample_potential,
    eigenbasis,
    eigensolve_symmetric,
    lattice_block,
    partial_qe_experiment,
)
from latticeqe.spectra import SpectralData
from latticeqe.time_average import centered, expectations, quantum_variance

from oracles import dense_certificates, eager_floquet_certificates, floquet_blocks, indices_floquet_vectors


def scale_of(potential: PeriodicPotential) -> float:
    """Bound on the operator norm: hopping 2d plus the largest potential value."""
    return 2.0 * potential.d + max(1.0, float(np.max(np.abs(potential.values))))


def dense_copy(basis: SpectralData) -> SpectralData:
    """The same basis without its factored form, so every contraction is dense."""
    return SpectralData(basis.box, basis.eigenvalues, basis.vectors)


# A q = (2, 2, 2) potential that is not a parity potential, so eigh solves it.
NON_PARITY_2_2_2 = [0.0, 100.0, 50.0, 0.0, 100.0, 0.0, 0.0, 25.0]


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
        basis = FloquetBasis(potential, N)
        H = build_operator(potential, N)
        dense = eigensolve_symmetric(H, basis.box)
        assert basis.residual <= 1e-12 * scale
        assert basis.gram_error <= 1e-12 * scale
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
        dense = eigenbasis(counterexample_potential(M), N)
        even = np.arange(1, dense.n + 1) % 2 == 0
        even_masses = np.sum(dense.vectors[even, :] ** 2, axis=0)
        np.testing.assert_allclose(profile.basis.eigenvalues, dense.eigenvalues, rtol=1e-9, atol=1e-12 * M)
        np.testing.assert_allclose(profile.even_masses, even_masses, rtol=1e-9)
        assert profile.basis.residual <= 1e-12 * (M + 2)
        assert profile.basis.gram_error <= 1e-12 * (M + 2)

    def test_partial_qe_certificates_and_variance(self):
        potential = counterexample_potential(100.0)
        for N in (4, 16, 40):
            box = lattice_block((2,), N)
            a = block_constant(box, (2,))
            result = partial_qe_experiment(potential, N, a)
            assert result.basis.residual <= 1e-12 * scale_of(potential)
            assert result.basis.gram_error <= 1e-12 * scale_of(potential)
            oracle = quantum_variance(eigenbasis(potential, N), centered(a))
            assert result.variance == pytest.approx(oracle, rel=1e-9, abs=1e-12)

    def test_complex_diagonal_splits_into_parts(self):
        potential = PeriodicPotential((2, 1), [[0.0], [3.0]])
        basis = FloquetBasis(potential, 5)
        rng = np.random.default_rng(5)
        vals = rng.uniform(-1, 1, basis.box.volume) + 1j * rng.uniform(-1, 1, basis.box.volume)
        a = Observable.diagonal(basis.box, vals)
        fast = expectations(basis, a)
        assert np.max(np.abs(fast - expectations(dense_copy(basis), a))) <= 1e-12 * 6

    @pytest.mark.parametrize("q,N", [((2,), 2), ((1,), 4), ((2, 2), 3), ((1, 2), 3), ((2, 1), 2), ((2, 2, 2), 2),
                                     ((2, 1, 2), 2), ((1, 2, 1), 2)])
    def test_vectors_equal_the_indices_grid(self, q, N):
        # cubic boxes (all periods equal) and non-cubic ones, d = 1..3
        potential = PeriodicPotential(q, np.random.default_rng(N).uniform(-5.0, 5.0, int(np.prod(q))))
        fb = FloquetBasis(potential, N)
        assert fb.vectors.tobytes() == indices_floquet_vectors(fb).tobytes()

    def test_rejects_long_periods_and_empty_blocks(self):
        with pytest.raises(UnsupportedPeriodError):
            FloquetBasis(PeriodicPotential((3,), [0.0, 1.0, 2.0]), 4)
        with pytest.raises(ValueError, match="at least 1"):
            FloquetBasis(counterexample_potential(10.0), 0)


def parity_values(q, v_even: float, v_odd: float) -> np.ndarray:
    """``v_even`` on the residues with an even number of period-2 bits set, ``v_odd`` on the others."""
    odd = [bin(r).count("1") % 2 for r in range(int(np.prod(q)))]
    return np.array([v_odd if b else v_even for b in odd]).reshape(q)


@st.composite
def parity_potentials(draw):
    """Potentials that depend only on the residue's parity, every q in {1, 2}^d, d = 1..3."""
    d = draw(st.integers(1, 3))
    q = tuple(draw(st.sampled_from((1, 2))) for _ in range(d))
    # Zeros, signs, the counterexample's range [0, sqrt(DBL_MAX)], and magnitudes
    # at which a product of two entries overflows while eigh stays finite.
    value = st.one_of(
        st.sampled_from((0.0, 1.0, -1.0, 1e300, -1e300)),
        st.floats(-50.0, 50.0),
        st.floats(0.0, math.sqrt(sys.float_info.max)),
        st.floats(0.0, 1.7e308),
    )
    v_even, v_odd = draw(value), draw(value)
    if draw(st.booleans()):
        v_odd = v_even  # equal diagonals
    N = draw(st.integers(1, {1: 40, 2: 8, 3: 4}[d]))
    return PeriodicPotential(q, parity_values(q, v_even, v_odd)), N


class TestTwoSiteSolve:
    """The closed-form solve of parity potentials, two sites per Walsh pair, against per-block ``eigh``.

    Both solves are backward stable, so they agree to a few ``eps ||B||`` in
    the eigenvalues and, by Davis-Kahan, to a few ``eps ||B|| / gap`` in
    ``|c|^2``, ``gap`` the distance to the block's other eigenvalues capped at
    ``||B||``. With two sites both are within ``4 eps max|B|``. In larger
    blocks ``||B||`` is the largest row sum of ``|B|``, and ``eigh``'s error
    grows with the block size ``Q``: it was off by up to 8.1 ``eps ||B||`` at
    ``Q = 4`` and 9.4 at ``Q = 8``, the closed form by at most 0.7 against
    50-digit eigenvalues, so they are held to ``4 Q eps ||B||``. Inside an
    in-block eigenspace, eigenvalues within twice that bound of each other,
    the basis is either solve's choice, so the sums of ``|c|^2`` over it, the
    diagonal of its projector, are compared instead. Blocks of one site are
    ``eigh``'s bits.
    """

    @settings(max_examples=200, deadline=None)
    @given(case=parity_potentials())
    @example(case=(PeriodicPotential((2, 2), np.zeros(4)), 1))  # k_1 = k_2: a zero block
    @example(case=(PeriodicPotential((2, 2), np.full(4, 3.0)), 4))
    @example(case=(PeriodicPotential((2, 2, 2), np.zeros(8)), 3))
    @example(case=(PeriodicPotential((2, 2, 2), np.full(8, -7.0)), 4))
    @example(case=(PeriodicPotential((2, 2), parity_values((2, 2), 1e300, -1e300)), 5))
    @example(case=(PeriodicPotential((2, 2), parity_values((2, 2), 1.7e308, -1.7e308)), 5))  # a - c overflows
    def test_matches_per_block_eigh(self, case):
        potential, N = case
        fb = FloquetBasis(potential, N)
        B = floquet_blocks(potential, N)
        Q = B.shape[1]
        if Q == 1:
            w, amp = np.linalg.eigh(B)
            assert fb.eigs.tobytes() == w.reshape(-1).tobytes()
            assert fb.amplitudes.tobytes() == amp.tobytes()
            return
        eps, scale = np.finfo(float).eps, float(np.max(np.abs(B)))
        # Two-site blocks keep their bounds in max|B|. In larger ones the errors grow with Q and
        # are bounded in ||B||, the largest row sum of |B|.
        norm = scale if Q == 2 else float(np.max(np.sum(np.abs(B), axis=2)))
        fw, famp = fb.eigs.reshape(-1, Q), fb.amplitudes
        assert np.all(fw[:, 1:] >= fw[:, :-1])
        # The residual on blocks scaled by a power of two, so that no square in the norm overflows.
        s = 2.0 ** -math.floor(math.log2(scale))
        residual = np.max(np.linalg.norm((B * s) @ famp - famp * (fw * s)[:, None, :], axis=1)) / s
        assert residual <= 4 * eps * norm
        assert np.max(np.abs(np.swapaxes(famp, 1, 2) @ famp - np.eye(Q))) <= 4 * eps
        # eigh of the scaled blocks too: on some blocks of eight sites near 1e300 it does not converge
        w, amp = np.linalg.eigh(B * s)
        w /= s
        tol = 4 * eps * norm * (1 if Q == 2 else Q)
        assert np.max(np.abs(fw - w)) <= tol
        # Eigenvalue j joins the eigenspace of j - 1 when the two lie within 2 tol.
        with np.errstate(over="ignore"):  # -1.7e308 to 1.7e308 is a gap of inf
            label = np.cumsum(np.diff(w, axis=1, prepend=-np.inf) > 2 * tol, axis=1)
            apart = np.abs(w[:, :, None] - w[:, None, :])
        same = label[:, :, None] == label[:, None, :]
        apart[same] = np.inf
        gap = np.minimum(np.where(same, apart.min(axis=2)[:, None, :], np.inf).min(axis=2), norm)
        sums = [np.einsum("krj,kij->kri", c**2, same.astype(float)) for c in (famp, amp)]
        assert np.all(np.abs(sums[0] - sums[1]) * gap[:, None, :] <= tol)

    @pytest.mark.parametrize("q", [(2, 2), (1, 2, 2), (2, 2, 2)])
    def test_parity_potentials_skip_eigh(self, q, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        assert FloquetBasis(PeriodicPotential(q, parity_values(q, 0.0, 100.0)), 4).n == 4 ** len(q) * 2 ** q.count(2)

    @pytest.mark.parametrize("q,values,N", [
        ((2, 2), None, 5), ((2, 1, 2), None, 5), ((2, 2, 2), None, 5),
        ((2, 2), [0.0, 100.0, 100.0, 5e-324], 5),  # one ulp off the staggered potential
        ((2, 2), None, 65),  # two slabs, 63 and 2 indices of the first axis
    ], ids=["q0", "q1", "q2", "off-parity", "two-slabs"])
    def test_larger_blocks_are_eighs_bits(self, q, values, N):
        if values is None:
            values = np.random.default_rng(len(q)).uniform(-50.0, 50.0, int(np.prod(q)))
        potential = PeriodicPotential(q, values)
        fb = FloquetBasis(potential, N)
        w, amp = np.linalg.eigh(floquet_blocks(potential, N))
        assert fb.eigs.tobytes() == w.reshape(-1).tobytes()
        assert fb.amplitudes.tobytes() == amp.tobytes()

    @pytest.mark.parametrize("build, spare", [
        (lambda: FloquetBasis(counterexample_potential(100.0), 100_000), 2.5 * 8 * 100_000),
        (lambda: counterexample_mass_profile(100.0, 100_000), 2.5 * 8 * 100_000),
        (lambda: FloquetBasis(PeriodicPotential((2, 2, 2), parity_values((2, 2, 2), 0.0, 100.0)), 32),
         32**3 * 8 * 8 * 8 / 2),
        (lambda: FloquetBasis(PeriodicPotential((2, 2, 2), NON_PARITY_2_2_2), 32), 32**3 * 8 * 8 * 8 / 2),
    ], ids=["solve", "mass-profile", "staggered-2-2-2", "eigh-2-2-2"])
    def test_few_temporaries_beside_the_result(self, build, spare):
        # The peak beyond what the result keeps. For N = 100000 blocks of two sites, in
        # N-long float arrays: about 6 for the solve and 4 for the mass profile when every
        # step made a new array; two are allowed, and half of one for small objects. For
        # 32^3 blocks of eight sites, in 8 slabs, half the amplitudes: a stack of
        # (n, Q, Q/2) pair vectors beside them would pass it, and so would the whole
        # block stack that eigh solved before the slabs.
        tracemalloc.start()
        try:
            result = build()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result is not None
        assert peak - held < spare


def same_bits(x: float, y: float) -> bool:
    return x.hex() == y.hex()


class TestCertificatesOnRead:
    """``residual`` and ``gram_error`` are computed on first read, equal to the eager loop bit for bit."""

    @pytest.mark.parametrize("q,N", [((1,), 9), ((2,), 9), ((2, 2), 7), ((2, 1, 2), 4), ((2,), 2**14 + 5),
                                     ((2, 2), 70)])  # the last: 4900 blocks by eigh, two slabs
    def test_equal_eager_loop(self, q, N):
        rng = np.random.default_rng(sum(q) * 100 + N)
        potential = PeriodicPotential(q, rng.uniform(-50.0, 50.0, int(np.prod(q))))
        residual, gram_error = eager_floquet_certificates(potential, N)
        fb = FloquetBasis(potential, N)
        assert same_bits(fb.residual, residual) and same_bits(fb.gram_error, gram_error)
        result = partial_qe_experiment(potential, N, block_constant(lattice_block(q, N), q))
        assert isinstance(result.basis, FloquetBasis)
        assert same_bits(result.basis.residual, residual) and same_bits(result.basis.gram_error, gram_error)

    @pytest.mark.parametrize("N", [1, 50, 2**14 + 5])
    def test_mass_profile_equals_eager_loop(self, N):
        residual, gram_error = eager_floquet_certificates(counterexample_potential(100.0), N)
        profile = counterexample_mass_profile(100.0, N)
        assert same_bits(profile.basis.residual, residual) and same_bits(profile.basis.gram_error, gram_error)

    @pytest.mark.parametrize("q,N,exploratory", [((2,), 9, False), ((2, 2), 5, False), ((3,), 4, True), ((3,), 7, True)])
    def test_results_keep_the_basis_behind_the_variance(self, q, N, exploratory):
        rng = np.random.default_rng(sum(q) * 10 + N)
        potential = PeriodicPotential(q, rng.uniform(-50.0, 50.0, int(np.prod(q))))
        a = block_constant(lattice_block(q, N), q)
        result = partial_qe_experiment(potential, N, a, exploratory=exploratory)
        assert same_bits(quantum_variance(result.basis, centered(a)), result.variance)
        if exploratory:  # the dense path
            assert type(result.basis) is EigenSolveResult
            expected = dense_certificates(build_operator(potential, N), result.basis.eigenvalues, result.basis.vectors)
        else:
            assert type(result.basis) is FloquetBasis
            expected = eager_floquet_certificates(potential, N)
        assert same_bits(result.basis.residual, expected[0]) and same_bits(result.basis.gram_error, expected[1])

    @pytest.mark.parametrize("values", [[1e300, -1e300, 5e299, 2e299], [1.7e308, -1.7e308, 1e-300, 0.0]])
    def test_finite_past_sqrt_dbl_max(self, values):
        # The norm's squares overflow here unless the residual is scaled first.
        potential = PeriodicPotential((2, 2), values)
        fb = FloquetBasis(potential, 8)
        scale = float(np.max(np.abs(floquet_blocks(potential, 8))))
        assert fb.residual <= 1e-12 * scale and fb.gram_error <= 1e-12

    def test_fresh_basis_holds_no_block_stack(self):
        for values in ([0.0, 100.0, 100.0, 0.0], [0.0, 100.0, 50.0, 0.0]):  # the pair solve, then eigh
            potential = PeriodicPotential((2, 2), values)
            tracemalloc.start()
            try:
                fb = FloquetBasis(potential, 64)
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            arrays = {name for name, value in vars(fb).items() if isinstance(value, np.ndarray)}
            assert arrays == {"amplitudes", "eigs", "order", "eigenvalues"}
            assert "_certificates" not in vars(fb)
            # amplitudes, eigenvalues twice and order; a kept (4096, 4, 4) stack would add as much as the amplitudes
            kept = fb.amplitudes.nbytes + 2 * fb.eigs.nbytes + fb.order.nbytes
            assert held < kept + fb.amplitudes.nbytes // 2
            fb.residual
            assert {name for name, value in vars(fb).items() if isinstance(value, np.ndarray)} == arrays
            assert all(type(value) is float for value in vars(fb)["_certificates"])

    def test_first_read_few_temporaries(self):
        # 32^3 blocks of eight sites in 8 slabs: the read peaks under half the amplitudes'
        # bytes above what the basis holds. The whole block stack would be as large as them.
        fb = FloquetBasis(PeriodicPotential((2, 2, 2), NON_PARITY_2_2_2), 32)
        tracemalloc.start()
        try:
            fb.residual
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held < fb.amplitudes.nbytes // 2

    @pytest.mark.parametrize("q,values,N,solver", [
        ((2, 2, 2), NON_PARITY_2_2_2, 32, "eigh"),  # 8 slabs of 4 indices of the first axis
        ((2, 2), [0.0, 100.0, 50.0, 0.0], 70, "eigh"),  # 58 and 12 indices
        ((2, 2, 2), parity_values((2, 2, 2), 0.0, 100.0), 70, "pairs"),  # 70 slabs of one index, 4900 blocks each
    ], ids=["eigh", "eigh-two-slabs", "pairs-one-index"])
    def test_every_block_computation_sees_one_slab(self, q, values, N, solver, monkeypatch):
        # Every eigh of the build and every certificate call takes at most one slab's blocks.
        seen = {"eigh": [], "certificates": []}
        eigh, certificates = np.linalg.eigh, schrodinger._block_certificates

        def eigh_spy(B):
            seen["eigh"].append(len(B))
            return eigh(B)

        def certificates_spy(B, c, w):
            seen["certificates"].append(len(B))
            return certificates(B, c, w)

        monkeypatch.setattr(np.linalg, "eigh", eigh_spy)
        monkeypatch.setattr(schrodinger, "_block_certificates", certificates_spy)
        FloquetBasis(PeriodicPotential(q, values), N).residual
        slab = max(1 << 12, N ** (len(q) - 1))
        assert (seen["eigh"] != []) == (solver == "eigh")
        for sizes in seen.values():
            assert sizes == [] or (len(sizes) > 1 and max(sizes) <= slab and sum(sizes) == N ** len(q))


class TestEighRetry:
    """A batched ``eigh`` that does not converge is retried once on the blocks scaled by a power of two."""

    hard = PeriodicPotential((2, 2, 2), [0.0, 1e300, 1e300, 1.0, 1e300, 0.0, 0.0, 1e300])

    def test_valid_potential_that_eigh_fails_on(self):
        B = floquet_blocks(self.hard, 2)
        with pytest.raises(np.linalg.LinAlgError):  # one block of the eight does not converge unscaled
            np.linalg.eigh(B)
        fb = FloquetBasis(self.hard, 2)
        eps, scale = np.finfo(float).eps, float(np.max(np.abs(B)))
        assert fb.residual <= 8 * eps * scale and fb.gram_error <= 16 * eps
        dense = eigenbasis(self.hard, 2)  # LAPACK converges on the whole operator
        assert np.max(np.abs(fb.eigenvalues - dense.eigenvalues)) <= 4 * 8 * eps * scale  # 4 Q eps max|B|, Q = 8

    def test_twice_failing_is_runtime_error(self, monkeypatch):
        def fail(B):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        for solve in (lambda: FloquetBasis(PeriodicPotential((2, 2), [0.0, 1.0, 2.0, 3.0]), 3),
                      lambda: eigenbasis(PeriodicPotential((3,), [0.0, 1.0, 2.0]), 3)):
            with pytest.raises(RuntimeError, match="did not converge"):
                solve()


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
        assert profile.basis.residual <= 1e-12 * 102 and profile.basis.gram_error <= 1e-12 * 102
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
        assert result.basis.residual <= 1e-12 * scale_of(potential)
        assert result.basis.gram_error <= 1e-12 * scale_of(potential)
        assert elapsed <= 5.0


class TestPathChoice:
    def test_long_periods_take_the_dense_path(self, monkeypatch):
        calls = []
        solve = schrodinger.eigensolve_symmetric

        def spy(H, box):
            calls.append((H.shape, box.sides))
            return solve(H, box)

        def refuse(*args, **kwargs):
            raise AssertionError("Floquet blocks used for period 3")

        monkeypatch.setattr(schrodinger, "eigensolve_symmetric", spy)
        monkeypatch.setattr(schrodinger, "FloquetBasis", refuse)
        potential = PeriodicPotential((3,), [0.0, 1.0, 2.0])
        result = partial_qe_experiment(potential, 4, block_constant(lattice_block((3,), 4), (3,)),
                                       exploratory=True)
        assert calls == [((12, 12), (12,))]
        assert result.basis.residual <= 1e-12 * 4 and result.basis.gram_error <= 1e-12 * 4

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
            H = build_operator(PeriodicPotential((2,), [0.0, float(seed % 7)]), n)
        _, raw = np.linalg.eigh(H)
        assert np.array_equal(eigensolve_symmetric(H, LatticeBox((len(H),))).vectors, old_sign_convention(raw))
