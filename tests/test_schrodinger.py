import dataclasses
import itertools
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

from latticeqe.lattice import LatticeBox, Observable, UnsupportedPeriodError
from latticeqe.observables import block_constant, parity
from latticeqe.schrodinger import (
    LcViolationError,
    PeriodicPotential,
    build_operator,
    counterexample_mass_profile,
    counterexample_potential,
    eigenbasis,
    eigensolve_symmetric,
    lattice_block,
    lc_deviation,
    load_potential,
    partial_qe_experiment,
)
from latticeqe.spectra import SpectralData, adjacency_matrix, sine_basis
from latticeqe.time_average import centered, quantum_variance

from oracles import dense_certificates, indices_on_box


class TestBuildOperator:
    def test_free_chain(self):
        V = PeriodicPotential((1,), [0.0])
        H = build_operator(V, 3, "dirichlet")
        expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        assert np.array_equal(H, expected)

    def test_constant_shift(self):
        V0 = PeriodicPotential((1,), [0.0])
        Vc = PeriodicPotential((1,), [1.5])
        e0 = np.linalg.eigvalsh(build_operator(V0, 5))
        ec = np.linalg.eigvalsh(build_operator(Vc, 5))
        assert np.allclose(ec, e0 + 1.5)

    def test_two_periodic_diagonal(self):
        V = PeriodicPotential((2,), [7.0, 0.0])
        H = build_operator(V, 2)
        assert np.allclose(np.diag(H), [7.0, 0.0, 7.0, 0.0])

    def test_2d_block_shape(self):
        V = PeriodicPotential((1, 2), [[0.0, 3.0]])
        H = build_operator(V, 2)
        assert H.shape == (8, 8) and lattice_block(V.q, 2).sides == (2, 4)
        assert np.allclose(np.diag(H).reshape(2, 4), [[0, 3, 0, 3], [0, 3, 0, 3]])

    def test_potential_json_round_trip(self, tmp_path):
        V = PeriodicPotential((2, 1), [[1.0], [2.0]])
        path = tmp_path / "pot.json"
        path.write_text(json.dumps({"d": 2, "q": [2, 1], "values": [1.0, 2.0]}))
        V2 = load_potential(path)
        assert V2.q == V.q
        assert np.array_equal(V2.values, V.values)


class TestPeriodicPotential:
    @pytest.mark.parametrize("q,sides", [((2,), (5,)), ((2, 1), (4, 3)), ((3, 2), (6, 5)), ((1, 2, 2), (2, 3, 4))])
    def test_on_box_is_the_periodic_extension(self, q, sides):
        rng = np.random.default_rng(sum(sides))
        V = PeriodicPotential(q, rng.normal(size=q))
        box = LatticeBox(sides)
        expected = [V.values[tuple((c - 1) % p for c, p in zip(x, q))]
                    for x in itertools.product(*(range(1, s + 1) for s in sides))]
        assert np.array_equal(V.on_box(box), expected)

    @pytest.mark.parametrize("q,sides", [((2,), (4,)), ((3,), (7,)), ((2, 2), (4, 4)), ((2, 3), (4, 6)), ((3, 2), (5, 5)),
                                         ((2, 1, 2), (2, 4, 6)), ((1, 2, 3), (3, 3, 3)), ((2, 2, 2), (5, 3, 4))])
    def test_on_box_equals_the_indices_grid(self, q, sides):
        # cubic and non-cubic boxes, sides that are and are not multiples of the periods
        V = PeriodicPotential(q, np.random.default_rng(len(sides)).normal(size=q))
        box = LatticeBox(sides)
        assert V.on_box(box).tobytes() == indices_on_box(V, box).tobytes()

    def test_on_box_rejects_other_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            PeriodicPotential((2,), [1.0, 2.0]).on_box(LatticeBox((2, 2)))

    @pytest.mark.parametrize("text,match", [
        ("[1, 2]", "expected a JSON object"),
        ('{"q": [2]}', "missing key 'values'"),
        ('{"q": "ab", "values": [1, 2]}', "list of integers"),
        ('{"d": 2, "q": [2], "values": [1, 2]}', "key 'd' must equal"),
        ('{"q": [2], "values": [1, 2, 3]}', "must hold 2 numbers"),
        ('{"q": [0], "values": []}', "periods must be positive"),
        ('{"q": [1], "values": [NaN]}', "finite"),
        ('{"q": [1], ', "potential file"),
    ])
    def test_malformed_file_names_the_fault(self, tmp_path, text, match):
        path = tmp_path / "pot.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=match) as info:
            load_potential(path)
        assert str(path) in str(info.value)


class TestEigensolve:
    def test_two_by_two(self):
        result = eigensolve_symmetric(np.array([[0.0, 1.0], [1.0, 0.0]]), LatticeBox((2,)))
        assert np.allclose(result.eigenvalues, [-1.0, 1.0])

    def test_diagonal_input(self):
        result = eigensolve_symmetric(np.diag([3.0, -1.0, 2.0]), LatticeBox((3,)))
        assert np.allclose(result.eigenvalues, [-1.0, 2.0, 3.0])
        assert np.allclose(np.abs(result.vectors), np.eye(3)[:, [1, 2, 0]])

    def test_random_residuals(self):
        rng = np.random.default_rng(30)
        H = rng.normal(size=(50, 50))
        H = (H + H.T) / 2
        result = eigensolve_symmetric(H, LatticeBox((5, 10)))
        hs = np.sqrt(np.sum(H**2))
        assert result.residual <= 1e-10 * hs
        assert result.gram_error <= 1e-10

    def test_sign_convention(self):
        rng = np.random.default_rng(31)
        H = rng.normal(size=(12, 12))
        H = (H + H.T) / 2
        r1 = eigensolve_symmetric(H, LatticeBox((12,)))
        r2 = eigensolve_symmetric(H.copy(), LatticeBox((12,)))
        assert np.array_equal(r1.vectors, r2.vectors)
        for j in range(12):
            col = r1.vectors[:, j]
            lead = np.argmax(np.abs(col) > 1e-12 * np.max(np.abs(col)))
            assert col[lead] > 0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            eigensolve_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]), LatticeBox((2,)))

    def test_rejects_a_box_of_another_volume(self):
        with pytest.raises(ValueError, match="expected a 3 x 3 matrix"):
            eigensolve_symmetric(np.eye(2), LatticeBox((3,)))
        with pytest.raises(ValueError, match="expected a 4 x 4 matrix"):
            eigensolve_symmetric(np.zeros((2, 8)), LatticeBox((2, 2)))

    @pytest.mark.parametrize("n", [1, 2, 7, 50, 129, 333])
    def test_certificates_equal_the_dense_formula(self, n):
        H = np.random.default_rng(n).normal(size=(n, n))
        H = (H + H.T) / 2
        result = eigensolve_symmetric(H, LatticeBox((n,)))
        expected = dense_certificates(H, result.eigenvalues, result.vectors)
        assert (result.residual, result.gram_error) == expected
        assert all(type(x) is float for x in (result.residual, result.gram_error))

    def test_certificates_finite_past_sqrt_dbl_max(self):
        # The norm's squares overflow here unless the residual is scaled first: the dense formula reads inf.
        H = np.random.default_rng(33).normal(size=(6, 6))
        H = (H + H.T) * 1e200
        result = eigensolve_symmetric(H, LatticeBox((6,)))
        assert result.residual <= 1e-12 * np.max(np.abs(H))
        assert result.gram_error <= 1e-12

    def test_peak_memory_beside_the_matrix(self):
        # The eigenvectors and at most three more V x V arrays at once; five when the
        # residual array and the sign convention's |vectors| outlived their last use.
        H = build_operator(PeriodicPotential((3,), [0.0, 1.0, 2.0]), 200)
        box = lattice_block((3,), 200)
        tracemalloc.start()
        try:
            eigensolve_symmetric(H, box)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.25 * H.nbytes

    def test_free_chain_matches_analytic(self):
        N = 200
        V = PeriodicPotential((1,), [0.0])
        result = eigenbasis(V, N)
        analytic = np.sort(2 * np.cos(np.arange(1, N + 1) * np.pi / (N + 1)))
        assert np.max(np.abs(result.eigenvalues - analytic)) <= 1e-10

    def test_spectrum_within_envelope(self):
        rng = np.random.default_rng(32)
        vals = rng.uniform(-3, 5, 2)
        V = PeriodicPotential((2,), vals)
        for mode in ("dirichlet", "periodic"):
            eigs = eigensolve_symmetric(build_operator(V, 8, mode), lattice_block(V.q, 8)).eigenvalues
            assert eigs[0] >= vals.min() - 2 - 1e-12
            assert eigs[-1] <= vals.max() + 2 + 1e-12


class TestCounterexample:
    def test_band_counts_and_mass(self):
        profile = counterexample_mass_profile(100.0, 50)
        assert profile.low_band_count == 50
        assert profile.high_band_count == 50
        assert profile.bands_complete
        bound = 4 / 98**2
        assert profile.mass_bound == pytest.approx(bound)
        assert profile.max_low_even_mass <= bound
        assert profile.max_high_odd_mass <= bound

    @pytest.mark.parametrize("M", [10.0, 100.0])
    def test_mass_bound_across_sizes(self, M):
        for N in (25, 200):
            profile = counterexample_mass_profile(M, N)
            assert profile.bands_complete
            assert profile.bound_holds

    @pytest.mark.parametrize("band", ["low_band_count", "high_band_count"])
    def test_empty_band_window_fails_with_nan(self, band):
        # A band window that catches no eigenvalue has no maximum: nan, and the bound fails.
        profile = dataclasses.replace(counterexample_mass_profile(100.0, 4), **{band: 0})
        empty, full = ((profile.max_low_even_mass, profile.max_high_odd_mass) if band == "low_band_count"
                       else (profile.max_high_odd_mass, profile.max_low_even_mass))
        assert math.isnan(empty) and full <= profile.mass_bound
        assert not profile.bands_complete and not profile.bound_holds

    def test_odd_mass_read_without_cancellation(self):
        # 1 - |c[1]|^2 would read 0.0 for odd-site masses near 1e-308.
        profile = counterexample_mass_profile(1.3e154, 2)
        assert profile.bands_complete and profile.bound_holds
        assert 0.0 < profile.max_high_odd_mass <= profile.mass_bound
        np.testing.assert_allclose(profile.odd_masses + profile.even_masses, 1.0, rtol=4 * np.finfo(float).eps)

    def test_overlapping_bands_rejected(self):
        with pytest.raises(ValueError, match="M > 4"):
            counterexample_mass_profile(4.0, 10)

    def test_largest_mass_is_the_last_with_a_finite_square(self):
        largest = math.sqrt(sys.float_info.max)
        assert counterexample_mass_profile(largest, 2).mass_bound == 4.0 / (largest - 2) ** 2 > 0
        with pytest.raises(ValueError, match="need M <="):
            counterexample_mass_profile(math.nextafter(largest, math.inf), 2)


class TestBoundaryPerturbation:
    def test_difference_rank_small(self):
        # wraparound minus zero-boundary adjacency has boundary-sized rank
        for sides in [(8,), (6, 6), (4, 8)]:
            box = LatticeBox(sides)
            D = adjacency_matrix(box, "periodic") - adjacency_matrix(box, "dirichlet")
            assert np.array_equal(D, D.T)
            assert set(np.unique(D)) <= {0.0, 1.0}
            rank = np.linalg.matrix_rank(D)
            vol = box.volume
            assert rank <= sum(2 * vol // s for s in sides)

    def test_1d_rank_exact(self):
        box = LatticeBox((9,))
        D = adjacency_matrix(box, "periodic") - adjacency_matrix(box, "dirichlet")
        assert np.linalg.matrix_rank(D) == 2


class TestPartialQe:
    def test_lc_deviation_zero_for_block_constant(self):
        box = lattice_block((2,), 6)
        a = block_constant(box, (2,))
        assert lc_deviation(a, (2,)) <= 1e-12

    def test_lc_deviation_positive_for_parity(self):
        box = lattice_block((2,), 6)
        a = parity(box)
        assert lc_deviation(a, (2,)) == pytest.approx(6.0)

    def test_free_case_reduces_to_adjacency_variance(self):
        N = 10
        V = PeriodicPotential((1,), [0.0])
        box = lattice_block((1,), N)
        rng = np.random.default_rng(33)
        a = Observable.diagonal(box, rng.uniform(-1, 1, N))
        result = partial_qe_experiment(V, N, a)
        expected = quantum_variance(sine_basis(N, 1), centered(a))
        assert result.variance == pytest.approx(expected, abs=1e-12)

    def test_violating_observable_rejected_with_diagnostic(self):
        V = counterexample_potential(100.0)
        N = 6
        a = parity(lattice_block((2,), N))
        with pytest.raises(LcViolationError, match="block-orbit sums differ"):
            partial_qe_experiment(V, N, a)

    def test_unchecked_mode_reports_violation(self):
        V = counterexample_potential(100.0)
        N = 6
        a = parity(lattice_block((2,), N))
        result = partial_qe_experiment(V, N, a, enforce_lc=False)
        assert not result.lc_checked
        assert result.variance > 0.2

    def test_sup_norm_enforced(self):
        V = counterexample_potential(100.0)
        box = lattice_block((2,), 4)
        a = Observable.diagonal(box, 2.0 * np.ones(box.volume))
        with pytest.raises(ValueError, match="sup-norm"):
            partial_qe_experiment(V, 4, a)

    def test_long_periods_need_exploratory_flag(self):
        V = PeriodicPotential((3,), [0.0, 1.0, 2.0])
        box = lattice_block((3,), 4)
        a = block_constant(box, (3,))
        with pytest.raises(UnsupportedPeriodError):
            partial_qe_experiment(V, 4, a)
        result = partial_qe_experiment(V, 4, a, exploratory=True)
        assert result.variance >= 0.0

    def test_eigenbasis_classes(self):
        V = counterexample_potential(50.0)
        basis = eigenbasis(V, 4)
        assert isinstance(basis, SpectralData) and basis.box == lattice_block(V.q, 4)
        assert sum(len(c) for c in basis.classes) == basis.n
