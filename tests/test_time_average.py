import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeqe.lattice import BoxMismatchError, Observable, cube
from latticeqe.spectra import bloch_basis, sine_basis
from latticeqe.time_average import (
    _bessel_kernel,
    bessel_bound_check,
    centered,
    center_matrix,
    expectations,
    fourier_coefficient,
    fourier_coefficients,
    fourier_phases,
    hs_norm,
    numeric_time_average,
    quantum_variance,
    theta_decompose,
    time_averaged_observable,
)

from oracles import peak_bytes, theta_classes, tilde_exponential

EPS = np.finfo(float).eps


class TestHsNorm:
    def test_identity(self):
        assert hs_norm(np.eye(9)) == pytest.approx(3.0)

    def test_zero(self):
        assert hs_norm(np.zeros((4, 4))) == 0.0

    def test_complex_entries(self):
        assert hs_norm(np.array([[3j, 4]])) == pytest.approx(5.0)

    @pytest.mark.parametrize("complex_values", [False, True])
    def test_matches_entry_sum(self, complex_values):
        rng = np.random.default_rng(7)
        M = rng.normal(size=(12, 30))
        if complex_values:
            M = M + 1j * rng.normal(size=M.shape)
        for view in (M, M.T, M[::2, 1::3], M.reshape(6, 2, 30)[:, 1]):
            expected = np.sqrt(np.sum(np.abs(view) ** 2))
            assert abs(hs_norm(view) - expected) <= 1e-14 * expected


class TestQuantumVariance:
    def test_centered_constant_vanishes(self):
        box = cube(4, 1)
        basis = sine_basis(4, 1)
        a = Observable.diagonal(box, np.full(4, 0.7))
        assert quantum_variance(basis, centered(a)) == pytest.approx(0.0, abs=1e-30)

    def test_two_site_exact_zero(self):
        # both eigenvectors of the 2-site chain spread mass evenly
        basis = sine_basis(2, 1)
        a = Observable.diagonal(cube(2, 1), [1.0, 0.0])
        assert quantum_variance(basis, centered(a)) == pytest.approx(0.0, abs=1e-30)

    def test_indicator_matches_direct_summation(self):
        N = 4
        basis = sine_basis(N, 1)
        a = np.array([1.0, 1.0, 0.0, 0.0])
        # independent oracle: explicit sine sums
        total = 0.0
        for j in range(1, N + 1):
            s = np.sqrt(2 / (N + 1)) * np.sin(j * np.pi * np.arange(1, N + 1) / (N + 1))
            total += (np.sum(a * s**2) - a.mean()) ** 2
        expected = total / N
        obs = Observable.diagonal(cube(N, 1), a)
        assert quantum_variance(basis, centered(obs)) == pytest.approx(expected, abs=1e-14)

    def test_hs_bound(self):
        rng = np.random.default_rng(5)
        basis = sine_basis(4, 2)
        for _ in range(20):
            T = Observable.diagonal(cube(4, 2), rng.uniform(-1, 1, 16))
            var = quantum_variance(basis, T)
            assert var <= hs_norm(T.to_matrix()) ** 2 / 16

    def test_box_mismatch(self):
        basis = sine_basis(4, 1)
        with pytest.raises(BoxMismatchError):
            quantum_variance(basis, Observable.diagonal(cube(5, 1), np.ones(5)))

    def test_matrix_argument(self):
        basis = sine_basis(3, 1)
        a = np.diag([1.0, -1.0, 0.5])
        obs = Observable.diagonal(cube(3, 1), [1.0, -1.0, 0.5])
        assert quantum_variance(basis, a) == pytest.approx(quantum_variance(basis, obs))


class TestTimeAveragedObservable:
    def test_simple_spectrum_diagonalizes(self):
        N = 5
        basis = sine_basis(N, 1)
        a = Observable.diagonal(cube(N, 1), np.linspace(-1, 1, N))
        ainf = time_averaged_observable(basis, a)
        V = basis.vectors
        in_basis = V.T @ ainf @ V
        off = in_basis - np.diag(np.diag(in_basis))
        assert np.max(np.abs(off)) < 1e-12
        assert np.allclose(np.diag(in_basis), expectations(basis, a))

    def test_hand_scale_projection(self):
        # d=2, N=2: classes are {-2}, {0, 0}, {2}; project through each by hand
        basis = sine_basis(2, 2)
        a = np.zeros(4)
        a[0] = 1.0  # indicator of site (1, 1)
        obs = Observable.diagonal(basis.box, a)
        ainf = time_averaged_observable(basis, obs)
        V = basis.vectors
        expected = np.zeros((4, 4))
        for cls in ([0], [1, 2], [3]):
            P = V[:, cls] @ V[:, cls].T
            expected += P @ np.diag(a) @ P
        assert np.max(np.abs(ainf - expected)) < 1e-13

    def test_variance_invariance(self):
        rng = np.random.default_rng(6)
        basis = sine_basis(5, 2)
        for _ in range(5):
            a = Observable.diagonal(basis.box, rng.uniform(-1, 1, basis.box.volume))
            ac = centered(a)
            ainf_c = time_averaged_observable(basis, ac)
            assert abs(quantum_variance(basis, ac) - quantum_variance(basis, ainf_c)) < 1e-10

    def test_invariance_under_class_rotation(self):
        # any eigenbasis consistent with the degeneracy classes gives the same variance
        rng = np.random.default_rng(7)
        basis = sine_basis(4, 2)
        a = Observable.diagonal(basis.box, rng.uniform(-1, 1, basis.box.volume))
        ac = centered(a)
        ainf = time_averaged_observable(basis, ac)
        rotated = basis.vectors.copy()
        for cls in basis.classes:
            if len(cls) == 1:
                continue
            gauss = rng.normal(size=(len(cls), len(cls)))
            Q, _ = np.linalg.qr(gauss)
            rotated[:, cls] = rotated[:, cls] @ Q
        from latticeqe.spectra import SpectralData

        basis2 = SpectralData(basis.box, basis.eigenvalues, rotated)
        # the variance itself is basis-dependent inside a class, but the
        # time-average identity holds for every class-consistent eigenbasis
        assert quantum_variance(basis2, ac) == pytest.approx(quantum_variance(basis2, ainf), abs=1e-10)


class TestNumericTimeAverage:
    def test_identity_commutes(self):
        basis = sine_basis(4, 1)
        a = Observable.diagonal(cube(4, 1), np.ones(4))
        out = numeric_time_average(a, basis, T=3.0, steps=16)
        assert np.max(np.abs(out - np.eye(4))) < 1e-12

    def test_zero_time_limit(self):
        basis = sine_basis(4, 1)
        diag = np.array([0.3, -0.2, 0.8, 0.1])
        a = Observable.diagonal(cube(4, 1), diag)
        out = numeric_time_average(a, basis, T=1e-9, steps=2)
        assert np.max(np.abs(out - np.diag(diag))) < 1e-7

    def test_converges_to_class_average(self):
        rng = np.random.default_rng(1)
        N = 4
        basis = sine_basis(N, 1)
        a = Observable.diagonal(cube(N, 1), rng.uniform(-1, 1, N))
        ainf = time_averaged_observable(basis, a)
        dists = {}
        for T in (10.0, 100.0, 1000.0):
            aT = numeric_time_average(a, basis, T)
            dists[T] = hs_norm(aT - ainf)
        assert dists[100.0] < dists[10.0]
        assert dists[1000.0] < dists[100.0]
        assert dists[1000.0] <= dists[100.0] / 5
        # O(1/T) contract: T * distance stays bounded by the frequency-weighted size of a
        V = basis.vectors
        C = V.T @ (a.diag()[:, None] * V)
        omega = np.subtract.outer(basis.eigenvalues, basis.eigenvalues)
        off = omega != 0
        cap = 2.1 * np.sqrt(np.sum(np.abs(C[off] / omega[off]) ** 2))
        for T, dist in dists.items():
            assert T * dist <= cap
        assert dists[1000.0] <= 10 * hs_norm(numeric_time_average(a, basis, 10000.0) - ainf)

    def test_matches_literal_propagator_quadrature(self):
        # brute-force oracle: conjugate by the matrix exponential at each node
        N = 3
        basis = sine_basis(N, 1)
        rng = np.random.default_rng(2)
        diag = rng.uniform(-1, 1, N) + 1j * rng.uniform(-1, 1, N)
        a = Observable.diagonal(cube(N, 1), diag)
        T, steps = 2.5, 16
        V, lam = basis.vectors, basis.eigenvalues
        A = np.diag(diag)
        acc = np.zeros((N, N), dtype=complex)
        times = np.linspace(0.0, T, steps + 1)
        weights = np.full(steps + 1, 1.0 / steps)
        weights[0] *= 0.5
        weights[-1] *= 0.5
        for t, w in zip(times, weights):
            U = V @ np.diag(np.exp(1j * t * lam)) @ V.conj().T
            acc += w * (U.conj().T @ A @ U)
        out = numeric_time_average(a, basis, T=T, steps=steps)
        assert np.max(np.abs(out - acc)) < 1e-12

    def test_rejects_bad_arguments(self):
        basis = sine_basis(3, 1)
        a = Observable.diagonal(cube(3, 1), np.ones(3))
        with pytest.raises(ValueError):
            numeric_time_average(a, basis, T=0.0)
        with pytest.raises(ValueError):
            numeric_time_average(a, basis, T=1.0, steps=1)


class TestThetaDecomposition:
    def brute_expansion(self, a_vals, N, d):
        # direct evaluation of the sign-sum expansion of the center matrix
        sites = list(itertools.product(range(1, N + 1), repeat=d))
        freqs = sites
        signs = list(itertools.product((1, -1), repeat=d))
        cache = {}

        def coeff(t):
            if t not in cache:
                total = 0j
                for idx, x in enumerate(sites):
                    total += np.exp(-1j * np.pi * sum(tl * xl for tl, xl in zip(t, x)) / (N + 1)) * a_vals[idx]
                cache[t] = total
            return cache[t]

        n = len(freqs)
        C = np.zeros((n, n), dtype=complex)
        for i, k in enumerate(freqs):
            for j, m in enumerate(freqs):
                for eps in signs:
                    for epp in signs:
                        sgn = 1
                        for el, e2 in zip(eps, epp):
                            sgn *= -el * e2
                        t = tuple(kl * el + ml * e2 for kl, ml, el, e2 in zip(k, m, eps, epp))
                        C[i, j] += sgn * coeff(t)
        return C / (2 * (N + 1)) ** d

    @pytest.mark.parametrize("d,N", [(1, 5), (2, 3)])
    def test_center_matrix_expansion(self, d, N):
        rng = np.random.default_rng(8)
        a_vals = rng.uniform(-1, 1, N**d)
        a = Observable.diagonal(cube(N, d), a_vals)
        C, _, _ = center_matrix(a)
        assert np.max(np.abs(C - self.brute_expansion(a_vals, N, d))) < 1e-12

    @pytest.mark.parametrize("d,N", [(1, 4), (1, 8), (2, 4), (2, 8)])
    def test_components_sum_to_masked_center(self, d, N):
        rng = np.random.default_rng(9)
        a = Observable.diagonal(cube(N, d), rng.uniform(-1, 1, N**d))
        dec = theta_decompose(a)
        C, _, eigs = center_matrix(a)
        mask = np.abs(np.subtract.outer(eigs, eigs)) <= 2e-9 * d
        assert np.max(np.abs(dec.total_matrix() - C * mask)) < 1e-10

    def test_zero_component_formula(self):
        for d, N in [(1, 3), (1, 7), (2, 4)]:
            rng = np.random.default_rng(10 + N)
            vals = rng.uniform(-1, 1, N**d)
            a = Observable.diagonal(cube(N, d), vals)
            dec = theta_decompose(a)
            expected = (N / (N + 1)) ** d * vals.mean() * np.eye(N**d)
            assert np.max(np.abs(dec.component_matrix((0,) * d) - expected)) < 1e-12

    def test_constant_observable_zero_component(self):
        a = Observable.diagonal(cube(3, 1), np.ones(3))
        dec = theta_decompose(a)
        assert np.max(np.abs(dec.component_matrix((0,)) - 0.75 * np.eye(3))) < 1e-15

    def test_fourier_coefficient_example(self):
        # sum of exp(-i pi t x / 4) over x=1..3 at t=2
        a = Observable.diagonal(cube(3, 1), np.ones(3))
        assert fourier_coefficient(a, (2,)) == pytest.approx(-1.0, abs=1e-14)
        grid = fourier_coefficients(a)
        assert grid[2 * 3 + 2] == pytest.approx(-1.0, abs=1e-14)

    @pytest.mark.parametrize("d,N", [(1, 1), (1, 5), (2, 3), (3, 2)])
    def test_single_coefficient_is_its_grid_entry(self, d, N):
        rng = np.random.default_rng(10 * d + N)
        a = Observable.diagonal(cube(N, d), rng.uniform(-1, 1, N**d))
        grid = fourier_coefficients(a)
        for t in itertools.product(range(-2 * N, 2 * N + 1), repeat=d):
            assert fourier_coefficient(a, t) == grid[tuple(c + 2 * N for c in t)]

    def test_single_coefficient_outside_grid_rejected(self):
        a = Observable.diagonal(cube(3, 2), np.ones(9))
        for t in [(7, 0), (0, -7), (1,), (1, 2, 3)]:
            with pytest.raises(ValueError, match="frequency index"):
                fourier_coefficient(a, t)

    def test_sparsity_bound(self):
        rng = np.random.default_rng(11)
        for d, n_max in [(1, 10), (2, 10)]:
            for N in range(2, n_max + 1):
                a = Observable.diagonal(cube(N, d), rng.uniform(-1, 1, N**d))
                dec = theta_decompose(a)
                cap = 2 * 4**d * N ** (d - 1)
                for t, comp in dec.components.items():
                    if any(c != 0 for c in t):
                        assert comp.nnz <= cap

    def test_entry_bound(self):
        rng = np.random.default_rng(12)
        N, d = 6, 2
        a = Observable.diagonal(cube(N, d), rng.uniform(-1, 1, N**d))
        dec = theta_decompose(a)
        for t, comp in dec.components.items():
            cap = (2 / (N + 1)) ** d * abs(comp.coefficient) + 1e-15
            for v in comp.values:
                assert abs(v) <= cap


class TestBessel:
    @pytest.mark.parametrize("complex_values", [False, True])
    @pytest.mark.parametrize("d,N", [(1, 1), (1, 2), (1, 7), (1, 12), (1, 40), (2, 1), (2, 4), (2, 9), (3, 2),
                                     (3, 5)])
    def test_lhs_is_the_sum_over_the_coefficient_grid(self, d, N, complex_values):
        # the quadratic form against |e_t . a|^2 summed over the (4N+1)^d grid of
        # fourier_coefficients. The form rounds within a few eps per axis (M is
        # well conditioned, its spectrum in [3N, 4(N+1)]); the grid's phases
        # exp(-i pi x t/(N+1)) carry angle errors up to about N eps
        rng = np.random.default_rng(100 * d + N)
        for _ in range(4):
            values = rng.uniform(-1, 1, N**d)
            if complex_values:
                values = values + 1j * rng.uniform(-1, 1, N**d)
            a = Observable.diagonal(cube(N, d), values)
            grid = float(np.sum(np.abs(fourier_coefficients(a)) ** 2) / (N + 1) ** (2 * d))
            lhs, rhs = bessel_bound_check(a)
            assert abs(lhs - grid) <= (8 * d + N) * EPS * grid
            assert rhs == 4**d * a.sup_norm**2

    def test_kernel_sums_the_phases(self):
        # M[x, y] is the sum of exp(-i pi (x - y) t/(N+1)) over t in [[-2N, 2N]]
        for N in (1, 2, 5, 9):
            P = fourier_phases(N)
            assert np.allclose(_bessel_kernel(N), (P @ P.conj().T).real, rtol=0, atol=1e-12 * N)

    @pytest.mark.parametrize("d,N", [(2, 64), (3, 16)])
    def test_holds_no_coefficient_grid(self, d, N):
        # g, (M x ... x M) g and a tensordot copy, and M: a few N^d arrays where
        # one complex (4N+1)^d grid is more than 30 of them
        a = Observable.diagonal(cube(N, d), np.random.default_rng(d).uniform(-1, 1, N**d))
        assert peak_bytes(lambda: bessel_bound_check(a)) < 6 * N**d * 8

    def test_zero_observable(self):
        a = Observable.diagonal(cube(4, 1), np.zeros(4))
        assert bessel_bound_check(a) == (0.0, 0.0)

    def test_constant_1d(self):
        # lhs values computed by direct summation over the frequency grid
        expected = {4: 1.8022291236000336, 8: 1.9712731487030524, 16: 2.0729329302596007}
        for N, lhs_expected in expected.items():
            a = Observable.diagonal(cube(N, 1), np.ones(N))
            lhs, rhs = bessel_bound_check(a)
            assert rhs == pytest.approx(4.0)
            assert lhs <= rhs
            assert lhs == pytest.approx(lhs_expected, abs=1e-10)

    def test_direct_summation_oracle(self):
        N = 5
        rng = np.random.default_rng(13)
        vals = rng.uniform(-1, 1, N)
        a = Observable.diagonal(cube(N, 1), vals)
        lhs, _ = bessel_bound_check(a)
        x = np.arange(1, N + 1)
        total = 0.0
        for t in range(-2 * N, 2 * N + 1):
            coeff = np.sum(np.exp(-1j * np.pi * t * x / (N + 1)) * vals)
            total += abs(coeff) ** 2 / (N + 1) ** 2
        assert lhs == pytest.approx(total, rel=1e-12)

    def test_padded_overlap_identity(self):
        # |<e~_t, a~>|^2 equals the scaled squared Fourier coefficient
        N = 6
        rng = np.random.default_rng(14)
        vals = rng.uniform(-1, 1, N)
        a = Observable.diagonal(cube(N, 1), vals)
        a_tilde = np.concatenate([[0.0], vals]) / np.sqrt(N + 1)  # on [[0, N]]
        for t in (-7, -2, 0, 1, 9):
            lhs = abs(np.vdot(tilde_exponential(N, 1, (t,)), a_tilde)) ** 2
            rhs = abs(fourier_coefficient(a, (t,))) ** 2 / (N + 1) ** 2
            assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_classwise_orthogonality(self):
        N = 5
        classes = theta_classes(N, 1)
        assert len(classes) == 4
        for members in classes.values():
            vecs = [tilde_exponential(N, 1, t) for t in members]
            for i in range(len(vecs)):
                for j in range(i + 1, len(vecs)):
                    assert abs(np.vdot(vecs[i], vecs[j])) < 1e-12

    def test_random_observables_within_bound(self):
        rng = np.random.default_rng(15)
        for d, N in [(1, 8), (2, 6)]:
            for _ in range(5):
                a = Observable.diagonal(cube(N, d), rng.uniform(-1, 1, N**d))
                lhs, rhs = bessel_bound_check(a)
                assert lhs <= rhs


MAX_SIDE = {1: 40, 2: 9, 3: 5}


@st.composite
def real_diagonals(draw):
    """A real diagonal observable on a cube, d = 1..3, entries of mixed scale."""
    d = draw(st.integers(1, 3), label="d")
    N = draw(st.integers(1, MAX_SIDE[d]), label="N")
    scale = draw(st.sampled_from([1e-150, 1e-3, 1.0, 1e3, 1e150]), label="scale")
    values = draw(st.lists(st.floats(-1.0, 1.0), min_size=N**d, max_size=N**d), label="values")
    return Observable.diagonal(cube(N, d), scale * np.array(values))


class TestBoundProperties:
    @settings(max_examples=150, deadline=None)
    @given(a=real_diagonals(), make=st.sampled_from([sine_basis, bloch_basis]))
    def test_variance_at_most_hs_squared_over_volume(self, a, make):
        # |<psi, a psi>|^2 <= ||a psi||^2 (Cauchy-Schwarz), summed over an
        # orthonormal basis: equality for multiples of the identity, so the
        # bound gets a relative rounding allowance of 1e-12
        N, V = a.box.sides[0], a.box.volume
        var = quantum_variance(make(N, a.box.d), a)
        assert var <= hs_norm(a.diag()) ** 2 / V * (1 + 1e-12)

    @settings(max_examples=150, deadline=None)
    @given(a=real_diagonals())
    def test_bessel_bound_holds(self, a):
        # each of the 4^d classes contributes at most ||a~||^2 <= sup|a|^2 (N/(N+1))^d
        lhs, rhs = bessel_bound_check(a)
        assert lhs <= rhs
