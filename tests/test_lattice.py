import itertools
from functools import reduce

import numpy as np
import pytest

from latticeqe.lattice import BoxMismatchError, LatticeBox, Observable, Wavefunction, cube, shift_set
from latticeqe.spectra import ProductBasis, SpectralData, bloch_basis
from latticeqe.time_average import expectations


class TestIndexing:
    def test_first_site_is_zero(self):
        psi = Wavefunction(LatticeBox((3, 3)), np.arange(9.0))
        assert psi.grid()[0, 0] == 0

    def test_row_major_coordinate_one_slowest(self):
        psi = Wavefunction(LatticeBox((3, 3)), np.arange(9.0))
        assert psi.grid()[0, 1] == 1
        assert psi.grid()[1, 0] == 3
        assert np.array_equal(Wavefunction.from_grid(psi.box, psi.grid()).values, psi.values)

    def test_roundtrip_4x5(self):
        box = LatticeBox((4, 5))
        psi = Wavefunction(box, np.arange(20.0))
        for i, x in enumerate(itertools.product(range(1, 5), range(1, 6))):
            assert psi.grid()[x[0] - 1, x[1] - 1] == i
        assert np.array_equal(Wavefunction.from_grid(box, psi.grid()).values, psi.values)

    def test_out_of_box_raises(self):
        box = LatticeBox((3, 3))
        with pytest.raises(ValueError):
            Wavefunction.from_grid(box, np.zeros((3, 4)))
        with pytest.raises(ValueError, match="wrong dimension"):
            shift_set(box, (1,))
        with pytest.raises(ValueError, match="wrong dimension"):
            Observable.kernel(box, {(1,): np.zeros(9)})

    def test_bad_sides(self):
        with pytest.raises(ValueError):
            LatticeBox((3, 0))
        with pytest.raises(ValueError):
            LatticeBox(())


def rho(box: LatticeBox, z) -> np.ndarray:
    """The zero-boundary translation ``rho_z`` as a matrix: the kernel of ones on the shift set ``L_z``."""
    return Observable.kernel(box, {z: shift_set(box, z).mask}).to_matrix()


def tau(box: LatticeBox, z) -> np.ndarray:
    """The wraparound translation ``tau_z``, diagonal in the Bloch basis of each axis.

    ``b_k(x + z) = exp(2 pi i k z / N) b_k(x)``, so per axis ``tau_z = B diag(phase) B^*``
    with B the Bloch factor; the axes combine by Kronecker products, coordinate 1 slowest.
    """
    axes = []
    for zl, N in zip(z, box.sides):
        B = ProductBasis("periodic", N, 1).factor()
        axes.append((B * np.exp(2j * np.pi * np.arange(N) * zl / N)) @ B.conj().T)
    return reduce(np.kron, axes)


class TestTranslate:
    def test_dirichlet_shift(self):
        assert np.array_equal(rho(cube(3, 1), (1,)) @ [1.0, 2.0, 3.0], [2.0, 3.0, 0.0])

    def test_periodic_shift(self):
        assert np.allclose(tau(cube(3, 1), (1,)) @ [1.0, 2.0, 3.0], [2.0, 3.0, 1.0], atol=1e-12)

    def test_zero_shift_identity(self):
        box = LatticeBox((3, 2))
        assert np.array_equal(rho(box, (0, 0)), np.eye(box.volume))
        assert np.allclose(tau(box, (0, 0)), np.eye(box.volume), atol=1e-12)

    def test_oversized_dirichlet_shift_is_zero(self):
        assert np.all(rho(cube(3, 1), (5,)) == 0)

    def test_round_trip_fixes_interior(self):
        rng = np.random.default_rng(0)
        box = LatticeBox((6, 7))
        psi = rng.normal(size=box.volume)
        z = (2, -1)
        back = (rho(box, tuple(-c for c in z)) @ rho(box, z) @ psi).reshape(box.sides)
        orig = psi.reshape(box.sides)
        # interior sites farther than |z| from every boundary are untouched
        assert np.allclose(back[2:4, 1:6], orig[2:4, 1:6])

    def test_adjoints(self):
        rng = np.random.default_rng(1)
        box = LatticeBox((4, 5))
        psi = rng.normal(size=box.volume) + 1j * rng.normal(size=box.volume)
        phi = rng.normal(size=box.volume) + 1j * rng.normal(size=box.volume)
        for z in [(1, 0), (0, -2), (2, 3), (-1, 1)]:
            minus = tuple(-c for c in z)
            tau_z, tau_minus = tau(box, z), tau(box, minus)
            assert np.vdot(psi, tau_z @ phi) == pytest.approx(np.vdot(tau_minus @ psi, phi), abs=1e-12)
            rho_z, rho_minus = rho(box, z), rho(box, minus)
            assert np.array_equal(rho_minus, rho_z.T)
            assert np.vdot(psi, rho_z @ phi) == pytest.approx(np.vdot(rho_minus @ psi, phi), abs=1e-12)

    def test_periodic_vs_dirichlet_hs_difference(self):
        # the two translations differ exactly on the sites pushed out of the box
        box = LatticeBox((5, 4))
        for z in [(1, 0), (2, -1), (-3, 2)]:
            perm = np.rint(tau(box, z).real)
            assert np.allclose(tau(box, z), perm, atol=1e-12)
            hs_sq = np.sum((perm - rho(box, z)) ** 2)
            assert hs_sq == box.volume - np.count_nonzero(shift_set(box, z).mask)


class TestShiftSet:
    def test_zero_offset_is_whole_box(self):
        box = LatticeBox((3, 4))
        assert np.count_nonzero(shift_set(box, (0, 0)).mask) == box.volume

    def test_opposite_offsets_same_count(self):
        box = LatticeBox((5, 3))
        for z in [(1, 0), (2, -1), (4, 2)]:
            minus = tuple(-c for c in z)
            assert np.count_nonzero(shift_set(box, z).mask) == np.count_nonzero(shift_set(box, minus).mask)

    def test_count_formula(self):
        box = LatticeBox((5, 3))
        assert np.count_nonzero(shift_set(box, (2, 1)).mask) == 3 * 2


def one_column(psi: Wavefunction) -> SpectralData:
    return SpectralData(psi.box, np.zeros(1), psi.values[:, None])


class TestAverages:
    # the quadratic form <psi, a psi> of a diagonal observable, and its uniform
    # average, which is the expectation in every Bloch vector (|b_k(x)|^2 = N^-d)
    def test_constant(self):
        box = cube(3, 2)
        a = Observable.diagonal(box, np.full(box.volume, 2.5))
        psi = Wavefunction(box, np.ones(box.volume) / 3.0)
        assert expectations(one_column(psi), a)[0] == pytest.approx(2.5)
        assert np.allclose(expectations(bloch_basis(3, 2), a), 2.5)

    def test_two_site_example(self):
        box = cube(2, 1)
        a = Observable.diagonal(box, [1.0, 0.0])
        psi = Wavefunction(box, [1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert expectations(one_column(psi), a)[0] == pytest.approx(0.5)
        assert np.allclose(expectations(bloch_basis(2, 1), a), 0.5)

    def test_zero(self):
        box = cube(2, 1)
        a = Observable.diagonal(box, [0.0, 0.0])
        psi = Wavefunction(box, [0.6, 0.8])
        assert expectations(one_column(psi), a)[0] == 0.0
        assert np.all(expectations(bloch_basis(2, 1), a) == 0.0)

    def test_box_mismatch(self):
        a = Observable.diagonal(cube(2, 1), [1.0, 0.0])
        psi = Wavefunction(cube(3, 1), [1.0, 0.0, 0.0])
        with pytest.raises(BoxMismatchError):
            expectations(one_column(psi), a)


class TestObservable:
    def test_kind_and_range(self):
        box = cube(3, 1)
        diag = Observable.diagonal(box, [1.0, 2.0, 3.0])
        assert diag.kind == "diagonal"
        assert diag.range == 0
        kern = Observable.kernel(box, {(0,): [1.0, 0, 0], (1,): [0.5, 0.5, 0.0]})
        assert kern.kind == "kernel"
        assert kern.range == 1
        assert kern.sup_norm == 1.0

    def test_rejects_entries_outside_shift_set(self):
        box = cube(3, 1)
        with pytest.raises(ValueError, match="leaves the box"):
            Observable.kernel(box, {(1,): [0.0, 0.0, 1.0]})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_rejects_non_finite_entries(self, bad):
        box = cube(3, 1)
        with pytest.raises(ValueError, match="finite"):
            Observable.diagonal(box, np.array([1.0, bad, 0.0]))
        with pytest.raises(ValueError, match="finite"):
            Observable.kernel(box, {(1,): np.array([bad, 0.0, 0.0])})

    def test_to_matrix(self):
        box = cube(3, 1)
        kern = Observable.kernel(box, {(1,): [2.0, 3.0, 0.0], (-1,): [0.0, 5.0, 0.0]})
        M = kern.to_matrix()
        expected = np.array([[0, 2, 0], [5, 0, 3], [0, 0, 0]], dtype=float)
        assert np.array_equal(M, expected)

    def test_wavefunction_size_check(self):
        with pytest.raises(ValueError):
            Wavefunction(cube(3, 1), [1.0, 2.0])
