import numpy as np
import pytest

from latticeqe.lattice import (
    BoxMismatchError,
    LatticeBox,
    Observable,
    Wavefunction,
    averages,
    cube,
    shift_set,
    translate,
)


class TestIndexing:
    def test_first_site_is_zero(self):
        box = LatticeBox((3, 3))
        assert box.linearize((1, 1)) == 0

    def test_row_major_coordinate_one_slowest(self):
        box = LatticeBox((3, 3))
        assert box.linearize((1, 2)) == 1
        assert box.linearize((2, 1)) == 3

    def test_roundtrip_4x5(self):
        box = LatticeBox((4, 5))
        for i, x in enumerate(box.sites()):
            assert box.linearize(x) == i
            assert box.delinearize(i) == x

    def test_out_of_box_raises(self):
        box = LatticeBox((3, 3))
        with pytest.raises(IndexError):
            box.linearize((0, 1))
        with pytest.raises(IndexError):
            box.linearize((1, 4))
        with pytest.raises(IndexError):
            box.delinearize(9)

    def test_bad_sides(self):
        with pytest.raises(ValueError):
            LatticeBox((3, 0))
        with pytest.raises(ValueError):
            LatticeBox(())


class TestTranslate:
    def test_dirichlet_shift(self):
        psi = Wavefunction(cube(3, 1), [1.0, 2.0, 3.0])
        out = translate(psi, (1,), "dirichlet")
        assert np.allclose(out.values, [2.0, 3.0, 0.0])

    def test_periodic_shift(self):
        psi = Wavefunction(cube(3, 1), [1.0, 2.0, 3.0])
        out = translate(psi, (1,), "periodic")
        assert np.allclose(out.values, [2.0, 3.0, 1.0])

    def test_zero_shift_identity(self):
        psi = Wavefunction(cube(3, 1), [1.0, 2.0, 3.0])
        for mode in ("dirichlet", "periodic"):
            assert np.array_equal(translate(psi, (0,), mode).values, psi.values)

    def test_oversized_dirichlet_shift_is_zero(self):
        psi = Wavefunction(cube(3, 1), [1.0, 2.0, 3.0])
        assert np.all(translate(psi, (5,), "dirichlet").values == 0)

    def test_round_trip_fixes_interior(self):
        rng = np.random.default_rng(0)
        box = LatticeBox((6, 7))
        psi = Wavefunction(box, rng.normal(size=box.volume))
        z = (2, -1)
        back = translate(translate(psi, z, "dirichlet"), tuple(-c for c in z), "dirichlet")
        grid, orig = back.grid(), psi.grid()
        # interior sites farther than |z| from every boundary are untouched
        assert np.allclose(grid[2:4, 1:6], orig[2:4, 1:6])

    def test_adjoints(self):
        rng = np.random.default_rng(1)
        box = LatticeBox((4, 5))
        psi = Wavefunction(box, rng.normal(size=box.volume) + 1j * rng.normal(size=box.volume))
        phi = Wavefunction(box, rng.normal(size=box.volume) + 1j * rng.normal(size=box.volume))
        for z in [(1, 0), (0, -2), (2, 3), (-1, 1)]:
            minus = tuple(-c for c in z)
            tau = psi.inner(translate(phi, z, "periodic"))
            tau_adj = translate(psi, minus, "periodic").inner(phi)
            assert tau == pytest.approx(tau_adj, abs=1e-12)
            rho = psi.inner(translate(phi, z, "dirichlet"))
            rho_adj = translate(psi, minus, "dirichlet").inner(phi)
            assert rho == pytest.approx(rho_adj, abs=1e-12)

    def test_periodic_vs_dirichlet_hs_difference(self):
        # the two translations differ exactly on the sites pushed out of the box
        box = LatticeBox((5, 4))
        for z in [(1, 0), (2, -1), (-3, 2)]:
            rho = np.zeros((box.volume, box.volume))
            tau = np.zeros((box.volume, box.volume))
            for i in range(box.volume):
                e = np.zeros(box.volume)
                e[i] = 1.0
                psi = Wavefunction(box, e)
                rho[:, i] = translate(psi, z, "dirichlet").values
                tau[:, i] = translate(psi, z, "periodic").values.real
            hs_sq = np.sum((tau - rho) ** 2)
            assert hs_sq == box.volume - shift_set(box, z).count


class TestShiftSet:
    def test_zero_offset_is_whole_box(self):
        box = LatticeBox((3, 4))
        assert shift_set(box, (0, 0)).count == box.volume

    def test_opposite_offsets_same_count(self):
        box = LatticeBox((5, 3))
        for z in [(1, 0), (2, -1), (4, 2)]:
            minus = tuple(-c for c in z)
            assert shift_set(box, z).count == shift_set(box, minus).count

    def test_count_formula(self):
        box = LatticeBox((5, 3))
        assert shift_set(box, (2, 1)).count == 3 * 2


class TestAverages:
    def test_constant(self):
        box = cube(3, 2)
        a = Observable.diagonal(box, np.full(box.volume, 2.5))
        psi = Wavefunction(box, np.ones(box.volume) / 3.0)
        uniform, quad = averages(a, psi)
        assert uniform == pytest.approx(2.5)
        assert quad == pytest.approx(2.5)

    def test_two_site_example(self):
        box = cube(2, 1)
        a = Observable.diagonal(box, [1.0, 0.0])
        psi = Wavefunction(box, [1 / np.sqrt(2), 1 / np.sqrt(2)])
        uniform, quad = averages(a, psi)
        assert uniform == pytest.approx(0.5)
        assert quad == pytest.approx(0.5)

    def test_zero(self):
        box = cube(2, 1)
        a = Observable.diagonal(box, [0.0, 0.0])
        psi = Wavefunction(box, [0.6, 0.8])
        assert averages(a, psi) == (0.0, 0.0)

    def test_box_mismatch(self):
        a = Observable.diagonal(cube(2, 1), [1.0, 0.0])
        psi = Wavefunction(cube(3, 1), [1.0, 0.0, 0.0])
        with pytest.raises(BoxMismatchError):
            averages(a, psi)


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
