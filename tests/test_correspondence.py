import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeqe.correspondence import (
    complete_to_periodic_basis,
    embed,
    embed_block,
    extend_observable,
    reflect,
    verify_correspondence,
    verify_correspondence_family,
)
from latticeqe.experiments import _spectral_inclusion_error
from latticeqe.lattice import LatticeBox, Observable, UnsupportedPeriodError, Wavefunction, cube
from latticeqe.spectra import (
    SpectralData,
    apply_adjacency,
    bloch_basis,
    dirichlet_eigenvalues,
    periodic_eigenvalues,
    sine_basis,
)
from latticeqe.time_average import expectations

from oracles import embed_by_reflections, loop_correspondence_family, peak_bytes


class TestReflect:
    def test_side_four(self):
        assert reflect((1,), 1, cube(4, 1)) == (3,)

    def test_involution_side_six(self):
        box = cube(6, 1)
        for x in box.sites():
            assert reflect(reflect(x, 1, box), 1, box) == x

    def test_second_coordinate(self):
        assert reflect((2, 5), 2, LatticeBox((6, 6))) == (2, 1)

    def test_fixed_points(self):
        box = cube(6, 1)
        assert reflect((3,), 1, box) == (3,)
        assert reflect((6,), 1, box) == (6,)

    def test_odd_side_rejected(self):
        with pytest.raises(ValueError, match="even side"):
            reflect((1,), 1, cube(5, 1))


class TestEmbed:
    def test_single_site(self):
        psi = Wavefunction(cube(1, 1), [1.0])
        out = embed(psi)
        assert out.box.sides == (4,)
        assert np.allclose(out.values, np.array([1.0, 0.0, -1.0, 0.0]) / np.sqrt(2))

    def test_two_site_ground_state(self):
        s1 = Wavefunction(cube(2, 1), [1 / np.sqrt(2), 1 / np.sqrt(2)])
        out = embed(s1)
        assert np.allclose(out.values, [0.5, 0.5, 0.0, -0.5, -0.5, 0.0])

    def test_norm_preserved(self):
        rng = np.random.default_rng(20)
        box = cube(3, 2)
        for _ in range(50):
            vals = rng.normal(size=box.volume)
            vals /= np.linalg.norm(vals)
            assert embed(Wavefunction(box, vals)).norm() == pytest.approx(1.0, abs=1e-12)

    def test_constructions_agree_exactly(self):
        rng = np.random.default_rng(21)
        for sides in [(3,), (4,), (2, 3), (2, 2, 3)]:
            box = LatticeBox(sides)
            psi = Wavefunction(box, rng.normal(size=box.volume))
            assert np.array_equal(embed(psi).values, embed_by_reflections(psi).values)

    def test_defining_conditions(self):
        rng = np.random.default_rng(22)
        box = cube(3, 2)
        psi = Wavefunction(box, rng.normal(size=box.volume))
        image = embed(psi)
        target = image.box
        grid = image.grid()
        n = 3
        # restriction to the source block
        assert np.allclose(grid[:n, :n], psi.grid() / 2.0)
        # zero on divisible hyperplanes
        for x in target.sites():
            if any(xl % (n + 1) == 0 for xl in x):
                assert grid[tuple(c - 1 for c in x)] == 0.0
        # antisymmetry under each reflection
        for l in (1, 2):
            for x in target.sites():
                rx = reflect(x, l, target)
                assert grid[tuple(c - 1 for c in rx)] == -grid[tuple(c - 1 for c in x)]

    def test_injective_restriction(self):
        rng = np.random.default_rng(23)
        box = cube(4, 1)
        psi = Wavefunction(box, rng.normal(size=box.volume))
        image = embed(psi)
        recovered = 2 ** (box.d / 2) * image.grid()[: box.sides[0]]
        assert np.allclose(recovered, psi.values)

    def test_complex_input(self):
        psi = Wavefunction(cube(2, 1), [1j / np.sqrt(2), 1 / np.sqrt(2)])
        out = embed(psi)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)


class TestEmbedBlock:
    def test_mixed_periods(self):
        box = LatticeBox((2, 4))  # q = (1, 2), N = 2
        psi = Wavefunction(box, np.ones(box.volume) / np.sqrt(box.volume))
        out = embed_block(psi, (1, 2), 2)
        assert out.box.sides == (6, 10)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)

    def test_long_periods_refused(self):
        box = LatticeBox((6,))
        psi = Wavefunction(box, np.ones(6) / np.sqrt(6))
        with pytest.raises(UnsupportedPeriodError):
            embed_block(psi, (3,), 2)

    def test_side_mismatch(self):
        psi = Wavefunction(LatticeBox((4,)), np.ones(4) / 2)
        with pytest.raises(ValueError, match="q\\*N"):
            embed_block(psi, (2,), 3)


class TestCorrespondence:
    def test_two_site_ground_state_residual(self):
        lam = 2 * np.cos(np.pi / 3)
        s1 = Wavefunction(cube(2, 1), [1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert verify_correspondence(s1, lam) <= 1e-12

    def test_full_basis_2d(self):
        basis = sine_basis(4, 2)
        max_residual, gram_error = verify_correspondence_family(basis)
        assert max_residual <= 1e-10
        assert gram_error <= 1e-12

    def test_gram_identity_1d(self):
        basis = sine_basis(5, 1)
        _, gram_error = verify_correspondence_family(basis)
        assert gram_error <= 1e-12

    def test_rejects_unnormalized(self):
        psi = Wavefunction(cube(2, 1), [1.0, 1.0])
        with pytest.raises(ValueError, match="not normalized"):
            verify_correspondence(psi, 1.0)

    @pytest.mark.parametrize("d,N", [(1, 5), (2, 4), (2, 6)])
    def test_spectral_inclusion(self, d, N):
        dir_eigs = dirichlet_eigenvalues(N, d)
        per_eigs = periodic_eigenvalues(2 * N + 2, d)
        for lam in dir_eigs:
            assert np.min(np.abs(per_eigs - lam)) <= 1e-10

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("N", [1, 2, 3, 5])
    def test_inclusion_error_bitwise_equal_to_dense_formula(self, d, N):
        dir_eigs = dirichlet_eigenvalues(N, d)
        per_eigs = periodic_eigenvalues(2 * N + 2, d)
        dense = float(np.max(np.min(np.abs(dir_eigs[:, None] - per_eigs[None, :]), axis=1)))
        assert _spectral_inclusion_error(N, d) == dense

    @pytest.mark.parametrize("make,d,N", [(sine_basis, 1, 6), (sine_basis, 2, 3), (sine_basis, 3, 2),
                                          (bloch_basis, 1, 5), (bloch_basis, 2, 3)])
    def test_single_residual_is_the_family_residual(self, make, d, N):
        # each column against the per-column embed/apply_adjacency oracle, and
        # the worst column against the batched family
        basis = make(N, d)
        single = []
        for j in range(basis.n):
            column = SpectralData(basis.box, basis.eigenvalues[j:j + 1], basis.vectors[:, j:j + 1])
            single.append(verify_correspondence(Wavefunction(basis.box, basis.vectors[:, j]), basis.eigenvalues[j]))
            assert single[-1] == loop_correspondence_family(column)[0]
        assert max(single) == verify_correspondence_family(basis)[0]


def random_sides(data, max_side=5):
    d = data.draw(st.integers(1, 3), label="d")
    return LatticeBox(tuple(data.draw(st.lists(st.integers(1, max_side), min_size=d, max_size=d),
                                      label="sides")))


def random_columns(data, box, count):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    F = rng.normal(size=(box.volume, count))
    if data.draw(st.booleans(), label="complex"):
        F = F + 1j * rng.normal(size=F.shape)
    return F


class TestEmbeddedFamily:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_embedding_is_an_isometry(self, data):
        box = random_sides(data)
        count = data.draw(st.integers(1, min(box.volume, 6)), label="count")
        F = random_columns(data, box, count)
        E = np.column_stack([embed(Wavefunction(box, F[:, j])).values for j in range(count)])
        before, after = F.conj().T @ F, E.conj().T @ E
        assert np.max(np.abs(after - before)) <= 1e-12 * np.max(np.abs(before))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_batch_matches_column_loop_bitwise(self, data):
        box = random_sides(data)
        Q, _ = np.linalg.qr(random_columns(data, box, box.volume))
        eigs = np.sort(np.random.default_rng(box.volume).uniform(-4, 4, size=box.volume))
        basis = SpectralData(box, eigs, Q)
        assert verify_correspondence_family(basis) == loop_correspondence_family(basis)

    @pytest.mark.parametrize("d,N", [(1, 64), (2, 8), (2, 12), (2, 16), (3, 5)])
    def test_sine_basis_matches_column_loop_bitwise(self, d, N):
        basis = sine_basis(N, d)
        assert verify_correspondence_family(basis) == loop_correspondence_family(basis)

    def test_bloch_basis_matches_column_loop_bitwise(self):
        basis = bloch_basis(6, 2)
        assert verify_correspondence_family(basis) == loop_correspondence_family(basis)

    @pytest.mark.parametrize("make,d,N", [(sine_basis, 3, 6), (bloch_basis, 2, 12)])
    def test_holds_two_blocks(self, make, d, N):
        # the embedded block and its residual; a third block-sized temporary
        # (a rolled copy or eigenvalues * images) would pass 3 blocks
        basis = make(N, d)
        block = (2 * N + 2) ** d * basis.n * basis.vectors.itemsize
        assert peak_bytes(lambda: verify_correspondence_family(basis)) < 2.5 * block

    def test_builds_the_residual_one_chunk_at_a_time(self):
        # the embedded block, and of the residual only a chunk of columns; a
        # whole-block residual would pass 2 blocks
        basis = sine_basis(8, 3)
        block = 18**3 * basis.n * basis.vectors.itemsize
        assert peak_bytes(lambda: verify_correspondence_family(basis)) < 1.5 * block

    def test_non_finite_vectors_rejected(self):
        basis = sine_basis(3, 1)
        vectors = basis.vectors.copy()
        vectors[1, 2] = np.nan
        broken = SpectralData(basis.box, basis.eigenvalues, vectors)
        with pytest.raises(ValueError, match="finite"):
            verify_correspondence_family(broken)


class TestExtendObservable:
    def test_uniform_average_rescales(self):
        a = Observable.diagonal(cube(3, 1), np.ones(3))
        ext = extend_observable(a)
        assert ext.box.sides == (8,)
        assert ext.diag().mean() == pytest.approx(3 / 8)
        assert (8 / 3) * ext.diag().mean() == pytest.approx(a.diag().mean())

    def test_zero_extends_to_zero(self):
        a = Observable.diagonal(cube(3, 1), np.zeros(3))
        assert np.all(extend_observable(a).diag() == 0)

    def test_quadratic_form_identity(self):
        rng = np.random.default_rng(24)
        box = cube(3, 2)
        for _ in range(20):
            vals = rng.normal(size=box.volume)
            vals /= np.linalg.norm(vals)
            psi = Wavefunction(box, vals)
            a = Observable.diagonal(box, rng.uniform(-1, 1, box.volume))
            image = embed(psi)
            ext = extend_observable(a)
            lhs = np.sum(a.diag() * np.abs(psi.values) ** 2)
            rhs = 4 * np.sum(ext.diag() * np.abs(image.values) ** 2)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_kernel_quadratic_form_identity(self):
        rng = np.random.default_rng(25)
        box = cube(4, 1)
        vals = rng.normal(size=4)
        vals /= np.linalg.norm(vals)
        psi = Wavefunction(box, vals)
        offsets = {}
        for z in (-1, 0, 1):
            entry = rng.uniform(-1, 1, 4)
            lo, hi = max(0, -z), min(4, 4 - z)
            masked = np.zeros(4)
            masked[lo:hi] = entry[lo:hi]
            offsets[(z,)] = masked
        K = Observable.kernel(box, offsets)
        ext = extend_observable(K)
        image = embed(psi)
        lhs = psi.values @ K.to_matrix() @ psi.values
        rhs = 2 * (image.values @ ext.to_matrix() @ image.values)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestBasisCompletion:
    @pytest.mark.parametrize("d,N", [(1, 3), (2, 2)])
    def test_completion_is_eigenbasis(self, d, N):
        basis = sine_basis(N, d)
        embedded = np.column_stack(
            [embed(Wavefunction(basis.box, basis.vectors[:, j])).values for j in range(basis.n)]
        )
        full = complete_to_periodic_basis(embedded, basis.eigenvalues, N, d)
        side = 2 * N + 2
        assert full.n == side**d
        gram = full.vectors.conj().T @ full.vectors
        assert np.max(np.abs(gram - np.eye(full.n))) < 1e-10
        for j in range(full.n):
            psi = Wavefunction(full.box, full.vectors[:, j])
            err = apply_adjacency(psi, "periodic").values - full.eigenvalues[j] * psi.values
            assert np.max(np.abs(err)) < 1e-9

    @pytest.mark.parametrize("d,N", [(1, 3), (2, 2), (2, 3), (3, 1)])
    def test_completion_keeps_the_bloch_partition(self, d, N):
        # its columns take their classes from their eigenvalues, by the rule the Bloch basis uses
        basis = sine_basis(N, d)
        embedded = np.column_stack(
            [embed(Wavefunction(basis.box, basis.vectors[:, j])).values for j in range(basis.n)]
        )
        full = complete_to_periodic_basis(embedded, basis.eigenvalues, N, d)
        bloch = bloch_basis(2 * N + 2, d)
        assert np.array_equal(full.labels, bloch.labels)
        assert max(map(len, full.classes)) > 1

    @pytest.mark.parametrize("d,side", [(1, 4), (2, 4)])
    def test_family_filling_its_classes_is_returned_unchanged(self, d, side):
        # every class is full, so nothing is completed and no rank check applies
        bloch = bloch_basis(side, d)
        full = complete_to_periodic_basis(bloch.vectors, bloch.eigenvalues, side // 2 - 1, d)
        assert np.array_equal(full.vectors, bloch.vectors)
        assert np.array_equal(full.labels, bloch.labels)

    def test_contains_embedded_family(self):
        N, d = 3, 1
        basis = sine_basis(N, d)
        embedded = np.column_stack(
            [embed(Wavefunction(basis.box, basis.vectors[:, j])).values for j in range(basis.n)]
        )
        full = complete_to_periodic_basis(embedded, basis.eigenvalues, N, d)
        overlap = np.abs(full.vectors.conj().T @ embedded)
        # each embedded vector appears verbatim among the completed columns
        assert np.allclose(np.max(overlap, axis=0), 1.0, atol=1e-12)

    def test_periodic_correlator_blind_to_kernel_averaging(self):
        # zero-extended kernels and their offset-averaged versions give the
        # same wraparound correlator: only per-offset sums enter
        from latticeqe.correlators import averaged_kernel, correlator
        from latticeqe.lattice import shift_set

        rng = np.random.default_rng(27)
        box = cube(4, 1)
        offsets = {}
        for z in ((-1,), (0,), (1,), (2,)):
            vals = rng.uniform(-1, 1, 4)
            vals[~shift_set(box, z).mask] = 0.0
            offsets[z] = vals
        K = Observable.kernel(box, offsets)
        ext = extend_observable(K)
        ext_avg = extend_observable(averaged_kernel(K))
        raw = rng.normal(size=ext.box.volume)
        psi = Wavefunction(ext.box, raw / np.linalg.norm(raw))
        lhs = correlator(ext, psi, "periodic")
        rhs = correlator(ext_avg, psi, "periodic")
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_periodic_expectations_transfer(self):
        # embedded observables reproduce source expectations inside the big basis
        N, d = 3, 1
        basis = sine_basis(N, d)
        rng = np.random.default_rng(26)
        a = Observable.diagonal(basis.box, rng.uniform(-1, 1, basis.n))
        embedded = np.column_stack(
            [embed(Wavefunction(basis.box, basis.vectors[:, j])).values for j in range(basis.n)]
        )
        full = complete_to_periodic_basis(embedded, basis.eigenvalues, N, d)
        ext = extend_observable(a)
        big = expectations(full, ext)
        small = expectations(basis, a)
        for j in range(basis.n):
            matches = np.isclose(2**d * big, small[j], atol=1e-10)
            assert matches.any()
