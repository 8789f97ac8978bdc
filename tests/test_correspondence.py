from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeqe.correspondence import _axis_maps, verify_correspondence, verify_correspondence_family
from latticeqe.experiments import _spectral_inclusion_error
from latticeqe.lattice import LatticeBox, Observable, Wavefunction, cube
from latticeqe.schrodinger import PeriodicPotential, eigenbasis, lattice_block
from latticeqe.spectra import SpectralData, bloch_basis, dirichlet_eigenvalues, periodic_eigenvalues, sine_basis
from latticeqe.time_average import expectations

from oracles import (
    doubled,
    embed,
    embed_by_reflections,
    exact_product_certificates,
    loop_axis_maps,
    loop_correspondence_family,
    peak_bytes,
)

EPS = np.finfo(float).eps


def residual_rounding_bound(d: int, N: int, residual: float) -> float:
    """How far a product basis's composed residual may sit from the dense check's.

    Both round the residual of the same embedded columns at most this much.
    The dense check rounds each basis entry, a product of ``d`` factor
    entries, ``d - 1`` times and the embedding once (``d eps ||W||``), then
    adds ``2d`` neighbours and subtracts ``lam W``, ``|lam| <= 2d``: with
    ``||A - lam|| <= 4d`` that is at most ``(4d d + (2d + 1) 4d) eps`` times
    ``||W|| ~ 1``, and ``eps ||R||``. The composition reads each 1-D
    residual within ``12 eps`` (two neighbours, one product, one
    subtraction, ``||A - lam|| <= 4``), so ``12 d eps`` together, and its dots
    of length ``2N + 2`` and about ``d^2`` terms round within ``(2N + 2 + d^2
    + 3d) eps`` of ``(1 + ||R||)``.
    """
    return (4 * d * d + (2 * d + 1) * 4 * d + 12 * d + 2 * N + 2 + d * d + 3 * d) * EPS * (1 + residual)


def gram_rounding_bound(d: int, N: int) -> float:
    """How far a product basis's composed Gram error may sit from the dense check's.

    The dense Gram entries are dots of length ``(2N+2)^d`` of unit columns
    whose entries are rounded ``d`` times; the composed ones are products of
    ``d`` dots of length ``2N + 2``, each rounded, and the identity's
    subtraction.
    """
    return ((2 * N + 2) ** d + d * (2 * N + 2) + 4 * d) * EPS


def mirror(v: int, side: int) -> int:
    """The reflection ``x -> -x`` (mod side) of a coordinate in ``[[1, side]]``."""
    return (side - v) % side or side


class TestReflect:
    # the extension is odd under each coordinate reflection: reflected target
    # coordinates read the same source index with the opposite sign
    def test_side_four(self):
        idx, sgn = _axis_maps(1)
        assert mirror(1, 4) == 3
        assert idx[0] == idx[2] and sgn[0] == -sgn[2] != 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_involution_side_six(self, n):
        side = 2 * n + 2
        idx, sgn = _axis_maps(n)
        assert len(idx) == side
        for v in range(1, side + 1):
            m = mirror(v, side)
            assert mirror(m, side) == v
            assert idx[m - 1] == idx[v - 1] and sgn[m - 1] == -sgn[v - 1]

    def test_second_coordinate(self):
        rng = np.random.default_rng(28)
        grid = embed(Wavefunction(cube(2, 2), rng.normal(size=4))).grid()
        # site (2, 5) reflects to (2, 1) in coordinate 2 of the 6 x 6 target
        assert mirror(5, 6) == 1
        assert grid[1, 4] == -grid[1, 0] != 0

    def test_axis_maps_match_loop(self):
        for n in range(1, 40):
            (idx, sgn), (ref_idx, ref_sgn) = _axis_maps(n), loop_axis_maps(n)
            assert idx.dtype == ref_idx.dtype and sgn.dtype == ref_sgn.dtype
            assert np.array_equal(idx, ref_idx)
            assert np.array_equal(sgn.view(np.int64), ref_sgn.view(np.int64))  # the walls' zeros unsigned too

    def test_fixed_points(self):
        _, sgn = _axis_maps(2)
        assert mirror(3, 6) == 3 and mirror(6, 6) == 6
        # an odd function vanishes where the reflection fixes the site
        assert sgn[2] == 0 and sgn[5] == 0


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
        x = np.indices(target.sides) + 1
        assert np.all(grid[np.any(x % (n + 1) == 0, axis=0)] == 0.0)
        # antisymmetry under each reflection x_l -> -x_l mod side: flipped,
        # 0-based index i -> side - 1 - i, then rolled by one, i -> side - 2 - i
        for axis in (0, 1):
            assert np.array_equal(np.roll(np.flip(grid, axis), -1, axis), -grid)

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
    @pytest.mark.parametrize("q,N", [((1,), 5), ((2,), 3), ((1, 2), 2), ((2, 1), 3), ((2, 2), 2), ((1, 1, 2), 2)])
    def test_mixed_periods(self, q, N):
        # a block with sides q_l N, q_l in {1, 2}: its adjacency eigenbasis,
        # solved densely, extends to the doubled wraparound box
        box = lattice_block(q, N)
        psi = Wavefunction(box, np.ones(box.volume) / np.sqrt(box.volume))
        out = embed(psi)
        assert out.box.sides == tuple(2 * c * N + 2 for c in q)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)
        basis = eigenbasis(PeriodicPotential(q, np.zeros(q)), N)
        max_residual, gram_error = verify_correspondence_family(basis)
        assert max_residual <= 1e-12 and gram_error <= 1e-12


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
        # the worst column against the family: its bits at d = 1, where the
        # factored check is the dense one, its rounding beyond
        basis = make(N, d)
        single = []
        for j in range(basis.n):
            column = SpectralData(basis.box, basis.eigenvalues[j:j + 1], basis.vectors[:, j:j + 1])
            single.append(verify_correspondence(Wavefunction(basis.box, basis.vectors[:, j]), basis.eigenvalues[j]))
            assert single[-1] == loop_correspondence_family(column)[0]
        family = verify_correspondence_family(basis)[0]
        if d == 1:
            assert max(single) == family
        else:
            assert abs(max(single) - family) <= residual_rounding_bound(d, N, max(single))


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

    @pytest.mark.parametrize("make", [sine_basis, bloch_basis])
    @pytest.mark.parametrize("d,N", [(d, N) for d in (1, 2, 3) for N in range(1, 7)] + [(1, 64), (2, 16)])
    def test_product_basis_matches_column_loop(self, make, d, N):
        # the factored certificate against one embedding per dense column:
        # bit for bit at d = 1, within the rounding of both sides beyond
        basis = make(N, d)
        (residual, gram_error), (loop_residual, loop_gram_error) = (
            verify_correspondence_family(basis), loop_correspondence_family(basis))
        if d == 1:
            assert (residual, gram_error) == (loop_residual, loop_gram_error)
        assert abs(residual - loop_residual) <= residual_rounding_bound(d, N, loop_residual)
        assert abs(gram_error - loop_gram_error) <= gram_rounding_bound(d, N)

    @pytest.mark.parametrize("make", [sine_basis, bloch_basis])
    @pytest.mark.parametrize("d,N", [(1, 1), (1, 5), (2, 1), (2, 2), (2, 3), (2, 5), (3, 2), (3, 3)])
    def test_product_certificates_are_the_exact_compositions(self, make, d, N):
        # against the same 1-D data composed in exact rational arithmetic: the
        # residual's square within the dots' and the composition's rounding of
        # its terms, the Gram error within a few eps of itself
        basis = make(N, d)
        residual, gram_error = verify_correspondence_family(basis)
        exact_residual, exact_gram, scale = exact_product_certificates(basis)
        assert abs(Fraction(residual) ** 2 - exact_residual) <= (2 * N + d * d + d + 8) * EPS * scale
        assert abs(Fraction(gram_error) ** 2 - exact_gram) <= (4 * d + 4) * EPS * exact_gram

    @pytest.mark.parametrize("scale", [0.999, 1.001])
    @pytest.mark.parametrize("make,d,N", [(sine_basis, 2, 3), (bloch_basis, 3, 2)])
    def test_product_certificates_of_a_scaled_factor(self, make, d, N, scale):
        # a factor whose columns are not unit vectors: the Gram error is set by
        # the smallest (scale < 1) or the largest (scale > 1) diagonal entry
        basis = make(N, d)
        factor = basis.factor()
        basis.factor = lambda: scale * factor
        residual, gram_error = verify_correspondence_family(basis)
        exact_residual, exact_gram, scale_of_terms = exact_product_certificates(basis)
        assert abs(Fraction(residual) ** 2 - exact_residual) <= (2 * N + d * d + d + 8) * EPS * scale_of_terms
        assert abs(Fraction(gram_error) ** 2 - exact_gram) <= (4 * d + 4) * EPS * exact_gram
        assert gram_error == pytest.approx(abs(scale ** (2 * d) - 1), rel=1e-9)

    @pytest.mark.parametrize("make,d,N", [(sine_basis, 2, 4), (sine_basis, 3, 3), (bloch_basis, 2, 3)])
    def test_product_residual_reads_the_basis_eigenvalues(self, make, d, N):
        # one eigenvalue moved by 1e-3: the embedded column is no longer an
        # eigenvector for it, and the factored check sees the dense check's residual
        basis = make(N, d)
        basis.eigs[N**d // 2] += 1e-3
        basis.eigenvalues = basis.eigs[basis.order]
        numeric = SpectralData(basis.box, basis.eigenvalues, basis.vectors)
        residual, dense = verify_correspondence_family(basis)[0], verify_correspondence_family(numeric)[0]
        assert dense >= 5e-4
        assert abs(residual - dense) <= residual_rounding_bound(d, N, dense)

    @pytest.mark.parametrize("make,d,N", [(sine_basis, 2, 256), (bloch_basis, 2, 256), (sine_basis, 3, 32),
                                          (bloch_basis, 3, 32)])
    def test_product_path_builds_nothing_on_the_doubled_box(self, make, d, N):
        # the 1-D data (about 3 N^2 entries) and a few N^d arrays on the
        # frequency grid; one array of (2N+2)^d entries more would pass 6 N^d
        # at d = 2 (the sine path peaks near 4.4), and at d = 3 on its own
        basis = make(N, d)
        itemsize = np.dtype(basis.factor().dtype).itemsize
        assert peak_bytes(lambda: verify_correspondence_family(basis)) < 6 * N**d * itemsize

    @pytest.mark.parametrize("make,d,N", [(sine_basis, 3, 6), (bloch_basis, 2, 12)])
    def test_holds_two_blocks(self, make, d, N):
        # the dense path on a numeric basis of a product basis's shape: the
        # embedded block and its residual; a third block-sized temporary (a
        # rolled copy or eigenvalues * images) would pass 3 blocks
        product = make(N, d)
        basis = SpectralData(product.box, product.eigenvalues, product.vectors)
        block = (2 * N + 2) ** d * basis.n * basis.vectors.itemsize
        assert peak_bytes(lambda: verify_correspondence_family(basis)) < 2.5 * block

    def test_builds_the_residual_one_chunk_at_a_time(self):
        # the dense path: the embedded block, and of the residual only a chunk
        # of columns; a whole-block residual would pass 2 blocks
        product = sine_basis(8, 3)
        basis = SpectralData(product.box, product.eigenvalues, product.vectors)
        block = 18**3 * basis.n * basis.vectors.itemsize
        assert peak_bytes(lambda: verify_correspondence_family(basis)) < 1.5 * block

    def test_non_finite_vectors_rejected(self):
        basis = sine_basis(3, 1)
        vectors = basis.vectors.copy()
        vectors[1, 2] = np.nan
        broken = SpectralData(basis.box, basis.eigenvalues, vectors)
        with pytest.raises(ValueError, match="finite"):
            verify_correspondence_family(broken)


def zero_extension(a: Observable) -> Observable:
    """The observable on the doubled box equal to ``a`` on the source block and zero elsewhere."""
    target = doubled(a.box)
    block = tuple(slice(0, n) for n in a.box.sides)
    offsets = {}
    for z, vals in a.offsets.items():
        out = np.zeros(target.sides, dtype=vals.dtype)
        out[block] = vals.reshape(a.box.sides)
        offsets[z] = out.reshape(-1)
    return Observable(target, offsets)


def embedded_family(basis: SpectralData) -> SpectralData:
    E = np.column_stack([embed(Wavefunction(basis.box, basis.vectors[:, j])).values for j in range(basis.n)])
    return SpectralData(doubled(basis.box), basis.eigenvalues, E)


class TestExtendObservable:
    # the embedded family reproduces source expectations of an observable
    # extended by zero, up to the factor 2^d of the block's share of the norm
    def test_uniform_average_rescales(self):
        a = Observable.diagonal(cube(3, 1), np.ones(3))
        ext = zero_extension(a)
        assert ext.box.sides == (8,)
        # Bloch expectations are site means: 3/8 on the doubled box, 1 on the source
        assert np.allclose(expectations(bloch_basis(8, 1), ext), 3 / 8)
        assert np.allclose((8 / 3) * expectations(bloch_basis(8, 1), ext), expectations(bloch_basis(3, 1), a)[0])

    def test_quadratic_form_identity(self):
        rng = np.random.default_rng(24)
        basis = sine_basis(3, 2)
        big = embedded_family(basis)
        for _ in range(20):
            a = Observable.diagonal(basis.box, rng.uniform(-1, 1, basis.n))
            small = expectations(basis, a)  # the factored sine contraction
            assert np.allclose(small, 4 * expectations(big, zero_extension(a)), atol=1e-12)

    def test_kernel_quadratic_form_identity(self):
        rng = np.random.default_rng(25)
        basis = sine_basis(4, 1)
        offsets = {}
        for z in (-1, 0, 1):
            entry = rng.uniform(-1, 1, 4)
            lo, hi = max(0, -z), min(4, 4 - z)
            masked = np.zeros(4)
            masked[lo:hi] = entry[lo:hi]
            offsets[(z,)] = masked
        K = Observable.kernel(basis.box, offsets)
        big = embedded_family(basis)
        assert np.allclose(expectations(basis, K), 2 * expectations(big, zero_extension(K)), atol=1e-12)
