import csv
import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest

from latticeqe import spectra
from latticeqe.cli import main
from latticeqe.correlators import (
    _BLOCK,
    _closed_form_overlaps,
    _offset_one_overlaps,
    _spherical_orders,
    chebyshev_operator,
    sine_shift_overlaps,
    spherical,
    wucha_error_scan,
)
from latticeqe.lattice import cube
from latticeqe.spectra import adjacency_matrix, sine_matrix

from oracles import dense_shift_overlaps, infinite_chebyshev, matmul_chebyshev_operator, peak_bytes, slab_shift_overlaps

EPS = np.finfo(float).eps


def closed_form_rounding_bound(N: int) -> float:
    """Bound on |closed form - dense sum| at an offset z in [[2, N-1]] of [[1, N]].

    Derived to first order in u = eps / 2, with K = N + 1, sigma^2 = 2 / K,
    |fl(pi) - pi| <= 0.36 u pi, and sin and cos taken to be within 4 ulp, that
    is 8 u of a value of at most 1:
    - Dense sum. The angle fl(fl(x j pi) / K) is below N pi and carries a
      relative 2.36 u, so it is off by under 7.42 N u. A factor entry
      (sigma rounded 1.5 u, the product u) is then off by
      sigma (7.42 N + 10.5) u, and a product of two by sigma^2 (14.84 N + 22) u.
      There are M = N - z of them, M sigma^2 < 2, and the in-order sum adds
      (M - 1) u M sigma^2 < 2 N u: in all under (31.68 N + 44) u.
    - Closed form. Each angle is an integer below 2K times fl(pi / K), so it
      is below 2 pi with a relative 2.36 u: cos(za) and sin((z+1)a) are off by
      14.83 u + 8 u = 22.83 u. sin a is taken at an angle of at most pi/2, where
      angle / sin <= pi/2, so it carries a relative 3.71 u + 8 u = 11.71 u, and
      it is at least sin(pi/K) >= 2/K. Then (N - z) cos(za) is off by
      23.83 (N - z) u, the quotient by 22.83 u K/2 + 12.71 (z + 1) u (it is at
      most z + 1), the sum adds K u and the division by K adds u: with N - z
      and z + 1 at most K, under 49.96 u after the division.
    Together: (15.84 N + 22) eps + 24.98 eps <= (16 N + 47) eps.
    """
    return (16 * N + 47) * EPS


class TestSpherical:
    def test_order_zero(self):
        for lam in (-2.0, -0.3, 0.0, 1.7, 2.0):
            assert spherical(lam, 0) == 1.0

    def test_top_of_spectrum(self):
        for n in range(8):
            assert spherical(2.0, n) == pytest.approx(1.0)

    def test_center_of_spectrum(self):
        assert spherical(0.0, 2) == pytest.approx(-1.0)

    def test_matches_arccos_form(self):
        for lam in np.linspace(-1.99, 1.99, 21):
            for n in range(6):
                closed = np.cos(n * np.arccos(lam / 2))
                assert spherical(lam, n) == pytest.approx(closed, abs=1e-10)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            spherical(2.5, 1)
        with pytest.raises(ValueError):
            spherical(1.0, -1)

    @pytest.mark.parametrize("N", [1, 2, 50, 400, 1600])
    def test_array_recursion_matches_scalar_bitwise(self, N):
        lams = np.concatenate([sine_matrix(N, 1)[2], [-2.0, 0.0, 2.0]])
        orders = _spherical_orders(lams, 3)
        for z, values in enumerate(orders):
            scalar = np.array([spherical(lam, z) for lam in lams])
            assert np.array_equal(np.broadcast_to(values, lams.shape), scalar)

    def test_scan_matches_scalar_loop(self):
        n_values, R = [50, 100, 200, 400, 800, 1600], 3
        expected = []
        for N in n_values:
            S1, _, lam = sine_matrix(N, 1)
            for z in range(R + 1):
                # dense for z = 1, bit for bit; the closed form for every larger offset
                if z == 0:
                    overlaps = np.ones(N)
                elif z == 1:
                    overlaps = dense_shift_overlaps(S1, 1)
                else:
                    overlaps = _closed_form_overlaps(N, z)
                sph = np.array([spherical(l, z) for l in lam])
                err = float(np.max(np.abs(overlaps - sph)))
                expected.append({"N": N, "z": z, "max_err": err, "err_times_N": err * N})
        assert wucha_error_scan(n_values, R) == expected


class TestChebyshevOperator:
    def test_order_zero_identity(self):
        assert np.array_equal(chebyshev_operator(0, 5), np.eye(5))

    def test_order_one_half_adjacency(self):
        A = adjacency_matrix(cube(4, 1), "dirichlet")
        assert np.array_equal(chebyshev_operator(1, 4), A / 2)

    def test_recursion_exact(self):
        # bit for bit against the recursion with dense products A @ T_n
        for N in range(1, 41):
            for n in range(N):
                assert chebyshev_operator(n, N).tobytes() == matmul_chebyshev_operator(n, N).tobytes()

    def test_interior_rows_match_infinite_pattern(self):
        N = 8
        for n in (2, 3):
            box_op = chebyshev_operator(n, N)
            line_op = infinite_chebyshev(n, N)
            interior = slice(n, N - n)  # rows with 1+n <= x <= N-n (1-based)
            assert np.array_equal(box_op[interior, :], line_op[interior, :])

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            chebyshev_operator(4, 4)


class TestShiftOverlaps:
    def test_symmetrization_identity(self):
        # <s_j, rho_z s_j> equals the matrix element of the half-sum pattern
        # (1/2 at distance z), the full-line operator cut to the box
        N = 9
        S = sine_matrix(N, 1)[0]
        for z in (1, 2, 3):
            T = infinite_chebyshev(z, N)
            overlaps = sine_shift_overlaps(N, z)
            via_operator = np.einsum("xj,xy,yj->j", S, T, S)
            assert np.allclose(overlaps, via_operator, atol=1e-12)

    def test_box_polynomial_gives_spherical_exactly(self):
        # the box recursion applied to its own eigenvectors has no boundary error
        N = 9
        S, _, lams = sine_matrix(N, 1)
        for z in (1, 2, 3):
            T = chebyshev_operator(z, N)
            via_operator = np.einsum("xj,xy,yj->j", S, T, S)
            sph = np.array([spherical(l, z) for l in lams])
            assert np.allclose(via_operator, sph, atol=1e-12)

    def test_offset_one_closed_form(self):
        for N in (3, 10, 37):
            j = np.arange(1, N + 1)
            assert np.allclose(
                sine_shift_overlaps(N, 1), np.cos(j * np.pi / (N + 1)), atol=1e-12
            )

    @pytest.mark.parametrize("N", sorted({2, 3, 7, 50, 129, 257, 301, 385, _BLOCK + 1, 2 * _BLOCK + 1,
                                          3 * _BLOCK + 1, 800, 1600, 3200}))
    def test_matches_dense_oracle_and_closed_form(self, N):
        # summing sin(ax) sin(a(x+z)) over [[1, N-z]], a = j pi/(N+1), gives
        # ((N-z) cos(az) - sin((N-z)a) cos(a(N+1)) / sin a) / (N+1); z = 1 keeps
        # the dense sum's bits, larger offsets are within its rounding bound
        a = np.arange(1, N + 1) * np.pi / (N + 1)
        for z in sorted({0, 1, 2, 3, N // 2, N - 1, N, N + 1}):
            overlaps = sine_shift_overlaps(N, z)
            if z == 0:
                assert np.array_equal(overlaps, np.ones(N))
            elif z >= N:
                assert np.array_equal(overlaps, np.zeros(N))
            else:
                dense = slab_shift_overlaps(N, z)
                if z == 1:
                    assert np.array_equal(overlaps, dense)
                else:
                    assert np.max(np.abs(overlaps - dense)) <= closed_form_rounding_bound(N), z
                if N <= 385:
                    closed = ((N - z) * np.cos(a * z)
                              - np.sin((N - z) * a) * np.cos(a * (N + 1)) / np.sin(a)) / (N + 1)
                    assert np.max(np.abs(overlaps - closed)) <= 1e-13
            assert np.array_equal(sine_shift_overlaps(N, -z), overlaps)

    def test_scan_rows_use_the_same_overlaps(self):
        Ns, R = [20, 33], 4
        rows = wucha_error_scan(Ns, R)
        for row in rows:
            N, z = row["N"], row["z"]
            lam = 2.0 * np.cos(np.arange(1, N + 1) * np.pi / (N + 1))
            sph = np.array([spherical(l, z) for l in lam])
            assert row["max_err"] == float(np.max(np.abs(sine_shift_overlaps(N, z) - sph)))

    def test_matches_translate(self):
        N = 7
        S = sine_matrix(N, 1)[0]
        for z in (0, 1, 3):
            overlaps = sine_shift_overlaps(N, z)
            rho = np.eye(N, k=z)  # (rho_z psi)(x) = psi(x + z), zero past the boundary
            for j in range(N):
                assert overlaps[j] == pytest.approx(S[:, j] @ rho @ S[:, j], abs=1e-12)


class TestStreamedKernel:
    def test_matches_dense_oracle_bitwise_small_boxes(self):
        # every block height from 2 to _BLOCK, and N = _BLOCK + 1 and
        # 2 * _BLOCK + 1, where fixed-height blocks would leave a one-row tail
        for N in range(2, 301):
            S = sine_matrix(N, 1)[0]
            assert np.array_equal(_offset_one_overlaps(N), dense_shift_overlaps(S, 1)), N

    @pytest.mark.parametrize("N", [385, 400, 513, 800, 1025, 1600, 2000])
    def test_matches_dense_oracle_bitwise_scan_sizes(self, N):
        S = sine_matrix(N, 1)[0]
        assert np.array_equal(_offset_one_overlaps(N), dense_shift_overlaps(S, 1))

    def test_no_offsets_evaluates_no_sine(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sine evaluated")

        monkeypatch.setattr(np, "sin", refuse)
        assert np.array_equal(sine_shift_overlaps(50, 0), np.ones(50))
        assert np.array_equal(sine_shift_overlaps(50, 50), np.zeros(50))
        assert wucha_error_scan([10, 20], 0)[1]["max_err"] == 0.0

    def test_staircase_evaluates_half_the_factor(self, monkeypatch):
        evaluated = []
        real = np.sin

        def counting(a, *args, **kwargs):
            evaluated.append(np.size(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np, "sin", counting)
        N = 1600
        _offset_one_overlaps(N)
        staircase = sum(evaluated)
        assert N * N / 2 < staircase <= N * (N + _BLOCK) / 2
        # R = 4 adds only the closed forms of z = 2, 3, 4: two sines of length N each
        evaluated.clear()
        wucha_error_scan([N], 4)
        assert sum(evaluated) - staircase <= 2 * 3 * N

    def test_scan_peak_memory_without_dense_factor(self):
        # the dense 1600 x 1600 factor alone is 20 MB
        assert peak_bytes(lambda: wucha_error_scan([1600], 3)) < 10e6

    def test_scan_at_scale_builds_no_factor(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense sine factor built")

        monkeypatch.setattr(spectra, "sine_matrix", refuse)
        monkeypatch.setattr(spectra.ProductBasis, "factor", refuse)
        monkeypatch.setattr(spectra.ProductBasis, "matrix", refuse)
        rows = wucha_error_scan([1600, 6400], 3)
        small, large = rows[:4], rows[4:]
        assert [row["z"] for row in large] == [0, 1, 2, 3]
        assert large[0]["max_err"] == 0.0
        assert large[1]["max_err"] < 1e-12  # the exact error is 0 at z = 1
        for a, b in zip(small[2:], large[2:]):
            assert b["max_err"] < a["max_err"] / 3
            assert b["err_times_N"] == pytest.approx(a["err_times_N"], rel=1e-2)


class TestUniversalityScan:
    def test_zero_offset_error_vanishes(self):
        rows = wucha_error_scan([10, 20], R=0)
        assert all(row["max_err"] == 0.0 for row in rows)

    def test_ground_state_offset_one_exact(self):
        N = 3
        overlap = sine_shift_overlaps(N, 1)[0]
        lam = 2 * np.cos(np.pi / 4)
        assert overlap - spherical(lam, 1) == pytest.approx(0.0, abs=1e-15)

    def test_error_product_bounded(self):
        rows = wucha_error_scan([20, 40, 80], R=3)
        first = {}
        for row in rows:
            first.setdefault(row["z"], row["err_times_N"])
        for row in rows:
            assert row["err_times_N"] <= max(2 * first[row["z"]], 1e-8)

    def test_kernel_replacement_error(self):
        # swapping overlaps for spherical values moves the correlator by O(1/N)
        rng = np.random.default_rng(44)
        R = 2
        weights = {z: rng.uniform(-1, 1) for z in range(-R, R + 1)}
        worst = {}
        for N in (50, 100, 200):
            S, _, lams = sine_matrix(N, 1)
            diffs = np.zeros(N)
            for z, w in weights.items():
                overlaps = sine_shift_overlaps(N, z)
                sph = np.array([spherical(l, abs(z)) for l in lams])
                diffs = diffs + w * (overlaps - sph)
            worst[N] = np.max(np.abs(diffs))
        assert worst[100] * 100 <= max(2 * worst[50] * 50, 1e-8)
        assert worst[200] * 200 <= max(2 * worst[50] * 50, 1e-8)

    def test_offset_range_validated(self):
        with pytest.raises(ValueError):
            wucha_error_scan([5, 10], R=5)
        with pytest.raises(ValueError):
            wucha_error_scan([5, 10], R=-1)


def bench_worker():
    """The benchmark's worker module, loaded from its file (it is not a package)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "worker.py"
    spec = importlib.util.spec_from_file_location("bench_worker", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkReference:
    @pytest.mark.parametrize("size", ["full", "smoke"])
    def test_correlator_job_keeps_the_recorded_cells(self, tmp_path, size):
        # the qe-dense correlator job as the benchmark runs it, against the report it
        # records: the z = 0, 1 rows byte for byte (their rounding noise is compared at
        # the absolute tolerance), every other cell within the benchmark's tolerance
        worker = bench_worker()
        jobs = [job for job in worker.make_jobs("qe-dense", size, 0, tmp_path / "inputs")
                if job[0].startswith("correlator ")]
        assert len(jobs) == 1
        key, argv = jobs[0]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        text = (tmp_path / "correlator.csv").read_text(encoding="utf-8")
        recorded = worker.load_reference()[size]["qe-dense"][key]["correlator.csv"]
        header, *rows = list(csv.reader(io.StringIO(text)))
        recorded_header, *recorded_rows = list(csv.reader(io.StringIO(recorded)))
        assert header == recorded_header and len(rows) == len(recorded_rows)
        for row, recorded_row in zip(rows, recorded_rows):
            if row[header.index("z")] in ("0", "1"):
                assert row == recorded_row
        assert worker.check_reports({"correlator.csv": text.encode()}, {"correlator.csv": recorded})[0] == []
