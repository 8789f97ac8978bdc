"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``); the
verbose test names double as the per-criterion report lines.
"""

import time

import numpy as np

from latticeqe.cli import main as cli_main
from latticeqe.correspondence import verify_correspondence_family
from latticeqe.lattice import Observable, cube
from latticeqe.observables import (
    block_constant,
    centered_half,
    half_indicator,
    parity,
    single_site,
)
from latticeqe.schrodinger import (
    counterexample_mass_profile,
    counterexample_potential,
    eigensolve_symmetric,
    lattice_block,
    partial_qe_experiment,
)
from latticeqe.spectra import (
    dirichlet_eigenvalues,
    lemma_c1_counts,
    periodic_eigenvalues,
    sine_basis,
)
from latticeqe.time_average import (
    bessel_bound_check,
    centered,
    hs_norm,
    numeric_time_average,
    quantum_variance,
    theta_decompose,
    time_averaged_observable,
)
from latticeqe.correlators import chebyshev_operator, sine_shift_overlaps, spherical

from oracles import infinite_chebyshev


def report(num: int, slug: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num:02d} {slug}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_c01_variance_decay():
    start = time.perf_counter()
    sizes = (32, 64, 128, 256)
    variances = []
    for N in sizes:
        basis = sine_basis(N, 1)
        a = centered_half(cube(N, 1))
        variances.append(quantum_variance(basis, centered(a)))
    elapsed = time.perf_counter() - start
    products = [N * v for N, v in zip(sizes, variances)]
    bounded = max(products) <= 0.30  # calibrated against the N <= 256 scan
    monotone = all(v < variances[0] for v in variances[1:])
    report(
        1,
        "variance-decay",
        bounded and monotone and elapsed < 10.0,
        f"max N*Var={max(products):.4f}, wall={elapsed:.2f}s",
    )


def test_c02_variance_invariance():
    basis = sine_basis(6, 2)
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(20):
        a = Observable.diagonal(basis.box, rng.uniform(-1, 1, basis.box.volume))
        ac = centered(a)
        gap = abs(quantum_variance(basis, ac) - quantum_variance(basis, time_averaged_observable(basis, ac)))
        worst = max(worst, gap)
    report(2, "variance-invariance", worst <= 1e-9, f"max |Var(a)-Var(a_inf)|={worst:.2e}")


def test_c03_hs_bound():
    basis = sine_basis(6, 2)
    rng = np.random.default_rng(101)
    min_slack = np.inf
    for _ in range(20):
        T = Observable.diagonal(basis.box, rng.uniform(-1, 1, basis.box.volume))
        slack = hs_norm(T.to_matrix()) ** 2 / basis.box.volume - quantum_variance(basis, T)
        min_slack = min(min_slack, slack)
    report(3, "hs-bound", min_slack >= 0.0, f"min slack={min_slack:.3e}")


def test_c04_zero_frequency_component():
    rng = np.random.default_rng(102)
    worst = 0.0
    for d in (1, 2):
        for N in range(1, 9):
            a = Observable.diagonal(cube(N, d), rng.uniform(-1, 1, N**d))
            dec = theta_decompose(a)
            expected = (N / (N + 1)) ** d * a.diag().mean() * np.eye(N**d)
            worst = max(worst, float(np.max(np.abs(dec.component_matrix((0,) * d) - expected))))
    report(4, "zero-frequency-component", worst <= 1e-12, f"max entry gap={worst:.2e}")


def test_c05_lemma_c1_exhaustive():
    violations = 0
    checked = 0
    for d in (1, 2):
        for N in range(1, 13):
            counts = lemma_c1_counts(N, d)
            bound = 2 * N ** (d - 1)
            checked += len(counts)
            violations += sum(1 for c in counts.values() if c > bound)
    report(5, "lemma-c1-bound", violations == 0, f"{checked} nonzero cells, {violations} violations")


def test_c06_bessel_bound():
    rng = np.random.default_rng(103)
    worst_ratio = 0.0
    for d in (1, 2):
        for N in range(1, 9):
            box = cube(N, d)
            observables = [half_indicator(box), centered_half(box), single_site(box), parity(box)]
            if N % 2 == 0:
                observables.append(block_constant(box, (2,) * d))
            observables += [
                Observable.diagonal(box, rng.uniform(-1, 1, box.volume)) for _ in range(20)
            ]
            for a in observables:
                lhs, rhs = bessel_bound_check(a)
                if rhs > 0:
                    worst_ratio = max(worst_ratio, lhs / rhs)
    report(6, "bessel-bound", worst_ratio <= 1.0 + 1e-12, f"max lhs/rhs={worst_ratio:.6f}")


def test_c07_correspondence():
    worst_res, worst_gram, worst_incl = 0.0, 0.0, 0.0
    for d in (1, 2):
        for N in range(1, 7):
            basis = sine_basis(N, d)
            res, gram = verify_correspondence_family(basis)
            per = periodic_eigenvalues(2 * N + 2, d)
            incl = float(
                np.max(np.min(np.abs(dirichlet_eigenvalues(N, d)[:, None] - per[None, :]), axis=1))
            )
            worst_res, worst_gram, worst_incl = (
                max(worst_res, res),
                max(worst_gram, gram),
                max(worst_incl, incl),
            )
    ok = worst_res <= 1e-10 and worst_gram <= 1e-10 and worst_incl <= 1e-10
    report(
        7,
        "eigenfunction-correspondence",
        ok,
        f"residual={worst_res:.2e}, gram={worst_gram:.2e}, inclusion={worst_incl:.2e}",
    )


def test_c08_time_average_oracle():
    basis = sine_basis(8, 1)
    rng = np.random.default_rng(0)
    a = Observable.diagonal(basis.box, rng.uniform(-1, 1, 8))
    ainf = time_averaged_observable(basis, a)
    d2 = hs_norm(numeric_time_average(a, basis, 1e2) - ainf)
    d4 = hs_norm(numeric_time_average(a, basis, 1e4) - ainf)
    report(8, "time-average-oracle", d2 >= 5 * d4, f"dist(1e2)={d2:.2e}, dist(1e4)={d4:.2e}")


def test_c09_schrodinger_counterexample():
    start = time.perf_counter()
    profile = counterexample_mass_profile(100.0, 100)
    elapsed = time.perf_counter() - start
    bound = 4.0 / 98.0**2
    counts_ok = profile.low_band_count == 100 and profile.high_band_count == 100
    mass_ok = profile.max_low_even_mass <= bound
    report(
        9,
        "schrodinger-counterexample",
        counts_ok and mass_ok and elapsed < 30.0,
        f"bands {profile.low_band_count}/{profile.high_band_count}, "
        f"max even mass={profile.max_low_even_mass:.3e} <= {bound:.3e}, wall={elapsed:.2f}s",
    )


def test_c10_partial_qe():
    V = counterexample_potential(100.0)
    sizes = (8, 16, 32, 64)
    good, bad = [], []
    for N in sizes:
        box = lattice_block((2,), N)
        good.append(partial_qe_experiment(V, N, block_constant(box, (2,))).variance)
        bad.append(partial_qe_experiment(V, N, parity(box), enforce_lc=False).variance)
    decays = all(b < a for a, b in zip(good, good[1:]))
    stuck = all(v >= 0.2 for v in bad)
    report(
        10,
        "partial-qe",
        decays and stuck,
        f"block-constant Var {good[0]:.4f}->{good[-1]:.4f}, parity min Var={min(bad):.4f}",
    )


def test_c11_correlator_identities():
    worst = 0.0
    for N in range(1, 401):
        j = np.arange(1, N + 1)
        gap = np.max(np.abs(sine_shift_overlaps(N, 1) - np.cos(j * np.pi / (N + 1))))
        worst = max(worst, float(gap))
    offset_ok = worst <= 1e-12

    sizes = (50, 100, 200, 400)
    products = {}
    for N in sizes:
        lam = 2.0 * np.cos(np.arange(1, N + 1) * np.pi / (N + 1))
        for z in range(0, 4):
            sph = np.array([spherical(l, z) for l in lam])
            err = float(np.max(np.abs(sine_shift_overlaps(N, z) - sph)))
            products.setdefault(z, []).append(err * N)
    scan_ok = all(
        p <= max(2 * ps[0], 1e-8) for ps in products.values() for p in ps
    ) and max(p for ps in products.values() for p in ps) <= 4.0
    report(
        11,
        "correlator-identities",
        offset_ok and scan_ok,
        f"offset-1 gap={worst:.2e}, max err*N={max(p for ps in products.values() for p in ps):.3f}",
    )


def test_c12_chebyshev_window():
    N = 32
    exact = True
    for n in range(0, 5):
        box_op = chebyshev_operator(n, N)
        line_op = infinite_chebyshev(n, N)
        interior = slice(n, N - n)
        exact = exact and np.array_equal(box_op[interior, :], line_op[interior, :])
    report(12, "chebyshev-window", exact, "interior rows match the full-line pattern exactly")


def test_c13_eigensolver_quality():
    rng = np.random.default_rng(104)
    H = rng.normal(size=(200, 200))
    H = (H + H.T) / 2
    result = eigensolve_symmetric(H, cube(200, 1))
    hs = float(np.sqrt(np.sum(H**2)))
    ok_random = result.residual <= 1e-10 * hs and result.gram_error <= 1e-10

    free = np.zeros((200, 200))
    ii = np.arange(199)
    free[ii, ii + 1] = free[ii + 1, ii] = 1.0
    numeric = eigensolve_symmetric(free, cube(200, 1)).eigenvalues
    analytic = np.sort(2 * np.cos(np.arange(1, 201) * np.pi / 201))
    gap = float(np.max(np.abs(numeric - analytic)))
    report(
        13,
        "eigensolver-quality",
        ok_random and gap <= 1e-10,
        f"residual={result.residual:.2e}, gram={result.gram_error:.2e}, sine gap={gap:.2e}",
    )


def test_c14_determinism(tmp_path):
    configs = [
        ["var-scan", "--d", "1", "--N", "8,16", "--obs", "centered-half", "--seed", "1"],
        ["degeneracy", "--d", "2", "--N", "3,4"],
        ["lemma-c1", "--d", "2", "--N", "6"],
        ["correspond", "--d", "1", "--N", "3,4"],
        ["schrodinger", "--task", "counterexample", "--M", "50", "--N", "8"],
        ["schrodinger", "--task", "partial-qe", "--M", "50", "--N", "4,8",
         "--obs", "block-constant", "--seed", "2"],
        ["correlator", "--N", "20,40", "--R", "2"],
        ["bessel", "--d", "1", "--N", "4,6", "--obs", "half-indicator", "--random", "2",
         "--seed", "7"],
    ]
    identical = True
    for i, args in enumerate(configs):
        d1, d2 = tmp_path / f"run{i}a", tmp_path / f"run{i}b"
        code1 = cli_main(args + ["--out", str(d1)])
        code2 = cli_main(args + ["--out", str(d2)])
        assert code1 == code2
        name = args[0]
        for suffix in (".csv", ".json"):
            b1 = (d1 / f"{name}{suffix}").read_bytes()
            b2 = (d2 / f"{name}{suffix}").read_bytes()
            identical = identical and b1 == b2
    report(14, "determinism", identical, f"{len(configs)} experiments, CSV+JSON byte-compared")
