"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line (run with ``pytest -s`` to see them all).
Criteria 5 and 10 encode fixed tolerances that the exact numerics miss
narrowly at single grid points; those tests state the measured values in
their failure messages and stay red rather than being loosened (see their
docstrings for the verified analysis).
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

import qchangepoint.cli as cli
from qchangepoint.collective import asymptotic_pmax, collective_summary
from qchangepoint.gram import (
    build_gram,
    diag_deviation_asymptotic,
    jacobi_eigensolve,
    solve_spectrum,
    sqrt_gram,
    sqrt_trace_limit,
)
from qchangepoint.online import basic_local_closed_form, exact_greedy_enumeration, monte_carlo
from qchangepoint.special import elliptic_k

C2_GRID = [round(0.05 * i, 2) for i in range(1, 20)]  # 0.05 .. 0.95
N_GRID = list(range(5, 61))
MC_SEED = 20240817


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number:02d} {name}: {status}{suffix}", flush=True)


@pytest.fixture(scope="module")
def grid_table():
    """Collective figures over n = 5..60 and the 0.05-step c^2 grid."""
    table = {}
    for n in N_GRID:
        for c2 in C2_GRID:
            table[(n, c2)] = collective_summary(n, math.sqrt(c2))
    return table


@pytest.fixture(scope="module")
def greedy_n50():
    """Greedy Monte Carlo estimates at n = 50 over the c^2 grid, 1e5 trials."""
    return {c2: monte_carlo("greedy", 50, math.sqrt(c2), 10**5, MC_SEED) for c2 in C2_GRID}


def test_criterion_01_asymptote_endpoints_and_monotonicity():
    """Asymptotic optimum is 1 for orthogonal states, 0 for identical ones,
    and strictly decreasing in the overlap."""
    values = [asymptotic_pmax(c) for c in np.linspace(0.0, 1.0, 100)]
    end_ok = abs(values[0] - 1.0) <= 1e-12 and abs(values[-1]) <= 1e-12
    mono_ok = all(a > b for a, b in zip(values[:-1], values[1:]))
    _report(1, "asymptote endpoints/monotone", end_ok and mono_ok)
    assert end_ok, f"endpoint values {values[0]}, {values[-1]}"
    assert mono_ok, "asymptotic_pmax is not strictly decreasing on the grid"


def test_criterion_02_elliptic_identity():
    """(2 sqrt(1-c^2)/pi) K(c^2) equals the angular-average quadrature to 1e-8
    for c = 0.1 .. 0.9, in under a second."""
    start = time.perf_counter()
    worst = 0.0
    for c in np.arange(0.1, 0.95, 0.1):
        lhs = 2.0 * math.sqrt(1 - c * c) / math.pi * elliptic_k(c * c)
        integral, _ = quad(
            lambda t: math.sqrt((1 - c * c) / (1 - 2 * c * math.cos(t) + c * c)),
            0.0,
            math.pi,
            epsabs=1e-12,
        )
        worst = max(worst, abs(lhs - integral / math.pi))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 1.0
    _report(2, "elliptic identity", ok, f"worst {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-8
    assert elapsed < 1.0


def test_criterion_03_spectral_oracle_equivalence():
    """Chebyshev-root eigenvalues match the Jacobi oracle to 1e-10 and the
    synthesized square root squares back to the Gram matrix to 1e-8."""
    start = time.perf_counter()
    worst_eig = 0.0
    worst_sq = 0.0
    for n in (2, 10, 50, 200):
        for c2 in (0.1, 0.5, 0.8):
            c = math.sqrt(c2)
            spectrum = solve_spectrum(n, c)
            gram = build_gram(n, c)
            oracle_values, _ = jacobi_eigensolve(gram)
            worst_eig = max(
                worst_eig,
                float(np.abs(np.sort(spectrum.lambdas) - oracle_values).max()),
            )
            root = sqrt_gram(spectrum)
            worst_sq = max(worst_sq, float(np.abs(root @ root - gram).max()))
    elapsed = time.perf_counter() - start
    ok = worst_eig < 1e-10 and worst_sq < 1e-8 and elapsed < 30.0
    _report(3, "spectral oracle equivalence", ok,
            f"eig {worst_eig:.2e}, sqrt {worst_sq:.2e}, {elapsed:.1f}s")
    assert worst_eig < 1e-10
    assert worst_sq < 1e-8
    assert elapsed < 30.0


def test_criterion_04_bound_sandwich(grid_table):
    """lower bound <= SRM <= fixed-point optimum <= upper bound at every
    grid point of n = 5..60 and c^2 = 0.05..0.95."""
    violations = []
    for (n, c2), s in grid_table.items():
        if not (
            s.lower_bound <= s.srm + 1e-12
            and s.srm <= s.fixed_point_opt + 1e-12
            and s.fixed_point_opt <= s.upper_bound + 1e-12
        ):
            violations.append((n, c2, s))
    ok = not violations
    _report(4, "bound sandwich", ok, f"{len(grid_table)} grid points")
    assert ok, f"sandwich violations at {[(n, c2) for n, c2, _ in violations]}"


def test_criterion_05_srm_near_optimality(grid_table):
    """Fixed-point optimum exceeds the SRM value by less than 1e-3 for every
    n >= 10 on the c^2 grid.

    Known red: at the single corner point (n=10, c^2=0.95) the true optimum
    (confirmed by an independent SDP to 7e-13) sits 1.0250e-3 above the SRM
    value, 2.5% over the 1e-3 target.  Every other of the 950 grid points
    passes with margin; the target is kept unweakened.
    """
    start = time.perf_counter()
    for c2 in C2_GRID:
        collective_summary(50, math.sqrt(c2))
    elapsed_n50 = time.perf_counter() - start

    gaps = {
        (n, c2): s.fixed_point_opt - s.srm
        for (n, c2), s in grid_table.items()
        if n >= 10
    }
    worst_point = max(gaps, key=gaps.get)
    worst = gaps[worst_point]
    ok = worst < 1e-3 and elapsed_n50 < 300.0
    _report(5, "SRM near-optimality", ok,
            f"worst gap {worst:.4e} at {worst_point}, n=50 row {elapsed_n50:.1f}s")
    assert elapsed_n50 < 300.0
    assert worst < 1e-3, (
        f"optimum - SRM = {worst:.6e} >= 1e-3 at (n, c2) = {worst_point}; "
        f"value confirmed against an independent SDP solver"
    )


def test_criterion_06_one_over_n_convergence():
    """n * |SRM(n) - asymptote| stays bounded along n = 20, 40, 80, 160,
    consistent with a 1/n leading correction."""
    c = math.sqrt(0.5)
    limit = asymptotic_pmax(c)
    scaled = []
    for n in (20, 40, 80, 160):
        root = sqrt_gram(solve_spectrum(n, c))
        srm = float((np.diag(root) ** 2).sum()) / n
        scaled.append(n * abs(srm - limit))
    ratios = [b / a for a, b in zip(scaled[:-1], scaled[1:])]
    ok = all(0.5 <= r <= 2.0 for r in ratios)
    _report(6, "1/n convergence", ok, "ratios " + ", ".join(f"{r:.3f}" for r in ratios))
    assert ok, f"scaled corrections {scaled}, ratios {ratios}"


def test_criterion_07_basic_local_exactness():
    """Basic-local Monte Carlo at 1e6 trials lands within 3 standard errors
    of the closed form 1 - c^2 + c^2/n, in under a minute."""
    start = time.perf_counter()
    results = []
    for n, c2 in ((50, 0.5), (50, 0.2), (10, 0.8)):
        c = math.sqrt(c2)
        estimate, stderr = monte_carlo("basic", n, c, 10**6, MC_SEED)
        results.append((n, c2, abs(estimate - basic_local_closed_form(n, c)), stderr))
    elapsed = time.perf_counter() - start
    ok = all(dev <= 3 * se for _, _, dev, se in results) and elapsed < 60.0
    detail = "; ".join(f"n={n} c2={c2}: {dev / se:.2f} sigma" for n, c2, dev, se in results)
    _report(7, "basic local exactness", ok, f"{detail}, {elapsed:.1f}s")
    for n, c2, dev, se in results:
        assert dev <= 3 * se, f"(n={n}, c2={c2}) off by {dev / se:.2f} sigma"
    assert elapsed < 60.0


def test_criterion_08_greedy_oracle_equivalence():
    """Greedy Monte Carlo at 1e5 trials matches the exact outcome-tree
    enumeration within 3 standard errors for n = 2..8."""
    start = time.perf_counter()
    failures = []
    worst_sigma = 0.0
    for n in range(2, 9):
        for c2 in (0.2, 0.5, 0.8):
            c = math.sqrt(c2)
            exact = exact_greedy_enumeration(n, c)
            estimate, stderr = monte_carlo("greedy", n, c, 10**5, MC_SEED)
            sigmas = abs(estimate - exact) / max(stderr, 1e-15)
            worst_sigma = max(worst_sigma, sigmas)
            if sigmas > 3.0:
                failures.append((n, c2, sigmas))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 300.0
    _report(8, "greedy oracle equivalence", ok,
            f"worst {worst_sigma:.2f} sigma, {elapsed:.1f}s")
    assert not failures, f"beyond 3 sigma at {failures}"
    assert elapsed < 300.0


def test_criterion_09_strategy_ordering_at_n50(grid_table, greedy_n50):
    """At n = 50 the basic local value never beats greedy, greedy never beats
    the collective optimum (3 sigma slack on Monte Carlo quantities), and the
    collective-over-greedy gap clears 3 sigma somewhere in mid-range c^2."""
    ordering_failures = []
    mid_gap = []
    for c2 in C2_GRID:
        estimate, stderr = greedy_n50[c2]
        basic = basic_local_closed_form(50, math.sqrt(c2))
        opt = grid_table[(50, c2)].fixed_point_opt
        if basic > estimate + 3 * stderr:
            ordering_failures.append(("basic>greedy", c2))
        if estimate > opt + 3 * stderr:
            ordering_failures.append(("greedy>opt", c2))
        if 0.3 <= c2 <= 0.7:
            mid_gap.append((c2, opt - estimate, stderr))
    gap_ok = any(gap > 3 * se for _, gap, se in mid_gap)
    ok = not ordering_failures and gap_ok
    best = max(mid_gap, key=lambda item: item[1] / item[2])
    _report(9, "strategy ordering at n=50", ok,
            f"max mid-range gap {best[1]:.4f} ({best[1] / best[2]:.1f} sigma) at c2={best[0]}")
    assert not ordering_failures, f"ordering violated: {ordering_failures}"
    assert gap_ok, f"no mid-range c2 with collective-greedy gap above 3 sigma: {mid_gap}"


def test_criterion_10_sqrt_diagonal_deviation():
    """At n = 30 the numeric deviation of the sqrt-Gram diagonal from its
    limit follows the closed-form decay within 15% for k = 3..10 at
    c^2 = 0.2 and 0.5, and decays monotonically.

    Known red: the closed-form large-k asymptote is itself 15-22% away from
    the true deviation at c^2 = 0.5 for k = 3..5 (verified against three
    independent evaluations of sqrt(G): Chebyshev-root synthesis, a Jacobi
    eigensolver, and scipy.linalg.sqrtm, and against the oscillatory-integral
    intermediate form, which matches the numeric values to 5 digits).  The
    15% target holds at c^2 = 0.2 and at c^2 = 0.25; it cannot hold at
    c^2 = 0.5 for small k.  Kept unweakened.
    """
    failures = []
    monotone_ok = True
    for c2 in (0.2, 0.5):
        c = math.sqrt(c2)
        root = sqrt_gram(solve_spectrum(30, c))
        gamma = sqrt_trace_limit(c)
        deviations = [float(root[k - 1, k - 1]) - gamma for k in range(1, 16)]
        monotone_ok &= all(a > b for a, b in zip(deviations[:-1], deviations[1:]))
        for k in range(3, 11):
            numeric = deviations[k - 1]
            closed = diag_deviation_asymptotic(k, c)
            rel = abs(numeric - closed) / abs(numeric)
            if rel > 0.15:
                failures.append((c2, k, rel))
    ok = not failures and monotone_ok
    detail = "; ".join(f"c2={c2} k={k}: {rel:.1%}" for c2, k, rel in failures) or "all within 15%"
    _report(10, "sqrt-diagonal deviation", ok, detail)
    assert monotone_ok, "diagonal deviations are not monotone in k"
    assert not failures, (
        f"relative error beyond 15%: {detail}; the numeric values are "
        f"cross-checked against scipy.linalg.sqrtm and the intermediate "
        f"integral form, so the residual is in the closed-form asymptote"
    )


def test_criterion_11_montecarlo_determinism(tmp_path):
    """Re-running the montecarlo subcommand with the same seed produces
    byte-identical outputs for any thread count, audit records included."""
    argv = ["montecarlo", "--strategy", "greedy", "--n", "8,12", "--c2",
            "0.3,0.6", "--trials", "3000", "--seed", "99"]
    out_a, rec_a = tmp_path / "a.csv", tmp_path / "a.jsonl"
    out_b, rec_b = tmp_path / "b.csv", tmp_path / "b.jsonl"
    rc_a = cli.main(argv + ["--threads", "1", "--out", str(out_a), "--records", str(rec_a)])
    rc_b = cli.main(argv + ["--threads", "4", "--out", str(out_b), "--records", str(rec_b)])
    rows_same = out_a.read_bytes() == out_b.read_bytes()
    recs_same = rec_a.read_bytes() == rec_b.read_bytes()
    ok = rc_a == rc_b == 0 and rows_same and recs_same
    _report(11, "montecarlo determinism", ok)
    assert rc_a == 0 and rc_b == 0
    assert rows_same, "estimate rows differ between thread counts"
    assert recs_same, "audit records differ between thread counts"
