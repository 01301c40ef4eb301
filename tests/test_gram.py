"""Tests for the Gram matrix spectral module."""

import math

import numpy as np
import pytest
from oracles import angle_below, bisected_angles, boundary_polynomial, integral_i_r
from scipy.integrate import quad
from scipy.linalg import toeplitz
from scipy.linalg.lapack import dgejsv

from qchangepoint import gram
from qchangepoint.gram import (
    DegenerateEnsembleError,
    build_gram,
    diag_deviation_asymptotic,
    jacobi_eigensolve,
    solve_spectrum,
    sqrt_gram,
    sqrt_trace_limit,
)
from qchangepoint.online import basic_local_closed_form
from qchangepoint.special import phase_amplitude

C_GRID = [0.1, 0.3, 0.5, 0.7, 0.9]


class TestBuildGram:
    def test_small_examples(self):
        for c in (0.0, 0.4, 0.9):
            np.testing.assert_allclose(build_gram(2, c), [[1, c], [c, 1]], atol=1e-15)
        np.testing.assert_allclose(
            build_gram(3, 0.5),
            [[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]],
            atol=1e-15,
        )

    def test_c_zero_identity(self):
        np.testing.assert_array_equal(build_gram(5, 0.0), np.eye(5))

    def test_degenerate_overlap(self):
        with pytest.raises(DegenerateEnsembleError):
            build_gram(3, 1.0)
        with pytest.raises(ValueError):
            build_gram(0, 0.5)

    @pytest.mark.parametrize("func", [build_gram, solve_spectrum, basic_local_closed_form])
    def test_non_integer_n_rejected(self, func):
        # one rule for n: an integer (bool and numpy integers included) >= 1
        for n in (2.5, 3.0, np.float64(2.0), "3"):
            with pytest.raises(TypeError, match="n must be an integer"):
                func(n, 0.5)
        for n in (True, np.int64(3), np.uint8(2)):
            func(n, 0.5)

    @pytest.mark.parametrize("c2", [0.0, 0.5, 0.99, 0.9999999999999999])
    @pytest.mark.parametrize("n", [1, 2, 7, 450, 2000])
    def test_bit_identical_to_scipy_toeplitz(self, n, c2):
        # the construction the package used before it stopped importing scipy
        c = math.sqrt(c2)
        gram = build_gram(n, c)
        assert gram.flags.c_contiguous
        assert np.array_equal(gram, toeplitz(c ** np.arange(n, dtype=float)))


class TestSolveSpectrum:
    @pytest.mark.parametrize("c", C_GRID)
    def test_two_state_eigenvalues(self, c):
        spectrum = solve_spectrum(2, c)
        np.testing.assert_allclose(sorted(spectrum.lambdas), [1 - c, 1 + c], atol=1e-12)
        # roots satisfy cos(theta) = (c +- 1) / 2
        np.testing.assert_allclose(
            sorted(np.cos(spectrum.thetas)), [(c - 1) / 2, (c + 1) / 2], atol=1e-12
        )

    @pytest.mark.parametrize("c", C_GRID)
    def test_single_state(self, c):
        spectrum = solve_spectrum(1, c)
        assert spectrum.lambdas[0] == pytest.approx(1.0, abs=1e-12)
        assert math.cos(spectrum.thetas[0]) == pytest.approx(c, abs=1e-12)

    @pytest.mark.parametrize("c", C_GRID)
    @pytest.mark.parametrize("n", [2, 6, 31, 100])
    def test_angles_sorted_in_subintervals(self, n, c):
        # each theta_l sits in ((l-1) pi / n, l pi / n); the phase offset
        # delta in (0, pi) makes this the consistent indexing
        spectrum = solve_spectrum(n, c)
        assert np.all(np.diff(spectrum.thetas) > 0)
        for l, theta in enumerate(spectrum.thetas, start=1):
            assert (l - 1) * math.pi / n < theta < l * math.pi / n

    @pytest.mark.parametrize("c", [0.0] + C_GRID)
    @pytest.mark.parametrize("n", [1, 2, 9, 60])
    def test_orthonormal_eigenvectors_and_trace(self, n, c):
        spectrum = solve_spectrum(n, c)
        gram_check = spectrum.eigvecs.T @ spectrum.eigvecs
        assert np.abs(gram_check - np.eye(n)).max() < 1e-10
        assert spectrum.lambdas.sum() == pytest.approx(n, abs=1e-9)

    @pytest.mark.parametrize("c", C_GRID)
    @pytest.mark.parametrize("n", [3, 12, 47])
    def test_eigenvector_norm_closed_form(self, n, c):
        # the explicit sum over components must match the closed-form norm
        # of the unnormalized eigenvectors
        spectrum = solve_spectrum(n, c)
        j = np.arange(1, n + 1)
        for theta in spectrum.thetas:
            w = (np.sin(j * theta) - c * np.sin((j - 1) * theta)) / math.sin(theta)
            explicit = (w**2).sum()
            f_n = (1 - c * c) / 2 * (1 - math.cos(2 * n * theta)) - (
                math.sin(2 * n * theta) / (2 * math.sin(theta))
            ) * ((1 + c * c) * math.cos(theta) - 2 * c)
            closed = (n / (2 * math.sin(theta) ** 2)) * (
                1 - 2 * c * math.cos(theta) + c * c + f_n / n
            )
            assert explicit == pytest.approx(closed, rel=1e-9)

    @pytest.mark.parametrize("c2", [0.0, 0.05, 0.5, 0.99, 0.999999, 0.9999999999999999])
    @pytest.mark.parametrize("n", [1, 2, 3, 50, 451, 2000])
    def test_closed_form_norms(self, n, c2):
        # n/2 + sin(2 psi - theta) / (2 sin(theta)) against the summed squares
        # of the raw sine columns
        spectrum = solve_spectrum(n, math.sqrt(c2))
        raw = np.sin(np.outer(np.arange(1, n + 1), spectrum.thetas) + spectrum.phases)
        np.testing.assert_allclose(spectrum.norms, np.linalg.norm(raw, axis=0), rtol=2e-13, atol=0.0)

    @pytest.mark.parametrize("c2", [0.0, 0.5, 0.9999999999999999])
    @pytest.mark.parametrize("n", [1, 15, 451])
    def test_eigenvector_rows_are_eigvecs_rows(self, n, c2):
        spectrum = solve_spectrum(n, math.sqrt(c2))
        for count in sorted({1, min(n, 15), n}):
            assert np.array_equal(spectrum.eigenvector_rows(count), spectrum.eigvecs[:count])

    def test_c_zero_identity_spectrum(self):
        spectrum = solve_spectrum(6, 0.0)
        np.testing.assert_allclose(spectrum.lambdas, np.ones(6), atol=1e-14)
        np.testing.assert_allclose(spectrum.thetas, np.arange(1, 7) * math.pi / 7, atol=1e-14)

    @pytest.mark.parametrize("c2", [1e-12, 0.5, 0.99, 0.999999])
    @pytest.mark.parametrize("n", [1, 2, 7, 1000])
    def test_bracket_invariant(self, n, c2):
        # theta_l is the root of (n+1) theta + 2 atan2(c sin, 1 - c cos) = l pi
        # inside its analytic bracket ((l-1) pi/(n+1), l pi/(n+1)].  The phase
        # is evaluated at 40 digits: in float64, 1 - c cos(theta) cancels as
        # c -> 1 exactly as a cancelling solver would, and hides its error
        c = math.sqrt(c2)
        thetas = solve_spectrum(n, c).thetas
        l = np.arange(1, n + 1)
        assert np.all((l - 1) * math.pi / (n + 1) < thetas)
        assert np.all(thetas <= l * math.pi / (n + 1))
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            c_mp = mp.mpf(c)
            worst = max(
                abs(((n + 1) * t + 2 * mp.atan2(c_mp * mp.sin(t), 1 - c_mp * mp.cos(t)))
                    / (k * mp.pi) - 1)
                for k, t in zip(l.tolist(), map(mp.mpf, thetas.tolist()))
            )
        assert worst <= 1e-14

    @pytest.mark.parametrize("c2", [0.0, 1e-12, 0.05, 0.36, 0.5, 0.9, 0.99, 0.999999,
                                    math.nextafter(1.0, 0.0)])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 50, 451, 1000, 2000])
    def test_angles_match_the_bisection(self, n, c2):
        # Newton only narrows the brackets: every angle keeps the bisection's
        # float invariant, the float below it lies below the root and the
        # angle does not, and lies within 2 ulps of the bracket-only
        # bisection (the float predicate is not monotone within an ulp or
        # two of some roots).  The analytic upper end l pi/(n+1) counts as
        # not below, as in the bisection: at c = 0 it is the root, and its
        # rounding reads below for some l (1 of 11 at n = 11, 407 of 2000)
        c = math.sqrt(c2)
        thetas = solve_spectrum(n, c).thetas
        upper = np.arange(1, n + 1) * math.pi / (n + 1)
        assert angle_below(n, c, np.nextafter(thetas, 0.0)).all()
        assert (~angle_below(n, c, thetas) | (thetas == upper)).all()
        if c2 > 0.0:
            assert not angle_below(n, c, thetas).any()
        oracle = bisected_angles(n, c)
        assert (np.abs(thetas - oracle) <= 2.0 * np.spacing(oracle)).all()

    @pytest.mark.parametrize("c2", [0.999999, 0.9999999999999999])
    @pytest.mark.parametrize("n", [2, 10, 50])
    def test_eigenvalues_near_unit_overlap(self, n, c2):
        # near c = 1 the denominator 1-2c cos(theta)+c^2 cancels in float64
        # unless written as (1-c)^2 + 4c sin^2(theta/2); the cancelling form
        # is 1.8e-9 off at n=50.  The angles must be bisected on the
        # complementary-angle form of the phase equation: on
        # (n+1) theta + 2 phi = pi the smallest angle (about 1e-8 at c one
        # ulp below 1) loses 2e-8 of relative precision, 2e-13 at 0.999999
        mp = pytest.importorskip("mpmath")
        c = math.sqrt(c2)
        with mp.workdps(40):
            c_mp = mp.mpf(c)
            gram = mp.matrix([[c_mp ** abs(i - j) for j in range(n)] for i in range(n)])
            oracle = sorted(mp.eigsy(gram, eigvals_only=True), reverse=True)
            lambdas = solve_spectrum(n, c).lambdas
            worst = max(abs(mp.mpf(lam) / exact - 1)
                        for lam, exact in zip(lambdas.tolist(), oracle))
        assert worst <= 4e-15

    @pytest.mark.parametrize("c2", [1e-6, 0.5, 0.99])
    @pytest.mark.parametrize("n", [1, 2, 7, 40, 200])
    def test_angles_are_boundary_polynomial_roots(self, n, c2):
        # the recurrence-evaluated polynomial is independent of the phase
        # equation the angles are bisected on.  Near a root it equals
        # A(theta) sin(n theta + delta), so |P|/A is the phase distance from
        # the root.  Measured worst over this grid: 3.5 n^2 eps (n=2,
        # c2=0.99); an angle off by 1e-10 at n=200 gives about 2300 n^2 eps.
        c = math.sqrt(c2)
        tol = 16 * n * n * np.finfo(float).eps
        for theta in solve_spectrum(n, c).thetas:
            amplitude, _ = phase_amplitude(theta, c)
            assert abs(boundary_polynomial(n, c, math.cos(theta))) <= tol * amplitude

    @pytest.mark.parametrize("c2", [0.5, 0.99])
    def test_eigenpair_residual_at_n1000(self, c2):
        c = math.sqrt(c2)
        spectrum = solve_spectrum(1000, c)
        residual = build_gram(1000, c) @ spectrum.eigvecs - spectrum.eigvecs * spectrum.lambdas
        assert np.abs(residual).max() <= 1e-13 * spectrum.lambdas.max()

    @pytest.mark.parametrize("c", C_GRID)
    @pytest.mark.parametrize("n", [1, 2, 9, 60])
    def test_reconstructs_gram(self, n, c):
        spectrum = solve_spectrum(n, c)
        resynth = spectrum.eigvecs @ (spectrum.lambdas[:, None] * spectrum.eigvecs.T)
        assert np.abs(resynth - build_gram(n, c)).max() < 1e-8

    @pytest.mark.parametrize("c", C_GRID)
    def test_eigenvalue_range(self, c):
        for n in (2, 17, 121):
            spectrum = solve_spectrum(n, c)
            assert spectrum.lambdas.max() <= (1 + c) / (1 - c) + 1e-12
            assert spectrum.lambdas.min() >= (1 - c) / (1 + c) - 1e-12


class TestSqrtGram:
    @pytest.mark.parametrize("c", C_GRID)
    def test_two_state_closed_form(self, c):
        root = sqrt_gram(solve_spectrum(2, c))
        expected = (math.sqrt(1 + c) + math.sqrt(1 - c)) / 2
        np.testing.assert_allclose(np.diag(root), [expected, expected], atol=1e-12)
        assert np.trace(root) == pytest.approx(math.sqrt(1 + c) + math.sqrt(1 - c), abs=1e-12)

    def test_c_zero(self):
        root = sqrt_gram(solve_spectrum(4, 0.0))
        np.testing.assert_allclose(root, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("c", C_GRID)
    @pytest.mark.parametrize("n", [2, 10, 55, 200])
    def test_square_reproduces_gram(self, n, c):
        root = sqrt_gram(solve_spectrum(n, c))
        assert np.abs(root @ root - build_gram(n, c)).max() < 1e-8

    @pytest.mark.parametrize("c2", [0.25, 0.5, 0.99])
    @pytest.mark.parametrize("n", [2, 3, 50])
    def test_sqrt_diagonal_persymmetric(self, n, c2):
        # G commutes with the reversal J, so diag(sqrt G)_k = diag(sqrt G)_{n+1-k}
        diag = np.diag(sqrt_gram(solve_spectrum(n, math.sqrt(c2))))
        assert np.abs(diag - diag[::-1]).max() <= 2e-14

    @pytest.mark.parametrize("c", [0.2, 0.6, 0.9])
    @pytest.mark.parametrize("n", [2, 5, 25, 120])
    def test_against_jacobi_oracle(self, n, c):
        root = sqrt_gram(solve_spectrum(n, c))
        values, vectors = jacobi_eigensolve(build_gram(n, c))
        oracle = vectors @ (np.sqrt(values)[:, None] * vectors.T)
        assert np.abs(root - oracle).max() < 1e-8


def gram_schmidt_factor(n, c):
    """Upper-triangular R with R^T R = build_gram(n, c): row 1 of G, then
    sqrt(1-c^2) times the upper part of each later row."""
    factor = np.triu(build_gram(n, c))
    factor[1:] *= math.sqrt((1 - c) * (1 + c))
    return factor


def jacobi_svd_root_diagonal(weights, c):
    """Oracle for diag((D G D)^{1/2}): the SVD of R D by LAPACK's preconditioned
    one-sided Jacobi (dgejsv), which keeps the relative precision of every
    singular value and right singular vector of a column-scaled matrix."""
    sva, _, v, work, _, info = dgejsv(gram_schmidt_factor(weights.size, c) * np.sqrt(weights),
                                      jobu=3, jobv=0)
    assert info == 0
    return (v**2) @ (sva * (work[0] / work[1]))


class TestChainRootDiagonal:
    @pytest.mark.parametrize("c2", [0.0, 0.5, 0.99, 0.9999, 0.999999, 0.9999999999999999])
    @pytest.mark.parametrize("n", [2, 3, 10, 450])
    def test_uniform_weights_match_closed_form_spectrum(self, n, c2):
        # diag sqrt(G/n) = (eigvecs^2) sqrt(lambda/n), every term positive
        c = math.sqrt(c2)
        spectrum = solve_spectrum(n, c)
        closed_form = (spectrum.eigvecs**2) @ np.sqrt(spectrum.lambdas / n)
        diagonal = gram._chain_root_diagonal(np.full(n, 1.0 / n), c)
        assert np.abs(diagonal / closed_form - 1.0).max() <= 1e-13

    @pytest.mark.parametrize("c2", [0.1, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("n", [2, 5, 17, 60, 200])
    def test_dirichlet_weights_match_oracles(self, n, c2):
        # eigh is accurate relative to its largest eigenvalue, not entry by
        # entry: at (n=60, c^2=0.99) its small entries were off by 2.4e-12
        # relative, where the kernel and a 50-digit mpmath diagonal agreed to
        # 4e-16; so eigh is held to sqrt(lambda_max), the Jacobi SVD entry by entry
        c = math.sqrt(c2)
        weights = np.random.default_rng([n, int(100 * c2)]).dirichlet(np.ones(n))
        diagonal = gram._chain_root_diagonal(weights, c)
        root_w = np.sqrt(weights)
        values, vectors = np.linalg.eigh(root_w[:, None] * build_gram(n, c) * root_w)
        by_eigh = (vectors**2) @ np.sqrt(values)
        assert np.abs(diagonal - by_eigh).max() <= 1e-12 * math.sqrt(values.max())
        assert np.abs(diagonal / jacobi_svd_root_diagonal(weights, c) - 1.0).max() <= 1e-12
        # every third weight zero: the kernel runs on the support alone
        weights[::3] = 0.0
        diagonal = gram._chain_root_diagonal(weights, c)
        support = weights > 0.0
        oracle = jacobi_svd_root_diagonal(weights, c)
        assert np.abs(diagonal[support] / oracle[support] - 1.0).max() <= 1e-12
        assert (diagonal[~support] == 0.0).all()

    def test_single_state_and_orthogonal_states(self):
        weights = np.array([0.1, 0.2, 0.3, 0.4])
        np.testing.assert_array_equal(gram._chain_root_diagonal(weights, 0.0), np.sqrt(weights))
        single = gram._chain_root_diagonal(np.array([0.7]), 0.9)
        np.testing.assert_array_equal(single, [math.sqrt(0.7)])

    @pytest.mark.parametrize("ratio", [1.0, 4.0, 1e3, 1.6e5, 1e10, 1e20, 1e33, 1e66])
    @pytest.mark.parametrize("low", [1e-17, 0.37, 3.0])
    def test_sqrt_rule(self, low, ratio):
        # sum_j a_j / (mu + s_j) = mu^{-1/2} on [low, high]: to 1e-15 at both
        # ends, and to 1e-13 inside, where the nodes' own rounding
        # (~1e-14 near u = K/2 at the widest ranges) enters at first order
        high = low * ratio
        nodes, weights = gram._sqrt_rule(low, high)
        assert (nodes > 0).all() and (weights > 0).all()
        for mu in (low, high):
            assert abs(math.fsum(weights / (mu + nodes)) * math.sqrt(mu) - 1.0) <= 1e-15
        for mu in np.geomspace(low, high, 41):
            assert abs(math.fsum(weights / (mu + nodes)) * math.sqrt(mu) - 1.0) <= 1e-13

    def test_sqrt_rule_node_count(self):
        # N follows from the error bound exp(-2 pi^2 N / (ln(high/low) + 2.8)) <= 2^-53
        for ratio, count in ((1.0, 6), (1.6e5, 28), (1e33, 147)):
            nodes, _ = gram._sqrt_rule(1.0, ratio)
            assert nodes.size == count


class TestJacobiEigensolve:
    @pytest.mark.parametrize("c", C_GRID)
    def test_two_by_two(self, c):
        values, vectors = jacobi_eigensolve(np.array([[1.0, c], [c, 1.0]]))
        np.testing.assert_allclose(values, [1 - c, 1 + c], atol=1e-13)
        assert np.abs(vectors @ vectors.T - np.eye(2)).max() < 1e-12

    def test_identity(self):
        values, _ = jacobi_eigensolve(np.eye(7))
        np.testing.assert_allclose(values, np.ones(7), atol=1e-15)

    @pytest.mark.parametrize("matrix, message", [
        ([[1.0, 0.5], [0.2, 1.0]], "not symmetric"),
        ([[1.0, math.nan], [math.nan, 1.0]], "finite"),
        ([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0]], "square"),
        # the float cast used to drop the imaginary parts of this Hermitian matrix
        ([[1.0, 0.5j], [-0.5j, 1.0]], "matrix must be real"),
    ], ids=["asymmetric", "nan", "non-square", "complex"])
    def test_rejects_bad_matrix(self, matrix, message):
        with pytest.raises(ValueError, match=message):
            jacobi_eigensolve(np.array(matrix))

    def test_runs_out_of_sweeps(self, monkeypatch):
        # one sweep leaves off-diagonal mass at c = 0.9; the failure is a
        # plain RuntimeError, not a package type
        monkeypatch.setattr(gram, "_JACOBI_MAX_SWEEPS", 1)
        with pytest.raises(RuntimeError, match="within 1 sweeps") as failure:
            jacobi_eigensolve(build_gram(6, 0.9))
        assert type(failure.value) is RuntimeError

    @pytest.mark.parametrize("c", C_GRID)
    @pytest.mark.parametrize("n", [2, 3, 7, 25, 90])
    def test_matches_closed_form_eigenvalues(self, n, c):
        values, vectors = jacobi_eigensolve(build_gram(n, c))
        closed = np.sort(solve_spectrum(n, c).lambdas)
        assert np.abs(values - closed).max() < 1e-10
        # eigenpairs actually diagonalize the input
        resynth = vectors @ (values[:, None] * vectors.T)
        assert np.abs(resynth - build_gram(n, c)).max() < 1e-10

    def test_random_symmetric_against_numpy(self):
        rng = np.random.default_rng(7)
        for n in (3, 8, 20):
            a = rng.standard_normal((n, n))
            a = a + a.T
            values, _ = jacobi_eigensolve(a)
            np.testing.assert_allclose(values, np.linalg.eigvalsh(a), atol=1e-9)


class TestTraceLimitAndDeviation:
    @pytest.mark.parametrize("c", [0.2, 0.5, 0.8, 0.9])
    @pytest.mark.parametrize("n", [20, 50, 100, 200])
    def test_trace_convergence_bound(self, n, c):
        spectrum = solve_spectrum(n, c)
        root = sqrt_gram(spectrum)
        lam_max = spectrum.lambdas.max()
        bound = 2 * math.sqrt(lam_max) * (n**-0.9 + 1.0 / n)
        assert abs(np.trace(root) / n - sqrt_trace_limit(c)) <= bound

    @pytest.mark.parametrize("c", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("n", [20, 50, 100, 200])
    def test_diag_distribution_near_uniform(self, n, c):
        # l1 distance of diag(sqrt G)/tr(sqrt G) from uniform decays like
        # n^{-0.9} with the spectral-conditioning prefactor
        root = sqrt_gram(solve_spectrum(n, c))
        q = np.diag(root) / np.trace(root)
        assert np.abs(q - 1.0 / n).sum() <= 4 * (1 + c) / (1 - c) * n**-0.9

    def test_deviation_formula_value(self):
        # c = 0.5, k = 5: 0.25^5 / (4 * 0.75 * sqrt(2 pi 125))
        assert diag_deviation_asymptotic(5, 0.5) == pytest.approx(
            0.25**5 / (4 * 0.75 * math.sqrt(2 * math.pi * 125)), rel=1e-14
        )
        assert diag_deviation_asymptotic(5, 0.5) == pytest.approx(1.1615391381202937e-05, rel=1e-12)

    def test_deviation_cross_check_against_numeric(self):
        # numeric diagonal deviation of sqrt(G) at n = 30 for overlap 0.5
        root = sqrt_gram(solve_spectrum(30, 0.5))
        numeric = root[4, 4] - sqrt_trace_limit(0.5)
        assert diag_deviation_asymptotic(5, 0.5) == pytest.approx(numeric, rel=0.1)

    def test_deviation_decreasing_in_k(self):
        values = [diag_deviation_asymptotic(k, 0.6) for k in range(1, 30)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            diag_deviation_asymptotic(0, 0.5)


class TestIntegralIr:
    def test_regression_pin_r1(self):
        oracle, _ = quad(
            lambda t: math.cos(t) * (1 - math.cos(t) + 0.25) ** -1.5,
            0.0,
            math.pi,
            epsabs=1e-13,
            limit=200,
        )
        value = integral_i_r(1, 0.5, "exact")
        assert value == pytest.approx(oracle, abs=1e-9)
        assert value == pytest.approx(4.053439968461062, rel=1e-10)

    @pytest.mark.parametrize("r", [40, 42, 44])
    def test_asymptotic_ratio(self, r):
        # the float64 quadrature resolves the integral down to ~1e-15; for
        # c = 0.5 that limits the 5% ratio check to r <~ 45
        exact = integral_i_r(r, 0.5, "exact")
        asym = integral_i_r(r, 0.5, "asymptotic")
        assert abs(exact / asym - 1.0) < 0.05

    @pytest.mark.parametrize("r", [60, 100])
    def test_asymptotic_ratio_beyond_float_floor(self, r):
        # past the float64 floor the claim still holds against an
        # arbitrary-precision oracle, and the float64 value is simply tiny
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        c = mp.mpf("0.5")

        def integrand(t):
            return mp.cos(r * t) / (1 - 2 * c * mp.cos(t) + c * c) ** mp.mpf("1.5")

        pieces = [mp.quad(integrand, [mp.pi * k / r, mp.pi * (k + 1) / r]) for k in range(r)]
        oracle = float(mp.fsum(pieces))
        asym = integral_i_r(r, 0.5, "asymptotic")
        assert abs(oracle / asym - 1.0) < 0.05
        assert abs(integral_i_r(r, 0.5, "exact")) < 1e-12

    def test_small_overlap_vanishes(self):
        for r in (1, 3, 8):
            assert abs(integral_i_r(r, 1e-6, "exact")) < 1e-5
            assert abs(integral_i_r(r, 1e-6, "asymptotic")) < 1e-5

    def test_deviation_integral_chain(self):
        # sqrt(1-c^2)/pi (2c I_{2k-1} - I_{2k} - c^2 I_{2k-2}) reproduces the
        # numeric diagonal deviation at n = 30 almost exactly
        c = math.sqrt(0.5)
        root = sqrt_gram(solve_spectrum(30, c))
        gamma = sqrt_trace_limit(c)
        for k in (2, 4, 6):
            combo = (
                2 * c * integral_i_r(2 * k - 1, c, "exact")
                - integral_i_r(2 * k, c, "exact")
                - c * c * integral_i_r(2 * k - 2, c, "exact")
            )
            integral_form = math.sqrt(1 - c * c) / math.pi * combo
            numeric = root[k - 1, k - 1] - gamma
            assert integral_form == pytest.approx(numeric, rel=1e-3)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            integral_i_r(3, 0.5, "fancy")
        with pytest.raises(ValueError):
            integral_i_r(0, 0.5)
