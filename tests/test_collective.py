"""Tests for the collective-measurement figures of merit."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

import qchangepoint.collective as collective_module
from qchangepoint.collective import (
    asymptotic_pmax,
    collective_summary,
    embed_states,
    optimal_povm_fixed_point,
    srm_success,
    success_lower_bound,
    success_upper_bound,
    weighted_gram,
)
from qchangepoint.gram import (
    DegenerateEnsembleError,
    build_gram,
    jacobi_eigensolve,
    solve_spectrum,
    sqrt_gram,
)
from oracles import yuen_kennedy_lax_bound
from test_gram import gram_schmidt_factor


def uniform(n):
    return np.full(n, 1.0 / n)


def dense_povm(vectors):
    """The elements E_k = g_k g_k^T, shape (n, d, d), from the columns g_k."""
    return np.einsum("ik,jk->kij", vectors, vectors)


def jacobi_sqrt(matrix):
    values, vectors = jacobi_eigensolve(matrix)
    return vectors @ (np.sqrt(np.clip(values, 0.0, None))[:, None] * vectors.T)


def state_space_fixed_point(states, priors, tol=1e-10, max_iter=10_000):
    """Oracle: the fixed-point iteration on d x d state-space operators.

    Returns (success, povm vectors, iterations, converged).
    """

    def steer(weights):
        vals, vecs = np.linalg.eigh((states * weights) @ states.T)
        cut = 1e-12 * max(vals[-1], 0.0)
        inv_root = np.where(vals > cut, 1.0 / np.sqrt(np.clip(vals, cut, None)), 0.0)
        return (vecs @ (inv_root[:, None] * vecs.T) @ states) * np.sqrt(weights)

    def overlaps(g):
        return np.einsum("ik,ik->k", states, g)

    g = steer(priors)
    value = float((priors * overlaps(g) ** 2).sum())
    best = (value, g)
    for iterations in range(1, max_iter + 1):
        # the Jezek-Rehacek-Fiurasek step: R^2 = sum_k p_k^2 <psi_k|E_k|psi_k> |psi_k><psi_k|
        weights = (priors * overlaps(g)) ** 2
        g = steer(weights / weights.max())
        new_value = float((priors * overlaps(g) ** 2).sum())
        gain, value = new_value - value, new_value
        if value > best[0]:
            best = (value, g)
        if gain < tol:
            if gain > -1e-12:
                return value, g, iterations, True
            break
    return best[0], best[1], iterations, False


@pytest.fixture
def eigh_calls(monkeypatch):
    """The sizes of the matrices handed to np.linalg.eigh, in call order."""
    calls = []
    eigh = np.linalg.eigh

    def recording_eigh(matrix, *args, **kwargs):
        calls.append(np.shape(matrix)[0])
        return eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    return calls


@pytest.fixture
def svd_calls(monkeypatch):
    """The shapes of the matrices handed to np.linalg.svd, in call order."""
    calls = []
    svd = np.linalg.svd

    def recording_svd(matrix, *args, **kwargs):
        calls.append(np.shape(matrix))
        return svd(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    return calls


def assert_matches_state_space_reference(states, priors):
    result = optimal_povm_fixed_point(states, priors)
    value, g, iterations, converged = state_space_fixed_point(states, priors)
    assert result.success_probability == pytest.approx(value, abs=1e-12)
    assert result.iterations == iterations
    assert result.converged == converged
    assert np.abs(dense_povm(result.vectors) - dense_povm(g)).max() < 1e-10


class TestWeightedGram:
    def test_uniform_priors_scale_gram(self):
        g = build_gram(4, 0.6)
        w = weighted_gram(g, uniform(4))
        np.testing.assert_allclose(w.matrix, g / 4, atol=1e-14)
        # (tr sqrt(W))^2 / n equals (tr sqrt(G) / n)^2
        root = sqrt_gram(solve_spectrum(4, 0.6))
        assert success_lower_bound(w) == pytest.approx((np.trace(root) / 4) ** 2, abs=1e-10)

    def test_single_state(self):
        w = weighted_gram(np.array([[1.0]]), np.array([1.0]))
        assert w.sqrt_trace == pytest.approx(1.0, abs=1e-14)
        assert success_lower_bound(w) == pytest.approx(1.0, abs=1e-14)
        assert srm_success(w) == pytest.approx(1.0, abs=1e-14)

    def test_point_mass_prior_flags_rank_deficiency(self):
        w = weighted_gram(build_gram(3, 0.5), np.array([1.0, 0.0, 0.0]))
        assert w.rank_deficient

    def test_full_rank_not_flagged(self):
        w = weighted_gram(build_gram(3, 0.5), uniform(3))
        assert not w.rank_deficient

    @pytest.mark.parametrize("n", [5, 20])
    def test_sqrt_matches_jacobi_oracle(self, n):
        g = build_gram(n, 0.7)
        priors = np.random.default_rng(n).dirichlet(np.ones(n))
        w = weighted_gram(g, priors)
        assert np.abs(w.sqrt_matrix - jacobi_sqrt(w.matrix)).max() < 1e-10

    def test_rejects_bad_priors(self):
        with pytest.raises(ValueError):
            weighted_gram(build_gram(3, 0.5), np.array([0.5, 0.5, 0.5]))
        with pytest.raises(ValueError):
            weighted_gram(build_gram(3, 0.5), np.array([1.5, -0.5, 0.0]))
        with pytest.raises(ValueError):
            weighted_gram(build_gram(3, 0.5), uniform(4))

    def test_rejects_nan_priors(self):
        # every comparison with NaN is False, so the check asks for priors >= 0
        with pytest.raises(ValueError, match="nonnegative"):
            weighted_gram(build_gram(2, 0.5), np.array([math.nan, 0.5]))

    def test_rejects_complex_priors(self):
        # the float cast used to drop the imaginary parts with only a warning
        with pytest.raises(ValueError, match="priors must be real"):
            weighted_gram(build_gram(2, 0.5), np.array([0.5 + 0.5j, 0.5 - 0.5j]))


class TestBounds:
    def test_two_state_lower_bound(self):
        w = weighted_gram(build_gram(2, 0.6), uniform(2))
        assert success_lower_bound(w) == pytest.approx(0.9, abs=1e-12)

    def test_orthogonal_states(self):
        w = weighted_gram(build_gram(5, 0.0), uniform(5))
        assert success_lower_bound(w) == pytest.approx(1.0, abs=1e-12)
        assert success_upper_bound(w) == pytest.approx(1.0, abs=1e-12)
        assert srm_success(w) == pytest.approx(1.0, abs=1e-12)

    def test_two_state_bounds_coincide(self):
        # q is exactly uniform for n = 2, so both bounds give the known
        # two-state optimum
        for c in (0.2, 0.6, 0.9):
            w = weighted_gram(build_gram(2, c), uniform(2))
            exact = 0.5 * (1 + math.sqrt(1 - c * c))
            assert success_lower_bound(w) == pytest.approx(exact, abs=1e-12)
            assert success_upper_bound(w) == pytest.approx(exact, abs=1e-10)
            assert srm_success(w) == pytest.approx(exact, abs=1e-12)

    def test_lower_bound_near_asymptote_at_n50(self):
        w = weighted_gram(build_gram(50, math.sqrt(0.5)), uniform(50))
        assert abs(success_lower_bound(w) - asymptotic_pmax(math.sqrt(0.5))) < 1.0 / 50

    @pytest.mark.parametrize("c", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("n", [3, 8, 20])
    def test_srm_at_least_lower_bound(self, n, c):
        w = weighted_gram(build_gram(n, c), uniform(n))
        assert srm_success(w) >= success_lower_bound(w) - 1e-12

    @pytest.mark.parametrize("c", [0.2, 0.5, 0.8])
    def test_lambda_max_bound(self, c):
        for n in (3, 11, 40):
            w = weighted_gram(build_gram(n, c), uniform(n))
            assert n * w.lambda_max <= (1 + c) / (1 - c) + 1e-10


class TestAsymptoticPmax:
    def test_endpoints(self):
        assert asymptotic_pmax(0.0) == pytest.approx(1.0, abs=1e-14)
        assert asymptotic_pmax(1.0) == 0.0
        assert asymptotic_pmax(2.0) == 0.0
        with pytest.raises(ValueError):
            asymptotic_pmax(-0.1)

    def test_against_quadrature_oracle(self):
        # square of the angular average of sqrt((1-c^2)/(1-2c cos t + c^2))
        c = math.sqrt(0.5)
        integral, _ = quad(
            lambda t: math.sqrt((1 - c * c) / (1 - 2 * c * math.cos(t) + c * c)),
            0.0,
            math.pi,
            epsabs=1e-13,
        )
        oracle = (integral / math.pi) ** 2
        assert oracle == pytest.approx(0.6966019648428382, abs=1e-12)
        assert asymptotic_pmax(c) == pytest.approx(oracle, abs=1e-12)

    def test_monotone_decreasing(self):
        values = [asymptotic_pmax(c) for c in np.linspace(0.0, 0.9999, 250)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestEmbedStates:
    def test_orthogonal_case(self):
        np.testing.assert_allclose(embed_states(build_gram(4, 0.0)), np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("c", [0.3, 0.6, 0.9])
    @pytest.mark.parametrize("n", [2, 5, 17])
    def test_reproduces_gram(self, n, c):
        b = embed_states(build_gram(n, c))
        assert np.abs(b.T @ b - build_gram(n, c)).max() < 1e-10
        np.testing.assert_allclose(np.linalg.norm(b, axis=0), np.ones(n), atol=1e-10)

    @pytest.mark.parametrize("n", [5, 20])
    def test_matches_jacobi_oracle(self, n):
        g = build_gram(n, 0.7)
        assert np.abs(embed_states(g) - jacobi_sqrt(g)).max() < 1e-10

    def test_rank_deficient_raises(self):
        with pytest.raises(DegenerateEnsembleError):
            embed_states(np.ones((3, 3)))


@pytest.mark.parametrize("call", [
    lambda g: weighted_gram(g, uniform(2)),
    embed_states,
], ids=["weighted_gram", "embed_states"])
@pytest.mark.parametrize("matrix, message", [
    # eigh reads the lower triangle only: S^T S came out [[1, .2], [.2, 1]]
    ([[1.0, 0.5], [0.2, 1.0]], "not symmetric"),
    # a NaN entry gave an all-NaN root and lambda_max = nan
    ([[1.0, math.nan], [math.nan, 1.0]], "finite"),
    ([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0]], "square"),
    # a Hermitian Gram matrix lost its imaginary parts to the float cast
    ([[1.0, 0.5j], [-0.5j, 1.0]], "gram must be real"),
], ids=["asymmetric", "nan", "non-square", "complex"])
def test_rejects_bad_gram(call, matrix, message):
    with pytest.raises(ValueError, match=message):
        call(np.array(matrix))


class TestFixedPointSolver:
    @pytest.mark.parametrize("c", [0.1, 0.4, 0.6, 0.9])
    def test_two_state_helstrom(self, c):
        b = embed_states(build_gram(2, c))
        result = optimal_povm_fixed_point(b, uniform(2))
        assert result.converged
        assert result.success_probability == pytest.approx(
            0.5 * (1 + math.sqrt(1 - c * c)), abs=1e-8
        )

    def test_orthogonal_states_immediate(self):
        result = optimal_povm_fixed_point(np.eye(4), uniform(4))
        assert result.success_probability == pytest.approx(1.0, abs=1e-12)
        assert result.iterations == 1
        assert result.converged

    @pytest.mark.parametrize("c", [0.3, 0.7])
    @pytest.mark.parametrize("n", [4, 9])
    def test_result_within_bounds(self, n, c):
        w = weighted_gram(build_gram(n, c), uniform(n))
        result = optimal_povm_fixed_point(embed_states(build_gram(n, c)), uniform(n))
        assert success_lower_bound(w) - 1e-10 <= result.success_probability
        assert result.success_probability <= success_upper_bound(w) + 1e-10

    def test_povm_validity(self):
        result = optimal_povm_fixed_point(embed_states(build_gram(8, 0.7)), uniform(8))
        povm = dense_povm(result.vectors)
        assert np.abs(povm.sum(axis=0) - np.eye(8)).max() < 1e-8
        for element in povm:
            assert np.linalg.eigvalsh(element).min() > -1e-10

    def test_monotone_across_iteration_caps(self):
        b = embed_states(build_gram(6, 0.8))
        values = []
        for cap in range(1, 9):
            # unreachable tol forces exactly `cap` iterations and the
            # best-so-far, non-converged return path
            result = optimal_povm_fixed_point(b, uniform(6), tol=1e-300, max_iter=cap)
            assert not result.converged
            assert result.iterations == cap
            values.append(result.success_probability)
        assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(values, values[1:]))

    def test_nonuniform_priors_sandwich(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            n = 5
            priors = rng.dirichlet(np.ones(n))
            w = weighted_gram(build_gram(n, 0.6), priors)
            result = optimal_povm_fixed_point(embed_states(build_gram(n, 0.6)), priors)
            lower = success_lower_bound(w)
            upper = success_upper_bound(w)
            srm = srm_success(w)
            assert lower - 1e-10 <= srm <= result.success_probability + 1e-9
            assert result.success_probability <= upper + 1e-9

    @pytest.mark.parametrize("c", [0.3, 0.8, 0.97])
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_matches_state_space_reference(self, n, c):
        states = embed_states(build_gram(n, c))
        priors = np.random.default_rng([n, int(100 * c)]).dirichlet(np.ones(n))
        assert_matches_state_space_reference(states, priors)

    @pytest.mark.parametrize("c", [0.3, 0.8, 0.97])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 9])
    @pytest.mark.parametrize("draw", ["uniform", "dirichlet"])
    def test_reversal_split_matches_state_space_reference(self, n, c, draw):
        # reversal-symmetric priors on the persymmetric chain, which an
        # earlier solver split into even and odd blocks; the chain core runs
        # them (n >= 2), the oracle on the full state space
        states = embed_states(build_gram(n, c))
        priors = uniform(n)
        if draw == "dirichlet":
            p = np.random.default_rng([n, int(100 * c)]).dirichlet(np.ones(n))
            priors = (p + p[::-1]) / 2
        assert_matches_state_space_reference(states, priors)

    def test_symmetric_priors_on_asymmetric_states_match_reference(self):
        # the states' Gram matrix is not the chain, so the dense core runs
        n = 6
        states = np.random.default_rng(13).normal(size=(n, n))
        states /= np.linalg.norm(states, axis=0)
        priors = np.array([0.1, 0.15, 0.25, 0.25, 0.15, 0.1])
        assert_matches_state_space_reference(states, priors)

    @pytest.mark.parametrize("n, c2", [(150, 0.81), (149, 0.5), (2, 0.9999999999999999)])
    def test_summary_runs_no_eigh(self, eigh_calls, svd_calls, n, c2):
        # timing-free guard on the chain core: the bounds come from the
        # closed-form spectrum and the chain kernel, the fixed point from the
        # chain core, and nothing reads the POVM vectors
        collective_summary(n, math.sqrt(c2))
        assert eigh_calls == [] and svd_calls == []

    @pytest.mark.parametrize("n, c2", [(150, 0.5), (300, 0.9), (50, 0.1)])
    def test_summary_runs_the_chain_kernel_once_per_step(self, monkeypatch, n, c2):
        # the bounds read the solver's square-root-measurement seed, which
        # a second kernel call at w = 1/n used to repeat bit for bit
        kernel_calls, results = [], []
        kernel, solver = collective_module._chain_root_diagonal, collective_module.optimal_povm_fixed_point

        def counting_kernel(weights, c):
            kernel_calls.append(c)
            return kernel(weights, c)

        def recording_solver(*args, **kwargs):
            results.append(solver(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(collective_module, "_chain_root_diagonal", counting_kernel)
        monkeypatch.setattr(collective_module, "optimal_povm_fixed_point", recording_solver)
        summary = collective_summary(n, math.sqrt(c2))
        assert len(results) == 1 and results[0].iterations > 1
        assert len(kernel_calls) == results[0].iterations + 1
        assert summary.srm == float((results[0]._seed_diagonal ** 2).sum())

    def test_chain_core_runs_no_eigh_until_vectors_are_read(self, eigh_calls, svd_calls):
        # the solve runs no decomposition; the vectors are one thin SVD of
        # the steered states, taken on the first read only
        n = 40
        states = embed_states(build_gram(n, 0.8))
        priors = np.random.default_rng(40).dirichlet(np.ones(n))
        eigh_calls.clear()
        result = optimal_povm_fixed_point(states, priors)
        assert result.iterations > 1
        assert eigh_calls == [] and svd_calls == []
        vectors = result.vectors
        assert eigh_calls == [] and svd_calls == [(n, n)]
        assert result.vectors is vectors
        assert eigh_calls == [] and svd_calls == [(n, n)]

    @pytest.mark.parametrize("n, c2", [(3, 1 - 1e-10), (10, 0.999999), (50, 0.99),
                                       (3, 0.9999999999999999), (10, 0.9999999999999999)])
    def test_vectors_near_c_one_resolve_identity(self, n, c2):
        # squaring B into M = B^T B and pseudo-inverting its root left the
        # elements summing to I only to 3.3e-6 at (3, 1 - 1e-10); a cut on s^2
        # instead of s dropped two of three directions at c one ulp below 1
        states = gram_schmidt_factor(n, math.sqrt(c2))
        priors = uniform(n)
        result = optimal_povm_fixed_point(states, priors)
        g = result.vectors
        assert np.abs(g @ g.T - np.eye(n)).max() < 1e-12
        rebuilt = float((priors * np.einsum("ik,ik->k", states, g) ** 2).sum())
        assert rebuilt == pytest.approx(result.success_probability, abs=1e-12)

    def test_dense_core_runs_one_svd_per_step(self, eigh_calls, svd_calls):
        # the square-root-measurement seed and every iteration are one thin
        # SVD of the steered states; the vectors take one more, when read
        n = 12
        states = np.random.default_rng(12).normal(size=(n, n))
        states /= np.linalg.norm(states, axis=0)
        result = optimal_povm_fixed_point(states, uniform(n))
        assert result.iterations > 1
        assert eigh_calls == []
        assert svd_calls == [(n, n)] * (result.iterations + 1)
        result.vectors
        assert eigh_calls == []
        assert svd_calls == [(n, n)] * (result.iterations + 2)

    @pytest.mark.parametrize("q", [1e-6, 1e-9, 1e-11])
    def test_dense_core_keeps_the_element_of_a_small_prior(self, q):
        # a step that cut the eigenvalues of M = B^T B at 1e-12 cut the
        # singular values of B at 1e-6, where the vectors cut at 1e-12: the
        # element of prior 1e-6 was dropped, sum g g^T missed I by 0.357 and
        # the value fell 1.5e-6 below the dual bound
        n = 6
        states = np.random.default_rng(13).normal(size=(n, n))
        states /= np.linalg.norm(states, axis=0)
        priors = np.full(n, (1.0 - q) / (n - 1))
        priors[2] = q
        result = optimal_povm_fixed_point(states, priors, tol=1e-15)
        g = result.vectors
        assert np.abs(g @ g.T - np.eye(n)).max() <= 1e-13
        bound = yuen_kennedy_lax_bound(states, priors, g)
        assert bound - result.success_probability <= 1e-12

    @pytest.mark.parametrize("case", ["dense", "chain-zero-prior", "prior-below-1e-100", "n=1"])
    def test_no_solve_runs_eigh(self, eigh_calls, svd_calls, case):
        # timing-free guard on both cores: the chain core runs the kernel,
        # the dense core and the vectors one thin SVD each, of a
        # rectangular B too
        if case == "dense":
            states = np.random.default_rng(12).normal(size=(8, 5))
            states /= np.linalg.norm(states, axis=0)
            priors = uniform(5)
        elif case == "n=1":
            states, priors = np.array([[0.6], [0.8]]), np.array([1.0])
        else:
            states = gram_schmidt_factor(6, 0.6)
            priors = np.full(6, 0.2)
            priors[2] = 0.0 if case == "chain-zero-prior" else 1e-120
            priors /= priors.sum()
        result = optimal_povm_fixed_point(states, priors)
        result.vectors
        assert eigh_calls == []
        steps = 0 if case == "chain-zero-prior" else result.iterations + 1
        assert len(svd_calls) == steps + 1

    @pytest.mark.parametrize("priors", [
        [0.3, 0.0, 0.4, 0.3],
        # reversal-symmetric, which an earlier solver split into halves
        [0.2, 0.0, 0.3, 0.3, 0.0, 0.2],
    ])
    def test_zero_priors_on_the_chain_take_the_chain_core(self, svd_calls, priors):
        priors = np.array(priors)
        n = priors.size
        states = embed_states(build_gram(n, 0.6))
        optimal_povm_fixed_point(states, priors)
        assert svd_calls == []
        assert_matches_state_space_reference(states, priors)

    @pytest.mark.parametrize("c2", [0.5, 0.99, 1 - 1e-10, 0.9999999999999999])
    @pytest.mark.parametrize("n", [3, 5, 10])
    def test_endpoint_priors_reach_helstrom(self, n, c2):
        # only the two end states carry weight, and their overlap is
        # c^(n-1); at c one ulp below 1 a dense core read exactly 1/2, whose
        # 1e-12 cut dropped the second direction, and at (3, 1 - 1e-10) it
        # ended unconverged
        c = math.sqrt(c2)
        priors = np.zeros(n)
        priors[[0, -1]] = 0.5
        result = optimal_povm_fixed_point(gram_schmidt_factor(n, c), priors)
        distinct = -math.expm1(2 * (n - 1) * math.log1p(c - 1.0))
        assert result.converged
        assert result.success_probability == pytest.approx(0.5 * (1 + math.sqrt(distinct)), abs=1e-12)

    def test_zero_prior_gives_zero_element(self):
        states = embed_states(build_gram(4, 0.6))
        priors = np.array([0.3, 0.0, 0.4, 0.3])
        result = optimal_povm_fixed_point(states, priors)
        assert np.all(np.isfinite(result.vectors))
        assert math.isfinite(result.success_probability)
        assert np.abs(dense_povm(result.vectors)[1]).max() < 1e-12
        value, _, _, _ = state_space_fixed_point(states, priors)
        assert result.success_probability == pytest.approx(value, abs=1e-12)

    def test_prior_at_the_chain_threshold_keeps_its_element(self, svd_calls):
        # the element w_k R^{-1} |psi_k><psi_k| R^{-1} is nonzero exactly when
        # its steering weight p^2 o^2 is: at the least prior the chain core
        # takes that must not underflow, as 1e-200, the threshold of p o^2
        # steering, does when squared
        n, smallest = 6, collective_module._CHAIN_MIN_PRIOR
        priors = np.full(n, (1.0 - smallest) / (n - 1))
        priors[2] = smallest
        states = embed_states(build_gram(n, 0.6))
        result = optimal_povm_fixed_point(states, priors)
        assert svd_calls == []
        assert result.converged
        assert result._weights[2] > 0.0

    @pytest.mark.parametrize("n, c2, priors", [
        (4, 0.36, [0.3, 0.0, 0.4, 0.3]),
        (8, 0.5, None),
        (10, 0.95, None),
        (20, 0.9, None),
    ], ids=["readme", "dirichlet-8", "dirichlet-10", "dirichlet-20"])
    def test_dual_gap_closes(self, n, c2, priors):
        # the state-space Yuen-Kennedy-Lax bound shares nothing with the
        # solver; p o^2 steering stopped 1.1e-3 to 0.14 below it
        states = embed_states(build_gram(n, math.sqrt(c2)))
        if priors is None:
            priors = np.random.default_rng([n, int(100 * c2)]).dirichlet(np.ones(n))
        priors = np.asarray(priors)
        result = optimal_povm_fixed_point(states, priors, tol=1e-15)
        assert result.converged
        bound = yuen_kennedy_lax_bound(states, priors, result.vectors)
        assert bound - result.success_probability <= 1e-10
        if n == 4:
            # the README example: 0.907941693817 after 1 iteration, unconverged, with p o^2
            assert f"{result.success_probability:.12f}" == "0.908410104217"

    def test_vectors_rebuild_povm(self):
        result = optimal_povm_fixed_point(embed_states(build_gram(6, 0.5)), uniform(6))
        for k, element in enumerate(dense_povm(result.vectors)):
            np.testing.assert_array_equal(element, np.outer(result.vectors[:, k], result.vectors[:, k]))

    def test_memory_is_quadratic_in_n(self):
        # the dense (n, n, n) element tensor alone would be 216 MB at n = 300
        states = embed_states(build_gram(300, math.sqrt(0.5)))
        tracemalloc.start()
        try:
            optimal_povm_fixed_point(states, uniform(300))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50e6

    def test_chain_test_forms_no_n_by_n_temporary(self, svd_calls):
        # forming G = S^T S for the chain test peaked at 36 MB at n = 2000,
        # and comparing it with a full build_gram(n, c) at 64 MB before that;
        # the chain kernel itself needs about 2 MB
        c = math.sqrt(0.9)
        states, priors = gram_schmidt_factor(2000, c), uniform(2000)
        tracemalloc.start()
        try:
            result = optimal_povm_fixed_point(states, priors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.converged and svd_calls == []
        assert peak < 8e6

    @pytest.mark.parametrize("row", [0, 5, 9])
    @pytest.mark.parametrize("departure, chain", [(0.5e-12, True), (2e-12, False)])
    def test_chain_test_reads_every_row_block(self, monkeypatch, svd_calls, row, departure, chain):
        # blocks of 4 rows at n = 10, each read from the diagonal rightwards:
        # a departure from c^|i-j| at (0, 9), (5, 9) or (9, 9), each in its
        # own block, decides the core wherever it lies, against 1e-12 of max|G|
        monkeypatch.setattr(collective_module, "_CHAIN_BLOCK_ROWS", 4)
        gram = build_gram(10, 0.6)
        gram[row, 9] = gram[9, row] = gram[row, 9] + departure
        optimal_povm_fixed_point(np.linalg.cholesky(gram).T, uniform(10))
        assert (svd_calls == []) == chain

    @pytest.mark.parametrize("n", [100, 600])
    @pytest.mark.parametrize("departure", [None, "first", "middle", "last"])
    def test_chain_test_stops_at_the_first_differing_block(self, n, departure):
        # a chain matrix takes every block product of S^T S; any other stops
        # at the first block whose rows of the upper triangle depart from c^|i-j|
        products = []

        class BlockProducts(np.ndarray):
            def __matmul__(self, other):
                products.append(n - other.shape[1])  # the block's first row
                return np.asarray(self) @ np.asarray(other)

        c = 0.6
        gram = build_gram(n, c)
        row = {None: None, "first": 0, "middle": n // 2, "last": n - 1}[departure]
        if row is not None:
            gram[row, n - 1] = gram[n - 1, row] = gram[row, n - 1] + 1e-9
        states = np.linalg.cholesky(gram).T.view(BlockProducts)
        rows = max(collective_module._CHAIN_BLOCK_ROWS, math.ceil(n / 16))
        starts = list(range(0, n, rows))
        assert collective_module._on_chain(states, c, 1e-12) == (row is None)
        assert products == (starts if row is None else starts[:row // rows + 1])

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            optimal_povm_fixed_point(np.eye(2), uniform(2), tol=0.0)
        with pytest.raises(ValueError):
            optimal_povm_fixed_point(np.eye(2), uniform(2), tol=math.nan)

    @pytest.mark.parametrize("solve", [
        lambda **kw: optimal_povm_fixed_point(np.eye(2), uniform(2), **kw).success_probability,
        lambda **kw: collective_summary(10, math.sqrt(0.95), **kw).fixed_point_opt,
    ], ids=["optimal_povm_fixed_point", "collective_summary"])
    def test_max_iter_validation(self, solve):
        # max_iter=0 used to return the square-root-measurement seed as the
        # optimum, and 2.5 died inside range()
        for bad in (0, -3):
            with pytest.raises(ValueError, match="max_iter"):
                solve(max_iter=bad)
        for bad in (2.5, "7", None):
            with pytest.raises(TypeError, match="max_iter"):
                solve(max_iter=bad)
        assert solve(max_iter=1) > 0.0

    def test_rejects_bad_priors(self):
        # the priors check of weighted_gram, shape included: one prior for
        # three states used to broadcast silently
        with pytest.raises(ValueError):
            optimal_povm_fixed_point(np.eye(3), np.array([1.0]))
        with pytest.raises(ValueError):
            optimal_povm_fixed_point(np.eye(2), np.array([1.5, -0.5]))
        with pytest.raises(ValueError, match="nonnegative"):
            optimal_povm_fixed_point(np.eye(2), np.array([math.nan, 0.5]))

    @pytest.mark.parametrize("states,message", [
        (np.full((2, 2), math.inf), "finite"),
        (np.full((2, 2), math.nan), "finite"),
        (np.array([[1.0, 0.0], [math.inf, 1.0]]), "finite"),
        (np.array([[1.0, 0.0], [math.nan, 1.0]]), "finite"),
        (np.ones(3), r"2-D.*\(3,\)"),
        (np.ones((2, 2, 2)), r"2-D.*\(2, 2, 2\)"),
        (embed_states(build_gram(4, 0.5)) * [1.0, 1.0, 1.0, 1e200], "Gram matrix S\\^T S must be finite"),
    ], ids=["inf", "nan", "one-inf", "one-nan", "1-D", "3-D", "gram-overflow"])
    def test_rejects_bad_states(self, states, message):
        # non-finite states used to report success 0.0, converged, with NaN
        # vectors; a 1-D array died with IndexError and a 3-D one with
        # LinAlgError; finite states whose G[3, 3] overflows passed the chain
        # test against an infinite limit and read the unit chain's 0.8985
        with pytest.raises(ValueError, match=message):
            optimal_povm_fixed_point(states, uniform(np.shape(states)[-1]))

    @pytest.mark.parametrize("states,priors", [
        (np.zeros((3, 3)), uniform(3)),
        (np.zeros((0, 3)), uniform(3)),
        (np.array([[0.0, 0.0, 1.0]]), np.array([0.5, 0.5, 0.0])),
    ], ids=["zeros", "no-rows", "only-a-zero-prior-state-nonzero"])
    def test_rejects_zero_states(self, states, priors):
        # the steering weights were scaled by their maximum, 0: all zeros
        # died in the SVD after divide-by-zero warnings, and zero rows read
        # 0.0 converged
        with pytest.raises(ValueError, match="zero norm"):
            optimal_povm_fixed_point(states, priors)

    def test_one_nonzero_state_is_enough(self):
        # a zero state with a positive prior is never identified, so the
        # value is the prior of the state that is not zero
        result = optimal_povm_fixed_point(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), uniform(3))
        assert result.success_probability == pytest.approx(2.0 / 3.0, abs=1e-15)

    @pytest.mark.parametrize("states,priors,name", [
        (np.array([[1.0, math.sqrt(0.5)], [0.0, 1j * math.sqrt(0.5)]]), uniform(2), "states"),
        (np.eye(2), np.array([0.5 + 0j, 0.5]), "priors"),
    ], ids=["states", "priors"])
    def test_rejects_complex_input(self, states, priors, name):
        # the complex states used to read 0.5, their real parts' value, where
        # Helstrom gives (1 + sqrt(1/2)) / 2 = 0.853553
        with pytest.raises(ValueError, match=f"{name} must be real"):
            optimal_povm_fixed_point(states, priors)


class TestCollectiveSummary:
    @pytest.mark.parametrize("c2", [0.0, 0.36, 0.9025, 0.99])
    @pytest.mark.parametrize("n", [1, 2, 7, 40, 150])
    def test_matches_weighted_gram_route(self, n, c2):
        # the closed-form eigenpairs of G/n and LAPACK's eigh of it feed the
        # same WeightedGram constructor; measured worst 6.5e-14 at c2 = 0.99
        c = math.sqrt(c2)
        summary = collective_summary(n, c)
        w = weighted_gram(build_gram(n, c), uniform(n))
        assert summary.lower_bound == pytest.approx(success_lower_bound(w), abs=1e-13)
        assert summary.srm == pytest.approx(srm_success(w), abs=1e-13)
        assert summary.upper_bound == pytest.approx(success_upper_bound(w), abs=1e-13)

    @pytest.mark.parametrize("c2", [0.0, 0.36, 0.9, 0.99, 0.999999, 0.9999999999999999])
    def test_two_states_reach_helstrom(self, c2):
        # for two states every collective figure is the Helstrom value; at
        # c^2 = 0.999999 a cancelling spectrum misses it by about 1e-10, and
        # at c one ulp below 1 a spectrum bisected on the uncomplemented
        # phase by 1e-8.  There a dense fixed point read 0.5, 7.45e-9 below:
        # its 1e-12 pseudo-inverse cut dropped G's second direction
        # (eigenvalue 1.1e-16), which the chain core keeps
        c = math.sqrt(c2)
        helstrom = (1 + math.sqrt((1 - c) * (1 + c))) / 2
        summary = collective_summary(2, c)
        values = [summary.lower_bound, summary.srm, summary.upper_bound, summary.fixed_point_opt]
        for value in values:
            assert value == pytest.approx(helstrom, abs=1e-12)

    @pytest.mark.parametrize("n, bound", [(450, 2.5e6), (2000, 40e6)])
    def test_memory_stays_near_the_factor(self, n, bound):
        # the factor R alone is n^2 doubles, 1.6 MB at n = 450 and 32 MB at
        # n = 2000; the solver forming G = S^T S beside it peaked at 3.85 MB
        # and 68 MB
        tracemalloc.start()
        try:
            collective_summary(n, math.sqrt(0.9))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_ordering(self):
        summary = collective_summary(20, 0.8)
        assert (
            summary.lower_bound - 1e-12
            <= summary.srm
            <= summary.fixed_point_opt + 1e-12
        )
        assert summary.fixed_point_opt <= summary.upper_bound + 1e-12
