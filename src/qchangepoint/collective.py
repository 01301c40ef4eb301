"""Collective-measurement figures of merit.

Prior-weighted Gram matrix, the trace-square-root lower/upper bounds on the
optimal identification probability, the square-root-measurement value, the
closed-form large-n asymptote (gram.sqrt_trace_limit squared), and a
fixed-point solver for the optimal POVM.
The solver stops when its gain falls below a tolerance; it is not monotone,
and a step that lowers the value ends it unconverged at the best iterate.

The bounds exist once, in ``_bounds``, which reads only tr sqrt(W),
diag sqrt(W) and lambda_max.  ``weighted_gram`` and ``embed_states`` build
a ``WeightedGram`` (sqrt(W) in full, from LAPACK's eigenpairs) for any
priors and Gram matrix.  ``collective_summary`` forms no n x n root: the
closed-form spectrum of W = G/n gives tr sqrt(W) and lambda_max, and the
chain kernel ``gram._chain_root_diagonal`` at w = 1/n gives diag sqrt(W).
The fixed point exists once too, in ``_fixed_point``, which needs only G
and the priors and reads only diag(M^{1/2}) per step.  On the change-point
Gram matrix with every positive prior at least 1e-200, a step is the chain
kernel, O(n N) with no eigendecomposition: the chain core.  G is recognised
by comparing it with a strided view of c^|i-j| (``gram._gram_view``) a few
rows at a time, with no n x n temporary; ``collective_summary``'s factor
is the upper triangle of the same view.  Any other G
takes one n x n LAPACK eigendecomposition per step: the dense core.
``optimal_povm_fixed_point`` forms G = S^T S for it; the POVM vectors are
built, with one thin SVD, only when first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .gram import (DegenerateEnsembleError, _chain_root_diagonal, _gram_view, _integer,
                   _symmetric_matrix, _symmetric_root, solve_spectrum, sqrt_trace_limit)

__all__ = [
    "WeightedGram",
    "PovmSolverResult",
    "CollectiveSummary",
    "weighted_gram",
    "success_lower_bound",
    "success_upper_bound",
    "srm_success",
    "asymptotic_pmax",
    "embed_states",
    "optimal_povm_fixed_point",
    "collective_summary",
]

_PRIOR_TOL = 1e-12
_RANK_TOL = 1e-12
# The chain kernel scales the weights to max 1 and needs its upper spectral
# bound (1+c)/((1-c) min w) finite, min over w > 0.  Steering weights stay
# within ((1+c)/(1-c))^{+-1} of the priors, so with every positive prior at
# least this the bound is below ((1+c)/(1-c))^3 max p / min p < 1e250 for c < 1.
_CHAIN_MIN_PRIOR = 1e-200
# Entries per row block of the chain test: its temporaries stay near 256 KB.
_CHAIN_TEST_BLOCK = 1 << 15


@dataclass(frozen=True)
class WeightedGram:
    """Prior-weighted Gram matrix W_ij = sqrt(p_i p_j) G_ij and derived data.

    lambda_max is the largest eigenvalue of W.  rank_deficient flags a
    numerically singular W (some prior zero, or overlaps collapsing the span).
    """

    n: int
    matrix: np.ndarray
    sqrt_matrix: np.ndarray
    lambda_max: float
    rank_deficient: bool

    @property
    def sqrt_trace(self) -> float:
        return float(np.trace(self.sqrt_matrix))


@dataclass(frozen=True)
class PovmSolverResult:
    """Outcome of the fixed-point POVM iteration.

    The optimal elements are rank one, E_k = g_k g_k^T, so only the vectors
    are kept: vectors[:, k] is g_k, in the coordinates of the states.  They
    are built from the states and the steering weights of the returned
    iterate, with one thin SVD, the first time they are read.
    """

    success_probability: float
    iterations: int
    converged: bool
    _states: np.ndarray = field(repr=False, compare=False)
    _weights: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def vectors(self) -> np.ndarray:
        """g = B M^{-1/2} = U V^T for B = S diag(sqrt w) = U diag(s) V^T and
        M = B^T B; directions with s below 1e-12 of the largest are cut."""
        u, s, vt = np.linalg.svd(self._states * np.sqrt(self._weights), full_matrices=False)
        keep = s > _RANK_TOL * np.max(s, initial=0.0)
        return u[:, keep] @ vt[keep]


@dataclass(frozen=True)
class CollectiveSummary:
    """All collective figures of merit at one (n, c) point, uniform priors."""

    n: int
    c: float
    lower_bound: float
    srm: float
    fixed_point_opt: float
    upper_bound: float
    asymptotic: float


def _checked_priors(priors: np.ndarray, n: int) -> np.ndarray:
    priors = np.asarray(priors, dtype=float)
    if priors.shape != (n,):
        raise ValueError(f"priors shape {priors.shape} does not match n={n}")
    if not np.all(priors >= 0.0) or abs(priors.sum() - 1.0) > _PRIOR_TOL:
        raise ValueError("priors must be nonnegative and sum to 1")
    return priors


def _weighted(w: np.ndarray, eigenvalues: np.ndarray, eigenvectors: np.ndarray) -> WeightedGram:
    """The record of W from an eigendecomposition of it; eigenvalues at or
    below 1e-12 max(lambda_max, 1) flag rank deficiency."""
    lambda_max = float(eigenvalues.max())
    rank_deficient = bool(eigenvalues.min() <= _RANK_TOL * max(lambda_max, 1.0))
    return WeightedGram(n=w.shape[0], matrix=w, sqrt_matrix=_symmetric_root(eigenvalues, eigenvectors),
                        lambda_max=lambda_max, rank_deficient=rank_deficient)


def weighted_gram(gram: np.ndarray, priors: np.ndarray) -> WeightedGram:
    """Weight the Gram matrix by priors and take its square root.

    The square root comes from LAPACK's symmetric eigensolver (numpy eigh);
    eigenvalues below 1e-12 of the largest flag rank deficiency, and negative
    ones are clamped to zero.  A gram that is not square, finite and
    symmetric raises ValueError.
    """
    gram = _symmetric_matrix(gram)
    root_p = np.sqrt(_checked_priors(priors, gram.shape[0]))
    w = root_p[:, np.newaxis] * gram * root_p[np.newaxis, :]
    return _weighted(w, *np.linalg.eigh(w))


def _bounds(n: int, sqrt_trace: float, diagonal: np.ndarray, lambda_max: float):
    """(lower bound, SRM value, upper bound) from tr sqrt(W), diag sqrt(W) and
    lambda_max of W.

    The lower bound (tr sqrt(W))^2 / n is achievable.  The SRM value is
    sum_k (sqrt W)_kk^2.  The upper bound is the lower one plus
    sqrt(n lambda_max) times the l1-distance of q = diag(sqrt(W)) / tr(sqrt(W))
    from uniform.
    """
    lower = sqrt_trace**2 / n
    deviation = float(np.abs(diagonal / sqrt_trace - 1.0 / n).sum())
    return lower, float((diagonal**2).sum()), lower + math.sqrt(n * lambda_max) * deviation


def _weighted_bounds(weighted: WeightedGram):
    return _bounds(weighted.n, weighted.sqrt_trace, np.diag(weighted.sqrt_matrix),
                   weighted.lambda_max)


def success_lower_bound(weighted: WeightedGram) -> float:
    """(tr sqrt(W))^2 / n: achievable, hence a lower bound on the optimum."""
    return _weighted_bounds(weighted)[0]


def success_upper_bound(weighted: WeightedGram) -> float:
    """Lower bound plus sqrt(n lambda_max) * l1-distance of q from uniform,
    where q = diag(sqrt(W)) / tr(sqrt(W))."""
    return _weighted_bounds(weighted)[2]


def srm_success(weighted: WeightedGram) -> float:
    """Success probability of the square root measurement: sum_k (sqrt W)_kk^2."""
    return _weighted_bounds(weighted)[1]


def asymptotic_pmax(c: float) -> float:
    """Large-n optimal identification probability 4(1-c^2)/pi^2 * K(c^2)^2.

    It is gram.sqrt_trace_limit squared, the limit of (tr sqrt(G) / n)^2.
    Returns 1 at c=0 (orthogonal states) and 0 for c >= 1, where the states
    become indistinguishable and the success probability vanishes as 1/n.
    """
    if c >= 1.0:
        return 0.0
    return sqrt_trace_limit(c) ** 2


def embed_states(gram: np.ndarray) -> np.ndarray:
    """Coordinates of the source states in an orthonormal basis of their span.

    Returns sqrt(G); column k is the k-th state, so pairwise inner products
    reproduce the Gram matrix exactly.  G is checked as in weighted_gram.
    """
    gram = _symmetric_matrix(gram)
    eigenvalues, eigenvectors = np.linalg.eigh(gram)
    embedded = _weighted(gram, eigenvalues, eigenvectors)
    if embedded.rank_deficient:
        raise DegenerateEnsembleError(
            f"Gram matrix is rank deficient (min eigenvalue {eigenvalues[0]:.3e})"
        )
    return embedded.sqrt_matrix


def _on_chain(gram: np.ndarray, c: float) -> bool:
    """Whether gram is within 1e-12 of max|gram| of c^|i-j| everywhere.

    It is compared with the strided view of c^|i-j| a few rows at a time,
    so no n x n temporary is formed.
    """
    n = gram.shape[0]
    chain = _gram_view(n, c)
    limit = _RANK_TOL * np.maximum(gram.max(), -gram.min())
    rows = max(1, _CHAIN_TEST_BLOCK // n)
    for start in range(0, n, rows):
        block = gram[start:start + rows] - chain[start:start + rows]
        if not np.abs(block, out=block).max() <= limit:
            return False
    return True


def _fixed_point(gram: np.ndarray, priors: np.ndarray, tol: float, max_iter: int):
    """The fixed-point iteration on the Gram matrix alone; see optimal_povm_fixed_point.

    A step reads only diag(M^{1/2}), M = sqrt(w_i) G_ij sqrt(w_j).  On the
    change-point chain (n >= 2, c = G[0, 1] in [0, 1) and G within 1e-12 of
    max|G| of c^|i-j|, checked by ``_on_chain`` in row blocks) with every
    positive prior at least 1e-200, ``gram._chain_root_diagonal`` gives it.
    Any other G, n = 1 or a positive prior below 1e-200 takes one eigh of M
    per step, with the directions below 1e-12 of its top eigenvalue
    pseudo-inverted away.
    Returns (value, iterations, converged, weights), the last being the
    steering weights of the returned iterate.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    max_iter = _integer("max_iter", max_iter)
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    n = gram.shape[0]
    c = float(gram[0, 1]) if n >= 2 else math.nan
    on_chain = (0.0 <= c < 1.0 and np.min(priors, where=priors > 0.0, initial=1.0) >= _CHAIN_MIN_PRIOR
                and _on_chain(gram, c))

    def overlaps_at(weights: np.ndarray) -> np.ndarray:
        root_w = np.sqrt(weights)
        if on_chain:
            diagonal = _chain_root_diagonal(weights, c)
        else:
            vals, vecs = np.linalg.eigh(root_w[:, np.newaxis] * gram * root_w)
            diagonal = (vecs**2) @ np.sqrt(np.where(vals > _RANK_TOL * max(vals[-1], 0.0), vals, 0.0))
        return np.divide(diagonal, root_w, out=np.zeros(n), where=weights > 0.0)

    # square root measurement: steering weights equal to the priors
    weights = priors
    overlaps = overlaps_at(weights)
    success = float((priors * overlaps**2).sum())
    best, best_success = weights, success

    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        weights = priors * overlaps**2
        overlaps = overlaps_at(weights)
        new_success = float((priors * overlaps**2).sum())
        gain = new_success - success
        success = new_success
        if success > best_success:
            best, best_success = weights, success
        if gain < tol:
            converged = gain > -1e-12
            break
    if not converged:
        weights, success = best, best_success
    return success, iterations, converged, weights


def optimal_povm_fixed_point(
    states: np.ndarray,
    priors: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> PovmSolverResult:
    """Fixed-point iteration for the minimum-error POVM; it stops on small gain.

    Seeds with the square root measurement, then repeatedly conjugates each
    element by the inverse square root of sum_j p_j <psi_j|E_j|psi_j>
    |psi_j><psi_j|, the classical steering map whose fixed points satisfy the
    optimality conditions.  The loop stops once the per-iteration gain drops
    below tol; a step that lowers the success probability by more than 1e-12
    ends it with converged=False and the best iterate returned.  The states
    must be a finite 2-D array, tol > 0 and max_iter an integer >= 1.  The
    iteration is not monotone: with priors (0.3, 0, 0.4, 0.3) at n=4, c=0.6
    the first step lowers the value, so the result is the
    square-root-measurement value 0.907941693817 after 1 iteration.

    The iteration runs in Gram form.  With steering weights w, B = S diag(sqrt w)
    and M = B^T B = sqrt(w_i) G_ij sqrt(w_j), the elements are E_k = g_k g_k^T
    with g = B M^{-1/2}, and <psi_k|g_k> = (M^{1/2})_kk / sqrt(w_k), so a step
    reads only diag(M^{1/2}).  When G = S^T S is the change-point Gram matrix
    (n >= 2, c = G[0, 1] in [0, 1), G within 1e-12 of max|G| of c^|i-j|) and
    every positive prior is at least 1e-200, a step is the O(n N) chain kernel
    and no eigendecomposition; otherwise it is one n x n eigendecomposition of M.
    The vectors g are formed when first read, from one thin SVD of B at the
    returned steering weights: g = U V^T for B = U diag(s) V^T.
    """
    states = np.asarray(states, dtype=float)
    if states.ndim != 2:
        raise ValueError(f"states must be 2-D, one column per state; got shape {states.shape}")
    if not np.isfinite(states).all():
        raise ValueError("states must be finite")
    priors = _checked_priors(priors, states.shape[1])
    success, iterations, converged, weights = _fixed_point(states.T @ states, priors, tol, max_iter)
    return PovmSolverResult(success_probability=success, iterations=iterations,
                            converged=converged, _states=states, _weights=weights)


def collective_summary(
    n: int,
    c: float,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> CollectiveSummary:
    """All collective figures at one (n, c) point under uniform priors.

    No n x n root and no eigendecomposition: W = G/n has the eigenvalues
    lambda_l/n of G, so tr sqrt(W) and lambda_max come from the closed-form
    spectrum, and diag sqrt(W) from the chain kernel at w = 1/n.  The solver
    is fed the triangular Gram-Schmidt factor R of G, G = R^T R: row 1 of R
    is row 1 of G, and row i >= 2 is sqrt(1-c^2) times the upper part of
    row i of G.  So it runs on the chain core.
    """
    spectrum = solve_spectrum(n, c)
    uniform = np.full(n, 1.0 / n)
    lower, srm, upper = _bounds(n, float(np.sqrt(spectrum.lambdas / n).sum()),
                                _chain_root_diagonal(uniform, c), float(spectrum.lambdas.max()) / n)
    # the public solver on R, not _fixed_point on G: perfbench/selftest.py
    # counts one traced optimal_povm_fixed_point call per sweep point
    factor = np.triu(_gram_view(n, c))
    factor[1:] *= math.sqrt((1.0 - c) * (1.0 + c))
    result = optimal_povm_fixed_point(factor, uniform, tol=tol, max_iter=max_iter)
    return CollectiveSummary(
        n=n,
        c=c,
        lower_bound=lower,
        srm=srm,
        fixed_point_opt=result.success_probability,
        upper_bound=upper,
        asymptotic=asymptotic_pmax(c),
    )
