"""Collective-measurement figures of merit.

Prior-weighted Gram matrix, the trace-square-root lower/upper bounds on the
optimal identification probability, the square-root-measurement value, the
closed-form large-n asymptote (gram.sqrt_trace_limit squared), and a
fixed-point solver for the optimal POVM: the Jezek-Rehacek-Fiurasek step
for pure states, which stops when its gain falls below a tolerance; a step
that lowers the value ends it unconverged at the best iterate.

The bounds exist once, in ``_bounds``, which reads only tr sqrt(W),
diag sqrt(W) and lambda_max.  ``weighted_gram`` and ``embed_states`` build
a ``WeightedGram`` (sqrt(W) in full, from LAPACK's eigenpairs) for any
priors and Gram matrix.  ``collective_summary`` forms no n x n root: the
closed-form spectrum of W = G/n gives tr sqrt(W) and lambda_max, and the
fixed point's square-root-measurement seed, the chain kernel
``gram._chain_root_diagonal`` at w = 1/n, gives diag sqrt(W).
The fixed point exists once too, in ``_fixed_point``, which reads only
diag(M^{1/2}) per step, M = B^T B for the steered states B = S diag(sqrt w).
On the change-point Gram matrix G = S^T S with every positive prior at least
1e-100, a step is the chain kernel on G, O(n N) with no decomposition: the
chain core.  G is recognised by comparing it with a strided view of c^|i-j|
(``gram._gram_view``) a few rows at a time, with no n x n temporary;
``collective_summary``'s factor is the upper triangle of the same view.
Any other G takes one thin LAPACK SVD of B per step: the dense core.  B has
one rank rule, in ``_steered_svd``: singular values at or below 1e-12 of the
largest are cut, for the dense step and for the POVM vectors alike, which
are built from the same SVD only when first read.
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
# bound (1+c)/((1-c) min w) finite, min over w > 0.  Steering weights p^2 o^2
# have o^2 within ((1+c)/(1-c))^{+-1}, so with every positive prior at least
# this no weight underflows and the bound is below
# ((1+c)/(1-c))^3 (max p / min p)^2 < 6e48 * 1e200 for c < 1.
_CHAIN_MIN_PRIOR = 1e-100
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
    iterate, with one thin SVD, the first time they are read.  The private
    ``_seed_diagonal`` is diag(M^{1/2}) at weights = priors, the diagonal of
    sqrt(W) that the square-root-measurement seed read.
    """

    success_probability: float
    iterations: int
    converged: bool
    _states: np.ndarray = field(repr=False, compare=False)
    _weights: np.ndarray = field(repr=False, compare=False)
    _seed_diagonal: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def vectors(self) -> np.ndarray:
        """g = B M^{-1/2} = U V^T for B = S diag(sqrt w) = U diag(s) V^T and
        M = B^T B, over the directions ``_steered_svd`` keeps."""
        u, _, vt = _steered_svd(self._states, self._weights)
        return u @ vt


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


def _steered_svd(states: np.ndarray, weights: np.ndarray):
    """Thin SVD (U, s, V^T) of the steered states B = S diag(sqrt w), with the
    directions whose singular value is at or below 1e-12 of the largest cut."""
    u, s, vt = np.linalg.svd(states * np.sqrt(weights), full_matrices=False)
    keep = s > _RANK_TOL * np.max(s, initial=0.0)
    return u[:, keep], s[keep], vt[keep]


def _fixed_point(states: np.ndarray, gram: np.ndarray, priors: np.ndarray, tol: float, max_iter: int):
    """The fixed-point iteration on the steered states; see optimal_povm_fixed_point.

    A step reads only diag(M^{1/2}), M = B^T B for B = S diag(sqrt w).  On the
    change-point chain (n >= 2, c = G[0, 1] in [0, 1) and G = S^T S within
    1e-12 of max|G| of c^|i-j|, checked by ``_on_chain`` in row blocks) with
    every positive prior at least 1e-100, ``gram._chain_root_diagonal`` gives
    it and the states are not read.  Any other G, n = 1 or a positive prior
    below 1e-100 takes one ``_steered_svd`` of B per step, the same rank cut
    the POVM vectors make, and sums s_i V_ki^2 over the directions it keeps.
    Returns (value, iterations, converged, weights, seed diagonal): the
    steering weights of the returned iterate and diag(M^{1/2}) at weights =
    priors, the square-root-measurement seed's.
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

    def root_diagonal(weights: np.ndarray) -> np.ndarray:
        if on_chain:
            return _chain_root_diagonal(weights, c)
        _, s, vt = _steered_svd(states, weights)
        return s @ vt**2

    def overlaps_at(diagonal: np.ndarray, weights: np.ndarray) -> np.ndarray:
        return np.divide(diagonal, np.sqrt(weights), out=np.zeros(n), where=weights > 0.0)

    # square root measurement: steering weights equal to the priors
    weights = priors
    seed_diagonal = root_diagonal(weights)
    overlaps = overlaps_at(seed_diagonal, weights)
    success = float((priors * overlaps**2).sum())
    best, best_success = weights, success

    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        weights = (priors * overlaps) ** 2
        weights /= weights.max()
        overlaps = overlaps_at(root_diagonal(weights), weights)
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
    return success, iterations, converged, weights, seed_diagonal


def optimal_povm_fixed_point(
    states: np.ndarray,
    priors: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> PovmSolverResult:
    """Fixed-point iteration for the minimum-error POVM; it stops on small gain.

    Seeds with the square root measurement, then repeatedly sets each
    element to w_k R^{-1} |psi_k><psi_k| R^{-1}, with steering weights
    w_k = p_k^2 <psi_k|E_k|psi_k> and R^2 = sum_j w_j |psi_j><psi_j|: the
    Jezek-Rehacek-Fiurasek step for pure states.  The loop stops once the
    gain drops below tol; a step that lowers the value by more than 1e-12
    ends it with converged=False and the best iterate returned.  The states
    and their Gram matrix S^T S must be finite, the states 2-D, tol > 0 and
    max_iter an integer >= 1.  With priors (0.3, 0, 0.4, 0.3) at n=4, c=0.6
    the value climbs from the square-root measurement's 0.907941693817 to
    0.908410104217 in 5 iterations.

    With steering weights w, scaled to max 1, B = S diag(sqrt w) and
    M = B^T B = sqrt(w_i) G_ij sqrt(w_j), the elements are E_k = g_k g_k^T
    with g = B M^{-1/2}, and <psi_k|g_k> = (M^{1/2})_kk / sqrt(w_k), so a
    step reads only diag(M^{1/2}).  When G = S^T S is the change-point Gram
    matrix (n >= 2, c = G[0, 1] in [0, 1), G within 1e-12 of max|G| of
    c^|i-j|) and every positive prior is at least 1e-100, a step is the
    O(n N) chain kernel on G and no decomposition; otherwise it is one thin
    SVD B = U diag(s) V^T, cut at 1e-12 of the largest singular value, and
    (M^{1/2})_kk = sum_i s_i V_ki^2.  The vectors g = U V^T are formed when
    first read, from one thin SVD of B at the returned steering weights with
    the same cut, so they resolve the identity on the span the steps kept.
    """
    states = np.asarray(states, dtype=float)
    if states.ndim != 2:
        raise ValueError(f"states must be 2-D, one column per state; got shape {states.shape}")
    priors = _checked_priors(priors, states.shape[1])
    # a NaN or inf state reaches the diagonal of G, so one check covers both
    with np.errstate(over="ignore", invalid="ignore"):
        gram = states.T @ states
    if not np.isfinite(gram).all():
        raise ValueError("states and their Gram matrix S^T S must be finite")
    success, iterations, converged, weights, seed_diagonal = _fixed_point(states, gram, priors, tol, max_iter)
    return PovmSolverResult(success_probability=success, iterations=iterations, converged=converged,
                            _states=states, _weights=weights, _seed_diagonal=seed_diagonal)


def collective_summary(
    n: int,
    c: float,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> CollectiveSummary:
    """All collective figures at one (n, c) point under uniform priors.

    No n x n root and no eigendecomposition: W = G/n has the eigenvalues
    lambda_l/n of G, so tr sqrt(W) and lambda_max come from the closed-form
    spectrum.  The solver is fed the triangular Gram-Schmidt factor R of G,
    G = R^T R: row 1 of R is row 1 of G, and row i >= 2 is sqrt(1-c^2) times
    the upper part of row i of G.  So it runs on the chain core, and its
    square-root-measurement seed, the chain kernel at w = 1/n, is the
    diag sqrt(W) that the bounds read: one kernel call per fixed-point step
    and none besides.
    """
    spectrum = solve_spectrum(n, c)
    uniform = np.full(n, 1.0 / n)
    # the public solver on R, not _fixed_point on G: perfbench/selftest.py
    # counts one traced optimal_povm_fixed_point call per sweep point
    factor = np.triu(_gram_view(n, c))
    factor[1:] *= math.sqrt((1.0 - c) * (1.0 + c))
    result = optimal_povm_fixed_point(factor, uniform, tol=tol, max_iter=max_iter)
    lower, srm, upper = _bounds(n, float(np.sqrt(spectrum.lambdas / n).sum()),
                                result._seed_diagonal, float(spectrum.lambdas.max()) / n)
    return CollectiveSummary(
        n=n,
        c=c,
        lower_bound=lower,
        srm=srm,
        fixed_point_opt=result.success_probability,
        upper_bound=upper,
        asymptotic=asymptotic_pmax(c),
    )
