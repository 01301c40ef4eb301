"""Collective-measurement figures of merit.

Prior-weighted Gram matrix, the trace-square-root lower/upper bounds on the
optimal identification probability, the square-root-measurement value, the
closed-form large-n asymptote, and a fixed-point solver for the optimal POVM.
The solver stops when its gain falls below a tolerance; it is not monotone,
and a step that lowers the value ends it unconverged at the best iterate.

Every square root comes from ``gram._symmetric_root``, and the bounds exist
once, in the three bound functions; ``collective_summary`` applies them to
W = G/n built from the closed-form spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateEnsembleError
from .gram import _RANK_TOL, _symmetric_root, build_gram, solve_spectrum
from .special import elliptic_k

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


@dataclass(frozen=True)
class WeightedGram:
    """Prior-weighted Gram matrix W_ij = sqrt(p_i p_j) G_ij and derived data.

    q is the probability vector diag(sqrt(W))/tr(sqrt(W)); lambda_max the
    largest eigenvalue of W.  rank_deficient flags a numerically singular W
    (some prior zero, or overlaps collapsing the span).
    """

    n: int
    matrix: np.ndarray
    sqrt_matrix: np.ndarray
    q: np.ndarray
    lambda_max: float
    rank_deficient: bool

    @property
    def sqrt_trace(self) -> float:
        return float(np.trace(self.sqrt_matrix))


@dataclass(frozen=True)
class PovmSolverResult:
    """Outcome of the fixed-point POVM iteration.

    The optimal elements are rank one, E_k = g_k g_k^T, so only the vectors
    are stored: vectors[:, k] is g_k, in the coordinates of the states.
    """

    success_probability: float
    vectors: np.ndarray
    iterations: int
    residual: float
    converged: bool

    @property
    def povm(self) -> np.ndarray:
        """Dense elements, shape (n, d, d); povm[k] is the element for guess k."""
        return np.einsum("ik,jk->kij", self.vectors, self.vectors)


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
    if np.any(priors < 0.0) or abs(priors.sum() - 1.0) > _PRIOR_TOL:
        raise ValueError("priors must be nonnegative and sum to 1")
    return priors


def weighted_gram(gram: np.ndarray, priors: np.ndarray) -> WeightedGram:
    """Weight the Gram matrix by priors and take its square root.

    The square root comes from LAPACK's symmetric eigensolver (numpy eigh);
    eigenvalues below 1e-12 of the largest flag rank deficiency, and negative
    ones are clamped to zero.
    """
    gram = np.asarray(gram, dtype=float)
    root_p = np.sqrt(_checked_priors(priors, gram.shape[0]))
    w = root_p[:, np.newaxis] * gram * root_p[np.newaxis, :]
    root, q, lambda_max, rank_deficient = _symmetric_root(*np.linalg.eigh(w))
    return WeightedGram(n=w.shape[0], matrix=w, sqrt_matrix=root.matrix, q=q,
                        lambda_max=lambda_max, rank_deficient=rank_deficient)


def success_lower_bound(weighted: WeightedGram) -> float:
    """(tr sqrt(W))^2 / n: achievable, hence a lower bound on the optimum."""
    return weighted.sqrt_trace**2 / weighted.n


def success_upper_bound(weighted: WeightedGram) -> float:
    """Lower bound plus sqrt(n lambda_max) * l1-distance of q from uniform."""
    deviation = float(np.abs(weighted.q - 1.0 / weighted.n).sum())
    return success_lower_bound(weighted) + math.sqrt(weighted.n * weighted.lambda_max) * deviation


def srm_success(weighted: WeightedGram) -> float:
    """Success probability of the square root measurement: sum_k (sqrt W)_kk^2."""
    return float((np.diag(weighted.sqrt_matrix) ** 2).sum())


def asymptotic_pmax(c: float) -> float:
    """Large-n optimal identification probability 4(1-c^2)/pi^2 * K(c^2)^2.

    Returns 1 at c=0 (orthogonal states) and 0 for c >= 1, where the states
    become indistinguishable and the success probability vanishes as 1/n.
    """
    if c < 0.0:
        raise ValueError(f"overlap c must be >= 0, got {c}")
    if c >= 1.0:
        return 0.0
    k = elliptic_k(c * c)
    return 4.0 * (1.0 - c * c) / math.pi**2 * k * k


def embed_states(gram: np.ndarray) -> np.ndarray:
    """Coordinates of the source states in an orthonormal basis of their span.

    Returns sqrt(G); column k is the k-th state, so pairwise inner products
    reproduce the Gram matrix exactly.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(np.asarray(gram, dtype=float))
    root, _, _, rank_deficient = _symmetric_root(eigenvalues, eigenvectors)
    if rank_deficient:
        raise DegenerateEnsembleError(
            f"Gram matrix is rank deficient (min eigenvalue {eigenvalues[0]:.3e})"
        )
    return root.matrix


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
    ends it with converged=False and the best iterate returned.  The iteration
    is not monotone: with priors (0.3, 0, 0.4, 0.3) at n=4, c=0.6 the first
    step lowers the value, so the result is the square-root-measurement value
    0.907941693817 after 1 iteration.

    The iteration runs in Gram form.  With steering weights w, B = S diag(sqrt w)
    and M = B^T B = sqrt(w_i) G_ij sqrt(w_j), the elements are E_k = g_k g_k^T
    with g = B M^{-1/2}, and <psi_k|g_k> = (M^{1/2})_kk / sqrt(w_k).  A step is
    one n x n eigendecomposition of M; the vectors g are formed once at the end.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    states = np.asarray(states, dtype=float)
    n = states.shape[1]
    priors = _checked_priors(priors, n)
    gram = states.T @ states

    def steer(weights: np.ndarray):
        # M shares its nonzero spectrum with the state-space aggregate
        # B B^T; pseudo-invert anything below 1e-12 of the top eigenvalue
        root_w = np.sqrt(weights)
        vals, vecs = np.linalg.eigh(root_w[:, np.newaxis] * gram * root_w)
        kept = vals > _RANK_TOL * max(float(vals[-1]), 0.0)
        root_vals = np.sqrt(np.where(kept, vals, 0.0))
        overlaps = np.divide(
            (vecs**2) @ root_vals, root_w, out=np.zeros(n), where=root_w > 0.0
        )
        return overlaps, (root_w, vecs, root_vals)

    # square root measurement: steering weights equal to the priors
    overlaps, current = steer(priors)
    success = float((priors * overlaps**2).sum())
    best, best_success = current, success

    iterations = 0
    residual = math.inf
    converged = False
    for iterations in range(1, max_iter + 1):
        overlaps, current = steer(priors * overlaps**2)
        new_success = float((priors * overlaps**2).sum())
        gain = new_success - success
        success = new_success
        if success > best_success:
            best, best_success = current, success
        residual = abs(gain)
        if gain < tol:
            converged = gain > -1e-12
            break
    if not converged:
        current, success = best, best_success

    root_w, vecs, root_vals = current
    inv_root = np.divide(1.0, root_vals, out=np.zeros(n), where=root_vals > 0.0)
    vectors = (states * root_w) @ (vecs * inv_root) @ vecs.T
    return PovmSolverResult(
        success_probability=success,
        vectors=vectors,
        iterations=iterations,
        residual=abs(residual),
        converged=converged,
    )


def collective_summary(
    n: int,
    c: float,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> CollectiveSummary:
    """All collective figures at one (n, c) point under uniform priors.

    No numerical eigensolver runs: W = G/n comes from the closed-form spectrum,
    with sqrt(W) = sqrt(G)/sqrt(n), and the solver is fed the states sqrt(G).
    """
    spectrum = solve_spectrum(n, c)
    root, q, lambda_max, rank_deficient = _symmetric_root(spectrum.lambdas, spectrum.eigvecs)
    uniform = WeightedGram(n=n, matrix=build_gram(n, c) / n,
                           sqrt_matrix=root.matrix / math.sqrt(n), q=q,
                           lambda_max=lambda_max / n, rank_deficient=rank_deficient)
    result = optimal_povm_fixed_point(root.matrix, np.full(n, 1.0 / n), tol=tol, max_iter=max_iter)
    return CollectiveSummary(
        n=n,
        c=c,
        lower_bound=success_lower_bound(uniform),
        srm=srm_success(uniform),
        fixed_point_opt=result.success_probability,
        upper_bound=success_upper_bound(uniform),
        asymptotic=asymptotic_pmax(c),
    )
