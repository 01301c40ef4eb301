"""Collective-measurement figures of merit.

Prior-weighted Gram matrix, the trace-square-root lower/upper bounds on the
optimal identification probability, the square-root-measurement value, the
closed-form large-n asymptote (gram.sqrt_trace_limit squared), and a
fixed-point solver for the optimal POVM.
The solver stops when its gain falls below a tolerance; it is not monotone,
and a step that lowers the value ends it unconverged at the best iterate.

Every ``WeightedGram`` is built by ``_weighted`` from an eigendecomposition
of W: its square root (``gram._symmetric_root``), lambda_max and rank flag
are written there once.  ``weighted_gram`` and ``embed_states`` pass it
LAPACK's eigenpairs, ``collective_summary`` the closed-form ones of W = G/n.
The bounds exist once, in the three bound functions.  The fixed point
exists once too, in ``_fixed_point``, which needs only G and the priors;
``optimal_povm_fixed_point`` adds G = S^T S and the POVM vectors around it.
When the priors equal their reversal and G is persymmetric, as the
change-point Gram matrix is, each step splits into a reversal-even and a
reversal-odd block of about n/2 each; otherwise G is the one block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gram import (DegenerateEnsembleError, _integer, _symmetric_matrix, _symmetric_root,
                   build_gram, solve_spectrum, sqrt_trace_limit)

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
    are stored: vectors[:, k] is g_k, in the coordinates of the states.
    """

    success_probability: float
    vectors: np.ndarray
    iterations: int
    converged: bool


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


def success_lower_bound(weighted: WeightedGram) -> float:
    """(tr sqrt(W))^2 / n: achievable, hence a lower bound on the optimum."""
    return weighted.sqrt_trace**2 / weighted.n


def success_upper_bound(weighted: WeightedGram) -> float:
    """Lower bound plus sqrt(n lambda_max) * l1-distance of q from uniform,
    where q = diag(sqrt(W)) / tr(sqrt(W))."""
    diagonal = np.diag(weighted.sqrt_matrix)
    deviation = float(np.abs(diagonal / diagonal.sum() - 1.0 / weighted.n).sum())
    return success_lower_bound(weighted) + math.sqrt(weighted.n * weighted.lambda_max) * deviation


def srm_success(weighted: WeightedGram) -> float:
    """Success probability of the square root measurement: sum_k (sqrt W)_kk^2."""
    return float((np.diag(weighted.sqrt_matrix) ** 2).sum())


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


def _reversal_blocks(gram: np.ndarray, priors: np.ndarray):
    """The blocks the fixed point runs on, and the index classes they act on.

    G_ij = c^|i-j| is persymmetric (J G J = G, J the reversal).  With priors
    that equal their reversal the steering weights stay symmetric, and every
    M = sqrt(w) G sqrt(w) splits into a block on the reversal-even vectors
    (e_i + e_{n-1-i})/sqrt(2) and e_m at the middle of odd n, of size
    ceil(n/2), and one on the reversal-odd vectors (e_i - e_{n-1-i})/sqrt(2),
    of size floor(n/2) (Cantoni & Butler, Linear Algebra Appl. 13, 275 (1976)).
    Index i and its mirror then form one class, and the weights live on the
    first ceil(n/2) indices.

    Returns (blocks, classes), classes[i] being the class of index i.  Each
    block is (matrix, rows, scale): entry i of the block's basis vector j is
    scale[i] if rows[i] == j and 0 otherwise, so row i of its eigenvectors
    unfolded to full length is scale[i] * vecs[rows[i]].  Without the
    symmetry, or more than 1e-12 of max|G| away from it, G itself is the
    single block and each index is its own class.
    """
    n = gram.shape[0]
    index = np.arange(n)
    flipped = gram[::-1, ::-1]
    if (n == 1 or not np.array_equal(priors, priors[::-1])
            or np.abs(gram - flipped).max() > _RANK_TOL * np.abs(gram).max()):
        return [(gram, index, np.ones(n))], index
    half, pairs = (n + 1) // 2, n // 2
    symmetric = (gram + flipped) / 2.0
    mirrored = symmetric[:half, ::-1][:, :half]  # entry (i, j) is symmetric[i, n-1-j]
    even = symmetric[:half, :half] + mirrored
    odd = symmetric[:pairs, :pairs] - mirrored[:pairs, :pairs]
    if n % 2:
        # the middle basis vector is e_m, not a normalised pair
        even[pairs] /= math.sqrt(2.0)
        even[:, pairs] /= math.sqrt(2.0)
    mirror = index[::-1]
    classes = np.minimum(index, mirror)
    norm = np.where(index == mirror, 1.0, math.sqrt(0.5))
    # the odd vectors vanish at the middle index, whatever row it points at
    odd_rows = np.minimum(classes, pairs - 1)
    return [(even, classes, norm), (odd, odd_rows, np.sign(mirror - index) * norm)], classes


def _fixed_point(gram: np.ndarray, priors: np.ndarray, tol: float, max_iter: int):
    """The fixed-point iteration on the Gram matrix alone; see optimal_povm_fixed_point.

    Runs on the blocks of ``_reversal_blocks`` with one weight per index
    class.  Returns (value, iterations, converged, (root_w, vecs, root_vals)),
    the last being the eigendecomposition of M at the returned iterate,
    unfolded to full length.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    max_iter = _integer("max_iter", max_iter)
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    blocks, classes = _reversal_blocks(gram, priors)
    counts = np.bincount(classes).astype(float)
    size = counts.size
    priors = priors[:size]
    # each class counts once per member in the success probability
    class_priors = counts * priors

    def steer(weights: np.ndarray):
        # M shares its nonzero spectrum with the state-space aggregate
        # B B^T; pseudo-invert anything below 1e-12 of the top eigenvalue
        # over all blocks.  A block's (M^{1/2})_ii is shared by the members
        # of class i, so the diagonal is the sum over blocks over the count.
        root_w = np.sqrt(weights)
        eigs = []
        for block, _, _ in blocks:
            root = root_w[: block.shape[0]]
            eigs.append(np.linalg.eigh(root[:, np.newaxis] * block * root))
        top = max(max(float(vals[-1]), 0.0) for vals, _ in eigs)
        diagonal = np.zeros(size)
        parts = []
        for vals, vecs in eigs:
            root_vals = np.sqrt(np.where(vals > _RANK_TOL * top, vals, 0.0))
            diagonal[: vals.size] += (vecs**2) @ root_vals
            parts.append((vecs, root_vals))
        overlaps = np.divide(
            diagonal / counts, root_w, out=np.zeros(size), where=root_w > 0.0
        )
        return overlaps, (root_w, parts)

    # square root measurement: steering weights equal to the priors
    overlaps, current = steer(priors)
    success = float((class_priors * overlaps**2).sum())
    best, best_success = current, success

    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        overlaps, current = steer(priors * overlaps**2)
        new_success = float((class_priors * overlaps**2).sum())
        gain = new_success - success
        success = new_success
        if success > best_success:
            best, best_success = current, success
        if gain < tol:
            converged = gain > -1e-12
            break
    if not converged:
        current, success = best, best_success

    root_w, parts = current
    vecs = np.hstack([
        scale[:, np.newaxis] * block_vecs[rows]
        for (_, rows, scale), (block_vecs, _) in zip(blocks, parts)
    ])
    root_vals = np.concatenate([root_vals for _, root_vals in parts])
    return success, iterations, converged, (root_w[classes], vecs, root_vals)


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
    must be finite, tol > 0 and max_iter an integer >= 1.  The iteration
    is not monotone: with priors (0.3, 0, 0.4, 0.3) at n=4, c=0.6 the first
    step lowers the value, so the result is the square-root-measurement value
    0.907941693817 after 1 iteration.

    The iteration runs in Gram form.  With steering weights w, B = S diag(sqrt w)
    and M = B^T B = sqrt(w_i) G_ij sqrt(w_j), the elements are E_k = g_k g_k^T
    with g = B M^{-1/2}, and <psi_k|g_k> = (M^{1/2})_kk / sqrt(w_k).  A step is
    one n x n eigendecomposition of M, or, when the priors equal their reversal
    and G = J G J to 1e-12 of max|G| (J the reversal), one of size ceil(n/2) and
    one of size floor(n/2), about a quarter of the cost each; the vectors g are
    formed once at the end.
    """
    states = np.asarray(states, dtype=float)
    if not np.isfinite(states).all():
        raise ValueError("states must be finite")
    n = states.shape[1]
    priors = _checked_priors(priors, n)
    success, iterations, converged, (root_w, vecs, root_vals) = _fixed_point(
        states.T @ states, priors, tol, max_iter
    )
    inv_root = np.divide(1.0, root_vals, out=np.zeros(n), where=root_vals > 0.0)
    vectors = (states * root_w) @ (vecs * inv_root) @ vecs.T
    return PovmSolverResult(
        success_probability=success,
        vectors=vectors,
        iterations=iterations,
        converged=converged,
    )


def collective_summary(
    n: int,
    c: float,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> CollectiveSummary:
    """All collective figures at one (n, c) point under uniform priors.

    The bounds and the SRM come from the closed-form spectrum: W = G/n has
    the eigenvalues lambda_l/n of G and its eigenvectors.  The solver is fed
    the states sqrt(n) sqrt(W) = sqrt(G); uniform priors are
    reversal-symmetric, so it runs two half-size LAPACK eigendecompositions
    per step.
    """
    spectrum = solve_spectrum(n, c)
    uniform = _weighted(build_gram(n, c) / n, spectrum.lambdas / n, spectrum.eigvecs)
    result = optimal_povm_fixed_point(math.sqrt(n) * uniform.sqrt_matrix, np.full(n, 1.0 / n),
                                      tol=tol, max_iter=max_iter)
    return CollectiveSummary(
        n=n,
        c=c,
        lower_bound=success_lower_bound(uniform),
        srm=srm_success(uniform),
        fixed_point_opt=result.success_probability,
        upper_bound=success_upper_bound(uniform),
        asymptotic=asymptotic_pmax(c),
    )
