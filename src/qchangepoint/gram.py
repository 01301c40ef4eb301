"""Gram matrix of the source states and its exact spectral structure.

The n source states (change at position k) have pairwise overlaps
c^{|i-j|}, a symmetric Toeplitz Gram matrix whose inverse is tridiagonal up
to two corner corrections.  Eigenvalue angles are the zeros of the boundary
polynomial; each has an analytic bracket of width pi/(n+1).  All n are
solved at once by safeguarded Newton inside those brackets and finished by
bisection from a bracket a few ulps wide, to full float precision, in a
form of the phase equation that keeps relative precision as c -> 1.  The
eigenvectors are sines with a closed-form norm, so a caller builds only the
rows it reads; the full matrix is formed on first use.  The collective
figures of the chain read only the diagonal of a square root,
diag((D G D)^{1/2}) for a nonnegative diagonal D; ``_chain_root_diagonal``
gives it in O(n N) from the tridiagonal inverse of G and an N-node quadrature
(``_sqrt_rule``), with no n x n array.  The full root, ``_symmetric_root``
(V diag(sqrt(lambda)) V^T and nothing else), is built from this spectrum
for ``sqrt_gram`` and from LAPACK's eigenpairs for any other Gram matrix.
A round-robin Jacobi eigensolver is the test oracle only.  It stays here
only because ``perfbench/tracing.py`` lists it by name, which
``tests/test_api.py`` checks; the benchmark's workloads make no call to it.
The other oracles (the boundary polynomial, the bracket-only bisection, the
I_r quadrature) live in the tests.  The package's argument checks live
here: ``_integer``, ``_check_overlap`` (n, c), ``_real_array`` and
``_symmetric_matrix``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .special import elliptic_k

__all__ = [
    "DegenerateEnsembleError",
    "GramSpectrum",
    "build_gram",
    "solve_spectrum",
    "sqrt_gram",
    "jacobi_eigensolve",
    "sqrt_trace_limit",
    "diag_deviation_asymptotic",
]

_JACOBI_OFF_TOL = 1e-12
_JACOBI_MAX_SWEEPS = 60
# Newton on the eigen-angles stops once no step moves more than _NEWTON_ULPS
# ulps, the rounding noise of the phase equation, and brackets each iterate
# by as many ulps on either side; the slowest landing seen, theta_1 at c one
# ulp below 1, takes 31 steps
_NEWTON_STEPS = 40
_NEWTON_ULPS = 4.0


class DegenerateEnsembleError(ValueError):
    """The source states are linearly dependent: c >= 1, or a singular Gram matrix."""


@dataclass(frozen=True)
class GramSpectrum:
    """Exact eigendecomposition of the n x n Gram matrix.

    thetas are sorted ascending, so lambdas come out descending.  Entry j
    (1-based) of eigenvector l is sin(j theta_l + phases_l) / norms_l, the
    norm in closed form.  eigenvector_rows(count) builds the first count
    rows of the eigenvector matrix; eigvecs builds all n on first use and
    keeps them (the eigenvectors as columns, in theta order).
    """

    n: int
    c: float
    thetas: np.ndarray
    lambdas: np.ndarray
    phases: np.ndarray
    norms: np.ndarray

    def eigenvector_rows(self, count: int) -> np.ndarray:
        """Rows 1..count of the eigenvector matrix, shape (count, n); 0 <= count <= n."""
        count = _integer("count", count)
        if not 0 <= count <= self.n:
            raise ValueError(f"count must lie in [0, n={self.n}], got {count}")
        j = np.arange(1, count + 1)
        return np.sin(np.outer(j, self.thetas) + self.phases) / self.norms

    @cached_property
    def eigvecs(self) -> np.ndarray:
        """The normalized eigenvectors as columns."""
        return self.eigenvector_rows(self.n)


def _integer(name: str, value) -> int:
    """``value`` as an int, or a TypeError that names the argument."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _check_overlap(c: float, n: int = 1) -> int:
    """Check the (n, c) rule shared by every entry point; returns n as an int."""
    n = _integer("n", n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not c >= 0.0:
        raise ValueError(f"overlap c must be >= 0, got {c}")
    if c >= 1.0:
        raise DegenerateEnsembleError(
            f"overlap c must be < 1 for linearly independent states, got {c}"
        )
    return n


def _real_array(name: str, value) -> np.ndarray:
    """``value`` as a float array, or a ValueError that names the argument
    if it is complex: the cast would drop the imaginary parts."""
    a = np.asarray(value)
    if np.iscomplexobj(a):
        raise ValueError(f"{name} must be real, got dtype {a.dtype}")
    return a.astype(float, copy=False)


def _symmetric_matrix(name: str, matrix) -> np.ndarray:
    """``matrix`` as a real float array, checked square, finite and symmetric
    to 1e-12 max(max|a|, 1); eigh would read only its lower triangle."""
    a = _real_array(name, matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if np.abs(a - a.T).max(initial=0.0) > 1e-12 * max(np.abs(a).max(initial=0.0), 1.0):
        raise ValueError("matrix is not symmetric")
    return a


def _gram_view(n: int, c: float) -> np.ndarray:
    """G_ij = c^{|i-j|} as a read-only strided view of 2n - 1 powers: row i
    is the length-n window of (c^{n-1}, ..., c, 1, c, ..., c^{n-1}) that
    starts at n-1-i.  n and c are not checked."""
    powers = c ** np.arange(n, dtype=float)
    return sliding_window_view(np.concatenate((powers[:0:-1], powers)), n)[::-1]


def build_gram(n: int, c: float) -> np.ndarray:
    """Toeplitz Gram matrix G_ij = c^{|i-j|} of the n source states.

    The matrix is copied out of one strided view of 2n - 1 powers of c.
    """
    n = _check_overlap(c, n)
    return _gram_view(n, c).copy()


def solve_spectrum(n: int, c: float) -> GramSpectrum:
    """Eigendecomposition of the Gram matrix from the boundary phase.

    The angle theta_l is the one root of the phase equation
    (n+1) theta + 2 phi(theta) = l pi, phi = atan2(c sin(theta), 1 - c cos(theta)),
    inside ((l-1) pi/(n+1), l pi/(n+1)]; the phase has slope >= n there.  It
    is solved on the same equation written with the complementary angle
    pi/2 - phi: (n+1) theta - 2 atan2(1 - c cos(theta), c sin(theta)) = (l-1) pi.
    At the smallest angle both terms are then small and keep their relative
    precision as c -> 1, where theta_1 ~ sqrt(1-c).  All n angles take
    Newton steps at once from their bracket midpoints, a step that leaves
    the bracket known so far being a halving instead, until no step moves
    more than 4 ulps.  Each iterate then gets a bracket 4 ulps to either
    side, kept where its lower end evaluates below the root and its upper
    end does not (or is the analytic end); an angle whose bracket fails
    keeps its analytic one.  All brackets are then bisected at once down to
    adjacent floats, and theta_l is the upper end, so every angle keeps the
    bisection's float invariant (3 to 4 rounds after Newton for n up to
    2000 and c^2 up to one ulp below 1).  Eigenvalues
    follow as (1-c^2)/(1-2c cos(theta_l)+c^2).  Both denominators are written
    without cancellation as c -> 1: 1 - c cos(theta) = (1-c) + 2c sin^2(theta/2),
    1 - 2c cos(theta) + c^2 = (1-c)^2 + 4c sin^2(theta/2), and 1 - c^2 =
    (1-c)(1+c).  Eigenvector components
    sin(j theta) - c sin((j-1) theta) equal R sin(j theta + phi) with R > 0,
    so each is one sine.  Their squared norm, sum_j sin^2(j theta + phi) =
    n/2 - sin(n theta) cos((n+1) theta + 2 phi) / (2 sin(theta)), reduces by
    the phase equation to n/2 + sin(2 psi - theta) / (2 sin(theta)) with
    psi = pi/2 - phi: no large argument and no cancellation.  So the
    spectrum costs O(n) per Newton or bisection step and no eigenvector
    entry is formed until one is read.
    """
    n = _check_overlap(c, n)
    j = np.arange(1, n + 1)

    def phase_sides(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(c sin(theta), 1 - c cos(theta)), the sides of the angle phi."""
        return c * np.sin(theta), (1.0 - c) + 2.0 * c * np.sin(0.5 * theta) ** 2

    def excess(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(n+1) theta - 2 psi - (l-1) pi, negative exactly where theta lies
        below its root, and the sides of phi at theta."""
        opposite, adjacent = phase_sides(theta)
        return (n + 1.0) * theta - 2.0 * np.arctan2(adjacent, opposite) - floor, opposite, adjacent

    floor = (j - 1) * math.pi
    lower = floor / (n + 1.0)
    upper = j * math.pi / (n + 1.0)
    # safeguarded Newton from the midpoints; the slope is (n+1) + bend,
    # bend = 2 dphi/dtheta = 2 (adjacent c cos(theta) - opposite^2) / (adjacent^2 + opposite^2)
    # with c cos(theta) = 1 - adjacent
    lo, hi, theta = lower, upper, 0.5 * (lower + upper)
    for _ in range(_NEWTON_STEPS):
        residual, opposite, adjacent = excess(theta)
        below = residual < 0.0
        lo = np.where(below, theta, lo)
        hi = np.where(below, hi, theta)
        bend = 2.0 * (adjacent * (1.0 - adjacent) - opposite**2) / (adjacent**2 + opposite**2)
        step = np.minimum(theta - residual / ((n + 1.0) + bend), upper)
        step = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
        settled = np.abs(step - theta) <= _NEWTON_ULPS * np.spacing(step)
        theta = step
        if settled.all():
            break
    # a bracket of a few ulps about the iterate, where its ends check out;
    # the upper analytic end counts as not below, as in the bisection
    width = _NEWTON_ULPS * np.spacing(theta)
    lo = np.maximum(theta - width, lower)
    hi = np.minimum(theta + width, upper)
    landed = (excess(lo)[0] < 0.0) & ((hi == upper) | (excess(hi)[0] >= 0.0))
    lo = np.where(landed, lo, lower)
    hi = np.where(landed, hi, upper)
    while True:
        mid = 0.5 * (lo + hi)
        inside = (lo < mid) & (mid < hi)
        if not inside.any():
            break
        below = excess(mid)[0] < 0.0
        lo = np.where(inside & below, mid, lo)
        hi = np.where(inside & ~below, mid, hi)
    thetas = hi

    lambdas = (1.0 - c) * (1.0 + c) / ((1.0 - c) ** 2 + 4.0 * c * np.sin(0.5 * thetas) ** 2)
    opposite, adjacent = phase_sides(thetas)
    complement = np.arctan2(adjacent, opposite)
    norms = np.sqrt(0.5 * n + np.sin(2.0 * complement - thetas) / (2.0 * np.sin(thetas)))
    return GramSpectrum(n=n, c=c, thetas=thetas, lambdas=lambdas,
                        phases=np.arctan2(opposite, adjacent), norms=norms)


def _sqrt_rule(low: float, high: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes s_j > 0 and weights a_j > 0 with sum_j a_j / (mu + s_j) = mu^{-1/2}
    to about 1e-15 relative for every mu in [low, high], 0 < low <= high.

    mu^{-1/2} = (2/pi) int_0^inf dt / (mu + t^2), and t = sqrt(low) sc(u | k)
    with k'^2 = low/high maps it onto u in (0, K), where the integrand is
    even about both ends and its poles lie on Im u = K' for every such mu
    (Hale, Higham & Trefethen, SIAM J. Numer. Anal. 46, 2505 (2008)).  So
    the N-point midpoint rule errs like exp(-2 pi^2 N / (ln(high/low) + 2.8)),
    and N is the least count that puts this below 2^-53.  sc comes from
    tan(v) through descending Landen steps, each one positive arithmetic
    on t = sc alone: k_{i+1} = (k_i / (1 + k'_i))^2 and
    sc(u | k_i) = (1 + k_{i+1}) t sqrt((1 + t^2) / (1 + k'_{i+1}^2 t^2)),
    t = sc(u / (1 + k_{i+1}) | k_{i+1}), with K = (pi/2) prod (1 + k_i).
    Only the nodes u <= K/2 are evaluated; u and K - u share t, since
    sc(K - u) = 1 / (k' sc(u)), which keeps the large nodes accurate as
    k' -> 0.
    """
    k_prime = math.sqrt(low / high)
    modulus, complement = math.sqrt((high - low) / high), k_prime
    steps = []
    quarter_period = math.pi / 2.0
    while modulus > 1e-9:  # below it sn = sin to 1e-18
        modulus, complement = ((modulus / (1.0 + complement)) ** 2,
                               2.0 * math.sqrt(complement) / (1.0 + complement))
        steps.append((modulus, complement))
        quarter_period *= 1.0 + modulus
    count = math.ceil((math.log(high / low) + 2.8) * 53.0 * math.log(2.0) / (2.0 * math.pi**2))
    t = np.tan((np.arange((count + 1) // 2) + 0.5) * (math.pi / 2.0) / count)
    for modulus, complement in reversed(steps):
        t = (1.0 + modulus) * t * np.sqrt((1.0 + t * t) / (1.0 + (complement * t) ** 2))
    # dt/du = sqrt(low) dn/cn^2, with cn^2 = 1/(1 + t^2), dn^2 = (1 + k'^2 t^2) cn^2
    spread = 2.0 / math.pi * quarter_period / count * np.sqrt((1.0 + t * t) * (1.0 + (k_prime * t) ** 2))
    upper = t[: count // 2] ** 2
    nodes = np.concatenate((low * t * t, high / upper))
    weights = np.concatenate((math.sqrt(low) * spread, math.sqrt(high) * spread[: count // 2] / upper))
    return nodes, weights


def _chain_root_diagonal(weights: np.ndarray, c: float) -> np.ndarray:
    """diag(M^{1/2}) for M = D G D, G = build_gram(n, c), D = diag(sqrt(weights)).

    Every weight must be >= 0, and ((1+c)/(1-c))^2 max w / min w finite for
    the least positive w.  G^{-1} (1 - c^2) = c L + E, with L the path
    Laplacian and E = diag(1-c, (1-c)^2, ..., (1-c)^2, 1-c), so by
    push-through, even for a singular D, M (1 + s M)^{-1} = (1 - c^2) D A_s^{-1} D
    with the tridiagonal A_s = c L + Delta_s, Delta_s = E + s (1 - c^2) W.
    Forward pivots f_i = Delta_i + c f_{i-1} / (c + f_{i-1}) and the same
    run backward give 1 / (A_s^{-1})_ii as Delta_i plus what each side
    passes on, without one subtraction, so the diagonal keeps its relative
    precision up to c one ulp below 1, and is exactly 0 at zero weight.
    M^{1/2} = (2/pi) int_0^inf M (1 + t^2 M)^{-1} dt is then summed over the
    nodes of ``_sqrt_rule`` on (1-c)/((1+c) max w) and (1+c)/((1-c) min w),
    which bound M's inverse nonzero spectrum by interlacing.  Both sweeps run
    together, one Python step per index over all nodes: O(n N) time and memory.
    """
    n = weights.size
    if n == 1 or c == 0.0:
        return np.sqrt(weights)
    scale = weights.max()  # diag(M^{1/2}) is homogeneous of degree 1/2 in the weights
    w = weights / scale
    ratio = (1.0 - c) / (1.0 + c)
    nodes, node_weights = _sqrt_rule(ratio, 1.0 / (ratio * np.min(w, where=w > 0.0, initial=1.0)))
    ends = np.full(n, (1.0 - c) ** 2)
    ends[0] = ends[-1] = 1.0 - c
    delta = ends[:, np.newaxis] + ((1.0 - c) * (1.0 + c) * w)[:, np.newaxis] * nodes
    # column block 0 runs the forward sweep, block 1 the backward one; row i
    # of ``passed`` is c f / (c + f) = 1 / (1/c + 1/f) of the sweep's i-th pivot
    sweeps = np.concatenate((delta, delta[::-1]), axis=1)
    passed = np.empty((n - 1, sweeps.shape[1]))
    pivot = sweeps[0].copy()
    # the loop is interpreter-bound: local ufuncs, positional outputs and a
    # vector 1/c keep each step to four plain ufunc calls
    inverse_c = np.full_like(pivot, 1.0 / c)
    reciprocal, add = np.reciprocal, np.add
    for row, out in zip(sweeps[1:], passed):
        reciprocal(pivot, pivot)
        add(pivot, inverse_c, pivot)
        reciprocal(pivot, out)
        add(row, out, pivot)
    size = nodes.size
    delta[1:] += passed[:, :size]
    delta[:-1] += passed[::-1, size:]
    return (1.0 - c) * (1.0 + c) * math.sqrt(scale) * w * ((1.0 / delta) @ node_weights)


def _symmetric_root(eigenvalues: np.ndarray, eigenvectors: np.ndarray) -> np.ndarray:
    """Root V diag(sqrt(lambda)) V^T, symmetrised; negative eigenvalues count as zero."""
    root_values = np.sqrt(np.clip(eigenvalues, 0.0, None))
    root = eigenvectors @ (root_values[:, np.newaxis] * eigenvectors.T)
    return 0.5 * (root + root.T)


def sqrt_gram(spectrum: GramSpectrum) -> np.ndarray:
    """Matrix square root synthesized from the spectral decomposition."""
    return _symmetric_root(spectrum.lambdas, spectrum.eigvecs)


def jacobi_eigensolve(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi diagonalization of a real symmetric matrix.

    Independent oracle for the closed-form spectrum: sweeps of plane
    rotations until the off-diagonal Frobenius norm falls below 1e-12.  A
    sweep runs in round-robin order (Brent & Luk, SIAM J. Sci. Stat. Comput.
    6, 1985): each round pairs the indices disjointly, so its n/2 rotations
    commute and are applied at once.  RuntimeError if 60 sweeps fall short.
    Returns eigenvalues ascending and the matching eigenvectors as columns.
    """
    a = _symmetric_matrix("matrix", matrix)
    n = a.shape[0]
    skip_tol = 1e-16 * max(np.abs(a).max(initial=0.0), 1.0)
    a = 0.5 * (a + a.T)
    vecs = np.eye(n)
    # tournament pairings: index 0 stays, the rest rotate one place per round;
    # with n odd, the extra index n sits out its round
    m = n + n % 2
    seats = np.arange(m)
    rounds = []
    for _ in range(m - 1):
        p, q = seats[: m // 2], seats[: m // 2 - 1 : -1]
        playing = (p < n) & (q < n)
        rounds.append((p[playing], q[playing]))
        seats = np.concatenate(([0], np.roll(seats[1:], 1)))

    for _ in range(_JACOBI_MAX_SWEEPS):
        off = math.sqrt(2.0 * (np.triu(a, 1) ** 2).sum())
        if off < _JACOBI_OFF_TOL:
            break
        for p, q in rounds:
            apq = a[p, q]
            active = np.abs(apq) > skip_tol
            tau = (a[q, q] - a[p, p]) / (2.0 * np.where(active, apq, 1.0))
            t = np.where(active, np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(1.0, tau)), 0.0)
            cos_r = 1.0 / np.hypot(1.0, t)
            sin_r = t * cos_r
            for x in (a, a.T, vecs):  # columns, then rows, of a; columns of vecs
                x_p, x_q = x[:, p], x[:, q]
                x[:, p], x[:, q] = cos_r * x_p - sin_r * x_q, sin_r * x_p + cos_r * x_q
            a[p, q] = a[q, p] = 0.0
    else:
        raise RuntimeError(
            f"Jacobi sweeps did not reach off-diagonal norm {_JACOBI_OFF_TOL} "
            f"within {_JACOBI_MAX_SWEEPS} sweeps"
        )
    eigenvalues = np.diag(a).copy()
    order = np.argsort(eigenvalues)
    return eigenvalues[order], vecs[:, order]


def sqrt_trace_limit(c: float) -> float:
    """Limit of tr(sqrt(G))/n for n -> infinity: (2 sqrt(1-c^2)/pi) K(c^2)."""
    _check_overlap(c)
    return 2.0 * math.sqrt(1.0 - c * c) / math.pi * elliptic_k(c * c)


def diag_deviation_asymptotic(k: int, c: float) -> float:
    """Large-n deviation of (sqrt(G))_kk from its limit value.

    Equals c^{2k} / (4 (1-c^2) sqrt(2 pi k^3)); decays exponentially in k.
    """
    k = _integer("k", k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_overlap(c)
    return c ** (2 * k) / (4.0 * (1.0 - c * c) * math.sqrt(2.0 * math.pi * k**3))
