"""Gram matrix of the source states and its exact spectral structure.

The n source states (change at position k) have pairwise overlaps c^{|i-j|},
a symmetric Toeplitz Gram matrix whose inverse is tridiagonal up to two
corner corrections.  Eigenvalue angles are the zeros of the boundary
polynomial; each has an analytic bracket of width pi/(n+1), and all n are
bisected at once to full float precision.  Every collective figure is
read off one square-root step, ``_symmetric_root``, fed by this spectrum or
by LAPACK.  A round-robin Jacobi eigensolver is the test oracle only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.linalg import toeplitz

from .exceptions import DegenerateEnsembleError, SpectralFailureError
from .special import elliptic_k

__all__ = [
    "GramSpectrum",
    "SqrtGram",
    "build_gram",
    "gram_inverse",
    "solve_spectrum",
    "sqrt_gram",
    "jacobi_eigensolve",
    "sqrt_trace_limit",
    "diag_deviation_asymptotic",
    "integral_i_r",
]

_JACOBI_OFF_TOL = 1e-12
_JACOBI_MAX_SWEEPS = 60
_RANK_TOL = 1e-12


@dataclass(frozen=True)
class GramSpectrum:
    """Exact eigendecomposition of the n x n Gram matrix.

    thetas are sorted ascending, so lambdas come out descending; eigvecs
    holds the normalized eigenvectors as columns, matching the theta order.
    """

    n: int
    c: float
    thetas: np.ndarray
    lambdas: np.ndarray
    eigvecs: np.ndarray


@dataclass(frozen=True)
class SqrtGram:
    """Matrix square root of the Gram matrix with its diagonal and trace."""

    matrix: np.ndarray
    diag: np.ndarray
    trace: float


def _check_overlap(c: float, n: int = 1) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if c < 0.0:
        raise ValueError(f"overlap c must be >= 0, got {c}")
    if c >= 1.0:
        raise DegenerateEnsembleError(
            f"overlap c must be < 1 for linearly independent states, got {c}"
        )


def build_gram(n: int, c: float) -> np.ndarray:
    """Toeplitz Gram matrix G_ij = c^{|i-j|} of the n source states."""
    _check_overlap(c, n)
    return toeplitz(c ** np.arange(n, dtype=float))


def gram_inverse(n: int, c: float) -> np.ndarray:
    """Closed-form inverse of the Gram matrix.

    G^{-1} = (1+c^2)/(1-c^2) I - c/(1-c^2) H where H has unit first
    off-diagonals and corner entries c at (1,1) and (n,n).
    """
    _check_overlap(c, n)
    h = np.zeros((n, n))
    off = np.arange(n - 1)
    h[off, off + 1] = 1.0
    h[off + 1, off] = 1.0
    h[0, 0] += c
    h[n - 1, n - 1] += c
    return ((1.0 + c * c) * np.eye(n) - c * h) / (1.0 - c * c)


def solve_spectrum(n: int, c: float) -> GramSpectrum:
    """Eigendecomposition of the Gram matrix from the boundary phase.

    The angle theta_l is the one root of the phase equation
    (n+1) theta + 2 phi(theta) = l pi, phi = atan2(c sin(theta), 1 - c cos(theta)),
    inside ((l-1) pi/(n+1), l pi/(n+1)]; the phase has slope >= n there.  All
    n brackets are bisected at once down to adjacent floats.  Eigenvalues
    follow as (1-c^2)/(1-2c cos(theta_l)+c^2).  Both denominators are written
    without cancellation as c -> 1: 1 - c cos(theta) = (1-c) + 2c sin^2(theta/2),
    1 - 2c cos(theta) + c^2 = (1-c)^2 + 4c sin^2(theta/2), and 1 - c^2 =
    (1-c)(1+c).  Eigenvector components
    sin(j theta) - c sin((j-1) theta) equal R sin(j theta + phi) with R > 0,
    so they are built from one sine each and normalized by their summed norm.
    """
    _check_overlap(c, n)
    j = np.arange(1, n + 1)

    def boundary_phase(theta: np.ndarray) -> np.ndarray:
        return np.arctan2(c * np.sin(theta), (1.0 - c) + 2.0 * c * np.sin(0.5 * theta) ** 2)

    target = j * math.pi
    lo = (j - 1) * math.pi / (n + 1.0)
    hi = target / (n + 1.0)
    while True:
        mid = 0.5 * (lo + hi)
        inside = (lo < mid) & (mid < hi)
        if not inside.any():
            break
        below = (n + 1.0) * mid + 2.0 * boundary_phase(mid) < target
        lo = np.where(inside & below, mid, lo)
        hi = np.where(inside & ~below, mid, hi)
    thetas = hi

    lambdas = (1.0 - c) * (1.0 + c) / ((1.0 - c) ** 2 + 4.0 * c * np.sin(0.5 * thetas) ** 2)
    vecs = np.sin(np.outer(j, thetas) + boundary_phase(thetas))
    vecs /= np.linalg.norm(vecs, axis=0)
    return GramSpectrum(n=n, c=c, thetas=thetas, lambdas=lambdas, eigvecs=vecs)


def _symmetric_root(
    eigenvalues: np.ndarray, eigenvectors: np.ndarray
) -> tuple[SqrtGram, np.ndarray, float, bool]:
    """Root V diag(sqrt(lambda)) V^T, symmetrised, with its diagonal and trace;
    q = diag/diag.sum(), lambda_max, and the rank flag lambda_min <= 1e-12
    max(lambda_max, 1).  Negative eigenvalues count as zero."""
    lambda_max = float(eigenvalues.max())
    root_values = np.sqrt(np.clip(eigenvalues, 0.0, None))
    root = eigenvectors @ (root_values[:, np.newaxis] * eigenvectors.T)
    root = 0.5 * (root + root.T)
    diag = np.diag(root).copy()
    rank_deficient = bool(eigenvalues.min() <= _RANK_TOL * max(lambda_max, 1.0))
    return (SqrtGram(matrix=root, diag=diag, trace=float(root_values.sum())),
            diag / diag.sum(), lambda_max, rank_deficient)


def sqrt_gram(spectrum: GramSpectrum) -> SqrtGram:
    """Matrix square root synthesized from the spectral decomposition."""
    return _symmetric_root(spectrum.lambdas, spectrum.eigvecs)[0]


def jacobi_eigensolve(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi diagonalization of a real symmetric matrix.

    Independent oracle for the closed-form spectrum: sweeps of plane
    rotations until the off-diagonal Frobenius norm falls below 1e-12.  A
    sweep runs in round-robin order (Brent & Luk, SIAM J. Sci. Stat. Comput.
    6, 1985): each round pairs the indices disjointly, so its n/2 rotations
    commute and are applied at once.
    Returns eigenvalues ascending and the matching eigenvectors as columns.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = np.abs(a).max() if a.size else 0.0
    if not np.allclose(a, a.T, atol=1e-12 * max(scale, 1.0), rtol=0.0):
        raise ValueError("matrix is not symmetric")
    n = a.shape[0]
    a = 0.5 * (a + a.T)
    vecs = np.eye(n)
    skip_tol = 1e-16 * max(scale, 1.0)
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
        raise SpectralFailureError(
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
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_overlap(c)
    return c ** (2 * k) / (4.0 * (1.0 - c * c) * math.sqrt(2.0 * math.pi * k**3))


def integral_i_r(r: int, c: float, mode: str = "exact") -> float:
    """Oscillatory integral of cos(r theta)/(1-2c cos(theta)+c^2)^{3/2} on (0, pi).

    mode="exact" uses adaptive quadrature with the oscillatory cosine weight;
    mode="asymptotic" evaluates the large-r form 2 c^r sqrt(pi r)/(1-c^2)^{3/2}.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    _check_overlap(c)
    if mode == "asymptotic":
        return 2.0 * c**r * math.sqrt(math.pi * r) / (1.0 - c * c) ** 1.5
    if mode != "exact":
        raise ValueError(f"mode must be 'exact' or 'asymptotic', got {mode!r}")
    value, _ = quad(
        lambda t: (1.0 - 2.0 * c * math.cos(t) + c * c) ** -1.5,
        0.0,
        math.pi,
        weight="cos",
        wvar=r,
        epsabs=1e-13,
        epsrel=1e-12,
        limit=200,
    )
    return value
