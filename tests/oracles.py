"""Independent oracles for the spectral layer, used by the tests only.

Each is computed a different way from the library code it checks, and this
module imports nothing from ``qchangepoint``, so an error in the library
cannot leak into its own reference value.

* ``boundary_polynomial`` evaluates the characteristic polynomial by its
  three-term recurrence; the library solves a phase equation for the
  angles instead.
* ``bisected_angles`` bisects that phase equation from the analytic
  brackets alone, down to adjacent floats, with the float predicate
  ``angle_below``; the library starts from Newton iterates instead.
* ``integral_i_r`` is the oscillatory integral behind the large-k deviation
  of diag(sqrt G), by adaptive quadrature or by its large-r asymptote.
* ``yuen_kennedy_lax_bound`` bounds the optimal success probability of a
  pure-state ensemble from above by a feasible point of the dual, built
  from a measurement's elements in the dense state space; the library's
  fixed point works on the Gram matrix and certifies nothing.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad


def _check_overlap(c: float) -> None:
    if not 0.0 <= c < 1.0:
        raise ValueError(f"overlap c must lie in [0, 1), got {c}")


def boundary_polynomial(n: int, c: float, x: float) -> float:
    """Characteristic polynomial U_n(x) - 2c U_{n-1}(x) + c^2 U_{n-2}(x).

    Its n roots x_l give the eigenvalues 2 x_l of the tridiagonal matrix with
    unit off-diagonals and corner entries c; those in turn fix the Gram
    matrix spectrum.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_overlap(c)
    # one shared recurrence pass instead of three evaluations
    u_nm2, u_nm1 = 0.0, 1.0  # U_{-1}, U_0
    for _ in range(n - 1):
        u_nm2, u_nm1 = u_nm1, 2.0 * x * u_nm1 - u_nm2
    u_n = 2.0 * x * u_nm1 - u_nm2
    return u_n - 2.0 * c * u_nm1 + c * c * u_nm2


def angle_below(n: int, c: float, thetas: np.ndarray) -> np.ndarray:
    """Whether each theta_l lies below the root of its phase equation
    (n+1) theta - 2 atan2(1 - c cos(theta), c sin(theta)) = (l-1) pi, in float64
    and with 1 - c cos(theta) written as (1-c) + 2c sin^2(theta/2)."""
    opposite = c * np.sin(thetas)
    adjacent = (1.0 - c) + 2.0 * c * np.sin(0.5 * thetas) ** 2
    return (n + 1.0) * thetas - 2.0 * np.arctan2(adjacent, opposite) < np.arange(n) * math.pi


def bisected_angles(n: int, c: float) -> np.ndarray:
    """The n eigen-angles of the Gram matrix by bisection on ``angle_below``.

    Each bracket starts as ((l-1) pi/(n+1), l pi/(n+1)], and all are halved
    at once until no midpoint lies strictly inside one; theta_l is the upper
    end, the first float the predicate puts on or above the root.
    """
    l = np.arange(1, n + 1)
    lo = (l - 1) * math.pi / (n + 1.0)
    hi = l * math.pi / (n + 1.0)
    while True:
        mid = 0.5 * (lo + hi)
        inside = (lo < mid) & (mid < hi)
        if not inside.any():
            return hi
        below = angle_below(n, c, mid)
        lo = np.where(inside & below, mid, lo)
        hi = np.where(inside & ~below, mid, hi)


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


def yuen_kennedy_lax_bound(states: np.ndarray, priors: np.ndarray, vectors: np.ndarray) -> float:
    """Upper bound on the minimum-error success probability, from a measurement.

    states holds the pure states psi_k as columns, vectors the rank-one
    elements' g_k (E_k = g_k g_k^T).  Gamma = sym sum_k p_k psi_k psi_k^T E_k,
    shifted by mu = max(0, -min_k lambda_min(Gamma - p_k psi_k psi_k^T)) times
    the identity, dominates every p_k psi_k psi_k^T, so it is feasible for the
    Yuen-Kennedy-Lax dual and no measurement succeeds with more than
    tr Gamma + d mu, d the dimension.  tr Gamma is the measurement's own
    success probability, so d mu is its gap.
    """
    overlaps = np.einsum("ik,ik->k", states, vectors)
    gamma = (states * (priors * overlaps)) @ vectors.T
    gamma = 0.5 * (gamma + gamma.T)
    lowest = min(np.linalg.eigvalsh(gamma - p * np.outer(psi, psi))[0]
                 for p, psi in zip(priors, states.T))
    return float(np.trace(gamma)) + states.shape[0] * max(0.0, -lowest)
