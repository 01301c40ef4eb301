"""Scalar special-function kernel.

The characteristic polynomial of the boundary-perturbed tridiagonal matrix,
its phase/amplitude form on the unit circle, and the complete elliptic
integral of the first kind.

The library solves the spectrum from the boundary phase (``gram``), so the
first two have no library caller.  ``boundary_polynomial`` stays as the
independent oracle for the bisected angles.  ``phase_amplitude`` stays
because the tests check its identity with the polynomial and the benchmark
in ``perfbench/`` counts its calls.
"""

from __future__ import annotations

import math

__all__ = [
    "boundary_polynomial",
    "phase_amplitude",
    "elliptic_k",
]

_AGM_RTOL = 1e-15
_AGM_MAX_ITER = 60


def boundary_polynomial(n: int, c: float, x: float) -> float:
    """Characteristic polynomial U_n(x) - 2c U_{n-1}(x) + c^2 U_{n-2}(x).

    Its n roots x_l give the eigenvalues 2 x_l of the tridiagonal matrix with
    unit off-diagonals and corner entries c; those in turn fix the Gram
    matrix spectrum.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 <= c < 1.0:
        raise ValueError(f"overlap c must lie in [0, 1), got {c}")
    # one shared recurrence pass instead of three evaluations
    u_nm2, u_nm1 = 0.0, 1.0  # U_{-1}, U_0
    for _ in range(n - 1):
        u_nm2, u_nm1 = u_nm1, 2.0 * x * u_nm1 - u_nm2
    u_n = 2.0 * x * u_nm1 - u_nm2
    return u_n - 2.0 * c * u_nm1 + c * c * u_nm2


def phase_amplitude(theta: float, c: float) -> tuple[float, float]:
    """Amplitude and phase of the boundary polynomial at x = cos(theta).

    Returns (A, delta) such that the boundary polynomial of any order n
    evaluates to A(theta) * sin(n*theta + delta(theta)), with
    A = (1 - 2c cos(theta) + c^2) / sin(theta) and delta forced into (0, pi).
    """
    if not 0.0 < theta < math.pi:
        raise ValueError(f"theta must lie strictly inside (0, pi), got {theta}")
    if not 0.0 <= c < 1.0:
        raise ValueError(f"overlap c must lie in [0, 1), got {c}")
    sin_t = math.sin(theta)
    cos_t = math.cos(theta)
    amplitude = (1.0 - 2.0 * c * cos_t + c * c) / sin_t
    delta = math.atan2((1.0 - c * c) * sin_t, (1.0 + c * c) * cos_t - 2.0 * c)
    if delta <= 0.0:
        delta += math.pi
    return amplitude, delta


def elliptic_k(m: float) -> float:
    """Complete elliptic integral of the first kind, parameter convention.

    K(m) = integral_0^{pi/2} (1 - m sin^2 t)^{-1/2} dt, i.e. the argument is
    the parameter m = k^2, not the modulus k.  Computed by the
    arithmetic-geometric mean iteration.
    """
    if m < 0.0:
        raise ValueError(f"parameter m must be >= 0, got {m}")
    if m >= 1.0:
        raise ValueError(f"elliptic_k diverges for m >= 1, got {m}")
    a, b = 1.0, math.sqrt(1.0 - m)
    for _ in range(_AGM_MAX_ITER):
        if abs(a - b) <= _AGM_RTOL * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)
