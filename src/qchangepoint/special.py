"""Scalar special-function kernel.

The complete elliptic integral of the first kind, which fixes the large-n
asymptote, and the phase/amplitude form of the boundary polynomial on the
unit circle.

The library solves the spectrum from the boundary phase (``gram``), so
``phase_amplitude`` has no library caller.  It stays here only because the
benchmark in ``perfbench/`` counts its calls; the polynomial itself, its
oracle, lives in ``tests/oracles.py``.
"""

from __future__ import annotations

import math

__all__ = [
    "phase_amplitude",
    "elliptic_k",
]

_AGM_RTOL = 1e-15
_AGM_MAX_ITER = 60


def phase_amplitude(theta: float, c: float) -> tuple[float, float]:
    """Amplitude and phase of the boundary polynomial at x = cos(theta).

    The boundary polynomial is U_n(x) - 2c U_{n-1}(x) + c^2 U_{n-2}(x), with
    U_n the Chebyshev polynomials of the second kind; its n roots fix the
    Gram matrix spectrum.

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
    if not m >= 0.0:
        raise ValueError(f"parameter m must be >= 0, got {m}")
    if m >= 1.0:
        raise ValueError(f"elliptic_k diverges for m >= 1, got {m}")
    a, b = 1.0, math.sqrt(1.0 - m)
    for _ in range(_AGM_MAX_ITER):
        if abs(a - b) <= _AGM_RTOL * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)
