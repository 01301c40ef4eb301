"""Tests for the scalar special-function kernel and the boundary-polynomial oracle."""

import math

import numpy as np
import pytest
from oracles import boundary_polynomial
from scipy.integrate import quad

from qchangepoint.special import elliptic_k, phase_amplitude


def _delta_grid(thetas: np.ndarray, c: float) -> np.ndarray:
    """Vectorized phase oracle used for sign counting on large grids."""
    d = np.arctan2((1 - c * c) * np.sin(thetas), (1 + c * c) * np.cos(thetas) - 2 * c)
    return np.where(d <= 0.0, d + math.pi, d)


class TestBoundaryPolynomial:
    def test_n1_root_at_c(self):
        for c in (0.0, 0.3, 0.7, 0.95):
            assert boundary_polynomial(1, c, c) == pytest.approx(0.0, abs=1e-15)
            assert boundary_polynomial(1, c, 0.9) == pytest.approx(2 * 0.9 - 2 * c, abs=1e-15)

    def test_c_zero_reduces_to_chebyshev(self):
        # at c = 0 the polynomial is U_n(cos theta) = sin((n+1) theta) / sin(theta)
        for n in (1, 2, 5, 9):
            for x in (-0.8, 0.1, 0.6):
                theta = math.acos(x)
                assert boundary_polynomial(n, 0.0, x) == pytest.approx(
                    math.sin((n + 1) * theta) / math.sin(theta), abs=1e-12
                )

    def test_n2_eigenvalue_case(self):
        # 2x = 1.5 is an eigenvalue of [[0.5, 1], [1, 0.5]]
        assert boundary_polynomial(2, 0.5, 0.75) == pytest.approx(0.0, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            boundary_polynomial(0, 0.5, 0.2)
        with pytest.raises(ValueError):
            boundary_polynomial(3, 1.0, 0.2)

    @pytest.mark.parametrize("c", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_sign_change_count_small_n(self, c):
        # direct polynomial evaluation for sizes where that is affordable
        for n in (1, 2, 3, 7, 15, 40):
            thetas = np.linspace(1e-9, math.pi - 1e-9, 8 * n + 1)
            values = np.array([boundary_polynomial(n, c, math.cos(t)) for t in thetas])
            signs = values >= 0.0
            assert int(np.sum(signs[:-1] != signs[1:])) == n

    @pytest.mark.parametrize("c", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_sign_change_count_up_to_300(self, c):
        # sign of P_n(cos theta) equals sign of sin(n theta + delta); the
        # identity itself is exercised in TestPhaseAmplitude
        for n in range(1, 301):
            thetas = np.linspace(1e-9, math.pi - 1e-9, 4 * n + 1)
            signs = np.sin(n * thetas + _delta_grid(thetas, c)) >= 0.0
            assert int(np.sum(signs[:-1] != signs[1:])) == n


class TestPhaseAmplitude:
    def test_c_zero(self):
        for theta in (0.3, 1.2, 2.9):
            amplitude, delta = phase_amplitude(theta, 0.0)
            assert amplitude == pytest.approx(1.0 / math.sin(theta), rel=1e-14)
            assert delta == pytest.approx(theta, rel=1e-14)

    def test_halfpi_example(self):
        amplitude, delta = phase_amplitude(math.pi / 2, 0.5)
        assert amplitude == pytest.approx(1.25, abs=1e-15)
        assert delta == pytest.approx(math.pi - math.atan(0.75), abs=1e-14)

    def test_singular_arguments(self):
        for theta in (0.0, math.pi, -0.1, 3.2):
            with pytest.raises(ValueError):
                phase_amplitude(theta, 0.5)

    def test_branch_in_open_interval(self):
        for c in (0.0, 0.2, 0.5, 0.8, 0.97):
            for theta in np.linspace(1e-6, math.pi - 1e-6, 201):
                _, delta = phase_amplitude(theta, c)
                assert 0.0 < delta < math.pi

    def test_identity_with_boundary_polynomial(self):
        rng = np.random.default_rng(20240817)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            c = float(rng.uniform(0.0, 0.95))
            theta = float(rng.uniform(0.05, math.pi - 0.05))
            amplitude, delta = phase_amplitude(theta, c)
            lhs = amplitude * math.sin(n * theta + delta)
            rhs = boundary_polynomial(n, c, math.cos(theta))
            assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, abs(rhs)))


class TestEllipticK:
    def test_zero_parameter(self):
        assert elliptic_k(0.0) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_half_parameter_against_quadrature(self):
        oracle, _ = quad(
            lambda t: (1.0 - 0.5 * math.sin(t) ** 2) ** -0.5, 0.0, math.pi / 2,
            epsabs=1e-14,
        )
        assert elliptic_k(0.5) == pytest.approx(oracle, abs=2e-13)
        assert elliptic_k(0.5) == pytest.approx(1.8540746773013719, abs=1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            elliptic_k(1.0)
        with pytest.raises(ValueError):
            elliptic_k(1.5)
        with pytest.raises(ValueError):
            elliptic_k(-0.1)

    def test_strictly_increasing(self):
        values = [elliptic_k(m) for m in np.linspace(0.0, 0.999, 200)]
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("c", [0.3, 0.6, 0.9])
    def test_trace_limit_identity(self, c):
        # (2 sqrt(1-c^2)/pi) K(c^2) equals the angular average of
        # sqrt((1-c^2)/(1-2c cos t + c^2)); fixes the parameter convention
        lhs = 2.0 * math.sqrt(1 - c * c) / math.pi * elliptic_k(c * c)
        rhs, _ = quad(
            lambda t: math.sqrt((1 - c * c) / (1 - 2 * c * math.cos(t) + c * c)),
            0.0,
            math.pi,
            epsabs=1e-13,
        )
        assert lhs == pytest.approx(rhs / math.pi, abs=1e-12)
