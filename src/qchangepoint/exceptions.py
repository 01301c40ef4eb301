"""Exception types shared across the package."""

__all__ = [
    "DegenerateEnsembleError",
    "SpectralFailureError",
    "ImpossibleOutcomeError",
]


class DegenerateEnsembleError(ValueError):
    """The source states are not linearly independent (overlap c >= 1 or a
    rank-deficient Gram matrix where full rank is required)."""


class SpectralFailureError(RuntimeError):
    """An iterative eigensolver (the cyclic Jacobi oracle) did not reach its
    off-diagonal tolerance within the sweep limit."""


class ImpossibleOutcomeError(ValueError):
    """The Monte Carlo engine's posterior has zero or undefined (NaN) mass
    after a sampled outcome."""
