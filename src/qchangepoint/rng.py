"""Counter-based random numbers for reproducible Monte Carlo.

Every variate is a pure function of (base seed, trial index, step index), so
trials can be generated in any order, in chunks of any size, or on any number
of workers and still produce bit-identical streams.  The mixing function is
the SplitMix64 output permutation driven by Weyl-sequence increments.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "CounterRng",
    "mix64",
    "trial_seed",
]

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_U_GAMMA = np.uint64(_GAMMA)
_U_MIX1 = np.uint64(_MIX1)
_U_MIX2 = np.uint64(_MIX2)
_TO_UNIT = 1.0 / (1 << 53)


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit word (scalar, pure Python)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def trial_seed(base_seed: int, trial_index: int) -> int:
    """Derive the 64-bit seed of one trial from the run seed and trial index."""
    return mix64((base_seed + (trial_index + 1) * _GAMMA) & _MASK)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _U_MIX1
    z = (z ^ (z >> np.uint64(27))) * _U_MIX2
    return z ^ (z >> np.uint64(31))


def _counter_array(base, index: np.ndarray) -> np.ndarray:
    """Array form of :func:`trial_seed`: mix64(base + (index + 1) gamma), broadcast."""
    with np.errstate(over="ignore"):  # modular 64-bit arithmetic is the point
        return _mix64_array(base + (index + np.uint64(1)) * _U_GAMMA)


def trial_seed_array(base_seed: int, trial_indices: np.ndarray) -> np.ndarray:
    """Vectorized :func:`trial_seed` over an array of trial indices."""
    return _counter_array(np.uint64(base_seed & _MASK), trial_indices.astype(np.uint64, copy=False))


def uniform_array(seeds: np.ndarray, step: int | np.ndarray) -> np.ndarray:
    """Uniform doubles in [0, 1) for each (trial seed, step) pair.

    ``seeds`` and ``step`` broadcast against each other, so a matrix of
    variates for many trials and many steps is one call.
    """
    z = _counter_array(seeds, np.asarray(step, dtype=np.uint64))
    return (z >> np.uint64(11)).astype(np.float64) * _TO_UNIT


class CounterRng:
    """Per-trial random source: stateless uniforms indexed by step number."""

    __slots__ = ("seed",)

    def __init__(self, seed: int):
        self.seed = seed & _MASK

    def uniform(self, step: int) -> float:
        """Uniform double in [0, 1) for the given step counter."""
        return (trial_seed(self.seed, step) >> 11) * _TO_UNIT

    def __repr__(self) -> str:
        return f"CounterRng(seed={self.seed:#018x})"
