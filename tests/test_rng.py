"""Tests for the counter-based random numbers: the array forms against the scalar ones."""

import numpy as np
import pytest

from qchangepoint.rng import CounterRng, trial_seed, trial_seed_array, uniform_array

BASE_SEEDS = [0, 1, 2**63, 2**64 - 1]
TRIAL_INDICES = np.array([0, 1, 2, 3, 1000, 2**31 - 1, 2**31, 2**32 - 1, 2**32], dtype=np.uint64)


class TestTrialSeedArray:
    @pytest.mark.parametrize("base_seed", BASE_SEEDS)
    def test_matches_scalar_seeds(self, base_seed):
        seeds = trial_seed_array(base_seed, TRIAL_INDICES)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [trial_seed(base_seed, int(i)) for i in TRIAL_INDICES]

    def test_takes_signed_indices(self):
        # np.arange gives int64 unless told otherwise
        indices = np.arange(5)
        assert trial_seed_array(7, indices).tolist() == [trial_seed(7, i) for i in range(5)]


class TestUniformArray:
    @pytest.mark.parametrize("base_seed", BASE_SEEDS)
    def test_broadcast_matches_scalar_stream(self, base_seed):
        seeds = trial_seed_array(base_seed, TRIAL_INDICES)
        steps = np.array([0, 1, 2, 49, 50, 1999, 2**32], dtype=np.uint64)
        variates = uniform_array(seeds[:, None], steps[None, :])
        assert variates.shape == (len(seeds), len(steps))
        for row, seed in zip(variates, seeds.tolist()):
            rng = CounterRng(seed)
            assert row.tolist() == [rng.uniform(int(step)) for step in steps]

    def test_scalar_step_matches_scalar_stream(self):
        seeds = trial_seed_array(3, np.arange(100, dtype=np.uint64))
        variates = uniform_array(seeds, 17)
        assert variates.tolist() == [CounterRng(seed).uniform(17) for seed in seeds.tolist()]

    def test_variates_lie_in_unit_interval(self):
        seeds = trial_seed_array(2**64 - 1, np.arange(4096, dtype=np.uint64))
        variates = uniform_array(seeds[:, None], np.arange(64, dtype=np.uint64)[None, :])
        assert variates.min() >= 0.0
        assert variates.max() < 1.0
        # 2^18 variates spread over the interval: every tenth gets about 10 %
        counts = np.bincount((variates * 10).astype(np.int64).ravel(), minlength=10)
        assert counts.size == 10
        assert counts.min() > 0.09 * variates.size
