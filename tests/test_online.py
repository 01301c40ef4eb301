"""Tests for the online measurement strategies and the Monte Carlo harness."""

import math
import tracemalloc

import numpy as np
import pytest

import qchangepoint.online as online_module
from qchangepoint.online import (
    ImpossibleOutcomeError,
    basic_local_closed_form,
    exact_greedy_enumeration,
    helstrom_measurement,
    iter_trial_records,
    monte_carlo,
    qubit_pair,
    simulate_trial,
)
from qchangepoint.rng import CounterRng, trial_seed, trial_seed_array, uniform_array


class FixedRng:
    """Stand-in rng returning the same uniform for every step."""

    def __init__(self, value: float, seed: int = 0):
        self.value = value
        self.seed = seed

    def uniform(self, step: int) -> float:
        return self.value


def _reference_chunk(n, c, seeds, likelihoods, record):
    """The per-trial engine the automaton replaced, kept as its bitwise reference.

    It carries (tail, best, best index) for every trial and runs the kernel
    and the Bayes update on the whole chunk at every step.
    """
    m = seeds.shape[0]
    true_k = online_module._draw_true_k(n, seeds)
    tail = np.ones(m)
    best = np.zeros(m)
    best_idx = np.zeros(m, dtype=np.int64)
    outcomes = np.empty((m, n), dtype=np.uint8) if record else None
    for s in range(1, n + 1):
        np.maximum(best_idx, (best < tail) * s, out=best_idx)
        a, b = likelihoods(tail if s < n else 0.0, c)
        u = uniform_array(seeds, s)
        mutated = true_k <= s
        clicked = (mutated & (u < b)) | (~mutated & (u < a))
        best = np.where(clicked, b, 1.0 - b)
        tail *= np.where(clicked, a, 1.0 - a)
        scale = np.maximum(best, tail) if s < n else best
        if not np.all(scale > 0.0):
            raise ImpossibleOutcomeError(
                f"posterior has zero or undefined mass after the outcome sampled at step {s}")
        best /= scale
        tail /= scale
        if record:
            outcomes[:, s - 1] = clicked
    return true_k, best_idx, outcomes


# c = 1e-200 squares to zero; the last overlap is one ulp below 1
ENGINE_OVERLAPS = [0.0, 1e-200, math.sqrt(0.05), math.sqrt(0.5), math.sqrt(0.9),
                   math.sqrt(0.999999), math.nextafter(1.0, 0.0)]
KERNELS = {"basic": "_basic_likelihoods", "greedy": "_outcome_phi_likelihoods"}


class TestQubitPair:
    def test_overlap_and_norms(self):
        for c in (0.0, 0.3, 0.9):
            default, mutated = qubit_pair(c)
            assert default @ mutated == pytest.approx(c, abs=1e-15)
            assert default @ default == pytest.approx(1.0, abs=1e-15)
            assert mutated @ mutated == pytest.approx(1.0, abs=1e-15)


class TestBasicLocal:
    def test_closed_form_examples(self):
        assert basic_local_closed_form(7, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert basic_local_closed_form(50, math.sqrt(0.5)) == pytest.approx(0.51, abs=1e-12)
        # large-n limit is 1 - c^2
        assert basic_local_closed_form(10**9, 0.6) == pytest.approx(1 - 0.36, abs=1e-8)

    def test_orthogonal_always_succeeds(self):
        for k in (1, 3, 6):
            record = simulate_trial("basic", 6, 0.0, k, CounterRng(trial_seed(5, k)))
            assert record.guess == record.true_k == k
            assert record.success

    def test_no_click_guesses_last_position(self):
        # a uniform stream of 0.99 never fires for c^2 > 0.01
        record = simulate_trial("basic", 8, 0.9, 8, FixedRng(0.99))
        assert record.outcomes == "0" * 8
        assert record.guess == 8
        assert record.success

    def test_first_click_wins(self):
        # always fires at the first mutated particle
        record = simulate_trial("basic", 8, 0.5, 3, FixedRng(0.0))
        assert record.guess == 3
        assert record.outcomes == "00111111"

    def test_monte_carlo_matches_closed_form(self):
        n, c = 50, math.sqrt(0.5)
        estimate, stderr = monte_carlo("basic", n, c, 10**5, 2024)
        assert abs(estimate - basic_local_closed_form(n, c)) <= 3 * stderr

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_trial("basic", 5, 0.5, 0, CounterRng(1))
        with pytest.raises(ValueError):
            simulate_trial("basic", 5, 0.5, 6, CounterRng(1))
        with pytest.raises(ValueError, match=r"strategy must be one of \['basic', 'greedy'\]"):
            simulate_trial("smart", 5, 0.5, 3, CounterRng(1))


class TestHelstromMeasurement:
    def test_symmetric_priors_success(self):
        for c in (0.1, 0.6, 0.9):
            _, success = helstrom_measurement(0.5, 0.5, c)
            assert success == pytest.approx(0.5 * (1 + math.sqrt(1 - c * c)), abs=1e-12)

    def test_zero_p0_projects_onto_mutated_state(self):
        # the zero eigenvalue goes to the 0-outcome projector, so the click
        # projector is the mutated state itself and the step value is pphi
        projector, success = helstrom_measurement(0.0, 0.7, 0.6)
        _, phi = qubit_pair(0.6)
        np.testing.assert_allclose(projector, np.outer(phi, phi), atol=1e-12)
        assert success == pytest.approx(0.7, abs=1e-12)

    @pytest.mark.parametrize("p0, pphi", [(math.nan, 1.0), (1.0, math.nan)])
    def test_rejects_nan_priors(self, p0, pphi):
        with pytest.raises(ValueError, match="priors must be >= 0"):
            helstrom_measurement(p0, pphi, 0.5)

    @pytest.mark.parametrize("p0, pphi", [(math.inf, 1.0), (1.0, math.inf), (math.inf, math.inf)])
    def test_rejects_infinite_priors(self, p0, pphi):
        # an infinite prior used to give a NaN projector and a success of inf
        with pytest.raises(ValueError, match="finite"):
            helstrom_measurement(p0, pphi, 0.5)

    def test_zero_pphi_never_clicks(self):
        projector, success = helstrom_measurement(0.4, 0.0, 0.6)
        np.testing.assert_allclose(projector, np.zeros((2, 2)), atol=1e-15)
        assert success == pytest.approx(0.4, abs=1e-12)

    def test_orthogonal_states_computational_basis(self):
        for p0, pphi in ((0.3, 0.4), (0.5, 0.1)):
            projector, _ = helstrom_measurement(p0, pphi, 0.0)
            np.testing.assert_allclose(projector, np.diag([0.0, 1.0]), atol=1e-14)

    def test_projector_properties(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p0, pphi = rng.uniform(0.0, 1.0, size=2)
            c = rng.uniform(0.0, 0.99)
            if p0 + pphi == 0.0:
                continue
            p, _ = helstrom_measurement(p0, pphi, c)
            assert np.abs(p @ p - p).max() < 1e-12

    def test_both_zero_raises(self):
        with pytest.raises(ValueError):
            helstrom_measurement(0.0, 0.0, 0.5)


class TestStepKernels:
    @pytest.mark.parametrize("c", [0.0, 0.3, 0.6, 0.9, 0.999])
    @pytest.mark.parametrize("p0", [0.0, 1e-300, 0.01, 0.5, 0.99, 1.0])
    def test_greedy_kernel_matches_helstrom(self, p0, c):
        # the engine's kernel takes the tail weight over the best weight, so
        # it is the reference measurement at pphi = 1
        projector, _ = helstrom_measurement(p0, 1.0, c)
        default, mutated = qubit_pair(c)
        a, b = online_module._outcome_phi_likelihoods(p0, c)
        assert 0.0 <= a <= 1.0 and 0.0 <= b <= 1.0
        assert a == pytest.approx(default @ projector @ default, abs=1e-12)
        assert b == pytest.approx(mutated @ projector @ mutated, abs=1e-12)

    # c = 1e-200 squares to zero inside the kernel's disc; the last overlap
    # is one ulp below 1, where disc is about 3e-8
    @pytest.mark.parametrize("c", [0.0, 1e-200, 0.3, 0.6, 0.9, 0.999, math.nextafter(1.0, 0.0)])
    def test_greedy_kernel_on_tail_weight_arrays(self, c):
        # the engine passes the whole chunk's tail weights as one array
        p0 = np.concatenate([[0.0, 1e-300, 1e-12], np.linspace(0.0, 1.0, 41)[1:]])
        a, b = online_module._outcome_phi_likelihoods(p0, c)
        for likelihood in (a, b):
            assert likelihood.shape == p0.shape
            assert np.all(np.isfinite(likelihood))
            assert np.all((likelihood >= 0.0) & (likelihood <= 1.0))
        default, mutated = qubit_pair(c)
        for weight, a_k, b_k in zip(p0, a, b):
            projector, _ = helstrom_measurement(weight, 1.0, c)
            assert a_k == pytest.approx(default @ projector @ default, abs=1e-12)
            assert b_k == pytest.approx(mutated @ projector @ mutated, abs=1e-12)

    @pytest.mark.parametrize("c", [0.0, 0.3, 0.6, 0.9, 0.999])
    def test_basic_kernel_is_the_computational_basis(self, c):
        default, mutated = qubit_pair(c)
        projector = np.diag([0.0, 1.0])
        a, b = online_module._basic_likelihoods(0.5, c)
        assert a == default @ projector @ default
        assert b == pytest.approx(mutated @ projector @ mutated, abs=1e-15)

    @pytest.mark.parametrize("c2", [0.0, 0.3, 0.9])
    def test_engine_feeds_normalised_tail_weights(self, monkeypatch, c2):
        # the kernel needs no division guard because p0 is the tail weight
        # over a best weight of exactly 1: it lies in [0, 1], and the last
        # step has no tail at all.  A step before the last calls it only to
        # expand the states its trials sit on for the first time, so at most
        # once, never on an empty array
        n, seen = 12, []
        kernel = online_module._outcome_phi_likelihoods

        def recording(p0, c):
            seen.append(np.array(p0, dtype=float))
            return kernel(p0, c)

        monkeypatch.setattr(online_module, "_outcome_phi_likelihoods", recording)
        monte_carlo("greedy", n, math.sqrt(c2), 3000, 17)
        assert len(seen) <= n
        for p0 in seen[:-1]:
            assert p0.ndim == 1 and p0.size >= 1
            assert np.all((p0 >= 0.0) & (p0 <= 1.0))
        np.testing.assert_array_equal(seen[0], [1.0])
        assert seen[-1] == 0.0


class TestGreedyTrial:
    def test_orthogonal_always_succeeds(self):
        for true_k in range(1, 7):
            record = simulate_trial("greedy", 6, 0.0, true_k, CounterRng(trial_seed(9, true_k)))
            assert record.success
            assert record.guess == true_k

    def test_single_particle(self):
        record = simulate_trial("greedy", 1, 0.7, 1, CounterRng(123))
        assert record.guess == 1
        assert record.success
        assert record.outcomes == "1"

    def test_record_consistency(self):
        record = simulate_trial("greedy", 7, 0.6, 4, CounterRng(trial_seed(15, 2)))
        assert len(record.outcomes) == 7
        assert set(record.outcomes) <= {"0", "1"}
        assert record.success == (record.guess == record.true_k)

    def test_ties_break_to_smallest_index(self, monkeypatch):
        # the projector I/2 clicks with probability 1/2 under both states
        # (exactly so at c = 0), so the posterior stays flat and every entry
        # ties with the first
        def half(p0, pphi, c):
            return np.eye(2) / 2, 0.5

        monkeypatch.setattr(online_module, "helstrom_measurement", half)
        for true_k in range(1, 6):
            record = simulate_trial("greedy", 5, 0.0, true_k, CounterRng(trial_seed(4, true_k)))
            assert record.guess == 1


class TestExactEnumeration:
    def test_orthogonal(self):
        for n in (1, 2, 5, 9):
            assert exact_greedy_enumeration(n, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_single_particle(self):
        assert exact_greedy_enumeration(1, 0.8) == pytest.approx(1.0, abs=1e-12)

    def test_two_state_matches_helstrom(self):
        # the first-step measurement is the two-state optimum and the final
        # guess reads it out, so n = 2 greedy attains 1/2 (1 + sqrt(1-c^2))
        assert exact_greedy_enumeration(2, 0.6) == pytest.approx(0.9, abs=1e-12)

    def test_resource_limit(self):
        with pytest.raises(ValueError):
            exact_greedy_enumeration(13, 0.5)

    def test_independent_of_the_engine(self, monkeypatch):
        # a valid but skewed engine measurement (click probabilities moved 10 %
        # toward each other) must move the Monte Carlo engine, not the oracle
        c = math.sqrt(0.5)
        exact = exact_greedy_enumeration(8, c)
        engine_step = online_module._outcome_phi_likelihoods

        def skewed(p0, c):
            a, b = engine_step(p0, c)
            return a + 0.1 * (b - a), b - 0.1 * (b - a)

        monkeypatch.setattr(online_module, "_outcome_phi_likelihoods", skewed)
        assert exact_greedy_enumeration(8, c) == exact
        estimate, stderr = monte_carlo("greedy", 8, c, 20000, 77)
        assert abs(estimate - exact) > 10 * stderr

    @pytest.mark.parametrize("c2", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_monte_carlo_agrees(self, n, c2):
        c = math.sqrt(c2)
        exact = exact_greedy_enumeration(n, c)
        estimate, stderr = monte_carlo("greedy", n, c, 30000, 77)
        assert abs(estimate - exact) <= 3 * max(stderr, 1e-12)


class TestMonteCarloHarness:
    def test_orthogonal_exact(self):
        for strategy in ("basic", "greedy"):
            estimate, stderr = monte_carlo(strategy, 5, 0.0, 2000, 1)
            assert estimate == 1.0
            assert stderr == 0.0

    def test_deterministic_reruns(self):
        a = monte_carlo("greedy", 6, 0.7, 5000, 99)
        b = monte_carlo("greedy", 6, 0.7, 5000, 99)
        assert a == b

    def test_chunk_size_invariance(self, monkeypatch):
        def run(chunk_size, *args, records=False):
            monkeypatch.setattr(online_module, "_CHUNK_SIZE", chunk_size)
            return list(iter_trial_records(*args)) if records else monte_carlo(*args)

        assert run(64, "basic", 9, 0.6, 4001, 5) == run(4096, "basic", 9, 0.6, 4001, 5)
        assert run(37, "greedy", 5, 0.6, 2001, 5) == run(2048, "greedy", 5, 0.6, 2001, 5)
        assert (run(37, "greedy", 50, 0.6, 500, 5, records=True)
                == run(4096, "greedy", 50, 0.6, 500, 5, records=True))

    def test_chunks_split_evenly(self, monkeypatch):
        # ceil(trials / _CHUNK_SIZE) chunks whose sizes differ by at most one,
        # run in trial order; a 10^4-trial figure point stays one chunk
        chunks = []
        simulate = online_module._simulate_chunk

        def recording_chunk(n, c, seeds, likelihoods, record):
            chunks.append(seeds.copy())
            return simulate(n, c, seeds, likelihoods, record)

        monkeypatch.setattr(online_module, "_simulate_chunk", recording_chunk)
        for trials, sizes in ((10000, [10000]), (16384, [16384]), (16385, [8192, 8193])):
            chunks.clear()
            monte_carlo("basic", 3, 0.6, trials, 4)
            assert [chunk.size for chunk in chunks] == sizes
        monkeypatch.setattr(online_module, "_CHUNK_SIZE", 37)
        for run in (lambda: monte_carlo("greedy", 4, 0.6, 2001, 4),
                    lambda: list(iter_trial_records("greedy", 4, 0.6, 2001, 4))):
            chunks.clear()
            run()
            sizes = [chunk.size for chunk in chunks]
            assert len(sizes) == 55 and max(sizes) - min(sizes) <= 1
            np.testing.assert_array_equal(np.concatenate(chunks),
                                          trial_seed_array(4, np.arange(2001)))

    def test_records_match_scalar_simulators(self):
        # the vectorized engine and the step-by-step scalar replay follow the
        # same counter-based stream, so whole trials coincide; the replay runs
        # the full posterior, the engine only (tail, best, index).  c = 1e-170
        # squares to zero, and c^2 = 0.999999 fires once in 10^6 particles
        for strategy, points in {
            "basic": [(1, 0.6), (11, 0.6), (11, 0.0), (50, 1e-170), (50, math.sqrt(0.5)),
                      (200, math.sqrt(0.999999))],
            "greedy": [(7, 0.6), (1, 0.6), (12, math.sqrt(0.3)), (12, math.sqrt(0.7)),
                       (50, 0.0), (50, math.sqrt(0.5)), (50, math.sqrt(0.95))],
        }.items():
            for n, c in points:
                records = list(iter_trial_records(strategy, n, c, 150, 31))
                assert len(records) == 150
                for record in records:
                    assert simulate_trial(strategy, n, c, record.true_k, CounterRng(record.seed)) == record
                    if strategy == "basic":
                        # the paper's rule: the first click, or n when nothing clicks
                        assert record.guess == (record.outcomes.find("1") + 1 or n)

    def test_record_seeds_are_derived_trial_seeds(self):
        records = list(iter_trial_records("basic", 4, 0.5, 10, 12345))
        for index, record in enumerate(records):
            assert record.seed == trial_seed(12345, index)

    def test_true_k_uniformity(self):
        records = list(iter_trial_records("basic", 5, 0.5, 20000, 8))
        counts = np.bincount([r.true_k for r in records], minlength=6)[1:]
        # each position should get about 4000 draws
        assert counts.min() > 3700 and counts.max() < 4300

    @pytest.mark.parametrize("strategy", ["basic", "greedy"])
    def test_zero_length_rejected(self, strategy):
        with pytest.raises(ValueError, match="n must be >= 1"):
            monte_carlo(strategy, 0, 0.5, 10, 1)
        with pytest.raises(ValueError, match="n must be >= 1"):
            list(iter_trial_records(strategy, 0, 0.5, 10, 1))

    def test_greedy_tie_keeps_smaller_index(self, monkeypatch):
        # with a = b = 1/2 every outcome scales the best and the tail weight
        # alike, so from step 2 on they tie exactly; the tie keeps the
        # earlier index, as argmax over the full posterior would
        seen = []

        def flat_likelihoods(p0, c):
            seen.append(np.array(p0))
            return np.full_like(p0, 0.5), np.full_like(p0, 0.5)

        monkeypatch.setattr(online_module, "_outcome_phi_likelihoods", flat_likelihoods)
        records = list(iter_trial_records("greedy", 5, 0.5, 200, 3))
        # p0 is the tail weight over the best, so the tie is one state, which
        # every trial sits on from step 2 and which is expanded there; its
        # tail weight reads exactly 1, and it is its own successor, so no
        # later step expands a state
        np.testing.assert_array_equal(seen[0], [1.0])
        np.testing.assert_array_equal(np.concatenate(seen[1:-1]), [1.0])
        assert seen[-1] == 0.0
        assert [r.guess for r in records] == [1] * 200

    def test_undefined_posterior_raises(self, monkeypatch):
        # a NaN click probability under the mutated state leaves the best
        # weight undefined after the first outcome
        def nan_b(p0, c):
            return np.full_like(p0, 0.5), np.full_like(p0, np.nan)

        monkeypatch.setattr(online_module, "_outcome_phi_likelihoods", nan_b)
        with pytest.raises(ImpossibleOutcomeError, match="at step 1$"):
            monte_carlo("greedy", 5, 0.6, 100, 1)

    @pytest.mark.parametrize("patched", ["a", "b", "ab"])
    @pytest.mark.parametrize("n", [3, 12, 50])
    def test_undefined_posterior_after_step_1_names_the_reference_step(self, monkeypatch, n, patched):
        # the patched click probabilities turn NaN once the tail weight
        # leaves 1, so the first outcomes are defined and a later one is not
        kernel = online_module._outcome_phi_likelihoods
        tails = []

        def nan_off_the_prior(p0, c):
            tails.extend(np.atleast_1d(p0).tolist())
            on_prior = np.asarray(p0) == 1.0
            return tuple(np.where(on_prior, x, np.nan) if name in patched else x
                         for name, x in zip("ab", kernel(p0, c)))

        messages = []
        for chunk in (_reference_chunk, online_module._simulate_chunk):
            tails.clear()
            monkeypatch.setattr(online_module, "_simulate_chunk", chunk)
            monkeypatch.setattr(online_module, "_outcome_phi_likelihoods", nan_off_the_prior)
            with pytest.raises(ImpossibleOutcomeError) as error:
                monte_carlo("greedy", n, math.sqrt(0.5), 500, 1)
            messages.append(str(error.value))
        assert messages[0] == messages[1]
        assert not messages[1].endswith("at step 1")
        # the engine expands each state once, the NaN ones included
        assert len(tails) == len(set(tails))

    def test_nan_click_probability_is_stored_as_minus_inf(self):
        # NaN in thresholds means only "not expanded"; a NaN a clicks no
        # more than -inf does, and both of the prior's successors are the sink
        def nan_a(p0, c):
            return np.full_like(p0, np.nan), np.full_like(p0, 0.5)

        states = online_module._PosteriorAutomaton(nan_a, 0.6)
        assert states.thresholds[0] == -math.inf
        assert states.thresholds[2] == 0.5
        np.testing.assert_array_equal(states.successors[:4], [4, 4, 6, 6])

    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("base_seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("strategy", ["basic", "greedy"])
    @pytest.mark.parametrize("n", [1, 2, 3, 12, 50, 300])
    def test_engine_matches_reference_bitwise(self, n, strategy, base_seed, record):
        # the automaton runs the reference's IEEE operations once per state,
        # so (true_k, best index, outcome bytes) agree bit for bit
        likelihoods = getattr(online_module, KERNELS[strategy])
        seeds = trial_seed_array(base_seed, np.arange(1000))
        for c in ENGINE_OVERLAPS:
            got = online_module._simulate_chunk(n, c, seeds, likelihoods, record)
            want = _reference_chunk(n, c, seeds, likelihoods, record)
            for got_part, want_part in zip(got, want):
                np.testing.assert_array_equal(got_part, want_part)
                if want_part is not None:
                    assert got_part.dtype == want_part.dtype

    # at c^2 = 0.85 the posteriors reachable within 2000 steps number about
    # 9e6, of which the trials reach at most 2000
    @pytest.mark.parametrize("c2", [0.85, 0.9])
    def test_engine_matches_reference_bitwise_at_n_2000(self, c2):
        likelihoods = online_module._outcome_phi_likelihoods
        seeds = trial_seed_array(9, np.arange(500))
        got = online_module._simulate_chunk(2000, math.sqrt(c2), seeds, likelihoods, True)
        want = _reference_chunk(2000, math.sqrt(c2), seeds, likelihoods, True)
        for got_part, want_part in zip(got, want):
            np.testing.assert_array_equal(got_part, want_part)

    @staticmethod
    def _count_states(monkeypatch, name):
        # per automaton: the states it passes the kernel, and the automaton
        counts, automata = [], []
        kernel = getattr(online_module, name)

        class Recording(online_module._PosteriorAutomaton):
            def __init__(self, likelihoods, c):
                counts.append(0)
                automata.append(self)
                super().__init__(likelihoods, c)

        def counting(p0, c):
            if np.ndim(p0):
                counts[-1] += np.size(p0)
            return kernel(p0, c)

        monkeypatch.setattr(online_module, "_PosteriorAutomaton", Recording)
        monkeypatch.setattr(online_module, name, counting)
        return counts, automata

    @staticmethod
    def _assert_lazy(count, states, bound):
        # each state is expanded once, and its expansion creates at most its
        # two successors; the prior and the sink come before any expansion
        expanded = int(np.count_nonzero(~np.isnan(states.thresholds[:4 * len(states.tails):4])))
        assert count == expanded
        assert 1 <= expanded <= bound
        assert len(states.tails) <= 2 * expanded + 2

    @pytest.mark.parametrize("n", [12, 50, 300])
    @pytest.mark.parametrize("strategy", ["basic", "greedy"])
    def test_automaton_stays_small(self, monkeypatch, strategy, n):
        # the speed rests on this: the kernel sees each distinct posterior
        # once, and a chunk of 16384 trials reaches at most n of them (greedy)
        # or 2 (basic: before and after the first click)
        counts, automata = self._count_states(monkeypatch, KERNELS[strategy])
        for c in ENGINE_OVERLAPS:
            monte_carlo(strategy, n, c, 16384, 5)
            self._assert_lazy(counts[-1], automata[-1], n if strategy == "greedy" else 2)

    def test_automaton_stays_lazy_at_n_2000(self, monkeypatch):
        # expanding every posterior reachable within n steps would build
        # about 9e6 states here; a chunk expands only those its trials sit on
        counts, automata = self._count_states(monkeypatch, "_outcome_phi_likelihoods")
        monte_carlo("greedy", 2000, math.sqrt(0.85), 16384, 5)
        assert len(automata) == 1
        self._assert_lazy(counts[0], automata[0], 2000)

    def test_basic_memory_at_n_2000(self):
        # a chunk holds n outcome bytes and a few scalars per trial, no
        # (trials x n) float matrix: 4 MB of outcomes at n = 2000
        tracemalloc.start()
        try:
            estimate, _ = monte_carlo("basic", 2000, math.sqrt(0.5), 2000, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.0 < estimate < 1.0
        assert peak < 10e6

    def test_basic_records_memory_at_n_2000(self):
        # the records read the chunk's outcome buffer in place: no second
        # (trials x n) array and no list of the chunk's strings beside it
        tracemalloc.start()
        try:
            records = iter_trial_records("basic", 2000, math.sqrt(0.5), 2000, 5)
            successes = sum(r.success for r in records)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 < successes < 2000
        assert peak < 10e6

    def test_basic_memory_over_two_chunks_at_n_2000(self):
        # without records no (trials x n) outcome buffer is kept: the (16384
        # x n) one a chunk held read 68.5 MB traced over 32768 trials
        tracemalloc.start()
        try:
            estimate, _ = monte_carlo("basic", 2000, math.sqrt(0.5), 32768, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.0 < estimate < 1.0
        assert peak < 4e6

    def test_basic_records_memory_over_two_chunks_at_n_2000(self):
        # one 16384 x 2000-byte chunk buffer (33 MB) is alive at a time: it is
        # released before the next chunk runs
        tracemalloc.start()
        try:
            records = iter_trial_records("basic", 2000, math.sqrt(0.5), 32768, 5)
            successes = sum(r.success for r in records)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 < successes < 32768
        assert peak < 45e6

    @pytest.mark.parametrize("strategy", ["basic", "greedy"])
    def test_trials_and_seed_must_be_integers(self, strategy):
        with pytest.raises(TypeError, match="trials must be an integer, got 1000.0"):
            monte_carlo(strategy, 5, 0.5, 1e3, 1)
        with pytest.raises(TypeError, match="base_seed must be an integer, got 1.5"):
            monte_carlo(strategy, 5, 0.5, 10, 1.5)
        with pytest.raises(TypeError, match="base_seed must be an integer"):
            list(iter_trial_records(strategy, 5, 0.5, 10, "7"))

    @pytest.mark.parametrize("base_seed", [-1, 2**64, 2**70])
    def test_seed_outside_64_bits_rejected(self, base_seed):
        # the CLI's seed rule: 2^70 must not quietly run the stream of 2^70 mod 2^64
        with pytest.raises(ValueError, match=r"base_seed must lie in \[0, 2\^64\)"):
            monte_carlo("greedy", 5, 0.5, 10, base_seed)
        with pytest.raises(ValueError, match=r"base_seed must lie in \[0, 2\^64\)"):
            list(iter_trial_records("basic", 5, 0.5, 10, base_seed))

    def test_integer_like_arguments_accepted(self):
        # numpy integers index like ints, and the largest seed is valid
        assert (monte_carlo("greedy", 5, 0.5, np.int64(300), np.uint64(2**64 - 1))
                == monte_carlo("greedy", 5, 0.5, 300, 2**64 - 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            monte_carlo("smart", 5, 0.5, 10, 1)
        with pytest.raises(ValueError):
            monte_carlo("basic", 5, 0.5, 0, 1)
        with pytest.raises(ValueError):
            monte_carlo("basic", 5, 1.0, 10, 1)
