"""Measure-as-you-go strategies on the qubit sequence.

Two online policies: measure every particle in the computational basis and
guess the first click (basic local), or run the per-step optimal two-state
measurement between the default and mutated states with Bayesian posterior
updates in between (greedy).  A seeded, counter-based Monte Carlo harness
estimates their success probabilities; for small n an exact walk of the
binary outcome tree provides the oracle value.  One Monte Carlo loop runs
both strategies, each given by its per-step click probabilities under the
default and the mutated particle; it carries the posterior as (tail weight,
best weight, best index), normalised so the larger weight is 1, so a trial
costs O(n).  Beside it stands one full-posterior reference: a single
greedy step, _greedy_click_probabilities, built from helstrom_measurement
and nothing the engine uses.  simulate_greedy_trial replays a trial with it
and exact_greedy_enumeration walks both of its outcomes; the engine is
tested against both.  simulate_basic_local is the first-click policy's
scalar trial, kept beside it for the same check.  Trials run in
ceil(trials / 16384) chunks of nearly equal size, and a chunk of m trials
holds a few length-m arrays; only iter_trial_records asks the engine for
the chunk's (m x n) outcome bytes, and reads them in place.  No chunk's
arrays stay alive while the next one runs.  The (n, c) rule is gram's
_check_overlap, and trials, base_seed and a replay's true_k pass its
_integer check.  A posterior left with no mass after a sampled outcome
raises ImpossibleOutcomeError.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

import numpy as np

from .gram import _check_overlap, _integer
from .rng import CounterRng, trial_seed_array, uniform_array

__all__ = [
    "ImpossibleOutcomeError",
    "TrialRecord",
    "qubit_pair",
    "basic_local_closed_form",
    "simulate_basic_local",
    "helstrom_measurement",
    "simulate_greedy_trial",
    "exact_greedy_enumeration",
    "monte_carlo",
    "iter_trial_records",
]

_ENUMERATION_MAX_N = 12
_CHUNK_SIZE = 16384


class ImpossibleOutcomeError(ValueError):
    """The engine's posterior has zero or NaN mass after a sampled outcome."""


def qubit_pair(c: float) -> tuple[np.ndarray, np.ndarray]:
    """Default and mutated single-particle states as real 2-vectors.

    The default state is (1, 0); the mutated state (c, sqrt(1-c^2)) has
    overlap c with it.
    """
    _check_overlap(c)
    return np.array([1.0, 0.0]), np.array([c, math.sqrt(1.0 - c * c)])


class TrialRecord(NamedTuple):
    """One Monte Carlo trial: hidden change point, outcomes, and the guess."""

    true_k: int
    guess: int
    outcomes: str
    success: bool
    seed: int


def basic_local_closed_form(n: int, c: float) -> float:
    """Exact success probability 1 - c^2 + c^2/n of the basic local strategy."""
    _check_overlap(c, n)
    return 1.0 - c * c + c * c / n


def simulate_basic_local(n: int, c: float, true_k: int, rng: CounterRng) -> TrialRecord:
    """One trial of the computational-basis strategy.

    Particles before the change always read 0; particles from the change on
    read 1 with probability 1-c^2.  The guess is the first position that
    reads 1, or n when nothing fires.
    """
    n = _check_overlap(c, n)
    true_k = _integer("true_k", true_k)
    if not 1 <= true_k <= n:
        raise ValueError(f"true_k must lie in [1, {n}], got {true_k}")
    fire_prob = 1.0 - c * c
    bits = "".join("1" if j >= true_k and rng.uniform(j) < fire_prob else "0"
                   for j in range(1, n + 1))
    guess = bits.find("1") + 1 or n
    return TrialRecord(true_k=true_k, guess=guess, outcomes=bits,
                       success=guess == true_k, seed=rng.seed)


def helstrom_measurement(p0: float, pphi: float, c: float) -> tuple[np.ndarray, float]:
    """Optimal two-outcome measurement for weighted states |0> and |phi>.

    Diagonalizes the 2x2 matrix pphi |phi><phi| - p0 |0><0| and returns the
    phi-outcome projector P onto its strictly positive subspace (a zero
    eigenvalue goes to the 0-outcome, I - P) with the per-step success
    probability (pphi + p0 + tr|Gamma|) / 2.
    """
    if not (0.0 <= p0 < math.inf and 0.0 <= pphi < math.inf):
        raise ValueError(f"priors must be >= 0 and finite, got p0={p0}, pphi={pphi}")
    if p0 == 0.0 and pphi == 0.0:
        raise ValueError("priors p0 and pphi must not both be zero")
    _check_overlap(c)
    s = math.sqrt(1.0 - c * c)
    if pphi == 0.0:
        projector_phi = np.zeros((2, 2))
        disc = p0
    elif p0 == 0.0:
        phi = np.array([c, s])
        projector_phi = np.outer(phi, phi)
        disc = pphi
    else:
        gamma = np.array(
            [
                [pphi * c * c - p0, pphi * c * s],
                [pphi * c * s, pphi * s * s],
            ]
        )
        disc = math.hypot(gamma[0, 0] - gamma[1, 1], 2.0 * gamma[0, 1])
        lam_minus = 0.5 * ((pphi - p0) - disc)
        projector_phi = (gamma - lam_minus * np.eye(2)) / disc
    return projector_phi, 0.5 * (pphi + p0 + disc)


def _greedy_click_probabilities(eta: np.ndarray, s: int, c: float) -> np.ndarray:
    """Probability of a phi-click at step s under every change point (entry k-1).

    The greedy step measures with the two-state optimum for the largest
    posterior mass on k <= s, where particle s is already mutated, against
    the largest on k > s, where it is still default (none at s = n).
    """
    n = eta.shape[0]
    p0 = float(eta[s:].max()) if s < n else 0.0
    projector, _ = helstrom_measurement(p0, float(eta[:s].max()), c)
    _, phi = qubit_pair(c)
    return np.where(np.arange(n) < s, float(phi @ projector @ phi), float(projector[0, 0]))


def simulate_greedy_trial(n: int, c: float, true_k: int, rng: CounterRng) -> TrialRecord:
    """One trial of the greedy strategy with per-step optimal measurements.

    At each step the greedy measurement for the current posterior is
    applied, the outcome sampled under the true particle state, and the
    posterior updated by Bayes' rule; the final guess maximizes the
    posterior (smallest index on ties).
    """
    n = _check_overlap(c, n)
    true_k = _integer("true_k", true_k)
    if not 1 <= true_k <= n:
        raise ValueError(f"true_k must lie in [1, {n}], got {true_k}")
    eta = np.full(n, 1.0 / n)
    bits = []
    for s in range(1, n + 1):
        click = _greedy_click_probabilities(eta, s, c)
        clicked = rng.uniform(s) < click[true_k - 1]
        bits.append("1" if clicked else "0")
        eta = eta * (click if clicked else 1.0 - click)
        eta /= eta.sum()
    guess = int(np.argmax(eta)) + 1
    return TrialRecord(true_k=true_k, guess=guess, outcomes="".join(bits),
                       success=guess == true_k, seed=rng.seed)


def exact_greedy_enumeration(n: int, c: float) -> float:
    """Exact greedy success probability by walking the full outcome tree.

    Propagates the outcome-sequence probability under every hypothesis k
    down both branches of each greedy step; the number of branches doubles
    per step, so n is capped at 12.
    """
    _check_overlap(c, n)
    if n > _ENUMERATION_MAX_N:
        raise ValueError(
            f"enumeration is limited to n <= {_ENUMERATION_MAX_N} "
            f"(2^n outcome branches), got {n}"
        )
    total = 0.0
    # stack holds (step, P(outcomes so far | k)); uniform prior folds in at the leaves
    stack: list[tuple[int, np.ndarray]] = [(1, np.ones(n))]
    while stack:
        s, path_prob = stack.pop()
        if s > n:
            total += path_prob.max() / n
            continue
        click = _greedy_click_probabilities(path_prob / path_prob.sum(), s, c)
        for like in (click, 1.0 - click):
            child = path_prob * like
            if child.max() > 0.0:
                stack.append((s + 1, child))
    return total


def _draw_true_k(n: int, seeds: np.ndarray) -> np.ndarray:
    u0 = uniform_array(seeds, 0)
    return np.minimum(n, 1 + (u0 * n).astype(np.int64))


def _basic_likelihoods(p0, c: float):
    """Click probabilities (a, b) of the computational-basis projector |1><1|."""
    return 0.0, 1.0 - c * c


def _outcome_phi_likelihoods(p0, c: float):
    """Click probabilities of the greedy phi-projector under each particle state.

    Returns (a, b) with a = <0|P_phi|0> and b = <phi|P_phi|phi> for the
    measurement that projects onto the strictly positive subspace of
    |phi><phi| - p0 |0><0|, p0 being the engine's normalised tail weight.
    disc = sqrt(d^2 + h^2) with d = c^2 - p0 - s2 and h = 2 c sqrt(s2) is
    written out rather than taken from hypot, which costs ten times more: p0
    and c lie in [0, 1], so |d| <= 2 and h <= 1 and neither square can
    overflow, and where h^2 underflows (c < 1e-154) disc is |d|, as hypot
    gives.  disc > 0 for every c < 1, so no division guard is needed.  disc
    may sit one ulp from hypot's value; the tests check the seeded streams
    against recorded ones.  Rounding can put a one ulp below 0 (at c = 0) or
    b one ulp above 1 (c near 1, or p0 near 0), so both are clamped into
    [0, 1]; p0 may be an array or, at the last step, a float.
    """
    s2 = 1.0 - c * c
    g00 = c * c - p0
    d = g00 - s2
    h = 2.0 * c * math.sqrt(s2)
    disc = np.sqrt(d * d + h * h)
    lam_minus = 0.5 * ((1.0 - p0) - disc)
    a = np.maximum((g00 - lam_minus) / disc, 0.0)
    b = np.minimum(((1.0 - p0 * c * c) - lam_minus) / disc, 1.0)
    return a, b


def _simulate_chunk(n: int, c: float, seeds: np.ndarray, likelihoods, record: bool):
    # All k >= s have seen identical factors and all k < s share each step's,
    # so (tail of k >= s, best of k < s, its index) suffices.  Both are divided
    # by their maximum after every step, so the larger is exactly 1.0 and the
    # step depends on the tail weight p0 alone.  The (m x n) outcome bytes are
    # kept only when record is set; otherwise the third result is None.
    m = seeds.shape[0]
    true_k = _draw_true_k(n, seeds)
    tail = np.ones(m)
    best = np.zeros(m)
    best_idx = np.zeros(m, dtype=np.int64)
    outcomes = np.empty((m, n), dtype=np.uint8) if record else None
    for s in range(1, n + 1):
        # strict: ties keep the smaller index, like argmax.  best_idx <= s - 1
        # here and never decreases, so the maximum writes s exactly where
        # best < tail and leaves every other entry as it was
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


def _chunked_trials(strategy: str, n: int, c: float, trials: int, base_seed: int, record: bool):
    if strategy not in ("basic", "greedy"):
        raise ValueError(f"strategy must be one of ['basic', 'greedy'], got {strategy!r}")
    trials = _integer("trials", trials)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    base_seed = _integer("base_seed", base_seed)
    if not 0 <= base_seed < 1 << 64:
        raise ValueError(f"base_seed must lie in [0, 2^64), got {base_seed}")
    _check_overlap(c, n)
    # looked up per call, not bound at import, so a patched kernel takes effect
    likelihoods = _outcome_phi_likelihoods if strategy == "greedy" else _basic_likelihoods
    # ceil(trials / _CHUNK_SIZE) chunks whose sizes differ by at most one, so
    # no chunk is a small remainder; only seeds is bound here, and it is
    # rebound before the next chunk runs
    count = -(-trials // _CHUNK_SIZE)
    for k in range(count):
        seeds = trial_seed_array(
            base_seed, np.arange(trials * k // count, trials * (k + 1) // count, dtype=np.uint64))
        yield (seeds, *_simulate_chunk(n, c, seeds, likelihoods, record))


def _binomial_estimate(successes: int, trials: int) -> tuple[float, float]:
    """The success fraction and its binomial standard error."""
    estimate = successes / trials
    return estimate, math.sqrt(estimate * (1.0 - estimate) / trials)


def monte_carlo(
    strategy: str,
    n: int,
    c: float,
    trials: int,
    base_seed: int,
) -> tuple[float, float]:
    """Monte Carlo estimate of a strategy's success probability.

    The change point of each trial is drawn uniformly; every random variate
    is a pure function of (base_seed, trial index, step index), so the
    estimate does not depend on chunking or execution order.  trials and
    base_seed are integers, base_seed in [0, 2^64) as the CLI's --seed.
    Returns the success fraction and its binomial standard error.
    """
    successes = 0
    for _, true_k, guess, _ in _chunked_trials(strategy, n, c, trials, base_seed, record=False):
        successes += int((guess == true_k).sum())
        del true_k, guess  # not alive while the next chunk runs
    return _binomial_estimate(successes, trials)


def iter_trial_records(
    strategy: str,
    n: int,
    c: float,
    trials: int,
    base_seed: int,
) -> Iterator[TrialRecord]:
    """Per-trial records from the same engine and stream as monte_carlo."""
    for seeds, true_k, guess, outcomes in _chunked_trials(strategy, n, c, trials, base_seed, record=True):
        # the chunk's buffer (16384 n bytes at most) is fresh and read by
        # nothing else, so it turns into ASCII '0'/'1' in place: one n-byte
        # string per trial, decoded only as its record is taken
        outcomes += ord("0")
        yield from map(TrialRecord._make, zip(
            true_k.tolist(),
            guess.tolist(),
            map(bytes.decode, outcomes.view(f"S{n}").ravel()),
            (guess == true_k).tolist(),
            seeds.tolist(),
        ))
        # the loop names would keep this chunk alive while the next one runs
        del seeds, true_k, guess, outcomes
