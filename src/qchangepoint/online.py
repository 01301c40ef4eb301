"""Measure-as-you-go strategies on the qubit sequence.

Two online policies measure particle by particle, update the Bayesian
posterior and guess its maximum: the computational basis (basic local),
whose guess is the first click or n, and the optimal two-state measurement
between the default and mutated states for the current posterior (greedy).
A strategy is only its per-step click probabilities; _STRATEGIES names
them.  One seeded, counter-based Monte Carlo loop runs both.  It carries
the posterior as (tail weight, best weight, best index), normalised so the
larger weight is 1, and those weights take few distinct values: a chunk
steps a lazily grown automaton of them, whose states run the kernel and
the Bayes update once, the first step a trial sits on one (2 states for
basic; at most n for greedy on every overlap tested), and a trial's step
is a uniform, a few table gathers and a compare.  A NaN click threshold
marks a state not yet expanded, so the gather a step makes anyway finds
the trials that need one.  simulate_trial replays a trial on the full
posterior from per-k click probabilities.  Its greedy step,
_greedy_click_probabilities, is built from helstrom_measurement and
nothing the engine uses, and exact_greedy_enumeration walks both of its
outcomes for small n; the
engine is tested against both.  Trials run in ceil(trials / 16384) chunks
of nearly equal size, and a chunk of m trials holds a few length-m arrays;
only iter_trial_records asks the engine for the chunk's (m x n) outcome
bytes, and reads them in place.  No chunk's arrays stay alive while the
next one runs.  The (n, c) rule is gram's _check_overlap, and trials,
base_seed and a replay's true_k pass its _integer check.  A posterior left
with no mass after a sampled outcome raises ImpossibleOutcomeError.
"""

from __future__ import annotations

import itertools
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
    "helstrom_measurement",
    "simulate_trial",
    "exact_greedy_enumeration",
    "monte_carlo",
    "iter_trial_records",
]

# the strategy names, in the order of the per-strategy tuples below
_STRATEGIES = ("basic", "greedy")
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


def _basic_click_probabilities(eta: np.ndarray, s: int, c: float) -> np.ndarray:
    """Probability of a 1 at step s in the computational basis under every
    change point (entry k-1): 1 - c^2 for k <= s, 0 where s is still default."""
    return np.where(np.arange(eta.shape[0]) < s, 1.0 - c * c, 0.0)


def _strategy(strategy: str) -> int:
    """The position of strategy in _STRATEGIES; any other name raises ValueError."""
    if strategy not in _STRATEGIES:
        raise ValueError(f"strategy must be one of {list(_STRATEGIES)}, got {strategy!r}")
    return _STRATEGIES.index(strategy)


def simulate_trial(strategy: str, n: int, c: float, true_k: int, rng: CounterRng) -> TrialRecord:
    """One trial of an online strategy, replayed on the full posterior.

    Each step takes the strategy's click probabilities under every change
    point, samples the outcome under the true one with rng.uniform(step) and
    updates the posterior by Bayes' rule; the guess is its maximum (smallest
    index on ties).  For basic the posterior goes as c^(2(f-k)) on k <= f
    after a first click at f, so the guess is f, or n when nothing clicks.
    """
    click_probabilities = (_basic_click_probabilities, _greedy_click_probabilities)[_strategy(strategy)]
    n = _check_overlap(c, n)
    true_k = _integer("true_k", true_k)
    if not 1 <= true_k <= n:
        raise ValueError(f"true_k must lie in [1, {n}], got {true_k}")
    eta = np.full(n, 1.0 / n)
    bits = []
    for s in range(1, n + 1):
        click = click_probabilities(eta, s, c)
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
    """Click probabilities (a, b), shaped like p0, of the computational-basis projector |1><1|."""
    return np.zeros_like(p0), np.full_like(p0, 1.0 - c * c)


def _outcome_phi_likelihoods(p0, c: float):
    """Click probabilities of the greedy phi-projector under each particle state.

    Returns (a, b) with a = <0|P_phi|0> and b = <phi|P_phi|phi> for the
    measurement that projects onto the strictly positive subspace of
    |phi><phi| - p0 |0><0|, p0 being a normalised tail weight: the engine
    passes the array of tail weights of the posterior states its trials
    sit on for the first time at a step, never empty, and 0.0 at the last
    step.
    disc = sqrt(d^2 + h^2) with d = c^2 - p0 - s2 and h = 2 c sqrt(s2) is
    written out rather than taken from hypot, which costs ten times more: p0
    and c lie in [0, 1], so |d| <= 2 and h <= 1 and neither square can
    overflow, and where h^2 underflows (c < 1e-154) disc is |d|, as hypot
    gives.  disc > 0 for every c < 1, so no division guard is needed.  disc
    may sit one ulp from hypot's value; the tests check the seeded streams
    against recorded ones.  Rounding can put a one ulp below 0 (at c = 0) or
    b one ulp above 1 (c near 1, or p0 near 0), so both are clamped into
    [0, 1].
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


class _PosteriorAutomaton:
    """The distinct normalised posteriors a chunk's trials reach, grown as they reach them.

    Before step s a trial's posterior is (tail, best, best index) scaled so
    that the larger weight is 1.  What happens next depends only on the tail
    weight and the lead flag best < tail, and not on s (the last step
    aside), so a state is keyed by the tail's exact value (its hex form) and
    the flag.  State i owns rows 4i .. 4i+3 of three tables, and a trial
    sits at row 4i, or 4i + 2 once its particle s is mutated: thresholds
    holds a there (b at the mutated row), lead the flag, and successors,
    read at the row plus the click bit, the row the trial moves to, its
    mutated offset kept.  A state is created, with its tail and flag, when
    a state that leads to it is expanded, and is expanded the first step a
    trial sits on it: its (a, b) and successors are computed then, once,
    with the IEEE operations of the per-trial update.  Its thresholds are
    NaN until then, and only then: a NaN click probability is stored as
    -inf, which never clicks either.  State 0 is the prior, where every
    trial starts, and state 1 the sink that an outcome leaving the
    posterior no mass leads to; the sink is never expanded.
    """

    def __init__(self, likelihoods, c: float):
        self.likelihoods, self.c = likelihoods, c
        self.thresholds = np.full(8, math.nan)
        self.successors = np.zeros(8, dtype=np.intp)
        self.lead = np.zeros(8, dtype=np.int64)
        self.tails: list[float] = []
        self.keys: dict = {}  # key -> row
        # the prior, tail 1 against a best weight of 0, and the sink; every
        # trial starts on the prior, so it is expanded at once
        self.keys[(1.0).hex(), True] = self._add(1.0, True)
        self.keys[None] = self._add(math.nan, False)
        self.expand([0])

    def _add(self, tail: float, lead: bool) -> int:
        row = 4 * len(self.tails)
        if row == self.lead.size:
            self.thresholds, self.successors, self.lead = (
                np.concatenate([table, np.full_like(table, fill)])
                for table, fill in ((self.thresholds, math.nan), (self.successors, 0), (self.lead, 0)))
        self.lead[row:row + 4] = lead
        self.tails.append(tail)
        return row

    def _successor(self, best: float, tail: float) -> int:
        # the update's max, scale check and division on one (best, tail);
        # the max propagates NaN, as np.maximum does
        key = None
        if best == best and tail == tail:
            scale = best if best >= tail else tail
            if scale > 0.0:
                tail /= scale
                key = (tail.hex(), best / scale < tail)
        row = self.keys.get(key)
        if row is None:
            row = self.keys[key] = self._add(tail, key[1])
        return row

    def enter(self, rows: np.ndarray, step: int) -> list[int]:
        """The unexpanded states that rows, reached by the outcome sampled
        at step, sit on."""
        reached = np.bincount(rows >> 2, minlength=2)
        if reached[1]:
            raise ImpossibleOutcomeError(
                f"posterior has zero or undefined mass after the outcome sampled at step {step}")
        return reached.nonzero()[0].tolist()

    def expand(self, states: list[int]) -> None:
        """Click probabilities and successors of unexpanded states; each
        successor not yet keyed becomes a state."""
        tails = [self.tails[state] for state in states]
        a, b = self.likelihoods(np.array(tails), self.c)
        rows = 4 * np.array(states)
        self.thresholds[rows], self.thresholds[rows + 2] = np.fmax(a, -math.inf), np.fmax(b, -math.inf)
        for row, tail, a_i, b_i in zip(rows.tolist(), tails, a.tolist(), b.tolist()):
            no_click = self._successor(1.0 - b_i, tail * (1.0 - a_i))
            click = self._successor(b_i, tail * a_i)
            self.successors[row:row + 4] = no_click, click, no_click + 2, click + 2


def _simulate_chunk(n: int, c: float, seeds: np.ndarray, likelihoods, record: bool):
    # All k >= s have seen identical factors and all k < s share each step's,
    # so (tail of k >= s, best of k < s, its index) suffices, and scaled so
    # the larger weight is 1 it takes few values: each trial carries only its
    # row in a _PosteriorAutomaton and its best index.  A step is a uniform,
    # three table gathers and a compare per trial, and a minimum over the
    # gathered thresholds, NaN when a trial sits on a state not yet
    # expanded; every gather index is in range, so mode="clip" only spares
    # take a buffered copy.  The (m x n) outcome bytes are kept only when
    # record is set; otherwise the third result is None.
    m = seeds.shape[0]
    true_k = _draw_true_k(n, seeds)
    best_idx = np.zeros(m, dtype=np.int64)
    outcomes = np.empty((m, n), dtype=np.uint8) if record else None
    # the trials grouped by change point: a trial's row moves by 2 at step true_k
    by_change = np.argsort(true_k)
    group_ends = np.cumsum(np.bincount(true_k, minlength=n + 1)).tolist()
    states = _PosteriorAutomaton(likelihoods, c)
    rows = np.zeros(m, dtype=np.intp)  # the prior
    index = np.empty(m, dtype=np.intp)
    lead_step = np.empty(m, dtype=np.int64)
    threshold = np.empty(m)
    clicked = np.empty(m, dtype=bool)
    for s in range(1, n + 1):
        rows[by_change[group_ends[s - 1]:group_ends[s]]] += 2
        states.thresholds.take(rows, out=threshold, mode="clip")
        if math.isnan(threshold.min()):  # a trial sits on an unexpanded state
            landed = np.isnan(threshold).nonzero()[0]
            arrived = rows[landed]
            reached = states.enter(arrived, s - 1)
            if s < n:  # the last step has its own measurement
                states.expand(reached)
                threshold[landed] = states.thresholds[arrived]
        if s == n:
            break
        # strict: ties keep the smaller index, like argmax.  best_idx <= s - 1
        # here and never decreases, so the maximum writes s exactly where the
        # state leads and leaves every other entry as it was
        np.maximum(best_idx, (states.lead * s).take(rows, out=lead_step, mode="clip"), out=best_idx)
        np.less(uniform_array(seeds, s), threshold, out=clicked)
        if record:
            outcomes[:, s - 1] = clicked
        np.add(rows, clicked, out=index)
        states.successors.take(index, out=rows, mode="clip")
    # the last step has no tail: its measurement is the kernel's at p0 = 0,
    # every particle is mutated, and only the best weight must keep mass
    np.maximum(best_idx, (states.lead * n).take(rows, out=lead_step, mode="clip"), out=best_idx)
    a, b = likelihoods(0.0, c)
    np.less(uniform_array(seeds, n), b, out=clicked)
    if record:
        outcomes[:, n - 1] = clicked
    if not np.all(np.where(clicked, b, 1.0 - b) > 0.0):
        raise ImpossibleOutcomeError(
            f"posterior has zero or undefined mass after the outcome sampled at step {n}")
    return true_k, best_idx, outcomes


def _chunked_trials(strategy: str, n: int, c: float, trials: int, base_seed: int, record: bool):
    # in _STRATEGIES order, looked up per call so that a patched kernel runs
    likelihoods = (_basic_likelihoods, _outcome_phi_likelihoods)[_strategy(strategy)]
    trials = _integer("trials", trials)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    base_seed = _integer("base_seed", base_seed)
    if not 0 <= base_seed < 1 << 64:
        raise ValueError(f"base_seed must lie in [0, 2^64), got {base_seed}")
    _check_overlap(c, n)
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
        # tuple.__new__ builds each record in C; _make is a Python call per trial
        yield from map(tuple.__new__, itertools.repeat(TrialRecord), zip(
            true_k.tolist(),
            guess.tolist(),
            map(bytes.decode, outcomes.view(f"S{n}").ravel()),
            (guess == true_k).tolist(),
            seeds.tolist(),
        ))
        # the loop names would keep this chunk alive while the next one runs
        del seeds, true_k, guess, outcomes
