"""Traced runs: spans around qchangepoint's public functions, from outside.

The package modules bind each other's functions with ``from .x import y``,
so a function is wrapped under every module attribute that holds it (for
example ``qchangepoint.cli.collective_summary`` and
``qchangepoint.online.uniform_array``), and :func:`installed` puts every
original back when the traced passes end.

A span records its name, start, end, parent span and the operation (one
``cli.main`` or library call) it belongs to. Spans stay in memory and are
written out when the run ends. Self time is a span's duration minus the time
its child spans cover. The two ``special`` functions are scalar hot loops
(about 1e5 calls per n=2000 spectrum), so they are counted and get no span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
import tracemalloc
from collections import Counter, defaultdict
from typing import Iterator, NamedTuple, Optional

MODULES = ("qchangepoint", "qchangepoint.cli", "qchangepoint.collective", "qchangepoint.gram",
           "qchangepoint.online", "qchangepoint.rng", "qchangepoint.special")

SPANNED = (
    "cli.main", "cli.run_sweep", "cli.run_spectrum_dump", "cli.run_montecarlo",
    "collective.collective_summary", "collective.optimal_povm_fixed_point",
    "collective.weighted_gram", "collective.embed_states",
    "gram.solve_spectrum", "gram.sqrt_gram", "gram.jacobi_eigensolve",
    "online.monte_carlo", "online.iter_trial_records",
    "rng.uniform_array", "rng.trial_seed_array",
)
COUNTED = ("special.phase_amplitude", "special.elliptic_k")
GENERATORS = ("online.iter_trial_records",)

# (metric, unit, better). Self times and call counts come from spans and
# counters; cli.bytes_written and the trace.* pair come from the harness.
LAYER_METRICS = (
    ("online.monte_carlo.self_s", "s", "lower"),
    ("online.monte_carlo.trials", "count", "higher"),
    ("rng.uniform_array.self_s", "s", "lower"),
    ("rng.uniform_array.variates", "count", "lower"),
    ("rng.trial_seed_array.self_s", "s", "lower"),
    ("collective.optimal_povm_fixed_point.self_s", "s", "lower"),
    ("collective.optimal_povm_fixed_point.calls", "count", "lower"),
    ("collective.optimal_povm_fixed_point.iterations", "count", "lower"),
    ("collective.optimal_povm_fixed_point.unconverged", "count", "lower"),
    ("collective.optimal_povm_fixed_point.peak_alloc_mb", "MB", "lower"),
    ("collective.collective_summary.self_s", "s", "lower"),
    ("gram.sqrt_gram.self_s", "s", "lower"),
    ("gram.solve_spectrum.self_s", "s", "lower"),
    ("gram.solve_spectrum.calls", "count", "lower"),
    ("special.phase_amplitude.calls", "count", "lower"),
    ("special.elliptic_k.calls", "count", "lower"),
    ("gram.jacobi_eigensolve.self_s", "s", "lower"),
    ("gram.jacobi_eigensolve.calls", "count", "lower"),
    ("collective.weighted_gram.self_s", "s", "lower"),
    ("collective.embed_states.self_s", "s", "lower"),
    ("online.iter_trial_records.self_s", "s", "lower"),
    ("online.iter_trial_records.records", "count", "higher"),
    ("cli.run_montecarlo.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("cli.run_sweep.self_s", "s", "lower"),
    ("cli.run_spectrum_dump.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Span(NamedTuple):
    """One traced call.

    ``busy`` is None for an ordinary call. A generator's span lasts from its
    first ``next`` to its last, and ``busy`` holds the time spent inside
    ``next``; between those calls its consumer runs.
    """

    span_id: int
    parent: Optional[int]
    op: object
    name: str
    start: float
    end: float
    busy: Optional[float] = None

    @property
    def duration(self) -> float:
        return self.end - self.start if self.busy is None else self.busy


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()   # (op, metric) -> summed value
        self.peaks: dict = {}              # (op, metric) -> largest value
        self.op: object = None             # operation id, set by the harness
        self._stack: list[int] = []
        self._next_id = 0

    def _open(self) -> tuple[int, Optional[int]]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id: int, parent: Optional[int], name: str,
               start: float, end: float, busy: Optional[float] = None) -> None:
        self._stack.pop()
        self.spans.append(Span(span_id, parent, self.op, name, start, end, busy))

    def add(self, metric: str, amount: float) -> None:
        self.counts[(self.op, metric)] += amount

    def peak(self, metric: str, value: float) -> None:
        key = (self.op, metric)
        self.peaks[key] = max(self.peaks.get(key, value), value)


# ---------------------------------------------------------------------------
# wrappers


def _after_monte_carlo(tracer: Tracer, bound: inspect.BoundArguments, _result) -> None:
    tracer.add("online.monte_carlo.trials", bound.arguments["trials"])


def _after_uniform_array(tracer: Tracer, _bound, result) -> None:
    tracer.add("rng.uniform_array.variates", result.size)


def _after_povm(tracer: Tracer, _bound, result) -> None:
    tracer.add("collective.optimal_povm_fixed_point.iterations", result.iterations)
    tracer.add("collective.optimal_povm_fixed_point.unconverged", int(not result.converged))


_AFTER = {
    "online.monte_carlo": _after_monte_carlo,
    "rng.uniform_array": _after_uniform_array,
    "collective.optimal_povm_fixed_point": _after_povm,
}
# tracemalloc runs only inside these calls, so it slows nothing else
_ALLOC_PEAK = {"collective.optimal_povm_fixed_point": "collective.optimal_povm_fixed_point.peak_alloc_mb"}


def _spanned(tracer: Tracer, name: str, func):
    after = _AFTER.get(name)
    signature = inspect.signature(func)
    alloc_metric = _ALLOC_PEAK.get(name)

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        span_id, parent = tracer._open()
        started_tracemalloc = alloc_metric is not None and not tracemalloc.is_tracing()
        if started_tracemalloc:
            tracemalloc.start()
        elif alloc_metric is not None:
            tracemalloc.reset_peak()
        start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            if alloc_metric is not None:
                tracer.peak(alloc_metric, tracemalloc.get_traced_memory()[1] / 1e6)
                if started_tracemalloc:
                    tracemalloc.stop()
            tracer._close(span_id, parent, name, start, end)
        if after is not None:
            after(tracer, signature.bind(*args, **kwargs), result)
        return result

    return wrapper


def _spanned_generator(tracer: Tracer, name: str, func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        inner = func(*args, **kwargs)
        span_id = tracer._next_id
        tracer._next_id += 1
        parent = tracer._stack[-1] if tracer._stack else None
        op = tracer.op
        first = last = None
        busy = 0.0
        items = 0
        try:
            while True:
                tracer._stack.append(span_id)
                start = time.perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    last = time.perf_counter()
                    tracer._stack.pop()
                    busy += last - start
                    first = start if first is None else first
                items += 1
                yield item
        finally:
            inner.close()
            if first is not None:
                tracer.spans.append(Span(span_id, parent, op, name, first, last, busy))
                tracer.counts[(op, name + ".records")] += items

    return wrapper


def _counted(tracer: Tracer, name: str, func):
    metric = name + ".calls"

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        tracer.counts[(tracer.op, metric)] += 1
        return func(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every traced function for the duration of the block, then restore."""
    modules = [importlib.import_module(m) for m in MODULES]
    restore: list[tuple[object, str, object]] = []
    try:
        for name in SPANNED + COUNTED:
            home, attr = name.split(".")
            original = getattr(importlib.import_module("qchangepoint." + home), attr)
            make = (_counted if name in COUNTED
                    else _spanned_generator if name in GENERATORS else _spanned)
            wrapper = make(tracer, name, original)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    restore.append((module, attr, original))
                    setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr, original in reversed(restore):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# arithmetic


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its children cover.

    Ordinary children cover the union of their intervals. A generator child
    covers only its busy time: its ``next`` calls are disjoint from sibling
    calls, because the caller runs them one at a time.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        kids = children.get(span.span_id, ())
        covered = _union_length([(k.start, k.end) for k in kids if k.busy is None])
        covered += sum(k.busy for k in kids if k.busy is not None)
        result[span.span_id] = span.duration - covered
    return result


def layer_totals(tracer: Tracer, ops: set) -> dict[str, float]:
    """Self time, call count and counters summed over the operations ``ops``."""
    selves = self_times(tracer.spans)
    totals: dict[str, float] = defaultdict(float)
    for span in tracer.spans:
        if span.op in ops:
            totals[span.name + ".self_s"] += selves[span.span_id]
            totals[span.name + ".calls"] += 1
    for (op, metric), value in tracer.counts.items():
        if op in ops:
            totals[metric] += value
    for (op, metric), value in tracer.peaks.items():
        if op in ops:
            totals[metric] = max(totals[metric], value)
    return totals


def spans_as_dicts(tracer: Tracer) -> list[dict]:
    selves = self_times(tracer.spans)
    return [dict(span._asdict(), op=repr(span.op), self_s=selves[span.span_id])
            for span in tracer.spans]
