"""Benchmark for the qchangepoint CLI and library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]

One workload runs per process, so ``peak_rss_mb`` belongs to it. The loop is
closed with one caller: passes of the workload's operations run back to back
until the next pass would end after ``--seconds``, with at least two passes.
``--trace 0`` reports the end-to-end metrics from untraced passes. ``--trace
1`` alternates untraced and traced passes, with at least three passes, and
reports the per-layer metrics of the traced ones and the tracing overhead. ``--workload all`` runs each
workload in its own process and prints one table.

Human-readable lines go to stdout first; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. Every run
also writes its samples, checks and provenance to
``perfbench/out/results-<workload>-seed<N>-trace<T>.json``, and a traced run
its spans to ``perfbench/out/spans-<workload>-seed<N>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import bootstrap

NAMES = ("montecarlo", "collective_spectral")
MIN_PASSES = 2
MIN_TRACED_PASSES = 3
SETUP_PROBES = 5
END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
    ("grid_points_per_s", "1/s"), ("output_mb_per_s", "MB/s"),
)
PROBE_TIMEOUT_S = 120


def child_timeout(seconds: float) -> float:
    """Time a child run may take: its measuring time plus set-up, warm-up and checks."""
    return seconds + 120


# ---------------------------------------------------------------------------
# measurement


def measure_setup(workdir: Path) -> list[float]:
    """Seconds from process start to ``ready`` for fresh set-up probes."""
    samples = []
    for i in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(bootstrap.BENCH_DIR / "probe.py"), str(workdir / f"probe{i}.csv")],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
    return samples


@dataclass
class Pass:
    """Timing and outcome of one pass over a workload's operations."""

    index: int
    traced: bool
    wall: float = 0.0
    bytes_written: int = 0
    digests: list = field(default_factory=list)


def run_pass(workload, index: int, first: dict, tracer=None) -> Pass:
    """Run every operation once; time each call and nothing around it.

    The first pass keeps its outputs (renamed into ``first/``) and results
    for the checks; later passes keep only digests.
    """
    from qchangepoint import cli

    import workloads

    record = Pass(index, traced=tracer is not None)
    results: dict = {}
    for op_index, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.op = (index, op_index)
        start = time.perf_counter()
        try:
            if op.argv is not None:
                result = cli.main(op.argv)
            else:
                result = op.call(results)
        except Exception:
            record.wall += time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            record.digests.append(None)
            continue
        record.wall += time.perf_counter() - start
        if op.argv is None:
            results[op.label] = result
            digest = op.fingerprint(result)
            if index == 0:
                first[op.label] = result
        elif result != 0:
            print(f"{op.label}: cli.main returned {result}", file=sys.stderr)
            digest = None
        else:
            kept = []
            for path in op.outputs:
                record.bytes_written += path.stat().st_size
                if index == 0:
                    keep = path.parent / "first" / path.name
                    path.replace(keep)
                    kept.append(keep)
                else:
                    kept.append(path)
            digest = tuple(workloads.file_sha256(p) for p in kept)
            if index == 0:
                first[op.label] = tuple(kept)
            else:
                for path in kept:
                    path.unlink()
        record.digests.append(digest)
    return record


def measure(workload, seconds: float, trace: bool):
    """Passes until the next would end after ``seconds``; traced runs alternate."""
    import tracing

    tracer = tracing.Tracer() if trace else None
    min_passes = MIN_TRACED_PASSES if trace else MIN_PASSES
    first: dict = {}
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            with tracing.installed(tracer):
                passes.append(run_pass(workload, len(passes), first, tracer))
        else:
            passes.append(run_pass(workload, len(passes), first))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.wall for p in passes)
        if len(passes) >= min_passes and elapsed + typical > seconds:
            return passes, first, tracer


def check_outputs(workload, passes: list[Pass], first: dict) -> tuple[int, list[str]]:
    """Failed-operation count over all passes, and the problems found.

    The oracles run once, on the first pass; an operation of a later pass
    fails when it raised or its output differs from the first pass's.
    """
    problems: list[str] = []
    first_ok = []
    for op_index, op in enumerate(workload.ops):
        if passes[0].digests[op_index] is None:
            first_ok.append(False)
            continue
        try:
            found = op.check(first[op.label], first)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            found = [f"check raised {exc!r}"]
        problems += [f"{op.label}: {p}" for p in found]
        first_ok.append(not found)
    failed = 0
    for record in passes:
        for op_index, op in enumerate(workload.ops):
            digest = record.digests[op_index]
            ok = first_ok[op_index] and digest is not None and digest == passes[0].digests[op_index]
            if not ok:
                failed += 1
                if record.index > 0 and digest is not None and first_ok[op_index]:
                    problems.append(f"{op.label}: pass {record.index} output differs from pass 0")
    return failed, problems


# ---------------------------------------------------------------------------
# reporting


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def overhead_pairs(passes: list[Pass]) -> list[float]:
    """Traced minus untraced wall time of each adjacent pair of passes after pass 0.

    Pass 0 is left out: it is always untraced and is the only pass that
    does not follow a traced one.
    """
    pairs = []
    for a, b in zip(passes[1:], passes[2:]):
        if a.traced != b.traced:
            traced, plain = (a, b) if a.traced else (b, a)
            pairs.append(traced.wall - plain.wall)
    return pairs


def provenance(workload) -> dict:
    import numpy
    import scipy

    import qchangepoint

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "qchangepoint": qchangepoint.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in bootstrap.THREAD_VARS},
        "workload": workload.name,
        "seed": workload.seed,
        "inputs": _relative(workload.inputs),
    }


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=bootstrap.ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != bootstrap.ROOT:
        return None
    return lines[1]


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if it is one."""
    import ctypes
    import glob

    import numpy

    libs_dir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs_dir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.argtypes = []
                func.restype = ctypes.c_int
                return func()
    return None


def _relative(value):
    root = str(bootstrap.ROOT) + os.sep
    if isinstance(value, str):
        return value.replace(root, "")
    if isinstance(value, list):
        return [_relative(v) for v in value]
    if isinstance(value, dict):
        return {k: _relative(v) for k, v in value.items()}
    return value


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    bootstrap.prepare()
    import tracing
    import workloads
    from probe import warm_up

    bootstrap.OUT_DIR.mkdir(exist_ok=True)
    workdir = bootstrap.OUT_DIR / f"work-{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "first").mkdir(parents=True)
    try:
        setup_samples = measure_setup(workdir)
        workload = workloads.build(name, seed, workdir)
        warm_up(str(workdir / "warmup.csv"))
        passes, first, tracer = measure(workload, seconds, trace)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        failed, problems = check_outputs(workload, passes, first)
        spans = tracing.spans_as_dicts(tracer) if trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [p for p in passes if not p.traced]
    walls = [p.wall for p in plain]
    q1, median, q3 = quartiles(walls)
    points = sum(op.points for op in workload.ops)
    trials = sum(op.trials for op in workload.ops)
    bytes_per_pass = plain[0].bytes_written
    attempted = len(passes) * len(workload.ops)
    # wall_s and the rates: the untraced passes and the time they took, so a
    # run's few long passes all count (see README, "End-to-end metrics")
    measured_s = sum(walls)
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": measured_s / len(walls),
        "peak_rss_mb": peak_rss_mb,
        "grid_points_per_s": points * len(walls) / measured_s,
        "output_mb_per_s": sum(p.bytes_written for p in plain) / 1e6 / measured_s,
    }
    end_to_end = {k: _metric(values[k], unit) for k, unit in END_TO_END}
    also = {"mc_trials_per_s": _metric(trials * len(walls) / measured_s if trials else None, "1/s"),
            "ops_failed_frac": _metric(failed / attempted, "1")}
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    report = {
        "workload": name, "why": next(w["why"] for w in spec["workloads"] if w["name"] == name),
        "seed": seed, "seconds": seconds, "trace": int(trace),
        "provenance": provenance(workload),
        "samples": {"setup_s": setup_samples, "wall_s": walls,
                    "wall_s_quartiles": [q1, median, q3], "passes": len(plain)},
        "per_pass": {"grid_points": points, "mc_trials": trials, "bytes_written": bytes_per_pass,
                     "operations": [op.label for op in workload.ops]},
        "end_to_end": end_to_end, "also": also,
        "attempted": attempted, "failed": failed, "problems": problems,
    }
    lines = [f"workload {name}  seed {seed}  trace {int(trace)}  "
             f"setup probes {len(setup_samples)}  passes {len(walls)} "
             f"(pass wall q1 {q1:.4f}, median {median:.4f}, q3 {q3:.4f} s)"]
    lines += [f"  {k:48s} {m['value']:.6g} {m['unit']}" for k, m in {**end_to_end, **also}.items()
              if m["value"] is not None]
    lines.append(f"  ({failed} of {attempted} operations failed)")
    metrics = end_to_end

    if trace:
        traced = [p for p in passes if p.traced]
        per_pass = [tracing.layer_totals(tracer, {(p.index, i) for i in range(len(workload.ops))})
                    for p in traced]
        pairs = overhead_pairs(passes)
        # resolved only when at least two pairs agree in sign
        resolved = len(pairs) >= 2 and (min(pairs) > 0 or max(pairs) < 0)
        for p, totals in zip(traced, per_pass):
            totals["cli.bytes_written"] = p.bytes_written
            totals["trace.wall_s"] = p.wall
            totals["trace.overhead_s"] = statistics.median(pairs)
        metrics = {metric: _metric(statistics.median(t.get(metric, 0) for t in per_pass), unit)
                   for metric, unit, _better in tracing.LAYER_METRICS}
        report["per_layer"] = metrics
        report["samples"]["trace_wall_s"] = [p.wall for p in traced]
        report["trace_overhead"] = {"pair_differences_s": pairs, "resolved": resolved}
        lines.append(f"  traced passes {len(traced)}")
        lines += [f"  {k:48s} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
        if not resolved:
            lines.append(f"  trace.overhead_s unresolved: {len(pairs)} pass pair(s), "
                         f"differences {', '.join(f'{d:+.4f}' for d in pairs)} s")
        spans_path = bootstrap.OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")

    for problem in problems:
        lines.append(f"  CHECK FAILED: {problem}")
    results_path = bootstrap.OUT_DIR / f"results-{name}-seed{seed}-trace{int(trace)}.json"
    results_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process, then one table of every metric."""
    results = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=child_timeout(seconds),
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
        path = bootstrap.OUT_DIR / f"results-{name}-seed{seed}-trace{int(trace)}.json"
        results[name] = json.loads(path.read_text(encoding="utf-8"))
    print(f"\n{'metric':20s} {'unit':5s} " + " ".join(f"{n:>18s}" for n in NAMES))
    for metric in [k for k, _ in END_TO_END] + ["mc_trials_per_s", "ops_failed_frac"]:
        entries = [{**results[n]["end_to_end"], **results[n]["also"]}[metric] for n in NAMES]
        cells = ["-" if e["value"] is None else f"{e['value']:.6g}" for e in entries]
        print(f"{metric:20s} {entries[0]['unit']:5s} " + " ".join(f"{c:>18s}" for c in cells))
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = failed == 0 and not any(r["problems"] for r in results.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {f"{name}.{metric}": value
                                  for name, r in results.items()
                                  for metric, value in r["end_to_end"].items()}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except bootstrap.MissingSourceError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
