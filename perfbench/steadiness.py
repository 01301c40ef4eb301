"""Run every workload several times with different seeds and report spreads.

    python3 perfbench/steadiness.py [--out PATH]

Each workload runs ten times, with seeds 300 to 309 and BENCHMARK.json's
``run_seconds``, as for the committed ``baseline/steadiness.json``. Workloads
take turns, one run each per round, so a slow spell on the machine
falls on all of them alike. For every end-to-end metric it prints the median
and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, which is
how the bounds in BENCHMARK.json are judged. ``--out`` keeps every sample.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import bootstrap
from run import NAMES, child_timeout

RUNS = 10
FIRST_SEED = 300


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    samples: dict[str, dict[str, list[float]]] = {name: {} for name in NAMES}
    failures = 0
    for i in range(RUNS):
        for name in NAMES:
            proc = subprocess.run(
                [sys.executable, str(bootstrap.BENCH_DIR / "run.py"), "--workload", name,
                 "--seed", str(FIRST_SEED + i), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=child_timeout(seconds),
            )
            result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None
            if result is None or not result["correct"]:
                failures += 1
                print(f"{name} seed {FIRST_SEED + i}: failed\n{proc.stderr}", file=sys.stderr)
                continue
            for metric, entry in result["metrics"].items():
                samples[name].setdefault(metric, []).append(entry["value"])
            print(f"round {i} {name}: " + ", ".join(
                f"{m}={e['value']:.4g}" for m, e in result["metrics"].items()), flush=True)

    summary = {}
    print(f"\n{'workload':20s} {'metric':18s} {'median':>12s} {'spread':>8s} {'bound':>6s} {'n':>3s}")
    for name in NAMES:
        summary[name] = {}
        for metric, values in samples[name].items():
            entry = {"median": statistics.median(values), "n": len(values), "values": values,
                     "spread": spread(values) if len(values) >= 2 else None,
                     "bound": bounds.get(metric)}
            summary[name][metric] = entry
            shown = "-" if entry["spread"] is None else f"{entry['spread']:.4f}"
            print(f"{name:20s} {metric:18s} {entry['median']:12.6g} {shown:>8s} "
                  f"{entry['bound'] if entry['bound'] is not None else '-':>6} {len(values):3d}")
    if args.out:
        args.out.write_text(json.dumps({"seconds": seconds, "runs": RUNS,
                                        "first_seed": FIRST_SEED, "failures": failures,
                                        "workloads": summary}, indent=1) + "\n", encoding="utf-8")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
