"""The benchmark's two workloads: their operations and their output checks.

A workload is a fixed list of operations, one pass of which is timed as a
unit. An operation is one ``qchangepoint.cli.main(argv)`` call or one call
of a public library function. Inputs come from the workload seed only: it is
the CLI ``--seed`` value and, in ``collective_spectral``, seeds the prior
vectors.

Every operation has a check that runs outside the timed region on the first
pass's output; later passes must reproduce that output bit for bit.
Functions are looked up on their modules at call time, so a traced run
measures the wrapped versions and an untraced run the originals.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from qchangepoint import collective, gram, online

from bootstrap import BENCH_DIR

REFERENCE_DIR = BENCH_DIR / "reference"
# Seed at which the Monte Carlo outputs were recorded (make_reference.py);
# it is also the benchmark's default seed.
REFERENCE_SEED = 1

# Inequalities between bounds get the acceptance suite's slack.
SANDWICH_SLACK = 1e-12
# Collective columns are printed to 12 significant digits; a solver or
# spectrum rewrite may move the last ones, so references match to 1e-9.
COLLECTIVE_ABS_TOL = 1e-9
SIGMAS = 4.0

FIG_C2 = "0,0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45,0.5,0.55,0.6,0.65,0.7,0.75,0.8,0.85,0.9,0.95"
FIG_TRIALS = 10_000
COLLECTIVE_N = (150, 300, 450)
COLLECTIVE_C2 = ("0.1", "0.5", "0.9", "0.99")
SPECTRUM_N = (1000, 2000)
SPECTRUM_C2 = ("0.05", "0.5", "0.99")
LIBRARY_N = (40, 80)
LIBRARY_C2 = 0.5
RECORDS_BASIC = {"n": 50, "c2": "0.5", "trials": 100_000}
RECORDS_GREEDY = {"n": 12, "c2": "0.3,0.7", "trials": 50_000}


COLLECTIVE_COLUMNS = ("lower_bound", "srm", "fixed_point_opt", "upper_bound", "asymptotic")
MC_COLUMNS = ("basic_local", "greedy_estimate", "greedy_stderr")


@dataclass
class Op:
    """One operation of a pass.

    A CLI op has ``argv`` and the ``outputs`` it writes. A library op has
    ``call``, which receives the results of the earlier ops of the same pass
    by label, and ``fingerprint``, which digests its result. ``check`` gets
    the op's first-pass result (output paths for a CLI op) and every
    first-pass result by label, and returns a list of problems.
    """

    label: str
    check: Callable[[object, dict], list[str]]
    argv: Optional[list[str]] = None
    outputs: tuple[Path, ...] = ()
    call: Optional[Callable[[dict], object]] = None
    fingerprint: Optional[Callable[[object], str]] = None
    points: int = 0
    trials: int = 0


@dataclass
class Workload:
    name: str
    seed: int
    ops: list[Op]
    inputs: dict = field(default_factory=dict)


def build(name: str, seed: int, workdir: Path) -> Workload:
    """The operations of workload ``name`` for ``seed``, writing into ``workdir``."""
    return _WORKLOAD_FACTORIES[name](seed, workdir)


# ---------------------------------------------------------------------------
# helpers


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _array_sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _sandwich(rows: list[dict]) -> list[str]:
    problems = []
    for row in rows:
        lower, srm, opt, upper = (float(row[k]) for k in COLLECTIVE_COLUMNS[:4])
        if not (lower <= srm + SANDWICH_SLACK and srm <= opt + SANDWICH_SLACK
                and opt <= upper + SANDWICH_SLACK):
            problems.append(f"n={row['n']} c2={row['c2']}: lower<=srm<=opt<=upper fails "
                            f"({lower}, {srm}, {opt}, {upper})")
    return problems


def _match_collective(rows: list[dict], reference: list[dict]) -> list[str]:
    """Collective columns against the recorded reference.

    The fixed-point value is checked one-sided: it is the success
    probability of a valid POVM, so a solver that converges further can only
    raise it, and the sandwich check caps it by the upper bound.
    """
    if [(r["n"], r["c2"]) for r in rows] != [(r["n"], r["c2"]) for r in reference]:
        return ["grid points differ from the reference"]
    problems = []
    for row, ref in zip(rows, reference):
        for col in COLLECTIVE_COLUMNS:
            got, want = float(row[col]), float(ref[col])
            bad = got < want - COLLECTIVE_ABS_TOL if col == "fixed_point_opt" \
                else abs(got - want) > COLLECTIVE_ABS_TOL
            if bad:
                problems.append(f"n={row['n']} c2={row['c2']} {col}: {got!r} vs reference {want!r}")
    return problems


# ---------------------------------------------------------------------------
# collective_spectral: the collective sweep at large n, spectrum dumps at
# n=1000/2000, and the library path through Jacobi


def _collective_sweep(workdir: Path) -> Op:
    out = workdir / "collective_scaling.csv"
    argv = ["sweep", "--n", ",".join(map(str, COLLECTIVE_N)), "--c2", ",".join(COLLECTIVE_C2),
            "--trials", "0", "--threads", "1", "--out", str(out)]
    points = len(COLLECTIVE_N) * len(COLLECTIVE_C2)

    def check(paths, _first) -> list[str]:
        rows = _read_csv(paths[0])
        if len(rows) != points:
            return [f"expected {points} rows, got {len(rows)}"]
        reference = _read_csv(REFERENCE_DIR / "collective_scaling.csv")
        problems = _sandwich(rows) + _match_collective(rows, reference)
        for row in rows:
            if any(row[col] != "" for col in MC_COLUMNS):
                problems.append(f"n={row['n']} c2={row['c2']}: online columns not empty")
        return problems

    return Op("sweep collective n=150..450", check, argv=argv, outputs=(out,), points=points)


def _spectrum_check(n: int, c2: float):
    def check(paths, _first) -> list[str]:
        rows = _read_csv(paths[0])
        eigen = [r for r in rows if r["table"] == "eigen"]
        diag = [r for r in rows if r["table"] == "diag"]
        if len(eigen) != n or len(diag) != min(n, 15):
            return [f"expected {n} eigen and {min(n, 15)} diag rows, got {len(eigen)}, {len(diag)}"]
        thetas = np.array([float(r["theta_l"]) for r in eigen])
        lambdas = np.array([float(r["lambda_l"]) for r in eigen])
        oracle = np.linalg.eigvalsh(gram.build_gram(n, math.sqrt(c2)))
        problems = []
        if not (thetas[0] > 0.0 and thetas[-1] < math.pi and np.all(np.diff(thetas) > 0.0)):
            problems.append("eigen-angles are not increasing inside (0, pi)")
        # 12 printed digits leave about 5e-13 relative error per eigenvalue
        error = float(np.abs(np.sort(lambdas) - oracle).max())
        if error > 1e-10 * oracle[-1]:
            problems.append(f"eigenvalues differ from eigvalsh by {error:.3e}")
        if abs(lambdas.sum() - n) > 1e-10 * n:
            problems.append(f"eigenvalues sum to {lambdas.sum()!r}, not {n}")
        return problems

    return check


def _priors(seed: int, n: int) -> np.ndarray:
    weights = np.random.default_rng([seed, n]).uniform(0.5, 1.5, n)
    return weights / weights.sum()


def _collective_spectral(seed: int, workdir: Path) -> Workload:
    ops = [_collective_sweep(workdir)]
    for n in SPECTRUM_N:
        for c2 in SPECTRUM_C2:
            out = workdir / f"spectrum_n{n}_c2_{c2}.csv"
            argv = ["spectrum", "--n", str(n), "--c2", c2, "--threads", "1", "--out", str(out)]
            ops.append(Op(f"spectrum n={n} c2={c2}", _spectrum_check(n, float(c2)),
                          argv=argv, outputs=(out,), points=1))
    priors_used = {}
    for n in LIBRARY_N:
        g = gram.build_gram(n, math.sqrt(LIBRARY_C2))
        p = _priors(seed, n)
        priors_used[str(n)] = p.tolist()
        ops.extend(_library_ops(n, g, p))
    return Workload("collective_spectral", seed, ops, {
        "argv": [op.argv for op in ops if op.argv is not None],
        "library": {"gram": f"build_gram(n, sqrt({LIBRARY_C2}))", "n": list(LIBRARY_N),
                    "priors": priors_used},
    })


def _library_ops(n: int, g: np.ndarray, p: np.ndarray) -> list[Op]:
    wg_label = f"weighted_gram n={n}"
    embed_label = f"embed_states n={n}"

    def check_weighted(result, _first) -> list[str]:
        problems = []
        w = np.sqrt(p)[:, None] * g * np.sqrt(p)[None, :]
        if np.abs(result.matrix - w).max() > 1e-15:
            problems.append("W is not diag(sqrt p) G diag(sqrt p)")
        error = np.abs(result.sqrt_matrix @ result.sqrt_matrix - w).max()
        if error > 1e-10:
            problems.append(f"sqrt(W)^2 differs from W by {error:.3e}")
        return problems

    def check_embed(result, _first) -> list[str]:
        error = np.abs(result.T @ result - g).max()
        return [f"state overlaps differ from G by {error:.3e}"] if error > 1e-10 else []

    def check_povm(result, first) -> list[str]:
        weighted = first[wg_label]
        lower = collective.success_lower_bound(weighted)
        srm = collective.srm_success(weighted)
        upper = collective.success_upper_bound(weighted)
        value = result.success_probability
        if not (lower <= srm + SANDWICH_SLACK and srm <= value + SANDWICH_SLACK
                and value <= upper + SANDWICH_SLACK):
            return [f"lower<=srm<=opt<=upper fails ({lower}, {srm}, {value}, {upper})"]
        return []

    return [
        Op(label=wg_label, check=check_weighted,
           call=lambda _r: collective.weighted_gram(g, p),
           fingerprint=lambda r: _array_sha256(r.sqrt_matrix)),
        Op(label=embed_label, check=check_embed,
           call=lambda _r: collective.embed_states(g),
           fingerprint=_array_sha256),
        Op(label=f"optimal_povm_fixed_point n={n}", check=check_povm,
           call=lambda results: collective.optimal_povm_fixed_point(results[embed_label], p),
           fingerprint=lambda r: repr((r.success_probability, r.iterations, r.converged)),
           points=1),
    ]


# ---------------------------------------------------------------------------
# montecarlo: the README figure sweep and the montecarlo --records audit path


def _fig_sweep(seed: int, workdir: Path) -> Op:
    out = workdir / "fig_sweep.csv"
    argv = ["sweep", "--n", "50", "--c2", FIG_C2, "--trials", str(FIG_TRIALS),
            "--seed", str(seed), "--threads", "1", "--out", str(out)]
    points = len(FIG_C2.split(","))

    def check(paths, _first) -> list[str]:
        rows = _read_csv(paths[0])
        if len(rows) != points:
            return [f"expected {points} rows, got {len(rows)}"]
        reference = _read_csv(REFERENCE_DIR / f"fig_sweep_seed{REFERENCE_SEED}.csv")
        problems = _sandwich(rows) + _match_collective(rows, reference)
        for row in rows:
            n, c = int(row["n"]), math.sqrt(float(row["c2"]))
            basic = float(row["basic_local"])
            greedy, sigma = float(row["greedy_estimate"]), float(row["greedy_stderr"])
            if abs(basic - online.basic_local_closed_form(n, c)) > SANDWICH_SLACK:
                problems.append(f"c2={row['c2']}: basic_local {basic} is not 1-c2+c2/n")
            # criterion 09: basic <= greedy <= collective optimum, up to Monte Carlo error
            if not basic - SIGMAS * sigma <= greedy <= float(row["fixed_point_opt"]) + SIGMAS * sigma:
                problems.append(f"c2={row['c2']}: greedy {greedy} +- {sigma} outside "
                                f"[{basic}, {row['fixed_point_opt']}] by more than {SIGMAS} sigma")
        if seed == REFERENCE_SEED:
            for row, ref in zip(rows, reference):
                if any(row[col] != ref[col] for col in MC_COLUMNS):
                    problems.append(f"c2={row['c2']}: Monte Carlo columns differ from the "
                                    f"seed-{REFERENCE_SEED} reference")
        return problems

    return Op("sweep n=50 figure grid", check, argv=argv, outputs=(out,),
              points=points, trials=points * FIG_TRIALS)


def _records_check(seed: int, strategy: str):
    def check(paths, _first) -> list[str]:
        summary_path, records_path = paths
        rows = _read_csv(summary_path)
        tally: dict[tuple[str, str], list[int]] = {}
        with open(records_path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                counts = tally.setdefault((str(record["n"]), repr(float(record["c2"]))), [0, 0])
                counts[0] += 1
                counts[1] += record["success"]
        problems = []
        for row in rows:
            n, c2, trials = int(row["n"]), float(row["c2"]), int(row["trials"])
            estimate = float(row["estimate"])
            c = math.sqrt(c2)
            exact = (online.basic_local_closed_form(n, c) if strategy == "basic"
                     else online.exact_greedy_enumeration(n, c))
            sigma = math.sqrt(exact * (1.0 - exact) / trials)
            if abs(estimate - exact) > SIGMAS * sigma:
                problems.append(f"{strategy} n={n} c2={c2}: estimate {estimate} is more than "
                                f"{SIGMAS} sigma from the exact {exact}")
            seen, successes = tally.get((str(n), repr(c2)), (0, 0))
            if seen != trials or abs(successes / trials - estimate) > 1e-12:
                problems.append(f"{strategy} n={n} c2={c2}: records give {successes}/{seen}, "
                                f"summary says {estimate} of {trials}")
        if len(tally) != len(rows):
            problems.append(f"records hold {len(tally)} grid points, summary {len(rows)}")
        if seed == REFERENCE_SEED:
            reference = json.loads(
                (REFERENCE_DIR / f"records_audit_seed{REFERENCE_SEED}.json").read_text())
            for path in paths:
                if file_sha256(path) != reference[path.name]:
                    problems.append(f"{path.name} differs from the seed-{REFERENCE_SEED} reference")
        return problems

    return check


def _montecarlo(seed: int, workdir: Path) -> Workload:
    ops = [_fig_sweep(seed, workdir)]
    for strategy, spec in (("basic", RECORDS_BASIC), ("greedy", RECORDS_GREEDY)):
        out = workdir / f"records_{strategy}.csv"
        records = workdir / f"records_{strategy}.jsonl"
        argv = ["montecarlo", "--strategy", strategy, "--n", str(spec["n"]), "--c2", spec["c2"],
                "--trials", str(spec["trials"]), "--seed", str(seed), "--threads", "1",
                "--out", str(out), "--records", str(records)]
        points = len(spec["c2"].split(","))
        ops.append(Op(f"montecarlo --records {strategy}", _records_check(seed, strategy),
                      argv=argv, outputs=(out, records),
                      points=points, trials=points * spec["trials"]))
    return Workload("montecarlo", seed, ops, {"argv": [op.argv for op in ops]})


_WORKLOAD_FACTORIES = {
    "montecarlo": _montecarlo,
    "collective_spectral": _collective_spectral,
}

