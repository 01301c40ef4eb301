"""Batch experiment runner.

Three subcommands expose the library with stable CSV/JSONL output schemas:

* ``sweep``      -- collective bounds, SRM, fixed-point optimum, asymptote,
                    and optionally the two online strategies over an (n, c^2)
                    grid.
* ``spectrum``   -- eigenvalue-angle table and square-root-diagonal deviation
                    table at a single (n, c^2) point.
* ``montecarlo`` -- seeded Monte Carlo estimates for one online strategy,
                    with an optional per-trial JSONL audit dump, streamed
                    to its file in grid order.

Configuration comes from an optional flat key=value file plus command-line
flags; flags win.  One table, _SUBCOMMANDS, declares each subcommand's keys:
every key with help text is also a flag, and the c2 range keys (c2_start,
c2_stop, c2_count) are config-file-only.  Flags are collected as strings and
parsed by the same code as config-file values, so a bad value exits 2 with
a config error whichever way it is given.  The whole configuration is
checked first.  Then every output file is created under a temporary name
before any computing starts, and all of a run's files are renamed together
once all are complete, so a failed run leaves none of its files behind.  An
output that cannot be written ends the run with exit code 3.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import io
import json
import math
import os
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Collection, Iterable, Iterator, NamedTuple, Optional, Sequence, TextIO

import numpy as np

from .collective import collective_summary
from .gram import diag_deviation_asymptotic, solve_spectrum, sqrt_trace_limit
from .online import basic_local_closed_form, iter_trial_records, monte_carlo

__all__ = ["ConfigError", "main", "entrypoint",
           "run_sweep", "run_spectrum_dump", "run_montecarlo"]

_MAX_SEED = 2**64

SWEEP_COLUMNS = (
    "n", "c2", "lower_bound", "srm", "fixed_point_opt", "upper_bound",
    "asymptotic", "basic_local", "greedy_estimate", "greedy_stderr",
)
SPECTRUM_COLUMNS = (
    "table", "l", "theta_l", "lambda_l", "k", "sqrtg_kk", "gamma",
    "deviation_numeric", "deviation_asymptotic",
)
MONTECARLO_COLUMNS = ("strategy", "n", "c2", "trials", "estimate", "std_error", "base_seed")
RECORD_COLUMNS = ("strategy", "n", "c2", "trial", "true_k", "guess", "outcomes", "success", "seed")


class ConfigError(Exception):
    """Invalid or inconsistent experiment configuration."""


class _OutputError(Exception):
    """An output file could not be created, written or renamed."""

    def __init__(self, path, exc: OSError):
        super().__init__(f"{path}: {exc.strerror or exc}")


# ---------------------------------------------------------------------------
# configuration


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from exc


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from exc


def _int_at_least(raw: dict[str, str], key: str, default: str, low: int) -> int:
    value = _parse_int(key, raw.get(key, default))
    if value < low:
        raise ConfigError(f"{key} must be >= {low}, got {value}")
    return value


def _parse_list(key: str, raw: str, parse: Callable[[str, str], object]) -> list:
    return [parse(key, part) for part in raw.split(",") if part.strip()]


def _read_config_file(path: str, allowed: Collection[str]) -> dict[str, str]:
    raw: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in allowed:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value.strip()
    return raw


def _common_settings(raw: dict[str, str]) -> dict:
    out = raw.get("out")
    fmt = raw.get("format", "csv")
    if fmt not in ("csv", "jsonl"):
        raise ConfigError(f"format must be csv or jsonl, got {fmt!r}")
    seed = _parse_int("seed", raw.get("seed", "0"))
    if not 0 <= seed < _MAX_SEED:
        raise ConfigError(f"seed must lie in [0, 2^64), got {seed}")
    threads = _int_at_least(raw, "threads", "1", 1)
    return {"out": out, "format": fmt, "seed": seed, "threads": threads}


def _c2_grid(raw: dict[str, str]) -> list[float]:
    has_list = "c2" in raw
    has_range = any(k in raw for k in ("c2_start", "c2_stop", "c2_count"))
    if has_list and has_range:
        raise ConfigError("give either c2 or c2_start/c2_stop/c2_count, not both")
    if has_range:
        missing = [k for k in ("c2_start", "c2_stop", "c2_count") if k not in raw]
        if missing:
            raise ConfigError(f"incomplete c2 range, missing {', '.join(missing)}")
        start = _parse_float("c2_start", raw["c2_start"])
        stop = _parse_float("c2_stop", raw["c2_stop"])
        count = _int_at_least(raw, "c2_count", "", 1)
        grid = [float(v) for v in np.linspace(start, stop, count)]
    elif has_list:
        grid = _parse_list("c2", raw["c2"], _parse_float)
    else:
        grid = []
    if not grid:
        raise ConfigError("empty c2 grid")
    for value in grid:
        if not 0.0 <= value < 1.0:
            raise ConfigError(f"c2 values must lie in [0, 1), got {value}")
    return grid


def _grid_points(raw: dict[str, str]) -> list[tuple[int, float]]:
    n_values = _parse_list("n", raw.get("n", ""), _parse_int)
    if not n_values:
        raise ConfigError("empty n grid")
    for value in n_values:
        if value < 1:
            raise ConfigError(f"n values must be >= 1, got {value}")
    c2_values = _c2_grid(raw)
    return [(n, c2) for n in n_values for c2 in c2_values]


# ---------------------------------------------------------------------------
# serialization


# every cell is None, a str, an int or a float; per-trial records do not pass
# through here (see _write_records)
def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (str, int)):
        return str(value)
    return f"{value:.12g}"


def _json_cell(value):
    if value is None or isinstance(value, (str, int)):
        return value
    # round-trip through the 12-significant-digit text form for stable diffs
    return float(f"{value:.12g}")


def _serialize(columns: Sequence[str], rows: Iterable[dict], fmt: str) -> Iterator[str]:
    """Yield the output one line at a time, each ending in a newline.

    Missing columns serialize empty (CSV) or null (JSONL); extra keys are ignored.
    """
    if fmt == "csv":
        yield ",".join(columns) + "\n"
        for row in rows:
            yield ",".join(_format_cell(row.get(col)) for col in columns) + "\n"
    else:
        for row in rows:
            yield json.dumps(
                {col: _json_cell(row.get(col)) for col in columns},
                separators=(",", ":"),
            ) + "\n"


# the record keys after the fixed (strategy, n, c2) prefix, in RECORD_COLUMNS order
_RECORD_TAIL = ',"trial":%d,"true_k":%d,"guess":%d,"outcomes":"%s","success":%s,"seed":%d}\n'
_JSON_BOOL = ("false", "true")


def _write_records(write, strategy: str, n: int, c2: float, trials: int, seed: int) -> int:
    """Write one JSONL line per trial of a grid point; return the number of successes.

    Each line fills one template with ``%``.  Its prefix is json.dumps's own
    text for the point's strategy, n and c2, so a line is byte-identical to
    ``json.dumps({col: _json_cell(v) for col in RECORD_COLUMNS})``.
    """
    prefix = json.dumps({"strategy": strategy, "n": n, "c2": _json_cell(c2)},
                        separators=(",", ":"))[:-1]
    template = prefix + _RECORD_TAIL
    successes = 0
    for trial, record in enumerate(
        iter_trial_records(strategy, n, math.sqrt(c2), trials, seed)
    ):
        successes += record.success
        write(template % (trial, record.true_k, record.guess, record.outcomes,
                          _JSON_BOOL[record.success], record.seed))
    return successes


@contextlib.contextmanager
def _staged_outputs(*paths: Optional[str]) -> Iterator[list]:
    """Yield a temp-file handle per path (None for None); rename all together at the end.

    Every temp file is created before the caller computes anything, so an
    unwritable path, or one that names a directory, fails at once.  The
    files are renamed only after all of them are complete; on any exception
    every temp file is removed, and so is any file the run has already
    renamed, so a failed run leaves none of its files.  An OSError is
    re-raised as _OutputError naming the output.  Each temp file is created
    by open(), so the kernel gives it the mode the process umask allows.
    """
    staged: list[tuple[Path, str, TextIO]] = []
    renamed: list[Path] = []
    handles: list[Optional[TextIO]] = []
    concerned = None  # the output an OSError raised at this point is about
    try:
        for path in paths:
            handle = None
            if path is not None:
                concerned = target = Path(path)
                if target.is_dir():
                    # the final rename would fail, after all the computing
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
                while handle is None:  # a random name; a clash draws again
                    tmp_name = f"{target}.{os.urandom(8).hex()}.tmp"
                    with contextlib.suppress(FileExistsError):
                        handle = open(tmp_name, "x", encoding="utf-8", newline="\n")
                staged.append((target, tmp_name, handle))
            handles.append(handle)
        # the body writes only to the staged files, and a failed write does
        # not say which one
        concerned = " or ".join(str(target) for target, _, _ in staged) or None
        yield handles
        for concerned, _, handle in staged:
            handle.close()
        for concerned, tmp_name, _ in staged:
            os.replace(tmp_name, concerned)
            renamed.append(concerned)
    except BaseException as exc:
        for target, tmp_name, handle in staged:
            with contextlib.suppress(OSError):
                handle.close()
            with contextlib.suppress(OSError):
                os.unlink(target if target in renamed else tmp_name)
        if isinstance(exc, OSError) and concerned is not None:
            raise _OutputError(concerned, exc) from exc
        raise


def _map_grid(worker, points, threads: int) -> Iterator:
    """Yield worker(point) for every point in grid order.

    With several threads, at most ``threads`` points are computed or waiting
    to be consumed at any time, so per-point results never pile up.
    """
    if threads == 1 or len(points) <= 1:
        yield from map(worker, points)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending: deque = deque()
        for point in points:
            if len(pending) == threads:
                yield pending.popleft().result()
            pending.append(pool.submit(worker, point))
        while pending:
            yield pending.popleft().result()


# ---------------------------------------------------------------------------
# subcommands


def _sweep_config(raw: dict[str, str]) -> tuple[dict, list, int, float, int]:
    settings = _common_settings(raw)
    points = _grid_points(raw)
    trials = _int_at_least(raw, "trials", "0", 0)
    fp_tol = _parse_float("fp_tol", raw.get("fp_tol", "1e-10"))
    if not fp_tol > 0.0:
        raise ConfigError(f"fp_tol must be > 0, got {fp_tol}")
    return settings, points, trials, fp_tol, _int_at_least(raw, "fp_max_iter", "10000", 1)


def _spectrum_config(raw: dict[str, str]) -> tuple[dict, int, float, int]:
    settings = _common_settings(raw)
    points = _grid_points(raw)
    if len(points) != 1:
        raise ConfigError("spectrum expects a single n and a single c2")
    (n, c2), = points
    kmax = _parse_int("kmax", raw.get("kmax", str(min(n, 15))))
    if not 1 <= kmax <= n:
        raise ConfigError(f"kmax must lie in [1, n={n}], got {kmax}")
    return settings, n, c2, kmax


def _montecarlo_config(raw: dict[str, str]) -> tuple[dict, str, list, int]:
    settings = _common_settings(raw)
    strategy = raw.get("strategy")
    if strategy not in ("basic", "greedy"):
        raise ConfigError(f"strategy must be basic or greedy, got {strategy!r}")
    points = _grid_points(raw)
    out, records = settings["out"], raw.get("records")
    if out is not None and records is not None and Path(out).resolve() == Path(records).resolve():
        raise ConfigError(f"out and records name the same file: {records}")
    return settings, strategy, points, _int_at_least(raw, "trials", "100000", 1)


def run_sweep(config: tuple[dict, list, int, float, int]) -> list[dict]:
    settings, points, trials, fp_tol, fp_max_iter = config

    def worker(point: tuple[int, float]) -> dict:
        n, c2 = point
        c = math.sqrt(c2)
        summary = collective_summary(n, c, tol=fp_tol, max_iter=fp_max_iter)
        row = {**dataclasses.asdict(summary), "c2": c2}
        if trials > 0:
            estimate, stderr = monte_carlo("greedy", n, c, trials, settings["seed"])
            row["basic_local"] = basic_local_closed_form(n, c)
            row["greedy_estimate"] = estimate
            row["greedy_stderr"] = stderr
        return row

    return list(_map_grid(worker, points, settings["threads"]))


def run_spectrum_dump(config: tuple[dict, int, float, int]) -> list[dict]:
    _, n, c2, kmax = config
    c = math.sqrt(c2)
    spectrum = solve_spectrum(n, c)
    # only the printed rows of the eigenvector matrix and diagonal of sqrt(G)
    diag = (spectrum.eigenvector_rows(kmax) ** 2) @ np.sqrt(spectrum.lambdas)
    gamma = sqrt_trace_limit(c)
    rows: list[dict] = []
    for l in range(n):
        rows.append({
            "table": "eigen",
            "l": l + 1,
            "theta_l": float(spectrum.thetas[l]),
            "lambda_l": float(spectrum.lambdas[l]),
        })
    for k in range(1, kmax + 1):
        diag_kk = float(diag[k - 1])
        rows.append({
            "table": "diag",
            "k": k,
            "sqrtg_kk": diag_kk,
            "gamma": gamma,
            "deviation_numeric": diag_kk - gamma,
            "deviation_asymptotic": diag_deviation_asymptotic(k, c),
        })
    return rows


def run_montecarlo(config: tuple[dict, str, list, int],
                   records: Optional[TextIO] = None) -> list[dict]:
    """Estimate one online strategy over the grid; return the summary rows.

    With a ``records`` handle, every trial's JSONL line is written to it in
    grid order, and each point's estimate is counted from those same trials.
    """
    settings, strategy, points, trials = config
    seed = settings["seed"]
    threads = min(settings["threads"], len(points))

    def worker(point: tuple[int, float]) -> tuple[dict, Optional[str]]:
        n, c2 = point
        text = None
        if records is None:
            estimate, stderr = monte_carlo(strategy, n, math.sqrt(c2), trials, seed)
        else:
            # one thread streams into the file; several keep each point's text
            # until the points before it are written
            sink = records if threads == 1 else io.StringIO()
            estimate = _write_records(sink.write, strategy, n, c2, trials, seed) / trials
            stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
            if sink is not records:
                text = sink.getvalue()
        row = {
            "strategy": strategy, "n": n, "c2": c2, "trials": trials,
            "estimate": estimate, "std_error": stderr, "base_seed": seed,
        }
        return row, text

    rows = []
    for row, text in _map_grid(worker, points, threads):
        rows.append(row)
        if text is not None:
            records.write(text)
    return rows


# ---------------------------------------------------------------------------
# argument parsing and dispatch


class _Subcommand(NamedTuple):
    help: str
    # every key the subcommand reads, with its flag's help text; None marks
    # a key that only a config file can set
    keys: dict[str, Optional[str]]
    configure: Callable[[dict[str, str]], tuple]
    runner: str  # looked up on this module per call, so a wrapper installed there runs
    columns: tuple[str, ...]


# a spectrum draws no random numbers, so it takes no seed; it keeps threads,
# which changes no output, for callers that pass it to every subcommand
_COMMON = {"out": "output path (default: stdout)", "format": "csv or jsonl",
           "threads": "worker threads for grid points"}
_SEED = {"seed": "base seed, 64-bit unsigned"}
_GRID = {"n": "comma-separated sequence lengths",
         "c2": "comma-separated squared overlaps in [0, 1)"}
_SUBCOMMANDS = {
    "sweep": _Subcommand(
        "collective figures over an (n, c2) grid",
        {**_COMMON, **_SEED, **_GRID, "c2_start": None, "c2_stop": None, "c2_count": None,
         "trials": "greedy Monte Carlo trials per point (0 skips online columns)",
         "fp_tol": "fixed-point solver gain tolerance",
         "fp_max_iter": "fixed-point solver iteration cap"},
        _sweep_config, "run_sweep", SWEEP_COLUMNS),
    "spectrum": _Subcommand(
        "eigenvalue and sqrt-diagonal tables",
        {**_COMMON, "n": "sequence length (single value)",
         "c2": "squared overlap (single value)",
         "kmax": "diagonal rows to emit (default min(n, 15))"},
        _spectrum_config, "run_spectrum_dump", SPECTRUM_COLUMNS),
    "montecarlo": _Subcommand(
        "online-strategy Monte Carlo estimates",
        {**_COMMON, **_SEED, "strategy": "basic or greedy", **_GRID,
         "trials": "trials per grid point",
         "records": "optional JSONL path for per-trial records"},
        _montecarlo_config, "run_montecarlo", MONTECARLO_COLUMNS),
}


def _build_parser() -> argparse.ArgumentParser:
    # flags only collect strings: the configure function parses them, as it
    # parses config-file values
    parser = argparse.ArgumentParser(
        prog="qchangepoint",
        description="change-point identification experiments on qubit streams",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, spec in _SUBCOMMANDS.items():
        command = sub.add_parser(name, help=spec.help)
        command.add_argument("--config", help="flat key=value config file")
        for key, flag_help in spec.keys.items():
            if flag_help is not None:
                command.add_argument("--" + key.replace("_", "-"), dest=key, help=flag_help)
    return parser


def _merge_config(args: argparse.Namespace, keys: Collection[str]) -> dict[str, str]:
    merged = _read_config_file(args.config, keys) if args.config else {}
    for key in keys:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    return merged


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    spec = _SUBCOMMANDS[args.subcommand]
    try:
        raw = _merge_config(args, spec.keys)
        # the whole configuration is checked before any output file exists;
        # every configuration starts with the common settings
        config = spec.configure(raw)
        settings = config[0]
        run = globals()[spec.runner]
        with _staged_outputs(settings["out"], raw.get("records")) as (out, records):
            # only montecarlo accepts a records path
            rows = run(config) if records is None else run(config, records)
            lines = _serialize(spec.columns, rows, settings["format"])
            if out is not None:
                out.writelines(lines)
        if out is None:
            sys.stdout.writelines(lines)
    except ConfigError as exc:
        print(f"qchangepoint: config error: {exc}", file=sys.stderr)
        return 2
    except _OutputError as exc:
        print(f"qchangepoint: cannot write {exc}", file=sys.stderr)
        return 3
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
