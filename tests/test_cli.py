"""Tests for the command-line experiment runner."""

import csv
import errno
import hashlib
import json
import math
import os
import stat
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qchangepoint.cli as cli
from qchangepoint.online import TrialRecord, basic_local_closed_form

SWEEP_GOLDEN = (
    "n,c2,lower_bound,srm,fixed_point_opt,upper_bound,asymptotic,"
    "basic_local,greedy_estimate,greedy_stderr\n"
    "2,0.36,0.9,0.9,0.9,0.9,0.795042557927,,,\n"
)

SPECTRUM_GOLDEN = (
    "table,l,theta_l,lambda_l,k,sqrtg_kk,gamma,deviation_numeric,deviation_asymptotic\n"
    "eigen,1,0.722734247813,1.5,,,,,\n"
    "eigen,2,1.82347658194,0.5,,,,,\n"
    "diag,,,,1,0.965925826289,0.929402881076,0.0365229452133,0.0332451900335\n"
    "diag,,,,2,0.965925826289,0.929402881076,0.0365229452133,0.00293848741431\n"
)

MONTECARLO_GOLDEN = (
    "strategy,n,c2,trials,estimate,std_error,base_seed\n"
    "basic,5,0.5,1000,0.607,0.0154450963092,3\n"
)

# montecarlo --n 3 --c2 0.5 --trials 4 --seed 3 --records FILE, per strategy
RECORDS_GOLDEN = {
    "greedy": (
        '{"strategy":"greedy","n":3,"c2":0.5,"trial":0,"true_k":3,"guess":3,'
        '"outcomes":"001","success":true,"seed":2092789425003139053}\n'
        '{"strategy":"greedy","n":3,"c2":0.5,"trial":1,"true_k":2,"guess":2,'
        '"outcomes":"011","success":true,"seed":12918135221727111561}\n'
        '{"strategy":"greedy","n":3,"c2":0.5,"trial":2,"true_k":2,"guess":2,'
        '"outcomes":"011","success":true,"seed":11307387092600937729}\n'
        '{"strategy":"greedy","n":3,"c2":0.5,"trial":3,"true_k":2,"guess":1,'
        '"outcomes":"111","success":false,"seed":1344154044715485647}\n'
    ),
    "basic": (
        '{"strategy":"basic","n":3,"c2":0.5,"trial":0,"true_k":3,"guess":3,'
        '"outcomes":"000","success":true,"seed":2092789425003139053}\n'
        '{"strategy":"basic","n":3,"c2":0.5,"trial":1,"true_k":2,"guess":2,'
        '"outcomes":"011","success":true,"seed":12918135221727111561}\n'
        '{"strategy":"basic","n":3,"c2":0.5,"trial":2,"true_k":2,"guess":3,'
        '"outcomes":"001","success":false,"seed":11307387092600937729}\n'
        '{"strategy":"basic","n":3,"c2":0.5,"trial":3,"true_k":2,"guess":3,'
        '"outcomes":"000","success":false,"seed":1344154044715485647}\n'
    ),
}


# the benchmark's recorded sweeps (perfbench/), read here and never written
REFERENCE_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "reference"
FIGURE_C2 = ",".join(f"{0.05 * i:.2f}".rstrip("0").rstrip(".") for i in range(20))
COLLECTIVE_COLUMNS = ("lower_bound", "srm", "fixed_point_opt", "upper_bound", "asymptotic")


class TestGoldenOutputs:
    def test_sweep_golden_file(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--n", "2", "--c2", "0.36", "--out", str(out)]) == 0
        assert out.read_bytes().decode("utf-8") == SWEEP_GOLDEN

    def test_spectrum_golden_file(self, tmp_path):
        out = tmp_path / "spectrum.csv"
        assert cli.main(["spectrum", "--n", "2", "--c2", "0.25", "--out", str(out)]) == 0
        assert out.read_bytes().decode("utf-8") == SPECTRUM_GOLDEN

    def test_montecarlo_golden_file(self, tmp_path):
        out = tmp_path / "mc.csv"
        argv = ["montecarlo", "--strategy", "basic", "--n", "5", "--c2", "0.5",
                "--trials", "1000", "--seed", "3", "--out", str(out)]
        assert cli.main(argv) == 0
        assert out.read_bytes().decode("utf-8") == MONTECARLO_GOLDEN

    @pytest.mark.parametrize("strategy", sorted(RECORDS_GOLDEN))
    def test_records_golden_file(self, tmp_path, strategy):
        records = tmp_path / "records.jsonl"
        argv = ["montecarlo", "--strategy", strategy, "--n", "3", "--c2", "0.5",
                "--trials", "4", "--seed", "3", "--out", str(tmp_path / "mc.csv"),
                "--records", str(records)]
        assert cli.main(argv) == 0
        assert records.read_bytes().decode("utf-8") == RECORDS_GOLDEN[strategy]

    def test_output_mode_follows_umask(self, tmp_path):
        out = tmp_path / "mc.csv"
        previous = os.umask(0o022)
        try:
            rc = cli.main(["montecarlo", "--strategy", "basic", "--n", "3", "--c2", "0.5",
                           "--trials", "10", "--out", str(out)])
        finally:
            os.umask(previous)
        assert rc == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o644

    def test_outputs_never_touch_the_umask(self, tmp_path, monkeypatch):
        # setting the umask, even to read it, changes it for every thread of
        # the process; the kernel applies it to open() without being asked
        out, records = tmp_path / "mc.csv", tmp_path / "records.jsonl"

        def umask(mask):
            raise AssertionError(f"os.umask({mask:#o}) called")

        previous = os.umask(0o022)
        try:
            monkeypatch.setattr(os, "umask", umask)
            rc = cli.main(["montecarlo", "--strategy", "greedy", "--n", "3", "--c2", "0.5",
                           "--trials", "10", "--out", str(out), "--records", str(records)])
        finally:
            monkeypatch.undo()
            os.umask(previous)
        assert rc == 0
        assert sorted(tmp_path.iterdir()) == [out, records]
        for path in (out, records):
            assert stat.S_IMODE(path.stat().st_mode) == 0o644

    def test_stdout_when_no_out(self, capsys):
        assert cli.main(["sweep", "--n", "2", "--c2", "0.36"]) == 0
        assert capsys.readouterr().out == SWEEP_GOLDEN


class TestBenchmarkReference:
    @pytest.mark.parametrize("grid, reference", [
        (["--n", "150,300,450", "--c2", "0.1,0.5,0.9,0.99"], "collective_scaling.csv"),
        (["--n", "50", "--c2", FIGURE_C2], "fig_sweep_seed1.csv"),
    ])
    def test_collective_columns_match(self, tmp_path, grid, reference):
        # the benchmark's two sweep grids against its recorded collective
        # columns, to 1e-9.  The fixed-point value is checked one-sided, as
        # the benchmark does: it is the success probability of a valid POVM,
        # so a solver that converges further can only raise it
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", *grid, "--trials", "0", "--threads", "1",
                         "--out", str(out)]) == 0
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        with open(REFERENCE_DIR / reference, newline="") as handle:
            expected = list(csv.DictReader(handle))
        assert [(r["n"], r["c2"]) for r in rows] == [(r["n"], r["c2"]) for r in expected]
        for row, ref in zip(rows, expected):
            for column in COLLECTIVE_COLUMNS:
                got, want = float(row[column]), float(ref[column])
                where = f"n={row['n']} c2={row['c2']} {column}"
                if column == "fixed_point_opt":
                    assert got >= want - 1e-9, where
                else:
                    assert got == pytest.approx(want, abs=1e-9), where

    def test_figure_grid_monte_carlo_columns_match(self, tmp_path):
        # the benchmark's figure grid with its 1e4 greedy trials at seed 1:
        # the Monte Carlo cells as printed, so one flipped click at n = 50
        # shows here and not only in the benchmark
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--n", "50", "--c2", FIGURE_C2, "--trials", "10000",
                         "--seed", "1", "--threads", "1", "--out", str(out)]) == 0
        columns = ("n", "c2", "basic_local", "greedy_estimate", "greedy_stderr")
        with open(out, newline="") as handle:
            rows = [tuple(r[k] for k in columns) for r in csv.DictReader(handle)]
        with open(REFERENCE_DIR / "fig_sweep_seed1.csv", newline="") as handle:
            expected = [tuple(r[k] for k in columns) for r in csv.DictReader(handle)]
        assert len(rows) == 20
        assert rows == expected

    def test_montecarlo_records_match(self, tmp_path):
        # the benchmark's two montecarlo --records runs at its reference seed,
        # byte for byte against the recorded sha256 of every output
        expected = json.loads((REFERENCE_DIR / "records_audit_seed1.json").read_text())
        digests = {}
        for strategy, n, c2, trials in (("basic", "50", "0.5", "100000"),
                                        ("greedy", "12", "0.3,0.7", "50000")):
            out = tmp_path / f"records_{strategy}.csv"
            records = tmp_path / f"records_{strategy}.jsonl"
            assert cli.main(["montecarlo", "--strategy", strategy, "--n", n, "--c2", c2,
                             "--trials", trials, "--seed", "1", "--threads", "1",
                             "--out", str(out), "--records", str(records)]) == 0
            for path in (out, records):
                digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digests == expected


class TestSpectrumCommand:
    def test_two_state_diagonal_symmetry(self, tmp_path):
        # mirror symmetry of the Toeplitz square root makes both deviations equal
        out = tmp_path / "s.csv"
        cli.main(["spectrum", "--n", "2", "--c2", "0.7", "--out", str(out)])
        rows = out.read_text().strip().split("\n")[1:]
        diag = [r.split(",") for r in rows if r.startswith("diag")]
        assert diag[0][5] == diag[1][5]

    def test_orthogonal_case(self, tmp_path):
        out = tmp_path / "s.csv"
        cli.main(["spectrum", "--n", "4", "--c2", "0", "--out", str(out)])
        for row in out.read_text().strip().split("\n")[1:]:
            cells = row.split(",")
            if cells[0] == "diag":
                assert cells[6] == "1"                  # gamma
                assert abs(float(cells[7])) < 1e-14     # numeric deviation
                assert float(cells[8]) == 0.0           # asymptotic deviation

    def test_diagonal_decay_dump_at_n30(self, tmp_path):
        # the numeric and closed-form deviation columns agree within 15%
        # for k = 3..10 at this overlap
        out = tmp_path / "s.csv"
        cli.main(["spectrum", "--n", "30", "--c2", "0.25", "--kmax", "15", "--out", str(out)])
        rows = [r.split(",") for r in out.read_text().strip().split("\n")[1:]]
        diag = {int(r[4]): (float(r[7]), float(r[8])) for r in rows if r[0] == "diag"}
        assert len(diag) == 15
        for k in range(3, 11):
            numeric, closed = diag[k]
            assert abs(numeric - closed) / abs(numeric) < 0.15

    def test_requires_single_point(self):
        assert cli.main(["spectrum", "--n", "4,5", "--c2", "0.5"]) == 2
        assert cli.main(["spectrum", "--n", "4", "--c2", "0.2,0.5"]) == 2

    def test_kmax_validation(self):
        assert cli.main(["spectrum", "--n", "4", "--c2", "0.5", "--kmax", "9"]) == 2

    def test_dump_memory_at_n_2000(self):
        # the dump builds only the kmax eigenvector rows it prints, not the
        # n x n matrix (32 MB, twice over while it was normalised)
        tracemalloc.start()
        try:
            rows = cli.run_spectrum_dump(({}, 2000, 0.5, 15))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 2015
        assert peak < 4e6


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("# demo sweep\nn = 2\nc2 = 0.5\nformat = csv\n")
        assert cli.main(["sweep", "--config", str(cfg), "--c2", "0.36"]) == 0
        assert capsys.readouterr().out == SWEEP_GOLDEN

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n = 2\nc2 = 0.5\nbogus = 1\n")
        assert cli.main(["sweep", "--config", str(cfg)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n 2\n")
        assert cli.main(["sweep", "--config", str(cfg)]) == 2

    def test_missing_config_file(self):
        assert cli.main(["sweep", "--config", "/nonexistent/exp.cfg"]) == 2

    def test_c2_range_form(self, capsys):
        assert cli.main([
            "sweep", "--n", "2", "--config", "/dev/null",
        ]) == 2  # no c2 at all
        capsys.readouterr()
        cfg_args = ["sweep", "--n", "2"]
        assert cli.main(cfg_args + ["--c2", "0.2,0.4"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 3

    def test_c2_range_keys(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n = 2\nc2_start = 0.1\nc2_stop = 0.3\nc2_count = 3\n")
        assert cli.main(["sweep", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert [line.split(",")[1] for line in lines[1:]] == ["0.1", "0.2", "0.3"]

    def test_conflicting_c2_forms(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n = 2\nc2 = 0.5\nc2_start = 0.1\nc2_stop = 0.3\nc2_count = 3\n")
        assert cli.main(["sweep", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("argv", [
        ["sweep", "--c2", "0.5"],                       # empty n grid
        ["sweep", "--n", "2", "--c2", ""],              # empty c2 grid
        ["sweep", "--n", "2", "--c2", "1.0"],           # c2 out of range
        ["sweep", "--n", "0", "--c2", "0.5"],           # n out of range
        ["sweep", "--n", "2", "--c2", "0.5", "--trials", "-1"],
        ["sweep", "--n", "2", "--c2", "0.5", "--seed", "-1"],
        ["sweep", "--n", "2", "--c2", "0.5", "--threads", "0"],
        ["sweep", "--n", "40", "--c2", "0.5", "--fp-tol", "nan"],
        ["montecarlo", "--strategy", "basic", "--n", "2", "--c2", "0.5", "--trials", "0"],
        ["montecarlo", "--n", "2", "--c2", "0.5"],      # missing strategy
        # a configuration error is reported before any output file is made
        ["sweep", "--n", "0", "--c2", "0.5", "--out", "/nonexistent/x.csv"],
        ["montecarlo", "--strategy", "basic", "--n", "2", "--c2", "0.5", "--trials", "0",
         "--records", "/nonexistent/r.jsonl"],
        # a key given twice in one config file
        ["sweep", "--config", "{tmp}/dup.cfg"],
        # --out and --records naming one file: the records would replace the summary
        ["montecarlo", "--strategy", "basic", "--n", "2", "--c2", "0.5", "--trials", "4",
         "--out", "{tmp}/mc.out", "--records", "{tmp}/mc.out"],
        ["montecarlo", "--strategy", "basic", "--n", "2", "--c2", "0.5", "--trials", "4",
         "--out", "{tmp}/mc.out", "--records", "{tmp}/sub/../mc.out"],
    ])
    def test_invalid_configs_exit_2(self, tmp_path, capsys, argv):
        (tmp_path / "dup.cfg").write_text("n = 2\nc2 = 0.36\nn = 3\n")
        assert cli.main([a.format(tmp=tmp_path) for a in argv]) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["dup.cfg"]
        if "{tmp}/dup.cfg" in argv:
            assert capsys.readouterr().err.endswith("dup.cfg:3: duplicate key 'n'\n")

    def test_runner_gets_the_parsed_configuration(self, monkeypatch, capsys):
        # main looks the runner up on the module when it runs, so a wrapper
        # installed there (perfbench's tracer) is the one called, and hands
        # it the configuration main parsed
        seen = []

        def fake_dump(config):
            seen.append(config)
            return [{"table": "eigen", "l": 1}]

        monkeypatch.setattr(cli, "run_spectrum_dump", fake_dump)
        assert cli.main(["spectrum", "--n", "3", "--c2", "0.5", "--kmax", "2"]) == 0
        assert capsys.readouterr().out == SPECTRUM_GOLDEN.split("\n")[0] + "\neigen,1,,,,,,,\n"
        (settings, n, c2, kmax), = seen
        assert (settings["format"], n, c2, kmax) == ("csv", 3, 0.5, 2)


# settings every run of a subcommand is given by flag, and per key a value
# that differs from both them and the default; "{tmp}" is the run's directory
BASE_SETTINGS = {
    "sweep": {"n": "2,3", "c2": "0.36", "trials": "20"},
    "spectrum": {"n": "3", "c2": "0.25"},
    "montecarlo": {"strategy": "greedy", "n": "3", "c2": "0.5", "trials": "20"},
}
FLAG_VALUES = {
    ("sweep", "n"): "4", ("sweep", "c2"): "0.2,0.7", ("sweep", "trials"): "30",
    ("sweep", "fp_tol"): "1e-4", ("sweep", "fp_max_iter"): "2",
    ("spectrum", "n"): "5", ("spectrum", "c2"): "0.6", ("spectrum", "kmax"): "2",
    ("montecarlo", "strategy"): "basic", ("montecarlo", "n"): "2,4",
    ("montecarlo", "c2"): "0.3", ("montecarlo", "trials"): "30",
    ("montecarlo", "records"): "{tmp}/records.jsonl",
}
COMMON_VALUES = {"out": "{tmp}/out.txt", "format": "jsonl", "seed": "7", "threads": "2"}
# the thread count never changes an output
INERT_KEYS = {("sweep", "threads"), ("spectrum", "threads"), ("montecarlo", "threads")}
FLAGGED_KEYS = [(name, key) for name, spec in cli._SUBCOMMANDS.items()
                for key, flag_help in spec.keys.items() if flag_help is not None]


def _run_outputs(capsys, directory, argv, config=None):
    """main's exit code, stdout and the files it wrote into a new directory.

    "{tmp}" in argv and in the config file's text names that directory.
    """
    directory.mkdir()
    argv = [a.format(tmp=directory) for a in argv]
    if config is not None:
        cfg = directory / "run.cfg"
        cfg.write_text(config.format(tmp=directory))
        argv += ["--config", str(cfg)]
    rc = cli.main(argv)
    files = {p.name: p.read_bytes() for p in directory.iterdir() if p.name != "run.cfg"}
    return rc, capsys.readouterr().out, files


class TestSettingsTable:
    @pytest.mark.parametrize("subcommand,key", FLAGGED_KEYS)
    def test_flag_equals_config_file(self, tmp_path, capsys, subcommand, key):
        value = FLAG_VALUES.get((subcommand, key), COMMON_VALUES.get(key))
        assert value is not None, f"no test value for {subcommand} {key}"
        base = [subcommand]
        for name, given in BASE_SETTINGS[subcommand].items():
            if name != key:
                base += ["--" + name, given]
        by_flag = _run_outputs(capsys, tmp_path / "flag",
                               base + ["--" + key.replace("_", "-"), value])
        by_file = _run_outputs(capsys, tmp_path / "file", base, config=f"{key} = {value}\n")
        assert by_flag[0] == 0
        assert by_flag == by_file
        if (subcommand, key) not in INERT_KEYS:
            assert by_flag != _run_outputs(capsys, tmp_path / "default", base)

    @pytest.mark.parametrize("subcommand,key,value", [
        ("sweep", "seed", "x"),
        ("sweep", "format", "xml"),
        ("montecarlo", "strategy", "foo"),
        ("sweep", "fp_tol", "abc"),
        ("spectrum", "kmax", "1.5"),
    ])
    def test_bad_value_exits_2_either_way(self, tmp_path, capsys, subcommand, key, value):
        base = [subcommand, "--n", "3", "--c2", "0.5"]
        if subcommand == "montecarlo":
            base += ["--trials", "10"]
        assert cli.main(base + ["--" + key.replace("_", "-"), value]) == 2
        by_flag = capsys.readouterr()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert cli.main(base + ["--config", str(cfg)]) == 2
        by_file = capsys.readouterr()
        assert by_flag.out == by_file.out == ""
        assert by_flag.err.startswith(f"qchangepoint: config error: {key}")
        assert by_flag.err == by_file.err


class InjectedFailure(Exception):
    pass


def _fail_after(monkeypatch, name, calls):
    """Make cli.<name> raise InjectedFailure once it has been called `calls` times."""
    original = getattr(cli, name)
    seen = []

    def wrapper(value):
        seen.append(value)
        if len(seen) > calls:
            raise InjectedFailure(f"{name} call {len(seen)}")
        return original(value)

    monkeypatch.setattr(cli, name, wrapper)
    return seen


class TestFailedRunLeavesNoFile:
    # the failure is raised inside the line iterator while writelines is
    # writing the temp file, after the first lines have been written
    def test_sweep_failure_mid_write(self, tmp_path, monkeypatch):
        seen = _fail_after(monkeypatch, "_format_cell", 25)
        out = tmp_path / "sweep.csv"
        with pytest.raises(InjectedFailure):
            cli.main(["sweep", "--n", "2,3", "--c2", "0.2,0.5", "--out", str(out)])
        assert len(seen) == 26
        assert not out.exists()
        assert list(tmp_path.iterdir()) == []

    def test_sweep_failure_on_a_worker_thread(self, tmp_path, monkeypatch):
        # the third of six points raises on a pool thread: the error leaves
        # cli.main and no output remains
        original = cli.collective_summary

        def failing(n, c, **kwargs):
            if n == 4:
                raise InjectedFailure("point 3")
            return original(n, c, **kwargs)

        monkeypatch.setattr(cli, "collective_summary", failing)
        with pytest.raises(InjectedFailure):
            cli.main(["sweep", "--n", "2,3,4,5,6,7", "--c2", "0.5", "--threads", "3",
                      "--out", str(tmp_path / "sweep.csv")])
        assert list(tmp_path.iterdir()) == []

    def test_records_failure_mid_write(self, tmp_path, monkeypatch, capsys):
        # the records stream fails after 30 lines; neither the summary nor the
        # records file of the run may remain
        original = cli.iter_trial_records
        yielded = []

        def failing(*args, **kwargs):
            for record in original(*args, **kwargs):
                if len(yielded) == 30:
                    raise InjectedFailure("record 31")
                yielded.append(record)
                yield record

        monkeypatch.setattr(cli, "iter_trial_records", failing)
        with pytest.raises(InjectedFailure):
            cli.main(["montecarlo", "--strategy", "greedy", "--n", "4", "--c2", "0.5",
                      "--trials", "50", "--seed", "2", "--out", str(tmp_path / "mc.csv"),
                      "--records", str(tmp_path / "records.jsonl")])
        assert len(yielded) == 30
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []


class TestUnwritableOutput:
    @pytest.mark.parametrize("argv", [
        ["sweep", "--n", "2", "--c2", "0.3", "--out", "{missing}/x.csv"],
        ["montecarlo", "--strategy", "greedy", "--n", "3", "--c2", "0.5", "--trials", "10",
         "--out", "{tmp}/mc.csv", "--records", "{missing}/r.jsonl"],
    ])
    def test_fails_before_computing(self, tmp_path, monkeypatch, capsys, argv):
        def never(*args, **kwargs):
            raise AssertionError("computed before the outputs were created")

        for name in ("collective_summary", "monte_carlo", "iter_trial_records"):
            monkeypatch.setattr(cli, name, never)
        argv = [a.format(missing=tmp_path / "missing", tmp=tmp_path) for a in argv]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"qchangepoint: cannot write {tmp_path / 'missing'}/")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_failed_rename_removes_every_file(self, tmp_path, monkeypatch, capsys):
        # --out is renamed first; the records rename fails, and the run's
        # summary file is removed again
        out, records = tmp_path / "mc.csv", tmp_path / "r.jsonl"
        original = os.replace
        renamed = []

        def replace(src, dst):
            if str(dst) == str(records):
                raise OSError(errno.EACCES, os.strerror(errno.EACCES))
            renamed.append(str(dst))
            return original(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        argv = ["montecarlo", "--strategy", "basic", "--n", "3", "--c2", "0.5", "--trials", "10",
                "--out", str(out), "--records", str(records)]
        assert cli.main(argv) == 3
        assert renamed == [str(out)]
        assert capsys.readouterr().err == (
            f"qchangepoint: cannot write {records}: {os.strerror(errno.EACCES)}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["sweep", "--n", "300", "--c2", "0.9", "--out", "{target}"],
        ["montecarlo", "--strategy", "basic", "--n", "3", "--c2", "0.5",
         "--out", "{tmp}/mc.csv", "--records", "{target}"],
    ])
    def test_directory_target_fails_before_computing(self, tmp_path, monkeypatch, capsys, argv):
        def never(*args, **kwargs):
            raise AssertionError("computed before the outputs were created")

        for name in ("run_sweep", "run_montecarlo"):
            monkeypatch.setattr(cli, name, never)
        target = tmp_path / "target"
        target.mkdir()
        assert cli.main([a.format(target=target, tmp=tmp_path) for a in argv]) == 3
        assert capsys.readouterr().err == (
            f"qchangepoint: cannot write {target}: {os.strerror(errno.EISDIR)}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["target"]
        assert list(target.iterdir()) == []

    def test_write_error_names_the_outputs(self, tmp_path, monkeypatch, capsys):
        def disk_full(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cli, "_write_records", disk_full)
        out, records = tmp_path / "mc.csv", tmp_path / "r.jsonl"
        assert cli.main(["montecarlo", "--strategy", "basic", "--n", "3", "--c2", "0.5",
                         "--trials", "10", "--out", str(out), "--records", str(records)]) == 3
        assert capsys.readouterr().err == (
            f"qchangepoint: cannot write {out} or {records}: {os.strerror(errno.ENOSPC)}\n")
        assert list(tmp_path.iterdir()) == []


class TestRecordTemplate:
    @pytest.mark.parametrize("strategy", ["basic", "greedy"])
    def test_lines_equal_the_serializer(self, tmp_path, monkeypatch, strategy):
        # the template's text against json.dumps of the same record, at extreme
        # seeds, both success values and c2 values whose text needs 12 digits
        fakes = [TrialRecord(true_k=k, guess=g, outcomes=bits, success=g == k, seed=seed)
                 for k, g, bits, seed in [(1, 1, "0", 0), (1, 2, "1", 2**64 - 1),
                                          (2, 1, "10", 2**64 - 1), (3, 3, "011", 0)]]
        monkeypatch.setattr(cli, "iter_trial_records", lambda *args: iter(fakes))
        c2_values = [0.0, 1e-05, 0.123456789012345, 0.95]
        records = tmp_path / "records.jsonl"
        assert cli.main(["montecarlo", "--strategy", strategy, "--n", "1,12",
                         "--c2", ",".join(map(repr, c2_values)), "--trials", str(len(fakes)),
                         "--out", str(tmp_path / "mc.csv"), "--records", str(records)]) == 0
        expected = []
        for n in (1, 12):
            for c2 in c2_values:
                for trial, fake in enumerate(fakes):
                    values = (strategy, n, c2, trial, fake.true_k, fake.guess, fake.outcomes,
                              fake.success, fake.seed)
                    row = {col: cli._json_cell(v) for col, v in zip(cli.RECORD_COLUMNS, values)}
                    expected.append(json.dumps(row, separators=(",", ":")) + "\n")
        assert records.read_text(encoding="utf-8") == "".join(expected)

    def test_greedy_records_threads_byte_identical(self, tmp_path):
        argv = ["montecarlo", "--strategy", "greedy", "--n", "3,7", "--c2", "0.2,0.8",
                "--trials", "300", "--seed", "5"]
        outputs = []
        for threads in ("1", "3"):
            out, records = tmp_path / f"mc{threads}.csv", tmp_path / f"r{threads}.jsonl"
            assert cli.main(argv + ["--threads", threads, "--out", str(out),
                                    "--records", str(records)]) == 0
            outputs.append((out.read_bytes(), records.read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[0][1].count(b"\n") == 4 * 300

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("strategy", ["basic", "greedy"])
    def test_records_memory_is_flat(self, tmp_path, strategy, threads):
        # the records are streamed: the peak stays near the engine's own
        # chunk buffer (2.1 to 2.7 MB traced) for 2 x 100000 records (about
        # 36 MB of text), whatever the thread count; holding each point's text
        # in memory until its turn came peaked at 64 to 68 MB with 2 threads
        records = tmp_path / "records.jsonl"
        tracemalloc.start()
        try:
            rc = cli.main(["montecarlo", "--strategy", strategy, "--n", "50", "--c2", "0.3,0.6",
                           "--trials", "100000", "--threads", threads,
                           "--out", str(tmp_path / "mc.csv"), "--records", str(records)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert records.stat().st_size > 30e6
        assert peak < 5e6


class TestDeterminism:
    def test_montecarlo_rerun_byte_identical(self, tmp_path):
        argv = ["montecarlo", "--strategy", "greedy", "--n", "4,6", "--c2",
                "0.3,0.6", "--trials", "2000", "--seed", "11"]
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert cli.main(argv + ["--out", str(out_a), "--threads", "1"]) == 0
        assert cli.main(argv + ["--out", str(out_b), "--threads", "3"]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_records_dump_byte_identical_and_consistent(self, tmp_path):
        argv = ["montecarlo", "--strategy", "basic", "--n", "6", "--c2", "0.4",
                "--trials", "400", "--seed", "21"]
        rows_a, rec_a = tmp_path / "a.csv", tmp_path / "a.jsonl"
        rows_b, rec_b = tmp_path / "b.csv", tmp_path / "b.jsonl"
        assert cli.main(argv + ["--out", str(rows_a), "--records", str(rec_a)]) == 0
        assert cli.main(argv + ["--out", str(rows_b), "--records", str(rec_b),
                                "--threads", "2"]) == 0
        assert rec_a.read_bytes() == rec_b.read_bytes()
        assert rows_a.read_bytes() == rows_b.read_bytes()
        records = [json.loads(line) for line in rec_a.read_text().splitlines()]
        assert len(records) == 400
        estimate = float(rows_a.read_text().splitlines()[1].split(",")[4])
        assert estimate == pytest.approx(
            sum(r["success"] for r in records) / 400, abs=1e-12
        )
        # records without the flag path: estimate must match monte_carlo's
        out_plain = tmp_path / "plain.csv"
        assert cli.main(argv + ["--out", str(out_plain)]) == 0
        assert out_plain.read_text().splitlines()[1] == rows_a.read_text().splitlines()[1]

    def test_sweep_threads_byte_identical(self, tmp_path):
        argv = ["sweep", "--n", "2,5", "--c2", "0.2,0.5,0.8", "--trials", "500",
                "--seed", "4"]
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(argv + ["--out", str(out_a), "--threads", "1"]) == 0
        assert cli.main(argv + ["--out", str(out_b), "--threads", "4"]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


class TestJsonlFormat:
    def test_sweep_jsonl_missing_fields_are_null(self, capsys):
        assert cli.main(["sweep", "--n", "2", "--c2", "0.36", "--format", "jsonl"]) == 0
        row = json.loads(capsys.readouterr().out.strip())
        assert row["n"] == 2
        assert row["lower_bound"] == 0.9
        assert row["basic_local"] is None
        assert row["greedy_estimate"] is None

    def test_montecarlo_jsonl_row(self, capsys):
        argv = ["montecarlo", "--strategy", "basic", "--n", "5", "--c2", "0.5",
                "--trials", "1000", "--seed", "3", "--format", "jsonl"]
        assert cli.main(argv) == 0
        row = json.loads(capsys.readouterr().out.strip())
        assert row["estimate"] == 0.607
        assert row["base_seed"] == 3


class TestSweepContent:
    def test_online_columns_filled_when_trials_positive(self, capsys):
        assert cli.main(["sweep", "--n", "6", "--c2", "0.5", "--trials", "800",
                         "--seed", "10"]) == 0
        cells = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert float(cells[7]) == pytest.approx(
            basic_local_closed_form(6, math.sqrt(0.5)), abs=1e-9
        )
        estimate, stderr = float(cells[8]), float(cells[9])
        assert 0.0 < estimate <= 1.0 and stderr > 0.0

    def test_rows_in_grid_order(self, capsys):
        assert cli.main(["sweep", "--n", "3,2", "--c2", "0.5,0.2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")[1:]
        heads = [tuple(line.split(",")[:2]) for line in lines]
        assert heads == [("3", "0.5"), ("3", "0.2"), ("2", "0.5"), ("2", "0.2")]

    def test_sandwich_in_output(self, capsys):
        assert cli.main(["sweep", "--n", "12", "--c2", "0.3,0.7"]) == 0
        for line in capsys.readouterr().out.strip().split("\n")[1:]:
            cells = [float(x) for x in line.split(",")[2:7]]
            lower, srm, opt, upper, _ = cells
            assert lower - 1e-12 <= srm <= opt + 1e-12 <= upper + 2e-12

    def test_overlap_next_to_one(self, capsys):
        # the largest float below 1: the spectrum stays finite and the sweep
        # finishes with a number in every collective column
        assert cli.main(["sweep", "--n", "3", "--c2", "0.9999999999999999"]) == 0
        cells = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert all(math.isfinite(float(cell)) for cell in cells[2:7])

    def test_ordering_next_to_one(self, capsys):
        # G's two small eigenvalues (~1e-16) lie below a relative 1e-12
        # pseudo-inverse cut, which would leave fixed_point_opt at 1/3, below
        # lower_bound; the chain core has no cut
        assert cli.main(["sweep", "--n", "3", "--c2", "0.9999999999999999"]) == 0
        cells = [float(cell) for cell in
                 capsys.readouterr().out.strip().split("\n")[1].split(",")[2:6]]
        lower, srm, opt, upper = cells
        assert lower - 1e-12 <= srm <= opt + 1e-12 <= upper + 2e-12

    def test_orthogonal_grid_point(self, capsys):
        # c2 = 0 is a valid grid value: every figure of merit is 1
        assert cli.main(["sweep", "--n", "5", "--c2", "0"]) == 0
        cells = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert cells[2:7] == ["1", "1", "1", "1", "1"]
