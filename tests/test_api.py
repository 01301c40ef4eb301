"""The public API, its argument rules, its dependency line and the traced functions.

``perfbench/run.py --trace 1`` wraps the functions named in
``perfbench/tracing.py``; removing or renaming one breaks the traced run,
so that list is checked here against the package.  numpy is the package's
only runtime dependency; scipy is for the tests and their oracles.
"""

import ast
import importlib
import importlib.util
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qchangepoint

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
SELFTEST = ROOT / "perfbench" / "selftest.py"
PACKAGE = ROOT / "src" / "qchangepoint"
ORACLES = ROOT / "tests" / "oracles.py"


def _top_level_imports(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_public_names_resolve():
    assert [name for name in qchangepoint.__all__ if not hasattr(qchangepoint, name)] == []


def test_root_reexports_each_module_api():
    # a module's __all__ is the one list of its public names; the root
    # re-exports every library module (all but the CLI) and adds no name
    homes = sorted(path.stem for path in PACKAGE.glob("*.py"))
    homes.remove("__init__")
    homes.remove("cli")
    modules = [importlib.import_module("qchangepoint." + home) for home in homes]
    assert [module.__name__ for module in modules if "__all__" not in vars(module)] == []
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names)), "a public name is declared twice"
    assert qchangepoint.__all__ == sorted(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(qchangepoint, name) is getattr(module, name), name
            assert getattr(module, name).__module__ == module.__name__, name


def test_each_error_lives_where_it_is_raised():
    # no shared exceptions module: each public error class is declared in a
    # module that raises it
    assert not (PACKAGE / "exceptions.py").exists()
    assert importlib.util.find_spec("qchangepoint.exceptions") is None
    errors = [value for value in map(vars(qchangepoint).get, qchangepoint.__all__)
              if isinstance(value, type) and issubclass(value, Exception)]
    assert errors
    for error in errors:
        source = Path(sys.modules[error.__module__].__file__).read_text(encoding="utf-8")
        raised = {node.exc.func.id for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                  and isinstance(node.exc.func, ast.Name)}
        assert error.__name__ in raised, error


ROWS = qchangepoint.solve_spectrum(3, 0.5).eigenvector_rows
RNG = qchangepoint.CounterRng(1)


@pytest.mark.parametrize("call, args, error, message", [
    (qchangepoint.diag_deviation_asymptotic, (math.nan, 0.5), TypeError, "k must be an integer"),
    (qchangepoint.diag_deviation_asymptotic, (2.5, 0.5), TypeError, "k must be an integer"),
    (qchangepoint.diag_deviation_asymptotic, (0, 0.5), ValueError, "k must be >= 1"),
    (qchangepoint.simulate_trial, ("basic", 3, 0.5, 2.5, RNG), TypeError, "true_k must be an integer"),
    (qchangepoint.simulate_trial, ("basic", 2.5, 0.5, 2, RNG), TypeError, "n must be an integer"),
    (qchangepoint.simulate_trial, ("basic", 3, 0.5, 4, RNG), ValueError, "true_k must lie in"),
    (qchangepoint.simulate_trial, ("greedy", 3, 0.5, 2.5, RNG), TypeError, "true_k must be an"),
    (qchangepoint.simulate_trial, ("greedy", 2.5, 0.5, 2, RNG), TypeError, "n must be an integer"),
    (ROWS, (4,), ValueError, "count must lie in"),
    (ROWS, (-1,), ValueError, "count must lie in"),
    (ROWS, (2.0,), TypeError, "count must be an integer"),
], ids=["k-nan", "k-float", "k-zero", "basic-true_k-float", "basic-n-float", "basic-true_k-range",
        "greedy-true_k-float", "greedy-n-float", "rows-above-n", "rows-negative", "rows-float"])
def test_integer_arguments_checked(call, args, error, message):
    # k, n, true_k and count pass gram._integer, then their range checks
    with pytest.raises(error, match=message):
        call(*args)


@pytest.mark.parametrize("call", [
    lambda c: qchangepoint.build_gram(3, c),
    lambda c: qchangepoint.solve_spectrum(3, c),
    lambda c: qchangepoint.collective_summary(3, c),
    lambda c: qchangepoint.asymptotic_pmax(c),
    lambda c: qchangepoint.basic_local_closed_form(3, c),
    lambda c: qchangepoint.monte_carlo("basic", 3, c, 10, 1),
    lambda c: qchangepoint.elliptic_k(c),
], ids=["build_gram", "solve_spectrum", "collective_summary", "asymptotic_pmax",
        "basic_local_closed_form", "monte_carlo", "elliptic_k"])
def test_nan_overlap_rejected(call):
    # every check is written so that a comparison with NaN fails it
    with pytest.raises(ValueError):
        call(math.nan)


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for name in tracing.SPANNED + tracing.COUNTED:
        home, attr = name.split(".")
        if not callable(getattr(importlib.import_module("qchangepoint." + home), attr, None)):
            missing.append(name)
    assert missing == []


def test_runtime_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", requirement).group(0).lower().replace("-", "_")
                for requirement in project["dependencies"]}
    imported = set().union(*map(_top_level_imports, PACKAGE.rglob("*.py")))
    assert imported - set(sys.stdlib_module_names) == declared


def test_oracles_import_nothing_from_the_package():
    assert "qchangepoint" not in _top_level_imports(ORACLES)


def test_cli_run_loads_no_scipy(tmp_path):
    # the benchmark's set-up probe: import the CLI and run its warm-up sweep,
    # which touches the spectrum, collective, online and rng layers
    code = (
        "import sys\n"
        "from qchangepoint import cli\n"
        "argv = ['sweep', '--n', '4', '--c2', '0.5', '--trials', '64', '--seed', '1',\n"
        "        '--threads', '1', '--out', sys.argv[1]]\n"
        "assert cli.main(argv) == 0\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "warm.csv")],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert result.stdout == "[]\n"
    assert (tmp_path / "warm.csv").read_text().count("\n") == 2


def test_benchmark_selftest_passes():
    # the selftest traces a sweep and counts the solver under its traced
    # name, so moving the solver off that name fails here, not only in a
    # benchmark run
    result = subprocess.run([sys.executable, str(SELFTEST)], cwd=ROOT,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
