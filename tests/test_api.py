"""The public API, its dependency line and the functions the benchmark traces.

``perfbench/run.py --trace 1`` wraps the functions named in
``perfbench/tracing.py``; removing or renaming one breaks the traced run,
so that list is checked here against the package.  numpy is the package's
only runtime dependency; scipy is for the tests and their oracles.
"""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qchangepoint

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
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
