"""The public API and the functions the benchmark traces all resolve.

``perfbench/run.py --trace 1`` wraps the functions named in
``perfbench/tracing.py``; removing or renaming one breaks the traced run,
so that list is checked here against the package.
"""

import importlib
import importlib.util
from pathlib import Path

import qchangepoint

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
