"""Environment set-up shared by the benchmark's entry points.

Call :func:`prepare` before anything imports numpy: it pins every BLAS and
OpenMP pool to one thread and puts the checkout's own ``src`` tree first on
the import path, so the benchmark always measures the source next to it and
never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH_DIR = ROOT / "perfbench"
OUT_DIR = BENCH_DIR / "out"

# One BLAS thread: every CLI call runs with --threads 1, and a single pool
# thread keeps timings steady on a small shared machine.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingSourceError(RuntimeError):
    """The checkout holds no importable qchangepoint source tree."""


def prepare() -> None:
    """Pin thread counts and import qchangepoint from ``ROOT/src``.

    Raises MissingSourceError when the source tree is absent or when the
    package that gets imported is not the one under ``ROOT/src``.
    """
    if not (SRC / "qchangepoint" / "__init__.py").is_file():
        raise MissingSourceError(f"no qchangepoint package under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qchangepoint

    if Path(qchangepoint.__file__).resolve().parent != (SRC / "qchangepoint").resolve():
        raise MissingSourceError(f"imported qchangepoint from {qchangepoint.__file__}, not {SRC}")
