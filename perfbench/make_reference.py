"""Record the reference outputs that the workload checks compare against.

    python3 perfbench/make_reference.py

Runs the two sweeps and the two ``montecarlo --records`` calls once at the
reference seed and writes ``perfbench/reference/``: the sweep CSVs whole,
and SHA-256 digests of the records outputs, which are too large to keep. Re-record only in a change that means to alter these
outputs, and say why in that change.
"""

from __future__ import annotations

import json
import shutil
import sys

import bootstrap


def main() -> int:
    bootstrap.prepare()
    from qchangepoint import cli

    import workloads

    workdir = bootstrap.OUT_DIR / "make-reference"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    try:
        digests = {}
        targets = {"fig_sweep.csv": f"fig_sweep_seed{workloads.REFERENCE_SEED}.csv",
                   "collective_scaling.csv": "collective_scaling.csv"}
        for name in ("montecarlo", "collective_spectral"):
            for op in workloads.build(name, workloads.REFERENCE_SEED, workdir).ops:
                if op.argv is None or op.argv[0] == "spectrum":
                    continue  # checked against oracles, not recorded outputs
                if cli.main(op.argv) != 0:
                    raise RuntimeError(f"{op.label} failed")
                for path in op.outputs:
                    if op.argv[0] == "montecarlo":
                        digests[path.name] = workloads.file_sha256(path)
                    else:
                        shutil.copyfile(path, workloads.REFERENCE_DIR / targets[path.name])
        (workloads.REFERENCE_DIR / f"records_audit_seed{workloads.REFERENCE_SEED}.json").write_text(
            json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
