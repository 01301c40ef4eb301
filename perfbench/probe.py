"""Set-up probe: import qchangepoint, make one warm-up call, report ready.

``run.py`` starts this script in fresh processes and times each from process
start until the ``ready`` line arrives; that interval is ``setup_s``.

    python3 perfbench/probe.py WARMUP_OUT_PATH
"""

from __future__ import annotations

import sys

import bootstrap

WARMUP_ARGV = ("sweep", "--n", "4", "--c2", "0.5", "--trials", "64", "--seed", "1", "--threads", "1")


def warm_up(out_path: str) -> None:
    """One small sweep that touches the spectrum, collective, online and rng layers."""
    from qchangepoint import cli

    if cli.main([*WARMUP_ARGV, "--out", out_path]) != 0:
        raise RuntimeError("warm-up sweep failed")


def main(argv: list[str]) -> int:
    bootstrap.prepare()
    warm_up(argv[0])
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
