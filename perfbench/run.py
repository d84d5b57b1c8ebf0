"""Benchmark of the demandcast command-line pipeline.

    python3 perfbench/run.py --workload fit --seed 1 --seconds 12 --trace 0

Run from the root of a checkout. Builds the synthetic inputs from
``--seed``, sets the workload up several times, then runs the workload's
pass of commands back to back until ``--seconds`` have elapsed. Every
output is checked. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, the per-layer ones with
``--trace 1``. The process exits 1 if any output check failed and 2 if
it cannot run at all. See README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREADS = "1"
THREAD_VARS = ("DEMANDCAST_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")


def pin_threads() -> None:
    """Set every thread variable before numpy loads. The package only
    ``setdefault``s the BLAS variables, so an inherited value would win."""
    if "numpy" in sys.modules:
        sys.exit("perfbench: numpy is already imported, so the thread "
                 "settings would not take effect; refusing to run")
    for var in THREAD_VARS:
        os.environ[var] = THREADS


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import demandcast.cli  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import demandcast from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    import harness

    try:
        return harness.run(ROOT, args.workload, args.seed, args.seconds,
                           bool(args.trace))
    except harness.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
