#!/usr/bin/env python3
"""cotrain benchmark: one workload per process.

    python3 perfbench/run.py --workload default_full --seed 1 --seconds 30 --trace 0

Run from the repository root.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones (see
``BENCHMARK.json``).  Exit status is 0 only when every output check passed.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# The process environment every run has, so every commit runs alike: BLAS on
# one thread, and glibc malloc serving large arrays from a heap it never trims.
# With glibc's default, adaptive thresholds, whether numpy's large temporaries
# are mapped and faulted in anew on every call depends on the allocation
# history: one evaluate of many_heads_full took 16k-29k page faults and 40-90
# ms of system time in some processes and none in others.  glibc reads these
# variables only at start-up, so ``run.py`` re-executes itself once with them.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": str(1 << 30),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 32),
}

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def main(argv=None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "cotrain" / "__init__.py").is_file():
        print(f"error: no cotrain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    return harness.main(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), OUT)


if __name__ == "__main__":
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.environ.update(PINNED_ENV)
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
