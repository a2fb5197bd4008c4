"""Benchmark of the gpsdenoise command-line program.

Run from the root of a checkout:

    python3 benchmarks/run_bench.py --workload table1 --seed 1 --seconds 20 --trace 0

It imports the package from ``src/``, writes the workload's inputs, and
drives ``gpsdenoise.cli.main`` in-process in a closed loop for about
``--seconds`` seconds (at least one pass). With ``--trace 0`` the last
stdout line is one JSON object carrying the ``end_to_end`` metrics of
BENCHMARK.json; with ``--trace 1`` passes alternate between untraced and
traced, and it carries the ``per_layer`` metrics. The line before it holds
the machine fingerprint and the remaining figures. Spans and a full result
file go to ``.bench_work/``. The exit code is 1 when any operation failed
a check and 2 when the benchmark cannot run at all.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

T_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads(nproc: int) -> None:
    """Cap every BLAS thread-count variable at nproc before numpy loads."""
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(min(max(wanted, 1), nproc))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("table1", "long_series", "window_export"))
    p.add_argument("--seed", type=int, required=True, help="noise seed passed on to the CLI")
    p.add_argument("--seconds", type=int, required=True, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    cap_blas_threads(nproc)
    if not (SRC / "gpsdenoise" / "__init__.py").is_file():
        print(f"run_bench: no gpsdenoise package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import measure  # loads numpy and the package under the capped environment

    return measure.run(args, nproc, T_START)


if __name__ == "__main__":
    sys.exit(main())
