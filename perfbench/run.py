"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is imported from ``src/``
of the same tree. BLAS threads are capped at the number of CPUs this
process may use before numpy loads, because a BLAS pool larger than
the CPU count only adds contention.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def limit_blas_threads() -> None:
    cpus = len(os.sched_getaffinity(0))
    requested = os.environ.get("OPENBLAS_NUM_THREADS", "")
    threads = min(cpus, int(requested)) if requested.isdigit() and int(requested) > 0 else cpus
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


if __name__ == "__main__":
    limit_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    sys.exit(bench.main(sys.argv[1:], ROOT))
