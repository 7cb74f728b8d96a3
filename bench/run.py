"""Run one workload of the rfqmm benchmark.

    python3 bench/run.py --workload paper-2asset --seed 1 --seconds 40 --trace 0

Run it from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  BLAS threads are capped at the number of usable cores
before numpy loads, so one process supplies all the load.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> None:
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = 0
        if not 1 <= current <= nproc:
            os.environ[var] = str(nproc)


def import_path() -> None:
    """Put the checkout's sources first on the import path, or exit."""
    src = ROOT / "src"
    if not (src / "rfqmm" / "__init__.py").is_file():
        sys.exit(f"error: {src} holds no rfqmm package; run from a checkout of the repository")
    sys.path.insert(0, str(src))


if __name__ == "__main__":
    import_path()
    cap_blas_threads()
    import harness

    sys.exit(harness.main())
