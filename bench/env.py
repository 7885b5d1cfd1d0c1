"""Process set-up shared by the benchmark's entry points.

BLAS and OpenMP pools are pinned to one thread before numpy loads. The
simulator's only BLAS work is small mat-vecs (the 250x250 alignment), where
a second OpenBLAS thread spins on the other core: CPU time doubles, wall
time does not drop, and a 2-worker pool would run 4 threads on 2 cores.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class CheckoutError(RuntimeError):
    """The checkout holds no simulator sources to benchmark."""


def prepare(blas_threads: int = 1) -> dict:
    """Pin BLAS threads, put ``src/`` first on the path; return the setting.

    Raises CheckoutError when ``src/risroute`` is missing, so the benchmark
    never falls back to some other installed copy.
    """
    if not (SRC / "risroute" / "experiments.py").is_file():
        raise CheckoutError(f"no risroute sources under {SRC}")
    for var in BLAS_VARS:
        os.environ[var] = str(blas_threads)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    setting = {var: os.environ[var] for var in BLAS_VARS}
    setting["pinned_before_numpy"] = "numpy" not in sys.modules
    return setting
