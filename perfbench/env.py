"""Process environment shared by the benchmark entry points.

Import this before numpy: BLAS/OpenMP libraries read their thread counts
once, when they load.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def prepare() -> None:
    """Pin every BLAS/OpenMP pool to one thread and import pairslit from src/.

    Exits with status 2 when the checkout holds no pairslit sources, so the
    benchmark never measures some other copy of the package.
    """
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    if not (SOURCE / "pairslit" / "__init__.py").is_file():
        print(f"benchmark: no pairslit sources under {SOURCE}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SOURCE))
