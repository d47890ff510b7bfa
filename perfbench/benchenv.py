"""Thread pinning shared by run.py and the operation processes.

``pin_threads`` must run before numpy is first imported, because BLAS reads
these variables once, when it loads. One thread keeps timings steady on a
small shared machine and stays within ``nproc``.
"""

import os

BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads() -> dict:
    settings = {var: str(BLAS_THREADS) for var in THREAD_VARS}
    os.environ.update(settings)
    return settings
