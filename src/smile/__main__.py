"""The entry of ``python -m smile`` and of the ``smile`` console script.

It runs before numpy loads, so it decides how many threads BLAS starts
with: the process's thread budget goes to expertise.score_dataset's
segment workers, and BLAS runs on one thread. Segments split across cores
better than a matmul does (score_dataset), and an idle BLAS thread spins:
on 2 cores, an audit of 25,000 transitions at two BLAS threads took
0.72-0.92 s of wall clock and 1.34-1.70 s of user CPU, against 0.56-0.70 s
and 0.88-1.09 s on two workers at one BLAS thread.

``import smile`` as a library pins nothing, and its callers score on one
worker.
"""

import os
import sys


def thread_budget() -> int:
    """The threads this process may use, read as OpenBLAS reads its own
    count: a positive OPENBLAS_NUM_THREADS, else a positive
    OMP_NUM_THREADS, else the usable cores; capped at the usable cores, as
    OpenBLAS caps it. A value that is not a positive integer in ASCII
    digits counts as unset."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "").strip()
        if value.isascii() and value.isdigit() and int(value) > 0:
            return min(int(value), cores)
    return cores


def entrypoint() -> None:
    """Give the thread budget to the segment workers, load BLAS on one
    thread, and run the command line."""
    workers = thread_budget()
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
    from . import cli, expertise
    expertise.workers = workers
    sys.exit(cli.main())


if __name__ == "__main__":
    entrypoint()
