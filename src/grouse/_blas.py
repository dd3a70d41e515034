"""Let numpy's OpenBLAS workers sleep when idle instead of spinning for a tenth of a second.

OpenBLAS reads its environment once, when numpy is first imported.  It
starts one worker thread per further core, and by default a worker with
no job busy-waits for 2**28 CPU cycles (about 0.1 s) before it sleeps,
right after start-up too: 65-80 ms of CPU time in every process on a
2-core machine.  So this module imports numpy with
``OPENBLAS_THREAD_TIMEOUT=20`` (2**20 cycles, under a millisecond) and then
restores ``os.environ``, so no child process inherits it.  The pool keeps
its size, so large products still run on every core.  A timeout the user
set wins, and a numpy imported before grouse keeps the one it read.
Builds of numpy on MKL or Accelerate ignore the variable.
"""

import os

__all__: list[str] = []

if "OPENBLAS_THREAD_TIMEOUT" not in os.environ:
    os.environ["OPENBLAS_THREAD_TIMEOUT"] = "20"
    try:
        import numpy  # noqa: F401  (OpenBLAS reads the timeout here, once)
    finally:
        del os.environ["OPENBLAS_THREAD_TIMEOUT"]
