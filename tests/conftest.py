"""Test-session settings, applied before any test module imports numpy.

The suite's matrices are small, and OpenBLAS's default thread pool makes
them slower: on a 2-core host the suite took 371 s with the default
threads against 242 s with one.  An explicit setting in the environment
still wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
