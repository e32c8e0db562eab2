"""Desk-scale sequence labeling lab.

A small, fully deterministic training stack for character-level named
entity recognition: a reverse-mode autodiff tensor core on numpy, clipped
relative positional attention, permutation-LM pretraining with two-stream
attention and segment recurrence, and R-Drop regularized fine-tuning.
"""

import os

# One BLAS thread unless the caller chose otherwise, set before anything
# loads numpy: every matrix here is at most 64 wide, and tensor.attend runs
# its forward on two threads, which multi-threaded BLAS calls would slow.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"
