"""Time and memory of model.tag on one long sentence.

Builds the default model config (3 entity types, a 60-id vocabulary)
at seed 1, draws one sentence of --tokens ids, and prints model.tag's
median wall time over ROUNDS calls, the minor page faults and system
milliseconds per call over those calls (getrusage of this process, so
allocation churn shows), then the tracemalloc peak of one more call.
Run it before and after a change to the tagging path, with BLAS pinned
to one thread as the benchmark pins it:

    OPENBLAS_NUM_THREADS=1 python scripts/tag_cost.py [--tokens 1000]
"""

import argparse
import os
import resource
import statistics
import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import ntrr.model as M
from ntrr.rng import Rng


ROUNDS = 5
SEED = 1
VOCAB = 60


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tokens", type=int, default=1000, help="tokens in the sentence")
    args = ap.parse_args()
    config = replace(M.ModelConfig(), vocab_size=VOCAB, entity_types=("LOC", "ORG", "PER"))
    params = M.init_params(config, Rng(SEED, 0), "float64")
    sentence = (Rng(SEED, 1).uniform((args.tokens,)) * VOCAB).astype(np.int64)
    times = []
    before = resource.getrusage(resource.RUSAGE_SELF)
    for _ in range(ROUNDS):
        start = time.perf_counter()
        M.tag([sentence], config, params)
        times.append(time.perf_counter() - start)
    after = resource.getrusage(resource.RUSAGE_SELF)
    tracemalloc.start()
    M.tag([sentence], config, params)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(f"# model.tag, default config, 1 sentence of {args.tokens} tokens, seed {SEED}")
    print(f"median_ms\t{statistics.median(times) * 1e3:.1f}")
    print(f"minor_faults\t{(after.ru_minflt - before.ru_minflt) / ROUNDS:.1f}")
    print(f"sys_ms\t{(after.ru_stime - before.ru_stime) * 1e3 / ROUNDS:.2f}")
    print(f"peak_mb\t{peak / 1e6:.1f}")


if __name__ == "__main__":
    main()
