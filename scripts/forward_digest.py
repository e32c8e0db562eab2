"""One SHA-256 over the training forwards and their gradients.

Runs train-mode forward_ner and pretrain_forward over a grid of
pe_mode (relative, absolute) x dtype (float64, float32) x memory window
(0, 3) x dropout streams (DualDropoutStreams, DropoutStreams) x k_eff
(full radius, 1; relative mode only), two segments each. Each forward
returns every block's whole [memory ; input]; the case cuts it to its
last `window` columns (none for 0) and feeds the first segment's cut to
the second. Every output, every cut memory layer and every parameter
gradient goes into the digest, bytes with shape and dtype. A change
that claims to be bitwise neutral must print the same digest before and
after; --cases prints one digest per case as well, to find the case
that moved.

    python scripts/forward_digest.py [--cases]
"""

import argparse
import hashlib
import itertools
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import ntrr.model as M
import ntrr.tensor as T
from ntrr.plm import sample_permutation
from ntrr.rng import DropoutStreams, DualDropoutStreams, Rng

SEGMENT = 7
BATCH = 2


def _config(pe_mode):
    # head dim 6: 1/sqrt(6) is not a power of two, so the score scale
    # rounds and a reordered scaling changes the digest
    return M.ModelConfig(vocab_size=20, model_dim=12, ffn_dim=8, xlnet_layers=2,
                         transformer_layers=2, num_heads=2, clip_k=2, pe_mode=pe_mode,
                         dropout=0.2, entity_types=("LOC", "ORG", "PER"))


def _streams(kind, seg):
    if kind == "dual":
        return DualDropoutStreams(15, seg)
    return DropoutStreams(15, seg, 1)


def _window(memory, n):
    """memory cut to each layer's last n columns; n = 0 keeps none."""
    return M.SegmentMemory([m[:, -n:] if n else np.zeros((0, 0, 0)) for m in memory.layers],
                           memory.offset)


def _case_arrays(model, pe_mode, dtype, window, streams, k_eff):
    """Outputs, cut memories and parameter gradients of two segments."""
    mc = _config(pe_mode)
    params = M.init_params(mc, Rng.for_stream(12, "init"), dtype)
    r = Rng(13, 99)
    ids = np.array([[2 + r.randbelow(mc.vocab_size - 2) for _ in range(2 * SEGMENT)]
                    for _ in range(BATCH)])
    memory, seen = None, []
    for seg in range(2):
        x = ids[:, SEGMENT * seg:SEGMENT * (seg + 1)]
        T.zero_grads(params.values())
        if model == "forward_ner":
            out, memory = M.forward_ner(x, memory, mc, params, _streams(streams, seg),
                                        k_eff=k_eff)
        else:
            plan = sample_permutation(SEGMENT, Rng(14, seg))
            out, memory = M.pretrain_forward(x, plan, memory, mc, params,
                                             _streams(streams, seg), k_eff=k_eff)
        T.backward(T.tsum(out * out))
        memory = _window(memory, window)
        seen += [out.data, *memory.layers, *(params[k].grad for k in sorted(params))]
    return seen


def cases():
    grid = itertools.product(("forward_ner", "pretrain_forward"), ("relative", "absolute"),
                             ("float64", "float32"), (0, 3), ("dual", "single"), (None, 1))
    return [case for case in grid if case[1] == "relative" or case[5] is None]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cases", action="store_true", help="also print one digest per case")
    args = ap.parse_args()
    total = hashlib.sha256()
    for case in cases():
        h = hashlib.sha256()
        for arr in _case_arrays(*case):
            arr = np.ascontiguousarray(arr)
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(arr.tobytes())
        total.update(h.digest())
        if args.cases:
            print(h.hexdigest(), *case)
    print(f"{total.hexdigest()}  {len(cases())} cases")


if __name__ == "__main__":
    main()
