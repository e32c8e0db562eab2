"""Bytes that the backward closures of one R-Drop training forward save.

Builds the R-Drop loss of a long-train-shaped step (the default model
config, 4 sentences of --tokens tokens, doubled to 8 rows by R-Drop),
then walks its graph and prints, per op kind, the arrays its backward
closures hold. Each buffer counts once, at the first op kind met that
saves it (a view counts as the array it views), and a parameter's data,
which lives without the graph too, does not count, so the total is what
the graph keeps alive for backward. Two tracemalloc readings follow:
the bytes the forward holds when it returns, and the peak of the
backward sweep after it, both over what was allocated before the
forward (parameters and inputs).

    python scripts/graph_bytes.py [--tokens 256]
"""

import argparse
import os
import sys
import tracemalloc
from collections import defaultdict
from dataclasses import replace

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import ntrr.model as M
import ntrr.tensor as T
import ntrr.training as TR
from ntrr.rng import DualDropoutStreams, Rng


BATCH = 4  # sentences before R-Drop doubles them
SEED = 1


def saved_arrays(fn):
    """(name, array) for each array one backward closure holds, index
    keys included; name is the closure variable that holds it."""
    for name, cell in zip(fn.__code__.co_freevars, fn.__closure__ or ()):
        held = cell.cell_contents
        for item in held if isinstance(held, (list, tuple)) else (held,):
            if isinstance(item, T.BucketIndex):
                item = item.keys
            if isinstance(item, np.ndarray):
                yield name, item


def graph_nodes(loss):
    """Every vertex of the graph behind loss, each once."""
    seen, stack = {}, [loss._node]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def root(arr: np.ndarray) -> np.ndarray:
    """The array that owns arr's buffer."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def bytes_by_op(loss, params) -> dict[str, tuple[int, int]]:
    """op kind -> (distinct buffers, bytes) over every closure of the graph,
    leaving out the buffers of the parameters params."""
    owned, table = {id(root(p.data)) for p in params}, defaultdict(lambda: [0, 0])
    for node in graph_nodes(loss):
        if node._backward is None:
            continue
        kind = node._backward.__qualname__.split(".")[0]
        for _, arr in saved_arrays(node._backward):
            arr = root(arr)
            if id(arr) not in owned:
                owned.add(id(arr))
                table[kind][0] += 1
                table[kind][1] += arr.nbytes
    return {kind: tuple(v) for kind, v in table.items()}


def rdrop_forward(tokens: int):
    """A function that runs the R-Drop forward to its loss, and the
    parameters, which are made with the inputs before it is returned."""
    config = replace(M.ModelConfig(), vocab_size=60, entity_types=("LOC", "ORG", "PER"))
    params = M.init_params(config, Rng(SEED, 0), "float64")
    rng = Rng(SEED, 1)
    ids = (rng.uniform((BATCH, tokens)) * config.vocab_size).astype(np.int64)
    tags = (rng.uniform((BATCH, tokens)) * config.num_tags).astype(np.int64)

    def forward():
        lp1, lp2 = TR.branch_log_probs(ids, config, params, DualDropoutStreams(SEED, 1))
        return TR.rdrop_loss(lp1, lp2, tags, 1.0).total

    return forward, params.values()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tokens", type=int, default=256, help="tokens per sentence")
    args = ap.parse_args()
    forward, params = rdrop_forward(args.tokens)
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    loss = forward()
    held = tracemalloc.get_traced_memory()[0] - base
    table = bytes_by_op(loss, params)
    tracemalloc.reset_peak()
    T.backward(loss)
    peak = tracemalloc.get_traced_memory()[1] - base
    tracemalloc.stop()
    print(f"# R-Drop forward, B = {2 * BATCH} after doubling, T = {args.tokens}")
    print("op\tarrays\tMB")
    for kind, (count, nbytes) in sorted(table.items(), key=lambda kv: -kv[1][1]):
        print(f"{kind}\t{count}\t{nbytes / 1e6:.2f}")
    print(f"total\t{sum(c for c, _ in table.values())}\t"
          f"{sum(b for _, b in table.values()) / 1e6:.2f}")
    print("# tracemalloc MB: held when the forward returns, peak of the backward sweep")
    print(f"held\t{held / 1e6:.2f}")
    print(f"backward_peak\t{peak / 1e6:.2f}")


if __name__ == "__main__":
    main()
