"""Reference ops that tests compare the package against.

No command reaches these, so they live with the tests rather than in
src/ntrr: plain softmax (the package only runs masked_softmax and
log_softmax), the scalar displacement clip, a mean built from the
package's own tsum and mul, and a fixed-length cut of segment memory."""

import numpy as np

import ntrr.model as M
import ntrr.tensor as T


def softmax(a, axis: int = -1):
    """Row-stochastic softmax, stabilized by max subtraction."""
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return T._make(out, (a,), backward)


def clip_rel(x: int, k: int) -> int:
    """Clamp a displacement to [-k, k]."""
    return max(-k, min(k, x))


def tmean(a):
    """The mean of every element, as a graph op."""
    return T.mul(T.tsum(a), 1.0 / a.data.size)


def window(memory, n: int):
    """memory with each layer cut to its last n columns. A forward returns
    every block's whole [memory ; input]; n = 0 keeps no memory at all,
    where m[:, -0:] would keep all of it."""
    return M.SegmentMemory([m[:, -n:] if n else np.zeros((0, 0, 0)) for m in memory.layers],
                           memory.offset)
