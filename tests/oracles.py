"""Reference ops that tests compare the package against.

No command reaches these, so they live with the tests rather than in
src/ntrr: plain softmax (the package only runs masked_softmax and
log_softmax), the scalar displacement clip, and a mean built from the
package's own tsum and mul."""

import numpy as np

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
