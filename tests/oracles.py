"""Reference ops that tests compare the package against.

No command reaches these, so they live with the tests rather than in
src/ntrr: plain softmax (the package only runs masked_softmax and
log_softmax), the masked softmax that exponentiates -inf, attention from
precomputed scores with the fused relative score op it took them from,
the plain gather and bincount that the displacement kernels split at the
far columns, the scalar displacement clip, a mean built from the
package's own tsum and mul, and a fixed-length cut of segment memory."""

import numpy as np

import ntrr.model as M
import ntrr.tensor as T
from ntrr.errors import ShapeError


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


def gather_last(x, index):
    """(..., Tq, R) -> (..., Tq, Tk): one take of every cell's key."""
    lead = x.shape[:-2]
    return np.take(x.reshape(lead + (-1,)), index.keys, axis=-1).reshape(lead + index.shape)


def bucket_sum(x, index):
    """(..., Tq, Tk) -> (..., Tq, nbuckets): one bincount over every cell
    of each leading row, in float64, rounded once to x's dtype."""
    tq, nb = index.shape[0], index.nbuckets
    rows = x.reshape((-1, x.shape[-2] * x.shape[-1]))
    sums = [np.bincount(index.keys, weights=row, minlength=tq * nb) for row in rows]
    return np.array(sums).astype(x.dtype).reshape(x.shape[:-2] + (tq, nb))


def masked_probs(s, mask):
    """Softmax of s over the last axis restricted to mask==True positions,
    in one new buffer; masked entries go through exp as -inf. Rows with
    no admissible position come out as all zeros rather than NaN."""
    m = np.broadcast_to(np.asarray(mask, dtype=bool), s.shape)
    p = np.where(m, s, -np.inf)  # the softmax buffer; updated in place below
    rowmax = p.max(axis=-1, keepdims=True)
    rowmax[~np.isfinite(rowmax)] = 0.0
    np.exp(np.subtract(p, rowmax, out=p), out=p)
    denom = p.sum(axis=-1, keepdims=True)
    return np.divide(p, np.where(denom > 0.0, denom, 1.0), out=p)


def add_select_scale(s, x, index, scale: float):
    """(s + index_select_last(x, index)) * scale, in the gather's buffer.

    The same roundings in the same order as the three separate ops, so
    the result is bitwise theirs: relative attention scores from the
    content scores s (..., Tq, Tk) and the per-displacement ones x
    (..., Tq, R)."""
    if index.nbuckets != x.data.shape[-1] or x.data.shape[-2] != index.shape[0]:
        raise ShapeError(f"index {index.shape} over {index.nbuckets} buckets cannot gather "
                         f"from {x.data.shape}")
    if s.data.shape != x.data.shape[:-1] + index.shape[1:]:
        raise ShapeError(f"scores {s.data.shape} do not match {x.data.shape} "
                         f"gathered by index {index.shape}")
    c = np.asarray(scale, dtype=s.dtype)
    out = T._gather_last(x.data, index)  # the only buffer; updated in place below
    np.multiply(np.add(s.data, out, out=out), c, out=out)

    def backward(g):
        gc = g * c
        return gc, T._bucket_sum(gc, index)

    return T._make(out, (s, x), backward)


def attend_scores(scores, mask, v, keep=None, drop_prob: float = 0.0, index=None, wv=None):
    """Attention weights from precomputed scores applied to values, in one op.

    scores (..., Tq, Tk), v (..., Tk, d). The weights are
    masked_softmax(scores, mask, keep, drop_prob); the result is
    weights @ v, plus index_bucket_last(weights, index) @ wv when given a
    (2k+1, d) value table wv and its index, bitwise those unfused ops.
    Backward saves the softmax, the keep-mask, v, wv and the pooled
    weights. With its scores from add_select_scale (relative) or a mul
    (absolute), this is what tensor.attend builds from q and k."""
    sd, vd = scores.data, v.data
    if sd.shape[:-2] != vd.shape[:-2] or sd.shape[-1] != vd.shape[-2]:
        raise ShapeError(f"attend: scores {sd.shape} do not fit values {vd.shape}")
    p = masked_probs(sd, mask)
    scale = None if keep is None else T._keep_scale(drop_prob, scores.dtype)
    w = p if keep is None else T._apply_keep(p, keep, scale)
    out = w @ vd
    pooled = wvd = None
    if index is not None:
        wvd = wv.data
        pooled = T._bucket_sum(w, index)
        np.add(out, pooled @ wvd, out=out)

    def backward(g):
        if keep is None:
            gv = np.swapaxes(p, -1, -2) @ g
            gw = g @ np.swapaxes(vd, -1, -2)
        else:
            gw = T._apply_keep(p, keep, scale)
            gv = np.swapaxes(gw, -1, -2) @ g
            np.matmul(g, np.swapaxes(vd, -1, -2), out=gw)
        if index is not None:
            gwv = T._sum_to_shape(np.swapaxes(pooled, -1, -2) @ g, wvd.shape)
            np.add(gw, T._gather_last(g @ np.swapaxes(wvd, -1, -2), index), out=gw)
        if keep is not None:
            np.multiply(np.multiply(gw, keep, out=gw), scale, out=gw)
        dot = (gw * p).sum(axis=-1, keepdims=True)
        np.multiply(p, np.subtract(gw, dot, out=gw), out=gw)
        return (gw, gv) if index is None else (gv, gw, gwv)

    return T._make(out, (scores, v) if index is None else (v, scores, wv), backward)
