"""Dense float tensors with reverse-mode automatic differentiation.

Arrays are numpy (float64 by default, float32 on request); every op
records a backward closure, and backward() walks the graph once in
reverse topological order from a seed of ones. .grad accumulates on
leaves until the caller zeroes it; intermediate grads are released as
the sweep passes. This module is the only numerical substrate the rest
of the package uses.

The graph is made of _Node objects, not tensors: a node holds its
parents' nodes, the backward closure, the grad and the dtype, but no
forward value. Closures save the arrays and shapes their backward reads,
never a Tensor, so an op output that no closure saves is freed as soon
as the forward drops it.
"""

from __future__ import annotations

import contextlib
import os
import queue
import threading

import numpy as np

from .errors import ConfigError, ContractError, ShapeError

_GRAD_ENABLED = True

_EPS_KL = 1e-12
_LN_EPS = 1e-5
# score cells per attend chunk: 256 KiB per float64 buffer. Backward holds three
# such buffers at once, 768 KiB, inside a core's 2 MiB L2.
ATTEND_CELLS = 2 ** 15
# dtype instances, so the membership test in Tensor() hits on identity
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (forward values only)."""
    global _GRAD_ENABLED
    saved = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = saved


class _Node:
    """The graph vertex of a grad-tracking tensor, without its data."""

    __slots__ = ("_parents", "_backward", "grad", "dtype")
    requires_grad = True

    def __init__(self, parents, backward, dtype):
        self._parents = parents
        self._backward = backward
        self.grad = None
        self.dtype = dtype


class _ConstNode(_Node):
    """The one vertex of every tensor that needs no gradient."""

    __slots__ = ()
    requires_grad = False


_CONST = _ConstNode((), None, None)


class Tensor:
    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False, parents=(), backward=None):
        if isinstance(data, Tensor):
            raise ContractError("Tensor(data) got a Tensor; pass raw array data")
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        # parents link by node here and only here, so each tensor's
        # gradient accumulates in exactly one place
        self._node = (_Node(tuple([p._node for p in parents]), backward, arr.dtype)
                      if requires_grad else _CONST)

    @property
    def requires_grad(self) -> bool:
        return self._node is not _CONST

    @property
    def grad(self):
        return self._node.grad

    @grad.setter
    def grad(self, g):
        if self._node is _CONST:
            raise ContractError("grad set on a tensor that does not require grad")
        self._node.grad = g

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar for the module-level add and mul
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)


def _as_tensor(x, dtype=np.float64) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _make(data: np.ndarray, parents, backward) -> Tensor:
    """Wrap an op result; track the graph only when grad mode is on and needed."""
    if _GRAD_ENABLED and any([p._node is not _CONST for p in parents]):
        return Tensor(data, requires_grad=True, parents=parents, backward=backward)
    return Tensor(data)


def _sum_to_shape(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    shape = tuple(shape)
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------- basic ops


def add(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b, a.dtype)
    ad, bd = a.data, b.data
    out = ad + bd
    sa, sb = ad.shape, bd.shape

    def backward(g):
        return _sum_to_shape(g, sa), _sum_to_shape(g, sb)

    return _make(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b, a.dtype)
    ad, bd = a.data, b.data
    out = ad * bd
    sa, sb = ad.shape, bd.shape
    # an operand that needs no gradient (a constant factor) costs nothing,
    # and neither does saving the other factor for it
    if a._node is _CONST:
        bd = None
    if b._node is _CONST:
        ad = None

    def backward(g):
        return (None if bd is None else _sum_to_shape(g * bd, sa),
                None if ad is None else _sum_to_shape(g * ad, sb))

    return _make(out, (a, b), backward)


def matmul(a, b) -> Tensor:
    """Batched matrix product with numpy broadcasting over leading axes."""
    a = _as_tensor(a)
    b = _as_tensor(b, a.dtype)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data
    out = ad @ bd

    def backward(g):
        ga = g @ np.swapaxes(bd, -1, -2)
        gb = np.swapaxes(ad, -1, -2) @ g
        return _sum_to_shape(ga, ad.shape), _sum_to_shape(gb, bd.shape)

    return _make(out, (a, b), backward)


def permute(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)

    def backward(g):
        return (g.transpose(np.argsort(axes)),)

    return _make(a.data.transpose(axes), (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    old = a.data.shape

    def backward(g):
        return (g.reshape(old),)

    return _make(a.data.reshape(shape), (a,), backward)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.data.shape

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return _make(out, (a,), backward)


def texp(a: Tensor) -> Tensor:
    out = np.exp(a.data)

    def backward(g):
        return (g * out,)

    return _make(out, (a,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        slicer = [slice(None)] * g.ndim
        grads = []
        for i in range(len(sizes)):
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(slicer)])
        return tuple(grads)

    return _make(out, tuple(tensors), backward)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    slicer = [slice(None)] * a.ndim
    slicer[axis] = slice(start, stop)
    slicer = tuple(slicer)
    shape, dtype = a.data.shape, a.data.dtype

    def backward(g):
        full = np.zeros(shape, dtype)
        full[slicer] = g
        return (full,)

    return _make(a.data[slicer].copy(), (a,), backward)


def take(a: Tensor, indices, axis: int = 0) -> Tensor:
    """Integer gather along one axis; backward scatter-adds."""
    idx = np.asarray(indices)
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[axis]):
        raise IndexError(f"take index out of range for axis {axis} of size {a.data.shape[axis]}")
    out = np.take(a.data, idx, axis=axis)
    shape, dtype = a.data.shape, a.data.dtype

    def backward(g):
        full = np.zeros(shape, dtype)
        np.add.at(np.moveaxis(full, axis, 0), idx, np.moveaxis(g, axis, 0))
        return (full,)

    return _make(out, (a,), backward)


def embedding(table: Tensor, ids) -> Tensor:
    """Row lookup: ids of any integer shape -> ids.shape + (dim,)."""
    return take(table, np.asarray(ids, dtype=np.int64), axis=0)


# ------------------------------------------------------------ neural-net ops


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x (..., nin) @ w (nin, nout) + b (nout,)."""
    out = matmul(x, w)
    if b is not None:
        out = add(out, b)
    return out


def _phi(x: np.ndarray) -> np.ndarray:
    """The standard normal CDF, 0.5 (1 + erf(x / sqrt 2)), in one new buffer."""
    from scipy.special import erf  # here, not at import: it is most of `import ntrr`'s time
    t = x / _SQRT2
    erf(t, out=t)
    t += 1.0
    t *= 0.5
    return t


def gelu(a: Tensor) -> Tensor:
    """Exact erf form: x phi(x). Backward saves x only and rebuilds phi
    with the forward's expression, so the bits are the same. Each side
    works in one or two buffers of phi's dtype, with the roundings of the
    out-of-place expressions."""
    x = a.data
    out = _phi(x)
    out *= x

    def backward(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
        pdf *= x
        pdf += _phi(x)
        pdf *= g
        return (pdf,)

    return _make(out, (a,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = _LN_EPS) -> Tensor:
    """Normalize the last axis to zero mean, unit variance, then affine."""
    # np.add.reduce, not x.mean/x.var: the same bits without numpy's
    # Python-level _methods wrappers
    n = x.data.shape[-1]
    d = x.data - np.add.reduce(x.data, -1, keepdims=True) / n
    inv = 1.0 / np.sqrt(np.add.reduce(d * d, -1, keepdims=True) / n + eps)
    y = d * inv
    gd = gain.data
    out = y * gd + bias.data
    sb = bias.data.shape

    def backward(g):
        gz = g * gd
        gx = inv * (gz - np.add.reduce(gz, -1, keepdims=True) / n
                    - y * (np.add.reduce(gz * y, -1, keepdims=True) / n))
        return gx, _sum_to_shape(g * y, gd.shape), _sum_to_shape(g, sb)

    return _make(out, (x, gain, bias), backward)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    m = a.data.max(axis=axis, keepdims=True)
    shifted = a.data - m
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse

    def backward(g):
        return (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)

    return _make(out, (a,), backward)


def _probs(s: np.ndarray, mask, stats=None, far: int = 0):
    """(p, (rowmax, denom)): the softmax of s over the last axis restricted
    to mask==True positions, and the row stats that rebuild it. Given
    stats, p is rebuilt bitwise without the two reductions. Only
    admissible entries are exponentiated: the others take the row max, so
    exp sees 0, and the mask then zeroes them exactly. Masked positions
    get exactly zero weight; rows with no admissible position come out as
    all zeros rather than NaN. p is s itself, updated in place; given far
    leading columns that every row admits, the mask is read only from
    column far on."""
    near = mask[..., far:]
    if stats is None:
        rowmax = np.max(s[..., far:], axis=-1, keepdims=True, where=near, initial=-np.inf)
        if far:
            np.maximum(rowmax, s[..., :far].max(axis=-1, keepdims=True), out=rowmax)
        rowmax[~np.isfinite(rowmax)] = 0.0
    else:
        rowmax, denom = stats
    np.copyto(s[..., far:], rowmax, where=~near)
    np.exp(np.subtract(s, rowmax, out=s), out=s)
    np.multiply(s[..., far:], near, out=s[..., far:])
    if stats is None:
        denom = s.sum(axis=-1, keepdims=True)
        denom[~(denom > 0.0)] = 1.0
    return np.divide(s, denom, out=s), (rowmax, denom)


def masked_softmax(scores: Tensor, mask, keep=None, drop_prob: float = 0.0) -> Tensor:
    """Softmax over the last axis restricted to mask==True positions.

    Masked positions get exactly zero weight; rows with no admissible
    position come out as all zeros rather than NaN. A keep-mask folds in
    dropout(..., drop_prob, keep) bitwise, saving the mask, not a factor."""
    p, _ = _probs(scores.data.copy(), np.asarray(mask, dtype=bool))
    scale = None if keep is None else _keep_scale(drop_prob, scores.dtype)
    out = p if keep is None else _apply_keep(p, keep, scale)

    def backward(g):
        if keep is not None:
            g = _apply_keep(g, keep, scale)
        dot = (g * p).sum(axis=-1, keepdims=True)
        return (p * (g - dot),)

    return _make(out, (scores,), backward)


def mask_scores(x: Tensor, mask) -> Tensor:
    """Set positions where mask is False to -inf (pre-softmax masking);
    gradients to masked positions are zero."""
    m = np.broadcast_to(np.asarray(mask, dtype=bool), x.data.shape)
    out = np.where(m, x.data, -np.inf)

    def backward(g):
        return (g * m,)

    return _make(out, (x,), backward)


def _keep_scale(drop_prob: float, dtype) -> np.ndarray:
    if not 0.0 <= drop_prob < 1.0:
        raise ConfigError(f"drop_prob must be in [0, 1), got {drop_prob}")
    return np.asarray(1.0 / (1.0 - drop_prob), dtype=dtype)


def _apply_keep(x: np.ndarray, keep: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """(x * keep) * scale in one new buffer, bitwise x * (keep * scale)."""
    out = x * keep
    return np.multiply(out, scale, out=out)


def dropout(x: Tensor, drop_prob: float, keep: np.ndarray) -> Tensor:
    """Inverted dropout by a boolean keep-mask; backward saves only the
    mask. drop_prob == 0 is the identity, bitwise (the input tensor is
    returned unchanged)."""
    scale = _keep_scale(drop_prob, x.dtype)
    if drop_prob == 0.0:
        return x

    def backward(g):
        return (_apply_keep(g, keep, scale),)

    return _make(_apply_keep(x.data, keep, scale), (x,), backward)


def _mask_weights(mask, rows: np.ndarray, op: str):
    """The weights of a masked mean over rows (all ones without a mask)
    and their sum, which must be positive."""
    if mask is None:
        w = np.ones_like(rows)
    else:
        w = np.asarray(mask, dtype=rows.dtype)
        if w.shape != rows.shape:
            raise ShapeError(f"{op}: mask shape {w.shape} does not match row shape {rows.shape}")
    count = w.sum()
    if count <= 0:
        raise ContractError(f"{op} over an empty row set")
    return w, count


def cross_entropy(log_probs: Tensor, targets, mask=None) -> Tensor:
    """Negative log likelihood of integer targets under given log-probs.

    log_probs (..., C) must already be normalized; targets has shape
    log_probs.shape[:-1]. mask (same shape as targets) selects which
    positions count; the mean divides by the number counted.
    """
    t = np.asarray(targets, dtype=np.int64)
    C = log_probs.data.shape[-1]
    if t.shape != log_probs.data.shape[:-1]:
        raise ShapeError(f"targets shape {t.shape} does not match log_probs {log_probs.data.shape}")
    if t.size and (t.min() < 0 or t.max() >= C):
        raise IndexError(f"target id out of range [0, {C})")
    picked = np.take_along_axis(log_probs.data, t[..., None], axis=-1)[..., 0]
    w, count = _mask_weights(mask, picked, "cross_entropy")
    out = np.asarray(-(picked * w).sum() / count)
    shape, dtype = log_probs.data.shape, log_probs.data.dtype

    def backward(g):
        glp = np.zeros(shape, dtype)
        np.put_along_axis(glp, t[..., None], (-(w * float(g)) / count)[..., None], axis=-1)
        return (glp,)

    return _make(out, (log_probs,), backward)


def kl_divergence(p: Tensor, q: Tensor, mask=None) -> Tensor:
    """Mean over rows of KL(p || q), rows on the last axis.

    Probabilities are clamped at 1e-12 inside the logs, so KL(p || p)
    is exactly zero and the result is never negative beyond roundoff.
    """
    if p.data.shape != q.data.shape:
        raise ShapeError(f"kl_divergence shapes disagree: {p.data.shape} vs {q.data.shape}")
    pc = np.maximum(p.data, _EPS_KL)
    qc = np.maximum(q.data, _EPS_KL)
    diff = np.log(pc) - np.log(qc)
    rows = (p.data * diff).sum(axis=-1)
    w, count = _mask_weights(mask, rows, "kl_divergence")
    out = np.asarray((rows * w).sum() / count)
    pd, qd = p.data, q.data

    def backward(g):
        scale = (w * float(g) / count)[..., None]
        gp = (diff + pd * (pd > _EPS_KL) / pc) * scale
        gq = -(pd / qc) * (qd > _EPS_KL) * scale
        return gp, gq

    return _make(out, (p, q), backward)


# ------------------------------------------------- displacement-indexed ops


class BucketIndex:
    """A constant (Tq, Tk) index into nbuckets buckets, checked once.

    Holds the flat keys i * nbuckets + idx[i, j] into a (Tq, nbuckets)
    block, which every displacement op gathers or pools by, so a caller
    that builds it once pays for the 2-d and range checks once. far counts
    the leading columns that every row maps to one bucket: in a relative
    index, the memory columns at least the clip radius behind every
    query. When there are any, near holds the keys of the columns from far
    on, and pool the same behind each row's key for that one bucket, so
    attend can take the far columns by broadcast and sum them apart."""

    __slots__ = ("shape", "nbuckets", "keys", "far", "near", "pool")

    def __init__(self, idx, nbuckets: int):
        idx = np.asarray(idx, dtype=np.int64)
        if idx.ndim != 2:
            raise ShapeError(f"index matrix must be 2-d, got shape {idx.shape}")
        if idx.size and (idx.min() < 0 or idx.max() >= nbuckets):
            raise IndexError(f"bucket index out of range [0, {nbuckets})")
        self.shape = idx.shape
        self.nbuckets = nbuckets
        keys = np.arange(idx.shape[0])[:, None] * nbuckets + idx
        self.keys = keys.ravel()
        shared = (idx == idx[:1, :1]).all(axis=0)  # columns all in row 0's first bucket
        self.far = int(np.logical_and.accumulate(shared).sum()) if idx.size else 0
        self.near = self.pool = None
        if self.far:
            self.near = keys[:, self.far:].ravel()
            self.pool = np.concatenate([keys[:, :1], keys[:, self.far:]], axis=1).ravel()


def _gather_last(x: np.ndarray, index: BucketIndex, far: int = 0) -> np.ndarray:
    """(..., Tq, R) -> (..., Tq, Tk - far): one take over the flattened last
    two axes, of the columns from far (0 or index.far) on."""
    lead, (tq, tk) = x.shape[:-2], index.shape
    keys = index.near if far else index.keys
    return np.take(x.reshape(lead + (-1,)), keys, axis=-1).reshape(lead + (tq, tk - far))


def _add_gathered(s: np.ndarray, x: np.ndarray, index: BucketIndex, far: int) -> None:
    """s += the (..., Tq, Tk) gather of x (..., Tq, R) by index, in place;
    the far columns (0 or index.far) add their one bucket by broadcast."""
    if far:
        b = index.pool[0]  # row 0's key for the far bucket is the bucket itself
        np.add(s[..., :far], x[..., b:b + 1], out=s[..., :far])
    np.add(s[..., far:], _gather_last(x, index, far), out=s[..., far:])


def _bucket_sum(x: np.ndarray, index: BucketIndex, far: int = 0) -> np.ndarray:
    """(..., Tq, Tk) -> (..., Tq, nbuckets), one bincount per leading row,
    summed in float64. Given far (index.far) columns that share one
    bucket, an axis-0 reduce over one transposed float64 copy adds each
    row's far weights in order, as bincount would, and the sum enters the
    bincount over the columns from far on as that row's first weight:
    bincount's 0.0 + sum is then bitwise its own running sum, -0.0 too."""
    tq, width = index.shape[0], index.shape[0] * index.nbuckets
    out = np.empty(x.shape[:-2] + (tq, index.nbuckets), dtype=x.dtype)
    keys = index.keys
    if far:
        rows = x.reshape(-1, x.shape[-1])
        n = rows.shape[0]
        # a spare zero column keeps numpy's inner loop off the reduced axis,
        # where it would sum pairwise rather than in order
        t = np.empty((far, n + 1))
        t[:, :n], t[:, n] = rows[:, :far].T, 0.0
        x = np.empty((n, 1 + rows.shape[1] - far))
        x[:, 0], x[:, 1:] = np.add.reduce(t, axis=0)[:n], rows[:, far:]
        keys = index.pool
    for row_out, row in zip(out.reshape(-1, width), x.reshape(-1, keys.size)):
        row_out[...] = np.bincount(keys, weights=row, minlength=width)
    return out


def index_select_last(x: Tensor, index: BucketIndex) -> Tensor:
    """out[..., i, j] = x[..., i, idx[i, j]] for the index's constant 2-d idx.

    Spreads per-displacement values (..., T, R) out to (..., T, Tk)."""
    if index.nbuckets != x.data.shape[-1] or x.data.shape[-2] != index.shape[0]:
        raise ShapeError(f"index {index.shape} over {index.nbuckets} buckets cannot gather "
                         f"from {x.data.shape}")

    def backward(g):
        return (_bucket_sum(g, index),)

    return _make(_gather_last(x.data, index), (x,), backward)


def index_bucket_last(x: Tensor, index: BucketIndex) -> Tensor:
    """out[..., i, r] = sum_j x[..., i, j] where the index's idx[i, j] == r.

    The adjoint of index_select_last; used to pool attention weights by
    displacement before mixing in the per-displacement value rows."""
    if x.data.shape[-2:] != index.shape:
        raise ShapeError(f"trailing dims {x.data.shape[-2:]} do not match index {index.shape}")

    def backward(g):
        return (_gather_last(g, index),)

    return _make(_bucket_sum(x.data, index), (x,), backward)


def _row_chunks(lead, rows: int) -> list:
    """Index tuples that cover the leading shape lead in blocks of whole
    rows, at most rows of them (never fewer than one) per block, each
    block a slice of one axis under fixed outer indices."""
    axis, inner = len(lead), 1
    while axis and inner * lead[axis - 1] <= rows:
        axis -= 1
        inner *= lead[axis]
    if axis == 0:
        return [()]
    step, n = max(1, rows // inner), lead[axis - 1]
    return [outer + (slice(i, i + step),)
            for outer in np.ndindex(*lead[:axis - 1]) for i in range(0, n, step)]


_helper_tasks = None  # the task queue of attend's one helper thread, once started
_helper_lock = threading.Lock()


def _forget_helper() -> None:
    """In a forked child, which inherits the queue (and maybe a held lock)
    but not the thread: the child's first multi-chunk call starts its own."""
    global _helper_tasks, _helper_lock
    _helper_tasks, _helper_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_helper)


def _helper_loop(tasks) -> None:
    while True:
        # the last task stays bound until the next; dropping it measured slower (colder heap)
        body, chunks, reply = tasks.get()
        try:
            for ch in chunks:
                body(ch)
        except BaseException as exc:  # re-raised on the caller's thread
            reply.put(exc)
        else:
            reply.put(None)


def _run_chunks(body, chunks) -> None:
    """body(ch) for every chunk: one chunk inline, more split in two
    halves, the first run on this thread and the second on one helper
    thread, started on first use, then joined. A helper's exception is
    re-raised here. The bodies must write disjoint slices and call only
    private helpers: perfbench's tracer keeps one span stack."""
    global _helper_tasks
    if len(chunks) == 1:
        body(chunks[0])
        return
    with _helper_lock:
        if _helper_tasks is None:
            _helper_tasks = queue.SimpleQueue()
            threading.Thread(target=_helper_loop, args=(_helper_tasks,),
                             name="ntrr-attend", daemon=True).start()
    half, reply = (len(chunks) + 1) // 2, queue.SimpleQueue()
    _helper_tasks.put((body, chunks[half:], reply))
    try:
        for ch in chunks[:half]:
            body(ch)
    finally:
        error = reply.get()  # the join: the helper's half is done
    if error is not None:
        raise error


def _attend_probs(ch, q, k, pd, index, far, c, mask, stats=None):
    """_probs of chunk ch of the scores (q @ k^T + pd gathered by index) * c,
    or (q @ k^T) * c without an index, bitwise matmul, index_select_last,
    add and mul. Forward and backward both build the softmax here."""
    s = q[ch] @ np.swapaxes(k[ch], -1, -2)
    if index is not None:
        _add_gathered(s, pd[ch], index, far)
    return _probs(np.multiply(s, c, out=s), mask[ch], stats, far)


def attend(q: Tensor, k: Tensor, mask, v: Tensor, keep=None, drop_prob: float = 0.0,
           per_disp: Tensor | None = None, index: BucketIndex | None = None,
           wv: Tensor | None = None) -> Tensor:
    """Attention from queries q (..., Tq, d) over keys k (..., Tk, d) to
    values v (..., Tk, dv), all with the same leading axes, in one op.

    The scores are (q @ k^T) / sqrt(d), plus index_select_last(per_disp,
    index) before the scale given an index and the (..., Tq, 2k+1)
    per-displacement scores. The weights are masked_softmax(scores, mask,
    keep, drop_prob); the result is weights @ v, plus
    index_bucket_last(weights, index) @ wv for the (2k+1, dv) table wv.
    All of it is bitwise those unfused ops. It runs over whole (Tq, Tk)
    matrices in chunks of at most ATTEND_CELLS score cells, the forward's
    on two threads (_run_chunks), the backward's one at a time, and no float
    (..., Tq, Tk) array outlives it: backward saves q, k, per_disp, keep,
    v, wv, the pooled weights and each row's softmax max and denominator,
    and rebuilds each chunk's scores and softmax from them. When the mask
    admits the index's far columns in every row, those columns skip the
    gather, the mask and the per-cell pooling (see _probs and _bucket_sum),
    with the same bits; tagging's memory columns are such columns."""
    qd, kd, vd = q.data, k.data, v.data
    lead, (tq, d), tk, dt = qd.shape[:-2], qd.shape[-2:], kd.shape[-2], qd.dtype
    pdd = wvd = pooled = None
    if index is not None:
        pdd, wvd = per_disp.data, wv.data
        pooled = np.empty(lead + (tq, index.nbuckets), dt)
    if kd.shape != lead + (tk, d) or vd.shape[:-1] != lead + (tk,) or index is not None and (
            index.shape != (tq, tk) or pdd.shape != pooled.shape
            or wvd.shape != (index.nbuckets, vd.shape[-1])):
        raise ShapeError(f"attend: queries {qd.shape}, keys {kd.shape}, values {vd.shape}"
                         + ("" if index is None else f", index {index.shape} over "
                            f"{index.nbuckets} buckets, per-displacement scores "
                            f"{pdd.shape} and table {wvd.shape}") + " do not fit")
    full, c, scale = lead + (tq, tk), np.asarray(1.0 / np.sqrt(d), dtype=dt), None
    if keep is not None:
        scale, keep = _keep_scale(drop_prob, dt), np.broadcast_to(keep, full)
    m = np.atleast_1d(np.asarray(mask, dtype=bool))
    far = 0 if index is None or not m[..., :index.far].all() else index.far
    m = np.broadcast_to(m, full)
    chunks = _row_chunks(lead, ATTEND_CELLS // max(1, tq * tk))
    out = np.empty(lead + (tq, vd.shape[-1]), dt)
    rowmax, denom = np.empty(lead + (tq, 1), dt), np.empty(lead + (tq, 1), dt)

    def forward(ch):  # may run on the helper thread: private helpers only
        w, (rowmax[ch], denom[ch]) = _attend_probs(ch, qd, kd, pdd, index, far, c, m)
        if keep is not None:
            np.multiply(np.multiply(w, keep[ch], out=w), scale, out=w)
        out[ch] = w @ vd[ch]
        if index is not None:
            pooled[ch] = _bucket_sum(w, index, far)
            out[ch] += pooled[ch] @ wvd

    _run_chunks(forward, chunks)

    def backward(g):
        gq, gv, gkt = np.empty(qd.shape, dt), np.empty(vd.shape, dt), np.empty(lead + (d, tk), dt)
        if index is not None:
            gpd, gwv = np.empty_like(pooled), np.empty(lead + wvd.shape, dt)
        for ch in chunks:
            # gw is the chunk's one buffer beside the rebuilt softmax p: the
            # dropped weights for gv, then their gradient, then the scores'
            p, _ = _attend_probs(ch, qd, kd, pdd, index, far, c, m, (rowmax[ch], denom[ch]))
            gc, vc = g[ch], vd[ch]
            if keep is None:
                gv[ch] = np.swapaxes(p, -1, -2) @ gc
                gw = gc @ np.swapaxes(vc, -1, -2)
            else:
                gw = _apply_keep(p, keep[ch], scale)
                gv[ch] = np.swapaxes(gw, -1, -2) @ gc
                np.matmul(gc, np.swapaxes(vc, -1, -2), out=gw)
            if index is not None:
                gwv[ch] = np.swapaxes(pooled[ch], -1, -2) @ gc
                _add_gathered(gw, gc @ np.swapaxes(wvd, -1, -2), index, far)
            if keep is not None:
                np.multiply(np.multiply(gw, keep[ch], out=gw), scale, out=gw)
            dot = (gw * p).sum(axis=-1, keepdims=True)
            np.multiply(np.multiply(p, np.subtract(gw, dot, out=gw), out=gw), c, out=gw)
            if index is not None:
                gpd[ch] = _bucket_sum(gw, index, far)
            gq[ch] = gw @ kd[ch]
            gkt[ch] = np.swapaxes(qd[ch], -1, -2) @ gw  # swapped on return, as matmul's is
            del p, gw  # before the next chunk rebuilds its scores
        gk = np.swapaxes(gkt, -1, -2)
        return (gq, gk, gv) if index is None else (gv, gk, gq, gpd, _sum_to_shape(gwv, wvd.shape))

    # the parents in the unfused graph's search order, so the gradients
    # that meet upstream (q, k and v share one layer norm) add in its order
    return _make(out, (q, k, v) if index is None else (v, k, q, per_disp, wv), backward)


# ------------------------------------------------------------------ backward


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar, seeded with ones. .grad
    accumulates on leaves across calls until zeroed; the loss's .grad is
    set to the seed, so a second sweep over the same graph adds exactly
    one more gradient. Intermediate grads are released as the sweep
    passes. Accumulation stays out of place: add hands one array to both
    parents."""
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    root = loss._node
    if root is _CONST:
        raise ContractError("backward from a tensor that does not require grad")
    topo: list[_Node] = []
    seen: set[int] = set()
    stack: list[tuple[_Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    root.grad = np.ones_like(loss.data)

    for node in reversed(topo):
        if node._backward is None or node.grad is None:
            continue
        grads = node._backward(node.grad)
        if node is not root:
            node.grad = None  # every consumer of node ran before it
        for parent, g in zip(node._parents, grads):
            if g is None or not parent.requires_grad:
                continue
            if parent.grad is None:
                parent.grad = g if g.dtype == parent.dtype else g.astype(parent.dtype)
            else:
                parent.grad = parent.grad + g


def zero_grads(params) -> None:
    """Reset gradients to zeros so the next backward starts fresh and
    every registered tensor ends up with a defined gradient."""
    for p in params:
        p.zero_grad()


def finite_diff_grad(f, params, h: float = 1e-5):
    """Central-difference gradient of scalar f() w.r.t. each Tensor in
    params. f must be deterministic (fix all rng streams first)."""
    grads = []
    with no_grad():
        for p in params:
            flat = p.data.flat
            g = np.empty(p.data.size, dtype=np.float64)
            for i in range(g.size):
                orig = flat[i]
                flat[i] = orig + h
                fp = float(f().data)
                flat[i] = orig - h
                fm = float(f().data)
                flat[i] = orig
                g[i] = (fp - fm) / (2.0 * h)
            grads.append(g.reshape(p.data.shape))
    return grads
