"""Dense float tensors with reverse-mode automatic differentiation.

Arrays are numpy (float64 by default, float32 on request); every op
records a backward closure, and backward() walks the graph once in
reverse topological order. Gradients accumulate into .grad until the
caller zeroes them. This module is the only numerical substrate the
rest of the package uses.
"""

from __future__ import annotations

import contextlib

import numpy as np
from scipy.special import erf

from .errors import ConfigError, ContractError, NumericsError, ShapeError

_GRAD_ENABLED = True
_DEBUG_CHECKS = False

_EPS_KL = 1e-12
_LN_EPS = 1e-5
# dtype instances, so the membership test in Tensor() hits on identity
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def set_debug_checks(on: bool) -> None:
    """Toggle finite-value and distribution validation on every op output."""
    global _DEBUG_CHECKS
    _DEBUG_CHECKS = bool(on)


def debug_checks_enabled() -> bool:
    return _DEBUG_CHECKS


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


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, parents=(), backward=None):
        if isinstance(data, Tensor):
            raise ContractError("Tensor(data) got a Tensor; pass raw array data")
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        # NaN is never legitimate; -inf can be (pre-softmax masking), so
        # the stricter isfinite check lives in _make, which mask_scores skips.
        if _DEBUG_CHECKS and np.isnan(arr).any():
            raise NumericsError("NaN values in tensor construction")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar; all defined in terms of the module-level ops
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, neg(_as_tensor(other, self.dtype)))

    def __rsub__(self, other):
        return add(neg(self), other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise ContractError("tensor/tensor division is not provided; divide by a scalar")
        return mul(self, 1.0 / float(other))

    def __matmul__(self, other):
        return matmul(self, other)


def _as_tensor(x, dtype=np.float64) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _make(data: np.ndarray, parents, backward) -> Tensor:
    """Wrap an op result; track the graph only when grad mode is on and needed."""
    if _DEBUG_CHECKS and not np.all(np.isfinite(data)):
        raise NumericsError("non-finite values produced by an op")
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
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
    out = a.data + b.data

    def backward(g):
        return _sum_to_shape(g, a.data.shape), _sum_to_shape(g, b.data.shape)

    return _make(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b, a.dtype)
    out = a.data * b.data

    def backward(g):
        return (_sum_to_shape(g * b.data, a.data.shape),
                _sum_to_shape(g * a.data, b.data.shape))

    return _make(out, (a, b), backward)


def neg(a) -> Tensor:
    a = _as_tensor(a)

    def backward(g):
        return (-g,)

    return _make(-a.data, (a,), backward)


def matmul(a, b) -> Tensor:
    """Batched matrix product with numpy broadcasting over leading axes."""
    a = _as_tensor(a)
    b = _as_tensor(b, a.dtype)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def backward(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return _sum_to_shape(ga, a.data.shape), _sum_to_shape(gb, b.data.shape)

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

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return _make(out, (a,), backward)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        n = a.data.size
    else:
        n = a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def texp(a: Tensor) -> Tensor:
    out = np.exp(a.data)

    def backward(g):
        return (g * out,)

    return _make(out, (a,), backward)


def tlog(a: Tensor) -> Tensor:
    out = np.log(a.data)

    def backward(g):
        return (g / a.data,)

    return _make(out, (a,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        slicer = [slice(None)] * g.ndim
        grads = []
        for i in range(len(tensors)):
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(slicer)])
        return tuple(grads)

    return _make(out, tuple(tensors), backward)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    slicer = [slice(None)] * a.ndim
    slicer[axis] = slice(start, stop)
    slicer = tuple(slicer)

    def backward(g):
        full = np.zeros_like(a.data)
        full[slicer] = g
        return (full,)

    return _make(a.data[slicer].copy(), (a,), backward)


def take(a: Tensor, indices, axis: int = 0) -> Tensor:
    """Integer gather along one axis; backward scatter-adds."""
    idx = np.asarray(indices)
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[axis]):
        raise IndexError(f"take index out of range for axis {axis} of size {a.data.shape[axis]}")
    out = np.take(a.data, idx, axis=axis)

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(np.moveaxis(full, axis, 0), idx, np.moveaxis(g, axis, 0))
        return (full,)

    return _make(out, (a,), backward)


def embedding(table: Tensor, ids) -> Tensor:
    """Row lookup: ids of any integer shape -> ids.shape + (dim,)."""
    return take(table, np.asarray(ids, dtype=np.int64), axis=0)


def stop_gradient(a: Tensor) -> Tensor:
    return Tensor(a.data)


# ------------------------------------------------------------ neural-net ops


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x (..., nin) @ w (nin, nout) + b (nout,)."""
    out = matmul(x, w)
    if b is not None:
        out = add(out, b)
    return out


def gelu(a: Tensor) -> Tensor:
    """Exact erf form: 0.5 x (1 + erf(x / sqrt 2))."""
    x = a.data
    phi = 0.5 * (1.0 + erf(x / _SQRT2))
    out = x * phi

    def backward(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
        return (g * (phi + x * pdf),)

    return _make(out, (a,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = _LN_EPS) -> Tensor:
    """Normalize the last axis to zero mean, unit variance, then affine."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = (x.data - mu) * inv
    out = y * gain.data + bias.data

    def backward(g):
        gz = g * gain.data
        gx = inv * (gz - gz.mean(axis=-1, keepdims=True)
                    - y * (gz * y).mean(axis=-1, keepdims=True))
        ggain = _sum_to_shape(g * y, gain.data.shape)
        gbias = _sum_to_shape(g, bias.data.shape)
        return gx, ggain, gbias

    return _make(out, (x, gain, bias), backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Row-stochastic softmax, stabilized by max subtraction."""
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _make(out, (a,), backward)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    m = a.data.max(axis=axis, keepdims=True)
    shifted = a.data - m
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse

    def backward(g):
        return (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)

    return _make(out, (a,), backward)


def masked_softmax(scores: Tensor, mask) -> Tensor:
    """Softmax over the last axis restricted to mask==True positions.

    Masked positions get exactly zero weight; rows with no admissible
    position come out as all zeros rather than NaN.
    """
    m = np.broadcast_to(np.asarray(mask, dtype=bool), scores.data.shape)
    out = np.where(m, scores.data, -np.inf)  # the only buffer; updated in place below
    rowmax = out.max(axis=-1, keepdims=True)
    rowmax[~np.isfinite(rowmax)] = 0.0
    np.exp(np.subtract(out, rowmax, out=out), out=out)
    denom = out.sum(axis=-1, keepdims=True)
    np.divide(out, np.where(denom > 0.0, denom, 1.0), out=out)

    def backward(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _make(out, (scores,), backward)


def mask_scores(x: Tensor, mask) -> Tensor:
    """Set positions where mask is False to -inf (pre-softmax masking).

    The -inf values are intentional, so this op skips the debug finite
    check on its own output; gradients to masked positions are zero."""
    m = np.broadcast_to(np.asarray(mask, dtype=bool), x.data.shape)
    out = np.where(m, x.data, -np.inf)

    def backward(g):
        return (g * m,)

    if _GRAD_ENABLED and x.requires_grad:
        return Tensor(out, requires_grad=True, parents=(x,), backward=backward)
    return Tensor(out)


def dropout(x: Tensor, drop_prob: float, rng) -> Tensor:
    """Inverted dropout. rng is an Rng-like with .uniform(shape), or a
    precomputed boolean keep-mask. drop_prob == 0 is the identity,
    bitwise (the input tensor is returned unchanged)."""
    if not 0.0 <= drop_prob < 1.0:
        raise ConfigError(f"drop_prob must be in [0, 1), got {drop_prob}")
    if drop_prob == 0.0:
        return x
    if isinstance(rng, np.ndarray):
        keep = rng
    else:
        keep = rng.uniform(x.data.shape) >= drop_prob
    scale = np.asarray(1.0 / (1.0 - drop_prob), dtype=x.dtype)
    factor = keep.astype(x.dtype) * scale
    out = x.data * factor

    def backward(g):
        return (g * factor,)

    return _make(out, (x,), backward)


def cross_entropy(log_probs: Tensor, targets, mask=None, reduction: str = "mean") -> Tensor:
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
    if reduction not in ("mean", "sum"):
        raise ConfigError(f"unknown reduction '{reduction}'")
    picked = np.take_along_axis(log_probs.data, t[..., None], axis=-1)[..., 0]
    if mask is not None:
        w = np.asarray(mask, dtype=log_probs.dtype)
        if w.shape != t.shape:
            raise ShapeError(f"mask shape {w.shape} does not match targets {t.shape}")
    else:
        w = np.ones_like(picked)
    count = w.sum()
    if count <= 0:
        raise ContractError("cross_entropy over an empty target set")
    denom = count if reduction == "mean" else 1.0
    out = np.asarray(-(picked * w).sum() / denom)

    def backward(g):
        glp = np.zeros_like(log_probs.data)
        np.put_along_axis(glp, t[..., None], (-(w * float(g)) / denom)[..., None], axis=-1)
        return (glp,)

    return _make(out, (log_probs,), backward)


def kl_divergence(p: Tensor, q: Tensor, mask=None) -> Tensor:
    """Mean over rows of KL(p || q), rows on the last axis.

    Probabilities are clamped at 1e-12 inside the logs, so KL(p || p)
    is exactly zero and the result is never negative beyond roundoff.
    In debug mode, rows that do not sum to 1 raise a validation error.
    """
    if p.data.shape != q.data.shape:
        raise ShapeError(f"kl_divergence shapes disagree: {p.data.shape} vs {q.data.shape}")
    if _DEBUG_CHECKS:
        for name, d in (("p", p.data), ("q", q.data)):
            sums = d.sum(axis=-1)
            if not np.allclose(sums, 1.0, atol=1e-6):
                raise NumericsError(f"kl_divergence: {name} rows are not normalized")
    pc = np.maximum(p.data, _EPS_KL)
    qc = np.maximum(q.data, _EPS_KL)
    diff = np.log(pc) - np.log(qc)
    rows = (p.data * diff).sum(axis=-1)
    if mask is not None:
        w = np.asarray(mask, dtype=p.dtype)
        if w.shape != rows.shape:
            raise ShapeError(f"mask shape {w.shape} does not match row shape {rows.shape}")
    else:
        w = np.ones_like(rows)
    count = w.sum()
    if count <= 0:
        raise ContractError("kl_divergence over an empty row set")
    out = np.asarray((rows * w).sum() / count)

    def backward(g):
        scale = (w * float(g) / count)[..., None]
        gp = (diff + p.data * (p.data > _EPS_KL) / pc) * scale
        gq = -(p.data / qc) * (q.data > _EPS_KL) * scale
        return gp, gq

    return _make(out, (p, q), backward)


# ------------------------------------------------- displacement-indexed ops


def _flat_index(idx, nbuckets: int):
    """The checked 2-d index and its flat keys i * nbuckets + idx[i, j] in (Tq, nbuckets)."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 2:
        raise ShapeError(f"index matrix must be 2-d, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= nbuckets):
        raise IndexError(f"bucket index out of range [0, {nbuckets})")
    return idx, (np.arange(idx.shape[0])[:, None] * nbuckets + idx).ravel()


def _gather_last(x: np.ndarray, keys: np.ndarray, shape) -> np.ndarray:
    """(..., Tq, R) -> (..., Tq, Tk): one take over the flattened last two axes."""
    return np.take(x.reshape(x.shape[:-2] + (-1,)), keys, axis=-1).reshape(x.shape[:-2] + shape)


def _bucket_sum(x: np.ndarray, keys: np.ndarray, shape, nbuckets: int) -> np.ndarray:
    """(..., Tq, Tk) -> (..., Tq, nbuckets), one bincount per leading row, summed in float64."""
    tq = shape[0]
    out = np.empty(x.shape[:-2] + (tq, nbuckets), dtype=x.dtype)
    for row_out, row in zip(out.reshape(-1, tq * nbuckets), x.reshape((-1,) + shape)):
        row_out[...] = np.bincount(keys, weights=row.ravel(), minlength=tq * nbuckets)
    return out


def index_select_last(x: Tensor, idx) -> Tensor:
    """out[..., i, j] = x[..., i, idx[i, j]] for a constant 2-d index.

    Used to spread per-displacement scores (..., T, R) out to score
    matrices (..., T, Tk)."""
    idx, keys = _flat_index(idx, x.data.shape[-1])
    if x.data.shape[-2] != idx.shape[0]:
        raise ShapeError(f"row dim {x.data.shape[-2]} does not match index {idx.shape}")

    def backward(g):
        return (_bucket_sum(g, keys, idx.shape, x.data.shape[-1]),)

    return _make(_gather_last(x.data, keys, idx.shape), (x,), backward)


def index_bucket_last(x: Tensor, idx, nbuckets: int) -> Tensor:
    """out[..., i, r] = sum_j x[..., i, j] where idx[i, j] == r.

    The adjoint of index_select_last; used to pool attention weights by
    displacement before mixing in the per-displacement value rows."""
    idx, keys = _flat_index(idx, nbuckets)
    if x.data.shape[-2:] != idx.shape:
        raise ShapeError(f"trailing dims {x.data.shape[-2:]} do not match index {idx.shape}")

    def backward(g):
        return (_gather_last(g, keys, idx.shape),)

    return _make(_bucket_sum(x.data, keys, idx.shape, nbuckets), (x,), backward)


# ------------------------------------------------------------------ backward


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar. Repeated calls accumulate into
    .grad of every reachable tensor with requires_grad until zeroed."""
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
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

    if loss.grad is None:
        loss.grad = np.ones_like(loss.data)
    else:
        loss.grad = loss.grad + np.ones_like(loss.data)

    for node in reversed(topo):
        if node._backward is None or node.grad is None:
            continue
        grads = node._backward(node.grad)
        for parent, g in zip(node._parents, grads):
            if g is None or not parent.requires_grad:
                continue
            if parent.grad is None:
                parent.grad = g if g.dtype == parent.data.dtype else g.astype(parent.data.dtype)
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
            flat = p.data.reshape(-1)
            g = np.empty(flat.shape, dtype=np.float64)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                fp = float(f().data)
                flat[i] = orig - h
                fm = float(f().data)
                flat[i] = orig
                g[i] = (fp - fm) / (2.0 * h)
            grads.append(g.reshape(p.data.shape))
    return grads
