"""Tensor core: op semantics and reverse-mode gradients vs central
finite differences (h=1e-5, 64-bit, rel err <= 1e-4)."""

import importlib.util
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erf as scipy_erf

import ntrr.model as M
import ntrr.tensor as T
import ntrr.training as TR
from ntrr.errors import ConfigError, ContractError, ShapeError
from ntrr.gradcheck import tiny_config
from ntrr.relpos import displacement_index
from ntrr.rng import DualDropoutStreams, Rng
from oracles import (add_select_scale, attend_scores, bucket_sum, gather_last, masked_probs,
                     softmax)

TOL = 1e-4

# oracle constants, high-precision evaluation of each closed form
LN4 = 1.3862943611198906
NEG_LN_06 = 0.5108256237659907
KL_64_55 = 0.020135513550688873  # KL([0.6,0.4] || [0.5,0.5])
KL_55_64 = 0.020410997260127565  # KL([0.5,0.5] || [0.6,0.4])


def rel_err(a, b):
    return np.max(np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b))))


def check_grads(f, params, tol=TOL):
    """Analytic gradient of scalar f() against central differences."""
    T.zero_grads(params)
    T.backward(f())
    fd = T.finite_diff_grad(f, params)
    for p, g in zip(params, fd):
        assert p.grad is not None
        assert rel_err(p.grad, g) <= tol


def rand(rng, shape):
    return T.Tensor(rng.normal(shape), requires_grad=True)


# ------------------------------------------------- reference implementations
# The formulations the fast kernels replaced. In float64 the kernels must
# match them bit for bit, forward and backward.


def ref_select_last(x, idx):
    """index_select_last as an einsum against a (Tq, Tk, R) one-hot
    tensor; also index_bucket_last's backward."""
    onehot = (idx[..., None] == np.arange(x.shape[-1])).astype(x.dtype)
    xn = x.reshape((-1,) + x.shape[-2:])
    return np.einsum("nir,ijr->nij", xn, onehot).reshape(x.shape[:-2] + idx.shape)


def ref_bucket_last(x, idx, nbuckets):
    """index_bucket_last as an einsum against a (Tq, Tk, R) one-hot
    tensor; also index_select_last's backward."""
    onehot = (idx[..., None] == np.arange(nbuckets)).astype(x.dtype)
    xn = x.reshape((-1,) + idx.shape)
    out = np.einsum("nij,ijr->nir", xn, onehot)
    return out.reshape(x.shape[:-2] + (idx.shape[0], nbuckets))


def ref_masked_softmax(s, mask):
    """masked_softmax out of place, one temporary per step."""
    m = np.broadcast_to(np.asarray(mask, dtype=bool), s.shape)
    neg = np.where(m, s, -np.inf)
    rowmax = neg.max(axis=-1, keepdims=True)
    rowmax = np.where(np.isfinite(rowmax), rowmax, 0.0)
    e = np.exp(np.where(m, s - rowmax, -np.inf))
    denom = e.sum(axis=-1, keepdims=True)
    return e / np.where(denom > 0.0, denom, 1.0)


def ref_dropout(x, drop_prob, keep):
    """dropout with the keep-mask cast to a float factor, which backward
    keeps."""
    scale = np.asarray(1.0 / (1.0 - drop_prob), dtype=x.dtype)
    factor = keep.astype(x.dtype) * scale
    return T.Tensor(x.data * factor, requires_grad=True, parents=(x,),
                    backward=lambda g: (g * factor,))


def ref_backward(loss):
    """The sweep that keeps .grad on every reachable tensor, visiting
    nodes in backward()'s order."""
    order, seen, stack = [], set(), [(loss._node, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents if id(p) not in seen)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is None or node.grad is None:
            continue
        for parent, g in zip(node._parents, node._backward(node.grad)):
            if g is not None and parent.requires_grad:
                parent.grad = (g.astype(parent.dtype, copy=False) if parent.grad is None
                               else parent.grad + g)


@st.composite
def displacement_cases(draw):
    """(tq, mem, k, k_eff, kind, seed) for _displacement_case."""
    k = draw(st.integers(1, 12))
    return (draw(st.integers(1, 300)), draw(st.integers(0, 100)), k,
            draw(st.integers(1, k)),
            draw(st.sampled_from(["contiguous", "scattered", "arbitrary"])),
            draw(st.integers(0, 2 ** 32 - 1)))


def _displacement_case(tq, mem, k, k_eff, kind, seed):
    """A (tq, mem + tq) index into 2k+1 buckets and its Rng. Keys come
    after mem memory positions, as in segment recurrence. "scattered"
    spaces positions 0-60 apart, like criterion 2's clip-saturation case,
    so most displacements saturate and inner buckets stay empty;
    "arbitrary" is not a displacement pattern at all."""
    rng = Rng(seed, 8)
    nbuckets = 2 * k + 1
    if kind == "arbitrary":
        idx = (rng.uniform((tq, mem + tq)) * nbuckets).astype(np.int64)
        return idx, nbuckets, rng
    pos_k = np.arange(-mem, tq)
    pos_q = np.arange(tq)
    if kind == "scattered":
        pos_k = np.cumsum((rng.uniform(mem + tq) * 61).astype(np.int64))
        pos_q = np.cumsum((rng.uniform(tq) * 61).astype(np.int64)) + pos_k[0]
    return displacement_index(pos_q, pos_k, k, k_eff), nbuckets, rng


# ------------------------------------------------------------ op semantics


def test_matmul_identity():
    a = T.Tensor(np.eye(2))
    b = T.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(T.matmul(a, b).data, b.data)


def test_matmul_selector_row():
    a = T.Tensor(np.array([[1.0, 0.0], [0.0, 0.0]]))
    b = T.Tensor(np.array([[5.0, 6.0], [7.0, 8.0]]))
    assert np.array_equal(T.matmul(a, b).data, [[5.0, 6.0], [0.0, 0.0]])


def test_matmul_matches_triple_loop():
    rng = Rng(0, 1)
    a, b = rng.normal((3, 4)), rng.normal((4, 2))
    want = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                want[i, j] += a[i, k] * b[k, j]
    got = T.matmul(T.Tensor(a), T.Tensor(b)).data
    assert np.max(np.abs(got - want)) <= 1e-12


def test_matmul_shape_mismatch_names_shapes():
    with pytest.raises(ShapeError) as e:
        T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((4, 2))))
    assert "(2, 3)" in str(e.value) and "(4, 2)" in str(e.value)


def test_softmax_symmetry_and_stability():
    assert np.allclose(softmax(T.Tensor(np.zeros(2))).data, [0.5, 0.5])
    big = softmax(T.Tensor(np.array([1000.0, 1000.0]))).data
    assert np.all(np.isfinite(big)) and np.allclose(big, [0.5, 0.5])


def test_softmax_closed_form():
    got = softmax(T.Tensor(np.array([0.0, np.log(3.0)]))).data
    assert np.allclose(got, [0.25, 0.75], atol=1e-12)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_softmax_rows_normalized_and_shift_invariant(seed):
    rng = Rng(seed, 5)
    x = rng.normal((3, 7)) * 3.0
    s = softmax(T.Tensor(x)).data
    assert np.all(np.abs(s.sum(axis=-1) - 1.0) <= 1e-12)
    shifted = softmax(T.Tensor(x + 17.25)).data
    assert np.max(np.abs(s - shifted)) <= 1e-12


def test_cross_entropy_closed_forms():
    perfect = np.log(np.array([[1.0 - 1e-300, 1e-300]]))
    assert abs(T.cross_entropy(T.Tensor(perfect), [0]).item()) <= 1e-9
    uniform = T.log_softmax(T.Tensor(np.zeros((1, 4))))
    assert abs(T.cross_entropy(uniform, [2]).item() - LN4) <= 1e-12
    lp = T.Tensor(np.log(np.array([[0.6, 0.4]])))
    assert abs(T.cross_entropy(lp, [0]).item() - NEG_LN_06) <= 1e-12


def test_cross_entropy_out_of_range_target():
    lp = T.log_softmax(T.Tensor(np.zeros((1, 3))))
    with pytest.raises(IndexError):
        T.cross_entropy(lp, [3])


def test_kl_zero_on_identical():
    p = T.Tensor(np.array([[0.2, 0.3, 0.5]]))
    assert T.kl_divergence(p, T.Tensor(p.data.copy())).item() == 0.0


def test_kl_oracle_values_and_asymmetry():
    p1 = T.Tensor(np.array([[0.6, 0.4]]))
    p2 = T.Tensor(np.array([[0.5, 0.5]]))
    assert abs(T.kl_divergence(p1, p2).item() - KL_64_55) <= 1e-12
    assert abs(T.kl_divergence(p2, p1).item() - KL_55_64) <= 1e-12
    assert T.kl_divergence(p1, p2).item() != T.kl_divergence(p2, p1).item()


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_kl_nonnegative(seed):
    rng = Rng(seed, 6)
    p = softmax(T.Tensor(rng.normal((4, 5)) * 2)).data
    q = softmax(T.Tensor(rng.normal((4, 5)) * 2)).data
    assert T.kl_divergence(T.Tensor(p), T.Tensor(q)).item() >= -1e-12


def test_dropout_zero_prob_is_identity_object():
    x = T.Tensor(np.ones(5), requires_grad=True)
    assert T.dropout(x, 0.0, Rng(0, 0).uniform(x.shape) >= 0.0) is x


def test_dropout_same_stream_same_mask():
    x = T.Tensor(np.ones((4, 4)))
    a = T.dropout(x, 0.4, Rng(9, 3).uniform(x.shape) >= 0.4).data
    b = T.dropout(x, 0.4, Rng(9, 3).uniform(x.shape) >= 0.4).data
    assert np.array_equal(a, b)


def test_dropout_monte_carlo_mean():
    x = T.Tensor(np.full(100000, 2.5))
    out = T.dropout(x, 0.3, Rng(1, 2).uniform(x.shape) >= 0.3).data
    assert abs(out.mean() - 2.5) / 2.5 <= 0.02


def test_dropout_rejects_bad_prob():
    x = T.Tensor(np.ones(3))
    for bad in (1.0, 1.5, -0.1):
        with pytest.raises(ConfigError):
            T.dropout(x, bad, Rng(0, 0).uniform(x.shape) >= bad)


def test_layer_norm_constant_row_is_zeros():
    x = T.Tensor(np.full((2, 6), 3.7))
    g = T.Tensor(np.ones(6))
    b = T.Tensor(np.zeros(6))
    assert np.max(np.abs(T.layer_norm(x, g, b).data)) <= 1e-9


def ref_layer_norm(x, gain, bias, eps=T._LN_EPS):
    """layer_norm through numpy's x.mean and x.var, backward included."""
    mu = x.data.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(x.data.var(axis=-1, keepdims=True) + eps)
    y = (x.data - mu) * inv
    out = y * gain.data + bias.data

    def backward(g):
        gz = g * gain.data
        gx = inv * (gz - gz.mean(axis=-1, keepdims=True)
                    - y * (gz * y).mean(axis=-1, keepdims=True))
        return (gx, T._sum_to_shape(g * y, gain.data.shape),
                T._sum_to_shape(g, bias.data.shape))

    return T._make(out, (x, gain, bias), backward)


@given(st.lists(st.integers(1, 9), min_size=0, max_size=3), st.integers(1, 300),
       st.sampled_from(["float64", "float32"]), st.floats(-1e3, 1e3), st.integers(0, 2 ** 32 - 1))
@example([2, 5], 8, "float64", 0.0, 0)
@example([8, 256], 64, "float32", 3.0, 1)
@example([3], 1, "float64", 0.0, 2)
@settings(max_examples=60, deadline=None)
def test_layer_norm_matches_mean_and_var(lead, width, dtype, offset, seed):
    """layer_norm's np.add.reduce sums are bitwise x.mean and x.var,
    forward and the three gradients, over random shapes and both dtypes,
    including rows far from zero mean and rows of one element."""
    rng = Rng(seed, 19)
    shape = tuple(lead) + (width,)
    arrays = [(rng.normal(shape) * 2.0 + offset).astype(dtype),
              rng.normal((width,)).astype(dtype), rng.normal((width,)).astype(dtype)]
    g = T.Tensor(rng.normal(shape).astype(dtype))

    def run(op):
        leaves = [T.Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = op(*leaves)
        T.backward(T.tsum(out * g))
        return [out.data] + [leaf.grad for leaf in leaves]

    for a, b in zip(run(T.layer_norm), run(ref_layer_norm)):
        assert a.dtype == np.dtype(dtype) and _bits_equal(a, b)


def test_gelu_zero():
    assert T.gelu(T.Tensor(np.zeros(3))).data.tolist() == [0.0, 0.0, 0.0]


def test_gelu_backward_saves_its_input_only():
    """gelu's closure keeps x, not also the (same-sized) normal CDF, and
    backward rebuilds that CDF bitwise: the gradient is the closed form
    x pdf + phi with phi computed as the forward computes it."""
    x = T.Tensor(Rng(3, 20).normal((5, 7)) * 3.0, requires_grad=True)
    out = T.gelu(x)
    saved = [c.cell_contents for c in out._node._backward.__closure__]
    assert [a is x.data for a in saved if isinstance(a, np.ndarray)] == [True]
    T.backward(T.tsum(out))
    phi = 0.5 * (1.0 + scipy_erf(x.data / np.sqrt(2.0)))
    pdf = np.exp(-0.5 * x.data * x.data) * (1.0 / np.sqrt(2.0 * np.pi))
    assert x.grad.tobytes() == (np.ones_like(phi) * (phi + x.data * pdf)).tobytes()
    assert out.data.tobytes() == (x.data * phi).tobytes()


def test_linear_identity():
    x = T.Tensor(np.arange(6.0).reshape(2, 3))
    out = T.linear(x, T.Tensor(np.eye(3)), T.Tensor(np.zeros(3)))
    assert np.array_equal(out.data, x.data)


def test_masked_softmax_fully_masked_row_is_zeros():
    scores = T.Tensor(np.ones((1, 2, 3)))
    mask = np.array([[[True, True, True], [False, False, False]]])
    out = T.masked_softmax(scores, mask).data
    assert np.all(np.isfinite(out))
    assert np.array_equal(out[0, 1], np.zeros(3))
    assert np.allclose(out[0, 0].sum(), 1.0)


def test_mask_scores_blocks_gradient():
    x = T.Tensor(np.ones((2, 2)), requires_grad=True)
    mask = np.array([[True, False], [True, True]])
    out = T.mask_scores(x, mask)
    assert out.data[0, 1] == -np.inf
    T.backward(T.tsum(T.masked_softmax(out, mask)))
    assert x.grad[0, 1] == 0.0


# --------------------------------------------------------- backward basics


def test_backward_product_rule():
    x = T.Tensor(np.array(2.0), requires_grad=True)
    y = T.Tensor(np.array(3.0), requires_grad=True)
    T.backward(x * y)
    assert x.grad == 3.0 and y.grad == 2.0


def test_backward_softmax_ce_closed_form():
    logits = T.Tensor(np.array([[0.3, -1.2, 0.8]]), requires_grad=True)
    lp = T.log_softmax(logits)
    T.backward(T.cross_entropy(lp, [1]))
    p = np.exp(lp.data)
    want = p.copy()
    want[0, 1] -= 1.0
    assert np.max(np.abs(logits.grad - want)) <= 1e-12


def test_backward_accumulates_until_zeroed():
    x = T.Tensor(np.array(4.0), requires_grad=True)
    T.backward(x * T.Tensor(np.array(2.0)))
    T.backward(x * T.Tensor(np.array(2.0)))
    assert x.grad == 4.0
    T.zero_grads([x])
    assert x.grad == 0.0


def test_second_sweep_over_one_graph_adds_one_gradient():
    x = T.Tensor(np.array(2.0), requires_grad=True)
    loss = T.tsum(x * 3.0)
    T.backward(loss)
    T.backward(loss)
    assert x.grad == 6.0 and loss.grad == 1.0


def _inner_nodes(loss):
    """Every graph node reachable from loss that an op made, loss excluded."""
    nodes, seen, stack = [], {id(loss._node)}, list(loss._node._parents)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return [n for n in nodes if n._backward is not None]


def test_backward_keeps_grads_only_on_leaves_and_loss():
    x = T.Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    w = T.Tensor(np.array([0.5, 1.5, -1.0]), requires_grad=True)

    def loss_fn():
        # x and w reach the loss by two paths each; the sweep runs the add
        # first, which hands one array to both leaves
        return T.tsum((x + w) * 2.0) + T.tsum(x * w)

    loss = loss_fn()
    inner = _inner_nodes(loss)
    T.backward(loss)
    assert len(inner) == 5 and all(n.grad is None for n in inner)
    assert np.array_equal(loss.grad, 1.0)
    assert np.array_equal(x.grad, 2.0 + w.data) and np.array_equal(w.grad, 2.0 + x.data)
    T.backward(loss_fn())  # a fresh graph accumulates into the leaves
    assert np.array_equal(x.grad, 2 * (2.0 + w.data)) and np.array_equal(w.grad, 2 * (2.0 + x.data))

    # an R-Drop step of the gradcheck model: the leaves and the loss get the
    # bits of the sweep that keeps every grad
    config = tiny_config("relative")
    params = M.init_params(config, Rng(4, 0), "float64")
    ids = np.array([[3, 9, 27, 4, 11]] * 2)
    tags = np.array([[0, 1, 2, 3, 0]])
    seen = []
    for sweep in (T.backward, ref_backward):
        T.zero_grads(params.values())
        lp, _ = M.forward_ner(ids, None, config, params, DualDropoutStreams(5, 1))
        loss = TR.rdrop_loss(T.slice_axis(lp, 0, 0, 1), T.slice_axis(lp, 0, 1, 2), tags, 1.0).total
        inner = _inner_nodes(loss)
        sweep(loss)
        seen.append((loss.grad, [p.grad.copy() for p in params.values()],
                     [n.grad is None for n in inner]))
    (loss_grad, grads, released), (ref_loss_grad, ref_grads, ref_released) = seen
    assert np.array_equal(loss_grad, ref_loss_grad)
    assert all(np.array_equal(a, b) for a, b in zip(grads, ref_grads))
    assert all(released) and not any(ref_released)


def test_graph_frees_forward_values_no_closure_saves():
    """The graph links nodes, not tensors. Once the forward drops its
    locals, the q.k^T product (read by no backward) and the scores (read
    by no backward once masked_softmax has its own buffer) are collected
    while the loss still reaches them; the sweep's gradients are the
    bits of the sweep that keeps every grad."""
    idx, nbuckets, rng = _displacement_case(6, 2, 3, 3, "contiguous", 5)
    tq, tk = idx.shape
    mask = rng.uniform((tq, tk)) >= 0.3
    leaves = [T.Tensor(rng.normal(shape), requires_grad=True)
              for shape in ((2, tq, 4), (2, 4, tk), (2, tq, nbuckets), (2, tq, tk))]

    def forward():
        a, b_t, x, w = leaves
        s = T.matmul(a, b_t)
        scores = add_select_scale(s, x, T.BucketIndex(idx, nbuckets), 0.5)
        refs = weakref.ref(s.data), weakref.ref(scores.data)
        return T.tsum(T.masked_softmax(scores, mask) * w), refs

    seen = []
    for sweep in (T.backward, ref_backward):
        T.zero_grads(leaves)
        loss, refs = forward()
        assert all(r() is None for r in refs)
        sweep(loss)
        seen.append([p.grad.copy() for p in leaves])
    assert all(np.array_equal(g, h) for g, h in zip(*seen))


def test_no_backward_closure_saves_a_tensor():
    """Closures save the arrays and shapes they read, so no op's backward
    keeps a Tensor (and with it a forward value) alive."""
    for name, f, _ in _op_cases(Rng(0, 77)):
        loss = f()
        for fn in [loss._node._backward] + [n._backward for n in _inner_nodes(loss)]:
            for cell in fn.__closure__ or ():
                held = cell.cell_contents
                items = held if isinstance(held, (list, tuple)) else (held,)
                assert not any(isinstance(v, T.Tensor) for v in items), (name, fn.__qualname__)


def test_backward_rejects_nonscalar():
    x = T.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ContractError):
        T.backward(x + x)


def test_finite_diff_self_check():
    x = T.Tensor(np.array([1.5, -2.0, 3.0]), requires_grad=True)
    (g,) = T.finite_diff_grad(lambda: T.tsum(x * x), [x])
    assert np.max(np.abs(g - 2 * x.data)) <= 1e-6


@pytest.mark.parametrize("layout", ["fortran", "strided"])
def test_finite_diff_perturbs_any_memory_layout(layout):
    # a reshape of these arrays is a copy, which f would never see
    base = np.arange(1.0, 13.0).reshape(3, 4)
    data = np.asfortranarray(base[:2, :3]) if layout == "fortran" else base[:, ::2]
    a = T.Tensor(data, requires_grad=True)
    before = a.data.copy()
    (g,) = T.finite_diff_grad(lambda: T.tsum(a * a), [a])
    assert np.max(np.abs(g - 2 * before)) <= 1e-6
    assert np.array_equal(a.data, before)


def test_eval_mode_dropout_identity_bitwise():
    x = T.Tensor(Rng(3, 3).normal((4, 5)))
    out = T.dropout(x, 0.0, Rng(0, 0).uniform(x.shape) >= 0.0)
    assert out.data is x.data


# ---------------------------------- per-op finite-difference gradient sweep
# every differentiable op on randomized small shapes, >= 100 seeds


def _op_cases(rng):
    """Build (f, params) pairs exercising each op with fresh tensors."""
    a = rand(rng, (2, 3))
    b = rand(rng, (2, 3))
    m = rand(rng, (3, 4))
    sq = rand(rng, (3, 3))
    batched = rand(rng, (2, 3, 4))
    batched2 = rand(rng, (2, 4, 2))
    rng.normal((2, 3))  # consumed so the cases below keep their seeded inputs
    gain = rand(rng, (4,))
    bias = rand(rng, (4,))
    w = rand(rng, (4, 3))
    x4 = rand(rng, (2, 4))
    table = rand(rng, (5, 3))
    ids = rng.randbelow(5), rng.randbelow(5)
    index2 = T.BucketIndex([[rng.randbelow(3) for _ in range(3)] for _ in range(3)], 3)
    x_last = rand(rng, (2, 3, 3))
    logits = rand(rng, (2, 4))
    targets = [rng.randbelow(4), rng.randbelow(4)]
    mask3 = np.array([[True, True, False], [True, False, True]])
    keep = rng.uniform((2, 3)) >= 0.3
    index34 = T.BucketIndex([[rng.randbelow(5) for _ in range(4)] for _ in range(3)], 5)
    s_last = rand(rng, (2, 3, 4))
    x_wide = rand(rng, (2, 3, 5))
    keep_w = rng.uniform((2, 3)) >= 0.4
    s_att = rand(rng, (2, 3, 4))
    v_att = rand(rng, (2, 4, 2))
    wv_att = rand(rng, (5, 2))
    g_att = T.Tensor(rng.normal((2, 3, 2)))
    mask34 = rng.uniform((3, 4)) >= 0.3
    keep_att = rng.uniform((2, 3, 4)) >= 0.3
    q_att = rand(rng, (2, 3, 2))
    k_att = rand(rng, (2, 4, 2))

    cases = [
        ("add", lambda: T.tsum((a + b) * b), [a, b]),
        ("mul", lambda: T.tsum(a * b * a), [a, b]),
        ("matmul", lambda: T.tsum(T.matmul(a, m) * T.matmul(a, m)), [a, m]),
        ("matmul_batched", lambda: T.tsum(T.matmul(batched, batched2)), [batched, batched2]),
        ("permute", lambda: T.tsum(T.permute(batched, (2, 0, 1)) * 1.5), [batched]),
        ("reshape", lambda: T.tsum(T.matmul(T.reshape(a, (3, 2)), a)), [a]),
        ("tsum_axis", lambda: T.tsum(T.tsum(batched, axis=1) * 2.0), [batched]),
        ("texp", lambda: T.tsum(T.texp(a * 0.3)), [a]),
        ("concat", lambda: T.tsum(T.concat([a, b], axis=0) * T.concat([b, a], axis=0)), [a, b]),
        ("slice", lambda: T.tsum(T.slice_axis(batched, 1, 1, 3)), [batched]),
        ("take", lambda: T.tsum(T.take(table, list(ids), axis=0) * 2.0), [table]),
        ("embedding", lambda: T.tsum(T.embedding(table, [[0, 2], [2, 4]])), [table]),
        ("linear", lambda: T.tsum(T.linear(x4, w)), [x4, w]),
        ("linear_bias", lambda: T.tsum(T.linear(a, T.reshape(m, (3, 4)), gain)), [a, m, gain]),
        ("gelu", lambda: T.tsum(T.gelu(a)), [a]),
        ("layer_norm", lambda: T.tsum(T.layer_norm(x4, gain, bias) * x4), [x4, gain, bias]),
        ("softmax", lambda: T.tsum(softmax(a) * b), [a, b]),
        ("log_softmax", lambda: T.tsum(T.log_softmax(a) * b), [a, b]),
        ("masked_softmax", lambda: T.tsum(T.masked_softmax(a, mask3) * b), [a, b]),
        ("mask_scores", lambda: T.tsum(T.masked_softmax(T.mask_scores(a, mask3), mask3) * b), [a, b]),
        ("dropout", lambda: T.tsum(T.dropout(a, 0.3, keep) * b), [a, b]),
        ("masked_softmax_keep", lambda: T.tsum(T.masked_softmax(a, mask3, keep_w, 0.4) * b),
         [a, b]),
        ("cross_entropy", lambda: T.cross_entropy(T.log_softmax(logits), targets), [logits]),
        ("kl", lambda: T.kl_divergence(softmax(a), softmax(b)), [a, b]),
        ("index_select_last", lambda: T.tsum(T.index_select_last(x_last, index2) * 1.3),
         [x_last]),
        ("index_bucket_last", lambda: T.tsum(T.index_bucket_last(x_last, index2)), [x_last]),
        ("add_select_scale",
         lambda: T.tsum(add_select_scale(s_last, x_wide, index34, 0.7) * s_last),
         [s_last, x_wide]),
        ("attend_scores", lambda: T.tsum(attend_scores(s_att, mask34, v_att) * g_att),
         [s_att, v_att]),
        ("attend", lambda: T.tsum(T.attend(q_att, k_att, mask34, v_att) * g_att),
         [q_att, k_att, v_att]),
        ("attend_keep",
         lambda: T.tsum(T.attend(q_att, k_att, mask34, v_att, keep_att, 0.3) * g_att),
         [q_att, k_att, v_att]),
        ("attend_table",
         lambda: T.tsum(T.attend(q_att, k_att, mask34, v_att, None, 0.0, x_wide, index34,
                                 wv_att) * g_att),
         [q_att, k_att, x_wide, v_att, wv_att]),
        ("attend_table_keep",
         lambda: T.tsum(T.attend(q_att, k_att, mask34, v_att, keep_att, 0.3, x_wide, index34,
                                 wv_att) * g_att),
         [q_att, k_att, x_wide, v_att, wv_att]),
        # a constant copy is deliberately absent: finite differences see
        # through it, so it is checked analytically below
    ]
    return cases


@pytest.mark.parametrize("seed", range(100))
def test_every_op_gradient_matches_finite_differences(seed):
    rng = Rng(seed, 77)
    for name, f, params in _op_cases(rng):
        T.zero_grads(params)
        T.backward(f())
        fd = T.finite_diff_grad(f, params)
        for p, g in zip(params, fd):
            got = p.grad if p.grad is not None else np.zeros_like(p.data)
            err = rel_err(got, g)
            assert err <= TOL, f"op {name} seed {seed}: rel err {err:.2e}"


def test_mul_skips_gradient_of_constant_operand():
    a = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    c = T.Tensor(np.array([3.0, 4.0]))
    ga, gc = (a * c)._node._backward(np.ones(2))
    assert np.array_equal(ga, [3.0, 4.0]) and gc is None
    gc, ga = (c * a)._node._backward(np.ones(2))
    assert gc is None and np.array_equal(ga, [3.0, 4.0])


def test_stop_gradient_blocks():
    x = T.Tensor(np.array(3.0), requires_grad=True)
    T.backward(x * T.Tensor(x.data))
    assert x.grad == 3.0  # only the tracked factor contributes


LEAD = (2, 2)  # (batch, heads)


@given(displacement_cases())
@example((3, 0, 2, 2, "arbitrary", 4))
@example((300, 100, 8, 8, "contiguous", 1))
@example((257, 40, 12, 3, "scattered", 2))
@settings(max_examples=25, deadline=None)
def test_index_select_last_matches_double_loop(case):
    idx, nbuckets, rng = _displacement_case(*case)
    tq, tk = idx.shape
    x = T.Tensor(rng.normal(LEAD + (tq, nbuckets)), requires_grad=True)
    g = rng.normal(LEAD + (tq, tk))
    out = T.index_select_last(x, T.BucketIndex(idx, nbuckets))
    T.backward(T.tsum(out * T.Tensor(g)))
    assert np.array_equal(out.data, ref_select_last(x.data, idx))
    assert np.array_equal(x.grad, ref_bucket_last(g, idx, nbuckets))
    if tq * tk <= 64:
        for n in np.ndindex(LEAD):
            for i in range(tq):
                for j in range(tk):
                    assert out.data[n + (i, j)] == x.data[n + (i, idx[i, j])]


@given(displacement_cases())
@example((3, 0, 1, 1, "arbitrary", 5))
@example((300, 100, 8, 8, "contiguous", 1))
@example((257, 40, 12, 3, "scattered", 2))
@settings(max_examples=25, deadline=None)
def test_index_bucket_last_matches_double_loop(case):
    idx, nbuckets, rng = _displacement_case(*case)
    tq, tk = idx.shape
    x = T.Tensor(rng.normal(LEAD + (tq, tk)), requires_grad=True)
    g = rng.normal(LEAD + (tq, nbuckets))
    out = T.index_bucket_last(x, T.BucketIndex(idx, nbuckets))
    T.backward(T.tsum(out * T.Tensor(g)))
    assert np.array_equal(out.data, ref_bucket_last(x.data, idx, nbuckets))
    assert np.array_equal(x.grad, ref_select_last(g, idx))
    if tq * tk <= 64:
        want = np.zeros(LEAD + (tq, nbuckets))
        for n in np.ndindex(LEAD):
            for i in range(tq):
                for j in range(tk):
                    want[n + (i, idx[i, j])] += x.data[n + (i, j)]
        assert np.max(np.abs(out.data - want)) <= 1e-12


@given(displacement_cases())
@example((300, 100, 8, 8, "contiguous", 1))
@settings(max_examples=10, deadline=None)
def test_displacement_ops_float32(case):
    """float32 in, float32 out. The gather is exact. Bucket sums accumulate
    in float64 and round once, so they equal the float64 sums rounded and
    stay within float32 summation error of the float32 one-hot einsum."""
    idx, nbuckets, rng = _displacement_case(*case)
    tq, tk = idx.shape
    eps = np.finfo(np.float32).eps
    xs = T.Tensor(rng.normal(LEAD + (tq, nbuckets)).astype(np.float32), requires_grad=True)
    xb = T.Tensor(rng.normal(LEAD + (tq, tk)).astype(np.float32), requires_grad=True)
    gs = rng.normal(LEAD + (tq, tk)).astype(np.float32)
    gb = rng.normal(LEAD + (tq, nbuckets)).astype(np.float32)
    index = T.BucketIndex(idx, nbuckets)
    sel = T.index_select_last(xs, index)
    pooled = T.index_bucket_last(xb, index)
    T.backward(T.tsum(sel * T.Tensor(gs)) + T.tsum(pooled * T.Tensor(gb)))
    assert sel.dtype == pooled.dtype == xs.grad.dtype == xb.grad.dtype == np.float32
    assert np.array_equal(sel.data, ref_select_last(xs.data, idx))
    assert np.array_equal(xb.grad, ref_select_last(gb, idx))
    for got, summed in ((pooled.data, xb.data), (xs.grad, gs)):
        exact = ref_bucket_last(summed.astype(np.float64), idx, nbuckets)
        assert np.array_equal(got, exact.astype(np.float32))
        bound = tk * eps * ref_bucket_last(np.abs(summed).astype(np.float64), idx, nbuckets)
        assert np.all(np.abs(got - ref_bucket_last(summed, idx, nbuckets)) <= bound)


@given(displacement_cases(), st.sampled_from([(), (3,), (2, 2)]),
       st.sampled_from(["float64", "float32"]))
@example((1, 0, 1, 1, "contiguous", 0), (), "float64")
@example((1, 90, 3, 2, "contiguous", 1), (), "float64")
@example((1, 90, 3, 2, "contiguous", 1), (), "float32")
@example((5, 12, 4, 2, "contiguous", 3), (2, 2), "float32")
@example((300, 100, 8, 8, "contiguous", 1), (3,), "float64")
@settings(max_examples=40, deadline=None)
def test_far_columns_gather_and_pool_as_take_and_bincount(case, lead, dtype):
    """Split at the index's far columns, the score gather and _bucket_sum
    are byte for byte one take and one bincount per leading row (the
    oracles), in float64 and float32, over leading shapes down to a single
    row, with negative weights, scattered -0.0 and whole rows of -0.0,
    whose far sum is -0.0 where bincount's is +0.0 (a single query row
    sums in order only because of _bucket_sum's spare column). A relative index's far
    columns are the memory columns at or past the clip radius k_eff from
    every query (and, for one query, at least the first column)."""
    idx, nbuckets, rng = _displacement_case(*case)
    tq, mem, _, k_eff, kind, _ = case
    index = T.BucketIndex(idx, nbuckets)
    if kind == "contiguous":
        assert index.far == max(int(tq == 1), mem - k_eff + 1)
    x = rng.normal(lead + idx.shape).astype(dtype)
    x[rng.uniform(x.shape) < 0.1] = -0.0
    blank = rng.uniform(tq) < 0.3
    blank[0] = False  # one row keeps sums that a reordering would change
    x[..., blank, :] = -0.0
    assert T._bucket_sum(x, index, index.far).tobytes() == bucket_sum(x, index).tobytes()
    s0 = rng.normal(lead + idx.shape).astype(dtype)
    pd = rng.normal(lead + (tq, nbuckets)).astype(dtype)
    pd[rng.uniform(pd.shape) < 0.1] = -0.0
    s = s0.copy()
    T._add_gathered(s, pd, index, index.far)
    assert s.tobytes() == (s0 + gather_last(pd, index)).tobytes()


@given(displacement_cases(), st.sampled_from(["float64", "float32"]))
@example((300, 100, 8, 8, "contiguous", 1), "float64")
@example((257, 40, 12, 3, "scattered", 2), "float32")
@settings(max_examples=25, deadline=None)
def test_add_select_scale_matches_three_ops(case, dtype):
    """Bitwise (s + index_select_last(x, idx)) * c, forward and both
    gradients, in float64 and float32."""
    idx, nbuckets, rng = _displacement_case(*case)
    tq, tk = idx.shape
    c = 1.0 / np.sqrt(1 + rng.randbelow(64))
    s0 = rng.normal(LEAD + (tq, tk)).astype(dtype)
    x0 = rng.normal(LEAD + (tq, nbuckets)).astype(dtype)
    g = T.Tensor(rng.normal(LEAD + (tq, tk)).astype(dtype))

    def run(op):
        s = T.Tensor(s0.copy(), requires_grad=True)
        x = T.Tensor(x0.copy(), requires_grad=True)
        out = op(s, x)
        T.backward(T.tsum(out * g))
        return out.data, s.grad, x.grad

    index = T.BucketIndex(idx, nbuckets)
    want = run(lambda s, x: (s + T.index_select_last(x, index)) * c)
    got = run(lambda s, x: add_select_scale(s, x, index, c))
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.dtype(dtype)
        assert np.array_equal(a, b)


def test_add_select_scale_rejects_mismatch():
    s = T.Tensor(np.zeros((2, 3, 4)))
    x = T.Tensor(np.zeros((2, 3, 5)))
    idx = T.BucketIndex(np.zeros((3, 4), dtype=np.int64), 5)
    for bad_s in (np.zeros((2, 3, 5)), np.zeros((3, 3, 4)), np.zeros((3, 4))):
        with pytest.raises(ShapeError):
            add_select_scale(T.Tensor(bad_s), x, idx, 0.5)
    for bad_index in (T.BucketIndex(np.zeros((3, 4)), 6), T.BucketIndex(np.zeros((2, 4)), 5)):
        with pytest.raises(ShapeError):
            add_select_scale(s, x, bad_index, 0.5)
    with pytest.raises(IndexError):
        add_select_scale(s, x, T.BucketIndex(np.full((3, 4), 5), 5), 0.5)


def test_index_select_last_rejects_bad_index():
    x = T.Tensor(np.zeros((2, 3, 5)))
    for bad in (np.zeros(3, dtype=np.int64), np.zeros((1, 3, 4), dtype=np.int64),
                np.zeros((4, 4), dtype=np.int64)):
        with pytest.raises(ShapeError):
            T.index_select_last(x, T.BucketIndex(bad, 5))
    for value in (-1, 5):
        with pytest.raises(IndexError):
            T.index_select_last(x, T.BucketIndex(np.full((3, 4), value), 5))


def test_index_bucket_last_rejects_bad_index():
    x = T.Tensor(np.zeros((2, 3, 4)))
    for bad in (np.zeros(12, dtype=np.int64), np.zeros((1, 3, 4), dtype=np.int64),
                np.zeros((3, 5), dtype=np.int64), np.zeros((4, 4), dtype=np.int64)):
        with pytest.raises(ShapeError):
            T.index_bucket_last(x, T.BucketIndex(bad, 5))
    for value in (-1, 5):
        with pytest.raises(IndexError):
            T.index_bucket_last(x, T.BucketIndex(np.full((3, 4), value), 5))


@given(st.integers(1, 40), st.integers(1, 60), st.integers(0, 2 ** 32 - 1))
@example(1, 1, 0)
@settings(max_examples=60, deadline=None)
def test_masked_softmax_matches_reference(tq, tk, seed):
    """Bitwise the out-of-place formula, forward and backward, with rows
    that are fully masked and masked positions getting zero gradient."""
    rng = Rng(seed, 10)
    scores = T.Tensor(rng.normal(LEAD + (tq, tk)) * 5.0, requires_grad=True)
    mask = rng.uniform((tq, tk)) < rng.uniform()
    mask[rng.uniform(tq) < 0.2] = False
    g = rng.normal(LEAD + (tq, tk))
    out = T.masked_softmax(scores, mask)
    T.backward(T.tsum(out * T.Tensor(g)))
    want = ref_masked_softmax(scores.data, mask)
    assert np.array_equal(out.data, want)
    assert np.array_equal(scores.grad, want * (g - (g * want).sum(axis=-1, keepdims=True)))
    assert np.all(scores.grad[..., ~mask] == 0.0)


def _bits_equal(a, b):
    """Same values, dtype and zero signs."""
    return (a.dtype == b.dtype and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@given(st.integers(1, 12), st.integers(1, 24), st.sampled_from([0.1, 0.15, 0.5]),
       st.sampled_from(["float64", "float32"]), st.integers(0, 2 ** 32 - 1))
@example(1, 1, 0.15, "float64", 0)
@example(7, 9, 0.5, "float32", 3)
@settings(max_examples=60, deadline=None)
def test_masked_softmax_keep_matches_dropout_after_softmax(tq, tk, drop_prob, dtype, seed):
    """masked_softmax(s, m, keep, p) is bitwise dropout(masked_softmax(s, m),
    p, keep) in the float-factor form, forward and backward, with fully
    masked rows, upstream gradients of both signs and a read-only mask."""
    rng = Rng(seed, 12)
    s0 = (rng.normal(LEAD + (tq, tk)) * 5.0).astype(dtype)
    mask = rng.uniform((tq, tk)) < rng.uniform()
    mask[rng.uniform(tq) < 0.2] = False
    keep = rng.uniform(LEAD + (tq, tk)) >= drop_prob
    keep.setflags(write=False)  # as gradcheck's replayed masks come
    g = T.Tensor(rng.normal(LEAD + (tq, tk)).astype(dtype))

    def run(op):
        s = T.Tensor(s0.copy(), requires_grad=True)
        out = op(s)
        T.backward(T.tsum(out * g))
        return out.data, s.grad

    want = run(lambda s: ref_dropout(T.masked_softmax(s, mask), drop_prob, keep))
    got = run(lambda s: T.masked_softmax(s, mask, keep, drop_prob))
    for a, b in zip(got, want):
        assert a.dtype == np.dtype(dtype) and _bits_equal(a, b)
    assert np.all(got[0][~keep] == 0.0)


@given(st.sampled_from([(), (3,), (2, 3)]), st.integers(1, 12), st.integers(0, 12),
       st.booleans(), st.integers(1, 3), st.booleans(), st.sampled_from([None, 0.15, 0.5]),
       st.sampled_from(["float64", "float32"]), st.integers(1, 400), st.integers(0, 2 ** 32 - 1))
@example((2, 3), 1, 0, False, 1, True, 0.15, "float64", 1, 0)
@example((3,), 5, 4, False, 2, True, 0.5, "float32", 30, 3)
@example((2, 3), 6, 3, False, 2, False, None, "float64", 50, 5)
@example((), 7, 2, False, 3, True, None, "float32", 1, 6)
@example((2, 3), 4, 9, True, 2, True, 0.15, "float32", 40, 7)
@example((), 1, 6, True, 3, True, None, "float64", 400, 8)
@settings(max_examples=60, deadline=None)
def test_attend_matches_the_unfused_ops(lead, tq, mem, open_memory, k, table, drop_prob, dtype,
                                        cells, seed):
    """attend(q, k, ...) is bitwise two references: the unfused ops,
    matmul(q, k^T), plus index_select_last(per_disp) with a table, times
    c = 1/sqrt(d), then masked_softmax, weights @ v and, with a table,
    index_bucket_last(weights) @ wv added on; and the ops it replaced,
    (q @ k^T) * c or add_select_scale(q @ k^T, per_disp, index, c) fed to
    the scores-in attend oracle. It checks the output and the gradients
    to q, k, per_disp, v and wv, with and without a keep-mask, in float64
    and float32. Keys follow mem memory positions (Tk > Tq when mem > 0).
    Either the first query row and some others are fully masked, or every
    query admits the memory, as in segment recurrence, and with a table
    the memory columns past the clip radius take attend's far-column
    path. The chunk size is drawn too (ATTEND_CELLS = cells), so most
    cases span several chunks, some of them cut short at the end of an
    axis."""
    rng = Rng(seed, 15)
    tk, d, dv, nb = mem + tq, 4, 3, 2 * k + 1
    idx = displacement_index(np.arange(tq), np.arange(-mem, tq), k)
    index = T.BucketIndex(idx, nb)
    arrays = [(rng.normal(lead + shape) * scale).astype(dtype)
              for shape, scale in (((tq, d), 2.0), ((tk, d), 2.0), ((tq, nb), 2.0),
                                   ((tk, dv), 1.0))]
    wv0 = rng.normal((nb, dv)).astype(dtype)
    mask = (rng.uniform((tq, tk)) < 0.8) & (idx <= k)
    mask[rng.uniform(tq) < 0.2] = False
    mask[0] = False
    if open_memory:
        mask[:, :mem] = True
        assert index.far == max(int(tq == 1), mem - k + 1)
    keep = None if drop_prob is None else rng.uniform(lead + (tq, tk)) >= drop_prob
    g = T.Tensor(rng.normal(lead + (tq, dv)).astype(dtype))
    c, p = 1.0 / np.sqrt(d), drop_prob or 0.0

    def content(q, kk):
        return T.matmul(q, T.permute(kk, tuple(range(len(lead))) + (len(lead) + 1, len(lead))))

    def unfused(q, kk, pd, v, wv):
        s = content(q, kk) if wv is None else content(q, kk) + T.index_select_last(pd, index)
        w = T.masked_softmax(s * c, mask, keep, p)
        out = T.matmul(w, v)
        return out if wv is None else out + T.matmul(T.index_bucket_last(w, index), wv)

    def replaced(q, kk, pd, v, wv):
        if wv is None:
            return attend_scores(content(q, kk) * c, mask, v, keep, p)
        return attend_scores(add_select_scale(content(q, kk), pd, index, c), mask, v, keep, p,
                             index, wv)

    def fused(q, kk, pd, v, wv):
        return T.attend(q, kk, mask, v, keep, p, *(() if wv is None else (pd, index, wv)))

    def run(op):
        leaves = [T.Tensor(a.copy(), requires_grad=True) for a in arrays + [wv0]]
        if not table:
            leaves[2] = leaves[4] = None
        out = op(*leaves)
        T.backward(T.tsum(out * g))
        return [out.data] + [leaf.grad for leaf in leaves if leaf is not None]

    with mock.patch.object(T, "ATTEND_CELLS", cells):
        got = run(fused)
    if not (open_memory and mem):
        assert np.all(got[0][..., 0, :] == 0.0)
    for want in (run(unfused), run(replaced)):
        assert len(got) == len(want) == (6 if table else 4)
        for a, b in zip(got, want):
            assert a.dtype == np.dtype(dtype) and _bits_equal(a, b)


def test_attend_spans_several_chunks_at_the_module_constant():
    """At the real ATTEND_CELLS, a (2, 3, 100, 140) attention runs in four
    chunks, two of them cut short, and stays bitwise the oracle
    composition, relative with a keep-mask, forward and backward."""
    rng = Rng(4, 16)
    lead, tq, tk, d, k = (2, 3), 100, 140, 16, 8
    assert len(T._row_chunks(lead, T.ATTEND_CELLS // (tq * tk))) == 4
    index = T.BucketIndex(displacement_index(np.arange(tq), np.arange(-40, tq), k), 2 * k + 1)
    arrays = [rng.normal(lead + shape) for shape in ((tq, d), (tk, d), (tq, 2 * k + 1), (tk, d))]
    arrays.append(rng.normal((2 * k + 1, d)))
    mask = np.tril(np.ones((tq, tk), dtype=bool), 40)
    keep = rng.uniform(lead + (tq, tk)) >= 0.15
    g = T.Tensor(rng.normal(lead + (tq, d)))

    def run(op):
        leaves = [T.Tensor(a.copy(), requires_grad=True) for a in arrays]
        T.backward(T.tsum(op(*leaves) * g))
        return [leaf.grad for leaf in leaves]

    def composed(q, kk, pd, v, wv):
        s = add_select_scale(T.matmul(q, T.permute(kk, (0, 1, 3, 2))), pd, index, 0.25)
        return attend_scores(s, mask, v, keep, 0.15, index, wv)

    got = run(lambda q, kk, pd, v, wv: T.attend(q, kk, mask, v, keep, 0.15, pd, index, wv))
    for a, b in zip(got, run(composed)):
        assert _bits_equal(a, b)


def test_attend_backward_peak_is_a_few_chunks():
    """One attend backward over 32 chunks (B = 8, H = 4, T = 256, one
    (T, T) matrix per chunk) allocates at most 4 chunk buffers beyond the
    gradients it returns, where the whole (B, H, T, T) softmax is 32: it
    rebuilds one chunk's scores and softmax at a time, and a chunk's
    backward holds three such buffers at once (3.2 measured, 4.3 while a
    chunk's buffers stayed alive into the next one's rebuild)."""
    rng = Rng(5, 17)
    lead, t, d, k = (8, 4), 256, 16, 8
    chunk_bytes = t * t * 8
    assert len(T._row_chunks(lead, T.ATTEND_CELLS // (t * t))) == 32
    index = T.BucketIndex(displacement_index(np.arange(t), np.arange(t), k), 2 * k + 1)
    leaves = [T.Tensor(rng.normal(lead + shape), requires_grad=True)
              for shape in ((t, d), (t, d), (t, 2 * k + 1), (t, d))]
    wv = T.Tensor(rng.normal((2 * k + 1, d)), requires_grad=True)
    q, kk, pd, v = leaves
    keep = rng.uniform(lead + (t, t)) >= 0.15
    out = T.attend(q, kk, np.tril(np.ones((t, t), dtype=bool)), v, keep, 0.15, pd, index, wv)
    g = rng.normal(out.shape)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        grads = out._node._backward(g)
        returned, peak = (n - base for n in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert returned <= sum(a.nbytes for a in grads) + 4096
    assert peak - returned <= 4 * chunk_bytes, (peak - returned) / chunk_bytes


def _inline_chunks(body, chunks):
    """The serial loop that T._run_chunks replaced."""
    for ch in chunks:
        body(ch)


def _chunked_attend_case(lead, path, drop_prob):
    """run(dispatch) gives attend's output and the gradients of q, k, v
    (and per_disp and wv unless absolute) with T._run_chunks replaced by
    dispatch, at an ATTEND_CELLS that puts one (Tq, Tk) matrix in each
    chunk. path is "absolute" (no index), "generic" (a
    relative index whose memory the mask does not open) or "far" (memory
    every query admits, past the clip radius)."""
    rng = Rng(len(lead) * 10 + lead[-1], 18)
    tq, mem, k, d = 6, 9, 2, 4
    tk = tq + mem
    index = T.BucketIndex(displacement_index(np.arange(tq), np.arange(-mem, tq), k), 2 * k + 1)
    mask = np.tril(np.ones((tq, tk), dtype=bool), mem)
    if path == "far":
        assert index.far == mem - k + 1
    else:
        mask[:, :2] = False
    arrays = [rng.normal(lead + shape) for shape in
              ((tq, d), (tk, d), (tq, 2 * k + 1), (tk, d))] + [rng.normal((2 * k + 1, d))]
    keep = None if drop_prob is None else rng.uniform(lead + (tq, tk)) >= drop_prob
    g = T.Tensor(rng.normal(lead + (tq, d)))

    def run(dispatch):
        leaves = [T.Tensor(a.copy(), requires_grad=True) for a in arrays]
        q, kk, pd, v, wv = leaves
        rel = () if path == "absolute" else (pd, index, wv)
        with mock.patch.object(T, "_run_chunks", dispatch), \
                mock.patch.object(T, "ATTEND_CELLS", tq * tk):
            out = T.attend(q, kk, mask, v, keep, drop_prob or 0.0, *rel)
        T.backward(T.tsum(out * g))
        return [out.data] + [leaf.grad for leaf in leaves if leaf.grad is not None]

    return run


@pytest.mark.parametrize("lead", [(1,), (2,), (3,), (8, 4)], ids=["1", "2", "3", "32"])
@pytest.mark.parametrize("path", ["absolute", "generic", "far"])
@pytest.mark.parametrize("drop_prob", [None, 0.15])
def test_attend_threaded_forward_is_bitwise_the_serial_loop(lead, path, drop_prob):
    """The forward's chunks on the caller and the helper thread give the
    bytes of the one-thread loop: the output and every gradient, with the
    interpreter switching threads as often as it can. With two or more
    chunks both threads build scores; with one, only the caller."""
    run = _chunked_attend_case(lead, path, drop_prob)
    assert len(T._row_chunks(lead, 1)) == int(np.prod(lead))
    threads = set()
    probs = T._attend_probs

    def spy(*args, **kwargs):
        threads.add(threading.get_ident())
        return probs(*args, **kwargs)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(T, "_attend_probs", spy):
            got = run(T._run_chunks)
    finally:
        sys.setswitchinterval(interval)
    want = run(_inline_chunks)
    assert len(threads) == (1 if lead == (1,) else 2)
    assert len(got) == len(want) == (4 if path == "absolute" else 6)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_run_chunks_reraises_the_helpers_exception_after_both_halves():
    """A chunk that raises on the helper thread raises in the caller, once
    the caller's half is done; a chunk that raises on the caller waits
    for the helper's half before it propagates."""
    for bad, done_before_raise in ((3, {0, 1, 2}), (0, {2, 3})):
        ran, caller = {}, threading.get_ident()

        def body(ch):
            if ch == bad:
                raise ValueError(f"chunk {ch}")
            ran[ch] = threading.get_ident()

        with pytest.raises(ValueError, match=f"chunk {bad}"):
            T._run_chunks(body, [0, 1, 2, 3])
        assert set(ran) == done_before_raise
        assert all((t == caller) == (ch < 2) for ch, t in ran.items())


def test_attend_starts_at_most_one_helper_thread():
    run = _chunked_attend_case((3,), "far", None)
    before = threading.active_count()
    for _ in range(20):
        run(T._run_chunks)
    assert threading.active_count() - before <= 1


def test_traced_multi_chunk_attend_is_one_span():
    """Under perfbench's tracer, whose span stack is not thread-safe, a
    4-chunk attend records one span, tensor.attend: its chunks call no
    public (traced) function on either thread."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    rng = Rng(6, 19)
    t, d, k = 8, 4, 2
    index = T.BucketIndex(displacement_index(np.arange(t), np.arange(-t, t), k), 2 * k + 1)
    q, pd = rng.normal((4, t, d)), rng.normal((4, t, 2 * k + 1))
    kv, wv = rng.normal((4, 2 * t, d)), rng.normal((2 * k + 1, d))
    tracer = tracer_module.Tracer()
    with mock.patch.object(T, "ATTEND_CELLS", 2 * t * t), tracer.installed():
        assert len(T._row_chunks((4,), 1)) == 4
        T.attend(T.Tensor(q), T.Tensor(kv), True, T.Tensor(kv), None, 0.0,
                 T.Tensor(pd), index, T.Tensor(wv))
    assert [tracer.names[span[0]] for span in tracer.spans] == ["tensor.attend"]


def test_import_pins_blas_to_one_thread_unless_set():
    """import ntrr sets OPENBLAS_NUM_THREADS (and the OpenMP and MKL
    variables) to 1 before numpy loads, and keeps a value already set."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = "import ntrr, os; print(os.environ['OPENBLAS_NUM_THREADS'])"
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = src
    for given, want in ((None, "1"), ("3", "3")):
        run_env = env if given is None else dict(env, OPENBLAS_NUM_THREADS=given)
        out = subprocess.run([sys.executable, "-c", probe], env=run_env, capture_output=True,
                             text=True, timeout=120, check=True).stdout
        assert out == want + "\n"


def test_attend_rejects_mismatched_operands():
    q = T.Tensor(np.zeros((2, 3, 4)), requires_grad=True)
    k = T.Tensor(np.zeros((2, 5, 4)), requires_grad=True)
    v = T.Tensor(np.zeros((2, 5, 2)), requires_grad=True)
    pd = T.Tensor(np.zeros((2, 3, 7)), requires_grad=True)
    wv = T.Tensor(np.zeros((7, 2)), requires_grad=True)
    index = T.BucketIndex(np.zeros((3, 5), dtype=np.int64), 7)
    T.attend(q, k, True, v, None, 0.0, pd, index, wv)  # these fit
    for bad_k, bad_v in ((np.zeros((2, 5, 3)), v.data), (np.zeros((1, 5, 4)), v.data),
                         (k.data, np.zeros((2, 4, 2))), (k.data, np.zeros((3, 5, 2)))):
        with pytest.raises(ShapeError):
            T.attend(q, T.Tensor(bad_k), True, T.Tensor(bad_v))
    for bad_pd, bad_wv, bad_index in (
            (np.zeros((2, 3, 6)), wv.data, index), (pd.data, np.zeros((6, 2)), index),
            (pd.data, np.zeros((7, 3)), index),
            (pd.data, wv.data, T.BucketIndex(np.zeros((3, 4), dtype=np.int64), 7))):
        with pytest.raises(ShapeError):
            T.attend(q, k, True, v, None, 0.0, T.Tensor(bad_pd), bad_index, T.Tensor(bad_wv))


@given(st.integers(1, 40), st.integers(1, 60), st.integers(0, 4),
       st.sampled_from(["float64", "float32"]), st.integers(0, 2 ** 32 - 1))
@example(1, 1, 0, "float64", 0)
@example(5, 9, 0, "float32", 1)
@example(1, 1, 1, "float64", 2)
@example(6, 30, 4, "float32", 3)
@settings(max_examples=60, deadline=None)
def test_softmax_exponentiates_admissible_entries_only(tq, tk, far, dtype, seed):
    """_probs fills masked entries with the row max before exp and zeroes
    them after, so exp never sees -inf. Its p is byte for byte the helper
    that exponentiated -inf (so a -0.0 would show), with fully masked rows
    and masked entries larger than every admissible one, and its row stats
    rebuild the same bytes without the reductions. Told that the first
    far columns are admissible in every row, it works in place on the
    scores and reads the mask only past them, with the same bytes."""
    rng = Rng(seed, 18)
    far = min(far, tk)
    s = (rng.normal(LEAD + (tq, tk)) * 5.0).astype(dtype)
    mask = rng.uniform((tq, tk)) < rng.uniform()
    mask[rng.uniform(tq) < 0.2] = False
    mask[:, :far] = True
    s[..., ~mask] += 50.0
    p, stats = T._probs(s.copy(), mask, far=far)
    rebuilt, _ = T._probs(s.copy(), mask, stats, far)
    want = masked_probs(s, mask)
    for got in (p, rebuilt):
        assert got.dtype == want.dtype == np.dtype(dtype)
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


@given(st.integers(1, 200), st.sampled_from([0.1, 0.15, 0.5]),
       st.sampled_from(["float64", "float32"]), st.integers(0, 2 ** 32 - 1))
@example(64, 0.15, "float64", 0)
@settings(max_examples=60, deadline=None)
def test_dropout_keep_mask_matches_float_factor(n, drop_prob, dtype, seed):
    """The boolean-mask dropout is bitwise the float-factor form, forward and
    backward; a dropped position keeps the sign of its input and of its
    upstream gradient as a signed zero."""
    rng = Rng(seed, 13)
    x0 = rng.normal((3, n)).astype(dtype)
    keep = rng.uniform((3, n)) >= drop_prob
    keep.setflags(write=False)
    g = T.Tensor(rng.normal((3, n)).astype(dtype))

    def run(op):
        x = T.Tensor(x0.copy(), requires_grad=True)
        out = op(x)
        T.backward(T.tsum(out * g))
        return out.data, x.grad

    want = run(lambda x: ref_dropout(x, drop_prob, keep))
    got = run(lambda x: T.dropout(x, drop_prob, keep))
    for a, b in zip(got, want):
        assert a.dtype == np.dtype(dtype) and _bits_equal(a, b)
    out, grad = got
    assert np.array_equal(np.signbit(out[~keep]), np.signbit(x0[~keep]))
    assert np.array_equal(np.signbit(grad[~keep]), np.signbit(g.data[~keep]))
