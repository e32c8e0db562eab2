"""Relative-position attention: clipping, displacement tables, score
and value corrections, and the diagnostic reductions to vanilla
attention."""

import numpy as np
import pytest

import ntrr.tensor as T
from ntrr.errors import ConfigError, ContractError
from ntrr.model import ModelConfig
from ntrr.relpos import (AttentionParams, RelPosTable,
                         displacement_index, multi_head_attention,
                         rel_attention_scores, rel_attention_values,
                         relative_index, sinusoidal_pe)
from ntrr.rng import Rng
from oracles import clip_rel, softmax


def make_params(rng, d):
    def w():
        return T.Tensor(rng.normal((d, d)) * 0.3, requires_grad=True)

    def b():
        return T.Tensor(np.zeros(d), requires_grad=True)

    return AttentionParams(wq=w(), bq=b(), wk=w(), bk=b(),
                           wv=w(), bv=b(), wo=w(), bo=b())


def make_table(rng, k, head_dim, zero=False):
    shape = (2 * k + 1, head_dim)
    arr = np.zeros(shape) if zero else rng.normal(shape) * 0.3
    return RelPosTable(T.Tensor(arr.copy(), requires_grad=True),
                       T.Tensor(arr[::-1].copy() if not zero else np.zeros(shape),
                                requires_grad=True))


# ----------------------------------------------------------------- clipping


def test_clip_rel_examples():
    assert clip_rel(3, 2) == 2
    assert clip_rel(-5, 2) == -2
    assert clip_rel(0, 15) == 0


def test_displacement_index_rows():
    idx = displacement_index([0, 1, 2], [0, 1, 2], k=2)
    # row i, col l holds clip(l - i, 2) + 2
    want = np.array([[2, 3, 4], [1, 2, 3], [0, 1, 2]])
    assert np.array_equal(idx, want)


def test_displacement_index_k_eff_narrows():
    idx = displacement_index([0], [0, 1, 2, 3], k=3, k_eff=1)
    assert idx.tolist() == [[3, 4, 4, 4]]
    with pytest.raises(ContractError):
        displacement_index([0], [0], k=3, k_eff=4)


# --------------------------------------------------------------- sinusoidal


def test_sinusoidal_position_zero():
    pe = sinusoidal_pe([0], 8)
    assert np.array_equal(pe[0], np.array([0.0, 1.0] * 4))


def test_sinusoidal_bounded_and_pure():
    a = sinusoidal_pe(range(50), 16)
    assert np.all(np.abs(a) <= 1.0)
    assert np.array_equal(a, sinusoidal_pe(range(50), 16))


def test_sinusoidal_rejects_odd_dim():
    with pytest.raises(ConfigError):
        sinusoidal_pe([0], 7)


# ------------------------------------------------------------------- scores


def test_zero_table_scores_equal_vanilla():
    rng = Rng(1, 0)
    q = T.Tensor(rng.normal((1, 1, 3, 4)))
    k = T.Tensor(rng.normal((1, 1, 5, 4)))
    table = make_table(rng, 2, 4, zero=True)
    pos_q, pos_k = [2, 3, 4], [0, 1, 2, 3, 4]
    with_table = rel_attention_scores(q, k, table, relative_index(pos_q, pos_k, 2)).data
    vanilla = rel_attention_scores(q, k, None).data
    assert np.max(np.abs(with_table - vanilla)) <= 1e-12


def test_two_token_scores_match_hand_expansion():
    # length 2, head_dim 2, hand-set values
    q = np.array([[1.0, 2.0], [0.5, -1.0]])
    k = np.array([[0.0, 1.0], [2.0, 0.5]])
    wk = np.array([[0.1, 0.2],    # displacement -1
                   [0.0, 0.0],    # displacement 0
                   [-0.3, 0.4]])  # displacement +1
    table = RelPosTable(T.Tensor(wk.copy()), T.Tensor(np.zeros_like(wk)))
    got = rel_attention_scores(T.Tensor(q[None]), T.Tensor(k[None]), table,
                               relative_index([0, 1], [0, 1], 1)).data[0]
    scale = 1.0 / np.sqrt(2.0)
    for i in range(2):
        for l in range(2):
            row = wk[clip_rel(l - i, 1) + 1]
            want = (q[i] @ k[l] + q[i] @ row) * scale
            assert abs(got[i, l] - want) <= 1e-12


def test_scores_scale_the_summed_terms_at_head_dim_6():
    # 1/sqrt(6) is inexact, so scaling q, or each term apart, moves bits
    rng = Rng(6, 0)
    q = T.Tensor(rng.normal((2, 2, 4, 6)), requires_grad=True)
    k = T.Tensor(rng.normal((2, 2, 7, 6)), requires_grad=True)
    table = make_table(rng, 2, 6)
    cotangent = T.Tensor(rng.normal((2, 2, 4, 7)))
    idx = relative_index([3, 4, 5, 6], range(7), 2)

    def by_definition():
        qk = T.matmul(q, T.permute(k, (0, 1, 3, 2)))
        per_disp = T.matmul(q, T.permute(table.wk, (1, 0)))
        return (qk + T.index_select_last(per_disp, idx)) * (1.0 / np.sqrt(6))

    seen = []
    for scores in (lambda: rel_attention_scores(q, k, table, idx), by_definition):
        T.zero_grads([q, k, table.wk])
        out = scores()
        T.backward(T.tsum(out * cotangent))
        seen.append([out.data, q.grad.copy(), k.grad.copy(), table.wk.grad.copy()])
    for a, b in zip(*seen):
        assert np.array_equal(a, b)


def test_translation_invariance_bitwise():
    rng = Rng(2, 0)
    q = T.Tensor(rng.normal((1, 2, 4, 3)))
    k = T.Tensor(rng.normal((1, 2, 6, 3)))
    v = T.Tensor(rng.normal((1, 2, 6, 3)))
    table = make_table(rng, 3, 3)
    for shift in (0, 5, 1000):
        pos_q = [p + shift for p in (2, 3, 4, 5)]
        pos_k = [p + shift for p in range(6)]
        s = rel_attention_scores(q, k, table, relative_index(pos_q, pos_k, 3)).data
        w = softmax(T.Tensor(s)).data
        o = rel_attention_values(T.Tensor(w), v, table, relative_index(pos_q, pos_k, 3)).data
        if shift == 0:
            base_s, base_o = s, o
        else:
            assert np.array_equal(s, base_s)
            assert np.array_equal(o, base_o)


def test_clip_saturation_uses_only_edge_rows():
    rng = Rng(3, 0)
    q = T.Tensor(rng.normal((1, 1, 2, 3)))
    k = T.Tensor(rng.normal((1, 1, 2, 3)))
    wk = rng.normal((5, 3))  # k = 2
    # all displacements beyond the radius: |pos_k - pos_q| >= 10
    pos_q, pos_k = [0, 100], [50, 60]
    def scores_with(rows):
        t = RelPosTable(T.Tensor(rows), T.Tensor(np.zeros_like(rows)))
        return rel_attention_scores(q, k, t, relative_index(pos_q, pos_k, 2)).data
    base = scores_with(wk)
    inner_changed = wk.copy()
    inner_changed[1:4] += 100.0  # rows for displacements -1, 0, +1
    assert np.array_equal(scores_with(inner_changed), base)
    edge_changed = wk.copy()
    edge_changed[0] += 1.0
    assert not np.array_equal(scores_with(edge_changed), base)


def test_four_term_decomposition_absolute_mode():
    # unscaled QK^T with inputs e + p splits into exactly four terms
    rng = Rng(4, 0)
    d = 6
    e = rng.normal((3, d))
    p = sinusoidal_pe(range(3), d)
    wq = rng.normal((d, d)) * 0.3
    wk = rng.normal((d, d)) * 0.3
    full = ((e + p) @ wq) @ ((e + p) @ wk).T
    terms = ((e @ wq) @ (e @ wk).T + (e @ wq) @ (p @ wk).T
             + (p @ wq) @ (e @ wk).T + (p @ wq) @ (p @ wk).T)
    assert np.max(np.abs(full - terms)) <= 1e-10


# ------------------------------------------------------------------- values


def test_zero_value_table_is_plain_mix():
    rng = Rng(5, 0)
    attn = softmax(T.Tensor(rng.normal((1, 1, 3, 4)))).data
    v = rng.normal((1, 1, 4, 3))
    table = make_table(rng, 2, 3, zero=True)
    got = rel_attention_values(T.Tensor(attn), T.Tensor(v), table,
                               relative_index([0, 1, 2], [0, 1, 2, 3], 2)).data
    assert np.max(np.abs(got - attn @ v)) <= 1e-12


def test_one_hot_weights_select_value_plus_row():
    rng = Rng(6, 0)
    v = rng.normal((1, 1, 4, 3))
    wv = rng.normal((5, 3))
    table = RelPosTable(T.Tensor(np.zeros_like(wv)), T.Tensor(wv))
    attn = np.zeros((1, 1, 2, 4))
    attn[0, 0, 0, 3] = 1.0  # query 0 attends key 3 only
    attn[0, 0, 1, 0] = 1.0  # query 1 attends key 0 only
    got = rel_attention_values(T.Tensor(attn), T.Tensor(v), table,
                               relative_index([0, 1], [0, 1, 2, 3], 2)).data[0, 0]
    assert np.allclose(got[0], v[0, 0, 3] + wv[clip_rel(3 - 0, 2) + 2], atol=1e-12)
    assert np.allclose(got[1], v[0, 0, 0] + wv[clip_rel(0 - 1, 2) + 2], atol=1e-12)


def test_values_match_double_loop():
    rng = Rng(7, 0)
    tq, tk, hd, kk = 3, 5, 2, 2
    attn = softmax(T.Tensor(rng.normal((1, 1, tq, tk)))).data
    v = rng.normal((1, 1, tk, hd))
    wv = rng.normal((2 * kk + 1, hd))
    table = RelPosTable(T.Tensor(np.zeros_like(wv)), T.Tensor(wv))
    pos_q, pos_k = [2, 3, 4], [0, 1, 2, 3, 4]
    got = rel_attention_values(T.Tensor(attn), T.Tensor(v), table,
                               relative_index(pos_q, pos_k, kk)).data
    want = np.zeros((tq, hd))
    for i in range(tq):
        for l in range(tk):
            row = wv[clip_rel(pos_k[l] - pos_q[i], kk) + kk]
            want[i] += attn[0, 0, i, l] * (v[0, 0, l] + row)
    assert np.max(np.abs(got[0, 0] - want)) <= 1e-12


# --------------------------------------------------------------- full layer


def test_relative_zero_tables_equals_absolute_layer():
    rng = Rng(8, 0)
    d = 8
    x = T.Tensor(rng.normal((2, 5, d)))
    params = make_params(rng.derive(1), d)
    pos = list(range(5))
    cfg = ModelConfig(model_dim=d, num_heads=2, clip_k=2)
    table = make_table(rng, 2, d // 2, zero=True)
    a = multi_head_attention(x, x, cfg, params, None, table,
                             relative_index(pos, pos, 2)).data
    b = multi_head_attention(x, x, cfg, params, None).data
    assert np.max(np.abs(a - b)) <= 1e-12


def test_fully_masked_query_row_outputs_zero():
    rng = Rng(9, 0)
    d = 4
    x = T.Tensor(rng.normal((1, 3, d)))
    params = make_params(rng.derive(1), d)
    for b in (params.bq, params.bk, params.bv, params.bo):
        b.data[:] = 0.0
    mask = np.ones((3, 3), dtype=bool)
    mask[1, :] = False
    cfg = ModelConfig(model_dim=d, num_heads=2, clip_k=2)
    table = make_table(rng, 2, d // 2)
    out = multi_head_attention(x, x, cfg, params, mask, table,
                               relative_index(range(3), range(3), 2)).data
    assert np.all(np.isfinite(out))
    assert np.max(np.abs(out[0, 1])) <= 1e-15


def test_relative_mode_requires_table():
    rng = Rng(10, 0)
    x = T.Tensor(rng.normal((1, 2, 4)))
    cfg = ModelConfig(model_dim=4, num_heads=2, clip_k=2)
    with pytest.raises(ContractError):
        multi_head_attention(x, x, cfg, make_params(rng, 4), None, None,
                             relative_index([0, 1], [0, 1], 2))
    with pytest.raises(ContractError):
        multi_head_attention(x, x, cfg, make_params(rng, 4), None, make_table(rng, 2, 2))


def test_attention_gradients_match_finite_differences():
    rng = Rng(11, 0)
    d = 4
    x = T.Tensor(rng.normal((1, 3, d)), requires_grad=True)
    params = make_params(rng.derive(1), d)
    table = make_table(rng.derive(2), 2, d // 2)
    cfg = ModelConfig(model_dim=d, num_heads=2, clip_k=2)
    mask = np.tril(np.ones((3, 3), dtype=bool))
    tensors = [x, params.wq, params.wk, params.wv, params.wo,
               table.wk, table.wv]

    def f():
        out = multi_head_attention(x, x, cfg, params, mask, table,
                                   relative_index(range(3), range(3), 2))
        return T.tsum(out * out)

    T.zero_grads(tensors)
    T.backward(f())
    fd = T.finite_diff_grad(f, tensors)
    for p, g in zip(tensors, fd):
        err = np.max(np.abs(p.grad - g) / np.maximum(1.0, np.abs(g)))
        assert err <= 1e-4
