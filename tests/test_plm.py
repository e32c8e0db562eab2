"""Permutation LM: order sampling, visibility masks vs brute-force
precedence enumeration, target selection, and the no-leakage property
of the two-stream layer."""

import itertools

import numpy as np
import pytest

import ntrr.model as M
import ntrr.tensor as T
from ntrr.errors import ContractError
from ntrr.plm import (extend_mask_for_memory, make_plan, plm_loss,
                      sample_permutation, target_count, two_stream_layer)
from ntrr.relpos import block_forward, relative_index
from ntrr.rng import Rng


def masks(order):
    """make_plan(order)'s query and content masks."""
    plan = make_plan(order)
    return plan.query_mask, plan.content_mask


def mask_oracle(order):
    """Precedence enumeration: token j is visible to token i's query
    stream iff j comes strictly earlier in the order."""
    n = len(order)
    pos_in_order = {tok: t for t, tok in enumerate(order)}
    q = np.zeros((n, n), dtype=bool)
    c = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            q[i, j] = pos_in_order[j] < pos_in_order[i]
            c[i, j] = pos_in_order[j] <= pos_in_order[i]
    return q, c


# ------------------------------------------------------------------ targets


def test_target_count_examples():
    assert target_count(20) == 3
    assert target_count(1) == 1
    assert target_count(7) == 2  # ceil(1.05)
    assert target_count(100) == 15


def test_targets_are_order_tail():
    plan = make_plan([4, 0, 3, 1, 2])  # n=5 -> 1 target
    assert plan.targets.tolist() == [2]  # last in the order
    plan = make_plan(list(range(20)))
    assert plan.targets.tolist() == [17, 18, 19]


# -------------------------------------------------------------------- masks


def test_identity_order_gives_causal_masks():
    q, c = masks(range(5))
    assert np.array_equal(q, np.tril(np.ones((5, 5), dtype=bool), -1))
    assert np.array_equal(c, np.tril(np.ones((5, 5), dtype=bool)))


def test_single_token_masks():
    q, c = masks([0])
    assert q.tolist() == [[False]]
    assert c.tolist() == [[True]]


def test_figure_order_3241():
    # order (3,2,4,1) in 1-based notation = (2,1,3,0) 0-based:
    # token 0 (last in order) sees {2,1,3}; token 2 (first) sees nothing
    plan = make_plan([2, 1, 3, 0])
    q = plan.query_mask
    assert set(np.nonzero(q[0])[0].tolist()) == {1, 2, 3}
    assert set(np.nonzero(q[1])[0].tolist()) == {2}
    assert set(np.nonzero(q[2])[0].tolist()) == set()
    assert set(np.nonzero(q[3])[0].tolist()) == {1, 2}
    # content stream adds self everywhere
    assert np.array_equal(plan.content_mask, q | np.eye(4, dtype=bool))


def test_content_mask_is_query_mask_plus_identity():
    rng = Rng(0, 0)
    for i in range(50):
        n = 1 + rng.derive(i).randbelow(10)
        plan = sample_permutation(n, rng.derive(1000 + i))
        assert np.array_equal(plan.content_mask,
                              plan.query_mask | np.eye(n, dtype=bool))


def test_masks_match_enumeration_all_orders_n4():
    for order in itertools.permutations(range(4)):
        q, c = masks(order)
        wq, wc = mask_oracle(order)
        assert np.array_equal(q, wq) and np.array_equal(c, wc), order


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6])
def test_masks_match_enumeration_up_to_n6(n):
    for order in itertools.permutations(range(n)):
        q, c = masks(order)
        wq, wc = mask_oracle(order)
        assert np.array_equal(q, wq) and np.array_equal(c, wc), order


def test_make_plan_rejects_non_permutation():
    with pytest.raises(ContractError):
        make_plan([0, 0, 2])
    with pytest.raises(ContractError):
        make_plan([])


def test_extend_mask_for_memory():
    q, _ = masks([1, 0])
    ext = extend_mask_for_memory(q, 3)
    assert ext.shape == (2, 5)
    assert np.all(ext[:, :3])
    assert np.array_equal(ext[:, 3:], q)
    assert extend_mask_for_memory(q, 0) is q


def test_target_coverage_frequency():
    # each position lands in targets with prob |targets|/n over orders
    n, trials = 8, 4000
    t = target_count(n)
    counts = np.zeros(n)
    rng = Rng(13, 0)
    for i in range(trials):
        counts[sample_permutation(n, rng.derive(i)).targets] += 1
    p = t / n
    sigma = np.sqrt(trials * p * (1 - p))
    assert np.all(np.abs(counts - trials * p) <= 3 * sigma)


def test_sampled_orders_are_permutations():
    rng = Rng(14, 0)
    for i in range(100):
        n = 1 + rng.derive(i).randbelow(12)
        plan = sample_permutation(n, rng.derive(500 + i))
        assert sorted(plan.order.tolist()) == list(range(n))
        assert np.array_equal(plan.order[plan.rank], np.arange(n))


# ---------------------------------------------------------------- two-stream


def tiny_two_stream(seed=0, n=5, pe_mode="relative"):
    mc = M.ModelConfig(vocab_size=30, model_dim=8, ffn_dim=8, xlnet_layers=1,
                       transformer_layers=0, num_heads=2, clip_k=2,
                       pe_mode=pe_mode, entity_types=("PER",), dropout=0.0)
    params = M.init_params(mc, Rng.for_stream(seed, "init"), "float64")
    r = Rng(seed, 9)
    ids = np.array([[2 + r.randbelow(28) for _ in range(n)]])
    return mc, params, ids


def test_identity_order_h_stream_equals_causal_attention():
    # h-stream under identity order uses the causal self-inclusive mask;
    # the fine-tune encoder path uses exactly that mask
    mc, params, ids = tiny_two_stream()
    emb = T.embedding(params["embed"], ids)
    n = ids.shape[1]
    block = M.block_params(params, "xl.0.")
    table = M.rel_table(params, "xl", mc)
    index = relative_index(range(n), range(n), mc.clip_k)
    causal = np.tril(np.ones((n, n), dtype=bool))
    (hidden,) = block_forward((emb,), (causal,), None, block, mc, table, index)
    assert np.all(np.isfinite(hidden.data))
    # reconstruct: run the two-stream layer by hand with causal masks
    q, c = masks(range(n))
    g0 = T.Tensor(np.broadcast_to(params["w_init"].data, emb.data.shape).copy())
    h1, g1 = two_stream_layer(emb, g0, q, c, block, mc, table, index)
    assert np.max(np.abs(h1.data - hidden.data)) <= 1e-12


def test_no_leakage_gradient_probe_bulk():
    # d g_i / d e(x_i) == 0 for every i, on 100 random (order, seed) cases
    rng = Rng(21, 0)
    probes = 0
    for case in range(100):
        r = rng.derive(case)
        n = 2 + r.randbelow(5)
        seed = r.randbelow(10 ** 6)
        mc, params, ids = tiny_two_stream(seed=seed, n=n)
        plan = sample_permutation(n, r.derive(1))
        block = M.block_params(params, "xl.0.")
        table = M.rel_table(params, "xl", mc)
        for i in range(n):
            tok = ids[0, i]
            # the embedding row of token i gets gradient via other
            # positions holding the same token id; only unique ids probe
            if any(ids[0, j] == tok for j in range(n) if j != i):
                continue
            # one fresh graph per probe
            emb = T.embedding(params["embed"], ids)
            g0 = T.Tensor(np.broadcast_to(params["w_init"].data,
                                          emb.data.shape).copy())
            _, g1 = two_stream_layer(emb, g0, plan.query_mask, plan.content_mask,
                                     block, mc, table,
                                     relative_index(range(n), range(n), mc.clip_k))
            T.zero_grads([params["embed"]])
            T.backward(T.tsum(T.slice_axis(g1, 1, i, i + 1)))
            assert np.max(np.abs(params["embed"].grad[tok])) == 0.0, (case, i)
            probes += 1
    assert probes > 100  # the sweep must actually exercise the property


def test_self_visibility_h_stream():
    # content stream must see its own embedding
    mc, params, ids = tiny_two_stream(seed=3, n=4)
    plan = sample_permutation(4, Rng(5, 5))
    emb = T.embedding(params["embed"], ids)
    block = M.block_params(params, "xl.0.")
    table = M.rel_table(params, "xl", mc)
    g0 = T.Tensor(np.broadcast_to(params["w_init"].data, emb.data.shape).copy())
    h1, _ = two_stream_layer(emb, g0, plan.query_mask, plan.content_mask,
                             block, mc, table,
                             relative_index(range(4), range(4), mc.clip_k))
    i = int(plan.order[0])  # first in order: h_i sees only itself
    T.zero_grads([params["embed"]])
    T.backward(T.tsum(T.slice_axis(h1, 1, i, i + 1)))
    assert np.max(np.abs(params["embed"].grad[ids[0, i]])) > 0.0


def test_plm_loss_uniform_head_is_log_vocab():
    g = T.Tensor(Rng(1, 1).normal((1, 5, 8)))
    w = T.Tensor(np.zeros((8, 30)))
    b = T.Tensor(np.zeros(30))
    ids = np.full((1, 5), 7)
    loss = plm_loss(g, [3, 4], ids, w, b)
    assert abs(loss.item() - np.log(30)) <= 1e-12


def test_plm_loss_rejects_empty_targets():
    g = T.Tensor(np.zeros((1, 4, 8)))
    with pytest.raises(ContractError):
        plm_loss(g, [], np.zeros((1, 4), dtype=int),
                 T.Tensor(np.zeros((8, 5))), T.Tensor(np.zeros(5)))


def test_pretrain_loss_near_log_vocab_at_init():
    mc, params, ids = tiny_two_stream(seed=11, n=8)
    plan = sample_permutation(8, Rng(2, 2))
    loss, _ = M.pretrain_forward(ids, plan, None, mc, params)
    assert abs(loss.item() - np.log(mc.vocab_size)) <= 0.1 * np.log(mc.vocab_size)


def test_no_leakage_through_full_stack():
    # two xl layers: still no path from e(x_i) to g_i
    mc = M.ModelConfig(vocab_size=40, model_dim=8, ffn_dim=8, xlnet_layers=2,
                       transformer_layers=0, num_heads=2, clip_k=2,
                       entity_types=("PER",), dropout=0.0)
    params = M.init_params(mc, Rng.for_stream(5, "init"), "float64")
    n = 6
    ids = np.arange(2, 2 + n)[None, :]  # all distinct tokens
    plan = sample_permutation(n, Rng(3, 3))
    i = int(plan.order[-1])  # a predicted position
    emb = T.embedding(params["embed"], ids)
    g = T.Tensor(np.broadcast_to(params["w_init"].data, emb.data.shape).copy())
    h = emb
    for layer in range(mc.xlnet_layers):
        block = M.block_params(params, f"xl.{layer}.")
        table = M.rel_table(params, "xl", mc)
        h, g = two_stream_layer(h, g, plan.query_mask, plan.content_mask,
                                block, mc, table,
                                relative_index(range(n), range(n), mc.clip_k))
    T.zero_grads([params["embed"]])
    T.backward(T.tsum(T.slice_axis(g, 1, i, i + 1)))
    assert np.max(np.abs(params["embed"].grad[ids[0, i]])) == 0.0
