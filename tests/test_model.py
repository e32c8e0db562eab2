"""Model assembly: segment recurrence, memory gradient isolation,
parameter accounting, decoding, and full-model gradient checks."""

import itertools

import numpy as np
import pytest

import ntrr.model as M
import ntrr.relpos as relpos
import ntrr.tensor as T
from ntrr.errors import ConfigError, ContractError
from ntrr.plm import extend_mask_for_memory, plm_loss, sample_permutation
from ntrr.rng import DualDropoutStreams, Rng
from ntrr.tagging import LabelSet, legal_transitions, validate_bmes
from oracles import softmax, tmean, window

TYPES = ("LOC", "ORG", "PER")


def small_config(**kw):
    base = dict(vocab_size=30, model_dim=16, ffn_dim=16, xlnet_layers=2,
                transformer_layers=2, num_heads=2, clip_k=4,
                entity_types=TYPES, dropout=0.0)
    base.update(kw)
    return M.ModelConfig(**base)


def random_ids(seed, n, vocab=30, batch=1):
    r = Rng(seed, 99)
    return np.array([[2 + r.randbelow(vocab - 2) for _ in range(n)]
                     for _ in range(batch)])


# --------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(model_dim=10, num_heads=3)
    with pytest.raises(ConfigError):
        small_config(clip_k=0)
    with pytest.raises(ConfigError):
        small_config(pe_mode="sideways")
    with pytest.raises(ConfigError):
        small_config(dropout=1.0)


@pytest.mark.parametrize("name", ["A#B", "A,B"])
def test_config_rejects_type_names_a_checkpoint_cannot_carry(name):
    # the checkpoint's config block would read them back as "A" and "A", "B"
    with pytest.raises(ConfigError, match="bad entity type name"):
        M.ModelConfig(entity_types=(name,))


def test_param_count_matches_registry():
    for kw in (dict(), dict(transformer_layers=0), dict(clip_k=1),
               dict(model_dim=32, num_heads=4, ffn_dim=48),
               dict(xlnet_layers=3, transformer_layers=1)):
        mc = small_config(**kw)
        params = M.init_params(mc, Rng.for_stream(0, "init"), "float64")
        total = sum(p.data.size for p in params.values())
        assert total == M.param_count(mc), kw


def test_init_is_order_independent_per_name():
    mc = small_config()
    a = M.init_params(mc, Rng.for_stream(7, "init"), "float64")
    b = M.init_params(mc, Rng.for_stream(7, "init"), "float64")
    for name in a:
        assert np.array_equal(a[name].data, b[name].data)


def test_float32_params():
    mc = small_config()
    params = M.init_params(mc, Rng.for_stream(0, "init"), "float32")
    assert all(p.data.dtype == np.float32 for p in params.values())


# ---------------------------------------------------------- segment memory


@pytest.mark.parametrize("model", ["forward_ner", "pretrain_forward"])
def test_forward_memory_is_each_blocks_whole_join(model, monkeypatch):
    # layer i of a forward's memory is block i's [memory ; input], all of it,
    # as a read-only view of the forward's own arrays
    inputs, real = [], relpos.block_forward

    def recorded(xs, *args):
        inputs.append(xs[0].data)
        return real(xs, *args)

    monkeypatch.setattr(relpos, "block_forward", recorded)
    mc = small_config()
    params = M.init_params(mc, Rng.for_stream(1, "init"), "float64")
    ids = random_ids(1, 9, batch=2)
    memory = None
    for a, b in ((0, 4), (4, 9)):
        inputs.clear()
        if model == "forward_ner":
            _, new = M.forward_ner(ids[:, a:b], memory, mc, params)
        else:
            plan = sample_permutation(b - a, Rng(2, a))
            _, new = M.pretrain_forward(ids[:, a:b], plan, memory, mc, params)
        n_blocks = mc.num_layers if model == "forward_ner" else mc.xlnet_layers
        assert new.offset == b and len(new.layers) == len(inputs) == n_blocks
        for i, (layer, x) in enumerate(zip(new.layers, inputs)):
            assert layer.shape == (2, b, mc.model_dim)  # (B, M + T, D)
            if memory is None:
                assert np.shares_memory(layer, x) and np.array_equal(layer, x)
            else:
                assert np.array_equal(layer, np.concatenate([memory.layers[i], x], axis=1))
            with pytest.raises(ValueError, match="read-only"):
                layer[0, 0, 0] = 1.0
        memory = new


def test_segment_consistency_split_vs_unsplit():
    mc = small_config()
    params = M.init_params(mc, Rng.for_stream(2, "init"), "float64")
    ids = random_ids(5, 16)
    with T.no_grad():
        full, _ = M.forward_ner(ids, None, mc, params)
        mem = M.SegmentMemory.empty(mc.num_layers)
        _, mem = M.forward_ner(ids[:, :8], mem, mc, params)
        second, _ = M.forward_ner(ids[:, 8:], mem, mc, params)
    assert np.max(np.abs(full.data[:, 8:] - second.data)) <= 1e-5


def test_memory_perturbation_changes_outputs():
    mc = small_config()
    params = M.init_params(mc, Rng.for_stream(3, "init"), "float64")
    ids = random_ids(6, 8)
    with T.no_grad():
        mem = M.SegmentMemory.empty(mc.num_layers)
        _, mem = M.forward_ner(random_ids(7, 8), mem, mc, params)
        base, _ = M.forward_ner(ids, mem, mc, params)
        # constant shifts would be washed out by layer norm; use noise
        noise = Rng(8, 8)
        bumped = M.SegmentMemory([m + 0.5 * noise.normal(m.shape) for m in mem.layers],
                                 mem.offset)
        moved, _ = M.forward_ner(ids, bumped, mc, params)
    assert np.max(np.abs(base.data - moved.data)) > 1e-6


def test_memory_receives_zero_gradient():
    # wrap cached arrays in requires_grad probes; backward must not
    # deposit anything in them
    mc = small_config(xlnet_layers=1, transformer_layers=1)
    params = M.init_params(mc, Rng.for_stream(4, "init"), "float64")
    ids = random_ids(8, 6)
    mem = M.SegmentMemory.empty(mc.num_layers)
    with T.no_grad():
        _, mem = M.forward_ner(random_ids(9, 6), mem, mc, params)
    probes = [T.Tensor(m.copy(), requires_grad=True) for m in mem.layers]
    probed = M.SegmentMemory([p.data for p in probes], mem.offset)
    lp, _ = M.forward_ner(ids, probed, mc, params)
    loss = tmean(lp)
    T.backward(loss)
    for p in probes:
        assert p.grad is None or np.max(np.abs(p.grad)) == 0.0


def test_memory_mismatch_rejected():
    mc = small_config()
    params = M.init_params(mc, Rng.for_stream(5, "init"), "float64")
    bad = M.SegmentMemory([np.zeros((1, 2, 16))], 2)  # wrong layer count
    with pytest.raises(ContractError):
        M.forward_ner(random_ids(1, 4), bad, mc, params)


def test_pretrain_memory_round_trip():
    mc = small_config(transformer_layers=0)
    params = M.init_params(mc, Rng.for_stream(6, "init"), "float64")
    ids = random_ids(10, 6)
    plan = sample_permutation(6, Rng(1, 1))
    with T.no_grad():
        loss1, mem = M.pretrain_forward(ids, plan, None, mc, params)
        mem = window(mem, 4)
        assert all(m.shape[1] == 4 for m in mem.layers)
        loss2, _ = M.pretrain_forward(ids, plan, mem, mc, params)
    assert np.isfinite(loss1.item()) and np.isfinite(loss2.item())
    assert loss1.item() != loss2.item()  # memory changed the context


# ------------------------------------------------- pre-merge block oracle
# The content-stack loop and the two-stream layer as they were written
# before both became calls of relpos.block_forward, kept as references.
# They pin the dropout-site order (per block: attention weights, then the
# attention residual, then the FFN residual, with two streams advancing in
# lockstep) and the per-layer memory bookkeeping, bit for bit.


def ref_drop(x, p, streams):
    if streams is not None and p > 0.0:
        return T.dropout(x, p, streams.mask(x.shape, p))
    return x


def ref_embed(ids, mc, params, offset, streams):
    h = T.embedding(params["embed"], ids)
    if mc.pe_mode == "absolute":
        pe = relpos.sinusoidal_pe(offset + np.arange(ids.shape[1]), mc.model_dim, h.dtype)
        h = h + T.Tensor(pe[None, :, :])
    return ref_drop(h, mc.dropout, streams)


def ref_index(mc, pos_q, pos_k):
    # relative attention gets a table and its index; absolute gets neither
    if mc.pe_mode == "relative":
        return relpos.relative_index(pos_q, pos_k, mc.clip_k)
    return None


def ref_layer_memory(mem_layers, i, offset, h, mc):
    batch, t, _ = h.shape
    mem = mem_layers[i] if i < len(mem_layers) else np.zeros((batch, 0, mc.model_dim))
    m_len = mem.shape[1] if mem.size else 0
    pos_k = np.concatenate([offset - m_len + np.arange(m_len, dtype=np.int64),
                            offset + np.arange(t, dtype=np.int64)])
    joined = np.concatenate([mem, h.data], axis=1) if m_len else h.data
    return mem, m_len, pos_k, joined


def ref_content_stack(h, stack, n_layers, mc, params, mem_layers, offset, streams):
    t = h.shape[1]
    table = M.rel_table(params, stack, mc)
    pos_q = offset + np.arange(t, dtype=np.int64)
    new_mems = []
    for i in range(n_layers):
        mem, m_len, pos_k, cache = ref_layer_memory(mem_layers, i, offset, h, mc)
        mask = extend_mask_for_memory(np.tril(np.ones((t, t), dtype=bool)), m_len)
        block = M.block_params(params, f"{stack}.{i}.")
        normed_q = T.layer_norm(h, block.ln1_g, block.ln1_b)
        normed_kv = normed_q
        if m_len > 0:
            kv = T.concat([T.Tensor(mem), h], axis=1)
            normed_kv = T.layer_norm(kv, block.ln1_g, block.ln1_b)
        att = relpos.multi_head_attention(normed_q, normed_kv, mc, block.attn, mask, table,
                                          ref_index(mc, pos_q, pos_k), streams)
        new_mems.append(cache)
        h = h + ref_drop(att, mc.dropout, streams)
        h = h + ref_drop(relpos.feed_forward(T.layer_norm(h, block.ln2_g, block.ln2_b),
                                             block), mc.dropout, streams)
    return h, new_mems


def ref_two_stream_layer(h_prev, g_prev, query_mask, content_mask, block, mc,
                         pos_q, pos_k, table, memory, streams):
    normed_h = T.layer_norm(h_prev, block.ln1_g, block.ln1_b)
    normed_g = T.layer_norm(g_prev, block.ln1_g, block.ln1_b)
    normed_kv = normed_h
    if memory is not None:
        kv = T.concat([T.Tensor(memory.data), h_prev], axis=1)
        normed_kv = T.layer_norm(kv, block.ln1_g, block.ln1_b)
    h_att = relpos.multi_head_attention(normed_h, normed_kv, mc, block.attn, content_mask,
                                        table, ref_index(mc, pos_q, pos_k), streams)
    g_att = relpos.multi_head_attention(normed_g, normed_kv, mc, block.attn, query_mask,
                                        table, ref_index(mc, pos_q, pos_k), streams)
    h = h_prev + ref_drop(h_att, mc.dropout, streams)
    g = g_prev + ref_drop(g_att, mc.dropout, streams)
    h = h + ref_drop(relpos.feed_forward(T.layer_norm(h, block.ln2_g, block.ln2_b), block),
                     mc.dropout, streams)
    g = g + ref_drop(relpos.feed_forward(T.layer_norm(g, block.ln2_g, block.ln2_b), block),
                     mc.dropout, streams)
    return h, g


def ref_forward_ner(ids, memory, mc, params, streams):
    layers, offset = (memory.layers, memory.offset) if memory else ([], 0)
    h = ref_embed(ids, mc, params, offset, streams)
    h, xl_mems = ref_content_stack(h, "xl", mc.xlnet_layers, mc, params,
                                   layers[:mc.xlnet_layers], offset, streams)
    h, tr_mems = ref_content_stack(h, "tr", mc.transformer_layers, mc, params,
                                   layers[mc.xlnet_layers:], offset, streams)
    h = T.layer_norm(h, params["final_ln_g"], params["final_ln_b"])
    return M.classify(h, params), M.SegmentMemory(xl_mems + tr_mems, offset + ids.shape[1])


def ref_pretrain_forward(ids, plan, memory, mc, params, streams):
    layers, offset = (memory.layers, memory.offset) if memory else ([], 0)
    batch, t = ids.shape
    h = ref_embed(ids, mc, params, offset, streams)
    g = (T.Tensor(np.zeros((batch, t, mc.model_dim)))
         + T.reshape(params["w_init"], (1, 1, mc.model_dim)))
    if mc.pe_mode == "absolute":
        pe = relpos.sinusoidal_pe(offset + np.arange(t), mc.model_dim, h.dtype)
        g = g + T.Tensor(pe[None, :, :])
    table = M.rel_table(params, "xl", mc)
    pos_q = offset + np.arange(t, dtype=np.int64)
    new_mems = []
    for i in range(mc.xlnet_layers):
        mem, m_len, pos_k, cache = ref_layer_memory(layers, i, offset, h, mc)
        new_mems.append(cache)
        h, g = ref_two_stream_layer(
            h, g, extend_mask_for_memory(plan.query_mask, m_len),
            extend_mask_for_memory(plan.content_mask, m_len),
            M.block_params(params, f"xl.{i}."), mc, pos_q, pos_k, table,
            T.Tensor(mem) if m_len else None, streams)
    g = T.layer_norm(g, params["final_ln_g"], params["final_ln_b"])
    loss = plm_loss(g, plan.targets, ids, params["plm_head_w"], params["plm_head_b"])
    return loss, M.SegmentMemory(new_mems, offset + t)


def two_segment_trace(forward, params, ids):
    """Outputs, caches and parameter gradients of two 5-token segments
    run through forward(ids_segment, memory, segment), each cache cut to
    its last 3 columns before the next segment sees it."""
    memory, seen = None, []
    for seg in range(2):
        T.zero_grads(params.values())
        out, memory = forward(ids[:, 5 * seg:5 * seg + 5], memory, seg)
        T.backward(T.tsum(out * out))
        memory = window(memory, 3)
        seen += [out.data, *memory.layers, *(params[k].grad for k in sorted(params))]
    return seen


@pytest.mark.parametrize("pe_mode", ["relative", "absolute"])
@pytest.mark.parametrize("model", ["forward_ner", "pretrain_forward"])
def test_training_forward_matches_pre_merge_oracle(model, pe_mode):
    mc = small_config(model_dim=8, ffn_dim=8, vocab_size=20, clip_k=2, pe_mode=pe_mode,
                      dropout=0.2)
    params = M.init_params(mc, Rng.for_stream(12, "init"), "float64")
    ids = random_ids(13, 10, vocab=20, batch=2)
    plans = [sample_permutation(5, Rng(14, seg)) for seg in range(2)]

    def run(ner, pretrain):
        if model == "forward_ner":
            return lambda x, mem, seg: ner(x, mem, mc, params, DualDropoutStreams(15, seg))
        return lambda x, mem, seg: pretrain(x, plans[seg], mem, mc, params,
                                            DualDropoutStreams(15, seg))

    got = two_segment_trace(run(M.forward_ner, M.pretrain_forward), params, ids)
    want = two_segment_trace(run(ref_forward_ner, ref_pretrain_forward), params, ids)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


# ----------------------------------------------------------------- encoder


@pytest.mark.parametrize("pe_mode", ["relative", "absolute"])
@pytest.mark.parametrize("model", ["forward_ner", "pretrain_forward"])
def test_each_forward_builds_the_relative_index_once(model, pe_mode, monkeypatch):
    # one displacement index per forward, shared by all 2 + 2 blocks, on a
    # first segment and on a second one that sees 3 cached positions
    calls = []
    real = relpos.displacement_index

    def counted(pos_q, pos_k, *args):
        calls.append(len(pos_k))
        return real(pos_q, pos_k, *args)

    monkeypatch.setattr(relpos, "displacement_index", counted)
    mc = small_config(pe_mode=pe_mode, dropout=0.1)
    params = M.init_params(mc, Rng.for_stream(16, "init"), "float64")
    ids = random_ids(17, 10, batch=2)
    memory = None
    for seg in range(2):
        calls.clear()
        x = ids[:, 5 * seg:5 * seg + 5]
        streams = DualDropoutStreams(18, seg)
        if model == "forward_ner":
            _, memory = M.forward_ner(x, memory, mc, params, streams, k_eff=2)
        else:
            _, memory = M.pretrain_forward(x, sample_permutation(5, Rng(19, seg)), memory,
                                           mc, params, streams, k_eff=2)
        memory = window(memory, 3)
        assert calls == ([5 + 3 * seg] if pe_mode == "relative" else [])


def test_eval_forward_is_pure():
    mc = small_config()
    params = M.init_params(mc, Rng.for_stream(7, "init"), "float64")
    ids = random_ids(11, 7)
    with T.no_grad():
        a, _ = M.forward_ner(ids, None, mc, params)
        b, _ = M.forward_ner(ids, None, mc, params)
    assert np.array_equal(a.data, b.data)


class CountedStreams:
    """DualDropoutStreams that count the masks drawn from them."""

    def __init__(self, seed, step):
        self.streams, self.drawn = DualDropoutStreams(seed, step), 0

    def mask(self, shape, drop_prob):
        self.drawn += 1
        return self.streams.mask(shape, drop_prob)


@pytest.mark.parametrize("model", ["forward_ner", "pretrain_forward"])
def test_streams_alone_make_a_training_forward(model):
    # handed streams, a forward draws the embedding site's mask plus three
    # per block and stream (attention weights, attention and FFN residuals);
    # without streams it draws none and is the eval forward, bit for bit
    mc = small_config(dropout=0.1)
    params = M.init_params(mc, Rng.for_stream(20, "init"), "float64")
    ids = random_ids(21, 6, batch=2)
    plan = sample_permutation(6, Rng(22, 0))

    def forward(*streams):
        if model == "forward_ner":
            return M.forward_ner(ids, None, mc, params, *streams)[0]
        return M.pretrain_forward(ids, plan, None, mc, params, *streams)[0]

    streams = CountedStreams(23, 1)
    trained = forward(streams)
    if model == "forward_ner":
        assert streams.drawn == 1 + 3 * mc.num_layers
    else:
        assert streams.drawn == 1 + 6 * mc.xlnet_layers
    with T.no_grad():
        evaluated = forward()
    untrained = forward()
    assert not np.array_equal(trained.data, evaluated.data)
    assert np.array_equal(untrained.data, evaluated.data)


def test_forward_radius_is_keyword_only():
    # a stale (..., streams, train) call must not read train as k_eff
    mc = small_config()
    params = M.init_params(mc, Rng.for_stream(24, "init"), "float64")
    ids = random_ids(25, 5)
    with pytest.raises(TypeError):
        M.forward_ner(ids, None, mc, params, None, False)
    with pytest.raises(TypeError):
        M.pretrain_forward(ids, sample_permutation(5, Rng(26, 0)), None, mc, params, None, False)


def test_pe_modes_differ_on_permuted_input():
    ids = random_ids(12, 6)
    perm = ids[:, ::-1].copy()
    outs = {}
    for mode in ("absolute", "relative"):
        mc = small_config(pe_mode=mode)
        params = M.init_params(mc, Rng.for_stream(8, "init"), "float64")
        with T.no_grad():
            a, _ = M.forward_ner(ids, None, mc, params)
            b, _ = M.forward_ner(perm, None, mc, params)
        outs[mode] = (a.data, b.data)
        assert not np.array_equal(a.data, b.data)
    assert not np.array_equal(outs["absolute"][0], outs["relative"][0])


def test_classify_normalized_and_shift_stable():
    mc = small_config()
    params = M.init_params(mc, Rng.for_stream(9, "init"), "float64")
    h = T.Tensor(Rng(3, 3).normal((2, 5, 16)))
    lp = M.classify(h, params).data
    assert np.max(np.abs(np.exp(lp).sum(axis=-1) - 1.0)) <= 1e-10
    params["cls_b"].data += 3.0  # constant shift leaves argmax alone
    lp2 = M.classify(h, params).data
    assert np.array_equal(lp.argmax(-1), lp2.argmax(-1))


def test_bad_token_ids_rejected():
    mc = small_config()
    params = M.init_params(mc, Rng.for_stream(10, "init"), "float64")
    with pytest.raises(IndexError):
        M.forward_ner(np.array([[0, 5, 30]]), None, mc, params)


# ---------------------------------------------------------------- decoding


def test_greedy_decode_one_hot():
    ls = LabelSet(TYPES)
    ids = [ls.index("B-PER"), ls.index("E-PER"), ls.index("O")]
    lp = np.full((3, len(ls)), -20.0)
    for i, t in enumerate(ids):
        lp[i, t] = 0.0
    tags = M.decode(lp, ls, "greedy")
    assert tags == ls.decode(ids) and validate_bmes(tags) == []


def test_greedy_decode_flags_invalid():
    ls = LabelSet(TYPES)
    lp = np.full((2, len(ls)), -20.0)
    lp[0, ls.index("M-PER")] = 0.0
    lp[1, ls.index("O")] = 0.0
    tags = M.decode(lp, ls, "greedy")
    assert validate_bmes(tags) != []


def test_constrained_decode_always_wellformed():
    ls = LabelSet(TYPES)
    rng = Rng(15, 0)
    for i in range(200):
        n = 1 + rng.derive(i).randbelow(8)
        lp = np.log(softmax(T.Tensor(rng.derive(1000 + i).normal((n, len(ls))) * 3)).data)
        tags = M.decode(lp, ls, "constrained")
        assert validate_bmes(tags) == []


def exhaustive_best_legal(lp, ls):
    """Highest-scoring legal tag sequence by full enumeration."""
    start_ok, pair_ok, end_ok = legal_transitions(ls)
    n = lp.shape[0]
    best, best_score = None, -np.inf
    for seq in itertools.product(range(len(ls)), repeat=n):
        if not (start_ok[seq[0]] and end_ok[seq[-1]]):
            continue
        if any(not pair_ok[a, b] for a, b in zip(seq, seq[1:])):
            continue
        score = sum(lp[i, t] for i, t in enumerate(seq))
        if score > best_score:
            best, best_score = list(seq), score
    return best, best_score


def test_constrained_decode_matches_exhaustive_search():
    ls = LabelSet(("PER",))  # 5 tags keeps enumeration tractable
    rng = Rng(16, 0)
    for i in range(40):
        n = 1 + rng.derive(i).randbelow(6)
        lp = np.log(softmax(T.Tensor(rng.derive(2000 + i).normal((n, len(ls))) * 2)).data)
        tags = M.decode(lp, ls, "constrained")
        want, want_score = exhaustive_best_legal(lp, ls)
        got_score = sum(lp[j, ls.index(t)] for j, t in enumerate(tags))
        assert abs(got_score - want_score) <= 1e-9, (i, tags, want)


def test_constrained_decode_builds_its_tables_once(monkeypatch):
    """Two decodes over one label set build the transition tables once,
    and the shared tables cannot be written."""
    built = []

    def counting(label_set):
        built.append(label_set)
        return legal_transitions(label_set)

    monkeypatch.setattr(M, "legal_transitions", counting)
    M._decode_tables.cache_clear()
    ls = LabelSet(TYPES)
    lp = np.log(softmax(T.Tensor(Rng(17, 0).normal((4, len(ls))))).data)
    first = M.decode(lp, ls, "constrained")
    second = M.decode(lp, LabelSet(TYPES), "constrained")
    assert built == [ls] and first == second
    for table in M._decode_tables(ls):
        with pytest.raises(ValueError):
            table[0] = table[0]


def test_tag_batches_match_tagging_each_sentence_alone(monkeypatch):
    mc = small_config()
    params = M.init_params(mc, Rng.for_stream(7, "init"), "float64")
    r = Rng(5, 0)
    sentences = [random_ids(100 + i, 1 + r.randbelow(12))[0] for i in range(70)]
    alone = [M.tag([s], mc, params)[0] for s in sentences]
    shapes, forward = [], M.forward_ner

    def counted(ids, *args, **kwargs):
        shapes.append(ids.shape)
        return forward(ids, *args, **kwargs)

    monkeypatch.setattr(M, "forward_ner", counted)
    tagged = M.tag(sentences, mc, params)
    chunks = [sentences[:32], sentences[32:64], sentences[64:]]
    assert shapes == [(len(c), max(map(len, c))) for c in chunks]
    assert [len(tags) for tags in tagged] == [len(s) for s in sentences]
    assert tagged == alone
    assert M.tag([], mc, params) == []
    # an all-empty batch tags without a forward
    assert M.tag([np.zeros(0, np.int64)] * 2, mc, params) == [[], []]
    assert len(shapes) == len(chunks)
    # the cell cap splits a run: rows x longest^2 may not pass TAG_CELLS,
    # and a sentence over it alone still gets its own forward
    monkeypatch.setattr(M, "TAG_CELLS", 100)
    lengths = [3, 3, 3, 10, 2, 11, 1]
    capped = [random_ids(200 + i, n)[0] for i, n in enumerate(lengths)]
    shapes.clear()
    tagged = M.tag(capped, mc, params)
    assert shapes == [(3, 3), (1, 10), (1, 2), (1, 11), (1, 1)]
    assert tagged == [M.tag([s], mc, params)[0] for s in capped]
    # a run that fills the cap exactly (4 x 5^2 = 100) stays one forward
    capped = [random_ids(300 + i, n)[0] for i, n in enumerate([5, 5, 5, 5, 6])]
    shapes.clear()
    tagged = M.tag(capped, mc, params)
    assert shapes == [(4, 5), (1, 6)]
    assert tagged == [M.tag([s], mc, params)[0] for s in capped]


@pytest.mark.parametrize("pe_mode", relpos.PE_MODES)
def test_segmented_tagging_matches_one_forward(pe_mode, monkeypatch):
    # tag runs TAG_SEG columns per forward over a memory of every earlier
    # column, so its log-probs are one whole forward's
    monkeypatch.setattr(M, "TAG_SEG", 8)
    mc = small_config(pe_mode=pe_mode)
    params = M.init_params(mc, Rng.for_stream(9, "init"), "float64")
    # TAG_SEG - 1, TAG_SEG, TAG_SEG + 1, 2 TAG_SEG + 5, then last segments of
    # 2, 3 and 4 columns: a segment of 1-4 columns projects its K and V
    # rows apart from the wider product they were cut from before, where
    # numpy may round differently, so its log-probs may move by ulps
    lengths = [7, 8, 9, 21, 3, 10, 19, 28]
    sentences = [random_ids(400 + i, n)[0] for i, n in enumerate(lengths)]
    with T.no_grad():
        whole = [M.forward_ner(s, None, mc, params)[0].data[0] for s in sentences]
    widths, decoded = [], []
    forward, decode = M.forward_ner, M.decode

    def counted(ids, *args, **kwargs):
        widths.append(ids.shape[1])
        return forward(ids, *args, **kwargs)

    def kept(lp, *args):
        decoded.append(lp)
        return decode(lp, *args)

    monkeypatch.setattr(M, "forward_ner", counted)
    monkeypatch.setattr(M, "decode", kept)
    # one batch, padded to 28 so padding crosses segment boundaries, then
    # each sentence alone
    for batch in [range(len(sentences))] + [[i] for i in range(len(sentences))]:
        decoded.clear()
        tagged = M.tag([sentences[i] for i in batch], mc, params)
        assert len(decoded) == len(tagged) == len(batch)
        for i, lp, tags in zip(batch, decoded, tagged):
            np.testing.assert_allclose(lp, whole[i], rtol=0, atol=1e-12)
            assert tags == decode(whole[i], mc.label_set, mc.decode_mode)
    # no forward runs more than TAG_SEG queries: 21 = 8 + 8 + 5, 9 = 8 + 1
    assert widths == [8, 8, 8, 4, 7, 8, 8, 1, 8, 8, 5, 3, 8, 2, 8, 8, 3, 8, 8, 8, 4]


@pytest.mark.parametrize("pe_mode", relpos.PE_MODES)
def test_tagging_normalises_and_projects_each_column_once(pe_mode, monkeypatch):
    # each block caches the K and V heads of every earlier column, so no
    # layer_norm or linear of a tagging forward sees more than its own rows
    monkeypatch.setattr(M, "TAG_SEG", 8)
    mc = small_config(pe_mode=pe_mode)
    params = M.init_params(mc, Rng.for_stream(9, "init"), "float64")
    rows = []
    for name in ("layer_norm", "linear"):
        def recorded(x, *args, real=getattr(T, name)):
            rows.append(x.shape[-2])
            return real(x, *args)

        monkeypatch.setattr(T, name, recorded)
    M.tag([random_ids(5, 3 * 8 + 1)[0]], mc, params)
    assert max(rows) == 8 and rows.count(1) > 0


def test_decode_empty_sequence():
    assert M.decode(np.zeros((0, 13)), LabelSet(TYPES)) == []


# ------------------------------------------------------------- grad checks


def test_pretrain_forward_gradient_check():
    # 6 tokens, 1 layer, dim 8 against central differences
    mc = M.ModelConfig(vocab_size=20, model_dim=8, ffn_dim=8, xlnet_layers=1,
                       transformer_layers=0, num_heads=2, clip_k=2,
                       entity_types=TYPES, dropout=0.0)
    params = M.init_params(mc, Rng.for_stream(11, "init"), "float64")
    ids = random_ids(13, 6, vocab=20)
    plan = sample_permutation(6, Rng(4, 4))

    def f():
        loss, _ = M.pretrain_forward(ids, plan, None, mc, params)
        return loss

    names = sorted(params)
    tensors = [params[n] for n in names]
    T.zero_grads(tensors)
    T.backward(f())
    fd = T.finite_diff_grad(f, tensors)
    for name, p, g in zip(names, tensors, fd):
        err = np.max(np.abs(p.grad - g) / np.maximum(1.0, np.maximum(np.abs(g), np.abs(p.grad))))
        assert err <= 1e-4, (name, err)


def test_finetune_forward_gradient_check_with_memory():
    mc = M.ModelConfig(vocab_size=15, model_dim=8, ffn_dim=8, xlnet_layers=1,
                       transformer_layers=1, num_heads=2, clip_k=2,
                       entity_types=("PER",), dropout=0.0)
    params = M.init_params(mc, Rng.for_stream(12, "init"), "float64")
    ids = random_ids(14, 4, vocab=15)
    with T.no_grad():
        _, mem = M.forward_ner(random_ids(15, 5, vocab=15), None, mc, params)
    mem = window(mem, 3)
    targets = np.array([[0, 1, 2, 0]])

    def f():
        lp, _ = M.forward_ner(ids, mem, mc, params)
        return T.cross_entropy(lp, targets)

    names = sorted(params)
    tensors = [params[n] for n in names]
    T.zero_grads(tensors)
    T.backward(f())
    fd = T.finite_diff_grad(f, tensors)
    for name, p, g in zip(names, tensors, fd):
        err = np.max(np.abs(p.grad - g) / np.maximum(1.0, np.maximum(np.abs(g), np.abs(p.grad))))
        assert err <= 1e-4, (name, err)
