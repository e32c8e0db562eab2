"""R-Drop loss identities, the duplicated-batch equivalence, the lr
schedule, Adam, and gradient clipping."""

import importlib.util
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ntrr.gradcheck as G
import ntrr.model as M
import ntrr.tensor as T
import ntrr.training as TR
from ntrr.data import build_vocab, load_checkpoint, make_batches
from ntrr.errors import ConfigError, ContractError
from ntrr.rng import DropoutStreams, DualDropoutStreams, Rng
from ntrr.synthetic import generate_corpus

# oracle constants, high-precision evaluation of the loss definitions
# at p1=[0.6,0.4], p2=[0.5,0.5], target class 0, alpha=1
ORACLE_CE = 1.2039728043259360      # -ln 0.6 - ln 0.5
ORACLE_KL = 0.0405465108108164      # KL(p1||p2) + KL(p2||p1)
ORACLE_TOTAL = 1.2445193151367524


def test_worked_example():
    lp1 = T.Tensor(np.log(np.array([[0.6, 0.4]])))
    lp2 = T.Tensor(np.log(np.array([[0.5, 0.5]])))
    br = TR.rdrop_loss(lp1, lp2, [0], alpha=1.0)
    ce, kl, total = br.floats()
    assert abs(ce - ORACLE_CE) <= 1e-6
    assert abs(kl - ORACLE_KL) <= 1e-6
    assert abs(total - ORACLE_TOTAL) <= 1e-6


def test_identical_branches_no_kl():
    lp = T.log_softmax(T.Tensor(Rng(1, 1).normal((3, 5))))
    br = TR.rdrop_loss(lp, T.Tensor(lp.data.copy()), [1, 0, 4], alpha=1.0)
    assert br.kl_sym.item() == 0.0
    assert br.total.item() == br.ce.item()


def test_alpha_zero_reduces_to_ce():
    rng = Rng(2, 2)
    lp1 = T.log_softmax(T.Tensor(rng.normal((4, 6))))
    lp2 = T.log_softmax(T.Tensor(rng.normal((4, 6))))
    br = TR.rdrop_loss(lp1, lp2, [0, 1, 2, 3], alpha=0.0)
    assert br.total.item() == br.ce.item()


def test_total_formula_and_alpha_monotonicity():
    rng = Rng(3, 3)
    lp1 = T.log_softmax(T.Tensor(rng.normal((4, 6))))
    lp2 = T.log_softmax(T.Tensor(rng.normal((4, 6))))
    prev = -np.inf
    for alpha in (0.0, 0.5, 1.0, 2.0, 5.0):
        br = TR.rdrop_loss(lp1, lp2, [0, 1, 2, 3], alpha=alpha)
        ce, kl, total = br.floats()
        assert abs(total - (ce + alpha * kl)) <= 1e-12
        assert total >= prev
        prev = total


def test_branch_swap_symmetry():
    rng = Rng(4, 4)
    lp1 = T.log_softmax(T.Tensor(rng.normal((3, 4))))
    lp2 = T.log_softmax(T.Tensor(rng.normal((3, 4))))
    a = TR.rdrop_loss(lp1, lp2, [0, 1, 2], alpha=1.0)
    b = TR.rdrop_loss(lp2, lp1, [0, 1, 2], alpha=1.0)
    assert abs(a.ce.item() - b.ce.item()) <= 1e-12
    assert abs(a.kl_sym.item() - b.kl_sym.item()) <= 1e-12


def test_halved_kl_convention_is_half_alpha():
    # averaging the two KL directions at weight alpha is, bit for bit,
    # summing them at weight alpha / 2: forward and gradients
    rng = Rng(5, 5)
    z1 = T.Tensor(rng.normal((3, 4)), requires_grad=True)
    z2 = T.Tensor(rng.normal((3, 4)), requires_grad=True)
    mask = np.array([1.0, 1.0, 0.0])

    def halved(alpha):
        lp1, lp2 = T.log_softmax(z1), T.log_softmax(z2)
        ce = T.cross_entropy(lp1, [0, 2, 1], mask) + T.cross_entropy(lp2, [0, 2, 1], mask)
        p1, p2 = T.texp(lp1), T.texp(lp2)
        kl = T.kl_divergence(p1, p2, mask) + T.kl_divergence(p2, p1, mask)
        return ce + (kl * 0.5) * alpha

    def folded(alpha):
        return TR.rdrop_loss(T.log_softmax(z1), T.log_softmax(z2), [0, 2, 1],
                             alpha=alpha / 2, token_mask=mask).total

    for alpha in (1.0, 0.6, 0.3, 1.7):
        seen = []
        for loss in (halved, folded):
            T.zero_grads([z1, z2])
            total = loss(alpha)
            T.backward(total)
            seen.append([total.data, z1.grad.copy(), z2.grad.copy()])
        for a, b in zip(*seen):
            assert np.array_equal(a, b), alpha


def test_rdrop_loss_gradients_match_finite_differences():
    rng = Rng(6, 6)
    z1 = T.Tensor(rng.normal((3, 4)), requires_grad=True)
    z2 = T.Tensor(rng.normal((3, 4)), requires_grad=True)
    mask = np.array([1.0, 1.0, 0.0])

    def f():
        return TR.rdrop_loss(T.log_softmax(z1), T.log_softmax(z2),
                             [0, 2, 1], alpha=0.7, token_mask=mask).total

    T.zero_grads([z1, z2])
    T.backward(f())
    fd = T.finite_diff_grad(f, [z1, z2])
    for p, g in zip([z1, z2], fd):
        assert np.max(np.abs(p.grad - g) / np.maximum(1.0, np.abs(g))) <= 1e-4


# ------------------------------------------------------- path equivalence


def dual_path_setup(seed=42, step=3, dropout=0.2):
    corpus = generate_corpus(4, seed=9)
    vocab = build_vocab(corpus, 1)
    mc = M.ModelConfig(vocab_size=len(vocab), model_dim=16, ffn_dim=16,
                       xlnet_layers=1, transformer_layers=1, num_heads=2,
                       clip_k=2, entity_types=("LOC", "ORG", "PER"),
                       dropout=dropout)
    params = M.init_params(mc, Rng.for_stream(1, "init"), "float64")
    batch = next(iter(make_batches(corpus, vocab, 4, None, mc.label_set)))
    return mc, params, batch, seed, step


def test_duplicated_batch_equals_two_passes():
    mc, params, batch, seed, step = dual_path_setup()
    b = batch.token_ids.shape[0]
    with T.no_grad():
        dup = np.concatenate([batch.token_ids, batch.token_ids], axis=0)
        lp, _ = M.forward_ner(dup, None, mc, params,
                              DualDropoutStreams(seed, step))
        one1, _ = M.forward_ner(batch.token_ids, None, mc, params,
                                DropoutStreams(seed, step, 1))
        one2, _ = M.forward_ner(batch.token_ids, None, mc, params,
                                DropoutStreams(seed, step, 2))
    assert np.max(np.abs(lp.data[:b] - one1.data)) <= 1e-12
    assert np.max(np.abs(lp.data[b:] - one2.data)) <= 1e-12


def test_train_step_paths_produce_identical_losses():
    # train_step's duplicated batch against two separate branch forwards
    mc, params, batch, seed, step = dual_path_setup()
    tc = TR.TrainConfig(seed=seed, warmup_steps=10, total_steps=100)
    with T.no_grad():
        lp1, _ = M.forward_ner(batch.token_ids, None, mc, params,
                               DropoutStreams(seed, step, 1))
        lp2, _ = M.forward_ner(batch.token_ids, None, mc, params,
                               DropoutStreams(seed, step, 2))
        want = TR.rdrop_loss(lp1, lp2, batch.tag_ids, tc.alpha, batch.token_mask).floats()
    opt = TR.OptimizerState.for_params(params)
    got = TR.train_step(batch, params, opt, mc, tc, step, lr=1e-3, k_eff=None)
    for a, b in zip(got, want):
        assert abs(a - b) <= 1e-12


def test_training_and_gradcheck_share_the_branch_forward(monkeypatch):
    # gradcheck differentiates the forward that train_step runs
    calls = []
    inner = TR.branch_log_probs

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return inner(*args, **kwargs)

    monkeypatch.setattr(TR, "branch_log_probs", counted)
    mc, params, batch, seed, step = dual_path_setup()
    tc = TR.TrainConfig(seed=seed, warmup_steps=10, total_steps=100)
    TR.train_step(batch, params, TR.OptimizerState.for_params(params), mc, tc, step, 1e-3)
    assert calls == [batch.token_ids.shape]
    small = replace(G.tiny_config("relative"), model_dim=4, ffn_dim=4, vocab_size=6,
                    xlnet_layers=1, transformer_layers=0)
    monkeypatch.setattr(G, "tiny_config", lambda pe_mode: small)
    calls.clear()
    G.gradcheck_model("relative")
    assert len(calls) == 2 * M.param_count(small) + 1


def test_rdrop_disabled_is_single_branch_ce():
    mc, params, batch, seed, step = dual_path_setup(dropout=0.0)
    tc = TR.TrainConfig(seed=seed, rdrop_enabled=False, warmup_steps=10, total_steps=100)
    opt = TR.OptimizerState.for_params(params)
    with T.no_grad():
        lp, _ = M.forward_ner(batch.token_ids, None, mc, params)
        want = T.cross_entropy(lp, batch.tag_ids, batch.token_mask).item()
    ce, kl, total = TR.train_step(batch, params, opt, mc, tc, step, 1e-3, None)
    assert kl == 0.0
    assert abs(ce - want) <= 1e-12
    assert abs(total - want) <= 1e-12


# ------------------------------------------------------------- lr schedule


def test_lr_schedule_examples():
    cfg = TR.TrainConfig(lr_init=0.002, warmup_steps=100, total_steps=1000)
    assert TR.lr_schedule(100, cfg) == 0.002
    assert abs(TR.lr_schedule(1, cfg) - 0.002 / 100) <= 1e-18
    assert abs(TR.lr_schedule(400, cfg) - 0.002 / 2) <= 1e-15


def test_lr_schedule_continuous_at_peak():
    cfg = TR.TrainConfig(lr_init=0.002, warmup_steps=50, total_steps=100)
    before = TR.lr_schedule(49, cfg)
    peak = TR.lr_schedule(50, cfg)
    after = TR.lr_schedule(51, cfg)
    assert before < peak and after < peak
    assert peak - after < 0.002 * 0.02


def test_lr_schedule_contract():
    cfg = TR.TrainConfig(warmup_steps=10, total_steps=100)
    with pytest.raises(ContractError):
        TR.lr_schedule(0, cfg)
    with pytest.raises(ConfigError):
        TR.lr_schedule(5, TR.TrainConfig(warmup_steps=0, total_steps=0))


def test_resolve_schedule_defaults():
    tc = TR.TrainConfig(epochs=20, batch_size=8)
    cfg = TR.resolve_schedule(tc, n_batches=7)
    assert cfg.total_steps == 140
    assert cfg.warmup_steps == 14


# -------------------------------------------------------------------- adam


def test_adam_zero_gradient_no_move():
    x = T.Tensor(np.array([1.0, -2.0]), requires_grad=True)
    x.zero_grad()
    params = {"x": x}
    opt = TR.OptimizerState.for_params(params)
    TR.adam_step(params, opt, lr=0.1)
    assert np.array_equal(x.data, [1.0, -2.0])


def test_adam_first_step_is_signed_lr():
    x = T.Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    x.grad = np.array([0.5, -0.25, 1e3])
    params = {"x": x}
    opt = TR.OptimizerState.for_params(params)
    TR.adam_step(params, opt, lr=0.1)
    move = x.data - np.array([1.0, -2.0, 3.0])
    assert np.max(np.abs(move + 0.1 * np.sign([0.5, -0.25, 1e3]))) <= 1e-6


def test_adam_missing_grad_rejected():
    x = T.Tensor(np.ones(2), requires_grad=True)
    params = {"x": x}
    opt = TR.OptimizerState.for_params(params)
    with pytest.raises(ContractError):
        TR.adam_step(params, opt, lr=0.1)


def test_adam_optimizes_quadratic():
    x = T.Tensor(np.array(5.0), requires_grad=True)
    params = {"x": x}
    opt = TR.OptimizerState.for_params(params)
    for _ in range(200):
        T.zero_grads([x])
        T.backward(x * x)
        TR.adam_step(params, opt, lr=0.1)
    assert abs(float(x.data)) < 0.1


def test_clip_gradients_scales_to_max_norm():
    a = T.Tensor(np.zeros(3), requires_grad=True)
    b = T.Tensor(np.zeros(4), requires_grad=True)
    a.grad = np.full(3, 3.0)
    b.grad = np.full(4, 4.0)
    params = {"a": a, "b": b}
    norm = TR.clip_gradients(params, 1.0)
    assert norm > 1.0
    clipped = math.sqrt(float((a.grad ** 2).sum() + (b.grad ** 2).sum()))
    assert abs(clipped - 1.0) <= 1e-12
    # small gradients pass through untouched
    a.grad = np.full(3, 1e-3)
    b.grad = np.full(4, 1e-3)
    TR.clip_gradients(params, 1.0)
    assert np.array_equal(a.grad, np.full(3, 1e-3))


def test_k_effective_schedule():
    mc = M.ModelConfig(vocab_size=10, model_dim=8, ffn_dim=8, xlnet_layers=1,
                       transformer_layers=0, num_heads=2, clip_k=8,
                       entity_types=("PER",))
    tc = TR.TrainConfig(clip_k_start=1, clip_k_end=8)
    ks = [TR.k_effective(mc, tc, e, 8) for e in range(1, 9)]
    assert ks[0] == 1 and ks[-1] == 8
    assert all(a <= b for a, b in zip(ks, ks[1:]))
    # disabled when either end is 0
    assert TR.k_effective(mc, TR.TrainConfig(), 1, 8) is None
    # bounded by the table radius
    tc2 = TR.TrainConfig(clip_k_start=1, clip_k_end=50)
    assert TR.k_effective(mc, tc2, 8, 8) == 8


def test_train_uses_the_model_dropout(tmp_path, monkeypatch):
    # the model config is the one home of the rate: 0.0 draws no mask
    draws = []
    real = DualDropoutStreams.mask
    monkeypatch.setattr(DualDropoutStreams, "mask",
                        lambda self, *args: draws.append(args) or real(self, *args))
    corpus = generate_corpus(8, seed=4)
    mc = M.ModelConfig(model_dim=8, ffn_dim=8, xlnet_layers=1, transformer_layers=1,
                       num_heads=2, clip_k=2, dropout=0.0)
    path = str(tmp_path / "model.ckpt")
    report = TR.train(corpus, corpus, mc, TR.TrainConfig(epochs=1), checkpoint_path=path)
    assert report.model_config.dropout == 0.0
    assert load_checkpoint(path).model_config.dropout == 0.0
    assert draws == []


def test_loss_decreases_on_toy_problem():
    corpus = generate_corpus(20, seed=4)
    mc = M.ModelConfig(model_dim=16, ffn_dim=32, xlnet_layers=1,
                       transformer_layers=1, num_heads=2, clip_k=4,
                       entity_types=("LOC", "ORG", "PER"), dropout=0.1)
    tc = TR.TrainConfig(epochs=10, batch_size=4, seed=3)
    lines = []
    TR.train(corpus, corpus, mc, tc, log=lines.append)
    totals = [float(l.split("\t")[4]) for l in lines if not l.startswith("epoch")]
    first = np.mean(totals[:5])
    last = np.mean(totals[-5:])
    assert last < first


def _rdrop_step(t):
    """A function that runs one R-Drop training forward to its loss, at
    the default config, B = 2, T = t; parameters and inputs are made
    (and the grads zeroed) before it is returned."""
    config = replace(M.ModelConfig(), vocab_size=60, entity_types=("LOC", "ORG", "PER"))
    params = M.init_params(config, Rng(0, 0), "float64")
    rng = Rng(1, 1)
    ids = (rng.uniform((2, t)) * 60).astype(np.int64)
    tags = (rng.uniform((2, t)) * config.num_tags).astype(np.int64)
    T.zero_grads(params.values())

    def forward():
        lp1, lp2 = TR.branch_log_probs(ids, config, params, DualDropoutStreams(3, 1))
        return TR.rdrop_loss(lp1, lp2, tags, 1.0).total

    return forward


def _rdrop_step_traced_bytes():
    """(held, peak): bytes traced by tracemalloc (this process's
    allocations only) when the R-Drop forward returns, and at the peak of
    the backward sweep after it, at the default config, B = 2, T = 64."""
    forward = _rdrop_step(64)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = forward()
        held = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        T.backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    return held, peak


def test_rdrop_step_peak_memory_stays_near_the_forward():
    """The backward sweep peaks at most 1.35x what the forward holds when
    it returns. With graph nodes that hold no forward values, releasing
    intermediate grads and saving boolean keep-masks, it read 1.27 here
    (the forward holds less, so the ratio rose from 1.13 when every op
    output stayed alive), and 1.24 once attention saved the softmax, not
    the dropped weights; a sweep that keeps every grad, with float
    dropout factors and every op output alive, read 1.68. Once attend
    rebuilt its softmax in backward, the forward held less again and the
    ratio read 1.29 with 256 KiB chunks (1.38 with 512 KiB chunks, one
    chunk at this shape)."""
    held, peak = _rdrop_step_traced_bytes()
    assert peak / held <= 1.35, (peak, held)


def test_rdrop_forward_holds_only_what_backward_reads():
    """The R-Drop forward holds at most 16 MB once it returns: 9.5 MB
    when attention saves neither the softmax nor the dropped weights,
    10.9 MB when it saved the softmax, 13.0 MB when it saved both, 26.5 MB
    when every op output stayed alive until the step ended."""
    held, _ = _rdrop_step_traced_bytes()
    assert held <= 16e6, held


def test_rdrop_forward_saves_no_float_attention_matrix():
    """After an R-Drop forward, no backward closure saves a float
    (..., Tq, Tk) array: attend rebuilds its scores and softmax chunk by
    chunk in backward, and keeps only the bool keep-masks at that shape.
    T = 48 is none of the model's widths, so any float array ending in
    (48, 48) is an attention matrix."""
    spec = importlib.util.spec_from_file_location(
        "graph_bytes", Path(__file__).resolve().parents[1] / "scripts" / "graph_bytes.py")
    graph = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(graph)
    loss = _rdrop_step(48)()
    square = [(node._backward.__qualname__, name, held.dtype)
              for node in graph.graph_nodes(loss) if node._backward is not None
              for name, held in graph.saved_arrays(node._backward)
              if held.shape[-2:] == (48, 48)]
    assert square and all(dtype == np.bool_ for _, _, dtype in square), square
