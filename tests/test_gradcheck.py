"""Staged gradcheck: every staged loss equals the full forward's loss, and
the errors of gradcheck_model are pinned."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

import ntrr.gradcheck as G
import ntrr.model as M
import ntrr.relpos as relpos
import ntrr.tensor as T
import ntrr.training as TR
from ntrr.rng import DualDropoutStreams, Rng

# perfbench/workloads.py's GRADCHECK_SHRINK: seconds per gradcheck, not a minute
SHRINK = dict(model_dim=8, ffn_dim=8, vocab_size=12, xlnet_layers=1, transformer_layers=1)
# sha256 of repr(sorted(errors.items())) at seed 0 on the shrunk tiny model
PINNED_ERRORS = {
    "relative": "e97b681b45e72abea2f94872ce92c50a4cf22f25dcee43c03856f32a76fd66fd",
    "absolute": "3206ba4c5213c36c2efb7dda16bf287a9d5a693caaa3268a32c047cf543c5f00",
}


# masks are keyed by site, so a plain stream rewound through `site`
# regenerates what the replay class hands back from its cache
STREAMS = {"replayed": lambda: G._ReplayedMasks(0), "plain": lambda: DualDropoutStreams(0, 7)}


@pytest.mark.parametrize("mode, kind", [
    ("relative", "replayed"), ("absolute", "replayed"), ("relative", "plain"), ("absolute", "plain"),
], ids=["relative", "absolute", "relative-plain", "absolute-plain"])
def test_staged_loss_equals_full_forward(mode, kind, monkeypatch):
    config = replace(G.tiny_config(mode), **SHRINK)
    params = M.init_params(config, Rng(5, 1))
    ids = np.array([[3, 0, 11, 7, 3]])
    tags = np.array([[0, 4, 12, 1, 2]])
    mask = np.ones((1, 5), dtype=bool)
    streams = STREAMS[kind]()
    stages = M.Stages()

    def loss(staged):
        streams.site = (0 if staged is None or staged.start is None
                        else staged.sites[staged.start])
        with T.no_grad():
            lp1, lp2 = TR.branch_log_probs(ids, config, params, streams, stages=staged)
            return TR.rdrop_loss(lp1, lp2, tags, 1.0, mask).total.item()

    # where an unstaged forward enters each block
    entered = []
    inner = relpos.block_forward

    def block_forward(*args, **kwargs):
        entered.append(streams.site)
        return inner(*args, **kwargs)

    monkeypatch.setattr(relpos, "block_forward", block_forward)
    base = loss(stages)  # the first staged forward records
    loss(None)
    monkeypatch.undo()
    assert len(stages.inputs) == config.num_layers + 1
    assert stages.sites[:config.num_layers] == entered[:config.num_layers]
    assert entered[:config.num_layers] == entered[config.num_layers:]

    # one value of every parameter; each stage has one that moves the loss
    moved = set()
    for name, p in params.items():
        stages.start = G._stage(name, config)
        orig = p.data.flat[1]
        p.data.flat[1] = orig + 0.5
        full = loss(None)
        assert loss(stages) == full, name
        if full != base:
            moved.add(stages.start)
        p.data.flat[1] = orig
    assert moved == {None, *range(config.num_layers + 1)}


@pytest.mark.parametrize("mode", ["relative", "absolute"])
def test_gradcheck_errors_are_pinned(mode, monkeypatch):
    tiny = G.tiny_config
    monkeypatch.setattr(G, "tiny_config", lambda pe_mode: replace(tiny(pe_mode), **SHRINK))
    errors = G.gradcheck_model(mode, seed=0)
    digest = hashlib.sha256(repr(sorted(errors.items())).encode()).hexdigest()
    assert digest == PINNED_ERRORS[mode]
