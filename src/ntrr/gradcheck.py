"""Finite-difference verification of the full training gradient.

Builds a tiny but complete model (both stacks, R-Drop loss, dropout
active under fixed mask streams) and compares every parameter group's
reverse-mode gradient against central differences.

Staged: the analytic forward records each stage's input (model.Stages),
and a parameter's evaluations resume at the first stage reading it:
`embed` the full forward, a block's parameters that block, a stack's
`rel_wk`/`rel_wv` its first block, the rest the head (`w_init` and
`plm_head_*` too: no NER forward reads them). Each of the 2 * N + 1
evaluations still runs training.branch_log_probs and rdrop_loss."""

from __future__ import annotations

import numpy as np

from . import model as M
from . import tensor as T
from . import training as TR
from .errors import ContractError
from .model import ModelConfig
from .rng import DualDropoutStreams, Rng
from .training import rdrop_loss

TOLERANCE = 1e-4


def tiny_config(pe_mode: str) -> ModelConfig:
    return ModelConfig(vocab_size=50, model_dim=16, ffn_dim=16, xlnet_layers=2,
                       transformer_layers=2, num_heads=2, clip_k=2, pe_mode=pe_mode,
                       dropout=0.1, entity_types=("LOC", "ORG", "PER"))


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Elementwise |a - n| / max(1, |a|, |n|), reduced to the worst case.

    The floor of 1 keeps finite-difference noise on near-zero entries
    from drowning the comparison; real gradient bugs show up orders of
    magnitude above it."""
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float((np.abs(analytic - numeric) / denom).max())


class _ReplayedMasks(DualDropoutStreams):
    """DualDropoutStreams(seed, 7) that draws each site's mask once and
    then replays it: rewinding `site` gives every later forward the same
    read-only arrays without rebuilding the Philox streams."""

    def __init__(self, seed: int):
        super().__init__(seed, 7)
        self._masks: list[np.ndarray] = []

    def mask(self, shape, drop_prob: float) -> np.ndarray:
        if self.site == len(self._masks):
            keep = super().mask(shape, drop_prob)
            keep.setflags(write=False)
            self._masks.append(keep)
            return keep
        keep = self._masks[self.site]
        if keep.shape != tuple(shape):
            raise ContractError(f"dropout site {self.site} replayed with shape "
                                f"{tuple(shape)}, drawn with {keep.shape}")
        self.site += 1
        return keep


def _stage(name: str, config: ModelConfig) -> int | None:
    """The first stage that reads parameter name; None for the embedding."""
    parts = name.split(".")
    if parts[0] not in ("xl", "tr"):
        return None if name == "embed" else config.num_layers
    first = 0 if parts[0] == "xl" else config.xlnet_layers
    return first + (int(parts[1]) if len(parts) == 3 else 0)


def gradcheck_model(pe_mode: str, seed: int = 0) -> dict[str, float]:
    """Max relative error per parameter group for the R-Drop NER loss."""
    config = tiny_config(pe_mode)
    rng = Rng.for_stream(seed, "gradcheck")
    params = M.init_params(config, rng.derive("init"), "float64")
    t = 5
    ids = np.array([[int(rng.derive("ids", i).randbelow(config.vocab_size))
                     for i in range(t)]], dtype=np.int64)
    tags = np.array([[int(rng.derive("tags", i).randbelow(config.num_tags))
                      for i in range(t)]], dtype=np.int64)
    mask = np.ones((1, t), dtype=bool)
    streams = _ReplayedMasks(seed)
    stages = M.Stages()

    def loss_fn():
        # masks replayed from the first stage's site, as a full forward draws them
        streams.site = 0 if stages.start is None else stages.sites[stages.start]
        lp1, lp2 = TR.branch_log_probs(ids, config, params, streams, stages=stages)
        return rdrop_loss(lp1, lp2, tags, 1.0, mask).total

    T.zero_grads(params.values())
    T.backward(loss_fn())
    analytic = {name: p.grad.copy() for name, p in params.items()}
    numeric = {}
    for stages.start in dict.fromkeys(_stage(name, config) for name in params):
        names = [name for name in params if _stage(name, config) == stages.start]
        numeric.update(zip(names, T.finite_diff_grad(loss_fn, [params[n] for n in names])))
    return {name: max_rel_err(analytic[name], numeric[name]) for name in params}
