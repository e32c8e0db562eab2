"""Finite-difference verification of the full training gradient.

Builds a tiny but complete model (both stacks, R-Drop loss, dropout
active under fixed mask streams) and compares every parameter group's
reverse-mode gradient against central differences."""

from __future__ import annotations

import numpy as np

from . import model as M
from . import tensor as T
from .errors import ContractError
from .model import ModelConfig
from .rng import DualDropoutStreams, Rng
from .training import rdrop_loss

TOLERANCE = 1e-4


def tiny_config(pe_mode: str) -> ModelConfig:
    return ModelConfig(vocab_size=50, model_dim=16, ffn_dim=16, xlnet_layers=2,
                       transformer_layers=2, num_heads=2, clip_k=2, pe_mode=pe_mode,
                       memory_len=0, dropout=0.1,
                       entity_types=("LOC", "ORG", "PER"))


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Elementwise |a - n| / max(1, |a|, |n|), reduced to the worst case.

    The floor of 1 keeps finite-difference noise on near-zero entries
    from drowning the comparison; real gradient bugs show up orders of
    magnitude above it."""
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float((np.abs(analytic - numeric) / denom).max())


class _ReplayedMasks:
    """Dropout streams that draw each site's mask once and then replay it.

    The first forward draws from DualDropoutStreams(seed, 7) and keeps the
    masks in site order; after restart() every later forward gets the same
    read-only arrays back, so all evaluations see identical masks without
    rebuilding the Philox streams per forward."""

    def __init__(self, seed: int):
        self._streams = DualDropoutStreams(seed, 7)
        self._masks: list[np.ndarray] = []
        self._site = 0

    def restart(self) -> None:
        self._site = 0

    def mask(self, shape, drop_prob: float) -> np.ndarray:
        if self._site == len(self._masks):
            keep = self._streams.mask(shape, drop_prob)
            keep.setflags(write=False)
            self._masks.append(keep)
        keep = self._masks[self._site]
        if keep.shape != tuple(shape):
            raise ContractError(f"dropout site {self._site} replayed with shape "
                                f"{tuple(shape)}, drawn with {keep.shape}")
        self._site += 1
        return keep


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
    dup = np.concatenate([ids, ids], axis=0)
    streams = _ReplayedMasks(seed)

    def loss_fn():
        # replayed from site 0 so every evaluation sees identical masks
        streams.restart()
        lp, _ = M.forward_ner(dup, None, config, params, streams, True)
        lp1 = T.slice_axis(lp, 0, 0, 1)
        lp2 = T.slice_axis(lp, 0, 1, 2)
        return rdrop_loss(lp1, lp2, tags, 1.0, mask).total

    T.zero_grads(params.values())
    T.backward(loss_fn())
    analytic = {name: p.grad.copy() for name, p in params.items()}
    numeric = T.finite_diff_grad(loss_fn, list(params.values()))
    return {name: max_rel_err(analytic[name], num)
            for name, num in zip(params, numeric)}


def gradcheck_passes(errors: dict[str, float]) -> bool:
    return all(err <= TOLERANCE for err in errors.values())
