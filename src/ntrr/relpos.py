"""Multi-head attention with clipped relative positional encodings.

Relative mode replaces the usual position-in-the-input signal with two
learned tables indexed by clipped displacement: one added to keys when
scoring, one added to values when mixing. Displacements are clipped to
[-k, k], so the tables have 2k+1 rows whatever the sequence length, and
scores depend only on relative offsets, never absolute positions.
Absolute mode keeps the classic sinusoidal encoding added to the input
embeddings; the attention itself is then plain scaled dot product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, ShapeError
from .tensor import Tensor

PE_MODES = ("absolute", "relative")


@dataclass
class AttentionConfig:
    model_dim: int
    num_heads: int
    clip_k: int
    mode: str = "relative"
    attn_dropout: float = 0.0

    def __post_init__(self):
        if self.model_dim % self.num_heads != 0:
            raise ConfigError(
                f"model_dim {self.model_dim} not divisible by num_heads {self.num_heads}")
        if self.mode not in PE_MODES:
            raise ConfigError(f"unknown pe mode '{self.mode}'")
        if self.mode == "relative" and self.clip_k < 1:
            raise ConfigError(f"relative mode needs clip_k >= 1, got {self.clip_k}")

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.num_heads


@dataclass
class RelPosTable:
    """Learned displacement tables, shared by every head of a stack.

    Row r of each (2k+1, head_dim) table is the embedding of clipped
    displacement r - k; wk enters the scores, wv the mixed values."""

    wk: Tensor
    wv: Tensor

    def __post_init__(self):
        if self.wk.shape != self.wv.shape or self.wk.ndim != 2:
            raise ShapeError(f"table shapes disagree: {self.wk.shape} vs {self.wv.shape}")
        if self.wk.shape[0] % 2 != 1:
            raise ShapeError(f"table must have an odd row count, got {self.wk.shape[0]}")

    @property
    def k(self) -> int:
        return (self.wk.shape[0] - 1) // 2


@dataclass
class AttentionParams:
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor


@dataclass
class BlockParams:
    """One pre-norm transformer block: attention + feed-forward bundles."""

    ln1_g: Tensor
    ln1_b: Tensor
    attn: AttentionParams
    ln2_g: Tensor
    ln2_b: Tensor
    ffn_w1: Tensor
    ffn_b1: Tensor
    ffn_w2: Tensor
    ffn_b2: Tensor


def feed_forward(x: Tensor, block: BlockParams) -> Tensor:
    """Position-wise two-layer gelu MLP."""
    return T.linear(T.gelu(T.linear(x, block.ffn_w1, block.ffn_b1)),
                    block.ffn_w2, block.ffn_b2)


def clip_rel(x: int, k: int) -> int:
    """Clamp a displacement to [-k, k]."""
    return max(-k, min(k, x))


def displacement_index(positions_q, positions_k, k: int, k_eff: int | None = None) -> np.ndarray:
    """(Tq, Tk) table rows: clip(pos_k - pos_q) shifted to [0, 2k].

    k is the table radius; k_eff <= k optionally narrows the clip while
    keeping the table shape fixed (the radius schedule uses this)."""
    pq = np.asarray(positions_q, dtype=np.int64)
    pk = np.asarray(positions_k, dtype=np.int64)
    if k_eff is None:
        k_eff = k
    if not 1 <= k_eff <= k:
        raise ContractError(f"k_eff {k_eff} outside [1, {k}]")
    disp = pk[None, :] - pq[:, None]
    return np.clip(disp, -k_eff, k_eff) + k


def sinusoidal_pe(positions, model_dim: int, dtype=np.float64) -> np.ndarray:
    """Classic interleaved sin/cos encoding for given absolute positions.

    Column 2i is sin(pos / 10000^(2i/d)), column 2i+1 the matching cos,
    so position 0 encodes to [0, 1, 0, 1, ...]."""
    if model_dim % 2 != 0:
        raise ConfigError(f"sinusoidal encoding needs an even dim, got {model_dim}")
    pos = np.asarray(positions, dtype=np.float64)[:, None]
    half = np.arange(model_dim // 2, dtype=np.float64)
    freq = 1.0 / np.power(10000.0, 2.0 * half / model_dim)
    pe = np.empty((pos.shape[0], model_dim), dtype=dtype)
    pe[:, 0::2] = np.sin(pos * freq)
    pe[:, 1::2] = np.cos(pos * freq)
    return pe


def rel_attention_scores(q: Tensor, k: Tensor, rel_table: RelPosTable | None,
                         positions_q, positions_k, k_eff: int | None = None) -> Tensor:
    """Scaled attention scores with the relative key correction.

    q (..., Tq, d), k (..., Tk, d) -> (..., Tq, Tk). Each score is
    q_i . (k_l + table_row(pos_l - pos_q_i)) / sqrt(d); with no table
    this is plain scaled dot product."""
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"head dims disagree: {q.shape} vs {k.shape}")
    d = q.shape[-1]
    scores = T.matmul(q, T.permute(k, _swap_last(k.ndim)))
    if rel_table is not None:
        idx = displacement_index(positions_q, positions_k, rel_table.k, k_eff)
        per_disp = T.matmul(q, T.permute(rel_table.wk, (1, 0)))  # (..., Tq, 2k+1)
        scores = scores + T.index_select_last(per_disp, idx)
    return scores * (1.0 / np.sqrt(d))


def rel_attention_values(attn: Tensor, v: Tensor, rel_table: RelPosTable | None,
                         positions_q, positions_k, k_eff: int | None = None) -> Tensor:
    """Weighted value mix with the relative value correction.

    attn (..., Tq, Tk) rows are attention weights; output i is
    sum_l attn_il (v_l + table_row(pos_l - pos_q_i))."""
    out = T.matmul(attn, v)
    if rel_table is not None:
        idx = displacement_index(positions_q, positions_k, rel_table.k, k_eff)
        pooled = T.index_bucket_last(attn, idx, rel_table.wk.shape[0])  # (..., Tq, 2k+1)
        out = out + T.matmul(pooled, rel_table.wv)
    return out


def _swap_last(ndim: int):
    axes = list(range(ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return tuple(axes)


def split_heads(x: Tensor, num_heads: int) -> Tensor:
    """(B, T, D) -> (B, H, T, D/H)."""
    b, t, d = x.shape
    return T.permute(T.reshape(x, (b, t, num_heads, d // num_heads)), (0, 2, 1, 3))


def merge_heads(x: Tensor) -> Tensor:
    """(B, H, T, d) -> (B, T, H*d)."""
    b, h, t, d = x.shape
    return T.reshape(T.permute(x, (0, 2, 1, 3)), (b, t, h * d))


def multi_head_attention(x_q: Tensor, x_kv: Tensor, config: AttentionConfig,
                         params: AttentionParams, mask, positions_q, positions_k,
                         rel_table: RelPosTable | None = None, streams=None,
                         train: bool = False, k_eff: int | None = None) -> Tensor:
    """Full attention sublayer body: project, score, mix, merge, project.

    mask broadcasts to (B, H, Tq, Tk); True marks an admissible key.
    Queries whose whole row is masked out produce exactly zero vectors.
    Residual connections and normalization belong to the caller."""
    if config.mode == "relative":
        if rel_table is None:
            raise ContractError("relative mode needs a displacement table")
    else:
        rel_table = None
    q = split_heads(T.linear(x_q, params.wq, params.bq), config.num_heads)
    k = split_heads(T.linear(x_kv, params.wk, params.bk), config.num_heads)
    v = split_heads(T.linear(x_kv, params.wv, params.bv), config.num_heads)
    scores = rel_attention_scores(q, k, rel_table, positions_q, positions_k, k_eff)
    weights = T.masked_softmax(scores, True if mask is None else mask)
    if train and config.attn_dropout > 0.0:
        if streams is None:
            raise ContractError("training forward needs dropout streams")
        weights = T.dropout(weights, config.attn_dropout, streams.mask(weights.shape, config.attn_dropout))
    mixed = rel_attention_values(weights, v, rel_table, positions_q, positions_k, k_eff)
    return T.linear(merge_heads(mixed), params.wo, params.bo)
