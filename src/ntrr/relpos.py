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


class HeadCache:
    """One block's K and V heads, (B, H, M, d), of every column that a
    no-grad run of segments has passed through it, in buffers sized for
    capacity columns on the first join. It stands in for the block's raw
    memory, so a segment normalises and projects only its own rows."""

    __slots__ = ("capacity", "length", "k", "v")

    def __init__(self, capacity: int):
        self.capacity, self.length, self.k, self.v = capacity, 0, None, None

    def join(self, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        """The cached heads and a segment's own k, v, as one run of columns,
        which the cache keeps for the next segment."""
        if k.requires_grad or v.requires_grad:
            raise ContractError("a head cache only runs under no_grad")
        end = self.length + k.shape[2]
        if self.k is None:
            shape = k.shape[:2] + (self.capacity, k.shape[3])
            self.k, self.v = np.empty(shape, k.dtype), np.empty(shape[:3] + v.shape[3:], v.dtype)
        self.k[:, :, self.length:end], self.v[:, :, self.length:end] = k.data, v.data
        self.length = end
        return Tensor(self.k[:, :, :end]), Tensor(self.v[:, :, :end])


def feed_forward(x: Tensor, block: BlockParams) -> Tensor:
    """Position-wise two-layer gelu MLP."""
    return T.linear(T.gelu(T.linear(x, block.ffn_w1, block.ffn_b1)),
                    block.ffn_w2, block.ffn_b2)


def _site_keep(shape, drop_prob: float, streams) -> np.ndarray | None:
    """The next keep-mask from streams (a training forward), else None."""
    if streams is None or drop_prob == 0.0:
        return None
    return streams.mask(shape, drop_prob)


def dropout_site(x: Tensor, drop_prob: float, streams) -> Tensor:
    """One dropout site: the next mask from streams, if given (a training forward)."""
    keep = _site_keep(x.shape, drop_prob, streams)
    return x if keep is None else T.dropout(x, drop_prob, keep)


def block_forward(xs: tuple[Tensor, ...], masks, kv: Tensor | HeadCache | None,
                  block: BlockParams, config, rel_table: RelPosTable | None = None,
                  rel_index: T.BucketIndex | None = None, streams=None) -> tuple[Tensor, ...]:
    """One pre-norm block over a tuple of query streams with shared weights.

    Stream s attends under masks[s] to keys and values from kv, the
    block's (B, Tk, D) key input before normalisation, or from xs[0]
    when kv is None. A HeadCache kv (one query stream, no grad) holds the
    heads of the columns before xs[0] and takes xs[0]'s. config is the
    ModelConfig. A rel_table makes attention relative, with rel_index the
    relative_index of the queries over those keys; dropout streams make
    it a training pass.
    The query streams advance in lockstep, one sublayer at a time: all
    attentions, then all attention residuals, then all FFN residuals.
    That order fixes which dropout mask each site draws; every site
    drops at config.dropout."""
    normed = [T.layer_norm(x, block.ln1_g, block.ln1_b) for x in xs]
    cache = kv if isinstance(kv, HeadCache) else None
    if cache is not None and len(xs) != 1:
        raise ContractError(f"a head cache serves one query stream, got {len(xs)}")
    normed_kv = (T.layer_norm(kv, block.ln1_g, block.ln1_b) if isinstance(kv, Tensor)
                 else normed[0])
    atts = [multi_head_attention(q, normed_kv, config, block.attn, mask,
                                 rel_table, rel_index, streams, cache)
            for q, mask in zip(normed, masks)]
    xs = [x + dropout_site(a, config.dropout, streams) for x, a in zip(xs, atts)]
    return tuple(x + dropout_site(feed_forward(T.layer_norm(x, block.ln2_g, block.ln2_b), block),
                                  config.dropout, streams)
                 for x in xs)


def displacement_index(positions_q, positions_k, k: int, k_eff: int | None = None) -> np.ndarray:
    """(Tq, Tk) table rows: clip(pos_k - pos_q) shifted to [0, 2k].

    k is the table radius; k_eff <= k optionally narrows the clip while
    keeping the table shape fixed (the radius schedule uses this)."""
    pq = np.asarray(positions_q, dtype=np.int64)
    pk = np.asarray(positions_k, dtype=np.int64)
    k_eff = k if k_eff is None else k_eff
    if not 1 <= k_eff <= k:
        raise ContractError(f"k_eff {k_eff} outside [1, {k}]")
    disp = pk[None, :] - pq[:, None]
    return np.clip(disp, -k_eff, k_eff) + k


def relative_index(positions_q, positions_k, k: int, k_eff: int | None = None) -> T.BucketIndex:
    """displacement_index as a checked index into the 2k+1 table rows.

    Build it once per forward for each key length and hand it to every
    block whose queries and keys sit at these positions."""
    return T.BucketIndex(displacement_index(positions_q, positions_k, k, k_eff), 2 * k + 1)


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


def _per_disp(q: Tensor, rel_table: RelPosTable) -> Tensor:
    """(..., Tq, 2k+1): each query's score against every displacement row."""
    return T.matmul(q, T.permute(rel_table.wk, (1, 0)))


def rel_attention_scores(q: Tensor, k: Tensor, rel_table: RelPosTable | None,
                         rel_index: T.BucketIndex | None = None) -> Tensor:
    """Scaled attention scores with the relative key correction.

    q (..., Tq, d), k (..., Tk, d) -> (..., Tq, Tk). Each score is
    q_i . (k_l + table_row(pos_l - pos_q_i)) / sqrt(d), with the table
    rows picked by rel_index (a relative_index); with no table this is
    plain scaled dot product. These are the unfused ops whose scores
    tensor.attend builds itself, bitwise."""
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"head dims disagree: {q.shape} vs {k.shape}")
    scores = T.matmul(q, T.permute(k, (*range(k.ndim - 2), k.ndim - 1, k.ndim - 2)))
    if rel_table is not None:
        scores = scores + T.index_select_last(_per_disp(q, rel_table), rel_index)
    return scores * (1.0 / np.sqrt(q.shape[-1]))


def rel_attention_values(attn: Tensor, v: Tensor, rel_table: RelPosTable | None,
                         rel_index: T.BucketIndex | None = None) -> Tensor:
    """Weighted value mix with the relative value correction.

    attn (..., Tq, Tk) rows are attention weights; output i is
    sum_l attn_il (v_l + table_row(pos_l - pos_q_i)), with the table
    rows picked by rel_index."""
    out = T.matmul(attn, v)
    if rel_table is not None:
        pooled = T.index_bucket_last(attn, rel_index)  # (..., Tq, 2k+1)
        out = out + T.matmul(pooled, rel_table.wv)
    return out


def split_heads(x: Tensor, num_heads: int) -> Tensor:
    """(B, T, D) -> (B, H, T, D/H)."""
    b, t, d = x.shape
    return T.permute(T.reshape(x, (b, t, num_heads, d // num_heads)), (0, 2, 1, 3))


def merge_heads(x: Tensor) -> Tensor:
    """(B, H, T, d) -> (B, T, H*d)."""
    b, h, t, d = x.shape
    return T.reshape(T.permute(x, (0, 2, 1, 3)), (b, t, h * d))


def multi_head_attention(x_q: Tensor, x_kv: Tensor, config, params: AttentionParams, mask,
                         rel_table: RelPosTable | None = None,
                         rel_index: T.BucketIndex | None = None, streams=None,
                         cache: HeadCache | None = None) -> Tensor:
    """Full attention sublayer body: project, score, mix, merge, project.

    config is the ModelConfig. mask broadcasts to (B, H, Tq, Tk); True
    marks an admissible key, and the keys are the cache's columns, if
    given, then x_kv's. Queries whose whole row is masked out
    produce exactly zero vectors. Attention is relative exactly when it
    gets a table, together with the relative_index of the queries over
    the keys. Dropout streams, if given, drop the attention weights.
    Residual connections and normalization belong to the caller."""
    if (rel_table is None) != (rel_index is None):
        raise ContractError("relative attention needs both a displacement table and an index")
    q = split_heads(T.linear(x_q, params.wq, params.bq), config.num_heads)
    k = split_heads(T.linear(x_kv, params.wk, params.bk), config.num_heads)
    v = split_heads(T.linear(x_kv, params.wv, params.bv), config.num_heads)
    if cache is not None:
        k, v = cache.join(k, v)
    keep = _site_keep(q.shape[:-1] + k.shape[-2:-1], config.dropout, streams)
    rel = () if rel_table is None else (_per_disp(q, rel_table), rel_index, rel_table.wv)
    mixed = T.attend(q, k, True if mask is None else mask, v, keep, config.dropout, *rel)
    return T.linear(merge_heads(mixed), params.wo, params.bo)
