"""Permutation language modeling: factorization orders, visibility masks,
two-stream attention.

A sampled factorization order z turns bidirectional context into a
causal structure over ranks: the query stream for token i may see
exactly the tokens that precede i in z (never i itself), while the
content stream also sees i. Training predicts the tokens holding the
last ceil(0.15 n) ranks of z from the query stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import relpos
from . import tensor as T
from .errors import ContractError
from .rng import Rng
from .tensor import Tensor


def target_count(n: int) -> int:
    """How many tokens (the tail of the order) are predicted."""
    return math.ceil(0.15 * n)


@dataclass
class PermutationPlan:
    """One sampled factorization order and everything derived from it.

    order[t] is the token position holding rank t; rank is its inverse.
    Masks are indexed [query token i][key token j]."""

    order: np.ndarray
    rank: np.ndarray
    targets: np.ndarray
    query_mask: np.ndarray
    content_mask: np.ndarray


def make_plan(order) -> PermutationPlan:
    """The plan of one factorization order. Its query_mask[i][j] is True
    iff rank[j] < rank[i] (strict: a token never sees itself); its
    content_mask allows equality."""
    order = np.asarray(order, dtype=np.int64)
    n = order.shape[0]
    if n < 1:
        raise ContractError("empty factorization order")
    if sorted(order.tolist()) != list(range(n)):
        raise ContractError(f"not a permutation of range({n}): {order.tolist()}")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n, dtype=np.int64)
    targets = np.sort(order[n - target_count(n):])
    return PermutationPlan(order, rank, targets, rank[None, :] < rank[:, None],
                           rank[None, :] <= rank[:, None])


def sample_permutation(n: int, rng: Rng) -> PermutationPlan:
    """Uniform factorization order (Fisher-Yates) plus derived masks."""
    if n < 1:
        raise ContractError(f"need n >= 1 tokens, got {n}")
    return make_plan(rng.permutation(n))


def extend_mask_for_memory(mask: np.ndarray, mem_len: int) -> np.ndarray:
    """Prepend an all-visible block: cached segment states carry no
    current-segment content, so both streams may always attend to them."""
    if mem_len == 0:
        return mask
    block = np.ones((mask.shape[0], mem_len), dtype=bool)
    return np.concatenate([block, mask], axis=1)


def two_stream_layer(h_prev: Tensor, g_prev: Tensor, query_mask, content_mask,
                     block: relpos.BlockParams, config, rel_table=None, rel_index=None,
                     memory=None, streams=None) -> tuple[Tensor, Tensor]:
    """One pre-norm block over both streams with shared weights.

    Content stream: queries from h, content_mask. Query stream: queries
    from g, query_mask. Both read keys/values from [memory ; h]; memory,
    if given, is a (B, M, D) array of the previous segment's states,
    visible to both streams."""
    kv = None if memory is None else T.concat([Tensor(memory), h_prev], axis=1)
    return relpos.block_forward((h_prev, g_prev), (content_mask, query_mask), kv,
                                block, config, rel_table, rel_index, streams)


def plm_loss(g_final: Tensor, targets, token_ids, head_w: Tensor, head_b: Tensor) -> Tensor:
    """Mean cross entropy of the true tokens at the target positions,
    predicted from the query stream. g_final (B, T, D); targets are
    positions into T; token_ids (B, T) holds the identities."""
    targets = np.asarray(targets, dtype=np.int64)
    if targets.size == 0:
        raise ContractError("no prediction targets")
    ids = np.asarray(token_ids, dtype=np.int64)
    picked = T.take(g_final, targets, axis=1)  # (B, |targets|, D)
    logits = T.linear(picked, head_w, head_b)
    log_probs = T.log_softmax(logits, axis=-1)
    return T.cross_entropy(log_probs, ids[:, targets])
