"""Model assembly: embeddings, recurrent encoder stacks, classifier.

The encoder is two pre-norm stacks sharing one architecture: a lower
stack that is pretrained with permutation-LM two-stream attention, and
an upper stack added for tagging. Both run left to right over
[cached memory ; current segment] keys, so states cached from the
previous segment reproduce exactly what an unsplit pass would compute.
One loop runs the blocks of every forward: fine-tuning and inference
pass the content stream alone under the causal mask, pretraining the
content and query streams under a permutation plan's masks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import plm, relpos
from . import tensor as T
from .errors import ConfigError, ContractError, ShapeError
from .rng import Rng
from .tagging import LabelSet, legal_transitions
from .tensor import Tensor

DTYPES = {"float64": np.float64, "float32": np.float32}
DECODE_MODES = ("greedy", "constrained")
TOKEN_MODES = ("char", "whitespace")
TAG_BATCH = 32  # sentences per tagging batch
TAG_CELLS = TAG_BATCH * 128 ** 2  # rows x longest^2 per tagging batch
TAG_SEG = 128  # tokens per tagging forward; earlier tokens are its memory
MAX_TAG_TOKENS = 4096  # longest sentence eval and predict tag; memory grows with it


@dataclass
class ModelConfig:
    vocab_size: int = 0  # 0 until a vocabulary is attached
    model_dim: int = 64
    ffn_dim: int = 128
    xlnet_layers: int = 2
    transformer_layers: int = 2
    num_heads: int = 4
    clip_k: int = 8
    pe_mode: str = "relative"
    memory_len: int = 0
    dropout: float = 0.15
    decode_mode: str = "constrained"
    token_mode: str = "char"
    entity_types: tuple[str, ...] = ()

    def __post_init__(self):
        for key, low in (("vocab_size", 0), ("model_dim", 1), ("ffn_dim", 1), ("num_heads", 1),
                         ("clip_k", 1), ("xlnet_layers", 1), ("transformer_layers", 0),
                         ("memory_len", 0)):
            if getattr(self, key) < low:
                raise ConfigError(f"{key} must be >= {low}, got {getattr(self, key)}")
        if self.model_dim % self.num_heads != 0:
            raise ConfigError(
                f"model_dim {self.model_dim} not divisible by num_heads {self.num_heads}")
        if self.pe_mode not in relpos.PE_MODES:
            raise ConfigError(f"unknown pe_mode '{self.pe_mode}'")
        if self.pe_mode == "absolute" and self.model_dim % 2 != 0:
            raise ConfigError("absolute mode needs an even model_dim")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.decode_mode not in DECODE_MODES:
            raise ConfigError(f"unknown decode_mode '{self.decode_mode}'")
        if self.token_mode not in TOKEN_MODES:
            raise ConfigError(f"unknown token_mode '{self.token_mode}'")
        try:
            LabelSet(tuple(self.entity_types))
        except ContractError as exc:
            raise ConfigError(f"entity_types: {exc}") from None

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.num_heads

    @property
    def num_layers(self) -> int:
        return self.xlnet_layers + self.transformer_layers

    @property
    def label_set(self) -> LabelSet:
        return LabelSet(tuple(self.entity_types))

    @property
    def num_tags(self) -> int:
        return 1 + 4 * len(self.entity_types)


@dataclass
class SegmentMemory:
    """Per-layer cached states of everything before the current segment.

    layers[i] holds the detached inputs of block i from earlier
    segments, shape (B, M, D); offset is the global position of the
    first token of the next segment."""

    layers: list[np.ndarray]
    offset: int = 0

    @classmethod
    def empty(cls, n_layers: int) -> "SegmentMemory":
        return cls([np.zeros((0, 0, 0))] * n_layers, 0)


@dataclass
class Stages:
    """Stage entries of forward_ner: stage i < num_layers is block i,
    stage num_layers the head. The first forward handed it records each
    stage's input and its streams' next dropout `site`. One with a start
    resumes there from the recorded input, its streams at sites[start],
    and returns memory for only the blocks it runs."""

    start: int | None = None
    inputs: list[tuple[Tensor, ...]] = field(default_factory=list)
    sites: list[int] = field(default_factory=list)

    def enter(self, i: int, xs: tuple[Tensor, ...], streams) -> tuple[Tensor, ...]:
        if len(self.inputs) == i:
            self.inputs.append(tuple(Tensor(x.data) for x in xs))
            self.sites.append(streams.site)
        return self.inputs[i] if i == self.start else xs


def param_layout(config: ModelConfig) -> dict[str, tuple[tuple[int, ...], str]]:
    """Name -> (shape, initializer) of every optimizable tensor, in
    registry order. The initializers are "glorot", "normal", "ones" and
    "zeros"; init_params says what each draws."""
    if config.vocab_size < 2:
        raise ConfigError(f"vocab_size must be >= 2, got {config.vocab_size}")
    if not config.entity_types:
        raise ConfigError("entity_types is empty; attach a label set first")
    D, F, V, K = config.model_dim, config.ffn_dim, config.vocab_size, config.num_tags
    rel = ((2 * config.clip_k + 1, config.head_dim), "normal")
    block = [("ln1_g", (D,), "ones"), ("ln1_b", (D,), "zeros")]
    for proj in ("wq", "wk", "wv", "wo"):
        block += [(proj, (D, D), "glorot"), ("b" + proj[1], (D,), "zeros")]
    block += [("ln2_g", (D,), "ones"), ("ln2_b", (D,), "zeros"),
              ("ffn_w1", (D, F), "glorot"), ("ffn_b1", (F,), "zeros"),
              ("ffn_w2", (F, D), "glorot"), ("ffn_b2", (D,), "zeros")]
    layout = {"embed": ((V, D), "normal"), "w_init": ((D,), "normal")}
    for stack, n_layers in (("xl", config.xlnet_layers), ("tr", config.transformer_layers)):
        for i in range(n_layers):
            layout.update((f"{stack}.{i}.{name}", (shape, init)) for name, shape, init in block)
        if n_layers > 0:
            layout.update({f"{stack}.rel_wk": rel, f"{stack}.rel_wv": rel})
    layout.update({"final_ln_g": ((D,), "ones"), "final_ln_b": ((D,), "zeros"),
                   "plm_head_w": ((D, V), "normal"), "plm_head_b": ((V,), "zeros"),
                   "cls_w": ((D, K), "normal"), "cls_b": ((K,), "zeros")})
    return layout


def init_params(config: ModelConfig, rng: Rng, dtype: str = "float64") -> dict[str, Tensor]:
    """Fresh parameter registry; every optimizable tensor exactly once.

    Projections ("glorot") get uniform(-a, a) with
    a = sqrt(6 / (fan_in + fan_out)); embeddings, displacement tables,
    and the two output heads ("normal") get 0.02-std normals (near-zero
    heads give near-uniform predictions at initialization); gains start
    at one and biases at zero. Each drawn tensor has its own stream, so
    the registry is independent of creation order."""
    nptype = DTYPES[dtype]
    params: dict[str, Tensor] = {}
    for name, (shape, init) in param_layout(config).items():
        if init == "glorot":
            a = math.sqrt(6.0 / sum(shape))
            arr = (rng.derive(name).uniform(shape) * 2.0 - 1.0) * a
        elif init == "normal":
            arr = rng.derive(name).normal(shape, 0.02)
        else:
            arr = np.ones(shape) if init == "ones" else np.zeros(shape)
        params[name] = Tensor(np.ascontiguousarray(arr, dtype=nptype), requires_grad=True)
    return params


def param_count(config: ModelConfig) -> int:
    """Size of the registry init_params builds."""
    return sum(math.prod(shape) for shape, _ in param_layout(config).values())


def block_params(params: dict[str, Tensor], prefix: str) -> relpos.BlockParams:
    attn = relpos.AttentionParams(
        wq=params[prefix + "wq"], bq=params[prefix + "bq"],
        wk=params[prefix + "wk"], bk=params[prefix + "bk"],
        wv=params[prefix + "wv"], bv=params[prefix + "bv"],
        wo=params[prefix + "wo"], bo=params[prefix + "bo"])
    return relpos.BlockParams(
        ln1_g=params[prefix + "ln1_g"], ln1_b=params[prefix + "ln1_b"], attn=attn,
        ln2_g=params[prefix + "ln2_g"], ln2_b=params[prefix + "ln2_b"],
        ffn_w1=params[prefix + "ffn_w1"], ffn_b1=params[prefix + "ffn_b1"],
        ffn_w2=params[prefix + "ffn_w2"], ffn_b2=params[prefix + "ffn_b2"])


def rel_table(params: dict[str, Tensor], stack: str, config: ModelConfig):
    if config.pe_mode != "relative":
        return None
    return relpos.RelPosTable(params[f"{stack}.rel_wk"], params[f"{stack}.rel_wv"])


def _check_memory(memory, config: ModelConfig, batch: int):
    if memory is None:
        return SegmentMemory.empty(config.num_layers)
    if len(memory.layers) not in (config.xlnet_layers, config.num_layers):
        raise ContractError(
            f"memory has {len(memory.layers)} layers; config expects "
            f"{config.xlnet_layers} or {config.num_layers}")
    for m in memory.layers:
        if m.size and (m.ndim != 3 or m.shape[0] != batch):
            raise ContractError(f"memory layer shape {m.shape} does not fit batch {batch}")
    return memory


def _prelude(token_ids, memory, config: ModelConfig, params, streams, k_eff, stages=None):
    """What every forward does before its blocks. Returns the ids as a
    checked (B, T) array (one 1-d sentence is promoted), the checked
    memory, the segment's global positions, the embedded and dropped-out
    input (None when stages resume past it), and the forward's relative
    indexes."""
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim == 1:
        ids = ids[None, :]
    if ids.ndim != 2:
        raise ShapeError(f"token_ids must be (batch, time), got {ids.shape}")
    memory = _check_memory(memory, config, ids.shape[0])
    if ids.size and (ids.min() < 0 or ids.max() >= config.vocab_size):
        raise IndexError(f"token id out of range [0, {config.vocab_size})")
    positions = memory.offset + np.arange(ids.shape[1], dtype=np.int64)
    h = None
    if stages is None or stages.start is None:
        h = T.embedding(params["embed"], ids)
        if config.pe_mode == "absolute":
            h = h + Tensor(relpos.sinusoidal_pe(positions, config.model_dim, h.dtype)[None, :, :])
        h = relpos.dropout_site(h, config.dropout, streams)
    return ids, memory, positions, h, _rel_indexes(config, memory.offset, ids.shape[1], k_eff)


def _layer_memory(memory: SegmentMemory, i: int, h: Tensor, config: ModelConfig):
    """Block i's cached states (None when there are none), their length,
    and its next cache: the last memory_len rows of [memory ; h], detached."""
    mem = memory.layers[i] if i < len(memory.layers) else np.zeros((0, 0, 0))
    m_len = mem.shape[1] if mem.size else 0
    cache = np.zeros((0, 0, 0))
    if config.memory_len > 0:
        joined = np.concatenate([mem, h.data], axis=1) if m_len else h.data
        cache = joined[:, -config.memory_len:].copy()
    return (mem if m_len else None), m_len, cache


def _rel_indexes(config: ModelConfig, offset: int, t: int, k_eff):
    """One forward's relative indexes: a function from a block's memory
    length to the relative_index of the t queries from offset over
    [memory ; segment]. Each is built on first use and shared by every
    block of both stacks with that memory length; None in absolute mode."""
    built = {}

    def index(m_len: int):
        if config.pe_mode != "relative":
            return None
        if m_len not in built:
            built[m_len] = relpos.relative_index(
                offset + np.arange(t, dtype=np.int64),
                offset + np.arange(-m_len, t, dtype=np.int64), config.clip_k, k_eff)
        return built[m_len]

    return index


def _run_stack(xs: tuple[Tensor, ...], masks, n_blocks: int, config: ModelConfig, params,
               memory: SegmentMemory, streams, rel_indexes,
               stages: Stages | None = None) -> tuple[tuple[Tensor, ...], list[np.ndarray]]:
    """The first n_blocks encoder blocks, lower stack then upper stack,
    left to right over [memory ; xs[0]]: stream s of xs attends under
    masks[s], a (T, T) mask widened by each block's memory. Returns the
    streams and the new memory of those blocks. stages, if given, enter
    each block and then the output (stage n_blocks); see Stages."""
    new_mems = []
    for i in range((stages.start or 0) if stages else 0, n_blocks):
        xs = stages.enter(i, xs, streams) if stages else xs
        stack, j = ("xl", i) if i < config.xlnet_layers else ("tr", i - config.xlnet_layers)
        mem, m_len, cache = _layer_memory(memory, i, xs[0], config)
        new_mems.append(cache)
        xs = relpos.block_forward(
            xs, [plm.extend_mask_for_memory(m, m_len) for m in masks], mem,
            block_params(params, f"{stack}.{j}."), config,
            rel_table(params, stack, config), rel_indexes(m_len), streams)
    return (stages.enter(n_blocks, xs, streams) if stages else xs), new_mems


def forward_ner(token_ids, memory, config: ModelConfig, params, streams=None, *,
                k_eff: int | None = None,
                stages: Stages | None = None) -> tuple[Tensor, SegmentMemory]:
    """Full tagging forward: lower stack, upper stack, classifier. It
    trains (draws dropout masks) exactly when given dropout streams, and
    records or resumes at block entries when given Stages.

    Returns per-token log-probabilities (B, T, num_tags) and the
    updated memory across all blocks."""
    ids, memory, _, h, rel_indexes = _prelude(token_ids, memory, config, params,
                                              streams, k_eff, stages)
    t = ids.shape[1]
    (h,), new_mems = _run_stack((h,), (np.tril(np.ones((t, t), dtype=bool)),),
                                config.num_layers, config, params, memory, streams,
                                rel_indexes, stages)
    h = T.layer_norm(h, params["final_ln_g"], params["final_ln_b"])
    return classify(h, params), SegmentMemory(new_mems, memory.offset + t)


def classify(hidden: Tensor, params) -> Tensor:
    """Linear head + log-softmax over the tag inventory."""
    return T.log_softmax(T.linear(hidden, params["cls_w"], params["cls_b"]), axis=-1)


def pretrain_forward(token_ids, plan: plm.PermutationPlan, memory, config: ModelConfig,
                     params, streams=None, *,
                     k_eff: int | None = None) -> tuple[Tensor, SegmentMemory]:
    """Two-stream permutation-LM pass of the lower stack: the content
    stream (the embeddings) under the plan's content mask, the query
    stream (w_init) under its query mask. Returns the prediction loss
    over the plan's targets and updated memory."""
    ids, memory, positions, h, rel_indexes = _prelude(token_ids, memory, config, params,
                                                      streams, k_eff)
    batch, t = ids.shape
    if plan.order.shape[0] != t:
        raise ContractError(f"plan covers {plan.order.shape[0]} tokens, batch has {t}")
    D = config.model_dim
    g = Tensor(np.zeros((batch, t, D), dtype=h.dtype)) + T.reshape(params["w_init"], (1, 1, D))
    if config.pe_mode == "absolute":
        g = g + Tensor(relpos.sinusoidal_pe(positions, D, h.dtype)[None, :, :])
    (_, g), new_mems = _run_stack((h, g), (plan.content_mask, plan.query_mask),
                                  config.xlnet_layers, config, params, memory, streams, rel_indexes)
    g = T.layer_norm(g, params["final_ln_g"], params["final_ln_b"])
    loss = plm.plm_loss(g, plan.targets, ids, params["plm_head_w"], params["plm_head_b"])
    return loss, SegmentMemory(new_mems, memory.offset + t)


def _tag_batches(sentences):
    """Runs of consecutive sentences, each at most TAG_BATCH of them and
    at most TAG_CELLS attention cells (rows x longest^2), a conservative
    bound on the (B, H, TAG_SEG, T) arrays of the run's segment forwards;
    one sentence always makes a run."""
    chunk, longest = [], 0
    for s in sentences:
        wider = max(longest, len(s))
        if chunk and (len(chunk) == TAG_BATCH or (len(chunk) + 1) * wider ** 2 > TAG_CELLS):
            yield chunk
            chunk, wider = [], len(s)
        chunk.append(s)
        longest = wider
    if chunk:
        yield chunk


def tag(sentences, config: ModelConfig, params) -> list[list[str]]:
    """Eval-mode tagging of 1-d token-id arrays, in input order: each
    _tag_batches run goes through no-grad forwards of TAG_SEG columns,
    each with every earlier column as its memory, then each sentence's
    tags are decoded per decode_mode on its own length."""
    label_set, tags = config.label_set, []
    for chunk in _tag_batches(sentences):
        # Pad with id 0 to the longest sentence. Padding comes after every
        # real token and attention is causal, so it never reaches a real
        # position.
        ids = np.zeros((len(chunk), max(map(len, chunk))), dtype=np.int64)
        for row, s in enumerate(chunk):
            ids[row, :len(s)] = s
        # Causal attention at global positions: a segment whose memory is
        # every earlier column sees the keys one full forward would, so
        # memory_len is the row length, whatever the checkpoint says.
        unbounded = replace(config, memory_len=ids.shape[1])
        memory, lps = None, []
        with T.no_grad():
            for a in range(0, ids.shape[1], TAG_SEG):
                lp, memory = forward_ner(ids[:, a:a + TAG_SEG], memory, unbounded, params)
                lps.append(lp.data)
        lp = np.concatenate(lps, axis=1) if lps else np.zeros(ids.shape + (len(label_set),))
        tags.extend(decode(lp[row, :len(s)], label_set, config.decode_mode)
                    for row, s in enumerate(chunk))
    return tags


def decode(log_probs: np.ndarray, label_set: LabelSet, mode: str = "constrained") -> list[str]:
    """Tags for one sentence from (T, num_tags) log-probs.

    greedy: per-token argmax, may be ill-formed BMES.
    constrained: best path through the BMES transition discipline with
    uniform transition scores, so the output is always well-formed."""
    lp = np.asarray(log_probs, dtype=np.float64)
    if lp.ndim != 2 or lp.shape[1] != len(label_set):
        raise ShapeError(f"log_probs shape {lp.shape} does not fit {len(label_set)} tags")
    if lp.shape[0] == 0:
        return []
    if mode == "greedy":
        ids = lp.argmax(axis=1).tolist()
    elif mode == "constrained":
        ids = _viterbi(lp, label_set)
    else:
        raise ConfigError(f"unknown decode mode '{mode}'")
    return label_set.decode(ids)


@functools.cache
def _decode_tables(label_set: LabelSet):
    """(start_ok, trans, end_ok) for constrained decoding: built once per
    label set and read-only, because every decode over it shares them."""
    start_ok, pair_ok, end_ok = legal_transitions(label_set)
    tables = start_ok, np.where(pair_ok, 0.0, -np.inf), end_ok
    for table in tables:
        table.flags.writeable = False
    return tables


def _viterbi(lp: np.ndarray, label_set: LabelSet) -> list[int]:
    start_ok, trans, end_ok = _decode_tables(label_set)
    neg = -np.inf
    t_steps, K = lp.shape
    score = np.where(start_ok, lp[0], neg)
    back = np.zeros((t_steps, K), dtype=np.int64)
    for t in range(1, t_steps):
        cand = score[:, None] + trans
        back[t] = cand.argmax(axis=0)
        score = cand[back[t], np.arange(K)] + lp[t]
    score = np.where(end_ok, score, neg)
    best = int(score.argmax())
    path = [best]
    for t in range(t_steps - 1, 0, -1):
        best = int(back[t, best])
        path.append(best)
    path.reverse()
    return path
