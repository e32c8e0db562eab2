"""R-Drop training: duplicated-batch consistency loss, Adam with warmup.

Each training step runs the model twice under independent dropout masks,
as one forward over a duplicated batch; the mask streams are keyed by
branch, so each half equals a separate forward with that branch's masks.
The loss is the summed cross entropy of both branches plus alpha times
the symmetric KL divergence between their output distributions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import model as M
from . import plm as plm_mod
from . import tensor as T
from .errors import ConfigError, ContractError, NumericsError
from .rng import DropoutStreams, DualDropoutStreams, Rng
from .tagging import Entity, PrfScores, entity_prf, scan_entities
from .tensor import Tensor


@dataclass
class TrainConfig:
    lr_init: float = 0.002
    warmup_steps: int = 0  # 0 = a tenth of total_steps
    total_steps: int = 0  # 0 = epochs * batches per epoch
    epochs: int = 50
    alpha: float = 1.0
    batch_size: int = 8
    seed: int = 42
    rdrop_enabled: bool = True
    grad_clip_norm: float = 1.0  # 0 disables clipping
    min_freq: int = 1
    stop_at_f1: float = 0.0  # 0 disables early exit
    clip_k_start: int = 0  # both > 0 enable the radius schedule
    clip_k_end: int = 0
    dtype: str = "float64"

    def __post_init__(self):
        if self.lr_init <= 0:
            raise ConfigError(f"lr_init must be positive, got {self.lr_init}")
        for key, low in (("warmup_steps", 0), ("total_steps", 0), ("epochs", 1),
                         ("batch_size", 1), ("min_freq", 1), ("clip_k_start", 0),
                         ("clip_k_end", 0), ("alpha", 0), ("grad_clip_norm", 0)):
            if getattr(self, key) < low:
                raise ConfigError(f"{key} must be >= {low}, got {getattr(self, key)}")
        check_seed(self.seed)
        if not 0 <= self.stop_at_f1 <= 1:
            raise ConfigError(f"stop_at_f1 must be in [0, 1], got {self.stop_at_f1}")
        if self.dtype not in M.DTYPES:
            raise ConfigError(f"unknown dtype '{self.dtype}'")


def check_seed(seed: int) -> None:
    """Reject a master seed outside [0, 2^64), as a config error."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if seed >= 1 << 64:
        raise ConfigError(f"seed must fit in 64 bits, got {seed}")


@dataclass
class RDropLossBreakdown:
    """The three loss terms of one step, still attached to the graph."""

    ce: Tensor
    kl_sym: Tensor
    total: Tensor

    def floats(self) -> tuple[float, float, float]:
        return self.ce.item(), self.kl_sym.item(), self.total.item()


def rdrop_loss(log_probs_1: Tensor, log_probs_2: Tensor, targets, alpha: float,
               token_mask=None) -> RDropLossBreakdown:
    """ce = CE(branch 1) + CE(branch 2); kl_sym = KL(p1||p2) + KL(p2||p1);
    total = ce + alpha * kl_sym. Every term is a mean over unmasked
    tokens. The convention that averages the two KL directions is
    alpha / 2 here."""
    if log_probs_1.shape != log_probs_2.shape:
        raise ContractError(f"branch shapes disagree: {log_probs_1.shape} vs {log_probs_2.shape}")
    ce = T.cross_entropy(log_probs_1, targets, token_mask) \
        + T.cross_entropy(log_probs_2, targets, token_mask)
    p1 = T.texp(log_probs_1)
    p2 = T.texp(log_probs_2)
    kl = T.kl_divergence(p1, p2, token_mask) + T.kl_divergence(p2, p1, token_mask)
    total = ce + kl * alpha
    return RDropLossBreakdown(ce, kl, total)


def lr_schedule(step: int, config: TrainConfig) -> float:
    """Linear warmup to lr_init, then inverse-square-root decay:
    lr_init * min(step / warmup, sqrt(warmup / step))."""
    if step < 1:
        raise ContractError(f"steps are 1-based, got {step}")
    warmup = config.warmup_steps
    if warmup < 1:
        raise ConfigError("lr_schedule needs warmup_steps >= 1 (resolve it first)")
    return config.lr_init * min(step / warmup, math.sqrt(warmup / step))


@dataclass
class OptimizerState:
    """Adam moments, one slot per registered parameter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: dict[str, Tensor]) -> "OptimizerState":
        return cls(m={k: np.zeros_like(p.data) for k, p in params.items()},
                   v={k: np.zeros_like(p.data) for k, p in params.items()})


def adam_step(params: dict[str, Tensor], opt: OptimizerState, lr: float) -> None:
    """One bias-corrected Adam update from the accumulated gradients."""
    opt.t += 1
    b1, b2 = opt.beta1, opt.beta2
    c1 = 1.0 - b1 ** opt.t
    c2 = 1.0 - b2 ** opt.t
    for name, p in params.items():
        g = p.grad
        if g is None:
            raise ContractError(f"parameter '{name}' has no gradient; run backward first")
        opt.m[name] = b1 * opt.m[name] + (1 - b1) * g
        opt.v[name] = b2 * opt.v[name] + (1 - b2) * (g * g)
        m_hat = opt.m[name] / c1
        v_hat = opt.v[name] / c2
        p.data -= (lr * m_hat / (np.sqrt(v_hat) + opt.eps)).astype(p.data.dtype, copy=False)


def clip_gradients(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    sq = 0.0
    for p in params.values():
        if p.grad is not None:
            sq += float((p.grad.astype(np.float64, copy=False) ** 2).sum())
    norm = math.sqrt(sq)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm


def k_effective(model_config: M.ModelConfig, train_config: TrainConfig,
                epoch: int, total_epochs: int) -> int | None:
    """Clip radius for this epoch under the optional linear schedule.

    Interpolates clip_k_start -> clip_k_end across epochs, bounded by
    the table radius. None means use the full table radius."""
    ks, ke = train_config.clip_k_start, train_config.clip_k_end
    if ks <= 0 or ke <= 0:
        return None
    frac = 1.0 if total_epochs <= 1 else (epoch - 1) / (total_epochs - 1)
    k = round(ks + (ke - ks) * frac)
    return max(1, min(model_config.clip_k, k))


def branch_log_probs(ids, model_config: M.ModelConfig, params, streams,
                     k_eff: int | None = None,
                     stages: M.Stages | None = None) -> tuple[Tensor, Tensor]:
    """The two R-Drop branches: one forward over the batch stacked on
    itself, split back into its halves (the streams key masks by half).
    stages, if given, stage that forward (see model.Stages)."""
    b = ids.shape[0]
    lp, _ = M.forward_ner(np.concatenate([ids, ids], axis=0), None, model_config, params,
                          streams, k_eff=k_eff, stages=stages)
    return T.slice_axis(lp, 0, 0, b), T.slice_axis(lp, 0, b, 2 * b)


def _update(loss: Tensor, terms: dict[str, float], params: dict[str, Tensor],
            opt: OptimizerState, cfg: TrainConfig, step: int, lr: float) -> None:
    """Rejects a non-finite loss term, then backward, clip and Adam."""
    if not all(math.isfinite(v) for v in terms.values()):
        raise NumericsError(f"non-finite loss at step {step}: "
                            + ", ".join(f"{k}={v}" for k, v in terms.items()))
    T.zero_grads(params.values())
    T.backward(loss)
    clip_gradients(params, cfg.grad_clip_norm)
    adam_step(params, opt, lr)


def train_step(batch, params: dict[str, Tensor], opt: OptimizerState,
               model_config: M.ModelConfig, train_config: TrainConfig,
               step: int, lr: float, k_eff: int | None = None) -> tuple[float, float, float]:
    """One optimization step; returns (ce, kl, total) as floats.

    With R-Drop on, it duplicates the batch and runs one forward whose
    dropout masks are branch-keyed per half."""
    ids, tags, mask = batch.token_ids, batch.tag_ids, batch.token_mask
    if not train_config.rdrop_enabled:
        streams = DropoutStreams(train_config.seed, step, 1)
        lp, _ = M.forward_ner(ids, None, model_config, params, streams, k_eff=k_eff)
        ce = T.cross_entropy(lp, tags, mask)
        breakdown = RDropLossBreakdown(ce, Tensor(np.zeros(())), ce)
    else:
        lp1, lp2 = branch_log_probs(ids, model_config, params,
                                    DualDropoutStreams(train_config.seed, step), k_eff)
        breakdown = rdrop_loss(lp1, lp2, tags, train_config.alpha, mask)
    ce, kl, total = breakdown.floats()
    _update(breakdown.total, {"ce": ce, "kl": kl, "total": total}, params, opt,
            train_config, step, lr)
    return ce, kl, total


def evaluate(corpus, vocab, params, model_config: M.ModelConfig) -> tuple[PrfScores, int]:
    """Entity-level scores of model.tag's tags for a corpus, and the
    repairs counted while extracting the predicted entities."""
    pred_entities: list[Entity] = []
    gold_entities: list[Entity] = []
    repairs = base = 0
    predicted = M.tag([vocab.encode(tokens) for tokens, _ in corpus.sentences],
                      model_config, params)
    for pred_tags, (_, gold_tags) in zip(predicted, corpus.sentences):
        ents, rep = scan_entities(pred_tags)
        repairs += rep
        pred_entities.extend(Entity(e.start + base, e.end + base, e.etype) for e in ents)
        gold_entities.extend(Entity(e.start + base, e.end + base, e.etype)
                             for e in scan_entities(gold_tags)[0])
        base += len(gold_tags)
    return entity_prf(pred_entities, gold_entities), repairs


@dataclass
class EpochStats:
    epoch: int
    steps: int
    mean_ce: float
    mean_kl: float
    mean_total: float
    precision: float
    recall: float
    f1: float


@dataclass
class TrainReport:
    history: list[EpochStats]
    best_f1: float
    best_epoch: int
    params: dict[str, Tensor]
    vocab: object
    model_config: M.ModelConfig


def resolve_schedule(train_config: TrainConfig, n_batches: int) -> TrainConfig:
    """Fill in total_steps and warmup_steps when left at 0."""
    total = train_config.total_steps or train_config.epochs * n_batches
    warmup = train_config.warmup_steps or max(1, total // 10)
    return replace(train_config, total_steps=total, warmup_steps=warmup)


def _setup(corpus, model_config: M.ModelConfig, train_config: TrainConfig, batch_size: int,
           vocab=None, init_params_from=None, fallback_types=()):
    """A run's (vocab, sized model config, params, Adam state, resolved schedule)."""
    from . import data as D

    if vocab is None:
        vocab = D.build_vocab(corpus, train_config.min_freq)
    types = model_config.entity_types or corpus.label_set.entity_types or fallback_types
    if not types:
        raise ConfigError("training corpus has no entity types; set entity_types")
    model_config = replace(model_config, vocab_size=len(vocab), entity_types=tuple(types))
    params = M.init_params(model_config, Rng.for_stream(train_config.seed, "init"),
                           train_config.dtype)
    if init_params_from is not None:
        _warm_start(params, init_params_from)
    return (vocab, model_config, params, OptimizerState.for_params(params),
            resolve_schedule(train_config, math.ceil(len(corpus.sentences) / batch_size)))


def train(train_corpus, dev_corpus, model_config: M.ModelConfig,
          train_config: TrainConfig, log=None, checkpoint_path: str | None = None,
          vocab=None, init_params_from: dict[str, np.ndarray] | None = None) -> TrainReport:
    """Fine-tune on a tagged corpus, evaluating on dev each epoch.

    Logs one tab-separated line per step (step, lr, ce, kl, total) and
    one per epoch (epoch, number, P, R, F1). The checkpoint with the
    best dev F1 is kept. Everything is keyed off train_config.seed, so
    two runs with the same data and config match bitwise."""
    from . import data as D

    emit = log if log is not None else (lambda line: None)
    vocab, model_config, params, opt, cfg = _setup(train_corpus, model_config, train_config,
                                                   train_config.batch_size, vocab, init_params_from)
    for name, corpus in (("training", train_corpus), ("dev", dev_corpus)):
        missing = set(corpus.label_set.entity_types) - set(model_config.entity_types)
        if missing:
            raise ConfigError(f"{name} corpus has entity types outside the label set "
                              f"{list(model_config.entity_types)}: {sorted(missing)}")
    step = 0
    best_f1, best_epoch = -1.0, 0
    history: list[EpochStats] = []
    for epoch in range(1, cfg.epochs + 1):
        k_eff = k_effective(model_config, cfg, epoch, cfg.epochs)
        batches = D.make_batches(train_corpus, vocab, cfg.batch_size,
                                 Rng.for_stream(cfg.seed, "shuffle", epoch),
                                 model_config.label_set)
        sums = np.zeros(3)
        for batch in batches:
            step += 1
            lr = lr_schedule(step, cfg)
            ce, kl, total = train_step(batch, params, opt, model_config, cfg,
                                       step, lr, k_eff)
            sums += (ce, kl, total)
            emit(f"{step}\t{lr:.8g}\t{ce:.6f}\t{kl:.6f}\t{total:.6f}")
        res, _ = evaluate(dev_corpus, vocab, params, model_config)
        emit(f"epoch\t{epoch}\t{res.precision:.4f}\t{res.recall:.4f}\t{res.f1:.4f}")
        history.append(EpochStats(epoch, len(batches), *(sums / max(1, len(batches))),
                                  res.precision, res.recall, res.f1))
        if res.f1 > best_f1:
            best_f1, best_epoch = res.f1, epoch
            if checkpoint_path is not None:
                D.save_model(checkpoint_path, params, model_config, vocab)
        if cfg.stop_at_f1 > 0 and res.f1 >= cfg.stop_at_f1:
            break
    return TrainReport(history, best_f1, best_epoch, params, vocab, model_config)


def _warm_start(params: dict[str, Tensor], source: dict[str, np.ndarray]) -> None:
    """Copy pretrained encoder weights in by name. Both registries must
    hold the same warm-start names, shape for shape."""
    prefixes = ("embed", "w_init", "xl.", "plm_head", "final_ln")
    names = [name for name in source if name.startswith(prefixes)]
    odd = [name for name in (*names, *params) if name.startswith(prefixes)
           and (name in source) != (name in params)]
    if odd:
        side = "pretrained" if odd[0] in source else "fine-tuning"
        raise ConfigError(f"warm start layout mismatch: '{odd[0]}' is only in the "
                          f"{side} registry")
    for name in names:
        if params[name].data.shape != source[name].shape:
            raise ConfigError(
                f"warm start shape mismatch for '{name}': "
                f"{source[name].shape} vs {params[name].data.shape}")
        params[name].data = source[name].astype(params[name].data.dtype)


def pretrain(corpus, model_config: M.ModelConfig, train_config: TrainConfig,
             log=None, checkpoint_path: str | None = None) -> TrainReport:
    """Permutation-LM pretraining over single sentences.

    Each step samples a fresh factorization order for one sentence and
    minimizes the prediction loss of the order's tail. Logs the same
    step format as train with kl fixed at 0."""
    from . import data as D

    emit = log if log is not None else (lambda line: None)
    vocab, model_config, params, opt, cfg = _setup(corpus, model_config, train_config, 1,
                                                   fallback_types=("X",))
    sentences = [vocab.encode(tokens) for tokens, _ in corpus.sentences]
    orders = (Rng.for_stream(cfg.seed, "shuffle", epoch).permutation(len(sentences))
              for epoch in range(1, cfg.epochs + 1))
    losses = []
    for step, si in enumerate(itertools.islice(itertools.chain.from_iterable(orders),
                                               cfg.total_steps), start=1):
        ids = sentences[si][None, :]
        plan = plm_mod.sample_permutation(ids.shape[1], Rng.for_stream(cfg.seed, "perm", step))
        streams = DropoutStreams(cfg.seed, step, 1)
        loss, _ = M.pretrain_forward(ids, plan, None, model_config, params, streams)
        value = loss.item()
        lr = lr_schedule(step, cfg)
        _update(loss, {"loss": value}, params, opt, cfg, step, lr)
        losses.append(value)
        emit(f"{step}\t{lr:.8g}\t{value:.6f}\t{0.0:.6f}\t{value:.6f}")
    if checkpoint_path is not None:
        D.save_model(checkpoint_path, params, model_config, vocab)
    mean = float(np.mean(losses))
    history = [EpochStats(1, len(losses), mean, 0.0, mean, 0.0, 0.0, 0.0)]
    return TrainReport(history, 0.0, 0, params, vocab, model_config)
