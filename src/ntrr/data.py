"""Data plumbing: CoNLL files, vocabularies, batches, checkpoints, configs.

Corpus files are one token and tag per line, whitespace separated, with
blank lines between sentences. Checkpoints are a small binary format
(magic "NTRR") holding a canonical-text config block and length-prefixed
named tensors; run configs are flat "key = value" text validated against
a single schema.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import CheckpointError, ConfigError, ContractError, ParseError
from .model import DECODE_MODES, DTYPES, TOKEN_MODES, ModelConfig, param_layout
from .relpos import PE_MODES
from .rng import Rng
from .tagging import LabelSet, bio_to_bmes, split_tag, validate_bmes
from .tensor import Tensor
from .training import TrainConfig

PAD_ID = 0
UNK_ID = 1
SCHEMES = ("bio", "bmes")

CHECKPOINT_MAGIC = b"NTRR"
CHECKPOINT_VERSION = 1
RETIRED_CHECKPOINT_KEYS = ("memory_len",)  # model keys older checkpoints carry; ignored
_FLAG_FLOAT64 = 1


@dataclass
class Corpus:
    """Tagged sentences, always stored in BMES after reading."""

    sentences: list[tuple[list[str], list[str]]]
    label_set: LabelSet
    repair_count: int = 0
    warnings: list[str] = field(default_factory=list)


@contextlib.contextmanager
def file_errors(path: str, verb: str, error=ParseError):
    """An OSError in the block raises error "path: cannot {verb}: ..."."""
    try:
        yield
    except OSError as exc:
        raise error(f"{path}: cannot {verb}: {exc}") from None


def read_bytes(path: str, error=ParseError) -> bytes:
    """The bytes of a file; a file that cannot be read raises error, naming it."""
    with file_errors(path, "read", error), open(path, "rb") as fh:
        return fh.read()


def read_text(path: str, error=ParseError) -> str:
    """read_bytes decoded as UTF-8; bytes that do not decode raise error."""
    try:
        return read_bytes(path, error).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not valid UTF-8 at byte {exc.start}") from None


def split_lines(text: str) -> list[str]:
    """The lines of text, split at universal newlines (\\n, \\r\\n, \\r)
    only: str.splitlines also splits at U+2028 and the like."""
    return [line.rstrip("\n") for line in io.StringIO(text, newline=None)]


def read_conll(path: str, scheme: str = "bmes") -> Corpus:
    """Parse a token/tag file. BIO input is converted to BMES (repairs
    counted); a tag outside the scheme is a hard parse error naming the
    line; lines that are not blank and not token+tag pairs are reported
    as warnings and skipped."""
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme '{scheme}'")
    text = read_text(path)
    valid_prefixes = ("B", "I") if scheme == "bio" else ("B", "M", "E", "S")
    sentences: list[tuple[list[str], list[str]]] = []
    warnings: list[str] = []
    tokens: list[str] = []
    tags: list[str] = []

    def flush():
        if tokens:
            sentences.append((tokens.copy(), tags.copy()))
            tokens.clear()
            tags.clear()

    for lineno, line in enumerate(split_lines(text), start=1):
        stripped = line.strip()
        if not stripped:
            flush()
            continue
        parts = stripped.split()
        if len(parts) != 2:
            warnings.append(f"{path}: line {lineno}: expected 'token tag', "
                            f"got {len(parts)} fields; skipped")
            continue
        token, tag = parts
        tp = split_tag(tag)
        if tp is None or (tp[0] != "O" and tp[0] not in valid_prefixes):
            raise ParseError(f"{path}: line {lineno}: tag '{tag}' is not valid "
                             f"{scheme.upper()}")
        tokens.append(token)
        tags.append(tag)
    flush()
    if not sentences:
        raise ParseError(f"{path}: no sentences found")

    repair_count = 0
    if scheme == "bio":
        converted = []
        for toks, tgs in sentences:
            bmes, repairs = bio_to_bmes(tgs)
            repair_count += repairs
            converted.append((toks, bmes))
        sentences = converted
    else:
        for si, (toks, tgs) in enumerate(sentences):
            bad = validate_bmes(tgs)
            if bad:
                warnings.append(f"{path}: sentence {si + 1}: ill-formed BMES at "
                                f"token offsets {bad}")
    all_tags = (t for _, tgs in sentences for t in tgs)
    return Corpus(sentences, LabelSet.from_tags(all_tags), repair_count, warnings)


def write_conll(path: str, sentences) -> None:
    with file_errors(path, "write"), open(path, "w", encoding="utf-8") as fh:
        for tokens, tags in sentences:
            for token, tag in zip(tokens, tags):
                fh.write(f"{token} {tag}\n")
            fh.write("\n")


@dataclass
class Vocab:
    """Token inventory: 0 is padding, 1 is unknown, the rest are corpus
    tokens by descending frequency, ties broken lexicographically."""

    itos: list[str]

    def __post_init__(self):
        self.stoi = {tok: i for i, tok in enumerate(self.itos)}
        if len(self.stoi) != len(self.itos):
            raise ContractError("duplicate tokens in vocabulary")

    def __len__(self):
        return len(self.itos)

    def encode(self, tokens) -> np.ndarray:
        return np.array([self.stoi.get(t, UNK_ID) for t in tokens], dtype=np.int64)


def build_vocab(corpus: Corpus, min_freq: int = 1) -> Vocab:
    counts: dict[str, int] = {}
    for tokens, _ in corpus.sentences:
        for tok in tokens:
            counts[tok] = counts.get(tok, 0) + 1
    reserved = ["<pad>", "<unk>"]  # a corpus token of these names maps to its reserved id
    kept = sorted((t for t, c in counts.items() if c >= min_freq and t not in reserved),
                  key=lambda t: (-counts[t], t))
    return Vocab(reserved + kept)


def save_vocab(path: str, vocab: Vocab) -> None:
    with file_errors(path, "write"), open(path, "w", encoding="utf-8") as fh:
        fh.writelines(tok + "\n" for tok in vocab.itos)


def load_vocab(path: str) -> Vocab:
    itos = [line for line in split_lines(read_text(path)) if line]
    if len(itos) < 2 or itos[0] != "<pad>" or itos[1] != "<unk>":
        raise ParseError(f"{path}: not a vocabulary file")
    try:
        return Vocab(itos)
    except ContractError as exc:
        raise ParseError(f"{path}: {exc}") from None


def sibling_vocab_path(checkpoint_path: str) -> str:
    return os.path.join(os.path.dirname(os.path.abspath(checkpoint_path)), "vocab.txt")


@dataclass
class Batch:
    token_ids: np.ndarray  # (B, T) int64, padded with PAD_ID
    tag_ids: np.ndarray  # (B, T) int64, padding rows are PAD positions
    token_mask: np.ndarray  # (B, T) bool, True on real tokens


def make_batches(corpus: Corpus, vocab: Vocab, batch_size: int, rng: Rng | None,
                 label_set: LabelSet) -> list[Batch]:
    """Chunk the corpus into padded batches, tags indexed in label_set
    (the model's, which must hold every corpus type); a rng shuffles
    sentence order first (None keeps corpus order, for evaluation)."""
    if batch_size < 1:
        raise ContractError(f"batch_size must be >= 1, got {batch_size}")
    n = len(corpus.sentences)
    order = rng.permutation(n) if rng is not None and n > 1 else np.arange(n)
    batches = []
    for start in range(0, n, batch_size):
        chunk = [corpus.sentences[i] for i in order[start:start + batch_size]]
        width = max(len(tokens) for tokens, _ in chunk)
        b = len(chunk)
        token_ids = np.full((b, width), PAD_ID, dtype=np.int64)
        tag_ids = np.zeros((b, width), dtype=np.int64)
        mask = np.zeros((b, width), dtype=bool)
        for row, (tokens, tags) in enumerate(chunk):
            t = len(tokens)
            token_ids[row, :t] = vocab.encode(tokens)
            tag_ids[row, :t] = label_set.encode(tags)
            mask[row, :t] = True
        batches.append(Batch(token_ids, tag_ids, mask))
    return batches


# ------------------------------------------------------------------ configs

_CHOICES = {"pe_mode": PE_MODES, "decode_mode": DECODE_MODES, "token_mode": TOKEN_MODES,
            "dtype": tuple(DTYPES)}


def _schema(config, docs: dict[str, str]) -> dict:
    """key -> (python type or tuple of choices, default, doc) for every
    field of config; the types and defaults are the dataclass's own."""
    defaults = vars(config)
    if set(docs) != set(defaults):
        raise ContractError(f"config docs do not match {type(config).__name__}'s fields")
    return {key: (_CHOICES.get(key, type(defaults[key])), defaults[key], doc)
            for key, doc in docs.items()}


_MODEL_KEYS = _schema(ModelConfig(), {
    "model_dim": "hidden width of every layer",
    "ffn_dim": "inner width of the feed-forward sublayers",
    "xlnet_layers": "blocks in the lower (pretrainable) stack",
    "transformer_layers": "blocks in the upper tagging stack",
    "num_heads": "attention heads; must divide model_dim",
    "clip_k": "displacement table radius: rows for [-k, k]",
    "pe_mode": "absolute sinusoidal input encoding, or learned relative tables",
    "dropout": "drop rate at every dropout site",
    "decode_mode": "per-token argmax, or best path through BMES legality",
    "token_mode": "how plain prediction input is split into tokens",
    "vocab_size": "token inventory size; set from the vocabulary, so run configs leave it 0",
    "entity_types": "comma list of entity types; empty = derive from data",
})

_TRAIN_KEYS = _schema(TrainConfig(), {
    "lr_init": "peak learning rate, reached at the end of warmup",
    "warmup_steps": "linear warmup length; 0 = a tenth of total_steps",
    "total_steps": ("caps pretraining steps and sets the default warmup (a tenth); "
                    "train does not stop at it; 0 = epochs * batches per epoch"),
    "epochs": "passes over the training corpus",
    "alpha": "weight of the symmetric KL term (the sum of both directions)",
    "batch_size": "sentences per step (doubled internally by R-Drop)",
    "seed": "master seed; every stream derives from it",
    "rdrop_enabled": "train with the two-branch consistency loss",
    "grad_clip_norm": "global gradient norm ceiling; 0 disables",
    "min_freq": "drop tokens rarer than this from the vocabulary",
    "stop_at_f1": "stop once dev F1 reaches this; 0 disables",
    "clip_k_start": "radius schedule start; with clip_k_end > 0 enables it",
    "clip_k_end": "radius schedule end, reached at the last epoch",
    "dtype": "parameter and activation precision",
})

_SCHEMA = {**_MODEL_KEYS, **_TRAIN_KEYS}
assert set(_MODEL_KEYS) & set(_TRAIN_KEYS) == set()


def _parse_value(key: str, raw: str):
    spec = _SCHEMA[key][0]
    raw = raw.strip()
    if spec in (int, float):
        try:
            value = spec(raw)
        except ValueError:
            kind = "an integer" if spec is int else "a number"
            raise ConfigError(f"key '{key}' expects {kind}, got '{raw}'") from None
        if spec is float and not np.isfinite(value):
            raise ConfigError(f"key '{key}' expects a finite number, got '{raw}'")
        return value
    if spec is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"key '{key}' expects true/false, got '{raw}'")
    if spec is tuple:
        return tuple(part.strip() for part in raw.split(",") if part.strip())
    if isinstance(spec, tuple):
        if raw not in spec:
            raise ConfigError(f"key '{key}' expects one of {spec}, got '{raw}'")
        return raw
    raise ContractError(f"schema bug for key '{key}'")


def parse_config_text(text: str, source: str = "<config>", retired=(),
                      overrides: bool = False) -> dict:
    """Flat 'key = value' lines; '#' starts a comment; keys in retired are
    skipped, other unknown keys rejected by name. A key given twice is
    rejected with both line numbers, unless the lines are overrides
    (--set items), where a later line wins."""
    values, first = {}, {}
    for lineno, line in enumerate(split_lines(text), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}: line {lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in retired:
            continue
        if key not in _SCHEMA:
            raise ConfigError(f"{source}: line {lineno}: unknown key '{key}'")
        if first.setdefault(key, lineno) != lineno and not overrides:
            raise ConfigError(f"{source}: line {lineno}: key '{key}' repeats line {first[key]}")
        values[key] = _parse_value(key, raw)
    return values


def configs_from_values(values: dict) -> tuple[ModelConfig, TrainConfig]:
    model_kwargs = {k: v for k, v in values.items() if k in _MODEL_KEYS}
    train_kwargs = {k: v for k, v in values.items() if k in _TRAIN_KEYS}
    return ModelConfig(**model_kwargs), TrainConfig(**train_kwargs)


def load_run_config(path: str | None, overrides=()) -> tuple[ModelConfig, TrainConfig]:
    """The config file at path (None: the defaults) under 'key=value'
    overrides, one config line each; validated once, after all of them.
    vocab_size must stay 0: training derives it from the vocabulary."""
    values = parse_config_text(read_text(path, ConfigError), source=path) if path else {}
    values.update(parse_config_text("\n".join(overrides), "--set", overrides=True))
    if values.get("vocab_size", 0):
        raise ConfigError(f"key 'vocab_size' is derived from the vocabulary; "
                          f"leave it 0, got {values['vocab_size']}")
    return configs_from_values(values)


def apply_overrides(model_config: ModelConfig, train_config: TrainConfig,
                    overrides) -> tuple[ModelConfig, TrainConfig]:
    """Apply 'key=value' strings, one config line each, on top of existing
    config objects; the result is validated once, after all of them."""
    values = {**vars(model_config), **vars(train_config)}
    values.update(parse_config_text("\n".join(overrides), "--set", overrides=True))
    return configs_from_values(values)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(value)
    return repr(value) if isinstance(value, float) else str(value)


def model_config_text(config: ModelConfig) -> str:
    """Canonical text block for checkpoints: every model key, sorted."""
    lines = []
    for key in sorted(_MODEL_KEYS):
        lines.append(f"{key} = {_format_value(getattr(config, key))}")
    return "\n".join(lines) + "\n"


def config_reference() -> str:
    """One generated page documenting every config key and default."""
    out = io.StringIO()
    out.write("Configuration reference\n=======================\n\n"
              "Flat 'key = value' lines; '#' starts a comment; unknown keys\n"
              "are rejected. Every key, with type and default:\n")
    for title, keys in (("model", _MODEL_KEYS), ("training", _TRAIN_KEYS)):
        out.write(f"\n[{title}]\n")
        for key, (spec, default, doc) in keys.items():
            if isinstance(spec, tuple):
                kind = "|".join(spec)
            elif spec is tuple:
                kind = "comma list"
            else:
                kind = spec.__name__
            out.write(f"  {key} ({kind}, default {_format_value(default)})\n      {doc}\n")
    return out.getvalue()


# --------------------------------------------------------------- checkpoints


@dataclass
class Checkpoint:
    model_config: ModelConfig
    params: dict[str, np.ndarray]


def save_checkpoint(path: str, params: dict[str, Tensor | np.ndarray],
                    model_config: ModelConfig) -> None:
    """Write header, canonical config block, then named tensor records."""
    arrays = {name: (p.data if isinstance(p, Tensor) else np.asarray(p))
              for name, p in params.items()}
    dtypes = {a.dtype for a in arrays.values()}
    if len(dtypes) > 1:
        raise ContractError(f"mixed parameter dtypes: {sorted(map(str, dtypes))}")
    use_f64 = dtypes == {np.dtype(np.float64)}
    flags = _FLAG_FLOAT64 if use_f64 else 0
    config_block = model_config_text(model_config).encode("utf-8")
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<IB", CHECKPOINT_VERSION, flags))
    buf.write(struct.pack("<Q", len(config_block)))
    buf.write(config_block)
    buf.write(struct.pack("<Q", len(arrays)))
    for name, arr in arrays.items():
        encoded = name.encode("utf-8")
        buf.write(struct.pack("<I", len(encoded)))
        buf.write(encoded)
        buf.write(struct.pack("<Q", arr.ndim))
        for dim in arr.shape:
            buf.write(struct.pack("<Q", dim))
        buf.write(np.ascontiguousarray(arr, dtype="<f8" if use_f64 else "<f4").tobytes())
    with file_errors(path, "write"):
        with open(path + ".tmp", "wb") as fh:
            fh.write(buf.getvalue())
        os.replace(path + ".tmp", path)


class _Reader:
    """Byte cursor that turns truncation and implausible fields into
    located corruption errors, each naming the byte where its field starts."""

    def __init__(self, blob: bytes, path: str):
        self.blob = blob
        self.path = path
        self.pos = 0

    def pull(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError(
                f"{self.path}: truncated at byte {len(self.blob)} "
                f"(needed {self.pos + n})")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def number(self, fmt: str, what: str, limit: int) -> int:
        """One little-endian unsigned field; a value over limit is implausible."""
        start = self.pos
        value = struct.unpack(fmt, self.pull(struct.calcsize(fmt)))[0]
        if value > limit:
            raise CheckpointError(f"{self.path}: implausible {what} {value} at byte {start}")
        return value

    def text(self, n: int, what: str) -> str:
        """n bytes decoded as UTF-8; a byte that does not decode is located."""
        start = self.pos
        try:
            return self.pull(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(
                f"{self.path}: {what} is not UTF-8 at byte {start + exc.start}") from None


def load_checkpoint(path: str) -> Checkpoint:
    blob = read_bytes(path, CheckpointError)
    r = _Reader(blob, path)
    if r.pull(4) != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic at byte 0; not a checkpoint")
    version = struct.unpack("<I", r.pull(4))[0]
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    flags = r.number("<B", "flags", _FLAG_FLOAT64)
    dtype = np.float64 if flags & _FLAG_FLOAT64 else np.float32
    stored = np.dtype(dtype).newbyteorder("<")
    config_text = r.text(r.number("<Q", "config block length", len(blob)), "config block")
    try:
        values = parse_config_text(config_text, f"{path}[config]", RETIRED_CHECKPOINT_KEYS)
        model_config = configs_from_values(values)[0]
    except ConfigError as exc:
        raise CheckpointError(f"{path}: bad config block: {exc}") from None
    params: dict[str, np.ndarray] = {}
    for _ in range(r.number("<Q", "tensor count", 1_000_000)):
        name_len = r.number("<I", "name length", 4096)
        name_start = r.pos
        name = r.text(name_len, "tensor name")
        if name in params:
            raise CheckpointError(f"{path}: duplicate tensor '{name}' at byte {name_start}")
        rank = r.number("<Q", "rank", 8)
        shape = tuple(r.number("<Q", "dim", len(blob)) for _ in range(rank))
        raw = r.pull(math.prod(shape) * stored.itemsize)
        params[name] = np.frombuffer(raw, stored).reshape(shape).astype(dtype)
    if r.pos != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - r.pos} trailing bytes at byte {r.pos}")
    return Checkpoint(model_config, params)


def params_from_checkpoint(ckpt: Checkpoint) -> dict[str, Tensor]:
    return {name: Tensor(arr.copy(), requires_grad=True)
            for name, arr in ckpt.params.items()}


def _check_registry(path: str, ckpt: Checkpoint) -> None:
    """The stored tensors must be exactly the parameter layout of the
    stored config, shape for shape, with finite values."""
    try:
        layout = param_layout(ckpt.model_config)
    except ConfigError as exc:
        raise CheckpointError(f"{path}: bad config block: {exc}") from None
    extra = sorted(set(ckpt.params) - set(layout))
    if extra:
        raise CheckpointError(f"{path}: unexpected tensor '{extra[0]}'")
    for name, (shape, _) in layout.items():
        arr = ckpt.params.get(name)
        if arr is None:
            raise CheckpointError(f"{path}: tensor '{name}' is missing")
        if arr.shape != shape:
            raise CheckpointError(f"{path}: tensor '{name}' has shape {arr.shape}, "
                                  f"the config needs {shape}")
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"{path}: tensor '{name}' has non-finite values")


def save_model(path: str, params: dict[str, Tensor], model_config: ModelConfig,
               vocab: Vocab) -> None:
    """The model artifact: the checkpoint and its vocab.txt beside it."""
    save_checkpoint(path, params, model_config)
    save_vocab(sibling_vocab_path(path), vocab)


def load_model(path: str, vocab_path: str | None = None) -> tuple[Checkpoint, Vocab]:
    """Read a checkpoint, check it against the parameter layout of its
    config, and load its vocabulary (by default the one beside it)."""
    ckpt = load_checkpoint(path)
    _check_registry(path, ckpt)
    vocab_path = vocab_path or sibling_vocab_path(path)
    if not os.path.exists(vocab_path):
        raise ConfigError(f"{path}: no vocabulary at {vocab_path}")
    vocab = load_vocab(vocab_path)
    if ckpt.model_config.vocab_size != len(vocab):
        raise ConfigError(f"{path}: checkpoint expects vocab of "
                          f"{ckpt.model_config.vocab_size}, {vocab_path} has {len(vocab)}")
    return ckpt, vocab
