"""CoNLL parsing, vocabularies, batching, config files, checkpoints."""

import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ntrr.data as D
import ntrr.model as M
from ntrr.cli import _load_configs, build_parser
from ntrr.errors import (CheckpointError, ConfigError, ContractError,
                         NtrrError, ParseError)
from ntrr.rng import Rng
from ntrr.synthetic import generate_corpus
from ntrr.tensor import Tensor


def write(path, text):
    path.write_bytes(text.encode("utf-8"))
    return str(path)


# ------------------------------------------------------------------- vocab


def corpus_of(sentences):
    tags = [["O"] * len(toks) for toks in sentences]
    return D.Corpus(list(zip(sentences, tags)), None)


def test_vocab_frequency_then_lexicographic():
    c = corpus_of([["b", "a", "b"], ["c", "a", "b"]])
    v = D.build_vocab(c)
    assert v.itos == ["<pad>", "<unk>", "b", "a", "c"]
    assert v.stoi["<pad>"] == D.PAD_ID == 0
    assert v.stoi["<unk>"] == D.UNK_ID == 1


def test_vocab_min_freq_and_unk():
    c = corpus_of([["x", "x", "y"]])
    v = D.build_vocab(c, min_freq=2)
    assert "y" not in v.stoi
    assert list(v.encode(["x", "y", "zebra"])) == [v.stoi["x"], D.UNK_ID, D.UNK_ID]


def test_vocab_rejects_duplicates():
    with pytest.raises(ContractError):
        D.Vocab(["<pad>", "<unk>", "a", "a"])


def test_vocab_file_round_trip(tmp_path):
    v = D.build_vocab(corpus_of([["x", "y", "x"]]))
    p = str(tmp_path / "vocab.txt")
    D.save_vocab(p, v)
    assert D.load_vocab(p).itos == v.itos
    bad = write(tmp_path / "bad.txt", "x\ny\n")
    with pytest.raises(ParseError):
        D.load_vocab(bad)


@pytest.mark.parametrize("content", [b"<pad>\n<unk>\na\na\n", b"<pad>\n<unk>\n\xff\n"],
                         ids=["duplicate", "utf8"])
def test_load_vocab_bad_file_names_it(tmp_path, content):
    p = tmp_path / "vocab.txt"
    p.write_bytes(content)
    with pytest.raises(ParseError, match="vocab.txt"):
        D.load_vocab(str(p))
    with pytest.raises(ParseError, match=str(tmp_path)):
        D.load_vocab(str(tmp_path))  # a directory


# ------------------------------------------------------------------- conll


def test_read_conll_round_trip(tmp_path):
    sentences = [(["北", "京"], ["B-LOC", "E-LOC"]),
                 (["a", "R", "b"], ["O", "S-PER", "O"])]
    p = str(tmp_path / "t.bmes")
    D.write_conll(p, sentences)
    c = D.read_conll(p)
    assert c.sentences == sentences
    assert c.repair_count == 0
    assert c.warnings == []
    assert c.label_set.entity_types == ("LOC", "PER")


def test_read_conll_trailing_blanks_and_warning(tmp_path):
    p = write(tmp_path / "t.bmes",
              "a O\nnoise\nb S-PER\n\n\nc O\n\n\n")
    c = D.read_conll(p)
    assert [toks for toks, _ in c.sentences] == [["a", "b"], ["c"]]
    assert len(c.warnings) == 1
    assert "line 2" in c.warnings[0]


def test_read_conll_bad_tag_names_line(tmp_path):
    p = write(tmp_path / "t.bmes", "a O\nb Q-PER\n")
    with pytest.raises(ParseError, match="line 2"):
        D.read_conll(p)
    # BIO tags are invalid under the bmes scheme and vice versa
    p2 = write(tmp_path / "t2.bmes", "a I-PER\n")
    with pytest.raises(ParseError, match="line 1"):
        D.read_conll(p2, scheme="bmes")
    p3 = write(tmp_path / "t3.bio", "a E-PER\n")
    with pytest.raises(ParseError, match="line 1"):
        D.read_conll(p3, scheme="bio")


def test_text_readers_split_at_universal_newlines_only(tmp_path):
    assert D.split_lines("a\u2028b\r\nc\rd\n\ne") == ["a\u2028b", "c", "d", "", "e"]
    # U+2028 is whitespace inside line 1, so "c X-Y" is line 2
    p = write(tmp_path / "t.bmes", "a O\u2028b O\nc X-Y\n")
    with pytest.raises(ParseError, match="line 2"):
        D.read_conll(p)
    assert D.parse_config_text("seed = 3\rdropout = 0.25\r\n") == {"seed": 3, "dropout": 0.25}


def test_read_conll_empty_and_missing(tmp_path):
    p = write(tmp_path / "empty.bmes", "\n\n")
    with pytest.raises(ParseError, match="no sentences"):
        D.read_conll(p)
    with pytest.raises(ParseError):
        D.read_conll(str(tmp_path / "nonexistent.bmes"))
    with pytest.raises(ConfigError):
        D.read_conll(p, scheme="iobes")


def test_read_conll_bad_utf8_names_byte(tmp_path):
    p = tmp_path / "t.bmes"
    p.write_bytes(b"a O\nb \xff O\n")
    with pytest.raises(ParseError, match="byte 6"):
        D.read_conll(str(p))


def test_read_conll_bio_converts(tmp_path):
    p = write(tmp_path / "t.bio",
              "中 B-LOC\n国 I-LOC\n人 O\n\n山 B-PER\n")
    c = D.read_conll(p, scheme="bio")
    assert c.sentences[0][1] == ["B-LOC", "E-LOC", "O"]
    assert c.sentences[1][1] == ["S-PER"]
    assert c.repair_count == 0


def test_read_conll_bio_counts_repairs(tmp_path):
    p = write(tmp_path / "t.bio", "a I-PER\nb O\n")
    c = D.read_conll(p, scheme="bio")
    assert c.repair_count == 1
    from ntrr.tagging import validate_bmes
    assert validate_bmes(c.sentences[0][1]) == []


def test_read_conll_flags_illformed_bmes(tmp_path):
    p = write(tmp_path / "t.bmes", "a B-PER\nb O\n")
    c = D.read_conll(p)
    assert any("ill-formed" in w for w in c.warnings)


# ---------------------------------------------------------------- batching


def test_batches_cover_corpus_and_pad():
    corpus = generate_corpus(11, seed=5)
    vocab = D.build_vocab(corpus)
    batches = D.make_batches(corpus, vocab, 4, None, corpus.label_set)
    assert [b.token_ids.shape[0] for b in batches] == [4, 4, 3]
    seen = []
    for b in batches:
        assert b.token_ids.shape == b.tag_ids.shape == b.token_mask.shape
        for row in range(b.token_ids.shape[0]):
            n = int(b.token_mask[row].sum())
            assert b.token_mask[row, :n].all()
            assert not b.token_mask[row, n:].any()
            assert (b.token_ids[row, n:] == D.PAD_ID).all()
            seen.append(list(b.token_ids[row, :n]))
    want = [list(vocab.encode(toks)) for toks, _ in corpus.sentences]
    assert seen == want


def test_batches_shuffle_is_permutation():
    corpus = generate_corpus(10, seed=6)
    vocab = D.build_vocab(corpus)
    plain = D.make_batches(corpus, vocab, 3, None, corpus.label_set)
    shuffled = D.make_batches(corpus, vocab, 3, Rng.for_stream(1, "s"), corpus.label_set)
    flat = lambda bs: sorted(tuple(ids[mask]) for b in bs
                             for ids, mask in zip(b.token_ids, b.token_mask))
    assert flat(plain) == flat(shuffled)
    with pytest.raises(ContractError):
        D.make_batches(corpus, vocab, 0, None, corpus.label_set)


# ----------------------------------------------------------------- configs


def test_config_empty_gives_defaults():
    mc, tc = D.configs_from_values(D.parse_config_text(""))
    assert mc == M.ModelConfig()
    assert tc.alpha == 1.0 and tc.lr_init == 0.002 and tc.epochs == 50


def test_config_parses_types(tmp_path):
    p = write(tmp_path / "r.cfg", """
# comment line
model_dim = 32     # trailing comment
pe_mode = absolute
rdrop_enabled = false
entity_types = PER, LOC
alpha = 0.5
""")
    mc, tc = D.load_run_config(p)
    assert mc.model_dim == 32
    assert mc.pe_mode == "absolute"
    assert mc.entity_types == ("PER", "LOC")
    assert tc.rdrop_enabled is False
    assert tc.alpha == 0.5


def test_config_errors_name_the_key():
    with pytest.raises(ConfigError, match="lr_init"):
        D.parse_config_text("lr_init = banana")
    with pytest.raises(ConfigError, match="warp_speed"):
        D.parse_config_text("warp_speed = 9")
    with pytest.raises(ConfigError, match="line 1"):
        D.parse_config_text("just some words")
    with pytest.raises(ConfigError, match="pe_mode"):
        D.parse_config_text("pe_mode = diagonal")
    with pytest.raises(ConfigError, match="rdrop_enabled"):
        D.parse_config_text("rdrop_enabled = maybe")


def test_config_dropout_feeds_both():
    mc, tc = D.configs_from_values(D.parse_config_text("dropout = 0.3"))
    assert mc.dropout == 0.3


def test_apply_overrides():
    mc, tc = D.configs_from_values({})
    mc2, tc2 = D.apply_overrides(mc, tc, ["model_dim=32", "epochs=7",
                                          "dropout=0.25"])
    assert mc2.model_dim == 32 and tc2.epochs == 7
    assert mc2.dropout == 0.25
    assert mc.model_dim == 64  # originals untouched
    with pytest.raises(ConfigError):
        D.apply_overrides(mc, tc, ["model_dim"])
    with pytest.raises(ConfigError):
        D.apply_overrides(mc, tc, ["nope=1"])


def test_config_text_rejects_a_repeated_key():
    with pytest.raises(ConfigError, match=r"^f\.cfg: line 3: key 'seed' repeats line 1$"):
        D.parse_config_text("seed = 1\n\nseed = 1\n", "f.cfg")
    with pytest.raises(ConfigError, match=r"^<config>: line 2: key 'dropout' repeats line 1$"):
        D.parse_config_text("dropout = 0.1\ndropout=0.2  # again")


def test_overrides_share_the_config_file_parser():
    mc, tc = D.configs_from_values({})
    with pytest.raises(ConfigError, match=r"^--set: line 2: unknown key 'nope'"):
        D.apply_overrides(mc, tc, ["epochs=7", "nope=1"])
    with pytest.raises(ConfigError, match=r"^--set: line 1: expected 'key = value'"):
        D.apply_overrides(mc, tc, ["model_dim"])
    mc2, tc2 = D.apply_overrides(mc, tc, ["epochs = 7  # a comment"])
    assert tc2.epochs == 7


def test_overrides_are_validated_after_all_of_them():
    # 64 is not divisible by 3, but the final model_dim is 48
    mc, tc = D.configs_from_values({})
    mc2, _ = D.apply_overrides(mc, tc, ["num_heads=3", "model_dim=48"])
    assert (mc2.num_heads, mc2.model_dim) == (3, 48)
    with pytest.raises(ConfigError, match="not divisible"):
        D.apply_overrides(mc, tc, ["num_heads=3"])



def test_config_file_and_overrides_are_validated_together(tmp_path):
    path = write(tmp_path / "h.cfg", "num_heads = 3\nepochs = 2\n")
    mc, tc = D.load_run_config(path, ["model_dim=48"])
    assert (mc.num_heads, mc.model_dim, tc.epochs) == (3, 48, 2)
    with pytest.raises(ConfigError, match="not divisible"):
        D.load_run_config(path)


def test_run_config_rejects_a_vocab_size(tmp_path):
    with pytest.raises(ConfigError, match="'vocab_size'.*got 5000"):
        D.load_run_config(None, ["vocab_size=5000"])
    path = write(tmp_path / "v.cfg", "vocab_size = 26\n")
    with pytest.raises(ConfigError, match="'vocab_size'.*got 26"):
        D.load_run_config(path)
    assert D.load_run_config(path, ["vocab_size=0"])[0].vocab_size == 0


def test_seed_flag_is_the_seed_override():
    base = ["pretrain", "--train", "t.bmes", "--out", "o", "--set", "epochs=3"]
    by_flag = _load_configs(build_parser().parse_args(base + ["--seed", "7"]))
    by_set = _load_configs(build_parser().parse_args(base + ["--set", "seed=7"]))
    assert by_flag == by_set
    assert by_flag[1].seed == 7 and by_flag[1].epochs == 3


def test_entity_types_are_checked_by_the_config(tmp_path):
    with pytest.raises(ConfigError, match="duplicate entity types"):
        D.configs_from_values(D.parse_config_text("entity_types = LOC,PER,PER"))
    p = str(tmp_path / "m.ckpt")
    D.save_checkpoint(p, small_params(), small_mc())
    blob = open(p, "rb").read().replace(b"entity_types = PER\n", b"entity_types = P-R\n")
    open(p, "wb").write(blob)
    with pytest.raises(CheckpointError, match="bad entity type name"):
        D.load_checkpoint(p)


def test_config_reference_mentions_every_key():
    text = D.config_reference()
    for key in list(D._MODEL_KEYS) + list(D._TRAIN_KEYS):
        assert key in text


def test_config_reference_file_is_current():
    # docs/config_reference.txt is generated; regenerate it with
    # scripts/gen_config_reference.py after a schema change
    path = os.path.join(os.path.dirname(__file__), "..", "docs", "config_reference.txt")
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == D.config_reference()


def test_config_schema_reads_the_dataclasses():
    # defaults and types are the dataclass's own, so a changed default
    # reaches the reference; docs must name exactly the dataclass fields
    docs = {key: doc for key, (_, _, doc) in D._MODEL_KEYS.items()}
    schema = D._schema(M.ModelConfig(clip_k=3, decode_mode="greedy"), docs)
    assert schema["clip_k"] == (int, 3, docs["clip_k"])
    assert schema["decode_mode"] == (M.DECODE_MODES, "greedy", docs["decode_mode"])
    del docs["clip_k"]
    with pytest.raises(ContractError):
        D._schema(M.ModelConfig(), docs)


def test_model_config_text_round_trips():
    mc = M.ModelConfig(model_dim=32, ffn_dim=64, num_heads=2, clip_k=3,
                       entity_types=("LOC", "PER"), vocab_size=17)
    values = D.parse_config_text(D.model_config_text(mc))
    assert D.configs_from_values(values)[0] == mc


# -------------------------------------------------------------- checkpoints


def small_params(dtype="float64"):
    rng = Rng(7, 7)
    return {
        "embed": Tensor(rng.normal((5, 4)).astype(dtype)),
        "w": Tensor(rng.normal((4, 4)).astype(dtype)),
        "b": Tensor(np.zeros(4, dtype=dtype)),
    }


def small_mc():
    return M.ModelConfig(vocab_size=5, model_dim=4, ffn_dim=4, num_heads=2,
                         clip_k=2, entity_types=("PER",))


def test_checkpoint_round_trip_bitwise(tmp_path):
    params = small_params()
    p = str(tmp_path / "m.ckpt")
    D.save_checkpoint(p, params, small_mc())
    ckpt = D.load_checkpoint(p)
    assert {a.dtype for a in ckpt.params.values()} == {np.dtype(np.float64)}
    assert ckpt.model_config == small_mc()
    assert set(ckpt.params) == set(params)
    for name, t in params.items():
        assert ckpt.params[name].dtype == np.float64
        assert np.array_equal(ckpt.params[name], t.data)
    revived = D.params_from_checkpoint(ckpt)
    assert revived["embed"].requires_grad
    assert np.array_equal(revived["embed"].data, params["embed"].data)


def test_checkpoint_float32_round_trip(tmp_path):
    params = small_params("float32")
    p = str(tmp_path / "m32.ckpt")
    D.save_checkpoint(p, params, small_mc())
    ckpt = D.load_checkpoint(p)
    assert {a.dtype for a in ckpt.params.values()} == {np.dtype(np.float32)}
    for name, t in params.items():
        assert ckpt.params[name].dtype == np.float32
        assert np.array_equal(ckpt.params[name], t.data)


def test_checkpoint_mixed_dtypes_rejected(tmp_path):
    params = small_params()
    params["w"] = Tensor(params["w"].data.astype(np.float32))
    with pytest.raises(ContractError, match="mixed"):
        D.save_checkpoint(str(tmp_path / "m.ckpt"), params, small_mc())


def test_checkpoint_write_is_atomic(tmp_path):
    p = str(tmp_path / "m.ckpt")
    D.save_checkpoint(p, small_params(), small_mc())
    assert os.path.exists(p)
    assert not os.path.exists(p + ".tmp")


def test_checkpoint_truncation_names_byte(tmp_path):
    p = str(tmp_path / "m.ckpt")
    D.save_checkpoint(p, small_params(), small_mc())
    blob = open(p, "rb").read()
    cut = str(tmp_path / "cut.ckpt")
    with open(cut, "wb") as fh:
        fh.write(blob[:len(blob) - 10])
    with pytest.raises(CheckpointError, match=f"byte {len(blob) - 10}"):
        D.load_checkpoint(cut)


def one_tensor_checkpoint(tmp_path, name):
    p = str(tmp_path / "one.ckpt")
    D.save_checkpoint(p, {name: np.zeros((2, 3))}, small_mc())
    return p, bytearray(open(p, "rb").read())


@pytest.mark.parametrize("what", ["flags", "config block length", "tensor count",
                                  "name length", "rank", "dim"])
def test_checkpoint_implausible_field_names_its_own_byte(tmp_path, what):
    """Each bounded field of a one-tensor checkpoint, set past its limit,
    is rejected at the byte where that field starts."""
    p, blob = one_tensor_checkpoint(tmp_path, "w")
    config_len = len(D.model_config_text(small_mc()).encode("utf-8"))
    count_at = 4 + 4 + 1 + 8 + config_len
    # what: (format, offset, value stored there, a value past the limit)
    fmt, at, stored, value = {
        "flags": ("<B", 8, 1, 2),
        "config block length": ("<Q", 9, config_len, len(blob) + 1),
        "tensor count": ("<Q", count_at, 1, 1_000_001),
        "name length": ("<I", count_at + 8, 1, 4097),
        "rank": ("<Q", count_at + 8 + 4 + 1, 2, 9),
        "dim": ("<Q", count_at + 8 + 4 + 1 + 8, 2, len(blob) + 1)}[what]
    assert struct.unpack_from(fmt, blob, at)[0] == stored
    struct.pack_into(fmt, blob, at, value)
    open(p, "wb").write(bytes(blob))
    with pytest.raises(CheckpointError) as info:
        D.load_checkpoint(p)
    assert str(info.value) == f"{p}: implausible {what} {value} at byte {at}"


def test_checkpoint_name_not_utf8_names_the_byte(tmp_path):
    p, blob = one_tensor_checkpoint(tmp_path, "ab")
    at = blob.rindex(b"ab") + 1
    blob[at] = 0xFF
    open(p, "wb").write(bytes(blob))
    with pytest.raises(CheckpointError) as info:
        D.load_checkpoint(p)
    assert str(info.value) == f"{p}: tensor name is not UTF-8 at byte {at}"


def test_checkpoint_foreign_magic(tmp_path):
    p = str(tmp_path / "alien.ckpt")
    with open(p, "wb") as fh:
        fh.write(b"PK\x03\x04 definitely a zip file")
    with pytest.raises(CheckpointError, match="magic"):
        D.load_checkpoint(p)


def test_checkpoint_bad_version(tmp_path):
    p = str(tmp_path / "m.ckpt")
    D.save_checkpoint(p, small_params(), small_mc())
    blob = bytearray(open(p, "rb").read())
    blob[4] = 99
    bad = str(tmp_path / "v99.ckpt")
    open(bad, "wb").write(bytes(blob))
    with pytest.raises(CheckpointError, match="version 99"):
        D.load_checkpoint(bad)


def test_checkpoint_trailing_bytes(tmp_path):
    p = str(tmp_path / "m.ckpt")
    D.save_checkpoint(p, small_params(), small_mc())
    with open(p, "ab") as fh:
        fh.write(b"xxxx")
    with pytest.raises(CheckpointError, match="trailing"):
        D.load_checkpoint(p)


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(CheckpointError):
        D.load_checkpoint(str(tmp_path / "absent.ckpt"))


def test_checkpoint_corrupt_config_block(tmp_path):
    p = str(tmp_path / "m.ckpt")
    D.save_checkpoint(p, small_params(), small_mc())
    blob = bytearray(open(p, "rb").read())
    # stomp the config block with junk that is valid UTF-8 but not a config
    start = 4 + 4 + 1 + 8
    blob[start:start + 4] = b"??? "
    bad = str(tmp_path / "junkcfg.ckpt")
    open(bad, "wb").write(bytes(blob))
    with pytest.raises(CheckpointError, match="config"):
        D.load_checkpoint(bad)


def test_model_round_trip(tmp_path):
    mc = M.ModelConfig(vocab_size=6, model_dim=8, ffn_dim=8, xlnet_layers=1,
                       transformer_layers=1, num_heads=2, clip_k=2, entity_types=("PER",))
    params = M.init_params(mc, Rng(3, 3))
    vocab = D.Vocab(["<pad>", "<unk>", "a", "b", "c", "d"])
    p = str(tmp_path / "run" / "model.ckpt")
    os.makedirs(os.path.dirname(p))
    D.save_model(p, params, mc, vocab)
    ckpt, got = D.load_model(p)
    assert ckpt.model_config == mc and got.itos == vocab.itos
    assert list(ckpt.params) == list(params)
    for name, t in params.items():
        assert np.array_equal(ckpt.params[name], t.data)
    other = write(tmp_path / "other.txt", "<pad>\n<unk>\na\n")
    with pytest.raises(ConfigError, match="expects vocab of 6"):
        D.load_model(p, other)
    os.remove(D.sibling_vocab_path(p))
    with pytest.raises(ConfigError, match="no vocabulary"):
        D.load_model(p)


def test_sibling_vocab_path(tmp_path):
    p = str(tmp_path / "runs" / "model.ckpt")
    assert D.sibling_vocab_path(p) == str(tmp_path / "runs" / "vocab.txt")


# --------------------------------------------------------------------- fuzz


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=400))
def test_fuzz_checkpoint_never_crashes(tmp_path_factory, blob):
    p = tmp_path_factory.mktemp("fz") / "f.ckpt"
    p.write_bytes(blob)
    try:
        D.load_checkpoint(str(p))
    except CheckpointError as exc:
        assert str(p) in str(exc)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=400))
def test_fuzz_conll_never_crashes(tmp_path_factory, blob):
    p = tmp_path_factory.mktemp("fz") / "f.bmes"
    p.write_bytes(blob)
    try:
        D.read_conll(str(p))
    except ParseError as exc:
        assert str(p) in str(exc)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=300))
def test_fuzz_config_never_crashes(text):
    try:
        D.configs_from_values(D.parse_config_text(text))
    except NtrrError:
        pass
