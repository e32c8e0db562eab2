"""Command-line behavior: exit codes, output formats, file handling.

Everything calls main(argv) in-process; a tiny model is trained once on
the bundled synthetic data and shared by the eval/predict tests."""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import ntrr.data as D
import ntrr.model as M
import ntrr.training as TR
from ntrr.cli import main
from ntrr.rng import Rng

REPO = Path(__file__).resolve().parents[1]
DATA = REPO / "data"
CFG = str(REPO / "configs" / "synthetic.cfg")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("run")
    code, out, err = run(["train", "--train", str(DATA / "train.bmes"),
                          "--dev", str(DATA / "dev.bmes"),
                          "--out", str(out_dir), "--config", CFG])
    assert code == 0, err
    return out_dir, out


# ----------------------------------------------------------------- convert


def test_convert_bio_to_bmes(tmp_path):
    src = tmp_path / "in.bio"
    src.write_text("中 B-LOC\n国 I-LOC\n人 O\n\n山 B-PER\n")
    dst = tmp_path / "out.bmes"
    code, out, err = run(["convert", str(src), str(dst), "--from", "bio"])
    assert code == 0
    assert "wrote 2 sentences" in out and "0 repairs" in out
    assert dst.read_text() == "中 B-LOC\n国 E-LOC\n人 O\n\n山 S-PER\n\n"


def test_convert_bmes_is_idempotent(tmp_path):
    a = tmp_path / "a.bmes"
    b = tmp_path / "b.bmes"
    assert run(["convert", str(DATA / "dev.bmes"), str(a), "--from", "bmes"])[0] == 0
    assert run(["convert", str(a), str(b), "--from", "bmes"])[0] == 0
    assert a.read_bytes() == b.read_bytes() == (DATA / "dev.bmes").read_bytes()


def test_convert_reports_repairs_and_warnings(tmp_path):
    src = tmp_path / "in.bio"
    src.write_text("a I-PER\njunk line here\nb O\n")
    dst = tmp_path / "out.bmes"
    code, out, err = run(["convert", str(src), str(dst), "--from", "bio"])
    assert code == 0
    assert "1 repairs" in out
    assert "warning" in err and "line 2" in err


# -------------------------------------------------------------- exit codes


def test_parse_error_names_line_17(tmp_path):
    lines = [f"{'ab'[i % 2]} O" for i in range(16)] + ["x Q-FOO"]
    bad = tmp_path / "bad.bmes"
    bad.write_text("\n".join(lines) + "\n")
    code, out, err = run(["train", "--train", str(bad),
                          "--dev", str(DATA / "dev.bmes"),
                          "--out", str(tmp_path / "o")])
    assert code == 2
    assert "line 17" in err


def test_usage_error_is_exit_2():
    code, out, err = run(["convert", "only-one-arg"])
    assert code == 2
    code, out, err = run(["no-such-command"])
    assert code == 2


def test_bad_config_value_is_exit_2(tmp_path):
    code, out, err = run(["train", "--train", str(DATA / "train.bmes"),
                          "--dev", str(DATA / "dev.bmes"),
                          "--out", str(tmp_path / "o"), "--set", "lr_init=banana"])
    assert code == 2
    assert "lr_init" in err


def test_unplanned_failure_is_exit_1(tmp_path):
    code, out, err = run(["convert", str(DATA / "dev.bmes"), str(tmp_path),
                          "--from", "bmes"])
    assert code == 1
    assert "internal error" in err


def test_gradcheck_rejects_unknown_scale():
    code, out, err = run(["gradcheck", "--scale", "huge"])
    assert code == 2
    assert "scale" in err


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)], ids=["negative", "over-64-bits"])
def test_gradcheck_bad_seed_is_exit_2_as_in_train(tmp_path, seed):
    code, out, err = run(["gradcheck", "--seed", seed])
    assert code == 2, err
    assert err.startswith("error: seed must ") and out == ""
    train = run(["train", "--train", str(DATA / "train.bmes"), "--dev", str(DATA / "dev.bmes"),
                 "--out", str(tmp_path / "o"), "--config", CFG, "--seed", seed])
    assert train == (2, "", err)


# ------------------------------------------------------- train, eval, predict


def test_train_outputs(trained):
    out_dir, out = trained
    assert "best dev F1" in out
    assert (out_dir / "model.ckpt").exists()
    assert (out_dir / "vocab.txt").exists()
    log = (out_dir / "train.log").read_text().splitlines()
    assert any(l.startswith("epoch\t") for l in log)
    step_line = next(l for l in log if not l.startswith("epoch"))
    assert len(step_line.split("\t")) == 5


def test_eval_model_prints_table(trained):
    out_dir, _ = trained
    code, out, err = run(["eval", "--ckpt", str(out_dir / "model.ckpt"),
                          "--data", str(DATA / "test.bmes")])
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0] == "Precise (%)\tRecall (%)\tF1 Score (%)"
    overall = lines[1].split("\t")
    assert len(overall) == 3 and all("." in v for v in overall)
    assert lines[-1].startswith("repairs\t")


def test_logged_best_dev_scores_match_eval_under_radius_schedule(tmp_path):
    # the schedule narrows training to radius 1 of clip_k 4; dev scoring,
    # and so the checkpoint choice, must use the model's own radius
    code, _, err = run(["train", "--train", str(DATA / "train.bmes"),
                        "--dev", str(DATA / "dev.bmes"), "--out", str(tmp_path),
                        "--config", CFG, "--set", "epochs=6", "--set", "stop_at_f1=0",
                        "--set", "clip_k_start=1", "--set", "clip_k_end=1"])
    assert code == 0, err
    epochs = [line.split("\t")[2:] for line in
              (tmp_path / "train.log").read_text().splitlines() if line.startswith("epoch\t")]
    best = max(epochs, key=lambda prf: float(prf[2]))
    assert float(best[2]) > 0
    code, out, err = run(["eval", "--ckpt", str(tmp_path / "model.ckpt"),
                          "--data", str(DATA / "dev.bmes")])
    assert code == 0, err
    printed = out.splitlines()[1].split("\t")
    # the log keeps 4 decimals of a fraction, eval 2 of a percentage
    assert all(abs(float(l) * 100 - float(p)) <= 0.01 for l, p in zip(best, printed))


def _dev_with_three_fields_on_line_2(tmp_path):
    lines = (DATA / "dev.bmes").read_text().splitlines(keepends=True)
    lines[1] = lines[1].rstrip("\n") + " extra\n"
    path = tmp_path / "dev3.bmes"
    path.write_text("".join(lines))
    return path


@pytest.mark.parametrize("command", ["eval-ckpt", "eval-pred", "train", "pretrain"])
def test_corpus_warnings_reach_stderr(trained, tmp_path, command):
    junk = str(_dev_with_three_fields_on_line_2(tmp_path))
    out_dir = str(tmp_path / "o")
    argv = {
        "eval-ckpt": ["eval", "--ckpt", str(trained[0] / "model.ckpt"), "--data", junk],
        "eval-pred": ["eval", "--pred", junk, "--data", junk],
        "train": ["train", "--train", junk, "--dev", junk, "--out", out_dir,
                  "--config", CFG, "--set", "epochs=1"],
        "pretrain": ["pretrain", "--train", junk, "--out", out_dir,
                     "--config", CFG, "--set", "total_steps=1"],
    }[command]
    code, out, err = run(argv)
    assert code == 0, err
    assert f"warning: {junk}: line 2: expected 'token tag', got 3 fields; skipped" in err


def test_eval_gold_as_predictions_is_perfect(tmp_path):
    code, out, err = run(["eval", "--pred", str(DATA / "test.bmes"),
                          "--data", str(DATA / "test.bmes")])
    assert code == 0, err
    assert out.splitlines()[1] == "100.00\t100.00\t100.00"


def test_eval_pred_with_other_tokens_is_exit_2(tmp_path):
    # the same sentence lengths as the gold file, but not its text
    gold = D.read_conll(str(DATA / "test.bmes")).sentences
    other = [(tokens if i != 2 else ["x"] * len(tokens), tags)
             for i, (tokens, tags) in enumerate(gold)]
    pred = tmp_path / "pred.bmes"
    D.write_conll(str(pred), other)
    code, out, err = run(["eval", "--pred", str(pred), "--data", str(DATA / "test.bmes")])
    assert code == 2, err
    assert str(pred) in err and "sentence 3" in err


def test_eval_wants_exactly_one_source(trained):
    out_dir, _ = trained
    both = ["eval", "--ckpt", str(out_dir / "model.ckpt"),
            "--pred", str(DATA / "test.bmes"), "--data", str(DATA / "test.bmes")]
    assert run(both)[0] == 2
    assert run(["eval", "--data", str(DATA / "test.bmes")])[0] == 2


def test_eval_missing_vocab_is_exit_2(trained, tmp_path):
    out_dir, _ = trained
    lone = tmp_path / "model.ckpt"
    lone.write_bytes((out_dir / "model.ckpt").read_bytes())
    code, out, err = run(["eval", "--ckpt", str(lone),
                          "--data", str(DATA / "test.bmes")])
    assert code == 2
    assert "vocab" in err


@pytest.mark.parametrize("content", [b"<pad>\n<unk>\na\na\n", b"<pad>\n<unk>\n\xff\n", None],
                         ids=["duplicate", "utf8", "directory"])
def test_eval_bad_vocab_is_exit_2_naming_it(trained, tmp_path, content):
    out_dir, _ = trained
    vocab = tmp_path / "vocab.txt"
    if content is None:
        vocab.mkdir()
    else:
        vocab.write_bytes(content)
    code, out, err = run(["eval", "--ckpt", str(out_dir / "model.ckpt"),
                          "--data", str(DATA / "test.bmes"), "--vocab", str(vocab)])
    assert code == 2, err
    assert str(vocab) in err and "internal error" not in err


def test_predict_missing_input_is_exit_2(trained, tmp_path):
    out_dir, _ = trained
    missing = tmp_path / "absent.txt"
    code, out, err = run(["predict", "--ckpt", str(out_dir / "model.ckpt"),
                          "--in", str(missing), "--out", str(tmp_path / "p.bmes")])
    assert code == 2, err
    assert str(missing) in err and "cannot read" in err


def test_duplicate_entity_type_override_is_exit_2(tmp_path):
    code, out, err = run(["train", "--train", str(DATA / "train.bmes"),
                          "--dev", str(DATA / "dev.bmes"), "--out", str(tmp_path / "o"),
                          "--set", "entity_types=LOC,ORG,PER,PER"])
    assert code == 2, err
    assert "duplicate entity types" in err


def test_vocab_size_override_is_exit_2(tmp_path):
    # training always derives vocab_size from the vocabulary
    code, out, err = run(["train", "--train", str(DATA / "train.bmes"),
                          "--dev", str(DATA / "dev.bmes"), "--out", str(tmp_path / "o"),
                          "--config", CFG, "--set", "epochs=1", "--set", "vocab_size=5000"])
    assert code == 2, err
    assert "'vocab_size'" in err and "5000" in err
    assert out == ""


@pytest.mark.parametrize("command, args, key", [
    ("train", ["--set", "num_heads=0"], "num_heads"),
    ("train", ["--set", "model_dim=-4"], "model_dim"),
    ("train", ["--set", "ffn_dim=0"], "ffn_dim"),
    ("pretrain", ["--set", "total_steps=-5"], "total_steps"),
    ("train", ["--set", "warmup_steps=-3"], "warmup_steps"),
    ("train", ["--seed", "-1"], "seed"),
], ids=["num_heads", "model_dim", "ffn_dim", "total_steps", "warmup_steps", "seed"])
def test_bad_size_count_or_seed_is_exit_2_naming_the_key(tmp_path, command, args, key):
    corpora = ["--train", str(DATA / "train.bmes")]
    if command == "train":
        corpora += ["--dev", str(DATA / "dev.bmes")]
    out_dir = tmp_path / "o"
    code, out, err = run([command, *corpora, "--out", str(out_dir), "--config", CFG,
                          "--set", "epochs=1", *args])
    assert code == 2, err
    assert f"error: {key} must be >= " in err
    assert out == "" and not out_dir.exists()


@pytest.mark.parametrize("setting", [
    "lr_init=nan", "lr_init=inf", "alpha=nan", "alpha=inf", "grad_clip_norm=nan",
    "stop_at_f1=nan", "dropout=nan", "grad_clip_norm=-1", "stop_at_f1=1.5", "stop_at_f1=-2",
])
def test_bad_float_config_value_is_exit_2_naming_the_key(tmp_path, setting):
    key = setting.split("=")[0]
    out_dir = tmp_path / "o"
    code, out, err = run(["train", "--train", str(DATA / "train.bmes"),
                          "--dev", str(DATA / "dev.bmes"), "--out", str(out_dir),
                          "--config", CFG, "--set", "epochs=1", "--set", setting])
    assert code == 2, err
    assert key in err and "Traceback" not in err
    assert out == "" and not out_dir.exists()


def test_overrides_apply_in_any_order(tmp_path):
    for order in (["num_heads=3", "model_dim=48"], ["model_dim=48", "num_heads=3"]):
        sets = [arg for item in order for arg in ("--set", item)]
        code, out, err = run(["pretrain", "--train", str(DATA / "train.bmes"),
                              "--out", str(tmp_path / "o"), "--config", CFG,
                              "--set", "epochs=1", "--set", "ffn_dim=8",
                              "--set", "xlnet_layers=1", "--set", "transformer_layers=0",
                              *sets])
        assert code == 0, err


@pytest.mark.parametrize("edit, message", [
    (lambda p: p.pop("cls_b"), "tensor 'cls_b' is missing"),
    (lambda p: p.update(cls_b=np.zeros(3)), "tensor 'cls_b' has shape (3,)"),
    (lambda p: p["cls_w"].__setitem__((0, 0), np.nan), "tensor 'cls_w' has non-finite"),
    (lambda p: p.update(extra=np.zeros(2)), "unexpected tensor 'extra'"),
], ids=["missing", "shape", "nan", "extra"])
def test_eval_rejects_checkpoint_off_registry(trained, tmp_path, edit, message):
    # well-formed files whose tensors do not fit the stored config
    out_dir, _ = trained
    ckpt = D.load_checkpoint(str(out_dir / "model.ckpt"))
    edit(ckpt.params)
    bad = tmp_path / "model.ckpt"
    D.save_checkpoint(str(bad), ckpt.params, ckpt.model_config)
    (tmp_path / "vocab.txt").write_bytes((out_dir / "vocab.txt").read_bytes())
    code, out, err = run(["eval", "--ckpt", str(bad), "--data", str(DATA / "test.bmes")])
    assert code == 2, err
    assert message in err and str(bad) in err
    assert out == ""


def test_eval_checks_registry_without_building_one(trained, monkeypatch):
    # the check reads the parameter layout; drawing a registry is wasted work
    def refuse(*args, **kwargs):
        raise AssertionError("init_params called")

    monkeypatch.setattr(M, "init_params", refuse)
    out_dir, _ = trained
    code, out, err = run(["eval", "--ckpt", str(out_dir / "model.ckpt"),
                          "--data", str(DATA / "test.bmes")])
    assert code == 0, err


def test_predict_then_eval_matches_in_process_scores(trained, tmp_path):
    out_dir, _ = trained
    corpus = D.read_conll(str(DATA / "test.bmes"))
    plain = tmp_path / "plain.txt"
    plain.write_text("\n".join("".join(toks) for toks, _ in corpus.sentences) + "\n")
    pred = tmp_path / "pred.bmes"
    code, out, err = run(["predict", "--ckpt", str(out_dir / "model.ckpt"),
                          "--in", str(plain), "--out", str(pred)])
    assert code == 0, err
    assert f"wrote {len(corpus.sentences)} sentences" in out

    code, out, err = run(["eval", "--pred", str(pred),
                          "--data", str(DATA / "test.bmes")])
    assert code == 0, err
    got = [float(v) for v in out.splitlines()[1].split("\t")]

    ckpt = D.load_checkpoint(str(out_dir / "model.ckpt"))
    vocab = D.load_vocab(str(out_dir / "vocab.txt"))
    res, _ = TR.evaluate(corpus, vocab, D.params_from_checkpoint(ckpt),
                         ckpt.model_config)
    want = [res.precision * 100, res.recall * 100, res.f1 * 100]
    assert all(abs(g - w) <= 0.005 for g, w in zip(got, want))


def test_predict_empty_input_is_exit_2(trained, tmp_path):
    out_dir, _ = trained
    empty = tmp_path / "empty.txt"
    empty.write_text("\n  \n")
    code, out, err = run(["predict", "--ckpt", str(out_dir / "model.ckpt"),
                          "--in", str(empty), "--out", str(tmp_path / "p.bmes")])
    assert code == 2
    assert "no sentences" in err


def test_predict_bad_utf8_names_the_byte(trained, tmp_path):
    out_dir, _ = trained
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"abc\n" * 5000 + b"\xff")
    code, out, err = run(["predict", "--ckpt", str(out_dir / "model.ckpt"),
                          "--in", str(bad), "--out", str(tmp_path / "p.bmes")])
    assert code == 2, err
    assert str(bad) in err and "not valid UTF-8 at byte 20000" in err


def test_predict_line_over_the_tagging_cap_is_exit_2(trained, tmp_path, monkeypatch):
    out_dir, _ = trained
    cap = M.MAX_TAG_TOKENS
    text, pred = tmp_path / "long.txt", tmp_path / "p.bmes"
    text.write_text("ab\n\n" + "x" * (cap + 1) + "\n", encoding="utf-8")
    code, out, err = run(["predict", "--ckpt", str(out_dir / "model.ckpt"),
                          "--in", str(text), "--out", str(pred)])
    assert code == 2, err
    assert f"{text}: line 3: {cap + 1} tokens, over the cap of {cap}" in err
    assert "Traceback" not in err and "internal error" not in err and not pred.exists()
    # at a cap of 12, a 13-token line exits 2 and a 12-token line tags
    monkeypatch.setattr(M, "MAX_TAG_TOKENS", 12)
    text.write_text("x" * 12 + "\n" + "y" * 13 + "\n", encoding="utf-8")
    code, out, err = run(["predict", "--ckpt", str(out_dir / "model.ckpt"),
                          "--in", str(text), "--out", str(pred)])
    assert code == 2 and f"{text}: line 2: 13 tokens, over the cap of 12" in err
    text.write_text("x" * 12 + "\n", encoding="utf-8")
    code, out, err = run(["predict", "--ckpt", str(out_dir / "model.ckpt"),
                          "--in", str(text), "--out", str(pred)])
    assert code == 0, err


def test_eval_sentence_over_the_tagging_cap_is_exit_2(trained, tmp_path):
    out_dir, _ = trained
    cap = M.MAX_TAG_TOKENS
    gold = tmp_path / "gold.bmes"
    D.write_conll(str(gold), [(["a", "b"], ["O", "O"]), (["x"] * (cap + 1), ["O"] * (cap + 1))])
    code, out, err = run(["eval", "--ckpt", str(out_dir / "model.ckpt"), "--data", str(gold)])
    assert code == 2, err
    assert f"{gold}: sentence 2: {cap + 1} tokens, over the cap of {cap}" in err
    assert "Traceback" not in err and "internal error" not in err and out == ""


def test_predict_splits_sentences_at_universal_newlines_only(trained, tmp_path):
    # \n, \r\n and \r end a sentence; U+2028 is whitespace inside one
    out_dir, _ = trained
    text = tmp_path / "text.txt"
    text.write_bytes("KL\u2028ab\r\nPQ\rZ\n".encode("utf-8"))
    pred = tmp_path / "p.bmes"
    code, out, err = run(["predict", "--ckpt", str(out_dir / "model.ckpt"),
                          "--in", str(text), "--out", str(pred)])
    assert code == 0, err
    assert [tokens for tokens, _ in D.read_conll(str(pred)).sentences] == [
        ["K", "L", "a", "b"], ["P", "Q"], ["Z"]]


def test_eval_indexes_gold_tags_in_the_model_label_set(tmp_path):
    # a LOC/ORG/PER model that tags every token S-PER, on gold that holds
    # only S-PER: the file's own label set would read S-PER as S-LOC
    mc = M.ModelConfig(vocab_size=5, model_dim=8, ffn_dim=8, xlnet_layers=1,
                       transformer_layers=1, num_heads=2, clip_k=2,
                       entity_types=("LOC", "ORG", "PER"))
    params = {name: p.data for name, p in M.init_params(mc, Rng(3, 0)).items()}
    params["cls_w"][:] = 0.0
    params["cls_b"][:] = 0.0
    params["cls_b"][mc.label_set.index("S-PER")] = 10.0
    D.save_checkpoint(str(tmp_path / "model.ckpt"), params, mc)
    D.save_vocab(str(tmp_path / "vocab.txt"), D.Vocab(["<pad>", "<unk>", "a", "b", "c"]))
    gold = tmp_path / "gold.bmes"
    gold.write_text("a S-PER\nb S-PER\n\nc S-PER\n")
    code, out, err = run(["eval", "--ckpt", str(tmp_path / "model.ckpt"),
                          "--data", str(gold)])
    assert code == 0, err
    assert out.splitlines()[1] == "100.00\t100.00\t100.00"


def test_train_rejects_dev_types_outside_the_label_set(tmp_path):
    dev = tmp_path / "dev.bmes"
    dev.write_text("a S-X\nb O\n")
    code, out, err = run(["train", "--train", str(DATA / "train.bmes"), "--dev", str(dev),
                          "--out", str(tmp_path / "o"), "--config", CFG,
                          "--set", "epochs=1"])
    assert code == 2, err
    assert "dev corpus" in err and "['X']" in err
    assert out == ""


# ---------------------------------------------------------------- pretrain


def test_pretrain_then_warm_start(tmp_path):
    pre_dir = tmp_path / "pre"
    code, out, err = run(["pretrain", "--train", str(DATA / "train.bmes"),
                          "--out", str(pre_dir), "--config", CFG,
                          "--set", "epochs=1"])
    assert code == 0, err
    assert "pretraining finished" in out
    assert (pre_dir / "pretrain.ckpt").exists()
    assert (pre_dir / "vocab.txt").exists()

    ft_dir = tmp_path / "ft"
    code, out, err = run(["train", "--train", str(DATA / "train.bmes"),
                          "--dev", str(DATA / "dev.bmes"),
                          "--out", str(ft_dir), "--config", CFG,
                          "--set", "epochs=3", "--set", "stop_at_f1=0",
                          "--init", str(pre_dir / "pretrain.ckpt")])
    assert code == 0, err
    assert "best dev F1" in out


def test_warm_start_rejects_non_finite_checkpoint(tmp_path):
    pre_dir = tmp_path / "pre"
    code, _, err = run(["pretrain", "--train", str(DATA / "train.bmes"),
                        "--out", str(pre_dir), "--config", CFG, "--set", "epochs=1"])
    assert code == 0, err
    path = pre_dir / "pretrain.ckpt"
    ckpt = D.load_checkpoint(str(path))
    ckpt.params["embed"][5, 0] = np.nan
    D.save_checkpoint(str(path), ckpt.params, ckpt.model_config)
    code, out, err = run(["train", "--train", str(DATA / "train.bmes"),
                          "--dev", str(DATA / "dev.bmes"),
                          "--out", str(tmp_path / "ft"), "--config", CFG,
                          "--init", str(path)])
    assert code == 2, err
    assert "'embed' has non-finite values" in err and str(path) in err
    assert out == ""


def test_warm_start_rejects_another_lower_stack_depth(tmp_path):
    pre_dir = tmp_path / "pre"
    code, _, err = run(["pretrain", "--train", str(DATA / "train.bmes"),
                        "--out", str(pre_dir), "--config", CFG,
                        "--set", "xlnet_layers=2", "--set", "total_steps=1"])
    assert code == 0, err
    for layers, name, side in ((1, "xl.1.ln1_g", "pretrained"),
                               (3, "xl.2.ln1_g", "fine-tuning")):
        code, out, err = run(["train", "--train", str(DATA / "train.bmes"),
                              "--dev", str(DATA / "dev.bmes"),
                              "--out", str(tmp_path / f"ft{layers}"), "--config", CFG,
                              "--set", f"xlnet_layers={layers}", "--set", "epochs=1",
                              "--init", str(pre_dir / "pretrain.ckpt")])
        assert code == 2, err
        assert f"'{name}' is only in the {side} registry" in err
        assert out == ""


# ------------------------------------------------------------------ report


def test_report_summarizes_log(trained):
    out_dir, _ = trained
    code, out, err = run(["report", str(out_dir / "train.log")])
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0] == "epoch\tsteps\tmean_ce\tmean_kl\tmean_total\tP\tR\tF1"
    assert len(lines[1].split("\t")) == 8
    assert "loss curve" in out
    assert "min " in out and "steps " in out


def test_report_bad_utf8_is_exit_2(tmp_path):
    log = tmp_path / "train.log"
    log.write_bytes(b"1\t0.1\t\xff\n")
    code, out, err = run(["report", str(log)])
    assert code == 2, err
    assert str(log) in err and "UTF-8" in err


def test_report_rejects_junk(tmp_path):
    bad = tmp_path / "junk.log"
    bad.write_text("this is not a log\n")
    code, out, err = run(["report", str(bad)])
    assert code == 2
    assert "line 1" in err


# ----------------------------------------------------------- pipeline pin

# sha256 over every file the README pipeline writes at synthetic.cfg scale
# (pretrain, warm-started train, predict) and eval --pred's table. A change
# that moves one bit of a log, checkpoint, vocabulary or prediction moves it.
PIPELINE_DIGEST = "34f2d5df4b31ca949be0a784495b3552cc3ae4a4d291def0f8ec317d33359880"


def test_pipeline_outputs_are_pinned(tmp_path):
    pre, ft = tmp_path / "pre", tmp_path / "ft"
    code, _, err = run(["pretrain", "--train", str(DATA / "train.bmes"),
                        "--out", str(pre), "--config", CFG, "--set", "epochs=1"])
    assert code == 0, err
    code, _, err = run(["train", "--train", str(DATA / "train.bmes"),
                        "--dev", str(DATA / "dev.bmes"), "--out", str(ft),
                        "--config", CFG, "--set", "epochs=2", "--set", "stop_at_f1=0",
                        "--init", str(pre / "pretrain.ckpt")])
    assert code == 0, err
    text = tmp_path / "test.txt"
    text.write_text("".join("".join(tokens) + "\n" for tokens, _ in
                            D.read_conll(str(DATA / "test.bmes")).sentences))
    pred = tmp_path / "pred.bmes"
    code, _, err = run(["predict", "--ckpt", str(ft / "model.ckpt"),
                        "--in", str(text), "--out", str(pred)])
    assert code == 0, err
    code, table, err = run(["eval", "--pred", str(pred), "--data", str(DATA / "test.bmes")])
    assert code == 0, err
    h = hashlib.sha256()
    for path in (pre / "pretrain.log", pre / "pretrain.ckpt", pre / "vocab.txt",
                 ft / "train.log", ft / "model.ckpt", ft / "vocab.txt", pred):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    h.update(table.encode())
    assert h.hexdigest() == PIPELINE_DIGEST
