"""The benchmark workloads: set-up, one timed round, and its checks.

A workload writes its generated inputs under its own work directory in
`setup()`, then `run_round()` runs its flow once, timing each call into the
program and checking every output. Rounds of one run repeat the same flow on
the same inputs, so their logs, checkpoints and predictions must be
identical byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import time
import traceback
from dataclasses import dataclass, field, replace

from ntrr import cli
from ntrr import data as D
from ntrr import gradcheck as G
from ntrr import model as M
from ntrr import training as TR
from ntrr.rng import Rng

import inputs

ENTITY_TYPES = ("LOC", "ORG", "PER")


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def bmes_well_formed(tags: list[str]) -> bool:
    """O and S-X anywhere; B-X M-X* E-X as one run; only known types."""
    inside = None
    for tag in tags:
        prefix, _, etype = tag.partition("-")
        if tag == "O" or prefix == "S":
            ok = inside is None and (tag == "O" or etype in ENTITY_TYPES)
        elif prefix == "B":
            ok = inside is None and etype in ENTITY_TYPES
            inside = etype
        elif prefix in ("M", "E"):
            ok = inside == etype
            inside = None if prefix == "E" else inside
        else:
            ok = False
        if not ok:
            return False
    return inside is None


def read_tagged(path: str) -> list[tuple[list[str], list[str]]]:
    """The prediction file as (tokens, tags) sentences, parsed here rather
    than by the program so that a reader bug cannot hide a writer bug."""
    sentences, tokens, tags = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line:
                token, _, tag = line.rpartition(" ")
                tokens.append(token)
                tags.append(tag)
            elif tokens:
                sentences.append((tokens, tags))
                tokens, tags = [], []
    if tokens:
        sentences.append((tokens, tags))
    return sentences


def parse_f1(eval_stdout: str) -> float | None:
    """F1 from the P/R/F1 row `ntrr eval` prints (percent), as a ratio."""
    lines = eval_stdout.splitlines()
    try:
        f1 = float(lines[1].split("\t")[2]) / 100.0
    except (IndexError, ValueError):
        return None
    return f1 if 0.0 <= f1 <= 1.0 else None


class StepLog:
    """The log= callback of training.train/pretrain: every line and the
    time it arrived."""

    def __init__(self):
        self.lines: list[str] = []
        self.stamps: list[float] = []

    def __call__(self, line: str) -> None:
        self.stamps.append(time.perf_counter())
        self.lines.append(line)

    def text(self) -> bytes:
        return "".join(line + "\n" for line in self.lines).encode("utf-8")

    def step_ms(self) -> list[float]:
        """Step line to step line; an interval with an epoch line (a dev
        eval) at either end is left out."""
        return [(b - a) * 1e3
                for (a, la), (b, lb) in zip(zip(self.stamps, self.lines),
                                            zip(self.stamps[1:], self.lines[1:]))
                if not la.startswith("epoch") and not lb.startswith("epoch")]


@dataclass
class Round:
    """What one round measured and produced. An operation is a training
    step, an eval call (dev evals inside training included), a predicted
    line or a gradcheck group."""

    tracer: object = None
    seconds: dict[str, float] = field(default_factory=dict)  # phase -> timed s
    tokens: dict[str, int] = field(default_factory=dict)  # phase -> real tokens
    predicted_lines: int = 0
    op_ms: list[float] = field(default_factory=list)  # the workload's unit operation
    gradcheck_s: list[float] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    sentinels: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def timed_s(self) -> float:
        return sum(self.seconds.values())

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def call(self, phase: str, fn, *args, **kwargs):
        """One timed call into the program; a raised error is a failed
        operation. Returns (value or None, seconds)."""
        if self.tracer is not None:
            self.tracer.run_id += 1
        start = time.perf_counter()
        try:
            value = fn(*args, **kwargs)
        except Exception:
            value = None
            self.op(False, f"{phase} raised:\n{traceback.format_exc()}")
        seconds = time.perf_counter() - start
        self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds
        return value, seconds

    def cli(self, phase: str, argv: list[str]):
        """In-process `ntrr` call with its stdout captured. Returns
        (stdout, or None when the exit code is not 0; seconds). The caller's
        output checks count the operations it covers."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc, seconds = self.call(phase, cli.main, argv)
        if rc != 0:
            self.errors.append(f"ntrr {' '.join(argv)} exited {rc}")
            return None, seconds
        return out.getvalue(), seconds

    def digest_file(self, key: str, path: str) -> None:
        self.digests[key] = sha256(read_bytes(path)) if os.path.exists(path) else "missing"

    def check_log(self, phase: str, log: StepLog) -> None:
        """One operation per log line: every loss and every dev score finite."""
        for line in log.lines:
            try:
                ok = all(math.isfinite(float(x)) for x in line.split("\t")[1:])
            except ValueError:
                ok = False
            self.op(ok, f"{phase} log line not finite: {line!r}")
        self.digests[f"{phase}.log"] = sha256(log.text())

    def check_predictions(self, pred_path: str, lines: list[str], ok_so_far: bool) -> None:
        """One operation per non-empty input line: one sentence each, the
        line's characters as tokens, well-formed BMES tags."""
        got = read_tagged(pred_path) if ok_so_far and os.path.exists(pred_path) else []
        for j, line in enumerate(lines):
            tokens = [ch for ch in line if not ch.isspace()]
            ok = (len(got) == len(lines) and got[j][0] == tokens
                  and bmes_well_formed(got[j][1]))
            self.op(ok, f"prediction for input line {j} missing or malformed")
        self.predicted_lines += len(lines)
        self.digest_file(os.path.basename(pred_path), pred_path)


class Workload:
    name = ""
    op_label = ""  # the unit operation, as `<op_label>_p50` in the phase lines

    def __init__(self, root: str, work: str, seed: int):
        self.root = root
        self.work = work
        self.seed = seed
        self.checks: list[tuple[str, bool, str]] = []

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def write_inputs(self, files: dict[str, str]) -> str:
        """Write the generated files; returns one digest over all of them."""
        h = hashlib.sha256()
        for name, text in sorted(files.items()):
            write_text(self.path(name), text)
            h.update(name.encode() + b"\0" + text.encode("utf-8") + b"\0")
        return h.hexdigest()

    def setup(self) -> str:
        raise NotImplementedError

    def run_round(self, rnd: Round) -> None:
        raise NotImplementedError


class SynthSmall(Workload):
    """README quick start at configs/synthetic.cfg scale: PLM pretraining,
    R-Drop fine-tuning warm-started from it, eval, predict."""

    name = "synth-small"
    op_label = "train_step_ms"
    PRETRAIN_SET = ["epochs=2"]
    # fixed work per round: no early stop at dev F1 1.0
    FINETUNE_SET = ["epochs=30", "stop_at_f1=0"]

    def setup(self) -> str:
        splits = inputs.synth_small(self.seed)
        files = {f"{name}.bmes": inputs.bmes_text(sents) for name, sents in splits.items()}
        files["test.txt"] = inputs.plain_text(splits["test"])
        digest = self.write_inputs(files)
        golden = inputs.synth_small(inputs.DEFAULT_SEED)
        for name, sents in golden.items():
            bundled = read_bytes(os.path.join(self.root, "data", f"{name}.bmes"))
            self.checks.append((f"generator reproduces data/{name}.bmes",
                                inputs.bmes_text(sents).encode("utf-8") == bundled, ""))
        self.train = D.read_conll(self.path("train.bmes"))
        self.dev = D.read_conll(self.path("dev.bmes"))
        mc, tc = D.load_run_config(os.path.join(self.root, "configs", "synthetic.cfg"))
        self.mc, self.tc_pre = D.apply_overrides(mc, tc, self.PRETRAIN_SET)
        _, self.tc_ft = D.apply_overrides(mc, tc, self.FINETUNE_SET)
        self.train_tokens = sum(len(t) for t, _ in self.train.sentences)
        self.test_tokens = sum(len(t) for t, _ in splits["test"])
        self.test_lines = files["test.txt"].splitlines()
        for sub in ("pre", "ft"):
            os.makedirs(self.path(sub), exist_ok=True)
        self.model_ckpt = self.path("ft", "model.ckpt")
        self.model_vocab = D.sibling_vocab_path(self.model_ckpt)
        return digest

    def run_round(self, rnd: Round) -> None:
        pre_ckpt = self.path("pre", "pretrain.ckpt")
        model_ckpt = self.model_ckpt

        log = StepLog()
        rnd.call("pretrain", TR.pretrain, self.train, self.mc, self.tc_pre,
                 log=log, checkpoint_path=pre_ckpt)
        rnd.tokens["pretrain"] = self.tc_pre.epochs * self.train_tokens
        rnd.check_log("pretrain", log)
        rnd.digest_file("pretrain.ckpt", pre_ckpt)

        def finetune():  # what `ntrr train --init` does around training.train
            ckpt = D.load_checkpoint(pre_ckpt)
            vocab = D.load_vocab(D.sibling_vocab_path(pre_ckpt))
            return TR.train(self.train, self.dev, self.mc, self.tc_ft, log=log,
                            checkpoint_path=model_ckpt, vocab=vocab,
                            init_params_from=ckpt.params)

        log = StepLog()
        report, _ = rnd.call("train", finetune)
        epochs = len(report.history) if report else self.tc_ft.epochs
        rnd.tokens["train"] = epochs * self.train_tokens
        rnd.check_log("train", log)
        rnd.op_ms = log.step_ms()
        if report:
            rnd.sentinels["final_loss"] = report.history[-1].mean_total
        rnd.digest_file("model.ckpt", model_ckpt)
        rnd.digest_file("vocab.txt", self.model_vocab)

        out, _ = rnd.cli("eval", ["eval", "--ckpt", model_ckpt,
                                  "--data", self.path("test.bmes")])
        f1 = parse_f1(out) if out is not None else None
        rnd.op(f1 is not None, "eval printed no F1 in [0, 1]")
        rnd.tokens["eval"] = self.test_tokens
        if f1 is not None:
            rnd.sentinels["test_f1"] = f1
        rnd.digests["eval.stdout"] = sha256((out or "").encode("utf-8"))

        pred = self.path("ft", "pred.bmes")
        out, _ = rnd.cli("predict", ["predict", "--ckpt", model_ckpt,
                                     "--in", self.path("test.txt"), "--out", pred])
        rnd.tokens["predict"] = self.test_tokens
        rnd.check_predictions(pred, self.test_lines, out is not None)


class LongTrain(Workload):
    """R-Drop fine-tuning at the default model config on T = 256, then
    one dev eval."""

    name = "long-train"
    op_label = "train_step_ms"
    TRAIN_SET = ["epochs=1", "batch_size=4", "stop_at_f1=0"]

    def setup(self) -> str:
        splits = inputs.long_train(self.seed)
        digest = self.write_inputs({f"{name}.bmes": inputs.bmes_text(sents)
                                    for name, sents in splits.items()})
        self.train = D.read_conll(self.path("train.bmes"))
        self.dev = D.read_conll(self.path("dev.bmes"))
        self.mc, self.tc = D.apply_overrides(M.ModelConfig(), TR.TrainConfig(), self.TRAIN_SET)
        self.train_tokens = sum(len(t) for t, _ in self.train.sentences)
        self.model_ckpt = self.path("model.ckpt")
        self.model_vocab = D.sibling_vocab_path(self.model_ckpt)
        return digest

    def run_round(self, rnd: Round) -> None:
        model_ckpt = self.model_ckpt
        log = StepLog()
        report, _ = rnd.call("train", TR.train, self.train, self.dev, self.mc, self.tc,
                             log=log, checkpoint_path=model_ckpt)
        rnd.tokens["train"] = self.tc.epochs * self.train_tokens
        rnd.check_log("train", log)
        rnd.op_ms = log.step_ms()
        if report:
            rnd.sentinels["final_loss"] = report.history[-1].mean_total
        rnd.digest_file("model.ckpt", model_ckpt)
        rnd.digest_file("vocab.txt", self.model_vocab)


class LongInfer(Workload):
    """`ntrr predict` on 1,000-character lines and `ntrr eval` on
    512-token gold sentences, from a default-config checkpoint."""

    name = "long-infer"
    op_label = "predict_line_ms"

    def setup(self) -> str:
        gen = inputs.long_infer(self.seed)
        files = {f"line{j}.txt": inputs.plain_text([sent])
                 for j, sent in enumerate(gen["lines"])}
        files["gold.bmes"] = inputs.bmes_text(gen["gold"])
        digest = self.write_inputs(files)
        self.lines = {name: text.splitlines() for name, text in files.items()
                      if name.endswith(".txt")}
        self.gold_tokens = sum(len(t) for t, _ in gen["gold"])
        gold = D.read_conll(self.path("gold.bmes"))
        vocab = D.build_vocab(gold)
        mc = replace(M.ModelConfig(), vocab_size=len(vocab), entity_types=ENTITY_TYPES)
        params = M.init_params(mc, inputs.long_infer_init_stream(self.seed))
        self.ckpt = self.path("model.ckpt")
        D.save_checkpoint(self.ckpt, params, mc)
        D.save_vocab(D.sibling_vocab_path(self.ckpt), vocab)
        return sha256(digest.encode() + read_bytes(self.ckpt))

    def run_round(self, rnd: Round) -> None:
        for name, lines in sorted(self.lines.items()):
            pred = self.path(name.replace(".txt", ".pred.bmes"))
            out, seconds = rnd.cli("predict", ["predict", "--ckpt", self.ckpt,
                                               "--in", self.path(name), "--out", pred])
            rnd.op_ms.append(seconds * 1e3)
            rnd.tokens["predict"] = rnd.tokens.get("predict", 0) + sum(map(len, lines))
            rnd.check_predictions(pred, lines, out is not None)
        out, _ = rnd.cli("eval", ["eval", "--ckpt", self.ckpt,
                                  "--data", self.path("gold.bmes")])
        rnd.op(out is not None and parse_f1(out) is not None,
               "eval printed no F1 in [0, 1]")
        rnd.tokens["eval"] = self.gold_tokens
        rnd.digests["eval.stdout"] = sha256((out or "").encode("utf-8"))


_TINY_CONFIG = G.tiny_config
# Shrinks gradcheck's tiny model so one gradcheck_model call takes seconds,
# not a minute; dropout, R-Drop, clip radius and both stacks stay as they are.
GRADCHECK_SHRINK = dict(model_dim=8, ffn_dim=8, vocab_size=12,
                        xlnet_layers=1, transformer_layers=1)
GRADCHECK_TOKENS = 5  # real tokens per loss evaluation (gradcheck_model's t)


def mini_config(pe_mode: str) -> M.ModelConfig:
    return replace(_TINY_CONFIG(pe_mode), **GRADCHECK_SHRINK)


class GradcheckMini(Workload):
    """`gradcheck_model("relative", seed)`: element-wise central
    differences over every parameter, each a no-grad tiny R-Drop forward."""

    name = "gradcheck-mini"
    op_label = "loss_eval_ms"

    def setup(self) -> str:
        G.tiny_config = mini_config
        self.gc_seed = inputs.gradcheck_seed(self.seed)
        config = mini_config("relative")
        self.groups = set(M.init_params(config, Rng(0)))
        self.loss_evals = 2 * M.param_count(config) + 1
        return sha256(f"{self.gc_seed} {config}".encode())

    def run_round(self, rnd: Round) -> None:
        # Each loss evaluation ends in one call of gradcheck's rdrop_loss; the
        # time between two such calls is one evaluation. A timestamp per call
        # costs well under a microsecond against milliseconds of forward.
        stamps = []
        inner = G.rdrop_loss

        def stamped(*args, **kwargs):
            stamps.append(time.perf_counter())
            return inner(*args, **kwargs)

        G.rdrop_loss = stamped
        try:
            errors, seconds = rnd.call("gradcheck", G.gradcheck_model, "relative", self.gc_seed)
        finally:
            G.rdrop_loss = inner
        rnd.op_ms = [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]
        rnd.gradcheck_s.append(seconds)
        rnd.tokens["gradcheck"] = self.loss_evals * GRADCHECK_TOKENS
        if errors is None:
            return
        # a wrong evaluation count or group set fails every group
        shaped = len(stamps) == self.loss_evals and set(errors) == self.groups
        for name, err in sorted(errors.items()):
            rnd.op(shaped and math.isfinite(err) and err <= G.TOLERANCE,
                   f"gradcheck group {name}: error {err:.3e} (tolerance {G.TOLERANCE:g}), "
                   f"{len(stamps)} of {self.loss_evals} loss evaluations, "
                   f"{len(errors)} of {len(self.groups)} groups")
        rnd.digests["errors"] = sha256(repr(sorted(errors.items())).encode())


WORKLOADS = {cls.name: cls for cls in (SynthSmall, LongTrain, LongInfer, GradcheckMini)}
