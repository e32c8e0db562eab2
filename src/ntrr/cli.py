"""Command-line interface.

Subcommands: convert, pretrain, train, eval, predict, gradcheck, report.
Exit codes are stable: 0 success, 1 runtime failure, 2 bad input or
configuration (including argparse usage errors)."""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import numpy as np

from . import data as D
from . import model as M
from . import training as TR
from .errors import CheckpointError, ConfigError, NtrrError, ParseError
from .gradcheck import TOLERANCE, gradcheck_model
from .tagging import Entity, PrfScores, entity_prf, scan_entities


def _load_configs(args) -> tuple[M.ModelConfig, TR.TrainConfig]:
    """The --config file (or the defaults) under the --set items; --seed N
    is the override seed=N."""
    seed = [] if args.seed is None else [f"seed={args.seed}"]
    return D.load_run_config(args.config, (args.set or []) + seed)


@contextlib.contextmanager
def _tee_log(out: str, name: str):
    """A log callback that prints each line and writes it to out/name.
    The first line creates both, so a run that rejects its input before
    then leaves nothing behind."""
    path, log = os.path.join(out, name), []
    with contextlib.ExitStack() as files:
        def emit(line: str):
            with D.file_errors(path, "write"):
                if not log:
                    os.makedirs(out, exist_ok=True)
                    log.append(files.enter_context(open(path, "w", encoding="utf-8")))
                log[0].write(line + "\n")
                log[0].flush()
            print(line)

        yield emit


def _read_corpus(path: str, scheme: str = "bmes") -> D.Corpus:
    """read_conll, with each of the corpus's warnings printed to stderr."""
    corpus = D.read_conll(path, scheme=scheme)
    for warning in corpus.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return corpus


def _print_prf(scores: PrfScores) -> None:
    print("Precise (%)\tRecall (%)\tF1 Score (%)")
    print(f"{scores.precision * 100:.2f}\t{scores.recall * 100:.2f}\t{scores.f1 * 100:.2f}")
    for etype, (p, r, f) in sorted(scores.per_type.items()):
        print(f"{etype}\t{p * 100:.2f}\t{r * 100:.2f}\t{f * 100:.2f}")


def cmd_convert(args) -> int:
    corpus = _read_corpus(args.infile, args.src_scheme)
    D.write_conll(args.outfile, corpus.sentences)
    print(f"wrote {len(corpus.sentences)} sentences to {args.outfile}; "
          f"{corpus.repair_count} repairs")
    return 0


def cmd_train(args) -> int:
    mc, tc = _load_configs(args)
    corpus = _read_corpus(args.train)
    _check_lengths(args.train, [t for t, _ in corpus.sentences], M.MAX_TRAIN_TOKENS, "training")
    dev_corpus = _read_corpus(args.dev)
    _check_lengths(args.dev, [t for t, _ in dev_corpus.sentences], M.MAX_TAG_TOKENS, "tagged")
    init, vocab = D.load_model(args.init) if args.init else (None, None)
    ckpt_path = os.path.join(args.out, "model.ckpt")
    with _tee_log(args.out, "train.log") as emit:
        report = TR.train(corpus, dev_corpus, mc, tc, log=emit,
                          checkpoint_path=ckpt_path, vocab=vocab,
                          init_params_from=init.params if init else None)
    print(f"best dev F1 {report.best_f1:.4f} at epoch {report.best_epoch}; "
          f"checkpoint {ckpt_path}")
    return 0


def cmd_pretrain(args) -> int:
    mc, tc = _load_configs(args)
    corpus = _read_corpus(args.train)
    _check_lengths(args.train, [t for t, _ in corpus.sentences], M.MAX_TRAIN_TOKENS, "training")
    ckpt_path = os.path.join(args.out, "pretrain.ckpt")
    with _tee_log(args.out, "pretrain.log") as emit:
        report = TR.pretrain(corpus, mc, tc, log=emit, checkpoint_path=ckpt_path)
    print(f"pretraining finished: {report.history[0].steps} steps, "
          f"mean loss {report.history[0].mean_total:.4f}; checkpoint {ckpt_path}")
    return 0


def _load_model(args) -> tuple[M.ModelConfig, dict, D.Vocab]:
    ckpt, vocab = D.load_model(args.ckpt, args.vocab)
    return ckpt.model_config, D.params_from_checkpoint(ckpt), vocab


def _check_lengths(path: str, sentences, cap: int, noun: str, unit: str = "sentence") -> None:
    """Exit 2 on a sentence of more than cap tokens, naming path, the
    sentence's 1-based number as a unit ("line", "sentence") and the cap's noun."""
    for number, tokens in enumerate(sentences, start=1):
        if len(tokens) > cap:
            raise ParseError(f"{path}: {unit} {number}: {len(tokens)} tokens, over the "
                             f"cap of {cap} per {noun} sentence")


def cmd_eval(args) -> int:
    if bool(args.ckpt) == bool(args.pred):
        raise ConfigError("pass exactly one of --ckpt (model eval) or --pred (file eval)")
    if args.ckpt:
        mc, params, vocab = _load_model(args)
        corpus = _read_corpus(args.data)
        _check_lengths(args.data, [t for t, _ in corpus.sentences], M.MAX_TAG_TOKENS, "tagged")
        extra = set(corpus.label_set.entity_types) - set(mc.entity_types)
        if extra:
            raise ConfigError(f"{args.data}: dataset entity types {sorted(extra)} are outside "
                              f"the checkpoint label set {list(mc.entity_types)}")
        scores, repairs = TR.evaluate(corpus, vocab, params, mc)
        _print_prf(scores)
        print(f"repairs\t{repairs}")
        return 0
    pred = _read_corpus(args.pred)
    gold = _read_corpus(args.data)
    if len(pred.sentences) != len(gold.sentences):
        raise ParseError(f"{args.pred}: {len(pred.sentences)} sentences but gold has "
                         f"{len(gold.sentences)}")
    pred_entities, gold_entities = [], []
    base = 0
    for number, ((ptoks, ptags), (gtoks, gtags)) in enumerate(
            zip(pred.sentences, gold.sentences), start=1):
        if ptoks != gtoks:
            raise ParseError(f"{args.pred}: sentence {number}: tokens differ from gold")
        pred_entities.extend(Entity(e.start + base, e.end + base, e.etype)
                             for e in scan_entities(ptags)[0])
        gold_entities.extend(Entity(e.start + base, e.end + base, e.etype)
                             for e in scan_entities(gtags)[0])
        base += len(gtoks)
    _print_prf(entity_prf(pred_entities, gold_entities))
    return 0


def cmd_predict(args) -> int:
    mc, params, vocab = _load_model(args)
    sentences = [line.split() for line in D.split_lines(D.read_text(args.infile))]
    if mc.token_mode == "char":  # the line's non-whitespace characters
        sentences = [list("".join(words)) for words in sentences]
    _check_lengths(args.infile, sentences, M.MAX_TAG_TOKENS, "tagged", "line")
    sentences = [tokens for tokens in sentences if tokens]
    if not sentences:
        raise ParseError(f"{args.infile}: no sentences found")
    tags = M.tag([vocab.encode(tokens) for tokens in sentences], mc, params)
    D.write_conll(args.outfile, zip(sentences, tags))
    print(f"wrote {len(sentences)} sentences to {args.outfile}")
    return 0


def cmd_gradcheck(args) -> int:
    TR.check_seed(args.seed)
    modes = ("absolute", "relative") if args.mode == "both" else (args.mode,)
    worst = 0.0
    for mode in modes:
        errors = gradcheck_model(mode, seed=args.seed)
        for name in sorted(errors):
            print(f"{mode}\t{name}\t{errors[name]:.3e}")
        mode_worst = max(errors.values())
        worst = max(worst, mode_worst)
        print(f"{mode}\tmax\t{mode_worst:.3e}")
    ok = worst <= TOLERANCE
    print(f"gradcheck {'passed' if ok else 'FAILED'}: "
          f"max relative error {worst:.3e} (tolerance {TOLERANCE:g})")
    return 0 if ok else 1


def cmd_report(args) -> int:
    lines = D.split_lines(D.read_text(args.log))
    steps = []  # (step, lr, ce, kl, total)
    epochs = []  # (epoch, p, r, f1, end of its steps)
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        where = f"{args.log}: line {lineno}"
        try:
            if parts[0] == "epoch" and len(parts) == 5:
                epoch, values = int(parts[1]), [float(x) for x in parts[2:]]
            elif len(parts) == 5:
                epoch, values = None, [float(x) for x in parts]
            else:
                raise ValueError
        except ValueError:
            raise ParseError(f"{where}: not a training log line") from None
        if not all(np.isfinite(values)):
            raise ParseError(f"{where}: non-finite value")
        if epoch is None:
            steps.append(values)
        elif len(steps) == (epochs[-1][-1] if epochs else 0):
            raise ParseError(f"{where}: epoch line with no step line since the last one")
        else:
            epochs.append((epoch, *values, len(steps)))
    if not steps:
        raise ParseError(f"{args.log}: no step lines found")
    print("epoch\tsteps\tmean_ce\tmean_kl\tmean_total\tP\tR\tF1")
    prev = 0
    for epoch, p, r, f1, upto in epochs:
        chunk = steps[prev:upto]
        prev = upto
        ce, kl, total = (sum(s[col] for s in chunk) / len(chunk) for col in (2, 3, 4))
        print(f"{epoch}\t{len(chunk)}\t{ce:.4f}\t{kl:.4f}\t{total:.4f}"
              f"\t{p:.4f}\t{r:.4f}\t{f1:.4f}")
    totals = [s[4] for s in steps]
    print("\nloss curve (total per step, binned):")
    print(_sketch(totals, width=60, height=8))
    return 0


def _sketch(values, width: int = 60, height: int = 8) -> str:
    """Plain-text curve: bins averaged to `width` columns, `height` rows."""
    if len(values) > width:
        edges = np.linspace(0, len(values), width + 1).astype(int)
        cols = [float(np.mean(values[a:b])) for a, b in zip(edges, edges[1:]) if b > a]
    else:
        cols = [float(v) for v in values]
    lo, hi = min(cols), max(cols)
    span = (hi - lo) or 1.0
    rows = []
    for r in range(height, 0, -1):
        cut = lo + span * (r - 0.5) / height
        line = "".join("*" if v >= cut else " " for v in cols)
        rows.append(line.rstrip() or "")
    rows.append("-" * len(cols))
    rows.append(f"min {lo:.4f}  max {hi:.4f}  steps {len(values)}")
    return "\n".join(rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ntrr",
        description="sequence labeling lab: permutation-LM pretraining, "
                    "relative-position attention, R-Drop fine-tuning")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="run config file (key = value lines)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key; repeatable")
        p.add_argument("--seed", type=int, help="override the master seed")

    p = sub.add_parser("convert", help="convert a tagged corpus between schemes")
    p.add_argument("infile")
    p.add_argument("outfile")
    p.add_argument("--from", dest="src_scheme", choices=("bio", "bmes"), required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("pretrain", help="permutation-LM pretraining")
    p.add_argument("--train", required=True, help="tagged corpus (tags unused)")
    p.add_argument("--out", required=True, help="output directory")
    common(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train", help="fine-tune a tagger")
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--init", help="warm-start encoder from a pretraining checkpoint")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a model or a predictions file")
    p.add_argument("--ckpt", help="model checkpoint to evaluate")
    p.add_argument("--pred", help="predictions file to score instead of a model")
    p.add_argument("--data", required=True, help="gold corpus")
    p.add_argument("--vocab", help="vocabulary file (default: next to the checkpoint)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="tag plain text, one sentence per line")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--vocab")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference check of the full model")
    p.add_argument("--mode", choices=("absolute", "relative", "both"), default="both")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("report", help="summarize a training log")
    p.add_argument("log")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ConfigError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NtrrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 1
    except Exception as exc:  # anything unplanned is a runtime failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
