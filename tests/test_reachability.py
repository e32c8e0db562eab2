"""Every function in src/ntrr is reached by a command, or is named on a
short allowlist with the reason it stays.

The test runs one small command-line session in-process under
sys.setprofile and records every code object it enters: convert (BIO),
pretrain, a warm-started train, an R-Drop-off train, eval of the
checkpoint, predict, eval of the predictions, predict of one line longer
than model.TAG_SEG (segments over memory), report, and gradcheck in both
modes on gradcheck's tiny model shrunk as perfbench/workloads.py shrinks
it. Every function and method of the
package's source, nested ones included, is then either entered or
allowlisted; a function that is neither fails the test, named by
file:line. Allowlisting a function covers the functions nested in it.

Run as a script, it prints the functions the session never entered, with
their line counts and allowlist reasons:

    PYTHONPATH=src python tests/test_reachability.py
"""

import ast
import contextlib
import io
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import ntrr
import ntrr.data as D
import ntrr.gradcheck as G
import ntrr.model as M
from ntrr.cli import main

REPO = Path(__file__).resolve().parents[1]
DATA = REPO / "data"
CFG = str(REPO / "configs" / "synthetic.cfg")
SRC = Path(ntrr.__file__).resolve().parent

# perfbench/workloads.py's GRADCHECK_SHRINK: seconds per gradcheck, not a minute
GRADCHECK_SHRINK = dict(model_dim=8, ffn_dim=8, vocab_size=12,
                        xlnet_layers=1, transformer_layers=1)

# "module.qualname" -> why it stays although no command enters it
ALLOWLIST = {
    "tensor.mask_scores": "named by a BENCHMARK.json per-layer metric",
    "tensor.index_select_last": "named by a BENCHMARK.json per-layer metric",
    "plm.two_stream_layer": "named by a BENCHMARK.json per-layer metric",
    "tensor.masked_softmax": "named by a BENCHMARK.json per-layer metric",
    "tensor.index_bucket_last": "named by a BENCHMARK.json per-layer metric",
    "relpos.rel_attention_values": "named by a BENCHMARK.json per-layer metric",
    "relpos.rel_attention_scores": "named by a BENCHMARK.json per-layer metric",
    "tensor.concat": "joins raw segment memory; commands tag through a KV cache",
    "tensor.tsum": "reached by scripts/forward_digest.py",
    "model.param_count": "reached by perfbench/",
    "data.apply_overrides": "reached by perfbench/",
    "data.config_reference": "reached by scripts/gen_config_reference.py",
    "synthetic": "reached by scripts/make_synthetic.py and perfbench/",
    "data._schema": "runs at import, before any session",
    "tensor.Tensor.__repr__": "how a tensor shows itself",
    "tensor._helper_loop": "runs on attend's helper thread, which sys.setprofile does not see",
}


def source_functions() -> dict:
    """(path, first line) -> (module.qualname, line count) of every
    function and method in the package, nested ones included. The first
    line is the first decorator's, as in the function's code object."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                found[(path, first)] = (name, child.end_lineno - first + 1)
                visit(child, path, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), str(path), path.stem + ".")
    return found


def allowlisted(name: str):
    """The allowlist key covering name (itself or an enclosing scope), or None."""
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        if ".".join(parts[:i]) in ALLOWLIST:
            return ".".join(parts[:i])
    return None


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code == 0, (argv, out.getvalue(), err.getvalue())


def session(work: Path) -> None:
    """The command-line session, every command expected to exit 0."""
    train, dev, test = (str(DATA / f"{n}.bmes") for n in ("train", "dev", "test"))
    bio = work / "in.bio"
    bio.write_text("中 B-LOC\n国 I-LOC\n人 O\n\n山 B-PER\n", encoding="utf-8")
    _run(["convert", str(bio), str(work / "out.bmes"), "--from", "bio"])
    pre, ft, off = work / "pre", work / "ft", work / "off"
    _run(["pretrain", "--train", train, "--out", str(pre), "--config", CFG,
          "--set", "epochs=1"])
    _run(["train", "--train", train, "--dev", dev, "--out", str(ft), "--config", CFG,
          "--set", "epochs=1", "--init", str(pre / "pretrain.ckpt")])
    _run(["train", "--train", train, "--dev", dev, "--out", str(off), "--config", CFG,
          "--set", "epochs=1", "--set", "rdrop_enabled=false"])
    ckpt = str(ft / "model.ckpt")
    _run(["eval", "--ckpt", ckpt, "--data", test])
    text = work / "test.txt"
    text.write_text("".join("".join(tokens) + "\n" for tokens, _ in D.read_conll(test).sentences),
                    encoding="utf-8")
    pred = work / "pred.bmes"
    _run(["predict", "--ckpt", ckpt, "--in", str(text), "--out", str(pred)])
    _run(["eval", "--pred", str(pred), "--data", test])
    line = text.read_text(encoding="utf-8").replace("\n", "")[:M.TAG_SEG + 1]
    assert len(line) > M.TAG_SEG
    long = work / "long.txt"
    long.write_text(line + "\n", encoding="utf-8")
    _run(["predict", "--ckpt", ckpt, "--in", str(long), "--out", str(work / "long.bmes")])
    _run(["report", str(ft / "train.log")])
    tiny = G.tiny_config
    G.tiny_config = lambda pe_mode: replace(tiny(pe_mode), **GRADCHECK_SHRINK)
    try:
        _run(["gradcheck", "--mode", "both"])
    finally:
        G.tiny_config = tiny


def unreached(work: Path) -> dict:
    """The (path, first line) -> (module.qualname, line count) of every
    package function the session does not enter."""
    # a cached table built by an earlier caller would hide its builder
    M._decode_tables.cache_clear()
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        session(work)
    finally:
        sys.setprofile(previous)
    seen = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in entered}
    return {key: value for key, value in source_functions().items()
            if (os.path.realpath(key[0]), key[1]) not in seen}


def test_every_function_is_reached_or_allowlisted(tmp_path):
    missed = unreached(tmp_path)
    stray = [f"{os.path.relpath(path, REPO)}:{line}: {name} is reached by no command"
             for (path, line), (name, _) in sorted(missed.items())
             if allowlisted(name) is None]
    assert not stray, "\n".join(stray)
    covered = {allowlisted(name) for name, _ in missed.values()}
    entered = {allowlisted(name) for key, (name, _) in source_functions().items()
               if key not in missed}
    stale = sorted(set(ALLOWLIST) - covered | set(ALLOWLIST) & entered)
    assert not stale, f"allowlist entries that do not name only unreached functions: {stale}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        missed = unreached(Path(tmp))
    names = [name for name, _ in missed.values()]
    # a nested function's lines are already counted in its enclosing one
    lines = sum(n for name, n in missed.values()
                if not any(name.startswith(outer + ".<locals>.") for outer in names))
    print(f"{len(missed)} of {len(source_functions())} functions not entered, {lines} lines")
    for (path, line), (name, n) in sorted(missed.items()):
        key = allowlisted(name)
        reason = ALLOWLIST[key] if key else "NOT ALLOWLISTED"
        print(f"{os.path.relpath(path, REPO)}:{line}\t{n}\t{name}\t{reason}")
