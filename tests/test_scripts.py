"""The checked-in scripts run end to end from a checkout."""

import importlib.util
import subprocess
import sys
from pathlib import Path

from ntrr import synthetic
from ntrr.data import write_conll

REPO = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / name), *args],
                          cwd=REPO, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_run_ablation_prints_the_grid():
    lines = run_script("run_ablation.py", "--epochs", "1").splitlines()
    header = lines.index("pe_mode\trdrop\tbest_F1\tbest_epoch\tseconds")
    rows = [line.split("\t") for line in lines[header + 1:]]
    assert [row[:2] for row in rows] == [["relative", "on"], ["relative", "off"],
                                         ["absolute", "on"], ["absolute", "off"]]
    for row in rows:
        assert 0.0 <= float(row[2]) <= 1.0 and row[3] == "1"


def test_forward_digest_prints_one_digest():
    # the outputs of 48 forward cases, pinned bitwise; an intended change
    # to any forward's arithmetic updates this digest and says why
    assert run_script("forward_digest.py") == (
        "5c7de28b406dcae57e45c053fba07f5ff328e735d5a716c1d52fdf635a503aaa  48 cases\n")


def test_graph_bytes_prints_saved_bytes_per_op():
    lines = run_script("graph_bytes.py", "--tokens", "6").splitlines()
    assert lines[1] == "op\tarrays\tMB"
    end = next(i for i, line in enumerate(lines) if line.startswith("total\t"))
    rows = {row[0]: row[1:] for row in (line.split("\t") for line in lines[2:end + 1])}
    assert "attend" in rows and "masked_softmax" not in rows
    assert int(rows["total"][0]) == sum(int(n) for op, (n, _) in rows.items() if op != "total")
    assert lines[end + 1].startswith("# tracemalloc MB")
    traced = dict(line.split("\t") for line in lines[end + 2:])
    assert set(traced) == {"held", "backward_peak"}
    # the sweep starts from what the forward holds
    assert 0 < float(traced["held"]) <= float(traced["backward_peak"])
    # the table counts only what the graph keeps alive, not the parameters
    assert float(rows["total"][1]) <= float(traced["held"])


def test_tag_cost_prints_time_and_peak():
    lines = run_script("tag_cost.py", "--tokens", "20").splitlines()
    assert lines[0] == "# model.tag, default config, 1 sentence of 20 tokens, seed 1"
    rows = dict(line.split("\t") for line in lines[1:])
    assert set(rows) == {"median_ms", "minor_faults", "sys_ms", "cpu_ms", "peak_mb"}
    assert float(rows["median_ms"]) > 0 and float(rows["peak_mb"]) > 0
    assert float(rows["minor_faults"]) >= 0 and float(rows["sys_ms"]) >= 0
    assert float(rows["cpu_ms"]) >= 0


def test_bundled_corpus_is_what_make_synthetic_writes(tmp_path):
    # rebuild each split as the script's main does, into tmp_path, not data/
    spec = importlib.util.spec_from_file_location("make_synthetic",
                                                  REPO / "scripts" / "make_synthetic.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert [name for name, _, _ in script.SPLITS] == ["train", "dev", "test"]
    for name, n, seed in script.SPLITS:
        path = tmp_path / f"{name}.bmes"
        write_conll(str(path), synthetic.generate_corpus(n, seed=seed).sentences)
        assert path.read_bytes() == (REPO / "data" / f"{name}.bmes").read_bytes(), name
