"""Ablation grid on the bundled corpus: positional encoding x R-Drop.

Runs all four combinations of pe_mode in {relative, absolute} and
rdrop_enabled in {on, off} with a small fixed budget, then prints a
comparison table (best dev F1 and the epoch it was reached)."""

import argparse
import os
import sys
import time
from dataclasses import replace

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ntrr.data import read_conll
from ntrr.model import ModelConfig
from ntrr.training import TrainConfig, train

GRID = [(pe, rd) for pe in ("relative", "absolute") for rd in (True, False)]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    data_dir = os.path.join(os.path.dirname(__file__), "..", "data")
    ap.add_argument("--train", default=os.path.join(data_dir, "train.bmes"))
    ap.add_argument("--dev", default=os.path.join(data_dir, "dev.bmes"))
    ap.add_argument("--epochs", type=int, default=40)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    train_corpus = read_conll(args.train, scheme="bmes")
    dev_corpus = read_conll(args.dev, scheme="bmes")
    base_mc = ModelConfig(model_dim=32, ffn_dim=64, xlnet_layers=1,
                          transformer_layers=1, num_heads=2, clip_k=4, dropout=0.1)
    base_tc = TrainConfig(epochs=args.epochs, batch_size=8, seed=args.seed,
                          stop_at_f1=1.0)

    rows = []
    for pe_mode, rdrop in GRID:
        mc = replace(base_mc, pe_mode=pe_mode)
        tc = replace(base_tc, rdrop_enabled=rdrop)
        t0 = time.time()
        report = train(train_corpus, dev_corpus, mc, tc)
        rows.append((pe_mode, "on" if rdrop else "off", report.best_f1,
                     report.best_epoch, time.time() - t0))
        print(f"done: pe={pe_mode} rdrop={rows[-1][1]} "
              f"F1={report.best_f1:.4f} @ epoch {report.best_epoch}")

    print("\npe_mode\trdrop\tbest_F1\tbest_epoch\tseconds")
    for pe, rd, f1, ep, secs in rows:
        print(f"{pe}\t{rd}\t{f1:.4f}\t{ep}\t{secs:.1f}")


if __name__ == "__main__":
    main()
