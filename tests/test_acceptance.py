"""Acceptance suite: one test per shipping criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s) and
asserts the same condition. Self-contained: oracles are local copies,
independent of the other test modules. Runtime is dominated by the
finite-difference check (criterion 1), roughly a minute in total.
"""

import itertools
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import ntrr.data as D
import ntrr.model as M
import ntrr.tensor as T
import ntrr.training as TR
from ntrr.errors import NtrrError
from ntrr.gradcheck import TOLERANCE, gradcheck_model
from ntrr.plm import build_masks, make_plan, sample_permutation, two_stream_layer
from ntrr.relpos import (AttentionParams, RelPosTable, clip_rel,
                         rel_attention_scores, rel_attention_values,
                         sinusoidal_pe)
from ntrr.rng import DropoutStreams, DualDropoutStreams, Rng
from ntrr.tagging import Entity, bio_to_bmes, entity_prf, extract_entities, split_tag
from ntrr.tensor import Tensor

REPO = Path(__file__).resolve().parents[1]
DATA = REPO / "data"
CFG = str(REPO / "configs" / "synthetic.cfg")


def verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name})"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------- 1. gradient integrity


def test_criterion_1_gradient_integrity():
    details = []
    ok = True
    for mode in ("relative", "absolute"):
        t0 = time.monotonic()
        errors = gradcheck_model(mode, seed=0)
        elapsed = time.monotonic() - t0
        worst = max(errors.values())
        ok = ok and worst <= TOLERANCE and elapsed < 60.0
        details.append(f"{mode} max {worst:.2e} in {elapsed:.1f}s")
    verdict(1, "gradient integrity", ok,
            "; ".join(details) + f"; tolerance {TOLERANCE:g}, limit 60s per mode")


# --------------------------------------------- 2. relative-PE diagnostics


def _attn_params(rng, d):
    def w():
        return Tensor(rng.normal((d, d)) * 0.3)

    def b():
        return Tensor(np.zeros(d))

    return AttentionParams(wq=w(), bq=b(), wk=w(), bk=b(),
                           wv=w(), bv=b(), wo=w(), bo=b())


def test_criterion_2_relative_pe():
    rng = Rng(11, 0)
    checks = {}

    # zero tables reduce scores and values to vanilla attention
    q = Tensor(rng.normal((1, 1, 3, 4)))
    k = Tensor(rng.normal((1, 1, 5, 4)))
    zero = RelPosTable(Tensor(np.zeros((5, 4))), Tensor(np.zeros((5, 4))))
    pos_q, pos_k = [2, 3, 4], [0, 1, 2, 3, 4]
    with_t = rel_attention_scores(q, k, zero, pos_q, pos_k).data
    vanilla = rel_attention_scores(q, k, None, pos_q, pos_k).data
    attn = T.softmax(Tensor(vanilla)).data
    v = rng.normal((1, 1, 5, 4))
    mix = rel_attention_values(Tensor(attn), Tensor(v), zero, pos_q, pos_k).data
    checks["zero-table"] = (np.max(np.abs(with_t - vanilla)) <= 1e-12
                            and np.max(np.abs(mix - attn @ v)) <= 1e-12)

    # translation invariance, bitwise across large shifts
    table = RelPosTable(Tensor(rng.normal((7, 4)) * 0.3),
                        Tensor(rng.normal((7, 4)) * 0.3))
    base = None
    same = True
    for shift in (0, 7, 1000):
        s = rel_attention_scores(q, k, table,
                                 [p + shift for p in pos_q],
                                 [p + shift for p in pos_k]).data
        w = T.softmax(Tensor(s)).data
        o = rel_attention_values(Tensor(w), Tensor(v), table,
                                 [p + shift for p in pos_q],
                                 [p + shift for p in pos_k]).data
        if base is None:
            base = (s, o)
        else:
            same = same and np.array_equal(s, base[0]) and np.array_equal(o, base[1])
    checks["translation"] = same

    # clip saturation: only the edge rows matter beyond the radius
    q2 = Tensor(rng.normal((1, 1, 2, 3)))
    k2 = Tensor(rng.normal((1, 1, 2, 3)))
    wk = rng.normal((5, 3))  # radius 2
    far_q, far_k = [0, 100], [50, 60]

    def scores_with(rows):
        t = RelPosTable(Tensor(rows), Tensor(np.zeros_like(rows)))
        return rel_attention_scores(q2, k2, t, far_q, far_k).data

    inner = wk.copy()
    inner[1:4] += 100.0
    edge = wk.copy()
    edge[0] += 1.0
    checks["clip-saturation"] = (np.array_equal(scores_with(inner), scores_with(wk))
                                 and not np.array_equal(scores_with(edge),
                                                        scores_with(wk)))

    # two tokens, hand-expanded score formula
    qh = np.array([[1.0, 2.0], [0.5, -1.0]])
    kh = np.array([[0.0, 1.0], [2.0, 0.5]])
    wkh = np.array([[0.1, 0.2], [0.0, 0.0], [-0.3, 0.4]])
    th = RelPosTable(Tensor(wkh.copy()), Tensor(np.zeros_like(wkh)))
    got = rel_attention_scores(Tensor(qh[None]), Tensor(kh[None]), th,
                               [0, 1], [0, 1]).data[0]
    hand_ok = True
    for i in range(2):
        for l in range(2):
            want = (qh[i] @ kh[l] + qh[i] @ wkh[clip_rel(l - i, 1) + 1]) / np.sqrt(2)
            hand_ok = hand_ok and abs(got[i, l] - want) <= 1e-12
    checks["two-token"] = hand_ok

    # absolute mode: (e+p)Wq ((e+p)Wk)^T splits into exactly four terms
    d = 6
    e = rng.normal((3, d))
    p = sinusoidal_pe(range(3), d)
    wq2 = rng.normal((d, d)) * 0.3
    wk2 = rng.normal((d, d)) * 0.3
    full = ((e + p) @ wq2) @ ((e + p) @ wk2).T
    terms = ((e @ wq2) @ (e @ wk2).T + (e @ wq2) @ (p @ wk2).T
             + (p @ wq2) @ (e @ wk2).T + (p @ wq2) @ (p @ wk2).T)
    checks["four-term"] = np.max(np.abs(full - terms)) <= 1e-10

    verdict(2, "relative-PE diagnostics", all(checks.values()),
            ", ".join(f"{k}={'ok' if v else 'BAD'}" for k, v in checks.items()))


# -------------------------------------------------- 3. permutation-LM masks


def _mask_oracle(order):
    n = len(order)
    rank = {tok: t for t, tok in enumerate(order)}
    q = np.zeros((n, n), dtype=bool)
    c = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            q[i, j] = rank[j] < rank[i]
            c[i, j] = rank[j] <= rank[i]
    return q, c


def test_criterion_3_plm_masks():
    # every permutation up to n = 6 against the precedence oracle
    enumerated = 0
    masks_ok = True
    for n in range(1, 7):
        for order in itertools.permutations(range(n)):
            q, c = build_masks(list(order))
            oq, oc = _mask_oracle(order)
            masks_ok = masks_ok and np.array_equal(q, oq) and np.array_equal(c, oc)
            enumerated += 1

    # the worked figure order (3,2,4,1), zero-based (2,1,3,0)
    plan = make_plan([2, 1, 3, 0])
    fig_ok = (set(np.nonzero(plan.query_mask[0])[0]) == {1, 2, 3}
              and set(np.nonzero(plan.query_mask[2])[0]) == set()
              and set(np.nonzero(plan.query_mask[3])[0]) == {1, 2})

    # no-leakage gradient probe on 100 random (order, seed) cases; the
    # graph is rebuilt per probe because repeated backward sweeps over a
    # shared graph re-propagate the accumulated intermediate grads
    leak_free = True
    probes = 0
    rng = Rng(31, 0)
    for case in range(100):
        r = rng.derive(case)
        n = 2 + r.randbelow(5)
        mc = M.ModelConfig(vocab_size=30, model_dim=8, ffn_dim=8, xlnet_layers=1,
                           transformer_layers=0, num_heads=2, clip_k=2,
                           entity_types=("PER",), dropout=0.0)
        params = M.init_params(mc, Rng.for_stream(r.randbelow(10 ** 6), "init"),
                               "float64")
        ids = np.array([[2 + r.derive("ids", i).randbelow(28) for i in range(n)]])
        plan = sample_permutation(n, r.derive(1))
        for i in range(n):
            tok = ids[0, i]
            if any(ids[0, j] == tok for j in range(n) if j != i):
                continue  # duplicated id: gradient may arrive via the twin
            emb = T.embedding(params["embed"], ids)
            g0 = Tensor(np.broadcast_to(params["w_init"].data,
                                        emb.data.shape).copy())
            _, g1 = two_stream_layer(emb, g0, plan.query_mask, plan.content_mask,
                                     M.block_params(params, "xl.0."),
                                     mc.attention_config(), range(n), range(n),
                                     M.rel_table(params, "xl", mc))
            T.zero_grads([params["embed"]])
            T.backward(T.tsum(T.slice_axis(g1, 1, i, i + 1)))
            leak_free = leak_free and np.max(np.abs(params["embed"].grad[tok])) == 0.0
            probes += 1
    leak_free = leak_free and probes > 100

    verdict(3, "permutation-LM masks", masks_ok and fig_ok and leak_free,
            f"{enumerated} permutations enumerated, figure order ok, "
            f"{probes} leakage probes over 100 cases clean")


# --------------------------------------------------- 4. segment recurrence


def test_criterion_4_segment_recurrence():
    mc = M.ModelConfig(vocab_size=30, model_dim=16, ffn_dim=16, xlnet_layers=2,
                       transformer_layers=2, num_heads=2, clip_k=4,
                       pe_mode="relative", memory_len=8,
                       entity_types=("LOC", "ORG", "PER"), dropout=0.0)
    params = M.init_params(mc, Rng.for_stream(2, "init"), "float64")
    r = Rng(41, 0)
    ids = np.array([[2 + r.randbelow(28) for _ in range(16)]])
    with T.no_grad():
        full, _ = M.forward_ner(ids, None, mc, params, None, False)
        mem = M.SegmentMemory.empty(mc.num_layers)
        _, mem = M.forward_ner(ids[:, :8], mem, mc, params, None, False)
        second, _ = M.forward_ner(ids[:, 8:], mem, mc, params, None, False)
    gap = float(np.max(np.abs(full.data[:, 8:] - second.data)))
    split_ok = gap <= 1e-5

    # perturbing the cached states must move the outputs
    with T.no_grad():
        noise = Rng(42, 0)
        bumped = M.SegmentMemory([m + 0.5 * noise.normal(m.shape)
                                  for m in mem.layers], mem.offset)
        moved, _ = M.forward_ner(ids[:, 8:], bumped, mc, params, None, False)
    perturb_ok = float(np.max(np.abs(moved.data - second.data))) > 1e-6

    # and must receive zero gradient
    probes = [Tensor(m.copy(), requires_grad=True) for m in mem.layers]
    probed = M.SegmentMemory([p.data for p in probes], mem.offset)
    lp, _ = M.forward_ner(ids[:, 8:], probed, mc, params, None, False)
    T.backward(T.tmean(lp))
    grad_ok = all(p.grad is None or np.max(np.abs(p.grad)) == 0.0 for p in probes)

    verdict(4, "segment recurrence", split_ok and perturb_ok and grad_ok,
            f"split 8+8 gap {gap:.2e} (limit 1e-5), perturbation "
            f"{'moves' if perturb_ok else 'IGNORED'}, memory gradient "
            f"{'zero' if grad_ok else 'NONZERO'}")


# --------------------------------------------------------- 5. R-Drop loss


def test_criterion_5_rdrop():
    lp = T.log_softmax(Tensor(Rng(51, 0).normal((3, 5))))
    same = TR.rdrop_loss(lp, Tensor(lp.data.copy()), [0, 1, 2], alpha=1.0)
    identical_ok = same.kl_sym.item() == 0.0

    lp2 = T.log_softmax(Tensor(Rng(52, 0).normal((3, 5))))
    off = TR.rdrop_loss(lp, lp2, [0, 1, 2], alpha=0.0)
    alpha0_ok = off.total.item() == off.ce.item()

    worked = TR.rdrop_loss(Tensor(np.log([[0.6, 0.4]])),
                           Tensor(np.log([[0.5, 0.5]])), [0], alpha=1.0)
    ce, kl, total = worked.floats()
    worked_gap = max(abs(ce - 1.2039728043259360),
                     abs(kl - 0.0405465108108164),
                     abs(total - 1.2445193151367524))
    worked_ok = worked_gap <= 1e-6

    # duplicated-batch forward equals two branch-keyed forwards
    mc = M.ModelConfig(vocab_size=30, model_dim=16, ffn_dim=16, xlnet_layers=1,
                       transformer_layers=1, num_heads=2, clip_k=2,
                       entity_types=("LOC", "ORG", "PER"), dropout=0.2)
    params = M.init_params(mc, Rng.for_stream(5, "init"), "float64")
    r = Rng(53, 0)
    ids = np.array([[2 + r.derive(b, i).randbelow(28) for i in range(7)]
                    for b in range(4)])
    with T.no_grad():
        dup, _ = M.forward_ner(np.concatenate([ids, ids]), None, mc, params,
                               DualDropoutStreams(9, 3), True)
        one1, _ = M.forward_ner(ids, None, mc, params, DropoutStreams(9, 3, 1), True)
        one2, _ = M.forward_ner(ids, None, mc, params, DropoutStreams(9, 3, 2), True)
    path_gap = max(float(np.max(np.abs(dup.data[:4] - one1.data))),
                   float(np.max(np.abs(dup.data[4:] - one2.data))))
    path_ok = path_gap <= 1e-12

    verdict(5, "R-Drop identities", identical_ok and alpha0_ok and worked_ok and path_ok,
            f"identical-branch kl=0 {'ok' if identical_ok else 'BAD'}, "
            f"alpha=0 reduces to ce {'ok' if alpha0_ok else 'BAD'}, "
            f"worked example gap {worked_gap:.1e} (limit 1e-6), "
            f"dual-path gap {path_gap:.1e} (limit 1e-12)")


# ---------------------------------------------------- 6. end-to-end learning


def test_criterion_6_end_to_end_learning():
    corpus = D.read_conll(str(DATA / "train.bmes"))
    mc, tc = D.load_run_config(CFG)
    details = []
    ok = True
    for rdrop in (True, False):
        cfg = replace(tc, rdrop_enabled=rdrop)
        t0 = time.monotonic()
        report = TR.train(corpus, corpus, mc, cfg)
        elapsed = time.monotonic() - t0
        good = report.best_f1 == 1.0 and report.best_epoch <= 300 and elapsed <= 120
        ok = ok and good
        details.append(f"rdrop {'on' if rdrop else 'off'}: F1 {report.best_f1:.4f} "
                       f"at epoch {report.best_epoch} in {elapsed:.1f}s")
    verdict(6, "end-to-end learning", ok,
            "; ".join(details) + " (need F1=1.0 within 300 epochs, 120s)")


# -------------------------------------------------------- 7. ablation grid


def test_criterion_7_ablation_grid():
    corpus = D.read_conll(str(DATA / "train.bmes"))
    dev = D.read_conll(str(DATA / "dev.bmes"))
    rows = []
    ok = True
    for pe_mode in ("relative", "absolute"):
        for rdrop in (True, False):
            mc = M.ModelConfig(model_dim=32, ffn_dim=64, xlnet_layers=1,
                               transformer_layers=1, num_heads=2, clip_k=4,
                               pe_mode=pe_mode, dropout=0.1,
                               entity_types=("LOC", "ORG", "PER"))
            tc = TR.TrainConfig(epochs=40, batch_size=8, seed=42, dropout=0.1,
                                rdrop_enabled=rdrop, stop_at_f1=1.0)
            report = TR.train(corpus, dev, mc, tc)
            ok = ok and 0.0 <= report.best_f1 <= 1.0 and len(report.history) > 0
            rows.append(f"{pe_mode}\t{'on' if rdrop else 'off'}"
                        f"\t{report.best_f1:.4f}\t{report.best_epoch}")
    print("pe_mode\trdrop\tbest_F1\tbest_epoch")
    for row in rows:
        print(row)
    verdict(7, "ablation grid", ok,
            "4 configurations completed; no ordering asserted")


# -------------------------------------------------------- 8. tagging oracle


TYPES = ("LOC", "ORG", "PER")
ALL_TAGS = ["O"] + [f"{h}-{t}" for t in TYPES for h in "BMES"]


def _brute_force_entities(tags):
    out = []
    i = 0
    while i < len(tags):
        head, etype = split_tag(tags[i])
        if head == "S":
            out.append(Entity(i, i, etype))
            i += 1
        elif head == "B":
            j = i + 1
            while j < len(tags) and split_tag(tags[j]) == ("M", etype):
                j += 1
            if j < len(tags) and split_tag(tags[j]) == ("E", etype):
                out.append(Entity(i, j, etype))
                i = j + 1
            else:
                i += 1
        else:
            i += 1
    return out


def _bio_entities(tags):
    out = []
    start = etype = None
    for i, tag in enumerate(tags + ["O"]):
        head, t = split_tag(tag)
        if start is not None and (head in ("O", "B") or t != etype):
            out.append(Entity(start, i - 1, etype))
            start = None
        if head == "B":
            start, etype = i, t
    return out


def _random_bio(rng, max_len=12):
    tags = []
    while len(tags) < 1 + rng.randbelow(max_len):
        if rng.randbelow(2) == 0:
            tags.append("O")
        else:
            etype = TYPES[rng.randbelow(3)]
            tags.append(f"B-{etype}")
            for _ in range(rng.randbelow(3)):
                tags.append(f"I-{etype}")
    return tags


def test_criterion_8_tagging_oracle():
    rng = Rng(81, 0)
    extract_ok = True
    for i in range(10 ** 4):
        r = rng.derive("scan", i)
        tags = [ALL_TAGS[r.derive(j).randbelow(len(ALL_TAGS))]
                for j in range(1 + r.randbelow(10))]
        if set(extract_entities(tags)) != set(_brute_force_entities(tags)):
            extract_ok = False
            break

    bio_ok = True
    for i in range(10 ** 4):
        bio = _random_bio(rng.derive("bio", i))
        bmes, repairs = bio_to_bmes(bio)
        if repairs != 0 or set(extract_entities(bmes)) != set(_bio_entities(bio)):
            bio_ok = False
            break

    # fixed examples: perfect match, then half recall with full precision
    gold = [Entity(0, 1, "PER"), Entity(4, 4, "LOC")]
    perfect = entity_prf(gold, gold)
    half = entity_prf([Entity(0, 1, "PER")], gold)
    prf_ok = (perfect.precision == perfect.recall == perfect.f1 == 1.0
              and half.precision == 1.0 and half.recall == 0.5
              and abs(half.f1 - 2 / 3) <= 1e-12
              and entity_prf([], []).f1 == 1.0
              and entity_prf([], gold).f1 == 0.0
              and entity_prf([Entity(0, 2, "PER")], gold).precision == 0.0)

    verdict(8, "tagging oracle", extract_ok and bio_ok and prf_ok,
            f"10^4 extraction cases {'ok' if extract_ok else 'BAD'}, "
            f"10^4 conversion cases {'ok' if bio_ok else 'BAD'}, "
            f"fixed P/R/F1 examples {'ok' if prf_ok else 'BAD'}")


# --------------------------------------- 9. persistence and determinism


def test_criterion_9_persistence_and_determinism(tmp_path):
    # bitwise checkpoint round trip over a real parameter set
    mc = M.ModelConfig(vocab_size=30, model_dim=16, ffn_dim=16, xlnet_layers=1,
                       transformer_layers=1, num_heads=2, clip_k=2,
                       entity_types=("LOC", "ORG", "PER"))
    params = M.init_params(mc, Rng.for_stream(9, "init"), "float64")
    path = str(tmp_path / "m.ckpt")
    D.save_checkpoint(path, params, mc)
    ckpt = D.load_checkpoint(path)
    round_ok = (ckpt.model_config == mc
                and all(np.array_equal(ckpt.params[n], p.data)
                        for n, p in params.items()))

    # two identical runs, identical logs (per-step and per-epoch)
    corpus = D.read_conll(str(DATA / "train.bmes"))
    dev = D.read_conll(str(DATA / "dev.bmes"))
    logs = []
    for _ in range(2):
        lines = []
        tc = TR.TrainConfig(epochs=4, batch_size=8, seed=123, dropout=0.1)
        TR.train(corpus, dev, mc, tc, log=lines.append)
        logs.append(lines)
    determinism_ok = logs[0] == logs[1]
    epoch_lines = sum(1 for l in logs[0] if l.startswith("epoch"))

    # fuzzed inputs: package errors only, always carrying a location
    rng = Rng(91, 0)
    fuzz_ok = True
    for i in range(300):
        r = rng.derive(i)
        blob = bytes(r.derive(j).randbelow(256) for j in range(r.randbelow(80)))
        fz = tmp_path / "fuzz.bin"
        fz.write_bytes(blob)
        for loader in (D.read_conll, D.load_checkpoint):
            try:
                loader(str(fz))
            except NtrrError as exc:
                if "fuzz.bin" not in str(exc):
                    fuzz_ok = False
            except Exception:
                fuzz_ok = False
        try:
            D.parse_config_text(blob.decode("latin-1"))
        except NtrrError:
            pass
        except Exception:
            fuzz_ok = False

    verdict(9, "persistence and determinism",
            round_ok and determinism_ok and fuzz_ok,
            f"checkpoint bitwise {'ok' if round_ok else 'BAD'}, "
            f"2 runs x {epoch_lines} epochs identical "
            f"{'ok' if determinism_ok else 'BAD'}, "
            f"300 fuzz cases {'ok' if fuzz_ok else 'BAD'}")
