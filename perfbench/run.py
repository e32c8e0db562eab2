"""Run one benchmark workload from a seed, check its outputs, print its metrics.

Usage, from the root of an ntrr checkout:

    python3 perfbench/run.py --workload synth-small --seed 1 --seconds 20 --trace 0

Workloads: synth-small, long-train, long-infer, gradcheck-mini (see
perfbench/README.md). With --trace 0 the run repeats the workload's round
until --seconds of measuring have passed and reports the end-to-end metrics
of BENCHMARK.json. With --trace 1 it runs two untraced rounds, one round
with every ntrr module wrapped in spans, and one round probing allocation
peaks, and reports the per-layer metrics. Human-readable lines come first;
the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Scratch files go under .bench_work/.
"""

import os
import sys
import time

# One BLAS thread: every matrix here is at most 64 wide. Set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

SETUP_REPEATS = 5
IMPORT_PROBE = "import ntrr.cli, ntrr.synthetic"
MIN_ROUNDS = 2  # the repeat check needs two rounds
WORK_DIR = ".bench_work"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def percentile(samples, p):
    """Nearest-rank percentile of a non-empty sample."""
    xs = sorted(samples)
    return xs[max(1, math.ceil(p / 100.0 * len(xs))) - 1]


def tail(samples):
    """(percentile, value): the highest of p99.9 .. p50 that leaves at least
    ten samples above it (nearest rank), or None with fewer samples."""
    n = len(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n - max(1, math.ceil(p / 100.0 * n)) >= 10:
            return p, percentile(samples, p)
    return None


def _read_first(path, key):
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def import_seconds(root):
    """Median wall time of fresh interpreters that import the program,
    from process start to exit."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root, env=env,
                       check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def git_commit(root):
    """HEAD of a git checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none (not a git checkout)"


def source_sha256(root):
    h = hashlib.sha256()
    src = os.path.join(root, "src", "ntrr")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def machine_facts(root):
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _read_first("/proc/cpuinfo", "model name"),
        "mem_total": _read_first("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(root),
        "ntrr_source_sha256": source_sha256(root),
    }


def run_rounds(workload, seconds, trace):
    """Untraced: repeat rounds until `seconds` of measuring have passed.
    Traced: two untraced rounds, one traced round, one allocation probe."""
    from tracer import AllocProbe, Tracer
    from workloads import Round

    def one(tracer=None):
        rnd = Round(tracer=tracer)
        workload.run_round(rnd)
        return rnd

    if not trace:
        rounds, start = [], time.perf_counter()
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
            rounds.append(one())
        return rounds, None
    # the first round pays one-time costs (page faults, caches); the overhead
    # ratio compares two warm rounds
    warm, plain = one(), one()
    tracer = Tracer()
    with tracer.installed():
        traced = one(tracer)
    probe = AllocProbe()
    with probe.installed():
        probed = one()
    layer = tracer.layer_metrics(traced.timed_s, plain.timed_s)
    layer["relpos.alloc_peak_mb"] = probe.peak_bytes / 2**20
    tracer.write(os.path.join(workload.work, "spans.npz"))
    return [warm, plain, traced, probed], layer


def phase_rate(rounds, phase, per_line=False):
    rates = [(r.predicted_lines if per_line else r.tokens[phase]) / r.seconds[phase]
             for r in rounds if r.seconds.get(phase)]
    return statistics.median(rates) if rates else None


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not (os.path.isfile(os.path.join(root, "src", "ntrr", "__init__.py"))
            and os.path.isfile(spec_path)):
        print("error: run from the root of an ntrr checkout "
              "(needs src/ntrr and BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    import ntrr
    import workloads

    if not os.path.abspath(ntrr.__file__).startswith(os.path.join(root, "src") + os.sep):
        print(f"error: imported ntrr from {ntrr.__file__}, not this checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    work = os.path.join(root, WORK_DIR, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    workload = workloads.WORKLOADS[args.workload](root, work, args.seed)

    setup_times, input_digests = [], []
    for _ in range(SETUP_REPEATS):
        workload.checks.clear()
        start = time.perf_counter()
        input_digests.append(workload.setup())
        setup_times.append(time.perf_counter() - start)
    setup_s = import_seconds(root) + statistics.median(setup_times)
    checks = list(workload.checks)
    checks.append(("set-up repeats generate identical inputs",
                   len(set(input_digests)) == 1, ""))

    rounds, layer = run_rounds(workload, args.seconds, args.trace)

    # bitwise reproducibility: every round's artifacts equal the first round's
    for i, rnd in enumerate(rounds[1:], start=1):
        differ = sorted(k for k in rnd.digests.keys() | rounds[0].digests.keys()
                        if rnd.digests.get(k) != rounds[0].digests.get(k))
        if differ:
            rnd.errors.append(f"round {i} artifacts differ from round 0: {differ}")
            rnd.failed = rnd.attempted
        checks.append((f"round {i} logs, checkpoints, predictions identical to round 0",
                       not differ, ", ".join(differ)))
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    if not all(ok for _, ok, _ in checks):
        failed = attempted
    checks.append(("every operation passed its output checks", failed == 0,
                   f"{failed} of {attempted} failed"))
    correct = failed == 0 and all(ok for _, ok, _ in checks)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    op_ms = [x for r in rounds for x in r.op_ms]
    rates = [sum(r.tokens.values()) / r.timed_s for r in rounds if r.timed_s > 0]
    end_to_end = {
        "setup_s": setup_s,
        "op_ms_p10": percentile(op_ms, 10) if op_ms else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }

    # the figures a user of each ntrr command sees, medians as they come
    phases = {"tokens_per_s": (statistics.median(rates) if rates else 0.0, "tok/s",
                               f"median of {len(rates)} rounds")}
    for phase, name, unit, per_line in (
            ("pretrain", "pretrain_tokens_per_s", "tok/s", False),
            ("train", "train_tokens_per_s", "tok/s", False),
            ("eval", "eval_tokens_per_s", "tok/s", False),
            ("predict", "predict_sentences_per_s", "sent/s", True)):
        value = phase_rate(rounds, phase, per_line)
        if value is not None:
            phases[name] = (value, unit, "")
    if op_ms:
        label = workload.op_label
        phases[f"{label}_p50"] = (statistics.median(op_ms), "ms", f"n={len(op_ms)}")
        hi = tail(op_ms)
        if hi:
            phases[f"{label}_tail"] = (hi[1], "ms", f"p{hi[0]:g} of n={len(op_ms)}")
    gc = [x for r in rounds for x in r.gradcheck_s]
    if gc:
        phases["gradcheck_s"] = (statistics.median(gc), "s", f"n={len(gc)}")
    for key, unit in (("test_f1", "ratio"), ("final_loss", "nats")):
        if key in rounds[0].sentinels:
            phases[key] = (rounds[0].sentinels[key], unit, "round 0")
    phases["fail_ratio"] = (failed / attempted if attempted else 1.0, "ratio",
                            f"{failed} of {attempted} operations")

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} rounds {len(rounds)} op {workload.op_label}")
    machine = machine_facts(root)
    print("machine " + json.dumps(machine, sort_keys=True))
    for r in rounds:
        for err in r.errors:
            print(f"error {err}", file=sys.stderr)
    for name, ok, detail in checks:
        print(f"check\t{'ok' if ok else 'FAIL'}\t{name}" + (f"\t{detail}" if detail else ""))
    for name, (value, unit, note) in phases.items():
        print(f"phase\t{name}\t{value:.6g}\t{unit}" + (f"\t{note}" if note else ""))

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layer if args.trace else end_to_end
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: BENCHMARK.json names metrics this run cannot give: {missing}",
              file=sys.stderr)
        return 2
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{'layer' if args.trace else 'metric'}\t{m['name']}\t"
              f"{metrics[m['name']]['value']:.6g}\t{m['unit']}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine,
              "checks": checks, "phases": phases, "metrics": metrics,
              "correct": correct, "attempted": attempted, "failed": failed}
    with open(os.path.join(work, f"result-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
