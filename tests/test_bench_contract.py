"""The traced benchmark run can report every per-layer metric that
BENCHMARK.json declares.

`perfbench/run.py --trace 1` exits 2 when a declared metric is missing,
which happens when a function it names is renamed or deleted. This test
finds that without running a workload: it installs the tracer, reads the
metrics of a round with no spans, and adds the allocation probe's peak
as run.py does."""

import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  REPO / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_reports_every_declared_per_layer_metric():
    tracer = _tracer_module().Tracer()
    with tracer.installed():
        layer = tracer.layer_metrics(1.0, 1.0)
    layer["relpos.alloc_peak_mb"] = 0.0
    declared = json.loads((REPO / "BENCHMARK.json").read_text())["per_layer"]
    missing = [m["name"] for m in declared if m["name"] not in layer]
    assert not missing, f"the traced run cannot give {missing}"
