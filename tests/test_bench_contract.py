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


def test_each_stream_class_mask_is_one_traced_draw():
    # each class gets its own wrapper; one inherited from the other would
    # wrap its masks twice and double rng.mask.calls
    from ntrr.rng import DropoutStreams, DualDropoutStreams

    assert not issubclass(DualDropoutStreams, DropoutStreams)
    assert not issubclass(DropoutStreams, DualDropoutStreams)
    tracer = _tracer_module().Tracer()
    with tracer.installed():
        for streams in (DropoutStreams(3, 1, 1), DualDropoutStreams(3, 1)):
            before = len(tracer.spans)
            streams.mask((4, 3), 0.5)
            assert [tracer.names[span[0]] for span in tracer.spans[before:]] == ["rng.mask"]
            assert tracer.binding_calls[f"rng.{type(streams).__name__}.mask"] == 1
