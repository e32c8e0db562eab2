"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of every ntrr module at each name a
caller looks them up by: the module's own attribute and every copy another
ntrr module bound with `from ... import`. It also wraps the `mask` methods
of the two dropout-stream classes. Each call records one span (name, start,
end, parent, run id) in memory. Counts are kept at the same boundaries. The
wrappers sit on the imported module objects only while `installed()` is
active; the source files are never touched.

`rng.fold_stream_id` is counted but gets no span: it runs once per stream
derivation, and its time stays in the self time of its caller (mostly
`rng.mask`).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
import tracemalloc
from collections import Counter

import numpy as np

MODULES = ("tensor", "rng", "relpos", "plm", "model", "training", "tagging",
           "data", "gradcheck", "cli", "synthetic")
# context managers and global switches, not work
SKIP = {"tensor.no_grad", "tensor.set_debug_checks", "tensor.debug_checks_enabled"}
COUNT_ONLY = {"rng.fold_stream_id"}
MASK_METHODS = (("DropoutStreams", "mask"), ("DualDropoutStreams", "mask"))
# tensor functions that are not ops (tensor.ops.calls counts the rest)
TENSOR_NON_OPS = {"tensor.backward", "tensor.zero_grads", "tensor.finite_diff_grad"}
# `from ... import` copies that must be reached; install() checks them
REQUIRED_BINDINGS = ("training.scan_entities", "training.entity_prf",
                     "gradcheck.rdrop_loss", "cli.gradcheck_model",
                     "cli.scan_entities", "cli.entity_prf")
ALLOC_PROBED = ("relpos.rel_attention_scores", "relpos.rel_attention_values")


def _modules():
    return {name: importlib.import_module(f"ntrr.{name}") for name in MODULES}


def _public_functions(modules) -> dict:
    """function object -> "module.name" where it is defined."""
    home = {}
    for mod_name, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                home[obj] = f"{mod_name}.{attr}"
    return home


class _Patches:
    """setattr with undo, in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


class Tracer:
    """Spans and counts of one traced round."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []  # (name id, start ns, end ns, parent index, run id)
        self._stack: list[int] = []
        self.run_id = 0
        self.binding_calls: Counter = Counter()
        self.mask_bytes = 0
        self.batch_real = 0
        self.batch_positions = 0
        self.bindings: set[str] = set()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span(self, name: str, binding: str, fn, on_result=None):
        nid = self._name_id(name)
        spans, stack, calls = self.spans, self._stack, self.binding_calls
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            calls[binding] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (nid, start, end, parent, self.run_id)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, binding: str, fn):
        calls = self.binding_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[binding] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_mask(self, args, kwargs, mask):
        self.mask_bytes += mask.nbytes

    def _on_batches(self, args, kwargs, batches):
        # training batches are the shuffled ones (rng given); eval passes None
        rng = args[3] if len(args) > 3 else kwargs.get("rng")
        if rng is not None:
            for batch in batches:
                self.batch_real += int(batch.token_mask.sum())
                self.batch_positions += batch.token_mask.size

    @contextlib.contextmanager
    def installed(self):
        modules = _modules()
        home = _public_functions(modules)
        hooks = {"data.make_batches": self._on_batches}
        patches = _Patches()
        try:
            for mod_name, mod in modules.items():
                for attr, obj in list(vars(mod).items()):
                    name = home.get(obj) if inspect.isfunction(obj) else None
                    if name is None or name in SKIP:
                        continue
                    binding = f"{mod_name}.{attr}"
                    if name in COUNT_ONLY:
                        wrapper = self._counter(binding, obj)
                    else:
                        wrapper = self._span(name, binding, obj, hooks.get(name))
                    patches.set(mod, attr, wrapper)
                    self.bindings.add(binding)
            for cls_name, method in MASK_METHODS:
                cls = getattr(modules["rng"], cls_name)
                binding = f"rng.{cls_name}.{method}"
                patches.set(cls, method, self._span("rng.mask", binding,
                                                    getattr(cls, method), self._on_mask))
                self.bindings.add(binding)
            missing = [b for b in REQUIRED_BINDINGS if b not in self.bindings]
            if missing:
                raise RuntimeError(f"tracer could not reach {missing}")
            yield self
        finally:
            patches.restore()

    def table(self) -> np.ndarray:
        """The spans as rows: name id, start ns, end ns, parent index, run id."""
        return np.array(self.spans, dtype=np.int64).reshape(-1, 5)

    def write(self, path: str) -> None:
        np.savez(path, spans=self.table(), names=np.array(self.names))

    def layer_metrics(self, wall_s: float, untraced_wall_s: float) -> dict[str, float]:
        """Per-layer values of the traced round: self time and calls by span
        name, plus the counts kept at the same boundaries."""
        table = self.table()
        name_ids, parents = table[:, 0], table[:, 3]
        duration = (table[:, 2] - table[:, 1]).astype(np.float64)
        has_parent = parents >= 0
        child = np.zeros(len(table))
        np.add.at(child, parents[has_parent], duration[has_parent])
        n = len(self.names)
        self_s = np.bincount(name_ids, weights=duration - child, minlength=n) / 1e9
        total_s = np.bincount(name_ids, weights=duration, minlength=n) / 1e9
        calls = np.bincount(name_ids, minlength=n)

        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.self_s"] = float(self_s[i])
            out[f"{name}.calls"] = float(calls[i])
        out["tensor.ops.calls"] = float(sum(
            calls[i] for i, name in enumerate(self.names)
            if name.startswith("tensor.") and name not in TENSOR_NON_OPS))
        out["rng.mask.bytes"] = float(self.mask_bytes)
        out["rng.fold_stream_id.calls"] = float(self.binding_calls["rng.fold_stream_id"])
        out["data.pad_ratio"] = (self.batch_real / self.batch_positions
                                 if self.batch_positions else 0.0)
        loss_evals = self.binding_calls["gradcheck.rdrop_loss"]
        out["gradcheck.loss_evals"] = float(loss_evals)
        gradcheck_s = float(total_s[self._name_ids["gradcheck.gradcheck_model"]])
        out["gradcheck.ms_per_loss_eval"] = gradcheck_s * 1e3 / loss_evals if loss_evals else 0.0
        out["trace.spans"] = float(len(table))
        out["trace.unattributed_s"] = wall_s - float(duration[~has_parent].sum()) / 1e9
        out["trace.overhead_ratio"] = wall_s / untraced_wall_s
        return out


class AllocProbe:
    """tracemalloc peak inside each relative-attention call.

    Kept out of the traced round: tracemalloc slows every allocation it
    sees, which would inflate the self times of the probed functions."""

    def __init__(self):
        self.peak_bytes = 0

    def _probe(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracemalloc.is_tracing():  # nested call: the outer one measures
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        modules = _modules()
        home = _public_functions(modules)
        patches = _Patches()
        try:
            for mod in modules.values():
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and home.get(obj) in ALLOC_PROBED:
                        patches.set(mod, attr, self._probe(obj))
            yield self
        finally:
            patches.restore()
