"""Caller-side spans and tape counters for the traced benchmark run.

Module code imports functions by name (``model.py`` does ``from .hierarchy
import object_level_pass``), so a span must replace every module-global
binding of the function object, not just the defining module's.  Methods
are replaced on their class.  ``Tensor._result`` is wrapped to count the tape
nodes built and the bytes their outputs hold; both counts are exact for a
fixed input.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute) -> span name.  The name is "<layer>.<function>"; a
# dotted attribute is a method looked up on its class.
SPANS = (
    ("hvsarn.data", "load_dataset", "data.load_dataset"),
    ("hvsarn.fileio", "read_blob", "fileio.read_blob"),
    ("hvsarn.fileio", "write_blob", "fileio.write_blob"),
    ("hvsarn.training", "train", "training.train"),
    ("hvsarn.training", "adam_update", "training.adam_update"),
    ("hvsarn.training", "save_checkpoint", "training.save_checkpoint"),
    ("hvsarn.training", "load_checkpoint", "training.load_checkpoint"),
    ("hvsarn.model", "build_model", "model.build_model"),
    ("hvsarn.model", "predict_dataset", "model.predict_dataset"),
    ("hvsarn.model", "Model.forward", "model.forward"),
    ("hvsarn.encoders", "encode_video", "encoders.encode_video"),
    ("hvsarn.encoders", "encode_query", "encoders.encode_query"),
    ("hvsarn.hierarchy", "object_level_pass", "hierarchy.object_level_pass"),
    ("hvsarn.hierarchy", "fuse_objects", "hierarchy.fuse_objects"),
    ("hvsarn.hierarchy", "frame_level_pass", "hierarchy.frame_level_pass"),
    ("hvsarn.graph_memory", "read_batch", "graph_memory.read_batch"),
    ("hvsarn.graph_memory", "write_batch", "graph_memory.write_batch"),
    ("hvsarn.graph_memory", "neighbor_context", "graph_memory.neighbor_context"),
    ("hvsarn.cross_space", "enhance_batch", "cross_space.enhance_batch"),
    ("hvsarn.recurrent", "gru_sequence", "recurrent.gru_sequence"),
    ("hvsarn.localization", "fuse_and_contextualize", "localization.fuse_and_contextualize"),
    ("hvsarn.localization", "enumerate_segments", "localization.enumerate_segments"),
    ("hvsarn.localization", "loss", "localization.loss"),
    ("hvsarn.tensor", "Tensor.backward", "tensor.backward"),
    ("hvsarn.evaluation", "evaluate_predictions", "evaluation.evaluate_predictions"),
)

COUNTERS = ("tensor.nodes", "tensor.bytes")


def _package_modules():
    return [m for name, m in list(sys.modules.items()) if name == "hvsarn" or name.startswith("hvsarn.")]


class Tracer:
    """Aggregates span self time and call counts; install/uninstall swaps bindings."""

    def __init__(self):
        self.calls = {name: 0 for _, _, name in SPANS}
        self.total = {name: 0.0 for _, _, name in SPANS}
        self.child = {name: 0.0 for _, _, name in SPANS}
        self.counts = {name: 0 for name in COUNTERS}
        self._stack: list[float] = []  # time covered by children of each open span
        self._undo: list[tuple[object, str, object]] = []

    def self_time(self, name: str) -> float:
        return self.total[name] - self.child[name]

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.calls[name] += 1
                self.total[name] += elapsed
                self.child[name] += self._stack.pop()
                if self._stack:
                    self._stack[-1] += elapsed

        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = _package_modules()
        for module_name, attr, name in SPANS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                self._replace(cls, method, self._span(name, cls.__dict__[method]))
                continue
            fn = getattr(owner, attr)
            wrapper = self._span(name, fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._replace(module, key, wrapper)

        tensor_cls = sys.modules["hvsarn.tensor"].Tensor
        result = tensor_cls.__dict__["_result"].__func__
        counts = self.counts

        def counted_result(data, parents, backward):
            out = result(data, parents, backward)
            if out.requires_grad:
                counts["tensor.nodes"] += 1
                counts["tensor.bytes"] += out.data.nbytes
            return out

        self._replace(tensor_cls, "_result", staticmethod(counted_result))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def layer_metric_names() -> list[tuple[str, str]]:
    """(metric name, unit) for every per-layer metric the traced run reports."""
    names = []
    for _, _, name in SPANS:
        names.append((f"{name}.s", "s"))
        names.append((f"{name}.calls", "count"))
    names.append(("tensor.nodes", "count"))
    names.append(("tensor.bytes", "bytes"))
    names.append(("trace.overhead", "ratio"))
    names.append(("trace.self_share", "ratio"))
    return names
