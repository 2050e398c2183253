"""Spans around the calls into each tabmt module, recorded from outside.

``Tracer.install`` replaces the public functions and methods listed in
``_TARGETS`` with wrappers that record a span (name, start, end, parent)
and a few counts, and returns a function that puts the originals back.
Nothing inside ``src/`` changes. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

import numpy as np

AUTODIFF_OPS = ("matmul", "add", "mul", "scale", "reciprocal", "reshape",
                "transpose", "gather_rows", "stack", "select", "softmax",
                "sigmoid", "gelu", "layer_norm", "cross_entropy_sum")

# (module, owner attribute or None for a module function, attribute, span name)
_TARGETS = (
    [("schema", None, "load_csv", "schema.load_csv"),
     ("schema", None, "write_csv", "schema.write_csv"),
     ("codec", None, "fit_codecs", "codec.fit_codecs"),
     ("codec", None, "encode_table", "codec.encode_table"),
     ("codec", None, "decode_table", "codec.decode_table"),
     ("model", "TabMTModel", "forward", "model.forward"),
     ("model", "TabMTModel", "embed_rows", "model.embed_rows"),
     ("autodiff", "Tensor", "backward", "autodiff.backward"),
     ("training", None, "train", "training.train"),
     ("training", None, "training_step", "training.training_step"),
     ("training", None, "sample_mask", "training.sample_mask"),
     ("optim", "AdamW", "step", "optim.step"),
     ("optim", "AdamW", "zero_grad", "optim.zero_grad"),
     ("generation", None, "generate", "generation.generate"),
     ("generation", None, "impute", "generation.impute"),
     ("generation", None, "sample_field", "generation.sample_field"),
     ("checkpoint", None, "save_checkpoint", "checkpoint.save"),
     ("checkpoint", None, "load_checkpoint", "checkpoint.load"),
     ("metrics", "MetricSpace", "fit", "metrics.space"),
     ("metrics", "MetricSpace", "transform", "metrics.space"),
     ("metrics", None, "correlation_error_histogram", "metrics.correlation_hist"),
     ("metrics", None, "dcr", "metrics.dcr"),
     ("metrics", None, "precision_recall", "metrics.precision_recall"),
     ("metrics", None, "diversity", "metrics.diversity"),
     ("metrics", None, "mle_proxy", "metrics.mle_proxy")]
    + [("autodiff", None, op, f"autodiff.{op}") for op in AUTODIFF_OPS]
)


class Tracer:
    def __init__(self, model_dtype: str):
        self.model_dtype = np.dtype(model_dtype)
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self._open[name] += 1
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _exit(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()
        self._open[self.spans[idx][0]] -= 1

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def _count(self, name: str, args: tuple, out):
        c = self.counts
        if name == "schema.load_csv":
            c["cells_parsed"] += out.n_rows * out.schema.n_fields
        elif name.startswith("model.forward"):
            c["forward_calls"] += 1
            if self._open["generation.generate"]:
                c["generate_forward_rows"] += np.asarray(args[1]).shape[0]
        elif name == "training.training_step":
            c["train_steps"] += 1
        elif name.startswith("autodiff.") and name != "autodiff.backward":
            c["op_calls"] += 1
            if self._open["training.training_step"]:
                t = out[0] if isinstance(out, tuple) else out
                c["train_activation_bytes"] += t.data.nbytes
                if t.data.dtype != self.model_dtype:
                    c["train_off_dtype_bytes"] += t.data.nbytes

    def _wrap(self, fn, name: str, method: bool):
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name
            if name == "model.forward":
                span_name = "model.forward_train" if args[0].training else "model.forward_infer"
            idx = tracer._enter(span_name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            tracer._count(span_name, args[1:] if method else args, out)
            return out

        return wrapper

    def install(self, tabmt_modules: dict) -> callable:
        """Patch every target; returns a function that restores them all."""
        undo = []
        for mod_name, owner_name, attr, span_name in _TARGETS:
            mod = tabmt_modules[mod_name]
            owner = getattr(mod, owner_name) if owner_name else mod
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, span_name, method=True))
            else:
                new = self._wrap(raw, span_name, method=owner_name is not None)
            setattr(owner, attr, new)
            undo.append((owner, attr, raw))

        def restore():
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)

        return restore

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time of direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def write(self, path: str):
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent}) + "\n")
