"""Rounds, operation accounting and the metrics a run reports."""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import pipeline
import tracing
from tabmt import (autodiff, checkpoint, codec, generation, metrics, model, optim,
                   schema, training)

END_TO_END = {
    "setup_s": "s",
    "ingest_rows_per_s": "rows/s",
    "train_rows_per_s": "rows/s",
    "heldout_nll": "nats/cell",
    "generate_rows_per_s": "rows/s",
    "impute_rows_per_s": "rows/s",
    "evaluate_rows_per_s": "rows/s",
    "peak_rss_mb": "MiB",
}

# Per-layer metric -> (unit, span name whose self time it is).
_SELF_TIME = {
    "schema.load_csv_s": "schema.load_csv",
    "schema.write_csv_s": "schema.write_csv",
    "codec.fit_codecs_s": "codec.fit_codecs",
    "codec.encode_table_s": "codec.encode_table",
    "codec.decode_table_s": "codec.decode_table",
    "model.forward_train_s": "model.forward_train",
    "model.forward_infer_s": "model.forward_infer",
    "model.embed_rows_s": "model.embed_rows",
    "autodiff.backward_s": "autodiff.backward",
    **{f"autodiff.{op}_s": f"autodiff.{op}" for op in tracing.AUTODIFF_OPS},
    "training.training_step_s": "training.training_step",
    "training.sample_mask_s": "training.sample_mask",
    "optim.step_s": "optim.step",
    "optim.zero_grad_s": "optim.zero_grad",
    "generation.generate_s": "generation.generate",
    "generation.impute_s": "generation.impute",
    "generation.sample_field_s": "generation.sample_field",
    "checkpoint.load_s": "checkpoint.load",
    "metrics.space_s": "metrics.space",
    "metrics.correlation_hist_s": "metrics.correlation_hist",
    "metrics.dcr_s": "metrics.dcr",
    "metrics.precision_recall_s": "metrics.precision_recall",
    "metrics.diversity_s": "metrics.diversity",
    "metrics.mle_proxy_s": "metrics.mle_proxy",
}

PER_LAYER_UNITS = {
    **{name: "s" for name in _SELF_TIME},
    "schema.cells_parsed": "count",
    "model.forward_calls": "count",
    "autodiff.op_calls": "count",
    "autodiff.activation_bytes": "bytes",
    "autodiff.off_dtype_bytes": "bytes",
    "generation.row_passes_per_row": "rows/row",
    "checkpoint.bytes": "bytes",
    "trace.overhead_pct": "%",
}

_MODULES = {m.__name__.rsplit(".", 1)[1]: m for m in
            (autodiff, checkpoint, codec, generation, metrics, model, optim,
             schema, training)}


def _round(inp, ops: list, tracer=None) -> pipeline.RoundState:
    """Runs every phase once; returns what the phases recorded.

    A phase fails if it raises or its check fails. After an unexpected
    failure the remaining phases of the round are counted as failed too,
    so every round attempts the same operations.
    """
    st = pipeline.RoundState()
    seconds = {}
    broken = False
    for name in pipeline.OPS:
        if broken:
            ops.append((name, False, "skipped after an earlier failure"))
            continue
        # Each CLI command starts with a fresh heap; collecting here keeps
        # one phase's garbage from being scanned during the next.
        gc.collect()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                pipeline.PHASES[name](inp, st)
            else:
                with tracer.span(f"phase.{name}"):
                    pipeline.PHASES[name](inp, st)
            ops.append((name, True, ""))
        except Exception as e:  # a failed phase is reported, not fatal
            ops.append((name, False, f"{type(e).__name__}: {e}"))
            if name not in pipeline.KNOWN_FAULT_OPS:
                traceback.print_exc(file=sys.stderr)
                broken = True
        seconds[name] = time.perf_counter() - t0
    print("round: " + " ".join(f"{k}={v:.2f}s" for k, v in seconds.items()), file=sys.stderr)
    return st


def _unexpected(ops: list) -> bool:
    return any(not ok and n not in pipeline.KNOWN_FAULT_OPS for n, ok, _ in ops)


def _busy_ratio(traced: pipeline.RoundState, plain: pipeline.RoundState) -> float:
    """Traced over untraced time inside the program's calls, checks excluded."""
    both = traced.busy.keys() & plain.busy.keys()
    return (sum(traced.busy[k] for k in both)
            / max(sum(plain.busy[k] for k in both), 1e-9))


def _per_layer(tracer: tracing.Tracer, inp, rounds: int, overhead: float) -> dict:
    """Self times and counts per traced round; byte figures per train step."""
    own = tracer.self_times()
    c = tracer.counts
    steps = max(c["train_steps"], 1)
    values = {name: own.get(span, 0.0) / rounds for name, span in _SELF_TIME.items()}
    values.update({
        "schema.cells_parsed": c["cells_parsed"] / rounds,
        "model.forward_calls": c["forward_calls"] / rounds,
        "autodiff.op_calls": c["op_calls"] / rounds,
        "autodiff.activation_bytes": c["train_activation_bytes"] / steps,
        "autodiff.off_dtype_bytes": c["train_off_dtype_bytes"] / steps,
        "generation.row_passes_per_row":
            c["generate_forward_rows"] / (inp.w.gen_rows * rounds),
        "checkpoint.bytes": os.path.getsize(inp.path("model.ckpt")),
        "trace.overhead_pct": 100.0 * overhead,
    })
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}


def run(w, seed: int, seconds: float, trace: bool, root: str, out_dir: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"work-{w.name}-s{seed}-", dir=out_dir)
    ops: list = []
    try:
        inp = pipeline.prepare(w, seed, root, work)
        # The benchmark's own tables stay alive all run; frozen, they are
        # never scanned by the collector while the program runs.
        gc.collect()
        gc.freeze()
        if trace:
            # Pairs of one untraced and one traced round, until the next
            # pair would end after ``seconds`` (at least one pair). The
            # overhead is the median over pairs of the traced round's time
            # inside the program's calls against the untraced round's; the
            # set-up phase runs in child processes the tracer never sees.
            tracer = tracing.Tracer(model.ModelConfig(**pipeline.MODEL_CONFIG).dtype)
            ratios = []
            start = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                plain = _round(inp, ops)
                restore = tracer.install(_MODULES)
                try:
                    traced = _round(inp, ops, tracer)
                finally:
                    restore()
                ratios.append(_busy_ratio(traced, plain))
                now = time.perf_counter()
                if _unexpected(ops) or now - start + (now - t0) > seconds:
                    break
            tracer.write(os.path.join(out_dir, f"trace-{w.name}-s{seed}.jsonl"))
            out = _per_layer(tracer, inp, len(ratios), statistics.median(ratios) - 1.0)
        else:
            rounds = []
            start = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                rounds.append(_round(inp, ops).metrics)
                now = time.perf_counter()
                if _unexpected(ops) or now - start + (now - t0) > seconds:
                    break
            out = {}
            for name, unit in END_TO_END.items():
                vals = [r[name] for r in rounds if name in r]
                if vals:
                    out[name] = {"value": statistics.median(vals), "unit": unit}
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            out["peak_rss_mb"] = {"value": peak, "unit": "MiB"}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for n, msg in sorted({(n, msg) for n, ok, msg in ops if not ok}):
        print(f"failed: {n}: {msg}", file=sys.stderr)
    return {"correct": not _unexpected(ops), "attempted": len(ops),
            "failed": sum(1 for _, ok, _ in ops if not ok), "metrics": out}
