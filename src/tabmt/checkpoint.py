"""Versioned model checkpoints: JSON metadata header + raw parameter blob."""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict

import numpy as np

from .codec import codec_from_json, codec_to_json
from .model import ModelConfig, TabMTModel
from .schema import TableSchema

MAGIC = b"TABMTCK\x00"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    pass


def save_checkpoint(path: str, model: TabMTModel, schema: TableSchema | None,
                    step: int = 0, seed: int = 0):
    named = model.named_parameters()
    params_meta = []
    blobs = []
    offset = 0
    for name, p in named:
        arr = np.ascontiguousarray(p.data)
        le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        raw = le.tobytes()
        params_meta.append({
            "name": name,
            "shape": list(arr.shape),
            "dtype": str(arr.dtype),
            "offset": offset,
            "nbytes": len(raw),
        })
        blobs.append(raw)
        offset += len(raw)
    header = {
        "format_version": FORMAT_VERSION,
        "schema": schema.to_json() if schema is not None else None,
        "codecs": [codec_to_json(c) for c in model.codecs],
        "model_config": asdict(model.cfg),
        "params": params_meta,
        "step": step,
        "seed": seed,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    # A reader never sees a half-written file: write aside, then rename.
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for raw in blobs:
            fh.write(raw)
    os.replace(tmp, path)


def _check_layout(params: list[dict], blob_len: int):
    """Parameters must tile the blob exactly, in order from offset 0."""
    offset = 0
    for pm in params:
        size = int(np.prod(pm["shape"])) * np.dtype(pm["dtype"]).itemsize
        if pm["nbytes"] != size or pm["offset"] != offset:
            raise CheckpointError(f"parameter {pm['name']}: bad offset or size")
        offset += size
    if offset != blob_len:
        raise CheckpointError(f"blob is {blob_len} bytes, header lists {offset}")


def load_checkpoint(path: str) -> tuple[TabMTModel, TableSchema | None, dict]:
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(MAGIC):
        raise CheckpointError(f"{path}: not a checkpoint file")
    start = len(MAGIC) + 8
    try:
        (hlen,) = struct.unpack_from("<Q", data, len(MAGIC))
        header = json.loads(data[start:start + hlen])
        version = header["format_version"]
    except (struct.error, ValueError, TypeError, KeyError) as exc:
        raise CheckpointError(f"{path}: short or unparsable header") from exc
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    blob = memoryview(data)[start + hlen:]
    _check_layout(header["params"], len(blob))
    codecs = [codec_from_json(c) for c in header["codecs"]]
    cfg = ModelConfig(**header["model_config"])
    model = TabMTModel(codecs, cfg, seed=header["seed"])
    named = dict(model.named_parameters())
    if set(named) != {pm["name"] for pm in header["params"]}:
        raise CheckpointError("parameter names do not match model topology")
    for pm in header["params"]:
        want = named[pm["name"]].data
        if tuple(pm["shape"]) != want.shape or np.dtype(pm["dtype"]) != want.dtype:
            raise CheckpointError(f"parameter {pm['name']}: shape or dtype does not match the model")
        dt = np.dtype(pm["dtype"]).newbyteorder("<")
        arr = np.frombuffer(blob, dtype=dt, count=int(np.prod(pm["shape"])),
                            offset=pm["offset"])
        # astype copies out of the read-only file buffer; that copy is the parameter.
        named[pm["name"]].data = arr.reshape(pm["shape"]).astype(np.dtype(pm["dtype"]))
    schema = (TableSchema.from_json(header["schema"])
              if header["schema"] is not None else None)
    return model, schema, header
