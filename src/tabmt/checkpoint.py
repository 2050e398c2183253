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
    try:
        codecs = [codec_from_json(c) for c in header["codecs"]]
        model = TabMTModel(codecs, ModelConfig(**header["model_config"]), seed=header["seed"])
        named = model.named_parameters()
        params = header["params"]
        if [pm["name"] for pm in params] != [name for name, _ in named]:
            raise CheckpointError("parameter names do not match model topology")
        size = sum(p.data.nbytes for _, p in named)
        if len(blob) != size:
            raise CheckpointError(f"blob is {len(blob)} bytes, the parameters take {size}")
        # Each parameter has the model's shape and dtype, and starts where the last ends.
        offset = 0
        for pm, (name, p) in zip(params, named):
            want = p.data
            for key, value in (("shape", list(want.shape)), ("dtype", str(want.dtype)),
                               ("offset", offset), ("nbytes", want.nbytes)):
                if pm[key] != value:
                    raise CheckpointError(f"parameter {name}: {key} is {pm[key]!r}, "
                                          f"expected {value!r}")
            arr = np.frombuffer(blob, dtype=want.dtype.newbyteorder("<"), count=want.size,
                                offset=offset)
            # astype copies out of the read-only file buffer; that copy is the parameter.
            p.data = arr.reshape(want.shape).astype(want.dtype)
            offset += want.nbytes
        schema = (TableSchema.from_json(header["schema"])
                  if header["schema"] is not None else None)
    except KeyError as exc:
        raise CheckpointError(f"{path}: header has no key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    return model, schema, header
