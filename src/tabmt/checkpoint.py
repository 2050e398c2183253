"""Versioned model checkpoints: JSON metadata header + raw parameter blob."""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict

import numpy as np

from .codec import CodecError, codec_from_json, codec_to_json
from .model import ModelConfig, TabMTModel
from .schema import TableSchema

MAGIC = b"TABMTCK\x00"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    pass


def _layout(model: TabMTModel) -> list[dict]:
    """Each parameter's blob entry, in model order: its name, shape, dtype,
    byte count, and offset, where the entry before it ends."""
    entries, offset = [], 0
    for name, p in model.named_parameters():
        entries.append({"name": name, "shape": list(p.data.shape), "dtype": str(p.data.dtype),
                        "offset": offset, "nbytes": p.data.nbytes})
        offset += p.data.nbytes
    return entries


def save_checkpoint(path: str, model: TabMTModel, schema: TableSchema | None,
                    step: int = 0, seed: int = 0):
    header = {
        "format_version": FORMAT_VERSION,
        "schema": schema.to_json() if schema is not None else None,
        "codecs": [codec_to_json(c) for c in model.codecs],
        "model_config": asdict(model.cfg),
        "params": _layout(model),
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
        for _, p in model.named_parameters():
            fh.write(p.data.astype(p.data.dtype.newbyteorder("<"), copy=False).tobytes())
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
        codecs = []
        for i, c in enumerate(header["codecs"]):
            try:
                codecs.append(codec_from_json(c))
            except CodecError as exc:
                raise CheckpointError(f"codec {i}: {exc}") from exc
        model = TabMTModel(codecs, ModelConfig(**header["model_config"]), seed=header["seed"])
        layout, params = _layout(model), header["params"]
        if [pm["name"] for pm in params] != [e["name"] for e in layout]:
            raise CheckpointError("parameter names do not match model topology")
        size = sum(e["nbytes"] for e in layout)
        if len(blob) != size:
            raise CheckpointError(f"blob is {len(blob)} bytes, the parameters take {size}")
        for pm, want, (name, p) in zip(params, layout, model.named_parameters()):
            for key in ("shape", "dtype", "offset", "nbytes"):
                if pm[key] != want[key]:
                    raise CheckpointError(f"parameter {name}: {key} is {pm[key]!r}, "
                                          f"expected {want[key]!r}")
            arr = np.frombuffer(blob, dtype=p.data.dtype.newbyteorder("<"), count=p.data.size,
                                offset=want["offset"])
            # astype copies out of the read-only file buffer; that copy is the parameter.
            p.data = arr.reshape(p.data.shape).astype(p.data.dtype)
        schema = (TableSchema.from_json(header["schema"])
                  if header["schema"] is not None else None)
    except KeyError as exc:
        raise CheckpointError(f"{path}: header has no key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    return model, schema, header
