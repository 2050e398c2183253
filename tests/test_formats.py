"""Each stored format, described once, against its two-place description in
``conftest``: checkpoint bytes and reloaded parameters, schema JSON bytes,
continuous-codec ratios, and the kinds ``infer_schema`` guesses.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (infer_schema_by_rows, load_checkpoint_by_hand, load_tablegen,
                      ratios_by_hand, save_checkpoint_by_hand, schema_to_json_by_hand)
from test_ingest import EDGE_CASES, outcome
from test_kmeans_batched import mixed_columns, mixed_table
from tabmt.checkpoint import load_checkpoint, save_checkpoint
from tabmt.codec import (ContinuousCodec, _kmeans_1d, codec_from_json, codec_to_json,
                         fit_codecs)
from tabmt.model import ModelConfig, TabMTModel
from tabmt.schema import (CATEGORICAL, CONTINUOUS, FieldSchema, RawTable, SchemaError,
                          TableSchema, infer_schema, save_schema)

tablegen = load_tablegen()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("workload", ["narrow-3", "tall-8", "wide-16"])
def test_checkpoint_bytes_and_parameters(tmp_path, workload, dtype):
    """On each benchmark workload's codecs: the same file, and from it the
    same parameters, read by either reader."""
    w = tablegen.WORKLOADS[workload]
    schema = TableSchema.from_json(w.schema_json())
    rows = tablegen.draw_rows(w, np.random.default_rng(3), 2000, cover=True)
    codecs = fit_codecs(RawTable.from_rows(schema, rows))
    model = TabMTModel(codecs, ModelConfig(width=16, depth=2, heads=2, dtype=dtype), seed=4)
    new, old = tmp_path / "new.ckpt", tmp_path / "old.ckpt"
    save_checkpoint(str(new), model, schema, step=9, seed=4)
    save_checkpoint_by_hand(str(old), model, schema, step=9, seed=4)
    assert new.read_bytes() == old.read_bytes()

    loaded, loaded_schema, header = load_checkpoint(str(new))
    by_hand, hand_schema, hand_header = load_checkpoint_by_hand(str(new))
    assert loaded_schema == hand_schema == schema
    assert header == hand_header
    for (name, p), (hand_name, q), (_, r) in zip(loaded.named_parameters(),
                                                 by_hand.named_parameters(),
                                                 model.named_parameters()):
        assert name == hand_name
        assert p.data.dtype == q.data.dtype == np.dtype(dtype)
        assert p.data.tobytes() == q.data.tobytes() == r.data.tobytes(), name


names = st.text(st.characters(codec="utf-8"), max_size=6)
counts = st.none() | st.integers(1, 10**6)


@st.composite
def schemas(draw) -> TableSchema:
    """Fields of both kinds, with and without declared_cardinality, max_bins
    of any size, and with or without a target."""
    fields = []
    for name in draw(st.lists(names, min_size=1, max_size=6, unique=True)):
        if draw(st.booleans()):
            fields.append(FieldSchema(name=name, kind=CONTINUOUS,
                                      max_bins=draw(st.integers(1, 10**6))))
        else:
            fields.append(FieldSchema(name=name, kind=CATEGORICAL,
                                      declared_cardinality=draw(counts)))
    target = draw(st.none() | st.integers(0, len(fields) - 1))
    return TableSchema(fields=tuple(fields), target_index=target)


@given(schemas())
@settings(max_examples=300, deadline=None)
def test_schema_json_bytes(tmp_path_factory, schema):
    path = tmp_path_factory.mktemp("schema") / "schema.json"
    save_schema(schema, str(path))
    by_hand = json.dumps(schema_to_json_by_hand(schema), indent=2)
    assert path.read_bytes() == by_hand.encode("utf-8")
    assert TableSchema.from_json(schema.to_json()) == schema


def test_ratios_bytes():
    """On the batched quantizer's test columns: each codec's ratios, built
    from its centers or read back from its JSON, equal the helper's."""
    centers = _kmeans_1d(mixed_columns())
    for max_bins in (3, 32, 100):
        centers += [c.centers for c in fit_codecs(mixed_table(max_bins))
                    if isinstance(c, ContinuousCodec)]
    assert any(len(c) == 1 for c in centers)
    for c in centers:
        codec = ContinuousCodec(c)
        want = ratios_by_hand(c).tobytes()
        assert codec.ratios.tobytes() == want
        assert codec_from_json(json.loads(json.dumps(codec_to_json(codec)))).ratios.tobytes() \
            == want


# The edge cases load_csv rejects, which infer_schema now rejects too.
MALFORMED = {"empty-file": "empty file", "blank-line": "short row",
             "short-then-non-numeric": "short row", "non-numeric-then-short": "short row"}


@pytest.mark.parametrize("max_bins, target", [(100, None), (7, "x")])
@pytest.mark.parametrize("case", EDGE_CASES)
def test_infer_schema(tmp_path, case, max_bins, target):
    """The row loop's result on a well-formed file; on a malformed one,
    load_csv's SchemaError."""
    text, _, marker, _ = EDGE_CASES[case]
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8", newline="")
    got = outcome(lambda: infer_schema(str(path), max_bins, marker, target))
    if case in MALFORMED:
        assert got[1][0] is SchemaError and MALFORMED[case] in got[1][1]
    else:
        assert got == outcome(lambda: infer_schema_by_rows(str(path), max_bins, marker, target))
