"""Shared fixtures: toy datasets, trained toy models, brute-force oracles."""

from __future__ import annotations

import contextlib
import csv
import importlib.util
import ipaddress
import json
import math
import os
import struct
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

from tabmt import autodiff as ad
from tabmt import cli, generation, metrics, pareto
from tabmt.autodiff import Parameter, Tensor, row_max
from tabmt.checkpoint import FORMAT_VERSION, MAGIC, CheckpointError
from tabmt.codec import (CategoricalCodec, CodecError, ContinuousCodec, _field, _finite,
                         _kmeans_1d, codec_from_json, codec_to_json, fit_categorical,
                         fit_continuous)
from tabmt.flowcheck import (DNS_BYTES_PER_PACKET, MAX_FRAME_BYTES, MIN_FRAME_BYTES,
                             NETBIOS_PORTS, RULES, WELL_KNOWN_TCP_PORTS, FlowError, FlowRecord,
                             InvariantReport, decompose_timestamp)
from tabmt.generation import ARGMAX_TAU, _draws
from tabmt.metrics import (_TINY, _U, CLASSIFY, REGRESS, MetricError, _kth_dists, _macro_f1,
                           _screen, _sq_dists, _train_logistic)
from tabmt.model import (CategoricalEmbedding, DynamicLinear, ModelConfig, OrderedEmbedding,
                         TabMTModel, _EncoderBlock)
from tabmt.optim import AdamW
from tabmt.schema import (CATEGORICAL, CONTINUOUS, MISSING, FieldSchema, SchemaError,
                          TableSchema, TokenTable)
from tabmt.training import TrainConfig, train

# Every run draws the same hypothesis examples, so a run's result does not
# depend on its draw, nor on examples a previous run stored.
settings.register_profile("tabmt", derandomize=True, database=None)
settings.load_profile("tabmt")

N_TOY = 5000
TOY_K = 4

# Acceptance-criterion result lines, echoed after the run summary where
# pytest's output capture cannot swallow them.
_acceptance_lines: list[str] = []


def record_acceptance(line: str):
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


def load_tablegen():
    """``perfbench/tablegen.py``, the benchmark's seeded table generators."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tablegen.py"
    spec = importlib.util.spec_from_file_location("perfbench_tablegen", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def make_toy_tokens(kind: str, seed: int = 1, n: int = N_TOY) -> TokenTable:
    """Two categorical fields with a known joint.

    deterministic: B == A; noisy: B == A with prob 0.7, else one of the
    other three values uniformly.
    """
    rng = np.random.default_rng(seed)
    a = rng.integers(0, TOY_K, n)
    if kind == "deterministic":
        b = a.copy()
    elif kind == "noisy":
        b = a.copy()
        flip = rng.random(n) >= 0.7
        shift = rng.integers(1, TOY_K, n)
        b[flip] = (a[flip] + shift[flip]) % TOY_K
    else:
        raise ValueError(kind)
    return TokenTable(schema=None, tokens=np.stack([a, b], axis=1))


def toy_codecs():
    return [fit_categorical(list("abcd")), fit_categorical(list("pqrs"))]


def train_toy(tokens: TokenTable, width=32, depth=2, heads=4, steps=600,
              seed=0) -> TabMTModel:
    model = TabMTModel(toy_codecs(), ModelConfig(width=width, depth=depth,
                                                 heads=heads), seed=seed)
    train(model, tokens, TrainConfig(batch_size=256, max_steps=steps,
                                     warmup_steps=50, seed=seed))
    return model


@pytest.fixture(scope="session")
def toy_deterministic() -> TokenTable:
    return make_toy_tokens("deterministic")


@pytest.fixture(scope="session")
def toy_noisy() -> TokenTable:
    return make_toy_tokens("noisy")


@pytest.fixture(scope="session")
def trained_toy_model(toy_deterministic) -> TabMTModel:
    """Small model trained to convergence on the deterministic toy."""
    return train_toy(toy_deterministic)


# ---- brute-force oracles -------------------------------------------------

def dp_kmeans_1d(values: np.ndarray, k: int) -> tuple[float, list[np.ndarray]]:
    """Exact 1-D k-means via dynamic programming over sorted splits.

    Returns the optimal within-cluster sum of squares and the clusters.
    Feasible only for small inputs; used purely as a test oracle.
    """
    xs = np.sort(np.asarray(values, dtype=np.float64))
    n = len(xs)
    # Centred values keep the prefix sums of squares from cancelling.
    xc = xs - xs.mean()
    pref = np.concatenate([[0.0], np.cumsum(xc)])
    pref2 = np.concatenate([[0.0], np.cumsum(xc * xc)])

    def cost(i, j):
        # WCSS of xs[i:j]
        m = j - i
        s = pref[j] - pref[i]
        s2 = pref2[j] - pref2[i]
        return s2 - s * s / m

    inf = float("inf")
    dp = np.full((k + 1, n + 1), inf)
    cut = np.zeros((k + 1, n + 1), dtype=int)
    dp[0, 0] = 0.0
    for c in range(1, k + 1):
        for j in range(c, n + 1):
            for i in range(c - 1, j):
                v = dp[c - 1, i] + cost(i, j)
                if v < dp[c, j]:
                    dp[c, j] = v
                    cut[c, j] = i
    best_c = int(np.argmin(dp[1: k + 1, n])) + 1
    clusters = []
    j = n
    for c in range(best_c, 0, -1):
        i = cut[c, j]
        clusters.append(xs[i:j])
        j = i
    clusters.reverse()
    return float(dp[best_c, n]), clusters


def lloyd_1d(values: np.ndarray, k: int, max_iter: int = 200, tol: float = 1e-10
             ) -> np.ndarray:
    """Deterministic 1-D Lloyd's algorithm with quantile initialization.

    The quantizer ``fit_continuous`` used above 64 distinct values before
    it became exact; kept as the reference the exact one must not lose to.
    """
    xs = np.sort(values)
    centers = np.quantile(xs, (np.arange(k) + 0.5) / k)
    for _ in range(max_iter):
        d = np.abs(xs[:, None] - centers[None, :])
        assign = np.argmin(d, axis=1)
        new_centers = centers.copy()
        for c in range(k):
            members = xs[assign == c]
            if len(members):
                new_centers[c] = members.mean()
            else:
                # Reseed an empty cluster at the point farthest from its center.
                far = int(np.argmax(np.min(d, axis=1)))
                new_centers[c] = xs[far]
        new_centers = np.sort(new_centers)
        if np.max(np.abs(new_centers - centers)) < tol:
            centers = new_centers
            break
        centers = new_centers
    return centers


def kmeans_1d_per_column(x: np.ndarray, w: np.ndarray, k: int) -> np.ndarray:
    """Centers of an optimal k-means clustering of sorted distinct values.

    ``codec._kmeans_1d`` as it was before it solved many columns in one
    call, one column per call; kept as the oracle the batched one must
    match bit for bit.

    ``x`` holds n >= k distinct values in increasing order and ``w`` their
    weights. Clusters are contiguous runs of ``x``, so the least
    within-cluster sum of squares D[c, j] of the first j values in c
    clusters is min over i of D[c-1, i] + cost(i, j), solved one cluster
    count c at a time. The leftmost optimal split i is monotone in j and
    never below the split of layer c-1, so each layer is a
    divide-and-conquer over j: one numpy pass per recursion depth, whose
    candidate splits sum to O(n).
    """
    n = len(x)
    # Centred values keep the prefix sums of squares from cancelling.
    xc = x - np.dot(w, x) / w.sum()
    pw = np.concatenate([[0.0], np.cumsum(w)])
    ps = np.concatenate([[0.0], np.cumsum(w * xc)])
    ps2 = np.concatenate([[0.0], np.cumsum(w * xc * xc)])
    # cost(i, j) = ps2[j] - ps2[i] - (ps[j] - ps[i])**2 / (pw[j] - pw[i]) is
    # the weighted sum of squares of x[i:j] about its mean.

    # Layer c solves j = c - 1 + o for offsets o in 1..span+1, since each
    # later cluster needs a value. cur[o] holds the split found for offset
    # o; cur[0] and the offsets past span+1 bound the search. Depth by
    # depth, the odd multiples o of h are solved between o - h and o + h.
    span = n - k
    top = 1 << (span + 1).bit_length()
    levels, h = [], top // 2
    while h:
        o = np.arange(h, span + 2, 2 * h)
        levels.append((o, o - h, o + h))
        h //= 2
    cur = np.full(2 * top, n)
    low = np.empty(span + 2)
    pos = np.arange(2 * n + 2)
    best = np.full(n + 1, np.inf)
    best[0] = 0.0
    split = np.zeros((k + 1, n + 1), dtype=np.int64)
    for c in range(1, k + 1):
        # Minimising best[i] + cost(i, j) over i; ps2[j] is added back after.
        g = best - ps2
        cur[0] = c - 1
        for o, left, right in levels:
            j = o + (c - 1)
            hi = np.minimum(cur[right], j - 1)
            lo = np.minimum(np.maximum(cur[left], split[c - 1, j]), hi)
            count = hi - lo + 1
            first = np.cumsum(count) - count
            m = first[-1] + count[-1]
            cand = pos[:m] + np.repeat(lo - first, count)
            jj = np.repeat(j, count)
            s = ps[jj] - ps[cand]
            total = g[cand] - s * s / (pw[jj] - pw[cand])
            low[o] = least = np.minimum.reduceat(total, first)
            # The leftmost candidate at each range's minimum.
            at = np.flatnonzero(total == np.repeat(least, count))
            cur[o] = cand[at[np.searchsorted(at, first)]]
        best = np.full(n + 1, np.inf)
        best[c:c + span + 1] = low[1:] + ps2[c:c + span + 1]
        split[c, c:c + span + 1] = cur[1:span + 2]
    bounds = [n]
    for c in range(k, 0, -1):
        bounds.append(split[c, bounds[-1]])
    bounds = np.array(bounds[::-1])
    starts, ends = bounds[:-1], bounds[1:]
    means = np.add.reduceat(w * x, starts) / np.add.reduceat(w, starts)
    # Rounding may move a mean off its run; clipping keeps the centers
    # strictly increasing and inside the column's range.
    return np.clip(means, x[starts], x[ends - 1])


# ---- row-wise ingest: the table layer as it was when it stored rows ------

@dataclass
class RowTable:
    """``schema.RawTable`` when it stored a list of cells per row."""

    schema: TableSchema
    cells: list[list]

    @property
    def n_rows(self) -> int:
        return len(self.cells)

    def column(self, j: int) -> list:
        return [row[j] for row in self.cells]


def parse_cell_rowwise(raw: str, fs: FieldSchema, missing_marker: str):
    if raw == missing_marker or raw == "":
        return MISSING
    if fs.kind == CONTINUOUS:
        try:
            return float(raw)
        except ValueError:
            raise SchemaError(f"non-numeric value {raw!r} in continuous column {fs.name!r}")
    return raw


def load_csv_rowwise(path: str, schema: TableSchema, missing_marker: str = "") -> RowTable:
    """Oracle for ``schema.load_csv``: one ``parse_cell`` per cell, row by row."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file")
        col_of = {name: i for i, name in enumerate(header)}
        for f in schema.fields:
            if f.name not in col_of:
                raise SchemaError(f"{path}: column {f.name!r} missing from header")
        order = [col_of[f.name] for f in schema.fields]
        cells = []
        for row in reader:
            if len(row) < len(header):
                raise SchemaError(f"{path}: short row {row!r}")
            cells.append(
                [parse_cell_rowwise(row[src], fs, missing_marker)
                 for src, fs in zip(order, schema.fields)]
            )
    return RowTable(schema=schema, cells=cells)


def write_csv_rowwise(table, path: str, missing_marker: str = ""):
    """Oracle for ``schema.write_csv``: one ``writerow`` per row of ``table.cells``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.schema.names)
        for row in table.cells:
            writer.writerow(
                [missing_marker if c is MISSING else c for c in row]
            )


def fit_codecs_rowwise(table) -> list:
    """Oracle for ``codec.fit_codecs``: each column's observed cells through
    generators, the continuous ones quantized by the same batched fit."""
    codecs, columns = [], []
    for j, fs in enumerate(table.schema.fields):
        with _field(fs.name):
            values = table.column(j)
            if fs.kind == CONTINUOUS:
                xs = _finite([v for v in values if v is not MISSING])
                if xs.size == 0:
                    raise CodecError("cannot fit a codec on an empty column")
                distinct, counts = np.unique(xs, return_counts=True)
                columns.append((distinct, counts.astype(np.float64),
                                min(int(fs.max_bins), len(distinct))))
                codecs.append(None)
                continue
            seen = tuple(dict.fromkeys(v for v in values if v is not MISSING))
            if not seen:
                raise CodecError("cannot fit a codec on an empty column")
            codecs.append(codec := CategoricalCodec(values=seen))
            if fs.declared_cardinality is not None and codec.cardinality > fs.declared_cardinality:
                raise CodecError(f"{codec.cardinality} distinct values observed, "
                                 f"{fs.declared_cardinality} declared")
    centers = iter(_kmeans_1d(columns) if columns else [])
    return [ContinuousCodec(next(centers)) if c is None else c for c in codecs]


def observed_cells_rowwise(table, j: int, codec) -> tuple[np.ndarray, np.ndarray]:
    """Oracle for ``codec.observed_cells``."""
    col = table.column(j)
    observed = np.array([v is not MISSING for v in col], dtype=bool)
    cells = [v for v in col if v is not MISSING]
    with _field(table.schema.fields[j].name):
        if isinstance(codec, CategoricalCodec):
            return observed, codec.encode_column(cells)
        return observed, _finite(cells)


def encode_table_rowwise(table, codecs: list) -> TokenTable:
    """Oracle for ``codec.encode_table``."""
    n, l = table.n_rows, len(codecs)
    tokens = np.empty((n, l), dtype=np.int64)
    missing = np.empty((n, l), dtype=bool)
    for j, codec in enumerate(codecs):
        seen, cells = observed_cells_rowwise(table, j, codec)
        missing[:, j] = ~seen
        tokens[:, j] = codec.cardinality
        tokens[seen, j] = cells if isinstance(codec, CategoricalCodec) else codec.encode_column(cells)
    return TokenTable(schema=table.schema, tokens=tokens, missing=missing, source=table)


def decode_table_rowwise(table: TokenTable, codecs: list) -> RowTable:
    """Oracle for ``codec.decode_table``."""
    src = table.source
    cols = []
    for j, codec in enumerate(codecs):
        miss = table.missing[:, j]
        decoded = codec.decode_column(np.where(miss, 0, table.tokens[:, j]))
        parsed = src.column(j) if src is not None else [MISSING] * table.n_rows
        cols.append([p if p is not MISSING else MISSING if m else d
                     for p, m, d in zip(parsed, miss.tolist(), decoded)])
    return RowTable(schema=table.schema, cells=[list(row) for row in zip(*cols)])


def order_distribution_oracle(l: int, samples: int, rng: np.random.Generator
                              ) -> dict[int, np.ndarray]:
    """Empirical distribution of the masked subset at each generation step,
    over the orders the sampler draws for ``samples`` all-masked rows.

    Subsets are encoded as bitmasks. Returns, per step t in 0..l, an array
    of frequencies indexed by bitmask. At step t every size-(l-t) subset
    should appear with probability 1 / C(l, l-t). A row's draws do not
    depend on how rows are batched, so they are drawn 2^16 rows at a time.
    """
    if l > 6:
        raise ValueError("oracle is for small l only (exhaustive enumeration)")
    orders = np.concatenate([_draws(rng, np.ones((min(1 << 16, samples - i), l), bool))[0]
                             for i in range(0, samples, 1 << 16)])
    bits = 1 << orders
    out: dict[int, np.ndarray] = {}
    masked = np.full(samples, (1 << l) - 1, dtype=np.int64)
    out[0] = np.bincount(masked, minlength=1 << l) / samples
    for t in range(l):
        masked = masked & ~bits[:, t]
        out[t + 1] = np.bincount(masked, minlength=1 << l) / samples
    return out


@contextlib.contextmanager
def count_forward_rows():
    """Record ``(rows, fields)`` for every ``TabMTModel.forward`` call made
    inside the block; the original method is restored on exit. ``fields``
    is None or, for per-row fields, a tuple of tuples."""
    calls: list[tuple[int, tuple | None]] = []
    original = TabMTModel.forward

    def counted(self, tokens, mask, rng=None, fields=None, weights=None):
        asked = None if fields is None else tuple(tuple(map(int, row)) for row in fields)
        calls.append((len(tokens), asked))
        return original(self, tokens, mask, rng, fields, weights)

    TabMTModel.forward = counted
    try:
        yield calls
    finally:
        TabMTModel.forward = original


def hidden_per_field(model: TabMTModel, tokens: np.ndarray, mask: np.ndarray,
                     rng: np.random.Generator | None) -> ad.Tensor:
    """Oracle for ``TabMTModel._hidden``: the input side one field at a
    time, each field's cells blended with the mask token on their own."""
    tokens = np.asarray(tokens)
    mask = np.asarray(mask, dtype=bool)
    n, l = tokens.shape
    if l != model.n_fields:
        raise ValueError(f"expected {model.n_fields} fields, got {l}")
    dt = model.cfg.np_dtype
    rng = rng or np.random.default_rng(0)
    cols = []
    for j in range(l):
        m = mask[:, j]
        idx = np.where(m, 0, tokens[:, j])
        if np.any((idx < 0) | (idx >= model.codecs[j].cardinality)):
            raise ValueError(f"token out of range at unmasked position, field {j}")
        emb = ad.gather_rows(model.embeddings[j].weight(), idx)
        mcol = m.astype(dt)[:, None]
        col = ad.add(ad.mul(emb, ad.Tensor(1.0 - mcol)),
                     ad.mul(ad.reshape(model.mask_token, (1, -1)), ad.Tensor(mcol)))
        cols.append(col)
    x = ad.stack(cols, axis=1)
    x = ad.add(x, ad.reshape(model.positional, (1, l, model.cfg.width)))
    for blk in model.blocks:
        x = blk.forward(x, rng, model.training)
    return ad.layer_norm(x, model.ln_f_g, model.ln_f_b)


# How far a forward for some heads, which runs the last block only at their
# positions, may move the logits from the full forward's. The pruned
# products have fewer rows, and BLAS results depend on the row count. Over
# random width-64, depth-4 models at l up to 16 and n up to 300 (six seeds),
# the largest differences measured were 1.2e-6 (float32) and 2.7e-15
# (float64), and on the benchmark's trained float32 models (seed 1) 9.5e-7;
# the tolerances leave a margin of 4x and 7x.
PRUNED_ATOL = {"float32": 5e-6, "float64": 2e-14}


def forward_selecting(self, tokens: np.ndarray, mask: np.ndarray,
                      rng: np.random.Generator | None = None,
                      fields=None, weights=None) -> list[Tensor]:
    """Oracle for ``TabMTModel.forward``: the whole last block at every
    position, then, for per-row fields, field j's position of each row
    asking for it. Each head computes its own tied weight."""
    h = self._hidden(tokens, mask, rng)
    if fields is None:
        return [self.heads[j].forward(ad.select(h, 1, j)) for j in range(self.n_fields)]
    return [self.heads[j].forward(ad.gather_rows(ad.select(h, 1, j),
                                                 np.nonzero(fields == j)[0]))
            for j in np.unique(fields)]


def block_forward_every_position(self, x: Tensor, rng, training) -> Tensor:
    """Oracle for ``_EncoderBlock.forward``: every position's output."""
    a = ad.layer_norm(x, self.ln1_g, self.ln1_b)
    a = self._attention(a, rng, training)
    x = ad.add(x, ad.drop_path(a, self.drop_path, rng, training))
    f = ad.layer_norm(x, self.ln2_g, self.ln2_b)
    n, l, d = f.shape
    # The FFN's dropout mask, drawn after the attention branch's draws and
    # before the FFN's drop_path: the draw order fixes tokens per seed.
    keep = ad.dropout_mask((n * l, self.w1.shape[1]), f.dtype, self.dropout, rng,
                           training)
    f = ad.ffn(ad.reshape(f, (n * l, d)), self.w1, self.b1, self.w2, self.b2, keep)
    f = ad.reshape(f, (n, l, d))
    return ad.add(x, ad.drop_path(f, self.drop_path, rng, training))


@contextlib.contextmanager
def per_field_hidden():
    """Run every ``TabMTModel`` inside the block on ``hidden_per_field``,
    with the last block at every position."""
    original = TabMTModel._hidden, TabMTModel.forward
    TabMTModel._hidden, TabMTModel.forward = hidden_per_field, forward_selecting
    try:
        yield
    finally:
        TabMTModel._hidden, TabMTModel.forward = original


def mixed_case(l: int, seed: int, dtype: str, drop: float = 0.1, n: int = 24,
               width: int = 16, depth: int = 2, heads: int = 2):
    """A model over ``l`` mixed fields (continuous, small categorical and,
    from l = 4, one 1,000-way field) and a batch of ``n`` rows for it: tokens
    with blank cells holding their field's sentinel, and a mask over the
    blanks and a random third of the other cells. Row 0 is fully masked, row
    1 has nothing masked, row 2 is all blank. ``drop`` is both the dropout and
    the drop-path rate."""
    rng = np.random.default_rng(seed)
    codecs = []
    for j in range(l):
        if l >= 4 and j == l // 2:
            codecs.append(fit_categorical([f"v{i}" for i in range(1000)]))
        elif j % 2 == 0:
            codecs.append(fit_continuous(rng.normal(size=40).tolist(),
                                         max_bins=int(rng.integers(2, 12))))
        else:
            codecs.append(fit_categorical(list("abcdefgh"[:int(rng.integers(2, 9))])))

    def model():
        cfg = ModelConfig(width=width, depth=depth, heads=heads, dropout=drop,
                          drop_path=drop, dtype=dtype)
        return TabMTModel(codecs, cfg, seed=seed)

    cards = np.array([c.cardinality for c in codecs])
    tokens = (rng.random((n, l)) * cards).astype(np.int64)
    missing = rng.random((n, l)) < 0.15
    missing[1], missing[2] = False, True
    tokens[missing] = np.broadcast_to(cards, (n, l))[missing]
    mask = missing | (rng.random((n, l)) < 0.35)
    mask[0], mask[1] = True, False
    return model, tokens, missing, mask


# The model's plumbing as it was before each piece of math became one tape
# node: attention on (n * h, l, dh) products behind reshape-only nodes,
# parameters reshaped before they broadcast, heads as matmul + add, and a
# parameter list written out per class. The bodies are kept verbatim.

def attention_reshaping(self, x: Tensor, rng, training) -> Tensor:
    n, l, d = x.shape
    h = self.heads
    dh = d // h
    flat = ad.reshape(x, (n * l, d))
    q = ad.linear(flat, self.wq, self.bq)
    k = ad.linear(flat, self.wk, self.bk)
    v = ad.linear(flat, self.wv, self.bv)

    def split_heads(t):
        t = ad.reshape(t, (n, l, h, dh))
        t = ad.transpose(t, (0, 2, 1, 3))
        return ad.reshape(t, (n * h, l, dh))

    q, k, v = split_heads(q), split_heads(k), split_heads(v)
    # A Python float, not a numpy float64 scalar, so that NumPy 2
    # promotion keeps the activations in the model dtype.
    scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 2, 1))), 1.0 / math.sqrt(dh))
    attn = ad.softmax(scores)
    attn = ad.dropout(attn, self.dropout, rng, training)
    ctx = ad.matmul(attn, v)
    ctx = ad.reshape(ctx, (n, h, l, dh))
    ctx = ad.transpose(ctx, (0, 2, 1, 3))
    ctx = ad.reshape(ctx, (n * l, d))
    out = ad.linear(ctx, self.wo, self.bo)
    return ad.reshape(out, (n, l, d))


def ordered_weight_reshaping(self) -> Tensor:
    r = self.ratios[:, None]
    lo = ad.mul(Tensor(r), ad.reshape(self.l_vec, (1, -1)))
    hi = ad.mul(Tensor(1.0 - r), ad.reshape(self.h_vec, (1, -1)))
    return ad.add(self.E, ad.add(lo, hi))


def head_forward_matmul_add(self, x: Tensor) -> Tensor:
    w = self.embedding.weight()
    raw = ad.add(ad.matmul(x, ad.transpose(w, (1, 0))), self.bias)
    return ad.mul(raw, ad.reciprocal(ad.sigmoid(self.temp)))


def hidden_reshaping(self, tokens: np.ndarray, mask: np.ndarray,
                     rng: np.random.Generator | None) -> Tensor:
    """Final encoder hidden states after the pre-head layer norm. Each field looks up
    its own table; one blend over all fields puts the mask token in every masked cell."""
    tokens = np.asarray(tokens)
    mask = np.asarray(mask, dtype=bool)
    n, l = tokens.shape
    if l != self.n_fields:
        raise ValueError(f"expected {self.n_fields} fields, got {l}")
    rng = rng or np.random.default_rng(0)
    # Masked positions read the mask token; their token value is
    # irrelevant, so clamp it into range before the lookup.
    idx = np.where(mask, 0, tokens)
    bad = ((idx < 0) | (idx >= np.asarray(self.cardinalities))).any(axis=0)
    if bad.any():
        raise ValueError(f"token out of range at unmasked position, field {np.argmax(bad)}")
    emb = ad.stack([ad.gather_rows(e.weight(), idx[:, j])
                    for j, e in enumerate(self.embeddings)], axis=1)
    m = mask.astype(self.cfg.np_dtype)[:, :, None]
    x = ad.add(ad.mul(emb, Tensor(1.0 - m)),
               ad.mul(ad.reshape(self.mask_token, (1, 1, -1)), Tensor(m)))
    x = ad.add(x, ad.reshape(self.positional, (1, l, self.cfg.width)))
    for blk in self.blocks:
        x = blk.forward(x, rng, self.training)
    return ad.layer_norm(x, self.ln_f_g, self.ln_f_b)


def ordered_parameters_listed(self):
    return [("E", self.E), ("l_vec", self.l_vec), ("h_vec", self.h_vec)]


def categorical_parameters_listed(self):
    return [("E", self.E)]


def head_parameters_listed(self):
    return [("bias", self.bias), ("temp", self.temp)]


def block_parameters_listed(self):
    names = ["ln1_g", "ln1_b", "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo",
             "ln2_g", "ln2_b", "w1", "b1", "w2", "b2"]
    return [(n, getattr(self, n)) for n in names]


@contextlib.contextmanager
def reshaping_plumbing():
    """Run every ``TabMTModel`` inside the block on the reshaping plumbing
    above, with the last block at every position; each class gets its own
    methods back on exit."""
    patches = [(_EncoderBlock, "_attention", attention_reshaping),
               (_EncoderBlock, "forward", block_forward_every_position),
               (TabMTModel, "forward", forward_selecting),
               (OrderedEmbedding, "weight", ordered_weight_reshaping),
               (DynamicLinear, "forward", head_forward_matmul_add),
               (TabMTModel, "_hidden", hidden_reshaping),
               (OrderedEmbedding, "parameters", ordered_parameters_listed),
               (CategoricalEmbedding, "parameters", categorical_parameters_listed),
               (DynamicLinear, "parameters", head_parameters_listed),
               (_EncoderBlock, "parameters", block_parameters_listed)]
    # An inherited method is not in the class's own dict; it is deleted again.
    saved = [(cls, name, cls.__dict__.get(name)) for cls, name, _ in patches]
    for cls, name, fn in patches:
        setattr(cls, name, fn)
    try:
        yield
    finally:
        for cls, name, fn in saved:
            if fn is None:
                delattr(cls, name)
            else:
                setattr(cls, name, fn)


def brute_dcr(synth: np.ndarray, train_vec: np.ndarray) -> float:
    dists = []
    for s in synth:
        dists.append(min(float(np.sqrt(((s - t) ** 2).sum())) for t in train_vec))
    return float(np.median(dists))


def explicit_min_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from each row of ``a`` to its nearest row of ``b``, by
    explicit differences one row of ``a`` at a time."""
    return np.array([np.sqrt(((s - b) ** 2).sum(axis=1).min()) for s in a])


def brute_precision_recall(real: np.ndarray, synth: np.ndarray, k: int = 3
                           ) -> tuple[float, float]:
    def radii(points):
        out = []
        for i, p in enumerate(points):
            ds = sorted(
                float(np.sqrt(((p - q) ** 2).sum()))
                for j, q in enumerate(points) if j != i
            )
            out.append(ds[k - 1])
        return out

    def covered(queries, centers, rads):
        hits = 0
        for q in queries:
            for c, r in zip(centers, rads):
                if float(np.sqrt(((q - c) ** 2).sum())) <= r:
                    hits += 1
                    break
        return hits / len(queries)

    real_r = radii(real)
    synth_r = radii(synth)
    return covered(synth, real, real_r), covered(real, synth, synth_r)


def correlation_errors_dense(real: np.ndarray, synth: np.ndarray) -> np.ndarray:
    """|corr_real(i,j) - corr_synth(i,j)| for every unordered column pair, in
    ``np.triu_indices`` order, from dense d x d correlation matrices; every
    pair with a column constant in either table zeroed in place."""
    real, synth = np.asarray(real, dtype=np.float64), np.asarray(synth, dtype=np.float64)
    if real.shape[1] != synth.shape[1]:
        raise MetricError("column count mismatch")
    if len(real) < 2 or len(synth) < 2:
        raise MetricError("need at least two rows to correlate")

    def corr(x):
        sd = x.std(axis=0)
        const = sd == 0
        xs = (x - x.mean(axis=0)) / np.where(const, 1.0, sd)
        c = (xs.T @ xs) / len(x)
        c[const, :] = 0.0
        c[:, const] = 0.0
        return c, const

    cr, const_r = corr(real)
    cs, const_s = corr(synth)
    err = np.abs(cr - cs)
    either_const = const_r | const_s
    err[either_const, :] = 0.0
    err[:, either_const] = 0.0
    return err[np.triu_indices(real.shape[1], k=1)]


def correlation_error_histogram_dense(real: np.ndarray, synth: np.ndarray,
                                      bins: int = 20) -> tuple[np.ndarray, np.ndarray]:
    """Oracle for ``metrics.correlation_error_histogram``: the histogram of
    ``correlation_errors_dense``."""
    return np.histogram(correlation_errors_dense(real, synth), bins=bins, range=(0.0, 2.0))


def metric_features_by_lookup(space, table, exclude=None) -> np.ndarray:
    """Oracle for ``MetricSpace.transform``: features cell by cell, a
    category through a dictionary lookup (an unseen one left as zeros)."""
    n = table.n_rows
    blocks = []
    for j, codec in enumerate(space.codecs):
        if j == exclude:
            continue
        col = table.column(j)
        if isinstance(codec, ContinuousCodec):
            lo, hi = space.mins[j], space.maxs[j]
            span = hi - lo if hi > lo else 1.0
            block = np.array(
                [0.0 if v is MISSING else (v - lo) / span for v in col]
            ).reshape(n, 1)
        else:
            block = np.zeros((n, codec.cardinality))
            idx = codec.index
            for i, v in enumerate(col):
                if v is not MISSING and v in idx:
                    block[i, idx[v]] = 1.0
        blocks.append(block)
    return np.concatenate(blocks, axis=1) if blocks else np.zeros((n, 0))


def mle_proxy_by_lookup(synth_train, real_test, space, target_index: int, task: str,
                        seed: int = 0) -> float:
    """Oracle for ``metrics.mle_proxy``: the features of
    ``metric_features_by_lookup`` and labels mapped cell by cell."""
    if task not in (CLASSIFY, REGRESS):
        raise MetricError(f"unknown task {task!r}")
    codec = space.codecs[target_index]
    y_tr_raw = synth_train.column(target_index)
    y_te_raw = real_test.column(target_index)
    keep_tr = [i for i, v in enumerate(y_tr_raw) if v is not MISSING]
    keep_te = [i for i, v in enumerate(y_te_raw) if v is not MISSING]
    if not keep_tr or not keep_te:
        raise MetricError("no rows with an observed target")
    x_tr = metric_features_by_lookup(space, synth_train, exclude=target_index)[keep_tr]
    x_te = metric_features_by_lookup(space, real_test, exclude=target_index)[keep_te]
    y_tr_raw = [y_tr_raw[i] for i in keep_tr]
    y_te_raw = [y_te_raw[i] for i in keep_te]

    if task == CLASSIFY:
        if not isinstance(codec, CategoricalCodec):
            raise MetricError("classification target must be categorical")
        idx = codec.index
        y_tr = np.array([idx[v] for v in y_tr_raw])
        y_te = np.array([idx[v] for v in y_te_raw])
        if len(np.unique(y_tr)) < 2:
            raise MetricError("training target has a single class")
        w, b = _train_logistic(x_tr, y_tr, codec.cardinality, seed=seed)
        y_pred = np.argmax(x_te @ w + b, axis=1)
        return _macro_f1(y_te, y_pred, np.unique(y_te))

    y_tr = np.asarray(y_tr_raw, dtype=np.float64)
    y_te = np.asarray(y_te_raw, dtype=np.float64)
    xa = np.concatenate([x_tr, np.ones((len(x_tr), 1))], axis=1)
    lam = 1e-3
    reg = lam * np.eye(xa.shape[1])
    reg[-1, -1] = 0.0
    beta = np.linalg.solve(xa.T @ xa + reg, xa.T @ y_tr)
    xb = np.concatenate([x_te, np.ones((len(x_te), 1))], axis=1)
    pred = xb @ beta
    ss_res = float(((y_te - pred) ** 2).sum())
    ss_tot = float(((y_te - y_te.mean()) ** 2).sum())
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0


def sample_row_oracle(logits: np.ndarray, tau: float, u: float) -> int:
    """One row's draw from softmax(logits / tau) at the uniform ``u``."""
    logits = np.asarray(logits, dtype=np.float64)
    if tau < 1e-6:
        return int(np.argmax(logits))
    z = logits / tau
    z -= z.max()
    p = np.exp(z)
    p /= p.sum()
    cdf = np.cumsum(p)
    return min(int((u >= cdf[:-1]).sum()), len(logits) - 1)


def sampler_oracle(model: TabMTModel, tokens: np.ndarray, mask: np.ndarray,
                   temps: list[float], seed: int) -> np.ndarray:
    """The sampler one row at a time, as a taped forward over every head.

    Row i takes l keys and then l uniforms from one stream, after the rows
    before it; it unmasks its masked fields in increasing key order, the
    t-th with the t-th uniform.
    """
    rng = np.random.default_rng(seed)
    tokens = tokens.copy()
    l = tokens.shape[1]
    for row, masked in zip(tokens, mask):
        keys, u = rng.random(l), rng.random(l)
        masked = masked.copy()
        for t, j in enumerate(sorted(np.flatnonzero(masked), key=lambda j: keys[j])):
            logits = model.forward(np.where(masked, 0, row)[None], masked[None])[j].data[0]
            row[j] = sample_row_oracle(logits, temps[j], u[t])
            masked[j] = False
    return tokens


def generate_oracle(model: TabMTModel, temps: list[float], condition: dict,
                    count: int, seed: int) -> np.ndarray:
    """``generate`` as ``sampler_oracle`` of an all-masked table with the
    conditioned cells observed."""
    tokens = np.zeros((count, model.n_fields), dtype=np.int64)
    mask = np.ones(tokens.shape, dtype=bool)
    for j, t in condition.items():
        tokens[:, j], mask[:, j] = t, False
    return sampler_oracle(model, tokens, mask, temps, seed)


def impute_oracle(model: TabMTModel, table: TokenTable, temps: list[float],
                  seed: int) -> np.ndarray:
    """``impute`` as ``sampler_oracle`` of the table's missing cells."""
    return sampler_oracle(model, table.tokens, table.missing, temps, seed)


# ---- the sampler before one rule per step ---------------------------------
# Each step ran one encoder row per distinct (row state, field) pair, or one
# row with the last block at every field asked for when all rows shared one
# state; it scattered each field's logits into a (pairs, widest field)
# buffer, gathered it back per row and drew rows of one width together with
# per-row temperatures. The bodies are kept verbatim; only the names differ.

def sample_field_by_width(logits: np.ndarray, tau, u: np.ndarray, widths=None) -> np.ndarray:
    logits = np.asarray(logits, dtype=np.float64)
    n, k = logits.shape
    tau = np.broadcast_to(np.asarray(tau, dtype=np.float64), (n,))
    widths = np.broadcast_to(k if widths is None else widths, (n,))
    u = np.asarray(u, dtype=np.float64).reshape(n)
    out = np.empty(n, dtype=np.int64)
    cold = tau < ARGMAX_TAU
    if cold.any():
        z, valid = logits[cold], np.arange(k) < widths[cold, None]
        if not np.isfinite(z[valid]).all():
            raise ValueError("non-finite logits")
        out[cold] = np.argmax(np.where(valid, z, -np.inf), axis=-1)
    hot = np.flatnonzero(~cold)
    hot = hot[np.argsort(widths[hot], kind="stable")]
    cuts = np.flatnonzero(np.diff(widths[hot])) + 1
    for rows in np.split(hot, cuts) if len(hot) else ():
        w = widths[rows[0]]
        z = logits[rows, :w]
        if not np.isfinite(z).all():
            raise ValueError("non-finite logits")
        z = z / tau[rows, None]
        cdf = np.cumsum(ad.softmax_rows(z, z), axis=-1)
        out[rows] = np.minimum((u[rows, None] >= cdf[:, :-1]).sum(axis=-1), w - 1)
    return out


def step_logits_per_pair(model: TabMTModel, tokens: np.ndarray, mask: np.ndarray,
                         fields: np.ndarray, weights) -> np.ndarray:
    state = np.where(mask, -1, tokens)
    if (state == state[0]).all():
        src, at = [0], np.unique(fields)[None, :]
        slot = np.searchsorted(at[0], fields)
    else:
        src, slot, _ = ad.distinct_rows(np.column_stack([state, fields]))
        at = fields[src, None]
    # Field j's output rows are the positions of ``at`` asking for j, in order.
    flat = at.ravel()
    logits = np.empty((len(flat), max(model.cardinalities)))
    for j, out in zip(np.unique(flat), model.forward(tokens[src], mask[src], None, at, weights)):
        logits[flat == j, :out.shape[1]] = out.data
    return logits[slot]


def sample_per_pair(model: TabMTModel, tokens: np.ndarray, mask: np.ndarray,
                    temps: list[float], seed: int, batch_size: int):
    temps = np.asarray(temps)
    widths = np.asarray(model.cardinalities)
    rng = np.random.default_rng(seed)
    with model.inference():
        weights = model.tied_weights()
        for start in range(0, len(tokens), batch_size):
            batch = tokens[start:start + batch_size]  # a view: samples land in tokens
            m = mask[start:start + batch_size].copy()
            order, u = _draws(rng, m)
            left = m.sum(axis=1)
            for t in range(left.max(initial=0)):
                rows = np.flatnonzero(left > t)
                f = order[rows, t]
                logits = step_logits_per_pair(model, batch[rows], m[rows], f, weights)
                batch[rows, f] = sample_field_by_width(logits, temps[f], u[rows, t], widths[f])
                m[rows, f] = False


@contextlib.contextmanager
def per_pair_sampler():
    """Run ``generate`` and ``impute`` inside the block on the per-pair
    sampler above; the module gets its own ``_sample`` back on exit."""
    saved = generation._sample
    generation._sample = sample_per_pair
    try:
        yield
    finally:
        generation._sample = saved


def train_logistic_taped(x: np.ndarray, y: np.ndarray, n_classes: int, steps: int = 300,
                         lr: float = 0.1, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Logistic regression fit by AdamW on gradients from the autodiff tape:
    the reference the tape-free ``metrics._train_logistic`` must equal."""
    rng = np.random.default_rng(seed)
    w = Parameter(rng.normal(0, 0.01, (x.shape[1], n_classes)))
    b = Parameter(np.zeros(n_classes))
    opt = AdamWOutOfPlace([w, b], lr=lr, weight_decay=1e-4)
    active = np.ones(len(x), dtype=bool)
    for _ in range(steps):
        opt.zero_grad()
        logits = ad.add(ad.matmul(ad.Tensor(x), w), b)
        loss, count = ad.cross_entropy_sum(logits, y, active)
        loss = ad.scale(loss, 1.0 / count)
        loss.backward()
        opt.step()
    return w.data, b.data


# ---- evaluation before distinct-row searches and the in-place AdamW step ----

class AdamWOutOfPlace(AdamW):
    """``AdamW`` with the out-of-place step it had before updating in place
    (body verbatim), which let a gradient's dtype promote the moments."""

    def step(self):
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                raise FloatingPointError("non-finite gradient in AdamW step")
            if self.weight_decay:
                p.data -= self.lr * self.weight_decay * p.data
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            mhat = self.m[i] / (1 - b1**t)
            vhat = self.v[i] / (1 - b2**t)
            p.data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


def train_logistic_out_of_place(x: np.ndarray, y: np.ndarray, n_classes: int,
                                steps: int = 300, lr: float = 0.1, seed: int = 0
                                ) -> tuple[np.ndarray, np.ndarray]:
    """The proxy fit with separate ``w`` and ``b`` arrays; body verbatim, on
    ``AdamWOutOfPlace``."""
    rng = np.random.default_rng(seed)
    w = SimpleNamespace(data=rng.normal(0, 0.01, (x.shape[1], n_classes)), grad=None)
    b = SimpleNamespace(data=np.zeros(n_classes), grad=None)
    opt = AdamWOutOfPlace([w, b], lr=lr, weight_decay=1e-4)
    rows, scale = np.arange(len(x)), 1.0 / len(x)
    for _ in range(steps):
        # Gradient of the mean cross entropy, in the order a tape computes it.
        z = x @ w.data + b.data
        p = np.exp(z - row_max(z))
        p /= p.sum(axis=1, keepdims=True)
        p[rows, y] -= 1.0
        g = scale * p
        w.grad, b.grad = x.T @ g, g.sum(axis=0)
        opt.step()
    return w.data, b.data


def dcr_every_row(synth: np.ndarray, train: np.ndarray) -> float:
    """``metrics.dcr`` searching every row, copies included (body verbatim)."""
    synth, train = np.asarray(synth, dtype=np.float64), np.asarray(train, dtype=np.float64)
    if synth.size == 0 or train.size == 0:
        raise MetricError("dcr requires non-empty inputs")
    if synth.shape[1] != train.shape[1]:
        raise MetricError("dcr dimension mismatch")
    if not (np.isfinite(synth).all() and np.isfinite(train).all()):
        raise MetricError("dcr requires finite inputs")
    return float(np.median(_kth_dists(synth, train, 1)))


def fraction_covered_every_row(queries: np.ndarray, centers: np.ndarray,
                               radii: np.ndarray) -> float:
    """``metrics._fraction_covered``, which ``_covered`` replaced (body verbatim)."""
    # sqrt(d2) <= r if d2 <= r^2, not if d2 > r^2 / (1 - u)^2; the margin spans that.
    r2 = radii * radii
    margin = 8 * _U * r2 + _TINY
    hits = 0
    for start, s2, bound in _screen(queries, centers):
        inside = (s2 + bound[:, None] <= r2 - margin).any(axis=1)
        unsure = ~(s2 - bound[:, None] > r2 + margin) & ~inside[:, None]
        d2, cols = _sq_dists(queries[start:start + len(s2)], centers, unsure)
        inside |= (np.sqrt(d2) <= radii[cols]).any(axis=1)
        hits += int(inside.sum())
    return hits / len(queries)


def precision_recall_every_row(real_emb: np.ndarray, synth_emb: np.ndarray, k: int = 3
                               ) -> tuple[float, float]:
    """``metrics.precision_recall`` searching every row and every ball, copies
    included (body verbatim, on ``fraction_covered_every_row``)."""
    if k < 1:
        raise MetricError(f"k must be at least 1, got k={k}")
    real_emb = np.asarray(real_emb, dtype=np.float64)
    synth_emb = np.asarray(synth_emb, dtype=np.float64)
    if len(real_emb) <= k or len(synth_emb) <= k:
        raise MetricError(f"need more than k={k} points on each side")
    if not (np.isfinite(real_emb).all() and np.isfinite(synth_emb).all()):
        raise MetricError("precision_recall requires finite embeddings")
    if (real_emb == real_emb[0]).all() or (synth_emb == synth_emb[0]).all():
        raise MetricError("degenerate (all-identical) embeddings")
    # Each point is its own nearest neighbour, at distance exactly 0.
    real_r = _kth_dists(real_emb, real_emb, k + 1)
    synth_r = _kth_dists(synth_emb, synth_emb, k + 1)
    precision = fraction_covered_every_row(synth_emb, real_emb, real_r)
    recall = fraction_covered_every_row(real_emb, synth_emb, synth_r)
    return precision, recall


@contextlib.contextmanager
def evaluation_every_row():
    """Run ``dcr``, ``precision_recall``, the proxy fit and every ``AdamW``
    step inside the block as they were before distinct-row searches and the
    in-place step, wherever a module imported them."""
    patches = [(metrics, "dcr", dcr_every_row), (cli, "dcr", dcr_every_row),
               (pareto, "dcr", dcr_every_row),
               (metrics, "precision_recall", precision_recall_every_row),
               (cli, "precision_recall", precision_recall_every_row),
               (metrics, "_train_logistic", train_logistic_out_of_place),
               (AdamW, "step", AdamWOutOfPlace.step)]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    for owner, name, fn in patches:
        setattr(owner, name, fn)
    try:
        yield
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)


# ---- autodiff: test-only ops and the kernels the blocked ones replaced ----

def mean(a, axis=None) -> ad.Tensor:
    a = ad._as_tensor(a)
    out_data = a.data.mean(axis=axis)
    count = a.data.size if axis is None else a.data.shape[axis]
    na, shape, dtype = a.node, a.data.shape, a.data.dtype

    def backward(g):
        if axis is None:
            ad._accum(na, np.full(shape, g / count, dtype))
        else:
            ad._accum(na, np.repeat(np.expand_dims(g, axis), count, axis=axis) / count)

    return ad._make(out_data, (a,), backward)


def grad_check(f, params, h: float = 1e-5, rng=None, max_coords: int = 8) -> float:
    """Compare reverse-mode gradients against central finite differences.

    ``f`` is a closure returning a scalar loss Tensor; it is re-evaluated
    after each parameter perturbation. Returns the max relative error over
    up to ``max_coords`` sampled coordinates per parameter. Parameters
    must be float64 for the stated tolerances to hold.
    """
    rng = rng or np.random.default_rng(0)
    for p in params:
        p.grad = None
    loss = f()
    loss.backward()
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]

    worst = 0.0
    for p, g_ad in zip(params, analytic):
        flat = p.data.reshape(-1)
        n = flat.size
        coords = rng.choice(n, size=min(max_coords, n), replace=False)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + h
            fp = float(f().data)
            flat[c] = orig - h
            fm = float(f().data)
            flat[c] = orig
            g_fd = (fp - fm) / (2 * h)
            g_a = float(g_ad.reshape(-1)[c])
            err = abs(g_a - g_fd) / max(1.0, abs(g_a), abs(g_fd))
            worst = max(worst, err)
    return worst


def backward_retaining(self):
    """``Tensor.backward`` before it released the graph: every node keeps its
    closure, parents and gradient after the walk."""
    if self.data.size != 1:
        raise ValueError("backward() requires a scalar tensor")
    topo, seen = [], set()
    stack = [(self.node, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))
    self.node.grad = np.ones_like(self.data)
    for node in reversed(topo):
        if node.backward is not None:
            node.backward(node.grad)


def accum_copying(node, g):
    """``_accum`` before it kept contiguous views: every view is copied."""
    if node.grad is None:
        node.grad = g if (g.base is None and g.flags.owndata) else g.copy()
    else:
        node.grad = node.grad + g


def softmax_oracle(a):
    a = ad._as_tensor(a)
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    out_data = e / e.sum(axis=-1, keepdims=True)
    na = a.node

    def backward(g):
        dot = (g * out_data).sum(axis=-1, keepdims=True)
        accum_copying(na, out_data * (g - dot))

    return ad._make(out_data, (a,), backward)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu_oracle(a):
    a = ad._as_tensor(a)
    x = a.data
    inner = _GELU_C * (x + 0.044715 * (x * x * x))
    t = np.tanh(inner)
    out_data = 0.5 * x * (1.0 + t)
    na = a.node

    def backward(g):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * (x * x))
        da = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
        accum_copying(na, g * da)

    return ad._make(out_data, (a,), backward)


def layer_norm_oracle(a, gain, bias, eps: float = 1e-5):
    a, gain, bias = ad._as_tensor(a), ad._as_tensor(gain), ad._as_tensor(bias)
    x = a.data
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out_data = xhat * gain.data + bias.data
    na, ng, nb = ad._node(a), ad._node(gain), ad._node(bias)
    xg, sg, sb = gain.data, gain.data.shape, bias.data.shape

    def backward(g):
        if ng is not None:
            accum_copying(ng, ad._unbroadcast(g * xhat, sg))
        if nb is not None:
            accum_copying(nb, ad._unbroadcast(g, sb))
        if na is not None:
            gx = g * xg
            gmean = gx.mean(axis=-1, keepdims=True)
            gdot = (gx * xhat).mean(axis=-1, keepdims=True)
            accum_copying(na, inv * (gx - gmean - xhat * gdot))

    return ad._make(out_data, (a, gain, bias), backward)


# The dense oracles run an input that is not 2-D as (rows, last axis),
# behind reshape nodes, as the model's plumbing fed its dense layers before
# they took any leading shape, so that no oracle falls into numpy's batched
# matmul.

def linear_oracle(x, w, b):
    x = ad._as_tensor(x)
    if x.data.ndim != 2:
        y = linear_oracle(ad.reshape(x, (-1, x.shape[-1])), w, b)
        return ad.reshape(y, x.shape[:-1] + y.shape[-1:])
    return ad.add(ad.matmul(x, w), b)


def ffn_oracle(x, w1, b1, w2, b2, keep=None):
    """``ad.ffn`` as the chain of ops it replaced, which kept the activation
    and its tanh on the tape."""
    x = ad._as_tensor(x)
    if x.data.ndim != 2:
        y = ffn_oracle(ad.reshape(x, (-1, x.shape[-1])), w1, b1, w2, b2, keep)
        return ad.reshape(y, x.shape[:-1] + y.shape[-1:])
    a = gelu_oracle(linear_oracle(x, w1, b1))
    if keep is not None:
        a = ad.mul(a, ad.Tensor(keep.reshape(a.shape)))
    return linear_oracle(a, w2, b2)


def cross_entropy_sum_oracle(logits, targets, active):
    """``ad.cross_entropy_sum`` with each row's maximum from ``ndarray.max``."""
    logits = ad._as_tensor(logits)
    targets = np.asarray(targets)
    active = np.asarray(active, dtype=bool)
    n, k = logits.data.shape
    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    safe_t = np.where(active, targets, 0)
    losses = lse - z[np.arange(n), safe_t]
    count = int(active.sum())
    out_data = np.asarray(losses[active].sum(), dtype=z.dtype)
    nz = logits.node

    def backward(g):
        p = np.exp(z - zmax)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(n), safe_t] -= 1.0
        p[~active] = 0.0
        accum_copying(nz, g * p)

    return ad._make(out_data, (logits,), backward), count


def sample_field_oracle(logits: np.ndarray, tau_u: float, u: np.ndarray) -> np.ndarray:
    """``generation.sample_field`` with each row's maximum from ``ndarray.max``."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite logits")
    if tau_u < 1e-6:
        return np.argmax(logits, axis=-1)
    z = logits / tau_u
    z -= z.max(axis=-1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=-1, keepdims=True)
    cdf = np.cumsum(p, axis=-1)
    return np.minimum((u[:, None] >= cdf[:, :-1]).sum(axis=-1), logits.shape[-1] - 1)


@contextlib.contextmanager
def oracle_kernels():
    """Run the autodiff ops inside the block as they were before the
    row-blocked kernels, ``ad.linear``, ``ad.ffn``, ``ad.row_max`` and the
    copy-free ``_accum``."""
    patches = {"softmax": softmax_oracle, "gelu": gelu_oracle,
               "layer_norm": layer_norm_oracle, "linear": linear_oracle, "ffn": ffn_oracle,
               "cross_entropy_sum": cross_entropy_sum_oracle, "_accum": accum_copying}
    saved = {name: getattr(ad, name) for name in patches}
    for name, fn in patches.items():
        setattr(ad, name, fn)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(ad, name, fn)


# ---- flowcheck before the netflow format moved behind FlowRecord ---------
# The rules counted one by one, each IP parsed again per rule, and the CLI's
# own copy of the column list, parsers and reader. The bodies are kept
# verbatim; only the names differ. Nothing here calls the module's rules.

def is_private_reparsing(ip: str) -> bool:
    try:
        return ipaddress.ip_address(ip).is_private
    except ValueError:
        raise FlowError(f"invalid IP address {ip!r}")


def flags_empty(flags: str) -> bool:
    return all(ch in ".- " for ch in flags)


def check_invariants_by_hand(records: list[FlowRecord],
                             vocab: dict[str, set] | None = None) -> InvariantReport:
    report = InvariantReport()
    for rule in RULES:
        report.violations[rule] = 0
        report.applicable[rule] = 0

    for rec in records:
        # Non-TCP flows must not carry TCP flags.
        if rec.protocol != "TCP":
            report.applicable["tcp_flags"] += 1
            if not flags_empty(rec.flags):
                report.violations["tcp_flags"] += 1

        # At least one endpoint of every flow must be private.
        report.applicable["private_ips"] += 1
        if not (is_private_reparsing(rec.src_ip) or is_private_reparsing(rec.dst_ip)):
            report.violations["private_ips"] += 1

        # Well-known TCP service ports imply protocol TCP.
        if rec.src_port in WELL_KNOWN_TCP_PORTS or rec.dst_port in WELL_KNOWN_TCP_PORTS:
            report.applicable["tcp_port"] += 1
            if rec.protocol != "TCP":
                report.violations["tcp_port"] += 1

        # Port-53 traffic is UDP, or TCP with a bounded payload.
        if rec.src_port == 53 or rec.dst_port == 53:
            report.applicable["dns"] += 1
            ok = rec.protocol == "UDP" or (
                rec.protocol == "TCP"
                and rec.bytes <= DNS_BYTES_PER_PACKET * rec.packets
            )
            if not ok:
                report.violations["dns"] += 1

        # Every field value must come from the training vocabulary.
        if vocab is not None:
            report.applicable["valid_values"] += 1
            ok = all(
                getattr(rec, name) in allowed for name, allowed in vocab.items()
            )
            if not ok:
                report.violations["valid_values"] += 1

        # NetBios ports imply UDP/TCP and a private destination.
        if rec.src_port in NETBIOS_PORTS or rec.dst_port in NETBIOS_PORTS:
            report.applicable["netbios"] += 1
            ok = rec.protocol in ("UDP", "TCP") and is_private_reparsing(rec.dst_ip)
            if not ok:
                report.violations["netbios"] += 1

        # Byte count bounded by min/max frame size times packet count.
        report.applicable["packet_ratios"] += 1
        if not (MIN_FRAME_BYTES * rec.packets <= rec.bytes
                <= MAX_FRAME_BYTES * rec.packets):
            report.violations["packet_ratios"] += 1

    return report


CLI_FLOW_COLUMNS = ["timestamp", "src_ip", "dst_ip", "protocol", "src_port",
                    "dst_port", "duration", "bytes", "packets", "flags", "tos"]


def cli_ip(raw: str) -> str:
    ipaddress.ip_address(raw)  # raises ValueError on a malformed address
    return raw


# Each non-text column's parser; a ValueError from one names the cell.
CLI_FLOW_PARSERS = {"src_ip": cli_ip, "dst_ip": cli_ip, "src_port": int, "dst_port": int,
                    "duration": float, "bytes": int, "packets": int, "tos": int}


def cli_flow_record(row: dict) -> FlowRecord:
    cells = {}
    for column in CLI_FLOW_COLUMNS:
        raw = row[column]
        if raw is None:
            raise FlowError(f"column {column!r} is missing (short row)")
        try:
            cells[column] = CLI_FLOW_PARSERS.get(column, str)(raw)
        except ValueError:
            raise FlowError(f"bad value {raw!r} in column {column!r}") from None
    weekday, hour, minute, second, ms = decompose_timestamp(cells.pop("timestamp"))
    return FlowRecord(weekday=weekday, hour=hour, minute=minute, second=second,
                      millisecond=ms, **cells)


def cmd_flowcheck_oracle(args) -> int:
    """``tabmt flowcheck`` for ``args.data`` and ``args.report``."""
    import csv as _csv

    records = []
    with open(args.data, "r", encoding="utf-8", newline="") as fh:
        reader = _csv.DictReader(fh)
        missing_cols = set(CLI_FLOW_COLUMNS) - set(reader.fieldnames or [])
        if missing_cols:
            raise cli.CliError(f"netflow CSV missing columns: {sorted(missing_cols)}")
        for row in reader:
            try:
                records.append(cli_flow_record(row))
            except FlowError as e:
                raise FlowError(f"{args.data} line {reader.line_num}: {e}") from None
    report = check_invariants_by_hand(records)
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report.to_json(), fh, indent=2)
    print(f"checked {len(records)} flows, report written to {args.report}")
    return 0


# ---- stored formats as each was described twice ---------------------------
# The checkpoint writer and reader, each with its own offset arithmetic; the
# schema JSON written key by key; the ratio helper a continuous codec was
# built with; and infer_schema with its own row loop. The bodies are kept
# verbatim; only the names differ.

def save_checkpoint_by_hand(path: str, model: TabMTModel, schema: TableSchema | None,
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


def load_checkpoint_by_hand(path: str) -> tuple[TabMTModel, TableSchema | None, dict]:
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


def schema_to_json_by_hand(self: TableSchema) -> dict:
    out = {"fields": []}
    for f in self.fields:
        d = {"name": f.name, "kind": f.kind}
        if f.declared_cardinality is not None:
            d["declared_cardinality"] = f.declared_cardinality
        if f.max_bins is not None:
            d["max_bins"] = f.max_bins
        out["fields"].append(d)
    if self.target_index is not None:
        out["target"] = self.fields[self.target_index].name
    return out


def ratios_by_hand(centers: np.ndarray) -> np.ndarray:
    if len(centers) == 1:
        # Degenerate field: min == max, pin the ratio to 0.
        return np.zeros(1)
    return (centers - centers[0]) / (centers[-1] - centers[0])


def infer_schema_by_rows(path: str, max_bins: int = 100, missing_marker: str = "",
                         target: str | None = None) -> TableSchema:
    """Guess field kinds from a CSV: numeric-parseable columns become
    continuous, everything else categorical."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        numeric = [True] * len(header)
        seen_value = [False] * len(header)
        for row in reader:
            for i, raw in enumerate(row[: len(header)]):
                if raw == missing_marker or raw == "":
                    continue
                seen_value[i] = True
                if numeric[i]:
                    try:
                        float(raw)
                    except ValueError:
                        numeric[i] = False
    fields = []
    for name, is_num, seen in zip(header, numeric, seen_value):
        if is_num and seen:
            fields.append(FieldSchema(name=name, kind=CONTINUOUS, max_bins=max_bins))
        else:
            fields.append(FieldSchema(name=name, kind=CATEGORICAL))
    if target is not None and target not in header:
        raise SchemaError(f"target {target!r} is not a column of {path}")
    target_index = header.index(target) if target is not None else None
    return TableSchema(fields=tuple(fields), target_index=target_index)
