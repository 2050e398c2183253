"""Per-field value/token codecs.

Categorical fields get a first-occurrence vocabulary. Continuous fields are
quantized with exact weighted 1-D k-means over their distinct values (the
monotone-split dynamic programme of Ckmeans.1d.dp, Wang & Song 2011), one
batched pass for all of a table's continuous fields, and carry the min-max
ratio vector used by the ordered embeddings. Each codec encodes and decodes
a whole column at once; a continuous value encodes to its nearest center, a
tie going to the lower one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .schema import CONTINUOUS, MISSING, RawTable, TokenTable


class CodecError(ValueError):
    pass


def _checked_tokens(tokens, cardinality: int) -> np.ndarray:
    tokens = np.asarray(tokens, dtype=np.int64)
    bad = (tokens < 0) | (tokens >= cardinality)
    if bad.any():
        raise CodecError(f"token {tokens[bad][0]} out of range 0..{cardinality - 1}")
    return tokens


@dataclass(frozen=True)
class CategoricalCodec:
    values: tuple

    @property
    def cardinality(self) -> int:
        return len(self.values)

    @cached_property
    def index(self) -> dict:
        """Value -> token, built once per codec."""
        return {v: i for i, v in enumerate(self.values)}

    def encode(self, v) -> int:
        return int(self.encode_column([v])[0])

    def encode_column(self, values) -> np.ndarray:
        index = self.index
        try:
            return np.array([index[v] for v in values], dtype=np.int64)
        except KeyError as e:
            raise CodecError(f"value {e.args[0]!r} not in categorical vocabulary") from None

    def decode(self, t: int):
        return self.decode_column([t])[0]

    def decode_column(self, tokens) -> list:
        return [self.values[t] for t in _checked_tokens(tokens, self.cardinality).tolist()]


@dataclass(frozen=True)
class ContinuousCodec:
    centers: np.ndarray
    ratios: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "centers", np.asarray(self.centers, dtype=np.float64))
        object.__setattr__(self, "ratios", np.asarray(self.ratios, dtype=np.float64))
        if np.any(np.diff(self.centers) <= 0):
            raise CodecError("cluster centers must be strictly increasing")

    @property
    def cardinality(self) -> int:
        return len(self.centers)

    def encode(self, x: float) -> int:
        return int(self.encode_column([x])[0])

    def encode_column(self, xs) -> np.ndarray:
        """Index of the nearest center per value; a tie goes to the lower index."""
        xs = np.asarray(xs, dtype=np.float64)
        finite = np.isfinite(xs)
        if not finite.all():
            raise CodecError(f"cannot encode non-finite value {float(xs[~finite][0])!r}")
        out = np.empty(len(xs), dtype=np.int64)
        step = max(1, 262_144 // len(self.centers))  # 2 MiB distance blocks
        for s in range(0, len(xs), step):
            out[s:s + step] = np.argmin(np.abs(xs[s:s + step, None] - self.centers), axis=1)
        return out

    def decode(self, t: int) -> float:
        return self.decode_column([t])[0]

    def decode_column(self, tokens) -> list:
        return self.centers[_checked_tokens(tokens, self.cardinality)].tolist()


def _ratios(centers: np.ndarray) -> np.ndarray:
    if len(centers) == 1:
        # Degenerate field: min == max, pin the ratio to 0.
        return np.zeros(1)
    return (centers - centers[0]) / (centers[-1] - centers[0])


def _kmeans_1d(columns) -> list[np.ndarray]:
    """Centers of an optimal k-means clustering of each column's values.

    Each of ``columns`` is a triple ``(x, w, k)``: n >= k distinct values in
    increasing order, their weights and the cluster count. Clusters are
    contiguous runs of ``x``, so the least within-cluster sum of squares
    D[c, j] of the first j values in c clusters is min over i of
    D[c-1, i] + cost(i, j), solved one cluster count c at a time. The
    leftmost optimal split i is monotone in j and never below the split of
    layer c-1, so each layer is a divide-and-conquer over j: per depth, one
    set of numpy calls on all columns with k >= c, over O(n) candidates.
    """
    ns, ks = np.array([(len(x), k) for x, _, k in columns]).T
    spans = ns - ks
    base = np.cumsum(ns + 1) - (ns + 1)  # where each column's prefix sums start
    sums = []
    for x, w, _ in columns:
        # Centred values keep the prefix sums of squares from cancelling.
        xc = x - np.dot(w, x) / w.sum()
        sums.append([np.concatenate([[0.0], np.cumsum(v)]) for v in (w, w * xc, w * xc * xc)])
    pw, ps, ps2 = (np.concatenate(s) for s in zip(*sums))
    # cost(i, j) = ps2[j] - ps2[i] - (ps[j] - ps[i])**2 / (pw[j] - pw[i]) is
    # the weighted sum of squares of x[i:j] about its mean.

    # Layer c solves j = c - 1 + o for offsets o in 1..span+1, since each
    # later cluster needs a value. split[c, slot[t] + o] is the split (an
    # index into the concatenation) column t found for offset o; slots 0 and
    # span+2 bound the search by c - 1 and n, and slot span+3 is the unbounded
    # split layer c+1 reads past layer c's last offset. Depth by depth, the
    # odd multiples o of h are solved between o - h and o + h.
    slot = np.cumsum(spans + 4) - (spans + 4)
    row = np.repeat(base, spans + 4)
    row[slot + spans + 2] += ns
    split = np.tile(row.astype(np.int32), (ks.max() + 1, 1))  # int32 halves it
    best = np.full(len(ps), np.inf)
    best[base] = 0.0
    for c in range(1, ks.max() + 1):
        if c == 1 or c - 1 in ks:
            on = np.flatnonzero(ks >= c)  # the columns that reach layer c
            levels, h = [], 1 << int(spans[on].max() + 1).bit_length()
            while h := h // 2:
                t, i = np.nonzero(np.arange(h, spans.max() + 2, 2 * h) <= spans[on, None] + 1)
                t, o = on[t], h + 2 * h * i
                at = slot[t] + o
                levels.append((at, at - h, slot[t] + np.minimum(o + h, spans[t] + 2),
                               at + 1 + (o > spans[t]), base[t] + o - 1))
        cur, prev = split[c], split[c - 1]
        cur[slot[on]] = base[on] + c - 1
        # Minimising best[i] + cost(i, j) over i; ps2[j] is added back after.
        g = best - ps2
        for at, left, right, up, j0 in levels:
            j = j0 + c
            hi = np.minimum(cur[right], j - 1)
            lo = np.minimum(np.maximum(cur[left], prev[up]), hi)
            count = hi - lo + 1
            first = np.cumsum(count) - count
            seg = np.repeat(np.arange(len(at)), count)  # each candidate's range
            cand = np.arange(len(seg)) + (lo - first)[seg]
            s = ps[j][seg] - ps[cand]
            total = g[cand] - s * s / (pw[j][seg] - pw[cand])
            if len(seg) > 12 * len(at):  # reduceat costs per range, minimum.at per candidate
                least = np.minimum.reduceat(total, first)
            else:
                least = np.full(len(at), np.inf)
                np.minimum.at(least, seg, total)
            # The leftmost candidate at each range's minimum (one per range unless tied).
            at_min = np.flatnonzero(total == least[seg])
            if len(at_min) > len(at):
                at_min = at_min[np.searchsorted(at_min, first)]
            cur[at] = cand[at_min]
            best[j] = least + ps2[j]
    centers = []
    for t, (x, w, k) in enumerate(columns):
        bounds = [ns[t]]
        for c in range(k, 0, -1):
            bounds.insert(0, split[c, slot[t] + bounds[0] - c + 1] - base[t])
        starts, ends = np.array(bounds[:-1]), np.array(bounds[1:])
        means = np.add.reduceat(w * x, starts) / np.add.reduceat(w, starts)
        # Rounding may move a mean off its run; clipping keeps the centers
        # strictly increasing and inside the column's range.
        centers.append(np.clip(means, x[starts], x[ends - 1]))
    return centers


def _distinct(values, max_bins: int) -> tuple[np.ndarray, np.ndarray, int]:
    """A column's distinct observed values, their counts and its k."""
    xs = np.asarray([v for v in values if v is not MISSING], dtype=np.float64)
    if xs.size == 0:
        raise CodecError("cannot fit a codec on an empty column")
    if not np.isfinite(xs).all():
        raise CodecError(f"cannot fit a codec on non-finite value {xs[~np.isfinite(xs)][0]}")
    if max_bins < 1:
        raise CodecError("max_bins must be >= 1")
    distinct, counts = np.unique(xs, return_counts=True)
    return distinct, counts.astype(np.float64), min(int(max_bins), len(distinct))


def _continuous(centers: np.ndarray) -> ContinuousCodec:
    return ContinuousCodec(centers=centers, ratios=_ratios(centers))


def fit_continuous(values, max_bins: int) -> ContinuousCodec:
    """Quantize a continuous column to at most ``max_bins`` centers: the
    means of the k-means clustering of its observed values with the least
    within-cluster sum of squares."""
    return _continuous(_kmeans_1d([_distinct(values, max_bins)])[0])


def fit_categorical(values) -> CategoricalCodec:
    """Tokens in first-occurrence order, bijective on observed values."""
    seen = tuple(dict.fromkeys(v for v in values if v is not MISSING))
    if not seen:
        raise CodecError("cannot fit a codec on an empty column")
    return CategoricalCodec(values=seen)


FieldCodec = CategoricalCodec | ContinuousCodec


def fit_codecs(table: RawTable, seed: int = 0) -> list[FieldCodec]:
    """One codec per field, the continuous ones from one batched fit; ``seed`` is unused."""
    codecs, columns = [], []
    for j, fs in enumerate(table.schema.fields):
        try:
            if fs.kind == CONTINUOUS:
                columns.append(_distinct(table.column(j), fs.max_bins))
                codecs.append(None)
                continue
            codecs.append(codec := fit_categorical(table.column(j)))
            if fs.declared_cardinality is not None and codec.cardinality > fs.declared_cardinality:
                raise CodecError(f"{codec.cardinality} distinct values observed, "
                                 f"{fs.declared_cardinality} declared")
        except CodecError as e:
            raise CodecError(f"field {fs.name!r}: {e}") from None
    centers = iter(_kmeans_1d(columns) if columns else [])
    return [_continuous(next(centers)) if c is None else c for c in codecs]


def encode_table(table: RawTable, codecs: list[FieldCodec]) -> TokenTable:
    """Tokens per cell; a missing cell holds its field's sentinel (the
    cardinality). The result keeps ``table`` as its ``source``."""
    n, l = table.n_rows, len(codecs)
    tokens = np.empty((n, l), dtype=np.int64)
    missing = np.empty((n, l), dtype=bool)
    for j, codec in enumerate(codecs):
        col = table.column(j)
        missing[:, j] = [v is MISSING for v in col]
        tokens[:, j] = codec.cardinality
        tokens[~missing[:, j], j] = codec.encode_column([v for v in col if v is not MISSING])
    return TokenTable(schema=table.schema, tokens=tokens, missing=missing, source=table)


def decode_table(table: TokenTable, codecs: list[FieldCodec]) -> RawTable:
    """Cell values per token; a missing cell stays MISSING, and a cell
    observed in ``table.source`` is written as parsed, not as its bin center."""
    src = table.source
    cols = []
    for j, codec in enumerate(codecs):
        miss = table.missing[:, j]
        decoded = codec.decode_column(np.where(miss, 0, table.tokens[:, j]))
        parsed = src.column(j) if src is not None else [MISSING] * table.n_rows
        cols.append([p if p is not MISSING else MISSING if m else d
                     for p, m, d in zip(parsed, miss.tolist(), decoded)])
    return RawTable(schema=table.schema, cells=[list(row) for row in zip(*cols)])


def codec_to_json(codec: FieldCodec) -> dict:
    if isinstance(codec, CategoricalCodec):
        return {"kind": "categorical", "values": list(codec.values)}
    return {"kind": "continuous", "centers": codec.centers.tolist()}


def codec_from_json(obj: dict) -> FieldCodec:
    if obj["kind"] == "categorical":
        return CategoricalCodec(values=tuple(obj["values"]))
    return _continuous(np.asarray(obj["centers"], dtype=np.float64))
