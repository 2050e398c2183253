"""Per-field value/token codecs.

Categorical fields get a first-occurrence vocabulary. Continuous fields
are quantized with exact weighted 1-D k-means over their distinct values
(the monotone-split dynamic programme of Ckmeans.1d.dp, Wang & Song 2011)
and carry the min-max ratio vector used by the ordered embeddings. Each
codec encodes and decodes a whole column at once; a continuous value
encodes to its nearest center, a tie going to the lower one.
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


def _kmeans_1d(x: np.ndarray, w: np.ndarray, k: int) -> np.ndarray:
    """Centers of an optimal k-means clustering of sorted distinct values.

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


def fit_continuous(values, max_bins: int) -> ContinuousCodec:
    """Quantize a continuous column to at most ``max_bins`` centers: the
    means of the k-means clustering of its observed values with the least
    within-cluster sum of squares."""
    xs = np.asarray([v for v in values if v is not MISSING], dtype=np.float64)
    if xs.size == 0:
        raise CodecError("cannot fit a codec on an empty column")
    if max_bins < 1:
        raise CodecError("max_bins must be >= 1")
    distinct, counts = np.unique(xs, return_counts=True)
    centers = _kmeans_1d(distinct, counts.astype(np.float64), min(int(max_bins), len(distinct)))
    return ContinuousCodec(centers=centers, ratios=_ratios(centers))


def fit_categorical(values) -> CategoricalCodec:
    """Tokens in first-occurrence order, bijective on observed values."""
    seen = tuple(dict.fromkeys(v for v in values if v is not MISSING))
    if not seen:
        raise CodecError("cannot fit a codec on an empty column")
    return CategoricalCodec(values=seen)


FieldCodec = CategoricalCodec | ContinuousCodec


def fit_codecs(table: RawTable, seed: int = 0) -> list[FieldCodec]:
    """One codec per field. ``seed`` is ignored: fitting draws no random numbers."""
    codecs: list[FieldCodec] = []
    for j, fs in enumerate(table.schema.fields):
        col = table.column(j)
        if fs.kind == CONTINUOUS:
            codecs.append(fit_continuous(col, fs.max_bins))
        else:
            codecs.append(fit_categorical(col))
    return codecs


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
    centers = np.asarray(obj["centers"], dtype=np.float64)
    return ContinuousCodec(centers=centers, ratios=_ratios(centers))
