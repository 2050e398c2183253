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

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import compress

import numpy as np

from .schema import CATEGORICAL, CONTINUOUS, MISSING, RawTable, TokenTable


class CodecError(ValueError):
    pass


def _checked_tokens(tokens, cardinality: int) -> np.ndarray:
    tokens = np.asarray(tokens, dtype=np.int64)
    bad = (tokens < 0) | (tokens >= cardinality)
    if bad.any():
        raise CodecError(f"token {tokens[bad][0]} out of range 0..{cardinality - 1}")
    return tokens


def _finite(xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.float64)
    finite = np.isfinite(xs)
    if not finite.all():
        raise CodecError(f"non-finite value {float(xs[~finite][0])!r}")
    return xs


@contextmanager
def _field(name: str):
    """Prefix a CodecError raised inside the block with the field's name."""
    try:
        yield
    except CodecError as e:
        raise CodecError(f"field {name!r}: {e}") from None


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
        try:
            return np.fromiter(map(self.index.__getitem__, values), dtype=np.int64)
        except KeyError as e:
            raise CodecError(f"value {e.args[0]!r} not in categorical vocabulary") from None

    def decode(self, t: int):
        return self.decode_column([t])[0]

    def decode_column(self, tokens) -> list:
        return [self.values[t] for t in _checked_tokens(tokens, self.cardinality).tolist()]


@dataclass(frozen=True)
class ContinuousCodec:
    centers: np.ndarray

    def __post_init__(self):
        centers = np.asarray(self.centers, dtype=np.float64)
        if centers.ndim != 1 or len(centers) == 0:
            raise CodecError("a continuous codec needs a non-empty list of centers")
        if not (np.diff(centers) > 0).all():
            raise CodecError("cluster centers must be strictly increasing")
        object.__setattr__(self, "centers", centers)

    @property
    def cardinality(self) -> int:
        return len(self.centers)

    @cached_property
    def ratios(self) -> np.ndarray:
        """Each center's min-max ratio, for the ordered embedding; a single
        center (min == max) is pinned to 0."""
        c = self.centers
        return np.zeros(1) if len(c) == 1 else (c - c[0]) / (c[-1] - c[0])

    def encode(self, x: float) -> int:
        return int(self.encode_column([x])[0])

    def encode_column(self, xs) -> np.ndarray:
        """Index of the nearest center per value; a tie goes to the lower index."""
        xs, c = _finite(xs), self.centers
        # Rounded distances |x - c| never grow toward x from either side, so
        # the nearest center is c[hi] (the first >= x, or the last) or c[hi - 1].
        hi = np.minimum(np.searchsorted(c, xs), len(c) - 1)
        lo = np.maximum(hi - 1, 0)
        d_hi, d_lo = np.abs(xs - c[hi]), np.abs(xs - c[lo])
        out = np.where(d_hi < d_lo, hi, lo)
        # Rounding can tie centers further left with it; the lowest of those wins.
        tied = np.flatnonzero((out > 0) & (np.abs(xs - c[out - 1]) == np.minimum(d_hi, d_lo)))
        step = max(1, 262_144 // len(c))  # 2 MiB distance blocks
        for s in range(0, len(tied), step):
            rows = tied[s:s + step]
            out[rows] = np.argmin(np.abs(xs[rows, None] - c), axis=1)
        return out

    def decode(self, t: int) -> float:
        return self.decode_column([t])[0]

    def decode_column(self, tokens) -> list:
        return self.centers[_checked_tokens(tokens, self.cardinality)].tolist()


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


def _observed(col: list) -> tuple[np.ndarray, list]:
    """A column's observed-cell mask and its observed cells, in order."""
    if MISSING not in col:
        return np.ones(len(col), dtype=bool), col
    observed = [v is not MISSING for v in col]
    return np.array(observed, dtype=bool), list(compress(col, observed))


def _distinct(values, max_bins: int) -> tuple[np.ndarray, np.ndarray, int]:
    """A column's distinct observed values, their counts and its k."""
    xs = _finite(_observed(list(values))[1])
    if xs.size == 0:
        raise CodecError("cannot fit a codec on an empty column")
    if max_bins < 1:
        raise CodecError("max_bins must be >= 1")
    distinct, counts = np.unique(xs, return_counts=True)
    return distinct, counts.astype(np.float64), min(int(max_bins), len(distinct))


def fit_continuous(values, max_bins: int) -> ContinuousCodec:
    """Quantize a continuous column to at most ``max_bins`` centers: the
    means of the k-means clustering of its observed values with the least
    within-cluster sum of squares."""
    return ContinuousCodec(_kmeans_1d([_distinct(values, max_bins)])[0])


def fit_categorical(values) -> CategoricalCodec:
    """Tokens in first-occurrence order, bijective on observed values."""
    seen = dict.fromkeys(values)
    seen.pop(MISSING, None)
    if not seen:
        raise CodecError("cannot fit a codec on an empty column")
    return CategoricalCodec(values=tuple(seen))


FieldCodec = CategoricalCodec | ContinuousCodec


def fit_codecs(table: RawTable, seed: int = 0) -> list[FieldCodec]:
    """One codec per field, the continuous ones from one batched fit; ``seed`` is unused."""
    codecs, columns = [], []
    for j, fs in enumerate(table.schema.fields):
        with _field(fs.name):
            if fs.kind == CONTINUOUS:
                columns.append(_distinct(table.column(j), fs.max_bins))
                codecs.append(None)
                continue
            codecs.append(codec := fit_categorical(table.column(j)))
            if fs.declared_cardinality is not None and codec.cardinality > fs.declared_cardinality:
                raise CodecError(f"{codec.cardinality} distinct values observed, "
                                 f"{fs.declared_cardinality} declared")
    centers = iter(_kmeans_1d(columns) if columns else [])
    return [ContinuousCodec(next(centers)) if c is None else c for c in codecs]


def observed_cells(table: RawTable, j: int, codec: FieldCodec) -> tuple[np.ndarray, np.ndarray]:
    """Field j's observed-row mask and those cells checked against ``codec``: a
    categorical field's tokens, a continuous field's finite values (not quantized).
    An unseen category or a non-finite value raises a CodecError naming the field."""
    observed, cells = _observed(table.column(j))
    with _field(table.schema.fields[j].name):
        if isinstance(codec, CategoricalCodec):
            return observed, codec.encode_column(cells)
        return observed, _finite(cells)


def encode_table(table: RawTable, codecs: list[FieldCodec]) -> TokenTable:
    """Tokens per cell; a missing cell holds its field's sentinel (the
    cardinality). The result keeps ``table`` as its ``source``."""
    n, l = table.n_rows, len(codecs)
    tokens = np.empty((n, l), dtype=np.int64)
    missing = np.empty((n, l), dtype=bool)
    for j, codec in enumerate(codecs):
        seen, cells = observed_cells(table, j, codec)
        missing[:, j] = ~seen
        tokens[:, j] = codec.cardinality
        tokens[seen, j] = cells if isinstance(codec, CategoricalCodec) else codec.encode_column(cells)
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
    return RawTable(schema=table.schema, columns=cols)


def codec_to_json(codec: FieldCodec) -> dict:
    if isinstance(codec, CategoricalCodec):
        return {"kind": CATEGORICAL, "values": list(codec.values)}
    return {"kind": CONTINUOUS, "centers": codec.centers.tolist()}


def codec_from_json(obj: dict) -> FieldCodec:
    """The codec ``codec_to_json`` wrote: categorical ``values`` must be a
    list of distinct strings, continuous ``centers`` a list of numbers."""
    kind = obj["kind"]
    if kind == CATEGORICAL:
        values = obj["values"]
        if not (isinstance(values, list) and all(isinstance(v, str) for v in values)
                and len(set(values)) == len(values)):
            raise CodecError("'values' must be a list of distinct strings")
        return CategoricalCodec(values=tuple(values))
    if kind == CONTINUOUS:
        centers = obj["centers"]
        if not (isinstance(centers, list) and all(
                isinstance(c, (int, float)) and not isinstance(c, bool) for c in centers)):
            raise CodecError("'centers' must be a list of numbers")
        return ContinuousCodec(centers)
    raise CodecError(f"unknown codec kind {kind!r}")
