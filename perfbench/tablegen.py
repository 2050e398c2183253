"""Seeded generators for the benchmark's three table shapes.

Every workload is a table with a known structure and a categorical target.
The same seed always gives the same CSV bytes. Every categorical value of a
field is forced to appear in the training table, so held-out, sparse and
evaluation rows never carry a value the fitted vocabulary lacks.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Field:
    name: str
    kind: str  # "continuous" or "categorical"
    size: int  # max_bins for continuous, number of values for categorical


@dataclass(frozen=True)
class Workload:
    name: str
    fields: tuple[Field, ...]
    target: str
    train_rows: int      # rows ingested and trained on
    heldout_rows: int    # complete rows for heldout_nll and mle_proxy
    eval_real_rows: int  # real-train sample that evaluate compares against
    fit_steps: int       # steps of the reference model trained before the rounds
    fit_warmup: int
    round_steps: int     # steps of the fresh model trained in every round
    gen_rows: int        # rows generated, then scored by evaluate
    impute_rows: int     # rows of the sparse CSV, 25 % of cells blank
    planted_pair: tuple[str, str] | None = None

    @property
    def names(self) -> list[str]:
        return [f.name for f in self.fields]

    def schema_json(self) -> dict:
        fields = []
        for f in self.fields:
            d = {"name": f.name, "kind": f.kind}
            if f.kind == "continuous":
                d["max_bins"] = f.size
            fields.append(d)
        return {"fields": fields, "target": self.target}


def cat_value(field: str, k: int) -> str:
    return f"{field}_{k}"


def _noisy_copy(rng, src: np.ndarray, k: int, keep: float) -> np.ndarray:
    """``src mod k`` with probability ``keep``, else one of the other values."""
    out = src % k
    flip = rng.random(len(src)) >= keep
    shift = rng.integers(1, k, len(src)) if k > 1 else np.zeros(len(src), dtype=int)
    out[flip] = (out[flip] + shift[flip]) % k
    return out


def _zipf_codes(rng, n: int, k: int, offset: float) -> np.ndarray:
    p = 1.0 / (np.arange(k) + offset)
    return rng.choice(k, size=n, p=p / p.sum())


# ---------------------------------------------------------------- narrow-3

NARROW = Workload(
    name="narrow-3",
    fields=(Field("x", "continuous", 32), Field("a", "categorical", 4),
            Field("b", "categorical", 4)),
    target="b", train_rows=30000, heldout_rows=1000, eval_real_rows=300,
    fit_steps=60, fit_warmup=6, round_steps=4, gen_rows=500, impute_rows=500,
    planted_pair=("a", "b"),
)


def _narrow_columns(rng, n: int) -> dict:
    # b copies a with probability 0.7 (the criterion-06 noisy pair); x is
    # centred on 2a, rounded to two decimals: about 1,900 distinct values.
    a = rng.integers(0, 4, n)
    b = _noisy_copy(rng, a, 4, 0.7)
    x = np.round(rng.normal(2.0 * a, 1.0), 2)
    return {"x": x, "a": a, "b": b}


# ---------------------------------------------------------------- wide-16

_WIDE_SMALL = (2, 3, 4, 5, 6, 7, 8, 2)
WIDE = Workload(
    name="wide-16",
    fields=(
        Field("c0", "continuous", 100), Field("k0", "categorical", _WIDE_SMALL[0]),
        Field("c1", "continuous", 100), Field("k1", "categorical", _WIDE_SMALL[1]),
        Field("c2", "continuous", 100), Field("k2", "categorical", _WIDE_SMALL[2]),
        Field("c3", "continuous", 100), Field("k3", "categorical", _WIDE_SMALL[3]),
        Field("y", "categorical", 4),
        Field("c4", "continuous", 100), Field("k4", "categorical", _WIDE_SMALL[4]),
        Field("c5", "continuous", 100), Field("k5", "categorical", _WIDE_SMALL[5]),
        Field("k6", "categorical", _WIDE_SMALL[6]),
        Field("u", "categorical", 1000),
        Field("k7", "categorical", _WIDE_SMALL[7]),
    ),
    target="y", train_rows=4000, heldout_rows=200, eval_real_rows=200,
    fit_steps=8, fit_warmup=0, round_steps=1, gen_rows=16, impute_rows=16,
)


def _wide_columns(rng, n: int) -> dict:
    # A 4-way class y and a shared latent z drive the six continuous fields;
    # each small categorical field follows y with probability 0.6; u is a
    # 1,000-way Zipf-like code independent of the rest.
    y = rng.choice(4, size=n, p=[0.4, 0.3, 0.2, 0.1])
    z = rng.normal(size=n)
    cols = {"y": y}
    for i in range(6):
        centre = (i + 1) * (y - 1.5)
        if i % 2 == 0:
            vals = centre + 0.8 * z + rng.normal(0, 1.0, n)
        else:
            vals = np.exp(0.3 * centre + 0.5 * z + rng.normal(0, 0.3, n))
        cols[f"c{i}"] = np.round(vals, 3)
    for i, k in enumerate(_WIDE_SMALL):
        cols[f"k{i}"] = _noisy_copy(rng, y + i, k, 0.6)
    cols["u"] = _zipf_codes(rng, n, 1000, 20.0)
    return cols


# ---------------------------------------------------------------- tall-8

TALL = Workload(
    name="tall-8",
    fields=(Field("t0", "continuous", 100), Field("g2", "categorical", 2),
            Field("t1", "continuous", 100), Field("g10", "categorical", 10),
            Field("t2", "continuous", 100), Field("g50", "categorical", 50),
            Field("t3", "continuous", 100), Field("g200", "categorical", 200)),
    target="g10", train_rows=12000, heldout_rows=200, eval_real_rows=700,
    fit_steps=16, fit_warmup=0, round_steps=1, gen_rows=24, impute_rows=24,
)


def _tall_columns(rng, n: int) -> dict:
    # g10 is the class; g2 and g50 follow it noisily; g200 is Zipf-like.
    # Each continuous field has thousands of distinct values.
    g10 = rng.integers(0, 10, n)
    return {
        "g10": g10,
        "g2": _noisy_copy(rng, g10, 2, 0.8),
        "g50": (5 * g10 + rng.integers(0, 5, n)) % 50,
        "g200": _zipf_codes(rng, n, 200, 5.0),
        "t0": np.round(rng.lognormal(3.0 + 0.1 * g10, 0.6), 2),
        "t1": np.round(rng.normal(10.0 * g10, 4.0), 2),
        "t2": np.round(rng.uniform(0.0, 1000.0, n), 1),
        "t3": np.round(rng.gamma(2.0 + g10 % 3, 15.0), 2),
    }


WORKLOADS = {w.name: w for w in (NARROW, WIDE, TALL)}
_COLUMNS = {"narrow-3": _narrow_columns, "wide-16": _wide_columns,
            "tall-8": _tall_columns}


def draw_rows(w: Workload, rng, n: int, cover: bool = False) -> list[list]:
    """``n`` rows in schema order: floats for continuous, strings otherwise.

    A continuous column keeps the seeded draw's ranks but takes its values
    from one fixed draw of ``n``, so every seed quantizes the same multiset
    of values and ingest does the same work. With ``cover``, a random row
    per categorical value is overwritten so every value appears.
    """
    cols = _COLUMNS[w.name](rng, n)
    fixed = _COLUMNS[w.name](np.random.default_rng(0), n)
    for f in w.fields:
        if f.kind == "continuous":
            ranks = np.argsort(np.argsort(cols[f.name], kind="stable"), kind="stable")
            cols[f.name] = np.sort(fixed[f.name])[ranks]
        elif cover:
            rows = rng.permutation(n)[:f.size]
            cols[f.name] = cols[f.name].copy()
            cols[f.name][rows] = np.arange(f.size)
    out_cols = []
    for f in w.fields:
        c = cols[f.name]
        if f.kind == "continuous":
            out_cols.append([float(v) for v in c])
        else:
            out_cols.append([cat_value(f.name, int(v)) for v in c])
    return [list(r) for r in zip(*out_cols)]


def blank_cells(rng, rows: list[list], fraction: float) -> np.ndarray:
    """Blank exactly round(fraction * cells) cells; returns the blank mask."""
    n, l = len(rows), len(rows[0])
    k = int(round(fraction * n * l))
    flat = np.zeros(n * l, dtype=bool)
    flat[rng.choice(n * l, size=k, replace=False)] = True
    mask = flat.reshape(n, l)
    for i, j in zip(*np.nonzero(mask)):
        rows[i][j] = None
    return mask


def write_csv(path: str, names: list[str], rows: list[list]):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for r in rows:
            writer.writerow(["" if v is None else v for v in r])


def read_csv_text(path: str) -> list[list[str]]:
    """Cells of a CSV as the exact strings in the file, header dropped."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


def write_schema(path: str, w: Workload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(w.schema_json(), fh, indent=2)


def sentinel_rows(w: Workload) -> list[list]:
    """Two fixed rows that do not depend on the seed.

    Row 0 observes every continuous field at 0.123456789 (never a bin
    centre) and leaves categorical fields blank; row 1 is the reverse.
    """
    r0 = [0.123456789 if f.kind == "continuous" else None for f in w.fields]
    r1 = [None if f.kind == "continuous" else cat_value(f.name, 0) for f in w.fields]
    return [r0, r1]
