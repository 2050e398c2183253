"""Table schemas, CSV ingestion, splits, and missing-value handling."""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import asdict, dataclass, field
from dataclasses import fields as dataclass_fields

import numpy as np


class _Missing:
    """Singleton marker for an absent cell value."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "MISSING"


MISSING = _Missing()

CATEGORICAL = "categorical"
CONTINUOUS = "continuous"


class SchemaError(ValueError):
    pass


@dataclass(frozen=True)
class FieldSchema:
    name: str
    kind: str
    declared_cardinality: int | None = None
    max_bins: int | None = None

    def __post_init__(self):
        if self.kind not in (CATEGORICAL, CONTINUOUS):
            raise SchemaError(f"unknown field kind {self.kind!r}")
        if self.kind == CATEGORICAL and self.max_bins is not None:
            raise SchemaError(f"{self.name}: categorical fields take no max_bins")
        if self.kind == CONTINUOUS and self.declared_cardinality is not None:
            raise SchemaError(f"{self.name}: continuous fields take no declared_cardinality")
        if self.kind == CONTINUOUS:
            if self.max_bins is None or self.max_bins < 1:
                raise SchemaError(f"{self.name}: continuous fields need max_bins >= 1")
        if self.declared_cardinality is not None and self.declared_cardinality < 1:
            raise SchemaError(f"{self.name}: declared_cardinality must be positive")


_FIELD_KEYS = tuple(f.name for f in dataclass_fields(FieldSchema))
# The top-level keys of schema JSON, as ``TableSchema.to_json`` writes them.
_TABLE_KEYS = ("fields", "target")


@dataclass(frozen=True)
class TableSchema:
    fields: tuple[FieldSchema, ...]
    target_index: int | None = None

    def __post_init__(self):
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate field names in schema")
        if self.target_index is not None and not 0 <= self.target_index < len(self.fields):
            raise SchemaError("target_index out of range")

    @property
    def n_fields(self) -> int:
        return len(self.fields)

    @property
    def names(self) -> list[str]:
        return [f.name for f in self.fields]

    def to_json(self) -> dict:
        out = {"fields": [{k: v for k, v in asdict(f).items() if v is not None}
                          for f in self.fields]}
        if self.target_index is not None:
            out["target"] = self.fields[self.target_index].name
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "TableSchema":
        if not isinstance(obj, dict) or "fields" not in obj:
            raise SchemaError("schema JSON has no 'fields' list")
        for key in obj:
            if key not in _TABLE_KEYS:
                raise SchemaError(f"unknown top-level key {key!r}")
        if not isinstance(obj["fields"], list) or not all(isinstance(d, dict)
                                                          for d in obj["fields"]):
            raise SchemaError(f"'fields' must be a list of objects, got {obj['fields']!r}")
        for i, d in enumerate(obj["fields"]):
            for key in d:
                if key not in _FIELD_KEYS:
                    raise SchemaError(f"field {i}: unknown key {key!r}")
            for key in ("name", "kind"):
                if key not in d:
                    raise SchemaError(f"field {i}: missing key {key!r}")
            if not isinstance(d["name"], str):
                raise SchemaError(f"field {i}: name must be a string, got {d['name']!r}")
            for key in ("declared_cardinality", "max_bins"):
                # bool is an int subclass, and JSON true is not a count.
                if d.get(key) is not None and type(d[key]) is not int:
                    raise SchemaError(f"field {i}: {key} must be an integer, got {d[key]!r}")
        fields = tuple(FieldSchema(**d) for d in obj["fields"])
        target, target_index = obj.get("target"), None
        if target is not None:
            if not isinstance(target, str):
                raise SchemaError(f"target must be a string, got {target!r}")
            names = [f.name for f in fields]
            if target not in names:
                raise SchemaError(f"target {target!r} not among fields")
            target_index = names.index(target)
        return cls(fields=fields, target_index=target_index)


def load_schema(path: str) -> TableSchema:
    with open(path, "r", encoding="utf-8") as fh:
        return TableSchema.from_json(json.load(fh))


def save_schema(schema: TableSchema, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schema.to_json(), fh, indent=2)


@dataclass
class RawTable:
    """Parsed cell values in schema order, one list per field; a cell is a
    str (categorical), a float (continuous) or MISSING."""

    schema: TableSchema
    columns: list[list]

    @classmethod
    def from_rows(cls, schema: TableSchema, rows) -> "RawTable":
        """A table from rows of cells in schema order."""
        rows = list(rows)
        l = schema.n_fields
        if any(len(row) != l for row in rows):
            raise SchemaError(f"every row must hold {l} cells")
        return cls(schema=schema, columns=[list(c) for c in zip(*rows)] if rows and l
                   else [[] for _ in range(l)])

    @property
    def n_rows(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def column(self, j: int) -> list:
        return self.columns[j]

    def rows(self) -> list[list]:
        """The cells row by row, as new lists."""
        return [list(row) for row in zip(*self.columns)]


def _parse_column(raw: list[str], kind: str, missing_marker: str) -> list:
    """One column's cells as a field of ``kind`` holds them; a blank or
    ``missing_marker`` cell is MISSING. A continuous cell that ``float``
    rejects raises its ValueError."""
    blank = "" in raw or (missing_marker != "" and missing_marker in raw)
    if kind == CONTINUOUS:
        if not blank:
            return list(map(float, raw))
        return [MISSING if v == missing_marker or v == "" else float(v) for v in raw]
    return [MISSING if v == missing_marker or v == "" else v for v in raw] if blank else raw


def parse_cell(raw: str, fs: FieldSchema, missing_marker: str):
    try:
        return _parse_column([raw], fs.kind, missing_marker)[0]
    except ValueError:
        raise SchemaError(f"non-numeric value {raw!r} in continuous column {fs.name!r}") from None


# Rows read and parsed at a time, so a file's raw strings are never all held.
_CHUNK = 1 << 16


def _parse_chunk(path: str, chunk: list[list[str]], width: int, order: list[int],
                 fields: tuple[FieldSchema, ...], missing_marker: str) -> list[list]:
    """The chunk's columns in schema order. A short row or a bad cell fails
    with a SchemaError naming the chunk's first fault in file order."""
    if not chunk or min(map(len, chunk)) >= width:
        try:
            return [_parse_column([row[src] for row in chunk], fs.kind, missing_marker)
                    for src, fs in zip(order, fields)]
        except ValueError:
            pass
    # Rescan row by row, as the first fault may lie in a later column.
    for row in chunk:
        if len(row) < width:
            raise SchemaError(f"{path}: short row {row!r}")
        for src, fs in zip(order, fields):
            parse_cell(row[src], fs, missing_marker)
    raise AssertionError("a chunk failed to parse, but no row of it did")


def _read_header(reader, path: str) -> list[str]:
    try:
        return next(reader)
    except StopIteration:
        raise SchemaError(f"{path}: empty file") from None


def load_csv(path: str, schema: TableSchema, missing_marker: str = "") -> RawTable:
    """Read a headered CSV into schema column order.

    Cells equal to ``missing_marker`` (or empty) become MISSING. Rows are
    read and parsed ``_CHUNK`` at a time, one column at a time; a short row
    or a non-numeric continuous cell raises a SchemaError naming the first
    in file order. A schema field named twice in the header raises too.
    """
    columns = [[] for _ in schema.fields]
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = _read_header(reader, path)
        col_of = {name: i for i, name in enumerate(header)}
        for f in schema.fields:
            if f.name not in col_of:
                raise SchemaError(f"{path}: column {f.name!r} missing from header")
            if header.count(f.name) > 1:
                raise SchemaError(f"{path}: column {f.name!r} appears more than once in the header")
        order = [col_of[f.name] for f in schema.fields]
        while True:
            chunk, fault = [], None
            try:
                # On an error, extend keeps the rows read before it.
                chunk.extend(itertools.islice(reader, _CHUNK))
            except (csv.Error, UnicodeDecodeError) as e:
                fault = e  # raised once the rows before it are checked
            for col, part in zip(columns, _parse_chunk(path, chunk, len(header), order,
                                                       schema.fields, missing_marker)):
                col.extend(part)
            if fault is not None:
                raise fault
            if len(chunk) < _CHUNK:
                break
    return RawTable(schema=schema, columns=columns)


def write_rows(path: str, header: list, rows):
    """A CSV file of the ``header`` line, then one line per item of ``rows``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_csv(table: RawTable, path: str, missing_marker: str = ""):
    columns = [[missing_marker if c is MISSING else c for c in col] for col in table.columns]
    write_rows(path, table.schema.names, zip(*columns))


def infer_schema(path: str, max_bins: int = 100, missing_marker: str = "",
                 target: str | None = None) -> TableSchema:
    """Guess field kinds from a CSV: a column whose observed cells all parse
    as a continuous field's do (``load_csv``'s rule) becomes continuous,
    every other column categorical. The file is read as ``load_csv`` reads
    it, so an empty file or a short row raises its SchemaError."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = _read_header(csv.reader(fh), path)
    if target is not None and target not in header:
        raise SchemaError(f"target {target!r} is not a column of {path}")
    as_text = TableSchema(fields=tuple(FieldSchema(name=name, kind=CATEGORICAL)
                                       for name in header))
    fields = []
    for fs, col in zip(as_text.fields, load_csv(path, as_text, missing_marker).columns):
        observed = [v for v in col if v is not MISSING]
        try:
            numeric = bool(_parse_column(observed, CONTINUOUS, missing_marker))
        except ValueError:
            numeric = False
        fields.append(FieldSchema(name=fs.name, kind=CONTINUOUS, max_bins=max_bins)
                      if numeric else fs)
    target_index = header.index(target) if target is not None else None
    return TableSchema(fields=tuple(fields), target_index=target_index)


def split(table: RawTable, fractions: tuple[float, float, float], seed: int
          ) -> tuple[RawTable, RawTable, RawTable]:
    """Deterministic exact partition into train/val/test."""
    if any(f < 0 for f in fractions):
        raise ValueError("fractions must be non-negative")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must sum to 1")
    n = table.n_rows
    n_nonzero = sum(1 for f in fractions if f > 0)
    if n < n_nonzero:
        raise ValueError(f"cannot split {n} rows into {n_nonzero} non-empty parts")
    # Largest-remainder apportionment keeps the partition exact.
    raw = [f * n for f in fractions]
    counts = [int(x) for x in raw]
    rem = n - sum(counts)
    order = sorted(range(3), key=lambda i: raw[i] - counts[i], reverse=True)
    for i in order[:rem]:
        counts[i] += 1
    for i, f in enumerate(fractions):
        if f > 0 and counts[i] == 0:
            counts[i] += 1
            counts[int(np.argmax(counts))] -= 1
    rng = np.random.default_rng(seed)
    idx = rng.permutation(n)
    parts = []
    start = 0
    for c in counts:
        part_idx = sorted(idx[start:start + c].tolist())
        parts.append(RawTable(schema=table.schema,
                              columns=[[col[i] for i in part_idx] for col in table.columns]))
        start += c
    return tuple(parts)


def drop_values(table: RawTable, fraction: float, seed: int) -> RawTable:
    """Independently blank each cell with the given probability."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    n, l = table.n_rows, table.schema.n_fields
    drop = rng.random((n, l)) < fraction
    columns = [[MISSING if d else v for v, d in zip(col, drop[:, j].tolist())]
               for j, col in enumerate(table.columns)]
    return RawTable(schema=table.schema, columns=columns)


@dataclass
class TokenTable:
    """Integer-encoded table with an explicit missing mask.

    Missing cells hold the per-field sentinel (the field's cardinality),
    which is never a valid class index.
    """

    schema: TableSchema
    tokens: np.ndarray
    missing: np.ndarray = field(default=None)
    # The parsed table the tokens were encoded from; decode_table keeps its observed cells.
    source: RawTable | None = field(default=None, repr=False)

    def __post_init__(self):
        self.tokens = np.asarray(self.tokens, dtype=np.int64)
        if self.missing is None:
            self.missing = np.zeros(self.tokens.shape, dtype=bool)
        self.missing = np.asarray(self.missing, dtype=bool)
        if self.tokens.shape != self.missing.shape:
            raise SchemaError("tokens/missing shape mismatch")
        if self.source is not None and self.source.n_rows != self.tokens.shape[0]:
            raise SchemaError("tokens/source row count mismatch")

    @property
    def n_rows(self) -> int:
        return self.tokens.shape[0]
