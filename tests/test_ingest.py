"""Column-wise ingest against the row-wise oracle in ``conftest``.

``load_csv``, ``fit_codecs``, ``encode_table``, ``decode_table`` and
``write_csv`` must give what the row-wise table layer gave: the same cells
(type and exact repr, so -0.0, nan and MISSING count), codec values and
center bytes, tokens, missing masks and CSV bytes, or the same error.
"""

import numpy as np
import pytest

from conftest import (decode_table_rowwise, encode_table_rowwise, fit_codecs_rowwise,
                      load_csv_rowwise, load_tablegen, write_csv_rowwise)
from tabmt import schema as tschema
from tabmt.codec import (CategoricalCodec, decode_table, encode_table, fit_categorical,
                         fit_codecs, fit_continuous)
from tabmt.schema import (CATEGORICAL, CONTINUOUS, MISSING, FieldSchema, RawTable,
                          SchemaError, TableSchema, TokenTable, load_csv, load_schema, write_csv)

tablegen = load_tablegen()

XC = TableSchema(fields=(FieldSchema(name="x", kind=CONTINUOUS, max_bins=4),
                         FieldSchema(name="c", kind=CATEGORICAL)))
XY = TableSchema(fields=(FieldSchema(name="x", kind=CONTINUOUS, max_bins=4),
                         FieldSchema(name="y", kind=CONTINUOUS, max_bins=4)))
# Schema order differs from file order ("x,y"), so a row's first fault is y's.
YX = TableSchema(fields=XY.fields[::-1])
CLEAN = [fit_continuous([1.0, 2.0, 3.0], 4), fit_categorical(["a", "b"])]


def cell_keys(rows) -> list:
    return [[(type(v).__name__, repr(v)) for v in row] for row in rows]


def outcome(fn):
    """``(result, None)``, or ``(None, (type, message))`` of what it raised."""
    try:
        return fn(), None
    except Exception as e:
        return None, (type(e), str(e))


def assert_same_codecs(new, old):
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert type(a) is type(b)
        if isinstance(a, CategoricalCodec):
            assert cell_keys([a.values]) == cell_keys([b.values])
        else:
            assert a.centers.tobytes() == b.centers.tobytes()
            assert a.ratios.tobytes() == b.ratios.tobytes()


def assert_same_ingest(tmp_path, path, schema, marker="", codecs=None):
    """Every stage through both layers; encodes with ``codecs`` if given, else
    with the fitted ones. Returns the new table, or None if loading failed."""
    table, err = outcome(lambda: load_csv(str(path), schema, marker))
    old, old_err = outcome(lambda: load_csv_rowwise(str(path), schema, marker))
    assert err == old_err
    if err:
        return None
    assert table.n_rows == old.n_rows and len(table.columns) == schema.n_fields
    assert cell_keys(table.rows()) == cell_keys(old.cells)

    fitted, err = outcome(lambda: fit_codecs(table))
    old_fitted, old_err = outcome(lambda: fit_codecs_rowwise(old))
    assert err == old_err
    if not err:
        assert_same_codecs(fitted, old_fitted)
    codecs = codecs or fitted
    if codecs is None:
        return table

    tokens, err = outcome(lambda: encode_table(table, codecs))
    old_tokens, old_err = outcome(lambda: encode_table_rowwise(old, codecs))
    assert err == old_err
    if err:
        return table
    assert tokens.tokens.tobytes() == old_tokens.tokens.tobytes()
    assert tokens.missing.tobytes() == old_tokens.missing.tobytes()

    # Decoded with the parsed source, and without it as generated tokens are.
    for src in (True, False):
        new_tok = TokenTable(schema, tokens.tokens, tokens.missing, table if src else None)
        old_tok = TokenTable(schema, tokens.tokens, tokens.missing, old if src else None)
        write_csv(decode_table(new_tok, codecs), str(tmp_path / "new.csv"), marker)
        write_csv_rowwise(decode_table_rowwise(old_tok, codecs), str(tmp_path / "old.csv"), marker)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    return table


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["narrow-3", "tall-8", "wide-16"])
def test_workload_tables(tmp_path, workload, seed):
    w = tablegen.WORKLOADS[workload]
    rng = np.random.default_rng(seed)
    train_rows = tablegen.draw_rows(w, rng, w.train_rows, cover=True)
    sparse_rows = tablegen.draw_rows(w, rng, w.impute_rows)
    tablegen.blank_cells(rng, sparse_rows, 0.25)
    tablegen.write_csv(str(tmp_path / "train.csv"), w.names, train_rows)
    tablegen.write_csv(str(tmp_path / "sparse.csv"), w.names, sparse_rows)
    tablegen.write_schema(str(tmp_path / "schema.json"), w)
    schema = load_schema(str(tmp_path / "schema.json"))
    train = assert_same_ingest(tmp_path, tmp_path / "train.csv", schema)
    assert_same_ingest(tmp_path, tmp_path / "sparse.csv", schema, codecs=fit_codecs(train))


BIG = "a" * 140_000  # past csv's default field size limit, so the reader raises

EDGE_CASES = {
    "blanks": ("x,c\n1.5,a\n,b\n2.5,\n,\n0.5,a\n", XC, "", None),
    "marker-NA": ("x,c\nNA,a\n1.0,NA\n,b\n2.0,c\nNA,NA\n", XC, "NA", None),
    "marker-999": ("x,c\n-999,a\n-999.0,b\n3,-999\n4,a\n", XC, "-999", None),
    "quoted": ('x,c\n1,"a,b"\n2,"line1\nline2"\n3,"q""uote"\n"4.5",a\n', XC, "", None),
    "longer-rows": ("x,c\n1,a,extra\n2,b,more,more\n3,a\n", XC, "", None),
    "header-only": ("x,c\n", XC, "", None),
    "all-blank-continuous": ("x,c\n,a\n,b\n,a\n", XC, "", CLEAN),
    "all-blank-categorical": ("x,c\n1,\n2,\n", XC, "", CLEAN),
    "number-forms": ("x,c\n 2.5 ,a\n1_000,b\n-0.0,a\n0.0,b\n1e3,a\n", XC, "", None),
    "nan-inf": ("x,c\nnan,a\ninf,b\n1,a\n", XC, "", CLEAN),
    "unseen-category": ("x,c\n1,a\n2,zz\n", XC, "", CLEAN),
    "empty-file": ("", XC, "", None),
    "column-missing": ("x\n1\n", XC, "", None),
    "blank-line": ("x,c\n1,a\n\n2,b\n", XC, "", None),
    "short-then-non-numeric": ("x,c\n1,a\n2\nzz,b\n", XC, "", None),
    "non-numeric-then-short": ("x,c\n1,a\nzz,b\n2\n", XC, "", None),
    "first-fault-in-schema-order": ("x,y\n1,2\np,q\n", YX, "", None),
    "first-fault-in-a-later-column": ("x,y\n1,q\np,2\n", XY, "", None),
    "non-numeric-then-reader-error": (f'x,c\nzz,a\n1,"{BIG}"\n', XC, "", None),
    "reader-error-then-non-numeric": (f'x,c\n1,"{BIG}"\nzz,a\n', XC, "", None),
}


@pytest.mark.parametrize("case", EDGE_CASES)
def test_edge_case(tmp_path, case):
    text, schema, marker, codecs = EDGE_CASES[case]
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert_same_ingest(tmp_path, path, schema, marker, codecs)


def test_non_finite_cells_load_then_fail_naming_the_field(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x,c\nnan,a\ninf,b\n1,a\n")
    table = load_csv(str(path), XC)
    assert cell_keys(table.rows()) == cell_keys([[float("nan"), "a"], [float("inf"), "b"],
                                                 [1.0, "a"]])
    with pytest.raises(ValueError, match="^field 'x': non-finite value nan$"):
        fit_codecs(table)
    with pytest.raises(ValueError, match="^field 'x': non-finite value nan$"):
        encode_table(table, CLEAN)


@pytest.mark.parametrize("rows", ["1,a,zz\n2,b,yy\n", "zz,a,1\nyy,b,2\n"],
                         ids=["bad-third", "bad-first"])
def test_duplicated_header_column_is_rejected(tmp_path, rows):
    # Either x column could be read without a word; neither is.
    path = tmp_path / "t.csv"
    path.write_text("x,c,x\n" + rows, encoding="utf-8")
    with pytest.raises(SchemaError, match="column 'x' appears more than once in the header"):
        load_csv(str(path), XC)


def test_duplicated_column_outside_the_schema_is_ignored(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x,c,z,z\n1,a,p,q\n", encoding="utf-8")
    assert cell_keys(load_csv(str(path), XC).rows()) == cell_keys([[1.0, "a"]])


def test_decode_error_after_a_non_numeric_cell(tmp_path):
    # The bad byte lies past the first block the file is decoded in, so the
    # non-numeric cell before it is the first fault.
    path = tmp_path / "t.csv"
    path.write_bytes(b"x,c\nzz,a\n" + b"1,a\n" * 5000 + b"\xff,b\n")
    assert assert_same_ingest(tmp_path, path, XC) is None
    with pytest.raises(SchemaError, match="non-numeric value 'zz'"):
        load_csv(str(path), XC)


def chunk_text(n: int, bad_row: int | None = None) -> str:
    rows = [f"{'' if i % 5 == 3 else i % 97 * 0.25},{'ab'[i % 2] if i % 7 else ''}"
            for i in range(n)]
    if bad_row is not None:
        rows[bad_row] = "zz,a"
    return "x,c\n" + "".join(r + "\n" for r in rows)


@pytest.mark.parametrize("n", [0, 1, 3, 4, 5, 8, 9])
def test_small_chunks(tmp_path, monkeypatch, n):
    monkeypatch.setattr(tschema, "_CHUNK", 4)
    path = tmp_path / "t.csv"
    path.write_text(chunk_text(n))
    assert_same_ingest(tmp_path, path, XC)


@pytest.mark.parametrize("text", [
    chunk_text(9, bad_row=5),
    chunk_text(9, bad_row=4),
    chunk_text(9, bad_row=3),
    "x,c\n1,a\n2,b\n3,a\n4,b\nzz,a\n5\n",
    "x,c\n1,a\n2,b\n3,a\n4,b\n5\nzz,a\n",
    f'x,c\n1,a\n2,b\n3,a\n4,b\nzz,a\n1,"{BIG}"\n',
    f'x,c\n1,a\n2,b\n3,a\n4,b\n1,"{BIG}"\nzz,a\n',
], ids=["second-chunk", "second-chunk-first-row", "first-chunk-last-row", "bad-then-short",
        "short-then-bad", "bad-then-reader-error", "reader-error-then-bad"])
def test_fault_in_second_small_chunk(tmp_path, monkeypatch, text):
    monkeypatch.setattr(tschema, "_CHUNK", 4)
    path = tmp_path / "t.csv"
    path.write_text(text)
    assert assert_same_ingest(tmp_path, path, XC) is None


@pytest.mark.parametrize("n, bad_row", [
    (tschema._CHUNK - 1, None), (tschema._CHUNK, None), (tschema._CHUNK + 1, None),
    (tschema._CHUNK + 1, tschema._CHUNK),
], ids=["chunk-1", "chunk", "chunk+1", "fault-in-second-chunk"])
def test_chunk_boundaries(tmp_path, n, bad_row):
    path = tmp_path / "t.csv"
    path.write_text(chunk_text(n, bad_row))
    table = assert_same_ingest(tmp_path, path, XC)
    assert (table is None) == (bad_row is not None)


class TestFromRows:
    ROWS = [[1.5, "a"], [MISSING, "b"], [-0.0, MISSING]]

    def test_rows_round_trip(self):
        table = RawTable.from_rows(XC, self.ROWS)
        assert table.n_rows == 3
        assert table.columns == [[1.5, MISSING, -0.0], ["a", "b", MISSING]]
        assert cell_keys(table.rows()) == cell_keys(self.ROWS)

    def test_no_rows(self):
        table = RawTable.from_rows(XC, [])
        assert table.n_rows == 0 and table.columns == [[], []] and table.rows() == []

    @pytest.mark.parametrize("rows", [[[1.5]], [[1.5, "a"], [2.5, "b", "c"]]])
    def test_wrong_row_length_rejected(self, rows):
        with pytest.raises(SchemaError, match="every row must hold 2 cells"):
            RawTable.from_rows(XC, rows)
