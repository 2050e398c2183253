import numpy as np
import pytest

from tabmt.schema import (
    CATEGORICAL,
    CONTINUOUS,
    MISSING,
    FieldSchema,
    RawTable,
    SchemaError,
    TableSchema,
    drop_values,
    infer_schema,
    load_csv,
    load_schema,
    save_schema,
    split,
    write_csv,
)


def make_schema():
    return TableSchema(fields=(
        FieldSchema(name="x", kind=CONTINUOUS, max_bins=10),
        FieldSchema(name="label", kind=CATEGORICAL),
    ), target_index=1)


class TestFieldSchema:
    def test_kind_validation(self):
        with pytest.raises(SchemaError):
            FieldSchema(name="a", kind="weird")

    def test_categorical_rejects_max_bins(self):
        with pytest.raises(SchemaError):
            FieldSchema(name="a", kind=CATEGORICAL, max_bins=5)

    def test_continuous_rejects_cardinality(self):
        with pytest.raises(SchemaError):
            FieldSchema(name="a", kind=CONTINUOUS, max_bins=5, declared_cardinality=3)

    def test_continuous_needs_max_bins(self):
        with pytest.raises(SchemaError):
            FieldSchema(name="a", kind=CONTINUOUS)

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema(fields=(
                FieldSchema(name="a", kind=CATEGORICAL),
                FieldSchema(name="a", kind=CATEGORICAL),
            ))

    def test_schema_json_roundtrip(self, tmp_path):
        schema = make_schema()
        path = tmp_path / "schema.json"
        save_schema(schema, str(path))
        assert load_schema(str(path)) == schema


class TestLoadCsv:
    def test_missing_cell(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("x,label\n1.0,a\n,b\n3.0,c\n")
        table = load_csv(str(p), make_schema())
        flat = [c for row in table.rows() for c in row]
        assert sum(1 for c in flat if c is MISSING) == 1
        assert table.rows()[1][0] is MISSING

    def test_shuffled_columns_reordered(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("label,x\na,1.0\nb,2.0\n")
        table = load_csv(str(p), make_schema())
        assert table.rows()[0] == [1.0, "a"]

    def test_non_numeric_in_continuous_errors(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("x,label\nabc,a\n")
        with pytest.raises(SchemaError, match="non-numeric"):
            load_csv(str(p), make_schema())

    def test_missing_column_errors(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("x\n1.0\n")
        with pytest.raises(SchemaError, match="label"):
            load_csv(str(p), make_schema())

    def test_custom_missing_marker(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("x,label\nNA,a\n")
        table = load_csv(str(p), make_schema(), missing_marker="NA")
        assert table.rows()[0][0] is MISSING

    def test_write_roundtrip(self, tmp_path):
        schema = make_schema()
        table = RawTable.from_rows(schema, [[1.5, "a"], [MISSING, "b"]])
        out = tmp_path / "out.csv"
        write_csv(table, str(out))
        back = load_csv(str(out), schema)
        assert back.rows()[0] == [1.5, "a"]
        assert back.rows()[1][0] is MISSING


class TestInferSchema:
    def test_numeric_becomes_continuous(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("x,label\n1.0,a\n2.5,b\n")
        schema = infer_schema(str(p), max_bins=5, target="label")
        assert schema.fields[0].kind == CONTINUOUS
        assert schema.fields[1].kind == CATEGORICAL
        assert schema.target_index == 1

    def test_unknown_target_named(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("x,label\n1.0,a\n2.5,b\n")
        with pytest.raises(SchemaError, match="'zz'"):
            infer_schema(str(p), target="zz")


class TestSplit:
    def make_table(self, n):
        schema = make_schema()
        return RawTable.from_rows(schema, [[float(i), f"v{i}"] for i in range(n)])

    def test_exact_sizes(self):
        parts = split(self.make_table(100), (0.8, 0.1, 0.1), seed=7)
        assert [p.n_rows for p in parts] == [80, 10, 10]

    def test_deterministic(self):
        t = self.make_table(50)
        a = split(t, (0.6, 0.2, 0.2), seed=3)
        b = split(t, (0.6, 0.2, 0.2), seed=3)
        assert [p.rows() for p in a] == [p.rows() for p in b]

    def test_partition_property(self):
        t = self.make_table(37)
        parts = split(t, (0.5, 0.25, 0.25), seed=11)
        seen = [row[1] for p in parts for row in p.rows()]
        assert sorted(seen) == sorted(row[1] for row in t.rows())
        assert sum(p.n_rows for p in parts) == 37

    def test_infeasible_partition_errors(self):
        with pytest.raises(ValueError):
            split(self.make_table(2), (0.4, 0.3, 0.3), seed=0)

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            split(self.make_table(10), (0.5, 0.2, 0.2), seed=0)


class TestDropValues:
    def make_table(self, n=1000, l=10):
        fields = tuple(FieldSchema(name=f"c{j}", kind=CATEGORICAL) for j in range(l))
        schema = TableSchema(fields=fields)
        return RawTable.from_rows(schema, [["v"] * l for _ in range(n)])

    def test_zero_fraction_noop(self):
        t = self.make_table(20, 3)
        out = drop_values(t, 0.0, seed=1)
        assert out.rows() == t.rows()

    def test_full_fraction_all_missing(self):
        out = drop_values(self.make_table(10, 3), 1.0, seed=1)
        assert all(c is MISSING for row in out.rows() for c in row)

    def test_quarter_fraction_concentration(self):
        # Binomial(10000, 0.25): mean 2500, sigma = sqrt(10000*0.25*0.75) ~ 43.3
        out = drop_values(self.make_table(1000, 10), 0.25, seed=5)
        n_missing = sum(1 for row in out.rows() for c in row if c is MISSING)
        assert abs(n_missing - 2500) <= 130

    def test_two_seeds_similar_fraction(self):
        a = drop_values(self.make_table(1000, 10), 0.25, seed=1)
        b = drop_values(self.make_table(1000, 10), 0.25, seed=2)
        ca = sum(1 for row in a.rows() for c in row if c is MISSING)
        cb = sum(1 for row in b.rows() for c in row if c is MISSING)
        assert abs(ca - cb) <= 2 * 130

    def test_already_missing_stays_missing(self):
        t = self.make_table(5, 2)
        t.columns[0][0] = MISSING
        out = drop_values(t, 0.0, seed=1)
        assert out.rows()[0][0] is MISSING

    def test_bad_fraction_errors(self):
        with pytest.raises(ValueError):
            drop_values(self.make_table(5, 2), 1.5, seed=0)
