"""The batched quantizer against the one-column-per-call oracle, and the
input checks of ``fit_codecs``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import kmeans_1d_per_column
from tabmt.codec import CodecError, _kmeans_1d, fit_codecs, fit_continuous
from tabmt.schema import CATEGORICAL, CONTINUOUS, MISSING, FieldSchema, RawTable, TableSchema


def column(xs, max_bins):
    """``(x, w, k)``: the distinct values of ``xs``, their counts and the
    cluster count, as ``fit_continuous`` passes them."""
    x, counts = np.unique(np.asarray(xs, dtype=np.float64), return_counts=True)
    return x, counts.astype(np.float64), min(max_bins, len(x))


def assert_matches_oracle(columns):
    got = _kmeans_1d(columns)
    assert len(got) == len(columns)
    for (x, w, k), centers in zip(columns, got):
        assert centers.tobytes() == kmeans_1d_per_column(x, w, k).tobytes()


def mixed_columns():
    rng = np.random.default_rng(11)
    base = rng.normal(0, 1, 300)
    return [
        column(rng.normal(0, 1, 50), 1),                     # k = 1
        column(np.arange(7.0), 7),                           # n = k
        column([3.0], 4),                                    # one value
        column(rng.normal(0, 1, 300), 5),
        column(rng.exponential(2.0, 500), 40),
        column(1e6 + rng.uniform(0, 1, 200), 12),            # far from zero
        column(rng.choice(base, size=900), 20),              # repeated values
        column(np.round(rng.lognormal(0, 1, 12_000), 2), 100),
        column(np.round(rng.normal(50, 10, 12_000), 2), 100),
        column(np.round(rng.uniform(-1, 1, 12_000), 2), 100),
        column(np.round(rng.gamma(2.0, 3.0, 12_000), 2), 100),
        column(rng.normal(0, 1, 120), 2),
    ]


class TestBatchedMatchesPerColumn:
    def test_mixed_columns_in_one_call(self):
        columns = mixed_columns()
        assert len({k for _, _, k in columns}) > 5  # layers stop at different c
        assert_matches_oracle(columns)

    def test_column_order_does_not_matter(self):
        columns = mixed_columns()[::-1]
        assert_matches_oracle(columns)

    def test_single_columns(self):
        for col in mixed_columns():
            assert_matches_oracle([col])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 80), st.integers(1, 90), st.integers(0, 2**32 - 1)),
                    min_size=1, max_size=6))
    def test_random_columns(self, specs):
        columns = []
        for n, max_bins, seed in specs:
            rng = np.random.default_rng(seed)
            xs = np.round(rng.normal(0, 1, n), int(rng.integers(0, 3)))
            columns.append(column(np.repeat(xs, rng.integers(1, 4, n)), max_bins))
        assert_matches_oracle(columns)


def mixed_table(max_bins, seed=5, n=3000):
    """Four continuous fields around one categorical field; every seventh
    row has a missing cell."""
    rng = np.random.default_rng(seed)
    cols = [np.round(rng.lognormal(0, 1, n), 2).tolist(),
            np.round(rng.normal(0, 1, n), 3).tolist(),
            rng.choice(["a", "b", "c"], n).tolist(),
            rng.integers(0, 4, n).astype(float).tolist(),
            np.round(rng.gamma(2.0, 3.0, n), 1).tolist()]
    fields = tuple(FieldSchema(name=f"f{j}", kind=CATEGORICAL) if j == 2 else
                   FieldSchema(name=f"f{j}", kind=CONTINUOUS, max_bins=max_bins)
                   for j in range(len(cols)))
    cells = [list(row) for row in zip(*cols)]
    for i in range(0, n, 7):
        cells[i][i % 5] = MISSING
    return RawTable.from_rows(TableSchema(fields=fields), cells)


class TestFitCodecs:
    @pytest.mark.parametrize("max_bins", [3, 32, 100])
    def test_equals_fit_continuous_per_column(self, max_bins):
        table = mixed_table(max_bins)
        codecs = fit_codecs(table)
        for j, fs in enumerate(table.schema.fields):
            if fs.kind == CONTINUOUS:
                alone = fit_continuous(table.column(j), max_bins)
                assert codecs[j].centers.tobytes() == alone.centers.tobytes()
                assert codecs[j].ratios.tobytes() == alone.ratios.tobytes()
            else:
                assert set(codecs[j].values) == {"a", "b", "c"}

    def test_no_continuous_field(self):
        schema = TableSchema(fields=(FieldSchema(name="k", kind=CATEGORICAL),))
        codecs = fit_codecs(RawTable.from_rows(schema, [["x"], ["y"]]))
        assert codecs[0].values == ("x", "y")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_value_fails_loudly(self, bad):
        with pytest.raises(CodecError, match="non-finite"):
            fit_continuous([1.0, 2.0, bad, 3.0, 5.0], 3)
        schema = TableSchema(fields=(FieldSchema(name="k", kind=CATEGORICAL),
                                     FieldSchema(name="price", kind=CONTINUOUS, max_bins=3)))
        table = RawTable.from_rows(schema, [["a", 1.0], ["b", bad], ["a", 3.0]])
        with pytest.raises(CodecError, match="'price'.*non-finite"):
            fit_codecs(table)

    def test_more_values_than_declared_fails(self):
        schema = TableSchema(fields=(
            FieldSchema(name="colour", kind=CATEGORICAL, declared_cardinality=2),))
        table = RawTable.from_rows(schema, [["red"], ["green"], [MISSING], ["blue"]])
        with pytest.raises(CodecError, match=r"'colour'.*3 distinct values observed, 2 declared"):
            fit_codecs(table)

    def test_fewer_values_than_declared_is_legal(self):
        schema = TableSchema(fields=(
            FieldSchema(name="colour", kind=CATEGORICAL, declared_cardinality=5),))
        table = RawTable.from_rows(schema, [["red"], ["green"], ["red"]])
        assert fit_codecs(table)[0].cardinality == 2
