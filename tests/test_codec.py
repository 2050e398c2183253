import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dp_kmeans_1d, lloyd_1d
from tabmt.codec import (
    CodecError,
    ContinuousCodec,
    decode_table,
    encode_table,
    fit_categorical,
    fit_continuous,
    observed_cells,
)
from tabmt.schema import (
    CATEGORICAL,
    CONTINUOUS,
    MISSING,
    FieldSchema,
    RawTable,
    TableSchema,
)


def encode_values(codec, xs):
    """Tokens of ``xs`` through ``encode_table``, as a one-column table."""
    schema = TableSchema(fields=(
        FieldSchema(name="x", kind=CONTINUOUS, max_bins=codec.cardinality),))
    table = RawTable.from_rows(schema, [[x] for x in xs])
    return encode_table(table, [codec]).tokens[:, 0]


def wcss(xs, centers):
    """Squared error of quantizing each value to its nearest center."""
    xs = np.asarray(xs, dtype=np.float64)
    return float((np.min(np.abs(xs[:, None] - centers[None, :]), axis=1) ** 2).sum())


class TestFitContinuous:
    def test_few_distinct_values_kept_exactly(self):
        codec = fit_continuous([0.0, 5.0, 10.0], max_bins=3)
        assert np.allclose(codec.centers, [0, 5, 10])
        assert np.allclose(codec.ratios, [0, 0.5, 1.0])

    def test_two_mode_mixture(self):
        rng = np.random.default_rng(0)
        xs = np.concatenate([rng.normal(0, 0.1, 500), rng.normal(10, 0.1, 500)])
        codec = fit_continuous(xs, max_bins=2)
        assert abs(codec.centers[0] - 0) < 0.2
        assert abs(codec.centers[1] - 10) < 0.2

    def test_degenerate_single_value(self):
        codec = fit_continuous([7.0, 7.0, 7.0], max_bins=5)
        assert codec.cardinality == 1
        assert codec.ratios[0] == 0.0

    def test_empty_errors(self):
        with pytest.raises(CodecError):
            fit_continuous([MISSING], max_bins=3)

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_matches_dp_oracle_small_instances(self, k):
        # <= 64 distinct values, k <= 8: the fitted quantization must match
        # the independent unweighted DP oracle within 1e-9 relative WCSS.
        rng = np.random.default_rng(k)
        xs = rng.choice(rng.normal(0, 1, 40), size=120)
        codec = fit_continuous(xs, max_bins=k)
        assign = encode_values(codec, xs)
        wcss = sum(
            ((xs[assign == c] - xs[assign == c].mean()) ** 2).sum()
            for c in range(codec.cardinality) if (assign == c).any()
        )
        wcss_dp, _ = dp_kmeans_1d(xs, k)
        assert wcss <= wcss_dp * (1 + 1e-9) + 1e-12

    @pytest.mark.parametrize("k", [2, 4, 7, 12])
    @pytest.mark.parametrize("n_distinct", [65, 120])
    def test_matches_dp_oracle_above_old_switch(self, k, n_distinct):
        # More than 64 distinct values, where the Lloyd path used to run.
        rng = np.random.default_rng(1000 * k + n_distinct)
        base = rng.normal(0, 1, n_distinct)
        xs = np.concatenate([base, rng.choice(base, size=n_distinct // 2)])
        assert len(np.unique(xs)) == n_distinct
        codec = fit_continuous(xs, max_bins=k)
        wcss_dp, _ = dp_kmeans_1d(xs, k)
        assert abs(wcss(xs, codec.centers) - wcss_dp) <= 1e-9 * wcss_dp

    @pytest.mark.parametrize("k", [2, 4, 7, 12])
    def test_matches_dp_oracle_far_from_zero(self, k):
        # Raw prefix sums of squares cancel at 1e6; both sides must centre.
        rng = np.random.default_rng(k)
        xs = 1e6 + rng.uniform(0, 1, 58)
        assert len(np.unique(xs)) == 58
        codec = fit_continuous(xs, max_bins=k)
        wcss_dp, _ = dp_kmeans_1d(xs, k)
        assert wcss_dp > 0
        assert abs(wcss(xs, codec.centers) - wcss_dp) <= 1e-9 * wcss_dp

    @pytest.mark.parametrize("column", ["normal", "lognormal", "gamma", "uniform"])
    def test_not_worse_than_lloyd(self, column):
        rng = np.random.default_rng(7)
        draw = {"normal": lambda: rng.normal(50, 10, 3000),
                "lognormal": lambda: rng.lognormal(0, 1, 3000),
                "gamma": lambda: rng.gamma(2.0, 3.0, 3000),
                "uniform": lambda: rng.uniform(-1, 1, 3000)}[column]
        xs = np.round(draw(), 2)
        codec = fit_continuous(xs, max_bins=100)
        old = np.unique(lloyd_1d(xs, 100))
        assert wcss(xs, codec.centers) <= wcss(xs, old) * (1 + 1e-9)

    @pytest.mark.parametrize("max_bins", [1, 2, 9, 40, 300])
    def test_centers_increasing_within_range_and_bounded(self, max_bins):
        rng = np.random.default_rng(max_bins)
        columns = [rng.normal(0, 1, 500),
                   np.round(rng.exponential(3.0, 500), 1),
                   1e9 + rng.random(500),
                   1e-12 * rng.standard_t(2, 500),
                   np.repeat([-3.0, 4.0], 40)]
        for xs in columns:
            c = fit_continuous(xs, max_bins=max_bins).centers
            assert np.all(np.diff(c) > 0)
            assert xs.min() <= c[0] and c[-1] <= xs.max()
            assert len(c) == min(max_bins, len(np.unique(xs)))

    def test_minmax_ratio_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            xs = rng.normal(0, 5, 200)
            codec = fit_continuous(xs, max_bins=rng.integers(2, 12))
            v = codec.centers
            expected = (v - v[0]) / (v[-1] - v[0])
            assert np.max(np.abs(codec.ratios - expected)) == 0.0

    def test_identity_codec_mode(self):
        # max_bins >= distinct count keeps every unique value as a center.
        xs = np.arange(50, dtype=float)
        codec = fit_continuous(xs, max_bins=100)
        assert codec.cardinality == 50
        assert np.allclose(codec.centers, xs)


class TestContinuousEncodeDecode:
    def make(self):
        return fit_continuous([0.0, 5.0, 10.0], max_bins=3)

    def test_nearest_center(self):
        assert self.make().encode(4) == 1

    def test_tie_toward_lower_index(self):
        assert self.make().encode(2.5) == 0

    def test_clamping(self):
        assert self.make().encode(100) == 2

    def test_non_finite_errors(self):
        with pytest.raises(CodecError):
            self.make().encode(float("nan"))

    def test_decode_lookup(self):
        assert self.make().decode(2) == 10.0

    def test_decode_out_of_range(self):
        with pytest.raises(CodecError):
            self.make().decode(3)

    @pytest.mark.parametrize("centers", [
        [0.0, 1.0, 2.0, 3.0],
        [1e15, 1e15 + 0.5, 1e15 + 1.0, 1e15 + 3.0],
        [-2.0, -1e-300, 0.0, 5e-324, 1e-300],
        [-1e300, -1.0, 1.0, 1e300],
        [7.0],
    ])
    def test_encode_column_takes_first_least_distance(self, centers):
        # Far from the centers, rounding ties runs of them; the first wins.
        probes = list(centers) + [(a + b) / 2 for a, b in zip(centers, centers[1:])]
        probes += [s * 10.0 ** e for e in range(-300, 300, 7) for s in (1, -1)]
        probes += [np.nextafter(x, d) for x in list(probes) for d in (-np.inf, np.inf)]
        codec = ContinuousCodec(np.array(centers))
        want = [min(range(len(centers)), key=lambda t: abs(x - centers[t])) for x in probes]
        assert codec.encode_column(probes).tolist() == want

    @given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=8, unique=True),
           st.lists(st.floats(-1e300, 1e300), max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_encode_column_random(self, centers, probes):
        centers = sorted(centers)
        codec = ContinuousCodec(np.array(centers))
        want = [min(range(len(centers)), key=lambda t: abs(x - centers[t])) for x in probes]
        assert codec.encode_column(probes).tolist() == want

    @given(st.floats(-50, 50))
    @settings(max_examples=50, deadline=None)
    def test_encode_decode_nearest(self, x):
        codec = self.make()
        t = codec.encode(x)
        assert abs(codec.decode(t) - x) == min(abs(c - x) for c in codec.centers)


class TestCategorical:
    def test_first_occurrence_order(self):
        codec = fit_categorical(["a", "b", "a"])
        assert codec.values == ("a", "b")
        assert codec.encode("a") == 0
        assert codec.encode("b") == 1

    def test_roundtrip(self):
        codec = fit_categorical(["a", "b", "a"])
        assert codec.decode(codec.encode("b")) == "b"

    def test_unseen_value_errors(self):
        with pytest.raises(CodecError):
            fit_categorical(["a"]).encode("unseen")

    def test_empty_errors(self):
        with pytest.raises(CodecError):
            fit_categorical([MISSING])


class TestTableRoundTrip:
    def test_encode_decode_preserves_values(self):
        schema = TableSchema(fields=(
            FieldSchema(name="c", kind=CATEGORICAL),
            FieldSchema(name="x", kind=CONTINUOUS, max_bins=10),
        ))
        table = RawTable.from_rows(schema, [["a", 1.0], ["b", 2.0], ["a", 3.0]])
        codecs = [fit_categorical(table.column(0)), fit_continuous(table.column(1), 10)]
        tokens = encode_table(table, codecs)
        back = decode_table(tokens, codecs)
        assert back.rows() == table.rows()

    def test_missing_cells_use_sentinel(self):
        schema = TableSchema(fields=(FieldSchema(name="c", kind=CATEGORICAL),))
        table = RawTable.from_rows(schema, [["a"], [MISSING], ["b"]])
        codecs = [fit_categorical(table.column(0))]
        tokens = encode_table(table, codecs)
        assert tokens.missing[1, 0]
        assert tokens.tokens[1, 0] == codecs[0].cardinality
        assert tokens.tokens[0, 0] < codecs[0].cardinality

    def test_encode_table_matches_per_cell_argmin(self):
        rng = np.random.default_rng(11)
        xs = rng.gamma(2.0, 1.0, 400)
        fitted = fit_continuous(xs, max_bins=16)
        c = fitted.centers.tolist()
        probe_x = (xs.tolist() + c + [(a + b) / 2 for a, b in zip(c, c[1:])]
                   + [c[0] - 1e6, c[0] - 1e-9, c[-1] + 1e-9, c[-1] + 1e6])
        # Exact midpoints of 0, 5, 10 tie between two centers.
        probe_z = [2.5, 7.5, -1.0, 11.0, 5.0]
        schema = TableSchema(fields=(
            FieldSchema(name="c", kind=CATEGORICAL),
            FieldSchema(name="x", kind=CONTINUOUS, max_bins=16),
            FieldSchema(name="z", kind=CONTINUOUS, max_bins=3),
        ))
        cats = ["p", "q", "r"]
        cells = [[cats[i % 3], x, probe_z[i % 5]] for i, x in enumerate(probe_x)]
        cells += [[MISSING, 1.0, 2.5], ["q", MISSING, MISSING], [MISSING, MISSING, 0.0]]
        table = RawTable.from_rows(schema, cells)
        codecs = [fit_categorical(cats), fitted, fit_continuous([0.0, 5.0, 10.0], 3)]
        out = encode_table(table, codecs)

        def brute(codec, x):
            # First index of the least distance: a tie goes to the lower center.
            centers = codec.centers.tolist()
            if x is MISSING:
                return len(centers)
            return min(range(len(centers)), key=lambda t: abs(x - centers[t]))

        assert out.tokens[:, 0].tolist() == [3 if r[0] is MISSING else cats.index(r[0])
                                             for r in cells]
        for j in (1, 2):
            assert out.tokens[:, j].tolist() == [brute(codecs[j], r[j]) for r in cells]
        assert out.tokens[[0, 1], 2].tolist() == [0, 1]
        assert out.missing.tolist() == [[v is MISSING for v in r] for r in cells]

    @pytest.mark.parametrize("bad", [["a", float("nan")], ["a", float("inf")],
                                     ["a", float("-inf")], ["unseen", 1.0]])
    def test_encode_table_rejects_bad_cells(self, bad):
        schema = TableSchema(fields=(
            FieldSchema(name="c", kind=CATEGORICAL),
            FieldSchema(name="x", kind=CONTINUOUS, max_bins=4),
        ))
        table = RawTable.from_rows(schema, [["a", 1.0], bad])
        codecs = [fit_categorical(["a", "b"]), fit_continuous([0.0, 1.0, 2.0], 4)]
        field = "'c'" if bad[0] == "unseen" else "'x'"
        with pytest.raises(CodecError, match=f"^field {field}: "):
            encode_table(table, codecs)

    def test_observed_cells(self):
        schema = TableSchema(fields=(
            FieldSchema(name="c", kind=CATEGORICAL),
            FieldSchema(name="x", kind=CONTINUOUS, max_bins=4),
        ))
        table = RawTable.from_rows(schema, [["b", MISSING], [MISSING, 0.123], ["a", -7.5]])
        codecs = [fit_categorical(["a", "b"]), fit_continuous([0.0, 1.0, 2.0], 4)]
        observed, tokens = observed_cells(table, 0, codecs[0])
        assert observed.tolist() == [True, False, True] and tokens.tolist() == [1, 0]
        observed, values = observed_cells(table, 1, codecs[1])
        # Continuous cells come back as parsed, not as bin centers.
        assert observed.tolist() == [False, True, True] and values.tolist() == [0.123, -7.5]
        assert values.dtype == np.float64

    def test_encode_surjective_on_training_values(self):
        xs = np.random.default_rng(0).normal(0, 1, 500)
        codec = fit_continuous(xs, max_bins=8)
        seen = set(encode_values(codec, xs).tolist())
        assert seen == set(range(codec.cardinality))
