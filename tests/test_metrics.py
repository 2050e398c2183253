import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    brute_dcr,
    brute_precision_recall,
    correlation_error_histogram_dense,
    correlation_errors_dense,
    dcr_every_row,
    explicit_min_dists,
    metric_features_by_lookup,
    mle_proxy_by_lookup,
    precision_recall_every_row,
    train_logistic_out_of_place,
    train_logistic_taped,
)
from tabmt import metrics
from tabmt.codec import CodecError, fit_categorical, fit_codecs, fit_continuous
from tabmt.metrics import (
    MetricError,
    MetricSpace,
    correlation_error_histogram,
    dcr,
    diversity,
    mle_proxy,
    precision_recall,
)
from tabmt.schema import (
    CATEGORICAL,
    CONTINUOUS,
    MISSING,
    FieldSchema,
    RawTable,
    TableSchema,
)


def toy_space():
    schema = TableSchema(fields=(
        FieldSchema(name="x", kind=CONTINUOUS, max_bins=10),
        FieldSchema(name="c", kind=CATEGORICAL),
    ))
    train = RawTable.from_rows(schema, [[0.0, "a"], [5.0, "b"], [10.0, "a"]])
    codecs = [fit_continuous(train.column(0), 10), fit_categorical(train.column(1))]
    return train, MetricSpace.fit(train, codecs)


class TestMetricSpace:
    def test_continuous_scaled_to_unit_interval(self):
        train, space = toy_space()
        vec = space.transform(train)
        assert vec.shape == (3, 3)  # 1 continuous + 2 one-hot
        assert vec[:, 0].min() == 0.0
        assert vec[:, 0].max() == 1.0

    def test_one_hot_expansion(self):
        train, space = toy_space()
        vec = space.transform(train)
        assert np.array_equal(vec[:, 1:], [[1, 0], [0, 1], [1, 0]])


class TestDcr:
    def test_memorization_gives_zero(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 4))
        assert dcr(x, x) == 0.0

    def test_median_by_construction(self):
        train = np.zeros((1, 1))
        synth = np.array([[1.0], [2.0], [3.0]])
        assert dcr(synth, train) == 2.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        synth = rng.normal(size=(1000, 6))
        train = rng.normal(size=(1000, 6))
        assert dcr(synth, train) == brute_dcr(synth, train)

    def test_dimension_mismatch(self):
        with pytest.raises(MetricError):
            dcr(np.zeros((2, 3)), np.zeros((2, 4)))


class TestCorrelationErrors:
    def test_identity_gives_zero(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(100, 5))
        counts, edges = correlation_error_histogram(x, x, bins=10)
        assert counts[0] == 10  # all C(5,2) pairs in the zero bin
        assert counts[1:].sum() == 0

    def test_broken_correlation_detected(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5000, 1))
        real = np.concatenate([x, x], axis=1)  # corr = 1
        synth = rng.normal(size=(5000, 2))     # corr ~ 0
        counts, edges = correlation_error_histogram(real, synth, bins=20)
        # the single pair lands near |1 - 0| = 1
        bin_idx = np.argmax(counts)
        assert abs((edges[bin_idx] + edges[bin_idx + 1]) / 2 - 1.0) < 0.1

    def test_constant_column_contributes_zero(self):
        rng = np.random.default_rng(4)
        real = np.concatenate([rng.normal(size=(100, 1)), np.ones((100, 1))], axis=1)
        synth = rng.normal(size=(100, 2))
        counts, _ = correlation_error_histogram(real, synth, bins=10)
        assert counts[0] == 1
        assert counts.sum() == 1

    def test_histogram_mass_equals_pair_count(self):
        rng = np.random.default_rng(5)
        real = rng.normal(size=(50, 7))
        synth = rng.normal(size=(60, 7))
        counts, _ = correlation_error_histogram(real, synth)
        assert counts.sum() == 7 * 6 // 2

    def test_error_rounded_past_two_is_counted(self):
        # Two rows correlate every varying pair at exactly +-1, so a pair's
        # error of exactly 2 can round past 2.
        rng = np.random.default_rng(28)
        real, synth = one_hot_cloud(rng, 2, [11, 4], 0), one_hot_cloud(rng, 19, [11, 4], 0)
        real[:, rng.random(15) < 0.1] = 0.5
        synth[:, rng.random(15) < 0.1] = 0.25
        counts, _ = correlation_error_histogram(real, synth, bins=1)
        assert list(counts) == [15 * 14 // 2]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_rejected(self, bad, side):
        rng = np.random.default_rng(6)
        tables = [rng.normal(size=(50, 4)), rng.normal(size=(50, 4))]
        tables[side][17, 2] = bad
        with pytest.raises(MetricError, match="finite"):
            correlation_error_histogram(*tables)


def one_hot_cloud(rng, n: int, widths, n_cont: int) -> np.ndarray:
    """``n_cont`` uniform columns, then one Zipf-distributed one-hot block
    per entry of ``widths``."""
    blocks = [rng.random((n, n_cont))]
    for k in widths:
        p = 1.0 / np.arange(1, k + 1)
        block = np.zeros((n, k))
        block[np.arange(n), rng.choice(k, n, p=p / p.sum())] = 1.0
        blocks.append(block)
    return np.concatenate(blocks, axis=1)


_U = np.finfo(np.float64).eps / 2


def dense_rounding_bound(n_real: int, n_synth: int) -> float:
    """How far a pair's error may lie from the dense oracle's.

    Both forms correlate the same standardized columns z, whose squares sum
    to about n, but through BLAS products of different shapes, which sum a
    pair's n terms z_a z_b in different orders. With u the unit roundoff, any
    order is within gamma_n sum |z_a z_b| <= gamma_n n of the exact sum,
    gamma_n = n u / (1 - n u), so two correlations differ by at most
    2 gamma_n plus 2u for the division by n. Two errors then differ by at
    most 2 gamma_{n_real} + 2 gamma_{n_synth} + 8u, 4u of it for rounding
    the subtractions; twice that covers the second-order terms."""
    return 4 * (n_real + n_synth + 4) * _U / (1 - (n_real + n_synth) * _U)


def assert_matches_dense(real, synth, bins=20):
    """The histogram has the dense oracle's edges and mass, and its counts
    are the oracle's except that a pair whose dense error lies within
    ``dense_rounding_bound`` of an edge may count in either bin it touches."""
    counts, edges = correlation_error_histogram(real, synth, bins=bins)
    assert np.array_equal(edges, correlation_error_histogram_dense(real, synth, bins=bins)[1])
    d = real.shape[1]
    assert counts.sum() == d * (d - 1) // 2
    err, delta = correlation_errors_dense(real, synth), dense_rounding_bound(len(real), len(synth))
    lo, hi = (np.clip(np.searchsorted(edges, v, side="right") - 1, 0, bins - 1)
              for v in (err - delta, err + delta))
    b = np.arange(bins)[:, None]
    sure = ((lo == b) & (hi == b)).sum(axis=1)
    possible = ((lo <= b) & (b <= hi)).sum(axis=1)
    assert np.all(sure <= counts) and np.all(counts <= possible)
    return sure, possible


class TestCorrelationMatchesDense:
    """Correlating only the columns that vary in both tables gives the
    dense histogram's edges, and its counts except where a bin edge lies
    within rounding of a pair's error."""

    @pytest.mark.parametrize("const_real, const_synth", [
        ([1], []), ([], [2, 4]), ([0, 3], [3]), ([0, 1, 2, 3, 4], [0, 1, 2, 3, 4]),
        ([0, 1, 2, 4], []), ([], [0, 1, 2, 3])])
    def test_constant_columns(self, const_real, const_synth):
        rng = np.random.default_rng(11)
        real, synth = rng.normal(size=(40, 5)), rng.normal(size=(30, 5))
        real[:, const_real] = 2.5
        synth[:, const_synth] = -1.0
        assert_matches_dense(real, synth)

    @pytest.mark.parametrize("d", [1, 2])
    def test_one_or_two_columns(self, d):
        rng = np.random.default_rng(d)
        assert_matches_dense(rng.normal(size=(20, d)), rng.normal(size=(15, d)))

    def test_two_rows(self):
        rng = np.random.default_rng(12)
        assert_matches_dense(one_hot_cloud(rng, 2, [5, 2], 3),
                             one_hot_cloud(rng, 2, [5, 2], 3))

    @pytest.mark.parametrize("bins", [1, 7, 100])
    def test_one_thousand_way_block(self, bins):
        rng = np.random.default_rng(13)
        widths = [1000, 2, 2, 3]
        assert_matches_dense(one_hot_cloud(rng, 200, widths, 6),
                             one_hot_cloud(rng, 16, widths, 6), bins=bins)

    @settings(max_examples=150, deadline=None)
    @example(seed=262994, n_real=17, n_synth=16, widths=[6, 5, 1], n_cont=4, bins=4)
    @example(seed=28, n_real=2, n_synth=19, widths=[11, 4], n_cont=0, bins=1)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.integers(2, 20),
           st.lists(st.integers(1, 12), max_size=4), st.integers(0, 4),
           st.integers(1, 30))
    def test_random_mixed_clouds(self, seed, n_real, n_synth, widths, n_cont, bins):
        rng = np.random.default_rng(seed)
        real = one_hot_cloud(rng, n_real, widths, n_cont)
        synth = one_hot_cloud(rng, n_synth, widths, n_cont)
        real[:, rng.random(real.shape[1]) < 0.1] = 0.5
        synth[:, rng.random(synth.shape[1]) < 0.1] = 0.25
        assert_matches_dense(real, synth, bins=bins)

    def test_error_on_a_bin_edge(self):
        # One pair's exact error is 0.5, a bin edge; BLAS may round the two
        # forms' products to either side of it.
        rng = np.random.default_rng(262994)
        real = one_hot_cloud(rng, 17, [6, 5, 1], 4)
        synth = one_hot_cloud(rng, 16, [6, 5, 1], 4)
        real[:, rng.random(real.shape[1]) < 0.1] = 0.5
        synth[:, rng.random(synth.shape[1]) < 0.1] = 0.25
        sure, possible = assert_matches_dense(real, synth, bins=4)
        assert list(sure) == [111, 7, 1, 0] and list(possible) == [112, 8, 1, 0]

    def test_peak_memory_bounded_by_varying_columns(self):
        rng = np.random.default_rng(14)
        widths = [3000, 2, 2, 2]
        real, synth = one_hot_cloud(rng, 200, widths, 0), one_hot_cloud(rng, 16, widths, 0)
        assert real.shape[1] == 3006
        tracemalloc.start()
        try:
            counts, _ = correlation_error_histogram(real, synth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.sum() == 3006 * 3005 // 2
        # The dense d x d form peaks at about 312 MiB here.
        assert peak < 32 * 2**20


class TestDiversity:
    def test_full_coverage(self):
        tok = np.array([[0, 1], [1, 0], [2, 1]])
        assert diversity(tok, tok) == 1.0

    def test_constant_generator(self):
        real = np.array([[0, 0], [1, 1], [2, 2], [3, 3]])
        synth = np.tile([[0, 0]], (10, 1))
        assert diversity(synth, real) == pytest.approx((1 / 4 + 1 / 4) / 2)

    def test_half_coverage_fixture(self):
        real = np.stack([np.arange(8), np.arange(8)], axis=1)
        synth = np.stack([np.arange(4), np.arange(4)], axis=1)
        assert diversity(synth, real) == 0.5

    def test_blank_cells_are_no_value(self):
        # Field 1's blank real cell holds the sentinel 2, which no synthetic
        # row can hold; only observed cells count, on both sides.
        real = np.array([[0, 0], [1, 1], [2, 2]])
        real_blank = np.array([[False, False], [False, False], [False, True]])
        synth = np.array([[0, 1], [1, 0], [2, 2]])
        synth_blank = np.array([[False, False], [False, False], [True, True]])
        assert diversity(synth[:2], real) == pytest.approx((2 / 3 + 2 / 3) / 2)
        assert diversity(synth[:2], np.ma.masked_array(real, real_blank)) == pytest.approx(
            (2 / 3 + 1) / 2)
        assert diversity(np.ma.masked_array(synth, synth_blank),
                         np.ma.masked_array(real, real_blank)) == pytest.approx((2 / 3 + 1) / 2)

    def test_full_coverage_with_a_blank_real_cell(self):
        real = np.array([[0, 0], [1, 1], [2, 2]])
        synth = np.array([[0, 1], [1, 0], [2, 1]])
        blank = np.zeros(real.shape, dtype=bool)
        blank[2, 1] = True
        assert diversity(synth, np.ma.masked_array(real, blank)) == 1.0

    def test_field_with_no_observed_real_value_left_out(self):
        real = np.ma.masked_array([[0, 5], [1, 5]], [[False, True], [False, True]])
        assert diversity(np.array([[0, 0]]), real) == 0.5
        with pytest.raises(MetricError, match="no observed real value"):
            diversity(np.array([[0, 0]]), np.ma.masked_array(real.data, True))


class TestPrecisionRecall:
    def test_self_coverage(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(100, 2))
        p, r = precision_recall(x, x, k=3)
        assert p == 1.0 and r == 1.0

    def test_disjoint_supports(self):
        rng = np.random.default_rng(7)
        real = rng.normal(size=(100, 2))
        diameter = np.ptp(real)
        synth = rng.normal(size=(100, 2)) + 100 * diameter
        p, r = precision_recall(real, synth, k=3)
        assert p == 0.0 and r == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        real = rng.normal(size=(200, 2))
        synth = rng.normal(0.5, 1.2, size=(200, 2))
        fast = precision_recall(real, synth, k=3)
        slow = brute_precision_recall(real, synth, k=3)
        assert fast == slow

    def test_degenerate_embeddings_error(self):
        with pytest.raises(MetricError):
            precision_recall(np.ones((10, 2)), np.random.default_rng(0).normal(size=(10, 2)))
        with pytest.raises(MetricError):
            precision_recall(np.random.default_rng(0).normal(size=(10, 2)),
                             np.full((10, 2), 1e6))

    @pytest.mark.parametrize("k", [0, -1, -5])
    def test_k_below_one_rejected(self, k):
        # The radius is the (k + 1)-th neighbour: k = -1 would pick the farthest row.
        rng = np.random.default_rng(18)
        with pytest.raises(MetricError, match=f"k={k}"):
            precision_recall(rng.normal(size=(50, 4)), rng.normal(size=(40, 4)), k=k)

    def test_clouds_far_from_the_origin_are_not_degenerate(self):
        # A tolerance relative to |x| would call these clouds all-identical.
        rng = np.random.default_rng(17)
        real = rng.normal(size=(100, 5)) + 1e6
        synth = rng.normal(size=(120, 5)) + 1e6
        assert precision_recall(real, synth) == brute_precision_recall(real, synth)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_dcr_rejects(self, bad):
        rng = np.random.default_rng(12)
        clean, dirty = rng.normal(size=(20, 3)), rng.normal(size=(30, 3))
        dirty[4, 1] = bad
        with pytest.raises(MetricError):
            dcr(dirty, clean)
        with pytest.raises(MetricError):
            dcr(clean, dirty)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_precision_recall_rejects(self, bad):
        rng = np.random.default_rng(13)
        clean, dirty = rng.normal(size=(20, 3)), rng.normal(size=(30, 3))
        dirty[4, 1] = bad
        with pytest.raises(MetricError):
            precision_recall(clean, dirty)
        with pytest.raises(MetricError):
            precision_recall(dirty, clean)


def assert_exact(real, synth, k=3):
    """dcr and precision/recall equal the brute-force oracles exactly."""
    assert dcr(synth, real) == brute_dcr(synth, real)
    assert dcr(real, synth) == brute_dcr(real, synth)
    assert precision_recall(real, synth, k) == brute_precision_recall(real, synth, k)


class TestExactOnAdversarialClouds:
    """Clouds where the screen's expansion cancels or many pairs tie."""

    def test_offset_clouds(self):
        rng = np.random.default_rng(14)
        real = rng.normal(size=(60, 4)) + 1e6
        synth = rng.normal(size=(50, 4)) + 1e6
        assert dcr(synth, real) == brute_dcr(synth, real)
        # Wide enough that precision_recall does not call them degenerate.
        assert_exact(100 * real - 99e6, 100 * synth - 99e6)

    def test_one_hot_rows(self):
        rng = np.random.default_rng(15)

        def rows(n):
            return np.concatenate([np.eye(4)[rng.integers(0, 4, n)],
                                   np.eye(3)[rng.integers(0, 3, n)]], axis=1)

        assert_exact(rows(40), rows(30))
        assert_exact(rows(40), rows(30), k=5)

    def test_integer_grid_rows(self):
        rng = np.random.default_rng(16)
        grid = rng.integers(-2, 3, size=(90, 3)).astype(np.float64)
        assert_exact(grid[:50], grid[50:])
        assert_exact(grid[:50] + 1e3, grid[50:] + 1e3, k=4)

    def test_duplicate_points(self):
        rng = np.random.default_rng(17)
        base = rng.normal(size=(15, 3))
        real = np.concatenate([base, base, base[:6]])
        synth = np.concatenate([base[:10], rng.normal(size=(10, 3))])
        assert dcr(base[:10], real) == 0.0
        assert_exact(real, synth)
        assert_exact(real, synth, k=2)

    @pytest.mark.parametrize("offset", [0.0, 1e3])
    def test_query_exactly_at_radius(self, offset):
        # With k = 3 the four real points 0, 1, 2, 3 have radii 3, 2, 2, 3,
        # so -3 and 6 lie exactly on a ball's boundary and only one ulp
        # further out lie outside every ball.
        real = np.array([[0.0], [1.0], [2.0], [3.0]]) + offset
        synth = np.array([[-3.0], [6.0], [np.nextafter(-3.0 + offset, -np.inf) - offset],
                          [np.nextafter(6.0 + offset, np.inf) - offset], [1.5]]) + offset
        assert precision_recall(real, synth, k=3)[0] == 0.6
        assert_exact(real, synth)


class TestMultiplicities:
    """Searches run once per distinct row; every copy still counts."""

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("extra", [0, 1, 2])
    def test_copies_around_k(self, k, extra):
        # A point with k copies is searched; with k + 1 or more its radius is 0.
        rng = np.random.default_rng(20 + extra)
        real, synth = rng.normal(size=(30, 3)), rng.normal(size=(25, 3))
        copies = k + extra
        real = np.concatenate([real, np.repeat(real[:2], copies, axis=0)])
        synth = np.concatenate([synth, np.repeat(synth[:1], copies, axis=0),
                                np.repeat(real[:1], copies, axis=0)])
        assert_exact(real, synth, k)
        assert_same_as_every_row(real, synth, k)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_more_rows_than_k_but_at_most_k_distinct(self, k):
        rng = np.random.default_rng(30 + k)
        points = rng.normal(size=(k, 2))
        real = points[[0] + [1] * (k + 3) + list(range(k))]
        synth = np.concatenate([points[[1, 1]], rng.normal(size=(k + 1, 2))])
        assert len(real) > k and len(np.unique(real, axis=0)) <= k
        assert_exact(real, synth, k)
        assert_same_as_every_row(real, synth, k)

    @pytest.mark.parametrize("offset", [0.0, 1e3])
    def test_duplicated_ball_centres(self, offset):
        # Every real point twice: with k = 3 the radii of 0, 1, 2, 3 are
        # 1, 1, 1, 1, so -1 and 4 lie exactly on a ball's boundary.
        real = np.repeat(np.array([[0.0], [1.0], [2.0], [3.0]]), 2, axis=0) + offset
        synth = np.array([[-1.0], [4.0], [-1.0], [np.nextafter(4.0 + offset, np.inf) - offset],
                          [1.5], [1.5], [7.0]]) + offset
        assert precision_recall(real, synth, k=3)[0] == 5 / 7
        assert_exact(real, synth)
        assert_same_as_every_row(real, synth)

    def test_copies_straddle_a_screen_block(self):
        # 2,048 reference rows make a screen block 128 query rows; the
        # copies sit at rows 127 and 128, 255 and 256.
        rng = np.random.default_rng(40)
        train = rng.normal(size=(2048, 4))
        assert metrics._BLOCK // len(train) == 128
        synth = rng.normal(size=(300, 4))
        synth[[128, 256]] = synth[[127, 255]]
        synth[[10, 140]] = train[5]
        assert dcr(synth, train) == brute_dcr(synth, train)
        assert dcr(synth, train) == dcr_every_row(synth, train)
        # 600 points make a block 436 rows, for the radii and the coverage.
        real, synth = rng.normal(size=(600, 3)), rng.normal(size=(600, 3))
        assert metrics._BLOCK // len(real) == 436
        real[[436, 437]] = real[435]
        synth[[436, 500]] = synth[435]
        synth[428] = real[435]
        assert precision_recall(real, synth) == brute_precision_recall(real, synth)
        assert_same_as_every_row(real, synth)

    def test_all_tied_one_hot_clouds(self):
        # Two one-hot values in 1,500 x 1,500 rows (d = 10): every radius is
        # 0 and every distance ties with many others.
        rng = np.random.default_rng(41)
        real = np.eye(10)[rng.choice([2, 7], 1500)]
        synth = np.eye(10)[rng.choice([2, 7], 1500)]
        assert dcr(synth, real) == brute_dcr(synth, real) == 0.0
        assert precision_recall(real, synth) == brute_precision_recall(real, synth)
        assert_same_as_every_row(real, synth)


def assert_same_as_every_row(real, synth, k=3):
    """dcr and precision/recall equal the searches over every row."""
    assert dcr(synth, real) == dcr_every_row(synth, real)
    assert dcr(real, synth) == dcr_every_row(real, synth)
    assert precision_recall(real, synth, k) == precision_recall_every_row(real, synth, k)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_matches_brute_force_on_grid_clouds(data):
    dim = data.draw(st.integers(1, 4))
    values = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 3.0])
    real, synth = (data.draw(arrays(np.float64, (data.draw(st.integers(4, 14)), dim),
                                    elements=values)) for _ in range(2))
    assert dcr(synth, real) == brute_dcr(synth, real)
    if not (np.allclose(real, real[0]) or np.allclose(synth, synth[0])):
        assert precision_recall(real, synth, 3) == brute_precision_recall(real, synth, 3)


def test_dcr_block_budget():
    rng = np.random.default_rng(18)
    synth, train = rng.random((1000, 84)), rng.random((8000, 84))
    tracemalloc.start()
    try:
        got = dcr(synth, train)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == float(np.median(explicit_min_dists(synth, train)))
    assert peak < 32 * 2**20


class TestTrainLogistic:
    @pytest.mark.parametrize("n, dim, classes", [(500, 5, 4), (24, 265, 10), (16, 1043, 4)])
    def test_matches_taped_fit(self, n, dim, classes):
        rng = np.random.default_rng(n)
        x, y = rng.normal(size=(n, dim)), rng.integers(0, classes, n)
        w, b = metrics._train_logistic(x, y, classes, seed=3)
        w_ref, b_ref = train_logistic_taped(x, y, classes, seed=3)
        assert np.array_equal(w, w_ref) and np.array_equal(b, b_ref)

    @pytest.mark.parametrize("n, dim, classes", [(500, 5, 4), (24, 265, 10), (16, 1043, 4),
                                                 (40, 0, 3), (30, 7, 1)])
    def test_matches_out_of_place_fit(self, n, dim, classes):
        rng = np.random.default_rng(n + dim)
        x, y = rng.normal(size=(n, dim)), rng.integers(0, classes, n)
        w, b = metrics._train_logistic(x, y, classes, steps=120, seed=4)
        w_ref, b_ref = train_logistic_out_of_place(x, y, classes, steps=120, seed=4)
        assert (w.shape, w.tobytes(), b.tobytes()) == (w_ref.shape, w_ref.tobytes(),
                                                       b_ref.tobytes())


def mixed_tables(seed, n_train=120, n_test=60, blank=0.15):
    """Train and test tables with blank cells in every field: continuous
    ``x``, categorical ``c``, constant continuous ``k``, categorical
    target ``y`` and continuous ``t``; the test rows hold no unseen value."""
    rng = np.random.default_rng(seed)
    schema = TableSchema(fields=(
        FieldSchema(name="x", kind=CONTINUOUS, max_bins=8),
        FieldSchema(name="c", kind=CATEGORICAL),
        FieldSchema(name="k", kind=CONTINUOUS, max_bins=4),
        FieldSchema(name="y", kind=CATEGORICAL),
        FieldSchema(name="t", kind=CONTINUOUS, max_bins=8),
    ), target_index=3)

    def make(n):
        cells = []
        for _ in range(n):
            x = float(rng.normal())
            row = [x, str(rng.choice(["a", "b", "c"])), 2.5,
                   "pos" if x + rng.normal(0, 0.5) > 0 else "neg", 3 * x + float(rng.normal())]
            cells.append([MISSING if rng.random() < blank else v for v in row])
        return RawTable.from_rows(schema, cells)

    train, test = make(n_train), make(n_test)
    return train, test, MetricSpace.fit(train, fit_codecs(train))


def with_cell(table, i, j, value):
    cells = [list(row) for row in table.rows()]
    cells[i][j] = value
    return RawTable.from_rows(table.schema, cells)


class TestMatchesLookup:
    """Features and MLE scores equal the cell-by-cell lookups bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_fit_bounds_are_observed_extremes(self, seed):
        train, _, space = mixed_tables(seed)
        for j in (0, 2, 4):
            vals = [v for v in train.column(j) if v is not MISSING]
            assert (space.mins[j], space.maxs[j]) == (min(vals), max(vals))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("exclude", [None, 0, 1, 3, 4])
    def test_features(self, seed, exclude):
        train, test, space = mixed_tables(seed)
        for table in (train, test):
            got = space.transform(table, exclude=exclude)
            want = metric_features_by_lookup(space, table, exclude=exclude)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_mle_proxy(self, seed):
        train, test, space = mixed_tables(seed)
        for target, task in ((3, "classify"), (4, "regress")):
            got = mle_proxy(train, test, space, target, task, seed=seed)
            assert got == mle_proxy_by_lookup(train, test, space, target, task, seed=seed)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(
        st.one_of(st.none(), st.floats(-1e6, 1e6)),
        st.one_of(st.none(), st.sampled_from(["a", "b"]))), min_size=1, max_size=25))
    def test_features_random_cells(self, rows):
        train, space = toy_space()
        cells = [[MISSING if x is None else x, MISSING if c is None else c] for x, c in rows]
        table = RawTable.from_rows(train.schema, cells)
        if any(x is not None for x, _ in rows):  # bounds from the random cells themselves
            space = MetricSpace.fit(table, space.codecs)
        got = space.transform(table)
        assert got.tobytes() == metric_features_by_lookup(space, table).tobytes()


class TestBadCells:
    @pytest.mark.parametrize("j, value, field", [(0, float("nan"), "x"), (0, float("-inf"), "x"),
                                                  (1, "zz", "c"), (3, "qq", "y")])
    def test_transform_names_field(self, j, value, field):
        train, test, space = mixed_tables(0)
        with pytest.raises(CodecError, match=f"^field '{field}': "):
            space.transform(with_cell(test, 2, j, value))

    def test_fit_names_non_finite_field(self):
        train, _, space = mixed_tables(0)
        with pytest.raises(CodecError, match="^field 't': non-finite"):
            MetricSpace.fit(with_cell(train, 5, 4, float("inf")), space.codecs)

    @pytest.mark.parametrize("j, value, field", [(0, float("nan"), "x"), (1, "zz", "c"),
                                                  (3, "qq", "y")])
    @pytest.mark.parametrize("side", [0, 1])
    def test_mle_proxy_names_field(self, j, value, field, side):
        train, test, space = mixed_tables(0)
        tables = [train, test]
        tables[side] = with_cell(tables[side], 4, j, value)
        with pytest.raises(CodecError, match=f"^field '{field}': "):
            mle_proxy(*tables, space, 3, "classify")

    def test_regression_target_must_be_continuous(self):
        train, test, space = mixed_tables(0)
        with pytest.raises(MetricError, match="continuous"):
            mle_proxy(train, test, space, 3, "regress")


class TestMleProxy:
    def make_separable(self, n=400, seed=0):
        rng = np.random.default_rng(seed)
        schema = TableSchema(fields=(
            FieldSchema(name="x", kind=CONTINUOUS, max_bins=50),
            FieldSchema(name="y", kind=CATEGORICAL),
        ), target_index=1)
        xs = np.concatenate([rng.normal(-2, 0.5, n // 2), rng.normal(2, 0.5, n // 2)])
        ys = ["neg"] * (n // 2) + ["pos"] * (n // 2)
        cells = [[float(x), y] for x, y in zip(xs, ys)]
        rng.shuffle(cells)
        table = RawTable.from_rows(schema, cells)
        codecs = [fit_continuous(table.column(0), 50), fit_categorical(table.column(1))]
        return table, MetricSpace.fit(table, codecs)

    def test_same_data_matches_baseline(self):
        table, space = self.make_separable()
        test_table, _ = self.make_separable(seed=99)
        base = mle_proxy(table, test_table, space, 1, "classify")
        again = mle_proxy(table, test_table, space, 1, "classify")
        assert base > 0.95
        assert again == base

    def test_label_shuffled_scores_lower(self):
        # On a perfectly separable fixture a single shuffle can leave a
        # residual correlation whose sign alone restores full accuracy, so
        # the control averages over several shuffle seeds.
        table, space = self.make_separable()
        test_table, _ = self.make_separable(seed=99)
        base = mle_proxy(table, test_table, space, 1, "classify")
        labels = [r[1] for r in table.rows()]
        scores = []
        for s in range(10):
            rng = np.random.default_rng(s)
            cells = [[row[0], y] for row, y in
                     zip(table.rows(), rng.permutation(labels))]
            shuffled = RawTable.from_rows(table.schema, cells)
            scores.append(mle_proxy(shuffled, test_table, space, 1, "classify"))
        assert base - np.mean(scores) > 0.1

    def test_regression_null_model(self):
        rng = np.random.default_rng(1)
        schema = TableSchema(fields=(
            FieldSchema(name="x", kind=CONTINUOUS, max_bins=50),
            FieldSchema(name="t", kind=CONTINUOUS, max_bins=50),
        ), target_index=1)

        def make(seed):
            r = np.random.default_rng(seed)
            cells = [[float(a), float(b)] for a, b in
                     zip(r.normal(size=300), r.normal(size=300))]
            return RawTable.from_rows(schema, cells)

        train_t = make(1)
        codecs = [fit_continuous(train_t.column(0), 50),
                  fit_continuous(train_t.column(1), 50)]
        space = MetricSpace.fit(train_t, codecs)
        score = mle_proxy(train_t, make(2), space, 1, "regress")
        assert abs(score) < 0.05 + 0.05

    @staticmethod
    def blank_targets(table, every):
        """The table with every ``every``-th target blank, and without those rows."""
        blanked = [[row[0], MISSING] if i % every == 0 else row
                   for i, row in enumerate(table.rows())]
        kept = [row for i, row in enumerate(table.rows()) if i % every]
        return (RawTable.from_rows(table.schema, blanked),
                RawTable.from_rows(table.schema, kept))

    def test_blank_targets_dropped_classify(self):
        table, space = self.make_separable()
        test_table, _ = self.make_separable(seed=99)
        train_b, train_k = self.blank_targets(table, 7)
        test_b, test_k = self.blank_targets(test_table, 5)
        got = mle_proxy(train_b, test_b, space, 1, "classify")
        assert got == mle_proxy(train_k, test_k, space, 1, "classify")
        assert got > 0.95

    def test_blank_targets_dropped_regress(self):
        table, space = self.make_separable()
        cells = [[x, 2.0 * x + 1.0] for x, _ in table.rows()]
        reg = RawTable.from_rows(TableSchema(fields=(
            FieldSchema(name="x", kind=CONTINUOUS, max_bins=50),
            FieldSchema(name="t", kind=CONTINUOUS, max_bins=50),
        ), target_index=1), cells)
        codecs = [space.codecs[0], fit_continuous(reg.column(1), 50)]
        reg_space = MetricSpace.fit(reg, codecs)
        train_b, train_k = self.blank_targets(reg, 3)
        test_b, test_k = self.blank_targets(reg, 4)
        got = mle_proxy(train_b, test_b, reg_space, 1, "regress")
        assert got == mle_proxy(train_k, test_k, reg_space, 1, "regress")
        assert got > 0.9

    def test_all_targets_blank_errors(self):
        table, space = self.make_separable()
        blank, _ = self.blank_targets(table, 1)
        with pytest.raises(MetricError):
            mle_proxy(table, blank, space, 1, "classify")

    def test_single_class_errors(self):
        table, space = self.make_separable()
        cells = [[row[0], "pos"] for row in table.rows()]
        degenerate = RawTable.from_rows(table.schema, cells)
        with pytest.raises(MetricError):
            mle_proxy(degenerate, table, space, 1, "classify")

    def test_same_score_as_taped_fit(self, monkeypatch):
        table, space = self.make_separable()
        test_table, _ = self.make_separable(seed=99)
        cells = [[x, 2.0 * x + 1.0] for x, _ in table.rows()]
        reg = RawTable.from_rows(TableSchema(fields=(
            FieldSchema(name="x", kind=CONTINUOUS, max_bins=50),
            FieldSchema(name="t", kind=CONTINUOUS, max_bins=50),
        ), target_index=1), cells)
        reg_space = MetricSpace.fit(reg, [space.codecs[0], fit_continuous(reg.column(1), 50)])

        def scores():
            return (mle_proxy(table, test_table, space, 1, "classify", seed=5),
                    mle_proxy(reg, reg, reg_space, 1, "regress", seed=5))

        got = scores()
        monkeypatch.setattr(metrics, "_train_logistic", train_logistic_taped)
        assert got == scores()
