import contextlib
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    count_forward_rows,
    generate_oracle,
    impute_oracle,
    make_toy_tokens,
    mixed_case,
    order_distribution_oracle,
    per_pair_sampler,
    sample_row_oracle,
)
from tabmt.autodiff import Tensor
from tabmt.codec import decode_table, encode_table, fit_categorical, fit_continuous
from tabmt.generation import (
    ARGMAX_TAU,
    GenerationSpec,
    _draws,
    _step,
    generate,
    impute,
    sample_field,
)
from tabmt.model import ModelConfig, TabMTModel
from tabmt.schema import (
    CATEGORICAL,
    CONTINUOUS,
    MISSING,
    FieldSchema,
    RawTable,
    TableSchema,
    TokenTable,
)
from tabmt.training import sample_mask


class TestSampleField:
    def test_argmax_below_threshold(self):
        rng = np.random.default_rng(0)
        logits = np.array([[0.1, 3.0, -1.0]] * 50)
        out = sample_field(logits, 1e-8, rng.random(50))
        assert np.all(out == 1)

    def test_unit_temperature_frequencies(self):
        rng = np.random.default_rng(1)
        logits = np.tile([math.log(3), 0.0], (100_000, 1))
        out = sample_field(logits, 1.0, rng.random(100_000))
        # softmax gives P(token 0) = 3/4
        assert abs((out == 0).mean() - 0.75) < 0.01

    def test_non_finite_logits_error(self):
        with pytest.raises(ValueError):
            sample_field(np.array([[np.inf, 0.0]]), 1.0, np.zeros(1))

    @given(st.floats(0.01, 100.0))
    @settings(max_examples=50, deadline=None)
    def test_argmax_invariance(self, tau):
        logits = np.array([[0.3, -1.2, 2.0, 0.9]])
        z = logits / tau
        assert np.argmax(z) == np.argmax(logits)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_entropy_nondecreasing_in_temperature(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(0, 3, 6)

        def entropy(tau):
            z = logits / tau
            z = z - z.max()
            p = np.exp(z)
            p /= p.sum()
            return -(p * np.log(p + 1e-300)).sum()

        taus = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
        ents = [entropy(t) for t in taus]
        assert all(b >= a - 1e-9 for a, b in zip(ents, ents[1:]))


class TestGenerate:
    def test_conditioned_cells_exact(self, trained_toy_model):
        spec = GenerationSpec(count=100, condition={0: 2}, seed=3)
        out = generate(trained_toy_model, spec)
        assert np.all(out.tokens[:, 0] == 2)

    def test_deterministic_conditional(self, trained_toy_model):
        spec = GenerationSpec(count=2000, temps=(1e-8, 1e-8), condition={0: 1},
                              seed=4)
        out = generate(trained_toy_model, spec)
        assert (out.tokens[:, 1] == 1).mean() > 0.99

    def test_all_fields_conditioned(self, trained_toy_model):
        spec = GenerationSpec(count=10, condition={0: 3, 1: 0}, seed=5)
        out = generate(trained_toy_model, spec)
        assert np.all(out.tokens == [3, 0])

    def test_joint_close_to_training(self, trained_toy_model, toy_deterministic):
        out = generate(trained_toy_model, GenerationSpec(count=50_000, seed=6))
        k = 4

        def joint(tokens):
            j = np.zeros((k, k))
            np.add.at(j, (tokens[:, 0], tokens[:, 1]), 1)
            return j / len(tokens)

        tv = 0.5 * np.abs(joint(out.tokens) - joint(toy_deterministic.tokens)).sum()
        assert tv < 0.05

    def test_determinism(self, trained_toy_model):
        a = generate(trained_toy_model, GenerationSpec(count=500, seed=11))
        b = generate(trained_toy_model, GenerationSpec(count=500, seed=11))
        assert np.array_equal(a.tokens, b.tokens)

    def test_invalid_spec(self, trained_toy_model):
        with pytest.raises(ValueError):
            GenerationSpec(count=10, temps=(0.0, 1.0))
        with pytest.raises(ValueError):
            generate(trained_toy_model, GenerationSpec(count=1, condition={5: 0}))


BAD_TEMPS = [-1.0, 0.0, math.nan, math.inf, -math.inf]


class TestTemperatureCheck:
    """generate and impute take one finite temperature greater than 0 per
    field, and check it before any forward pass."""

    @pytest.mark.parametrize("bad", BAD_TEMPS)
    @pytest.mark.parametrize("j", [0, 1])
    def test_impute_rejects_bad_value(self, trained_toy_model, bad, j):
        temps = [1.0, 1.0]
        temps[j] = bad
        tt = make_toy_tokens("deterministic", n=20, seed=2)
        tt.missing[:, 1] = True
        with count_forward_rows() as calls:
            with pytest.raises(ValueError, match=f"field {j}'s temperature"):
                impute(trained_toy_model, tt, temps=temps)
        assert not calls

    @pytest.mark.parametrize("bad", BAD_TEMPS)
    def test_spec_rejects_bad_value(self, bad):
        with pytest.raises(ValueError, match="field 1's temperature"):
            GenerationSpec(count=5, temps=(1.0, bad))

    @pytest.mark.parametrize("temps", [(1.0,), (1.0, 1.0, 1.0)])
    def test_wrong_count(self, trained_toy_model, temps):
        with count_forward_rows() as calls:
            with pytest.raises(ValueError, match=f"expected 2 temperatures, got {len(temps)}"):
                generate(trained_toy_model, GenerationSpec(count=5, temps=temps))
            with pytest.raises(ValueError, match=f"expected 2 temperatures, got {len(temps)}"):
                impute(trained_toy_model, make_toy_tokens("deterministic", n=5), temps=temps)
        assert not calls


class TestImpute:
    def test_no_missing_is_noop(self, trained_toy_model):
        tokens = make_toy_tokens("deterministic", n=50, seed=2)
        out = impute(trained_toy_model, tokens, seed=0)
        assert np.array_equal(out.tokens, tokens.tokens)
        assert not out.missing.any()

    def test_deterministic_conditional_imputation(self, trained_toy_model):
        base = make_toy_tokens("deterministic", n=1000, seed=3)
        missing = np.zeros_like(base.tokens, dtype=bool)
        missing[:, 1] = True
        tt = TokenTable(schema=None, tokens=base.tokens.copy(), missing=missing)
        tt.tokens[:, 1] = 4  # sentinel at missing cells
        out = impute(trained_toy_model, tt, temps=(1e-8, 1e-8), seed=0)
        assert (out.tokens[:, 1] == base.tokens[:, 0]).mean() > 0.99
        assert np.array_equal(out.tokens[:, 0], base.tokens[:, 0])

    def test_all_missing_equals_unconditional_row(self, trained_toy_model):
        missing = np.ones((200, 2), dtype=bool)
        tt = TokenTable(schema=None, tokens=np.full((200, 2), 4), missing=missing)
        out = impute(trained_toy_model, tt, seed=0)
        assert not out.missing.any()
        assert np.all(out.tokens < 4)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected(self, trained_toy_model, batch_size):
        tt = TokenTable(schema=None, tokens=np.full((5, 2), 4),
                        missing=np.ones((5, 2), dtype=bool))
        with pytest.raises(ValueError, match="batch_size must be positive"):
            impute(trained_toy_model, tt, seed=0, batch_size=batch_size)


def mixed_model(dtype="float32"):
    """Untrained model with categorical and continuous fields."""
    rng = np.random.default_rng(0)
    codecs = [fit_categorical(list("abcde")),
              fit_continuous(rng.normal(size=200).tolist(), max_bins=12),
              fit_categorical(list("xy")),
              fit_continuous(rng.exponential(size=200).tolist(), max_bins=7)]
    return TabMTModel(codecs, ModelConfig(width=16, depth=2, heads=2, dtype=dtype),
                      seed=4)


def sparse_table(model, n, seed, p_missing=0.4):
    """Random tokens with missing cells holding the sentinel token."""
    rng = np.random.default_rng(seed)
    tokens = np.stack([rng.integers(0, k, n) for k in model.cardinalities], axis=1)
    missing = rng.random(tokens.shape) < p_missing
    tokens[missing] = np.array(model.cardinalities)[np.nonzero(missing)[1]]
    return TokenTable(schema=None, tokens=tokens, missing=missing)


def distinct_states(tokens, mask):
    return len(np.unique(np.where(mask, -1, tokens), axis=0))


@contextlib.contextmanager
def step_forwards():
    """Record every ``TabMTModel.forward`` call made inside the block as its
    rows' (state, fields) pairs, sorted: each row's tokens with -1 at masked
    cells, and the fields its last block runs at."""
    calls = []
    original = TabMTModel.forward

    def recorded(self, tokens, mask, rng=None, fields=None, weights=None):
        state = np.where(mask, -1, tokens).tolist()
        calls.append(sorted(zip(map(tuple, state), map(tuple, fields.tolist()))))
        return original(self, tokens, mask, rng, fields, weights)

    TabMTModel.forward = recorded
    try:
        yield calls
    finally:
        TabMTModel.forward = original


def expected_calls(out, mask, seed, batch_size):
    """The ``step_forwards`` record the sampler should leave, replayed from
    its output ``out``, the masked cells it filled and the orders ``_draws``
    gives each row: per step, one row per distinct row state, whose last
    block runs at the sorted distinct fields that state's rows ask for,
    padded with the first of them to the most any state asks for. Draws
    are per row, so the whole table's are drawn at once."""
    order, _ = _draws(np.random.default_rng(seed), mask)
    calls = []
    for start in range(0, len(out), batch_size):
        o, m = out[start:start + batch_size], mask[start:start + batch_size].copy()
        od, left = order[start:start + batch_size], m.sum(axis=1)
        for t in range(left.max(initial=0)):
            rows = np.flatnonzero(left > t)
            f = od[rows, t]
            asked = {}
            for state, j in zip(map(tuple, np.where(m[rows], -1, o[rows]).tolist()), f.tolist()):
                asked.setdefault(state, set()).add(j)
            q = max(map(len, asked.values()))
            calls.append(sorted((state, tuple(sorted(js)) + (min(js),) * (q - len(js)))
                                for state, js in asked.items()))
            m[rows, f] = False
    return calls


class TestSingleHeadPathMatchesOracle:
    """generate and impute give the tokens of the row-by-row reference
    sampler, which draws the same numbers and runs a taped all-heads forward
    per row and step."""

    @pytest.mark.parametrize("condition", [{}, {2: 1}, {0: 3, 3: 5}])
    def test_generate(self, condition):
        m = mixed_model()
        temps = (1.0, 0.7, 1e-8, 2.0)
        spec = GenerationSpec(count=70, temps=temps, condition=condition,
                              seed=9, batch_size=32)
        want = generate_oracle(m, list(temps), condition, 70, 9)
        assert np.array_equal(generate(m, spec).tokens, want)

    def test_generate_trained(self, trained_toy_model):
        out = generate(trained_toy_model, GenerationSpec(count=300, seed=12))
        want = generate_oracle(trained_toy_model, [1.0, 1.0], {}, 300, 12)
        assert np.array_equal(out.tokens, want)

    def test_impute(self):
        m = mixed_model()
        rng = np.random.default_rng(5)
        tokens = np.stack([rng.integers(0, k, 90) for k in m.cardinalities], axis=1)
        missing = rng.random(tokens.shape) < 0.4
        tokens[missing] = np.array(m.cardinalities)[np.nonzero(missing)[1]]
        tt = TokenTable(schema=None, tokens=tokens, missing=missing)
        temps = [1.0, 0.5, 1.0, 3.0]
        out = impute(m, tt, temps=temps, seed=2, batch_size=40)
        want = impute_oracle(m, tt, temps, seed=2)
        assert np.array_equal(out.tokens, want)

    def test_tokens_do_not_depend_on_batch_size(self):
        # A row's draws are its own, so batching changes only which rows
        # share a forward.
        m = mixed_model()
        temps = (1.0, 0.7, 1e-8, 2.0)
        outs = {bs: generate(m, GenerationSpec(count=90, temps=temps, seed=4,
                                                batch_size=bs)).tokens
                for bs in (1, 7, 32, 512)}
        assert all(np.array_equal(o, outs[512]) for o in outs.values())
        tt = sparse_table(m, 90, seed=8)
        outs = [impute(m, tt, temps=temps, seed=4, batch_size=bs).tokens for bs in (1, 13, 512)]
        assert all(np.array_equal(o, outs[-1]) for o in outs)


class TestOneRuleMatchesPerPairSampler:
    """generate and impute give the tokens, byte for byte, of the sampler
    that ran one encoder row per distinct (row state, field) pair and drew
    rows of one width together (``conftest.per_pair_sampler``)."""

    @pytest.mark.parametrize("batch_size", [1, 7, 512])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_generate_and_impute(self, dtype, batch_size):
        # Six mixed fields, one of them 1,000-way, on a model whose config
        # sets dropout, which the sampler's inference mode turns off.
        model, tokens, missing, _ = mixed_case(6, seed=31, dtype=dtype, n=60)
        m = model()
        table = TokenTable(schema=None, tokens=tokens, missing=missing)
        for temps in ((1e-8,) * 6, (1.0, 0.4, 1e-8, 2.5, 1.0, ARGMAX_TAU)):
            for condition in ({}, {3: 417, 0: 1}):
                spec = GenerationSpec(count=60, temps=temps, condition=condition, seed=5,
                                      batch_size=batch_size)
                got = generate(m, spec).tokens
                with per_pair_sampler():
                    want = generate(m, spec).tokens
                assert got.tobytes() == want.tobytes(), (temps, condition)
            got = impute(m, table, temps=temps, seed=6, batch_size=batch_size).tokens
            with per_pair_sampler():
                want = impute(m, table, temps=temps, seed=6, batch_size=batch_size).tokens
            assert got.tobytes() == want.tobytes(), temps

    def test_trained(self, trained_toy_model):
        spec = GenerationSpec(count=400, seed=12, batch_size=64)
        got = generate(trained_toy_model, spec).tokens
        with per_pair_sampler():
            want = generate(trained_toy_model, spec).tokens
        assert got.tobytes() == want.tobytes()


class TestRowStateDedup:
    """Each step runs one encoder row per distinct row state, with the last
    block at the distinct fields that state's rows ask for."""

    def test_generate_first_step_runs_one_row(self):
        m = mixed_model()
        count, bs = 150, 64
        spec = GenerationSpec(count=count, temps=(1.0, 0.7, 1.0, 2.0), seed=3,
                              batch_size=bs)
        with count_forward_rows() as calls:
            generate(m, spec)
        order, _ = _draws(np.random.default_rng(3), np.ones((count, m.n_fields), bool))
        firsts = [c for c in calls if c[0] == 1]
        assert len(firsts) == 3
        for (rows, (asked,)), start in zip(firsts, range(0, count, bs)):
            assert asked == tuple(np.unique(order[start:start + bs, 0]).tolist())

    def test_generate_rows_equal_distinct_states(self):
        m = mixed_model()
        for seed, bs, condition in ((0, 512, {}), (1, 40, {1: 3}), (2, 7, {})):
            spec = GenerationSpec(count=100, temps=(1.0, 0.7, 1.0, 2.0), seed=seed,
                                  condition=condition, batch_size=bs)
            with step_forwards() as calls:
                out = generate(m, spec).tokens
            mask = np.ones(out.shape, dtype=bool)
            mask[:, list(condition)] = False
            assert calls == expected_calls(out, mask, seed, bs)

    def test_impute_runs_masked_rows_once_per_state(self):
        m = mixed_model()
        tt = sparse_table(m, 90, seed=5)
        with step_forwards() as calls:
            out = impute(m, tt, seed=2, batch_size=40).tokens
        assert calls == expected_calls(out, tt.missing, 2, 40)
        # The first step already shares states: fewer rows than cells.
        assert sum(map(len, calls)) < tt.missing.sum()

    def test_conditioned_generate_shares_first_step(self):
        # At argmax temperatures a row's state after t steps depends only
        # on its first t fields. 3 free fields give 3 first fields and 6
        # orders, so the second step has at most 3 states, the third at
        # most 6, and the output at most 6 distinct rows.
        m = mixed_model()
        spec = GenerationSpec(count=100, temps=(1e-8,) * 4, condition={2: 1}, seed=0)
        with count_forward_rows() as calls:
            out = generate(m, spec).tokens
        rows = [rows for rows, _ in calls]
        assert len(rows) == 3 and rows[0] == 1 and rows[1] <= 3 and rows[2] <= 6
        assert len(np.unique(out, axis=0)) <= 6 and np.all(out[:, 2] == 1)

    def test_float64_matches_oracle_and_full_batch_logits(self, monkeypatch):
        m = mixed_model("float64")
        temps = [1.0, 0.7, 1e-8, 2.0]
        for condition in ({}, {2: 1}):
            spec = GenerationSpec(count=70, temps=tuple(temps), condition=condition,
                                  seed=9, batch_size=32)
            want = generate_oracle(m, temps, condition, 70, 9)
            assert np.array_equal(generate(m, spec).tokens, want)
        tt = sparse_table(m, 90, seed=6)
        want = impute_oracle(m, tt, temps, seed=2)
        assert np.array_equal(impute(m, tt, temps=temps, seed=2, batch_size=40).tokens,
                              want)
        # One step on 200 rows in at most 12 states: its forward's logits
        # match the full forward of each state, and each row draws from its
        # own state's logits for its own field.
        pool = sparse_table(m, 12, seed=7)
        rng = np.random.default_rng(8)
        pick = rng.integers(0, 12, 200)
        tokens, mask = pool.tokens[pick], pool.missing[pick]
        fields, u = rng.integers(0, m.n_fields, 200), rng.random(200)
        forwards = []
        full_forward = TabMTModel.forward

        def recorded(self, tokens, mask, rng=None, fields=None, weights=None):
            out = full_forward(self, tokens, mask, rng, fields, weights)
            forwards.append((tokens, mask, fields, [t.data for t in out]))
            return out

        monkeypatch.setattr(TabMTModel, "forward", recorded)
        with m.inference():
            got = _step(m, tokens, mask, fields, np.asarray(temps), u, m.tied_weights())
        ((src_tokens, src_mask, at, outs),) = forwards
        assert len(src_tokens) == distinct_states(tokens, mask) == distinct_states(src_tokens,
                                                                                   src_mask)
        full = [[t.data[0] for t in full_forward(m, src_tokens[s:s + 1], src_mask[s:s + 1])]
                for s in range(len(src_tokens))]
        for j, out in zip(np.unique(at), outs):
            owners = np.flatnonzero(at.ravel() == j) // at.shape[1]
            assert len(out) == len(owners)
            for logits, s in zip(out, owners):
                assert full[s][j].dtype == np.float64
                np.testing.assert_allclose(logits, full[s][j], rtol=0, atol=1e-12)
        states = np.where(src_mask, -1, src_tokens)
        for i, j in enumerate(fields):
            s = np.flatnonzero((states == np.where(mask[i], -1, tokens[i])).all(axis=1))[0]
            assert got[i] == sample_row_oracle(full[s][j], temps[j], u[i])


def order_revealing(original):
    """``TabMTModel.forward`` whose logits put the argmax of every head at
    the number of cells already unmasked in the call's first row: at argmax
    temperatures, generating from an unconditioned all-masked table then
    writes into each cell the step at which its row sampled it. Every row
    of a generation step has the same number of cells unmasked."""
    def forward(self, tokens, mask, *args, **kwargs):
        t = int((~np.asarray(mask)[0]).sum())
        return [Tensor(np.where(np.arange(o.shape[1]) == t, 50.0, 0.0)
                       * np.ones((o.shape[0], 1)))
                for o in original(self, tokens, mask, *args, **kwargs)]
    return forward


@pytest.fixture
def revealed_orders(monkeypatch):
    """Each generated row's unmasking order, from an order-revealing forward
    on four 4-way fields at argmax temperatures."""
    m = TabMTModel([fit_categorical(list("abcd"))] * 4,
                   ModelConfig(width=8, depth=1, heads=2), seed=0)
    monkeypatch.setattr(TabMTModel, "forward", order_revealing(TabMTModel.forward))

    def orders(count, seed, batch_size=512):
        spec = GenerationSpec(count=count, temps=(1e-8,) * 4, seed=seed,
                              batch_size=batch_size)
        return np.argsort(generate(m, spec).tokens, axis=1, kind="stable")
    return orders


class TestImputeKeepsObservedCells:
    def test_encode_impute_decode_writes_observed_cells_as_parsed(self):
        schema = TableSchema(fields=(
            FieldSchema(name="x", kind=CONTINUOUS, max_bins=8),
            FieldSchema(name="y", kind=CATEGORICAL),
        ))
        rng = np.random.default_rng(0)
        train = RawTable.from_rows(schema, [[float(v), "pos" if v > 0 else "neg"]
                                               for v in rng.normal(size=300)])
        codecs = [fit_continuous(train.column(0), 8), fit_categorical(train.column(1))]
        assert not {0.123456789, -1.5e-07} & set(codecs[0].centers.tolist())
        model = TabMTModel(codecs, ModelConfig(width=16, depth=1, heads=2), seed=0)
        sparse = RawTable.from_rows(schema, [[0.123456789, MISSING],
                                                [MISSING, "pos"],
                                                [-1.5e-07, "neg"]])
        filled = impute(model, encode_table(sparse, codecs), seed=1)
        out = decode_table(filled, codecs)
        assert out.rows()[0][0] == 0.123456789 and out.rows()[0][1] in ("neg", "pos")
        assert out.rows()[1][0] in codecs[0].centers.tolist() and out.rows()[1][1] == "pos"
        assert out.rows()[2] == [-1.5e-07, "neg"]


class TestOrderDistribution:
    def test_uniform_over_subsets_at_each_step(self):
        rng = np.random.default_rng(0)
        l = 3
        dist = order_distribution_oracle(l, 100_000, rng)
        # step 1: each of the 3 size-2 subsets has probability 1/3
        step1 = dist[1]
        for s in range(1 << l):
            size = bin(s).count("1")
            expected = 1.0 / math.comb(l, size) if size == l - 1 else 0.0
            if size == l - 1:
                assert abs(step1[s] - expected) < 0.01

    def test_start_and_end_states(self):
        rng = np.random.default_rng(1)
        l = 4
        dist = order_distribution_oracle(l, 1000, rng)
        assert dist[0][(1 << l) - 1] == 1.0
        assert dist[l][0] == 1.0

    def test_matches_training_mask_distribution(self):
        # The central train/inference match: size-stratified subset
        # frequencies under uniform-probability masking equal those visited
        # by random-order generation.
        rng = np.random.default_rng(2)
        l, n = 4, 200_000
        gen_dist = order_distribution_oracle(l, n, rng)
        mask = sample_mask(n, l, None, rng)
        bits = mask @ (1 << np.arange(l))
        train_freq = np.bincount(bits, minlength=1 << l) / n
        for t in range(l + 1):
            size = l - t
            subsets = [s for s in range(1 << l) if bin(s).count("1") == size]
            stratum = sum(train_freq[s] for s in subsets)
            for s in subsets:
                cond_train = train_freq[s] / stratum
                assert abs(gen_dist[t][s] - cond_train) < 0.01

    def test_generate_and_impute_follow_field_order(self, revealed_orders):
        # The orders the tests above sample are the ones the sampler unmasks:
        # generate's, read from its tokens, and impute's, from its forwards.
        got = revealed_orders(300, seed=13, batch_size=128)
        want, _ = _draws(np.random.default_rng(13), np.ones((300, 4), bool))
        assert np.array_equal(got, want)
        m = mixed_model()
        tt = sparse_table(m, 30, seed=1, p_missing=0.9)
        assert tt.missing.any(axis=0).all()
        with step_forwards() as calls:
            out = impute(m, tt, seed=14)
        assert calls == expected_calls(out.tokens, tt.missing, 14, 512)
        # One row per state: 9 at the first step, where the (state, field)
        # pairs number 13.
        assert len(calls[0]) == 9

    def test_first_fields_of_two_rows_in_a_batch_are_independent(self, revealed_orders):
        # Pairs of neighbouring rows in one batch: a shared order per batch
        # puts every pair on the diagonal of the 4 x 4 table of first fields.
        first = revealed_orders(2048, seed=21, batch_size=2048)[:, 0]
        table = np.zeros((4, 4))
        np.add.at(table, (first[0::2], first[1::2]), 1)
        assert (table.sum(axis=0) > 0).all() and (table.sum(axis=1) > 0).all(), table
        assert scipy.stats.chi2_contingency(table).pvalue > 0.001
        assert scipy.stats.chisquare(np.bincount(first, minlength=4)).pvalue > 0.001

    def test_fixed_order_visits_only_l_subsets(self):
        # An autoregressive fixed order visits exactly l distinct non-empty
        # masked sets; random order visits them all.
        l = 4
        fixed_subsets = set()
        masked = (1 << l) - 1
        for j in range(l):
            fixed_subsets.add(masked)
            masked &= ~(1 << j)
        assert len(fixed_subsets) == l
        total_nonempty = (1 << l) - 1
        assert len(fixed_subsets) < total_nonempty
