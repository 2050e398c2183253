import numpy as np
import pytest

from conftest import PRUNED_ATOL, mixed_case, per_field_hidden
from tabmt import autodiff as ad
from tabmt.codec import fit_categorical, fit_continuous
from tabmt.model import (
    CategoricalEmbedding,
    ModelConfig,
    OrderedEmbedding,
    TabMTModel,
)
from tabmt.generation import GenerationSpec, generate, impute
from tabmt.optim import AdamW
from tabmt.schema import TokenTable
from tabmt.training import training_step


def small_codecs():
    return [
        fit_categorical(list("abc")),
        fit_continuous([0.0, 1.0, 2.0, 3.0], max_bins=4),
        fit_categorical(list("xy")),
    ]


def small_model(width=16, depth=2, heads=2, seed=1, dtype="float64"):
    return TabMTModel(small_codecs(), ModelConfig(width=width, depth=depth,
                                                  heads=heads, dtype=dtype),
                      seed=seed)


class TestOrderedEmbedding:
    def test_endpoint_rows_at_init(self):
        rng = np.random.default_rng(0)
        emb = OrderedEmbedding(np.array([0.0, 1.0]), 8, rng, np.float64)
        w = emb.weight().data
        assert np.allclose(w[0], emb.h_vec.data)
        assert np.allclose(w[1], emb.l_vec.data)

    def test_affine_midpoint(self):
        rng = np.random.default_rng(0)
        emb = OrderedEmbedding(np.array([0.0, 0.5, 1.0]), 8, rng, np.float64)
        w = emb.weight().data
        assert np.allclose(w[1], (emb.l_vec.data + emb.h_vec.data) / 2)

    def test_residual_additivity(self):
        rng = np.random.default_rng(0)
        emb = OrderedEmbedding(np.array([0.0, 0.5, 1.0]), 8, rng, np.float64)
        before = emb.weight().data.copy()
        delta = np.full(8, 0.25)
        emb.E.data[2] += delta
        after = emb.weight().data
        assert np.allclose(after[2] - before[2], delta)
        assert np.allclose(after[:2], before[:2])

    def test_zero_init_residual(self):
        rng = np.random.default_rng(0)
        emb = OrderedEmbedding(np.array([0.0, 0.5, 1.0]), 8, rng, np.float64)
        assert np.all(emb.E.data == 0.0)


class TestModelForward:
    def test_width_head_divisibility(self):
        with pytest.raises(ValueError):
            ModelConfig(width=65, heads=4)

    @pytest.mark.parametrize("field", ["width", "depth", "heads"])
    @pytest.mark.parametrize("v", [0, -1])
    def test_topology_below_one_rejected(self, field, v):
        with pytest.raises(ValueError, match=field):
            ModelConfig(**{field: v})

    @pytest.mark.parametrize("field", ["dropout", "drop_path"])
    @pytest.mark.parametrize("p", [1.0, 1.5, -0.5, float("nan")])
    def test_drop_rate_outside_unit_interval(self, field, p):
        with pytest.raises(ValueError, match=field):
            ModelConfig(**{field: p})

    @pytest.mark.parametrize("p", [0.0, 0.5, 0.999])
    def test_drop_rate_inside_unit_interval(self, p):
        assert ModelConfig(dropout=p, drop_path=p).dropout == p

    def test_near_uniform_at_init_all_masked(self):
        # Fresh models with everything masked should emit near-uniform
        # distributions; checked statistically over 10 seeds.
        worst = []
        for seed in range(10):
            m = small_model(seed=seed)
            tokens = np.zeros((4, 3), dtype=int)
            mask = np.ones((4, 3), dtype=bool)
            logits = m.forward(tokens, mask)
            for j, lg in enumerate(logits):
                z = lg.data - lg.data.max(axis=1, keepdims=True)
                p = np.exp(z)
                p /= p.sum(axis=1, keepdims=True)
                k = m.cardinalities[j]
                worst.append(p.max() * k / 2.0)
        assert np.mean(np.array(worst) < 1.0) > 0.9

    def test_identical_rows_identical_logits(self):
        m = small_model()
        tokens = np.tile([[0, 1, 1]], (5, 1))
        mask = np.tile([[True, False, True]], (5, 1))
        logits = m.forward(tokens, mask)
        for lg in logits:
            assert np.allclose(lg.data, lg.data[0], atol=1e-6)

    def test_row_permutation_equivariance(self):
        m = small_model()
        rng = np.random.default_rng(3)
        tokens = rng.integers(0, 2, (6, 3))
        mask = rng.random((6, 3)) < 0.5
        perm = rng.permutation(6)
        base = m.forward(tokens, mask)
        permed = m.forward(tokens[perm], mask[perm])
        for lg_b, lg_p in zip(base, permed):
            assert np.allclose(lg_b.data[perm], lg_p.data)

    def test_masked_input_independence(self):
        m = small_model()
        tokens = np.array([[0, 1, 1]])
        mask = np.array([[True, False, False]])
        a = m.forward(tokens, mask)
        tokens2 = np.array([[2, 1, 1]])  # change only the masked cell
        b = m.forward(tokens2, mask)
        for lg_a, lg_b in zip(a, b):
            assert np.array_equal(lg_a.data, lg_b.data)

    def test_out_of_range_unmasked_token_errors(self):
        m = small_model()
        tokens = np.array([[9, 0, 0]])
        mask = np.zeros((1, 3), dtype=bool)
        with pytest.raises(ValueError, match="out of range"):
            m.forward(tokens, mask)

    def test_learned_temp_scales_logits_exactly(self):
        m = small_model()
        tokens = np.array([[0, 1, 1]])
        mask = np.array([[True, False, False]])
        base = m.forward(tokens, mask)[0].data.copy()
        head = m.heads[0]
        old_sig = 1.0 / (1.0 + np.exp(-head.temp.data[0]))
        head.temp.data[0] = 2.0
        new_sig = 1.0 / (1.0 + np.exp(-2.0))
        scaled = m.forward(tokens, mask)[0].data
        assert np.allclose(scaled * new_sig, base * old_sig, atol=1e-10)
        assert np.argmax(scaled) == np.argmax(base)


class TestWeightTying:
    def test_head_and_embedding_share_storage(self):
        m = small_model()
        for head, emb in zip(m.heads, m.embeddings):
            assert head.embedding is emb

    def test_tying_survives_optimizer_steps(self):
        m = small_model(dtype="float32")
        rng = np.random.default_rng(0)
        opt = AdamW(m.parameters(), lr=1e-3)
        tokens = rng.integers(0, 2, (16, 3))
        missing = np.zeros((16, 3), dtype=bool)
        m.training = True
        for _ in range(100):
            opt.zero_grad()
            training_step(m, tokens, missing, rng)
            opt.step()
        m.training = False
        for head, emb in zip(m.heads, m.embeddings):
            w_emb = emb.weight().data
            # Reconstruct the weight the head will use on its next forward.
            w_head = head.embedding.weight().data
            assert np.array_equal(w_emb, w_head)

    def test_gradient_reaches_unordered_residual(self):
        # Separating two adjacent quantization bins requires the residual E.
        codec = fit_continuous([0.0, 1.0], max_bins=2)
        m = TabMTModel([codec, fit_categorical(list("pq"))],
                       ModelConfig(width=16, depth=1, heads=2, dtype="float64"),
                       seed=0)
        tokens = np.array([[0, 0], [1, 1]] * 8)
        mask = np.tile([False, True], (16, 1))
        logits = m.forward(tokens, mask)
        loss, count = ad.cross_entropy_sum(logits[1], tokens[:, 1],
                                           np.ones(16, dtype=bool))
        loss.backward()
        emb = m.embeddings[0]
        assert emb.E.grad is not None
        assert np.abs(emb.E.grad).max() > 0


class TestEmbedRows:
    def test_dimensions(self, trained_toy_model):
        tokens = np.array([[0, 0], [1, 1]])
        emb = trained_toy_model.embed_rows(tokens)
        assert emb.shape == (2, 32)
        assert np.all(np.isfinite(emb))

    def test_identical_rows_identical_embeddings(self, trained_toy_model):
        tokens = np.array([[2, 2], [2, 2]])
        emb = trained_toy_model.embed_rows(tokens)
        assert np.array_equal(emb[0], emb[1])

    def test_width_64_embedding(self):
        codecs = [fit_categorical(list("ab")), fit_categorical(list("cd"))]
        m = TabMTModel(codecs, ModelConfig(width=64, depth=1, heads=4), seed=0)
        emb = m.embed_rows(np.array([[0, 1]]))
        assert emb.shape == (1, 64)


class TestInferenceContext:
    @pytest.mark.parametrize("training", [False, True])
    def test_no_tape_training_off_and_restored(self, training):
        m = small_model()
        m.training = training
        tokens, mask = np.array([[0, 1, 1]]), np.zeros((1, 3), dtype=bool)
        with m.inference():
            assert m.training is False
            logits = m.forward(tokens, mask)
        assert all(not t.requires_grad and t.node is None for t in logits)
        assert m.training is training
        assert m.forward(tokens, mask)[0].requires_grad

    def test_restored_after_exception(self):
        m = small_model()
        m.training = True
        with pytest.raises(ValueError):
            with m.inference():
                m.embed_rows(np.array([[0, 0]]))  # wrong field count
        assert m.training is True
        assert m.forward(np.array([[0, 1, 1]]), np.zeros((1, 3), dtype=bool))[0].requires_grad


class TestComputeDtype:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_training_step_stays_in_model_dtype(self, monkeypatch, dtype):
        m = TabMTModel(small_codecs(), ModelConfig(width=16, depth=2, heads=2,
                                                   dropout=0.1, drop_path=0.1,
                                                   dtype=dtype), seed=2)
        made, grads = [], []
        make, accum = ad._make, ad._accum

        def recording_make(data, parents, backward):
            out = make(data, parents, backward)
            made.append(out)
            return out

        # Backward releases every op output's gradient, so each gradient is
        # recorded as it arrives and after it is summed into its node.
        def recording_accum(node, g):
            accum(node, g)
            grads.extend((g.dtype, node.grad.dtype))

        monkeypatch.setattr(ad, "_make", recording_make)
        monkeypatch.setattr(ad, "_accum", recording_accum)
        rng = np.random.default_rng(0)
        tokens = np.stack([rng.integers(0, k, 32) for k in m.cardinalities], axis=1)
        m.training = True
        training_step(m, tokens, np.zeros(tokens.shape, dtype=bool), rng)
        assert made and grads
        assert {t.dtype for t in made} == {np.dtype(dtype)}
        assert set(grads) == {np.dtype(dtype)}
        for name, p in m.named_parameters():
            assert p.grad is not None, name
            assert p.grad.dtype == dtype, name


class TestFieldSubset:
    def test_single_field_logits_equal_full_forward(self):
        m = small_model(dtype="float64")
        rng = np.random.default_rng(3)
        tokens = np.stack([rng.integers(0, k, 12) for k in m.cardinalities], axis=1)
        mask = rng.random(tokens.shape) < 0.5
        full = m.forward(tokens, mask)
        for j in range(m.n_fields):
            (one,) = m.forward(tokens, mask, fields=np.full((12, 1), j))
            np.testing.assert_allclose(one.data, full[j].data, rtol=0,
                                       atol=PRUNED_ATOL["float64"])

    def test_embed_rows_masks_missing_cells(self):
        m = small_model()
        tokens = np.array([[0, 1, 1], [2, 0, 0]])
        missing = np.array([[False, False, False], [False, True, False]])
        sentinel = tokens.copy()
        sentinel[missing] = 4  # one past the continuous field's vocabulary
        got = m.embed_rows(sentinel, missing)
        h = m._hidden(tokens, missing, None).data.mean(axis=1)
        assert np.array_equal(got, h)


def both(fn):
    """``fn()`` on the stacked input side, then on the per-field oracle."""
    new = fn()
    with per_field_hidden():
        old = fn()
    return new, old


MIXED_CASES = [(l, dtype) for l in (1, 2, 3, 4, 9, 16) for dtype in ("float32", "float64")]


class TestMatchesPerFieldHidden:
    """The input side that blends all fields at once gives the per-field
    loop's logits, loss, gradients, embeddings and sampled tokens, bit for
    bit; a single head's logits, whose last block runs at one position
    against the loop's at every position, to ``PRUNED_ATOL``."""

    @pytest.mark.parametrize("l, dtype", MIXED_CASES)
    def test_forward(self, l, dtype):
        model, tokens, _, mask = mixed_case(l, 10 + l, dtype)
        m = model()
        new, old = both(lambda: [t.data.tobytes() for t in m.forward(tokens, mask)])
        assert new == old
        for j in range(l):
            new, old = both(lambda: m.forward(tokens, mask,
                                              fields=np.full((len(tokens), 1), j))[0].data)
            np.testing.assert_allclose(new, old, rtol=0, atol=PRUNED_ATOL[dtype])

    @pytest.mark.parametrize("l, dtype", MIXED_CASES)
    def test_training_step_loss_and_gradients(self, l, dtype):
        model, tokens, missing, _ = mixed_case(l, 20 + l, dtype)

        def step():
            m = model()
            m.training = True
            loss = training_step(m, tokens, missing, np.random.default_rng(5))
            assert all(p.grad is not None for p in m.parameters())
            return loss, [(name, p.grad.tobytes()) for name, p in m.named_parameters()]

        new, old = both(step)
        assert new == old

    @pytest.mark.parametrize("l, dtype", MIXED_CASES)
    def test_embed_rows(self, l, dtype):
        model, tokens, missing, _ = mixed_case(l, 30 + l, dtype)
        m = model()
        new, old = both(lambda: m.embed_rows(tokens, missing).tobytes())
        assert new == old

    @pytest.mark.parametrize("l, dtype", MIXED_CASES)
    def test_generate_and_impute(self, l, dtype):
        model, tokens, missing, _ = mixed_case(l, 40 + l, dtype)
        m = model()
        temps = tuple(np.linspace(0.5, 2.0, l))
        spec = GenerationSpec(count=40, temps=temps, condition={l - 1: 0}, seed=3,
                              batch_size=16)
        new, old = both(lambda: generate(m, spec).tokens.tobytes())
        assert new == old
        table = TokenTable(schema=None, tokens=tokens, missing=missing)
        new, old = both(lambda: impute(m, table, temps=temps, seed=4,
                                       batch_size=10).tokens.tobytes())
        assert new == old

    @pytest.mark.parametrize("l", [2, 4, 16])
    def test_out_of_range_names_lowest_field(self, l):
        model, tokens, _, mask = mixed_case(l, 50 + l, "float64")
        m = model()
        mask[5] = False
        tokens[5] = 0
        tokens[5, l - 1] = m.cardinalities[l - 1]
        lo = (l - 1) // 2
        tokens[5, lo] = -1
        # A masked cell may hold anything.
        mask[6, 0], tokens[6, 0] = True, -7

        def error():
            with pytest.raises(ValueError, match="out of range") as info:
                m.forward(tokens, mask)
            return str(info.value)

        new, old = both(error)
        assert new == old == f"token out of range at unmasked position, field {lo}"
        # One past the last token is out of range too.
        tokens[5, lo] = 0
        new, old = both(error)
        assert new == old == f"token out of range at unmasked position, field {l - 1}"


class TestEmbedRowsOncePerDistinctRow:
    """``embed_rows`` runs the encoder once per distinct row state and copies
    each state's embedding to its rows, bit for bit what a full batch gives."""

    @pytest.mark.parametrize("l, dtype", MIXED_CASES)
    def test_matches_full_batch(self, l, dtype):
        model, tokens, missing, _ = mixed_case(l, 60 + l, dtype)
        m = model()
        rng = np.random.default_rng(l)
        rows = rng.integers(0, len(tokens), 3 * len(tokens))
        tokens, missing = tokens[rows], missing[rows]
        # A blank cell's token is never read, so it does not split a state.
        tokens[missing] = rng.integers(-3, 1000, int(missing.sum()))
        with m.inference():
            want = m._hidden(tokens, missing, None).data.mean(axis=1)
        calls = []
        hidden = m._hidden
        m._hidden = lambda t, mask, rng: calls.append(len(t)) or hidden(t, mask, rng)
        got = m.embed_rows(tokens, missing)
        assert calls == [len(np.unique(np.where(missing, -1, tokens), axis=0))]
        assert calls[0] < len(tokens)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
