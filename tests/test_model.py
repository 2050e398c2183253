import numpy as np
import pytest

from tabmt import autodiff as ad
from tabmt.codec import fit_categorical, fit_continuous
from tabmt.model import (
    CategoricalEmbedding,
    ModelConfig,
    OrderedEmbedding,
    TabMTModel,
)
from tabmt.optim import AdamW
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
        assert all(not t.requires_grad and t._parents == () for t in logits)
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
        made = []
        make = ad._make

        def recording_make(data, parents, backward):
            out = make(data, parents, backward)
            made.append(out)
            return out

        monkeypatch.setattr(ad, "_make", recording_make)
        rng = np.random.default_rng(0)
        tokens = np.stack([rng.integers(0, k, 32) for k in m.cardinalities], axis=1)
        m.training = True
        training_step(m, tokens, np.zeros(tokens.shape, dtype=bool), rng)
        assert made
        assert {t.dtype for t in made} == {np.dtype(dtype)}
        assert {t.grad.dtype for t in made if t.grad is not None} == {np.dtype(dtype)}
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
            (one,) = m.forward(tokens, mask, fields=(j,))
            assert np.array_equal(one.data, full[j].data)

    def test_embed_rows_masks_missing_cells(self):
        m = small_model()
        tokens = np.array([[0, 1, 1], [2, 0, 0]])
        missing = np.array([[False, False, False], [False, True, False]])
        sentinel = tokens.copy()
        sentinel[missing] = 4  # one past the continuous field's vocabulary
        got = m.embed_rows(sentinel, missing)
        h = m._hidden(tokens, missing, None).data.mean(axis=1)
        assert np.array_equal(got, h)
