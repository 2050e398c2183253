import math

import numpy as np
import pytest

from conftest import make_toy_tokens, toy_codecs, train_toy
from tabmt.codec import fit_categorical
from tabmt.model import ModelConfig, TabMTModel
from tabmt.schema import TokenTable
from tabmt.training import (
    TrainConfig,
    sample_mask,
    train,
    training_step,
    write_loss_history,
)


class TestSampleMask:
    def test_masked_count_uniform(self):
        # Integrating Bernoulli(p) over p ~ U(0,1) makes the masked-count
        # distribution uniform over {0..l}.
        rng = np.random.default_rng(0)
        l = 8
        mask = sample_mask(200_000, l, None, rng)
        counts = np.bincount(mask.sum(axis=1), minlength=l + 1)
        freq = counts / counts.sum()
        assert np.all(np.abs(freq - 1 / (l + 1)) < 0.01)

    def test_single_field(self):
        rng = np.random.default_rng(1)
        mask = sample_mask(100_000, 1, None, rng)
        frac = mask.mean()
        assert abs(frac - 0.5) < 0.01

    def test_missing_always_masked(self):
        rng = np.random.default_rng(2)
        missing = np.zeros((1000, 4), dtype=bool)
        missing[:, 2] = True
        mask = sample_mask(1000, 4, missing, rng)
        assert mask[:, 2].all()

    def test_fixed_order_subset_distribution(self):
        # Brute-force check of the subset law under Bernoulli-mixture
        # masking for l=3: P(mask = s) should depend only on |s|, with the
        # empirically correct constant 1 / (C(l,|s|) * (l+1)).
        rng = np.random.default_rng(3)
        l, n = 3, 1_000_000
        mask = sample_mask(n, l, None, rng)
        bits = mask @ (1 << np.arange(l))
        freq = np.bincount(bits, minlength=1 << l) / n
        for s in range(1 << l):
            size = bin(s).count("1")
            expected = 1.0 / (math.comb(l, size) * (l + 1))
            assert abs(freq[s] - expected) < 0.005


class TestTrainingStep:
    def test_loss_at_init_near_log_k(self):
        codecs = [fit_categorical(list("abcd")), fit_categorical(list("pqrs"))]
        m = TabMTModel(codecs, ModelConfig(width=16, depth=1, heads=2), seed=0)
        rng = np.random.default_rng(0)
        tokens = rng.integers(0, 4, (512, 2))
        missing = np.zeros((512, 2), dtype=bool)
        losses = [training_step(m, tokens, missing, rng) for _ in range(20)]
        assert abs(np.mean(losses) - math.log(4)) < 0.25

    def test_missing_cells_excluded_from_loss(self):
        codecs = toy_codecs()
        m = TabMTModel(codecs, ModelConfig(width=16, depth=1, heads=2), seed=0)
        tokens = np.array([[0, 1], [1, 2]])
        missing = np.array([[False, True], [False, True]])
        corrupt = tokens.copy()
        corrupt[:, 1] = 3  # garbage at missing cells
        losses_a = [training_step(m, tokens, missing, np.random.default_rng(s))
                    for s in range(10)]
        losses_b = [training_step(m, corrupt, missing, np.random.default_rng(s))
                    for s in range(10)]
        assert losses_a == losses_b

    def test_all_unmasked_gives_zero_loss(self):
        codecs = toy_codecs()
        m = TabMTModel(codecs, ModelConfig(width=16, depth=1, heads=2), seed=0)

        class NeverMaskRng:
            def random(self, shape):
                # p draw -> 0, cell draws -> 1: nothing is masked
                if shape[-1] == 1:
                    return np.zeros(shape)
                return np.ones(shape)

        loss = training_step(m, np.array([[0, 1]]), np.zeros((1, 2), dtype=bool),
                             NeverMaskRng())
        assert loss == 0.0


class TestTrain:
    def test_deterministic_history(self):
        tokens = make_toy_tokens("deterministic", n=500)
        cfg = TrainConfig(batch_size=64, max_steps=30, warmup_steps=5, seed=9)
        m1 = TabMTModel(toy_codecs(), ModelConfig(width=16, depth=1, heads=2), seed=9)
        h1 = train(m1, tokens, cfg)
        m2 = TabMTModel(toy_codecs(), ModelConfig(width=16, depth=1, heads=2), seed=9)
        h2 = train(m2, tokens, cfg)
        assert h1 == h2

    def test_loss_decreases(self):
        tokens = make_toy_tokens("deterministic", n=2000)
        m = TabMTModel(toy_codecs(), ModelConfig(width=32, depth=2, heads=4), seed=0)
        hist = train(m, tokens, TrainConfig(batch_size=128, max_steps=300,
                                            warmup_steps=30, seed=0))
        losses = [h[2] for h in hist]
        head = np.median(losses[: len(losses) // 10])
        tail = np.median(losses[-len(losses) // 10:])
        assert tail < head

    def test_lr_zero_flat(self):
        tokens = make_toy_tokens("deterministic", n=200)
        m = TabMTModel(toy_codecs(), ModelConfig(width=16, depth=1, heads=2), seed=0)
        before = [p.data.copy() for p in m.parameters()]
        train(m, tokens, TrainConfig(batch_size=32, max_steps=10, warmup_steps=1,
                                     peak_lr=0.0, weight_decay=0.0, seed=0))
        after = [p.data for p in m.parameters()]
        for b, a in zip(before, after):
            assert np.allclose(b, a)

    @pytest.mark.parametrize("field", ["peak_lr", "weight_decay"])
    @pytest.mark.parametrize("v", [-1.0, -1e-9, float("nan"), float("inf")])
    def test_negative_or_non_finite_rate_rejected(self, field, v):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: v})

    def test_zero_rates_accepted(self):
        cfg = TrainConfig(peak_lr=0.0, weight_decay=0.0)
        assert cfg.peak_lr == cfg.weight_decay == 0.0

    def test_empty_table_errors(self):
        m = TabMTModel(toy_codecs(), ModelConfig(width=16, depth=1, heads=2), seed=0)
        empty = TokenTable(schema=None, tokens=np.zeros((0, 2), dtype=int))
        with pytest.raises(ValueError):
            train(m, empty, TrainConfig(max_steps=5, warmup_steps=1))

    def test_deterministic_conditional_learned(self, trained_toy_model,
                                               toy_deterministic):
        # B == A is deterministic, so a converged model should predict a
        # masked B from A nearly perfectly.
        m = trained_toy_model
        tokens = toy_deterministic.tokens[:2000]
        mask = np.zeros_like(tokens, dtype=bool)
        mask[:, 1] = True
        logits = m.forward(tokens, mask)[1].data
        acc = (np.argmax(logits, axis=1) == tokens[:, 1]).mean()
        assert acc > 0.99

    def test_loss_csv(self, tmp_path):
        hist = [(0, 0.001, 1.5), (1, 0.002, 1.25)]
        path = tmp_path / "loss.csv"
        write_loss_history(hist, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,lr,loss"
        assert len(lines) == 3


class TestMissingDataRobustness:
    def test_training_with_missing_values(self):
        # 25% of cells dropped; the deterministic conditional should still
        # be learned (loss on the B-given-A component low).
        tokens = make_toy_tokens("deterministic", n=3000)
        rng = np.random.default_rng(0)
        missing = rng.random(tokens.tokens.shape) < 0.25
        tt = TokenTable(schema=None, tokens=tokens.tokens, missing=missing)
        m = TabMTModel(toy_codecs(), ModelConfig(width=32, depth=2, heads=4), seed=0)
        train(m, tt, TrainConfig(batch_size=128, max_steps=400, warmup_steps=40,
                                 seed=0))
        probe = make_toy_tokens("deterministic", n=1000, seed=77)
        mask = np.zeros_like(probe.tokens, dtype=bool)
        mask[:, 1] = True
        logits = m.forward(probe.tokens, mask)[1].data
        acc = (np.argmax(logits, axis=1) == probe.tokens[:, 1]).mean()
        assert acc > 0.95
