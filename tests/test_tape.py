"""The lean tape: a closure keeps only the arrays its backward reads, and
``Tensor.backward`` releases each node once it has run, without changing a
gradient bit."""

import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import backward_retaining
from tabmt import autodiff as ad
from tabmt.autodiff import Parameter, Tensor
from tabmt.codec import fit_categorical, fit_continuous
from tabmt.model import ModelConfig, TabMTModel
from tabmt.training import training_step

# wide-16's layout: six 100-bin continuous fields, small categoricals, a
# 4-way target and a 1,000-way field.
WIDE_FIELDS = ("c", 2, "c", 3, "c", 4, "c", 5, 4, "c", 6, "c", 7, 8, 1000, 2)


def codecs_for(fields, seed):
    rng = np.random.default_rng(seed)
    return [fit_continuous(rng.normal(size=400).tolist(), max_bins=100) if f == "c"
            else fit_categorical([f"v{i}" for i in range(f)]) for f in fields]


def batch_for(codecs, n, seed):
    """Tokens with about a tenth of the cells blank (holding the sentinel)."""
    rng = np.random.default_rng(seed)
    cards = np.array([c.cardinality for c in codecs])
    tokens = (rng.random((n, len(codecs))) * cards).astype(np.int64)
    missing = rng.random(tokens.shape) < 0.1
    tokens[missing] = np.broadcast_to(cards, tokens.shape)[missing]
    return tokens, missing


def step_grads(fields, cfg, n, seed):
    codecs = codecs_for(fields, seed)
    m = TabMTModel(codecs, cfg, seed=seed)
    tokens, missing = batch_for(codecs, n, seed)
    m.training = True
    loss = training_step(m, tokens, missing, np.random.default_rng(seed))
    assert all(p.grad is not None for p in m.parameters())
    return loss, [(name, p.grad.tobytes()) for name, p in m.named_parameters()]


CASES = {1: (1000,), 3: ("c", 5, 1000), 16: WIDE_FIELDS}


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("l", sorted(CASES))
def test_gradients_equal_a_walk_that_keeps_every_node(monkeypatch, l, dtype):
    cfg = ModelConfig(width=16, depth=2, heads=2, dropout=0.1, drop_path=0.1, dtype=dtype)
    got = step_grads(CASES[l], cfg, 96, seed=l)
    monkeypatch.setattr(ad.Tensor, "backward", backward_retaining)
    want = step_grads(CASES[l], cfg, 96, seed=l)
    assert got == want


def small_graph_over(w):
    h = ad.gelu(ad.matmul(Tensor(np.ones((4, 2))), w))
    return ad.scale(ad.add(h, h), 0.5)


def small_graph():
    w = Parameter(np.arange(6.0).reshape(2, 3))
    return w, small_graph_over(w)


def loss_of(y):
    n, k = y.shape
    return ad.cross_entropy_sum(y, np.arange(n) % k, np.ones(n, dtype=bool))[0]


class TestWalk:
    def test_second_backward_raises(self):
        w, y = small_graph()
        loss = loss_of(y)
        loss.backward()
        first = w.grad.copy()
        with pytest.raises(RuntimeError, match="already walked"):
            loss.backward()
        assert np.array_equal(w.grad, first)

    def test_backward_through_a_walked_subgraph_raises(self):
        w, y = small_graph()
        loss_of(y).backward()
        with pytest.raises(RuntimeError, match="already walked"):
            ad.scale(loss_of(y), 2.0).backward()

    def test_nodes_are_released_and_leaves_keep_their_gradient(self):
        w, y = small_graph()
        loss = loss_of(y)
        loss.backward()
        for node in (loss.node, y.node):
            assert node.grad is None and node.parents == ()
        assert w.grad is not None and w.node.parents == () and w.node.backward is None

    def test_a_fresh_forward_walks_again(self):
        w, y = small_graph()
        loss_of(y).backward()
        first, w.grad = w.grad.copy(), None
        loss_of(small_graph_over(w)).backward()
        assert np.array_equal(w.grad, first)


class TestKeptArrays:
    def test_output_read_only_by_shape_ops_is_freed_in_the_forward(self):
        w = Parameter(np.ones((3, 4)))
        h = ad.matmul(Tensor(np.ones((5, 3))), w)
        ref = weakref.ref(h.data)
        y = ad.reshape(ad.scale(ad.add(h, h), 2.0), (4, 5))
        del h
        assert ref() is None
        loss_of(ad.layer_norm(y, Parameter(np.ones(5)), Parameter(np.zeros(5)))).backward()
        assert w.grad.shape == (3, 4)

    def test_mul_keeps_only_the_input_the_other_gradient_reads(self):
        a = Parameter(np.ones((2, 3)))
        x = ad.add(a, a)
        mask = Tensor(np.full((2, 3), 2.0))
        ref_x, ref_mask = weakref.ref(x.data), weakref.ref(mask.data)
        y = ad.mul(x, mask)
        del x, mask
        assert ref_x() is None and ref_mask() is not None
        loss_of(ad.reshape(y, (3, 2))).backward()
        assert a.grad.shape == (2, 3) and np.abs(a.grad).max() > 0

    def test_ffn_keeps_its_input_and_h_not_the_activation_or_tanh(self, monkeypatch):
        refs = {"h": [], "act": [], "tanh": []}
        gelu_block = ad._gelu_block

        def recording(xb, out, t, u):
            for name, a in (("h", xb), ("act", out), ("tanh", t)):
                refs[name].append(weakref.ref(a.base))
            gelu_block(xb, out, t, u)

        monkeypatch.setattr(ad, "_gelu_block", recording)
        rng = np.random.default_rng(0)
        w1, b1, w2, b2 = (Parameter(rng.standard_normal(s))
                          for s in [(3, 8), (8,), (8, 3), (3,)])
        x = ad.add(Parameter(rng.standard_normal((5, 3))), 1.0)
        ref_x = weakref.ref(x.data)
        y = ad.ffn(x, w1, b1, w2, b2)
        del x
        alive = {name: [r() is not None for r in rs] for name, rs in refs.items()}
        assert alive == {"h": [True], "act": [False], "tanh": [False]}
        assert ref_x() is not None
        loss_of(y).backward()
        assert refs["h"][0]() is None and ref_x() is None
        assert all(p.grad is not None for p in (w1, b1, w2, b2))

    def test_softmax_keeps_its_output_not_its_input(self):
        a = Parameter(np.ones((2, 3)))
        x = ad.add(a, a)
        ref = weakref.ref(x.data)
        y = ad.softmax(x)
        del x
        assert ref() is None
        loss_of(ad.reshape(y, (3, 2))).backward()


def step_peak_mib(cfg, n):
    codecs = codecs_for(WIDE_FIELDS, seed=0)
    m = TabMTModel(codecs, cfg, seed=0)
    tokens, missing = batch_for(codecs, n, seed=0)
    m.training = True
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        training_step(m, tokens, missing, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def test_wide_training_step_peak_is_at_most_half_the_full_tape():
    """One float32 step at wide-16's shape (n 256, w64 d4, heads 4) peaked at
    246.7 MiB under tracemalloc when every node and every op output lived
    until the step returned; it must peak at no more than half that."""
    peak = step_peak_mib(ModelConfig(width=64, depth=4, heads=4), 256)
    assert peak <= 246.7 / 2


def test_wide_training_step_keeps_no_ffn_activation():
    """The same step peaked at 93.0 MiB when each block's tape kept GELU's
    input, its tanh and the activation fed to w2 (4 MiB each); with ``ad.ffn``
    keeping the input and h only, it must peak at no more than 70 MiB."""
    assert step_peak_mib(ModelConfig(width=64, depth=4, heads=4), 256) <= 70
