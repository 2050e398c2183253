"""The model's plumbing, where each piece of math is one tape node, gives
what the reshaping plumbing (``conftest.reshaping_plumbing``) gave, bit for
bit, and builds fewer tape nodes.

Attention runs on 4-D products, parameters broadcast as they are, the heads
go through ``ad.linear``, the field lookups are one ``ad.embed`` and each
class's parameter list is read from its attributes. A forward for one head
runs the last block at that head's position only, so its logits match the
reshaping plumbing's, which runs it everywhere, to ``PRUNED_ATOL``."""

import numpy as np
import pytest

from conftest import PRUNED_ATOL, mixed_case, reshaping_plumbing
from tabmt import autodiff as ad
from tabmt.checkpoint import save_checkpoint
from tabmt.generation import GenerationSpec, generate, impute
from tabmt.optim import AdamW
from tabmt.schema import TokenTable
from tabmt.training import training_step

CASES = [(l, dtype, drop) for l in (1, 2, 3, 8, 16) for dtype in ("float32", "float64")
         for drop in (0.0, 0.1)]


def both(fn):
    """``fn()`` on the model's plumbing, then on the reshaping plumbing."""
    new = fn()
    with reshaping_plumbing():
        old = fn()
    return new, old


@pytest.mark.parametrize("l, dtype, drop", CASES)
class TestMatchesReshapingPlumbing:
    def test_forward(self, l, dtype, drop):
        model, tokens, _, mask = mixed_case(l, 70 + l, dtype, drop)
        m = model()
        new, old = both(lambda: [t.data.tobytes() for t in m.forward(tokens, mask)])
        assert new == old
        for j in range(l):
            with m.inference():
                new, old = both(lambda: m.forward(tokens, mask,
                                                  fields=np.full((len(tokens), 1), j))[0].data)
            np.testing.assert_allclose(new, old, rtol=0, atol=PRUNED_ATOL[dtype])

    def test_training_step_loss_and_gradients(self, l, dtype, drop):
        model, tokens, missing, _ = mixed_case(l, 80 + l, dtype, drop)

        def step():
            m = model()
            m.training = True
            loss = training_step(m, tokens, missing, np.random.default_rng(6))
            assert all(p.grad is not None for p in m.parameters())
            return loss, [(name, p.grad.tobytes()) for name, p in m.named_parameters()]

        new, old = both(step)
        assert new == old

    def test_embed_rows(self, l, dtype, drop):
        model, tokens, missing, _ = mixed_case(l, 90 + l, dtype, drop)
        m = model()
        new, old = both(lambda: m.embed_rows(tokens, missing).tobytes())
        assert new == old

    def test_generate_and_impute(self, l, dtype, drop):
        model, tokens, missing, _ = mixed_case(l, 100 + l, dtype, drop)
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


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_parameters_and_checkpoint_bytes(tmp_path, dtype):
    """Names and order of ``named_parameters()``, and the checkpoint bytes,
    after 10 AdamW steps of a width-64, depth-4 model."""
    model, tokens, missing, _ = mixed_case(8, 5, dtype, 0.1, n=64, width=64, depth=4,
                                           heads=4)

    def trained():
        m = model()
        m.training = True
        opt = AdamW(m.parameters(), lr=1e-3, weight_decay=0.01)
        rng = np.random.default_rng(7)
        for _ in range(10):
            opt.zero_grad()
            training_step(m, tokens, missing, rng)
            opt.step()
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), m, None, step=10, seed=5)
        return [name for name, _ in m.named_parameters()], path.read_bytes()

    (new_names, new_bytes), (old_names, old_bytes) = both(trained)
    assert new_names == old_names
    assert new_bytes == old_bytes


def count_ops(fn) -> int:
    """Op outputs (calls to ``ad._make``) that ``fn()`` builds."""
    calls = [0]
    make = ad._make

    def counted(data, parents, backward):
        calls[0] += 1
        return make(data, parents, backward)

    ad._make = counted
    try:
        fn()
    finally:
        ad._make = make
    return calls[0]


def test_fewer_tape_nodes():
    """A float32 training step and a single-head inference forward at
    l = 16 (batch 256, width 64, depth 4) each build at most 85 % of the op
    outputs of the reshaping plumbing. Since the dense layers take (n, l, d)
    input, the step builds 274 (290 before) and the 16-row single-head
    forward 128 (143 before)."""
    model, tokens, missing, mask = mixed_case(16, 3, "float32", 0.0, n=256, width=64,
                                              depth=4, heads=4)
    m = model()

    def step():
        m.training = True
        training_step(m, tokens, missing, np.random.default_rng(1))
        m.training = False

    def infer():
        with m.inference():
            m.forward(tokens[:16], mask[:16], fields=np.full((16, 1), 5))

    for fn in (step, infer):
        new, old = both(lambda: count_ops(fn))
        assert new <= 0.85 * old, (fn.__name__, new, old)
    assert (count_ops(step), count_ops(infer)) == (274, 128)
