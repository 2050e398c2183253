"""A forward that asks for some heads runs the last encoder block only at
those heads' positions: its logits match the full forward's to a stated
tolerance, the last block's feed-forward layer sees one row per asked
position, and the taped subset path has correct gradients."""

import numpy as np
import pytest

from conftest import PRUNED_ATOL, grad_check, mixed_case
from tabmt import autodiff as ad
from tabmt.codec import fit_categorical, fit_continuous
from tabmt.model import ModelConfig, TabMTModel

GRID = [(l, n, dtype) for l in (1, 2, 3, 8, 16) for n in (1, 16, 300)
        for dtype in ("float32", "float64")]


def case(l: int, n: int, dtype: str, seed: int = 0):
    """A model over ``l`` mixed fields (a 1,000-way field from l = 4) and
    ``n`` rows of tokens and mask for it."""
    model, tokens, _, mask = mixed_case(l, 40 + l + seed, dtype, 0.0, n=max(n, 3),
                                        width=16, depth=3, heads=2)
    return model(), tokens[-n:], mask[-n:]


def subsets(l: int) -> list[tuple[int, ...]]:
    """Each single field, and a few multi-field subsets out of order."""
    out = [(j,) for j in range(l)]
    if l >= 2:
        out += [tuple(range(l))[::-1], tuple(range(0, l, 2))[::-1]]
    if l >= 3:
        out.append((2, 0))
    return out


@pytest.mark.parametrize("l, n, dtype", GRID)
def test_subset_logits_match_full_forward(l, n, dtype):
    m, tokens, mask = case(l, n, dtype)
    with m.inference():
        full = [t.data for t in m.forward(tokens, mask)]
        for fields in subsets(l):
            got = m.forward(tokens, mask, fields=np.tile(fields, (n, 1)))
            assert len(got) == len(fields)
            for t, j in zip(got, sorted(fields)):
                assert t.data.shape == full[j].shape
                assert t.data.dtype == np.dtype(dtype)
                np.testing.assert_allclose(t.data, full[j], rtol=0, atol=PRUNED_ATOL[dtype])


@pytest.mark.parametrize("l, n, dtype", GRID)
def test_per_row_fields_match_full_forward(l, n, dtype):
    """Per-row fields: one tensor per distinct field, over the (row, slot)
    pairs asking for it in row-major order, each row to the full forward's
    logits; the shared tied weights change no bit."""
    m, tokens, mask = case(l, n, dtype)
    fields = np.random.default_rng(l + n).integers(0, l, (n, 2))
    with m.inference():
        full = [t.data for t in m.forward(tokens, mask)]
        got = m.forward(tokens, mask, None, fields)
        shared = m.forward(tokens, mask, None, fields, m.tied_weights())
    assert len(got) == len(np.unique(fields))
    for t, s, j in zip(got, shared, np.unique(fields)):
        rows = np.nonzero(fields == j)[0]
        assert t.data.dtype == np.dtype(dtype) and t.data.tobytes() == s.data.tobytes()
        np.testing.assert_allclose(t.data, full[j][rows], rtol=0, atol=PRUNED_ATOL[dtype])


def test_taped_subset_equals_untaped():
    """The taped subset path gives the inference path's logits, bit for bit."""
    m, tokens, mask = case(8, 16, "float32")
    fields = np.tile((5, 1), (16, 1))
    taped = [t.data for t in m.forward(tokens, mask, fields=fields)]
    with m.inference():
        untaped = [t.data for t in m.forward(tokens, mask, fields=fields)]
    assert [a.tobytes() for a in taped] == [b.tobytes() for b in untaped]


def test_negative_and_out_of_range_fields():
    m, tokens, mask = case(3, 4, "float64")
    with m.inference():
        last = m.forward(tokens, mask, fields=np.full((4, 1), 2))[0].data
        assert m.forward(tokens, mask, fields=np.full((4, 1), -1))[0].data.tobytes() == \
            last.tobytes()
        with pytest.raises(IndexError):
            m.forward(tokens, mask, fields=np.full((4, 1), 3))


def ffn_rows(fn) -> list[int]:
    """Rows of the input of each ``ad.ffn`` call that ``fn()`` makes."""
    rows = []
    ffn = ad.ffn

    def counted(x, *args, **kwargs):
        x = ad._as_tensor(x)
        rows.append(x.data.size // x.shape[-1])
        return ffn(x, *args, **kwargs)

    ad.ffn = counted
    try:
        fn()
    finally:
        ad.ffn = ffn
    return rows


@pytest.mark.parametrize("l, n", [(1, 1), (1, 5), (3, 1), (4, 7), (16, 16)])
def test_last_block_ffn_rows(l, n):
    """A forward for q heads sends n·l rows through the first depth − 1
    blocks' feed-forward layers and n·q through the last one's; a full
    forward sends n·l through every block."""
    m, tokens, mask = case(l, n, "float32")
    depth = len(m.blocks)
    with m.inference():
        assert ffn_rows(lambda: m.forward(tokens, mask)) == [n * l] * depth
        for fields in subsets(l):
            got = ffn_rows(lambda: m.forward(tokens, mask, fields=np.tile(fields, (n, 1))))
            assert got == [n * l] * (depth - 1) + [n * len(fields)]
        per_row = np.zeros((n, 1), dtype=np.int64)
        assert ffn_rows(lambda: m.forward(tokens, mask, None, per_row)) == \
            [n * l] * (depth - 1) + [n]
    m.training = True
    got = ffn_rows(lambda: m.forward(tokens, mask, fields=np.full((n, 1), l - 1)))
    assert got == [n * l] * (depth - 1) + [n]


@pytest.mark.parametrize("fields", [(1,), (2, 0)])
def test_taped_subset_forward_gradients(fields):
    """Finite differences agree with the taped subset forward's gradients,
    so the path is sound for training."""
    codecs = [fit_categorical(list("abc")),
              fit_continuous([0.0, 1.0, 2.0, 3.0], max_bins=4),
              fit_categorical(list("xy"))]
    m = TabMTModel(codecs, ModelConfig(width=16, depth=2, heads=2, dtype="float64"),
                   seed=0)
    rng = np.random.default_rng(1)
    tokens = rng.integers(0, 2, (6, 3))
    mask = rng.random((6, 3)) < 0.6
    mask[:, list(fields)] = True

    def f():
        total = None
        for logits, j in zip(m.forward(tokens, mask, fields=np.tile(fields, (6, 1))),
                             sorted(fields)):
            loss, _ = ad.cross_entropy_sum(logits, tokens[:, j], mask[:, j])
            total = loss if total is None else ad.add(total, loss)
        return total

    err = grad_check(f, m.parameters(), h=1e-6, rng=np.random.default_rng(2))
    assert err < 1e-6
    assert all(p.grad is not None for _, p in m.blocks[-1].parameters())
