"""The row-blocked softmax, GELU and layer norm, ``ad.linear``, ``ad.ffn``,
the column-loop ``ad.row_max`` and the copy-free ``_accum`` give the bits
of the kernels they replaced. The dense ops give on (n, l, d) input what
they give on (n·l, d), ``ad.softmax_rows`` gives each row softmax it
replaced, and ``ad.distinct_rows`` agrees with ``np.unique(axis=0)``."""

import tracemalloc

import numpy as np
import pytest

from conftest import (
    accum_copying,
    cross_entropy_sum_oracle,
    gelu_oracle,
    layer_norm_oracle,
    linear_oracle,
    oracle_kernels,
    sample_field_oracle,
    softmax_oracle,
)
from tabmt import autodiff as ad
from tabmt.autodiff import Parameter, Tensor
from tabmt.codec import fit_categorical, fit_continuous
from tabmt.generation import sample_field
from tabmt.model import ModelConfig, TabMTModel
from tabmt.training import training_step

# (rows, d) and n-d shapes around the 2^16-element row block: row counts that
# are not a multiple of the block, less than one block, one row, rows wider
# than a block, and 3-D inputs.
SHAPES = [(600, 256), (4097, 16), (37, 64), (1, 256), (1, 5), (3, 70000),
          (130, 16, 64), (3, 5, 7), (2, 3, 2)]


def assert_same(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b)


def run_op(op, x, extra, upstream):
    """Forward of ``op`` and one backward step from ``upstream``; returns the
    output and the gradients of the input and the extra arguments."""
    xs = [Parameter(x.copy())] + [Parameter(e.copy()) for e in extra]
    out = op(*xs)
    out.node.backward(upstream)
    return out.data, [p.grad for p in xs]


def inputs(shape, dtype, seed=0):
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal(shape) * 3).astype(dtype)
    d = shape[-1]
    extra = [(1 + 0.1 * rng.standard_normal(d)).astype(dtype),
             (0.1 * rng.standard_normal(d)).astype(dtype)]
    upstream = rng.standard_normal(shape).astype(dtype)
    return x, extra, upstream


KERNELS = {"softmax": (ad.softmax, softmax_oracle, 0),
           "gelu": (ad.gelu, gelu_oracle, 0),
           "layer_norm": (ad.layer_norm, layer_norm_oracle, 2)}


@pytest.mark.parametrize("dtype", ["float32", "float64", "int64"])
@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_matches_oracle(name, shape, dtype):
    new, old, n_extra = KERNELS[name]
    x, extra, upstream = inputs(shape, dtype)
    extra = extra[:n_extra]
    out, grads = run_op(new, x, extra, upstream)
    with oracle_kernels():
        want_out, want_grads = run_op(old, x, extra, upstream)
    assert_same(out, want_out)
    for g, want in zip(grads, want_grads):
        assert_same(g, want)
    with ad.no_grad():
        assert_same(new(Tensor(x), *[Tensor(e) for e in extra]).data, want_out)


def max_inputs(n, d, dtype, seed):
    """Small integers, so maxima repeat, with -inf cells, an all -inf row
    and zeros of either sign."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-3, 4, (n, d)).astype(dtype)
    x[rng.random((n, d)) < 0.2] = -np.inf
    x[0] = -np.inf
    x[x == 0] *= np.where(rng.random(int((x == 0).sum())) < 0.5, 1, -1).astype(dtype)
    return x


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("d", list(range(1, 41)) + [1000])
def test_row_max_matches_reduce(d, dtype):
    for n in (1, 3, 8 * d - 1, 8 * d, 300):
        x = max_inputs(n, d, dtype, seed=d + n)
        got, want = ad.row_max(x), np.maximum.reduce(x, axis=-1, keepdims=True)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        strided = ad.row_max(x[:, ::-1])  # a view, as a row block may be
        assert np.array_equal(strided, want)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("n, k", [(1, 2), (300, 2), (500, 4), (4097, 16), (64, 33), (40, 1000)])
def test_cross_entropy_and_sampling_match_oracles(n, k, dtype):
    rng = np.random.default_rng(n + k)
    logits = (rng.standard_normal((n, k)) * 4).astype(dtype)
    targets = rng.integers(0, k, n)
    active = rng.random(n) < 0.8
    upstream = np.asarray(0.7, dtype=dtype)
    out, (grad,) = run_op(lambda t: ad.cross_entropy_sum(t, targets, active)[0],
                          logits, [], upstream)
    want, (want_grad,) = run_op(lambda t: cross_entropy_sum_oracle(t, targets, active)[0],
                                logits, [], upstream)
    assert out.tobytes() == want.tobytes() and grad.tobytes() == want_grad.tobytes()
    u = np.random.default_rng(7).random(n)
    for tau in (0.0, 0.3, 1.0, 2.5):
        got = sample_field(logits, tau, u)
        want = sample_field_oracle(logits, tau, u)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_linear_matches_add_of_matmul(dtype):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((300, 24)).astype(dtype)
    w = rng.standard_normal((24, 40)).astype(dtype)
    b = rng.standard_normal(40).astype(dtype)
    upstream = rng.standard_normal((300, 40)).astype(dtype)
    out, grads = run_op(ad.linear, x, [w, b], upstream)
    with oracle_kernels():
        xs = [Parameter(a.copy()) for a in (x, w, b)]
        y = linear_oracle(*xs)
        # Walk the two-node tape the way Tensor.backward does.
        y.node.backward(upstream)
        y.node.parents[0].backward(y.node.parents[0].grad)
    assert_same(out, y.data)
    for g, p in zip(grads, xs):
        assert_same(g, p.grad)


def ffn_chain(x, w1, b1, w2, b2, keep=None):
    """``ad.ffn`` as a chain of the other ops."""
    a = ad.gelu(ad.linear(x, w1, b1))
    if keep is not None:
        a = ad.mul(a, Tensor(keep))
    return ad.linear(a, w2, b2)


def run_ffn(op, arrays, keep, upstream, frozen):
    """``op``'s output and the gradients of x, w1, b1, w2 and b2 after a
    backward walk that sends ``upstream`` into the output. The inputs at
    the indices in ``frozen`` do not require grad."""
    ts = [Tensor(a.copy()) if i in frozen else Parameter(a.copy())
          for i, a in enumerate(arrays)]
    out = op(*ts, keep=keep)
    ad.matmul(ad.reshape(out, (1, -1)), Tensor(upstream.reshape(-1, 1))).backward()
    return out.data, [t.grad for t in ts]


def ffn_inputs(n, d, k, dtype, seed):
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal((n, d)), rng.standard_normal((d, k)) * 0.5,
              rng.standard_normal(k) * 0.5, rng.standard_normal((k, d)) * 0.2,
              rng.standard_normal(d) * 0.1]
    upstream = rng.standard_normal((n, d))
    return [a.astype(dtype) for a in arrays], upstream.astype(dtype), rng


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("d, k", [(64, 256), (5, 20)])
@pytest.mark.parametrize("n", [1, 37, 256, 600, 4097])
@pytest.mark.parametrize("drop", [0.0, 0.1])
def test_ffn_matches_chain(n, d, k, dtype, drop):
    arrays, upstream, rng = ffn_inputs(n, d, k, dtype, seed=n + d)
    keep = ad.dropout_mask((n, k), np.dtype(dtype), drop, rng, True)
    # Everything trains; x is a constant input; w2 and b2 are frozen.
    for frozen in ((), (0,), (3, 4)):
        out, grads = run_ffn(ad.ffn, arrays, keep, upstream, frozen)
        want, want_grads = run_ffn(ffn_chain, arrays, keep, upstream, frozen)
        assert out.dtype == want.dtype and out.tobytes() == want.tobytes()
        for i, (g, w) in enumerate(zip(grads, want_grads)):
            assert (g is None) == (i in frozen) == (w is None)
            assert g is None or g.tobytes() == w.tobytes()
    with ad.no_grad():
        out = ad.ffn(*[Tensor(a) for a in arrays], keep=keep)
    assert out.data.tobytes() == want.tobytes()


class TestAccum:
    def test_contiguous_view_is_kept(self):
        t = Parameter(np.zeros((4, 6)))
        g = np.arange(24.0)
        ad._accum(t.node, g.reshape(4, 6))
        assert np.shares_memory(t.grad, g)

    def test_other_view_is_copied_in_c_order(self):
        t = Parameter(np.zeros((6, 4)))
        g = np.arange(24.0).reshape(4, 6)
        ad._accum(t.node, g.T)
        assert not np.shares_memory(t.grad, g)
        assert t.grad.flags.c_contiguous and np.array_equal(t.grad, g.T)

    def test_owned_array_is_kept_in_its_layout(self):
        t = Parameter(np.zeros((6, 4)))
        g = np.asfortranarray(np.arange(24.0).reshape(6, 4))
        ad._accum(t.node, g)
        assert t.grad is g
        u = Parameter(np.zeros((6, 4)))
        accum_copying(u.node, g)
        assert u.grad is g


def inference_scratch_bytes(op, *args):
    """Peak bytes ``op`` allocates under ``no_grad()`` beyond its output."""
    tracemalloc.start()
    try:
        with ad.no_grad():
            out = op(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - out.data.nbytes


def test_inference_gelu_keeps_no_full_size_temporary():
    x = Tensor(np.random.default_rng(2).standard_normal((4096, 256)).astype(np.float32))
    assert inference_scratch_bytes(ad.gelu, x) <= 1 << 20


def test_inference_ffn_keeps_no_full_size_temporary():
    """Without a tape the activation is written over h, and tanh lives one
    row block at a time."""
    rng = np.random.default_rng(3)
    args = [Tensor(rng.standard_normal(s).astype(np.float32))
            for s in [(4096, 64), (64, 256), (256,), (256, 64), (64,)]]
    h_bytes = 4096 * 256 * 4
    assert inference_scratch_bytes(ad.ffn, *args) - h_bytes <= 1 << 20


def random_model(l, seed, dtype, dropout=0.0):
    """An untrained model over ``l`` mixed fields (field 0 continuous)."""
    rng = np.random.default_rng(seed)
    codecs = []
    for j in range(l):
        if j == 0 or rng.random() < 0.5:
            values = (rng.standard_normal(120) * rng.uniform(0.5, 50)).tolist()
            codecs.append(fit_continuous(values, max_bins=int(rng.integers(2, 20))))
        else:
            k = int(rng.integers(2, 50))
            codecs.append(fit_categorical([f"v{i}" for i in range(k)]))
    cfg = ModelConfig(width=32, depth=2, heads=4, dropout=dropout,
                      drop_path=dropout, dtype=dtype)
    return TabMTModel(codecs, cfg, seed=seed)


def random_batch(model, n, seed):
    rng = np.random.default_rng(seed)
    cards = np.array(model.cardinalities)
    tokens = np.stack([rng.integers(0, k, n) for k in cards], axis=1)
    missing = rng.random(tokens.shape) < 0.1
    tokens[missing] = cards[np.nonzero(missing)[1]]
    return tokens, missing


def step_and_forward(l, seed, dtype, dropout):
    m = random_model(l, seed, dtype, dropout)
    tokens, missing = random_batch(m, max(150, 2400 // l), seed)
    m.training = True
    loss = training_step(m, tokens, missing, np.random.default_rng(seed))
    m.training = False
    grads = [(name, p.grad) for name, p in m.named_parameters()]
    mask = np.random.default_rng(seed + 1).random(tokens.shape) < 0.5
    mask |= missing
    logits = [t.data for t in m.forward(tokens, mask)]
    with ad.no_grad():
        single = [m.forward(tokens, mask, fields=np.full((len(tokens), 1), j))[0].data
                  for j in range(l)]
    return loss, grads, logits, single, m.embed_rows(tokens, missing)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("l, seed, dropout", [(2, 11, 0.0), (3, 12, 0.0),
                                               (8, 13, 0.1), (16, 14, 0.0)])
def test_training_step_matches_oracle(l, seed, dropout, dtype):
    loss, grads, logits, single, emb = step_and_forward(l, seed, dtype, dropout)
    with oracle_kernels():
        want = step_and_forward(l, seed, dtype, dropout)
    assert loss == want[0]
    for (name, g), (_, g_old) in zip(grads, want[1]):
        assert g is not None, name
        assert_same(g, g_old)
    for got, exp in zip(logits + single, want[2] + want[3]):
        assert_same(got, exp)
    assert_same(emb, want[4])


def leading_inputs(layout, dtype, seed=5, n=7, l=5, d=16, k=40):
    """An (n, l, d) input, C-contiguous or a strided view, and x, w1, b1, w2
    and b2 of a feed-forward layer of hidden width k around it."""
    rng = np.random.default_rng(seed)
    if layout == "contiguous":
        x = rng.standard_normal((n, l, d))
    else:
        x = rng.standard_normal((l, n, 2 * d)).transpose(1, 0, 2)[:, :, ::2]
    arrays = [x, rng.standard_normal((d, k)) * 0.5, rng.standard_normal(k) * 0.5,
              rng.standard_normal((k, d)) * 0.2, rng.standard_normal(d) * 0.1]
    return [a.astype(dtype, copy=False) for a in arrays], rng


def taped(op, arrays, upstream, frozen=(), **kwargs):
    """``op``'s output and each input's gradient after ``upstream`` flows into
    the output; the inputs at the indices in ``frozen`` need none."""
    ts = [Tensor(a) if i in frozen else Parameter(a) for i, a in enumerate(arrays)]
    out = op(*ts, **kwargs)
    ad.matmul(ad.reshape(out, (1, -1)), Tensor(upstream.reshape(-1, 1))).backward()
    return out.data, [t.grad for t in ts]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("layout", ["contiguous", "strided"])
def test_dense_ops_take_any_leading_shape(layout, dtype):
    """``linear`` and ``ffn`` on (n, l, d) input, contiguous or a strided view,
    give the values and every gradient of the call on the (n·l, d) input."""
    arrays, rng = leading_inputs(layout, dtype)
    x = arrays[0]
    assert x.flags.c_contiguous == (layout == "contiguous")
    flat = [x.reshape(-1, x.shape[-1])] + arrays[1:]
    k = arrays[1].shape[1]
    for op, n_args, width in ((ad.linear, 3, k), (ad.ffn, 5, x.shape[-1])):
        upstream = rng.standard_normal(x.shape[:-1] + (width,)).astype(dtype)
        for drop in ((0.0,) if op is ad.linear else (0.0, 0.1)):
            keep = ad.dropout_mask(x.shape[:-1] + (k,), np.dtype(dtype), drop, rng, True)
            kw, flat_kw = {}, {}
            if op is ad.ffn:
                kw["keep"] = keep
                flat_kw["keep"] = None if keep is None else keep.reshape(-1, k)
            for frozen in ((), (0,)):
                out, grads = taped(op, arrays[:n_args], upstream, frozen, **kw)
                want, want_grads = taped(op, flat[:n_args], upstream, frozen, **flat_kw)
                assert out.shape == x.shape[:-1] + (width,)
                assert out.dtype == want.dtype and out.tobytes() == want.tobytes()
                assert (grads[0] is None) == (0 in frozen)
                if grads[0] is not None:
                    assert grads[0].shape == x.shape
                    assert grads[0].tobytes() == want_grads[0].tobytes()
                for g, w in zip(grads[1:], want_grads[1:]):
                    assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
            with ad.no_grad():
                out = op(*[Tensor(a) for a in arrays[:n_args]], **kw).data
            assert out.tobytes() == want.tobytes()


# The row softmax each caller wrote out before ``ad.softmax_rows``, verbatim.

def softmax_op_rows(x):
    out = np.empty_like(x)
    for sl in ad._blocks(*x.shape):
        e = np.exp(x[sl] - ad.row_max(x[sl]))
        np.divide(e, np.add.reduce(e, axis=-1, keepdims=True), out=out[sl])
    return out


def cross_entropy_grad_rows(z):
    zmax = ad.row_max(z)
    p = np.exp(z - zmax)
    p /= p.sum(axis=1, keepdims=True)
    return p


def sample_field_rows(z):
    z = z.copy()
    z -= ad.row_max(z)
    p = np.exp(z)
    p /= p.sum(axis=-1, keepdims=True)
    return p


def train_logistic_rows(p):
    p = p.copy()
    p -= ad.row_max(p)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    return p


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("shape", [(500, 4), (512, 1000), (1, 5), (4096, 16), (4097, 16),
                                   (66, 1000)], ids=str)
def test_softmax_rows_matches_each_formula(shape, dtype):
    """``ad.softmax_rows`` gives the bits of every formula it replaced, into a
    new array and in place, on shapes at and across a row block's edge."""
    assert ad._block_rows(16) == 4096 and ad._block_rows(1000) == 65
    x = (np.random.default_rng(shape[0]).standard_normal(shape) * 6).astype(dtype)
    x[0, 0] = x[0, -1]  # a tied maximum
    got = ad.softmax_rows(x, np.empty_like(x))
    inplace = x.copy()
    assert ad.softmax_rows(inplace, inplace) is inplace
    for formula in (softmax_op_rows, cross_entropy_grad_rows, sample_field_rows,
                    train_logistic_rows):
        want = formula(x)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), formula.__name__
        assert inplace.tobytes() == want.tobytes(), formula.__name__


def distinct_cases():
    rng = np.random.default_rng(9)
    return {"ints": rng.integers(-2, 3, (300, 3)),
            "floats": rng.integers(0, 3, (200, 4)) * 0.1,
            "one row": rng.standard_normal((1, 5)),
            "all equal": np.full((50, 3), 7, dtype=np.int64),
            "column": rng.integers(0, 4, (40, 1)).astype(np.int32)}


@pytest.mark.parametrize("name", sorted(distinct_cases()))
def test_distinct_rows_agrees_with_unique(name):
    """``ad.distinct_rows`` finds the rows and counts ``np.unique(axis=0)``
    finds; ``first`` is each one's first copy and ``inverse`` maps back."""
    x = distinct_cases()[name]
    first, inverse, counts = ad.distinct_rows(x)
    rows, want_counts = np.unique(x, axis=0, return_counts=True)
    assert dict(zip(map(tuple, x[first]), counts)) == dict(zip(map(tuple, rows), want_counts))
    assert np.array_equal(x[first][inverse], x)
    assert all(np.flatnonzero((x == x[i]).all(axis=1))[0] == i for i in first)
