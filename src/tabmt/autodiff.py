"""Minimal reverse-mode autodiff over dense numpy arrays.

Only the operations the masked-transformer model needs are implemented:
matmul (2-D and batched), a fused linear layer, broadcast add/multiply,
softmax, layer norm, GELU, sigmoid, dropout/drop-path, embedding lookup,
stack/select and a fused masked cross entropy. Tapes are dynamic: every
op records a backward closure on the output tensor and ``Tensor.backward``
walks the graph in reverse topological order. Inside ``no_grad()`` ops
record no tape, so inference keeps no parents or closures alive.

Softmax, GELU and layer norm work through row blocks of 2^16 elements,
so their temporaries stay in cache, and write each block into a
preallocated output. They apply the unblocked formulas in the same order
to each row, and every reduction runs along one row, so the bits do not
depend on the block size. The first gradient a tensor receives is kept
without a copy when it is C-contiguous; other views are copied, because
their layout would change the order of a later sum.

Training runs in float32 by default; gradient checking uses float64.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np


class Tensor:
    """A dense array plus an optional gradient tape node."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self):
        """Accumulate gradients of this scalar into every upstream tensor."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)


class Parameter(Tensor):
    """A trainable tensor (leaf node of every tape)."""

    def __init__(self, data):
        super().__init__(np.asarray(data), requires_grad=True)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


def _accum(t: Tensor, g: np.ndarray):
    # No op mutates a gradient in place, so a C-contiguous view can be kept.
    # Any other view is copied: its layout would change the order in which
    # a later ``_unbroadcast`` sums it.
    if t.grad is None:
        t.grad = g if (g.base is None or g.flags.c_contiguous) else g.copy()
    else:
        t.grad = t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Record no tape inside the block: every op returns a plain tensor."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _make(data, parents, backward):
    if not (_grad_enabled and any(p.requires_grad for p in parents)):
        return Tensor(data)
    return Tensor(data, requires_grad=True, parents=tuple(parents), backward=backward)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), backward)


def scale(a, c: float) -> Tensor:
    a = _as_tensor(a)
    out_data = a.data * c

    def backward(g):
        _accum(a, g * c)

    return _make(out_data, (a,), backward)


def reciprocal(a) -> Tensor:
    a = _as_tensor(a)
    out_data = 1.0 / a.data

    def backward(g):
        _accum(a, -g * out_data * out_data)

    return _make(out_data, (a,), backward)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = np.matmul(a.data, b.data)

    def backward(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            _accum(a, _unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            _accum(b, _unbroadcast(gb, b.data.shape))

    return _make(out_data, (a, b), backward)


def linear(x, w, b) -> Tensor:
    """``add(matmul(x, w), b)`` for 2-D ``x`` as one op, which adds the bias
    in place into the fresh product."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    out_data = np.matmul(x.data, w.data)
    out_data += b.data

    def backward(g):
        if x.requires_grad:
            _accum(x, np.matmul(g, w.data.T))
        if w.requires_grad:
            _accum(w, np.matmul(x.data.T, g))
        if b.requires_grad:
            _accum(b, g.sum(axis=0))

    return _make(out_data, (x, w, b), backward)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    out_data = a.data.reshape(shape)

    def backward(g):
        _accum(a, g.reshape(a.data.shape))

    return _make(out_data, (a,), backward)


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)
    out_data = np.transpose(a.data, axes)
    inv = np.argsort(axes)

    def backward(g):
        _accum(a, np.transpose(g, inv))

    return _make(out_data, (a,), backward)


def gather_rows(weight, idx) -> Tensor:
    """Embedding lookup: ``weight[idx]`` with scatter-add backward."""
    weight = _as_tensor(weight)
    idx = np.asarray(idx)
    out_data = weight.data[idx]

    def backward(g):
        gw = np.zeros_like(weight.data)
        np.add.at(gw, idx, g)
        _accum(weight, gw)

    return _make(out_data, (weight,), backward)


def stack(tensors, axis=1) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        for i, t in enumerate(tensors):
            if t.requires_grad:
                _accum(t, np.take(g, i, axis=axis))

    return _make(out_data, tuple(tensors), backward)


def select(a, axis: int, index: int) -> Tensor:
    """Pick one slice along ``axis`` (e.g. the hidden state of field j)."""
    a = _as_tensor(a)
    out_data = np.take(a.data, index, axis=axis)

    def backward(g):
        ga = np.zeros_like(a.data)
        sl = [slice(None)] * a.data.ndim
        sl[axis] = index
        ga[tuple(sl)] = g
        _accum(a, ga)

    return _make(out_data, (a,), backward)


# Softmax, GELU and layer norm run over row blocks of ``x.reshape(-1, d)``
# of at most this many elements (256 KiB of float32), so that their
# temporaries stay in cache.
_BLOCK = 1 << 16


def _rows(x: np.ndarray) -> np.ndarray:
    """``x`` as (rows, last axis), in the float dtype numpy computes it in."""
    x = x.astype(np.result_type(x, 1.0), copy=False)
    return x.reshape(-1, x.shape[-1]) if x.ndim else x.reshape(1, 1)


def _blocks(n: int, d: int) -> list[slice]:
    step = max(1, _BLOCK // max(1, d))
    return [slice(i, i + step) for i in range(0, n, step)]


def row_max(x: np.ndarray) -> np.ndarray:
    """Each row's maximum of a 2-D array, as a column.

    ``np.maximum.reduce`` costs about 0.1 us per row of up to 16 elements,
    so many short rows are reduced one column at a time instead. A maximum
    is exact in any order, so both give the same values.
    """
    n, d = x.shape
    if not 0 < d <= 16 or n < 8 * d:
        return np.maximum.reduce(x, axis=1, keepdims=True)
    m = x[:, 0].copy()
    for j in range(1, d):
        np.maximum(m, x[:, j], out=m)
    return m[:, None]


def softmax(a) -> Tensor:
    """Softmax over the last axis."""
    a = _as_tensor(a)
    x = _rows(a.data)
    out = np.empty_like(x)
    for sl in _blocks(*x.shape):
        e = np.exp(x[sl] - row_max(x[sl]))
        np.divide(e, np.add.reduce(e, axis=-1, keepdims=True), out=out[sl])

    def backward(g):
        g = _rows(g)
        ga = np.empty(g.shape, np.result_type(g, out))
        for sl in _blocks(*g.shape):
            dot = np.add.reduce(g[sl] * out[sl], axis=-1, keepdims=True)
            np.multiply(out[sl], g[sl] - dot, out=ga[sl])
        _accum(a, ga.reshape(a.data.shape))

    return _make(out.reshape(a.data.shape), (a,), backward)


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    out_data = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        _accum(a, g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), backward)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a) -> Tensor:
    """Tanh-approximation GELU."""
    a = _as_tensor(a)
    x = _rows(a.data)
    out = np.empty_like(x)
    # Without a tape, tanh is kept one block at a time.
    t = np.empty_like(x) if _grad_enabled and a.requires_grad else None
    for sl in _blocks(*x.shape):
        xb = x[sl]
        # tanh(c * (x + 0.044715 * (x * x * x))), in place. x * x * x, not
        # x**3, which takes numpy's much slower general power path.
        tb = np.multiply(xb, xb, out=None if t is None else t[sl])
        tb *= xb
        tb *= 0.044715
        tb += xb
        tb *= _GELU_C
        np.tanh(tb, out=tb)
        np.multiply(0.5 * xb, 1.0 + tb, out=out[sl])

    def backward(g):
        g = _rows(g)
        ga = np.empty(g.shape, np.result_type(g, x))
        for sl in _blocks(*x.shape):
            xb, tb = x[sl], t[sl]
            dinner = _GELU_C * (1.0 + 3 * 0.044715 * (xb * xb))
            da = 0.5 * (1.0 + tb) + 0.5 * xb * (1.0 - tb * tb) * dinner
            np.multiply(g[sl], da, out=ga[sl])
        _accum(a, ga.reshape(a.data.shape))

    return _make(out.reshape(a.data.shape), (a,), backward)


def layer_norm(a, gain, bias, eps: float = 1e-5) -> Tensor:
    """Layer norm over the last axis with learned affine."""
    a, gain, bias = _as_tensor(a), _as_tensor(gain), _as_tensor(bias)
    x = _rows(a.data)
    n, d = x.shape
    out = np.empty(x.shape, np.result_type(x, gain.data, bias.data))
    taped = _grad_enabled and (a.requires_grad or gain.requires_grad or bias.requires_grad)
    xhat = np.empty_like(x) if taped else None
    inv = np.empty((n, 1), x.dtype) if taped else None
    # np.add.reduce, then / d, is what ndarray.mean computes, bit for bit.
    for sl in _blocks(n, d):
        xc = x[sl] - np.add.reduce(x[sl], axis=-1, keepdims=True) / d
        iv = 1.0 / np.sqrt(np.add.reduce(xc * xc, axis=-1, keepdims=True) / d + eps)
        xh = np.multiply(xc, iv, out=xhat[sl] if taped else xc)
        if taped:
            inv[sl] = iv
        np.add(xh * gain.data, bias.data, out=out[sl])

    def backward(g):
        # The gain and bias gradients sum over the original shape: the order
        # of the sums depends on it.
        if gain.requires_grad:
            _accum(gain, _unbroadcast(g * xhat.reshape(g.shape), gain.data.shape))
        if bias.requires_grad:
            _accum(bias, _unbroadcast(g, bias.data.shape))
        if a.requires_grad:
            g = _rows(g)
            ga = np.empty(g.shape, np.result_type(g, gain.data, x))
            for sl in _blocks(n, d):
                gx = g[sl] * gain.data
                gmean = np.add.reduce(gx, axis=-1, keepdims=True) / d
                gdot = np.add.reduce(gx * xhat[sl], axis=-1, keepdims=True) / d
                np.multiply(inv[sl], gx - gmean - xhat[sl] * gdot, out=ga[sl])
            _accum(a, ga.reshape(a.data.shape))

    return _make(out.reshape(a.data.shape), (a, gain, bias), backward)


def dropout(a, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    a = _as_tensor(a)
    if not training or p <= 0.0:
        return a
    keep = (rng.random(a.data.shape) >= p).astype(a.data.dtype) / (1.0 - p)
    return mul(a, Tensor(keep))


def drop_path(a, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Stochastic depth: drop the whole branch per row, rescale survivors."""
    a = _as_tensor(a)
    if not training or p <= 0.0:
        return a
    shape = (a.data.shape[0],) + (1,) * (a.data.ndim - 1)
    keep = (rng.random(shape) >= p).astype(a.data.dtype) / (1.0 - p)
    return mul(a, Tensor(keep))


def cross_entropy_sum(logits, targets, active) -> tuple[Tensor, int]:
    """Summed -log softmax(logits)[target] over rows where ``active``.

    Inactive rows contribute zero loss and zero gradient. Returns the
    summed loss and the number of active rows; the caller divides to get
    a mean over all scored positions (possibly pooled across fields).
    """
    logits = _as_tensor(logits)
    targets = np.asarray(targets)
    active = np.asarray(active, dtype=bool)
    n, k = logits.data.shape
    z = logits.data
    zmax = row_max(z)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    safe_t = np.where(active, targets, 0)
    losses = lse - z[np.arange(n), safe_t]
    count = int(active.sum())
    out_data = np.asarray(losses[active].sum(), dtype=z.dtype)

    def backward(g):
        p = np.exp(z - zmax)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(n), safe_t] -= 1.0
        p[~active] = 0.0
        _accum(logits, g * p)

    return _make(out_data, (logits,), backward), count
