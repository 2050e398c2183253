"""Minimal reverse-mode autodiff over dense numpy arrays.

Only the operations the masked-transformer model needs are implemented:
matmul (2-D and batched), a fused linear layer, a fused feed-forward
layer (``ffn``: linear, GELU, dropout mask, linear), broadcast
add/multiply, softmax, layer norm, GELU, sigmoid, dropout/drop-path,
embedding lookup (one table, or one per column), stack/select and a
fused masked cross entropy. The linear and feed-forward layers run on the
input's (rows, d) view, so they take any leading shape. Tapes are dynamic:
an op whose input requires grad gives its output a ``Node`` beside
``.data``, and ``Tensor.backward`` walks the nodes in reverse topological
order. Inside ``no_grad()`` ops record no tape, so inference keeps nothing
alive.

A node holds a gradient slot, its parents' nodes and a backward closure.
The closure keeps the parents' shapes and exactly the arrays it reads,
never a parent tensor: the inputs of mul, matmul and linear (each only
where the other input needs a gradient), the outputs of softmax, sigmoid
and reciprocal, GELU's input and tanh, layer norm's xhat, inverse
deviation and gain, and cross entropy's logits. ``ffn`` keeps its input,
its pre-activation h, the weights and the dropout mask, but not the
activation or its tanh: its backward recomputes both from h, one row
block at a time. So an output that only add, scale, reshape, transpose,
stack, select or a layer norm reads is freed during the forward.
``backward`` releases each node as soon as its closure has run: the
closure, the parent links and, unless the node is a leaf, its gradient.
A graph can therefore be walked once; a second ``backward`` through it
raises. Parameters keep their gradient.

Softmax, GELU and layer norm work through row blocks of 2^16 elements,
so their temporaries stay in cache, and write each block into a
preallocated output; GELU and ``ffn`` reuse one set of block-sized
scratch arrays for every block. They apply the unblocked formulas in the
same order to each row, and every reduction runs along one row, so the
bits do not depend on the block size. The first gradient a node receives
is kept without a copy when it is C-contiguous; other views are copied,
because their layout would change the order of a later sum.
``softmax_rows`` is the one row softmax of the package, and
``distinct_rows`` the one finder of distinct rows.

Training runs in float32 by default; gradient checking uses float64.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np


class Node:
    """A tape entry beside a tensor's data: its gradient slot, the nodes its
    gradient flows back to, and the closure that sends it there. A leaf
    (a parameter) has no closure."""

    __slots__ = ("grad", "parents", "backward")

    def __init__(self, parents=(), backward=None):
        self.grad = None
        self.parents = parents
        self.backward = backward


def _walked(g):
    """The closure a node holds once backward has run it."""
    raise RuntimeError("backward() already walked this graph; "
                       "run the forward again to get a new one")


class Tensor:
    """A dense array plus, when it requires grad, a tape node."""

    __slots__ = ("data", "requires_grad", "node")

    def __init__(self, data, requires_grad=False, node=None):
        self.data = np.asarray(data)
        self.requires_grad = requires_grad
        self.node = Node() if requires_grad and node is None else node

    @property
    def grad(self):
        return None if self.node is None else self.node.grad

    @grad.setter
    def grad(self, g):
        if self.node is None:
            self.node = Node()
        self.node.grad = g

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self):
        """Accumulate gradients of this scalar into every upstream leaf.

        Each node is released once its closure has run; a graph can be
        walked once."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        if self.node is None:
            self.node = Node()
        topo: list[Node] = []
        seen: set[int] = set()
        stack: list[tuple[Node, bool]] = [(self.node, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node.backward is _walked:
                _walked(None)  # raises before any gradient moves
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node.parents)
        self.node.grad = np.ones_like(self.data)
        for node in reversed(topo):
            fn = node.backward
            if fn is None:
                continue  # a leaf keeps its gradient
            g, node.grad = node.grad, None
            node.backward, node.parents = _walked, ()
            fn(g)


class Parameter(Tensor):
    """A trainable tensor (leaf node of every tape)."""

    def __init__(self, data):
        super().__init__(np.asarray(data), requires_grad=True)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


def _node(t: Tensor) -> Node | None:
    return t.node if t.requires_grad else None


def _accum(node: Node, g: np.ndarray):
    # No op mutates a gradient in place, so a C-contiguous view can be kept.
    # Any other view is copied: its layout would change the order in which
    # a later ``_unbroadcast`` sums it.
    if node.grad is None:
        node.grad = g if (g.base is None or g.flags.c_contiguous) else g.copy()
    else:
        node.grad = node.grad + g


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
    """The op's output; on the tape when grad is on and a parent requires grad.
    ``backward`` holds parent nodes and the arrays it reads, never a parent."""
    nodes = tuple(p.node for p in parents if p.requires_grad) if _grad_enabled else ()
    if not nodes:
        return Tensor(data)
    return Tensor(data, requires_grad=True, node=Node(nodes, backward))


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data + b.data
    na, nb, sa, sb = _node(a), _node(b), a.data.shape, b.data.shape

    def backward(g):
        if na is not None:
            _accum(na, _unbroadcast(g, sa))
        if nb is not None:
            _accum(nb, _unbroadcast(g, sb))

    return _make(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data * b.data
    na, nb, sa, sb = _node(a), _node(b), a.data.shape, b.data.shape
    # Each input is read only for the other's gradient.
    xa = a.data if nb is not None else None
    xb = b.data if na is not None else None

    def backward(g):
        if na is not None:
            _accum(na, _unbroadcast(g * xb, sa))
        if nb is not None:
            _accum(nb, _unbroadcast(g * xa, sb))

    return _make(out_data, (a, b), backward)


def scale(a, c: float) -> Tensor:
    a = _as_tensor(a)
    out_data = a.data * c
    na = a.node

    def backward(g):
        _accum(na, g * c)

    return _make(out_data, (a,), backward)


def reciprocal(a) -> Tensor:
    a = _as_tensor(a)
    out_data = 1.0 / a.data
    na = a.node

    def backward(g):
        _accum(na, -g * out_data * out_data)

    return _make(out_data, (a,), backward)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = np.matmul(a.data, b.data)
    na, nb, sa, sb = _node(a), _node(b), a.data.shape, b.data.shape
    xa = a.data if nb is not None else None
    xb = b.data if na is not None else None

    def backward(g):
        if na is not None:
            ga = np.matmul(g, np.swapaxes(xb, -1, -2))
            _accum(na, _unbroadcast(ga, sa))
        if nb is not None:
            gb = np.matmul(np.swapaxes(xa, -1, -2), g)
            _accum(nb, _unbroadcast(gb, sb))

    return _make(out_data, (a, b), backward)


def linear(x, w, b) -> Tensor:
    """``add(matmul(x, w), b)`` as one op on x's (rows, d) view, which adds the
    bias in place into the fresh product; the output has x's leading shape."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    rows, sx = _rows(x.data), x.data.shape
    out_data = np.matmul(rows, w.data)
    out_data += b.data
    nx, nw, nb = _node(x), _node(w), _node(b)
    xx = rows if nw is not None else None
    xw = w.data if nx is not None else None

    def backward(g):
        g = _rows(g)
        if nx is not None:
            _accum(nx, np.matmul(g, xw.T).reshape(sx))
        if nw is not None:
            _accum(nw, np.matmul(xx.T, g))
        if nb is not None:
            _accum(nb, g.sum(axis=0))

    return _make(out_data.reshape(sx[:-1] + w.data.shape[1:]), (x, w, b), backward)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    out_data = a.data.reshape(shape)
    na, sa = a.node, a.data.shape

    def backward(g):
        _accum(na, g.reshape(sa))

    return _make(out_data, (a,), backward)


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)
    out_data = a.data.transpose(axes)
    na = a.node

    def backward(g):
        _accum(na, g.transpose(np.argsort(axes)))

    return _make(out_data, (a,), backward)


def gather_rows(weight, idx) -> Tensor:
    """Embedding lookup: ``weight[idx]``, for an index array or a tuple of
    them, with scatter-add backward."""
    weight = _as_tensor(weight)
    out_data = weight.data[idx]
    nw, sw, dw = weight.node, weight.data.shape, weight.data.dtype

    def backward(g):
        gw = np.zeros(sw, dw)
        np.add.at(gw, idx, g)
        _accum(nw, gw)

    return _make(out_data, (weight,), backward)


def embed(weights, idx) -> Tensor:
    """Each column's lookup side by side: ``out[:, j] = weights[j][idx[:, j]]``,
    (n, l, d). ``stack`` of l ``gather_rows`` as one op, with their bits."""
    weights = [_as_tensor(w) for w in weights]
    idx = np.asarray(idx)
    out_data = np.empty(idx.shape + weights[0].data.shape[1:],
                        np.result_type(*(w.data for w in weights)))
    for j, w in enumerate(weights):
        out_data[:, j] = w.data[idx[:, j]]
    nodes = [(_node(w), w.data.shape, w.data.dtype) for w in weights]

    def backward(g):
        for j, (nw, sw, dw) in enumerate(nodes):
            if nw is not None:
                gw = np.zeros(sw, dw)
                np.add.at(gw, idx[:, j], g[:, j])
                _accum(nw, gw)

    return _make(out_data, tuple(weights), backward)


def stack(tensors, axis=1) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)
    nodes = [_node(t) for t in tensors]

    def backward(g):
        for i, n in enumerate(nodes):
            if n is not None:
                _accum(n, np.take(g, i, axis=axis))

    return _make(out_data, tuple(tensors), backward)


def select(a, axis: int, index: int) -> Tensor:
    """Pick one slice along ``axis`` (e.g. the hidden state of field j)."""
    a = _as_tensor(a)
    out_data = np.take(a.data, index, axis=axis)
    na, sa, da = a.node, a.data.shape, a.data.dtype

    def backward(g):
        ga = np.zeros(sa, da)
        sl = [slice(None)] * len(sa)
        sl[axis] = index
        ga[tuple(sl)] = g
        _accum(na, ga)

    return _make(out_data, (a,), backward)


# Softmax, GELU and layer norm run over row blocks of ``x.reshape(-1, d)``
# of at most this many elements (256 KiB of float32), so that their
# temporaries stay in cache.
_BLOCK = 1 << 16


def _rows(x: np.ndarray) -> np.ndarray:
    """``x`` as (rows, last axis), in the float dtype numpy computes it in."""
    x = x.astype(np.result_type(x, 1.0), copy=False)
    return x.reshape(-1, x.shape[-1]) if x.ndim else x.reshape(1, 1)


def _block_rows(d: int) -> int:
    return max(1, _BLOCK // max(1, d))


def _blocks(n: int, d: int) -> list[slice]:
    step = _block_rows(d)
    return [slice(i, i + step) for i in range(0, n, step)]


def _scratch(k: int, x: np.ndarray) -> np.ndarray:
    """``k`` arrays of one row block of the 2-D ``x``, which every block
    reuses instead of allocating its own temporaries."""
    n, d = x.shape
    return np.empty((k, min(n, _block_rows(d)), d), x.dtype)


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


def row_sum(x: np.ndarray) -> np.ndarray:
    """Each row's sum of a C-ordered 2-D array, as a column.

    Numpy adds a row of fewer than 8 entries to 0 one entry at a time, in
    order, at about 0.02 us per row. Many such rows are summed one column at
    a time into a zero vector instead, which is the same additions in the
    same order, so the same bits: (12288, 3) float32 in 34 us against 247 us.
    """
    n, d = x.shape
    if not 0 < d < 8 or n < 32 * d:
        return np.add.reduce(x, axis=1, keepdims=True)
    s = np.zeros(n, x.dtype)
    for j in range(d):
        s += x[:, j]
    return s[:, None]


def softmax_rows(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Softmax of each row of the 2-D ``x``, exp(x - row max) / row sum,
    written into ``out`` one row block at a time; ``out`` may be ``x``."""
    for sl in _blocks(*x.shape):
        o = np.subtract(x[sl], row_max(x[sl]), out=out[sl])
        np.exp(o, out=o)
        o /= row_sum(o)
    return out


def softmax(a) -> Tensor:
    """Softmax over the last axis."""
    a = _as_tensor(a)
    x = _rows(a.data)
    out = softmax_rows(x, np.empty_like(x))
    na, sa = a.node, a.data.shape

    def backward(g):
        g = _rows(g)
        ga = np.empty(g.shape, np.result_type(g, out))
        for sl in _blocks(*g.shape):
            dot = row_sum(g[sl] * out[sl])
            np.multiply(out[sl], g[sl] - dot, out=ga[sl])
        _accum(na, ga.reshape(sa))

    return _make(out.reshape(a.data.shape), (a,), backward)


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    out_data = 1.0 / (1.0 + np.exp(-a.data))
    na = a.node

    def backward(g):
        _accum(na, g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), backward)


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu_block(xb: np.ndarray, out: np.ndarray, t: np.ndarray, u: np.ndarray):
    """Tanh-approximation GELU of one row block into ``out``, which may be
    ``xb``. The block's tanh goes into ``t``; ``u`` is scratch."""
    # tanh(c * (x + 0.044715 * (x * x * x))), in place. x * x * x, not
    # x**3, which takes numpy's much slower general power path.
    np.multiply(xb, xb, out=t)
    t *= xb
    t *= 0.044715
    t += xb
    t *= _GELU_C
    np.tanh(t, out=t)
    # 0.5 * x * (1 + t), into out only once xb is no longer read.
    np.add(t, 1.0, out=u)
    np.multiply(xb, 0.5, out=out)
    out *= u


def _gelu_grad_block(gb: np.ndarray, xb: np.ndarray, t: np.ndarray, out: np.ndarray,
                     u: np.ndarray, s: np.ndarray):
    """``gb`` times GELU's derivative at ``xb``, whose tanh is ``t``, into
    ``out``, which may be ``gb``. ``t`` is overwritten; ``u`` and ``s`` are
    scratch."""
    # 0.5 * (1 + t) + 0.5 * x * (1 - t * t) * c * (1 + 3 * 0.044715 * (x * x)),
    # in place: each product and sum has the operands of that formula, so
    # the bits do not change.
    np.add(t, 1.0, out=u)
    u *= 0.5
    np.multiply(t, t, out=t)
    np.subtract(1.0, t, out=t)
    np.multiply(xb, 0.5, out=s)
    t *= s
    np.multiply(xb, xb, out=s)
    s *= 3 * 0.044715
    s += 1.0
    s *= _GELU_C
    t *= s
    u += t
    np.multiply(gb, u, out=out)


def gelu(a) -> Tensor:
    """Tanh-approximation GELU."""
    a = _as_tensor(a)
    x = _rows(a.data)
    out = np.empty_like(x)
    # Without a tape, tanh is kept one block at a time.
    t = np.empty_like(x) if _grad_enabled and a.requires_grad else None
    tb, u = _scratch(2, x)
    for sl in _blocks(*x.shape):
        r = len(x[sl])
        _gelu_block(x[sl], out[sl], tb[:r] if t is None else t[sl], u[:r])
    na, sa = a.node, a.data.shape

    def backward(g):
        g = _rows(g)
        ga = np.empty(g.shape, np.result_type(g, x))
        u, s = _scratch(2, x)
        for sl in _blocks(*x.shape):
            r = len(x[sl])
            _gelu_grad_block(g[sl], x[sl], t[sl], ga[sl], u[:r], s[:r])
        _accum(na, ga.reshape(sa))

    return _make(out.reshape(a.data.shape), (a,), backward)


def ffn(x, w1, b1, w2, b2, keep=None) -> Tensor:
    """``linear(mul(gelu(linear(x, w1, b1)), keep), w2, b2)`` as one op on
    x's (rows, d) view, like ``linear``; ``keep`` is a dropout mask over the
    hidden layer, or None for none.

    The tape keeps the input and the pre-activation h, not the activation
    or its tanh: backward recomputes both from h one row block at a time.
    Without a tape the activation is written over h.
    """
    x, w1, b1, w2, b2 = (_as_tensor(t) for t in (x, w1, b1, w2, b2))
    nx, nw1, nb1, nw2, nb2 = (_node(t) for t in (x, w1, b1, w2, b2))
    taped = _grad_enabled and any(n is not None for n in (nx, nw1, nb1, nw2, nb2))
    rows, sx = _rows(x.data), x.data.shape
    h = np.matmul(rows, w1.data)
    h += b1.data
    if keep is not None:
        keep = keep.reshape(h.shape)
    act = np.empty_like(h) if taped else h
    t, u = _scratch(2, h)
    for sl in _blocks(*h.shape):
        r = len(h[sl])
        _gelu_block(h[sl], act[sl], t[:r], u[:r])
        if keep is not None:
            act[sl] *= keep[sl]
    out_data = np.matmul(act, w2.data)
    out_data += b2.data
    # h's gradient flows on when x, w1 or b1 needs one.
    into_h = nx is not None or nw1 is not None or nb1 is not None
    xx = rows if nw1 is not None else None
    xw1 = w1.data if nx is not None else None
    xw2 = w2.data if into_h else None

    def backward(g):
        g = _rows(g)
        # Two (rows, 4 * width) buffers at most: h's gradient, written in
        # place over g @ w2.T, and the recomputed activation w2's gradient reads.
        gh = np.matmul(g, xw2.T) if into_h else None
        act = np.empty_like(h) if nw2 is not None else None
        t, u, s = _scratch(3, h)
        for sl in _blocks(*h.shape):
            hb = h[sl]
            r = len(hb)
            _gelu_block(hb, s[:r] if act is None else act[sl], t[:r], u[:r])
            if keep is not None:
                if act is not None:
                    act[sl] *= keep[sl]
                if gh is not None:
                    gh[sl] *= keep[sl]
            if gh is not None:
                _gelu_grad_block(gh[sl], hb, t[:r], gh[sl], u[:r], s[:r])
        if nw2 is not None:
            _accum(nw2, np.matmul(act.T, g))
        del act
        if nb2 is not None:
            _accum(nb2, g.sum(axis=0))
        if nx is not None:
            _accum(nx, np.matmul(gh, xw1.T).reshape(sx))
        if nw1 is not None:
            _accum(nw1, np.matmul(xx.T, gh))
        if nb1 is not None:
            _accum(nb1, gh.sum(axis=0))

    return _make(out_data.reshape(sx[:-1] + w2.data.shape[1:]), (x, w1, b1, w2, b2), backward)


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
    # The input is not kept: the backward reads xhat, inv and the gain.
    na, ng, nb = _node(a), _node(gain), _node(bias)
    sa, sg, sb, dx = a.data.shape, gain.data.shape, bias.data.shape, x.dtype
    xg = gain.data if na is not None else None

    def backward(g):
        # The gain and bias gradients sum over the original shape: the order
        # of the sums depends on it.
        if ng is not None:
            _accum(ng, _unbroadcast(g * xhat.reshape(g.shape), sg))
        if nb is not None:
            _accum(nb, _unbroadcast(g, sb))
        if na is not None:
            g = _rows(g)
            ga = np.empty(g.shape, np.result_type(g, xg, dx))
            for sl in _blocks(n, d):
                gx = g[sl] * xg
                gmean = np.add.reduce(gx, axis=-1, keepdims=True) / d
                gdot = np.add.reduce(gx * xhat[sl], axis=-1, keepdims=True) / d
                np.multiply(inv[sl], gx - gmean - xhat[sl] * gdot, out=ga[sl])
            _accum(na, ga.reshape(sa))

    return _make(out.reshape(a.data.shape), (a, gain, bias), backward)


def dropout_mask(shape, dtype, p: float, rng: np.random.Generator, training: bool):
    """Inverted dropout's keep mask, 0 or 1 / (1 - p) per element; None,
    drawing nothing, when not training or p == 0."""
    if not training or p <= 0.0:
        return None
    return (rng.random(shape) >= p).astype(dtype) / (1.0 - p)


def dropout(a, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    a = _as_tensor(a)
    keep = dropout_mask(a.data.shape, a.data.dtype, p, rng, training)
    return a if keep is None else mul(a, Tensor(keep))


def drop_path(a, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Stochastic depth: drop the whole branch per row, rescale survivors."""
    a = _as_tensor(a)
    shape = (a.data.shape[0],) + (1,) * (a.data.ndim - 1)
    keep = dropout_mask(shape, a.data.dtype, p, rng, training)
    return a if keep is None else mul(a, Tensor(keep))


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
    lse = zmax[:, 0] + np.log(row_sum(np.exp(z - zmax))[:, 0])
    safe_t = np.where(active, targets, 0)
    losses = lse - z[np.arange(n), safe_t]
    count = int(active.sum())
    out_data = np.asarray(losses[active].sum(), dtype=z.dtype)
    nz = logits.node

    def backward(g):
        p = softmax_rows(z, np.empty_like(z))
        p[np.arange(n), safe_t] -= 1.0
        p[~active] = 0.0
        _accum(nz, g * p)

    return _make(out_data, (logits,), backward), count


def distinct_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each distinct row's first index in the 2-D ``x``, each row's index among
    them, and their counts; rows compare as bytes, faster than ``axis=0``."""
    x = np.ascontiguousarray(x)
    rows = x.view(np.dtype((np.void, x.itemsize * x.shape[1]))).ravel()
    return np.unique(rows, return_index=True, return_inverse=True, return_counts=True)[1:]
