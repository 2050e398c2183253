"""Minimal reverse-mode autodiff over dense numpy arrays.

Only the operations the masked-transformer model needs are implemented:
matmul (2-D and batched), broadcast add/multiply, softmax, layer norm,
GELU, sigmoid, dropout/drop-path, embedding lookup, stack/select, means
and a fused masked cross entropy. Tapes are dynamic: every op records a
backward closure on the output tensor and ``Tensor.backward`` walks the
graph in reverse topological order. Inside ``no_grad()`` ops record no
tape, so inference keeps no parents or closures alive.

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
    if t.grad is None:
        t.grad = g if (g.base is None and g.flags.owndata) else g.copy()
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


def mean(a, axis=None) -> Tensor:
    a = _as_tensor(a)
    out_data = a.data.mean(axis=axis)
    count = a.data.size if axis is None else a.data.shape[axis]

    def backward(g):
        if axis is None:
            _accum(a, np.full_like(a.data, g / count))
        else:
            _accum(a, np.repeat(np.expand_dims(g, axis), count, axis=axis) / count)

    return _make(out_data, (a,), backward)


def softmax(a) -> Tensor:
    """Softmax over the last axis."""
    a = _as_tensor(a)
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * out_data).sum(axis=-1, keepdims=True)
        _accum(a, out_data * (g - dot))

    return _make(out_data, (a,), backward)


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
    x = a.data
    # x * x * x, not x**3, which takes numpy's much slower general power path.
    inner = _GELU_C * (x + 0.044715 * (x * x * x))
    t = np.tanh(inner)
    out_data = 0.5 * x * (1.0 + t)

    def backward(g):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * (x * x))
        da = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
        _accum(a, g * da)

    return _make(out_data, (a,), backward)


def layer_norm(a, gain, bias, eps: float = 1e-5) -> Tensor:
    """Layer norm over the last axis with learned affine."""
    a, gain, bias = _as_tensor(a), _as_tensor(gain), _as_tensor(bias)
    x = a.data
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out_data = xhat * gain.data + bias.data

    def backward(g):
        n = x.shape[-1]
        if gain.requires_grad:
            _accum(gain, _unbroadcast(g * xhat, gain.data.shape))
        if bias.requires_grad:
            _accum(bias, _unbroadcast(g, bias.data.shape))
        if a.requires_grad:
            gx = g * gain.data
            gmean = gx.mean(axis=-1, keepdims=True)
            gdot = (gx * xhat).mean(axis=-1, keepdims=True)
            _accum(a, inv * (gx - gmean - xhat * gdot))

    return _make(out_data, (a, gain, bias), backward)


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
    zmax = z.max(axis=1, keepdims=True)
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


def grad_check(f, params, h: float = 1e-5, rng=None, max_coords: int = 8) -> float:
    """Compare reverse-mode gradients against central finite differences.

    ``f`` is a closure returning a scalar loss Tensor; it is re-evaluated
    after each parameter perturbation. Returns the max relative error over
    up to ``max_coords`` sampled coordinates per parameter. Parameters
    must be float64 for the stated tolerances to hold.
    """
    rng = rng or np.random.default_rng(0)
    for p in params:
        p.grad = None
    loss = f()
    loss.backward()
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]

    worst = 0.0
    for p, g_ad in zip(params, analytic):
        flat = p.data.reshape(-1)
        n = flat.size
        coords = rng.choice(n, size=min(max_coords, n), replace=False)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + h
            fp = float(f().data)
            flat[c] = orig - h
            fm = float(f().data)
            flat[c] = orig
            g_fd = (fp - fm) / (2 * h)
            g_a = float(g_ad.reshape(-1)[c])
            err = abs(g_a - g_fd) / max(1.0, abs(g_a), abs(g_fd))
            worst = max(worst, err)
    return worst
