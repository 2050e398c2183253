"""AdamW with decoupled weight decay and the cosine warmup schedule."""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Parameter


class AdamW:
    """Decoupled-weight-decay Adam (bias-corrected moments).

    Decay is applied directly to the parameter, scaled by the current
    learning rate, independently of the moment-based update.
    """

    def __init__(self, params: list[Parameter], lr: float = 2e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.01):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self._scratch = [(buf[0, ...], buf[1, ...]) for buf in
                         (np.empty((2,) + p.data.shape, p.data.dtype) for p in self.params)]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        """Updates in place, with the out-of-place formula's products and sums in its order."""
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            g = np.zeros_like(p.data) if p.grad is None else p.grad
            m, v, (s, u) = self.m[i], self.v[i], self._scratch[i]
            if (g.shape, g.dtype) != (m.shape, m.dtype):  # m mirrors the parameter
                raise ValueError(f"parameter {i}: grad {g.dtype}{g.shape} != {m.dtype}{m.shape}")
            if not np.isfinite(g).all():
                raise FloatingPointError("non-finite gradient in AdamW step")
            if self.weight_decay:
                p.data -= np.multiply(self.lr * self.weight_decay, p.data, out=s)
            m *= b1
            m += np.multiply(1 - b1, g, out=s)
            v *= b2
            v += np.multiply(np.multiply(1 - b2, g, out=s), g, out=s)
            # lr * mhat / (sqrt(vhat) + eps)
            np.multiply(np.divide(m, 1 - b1**t, out=s), self.lr, out=s)
            np.sqrt(np.divide(v, 1 - b2**t, out=u), out=u)
            u += self.eps
            p.data -= np.divide(s, u, out=s)


def cosine_schedule(step: int, warmup: int, total: int, peak_lr: float) -> float:
    """Linear warmup from 0 to ``peak_lr``, then cosine decay to 0."""
    if not 0 <= step <= total:
        raise ValueError(f"step {step} outside [0, {total}]")
    if warmup >= total:
        raise ValueError("warmup must be smaller than total steps")
    if step < warmup:
        return peak_lr * step / warmup if warmup > 0 else peak_lr
    progress = (step - warmup) / (total - warmup)
    return peak_lr * 0.5 * (1.0 + math.cos(math.pi * progress))
