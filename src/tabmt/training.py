"""Uniform-probability masking and the training loop."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .model import TabMTModel
from .optim import AdamW, cosine_schedule
from .schema import TokenTable, write_rows


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 256
    max_steps: int = 2000
    warmup_steps: int = 100
    peak_lr: float = 2e-3
    weight_decay: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1 or self.max_steps < 1:
            raise ValueError("batch_size and max_steps must be positive")
        if not 0 <= self.warmup_steps < self.max_steps:
            raise ValueError("warmup_steps must lie in [0, max_steps)")
        for name in ("peak_lr", "weight_decay"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and at least 0, got {v}")


def sample_mask(n: int, l: int, missing: np.ndarray | None,
                rng: np.random.Generator) -> np.ndarray:
    """Per row, draw p ~ U(0,1) and mask each cell with probability p.

    The marginal over p makes the masked-count uniform over {0..l}.
    Missing cells are always masked.
    """
    p = rng.random((n, 1))
    mask = rng.random((n, l)) < p
    if missing is not None:
        mask |= np.asarray(missing, dtype=bool)
    return mask


def training_step(model: TabMTModel, tokens: np.ndarray, missing: np.ndarray,
                  rng: np.random.Generator) -> float:
    """One masked-prediction step: sample a mask, score only cells that are
    masked and not missing, backpropagate, return the mean loss."""
    tokens = np.asarray(tokens)
    missing = np.asarray(missing, dtype=bool)
    n, l = tokens.shape
    mask = sample_mask(n, l, missing, rng)
    scored = mask & ~missing
    logits = model.forward(tokens, mask, rng)
    total = None
    count = 0
    for j in range(l):
        loss_j, count_j = ad.cross_entropy_sum(logits[j], tokens[:, j], scored[:, j])
        count += count_j
        total = loss_j if total is None else ad.add(total, loss_j)
    if count == 0:
        return 0.0
    loss = ad.scale(total, 1.0 / count)
    loss.backward()
    return float(loss.data)


def train(model: TabMTModel, table: TokenTable, config: TrainConfig
          ) -> list[tuple[int, float, float]]:
    """Fixed-step training with AdamW and cosine annealing.

    Minibatches are drawn uniformly with replacement. Returns the loss
    history as (step, lr, loss) triples.
    """
    if table.n_rows == 0:
        raise ValueError("cannot train on an empty table")
    rng = np.random.default_rng(config.seed)
    opt = AdamW(model.parameters(), lr=config.peak_lr,
                weight_decay=config.weight_decay)
    history: list[tuple[int, float, float]] = []
    model.training = True
    try:
        for step in range(config.max_steps):
            lr = cosine_schedule(step, config.warmup_steps, config.max_steps,
                                 config.peak_lr)
            opt.lr = lr
            idx = rng.integers(0, table.n_rows, size=min(config.batch_size, table.n_rows))
            opt.zero_grad()
            loss = training_step(model, table.tokens[idx], table.missing[idx], rng)
            if not np.isfinite(loss):
                raise FloatingPointError(
                    f"non-finite loss {loss!r} at step {step} (lr={lr:.3g})")
            opt.step()
            history.append((step, lr, loss))
    finally:
        model.training = False
    return history


def write_loss_history(history: list[tuple[int, float, float]], path: str):
    write_rows(path, ["step", "lr", "loss"],
               ([step, f"{lr:.10g}", f"{loss:.10g}"] for step, lr, loss in history))
