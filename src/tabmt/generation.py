"""Random-order masked generation, temperature sampling, and imputation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .model import TabMTModel
from .schema import TokenTable

ARGMAX_TAU = 1e-6


@dataclass(frozen=True)
class GenerationSpec:
    count: int
    temps: tuple[float, ...] | None = None
    condition: dict[int, int] = field(default_factory=dict)
    seed: int = 0
    batch_size: int = 512

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("count must be non-negative")
        if self.temps is not None and any(t <= 0 for t in self.temps):
            raise ValueError("user temperatures must be strictly positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")


def sample_field(logits: np.ndarray, tau_u: float, rng: np.random.Generator
                 ) -> np.ndarray:
    """Categorical draw per row from softmax(logits / tau_u).

    Below ARGMAX_TAU the zero-temperature limit is taken exactly
    (argmax) to avoid overflow.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite logits")
    if tau_u < ARGMAX_TAU:
        return np.argmax(logits, axis=-1)
    z = logits / tau_u
    z -= z.max(axis=-1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=-1, keepdims=True)
    cdf = np.cumsum(p, axis=-1)
    u = rng.random((logits.shape[0], 1))
    return np.minimum((u >= cdf[:, :-1]).sum(axis=-1), logits.shape[-1] - 1)


def _resolve_temps(model: TabMTModel, temps) -> list[float]:
    l = model.n_fields
    if temps is None:
        return [1.0] * l
    temps = list(temps)
    if len(temps) != l:
        raise ValueError(f"expected {l} temperatures, got {len(temps)}")
    return [float(t) for t in temps]


def generate(model: TabMTModel, spec: GenerationSpec) -> TokenTable:
    """Ancestral generation in a uniformly random field order.

    All cells start masked except conditioned fields; one permutation of
    the unconditioned indices is drawn per batch, and each field is
    sampled from softmax(logits / tau_u) then unmasked.
    """
    l = model.n_fields
    temps = _resolve_temps(model, spec.temps)
    for j, t in spec.condition.items():
        if not 0 <= j < l:
            raise ValueError(f"conditioned field index {j} out of range")
        if not 0 <= t < model.cardinalities[j]:
            raise ValueError(f"conditioned token {t} out of range for field {j}")
    rng = np.random.default_rng(spec.seed)
    free = [j for j in range(l) if j not in spec.condition]
    out_tokens = np.zeros((spec.count, l), dtype=np.int64)
    was_training = model.training
    model.training = False
    try:
        with ad.no_grad():
            for start in range(0, spec.count, spec.batch_size):
                n = min(spec.batch_size, spec.count - start)
                tokens = np.zeros((n, l), dtype=np.int64)
                mask = np.ones((n, l), dtype=bool)
                for j, t in spec.condition.items():
                    tokens[:, j] = t
                    mask[:, j] = False
                order = rng.permutation(free) if free else []
                for j in order:
                    logits = model.forward(tokens, mask, fields=(j,))[0].data
                    tokens[:, j] = sample_field(logits, temps[j], rng)
                    mask[:, j] = False
                out_tokens[start:start + n] = tokens
    finally:
        model.training = was_training
    return TokenTable(schema=None, tokens=out_tokens)


def impute(model: TabMTModel, table: TokenTable, temps=None, seed: int = 0,
           batch_size: int = 512) -> TokenTable:
    """Fill missing cells in random order, keeping observed cells fixed."""
    temps_l = _resolve_temps(model, temps)
    rng = np.random.default_rng(seed)
    tokens = table.tokens.copy()
    n_total, l = tokens.shape
    was_training = model.training
    model.training = False
    try:
        with ad.no_grad():
            for start in range(0, n_total, batch_size):
                end = min(start + batch_size, n_total)
                batch = tokens[start:end]
                mask = table.missing[start:end].copy()
                for j in rng.permutation(l):
                    rows = mask[:, j]
                    if not rows.any():
                        continue
                    logits = model.forward(np.where(mask, 0, batch), mask,
                                           fields=(j,))[0].data
                    batch[rows, j] = sample_field(logits[rows], temps_l[j], rng)
                    mask[:, j] = False
                tokens[start:end] = batch
    finally:
        model.training = was_training
    missing = np.zeros_like(table.missing)
    return TokenTable(schema=table.schema, tokens=tokens, missing=missing,
                      source=table.source)


def order_distribution_oracle(l: int, samples: int, rng: np.random.Generator
                              ) -> dict[int, np.ndarray]:
    """Empirical distribution of the masked subset at each generation step.

    Subsets are encoded as bitmasks. Returns, per step t in 0..l, an array
    of frequencies indexed by bitmask. At step t every size-(l-t) subset
    should appear with probability 1 / C(l, l-t).
    """
    if l > 6:
        raise ValueError("oracle is for small l only (exhaustive enumeration)")
    orders = np.argsort(rng.random((samples, l)), axis=1)
    bits = 1 << orders
    out: dict[int, np.ndarray] = {}
    masked = np.full(samples, (1 << l) - 1, dtype=np.int64)
    out[0] = np.bincount(masked, minlength=1 << l) / samples
    for t in range(l):
        masked = masked & ~bits[:, t]
        out[t + 1] = np.bincount(masked, minlength=1 << l) / samples
    return out
