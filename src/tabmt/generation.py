"""Random-order masked generation, temperature sampling, and imputation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import softmax_rows
from .model import TabMTModel, distinct_states
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
        if self.temps is not None:  # generate checks the count against the model
            _checked_temps(self.temps, len(self.temps))
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
    cdf = np.cumsum(softmax_rows(z, z), axis=-1)
    u = rng.random((logits.shape[0], 1))
    return np.minimum((u >= cdf[:, :-1]).sum(axis=-1), logits.shape[-1] - 1)


def _checked_temps(temps, l: int) -> list[float]:
    """``l`` temperatures, each finite and greater than 0; None gives 1 per field."""
    if temps is None:
        return [1.0] * l
    temps = [float(t) for t in temps]
    if len(temps) != l:
        raise ValueError(f"temps: expected {l} temperatures, got {len(temps)}")
    for j, t in enumerate(temps):
        if not (np.isfinite(t) and t > 0):
            raise ValueError(f"temps: field {j}'s temperature {t!r} "
                             "is not finite and greater than 0")
    return temps


def _field_order(fields, rng: np.random.Generator) -> np.ndarray:
    """The uniformly random order in which generate and impute unmask ``fields``."""
    return rng.permutation(np.asarray(fields, dtype=np.int64))


def _field_logits(model: TabMTModel, tokens: np.ndarray, mask: np.ndarray,
                  j: int) -> np.ndarray:
    """Field j's logits per row, computed once per distinct (tokens, mask)
    row state, by a forward that runs the last block at field j only."""
    first, inverse = distinct_states(tokens, mask)
    logits = model.forward(tokens[first], mask[first], fields=(j,))[0].data
    return logits[inverse]


def generate(model: TabMTModel, spec: GenerationSpec) -> TokenTable:
    """Ancestral generation in a uniformly random field order.

    All cells start masked except conditioned fields; one permutation of
    the unconditioned indices is drawn per batch, and each field is
    sampled from softmax(logits / tau_u) then unmasked. Each step's forward
    asks for the sampled field's head only, so the last encoder block runs
    at that field's position alone. All rows share the first step's state,
    so it runs one row; later steps run every row, as their count of
    distinct states would vary with the drawn order.
    """
    l = model.n_fields
    temps = _checked_temps(spec.temps, l)
    for j, t in spec.condition.items():
        if not 0 <= j < l:
            raise ValueError(f"conditioned field index {j} out of range")
        if not 0 <= t < model.cardinalities[j]:
            raise ValueError(f"conditioned token {t} out of range for field {j}")
    rng = np.random.default_rng(spec.seed)
    free = [j for j in range(l) if j not in spec.condition]
    out_tokens = np.zeros((spec.count, l), dtype=np.int64)
    with model.inference():
        for start in range(0, spec.count, spec.batch_size):
            n = min(spec.batch_size, spec.count - start)
            tokens = np.zeros((n, l), dtype=np.int64)
            mask = np.ones((n, l), dtype=bool)
            for j, t in spec.condition.items():
                tokens[:, j] = t
                mask[:, j] = False
            for step, j in enumerate(_field_order(free, rng)):
                rows = n if step else 1
                logits = model.forward(tokens[:rows], mask[:rows], fields=(j,))[0].data
                tokens[:, j] = sample_field(np.repeat(logits, n // rows, axis=0), temps[j], rng)
                mask[:, j] = False
            out_tokens[start:start + n] = tokens
    return TokenTable(schema=None, tokens=out_tokens)


def impute(model: TabMTModel, table: TokenTable, temps=None, seed: int = 0,
           batch_size: int = 512) -> TokenTable:
    """Fill missing cells in random order, keeping observed cells fixed.

    Field j's logits are computed for the rows where j is still masked,
    once per distinct row state.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    temps_l = _checked_temps(temps, model.n_fields)
    rng = np.random.default_rng(seed)
    tokens = table.tokens.copy()
    n_total, l = tokens.shape
    with model.inference():
        for start in range(0, n_total, batch_size):
            end = min(start + batch_size, n_total)
            batch = tokens[start:end]  # a view: samples land in tokens
            mask = table.missing[start:end].copy()
            for j in _field_order(range(l), rng):
                rows = mask[:, j]
                if not rows.any():
                    continue
                logits = _field_logits(model, batch[rows], mask[rows], j)
                batch[rows, j] = sample_field(logits, temps_l[j], rng)
                mask[:, j] = False
    missing = np.zeros_like(table.missing)
    return TokenTable(schema=table.schema, tokens=tokens, missing=missing,
                      source=table.source)
