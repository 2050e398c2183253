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


def sample_field(logits: np.ndarray, tau: float, u: np.ndarray) -> np.ndarray:
    """One categorical draw per row i from softmax(logits[i] / tau), the
    inverse CDF at the uniform u[i]. The rows are one field's logits, so
    they share one width and one temperature.

    Below ARGMAX_TAU the zero-temperature limit is taken exactly (argmax),
    to avoid overflow, and the uniforms go unused.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(logits).all():
        raise ValueError("non-finite logits")
    if tau < ARGMAX_TAU:
        return np.argmax(logits, axis=-1)
    z = logits / tau
    cdf = np.cumsum(softmax_rows(z, z), axis=-1)
    u = np.asarray(u, dtype=np.float64).reshape(-1, 1)
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


def _draws(rng: np.random.Generator, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's unmasking order and its uniforms, (n, l) each.

    Row i's masked fields come first in ``order[i]``, sorted by uniform
    keys, so each row unmasks its own uniformly random order; step t
    samples cell (i, order[i, t]) at the uniform ``u[i, t]``. Every row takes
    2·l draws from ``rng``, its l keys and then its l uniforms, whatever it
    holds, so a row's draws do not depend on how the rows are batched.
    """
    keys, u = rng.random((len(mask), 2, mask.shape[1])).transpose(1, 0, 2)
    return np.argsort(np.where(mask, keys, 2.0), axis=1, kind="stable"), u


def _step(model: TabMTModel, tokens: np.ndarray, mask: np.ndarray, fields: np.ndarray,
          temps: np.ndarray, u: np.ndarray, weights) -> np.ndarray:
    """Row i's draw for its field ``fields[i]`` at the uniform ``u[i]``.

    One forward runs each distinct row state once, with the last block at
    the sorted distinct fields that state's rows ask for; a state asking for
    fewer fields than the most any state asks for repeats its first field.
    Each field's rows are drawn from that field's logits at its temperature.
    """
    src, state = distinct_states(tokens, mask)
    asked = np.zeros((len(src), model.n_fields), dtype=bool)
    asked[state, fields] = True
    count = asked.sum(axis=1, keepdims=True)
    at = np.argsort(~asked, axis=1, kind="stable")[:, :count.max()]
    at = np.where(np.arange(at.shape[1]) < count, at, at[:, :1])
    out = np.empty(len(tokens), dtype=np.int64)
    for j, logits in zip(np.unique(at), model.forward(tokens[src], mask[src], None, at, weights)):
        # Field j's logits rows are the positions of ``at`` holding j, in
        # row-major order; a padded state holds j twice, and its first is taken.
        owner = np.nonzero(at == j)[0]
        rows = np.flatnonzero(fields == j)
        out[rows] = sample_field(logits.data[np.searchsorted(owner, state[rows])],
                                 temps[j], u[rows])
    return out


def _sample(model: TabMTModel, tokens: np.ndarray, mask: np.ndarray,
            temps: list[float], seed: int, batch_size: int):
    """Fill the masked cells of ``tokens`` in place, ``batch_size`` rows at a
    time, each row in its own order (``_draws``): step t samples each row's
    t-th masked field from softmax(logits / tau) and unmasks it."""
    temps = np.asarray(temps)
    rng = np.random.default_rng(seed)
    with model.inference():
        weights = model.tied_weights()
        for start in range(0, len(tokens), batch_size):
            batch = tokens[start:start + batch_size]  # a view: samples land in tokens
            m = mask[start:start + batch_size].copy()
            order, u = _draws(rng, m)
            left = m.sum(axis=1)
            for t in range(left.max(initial=0)):
                rows = np.flatnonzero(left > t)
                f = order[rows, t]
                batch[rows, f] = _step(model, batch[rows], m[rows], f, temps, u[rows, t],
                                       weights)
                m[rows, f] = False


def generate(model: TabMTModel, spec: GenerationSpec) -> TokenTable:
    """Ancestral generation, each row in its own uniformly random field order.

    Conditioned cells start observed and every other cell masked; each
    step samples one masked field per row from softmax(logits / tau_u) and
    unmasks it. The draws per row do not depend on ``batch_size``, so
    neither do the tokens, up to the rounding of batched products.
    """
    l = model.n_fields
    temps = _checked_temps(spec.temps, l)
    for j, t in spec.condition.items():
        if not 0 <= j < l:
            raise ValueError(f"conditioned field index {j} out of range")
        if not 0 <= t < model.cardinalities[j]:
            raise ValueError(f"conditioned token {t} out of range for field {j}")
    tokens = np.zeros((spec.count, l), dtype=np.int64)
    mask = np.ones((spec.count, l), dtype=bool)
    for j, t in spec.condition.items():
        tokens[:, j] = t
        mask[:, j] = False
    _sample(model, tokens, mask, temps, spec.seed, spec.batch_size)
    return TokenTable(schema=None, tokens=tokens)


def impute(model: TabMTModel, table: TokenTable, temps=None, seed: int = 0,
           batch_size: int = 512) -> TokenTable:
    """Fill missing cells, each row in its own random order, keeping
    observed cells fixed; the sampler is ``generate``'s."""
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    temps_l = _checked_temps(temps, model.n_fields)
    tokens = table.tokens.copy()
    _sample(model, tokens, table.missing, temps_l, seed, batch_size)
    missing = np.zeros_like(table.missing)
    return TokenTable(schema=table.schema, tokens=tokens, missing=missing,
                      source=table.source)
