"""Random-order masked generation, temperature sampling, and imputation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import distinct_rows, softmax_rows
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
        if self.temps is not None:  # generate checks the count against the model
            _checked_temps(self.temps, len(self.temps))
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")


def sample_field(logits: np.ndarray, tau, u: np.ndarray, widths=None) -> np.ndarray:
    """One categorical draw per row i from softmax(logits[i, :widths[i]] / tau[i]),
    the inverse CDF at the uniform u[i].

    ``tau`` and ``widths`` hold one value per row or one for every row;
    ``widths`` defaults to every column. A row whose temperature is below
    ARGMAX_TAU takes the zero-temperature limit exactly (argmax), to avoid
    overflow, and leaves its uniform unused. Rows of one width are drawn
    together, so each row's sums run over its own width alone.
    """
    logits = np.asarray(logits, dtype=np.float64)
    n, k = logits.shape
    tau = np.broadcast_to(np.asarray(tau, dtype=np.float64), (n,))
    widths = np.broadcast_to(k if widths is None else widths, (n,))
    u = np.asarray(u, dtype=np.float64).reshape(n)
    out = np.empty(n, dtype=np.int64)
    cold = tau < ARGMAX_TAU
    if cold.any():
        z, valid = logits[cold], np.arange(k) < widths[cold, None]
        if not np.isfinite(z[valid]).all():
            raise ValueError("non-finite logits")
        out[cold] = np.argmax(np.where(valid, z, -np.inf), axis=-1)
    hot = np.flatnonzero(~cold)
    hot = hot[np.argsort(widths[hot], kind="stable")]
    cuts = np.flatnonzero(np.diff(widths[hot])) + 1
    for rows in np.split(hot, cuts) if len(hot) else ():
        w = widths[rows[0]]
        z = logits[rows, :w]
        if not np.isfinite(z).all():
            raise ValueError("non-finite logits")
        z = z / tau[rows, None]
        cdf = np.cumsum(softmax_rows(z, z), axis=-1)
        out[rows] = np.minimum((u[rows, None] >= cdf[:, :-1]).sum(axis=-1), w - 1)
    return out


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


def _step_logits(model: TabMTModel, tokens: np.ndarray, mask: np.ndarray,
                 fields: np.ndarray, weights) -> np.ndarray:
    """Row i's logits for its field ``fields[i]``, as float64 in the first
    cardinality-of-that-field columns of a row as wide as the widest field;
    the rest of the row is left unset.

    One forward runs each distinct (row state, field) pair once, with the
    last block at its field; when every row is in one state, as at
    generation's first step, it runs that one row with the last block at
    each field asked for.
    """
    state = np.where(mask, -1, tokens)
    if (state == state[0]).all():
        src, at = [0], np.unique(fields)[None, :]
        slot = np.searchsorted(at[0], fields)
    else:
        src, slot, _ = distinct_rows(np.column_stack([state, fields]))
        at = fields[src, None]
    # Field j's output rows are the positions of ``at`` asking for j, in order.
    flat = at.ravel()
    logits = np.empty((len(flat), max(model.cardinalities)))
    for j, out in zip(np.unique(flat), model.forward(tokens[src], mask[src], None, at, weights)):
        logits[flat == j, :out.shape[1]] = out.data
    return logits[slot]


def _sample(model: TabMTModel, tokens: np.ndarray, mask: np.ndarray,
            temps: list[float], seed: int, batch_size: int):
    """Fill the masked cells of ``tokens`` in place, ``batch_size`` rows at a
    time, each row in its own order (``_draws``): step t samples each row's
    t-th masked field from softmax(logits / tau) and unmasks it."""
    temps = np.asarray(temps)
    widths = np.asarray(model.cardinalities)
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
                logits = _step_logits(model, batch[rows], m[rows], f, weights)
                batch[rows, f] = sample_field(logits, temps[f], u[rows, t], widths[f])
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
