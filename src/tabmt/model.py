"""The masked-transformer network for tabular rows.

Each field has its own embedding table: ordered (two endpoint vectors
interpolated by the quantizer's min-max ratios, plus a zero-initialized
residual matrix) for continuous fields, a standard normal-initialized
matrix for categorical fields. Output heads tie their weights to the
field embeddings and divide logits by a sigmoid-bounded learned
temperature.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .codec import CategoricalCodec, ContinuousCodec, FieldCodec


@dataclass(frozen=True)
class ModelConfig:
    width: int = 64
    depth: int = 4
    heads: int = 4
    dropout: float = 0.0
    drop_path: float = 0.0
    dtype: str = "float32"

    def __post_init__(self):
        for name in ("width", "depth", "heads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        for name in ("dropout", "drop_path"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {p}")
        if self.width % self.heads != 0:
            raise ValueError(f"width {self.width} not divisible by heads {self.heads}")

    @property
    def np_dtype(self):
        return np.dtype(self.dtype)


class _Module:
    """A group of parameters declared once, as ``Parameter`` attributes."""

    def parameters(self) -> list[tuple[str, Parameter]]:
        """(name, parameter) for each ``Parameter`` attribute, in the order
        ``__init__`` first assigns them; checkpoints store them in this order."""
        return [(n, p) for n, p in vars(self).items() if isinstance(p, Parameter)]


class OrderedEmbedding(_Module):
    """Continuous-field embedding interpolated between two endpoints.

    Effective row i is ``E_i + r_i * l_vec + (1 - r_i) * h_vec``; the
    residual E starts at zero so the initial embedding is a pure path
    between the endpoints.
    """

    def __init__(self, ratios: np.ndarray, dim: int, rng: np.random.Generator, dtype):
        k = len(ratios)
        self.ratios = np.asarray(ratios, dtype=dtype)
        self.E = Parameter(np.zeros((k, dim), dtype=dtype))
        self.l_vec = Parameter((rng.normal(0, 0.05, dim)).astype(dtype))
        self.h_vec = Parameter((rng.normal(0, 0.05, dim)).astype(dtype))

    def weight(self) -> Tensor:
        r = self.ratios[:, None]
        lo = ad.mul(Tensor(r), self.l_vec)
        hi = ad.mul(Tensor(1.0 - r), self.h_vec)
        return ad.add(self.E, ad.add(lo, hi))


class CategoricalEmbedding(_Module):
    def __init__(self, cardinality: int, dim: int, rng: np.random.Generator, dtype):
        self.E = Parameter(rng.normal(0, 0.05, (cardinality, dim)).astype(dtype))

    def weight(self) -> Tensor:
        return self.E


class DynamicLinear(_Module):
    """Output head tied to its field embedding, with learned temperature."""

    def __init__(self, embedding, dtype):
        self.embedding = embedding
        self.bias = Parameter(np.zeros(embedding.E.data.shape[0], dtype=dtype))
        self.temp = Parameter(np.ones(1, dtype=dtype))

    def forward(self, x: Tensor, weight: Tensor | None = None) -> Tensor:
        """Logits of the (..., d) states ``x``; ``weight`` is the embedding's
        ``weight()`` when the caller has it already."""
        w = self.embedding.weight() if weight is None else weight
        raw = ad.linear(x, ad.transpose(w, (1, 0)), self.bias)
        return ad.mul(raw, ad.reciprocal(ad.sigmoid(self.temp)))


class _EncoderBlock(_Module):
    """Pre-norm self-attention + feed-forward residual block."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        d = cfg.width
        dt = cfg.np_dtype
        init = lambda *shape: rng.normal(0, 0.02, shape).astype(dt)
        self.ln1_g = Parameter(np.ones(d, dtype=dt))
        self.ln1_b = Parameter(np.zeros(d, dtype=dt))
        self.wq = Parameter(init(d, d))
        self.bq = Parameter(np.zeros(d, dtype=dt))
        self.wk = Parameter(init(d, d))
        self.bk = Parameter(np.zeros(d, dtype=dt))
        self.wv = Parameter(init(d, d))
        self.bv = Parameter(np.zeros(d, dtype=dt))
        self.wo = Parameter(init(d, d))
        self.bo = Parameter(np.zeros(d, dtype=dt))
        self.ln2_g = Parameter(np.ones(d, dtype=dt))
        self.ln2_b = Parameter(np.zeros(d, dtype=dt))
        self.w1 = Parameter(init(d, 4 * d))
        self.b1 = Parameter(np.zeros(4 * d, dtype=dt))
        self.w2 = Parameter(init(4 * d, d))
        self.b2 = Parameter(np.zeros(d, dtype=dt))
        self.heads = cfg.heads
        self.dropout = cfg.dropout
        self.drop_path = cfg.drop_path

    def _attention(self, x: Tensor, rng, training, rows=None) -> Tensor:
        """Self-attention of (n, l, d) tokens for the queries at the (n, q)
        ``rows`` of x's (n·l, d) view, or at every position when ``rows`` is
        None (q = l); returns (n, q, d).

        The projections run on every token, q's on the query tokens only.
        q and v are viewed as (n, h, q or l, dh) and k as (n, h, dh, l), so
        the (n, h, q, l) scores and the (n, h, q, dh) context are each one
        product batched over (row, head). The context's heads merge back
        into (n, q, d) for the output projection.
        """
        n, l, d = x.shape
        h, dh = self.heads, d // self.heads
        queries = x if rows is None else ad.gather_rows(ad.reshape(x, (n * l, d)), rows)
        q, k, v = (ad.transpose(ad.reshape(ad.linear(t, w, b), t.shape[:2] + (h, dh)), axes)
                   for t, w, b, axes in ((queries, self.wq, self.bq, (0, 2, 1, 3)),
                                         (x, self.wk, self.bk, (0, 2, 3, 1)),
                                         (x, self.wv, self.bv, (0, 2, 1, 3))))
        # A Python float, not a numpy float64 scalar, so that NumPy 2
        # promotion keeps the activations in the model dtype.
        scores = ad.scale(ad.matmul(q, k), 1.0 / math.sqrt(dh))
        attn = ad.dropout(ad.softmax(scores), self.dropout, rng, training)
        ctx = ad.transpose(ad.matmul(attn, v), (0, 2, 1, 3))
        return ad.linear(ad.reshape(ctx, queries.shape), self.wo, self.bo)

    def forward(self, x: Tensor, rng, training, at=None) -> Tensor:
        """The block on (n, l, d) tokens; returns (n, q, d), the outputs at
        the (n, q) positions ``at`` of each row, or at all l positions in
        order when ``at`` is None.

        Layer norm 1, keys and values run on every position, since every
        query attends to all of them; queries, the output projection, both
        residuals, layer norm 2 and the feed-forward layer run at ``at`` only.
        """
        n, l, d = x.shape
        # Each row's positions as rows of the block's (n·l, d) view.
        rows = None if at is None else np.arange(n)[:, None] * l + at
        a = ad.layer_norm(x, self.ln1_g, self.ln1_b)
        a = self._attention(a, rng, training, rows)
        if rows is not None:
            x = ad.gather_rows(ad.reshape(x, (n * l, d)), rows)
        x = ad.add(x, ad.drop_path(a, self.drop_path, rng, training))
        f = ad.layer_norm(x, self.ln2_g, self.ln2_b)
        # The FFN's dropout mask, drawn after the attention branch's draws and
        # before the FFN's drop_path: the draw order fixes tokens per seed.
        keep = ad.dropout_mask(f.shape[:-1] + self.w1.shape[1:], f.dtype, self.dropout,
                               rng, training)
        f = ad.ffn(f, self.w1, self.b1, self.w2, self.b2, keep)
        return ad.add(x, ad.drop_path(f, self.drop_path, rng, training))


def distinct_states(tokens: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One row index per distinct (tokens, mask) row state, and each row's
    state. A masked cell's token does not count; at inference a row's
    outputs depend on its own state only, so they are computed once per state."""
    first, inverse, _ = ad.distinct_rows(np.where(mask, -1, tokens))
    return first, inverse


class TabMTModel:
    """Per-field embeddings, mask token, encoder stack, tied output heads."""

    def __init__(self, codecs: list[FieldCodec], cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        self.codecs = codecs
        dt = cfg.np_dtype
        rng = np.random.default_rng(seed)
        self.embeddings = []
        for codec in codecs:
            if isinstance(codec, ContinuousCodec):
                self.embeddings.append(OrderedEmbedding(codec.ratios, cfg.width, rng, dt))
            elif isinstance(codec, CategoricalCodec):
                self.embeddings.append(CategoricalEmbedding(codec.cardinality, cfg.width, rng, dt))
            else:
                raise TypeError(f"unsupported codec type {type(codec)!r}")
        l = len(codecs)
        self.mask_token = Parameter(rng.normal(0, 0.05, cfg.width).astype(dt))
        self.positional = Parameter(rng.normal(0, 0.01, (l, cfg.width)).astype(dt))
        self.blocks = [_EncoderBlock(cfg, rng) for _ in range(cfg.depth)]
        self.ln_f_g = Parameter(np.ones(cfg.width, dtype=dt))
        self.ln_f_b = Parameter(np.zeros(cfg.width, dtype=dt))
        self.heads = [DynamicLinear(emb, dt) for emb in self.embeddings]
        self.training = False

    @property
    def n_fields(self) -> int:
        return len(self.codecs)

    @property
    def cardinalities(self) -> list[int]:
        return [c.cardinality for c in self.codecs]

    def named_parameters(self) -> list[tuple[str, Parameter]]:
        out = []
        for j, emb in enumerate(self.embeddings):
            out += [(f"emb{j}.{n}", p) for n, p in emb.parameters()]
        out.append(("mask_token", self.mask_token))
        out.append(("positional", self.positional))
        for i, blk in enumerate(self.blocks):
            out += [(f"block{i}.{n}", p) for n, p in blk.parameters()]
        out += [("ln_f_g", self.ln_f_g), ("ln_f_b", self.ln_f_b)]
        for j, head in enumerate(self.heads):
            out += [(f"head{j}.{n}", p) for n, p in head.parameters()]
        return out

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    @contextmanager
    def inference(self):
        """Run the block with training off and no tape; the mode is restored on exit."""
        was_training, self.training = self.training, False
        try:
            with ad.no_grad():
                yield
        finally:
            self.training = was_training

    def tied_weights(self) -> list[Tensor]:
        """Each field's embedding weight, which its input lookup and its
        output head share."""
        return [e.weight() for e in self.embeddings]

    def _hidden(self, tokens: np.ndarray, mask: np.ndarray,
                rng: np.random.Generator | None, at: np.ndarray | None = None,
                weights: list[Tensor] | None = None) -> Tensor:
        """Final encoder hidden states after the pre-head layer norm, (n, l, d),
        or (n, q, d) at the (n, q) positions ``at`` of each row, where the last
        block runs. Each field looks up its own table; one blend over all
        fields puts the mask token in every masked cell."""
        tokens = np.asarray(tokens)
        mask = np.asarray(mask, dtype=bool)
        n, l = tokens.shape
        if l != self.n_fields:
            raise ValueError(f"expected {self.n_fields} fields, got {l}")
        rng = rng or np.random.default_rng(0)
        # Masked positions read the mask token; their token value is
        # irrelevant, so clamp it into range before the lookup.
        idx = np.where(mask, 0, tokens)
        bad = ((idx < 0) | (idx >= np.asarray(self.cardinalities))).any(axis=0)
        if bad.any():
            raise ValueError(f"token out of range at unmasked position, field {np.argmax(bad)}")
        emb = ad.embed(self.tied_weights() if weights is None else weights, idx)
        m = mask.astype(self.cfg.np_dtype)[:, :, None]
        x = ad.add(ad.mul(emb, Tensor(1.0 - m)), ad.mul(self.mask_token, Tensor(m)))
        x = ad.add(x, self.positional)
        for blk in self.blocks[:-1]:
            x = blk.forward(x, rng, self.training)
        x = self.blocks[-1].forward(x, rng, self.training, at)
        return ad.layer_norm(x, self.ln_f_g, self.ln_f_b)

    def forward(self, tokens: np.ndarray, mask: np.ndarray,
                rng: np.random.Generator | None = None,
                fields=None, weights: list[Tensor] | None = None) -> list[Tensor]:
        """Per-field logits: one (n, cardinality_j) tensor per field, in
        order. When ``fields`` is an (n, q) integer array, which gives each
        row its own q fields, one tensor per distinct field j asked for, in
        increasing order, whose rows are the (row, slot) pairs asking for j
        in row-major order; sampling a field needs its head alone. Such a
        forward computes the last encoder block only at the asked
        positions: its keys and values still cover every position, so the
        logits match the full forward's up to rounding, not bit for bit.

        ``weights`` are ``tied_weights()``, for a caller that runs many
        forwards on unchanged parameters; by default each lookup and head
        computes its own.
        """
        ws = weights or [None] * self.n_fields
        if fields is None:
            h = self._hidden(tokens, mask, rng, None, weights)
            return [self.heads[j].forward(ad.select(h, 1, j), ws[j])
                    for j in range(self.n_fields)]
        at = np.arange(self.n_fields)[fields]
        h = self._hidden(tokens, mask, rng, at, weights)
        return [self.heads[j].forward(ad.gather_rows(h, np.nonzero(at == j)), ws[j])
                for j in np.unique(at)]

    def embed_rows(self, tokens: np.ndarray,
                   missing: np.ndarray | None = None) -> np.ndarray:
        """Mean over field positions of the final hidden states, computed
        once per distinct row.

        Only ``missing`` cells are masked (default: none).
        """
        tokens = np.asarray(tokens)
        mask = np.zeros(tokens.shape, dtype=bool) if missing is None else np.asarray(missing)
        first, inverse = distinct_states(tokens, mask)
        with self.inference():
            return self._hidden(tokens[first], mask[first], None).data.mean(axis=1)[inverse]
