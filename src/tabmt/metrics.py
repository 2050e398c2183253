"""Quality, privacy, and diversity metrics.

Rows are compared in a shared Euclidean feature space: continuous
fields min-max scaled by the training min/max, categorical fields
one-hot expanded. All nearest-neighbor searches are exact.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter
from .codec import CategoricalCodec, ContinuousCodec, FieldCodec
from .optim import AdamW
from .schema import MISSING, RawTable


class MetricError(ValueError):
    pass


@dataclass
class MetricSpace:
    """Fitted featurizer mapping decoded rows to fixed-width real vectors."""

    codecs: list[FieldCodec]
    mins: dict[int, float]
    maxs: dict[int, float]

    @classmethod
    def fit(cls, train: RawTable, codecs: list[FieldCodec]) -> "MetricSpace":
        mins, maxs = {}, {}
        for j, codec in enumerate(codecs):
            if isinstance(codec, ContinuousCodec):
                vals = [v for v in train.column(j) if v is not MISSING]
                if not vals:
                    raise MetricError(f"no observed values in continuous column {j}")
                mins[j] = min(vals)
                maxs[j] = max(vals)
        return cls(codecs=codecs, mins=mins, maxs=maxs)

    @property
    def dim(self) -> int:
        return sum(1 if isinstance(c, ContinuousCodec) else c.cardinality
                   for c in self.codecs)

    def transform(self, table: RawTable, exclude: int | None = None) -> np.ndarray:
        """Feature matrix; missing cells are scored as 0 in their block."""
        n = table.n_rows
        blocks = []
        for j, codec in enumerate(self.codecs):
            if j == exclude:
                continue
            col = table.column(j)
            if isinstance(codec, ContinuousCodec):
                lo, hi = self.mins[j], self.maxs[j]
                span = hi - lo if hi > lo else 1.0
                block = np.array(
                    [0.0 if v is MISSING else (v - lo) / span for v in col]
                ).reshape(n, 1)
            else:
                block = np.zeros((n, codec.cardinality))
                idx = codec.index
                for i, v in enumerate(col):
                    if v is not MISSING and v in idx:
                        block[i, idx[v]] = 1.0
            blocks.append(block)
        return np.concatenate(blocks, axis=1) if blocks else np.zeros((n, 0))


def _pair_chunk(n_cols: int, dim: int, budget: int = 262_144) -> int:
    # Keep the (chunk, n_cols, dim) difference tensor within the budget:
    # 2 MiB of float64 stays in a core's cache instead of streaming to DRAM.
    return max(1, budget // max(1, n_cols * dim))


def _sq_dists(block: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact squared distances via explicit differences.

    Matches a row-by-row double-precision oracle bit-for-bit, unlike the
    faster (a^2 + b^2 - 2ab) expansion.
    """
    diff = block[:, None, :] - b[None, :, :]
    np.multiply(diff, diff, out=diff)
    return diff.sum(axis=2)


def _chunked_min_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For each row of ``a``, the Euclidean distance to its nearest row of ``b``."""
    out = np.empty(len(a))
    chunk = _pair_chunk(len(b), a.shape[1])
    for start in range(0, len(a), chunk):
        block = a[start:start + chunk]
        d2 = _sq_dists(block, b)
        out[start:start + len(block)] = np.sqrt(d2.min(axis=1))
    return out


def dcr(synth: np.ndarray, train: np.ndarray) -> float:
    """Median Euclidean distance from each synthetic row to its nearest
    training row. Zero means memorization; higher is more private."""
    synth, train = np.asarray(synth, dtype=np.float64), np.asarray(train, dtype=np.float64)
    if synth.size == 0 or train.size == 0:
        raise MetricError("dcr requires non-empty inputs")
    if synth.shape[1] != train.shape[1]:
        raise MetricError("dcr dimension mismatch")
    return float(np.median(_chunked_min_dists(synth, train)))


def correlation_error_histogram(real: np.ndarray, synth: np.ndarray,
                                bins: int = 20) -> tuple[np.ndarray, np.ndarray]:
    """Histogram over [0, 2] of |corr_real(i,j) - corr_synth(i,j)| for every
    unordered column pair. Pairs involving a constant column count as 0."""
    real, synth = np.asarray(real, dtype=np.float64), np.asarray(synth, dtype=np.float64)
    if real.shape[1] != synth.shape[1]:
        raise MetricError("column count mismatch")
    if len(real) < 2 or len(synth) < 2:
        raise MetricError("need at least two rows to correlate")

    def corr(x):
        sd = x.std(axis=0)
        const = sd == 0
        xs = (x - x.mean(axis=0)) / np.where(const, 1.0, sd)
        c = (xs.T @ xs) / len(x)
        c[const, :] = 0.0
        c[:, const] = 0.0
        return c, const

    cr, const_r = corr(real)
    cs, const_s = corr(synth)
    err = np.abs(cr - cs)
    either_const = const_r | const_s
    err[either_const, :] = 0.0
    err[:, either_const] = 0.0
    iu = np.triu_indices(real.shape[1], k=1)
    counts, edges = np.histogram(err[iu], bins=bins, range=(0.0, 2.0))
    return counts, edges


def write_histogram_csv(counts: np.ndarray, edges: np.ndarray, path: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_left", "bin_right", "count"])
        for i, c in enumerate(counts):
            writer.writerow([f"{edges[i]:.6g}", f"{edges[i + 1]:.6g}", int(c)])


def diversity(synth_tokens: np.ndarray, real_tokens: np.ndarray) -> float:
    """Mean per-field set coverage of real distinct values by the synth set."""
    synth_tokens, real_tokens = np.asarray(synth_tokens), np.asarray(real_tokens)
    if synth_tokens.shape[1] != real_tokens.shape[1]:
        raise MetricError("field count mismatch")
    covs = []
    for j in range(real_tokens.shape[1]):
        real_set = set(real_tokens[:, j].tolist())
        synth_set = set(synth_tokens[:, j].tolist())
        covs.append(len(real_set & synth_set) / len(real_set))
    return float(np.mean(covs))


def _kth_nn_radius(points: np.ndarray, k: int) -> np.ndarray:
    """Distance from each point to its k-th nearest other point."""
    n = len(points)
    out = np.empty(n)
    chunk = _pair_chunk(n, points.shape[1])
    for start in range(0, n, chunk):
        block = points[start:start + chunk]
        d2 = _sq_dists(block, points)
        for i in range(len(block)):
            d2[i, start + i] = np.inf
        out[start:start + len(block)] = np.sqrt(np.partition(d2, k - 1, axis=1)[:, k - 1])
    return out


def _fraction_covered(queries: np.ndarray, centers: np.ndarray,
                      radii: np.ndarray) -> float:
    hits = 0
    chunk = _pair_chunk(len(centers), queries.shape[1])
    for start in range(0, len(queries), chunk):
        block = queries[start:start + chunk]
        d = np.sqrt(_sq_dists(block, centers))
        hits += int((d <= radii[None, :]).any(axis=1).sum())
    return hits / len(queries)


def precision_recall(real_emb: np.ndarray, synth_emb: np.ndarray, k: int = 3
                     ) -> tuple[float, float]:
    """k-NN manifold precision/recall over embedding clouds.

    The real manifold is the union of balls around each real point with
    radius equal to its k-th nearest real neighbor; precision is the
    fraction of synthetic points inside it. Recall swaps the roles.
    """
    real_emb = np.asarray(real_emb, dtype=np.float64)
    synth_emb = np.asarray(synth_emb, dtype=np.float64)
    if len(real_emb) <= k or len(synth_emb) <= k:
        raise MetricError(f"need more than k={k} points on each side")
    if np.allclose(real_emb, real_emb[0]) or np.allclose(synth_emb, synth_emb[0]):
        raise MetricError("degenerate (all-identical) embeddings")
    real_r = _kth_nn_radius(real_emb, k)
    synth_r = _kth_nn_radius(synth_emb, k)
    precision = _fraction_covered(synth_emb, real_emb, real_r)
    recall = _fraction_covered(real_emb, synth_emb, synth_r)
    return precision, recall


CLASSIFY = "classify"
REGRESS = "regress"


def _macro_f1(y_true: np.ndarray, y_pred: np.ndarray, classes: np.ndarray) -> float:
    f1s = []
    for c in classes:
        tp = int(((y_pred == c) & (y_true == c)).sum())
        fp = int(((y_pred == c) & (y_true != c)).sum())
        fn = int(((y_pred != c) & (y_true == c)).sum())
        denom = 2 * tp + fp + fn
        f1s.append(2 * tp / denom if denom else 0.0)
    return float(np.mean(f1s))


def _train_logistic(x: np.ndarray, y: np.ndarray, n_classes: int, steps: int = 300,
                    lr: float = 0.1, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    w = Parameter(rng.normal(0, 0.01, (x.shape[1], n_classes)))
    b = Parameter(np.zeros(n_classes))
    opt = AdamW([w, b], lr=lr, weight_decay=1e-4)
    active = np.ones(len(x), dtype=bool)
    for _ in range(steps):
        opt.zero_grad()
        logits = ad.add(ad.matmul(ad.Tensor(x), w), b)
        loss, count = ad.cross_entropy_sum(logits, y, active)
        loss = ad.scale(loss, 1.0 / count)
        loss.backward()
        opt.step()
    return w.data, b.data


def mle_proxy(synth_train: RawTable, real_test: RawTable, space: MetricSpace,
              target_index: int, task: str, seed: int = 0) -> float:
    """Downstream-task score of a simple learner fit on synthetic rows.

    Classification: multinomial logistic regression, macro-F1 on the real
    test set. Regression: ridge regression, R^2. A stand-in for heavier
    learners; meaningful for relative comparisons only.
    """
    if task not in (CLASSIFY, REGRESS):
        raise MetricError(f"unknown task {task!r}")
    codec = space.codecs[target_index]
    # Rows with a blank target can be neither fit nor scored.
    y_tr_raw = synth_train.column(target_index)
    y_te_raw = real_test.column(target_index)
    keep_tr = [i for i, v in enumerate(y_tr_raw) if v is not MISSING]
    keep_te = [i for i, v in enumerate(y_te_raw) if v is not MISSING]
    if not keep_tr or not keep_te:
        raise MetricError("no rows with an observed target")
    x_tr = space.transform(synth_train, exclude=target_index)[keep_tr]
    x_te = space.transform(real_test, exclude=target_index)[keep_te]
    y_tr_raw = [y_tr_raw[i] for i in keep_tr]
    y_te_raw = [y_te_raw[i] for i in keep_te]

    if task == CLASSIFY:
        if not isinstance(codec, CategoricalCodec):
            raise MetricError("classification target must be categorical")
        idx = codec.index
        y_tr = np.array([idx[v] for v in y_tr_raw])
        y_te = np.array([idx[v] for v in y_te_raw])
        if len(np.unique(y_tr)) < 2:
            raise MetricError("training target has a single class")
        w, b = _train_logistic(x_tr, y_tr, codec.cardinality, seed=seed)
        y_pred = np.argmax(x_te @ w + b, axis=1)
        return _macro_f1(y_te, y_pred, np.unique(y_te))

    y_tr = np.asarray(y_tr_raw, dtype=np.float64)
    y_te = np.asarray(y_te_raw, dtype=np.float64)
    # Closed-form ridge with a small l2 penalty and intercept.
    xa = np.concatenate([x_tr, np.ones((len(x_tr), 1))], axis=1)
    lam = 1e-3
    reg = lam * np.eye(xa.shape[1])
    reg[-1, -1] = 0.0
    beta = np.linalg.solve(xa.T @ xa + reg, xa.T @ y_tr)
    xb = np.concatenate([x_te, np.ones((len(x_te), 1))], axis=1)
    pred = xb @ beta
    ss_res = float(((y_te - pred) ** 2).sum())
    ss_tot = float(((y_te - y_te.mean()) ** 2).sum())
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0


@dataclass
class MetricsReport:
    dcr_median: float
    correlation_hist_counts: list[int]
    correlation_hist_edges: list[float]
    diversity: float
    precision: float
    recall: float
    mle_proxy: float | None = None

    def to_json(self) -> dict:
        return {
            "dcr_median": self.dcr_median,
            "correlation_hist_counts": self.correlation_hist_counts,
            "correlation_hist_edges": self.correlation_hist_edges,
            "diversity": self.diversity,
            "precision": self.precision,
            "recall": self.recall,
            "mle_proxy": self.mle_proxy,
        }
