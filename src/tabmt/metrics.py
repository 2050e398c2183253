"""Quality, privacy, and diversity metrics.

Rows are compared in a shared Euclidean feature space: continuous fields
min-max scaled by the training min/max, categorical fields one-hot expanded.
Nearest-neighbor searches run once per distinct row, each copy still counted,
and are exact, in two stages: a screen computes all squared distances as
|a|^2 + |b|^2 - 2a.b, one BLAS product per block of rows, with a per-row bound
on its rounding error; the pairs it cannot decide are recomputed by explicit
differences. So every result equals a row-by-row brute-force one bit for bit.
The correlation-error histogram correlates only the columns that vary in
both tables; every pair with a column constant in either counts as 0.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from types import SimpleNamespace

import numpy as np

from .autodiff import distinct_rows, softmax_rows
from .codec import CategoricalCodec, ContinuousCodec, FieldCodec, observed_cells
from .optim import AdamW
from .schema import RawTable, write_rows


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
                vals = observed_cells(train, j, codec)[1]
                if not vals.size:
                    raise MetricError(f"no observed values in continuous column {j}")
                mins[j], maxs[j] = float(vals.min()), float(vals.max())
        return cls(codecs=codecs, mins=mins, maxs=maxs)

    def transform(self, table: RawTable, exclude: int | None = None) -> np.ndarray:
        """Feature matrix; a missing cell scores 0 in its block, a bad one raises a CodecError."""
        n = table.n_rows
        blocks = []
        for j, codec in enumerate(self.codecs):
            if j == exclude:
                continue
            observed, cells = observed_cells(table, j, codec)
            if isinstance(codec, ContinuousCodec):
                lo, hi = self.mins[j], self.maxs[j]
                block = np.zeros((n, 1))
                block[observed, 0] = (cells - lo) / (hi - lo if hi > lo else 1.0)
            else:
                block = np.zeros((n, codec.cardinality))
                block[observed, cells] = 1.0
            blocks.append(block)
        return np.concatenate(blocks, axis=1) if blocks else np.zeros((n, 0))


_BLOCK = 1 << 18  # float64 elements in a screen block; a recompute chunk takes 1/4
_U, _TINY = np.finfo(np.float64).eps / 2, np.finfo(np.float64).tiny


def _screen(a: np.ndarray, b: np.ndarray):
    """Yield ``(start, s2, bound)`` per block of rows of ``a``: s2[i, j] is
    |a[start + i] - b[j]|^2 as |a|^2 + |b|^2 - 2a.b, within bound[i] of it."""
    centre = b.mean(axis=0)
    a0, b0 = a - centre, b - centre
    na, nb = np.einsum("ij,ij->i", a0, a0), np.einsum("ij,ij->i", b0, b0)
    # Bound: with u the unit roundoff, a', b' the centred rows and M = (|a'| +
    # max |b'|)^2, any summation order has |fl(x.y) - x.y| <= gamma_d |x|.|y|,
    # gamma_d = d u / (1 - d u). The norms and product are off by gamma_d M, the
    # two additions below by 2u M; centring moves |a' - b'|^2 from |a - b|^2 by
    # 2u M; the explicit differences and sum are off by gamma_{d+2} M. Twice
    # gamma_{2d+8} M, plus the smallest normal for underflow, also covers the
    # second-order terms and the rounding of M and of the callers' thresholds.
    n = 2 * a.shape[1] + 8
    bound = 2 * n * _U / (1 - n * _U) * (np.sqrt(na) + np.sqrt(nb.max())) ** 2 + _TINY
    rows = max(1, _BLOCK // len(b))
    for start in range(0, len(a), rows):
        s2 = (-2.0 * a0[start:start + rows]) @ b0.T
        s2 += nb
        s2 += na[start:start + rows, None]
        yield start, s2, bound[start:start + rows]


def _sq_dists(a: np.ndarray, b: np.ndarray, mask: np.ndarray):
    """Squared distances by explicit differences, which match a row-by-row
    oracle bit for bit, from each a[i] to the rows of ``b`` where ``mask[i]``:
    padded with inf to one width, and with their columns (None: all of b)."""
    counts = np.count_nonzero(mask, axis=1)
    cols, real = None, mask
    if 2 * counts.max() <= len(b):  # else gathering costs more than taking all of b
        real = np.arange(counts.max()) < counts[:, None]
        cols = np.zeros(real.shape, dtype=np.intp)
        cols[real] = np.flatnonzero(mask) % len(b)
    out = np.empty(real.shape)
    step = max(1, (_BLOCK >> 2) // max(1, real.shape[1] * a.shape[1]))
    for s in range(0, len(a), step):
        diff = a[s:s + step, None, :] - (b if cols is None else b[cols[s:s + step]])
        np.multiply(diff, diff, out=diff)
        out[s:s + step] = diff.sum(axis=2)
    out[~real] = np.inf
    return out, cols


def _kth(x: np.ndarray, k: int) -> np.ndarray:
    """Each row's k-th smallest value."""
    return x.min(axis=1) if k == 1 else np.partition(x, k - 1, axis=1)[:, k - 1]


def _kth_dists(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """Distance from each row of ``a`` to its k-th nearest row of ``b``."""
    out = np.empty(len(a))
    for start, s2, bound in _screen(a, b):
        # Only a pair within 2 bounds of the screened k-th value can be the
        # k-th. Written as not-greater, so that a nan screen value counts.
        near = ~(s2 > (_kth(s2, k) + 2 * bound)[:, None])
        out[start:start + len(s2)] = np.sqrt(_kth(_sq_dists(a[start:start + len(s2)], b, near)[0], k))
    return out


def dcr(synth: np.ndarray, train: np.ndarray) -> float:
    """Median Euclidean distance from each synthetic row to its nearest
    training row. Zero means memorization; higher is more private."""
    synth, train = np.asarray(synth, dtype=np.float64), np.asarray(train, dtype=np.float64)
    if synth.size == 0 or train.size == 0:
        raise MetricError("dcr requires non-empty inputs")
    if synth.shape[1] != train.shape[1]:
        raise MetricError("dcr dimension mismatch")
    if not (np.isfinite(synth).all() and np.isfinite(train).all()):
        raise MetricError("dcr requires finite inputs")
    first, inverse, _ = distinct_rows(synth)
    return float(np.median(_kth_dists(synth[first], train, 1)[inverse]))


def correlation_error_histogram(real: np.ndarray, synth: np.ndarray,
                                bins: int = 20) -> tuple[np.ndarray, np.ndarray]:
    """Histogram over [0, 2] of |corr_real(i,j) - corr_synth(i,j)| for every
    unordered column pair. A pair with a column constant in either table
    counts as 0, so only the columns that vary in both are correlated."""
    real, synth = np.asarray(real, dtype=np.float64), np.asarray(synth, dtype=np.float64)
    if real.shape[1] != synth.shape[1]:
        raise MetricError("column count mismatch")
    if len(real) < 2 or len(synth) < 2:
        raise MetricError("need at least two rows to correlate")
    if not (np.isfinite(real).all() and np.isfinite(synth).all()):
        raise MetricError("correlation_error_histogram requires finite inputs")
    # Column stats over the whole matrices, as numpy may sum a column subset
    # in another order.
    mr, sr = real.mean(axis=0), real.std(axis=0)
    ms, ss = synth.mean(axis=0), synth.std(axis=0)
    keep = (sr != 0) & (ss != 0)
    zr = (real[:, keep] - mr[keep]) / sr[keep]
    zs = (synth[:, keep] - ms[keep]) / ss[keep]
    # Rounding can carry an error past 2, where the histogram would drop it.
    err = np.minimum(np.abs((zr.T @ zr) / len(real) - (zs.T @ zs) / len(synth)), 2.0)
    d, dv = real.shape[1], zr.shape[1]
    counts, edges = np.histogram(err[np.triu_indices(dv, k=1)], bins=bins, range=(0.0, 2.0))
    counts[0] += d * (d - 1) // 2 - dv * (dv - 1) // 2
    return counts, edges


def write_histogram_csv(counts: np.ndarray, edges: np.ndarray, path: str):
    write_rows(path, ["bin_left", "bin_right", "count"],
               ([f"{edges[i]:.6g}", f"{edges[i + 1]:.6g}", int(c)] for i, c in enumerate(counts)))


def diversity(synth_tokens: np.ndarray, real_tokens: np.ndarray) -> float:
    """Mean per-field share of the real distinct values that the synth set holds, over
    the fields with an observed real value; masked cells (blanks) are no value."""
    synth_tokens, real_tokens = np.ma.asarray(synth_tokens), np.ma.asarray(real_tokens)
    if synth_tokens.shape[1] != real_tokens.shape[1]:
        raise MetricError("field count mismatch")
    covs = [np.isin(np.unique(r.compressed()), s.compressed()).mean()
            for s, r in zip(synth_tokens.T, real_tokens.T) if r.count()]
    if not covs:
        raise MetricError("no observed real value")
    return float(np.mean(covs))


def _fraction_covered(queries: np.ndarray, counts: np.ndarray, centers: np.ndarray,
                      radii: np.ndarray) -> float:
    # sqrt(d2) <= r if d2 <= r^2, not if d2 > r^2 / (1 - u)^2; the margin spans that.
    r2 = radii * radii
    margin = 8 * _U * r2 + _TINY
    hits = 0
    for start, s2, bound in _screen(queries, centers):
        inside = (s2 + bound[:, None] <= r2 - margin).any(axis=1)
        unsure = ~(s2 - bound[:, None] > r2 + margin) & ~inside[:, None]
        d2, cols = _sq_dists(queries[start:start + len(s2)], centers, unsure)
        inside |= (np.sqrt(d2) <= radii[cols]).any(axis=1)
        hits += int(counts[start:start + len(s2)][inside].sum())
    return hits / int(counts.sum())


def _balls(cloud: np.ndarray, k: int):
    """The distinct points of ``cloud``, their counts, and the distance from each to its
    (k + 1)-th nearest row of ``cloud``, where it and its copies are at exactly 0."""
    first, _, counts = distinct_rows(cloud)
    points = cloud[first]
    radii = np.zeros(len(points))
    radii[counts <= k] = _kth_dists(points[counts <= k], cloud, k + 1)
    return points, counts, radii


def check_k(k: int):
    """The neighbour count of ``precision_recall``; below 1 raises a MetricError."""
    if k < 1:
        raise MetricError(f"k must be at least 1, got k={k}")


def precision_recall(real_emb: np.ndarray, synth_emb: np.ndarray, k: int = 3
                     ) -> tuple[float, float]:
    """k-NN manifold precision/recall over embedding clouds.

    The real manifold is the union of balls around each real point with
    radius equal to its k-th nearest real neighbor; precision is the
    fraction of synthetic points inside it. Recall swaps the roles.
    """
    check_k(k)
    real_emb = np.asarray(real_emb, dtype=np.float64)
    synth_emb = np.asarray(synth_emb, dtype=np.float64)
    if len(real_emb) <= k or len(synth_emb) <= k:
        raise MetricError(f"need more than k={k} points on each side")
    if not (np.isfinite(real_emb).all() and np.isfinite(synth_emb).all()):
        raise MetricError("precision_recall requires finite embeddings")
    if (real_emb == real_emb[0]).all() or (synth_emb == synth_emb[0]).all():
        raise MetricError("degenerate (all-identical) embeddings")
    real, real_n, real_r = _balls(real_emb, k)
    synth, synth_n, synth_r = _balls(synth_emb, k)
    precision = _fraction_covered(synth, synth_n, real, real_r)
    recall = _fraction_covered(real, real_n, synth, synth_r)
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
    # w and b are views into one vector, which AdamW updates as one parameter.
    n_w = x.shape[1] * n_classes
    data, grad = np.zeros(n_w + n_classes), np.empty(n_w + n_classes)
    (w, b), (gw, gb) = ((a[:n_w].reshape(-1, n_classes), a[n_w:]) for a in (data, grad))
    w[...] = rng.normal(0, 0.01, w.shape)
    opt = AdamW([SimpleNamespace(data=data, grad=grad)], lr=lr, weight_decay=1e-4)
    p, one_hot, scale = np.empty((len(x), n_classes)), np.eye(n_classes)[y], 1.0 / len(x)
    for _ in range(steps):
        # Gradient of the mean cross entropy, in the order a tape computes it.
        np.add(np.matmul(x, w, out=p), b, out=p)
        softmax_rows(p, p)
        p -= one_hot
        p *= scale
        np.matmul(x.T, p, out=gw)
        p.sum(axis=0, out=gb)
        opt.step()
    return w, b


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
    if task == CLASSIFY and not isinstance(codec, CategoricalCodec):
        raise MetricError("classification target must be categorical")
    if task == REGRESS and not isinstance(codec, ContinuousCodec):
        raise MetricError("regression target must be continuous")
    # Rows with a blank target can be neither fit nor scored.
    keep_tr, y_tr = observed_cells(synth_train, target_index, codec)
    keep_te, y_te = observed_cells(real_test, target_index, codec)
    if not y_tr.size or not y_te.size:
        raise MetricError("no rows with an observed target")
    x_tr = space.transform(synth_train, exclude=target_index)[keep_tr]
    x_te = space.transform(real_test, exclude=target_index)[keep_te]

    if task == CLASSIFY:
        if len(np.unique(y_tr)) < 2:
            raise MetricError("training target has a single class")
        w, b = _train_logistic(x_tr, y_tr, codec.cardinality, seed=seed)
        y_pred = np.argmax(x_te @ w + b, axis=1)
        return _macro_f1(y_te, y_pred, np.unique(y_te))

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
        return asdict(self)
