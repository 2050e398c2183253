"""Shared fixtures: toy datasets, trained toy models, brute-force oracles."""

from __future__ import annotations

import contextlib
import math

import numpy as np
import pytest

from tabmt import autodiff as ad
from tabmt.autodiff import Parameter
from tabmt.codec import fit_categorical
from tabmt.generation import _field_order, sample_field
from tabmt.model import ModelConfig, TabMTModel
from tabmt.optim import AdamW
from tabmt.schema import TokenTable
from tabmt.training import TrainConfig, train

N_TOY = 5000
TOY_K = 4

# Acceptance-criterion result lines, echoed after the run summary where
# pytest's output capture cannot swallow them.
_acceptance_lines: list[str] = []


def record_acceptance(line: str):
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


def make_toy_tokens(kind: str, seed: int = 1, n: int = N_TOY) -> TokenTable:
    """Two categorical fields with a known joint.

    deterministic: B == A; noisy: B == A with prob 0.7, else one of the
    other three values uniformly.
    """
    rng = np.random.default_rng(seed)
    a = rng.integers(0, TOY_K, n)
    if kind == "deterministic":
        b = a.copy()
    elif kind == "noisy":
        b = a.copy()
        flip = rng.random(n) >= 0.7
        shift = rng.integers(1, TOY_K, n)
        b[flip] = (a[flip] + shift[flip]) % TOY_K
    else:
        raise ValueError(kind)
    return TokenTable(schema=None, tokens=np.stack([a, b], axis=1))


def toy_codecs():
    return [fit_categorical(list("abcd")), fit_categorical(list("pqrs"))]


def train_toy(tokens: TokenTable, width=32, depth=2, heads=4, steps=600,
              seed=0) -> TabMTModel:
    model = TabMTModel(toy_codecs(), ModelConfig(width=width, depth=depth,
                                                 heads=heads), seed=seed)
    train(model, tokens, TrainConfig(batch_size=256, max_steps=steps,
                                     warmup_steps=50, seed=seed))
    return model


@pytest.fixture(scope="session")
def toy_deterministic() -> TokenTable:
    return make_toy_tokens("deterministic")


@pytest.fixture(scope="session")
def toy_noisy() -> TokenTable:
    return make_toy_tokens("noisy")


@pytest.fixture(scope="session")
def trained_toy_model(toy_deterministic) -> TabMTModel:
    """Small model trained to convergence on the deterministic toy."""
    return train_toy(toy_deterministic)


# ---- brute-force oracles -------------------------------------------------

def dp_kmeans_1d(values: np.ndarray, k: int) -> tuple[float, list[np.ndarray]]:
    """Exact 1-D k-means via dynamic programming over sorted splits.

    Returns the optimal within-cluster sum of squares and the clusters.
    Feasible only for small inputs; used purely as a test oracle.
    """
    xs = np.sort(np.asarray(values, dtype=np.float64))
    n = len(xs)
    # Centred values keep the prefix sums of squares from cancelling.
    xc = xs - xs.mean()
    pref = np.concatenate([[0.0], np.cumsum(xc)])
    pref2 = np.concatenate([[0.0], np.cumsum(xc * xc)])

    def cost(i, j):
        # WCSS of xs[i:j]
        m = j - i
        s = pref[j] - pref[i]
        s2 = pref2[j] - pref2[i]
        return s2 - s * s / m

    inf = float("inf")
    dp = np.full((k + 1, n + 1), inf)
    cut = np.zeros((k + 1, n + 1), dtype=int)
    dp[0, 0] = 0.0
    for c in range(1, k + 1):
        for j in range(c, n + 1):
            for i in range(c - 1, j):
                v = dp[c - 1, i] + cost(i, j)
                if v < dp[c, j]:
                    dp[c, j] = v
                    cut[c, j] = i
    best_c = int(np.argmin(dp[1: k + 1, n])) + 1
    clusters = []
    j = n
    for c in range(best_c, 0, -1):
        i = cut[c, j]
        clusters.append(xs[i:j])
        j = i
    clusters.reverse()
    return float(dp[best_c, n]), clusters


def lloyd_1d(values: np.ndarray, k: int, max_iter: int = 200, tol: float = 1e-10
             ) -> np.ndarray:
    """Deterministic 1-D Lloyd's algorithm with quantile initialization.

    The quantizer ``fit_continuous`` used above 64 distinct values before
    it became exact; kept as the reference the exact one must not lose to.
    """
    xs = np.sort(values)
    centers = np.quantile(xs, (np.arange(k) + 0.5) / k)
    for _ in range(max_iter):
        d = np.abs(xs[:, None] - centers[None, :])
        assign = np.argmin(d, axis=1)
        new_centers = centers.copy()
        for c in range(k):
            members = xs[assign == c]
            if len(members):
                new_centers[c] = members.mean()
            else:
                # Reseed an empty cluster at the point farthest from its center.
                far = int(np.argmax(np.min(d, axis=1)))
                new_centers[c] = xs[far]
        new_centers = np.sort(new_centers)
        if np.max(np.abs(new_centers - centers)) < tol:
            centers = new_centers
            break
        centers = new_centers
    return centers


def kmeans_1d_per_column(x: np.ndarray, w: np.ndarray, k: int) -> np.ndarray:
    """Centers of an optimal k-means clustering of sorted distinct values.

    ``codec._kmeans_1d`` as it was before it solved many columns in one
    call, one column per call; kept as the oracle the batched one must
    match bit for bit.

    ``x`` holds n >= k distinct values in increasing order and ``w`` their
    weights. Clusters are contiguous runs of ``x``, so the least
    within-cluster sum of squares D[c, j] of the first j values in c
    clusters is min over i of D[c-1, i] + cost(i, j), solved one cluster
    count c at a time. The leftmost optimal split i is monotone in j and
    never below the split of layer c-1, so each layer is a
    divide-and-conquer over j: one numpy pass per recursion depth, whose
    candidate splits sum to O(n).
    """
    n = len(x)
    # Centred values keep the prefix sums of squares from cancelling.
    xc = x - np.dot(w, x) / w.sum()
    pw = np.concatenate([[0.0], np.cumsum(w)])
    ps = np.concatenate([[0.0], np.cumsum(w * xc)])
    ps2 = np.concatenate([[0.0], np.cumsum(w * xc * xc)])
    # cost(i, j) = ps2[j] - ps2[i] - (ps[j] - ps[i])**2 / (pw[j] - pw[i]) is
    # the weighted sum of squares of x[i:j] about its mean.

    # Layer c solves j = c - 1 + o for offsets o in 1..span+1, since each
    # later cluster needs a value. cur[o] holds the split found for offset
    # o; cur[0] and the offsets past span+1 bound the search. Depth by
    # depth, the odd multiples o of h are solved between o - h and o + h.
    span = n - k
    top = 1 << (span + 1).bit_length()
    levels, h = [], top // 2
    while h:
        o = np.arange(h, span + 2, 2 * h)
        levels.append((o, o - h, o + h))
        h //= 2
    cur = np.full(2 * top, n)
    low = np.empty(span + 2)
    pos = np.arange(2 * n + 2)
    best = np.full(n + 1, np.inf)
    best[0] = 0.0
    split = np.zeros((k + 1, n + 1), dtype=np.int64)
    for c in range(1, k + 1):
        # Minimising best[i] + cost(i, j) over i; ps2[j] is added back after.
        g = best - ps2
        cur[0] = c - 1
        for o, left, right in levels:
            j = o + (c - 1)
            hi = np.minimum(cur[right], j - 1)
            lo = np.minimum(np.maximum(cur[left], split[c - 1, j]), hi)
            count = hi - lo + 1
            first = np.cumsum(count) - count
            m = first[-1] + count[-1]
            cand = pos[:m] + np.repeat(lo - first, count)
            jj = np.repeat(j, count)
            s = ps[jj] - ps[cand]
            total = g[cand] - s * s / (pw[jj] - pw[cand])
            low[o] = least = np.minimum.reduceat(total, first)
            # The leftmost candidate at each range's minimum.
            at = np.flatnonzero(total == np.repeat(least, count))
            cur[o] = cand[at[np.searchsorted(at, first)]]
        best = np.full(n + 1, np.inf)
        best[c:c + span + 1] = low[1:] + ps2[c:c + span + 1]
        split[c, c:c + span + 1] = cur[1:span + 2]
    bounds = [n]
    for c in range(k, 0, -1):
        bounds.append(split[c, bounds[-1]])
    bounds = np.array(bounds[::-1])
    starts, ends = bounds[:-1], bounds[1:]
    means = np.add.reduceat(w * x, starts) / np.add.reduceat(w, starts)
    # Rounding may move a mean off its run; clipping keeps the centers
    # strictly increasing and inside the column's range.
    return np.clip(means, x[starts], x[ends - 1])


def order_distribution_oracle(l: int, samples: int, rng: np.random.Generator
                              ) -> dict[int, np.ndarray]:
    """Empirical distribution of the masked subset at each generation step,
    over ``samples`` orders drawn by the order function ``generate`` and
    ``impute`` use.

    Subsets are encoded as bitmasks. Returns, per step t in 0..l, an array
    of frequencies indexed by bitmask. At step t every size-(l-t) subset
    should appear with probability 1 / C(l, l-t).
    """
    if l > 6:
        raise ValueError("oracle is for small l only (exhaustive enumeration)")
    fields = np.arange(l)
    orders = np.array([_field_order(fields, rng) for _ in range(samples)])
    bits = 1 << orders
    out: dict[int, np.ndarray] = {}
    masked = np.full(samples, (1 << l) - 1, dtype=np.int64)
    out[0] = np.bincount(masked, minlength=1 << l) / samples
    for t in range(l):
        masked = masked & ~bits[:, t]
        out[t + 1] = np.bincount(masked, minlength=1 << l) / samples
    return out


@contextlib.contextmanager
def count_forward_rows():
    """Record ``(rows, fields)`` for every ``TabMTModel.forward`` call made
    inside the block; the original method is restored on exit."""
    calls: list[tuple[int, tuple | None]] = []
    original = TabMTModel.forward

    def counted(self, tokens, mask, rng=None, fields=None):
        calls.append((len(tokens), None if fields is None
                      else tuple(int(j) for j in fields)))
        return original(self, tokens, mask, rng, fields)

    TabMTModel.forward = counted
    try:
        yield calls
    finally:
        TabMTModel.forward = original


def brute_dcr(synth: np.ndarray, train_vec: np.ndarray) -> float:
    dists = []
    for s in synth:
        dists.append(min(float(np.sqrt(((s - t) ** 2).sum())) for t in train_vec))
    return float(np.median(dists))


def explicit_min_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from each row of ``a`` to its nearest row of ``b``, by
    explicit differences one row of ``a`` at a time."""
    return np.array([np.sqrt(((s - b) ** 2).sum(axis=1).min()) for s in a])


def brute_precision_recall(real: np.ndarray, synth: np.ndarray, k: int = 3
                           ) -> tuple[float, float]:
    def radii(points):
        out = []
        for i, p in enumerate(points):
            ds = sorted(
                float(np.sqrt(((p - q) ** 2).sum()))
                for j, q in enumerate(points) if j != i
            )
            out.append(ds[k - 1])
        return out

    def covered(queries, centers, rads):
        hits = 0
        for q in queries:
            for c, r in zip(centers, rads):
                if float(np.sqrt(((q - c) ** 2).sum())) <= r:
                    hits += 1
                    break
        return hits / len(queries)

    real_r = radii(real)
    synth_r = radii(synth)
    return covered(synth, real, real_r), covered(real, synth, synth_r)


def generate_oracle(model: TabMTModel, temps: list[float], condition: dict,
                    count: int, seed: int, batch_size: int = 512) -> np.ndarray:
    """Generation as a taped forward over every head, keeping field j.

    Draws the same random numbers, in the same order, as ``generate``.
    """
    l = model.n_fields
    rng = np.random.default_rng(seed)
    free = [j for j in range(l) if j not in condition]
    out = np.zeros((count, l), dtype=np.int64)
    for start in range(0, count, batch_size):
        n = min(batch_size, count - start)
        tokens = np.zeros((n, l), dtype=np.int64)
        mask = np.ones((n, l), dtype=bool)
        for j, t in condition.items():
            tokens[:, j] = t
            mask[:, j] = False
        for j in (rng.permutation(free) if free else []):
            logits = model.forward(tokens, mask)[j].data
            tokens[:, j] = sample_field(logits, temps[j], rng)
            mask[:, j] = False
        out[start:start + n] = tokens
    return out


def impute_oracle(model: TabMTModel, table: TokenTable, temps: list[float],
                  seed: int, batch_size: int = 512) -> np.ndarray:
    """Imputation as a taped forward over every head, keeping field j."""
    rng = np.random.default_rng(seed)
    tokens = table.tokens.copy()
    n_total, l = tokens.shape
    for start in range(0, n_total, batch_size):
        batch = tokens[start:start + batch_size]
        mask = table.missing[start:start + batch_size].copy()
        for j in rng.permutation(l):
            rows = mask[:, j]
            if not rows.any():
                continue
            logits = model.forward(np.where(mask, 0, batch), mask)[j].data
            batch[rows, j] = sample_field(logits[rows], temps[j], rng)
            mask[:, j] = False
    return tokens


def train_logistic_taped(x: np.ndarray, y: np.ndarray, n_classes: int, steps: int = 300,
                         lr: float = 0.1, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Logistic regression fit by AdamW on gradients from the autodiff tape:
    the reference the tape-free ``metrics._train_logistic`` must equal."""
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


# ---- autodiff: test-only ops and the kernels the blocked ones replaced ----

def mean(a, axis=None) -> ad.Tensor:
    a = ad._as_tensor(a)
    out_data = a.data.mean(axis=axis)
    count = a.data.size if axis is None else a.data.shape[axis]

    def backward(g):
        if axis is None:
            ad._accum(a, np.full_like(a.data, g / count))
        else:
            ad._accum(a, np.repeat(np.expand_dims(g, axis), count, axis=axis) / count)

    return ad._make(out_data, (a,), backward)


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


def accum_copying(t, g):
    """``_accum`` before it kept contiguous views: every view is copied."""
    if t.grad is None:
        t.grad = g if (g.base is None and g.flags.owndata) else g.copy()
    else:
        t.grad = t.grad + g


def softmax_oracle(a):
    a = ad._as_tensor(a)
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * out_data).sum(axis=-1, keepdims=True)
        accum_copying(a, out_data * (g - dot))

    return ad._make(out_data, (a,), backward)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu_oracle(a):
    a = ad._as_tensor(a)
    x = a.data
    inner = _GELU_C * (x + 0.044715 * (x * x * x))
    t = np.tanh(inner)
    out_data = 0.5 * x * (1.0 + t)

    def backward(g):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * (x * x))
        da = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
        accum_copying(a, g * da)

    return ad._make(out_data, (a,), backward)


def layer_norm_oracle(a, gain, bias, eps: float = 1e-5):
    a, gain, bias = ad._as_tensor(a), ad._as_tensor(gain), ad._as_tensor(bias)
    x = a.data
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out_data = xhat * gain.data + bias.data

    def backward(g):
        if gain.requires_grad:
            accum_copying(gain, ad._unbroadcast(g * xhat, gain.data.shape))
        if bias.requires_grad:
            accum_copying(bias, ad._unbroadcast(g, bias.data.shape))
        if a.requires_grad:
            gx = g * gain.data
            gmean = gx.mean(axis=-1, keepdims=True)
            gdot = (gx * xhat).mean(axis=-1, keepdims=True)
            accum_copying(a, inv * (gx - gmean - xhat * gdot))

    return ad._make(out_data, (a, gain, bias), backward)


def linear_oracle(x, w, b):
    return ad.add(ad.matmul(x, w), b)


@contextlib.contextmanager
def oracle_kernels():
    """Run the autodiff ops inside the block as they were before the
    row-blocked kernels, ``ad.linear`` and the copy-free ``_accum``."""
    patches = {"softmax": softmax_oracle, "gelu": gelu_oracle,
               "layer_norm": layer_norm_oracle, "linear": linear_oracle,
               "_accum": accum_copying}
    saved = {name: getattr(ad, name) for name in patches}
    for name, fn in patches.items():
        setattr(ad, name, fn)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(ad, name, fn)
