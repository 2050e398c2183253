"""One round of the CSV -> codecs -> train -> checkpoint -> generate /
impute -> evaluate pipeline, with an output check after every phase.

Every library call goes through its module attribute (``codec.fit_codecs``,
not a name imported from ``tabmt``), so the tracer's wrappers see it.
Timers cover the library calls a CLI command makes; checks run outside them.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

import tablegen
from tabmt import checkpoint, codec, generation, metrics, training
from tabmt import model as tmodel
from tabmt import schema as tschema

MODEL_CONFIG = dict(width=64, depth=4, heads=4)
BATCH_SIZE = 256
KNN = 3
SETUP_SAMPLES = 2
BLANK_FRACTION = 0.25

# ``tabmt impute`` writes every continuous cell as its bin centre, observed
# cells included, so the byte-for-byte check of this phase fails on every
# input whose observed continuous values are not centres. Its input is the
# seed-independent sentinel CSV; a failure here counts in ``failed`` but
# does not make the run incorrect.
KNOWN_FAULT_OPS = frozenset({"impute_observed"})

OPS = ("ingest", "train", "checkpoint", "heldout", "setup", "generate",
       "impute", "impute_observed", "evaluate")

_SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
import tabmt
from tabmt.checkpoint import load_checkpoint
load_checkpoint(sys.argv[1])
dt = time.perf_counter() - t0
print(dt)
print(tabmt.__file__)
"""


class CheckFailed(AssertionError):
    pass


def check(cond, msg: str):
    if not cond:
        raise CheckFailed(msg)


@dataclass
class Inputs:
    """The generated files, plus the reference model every round serves."""

    w: tablegen.Workload
    seed: int
    root: str
    work: str
    schema: tschema.TableSchema = None
    train_rows: list = None
    heldout_mask: np.ndarray = None
    fit_model: object = None
    fit_tokens: np.ndarray = None
    heldout_tokens: np.ndarray = None

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)


def prepare(w: tablegen.Workload, seed: int, root: str, work: str) -> Inputs:
    """Writes the workload's CSVs and trains the reference model.

    The reference model is trained once, for enough steps that the quality
    checks are meaningful; every round then checkpoints and serves it.
    """
    rng = np.random.default_rng(seed)
    inp = Inputs(w=w, seed=seed, root=root, work=work)
    inp.train_rows = tablegen.draw_rows(w, rng, w.train_rows, cover=True)
    heldout_rows = tablegen.draw_rows(w, rng, w.heldout_rows)
    sparse_rows = tablegen.draw_rows(w, rng, w.impute_rows)
    tablegen.blank_cells(rng, sparse_rows, BLANK_FRACTION)
    sample_idx = np.sort(rng.choice(w.train_rows, size=w.eval_real_rows, replace=False))
    # Held-out masks follow the training law: p ~ U(0, 1) per row, then
    # each cell is masked with probability p.
    mrng = np.random.default_rng([seed, 1])
    p = mrng.random((w.heldout_rows, 1))
    inp.heldout_mask = mrng.random((w.heldout_rows, len(w.fields))) < p

    tablegen.write_schema(inp.path("schema.json"), w)
    tablegen.write_csv(inp.path("train.csv"), w.names, inp.train_rows)
    tablegen.write_csv(inp.path("test.csv"), w.names, heldout_rows)
    tablegen.write_csv(inp.path("sample.csv"), w.names,
                       [inp.train_rows[i] for i in sample_idx])
    tablegen.write_csv(inp.path("sparse.csv"), w.names, sparse_rows)
    tablegen.write_csv(inp.path("sentinel.csv"), w.names, tablegen.sentinel_rows(w))
    inp.schema = tschema.load_schema(inp.path("schema.json"))

    table = tschema.load_csv(inp.path("train.csv"), inp.schema)
    codecs = codec.fit_codecs(table, seed=seed)
    tokens = codec.encode_table(table, codecs)
    _check_ingest(inp, codecs, tokens)
    inp.fit_model = tmodel.TabMTModel(codecs, tmodel.ModelConfig(**MODEL_CONFIG), seed=seed)
    history = training.train(inp.fit_model, tokens, training.TrainConfig(
        batch_size=BATCH_SIZE, max_steps=w.fit_steps, warmup_steps=w.fit_warmup, seed=seed))
    check(all(np.isfinite(h[2]) for h in history), "non-finite loss training the reference")
    inp.fit_tokens = tokens.tokens
    test = tschema.load_csv(inp.path("test.csv"), inp.schema)
    inp.heldout_tokens = codec.encode_table(test, codecs).tokens
    return inp


@dataclass
class RoundState:
    """What one phase hands to the next within a round."""

    codecs: list = None
    tokens: object = None
    loaded: object = None
    metrics: dict = field(default_factory=dict)
    # Seconds each phase spent inside the program's calls, checks excluded;
    # the traced run's overhead is measured on these.
    busy: dict = field(default_factory=dict)


# ------------------------------------------------------------------ phases

def op_ingest(inp: Inputs, st: RoundState):
    t0 = time.perf_counter()
    table = tschema.load_csv(inp.path("train.csv"), inp.schema)
    codecs = codec.fit_codecs(table, seed=inp.seed)
    tokens = codec.encode_table(table, codecs)
    dt = st.busy["ingest"] = time.perf_counter() - t0
    st.codecs, st.tokens = codecs, tokens
    st.metrics["ingest_rows_per_s"] = inp.w.train_rows / dt
    _check_ingest(inp, codecs, tokens)


def _check_ingest(inp: Inputs, codecs, tokens):
    check(tokens.tokens.shape == (inp.w.train_rows, len(inp.w.fields)), "token shape")
    check(not tokens.missing.any(), "complete table encoded with missing cells")
    for j, f in enumerate(inp.w.fields):
        col = [r[j] for r in inp.train_rows]
        tok = tokens.tokens[:, j]
        if f.kind == "categorical":
            values = np.array(codecs[j].values, dtype=object)
            check(np.all(tok >= 0) and np.all(tok < len(values)), f"{f.name}: token range")
            check(list(values[tok]) == col, f"{f.name}: categorical cells do not decode back")
        else:
            xs = np.asarray(col, dtype=np.float64)
            centers = np.asarray(codecs[j].centers)
            check(np.all(np.diff(centers) > 0), f"{f.name}: centres not increasing")
            check(len(centers) <= f.size, f"{f.name}: {len(centers)} centres > max_bins")
            check(centers[0] >= xs.min() and centers[-1] <= xs.max(),
                  f"{f.name}: centres outside the column's range")
            nearest = np.argmin(np.abs(xs[:, None] - centers[None, :]), axis=1)
            check(np.array_equal(tok, nearest), f"{f.name}: cell not at its nearest centre")


def op_train(inp: Inputs, st: RoundState):
    model = tmodel.TabMTModel(st.codecs, tmodel.ModelConfig(**MODEL_CONFIG), seed=inp.seed)
    tc = training.TrainConfig(batch_size=BATCH_SIZE, max_steps=inp.w.round_steps,
                              warmup_steps=0, seed=inp.seed)
    t0 = time.perf_counter()
    history = training.train(model, st.tokens, tc)
    dt = st.busy["train"] = time.perf_counter() - t0
    batch = min(tc.batch_size, st.tokens.n_rows)
    st.metrics["train_rows_per_s"] = tc.max_steps * batch / dt
    losses = np.array([h[2] for h in history])
    check(len(losses) == tc.max_steps, "loss history length")
    check(np.all(np.isfinite(losses)), "non-finite training loss")


def _probe_logits(model, tokens, mask) -> list[np.ndarray]:
    return [t.data for t in model.forward(tokens, mask)]


def op_checkpoint(inp: Inputs, st: RoundState):
    path = inp.path("model.ckpt")
    t0 = time.perf_counter()
    checkpoint.save_checkpoint(path, inp.fit_model, inp.schema,
                               step=inp.w.fit_steps, seed=inp.seed)
    loaded, schema, _ = checkpoint.load_checkpoint(path)
    st.busy["checkpoint"] = time.perf_counter() - t0
    st.loaded = loaded
    check(schema.to_json() == inp.schema.to_json(), "schema changed in the checkpoint")
    a, b = dict(inp.fit_model.named_parameters()), dict(loaded.named_parameters())
    check(a.keys() == b.keys(), "parameter names changed in the checkpoint")
    for name in a:
        pa, pb = a[name].data, b[name].data
        check(pa.dtype == pb.dtype and pa.shape == pb.shape
              and pa.tobytes() == pb.tobytes(), f"{name}: not bit-equal after reload")
    probe, mask = inp.heldout_tokens[:64], inp.heldout_mask[:64]
    for la, lb in zip(_probe_logits(inp.fit_model, probe, mask),
                      _probe_logits(loaded, probe, mask)):
        check(np.array_equal(la, lb), "probe logits differ after reload")


def _log_softmax(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def op_heldout(inp: Inputs, st: RoundState):
    model = st.loaded
    tokens, mask = inp.heldout_tokens, inp.heldout_mask
    n, l = tokens.shape
    total, count, busy = 0.0, 0, 0.0
    for start in range(0, n, 500):
        tb, mb = tokens[start:start + 500], mask[start:start + 500]
        t0 = time.perf_counter()
        logits = model.forward(tb, mb)
        busy += time.perf_counter() - t0
        for j in range(l):
            rows = np.nonzero(mb[:, j])[0]
            lp = _log_softmax(logits[j].data)
            total -= lp[rows, tb[rows, j]].sum()
            count += len(rows)
    nll = total / count
    st.busy["heldout"] = busy
    st.metrics["heldout_nll"] = nll
    check(np.isfinite(nll), "non-finite held-out NLL")
    scored = mask.sum(axis=0)
    card = model.cardinalities
    uniform = float((scored * np.log(card)).sum() / count)
    check(nll < uniform, f"held-out NLL {nll:.4f} not below uniform {uniform:.4f}")
    if inp.w.planted_pair is not None:
        ent = []
        for j, k in enumerate(card):
            p = np.bincount(inp.fit_tokens[:, j], minlength=k) / len(inp.fit_tokens)
            p = p[p > 0]
            ent.append(-(p * np.log(p)).sum())
        marginal = float((scored * np.array(ent)).sum() / count)
        check(nll < marginal,
              f"held-out NLL {nll:.4f} not below marginal entropy {marginal:.4f}")


def op_setup(inp: Inputs, st: RoundState):
    src = os.path.join(inp.root, "src")
    env = dict(os.environ, PYTHONPATH=src)
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", _SETUP_SNIPPET, inp.path("model.ckpt")],
                              env=env, cwd=inp.root, capture_output=True, text=True,
                              timeout=60, check=False)
        check(proc.returncode == 0, f"set-up process failed: {proc.stderr.strip()[-300:]}")
        dt, where = proc.stdout.split()
        check(os.path.realpath(where).startswith(os.path.realpath(src) + os.sep),
              f"set-up imported tabmt from {where}")
        samples.append(float(dt))
    st.metrics["setup_s"] = statistics.median(samples)


def op_generate(inp: Inputs, st: RoundState):
    model, w = st.loaded, inp.w
    out_path = inp.path("synth.csv")
    t0 = time.perf_counter()
    tokens = generation.generate(model, generation.GenerationSpec(count=w.gen_rows, seed=inp.seed))
    tokens.schema = inp.schema
    table = codec.decode_table(tokens, model.codecs)
    tschema.write_csv(table, out_path)
    dt = st.busy["generate"] = time.perf_counter() - t0
    st.metrics["generate_rows_per_s"] = w.gen_rows / dt
    card = np.array(model.cardinalities)
    check(tokens.tokens.shape == (w.gen_rows, len(w.fields)), "generated shape")
    check(np.all(tokens.tokens >= 0) and np.all(tokens.tokens < card), "token out of range")
    check(not tokens.missing.any(), "generated a missing cell")
    check(all(v != "" for r in tablegen.read_csv_text(out_path) for v in r),
          "blank cell in the generated CSV")
    if w.planted_pair is not None:
        ia, ib = (w.names.index(f) for f in w.planted_pair)
        ka, kb = card[ia], card[ib]

        def joint(t):
            return np.bincount(t[:, ia] * kb + t[:, ib], minlength=ka * kb).reshape(ka, kb) / len(t)

        data = joint(inp.fit_tokens)
        product = np.outer(data.sum(axis=1), data.sum(axis=0))
        tv_gen = 0.5 * np.abs(joint(tokens.tokens) - data).sum()
        tv_prod = 0.5 * np.abs(product - data).sum()
        check(tv_gen < tv_prod, f"planted pair: generated TV {tv_gen:.4f} "
                                f"not below product-of-marginals TV {tv_prod:.4f}")


def _impute_csv(inp: Inputs, model, src: str, dst: str):
    table = tschema.load_csv(src, inp.schema)
    tokens = codec.encode_table(table, model.codecs)
    filled = generation.impute(model, tokens, seed=inp.seed)
    out = codec.decode_table(filled, model.codecs)
    tschema.write_csv(out, dst)


def op_impute(inp: Inputs, st: RoundState):
    src, dst = inp.path("sparse.csv"), inp.path("filled.csv")
    t0 = time.perf_counter()
    _impute_csv(inp, st.loaded, src, dst)
    dt = st.busy["impute"] = time.perf_counter() - t0
    st.metrics["impute_rows_per_s"] = inp.w.impute_rows / dt
    before, after = tablegen.read_csv_text(src), tablegen.read_csv_text(dst)
    check(len(after) == len(before), "imputed row count")
    check(all(v != "" for r in after for v in r), "cell left missing after impute")
    # Observed categorical cells must come back byte for byte. Observed
    # continuous cells are compared byte for byte by impute_observed, whose
    # input does not depend on the seed; here every continuous cell must be
    # a finite number, and a filled one must lie within the column's centres.
    for j, (f, c) in enumerate(zip(inp.w.fields, st.loaded.codecs)):
        for rb, ra in zip(before, after):
            if f.kind == "categorical":
                check(rb[j] == "" or ra[j] == rb[j],
                      f"{f.name}: observed cell {rb[j]!r} became {ra[j]!r}")
                continue
            v = float(ra[j])
            check(np.isfinite(v), f"{f.name}: non-finite cell {ra[j]!r}")
            check(rb[j] != "" or c.centers[0] <= v <= c.centers[-1],
                  f"{f.name}: imputed {ra[j]} outside the centres' range")


def op_impute_observed(inp: Inputs, st: RoundState):
    src, dst = inp.path("sentinel.csv"), inp.path("sentinel_filled.csv")
    t0 = time.perf_counter()
    _impute_csv(inp, st.loaded, src, dst)
    st.busy["impute_observed"] = time.perf_counter() - t0
    before, after = tablegen.read_csv_text(src), tablegen.read_csv_text(dst)
    check(all(v != "" for r in after for v in r), "cell left missing after impute")
    for rb, ra in zip(before, after):
        for name, vb, va in zip(inp.w.names, rb, ra):
            check(vb == "" or va == vb, f"{name}: observed cell {vb!r} written as {va!r}")


def op_evaluate(inp: Inputs, st: RoundState):
    model, schema = st.loaded, inp.schema
    t0 = time.perf_counter()
    real_train = tschema.load_csv(inp.path("sample.csv"), schema)
    real_test = tschema.load_csv(inp.path("test.csv"), schema)
    synth = tschema.load_csv(inp.path("synth.csv"), schema)
    space = metrics.MetricSpace.fit(real_train, model.codecs)
    train_vec = space.transform(real_train)
    synth_vec = space.transform(synth)
    counts, edges = metrics.correlation_error_histogram(train_vec, synth_vec)
    real_tok = codec.encode_table(real_train, model.codecs)
    synth_tok = codec.encode_table(synth, model.codecs)
    real_emb = model.embed_rows(real_tok.tokens)
    synth_emb = model.embed_rows(synth_tok.tokens)
    precision, recall = metrics.precision_recall(real_emb, synth_emb, k=KNN)
    proxy = metrics.mle_proxy(synth, real_test, space, schema.target_index,
                              metrics.CLASSIFY, seed=inp.seed)
    report = metrics.MetricsReport(
        dcr_median=metrics.dcr(synth_vec, train_vec),
        correlation_hist_counts=[int(c) for c in counts],
        correlation_hist_edges=[float(e) for e in edges],
        diversity=metrics.diversity(synth_tok.tokens, real_tok.tokens),
        precision=precision, recall=recall, mle_proxy=proxy)
    with open(inp.path("report.json"), "w", encoding="utf-8") as fh:
        json.dump(report.to_json(), fh, indent=2)
    dt = st.busy["evaluate"] = time.perf_counter() - t0
    st.metrics["evaluate_rows_per_s"] = synth.n_rows / dt
    _check_evaluate(report, train_vec, synth_vec, real_emb, synth_emb)


def _kth_radius(points: np.ndarray, k: int) -> np.ndarray:
    # The point itself is among the k + 1 nearest at distance 0.
    return cKDTree(points).query(points, k=k + 1)[0][:, k]


def _covered(queries: np.ndarray, centres: np.ndarray, radii: np.ndarray) -> float:
    hits = 0
    for start in range(0, len(queries), 256):
        d = cdist(queries[start:start + 256], centres)
        hits += int((d <= radii[None, :]).any(axis=1).sum())
    return hits / len(queries)


def _check_evaluate(report, train_vec, synth_vec, real_emb, synth_emb):
    nn = cKDTree(train_vec).query(synth_vec, k=1)[0]
    want = float(np.median(nn))
    check(abs(report.dcr_median - want) <= 1e-9 * max(abs(want), 1e-300),
          f"dcr {report.dcr_median!r} != k-d tree {want!r}")
    real_emb = np.asarray(real_emb, dtype=np.float64)
    synth_emb = np.asarray(synth_emb, dtype=np.float64)
    p = _covered(synth_emb, real_emb, _kth_radius(real_emb, KNN))
    r = _covered(real_emb, synth_emb, _kth_radius(synth_emb, KNN))
    check(abs(report.precision - p) <= 1.0 / len(synth_emb) + 1e-12,
          f"precision {report.precision} vs independent {p}")
    check(abs(report.recall - r) <= 1.0 / len(real_emb) + 1e-12,
          f"recall {report.recall} vs independent {r}")
    d = train_vec.shape[1]
    check(sum(report.correlation_hist_counts) == d * (d - 1) // 2,
          "correlation histogram does not count every column pair")


PHASES = {
    "ingest": op_ingest, "train": op_train, "checkpoint": op_checkpoint,
    "heldout": op_heldout, "setup": op_setup, "generate": op_generate,
    "impute": op_impute, "impute_observed": op_impute_observed,
    "evaluate": op_evaluate,
}
