"""Distinct-row searches and the in-place AdamW step change no byte.

On each benchmark workload's table shape, ``tabmt train``, ``evaluate`` and
``pareto`` write the same checkpoint, report and front as they do with
``conftest.evaluation_every_row()``: ``dcr`` and ``precision_recall``
searching every row, the proxy fit with separate ``w`` and ``b``, and the
out-of-place ``AdamW`` step.
"""

from pathlib import Path

import numpy as np
import pytest

from conftest import evaluation_every_row, load_tablegen
from tabmt.cli import main

tablegen = load_tablegen()
SEED = 1


def run(*argv):
    assert main([str(a) for a in argv]) == 0


def both(path: Path, fn) -> tuple[bytes, bytes]:
    """The bytes ``fn(out)`` writes to ``path`` with the shipped code, then
    with the searches over every row and the out-of-place step."""
    out = []
    for name, ctx in (("new", None), ("every-row", evaluation_every_row())):
        target = path.with_name(f"{name}-{path.name}")
        if ctx is None:
            fn(target)
        else:
            with ctx:
                fn(target)
        out.append(target.read_bytes())
    return out[0], out[1]


def train_to(d: Path, out: Path):
    run("train", "--schema", d / "schema.json", "--data", d / "train.csv", "--out", out,
        "--max-steps", 10, "--warmup-steps", 2, "--seed", SEED)


@pytest.fixture(scope="module", params=["narrow-3", "tall-8", "wide-16"])
def workload(request, tmp_path_factory):
    """The workload's schema, training, held-out and real-sample CSVs, and a
    checkpoint after 10 float32 steps of the shipped trainer."""
    w = tablegen.WORKLOADS[request.param]
    d = tmp_path_factory.mktemp(w.name)
    rng = np.random.default_rng(SEED)
    tablegen.write_schema(str(d / "schema.json"), w)
    for name, n, cover in (("train", w.train_rows, True), ("test", w.heldout_rows, False),
                           ("sample", w.eval_real_rows, False)):
        tablegen.write_csv(str(d / f"{name}.csv"), w.names,
                           tablegen.draw_rows(w, rng, n, cover=cover))
    train_to(d, d / "model.ckpt")
    return w, d


def test_checkpoint_after_ten_float32_steps(workload):
    _, d = workload
    new, old = both(d / "ten-steps.ckpt", lambda out: train_to(d, out))
    assert new == old


def test_evaluate_report(workload):
    w, d = workload
    run("generate", "--checkpoint", d / "model.ckpt", "--count", w.gen_rows,
        "--out", d / "synth.csv", "--seed", SEED)
    new, old = both(d / "report.json", lambda out: run(
        "evaluate", "--checkpoint", d / "model.ckpt", "--real-train", d / "sample.csv",
        "--real-test", d / "test.csv", "--synth", d / "synth.csv", "--report", out,
        "--seed", SEED))
    assert new == old


def test_pareto_front(workload):
    _, d = workload
    new, old = both(d / "front.csv", lambda out: run(
        "pareto", "--checkpoint", d / "model.ckpt", "--real-train", d / "sample.csv",
        "--real-test", d / "test.csv", "--out", out, "--task", "classify",
        "--population", 4, "--generations", 1, "--eval-budget", 48, "--seed", SEED))
    assert new == old
