"""Command-line entry points binding the library into reproducible pipelines."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .codec import CategoricalCodec, decode_table, encode_table, fit_codecs
from .flowcheck import check_invariants, read_flows
from .generation import GenerationSpec, generate, impute
from .metrics import (
    CLASSIFY,
    REGRESS,
    MetricSpace,
    MetricsReport,
    check_k,
    correlation_error_histogram,
    dcr,
    diversity,
    mle_proxy,
    precision_recall,
    write_histogram_csv,
)
from .model import ModelConfig, TabMTModel
from .pareto import CandidateEvaluator, pareto_search, write_front_csv
from .schema import MISSING, RawTable, load_csv, load_schema, parse_cell, write_csv
from .training import TrainConfig, train, write_loss_history


class CliError(ValueError):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tabmt",
                                     description="Masked-transformer tabular synthesizer")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model and write a checkpoint")
    p.add_argument("--schema", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--loss-csv", default=None)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--dropout", type=float, default=0.0)
    p.add_argument("--drop-path", type=float, default=0.0)
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--max-steps", type=int, default=2000)
    p.add_argument("--warmup-steps", type=int, default=100)
    p.add_argument("--lr", type=float, default=2e-3)
    p.add_argument("--weight-decay", type=float, default=0.01)
    p.add_argument("--missing-marker", default="")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("generate", help="sample rows from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--temps", default=None,
                   help="comma-separated per-field temperatures")
    p.add_argument("--condition", action="append", default=[],
                   metavar="COL=VALUE", help="fix a column for all rows")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("evaluate", help="score synthetic data against real data")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--real-train", required=True)
    p.add_argument("--real-test", required=True)
    p.add_argument("--synth", required=True)
    p.add_argument("--report", required=True, help="JSON report path")
    p.add_argument("--hist-csv", default=None)
    p.add_argument("--knn", type=int, default=3)
    p.add_argument("--missing-marker", default="")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("impute", help="fill missing cells in a CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--temps", default=None)
    p.add_argument("--missing-marker", default="")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("pareto", help="search the privacy/quality front")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--real-train", required=True)
    p.add_argument("--real-test", required=True)
    p.add_argument("--out", required=True, help="front CSV path")
    p.add_argument("--task", choices=["classify", "regress"], required=True)
    p.add_argument("--generations", type=int, default=10)
    p.add_argument("--population", type=int, default=24)
    p.add_argument("--eval-budget", type=int, default=1000)
    p.add_argument("--missing-marker", default="")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("flowcheck", help="run netflow invariant checks on a CSV")
    p.add_argument("--data", required=True, help="netflow CSV with timestamp column")
    p.add_argument("--report", required=True, help="JSON report path")
    return parser


def _parse_temps(arg: str | None) -> tuple[float, ...] | None:
    if arg is None:
        return None
    try:
        return tuple(float(x) for x in arg.split(","))
    except ValueError:
        raise CliError(f"--temps {arg!r} is not a comma-separated list of numbers") from None


def _parse_condition(pairs: list[str], schema, codecs) -> tuple[dict[int, int], list]:
    """Field index -> token, each value parsed and encoded as a CSV cell; and the parsed row."""
    row = [MISSING] * schema.n_fields
    names = schema.names
    for pair in pairs:
        if "=" not in pair:
            raise CliError(f"condition {pair!r} must look like COL=VALUE")
        name, value = pair.split("=", 1)
        if name not in names:
            raise CliError(f"condition references unknown column {name!r}")
        j = names.index(name)
        row[j] = parse_cell(value, schema.fields[j], "")
        if row[j] is MISSING:
            raise CliError(f"condition {pair!r} gives no value")
    encoded = encode_table(RawTable.from_rows(schema, [row]), codecs)
    return {j: int(encoded.tokens[0, j]) for j, v in enumerate(row) if v is not MISSING}, row


def _load_model(path: str):
    """A checkpoint's model and schema; the commands that read or write CSV need both."""
    model, schema, _ = load_checkpoint(path)
    if schema is None:
        raise CliError("checkpoint carries no schema")
    return model, schema


def _cmd_train(args) -> int:
    cfg = ModelConfig(width=args.width, depth=args.depth, heads=args.heads,
                      dropout=args.dropout, drop_path=args.drop_path)
    tc = TrainConfig(batch_size=args.batch_size, max_steps=args.max_steps,
                     warmup_steps=args.warmup_steps, peak_lr=args.lr,
                     weight_decay=args.weight_decay, seed=args.seed)
    schema = load_schema(args.schema)
    table = load_csv(args.data, schema, args.missing_marker)
    codecs = fit_codecs(table)
    tokens = encode_table(table, codecs)
    model = TabMTModel(codecs, cfg, seed=args.seed)
    history = train(model, tokens, tc)
    save_checkpoint(args.out, model, schema, step=tc.max_steps, seed=args.seed)
    if args.loss_csv:
        write_loss_history(history, args.loss_csv)
    print(f"trained {tc.max_steps} steps, final loss {history[-1][2]:.4f}, "
          f"checkpoint written to {args.out}")
    return 0


def _cmd_generate(args) -> int:
    model, schema = _load_model(args.checkpoint)
    temps = _parse_temps(args.temps)
    condition, row = _parse_condition(args.condition, schema, model.codecs)
    spec = GenerationSpec(count=args.count, temps=temps, condition=condition,
                          seed=args.seed)
    tokens = generate(model, spec)
    tokens.schema = schema
    tokens.source = RawTable.from_rows(schema, [row] * args.count)
    table = decode_table(tokens, model.codecs)
    write_csv(table, args.out)
    print(f"wrote {args.count} rows to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    check_k(args.knn)
    model, schema = _load_model(args.checkpoint)
    real_tok, test_tok, synth_tok = (
        encode_table(load_csv(path, schema, args.missing_marker), model.codecs)
        for path in (args.real_train, args.real_test, args.synth))
    real_train, real_test, synth = real_tok.source, test_tok.source, synth_tok.source
    space = MetricSpace.fit(real_train, model.codecs)
    train_vec = space.transform(real_train)
    synth_vec = space.transform(synth)
    counts, edges = correlation_error_histogram(train_vec, synth_vec)
    real_emb = model.embed_rows(real_tok.tokens, real_tok.missing)
    synth_emb = model.embed_rows(synth_tok.tokens, synth_tok.missing)
    precision, recall = precision_recall(real_emb, synth_emb, k=args.knn)
    proxy = None
    if schema.target_index is not None:
        codec = model.codecs[schema.target_index]
        task = CLASSIFY if isinstance(codec, CategoricalCodec) else REGRESS
        proxy = mle_proxy(synth, real_test, space, schema.target_index, task,
                          seed=args.seed)
    report = MetricsReport(
        dcr_median=dcr(synth_vec, train_vec),
        correlation_hist_counts=[int(c) for c in counts],
        correlation_hist_edges=[float(e) for e in edges],
        diversity=diversity(*(np.ma.masked_array(t.tokens, t.missing)
                              for t in (synth_tok, real_tok))),
        precision=precision,
        recall=recall,
        mle_proxy=proxy,
    )
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report.to_json(), fh, indent=2)
    if args.hist_csv:
        write_histogram_csv(counts, edges, args.hist_csv)
    print(f"report written to {args.report}")
    return 0


def _cmd_impute(args) -> int:
    model, schema = _load_model(args.checkpoint)
    tokens = encode_table(load_csv(args.data, schema, args.missing_marker), model.codecs)
    temps = _parse_temps(args.temps)
    filled = impute(model, tokens, temps=temps, seed=args.seed)
    out = decode_table(filled, model.codecs)
    write_csv(out, args.out)
    print(f"imputed table written to {args.out}")
    return 0


def _cmd_pareto(args) -> int:
    for flag, value, least in (("--generations", args.generations, 0),
                               ("--population", args.population, 4),
                               ("--eval-budget", args.eval_budget, 1)):
        if value < least:
            raise CliError(f"{flag} must be at least {least}, got {value}")
    model, schema = _load_model(args.checkpoint)
    if schema.target_index is None:
        raise CliError("schema declares no target column for the quality objective")
    # Encoding checks every cell before the search runs the model.
    real_train, real_test = (
        encode_table(load_csv(path, schema, args.missing_marker), model.codecs).source
        for path in (args.real_train, args.real_test))
    space = MetricSpace.fit(real_train, model.codecs)
    evaluator = CandidateEvaluator(model, space, real_train, real_test,
                                   schema.target_index, args.task,
                                   eval_budget=args.eval_budget, seed=args.seed)
    front = pareto_search(evaluator, generations=args.generations,
                          population=args.population, seed=args.seed)
    write_front_csv(front, args.out)
    print(f"front with {len(front)} candidates written to {args.out}")
    return 0


def _cmd_flowcheck(args) -> int:
    records = read_flows(args.data)
    report = check_invariants(records)
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report.to_json(), fh, indent=2)
    print(f"checked {len(records)} flows, report written to {args.report}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "generate": _cmd_generate,
    "evaluate": _cmd_evaluate,
    "impute": _cmd_impute,
    "pareto": _cmd_pareto,
    "flowcheck": _cmd_flowcheck,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as e:
        print(json.dumps({"error": type(e).__name__, "message": str(e)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
