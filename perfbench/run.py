"""tabmt pipeline benchmark.

    python3 perfbench/run.py --workload narrow-3 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout (the directory holding ``src/tabmt``).
The run generates its tables from ``--seed``, then repeats whole rounds of
the pipeline (see ``pipeline.OPS``) in this one process until the next
round would end after ``--seconds``; at least one round always runs.

``--trace 0`` prints the end-to-end metrics, each the median over rounds.
``--trace 1`` runs pairs of one untraced and one traced round in the same
way (at least one pair), and prints the per-layer metrics per traced round
plus the tracing overhead.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

# BLAS threads are capped at the machine's core count before numpy loads.
_CORES = str(len(os.sched_getaffinity(0)))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = _CORES


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "tabmt", "__init__.py")):
        sys.exit(f"error: no tabmt sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import tabmt

    if not os.path.realpath(tabmt.__file__).startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"error: imported tabmt from {tabmt.__file__}, not from {SRC}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()

    import runner
    import tablegen

    if args.workload not in tablegen.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(tablegen.WORKLOADS)}")
    result = runner.run(tablegen.WORKLOADS[args.workload], args.seed, args.seconds,
                        bool(args.trace), ROOT, OUT)
    tag = f"{args.workload}-s{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
