"""MAGIC benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload classify-fresh --seed 1 --seconds 16 --trace 0

Workloads: ``classify-fresh`` (closed-loop InferenceEngine batches over
unique listings), ``serve-replay`` (open-loop HTTP traffic against the
fleet server) and ``train-epoch`` (Trainer.train over an in-memory ACFG
corpus).  The seed generates every input.  With ``--trace 0`` the last
stdout line is a JSON object carrying every end-to-end metric named in
``BENCHMARK.json``; with ``--trace 1`` it carries every per-layer metric
of a traced run (plus the tracing overhead against an untraced run of
the same length).  Every workload reports every metric of the list, so
the names are generic (``throughput_per_s`` is samples, requests or
training graphs per second); a workload that produces another set of
names is a defect of the benchmark and exits with status 3.  The
correctness oracle's verdict is the ``correct`` key; on any mismatch the
process exits with status 1.  Full records (environment, input digests,
vertex-count distributions, spans) go to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("classify-fresh", "serve-replay", "train-epoch")


def manifest_units(trace: bool) -> dict:
    """Metric name -> unit, in manifest order, for a run with ``trace``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    return {entry["name"]: entry["unit"]
            for entry in manifest["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no MAGIC sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

    from perfbench import common

    trace = bool(args.trace)
    units = manifest_units(trace)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spool = os.path.join(common.WORK_DIR, "spool", f"{tag}-{os.getpid()}")
    if args.workload == "classify-fresh":
        from perfbench import classify as workload
    elif args.workload == "serve-replay":
        from perfbench import serve as workload
    else:
        from perfbench import train as workload
    try:
        result = workload.run(args.seed, args.seconds, trace, spool)
    finally:
        shutil.rmtree(spool, ignore_errors=True)

    produced = set(result["metrics"])
    if produced != set(units):
        common.log(f"perfbench: {args.workload} produced the wrong metrics; "
                   f"missing {sorted(set(units) - produced)}, "
                   f"unlisted {sorted(produced - set(units))}")
        return 3
    metrics = {name: common.metric(result["metrics"][name], unit)
               for name, unit in units.items()}
    correct = not result["failures"]
    record = {
        "environment": common.environment(args.seed, args.workload, trace),
        "seconds": args.seconds,
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": result["failures"][:50],
        "metrics": metrics,
        **result["record"],
    }
    if result.get("spans") is not None:
        spans_path = os.path.join(common.WORK_DIR, "spans", tag + ".jsonl")
        result["spans"].write(spans_path)
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
    record_path = common.write_record(tag, record)
    for failure in result["failures"][:20]:
        common.log(f"MISMATCH {failure}")
    for name, entry in metrics.items():
        print(f"{name:40s} {entry['value']:14.6g} {entry['unit']}")
    print(f"record: {os.path.relpath(record_path, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
