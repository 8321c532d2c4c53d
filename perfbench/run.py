"""End-to-end benchmark of the ODA pipeline: one workload per invocation.

    python3 perfbench/run.py --workload site_ops --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload until ``--seconds`` have passed (and
enough rounds and queries for the reported statistics), checks the
program's outputs in every round, and prints as its last line one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
rounds alternate untraced/traced and the metrics are the per-layer ledger
of the traced rounds.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

WORKLOADS = {
    "site_ops": ("site_ops", "SiteOps"),
    "fleet_ingest": ("fleet_ingest", "FleetIngest"),
    "dashboards": ("dashboards", "Dashboards"),
}

#: p99 is reported only with at least ten samples beyond it.
MIN_QUERIES = 1000


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(args) -> dict:
    from harness import Recorder, end_to_end, per_layer
    from ledger import Ledger

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    module_name, class_name = WORKLOADS[args.workload]
    workload_cls = getattr(importlib.import_module(module_name), class_name)
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    ledger = Ledger() if args.trace else None
    untraced, traced = [], []
    try:
        workload = workload_cls(args.seed, workdir)
        deadline = time.perf_counter() + args.seconds
        while True:
            traced_round = bool(args.trace) and len(untraced) > len(traced)
            rec = Recorder(ledger if traced_round else None)
            if traced_round:
                ledger.install()
            try:
                workload.round(rec)
            finally:
                if traced_round:
                    ledger.uninstall()
            (traced if traced_round else untraced).append(rec)
            # Rounds hold reference cycles; free one before the next starts
            # so peak memory is one round's, whatever the collector's timing.
            gc.collect()
            if time.perf_counter() < deadline:
                continue
            if args.trace:
                if traced:
                    break
            elif len(untraced) >= workload.min_rounds and sum(
                len(r.latencies_s) for r in untraced
            ) >= MIN_QUERIES:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run is still using it

    rounds = untraced + traced
    for rec in rounds:
        for failure in rec.failures:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
    if args.trace:
        values = per_layer(ledger, traced, untraced, [m["name"] for m in declared])
    else:
        values = end_to_end(untraced, workload)
        info = workload.summary(untraced) if hasattr(workload, "summary") else {}
        info.update(rounds=len(untraced), queries=sum(len(r.latencies_s) for r in untraced))
        print(f"{args.workload}: " + ", ".join(f"{k}={v:.6g}" for k, v in info.items()))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        print(f"  {name:<30} {metric['value']:>14.6g} {metric['unit']}")
    return {
        "correct": all(rec.correct for rec in rounds),
        "attempted": sum(rec.attempted for rec in rounds),
        "failed": sum(rec.failed for rec in rounds),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    result = run(parse_args(argv))
    print(json.dumps(result))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
