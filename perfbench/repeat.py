"""Repeat mode: run each workload several times and report run-to-run spread.

    python3 perfbench/repeat.py --runs 10
    python3 perfbench/repeat.py --runs 5 --workloads dashboards --first-seed 100

Each run is ``perfbench/run.py`` in its own process, one at a time, with a
different seed.  For every end-to-end metric the spread is the distance
between the first and third quartile of the runs' values as a share of
their median, set against the metric's bound in ``BENCHMARK.json``;
every run's values are printed under each metric.  The share of failed
operations must be identical in every run.  Finally every workload runs once on a held-out
seed that was never used while the benchmark was built, and its outputs
must verify.  Exits non-zero if any of this fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Never used while the workloads were sized and tuned.
HOLDOUT_SEED = 4242


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if not lines:  # the run died before printing a result
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        results = [
            run_once(workload, seed, args.seconds)
            for seed in range(args.first_seed, args.first_seed + args.runs)
        ]
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"{workload}: {args.runs} runs, correct={correct}, "
              f"failed shares={sorted(shares)}")
        ok &= correct and len(shares) == 1
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median, rel = spread(values)
            within = rel <= bound
            ok &= within
            flag = "ok" if rel <= bound / 3 else "ok (above a third)" if within else "TOO WIDE"
            print(f"  {name:<24} median {median:>12.6g}  spread {rel:7.2%}  "
                  f"bound {bound:.0%}  {flag}")
            print("      " + " ".join(f"{v:.4g}" for v in values))
    for workload in args.workloads.split(","):
        r = run_once(workload, HOLDOUT_SEED, args.seconds)
        verified = r["correct"] and r["failed"] == 0
        ok &= verified
        print(f"held-out seed {HOLDOUT_SEED} on {workload}: "
              f"{'verified' if verified else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
