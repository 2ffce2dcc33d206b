"""Steadiness check: run one workload k times, each in a fresh process
with its own seed, and print each metric's median and quartiles.

Usage (from the repository root)::

    python3 e2ebench/steady.py --workload device_flow --runs 10

The spread is the interquartile distance as a share of the median, with
quartiles as ``statistics.quantiles(values, n=4)`` gives them.  Against
the bounds in ``BENCHMARK.json`` a metric is *steady* when its spread is
under a third of its bound and *unsteady* when it exceeds the bound;
``setup_s`` is judged the same way.  The runs use seeds 1..k and report
the end-to-end metrics.  The failed share must be the same in every run.
Exits 1 when any run is incorrect or a metric is unsteady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from summary import run_one  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / abs(median) if median else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    spec_path = HERE.parent / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.is_file() else {}
    seconds = args.seconds or spec.get("run_seconds", 30)
    bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", ())}
    reports = []
    for seed in range(1, args.runs + 1):
        start = time.perf_counter()
        report = run_one(args.workload, seed, seconds, trace=0)
        print(f"seed {seed}: correct={report['correct']} "
              f"attempted={report['attempted']} failed={report['failed']} "
              f"({time.perf_counter() - start:.1f}s)", flush=True)
        reports.append(report)
    bad = not all(r["correct"] for r in reports)
    shares = {r["failed"] / r["attempted"] for r in reports}
    if len(shares) > 1:
        print(f"failed share differs between runs: {sorted(shares)}")
        bad = True
    print(f"\n{'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for name, metric in reports[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in reports]
        q1, median, q3, share = spread(values)
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            if share > bound:
                verdict = "UNSTEADY"
                bad = True
            elif share > bound / 3:
                verdict = "within bound"
            else:
                verdict = "steady"
        print(f"{name:<28} {median:>12.4f} {q1:>12.4f} {q3:>12.4f} "
              f"{share:>7.3f} {bound if bound is not None else '':>6} "
              f"{metric['unit']} {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
