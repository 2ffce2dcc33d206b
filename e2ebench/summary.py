"""``run.py`` with no ``--workload``: every workload in a fresh process.

Prints one table per workload with every metric by name and unit, the
operations attempted and failed, whether the outputs checked out, and the
host's ``nproc``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_one(workload, seed, seconds, trace, timeout=900):
    """Run ``run.py`` for one workload in a fresh process; returns its
    parsed report (or raises with its stderr)."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace",
               str(trace)]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=timeout, cwd=str(HERE.parent))
    if done.returncode != 0:
        raise RuntimeError(f"{workload} exited {done.returncode}: "
                           f"{done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_all(args):
    from workloads import WORKLOADS

    print(f"nproc={os.cpu_count()} python={sys.version.split()[0]} "
          f"seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    status = 0
    for workload in WORKLOADS:
        report = run_one(workload, args.seed, args.seconds, args.trace)
        status |= not report["correct"]
        print(f"\n{workload}: correct={report['correct']} "
              f"attempted={report['attempted']} failed={report['failed']}")
        for name, metric in report["metrics"].items():
            print(f"  {name:<28} {metric['value']:>14.4f} {metric['unit']}")
    return status
