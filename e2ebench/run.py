"""End-to-end benchmark of the toolchain, one workload per process.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload device_flow --seed 1 --seconds 30 \\
        --trace 0
    python3 e2ebench/run.py            # every workload, each in a fresh
                                       # process, as a table

A run builds the workload's inputs from ``--seed``, sets up (imports,
backends/service, inputs, warm-up), times whole rounds of operations for
``--seconds`` (and at least the workload's ``rss_rounds``, after which it
reads the peak resident set), sets up again in fresh processes for the
median ``setup_s``, checks the outputs against the benchmark's own
reference simulator, and prints one JSON object as its last line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run spends half
its time untraced and then repeats the same rounds with layer spans on,
and reports the per-layer metrics (see README.md).
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: Setup is timed this many times per run (the run's own plus fresh
#: child processes) and reported as the median.
SETUP_SAMPLES = 7
#: Child processes get this long to set up before the run fails.
CHILD_TIMEOUT_S = 120


def child_setup_seconds(args):
    """Set the workload up in a fresh interpreter and return its setup
    time."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload",
               args.workload, "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=str(ROOT))
    if done.returncode != 0:
        raise RuntimeError(f"setup child failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end(workload, timing, setup_samples):
    cx_total, depth_total = workload.sizes(timing.first)
    tail = workload.tail_percentile
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (timing.ops_per_s(), "1/s"),
        "latency_p50_ms": (1e3 * timing.latency_quantile(50), "ms"),
        "latency_tail_ms": (1e3 * timing.latency_quantile(tail), "ms"),
        "mapped_cx_total": (cx_total, "count"),
        "mapped_depth_total": (depth_total, "count"),
        "peak_rss_mb": (timing.peak_rss_mb, "MB"),
    }
    beyond = (timing.attempted - timing.failed) * (1 - tail / 100.0)
    if beyond < 10:
        print(f"note: only {beyond:.0f} operations beyond p{tail:g} in "
              "this run", file=sys.stderr)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source ({SRC / 'repro'}) is missing; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Results must not depend on a transpile disk cache the caller set up.
    os.environ.pop("REPRO_TRANSPILE_CACHE_DIR", None)
    if args.workload == "all":
        import summary

        return summary.run_all(args)

    work_dir = ROOT / ".bench_build" / "e2ebench" / \
        f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]()
    try:
        workload.setup(args.seed, str(work_dir))
        setup_s = time.perf_counter() - _START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            import layers

            metrics, timings = layers.traced_run(workload, args, work_dir)
        else:
            timing = workloads.timed_rounds(workload, seconds=args.seconds,
                                            rss_rounds=workload.rss_rounds)
            timings = [timing]
        errors = workload.check(timings[0].first, timings[-1].last)
        if not args.trace:
            samples = [setup_s] + [child_setup_seconds(args)
                                   for _ in range(SETUP_SAMPLES - 1)]
            metrics = end_to_end(workload, timing, samples)
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    report = {
        "correct": not errors,
        "attempted": sum(t.attempted for t in timings),
        "failed": sum(t.failed for t in timings),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
