"""The traced run: per-layer metrics from benchmark-side spans.

The run first times whole rounds untraced for half its seconds, then
installs the :class:`~spans.Recorder` and repeats the same number of
rounds traced.  Per-layer figures come from the traced rounds; the
traced/untraced wall ratio is the tracing overhead.
"""

from __future__ import annotations

import sys
import time

import numpy as np

import spans as S
from workloads import cpu_seconds, timed_rounds

SIMULATE = {"noisy", "ideal", "broadcast"}

#: Every per-layer metric the traced run reports, with its unit.
PER_LAYER = {
    "transpiler.compile_ms": "ms",
    "transpiler.cx_added": "count",
    "transpiler.depth_out": "count",
    "transpiler.cache_hits": "count",
    "transpiler.cache_misses": "count",
    "qobj.assemble_ms": "ms",
    "qobj.disassemble_ms": "ms",
    "providers.overhead_ms": "ms",
    "providers.dispatch_ms": "ms",
    "providers.process_jobs": "count",
    "providers.result_bytes": "bytes",
    "simulators.noisy_ms": "ms",
    "simulators.noise_extra_ms": "ms",
    "simulators.sampling_ms": "ms",
    "simulators.broadcast_ms": "ms",
    "primitives.pub_ms": "ms",
    "runtime.submit_ms": "ms",
    "runtime.queue_wait_ms": "ms",
    "runtime.store_bytes": "bytes",
    "runtime.store_files": "count",
    "telemetry.metric_series": "count",
    "process.cpu_s": "s",
    "process.wall_s": "s",
    "trace.unattributed_frac": "frac",
    "trace.overhead_frac": "frac",
    **{f"share.{layer}": "frac" for layer in S.LAYERS},
    "throughput.shots_per_s": "1/s",
    "throughput.bindings_per_s": "1/s",
}


def _per_call(spans, self_time, name):
    chosen = [s for s in spans if s.name == name
              and (s.parent is None or s.parent.name != name)]
    total = sum(self_time[s.id] for s in spans if s.name == name)
    return 1e3 * total / len(chosen) if chosen else 0.0


def _children(spans):
    kids = {}
    for span in spans:
        if span.parent is not None:
            kids.setdefault(span.parent.id, []).append(span)
    return kids


def _simulated(span, kids):
    """Seconds spent in simulator spans under ``span``."""
    total = 0.0
    for child in kids.get(span.id, ()):
        if child.name in SIMULATE:
            total += child.end - child.start
        else:
            total += _simulated(child, kids)
    return total


def _registry_series():
    from repro.telemetry.metrics import get_metrics_registry

    return sum(len(family.series())
               for family in get_metrics_registry().families())


def _cache_stats():
    from repro.transpiler.cache import get_transpile_cache

    return get_transpile_cache().stats()


def traced_run(workload, args, work_dir):
    """Untraced rounds for half the run, then as many traced rounds;
    returns (per-layer metrics, [untraced timing, traced timing])."""
    untraced = timed_rounds(workload, seconds=args.seconds / 2)
    rounds = len(untraced.round_walls)
    recorder = S.Recorder().install()
    workload.next_op = recorder.next_op
    cache_before = _cache_stats()
    cpu_before = cpu_seconds()
    lo = time.perf_counter()
    try:
        traced = timed_rounds(workload, rounds=rounds)
    finally:
        hi = time.perf_counter()
        recorder.uninstall()
        del workload.next_op
    cpu = cpu_seconds() - cpu_before
    cache_after = _cache_stats()
    spans = recorder.finished()
    recorder.dump(str(work_dir.parent / f"spans-{workload.name}-"
                      f"seed{args.seed}.jsonl"), spans)
    self_time = S.self_times(spans)
    kids = _children(spans)
    side = workload.side_measurements(untraced.first)
    shares, unattributed = S.account(spans, lo, hi)

    jobs = [s for s in spans if s.name == "job"]
    per_job_sim = side.pop("_simulate_per_job_s", None)
    overhead = []
    for span in jobs:
        simulated = _simulated(span, kids)
        if simulated == 0.0 and per_job_sim is not None:
            simulated = per_job_sim
        overhead.append(span.end - span.start - simulated)
    services = [s for s in spans if s.name == "service"]
    waits = []
    for service in services:
        children = kids.get(service.id, ())
        submit = [c for c in children if c.name == "submit"]
        workers = [c.start for c in children if c.thread != service.thread]
        if submit and workers:
            waits.append(min(workers) - submit[0].end)
    submits = [s.end - s.start for s in spans if s.name == "submit"]

    cx_total, depth_total = workload.sizes(untraced.first)
    input_cx = workload.input_cx()
    metrics = {
        "transpiler.compile_ms": _per_call(spans, self_time, "transpile"),
        "transpiler.cx_added": cx_total - input_cx,
        "transpiler.depth_out": depth_total,
        "transpiler.cache_hits": cache_after["hits"] - cache_before["hits"],
        "transpiler.cache_misses": (cache_after["misses"]
                                    - cache_before["misses"]),
        "qobj.assemble_ms": _per_call(spans, self_time, "assemble"),
        "qobj.disassemble_ms": _per_call(spans, self_time, "disassemble"),
        "providers.overhead_ms": (1e3 * float(np.mean(overhead))
                                  if overhead else 0.0),
        "providers.dispatch_ms": _per_call(spans, self_time, "job"),
        "providers.process_jobs": recorder.executor_kinds.get(
            "processes", 0),
        "providers.result_bytes": side.pop("providers.result_bytes", 0.0),
        "simulators.noisy_ms": _per_call(spans, self_time, "noisy"),
        "simulators.noise_extra_ms": side.pop("simulators.noise_extra_ms",
                                              0.0),
        "simulators.sampling_ms": side.pop(
            "simulators.sampling_ms",
            _per_call(spans, self_time, "ideal")),
        "simulators.broadcast_ms": _per_call(spans, self_time, "broadcast"),
        "primitives.pub_ms": _per_call(spans, self_time, "pub"),
        "runtime.submit_ms": (1e3 * float(np.mean(submits))
                              if submits else 0.0),
        "runtime.queue_wait_ms": (1e3 * float(np.median(waits))
                                  if waits else 0.0),
        "telemetry.metric_series": _registry_series(),
        "process.cpu_s": cpu,
        "process.wall_s": traced.wall,
        "trace.unattributed_frac": unattributed / (hi - lo),
        "trace.overhead_frac": traced.wall / untraced.wall - 1.0,
        "throughput.shots_per_s": (workload.shots_per_round() * rounds
                                   / traced.wall),
        "throughput.bindings_per_s": (workload.bindings_per_round()
                                      * rounds / traced.wall),
    }
    store = getattr(workload, "store_usage", None)
    files, size = store() if store is not None else (0, 0)
    metrics["runtime.store_files"] = files
    metrics["runtime.store_bytes"] = size
    for layer in S.LAYERS:
        metrics[f"share.{layer}"] = shares.get(layer, 0.0) / (hi - lo)
    typed = {name: (float(metrics[name]), unit)
             for name, unit in PER_LAYER.items()}
    if recorder.missing:
        print("note: hooks not found (layers unmeasured): "
              + ", ".join(recorder.missing), file=sys.stderr)
    return typed, [untraced, traced]
