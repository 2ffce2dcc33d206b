"""Layer spans recorded from outside the program.

The traced run wraps the public entry points of each layer of ``repro``
(the program itself is not changed) and records one span per call:

========================  ===========  ====================================
span                      layer        from -> to
========================  ===========  ====================================
``transpile``             transpiler   ``transpile`` call
``assemble``              qobj         ``assemble`` / ``circuit_to_experiment``
``disassemble``           qobj         ``experiment_to_circuit``
``job``                   providers    ``BaseBackend.run`` (or the engine's
                                       ``run``) -> ``Job.result`` returns
``noisy`` / ``ideal``     simulators   ``QasmSimulator.run`` (by noise model)
``broadcast``             simulators   ``sample_broadcast`` /
                                       ``estimate_broadcast_shots``
``pub``                   primitives   ``SamplerV2.run`` ->
                                       ``PrimitiveJob.result`` returns
``service``               runtime      ``RuntimeService.submit`` ->
                                       ``RuntimeJob.result`` returns
``submit``                runtime      the ``submit`` call itself
========================  ===========  ====================================

A span keeps its name, layer, thread, start, end, parent and operation
id.  The parent is the span active on the same thread when it began;
spans a service worker thread records for a job have no such parent and
are linked to that job's ``service`` span through the job id the engine
receives.  ``service`` spans only wait on other threads; :func:`account`
treats them as waiting, not working.

Spans are kept in memory and written out by :meth:`Recorder.dump`.  A
hook whose target is missing is skipped and listed in
``Recorder.missing``: that layer then reads as unmeasured (its time
shows up in the unattributed share), never as fast.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import Counter

LAYERS = ("transpiler", "qobj", "providers", "simulators", "primitives",
          "runtime")

#: Spans that only wait for work other threads do on their behalf.
WAITING = {"service"}

_now = time.perf_counter


class Span:
    __slots__ = ("id", "name", "layer", "thread", "start", "end", "parent",
                 "op")

    def __init__(self, sid, name, layer, thread, start, parent, op):
        self.id = sid
        self.name = name
        self.layer = layer
        self.thread = thread
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op

    def as_dict(self):
        return {"id": self.id, "name": self.name, "layer": self.layer,
                "thread": self.thread, "start": self.start,
                "end": self.end,
                "parent": None if self.parent is None else self.parent.id,
                "op": self.op}


class Recorder:
    """Records spans around the program's layer entry points."""

    def __init__(self):
        self.spans = []
        self.executor_kinds = Counter()
        self.missing = []
        self._local = threading.local()
        self._ids = iter(range(1 << 62))
        self._op_ids = iter(range(1 << 62))
        self._id_lock = threading.Lock()
        self._job_ops = {}        # runtime job id -> operation id
        self._service_span = {}   # operation id -> its open service span
        self._open = {}           # id(job handle) -> (handle, span)
        self._patches = []

    # -- span bookkeeping --------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def next_op(self):
        """Start a new operation: spans this thread records from now on
        carry its id."""
        self._local.op = next(self._op_ids)

    def begin(self, name, layer):
        stack = self._stack()
        with self._id_lock:
            sid = next(self._ids)
        span = Span(sid, name, layer, threading.get_ident(), _now(),
                    stack[-1] if stack else None,
                    getattr(self._local, "op", None))
        self.spans.append(span)
        return span

    def call(self, span, fn, *args, **kwargs):
        """Run ``fn`` with ``span`` active on this thread."""
        stack = self._stack()
        stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    def _attach(self, handle, span):
        self._open[id(handle)] = (handle, span)

    def _close(self, handle):
        entry = self._open.pop(id(handle), None)
        if entry is not None:
            entry[1].end = _now()

    def _active(self, handle):
        entry = self._open.get(id(handle))
        return None if entry is None else entry[1]

    # -- wrappers ----------------------------------------------------------

    def _scoped(self, name_of, layer):
        def decorate(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span = self.begin(name_of(args, kwargs), layer)
                try:
                    return self.call(span, fn, *args, **kwargs)
                finally:
                    span.end = _now()
            return wrapper
        return decorate

    def _opening(self, name, layer, entered):
        """Wrap a submission call whose span ends when its handle's result
        is collected; nested submissions (``BaseBackend.run`` -> engine)
        share the outermost span."""
        def decorate(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self._link_worker(args, kwargs)
                if getattr(self._local, entered, False):
                    return fn(*args, **kwargs)
                span = self.begin(name, layer)
                setattr(self._local, entered, True)
                try:
                    handle = self.call(span, fn, *args, **kwargs)
                except BaseException:
                    span.end = _now()
                    raise
                finally:
                    setattr(self._local, entered, False)
                self._attach(handle, span)
                return handle
            return wrapper
        return decorate

    def _closing(self, fn):
        @functools.wraps(fn)
        def wrapper(handle, *args, **kwargs):
            span = self._active(handle)
            if span is None:
                return fn(handle, *args, **kwargs)
            try:
                return self.call(span, fn, handle, *args, **kwargs)
            finally:
                self._close(handle)
        return wrapper

    def _streaming(self, fn):
        @functools.wraps(fn)
        def wrapper(handle, *args, **kwargs):
            events = fn(handle, *args, **kwargs)
            while True:
                span = self._active(handle)
                try:
                    event = (next(events) if span is None
                             else self.call(span, next, events))
                except StopIteration:
                    return
                yield event
        return wrapper

    def _link_worker(self, args, kwargs):
        """On a service worker thread, tag spans with the operation whose
        runtime job the engine is running.

        The job's ``JobTrace`` (whose ``job_id`` is the runtime job id)
        reaches ``compile_batch`` as a positional argument and ``run`` /
        ``run_pubs`` inside their options dict.
        """
        if not self._job_ops:
            return
        trace = kwargs.get("job_trace")
        if trace is None:
            for value in args:
                if isinstance(value, dict):
                    trace = value.get("job_trace")
                elif hasattr(value, "job_id") and not hasattr(
                        value, "configuration"):
                    trace = value
                if trace is not None:
                    break
        op = self._job_ops.get(getattr(trace, "job_id", None))
        if op is not None:
            self._local.op = op

    def _submitting(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            service = self.begin("service", "runtime")
            submit = self.begin("submit", "runtime")
            submit.parent = service
            try:
                job = self.call(submit, fn, *args, **kwargs)
            except BaseException:
                service.end = _now()
                raise
            finally:
                submit.end = _now()
            self._job_ops[job.job_id] = service.op
            self._service_span[service.op] = service
            self._attach(job, service)
            return job
        return wrapper

    def _counting_executor(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            kind = fn(*args, **kwargs)
            self.executor_kinds[kind] += 1
            return kind
        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, module_name, owner, attr, make):
        try:
            module = importlib.import_module(module_name)
            target = module if owner is None else getattr(module, owner)
            original = getattr(target, attr)
        except (ImportError, AttributeError):
            self.missing.append(
                f"{module_name}.{owner + '.' if owner else ''}{attr}")
            return
        setattr(target, attr, make(original))
        self._patches.append((target, attr, original))

    def install(self):
        def simulate_name(args, kwargs):
            noise = kwargs.get("noise_model")
            if noise is None and len(args) > 4:
                noise = args[4]
            noisy = noise is not None and getattr(noise, "noisy_gates", None)
            return "noisy" if noisy else "ideal"

        def fixed(name):
            return lambda args, kwargs: name

        scoped = self._scoped
        self._patch("repro.transpiler.preset", None, "transpile",
                    scoped(fixed("transpile"), "transpiler"))
        for attr in ("assemble", "circuit_to_experiment"):
            self._patch("repro.qobj.assembler", None, attr,
                        scoped(fixed("assemble"), "qobj"))
        self._patch("repro.qobj.assembler", None, "experiment_to_circuit",
                    scoped(fixed("disassemble"), "qobj"))
        self._patch("repro.simulators.qasm_simulator", "QasmSimulator",
                    "run", scoped(simulate_name, "simulators"))
        for attr in ("sample_broadcast", "estimate_broadcast_shots"):
            self._patch("repro.simulators.batched", None, attr,
                        scoped(fixed("broadcast"), "simulators"))
        job_open = self._opening("job", "providers", "in_run")
        for owner, module in (("BaseBackend", "repro.providers.backend"),
                              ("ExecutionEngine", "repro.providers.engine")):
            for attr in ("run", "run_pubs"):
                self._patch(module, owner, attr, job_open)
        self._patch("repro.providers.engine", "ExecutionEngine",
                    "compile_batch", self._linking)
        self._patch("repro.providers.backend", "Job", "result",
                    self._closing)
        self._patch("repro.providers.backend", "Job", "stream",
                    self._streaming)
        self._patch("repro.primitives.sampler", "SamplerV2", "run",
                    self._opening("pub", "primitives", "in_pub"))
        self._patch("repro.primitives.job", "PrimitiveJob", "result",
                    self._closing)
        for attr in ("submit", "submit_pubs"):
            self._patch("repro.runtime.service", "RuntimeService", attr,
                        self._submitting)
        self._patch("repro.runtime.service", "RuntimeJob", "result",
                    self._closing)
        for module in ("repro.providers.executor", "repro.providers.engine"):
            self._patch(module, None, "choose_executor",
                        self._counting_executor)
        return self

    def _linking(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._link_worker(args, kwargs)
            return fn(*args, **kwargs)
        return wrapper

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def finished(self):
        """Closed spans, with worker-thread roots linked to their job's
        ``service`` span."""
        done = [span for span in self.spans if span.end is not None]
        for span in done:
            if span.parent is None and span.name not in WAITING:
                service = self._service_span.get(span.op)
                if service is not None and service.thread != span.thread:
                    span.parent = service
        return done

    def dump(self, path, spans):
        with open(path, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


def _union_length(intervals, lo, hi):
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans):
    """span id -> duration minus the union of its children's intervals."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent.id, []).append(
                (span.start, span.end))
    return {
        span.id: (span.end - span.start) - _union_length(
            children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def account(spans, lo, hi):
    """Split the wall interval ``[lo, hi]`` among layers.

    At every instant the time goes, in equal parts, to the innermost open
    spans that are working (open spans with no open child); if none is
    working it goes to the innermost waiting spans; if no span is open it
    is unattributed.  Returns ``({layer: seconds}, unattributed_seconds)``
    whose values sum to ``hi - lo``.
    """
    events = []
    for span in spans:
        start, end = max(span.start, lo), min(span.end, hi)
        if end > start:
            # Ties: ends before starts; parents open before and close
            # after their children.
            events.append(((start, 1, span.start, span.id), 1, span))
            events.append(((end, 0, span.end, -span.id), 0, span))
    events.sort(key=lambda event: event[0])
    events = [(key[0], kind, span) for key, kind, span in events]
    open_children = Counter()
    is_open = set()
    leaves = {True: Counter(), False: Counter()}   # working? -> layers
    leaf_set = set()
    shares = Counter()
    unattributed = 0.0
    cursor = lo

    def add_leaf(span):
        leaf_set.add(span.id)
        leaves[span.name not in WAITING][span.layer] += 1

    def drop_leaf(span):
        if span.id in leaf_set:
            leaf_set.discard(span.id)
            leaves[span.name not in WAITING][span.layer] -= 1

    for when, kind, span in events:
        dt = when - cursor
        if dt > 0:
            pool = leaves[True] if +leaves[True] else leaves[False]
            total = sum(pool.values())
            if total:
                for layer, count in pool.items():
                    if count:
                        shares[layer] += dt * count / total
            else:
                unattributed += dt
            cursor = when
        parent = span.parent
        parent_open = parent is not None and parent.id in is_open
        if kind == 1:
            is_open.add(span.id)
            if open_children[span.id] == 0:
                add_leaf(span)
            if parent_open:
                open_children[parent.id] += 1
                drop_leaf(parent)
        else:
            is_open.discard(span.id)
            drop_leaf(span)
            if parent_open:
                open_children[parent.id] -= 1
                if open_children[parent.id] == 0:
                    add_leaf(parent)
    if hi > cursor:
        unattributed += hi - cursor
    return dict(shares), unattributed
