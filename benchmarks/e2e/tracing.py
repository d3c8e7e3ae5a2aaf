"""Per-layer spans for the ``--trace`` run, recorded from outside.

:func:`install` replaces named public callables of each layer with
timing wrappers; the program itself is unchanged, and the untraced run
never imports this module.  Each wrapped call is a span with a parent
(the innermost traced call open on the same thread), so a layer's *self*
time is its duration minus the time its traced children took.

Spans live in memory, one buffer per thread, and are aggregated per
boundary; the first :data:`MAX_SPANS` are also kept individually for the
JSONL dump.  Recording is off until :meth:`Tracer.start`, so set-up and
warm-up do not count; :meth:`Tracer.stop` pauses it (the ``serve-rw``
quiesce barriers are not part of the traced window either).

A boundary whose callables no longer exist is reported as ``missing``
and its metrics read 0; it never fails the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import statistics
import sys
import threading
import time
import types
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Individual spans kept for the JSONL dump (aggregates cover all calls).
MAX_SPANS = 2000

Note = Callable[[tuple, dict, Any], Dict[str, float]]

_MUTATIONS = ("add", "remove", "update", "score", "rule")


def _exact_note(args, kwargs, answer) -> Dict[str, float]:
    return {"depth": answer.stats.scan_depth, "answers": len(answer.answers)}


def _sampling_note(args, kwargs, answer) -> Dict[str, float]:
    return {"units": answer.stats.sample_units}


def _decision_note(args, kwargs, decision) -> Dict[str, float]:
    return {decision: 1}


def _wal_note(args, kwargs, appended) -> Dict[str, float]:
    record = args[1] if len(args) > 1 else kwargs.get("record", {})
    if record.get("op") in _MUTATIONS:
        return {"writes": 1, "write_bytes": appended}
    return {}


@dataclass(frozen=True)
class Boundary:
    """One layer boundary: the callables that enter it.

    :param targets: ``"module:qualname"`` paths; module-level functions
        are also replaced wherever another ``repro`` module imported
        them by name.
    :param note: extracts numbers to sum from ``(args, kwargs, result)``.
    :param keep_spans: keep individual spans for the dump (off for the
        per-metric-update boundary, which fires hundreds of times per
        query).
    """

    name: str
    targets: Tuple[str, ...]
    note: Optional[Note] = None
    keep_spans: bool = True


BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary("serve.protocol.decode", (
        "repro.serve.protocol:QueryRequest.from_dict",
        "repro.serve.protocol:MutationRequest.from_dict",
        "repro.serve.server:json.loads",
    )),
    Boundary("serve.protocol.encode", (
        "repro.serve.protocol:QueryResponse.to_dict",
        "repro.serve.server:_json_response",
    )),
    Boundary("serve.admission.admit", (
        "repro.serve.admission:AdmissionController.admit",
    )),
    Boundary("serve.coalescer.submit", (
        "repro.serve.coalescer:RequestCoalescer.submit",
    )),
    Boundary("serve.scheduler.decide", (
        "repro.serve.scheduler:CostScheduler.decide",
        "repro.serve.scheduler:FifoScheduler.decide",
    ), note=_decision_note),
    Boundary("query.planner.estimate", (
        "repro.query.planner:estimate_latency",
    )),
    Boundary("query.prepare.get", ("repro.query.prepare:PrepareCache.get",)),
    Boundary("query.prepare.build", ("repro.query.prepare:prepare_ranking",)),
    Boundary("query.prepare.refresh", (
        "repro.query.prepare:PrepareCache.refresh",
    )),
    Boundary("core.exact.query", (
        "repro.core.exact:exact_ptk_query",
    ), note=_exact_note),
    Boundary("core.exact.setup", ("repro.core.exact:ExactPTKEngine.__init__",)),
    Boundary("core.exact.scan", ("repro.core.exact:ExactPTKEngine.run",)),
    Boundary("core.sampling.query", (
        "repro.core.sampling:sampled_ptk_query",
    ), note=_sampling_note),
    Boundary("core.batch.query", ("repro.core.batch:batch_ptk_queries",)),
    Boundary("dynamic.answer", (
        "repro.dynamic.registry:DynamicIndexRegistry.answer",
    )),
    Boundary("dynamic.build", ("repro.dynamic.index:DynamicIndex.build",)),
    Boundary("dynamic.apply", ("repro.dynamic.index:DynamicIndex.apply",)),
    Boundary("dynamic.scan", ("repro.dynamic.index:DynamicIndex.scan_answer",)),
    Boundary("durable.mutate", (
        "repro.durable.db:DurableDB.add",
        "repro.durable.db:DurableDB.remove_tuple",
        "repro.durable.db:DurableDB.update_probability",
        "repro.durable.db:DurableDB.update_score",
    )),
    Boundary("durable.wal.append", (
        "repro.durable.wal:WriteAheadLog.append",
    ), note=_wal_note),
    Boundary("durable.flush_serves", ("repro.durable.db:DurableDB.flush_serves",)),
    Boundary("parallel.fanout", (
        "repro.parallel.fanout:parallel_ptk_queries",
        "repro.parallel.fanout:parallel_batch_ptk_queries",
    )),
    Boundary("parallel.shard_map", ("repro.parallel.pool:shard_map",)),
    Boundary("obs.flight", (
        "repro.obs.flight:FlightRecorder.begin",
        "repro.obs.flight:FlightRecorder.finish",
    )),
    Boundary("obs.metrics", (
        "repro.obs.metrics:Counter.inc",
        "repro.obs.metrics:Gauge.set",
        "repro.obs.metrics:Gauge.inc",
        "repro.obs.metrics:Gauge.dec",
        "repro.obs.metrics:Histogram.observe",
        "repro.obs.metrics:Timer.observe",
    ), keep_spans=False),
)

#: Root spans that are not request-path work: ``submit`` spans the
#: coalescing window, the queue wait and execution on another thread;
#: serve-key flushes run fire-and-forget after the response.
OFF_PATH_ROOTS = ("serve.coalescer.submit", "durable.flush_serves")

#: Derived per-layer metrics: (name, unit, better).
DERIVED: Tuple[Tuple[str, str, str], ...] = (
    ("serve.admission.rejected", "count", "lower"),
    ("serve.coalescer.batch_mean", "requests", "higher"),
    ("serve.scheduler.run", "count/op", "higher"),
    ("serve.scheduler.degrade", "count/op", "lower"),
    ("serve.scheduler.expired", "count/op", "lower"),
    ("serve.residual_ms_mean", "ms/op", "lower"),
    ("query.prepare.hit_rate", "ratio", "higher"),
    ("core.exact.depth_mean", "rows", "lower"),
    ("core.exact.rows_per_answer", "rows", "lower"),
    ("core.sampling.units_mean", "units", "higher"),
    ("dynamic.deltas_applied", "count/op", "higher"),
    ("dynamic.fallbacks", "count/op", "lower"),
    ("dynamic.reads_rebuild", "count/op", "lower"),
    ("dynamic.indexes", "count", "lower"),
    ("dynamic.state_mb", "MB", "lower"),
    ("durable.wal.fsyncs", "count/op", "lower"),
    ("durable.wal.bytes_per_write", "B", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def per_layer_spec() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in order."""
    spec = []
    for boundary in BOUNDARIES:
        spec.append((f"{boundary.name}.calls_per_op", "count/op", "lower"))
        spec.append((f"{boundary.name}.busy_ms_per_op", "ms/op", "lower"))
        spec.append((f"{boundary.name}.p50_ms", "ms/call", "lower"))
    spec.extend(DERIVED)
    return spec


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
class _ThreadBuffer:
    """One thread's spans and aggregates (merged at summary time)."""

    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.stack: List[list] = []  # open frames: [id, parent, name, start, child]
        self.calls: Dict[str, int] = {}
        self.busy: Dict[str, float] = {}
        self.errors: Dict[str, int] = {}
        self.durations: Dict[str, List[float]] = {}
        self.notes: Dict[str, Dict[str, float]] = {}
        self.roots: Dict[str, float] = {}
        self.spans: List[tuple] = []


class Tracer:
    """Collects spans from wrapped callables while recording is on."""

    def __init__(self) -> None:
        self.recording = False
        self.missing: List[str] = []
        self.unresolved: List[str] = []
        self._buffers: List[_ThreadBuffer] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._slots = itertools.count()
        self._epoch: Optional[float] = None
        self._counter_sources: List[Callable[[], Dict[str, float]]] = []
        self._gauge_sources: List[Callable[[], Dict[str, float]]] = []
        self._baseline: Dict[str, float] = {}
        self._counters: Dict[str, float] = {}

    # -- window control ---------------------------------------------------
    def add_sources(
        self,
        counters: Optional[Callable[[], Dict[str, float]]] = None,
        gauges: Optional[Callable[[], Dict[str, float]]] = None,
    ) -> None:
        """Cumulative counters are differenced over the recording
        windows; gauges are read once, at summary time."""
        if counters is not None:
            self._counter_sources.append(counters)
        if gauges is not None:
            self._gauge_sources.append(gauges)

    def _read_counters(self) -> Dict[str, float]:
        values: Dict[str, float] = {}
        for source in self._counter_sources:
            values.update(source())
        return values

    def start(self) -> None:
        if self.recording:
            return
        if self._epoch is None:
            self._epoch = time.perf_counter()
        self._baseline = self._read_counters()
        self.recording = True

    def stop(self) -> None:
        if not self.recording:
            return
        self.recording = False
        for name, value in self._read_counters().items():
            delta = value - self._baseline.get(name, 0.0)
            self._counters[name] = self._counters.get(name, 0.0) + delta

    # -- wrapping ---------------------------------------------------------
    def _buffer(self) -> _ThreadBuffer:
        buffer = getattr(self._local, "buffer", None)
        if buffer is None:
            buffer = _ThreadBuffer(threading.current_thread().name)
            self._local.buffer = buffer
            self._buffers.append(buffer)
        return buffer

    def _finish(
        self,
        buffer: _ThreadBuffer,
        boundary: Boundary,
        span_id: int,
        parent: int,
        start: float,
        duration: float,
        child: float,
        failed: bool,
    ) -> None:
        name = boundary.name
        own = duration - child
        buffer.calls[name] = buffer.calls.get(name, 0) + 1
        buffer.busy[name] = buffer.busy.get(name, 0.0) + own
        buffer.durations.setdefault(name, []).append(duration)
        if failed:
            buffer.errors[name] = buffer.errors.get(name, 0) + 1
        if parent == 0:
            buffer.roots[name] = buffer.roots.get(name, 0.0) + duration
        if boundary.keep_spans and next(self._slots) < MAX_SPANS:
            buffer.spans.append((span_id, parent, name, start, duration, own))

    def _note(self, buffer: _ThreadBuffer, boundary: Boundary, args, kwargs, result) -> None:
        sums = buffer.notes.setdefault(boundary.name, {})
        for key, value in boundary.note(args, kwargs, result).items():
            sums[key] = sums.get(key, 0.0) + value

    def wrap(self, boundary: Boundary, fn: Callable) -> Callable:
        """A timing wrapper around ``fn`` for ``boundary``."""
        tracer = self

        if inspect.iscoroutinefunction(fn):
            # An awaiting span cannot sit on the thread's stack: other
            # requests' spans run on the same loop thread meanwhile.
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                if not tracer.recording:
                    return await fn(*args, **kwargs)
                start = time.perf_counter()
                failed = True
                try:
                    result = await fn(*args, **kwargs)
                    failed = False
                    return result
                finally:
                    duration = time.perf_counter() - start
                    tracer._finish(
                        tracer._buffer(), boundary, next(tracer._ids), 0,
                        start, duration, 0.0, failed,
                    )

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            buffer = tracer._buffer()
            stack = buffer.stack
            frame = [
                next(tracer._ids), stack[-1][0] if stack else 0,
                boundary.name, time.perf_counter(), 0.0,
            ]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(buffer, boundary, frame, failed=True)
                raise
            tracer._close(buffer, boundary, frame, failed=False)
            if boundary.note is not None:
                tracer._note(buffer, boundary, args, kwargs, result)
            return result

        return traced

    def _close(self, buffer: _ThreadBuffer, boundary: Boundary, frame: list, failed: bool) -> None:
        duration = time.perf_counter() - frame[3]
        buffer.stack.pop()
        if buffer.stack:
            buffer.stack[-1][4] += duration
        self._finish(
            buffer, boundary, frame[0], frame[1], frame[3], duration,
            frame[4], failed,
        )

    # -- results ----------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Aggregates per boundary plus window counters and gauges."""
        boundaries: Dict[str, Dict[str, Any]] = {}
        roots: Dict[str, float] = {}
        for boundary in BOUNDARIES:
            name = boundary.name
            durations = [
                d for b in self._buffers for d in b.durations.get(name, ())
            ]
            notes: Dict[str, float] = {}
            for buffer in self._buffers:
                for key, value in buffer.notes.get(name, {}).items():
                    notes[key] = notes.get(key, 0.0) + value
            boundaries[name] = {
                "calls": sum(b.calls.get(name, 0) for b in self._buffers),
                "busy_s": sum(b.busy.get(name, 0.0) for b in self._buffers),
                "errors": sum(b.errors.get(name, 0) for b in self._buffers),
                "p50_ms": statistics.median(durations) * 1000.0 if durations else 0.0,
                "notes": notes,
            }
            roots[name] = sum(b.roots.get(name, 0.0) for b in self._buffers)
        gauges: Dict[str, float] = {}
        for source in self._gauge_sources:
            gauges.update(source())
        return {
            "boundaries": boundaries,
            "roots_s": roots,
            "counters": dict(self._counters),
            "gauges": gauges,
            "missing": list(self.missing),
            "unresolved_targets": list(self.unresolved),
            "spans_kept": min(next(self._slots), MAX_SPANS),
        }

    def write_spans(self, path: Path) -> int:
        """Dump the kept spans as JSONL (times relative to the first
        recording window, in seconds); returns the line count."""
        epoch = self._epoch or 0.0
        lines = 0
        with open(path, "w") as handle:
            for buffer in self._buffers:
                for span_id, parent, name, start, duration, own in buffer.spans:
                    handle.write(json.dumps({
                        "id": span_id, "parent": parent, "name": name,
                        "thread": buffer.thread,
                        "start": round(start - epoch, 6),
                        "dur": round(duration, 6), "self": round(own, 6),
                    }) + "\n")
                    lines += 1
        return lines


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------
def install(tracer: Tracer) -> None:
    """Wrap every boundary's callables; record the ones that are gone."""
    for boundary in BOUNDARIES:
        found = 0
        for target in boundary.targets:
            if _patch(tracer, boundary, target):
                found += 1
            else:
                tracer.unresolved.append(target)
        if not found:
            tracer.missing.append(boundary.name)


def _patch(tracer: Tracer, boundary: Boundary, target: str) -> bool:
    module_name, _, qualname = target.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False
    *path, attr = qualname.split(".")
    holder: Any = module
    for part in path:
        parent, holder = holder, getattr(holder, part, None)
        if holder is None:
            return False
        if isinstance(holder, types.ModuleType):
            # An imported module (``json`` in the server): give the
            # importer a private copy so the real module stays untouched.
            proxy = types.ModuleType(holder.__name__)
            proxy.__dict__.update(holder.__dict__)
            setattr(parent, part, proxy)
            holder = proxy
    if isinstance(holder, type):
        raw = holder.__dict__.get(attr)
        if isinstance(raw, classmethod):
            setattr(holder, attr, classmethod(tracer.wrap(boundary, raw.__func__)))
        elif callable(raw):
            setattr(holder, attr, tracer.wrap(boundary, raw))
        else:
            return False
        return True
    original = getattr(holder, attr, None)
    if not callable(original):
        return False
    wrapped = tracer.wrap(boundary, original)
    setattr(holder, attr, wrapped)
    if holder is module:
        # ``from module import fn`` copies elsewhere in the package.
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("repro"):
                for name, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, name, wrapped)
    return True


# ----------------------------------------------------------------------
# Counter and gauge sources
# ----------------------------------------------------------------------
def engine_counters(db: Any) -> Dict[str, float]:
    """Cumulative counters of an ``UncertainDB`` (or ``DurableDB``)."""
    prepare = db.prepare_cache.stats()
    counters = {"prepare.hits": prepare.hits, "prepare.misses": prepare.misses}
    if db.dynamic is not None:
        stats = db.dynamic.stats()
        counters["dynamic.deltas_applied"] = stats["deltas_applied"]
        counters["dynamic.fallbacks"] = sum(stats["fallbacks"].values())
        counters["dynamic.reads_rebuild"] = stats["reads"]["rebuild"]
    wal = getattr(db, "wal", None)
    if wal is not None:
        counters["wal.fsyncs"] = wal.fsyncs
    return counters


def engine_gauges(db: Any) -> Dict[str, float]:
    """Dynamic-index footprint: built indexes and Σ n·(cap+1)·8 bytes."""
    if db.dynamic is None:
        return {}
    indexes = [
        index
        for table in db.dynamic.stats()["tables"].values()
        for index in table["indexes"].values()
    ]
    return {
        "dynamic.indexes": len(indexes),
        "dynamic.state_mb": sum(
            i["n"] * (i["cap"] + 1) * 8 for i in indexes
        ) / 1e6,
    }


def server_counters(app: Any) -> Dict[str, float]:
    counters = engine_counters(app.db)
    coalescer = app.coalescer.stats()
    counters["coalescer.batches"] = coalescer["batches_dispatched"]
    counters["coalescer.items"] = coalescer["items_dispatched"]
    return counters


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    summary: Dict[str, Any],
    ops: int,
    client_mean_ms: Optional[float],
    overhead_pct: float,
) -> Dict[str, Tuple[float, str]]:
    """Every metric of :func:`per_layer_spec` from one traced window.

    Counts and self times are per completed op, because runs are
    time-bounded: a faster commit completes more ops in the same
    window.  Per op, the request-path self times plus
    ``serve.residual_ms_mean`` sum to the client's mean latency.

    :param client_mean_ms: mean client latency over the window's ops
        (serve workloads; ``None`` leaves the residual at 0).
    """
    boundaries = summary["boundaries"]
    counters = summary["counters"]
    gauges = summary["gauges"]
    units = {name: unit for name, unit, _ in per_layer_spec()}
    values: Dict[str, float] = {}
    for boundary in BOUNDARIES:
        agg = boundaries[boundary.name]
        values[f"{boundary.name}.calls_per_op"] = _ratio(agg["calls"], ops)
        values[f"{boundary.name}.busy_ms_per_op"] = _ratio(agg["busy_s"] * 1000.0, ops)
        values[f"{boundary.name}.p50_ms"] = agg["p50_ms"]

    decide = boundaries["serve.scheduler.decide"]["notes"]
    exact = boundaries["core.exact.query"]
    sampling = boundaries["core.sampling.query"]
    wal = boundaries["durable.wal.append"]["notes"]
    residual = 0.0
    if client_mean_ms is not None:
        on_path = sum(
            seconds
            for name, seconds in summary["roots_s"].items()
            if name not in OFF_PATH_ROOTS
        )
        residual = client_mean_ms - _ratio(on_path * 1000.0, ops)
    values.update({
        "serve.admission.rejected": boundaries["serve.admission.admit"]["errors"],
        "serve.coalescer.batch_mean": _ratio(
            counters.get("coalescer.items", 0.0),
            counters.get("coalescer.batches", 0.0),
        ),
        "serve.scheduler.run": _ratio(decide.get("run", 0.0), ops),
        "serve.scheduler.degrade": _ratio(decide.get("degrade", 0.0), ops),
        "serve.scheduler.expired": _ratio(decide.get("expired", 0.0), ops),
        "serve.residual_ms_mean": residual,
        "query.prepare.hit_rate": _ratio(
            counters.get("prepare.hits", 0.0),
            counters.get("prepare.hits", 0.0) + counters.get("prepare.misses", 0.0),
        ),
        "core.exact.depth_mean": _ratio(exact["notes"].get("depth", 0.0), exact["calls"]),
        "core.exact.rows_per_answer": _ratio(
            exact["notes"].get("depth", 0.0), exact["notes"].get("answers", 0.0)
        ),
        "core.sampling.units_mean": _ratio(
            sampling["notes"].get("units", 0.0), sampling["calls"]
        ),
        "dynamic.deltas_applied": _ratio(counters.get("dynamic.deltas_applied", 0.0), ops),
        "dynamic.fallbacks": _ratio(counters.get("dynamic.fallbacks", 0.0), ops),
        "dynamic.reads_rebuild": _ratio(counters.get("dynamic.reads_rebuild", 0.0), ops),
        "dynamic.indexes": gauges.get("dynamic.indexes", 0.0),
        "dynamic.state_mb": gauges.get("dynamic.state_mb", 0.0),
        "durable.wal.fsyncs": _ratio(counters.get("wal.fsyncs", 0.0), ops),
        "durable.wal.bytes_per_write": _ratio(
            wal.get("write_bytes", 0.0), wal.get("writes", 0.0)
        ),
        "trace.overhead_pct": overhead_pct,
    })
    return {name: (float(values[name]), units[name]) for name in units}
