"""The query flight recorder: one structured profile per query.

The metrics registry answers "how much work has the process done";
the planned cost-based multi-query scheduler needs the *per-query*
breakdown — which engine ran, how deep the scan went, what the planner
predicted versus what the clock measured.  :class:`QueryProfile`
captures exactly that, and :class:`FlightRecorder` keeps the profiles
in three places:

* a bounded, lock-protected in-memory ring (served live by the
  ``GET /debug/queries`` endpoint),
* a smaller ring of just the slow ones (``GET /debug/slow``),
* an append-only JSONL *slow-query log* on disk, gated by a latency
  threshold.

The JSONL framing mirrors the WAL's torn-tail tolerance
(:mod:`repro.durable.wal`): each record is one complete
``json.dumps(...) + "\\n"`` line written with a single ``write`` call
and flushed before returning, so a SIGKILL mid-write can only produce a
*torn tail* — a final partial line that :func:`read_jsonl` skips and
reports, never silent corruption of earlier records.

Gating discipline: the recorder hangs off the global observability
state as ``OBS.flight`` and every instrumentation site already sits
behind the single ``OBS.enabled`` attribute check, so the obs-off hot
path is untouched.  With obs on but flight off, sites pay one extra
``enabled`` check; with both on, the per-query cost is one profile
object and one ring append — never per-tuple work.

Calibration: profiles carry both the planner's predicted latency and
the measured one.  :func:`calibration_report` reduces them to
per-engine relative-error residuals (mean/median), the summary the
``GET /debug/calibration`` endpoint and ``repro flight calibration``
expose — and the ground truth the future cost-based scheduler trains
on.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

#: Default capacity of the in-memory profile ring.
DEFAULT_RING_SIZE = 256

#: Default capacity of the in-memory slow-profile ring.
DEFAULT_SLOW_RING_SIZE = 64


@dataclass
class QueryProfile:
    """Everything recorded about one query's flight.

    Fields are filled progressively: :meth:`FlightRecorder.begin` stamps
    identity and start time, the engines thread their counters in while
    the profile is the thread's active one, and
    :meth:`FlightRecorder.finish` stamps the measured latency and lands
    the profile in the ring (and slow log, when over threshold).

    ``engine`` is the coarse plan choice (``exact`` / ``sampled``) the
    calibration report groups by; ``variant`` carries the exact
    algorithm's RC / RC+AR / RC+LR detail.
    """

    kind: str
    table: Optional[str] = None
    k: Optional[int] = None
    threshold: Optional[float] = None
    trace_id: Optional[str] = None
    unix_time: float = 0.0
    # planner vs clock
    engine: Optional[str] = None
    variant: Optional[str] = None
    estimated_seconds: Optional[float] = None
    actual_seconds: Optional[float] = None
    # exact-engine counters (AlgorithmStats, flushed once per query)
    scan_depth: Optional[int] = None
    tuples_evaluated: Optional[int] = None
    pruned_membership: Optional[int] = None
    pruned_same_rule: Optional[int] = None
    dp_extensions: Optional[int] = None
    stopped_by: Optional[str] = None
    # rule-compression counters (dominant-set scan)
    compression_units_independent: Optional[int] = None
    compression_units_rule: Optional[int] = None
    compression_rule_merges: Optional[int] = None
    # preparation
    prepare_hit: Optional[bool] = None
    # sampler
    sample_budget: Optional[int] = None
    sample_units: Optional[int] = None
    sample_converged: Optional[bool] = None
    avg_sample_length: Optional[float] = None
    wilson_halfwidth: Optional[float] = None
    # serving outcomes
    served: bool = False
    mode: Optional[str] = None
    degraded: Optional[bool] = None
    batch_size: Optional[int] = None
    deadline_remaining_ms: Optional[float] = None
    outcome: Optional[str] = None
    # batch scheduler trace: policy, queue_position, estimated_seconds,
    # decision
    scheduler: Optional[Dict[str, Any]] = None
    # dynamic-index trace: deltas_applied, reads, fallbacks, and the
    # answering table's served k values (mode == "dynamic" only)
    dynamic: Optional[Dict[str, Any]] = None
    serve_flush_seconds: Optional[float] = None
    slow: bool = False
    # internal: perf_counter at begin (not exported)
    _started: float = field(default=0.0, repr=False, compare=False)

    def to_dict(self) -> Dict[str, Any]:
        """A compact JSON-able dict; unset (``None``) fields are dropped."""
        out: Dict[str, Any] = {}
        for name in self.__dataclass_fields__:
            if name.startswith("_"):
                continue
            value = getattr(self, name)
            if value is None:
                continue
            out[name] = value
        return out


@dataclass
class JsonlScan:
    """Result of reading one JSONL log with torn-tail tolerance.

    :param records: decoded records of the valid prefix.
    :param good_bytes: length of the valid prefix.
    :param total_bytes: physical file length.
    :param problem: why reading stopped early, or ``None`` when clean.
    """

    records: List[Dict[str, Any]] = field(default_factory=list)
    good_bytes: int = 0
    total_bytes: int = 0
    problem: Optional[str] = None

    @property
    def torn_bytes(self) -> int:
        """Bytes past the valid prefix (0 for a clean log)."""
        return self.total_bytes - self.good_bytes


def read_jsonl(path: Union[str, Path]) -> JsonlScan:
    """Read a line-framed JSONL log, stopping at the first torn record.

    Mirrors :func:`repro.durable.wal.scan_segment`: never raises for
    on-disk damage.  A record only counts when its line is complete
    (newline-terminated) *and* parses as a JSON object — anything else
    ends the valid prefix, and everything after it is reported as torn
    bytes.
    """
    path = Path(path)
    scan = JsonlScan()
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        scan.problem = "missing"
        return scan
    scan.total_bytes = len(data)
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline < 0:
            scan.problem = "torn final record (no newline)"
            break
        line = data[offset:newline]
        try:
            record = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            scan.problem = f"unparseable record: {error}"
            break
        if not isinstance(record, dict):
            scan.problem = f"record is not an object: {record!r}"
            break
        scan.records.append(record)
        offset = newline + 1
        scan.good_bytes = offset
    return scan


class FlightRecorder:
    """Bounded profile ring + threshold-gated slow-query JSONL log.

    All public methods are thread-safe; the active-profile stack is
    per-thread (mirroring the tracer), so the serving layer's executor
    threads each profile their own queries without coordination.

    The recorder is *configured* (ring size, slow log path, threshold)
    independently of being *enabled*, so tests and the server can point
    it at a directory before traffic starts.
    """

    def __init__(self, ring_size: int = DEFAULT_RING_SIZE) -> None:
        self.enabled = False
        self.slow_threshold_seconds: Optional[float] = None
        self.last_serve_flush_seconds: Optional[float] = None
        self._ring: "deque[QueryProfile]" = deque(maxlen=ring_size)
        self._slow_ring: "deque[QueryProfile]" = deque(
            maxlen=DEFAULT_SLOW_RING_SIZE
        )
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._slow_log_path: Optional[Path] = None
        self._slow_file = None
        self._profiles_recorded = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    # Configuration and lifecycle
    # ------------------------------------------------------------------
    def configure(
        self,
        ring_size: Optional[int] = None,
        slow_log_path: Optional[Union[str, Path]] = None,
        slow_threshold_ms: Optional[float] = None,
    ) -> None:
        """(Re)configure ring capacity and the slow-query log.

        ``slow_log_path=None`` keeps profiles in memory only; with a
        path, profiles whose measured latency exceeds
        ``slow_threshold_ms`` are appended there (one JSON line each).
        A threshold of 0 logs every profile — the CI smoke runs that
        way to exercise the full pipeline.
        """
        with self._lock:
            if ring_size is not None and ring_size != self._ring.maxlen:
                self._ring = deque(self._ring, maxlen=max(1, ring_size))
            if slow_threshold_ms is not None:
                self.slow_threshold_seconds = slow_threshold_ms / 1000.0
            if slow_log_path is not None:
                new_path = Path(slow_log_path)
                if new_path != self._slow_log_path:
                    self._close_slow_file_locked()
                    self._slow_log_path = new_path

    @property
    def slow_log_path(self) -> Optional[Path]:
        """Where slow profiles are appended, or ``None`` (memory only)."""
        return self._slow_log_path

    def enable(self) -> None:
        """Start recording profiles at the instrumented sites."""
        self.enabled = True

    def disable(self) -> None:
        """Stop recording; collected profiles are retained."""
        self.enabled = False

    def reset(self) -> None:
        """Drop collected profiles (configuration and flag unchanged)."""
        with self._lock:
            self._ring.clear()
            self._slow_ring.clear()
            self._profiles_recorded = 0
            self._evictions = 0
            self.last_serve_flush_seconds = None

    def close(self) -> None:
        """Close the slow-log file handle (reopened lazily if needed)."""
        with self._lock:
            self._close_slow_file_locked()

    def unconfigure(self) -> None:
        """Forget the slow log and threshold (tests, server teardown)."""
        with self._lock:
            self._close_slow_file_locked()
            self._slow_log_path = None
            self.slow_threshold_seconds = None

    def _close_slow_file_locked(self) -> None:
        if self._slow_file is not None:
            try:
                self._slow_file.close()
            except OSError:  # pragma: no cover - close failures are benign
                pass
            self._slow_file = None

    # ------------------------------------------------------------------
    # Per-thread active profile
    # ------------------------------------------------------------------
    def _stack(self) -> List[QueryProfile]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def begin(
        self,
        kind: str,
        table: Optional[str] = None,
        k: Optional[int] = None,
        threshold: Optional[float] = None,
        **fields: Any,
    ) -> Optional[QueryProfile]:
        """Open a profile and make it this thread's active one.

        Returns ``None`` when the recorder is disabled, so call sites
        can keep a single ``profile is not None`` guard.
        """
        if not self.enabled:
            return None
        profile = QueryProfile(
            kind=kind,
            table=table,
            k=k,
            threshold=threshold,
            unix_time=time.time(),
            _started=time.perf_counter(),
        )
        for name, value in fields.items():
            setattr(profile, name, value)
        profile.trace_id = self._current_trace_id()
        self._stack().append(profile)
        return profile

    @staticmethod
    def _current_trace_id() -> Optional[str]:
        from repro.obs import OBS

        return OBS.tracer.current_trace_id()

    def current(self) -> Optional[QueryProfile]:
        """This thread's active (innermost unfinished) profile."""
        stack = getattr(self._tls, "stack", None)
        return stack[-1] if stack else None

    def finish(
        self, profile: QueryProfile, **fields: Any
    ) -> QueryProfile:
        """Close a profile: stamp the latency and record it.

        Keyword arguments overwrite profile fields (the serving layer
        passes its plan/degradation/batch outcomes here).
        """
        stack = getattr(self._tls, "stack", None)
        if stack and profile in stack:
            stack.remove(profile)
        for name, value in fields.items():
            setattr(profile, name, value)
        if profile.actual_seconds is None:
            profile.actual_seconds = time.perf_counter() - profile._started
        if profile.serve_flush_seconds is None and profile.served:
            profile.serve_flush_seconds = self.last_serve_flush_seconds
        self.record(profile)
        return profile

    # ------------------------------------------------------------------
    # Engine-side notes (called while a profile is active)
    # ------------------------------------------------------------------
    def note_prepare(self, hit: bool) -> None:
        """Record a prepare-cache outcome.

        When a profile is active on this thread the outcome lands on
        it; otherwise it is parked per-thread for the serving layer,
        whose batch-level ``PrepareCache.get`` runs *before* the
        per-item profiles open (see :meth:`consume_prepare`).
        """
        if not self.enabled:
            return
        profile = self.current()
        if profile is not None:
            profile.prepare_hit = hit
        else:
            self._tls.last_prepare = hit

    def consume_prepare(self) -> Optional[bool]:
        """Take (and clear) the parked prepare outcome for this thread."""
        hit = getattr(self._tls, "last_prepare", None)
        self._tls.last_prepare = None
        return hit

    def note_serve_flush(self, seconds: float) -> None:
        """Record the wall time of the latest serve-key WAL flush.

        Flushes run fire-and-forget *after* responses are sent, so the
        timing attaches to subsequently finished profiles as "the most
        recent flush" rather than to the requests that triggered it.
        """
        self.last_serve_flush_seconds = seconds

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, profile: QueryProfile) -> None:
        """Land one finished profile in the ring (and slow log)."""
        threshold = self.slow_threshold_seconds
        profile.slow = bool(
            threshold is not None
            and profile.actual_seconds is not None
            and profile.actual_seconds >= threshold
        )
        line: Optional[bytes] = None
        if profile.slow:
            line = (
                json.dumps(
                    profile.to_dict(), separators=(",", ":"), sort_keys=True
                )
                + "\n"
            ).encode("utf-8")
        with self._lock:
            evicted = len(self._ring) == self._ring.maxlen
            self._ring.append(profile)
            self._profiles_recorded += 1
            if evicted:
                self._evictions += 1
            if profile.slow:
                self._slow_ring.append(profile)
                if line is not None and self._slow_log_path is not None:
                    self._append_slow_locked(line)
        self._publish_metrics(profile, len(line) if line else 0)

    def _append_slow_locked(self, line: bytes) -> None:
        """One write + flush per record: a crash can only tear the tail."""
        if self._slow_file is None:
            self._slow_log_path.parent.mkdir(parents=True, exist_ok=True)
            self._slow_file = open(self._slow_log_path, "ab")
        self._slow_file.write(line)
        self._slow_file.flush()

    def _publish_metrics(self, profile: QueryProfile, slow_bytes: int) -> None:
        from repro.obs import OBS, catalogued

        if not OBS.enabled:
            return
        catalogued("repro_flight_profiles_total").inc(kind=profile.kind)
        if profile.slow:
            catalogued("repro_flight_slow_queries_total").inc()
        if slow_bytes:
            catalogued("repro_flight_slow_log_bytes_total").inc(slow_bytes)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def recent(self, limit: int = 100) -> List[Dict[str, Any]]:
        """The newest profiles, newest first, as JSON-able dicts."""
        with self._lock:
            profiles = list(self._ring)[-limit:]
        return [p.to_dict() for p in reversed(profiles)]

    def slow_recent(self, limit: int = 100) -> List[Dict[str, Any]]:
        """The newest slow profiles, newest first."""
        with self._lock:
            profiles = list(self._slow_ring)[-limit:]
        return [p.to_dict() for p in reversed(profiles)]

    def stats(self) -> Dict[str, Any]:
        """Recorder counters for health endpoints and tests."""
        with self._lock:
            return {
                "enabled": self.enabled,
                "recorded": self._profiles_recorded,
                "ring": len(self._ring),
                "ring_capacity": self._ring.maxlen,
                "evictions": self._evictions,
                "slow": len(self._slow_ring),
                "slow_threshold_ms": (
                    self.slow_threshold_seconds * 1000.0
                    if self.slow_threshold_seconds is not None
                    else None
                ),
                "slow_log_path": (
                    str(self._slow_log_path) if self._slow_log_path else None
                ),
            }

    def calibration(self) -> Dict[str, Any]:
        """Planner estimate-vs-actual residuals over the current ring."""
        with self._lock:
            profiles = [p.to_dict() for p in self._ring]
        return calibration_report(profiles)


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------
def calibration_report(profiles: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Per-engine relative-error residuals of the planner's predictions.

    For every profile carrying both ``estimated_seconds`` and
    ``actual_seconds``, the signed relative error is
    ``(estimated - actual) / actual`` — positive means the planner
    over-estimated.  Residuals are grouped by ``engine`` (``exact`` /
    ``sampled``); the report carries mean, median, and mean absolute
    relative error per group, plus the profile counts that produced
    them.
    """
    residuals: Dict[str, List[float]] = {}
    considered = 0
    for profile in profiles:
        considered += 1
        estimated = profile.get("estimated_seconds")
        actual = profile.get("actual_seconds")
        engine = profile.get("engine")
        if estimated is None or actual is None or engine is None:
            continue
        if actual <= 0:
            continue
        residuals.setdefault(str(engine), []).append(
            (estimated - actual) / actual
        )
    engines: Dict[str, Any] = {}
    for engine, errors in sorted(residuals.items()):
        errors = sorted(errors)
        n = len(errors)
        mid = n // 2
        median = (
            errors[mid] if n % 2 else (errors[mid - 1] + errors[mid]) / 2.0
        )
        engines[engine] = {
            "count": n,
            "mean_relative_error": sum(errors) / n,
            "median_relative_error": median,
            "mean_abs_relative_error": sum(abs(e) for e in errors) / n,
        }
    return {
        "profiles": considered,
        "calibrated": sum(v["count"] for v in engines.values()),
        "engines": engines,
    }


# ----------------------------------------------------------------------
# Span-tree export
# ----------------------------------------------------------------------
def write_spans_jsonl(
    path: Union[str, Path],
    tracer=None,
    skip_trace_ids: Optional[set] = None,
) -> List[str]:
    """Append finished root span trees to a JSONL file.

    One line per root span (``Span.to_dict`` — the full tree with
    children and attributes).  ``skip_trace_ids`` lets a periodic
    exporter avoid re-writing trees it already exported; the trace ids
    written this call are returned so the caller can extend its set.
    """
    from repro.obs import OBS

    tracer = tracer if tracer is not None else OBS.tracer
    skip = skip_trace_ids or set()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    written: List[str] = []
    with open(path, "ab") as handle:
        for span in tracer.traces():
            if span.trace_id in skip:
                continue
            line = (
                json.dumps(
                    span.to_dict(), separators=(",", ":"), sort_keys=True
                )
                + "\n"
            ).encode("utf-8")
            handle.write(line)
            written.append(span.trace_id)
        handle.flush()
    return written


# ----------------------------------------------------------------------
# Offline summaries (the `repro flight` CLI)
# ----------------------------------------------------------------------
def summarize_profiles(profiles: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate a profile list into the ``repro flight summary`` view."""
    by_kind: Dict[str, int] = {}
    by_engine: Dict[str, int] = {}
    latencies: List[float] = []
    slow = 0
    degraded = 0
    for profile in profiles:
        by_kind[profile.get("kind", "?")] = (
            by_kind.get(profile.get("kind", "?"), 0) + 1
        )
        engine = profile.get("engine")
        if engine:
            by_engine[engine] = by_engine.get(engine, 0) + 1
        actual = profile.get("actual_seconds")
        if actual is not None:
            latencies.append(float(actual))
        if profile.get("slow"):
            slow += 1
        if profile.get("degraded"):
            degraded += 1
    latencies.sort()

    def pct(q: float) -> Optional[float]:
        if not latencies:
            return None
        index = min(len(latencies) - 1, int(q * (len(latencies) - 1) + 0.5))
        return latencies[index]

    return {
        "profiles": len(profiles),
        "by_kind": dict(sorted(by_kind.items())),
        "by_engine": dict(sorted(by_engine.items())),
        "slow": slow,
        "degraded": degraded,
        "latency_seconds": {
            "mean": sum(latencies) / len(latencies) if latencies else None,
            "p50": pct(0.50),
            "p95": pct(0.95),
            "max": latencies[-1] if latencies else None,
        },
    }
