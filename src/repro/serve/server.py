"""The PT-k query service: asyncio HTTP front-end over an UncertainDB.

Architecture (one process, one event loop, a small thread pool)::

    client -> HTTP/1.1 -> ServeApp.handle
                            |  parse + validate      (protocol)
                            |  admission control     (admission)
                            v
                      RequestCoalescer  -- per-table micro-batches
                            |
                            v  (thread pool, max_inflight wide)
                      _run_batch: one PrepareCache.get for the batch;
                      decide (expire / dynamic index / plan) per item,
                      then serve each item through one record: dynamic
                      answers, exact work cheapest-first (re-checking
                      deadlines before each item), sampled items with
                      a deadline-sized budget

The interesting decision is **deadline-aware degradation**: before
running the exact algorithm for a request carrying a deadline, the
planner's scan-depth estimate is converted to predicted seconds
(:func:`repro.query.planner.estimate_latency`, self-calibrating).  When
the prediction does not fit in the remaining budget, the request is
answered by the paper's sampling estimator instead, with a unit budget
sized from the time actually left
(:meth:`repro.core.sampling.SamplingConfig.for_deadline`) — a smaller,
honest answer with a Wilson confidence interval beats a timeout.  The
response carries ``mode: "exact" | "sampled"`` and ``degraded: true``
so clients can tell.

Within a batch, **scheduling** (:mod:`repro.serve.scheduler`) extends
the same discipline to execution time: exact work runs cheapest-first,
each item's remaining deadline is re-checked immediately before it
executes (degrading or failing it *before* any scan starts), and the
scan itself runs under a wall-clock budget — a cut-off scan returns a
partial answer, and the rows it priced stay in the preparation's warm
scan at its ``k``, so a retry continues from them instead of
restarting.  Whichever way an item is answered (dynamic index, exact,
sampled, or expired), it lands exactly one ``served`` flight profile,
and its serve counter is bumped from that same record.

Endpoints: ``POST /query``, ``GET /healthz``, ``GET /tables``,
``GET /metrics`` (Prometheus text from :mod:`repro.obs`).

:class:`ServeApp` is transport-independent — tests and the loopback
client drive :meth:`ServeApp.dispatch` directly, no sockets involved;
:func:`serve` binds it to a real asyncio TCP server.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import urllib.parse

from repro import obs
from repro.core.exact import exact_ptk_query
from repro.core.results import PTKAnswer
from repro.core.sampling import SamplingConfig, sampled_ptk_query
from repro.durable.stream import WalCursor
from repro.exceptions import (
    CursorLostError,
    ReplicationError,
    ReproError,
    UnknownTableError,
    UnknownTupleError,
)
from repro.obs import OBS, catalogued
from repro.obs import export as obs_export
from repro.obs import flight
from repro.query.engine import UncertainDB
from repro.query.planner import LatencyEstimate, LatencyModel, estimate_latency
from repro.query.prepare import PreparedRanking
from repro.query.topk import TopKQuery
from repro.serve.admission import AdmissionController
from repro.serve.coalescer import RequestCoalescer
from repro.serve.scheduler import CostScheduler, ExactTask
from repro.serve.protocol import (
    DeadlineExceededError,
    ProtocolError,
    QueryRequest,
    QueryResponse,
    RejectedError,
    StaleReadError,
    error_body,
    mutation_from_dict,
)
from repro.stats.intervals import wilson_interval

_JSON = [("Content-Type", "application/json")]
_REASONS = {
    200: "OK", 400: "Bad Request", 403: "Forbidden", 404: "Not Found",
    405: "Method Not Allowed", 410: "Gone", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass
class ServeConfig:
    """Operational knobs of the serving layer.

    :param host: bind address of the TCP server.
    :param port: bind port; ``0`` picks an ephemeral one.
    :param window_ms: coalescing window — how long the first request for
        a table waits for concurrent company; ``0`` disables coalescing.
    :param max_batch: dispatch a batch early once it reaches this size.
    :param max_inflight: micro-batches executing concurrently (thread
        pool width).
    :param max_queue: requests allowed to wait beyond the inflight ones;
        arrivals past the bound are rejected with 429 + ``Retry-After``.
    :param default_deadline_ms: deadline applied to requests that do not
        carry one; ``None`` means such requests run unbounded.
    :param deadline_safety: fraction of the remaining deadline the
        planner's exact-latency prediction must fit within; the rest
        absorbs estimation error and response serialisation.
    :param min_sample_budget: floor on degraded sampling budgets.
    :param seed: seed for degraded sampling runs (deterministic tests).
    :param enable_obs: turn the observability layer on at startup so
        ``/metrics`` has content.
    :param enable_flight: turn the query flight recorder on (per-query
        profiles behind ``/debug/queries`` et al.); requires
        ``enable_obs``.
    :param flight_dir: directory for the recorder's on-disk artefacts
        (``slow.jsonl``, ``metrics.json``, ``spans.jsonl``); ``None``
        keeps profiles in memory only.
    :param slow_ms: queries at least this slow are appended to the
        slow-query log (0 logs everything).
    :param flight_ring: in-memory profile ring capacity.
    :param metrics_flush_s: period of the background flusher that
        snapshots registry metrics (and span trees) into ``flight_dir``;
        0 disables it.
    :param dynamic: maintain incremental PT-k indexes
        (:mod:`repro.dynamic`): default-shape reads are served from
        live kernel scans moved onto each write's refreshed
        preparation, re-pricing only the rows the write can affect.
    :param dynamic_cap: largest ``k`` the dynamic indexes serve; larger
        requests fall back to the ordinary planned path.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    window_ms: float = 2.0
    max_batch: int = 64
    max_inflight: int = 4
    max_queue: int = 64
    default_deadline_ms: Optional[float] = None
    deadline_safety: float = 0.5
    min_sample_budget: int = 100
    seed: Optional[int] = 7
    enable_obs: bool = True
    enable_flight: bool = True
    flight_dir: Optional[str] = None
    slow_ms: float = 100.0
    flight_ring: int = 256
    metrics_flush_s: float = 30.0
    dynamic: bool = False
    dynamic_cap: int = 64


@dataclass
class _Work:
    """One admitted query riding through the coalescer."""

    request: QueryRequest
    deadline: Optional[float]  # absolute time.monotonic() timestamp
    arrived: float


@dataclass
class _Batch:
    """What every item of one micro-batch shares."""

    name: str
    table: Any
    prepared: PreparedRanking
    size: int
    prepare_hit: Optional[bool]


@dataclass
class _Item:
    """One batch item on its way from the decide phase to its record.

    ``route`` is the one path the item takes: ``dynamic`` (answered
    from the incremental index; ``answer`` and ``elapsed`` set),
    ``exact`` (planned; re-checked by the scheduler before it runs),
    ``sampled`` (planned or degraded; ``config`` set) or ``expired``.
    """

    position: int
    work: _Work
    remaining: Optional[float]
    route: str
    estimate: Optional[LatencyEstimate] = None
    config: Optional[SamplingConfig] = None
    degraded: bool = False
    answer: Optional[PTKAnswer] = None
    elapsed: Optional[float] = None
    queue_position: int = 0
    scheduler: Optional[Dict[str, Any]] = None


class ServeApp:
    """The transport-independent service: routing, batching, degradation.

    :param db: the engine to serve; tables are registered by the caller
        (the CLI loads a directory, tests register fixtures).
    :param config: operational knobs; defaults suit tests.
    :param latency_model: injectable cost model (tests pin coefficients
        to force or forbid degradation deterministically).
    :param replication: optional replication role — a
        :class:`~repro.replication.primary.ReplicationServer` (serves
        ``/replicate/*`` and accepts ``POST /mutate``) or a
        :class:`~repro.replication.replica.ReplicaApplier` (stamps
        staleness onto query responses and enforces
        ``max_staleness_s``).  Duck-typed via its ``role`` attribute so
        this module never imports :mod:`repro.replication`.
    """

    def __init__(
        self,
        db: UncertainDB,
        config: Optional[ServeConfig] = None,
        latency_model: Optional[LatencyModel] = None,
        replication: Optional[Any] = None,
    ) -> None:
        self.db = db
        self.replication = replication
        self.config = config or ServeConfig()
        self.latency_model = latency_model or LatencyModel()
        self.scheduler = CostScheduler()
        self.admission = AdmissionController(
            max_inflight=self.config.max_inflight,
            max_queue=self.config.max_queue,
        )
        self.coalescer = RequestCoalescer(
            self._dispatch_batch,
            window_seconds=self.config.window_ms / 1000.0,
            max_batch=self.config.max_batch,
        )
        self._executor: Optional[ThreadPoolExecutor] = None
        self._inflight: Optional[asyncio.Semaphore] = None
        self._started = time.monotonic()
        self._flusher_task: Optional[asyncio.Task] = None
        self._exported_traces: set = set()
        if self.config.dynamic:
            self.db.enable_dynamic(cap=self.config.dynamic_cap)
        if self.config.enable_obs:
            obs.enable()
            if self.config.enable_flight:
                slow_log = (
                    str(Path(self.config.flight_dir) / "slow.jsonl")
                    if self.config.flight_dir
                    else None
                )
                OBS.flight.configure(
                    ring_size=self.config.flight_ring,
                    slow_log_path=slow_log,
                    slow_threshold_ms=self.config.slow_ms,
                )
                OBS.flight.enable()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def startup(self) -> None:
        """Allocate the executor and concurrency gate (idempotent).

        When a flight directory is configured and an event loop is
        running, also start the periodic metrics/span flusher.
        """
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.config.max_inflight,
                thread_name_prefix="repro-serve",
            )
        if self._inflight is None:
            self._inflight = asyncio.Semaphore(self.config.max_inflight)
        if (
            self._flusher_task is None
            and self.config.enable_obs
            and self.config.flight_dir
            and self.config.metrics_flush_s > 0
        ):
            try:
                loop = asyncio.get_running_loop()
            except RuntimeError:
                return  # no loop yet (sync caller); retried on dispatch
            self._flusher_task = loop.create_task(self._flush_periodically())

    def shutdown(self) -> None:
        """Release the executor; in-flight batches finish first."""
        if self._flusher_task is not None:
            try:
                self._flusher_task.cancel()
            except RuntimeError:
                # The owning event loop already closed (``asyncio.run``
                # returned); the task died with it.
                pass
            self._flusher_task = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    async def stop_flusher(self) -> None:
        """Cancel and await the periodic flusher (run on its loop).

        Transports that outlive their event loop (the loopback) call
        this before stopping the loop so the task finishes cleanly
        instead of being destroyed while pending.
        """
        task = self._flusher_task
        self._flusher_task = None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass

    async def _flush_periodically(self) -> None:
        """Snapshot registry metrics and span trees into ``flight_dir``.

        Runs immediately on startup (so short-lived servers still leave
        artefacts) and then every ``metrics_flush_s`` seconds.  The
        files are small; writing them inline on the loop is fine.
        """
        directory = Path(self.config.flight_dir)
        while True:
            try:
                self.flush_observability(directory)
            except OSError:  # disk trouble must not kill the server
                pass
            await asyncio.sleep(self.config.metrics_flush_s)

    def flush_observability(self, directory: Path) -> None:
        """One flush tick: ``metrics.json`` + new spans to ``spans.jsonl``."""
        directory.mkdir(parents=True, exist_ok=True)
        obs_export.write_json(directory / "metrics.json")
        written = flight.write_spans_jsonl(
            directory / "spans.jsonl", skip_trace_ids=self._exported_traces
        )
        self._exported_traces.update(written)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def dispatch(
        self, method: str, path: str, body: bytes = b""
    ) -> Tuple[int, List[Tuple[str, str]], bytes]:
        """Route one request; returns ``(status, headers, body)``.

        The single entry point shared by the TCP server and the
        loopback transport — everything a client can observe goes
        through here.
        """
        path, _, query_string = path.partition("?")
        params = urllib.parse.parse_qs(query_string) if query_string else {}
        route = (method.upper(), path)
        if route == ("POST", "/query"):
            return await self._endpoint_query(body)
        if route == ("GET", "/healthz"):
            return self._endpoint_healthz()
        if route == ("GET", "/tables"):
            return self._endpoint_tables()
        if route == ("GET", "/metrics"):
            return self._endpoint_metrics()
        if route == ("GET", "/debug/queries"):
            return self._endpoint_debug("queries")
        if route == ("GET", "/debug/slow"):
            return self._endpoint_debug("slow")
        if route == ("GET", "/debug/calibration"):
            return self._endpoint_debug("calibration")
        if route == ("GET", "/replicate/wal"):
            return self._endpoint_replicate_wal(params)
        if route == ("GET", "/replicate/bootstrap"):
            return self._endpoint_replicate_bootstrap(params)
        if route == ("GET", "/replicate/status"):
            return self._endpoint_replicate_status()
        if route == ("POST", "/mutate"):
            return self._endpoint_mutate(body)
        if path in (
            "/query", "/healthz", "/tables", "/metrics",
            "/debug/queries", "/debug/slow", "/debug/calibration",
            "/replicate/wal", "/replicate/bootstrap", "/replicate/status",
            "/mutate",
        ):
            return _json_response(
                405, error_body("method-not-allowed", f"{method} {path}")
            )
        return _json_response(
            404, error_body("not-found", f"no route for {method} {path}")
        )

    # ------------------------------------------------------------------
    # Operational endpoints
    # ------------------------------------------------------------------
    def _table_epochs(self) -> Dict[str, int]:
        """Registration epochs, from whichever layer tracks them.

        A ``DurableDB`` primary exposes ``epochs()`` directly; a replica
        tracks them on its applier; a plain in-memory engine has none
        (every table is implicitly epoch 0).
        """
        for source in (self.db, self.replication):
            epochs_fn = getattr(source, "epochs", None)
            if callable(epochs_fn):
                return dict(epochs_fn())
        return {}

    def _table_versions(self) -> Dict[str, Dict[str, int]]:
        epochs = self._table_epochs()
        return {
            name: {
                "version": self.db.table(name).version,
                "epoch": int(epochs.get(name, 0)),
            }
            for name in self.db.tables()
        }

    def _endpoint_healthz(self):
        self._count_request("healthz")
        body = {
            "status": "ok",
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "tables": len(self.db.tables()),
            "table_versions": self._table_versions(),
            "admission": self.admission.stats(),
            "coalescer": self.coalescer.stats(),
            "scheduler": self.scheduler.name,
        }
        if self.replication is not None:
            body["replication"] = self.replication.status()
        if self.db.dynamic is not None:
            body["dynamic"] = self.db.dynamic.stats()
        return _json_response(200, body)

    def _endpoint_tables(self):
        self._count_request("tables")
        epochs = self._table_epochs()
        tables = []
        for name in self.db.tables():
            table = self.db.table(name)
            tables.append(
                {
                    "name": name,
                    "tuples": len(table),
                    "multi_rules": len(table.multi_rules()),
                    "version": table.version,
                    "epoch": int(epochs.get(name, 0)),
                    "expected_world_size": round(table.expected_size(), 3),
                }
            )
        return _json_response(200, {"tables": tables})

    def _endpoint_metrics(self):
        self._count_request("metrics")
        text = obs_export.to_prometheus()
        # Tell scrapers whether the export is live or frozen: with
        # observability off the text is empty/stale, and silently
        # serving it reads as "everything is zero".
        return (
            200,
            [
                ("Content-Type", "text/plain; version=0.0.4"),
                ("X-Repro-Obs-Enabled", "true" if OBS.enabled else "false"),
            ],
            text.encode("utf-8"),
        )

    # ------------------------------------------------------------------
    # /debug — flight-recorder introspection
    # ------------------------------------------------------------------
    def _endpoint_debug(self, view: str):
        if OBS.enabled:
            catalogued("repro_serve_debug_requests_total").inc(view=view)
        recorder = OBS.flight
        if view == "queries":
            body: Dict[str, Any] = {
                "flight": recorder.stats(),
                "profiles": recorder.recent(limit=100),
            }
        elif view == "slow":
            body = {
                "slow_threshold_ms": recorder.stats()["slow_threshold_ms"],
                "slow_log_path": (
                    str(recorder.slow_log_path)
                    if recorder.slow_log_path
                    else None
                ),
                "profiles": recorder.slow_recent(limit=100),
            }
        else:
            body = recorder.calibration()
            body["latency_model"] = self.latency_model.coefficients()
        return _json_response(200, body)

    # ------------------------------------------------------------------
    # /replicate + /mutate — WAL-shipping replication (primary role)
    # ------------------------------------------------------------------
    def _replication_role(self) -> Optional[str]:
        return getattr(self.replication, "role", None)

    def _require_primary(self):
        """403 body when this node cannot serve primary-only routes."""
        role = self._replication_role()
        if role == "primary":
            return None
        reason = (
            f"this node is a {role}" if role else "replication not configured"
        )
        return _json_response(
            403, error_body("not-primary", f"primary role required: {reason}")
        )

    def _require_writable(self):
        """403 body when this node cannot accept writes.

        Only a replica refuses — its state is the primary's, and a local
        write would fork the lineage.  Plain servers and replication
        primaries both own their tables and accept ``POST /mutate``.
        """
        if self._replication_role() == "replica":
            return _json_response(
                403,
                error_body(
                    "read-only",
                    "replicas do not accept writes; mutate the primary",
                ),
            )
        return None

    def _endpoint_replicate_wal(self, params: Dict[str, List[str]]):
        self._count_request("replicate-wal")
        denied = self._require_primary()
        if denied is not None:
            return denied
        replica = _param(params, "replica")
        if not replica:
            return _json_response(
                400, error_body("bad-request", "missing 'replica' parameter")
            )
        try:
            cursor = WalCursor.decode(_param(params, "cursor", "0:0"))
            max_records = _int_param(params, "max_records")
            max_bytes = _int_param(params, "max_bytes")
        except (ReplicationError, ProtocolError) as error:
            return _json_response(400, error_body("bad-request", str(error)))
        try:
            payload = self.replication.handle_fetch(
                replica,
                cursor.encode(),
                max_records=max_records,
                max_bytes=max_bytes,
                advertise=_param(params, "advertise"),
            )
        except CursorLostError as error:
            return _json_response(410, error_body("cursor-lost", str(error)))
        except ReplicationError as error:
            return _json_response(
                400, error_body("replication-error", str(error))
            )
        return _json_response(200, payload)

    def _endpoint_replicate_bootstrap(self, params: Dict[str, List[str]]):
        self._count_request("replicate-bootstrap")
        denied = self._require_primary()
        if denied is not None:
            return denied
        replica = _param(params, "replica")
        if not replica:
            return _json_response(
                400, error_body("bad-request", "missing 'replica' parameter")
            )
        return _json_response(200, self.replication.handle_bootstrap(replica))

    def _endpoint_replicate_status(self):
        self._count_request("replicate-status")
        if self.replication is None:
            return _json_response(
                404, error_body("not-found", "replication not configured")
            )
        return _json_response(200, self.replication.status())

    def _endpoint_mutate(self, body: bytes):
        self._count_request("mutate")
        denied = self._require_writable()
        if denied is not None:
            return denied
        try:
            payload = json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return _json_response(
                400,
                error_body(
                    "bad-request", f"request body is not valid JSON: {error}"
                ),
            )
        try:
            mutation = mutation_from_dict(payload)
        except ProtocolError as error:
            return _json_response(400, error_body("bad-request", str(error)))
        try:
            # The e2e benchmark's ``durable.mutate`` layer times the
            # named DurableDB writes, so the tuple ops call them; a rule
            # goes straight through apply.
            if mutation.op == "add":
                self.db.add(
                    mutation.table,
                    mutation.tid,
                    mutation.score,
                    mutation.probability,
                    **mutation.attributes,
                )
            elif mutation.op == "remove":
                self.db.remove_tuple(mutation.table, mutation.tid)
            elif mutation.op == "update":
                self.db.update_probability(
                    mutation.table, mutation.tid, mutation.probability
                )
            elif mutation.op == "score":
                self.db.update_score(mutation.table, mutation.tid, mutation.score)
            else:
                self.db.apply(mutation)
        except (UnknownTableError, UnknownTupleError) as error:
            return _json_response(404, error_body("unknown", str(error)))
        except ReproError as error:
            return _json_response(400, error_body("mutation-error", str(error)))
        body_out: Dict[str, Any] = {
            "op": mutation.op,
            "table": mutation.table,
            "version": self.db.table(mutation.table).version,
        }
        # The post-mutation end cursor lets a writer wait for a replica
        # to confirm it has applied at least this much history.
        end_cursor = getattr(self.replication, "end_cursor", None)
        if callable(end_cursor):
            body_out["cursor"] = end_cursor().encode()
        return _json_response(200, body_out)

    # ------------------------------------------------------------------
    # /query
    # ------------------------------------------------------------------
    async def _endpoint_query(self, body: bytes):
        self._count_request("query")
        timer = (
            catalogued("repro_serve_request_seconds").time(endpoint="query")
            if OBS.enabled
            else None
        )
        try:
            if timer is not None:
                with timer:
                    return await self._answer_query(body)
            return await self._answer_query(body)
        except ProtocolError as error:
            return _json_response(400, error_body("bad-request", str(error)))
        except UnknownTableError as error:
            return _json_response(404, error_body("unknown-table", str(error)))
        except RejectedError as error:
            return _json_response(
                429,
                error_body(
                    "rejected", str(error), retry_after=round(error.retry_after, 3)
                ),
                extra_headers=[("Retry-After", f"{error.retry_after:.3f}")],
            )
        except DeadlineExceededError as error:
            if OBS.enabled:
                catalogued("repro_serve_rejections_total").inc(reason="deadline")
            return _json_response(
                504, error_body("deadline-exceeded", str(error))
            )
        except StaleReadError as error:
            if OBS.enabled:
                catalogued("repro_repl_stale_reads_rejected_total").inc()
            return _json_response(
                503,
                error_body(
                    "stale-read",
                    str(error),
                    staleness=error.staleness,
                    retry_after=round(error.retry_after, 3),
                ),
                extra_headers=[("Retry-After", f"{error.retry_after:.3f}")],
            )
        except ReproError as error:
            return _json_response(400, error_body("query-error", str(error)))

    async def _answer_query(self, body: bytes):
        try:
            payload = json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ProtocolError(f"request body is not valid JSON: {error}")
        request = QueryRequest.from_dict(payload)
        self.db.table(request.table)  # 404 before admission
        staleness = self._check_staleness(request)
        self.startup()
        self.admission.admit()
        now = time.monotonic()
        deadline_ms = (
            request.deadline_ms
            if request.deadline_ms is not None
            else self.config.default_deadline_ms
        )
        work = _Work(
            request=request,
            deadline=(now + deadline_ms / 1000.0) if deadline_ms else None,
            arrived=now,
        )
        try:
            response = await self.coalescer.submit(request.table, work)
        finally:
            self.admission.release()
        headers: Optional[List[Tuple[str, str]]] = None
        if staleness is not None:
            response.staleness = staleness
            headers = [
                (
                    "X-Repro-Repl-Lag-Records",
                    str(int(staleness.get("lag_records") or 0)),
                )
            ]
            age = staleness.get("staleness_seconds")
            if age is not None:
                headers.append(
                    ("X-Repro-Repl-Staleness-Seconds", f"{age:.3f}")
                )
        return _json_response(200, response.to_dict(), extra_headers=headers)

    def _check_staleness(
        self, request: QueryRequest
    ) -> Optional[Dict[str, Any]]:
        """On a replica, measure lag and enforce ``max_staleness_s``.

        Returns the staleness block to stamp onto the response (``None``
        on non-replicas).  A replica that has *never* confirmed itself
        caught up has unbounded staleness, so any bound rejects it.

        :raises StaleReadError: staleness exceeds the request's bound.
        """
        if self._replication_role() != "replica":
            return None
        staleness = self.replication.staleness()
        bound = request.max_staleness_s
        if bound is None:
            return staleness
        age = staleness.get("staleness_seconds")
        if age is None or age > bound:
            shown = "unbounded (never synced)" if age is None else f"{age:.3f}s"
            raise StaleReadError(
                f"replica staleness {shown} exceeds max_staleness_s={bound}",
                staleness=staleness,
            )
        return staleness

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------
    async def _dispatch_batch(self, name: str, items: List[_Work], complete):
        """Coalescer callback: run one micro-batch on the thread pool.

        ``complete`` is the coalescer's thread-safe per-item resolver:
        ``_run_batch`` calls it the moment each item's response (or
        error) is ready, so a cheap query scheduled ahead of an
        expensive scan answers its client immediately instead of
        waiting for the whole batch to drain.
        """
        self.startup()
        if OBS.enabled:
            catalogued("repro_serve_batch_size").observe(len(items))
        loop = asyncio.get_running_loop()
        async with self._inflight:
            start = time.monotonic()
            results = await loop.run_in_executor(
                self._executor, self._run_batch, name, items, complete
            )
            self.admission.observe_service(
                time.monotonic() - start, requests=len(items)
            )
        self._schedule_serve_flush(loop)
        return results

    def _schedule_serve_flush(self, loop: asyncio.AbstractEventLoop) -> None:
        """Journal serve keys buffered during dispatch, off the loop.

        ``_run_batch`` only *buffers* the keys it notes (``defer=True``)
        — the WAL append, and under ``--fsync always`` the fsync, happen
        here on an executor thread, fire-and-forget, so neither the
        event loop nor the batch's response ever waits on the journal.
        A durable engine also flushes on snapshot and close, so a skipped
        flush (executor already shut down) loses nothing permanent.
        """
        flush = getattr(self.db, "flush_serves", None)
        if flush is None or self._executor is None:
            return
        try:
            future = loop.run_in_executor(self._executor, flush)
        except RuntimeError:  # executor shut down mid-request
            return
        future.add_done_callback(_consume_flush_outcome)

    def _run_batch(
        self, name: str, items: List[_Work], complete=None
    ) -> List[Any]:
        """Answer one micro-batch (thread pool; blocking engine calls).

        One :meth:`PrepareCache.get` covers the whole batch — the cache
        key ignores k, so mixed-k requests still share the entry — and
        every engine takes that shared preparation via ``prepared=``.

        Two phases.  The *decide* phase opens no profile: each item is
        expired (its deadline passed before dispatch), answered from the
        dynamic index, or planned exact or sampled.  The *execute* phase
        then serves dispatch expiries and dynamic answers in arrival
        order, exact work cheapest-first (the scheduler's order), and
        planned-sampled items last, each through :meth:`_serve_item`.
        Returns one ``QueryResponse`` or ``Exception`` per item; when
        ``complete`` is given, each item is additionally resolved
        through it the moment its result is ready (items served early
        do not wait for the rest of the batch).
        """
        try:
            table = self.db.table(name)
        except UnknownTableError as error:
            # Dropped between admission and dispatch: fail the batch's
            # items individually so each client sees a clean 404.
            return [error for _ in items]
        max_k = max(w.request.k for w in items)
        # POST /mutate writes on the event-loop thread: snapshot the
        # table under its lock so the preparation describes one version
        # (UncertainDB.table_lock).  Planning reads its statistics.
        table_lock = self.db.table_lock(name)
        with table_lock:
            prepared = self.db.prepare_cache.get(table, TopKQuery(k=max_k))
        # A durable engine journals served keys so a restart re-prepares
        # what production traffic was actually using (cache warm start).
        # defer=True: buffer only — the WAL append (and any fsync) runs
        # later via _schedule_serve_flush, never inside dispatch.
        note_served = getattr(self.db, "note_served", None)
        if note_served is not None:
            note_served(name, max_k, defer=True)
        # The batch-level PrepareCache.get above ran before any per-item
        # profile opened; its outcome was parked per-thread.
        batch = _Batch(
            name, table, prepared, len(items),
            OBS.flight.consume_prepare() if OBS.enabled else None,
        )

        registry = self.db.dynamic
        now = time.monotonic()
        decided: List[_Item] = []
        for position, work in enumerate(items):
            remaining = None if work.deadline is None else work.deadline - now
            item = _Item(position, work, remaining, "expired")
            decided.append(item)
            if remaining is not None and remaining <= 0:
                continue  # expired at dispatch
            # Dynamic fast path: serve straight from the maintained
            # incremental index (byte-identical to the cold columnar
            # scan).  Explicitly sampled requests keep their semantics;
            # k above the registry cap falls through to planning.
            if registry is not None and work.request.mode != "sampled":
                started = time.perf_counter()
                with table_lock:
                    item.answer = registry.answer(
                        name, table, work.request.k, work.request.threshold
                    )
                if item.answer is not None:
                    item.route = "dynamic"
                    item.elapsed = time.perf_counter() - started
                    continue
            item.route, item.config, item.degraded, item.estimate = self._plan(
                table, work.request, remaining, prepared
            )

        # Exact work: one Theorem-5-pruned columnar read per request
        # over the shared preparation's columns, cheapest predicted scan
        # first.  The unpruned batch path (``batch_ptk_queries``) would
        # price every row of each k's column, while pruned reads stop at
        # the depth the latency model actually prices.
        exact = self.scheduler.order([
            ExactTask(item.position, item.estimate)
            for item in decided if item.route == "exact"
        ])
        for queue_position, task in enumerate(exact):
            decided[task.position].queue_position = queue_position
        results: List[Any] = [None] * len(items)
        for item in (
            [item for item in decided if item.route in ("expired", "dynamic")]
            + [decided[task.position] for task in exact]
            + [item for item in decided if item.route == "sampled"]
        ):
            results[item.position] = result = self._serve_item(batch, item)
            if complete is not None:
                complete(item.position, result)
        return results

    def _serve_item(self, batch: _Batch, item: _Item) -> Any:
        """Run one decided item and finish its one ``served`` record.

        A planned exact item is first re-checked against the time it has
        left (:meth:`_recheck`), which may re-route it.  The profile then
        opens just before the work, so it is the thread's active one
        while the engine runs (the exact engine and the sampler fill it
        through ``OBS.flight.current()``), and one record both finishes
        the profile and bumps the outcome's serve counter.  Returns the
        item's ``QueryResponse`` or ``DeadlineExceededError``.
        """
        if item.route == "exact":
            self._recheck(batch, item)
        request = item.work.request
        query = TopKQuery(k=request.k)
        recorder = OBS.flight if OBS.enabled else None
        profile = (
            recorder.begin(
                "served", table=batch.name, k=request.k,
                threshold=request.threshold,
            )
            if recorder
            else None
        )
        record: Dict[str, Any] = {
            "outcome": "ok", "mode": item.route, "degraded": item.degraded,
        }
        answer: Optional[PTKAnswer] = None
        elapsed: Optional[float] = None
        started = time.perf_counter()
        if item.route == "exact":
            answer = exact_ptk_query(
                batch.table,
                query,
                request.threshold,
                prepared=batch.prepared,
                columnar=True,
                deadline_seconds=self.scheduler.budget(
                    item.remaining, self.config.deadline_safety
                ),
            )
            elapsed = time.perf_counter() - started
            if answer.partial:
                record["outcome"] = "deadline-partial"
            if answer.stats.tuples_evaluated:
                # Per-item calibration: the rows this item priced with
                # this item's clock.  (Batch-aggregated observations
                # paired one item's depth with another item's time and
                # corrupted the model the scheduler prices with.)  A
                # warm read that priced no row is skipped: its elapsed
                # is not a cost per row.
                self.latency_model.observe_exact(
                    answer.stats.tuples_evaluated, elapsed
                )
            record["estimated_seconds"] = item.scheduler["estimated_seconds"]
        elif item.route == "sampled":
            answer = sampled_ptk_query(
                batch.table,
                query,
                request.threshold,
                config=item.config,
                prepared=batch.prepared,
            )
            elapsed = time.perf_counter() - started
            self.latency_model.observe_sampled(
                answer.stats.sample_units,
                answer.stats.avg_sample_length,
                elapsed,
            )
            record["estimated_seconds"] = (
                self.latency_model.predict_sampled_seconds(
                    item.config.resolved_sample_size(),
                    item.estimate.expected_unit_length,
                )
            )
        elif item.route == "dynamic":
            answer, elapsed = item.answer, item.elapsed
            # Read in the decide phase, before this profile opened.
            record.update(
                dynamic=self._dynamic_profile(batch.name),
                scan_depth=answer.stats.scan_depth,
                tuples_evaluated=answer.stats.tuples_evaluated,
                stopped_by=answer.stats.stopped_by,
            )
        else:
            record.update(outcome="deadline-expired", mode=None, degraded=None)
        record.update(
            served=True,
            batch_size=batch.size,
            actual_seconds=elapsed,
            deadline_remaining_ms=(
                item.remaining * 1000.0 if item.remaining is not None else None
            ),
            prepare_hit=batch.prepare_hit,
            scheduler=dict(item.scheduler) if item.scheduler else None,
        )
        if profile is not None:
            recorder.finish(profile, **record)
        # Only a pre-execution re-check gives an item a scheduler block.
        stage = "pre-exec" if item.scheduler else "dispatch"
        if OBS.enabled:
            _count_served(record, stage)
        if answer is None:
            return DeadlineExceededError(
                f"deadline expired before {stage} "
                f"(table {batch.name!r}, k={request.k})"
            )
        return self._response(
            item.work, answer, item.route, item.degraded, batch.size,
            partial=record["outcome"] == "deadline-partial",
            scheduler=item.scheduler,
        )

    def _recheck(self, batch: _Batch, item: _Item) -> None:
        """Re-decide a planned exact item just before it would run.

        Reads the item's remaining deadline off the clock, prices only
        the rows the preparation's warm scan at its ``k`` has left
        (:meth:`_exact_seconds`), and asks the scheduler.  ``expired``
        fails the item fast and ``degrade`` sends it to the sampler with
        a deadline-sized budget, both before any scan starts.
        """
        request = item.work.request
        deadline = item.work.deadline
        item.remaining = None if deadline is None else deadline - time.monotonic()
        estimated = self._exact_seconds(
            item.estimate, batch.prepared.scanned_rows(request.k)
        )
        decision = self.scheduler.decide(
            item.remaining, estimated, self.config.deadline_safety,
            can_degrade=request.mode != "exact",
        )
        item.scheduler = {
            "policy": self.scheduler.name,
            "queue_position": item.queue_position,
            "estimated_seconds": estimated,
            "decision": decision,
        }
        if decision == "run":
            return
        if decision == "expired":
            item.route = "expired"
            return
        item.route, item.degraded = "sampled", True
        item.config = self._sampling_config(
            request, item.remaining, item.estimate
        )

    def _exact_seconds(self, estimate: LatencyEstimate, done: int) -> float:
        """An exact read's predicted cost when ``done`` of its rows are
        already priced: the rows it has left, or the planner's cold
        price when there are none."""
        if not done:
            return estimate.exact_seconds
        return self.latency_model.predict_resume_seconds(done, estimate.depth)

    def _plan(
        self,
        table,
        request: QueryRequest,
        remaining: Optional[float],
        prepared: PreparedRanking,
    ) -> Tuple[str, Optional[SamplingConfig], bool, Any]:
        """Pick the algorithm: ``(mode, config, degraded, estimate)``.

        ``degraded`` is True only when the client did not ask for
        sampling but the planner predicted the exact scan would miss the
        deadline.  The latency estimate is always computed (it is cheap:
        a closed form over the preparation's cached statistics) so the
        flight recorder can compare it against the measured latency on
        every path.  Its ``exact_seconds`` prices only the rows the
        preparation's warm scan at ``k`` has left.
        """
        estimate = estimate_latency(
            table,
            request.k,
            request.threshold,
            model=self.latency_model,
            statistics=prepared.statistics,
        )
        done = prepared.scanned_rows(request.k)
        if done:
            estimate = replace(
                estimate, exact_seconds=self._exact_seconds(estimate, done)
            )
        if request.mode == "exact":
            return "exact", None, False, estimate
        if request.mode == "sampled":
            return (
                "sampled",
                self._sampling_config(request, remaining, estimate),
                False,
                estimate,
            )
        # auto: exact unless the prediction busts the deadline budget
        if remaining is None:
            return "exact", None, False, estimate
        budget = remaining * self.config.deadline_safety
        if estimate.exact_seconds <= budget:
            return "exact", None, False, estimate
        return (
            "sampled",
            self._sampling_config(request, remaining, estimate),
            True,
            estimate,
        )

    def _sampling_config(
        self, request: QueryRequest, remaining: Optional[float], estimate
    ) -> SamplingConfig:
        # An explicit budget binds only mode=sampled; a degradation
        # sizes its budget from the remaining deadline.
        if request.mode == "sampled" and request.sample_budget is not None:
            return SamplingConfig(
                sample_size=request.sample_budget,
                progressive=False,
                seed=self.config.seed,
            )
        if remaining is None:
            return SamplingConfig(seed=self.config.seed)
        return SamplingConfig.for_deadline(
            remaining * self.config.deadline_safety,
            unit_length=estimate.expected_unit_length,
            seconds_per_unit=max(estimate.sampled_seconds_per_unit, 1e-9),
            min_units=self.config.min_sample_budget,
            seed=self.config.seed,
        )

    def _response(
        self,
        work: _Work,
        answer: PTKAnswer,
        mode: str,
        degraded: bool,
        batch_size: int,
        partial: bool = False,
        scheduler: Optional[Dict[str, Any]] = None,
    ) -> QueryResponse:
        request = work.request
        response = QueryResponse(
            table=request.table,
            k=request.k,
            threshold=request.threshold,
            mode=mode,
            degraded=degraded,
            answers=list(answer.answers),
            probabilities={
                str(tid): round(answer.probabilities[tid], 6)
                for tid in answer.answers
            },
            batch_size=batch_size,
            elapsed_ms=(time.monotonic() - work.arrived) * 1000.0,
            partial=partial,
            scheduler=dict(scheduler) if scheduler is not None else None,
        )
        if mode == "sampled":
            units = max(answer.stats.sample_units, 1)
            response.units_drawn = answer.stats.sample_units
            response.intervals = {
                str(tid): wilson_interval(
                    answer.probabilities[tid] * units,
                    units,
                    confidence=request.confidence,
                )
                for tid in answer.answers
            }
        return response

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _dynamic_profile(self, name: str) -> Optional[Dict[str, Any]]:
        """The per-query ``dynamic`` block stamped onto flight profiles."""
        registry = self.db.dynamic
        if registry is None:
            return None
        stats = registry.stats()
        block: Dict[str, Any] = {
            "deltas_applied": stats["deltas_applied"],
            "reads": stats["reads"],
            "fallbacks": stats["fallbacks"],
        }
        table_stats = stats["tables"].get(name)
        if table_stats is not None:
            block["indexes"] = sorted(table_stats["indexes"])
        return block

    @staticmethod
    def _count_request(endpoint: str) -> None:
        if OBS.enabled:
            catalogued("repro_serve_requests_total").inc(endpoint=endpoint)


def _count_served(record: Dict[str, Any], stage: str) -> None:
    """Bump the serve counter of one finished item's outcome."""
    scheduler = record["scheduler"] or {}
    if record["outcome"] == "deadline-expired":
        catalogued("repro_serve_deadline_expired_total").inc(stage=stage)
    elif record["degraded"]:
        catalogued("repro_serve_degraded_total").inc()
        if scheduler.get("decision") == "degrade":
            catalogued("repro_serve_degraded_preexec_total").inc()


def _consume_flush_outcome(future: "asyncio.Future[int]") -> None:
    """Retrieve a fire-and-forget flush's outcome so nothing is logged
    as an unretrieved exception; serve keys are warm-start hints, and a
    key missed here is re-journalled from the recent-serves set at the
    next snapshot."""
    if not future.cancelled():
        future.exception()


def _param(
    params: Dict[str, List[str]], name: str, default: Optional[str] = None
) -> Optional[str]:
    values = params.get(name)
    return values[0] if values else default


def _int_param(params: Dict[str, List[str]], name: str) -> Optional[int]:
    raw = _param(params, name)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ProtocolError(f"{name} must be an integer, got {raw!r}")
    if value <= 0:
        raise ProtocolError(f"{name} must be positive, got {value}")
    return value


def _json_response(
    status: int,
    body: Dict[str, Any],
    extra_headers: Optional[List[Tuple[str, str]]] = None,
) -> Tuple[int, List[Tuple[str, str]], bytes]:
    headers = list(_JSON)
    if extra_headers:
        headers.extend(extra_headers)
    return status, headers, (json.dumps(body) + "\n").encode("utf-8")


# ----------------------------------------------------------------------
# The hand-rolled HTTP/1.1 layer (stdlib asyncio streams, no new deps)
# ----------------------------------------------------------------------
_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 16 * 1024 * 1024


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """Parse one request; ``None`` on clean EOF before a request line."""
    try:
        request_line = await reader.readuntil(b"\r\n")
    except (asyncio.IncompleteReadError, ConnectionResetError):
        return None
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise ValueError(f"malformed request line: {request_line!r}")
    method, path, _version = parts
    headers: Dict[str, str] = {}
    total = 0
    while True:
        line = await reader.readuntil(b"\r\n")
        total += len(line)
        if total > _MAX_HEADER_BYTES:
            raise ValueError("headers too large")
        if line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length < 0 or length > _MAX_BODY_BYTES:
        raise ValueError(f"unacceptable content-length {length}")
    body = await reader.readexactly(length) if length else b""
    return method, path, headers, body


def _encode_response(
    status: int, headers: List[Tuple[str, str]], body: bytes, keep_alive: bool
) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    lines.extend(f"{name}: {value}" for name, value in headers)
    lines.append(f"Content-Length: {len(body)}")
    lines.append("Connection: " + ("keep-alive" if keep_alive else "close"))
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


async def _handle_connection(
    app: ServeApp, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    try:
        while True:
            try:
                parsed = await _read_request(reader)
            except (ValueError, asyncio.IncompleteReadError):
                writer.write(
                    _encode_response(
                        400,
                        list(_JSON),
                        (json.dumps(error_body("bad-request", "malformed HTTP")) + "\n").encode(),
                        keep_alive=False,
                    )
                )
                break
            if parsed is None:
                break
            method, path, headers, body = parsed
            status, response_headers, payload = await app.dispatch(
                method, path, body
            )
            keep_alive = headers.get("connection", "keep-alive") != "close"
            writer.write(
                _encode_response(status, response_headers, payload, keep_alive)
            )
            await writer.drain()
            if not keep_alive:
                break
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass


async def serve(app: ServeApp) -> asyncio.AbstractServer:
    """Bind ``app`` to a TCP server (caller owns the returned server)."""
    app.startup()
    return await asyncio.start_server(
        lambda r, w: _handle_connection(app, r, w),
        host=app.config.host,
        port=app.config.port,
    )


async def _serve_forever(app: ServeApp) -> None:
    server = await serve(app)
    addresses = ", ".join(
        f"{sock.getsockname()[0]}:{sock.getsockname()[1]}"
        for sock in server.sockets or []
    )
    print(
        f"repro serve: {len(app.db.tables())} table(s) on {addresses} "
        f"(window {app.config.window_ms}ms, "
        f"max_inflight {app.config.max_inflight}, "
        f"queue {app.config.max_queue})",
        flush=True,
    )
    async with server:
        await server.serve_forever()


def run(app: ServeApp) -> None:
    """Blocking entry point used by ``repro serve``; Ctrl-C to stop."""
    try:
        asyncio.run(_serve_forever(app))
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        app.shutdown()
