"""Replica-side replication: applying the shipped WAL, bounded staleness,
and promotion.

A :class:`ReplicaApplier` owns a plain
:class:`~repro.query.engine.UncertainDB` and feeds every shipped record
through :func:`repro.durable.recover.apply_record` — the same
version-gated, epoch-aware, idempotent path crash recovery uses.  That
reuse is the correctness story: a record is applied exactly when
recovery would apply it, each table's ``version`` tracks the primary's
exactly, and therefore the replica's :class:`PrepareCache` (keyed on
``(table, version)``) can never serve a stale preparation — a replica at
the same table version returns byte-identical PT-k answers to the
primary.

With a ``data_dir`` the applier is itself durable: every received record
is appended to a *local* WAL before it is applied, and the cursor is
persisted (atomically) to ``replica.json`` after each batch, so a
restarted replica resumes from its own disk instead of re-bootstrapping.
A bootstrap additionally writes snapshot images so the received table
documents survive without their register records.  Because the local
journal is just a WAL and replay is idempotent, the crash window between
"record journalled" and "cursor persisted" only causes harmless
re-fetches.

:class:`ReplicationFollower` is the polling driver: it fetches batches
from the primary over a :class:`~repro.serve.client.ServeClient`
(loopback or TCP), re-bootstraps on ``410 cursor-lost``, counts
reconnects, and runs in a daemon thread next to the replica's
:class:`~repro.serve.server.ServeApp`.

:func:`promote_data_dir` is failover: it recovers the replica's local
state as a :class:`~repro.durable.db.DurableDB`, **fences** the old
epoch (:meth:`~repro.durable.db.DurableDB.fence` bumps every table's
registration epoch and journals fresh full register records), and
snapshots.  After fencing, ``(epoch, version)`` precedence guarantees
nothing from the dead primary's lineage can ever supersede the promoted
tables.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.durable.db import DurableDB
from repro.durable.recover import apply_record, recover_state
from repro.durable.snapshot import write_snapshot
from repro.durable.stream import WalCursor
from repro.durable.wal import WriteAheadLog
from repro.exceptions import RecoveryError, ReplicationError
from repro.io.jsonio import table_from_dict
from repro.model.mutation import Mutation
from repro.obs import OBS, catalogued, span as obs_span
from repro.query.engine import UncertainDB

#: Default size-based rotation for the replica's local WAL (bytes).
REPLICA_SEGMENT_BYTES = 4 * 1024 * 1024

#: Name of the replica's persisted cursor marker inside its data_dir.
MARKER_NAME = "replica.json"


class ReplicaApplier:
    """Applies shipped WAL records and reports client-visible staleness.

    :param data_dir: optional local persistence root (local WAL + cursor
        marker + bootstrap snapshots).  Without it the replica is purely
        in-memory and re-bootstraps on every restart.
    :param replica_id: stable identity announced to the primary; one is
        generated (and persisted, with a ``data_dir``) when omitted.
    :param fsync: fsync policy of the local WAL (default ``off`` — the
        primary owns durability; a replica that loses its tail merely
        re-fetches).
    """

    role = "replica"

    def __init__(
        self,
        data_dir: Optional[Union[str, Path]] = None,
        replica_id: Optional[str] = None,
        fsync: str = "off",
        max_segment_bytes: Optional[int] = REPLICA_SEGMENT_BYTES,
    ) -> None:
        self.db = UncertainDB()
        self._tables: Dict[str, Any] = {}
        self._epochs: Dict[str, int] = {}
        self.cursor = WalCursor()
        self.data_dir = Path(data_dir) if data_dir is not None else None
        self.local_wal: Optional[WriteAheadLog] = None
        self.applied_records = 0
        self.skipped_records = 0
        self.serve_records = 0
        self.batches = 0
        self.bootstraps = 0
        self.caught_up = False
        self.lag_bytes: Optional[int] = None
        self.lag_records: Optional[int] = None
        self._last_contact: Optional[float] = None
        self._last_caught_up: Optional[float] = None
        self._lock = threading.RLock()
        stored_id: Optional[str] = None
        if self.data_dir is not None:
            self.data_dir.mkdir(parents=True, exist_ok=True)
            tables, report = recover_state(self.data_dir)
            for name, table in tables.items():
                self._tables[name] = table
                self.db.register(table, name=name)
            self._epochs = dict(report.epochs)
            marker = self._read_marker()
            if marker is not None:
                self.cursor = WalCursor.decode(marker.get("cursor", "0:0"))
                stored_id = marker.get("replica_id")
            self.local_wal = WriteAheadLog(
                self.data_dir / "wal",
                fsync=fsync,
                max_segment_bytes=max_segment_bytes,
            )
        self.replica_id = (
            replica_id or stored_id or f"replica-{uuid.uuid4().hex[:10]}"
        )
        if self.data_dir is not None:
            self._write_marker()

    # ------------------------------------------------------------------
    # Applying the stream
    # ------------------------------------------------------------------
    def apply_batch(self, payload: Dict[str, Any]) -> int:
        """Journal and apply one fetched batch; returns records applied.

        Records flow through :func:`repro.durable.recover.apply_record`
        — idempotent, version-gated, epoch-aware — after being appended
        to the local WAL (journal first, apply second: a crash in
        between is recovered by the idempotent replay).

        :raises RecoveryError: on a version gap (records were missed);
            the follower reacts by re-bootstrapping.
        """
        records = payload.get("records", [])
        started = time.perf_counter()
        applied = skipped = 0
        with self._lock, obs_span("repl.apply", records=len(records)):
            for record in records:
                if self.local_wal is not None:
                    self.local_wal.append(record)
                op = record.get("op")
                if op == "serve":
                    # Serve keys are prepare-cache warm-start hints; a
                    # replica warms its cache from its own traffic.
                    self.serve_records += 1
                    continue
                name = record.get("table")
                # Under the table lock: a read on an executor thread must
                # never snapshot the table between the apply and the
                # refresh of the warm state.
                with self.db.table_lock(name):
                    result = apply_record(self._tables, record, self._epochs)
                    if not result:
                        skipped += 1
                        continue
                    applied += 1
                    if isinstance(result, Mutation):
                        # The table object is shared with the registry;
                        # the applied mutation, equal to the one the
                        # primary refreshed from, advances warm
                        # preparations here too (and with them the
                        # dynamic indexes' columns).
                        self.db.prepare_cache.refresh(self._tables[name], result)
                        continue
                    # A register replaced the table object, a drop removed
                    # it: swap the registry to match (drop invalidates the
                    # old object's prepare-cache entries).
                    if name in self.db.tables():
                        self.db.drop(name)
                    if op == "register":
                        self.db.register(self._tables[name], name=name)
            if "cursor" in payload:
                self.cursor = WalCursor.decode(payload["cursor"])
            now = time.monotonic()
            self._last_contact = now
            self.caught_up = bool(payload.get("caught_up", False))
            if self.caught_up:
                self._last_caught_up = now
            self.lag_bytes = payload.get("pending_bytes")
            self.lag_records = payload.get("pending_records")
            self.applied_records += applied
            self.skipped_records += skipped
            self.batches += 1
            self._write_marker()
        if OBS.enabled:
            if applied:
                catalogued("repro_repl_records_applied_total").inc(
                    applied, outcome="applied"
                )
            if skipped:
                catalogued("repro_repl_records_applied_total").inc(
                    skipped, outcome="skipped"
                )
            catalogued("repro_repl_apply_seconds").observe(
                time.perf_counter() - started
            )
            self._export_gauges()
        return applied

    def bootstrap(self, payload: Dict[str, Any]) -> int:
        """Replace all local state with a primary bootstrap document.

        Installs each table at its exact ``(epoch, version)``, persists
        snapshot images (so the state survives a restart without its
        register records), and adopts the primary's cursor.

        :returns: the number of tables installed.
        """
        with self._lock, obs_span("repl.bootstrap_apply"):
            for name in list(self.db.tables()):
                self.db.drop(name)
            self._tables.clear()
            self._epochs = {
                str(name): int(epoch)
                for name, epoch in payload.get("epochs", {}).items()
            }
            for name, entry in payload.get("tables", {}).items():
                table = table_from_dict(entry["doc"])
                table._version = int(entry["version"])
                self._epochs.setdefault(name, int(entry.get("epoch", 0)))
                self._tables[name] = table
                self.db.register(table, name=name)
                if self.data_dir is not None:
                    write_snapshot(
                        table,
                        self.data_dir / "snapshots",
                        name=name,
                        epoch=int(entry.get("epoch", 0)),
                    )
            self.cursor = WalCursor.decode(payload["cursor"])
            self.bootstraps += 1
            self.caught_up = True
            now = time.monotonic()
            self._last_contact = now
            self._last_caught_up = now
            self._write_marker()
        if OBS.enabled:
            self._export_gauges()
        return len(self._tables)

    def epochs(self) -> Dict[str, int]:
        """Registration epochs of the replicated tables (serve layer)."""
        with self._lock:
            return dict(self._epochs)

    # ------------------------------------------------------------------
    # Staleness
    # ------------------------------------------------------------------
    def staleness_seconds(self) -> Optional[float]:
        """Seconds since the replica last confirmed it was caught up.

        ``None`` means "never synced" (unbounded staleness).  Even a
        caught-up replica's staleness grows between polls — it is the
        honest bound on how old a read served *now* can be.
        """
        with self._lock:
            if self._last_caught_up is None:
                return None
            return max(0.0, time.monotonic() - self._last_caught_up)

    def staleness(self) -> Dict[str, Any]:
        """The client-visible staleness block (response field + headers)."""
        with self._lock:
            seconds = self.staleness_seconds()
            return {
                "cursor": self.cursor.encode(),
                "caught_up": self.caught_up,
                "lag_bytes": self.lag_bytes,
                "lag_records": self.lag_records,
                "staleness_seconds": (
                    round(seconds, 6) if seconds is not None else None
                ),
            }

    def status(self) -> Dict[str, Any]:
        """Operator view for ``/healthz`` and ``/replicate/status``."""
        with self._lock:
            report = self.staleness()
            report.update(
                {
                    "role": self.role,
                    "replica_id": self.replica_id,
                    "applied_records": self.applied_records,
                    "skipped_records": self.skipped_records,
                    "serve_records": self.serve_records,
                    "batches": self.batches,
                    "bootstraps": self.bootstraps,
                    "persistent": self.data_dir is not None,
                    "tables": {
                        name: {
                            "version": self._tables[name].version,
                            "epoch": self._epochs.get(name, 0),
                        }
                        for name in sorted(self._tables)
                    },
                }
            )
        return report

    def _export_gauges(self) -> None:
        seconds = self.staleness_seconds()
        if self.lag_bytes is not None:
            catalogued("repro_repl_lag_bytes").set(self.lag_bytes)
        if self.lag_records is not None:
            catalogued("repro_repl_lag_records").set(self.lag_records)
        if seconds is not None:
            catalogued("repro_repl_staleness_seconds").set(seconds)

    # ------------------------------------------------------------------
    # Local persistence
    # ------------------------------------------------------------------
    def _marker_path(self) -> Path:
        return self.data_dir / MARKER_NAME

    def _read_marker(self) -> Optional[Dict[str, Any]]:
        try:
            return json.loads(self._marker_path().read_text("utf-8"))
        except (OSError, json.JSONDecodeError):
            return None

    def _write_marker(self) -> None:
        if self.data_dir is None:
            return
        marker = {
            "cursor": self.cursor.encode(),
            "replica_id": self.replica_id,
        }
        tmp = self._marker_path().with_suffix(".json.tmp")
        tmp.write_text(json.dumps(marker, sort_keys=True), "utf-8")
        os.replace(tmp, self._marker_path())

    def close(self) -> None:
        """Persist the cursor and close the local WAL."""
        with self._lock:
            self._write_marker()
            if self.local_wal is not None:
                self.local_wal.close()


class ReplicationFollower:
    """Polls a primary and drives a :class:`ReplicaApplier`.

    :param applier: the replica state machine.
    :param client: a :class:`~repro.serve.client.ServeClient` pointed at
        the primary (loopback or TCP).
    :param poll_interval: sleep between polls once caught up; while
        behind, the follower polls back-to-back.
    :param advertise: this replica's own serving address, reported to
        the primary so clients can discover read endpoints.
    """

    def __init__(
        self,
        applier: ReplicaApplier,
        client: Any,
        poll_interval: float = 0.1,
        max_records: Optional[int] = None,
        max_bytes: Optional[int] = None,
        advertise: Optional[str] = None,
    ) -> None:
        self.applier = applier
        self.client = client
        self.poll_interval = float(poll_interval)
        self.max_records = max_records
        self.max_bytes = max_bytes
        self.advertise = advertise
        self.polls = 0
        self.reconnects = 0
        self.last_error: Optional[str] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def poll_once(self) -> int:
        """One fetch/apply cycle; returns records applied.

        Bootstraps on first contact with no local state, on ``410``
        (cursor lost to compaction), and on a version gap (records
        missed) — every path converges back to streaming.
        """
        from repro.serve.client import ServeClientError

        if self.applier.cursor.is_zero and not self.applier.db.tables():
            self._bootstrap()
            return 0
        try:
            payload = self.client.fetch_wal(
                cursor=self.applier.cursor.encode(),
                replica=self.applier.replica_id,
                max_records=self.max_records,
                max_bytes=self.max_bytes,
                advertise=self.advertise,
            )
        except ServeClientError as error:
            if error.status == 410:
                self._bootstrap()
                return 0
            raise
        self.polls += 1
        try:
            return self.applier.apply_batch(payload)
        except RecoveryError as error:
            # A version gap means records were missed; local state is
            # suspect — resync from a full snapshot.
            self.last_error = str(error)
            self._bootstrap()
            return 0

    def _bootstrap(self) -> None:
        payload = self.client.bootstrap(replica=self.applier.replica_id)
        self.applier.bootstrap(payload)

    # ------------------------------------------------------------------
    def run(self) -> None:
        """Poll until :meth:`stop` — transient errors count as reconnects."""
        from repro.serve.client import ServeClientError

        while not self._stop.is_set():
            try:
                self.poll_once()
            except (OSError, ServeClientError, ReplicationError) as error:
                self.reconnects += 1
                self.last_error = str(error)
                if OBS.enabled:
                    catalogued("repro_repl_reconnects_total").inc()
                self._stop.wait(self.poll_interval)
                continue
            if self.applier.caught_up:
                self._stop.wait(self.poll_interval)

    def start(self) -> "ReplicationFollower":
        """Run :meth:`run` in a daemon thread (restartable after stop)."""
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self.run,
            name=f"repro-repl-{self.applier.replica_id}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def wait_caught_up(self, timeout: float = 30.0) -> bool:
        """Block until the applier reports caught-up (True) or timeout."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.applier.caught_up:
                return True
            time.sleep(0.01)
        return bool(self.applier.caught_up)


@dataclass
class PromotionReport:
    """What :func:`promote_data_dir` did."""

    data_dir: Path
    tables: Dict[str, int] = field(default_factory=dict)  # name -> version
    old_epochs: Dict[str, int] = field(default_factory=dict)
    new_epochs: Dict[str, int] = field(default_factory=dict)
    snapshots: List[Path] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "data_dir": str(self.data_dir),
            "tables": dict(self.tables),
            "old_epochs": dict(self.old_epochs),
            "new_epochs": dict(self.new_epochs),
            "snapshots": [str(path) for path in self.snapshots],
        }


def promote_data_dir(
    data_dir: Union[str, Path],
    snapshot: bool = True,
    fsync: str = "always",
) -> PromotionReport:
    """Promote a (stopped) replica's data directory to primary lineage.

    Recovers the local state, fences the old epoch (every table's
    registration epoch is bumped and re-journalled with its full
    document), optionally checkpoints, and removes the replica marker.
    The directory can then be served with ``repro replicate primary``
    — and the dead primary's state, at equal or higher versions but a
    lower epoch, can never supersede it.

    The replica's follower must be stopped first: promotion opens the
    directory exclusively as a :class:`~repro.durable.db.DurableDB`.

    :raises ReplicationError: when the directory holds no tables.
    """
    data_dir = Path(data_dir)
    db = DurableDB(data_dir, fsync=fsync, warm_start=False)
    try:
        if not db.tables():
            raise ReplicationError(
                f"nothing to promote: no tables recovered from {data_dir}"
            )
        report = PromotionReport(
            data_dir=data_dir,
            old_epochs=db.epochs(),
            tables={name: db.table(name).version for name in db.tables()},
        )
        report.new_epochs = db.fence()
        if snapshot:
            report.snapshots = db.snapshot()
    finally:
        db.close()
    marker = data_dir / MARKER_NAME
    if marker.exists():
        marker.unlink()
    return report
