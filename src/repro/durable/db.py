"""``DurableDB``: an :class:`~repro.query.engine.UncertainDB` that survives
restarts.

Every mutation routed through this class is applied to the in-memory
table first (so validation still rejects bad data with the usual
exceptions) and then journalled to the write-ahead log — the WAL record
is the durability point.  Opening a :class:`DurableDB` on an existing
data directory runs crash recovery (:mod:`repro.durable.recover`):
tables come back with their exact contents, rule tags, and monotone
``version``, and the prepare cache is warmed by re-preparing the query
keys production traffic was using before the restart.

Mutations **must** go through this class's methods (``add``,
``add_exclusive``, ``remove_tuple``, ``update_probability``) rather
than directly through the table object — a direct table mutation is
invisible to the journal and will not survive a restart.

Layout of a data directory::

    data_dir/
      wal/        wal-000001.log ...     (repro.durable.wal)
      snapshots/  <name>-v<version>.snap (repro.durable.snapshot)

:meth:`snapshot` checkpoints every registered table (atomic
write-then-rename), rotates the WAL, and deletes the segments and
snapshot generations the new images made redundant, bounding both
recovery time and disk use.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.durable.recover import RecoveryReport, recover_state
from repro.durable.snapshot import compact_snapshots, write_snapshot
from repro.durable.wal import WriteAheadLog, encode_tid
from repro.exceptions import QueryError, ReproError
from repro.io.jsonio import table_to_dict
from repro.model.rules import GenerationRule
from repro.model.table import UncertainTable
from repro.model.tuples import UncertainTuple
from repro.obs import OBS, catalogued, span as obs_span
from repro.query.engine import UncertainDB
from repro.query.predicates import AlwaysTrue
from repro.query.topk import TopKQuery


class DurableDB(UncertainDB):
    """A persistent registry of uncertain tables.

    :param data_dir: directory holding the WAL and snapshots; created
        (and left empty apart from the first WAL segment) when missing.
    :param fsync: WAL fsync policy — ``always`` / ``interval`` / ``off``
        (see :mod:`repro.durable.wal`).
    :param fsync_interval: maximum seconds between fsyncs under the
        ``interval`` policy.
    :param warm_start: re-prepare the journalled recently-served query
        keys after recovery so the first post-restart queries hit a warm
        prepare cache.
    :param max_segment_bytes: size-based WAL auto-rotation threshold
        (see :class:`~repro.durable.wal.WriteAheadLog`); ``None`` keeps
        rotation manual (snapshot-time only).
    """

    def __init__(
        self,
        data_dir: Union[str, Path],
        fsync: str = "interval",
        fsync_interval: float = 0.05,
        warm_start: bool = True,
        max_segment_bytes: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        tables, report = recover_state(self.data_dir)
        self.last_recovery: RecoveryReport = report
        for name, table in tables.items():
            super().register(table, name=name)
        self.wal = WriteAheadLog(
            self.data_dir / "wal",
            fsync=fsync,
            fsync_interval=fsync_interval,
            max_segment_bytes=max_segment_bytes,
        )
        # Registration epoch per name (how many times the name has been
        # registered, ever) — stamps register records and snapshots so a
        # re-registered table supersedes its dropped predecessor.
        self._epochs: Dict[str, int] = dict(report.epochs)
        # Serve-key bookkeeping.  The lock exists because the serving
        # layer defers and flushes keys from executor threads.
        self._serve_lock = threading.Lock()
        # (table name, where) pairs journalled into the active segment;
        # dedupe keeps the serve-key journal O(distinct keys) per segment.
        self._journalled_serves: Set[Tuple[str, Optional[str]]] = set()
        self._recent_serves: Dict[Tuple[str, Optional[str]], int] = {}
        # Keys noted with defer=True, awaiting a flush_serves() call.
        self._pending_serves: Dict[Tuple[str, Optional[str]], int] = {}
        for name, k, where in report.serve_keys:
            self._recent_serves[(name, where)] = k
        if warm_start:
            self._warm_prepare_cache(report)

    # ------------------------------------------------------------------
    # Journalled catalogue operations
    # ------------------------------------------------------------------
    def register(self, table: UncertainTable, name: Optional[str] = None) -> str:
        """Register and journal a table (full document + exact version).

        The name's registration epoch is bumped and journalled with the
        record: recovery and snapshot ranking key on ``(epoch,
        version)``, so a replacement registered after a drop supersedes
        the dropped table even though its version restarts low.
        """
        key = super().register(table, name=name)
        epoch = self._epochs.get(key, 0) + 1
        self._epochs[key] = epoch
        self.wal.append(
            {
                "op": "register",
                "table": key,
                "epoch": epoch,
                "version": table.version,
                "doc": table_to_dict(table),
            }
        )
        return key

    def drop(self, name: str) -> None:
        """Drop a table from the registry and the journal's future.

        The name's epoch entry is kept so a future re-registration
        still outranks any of this table's surviving snapshots.
        """
        super().drop(name)
        self.wal.append({"op": "drop", "table": name})
        with self._serve_lock:
            self._recent_serves = {
                key: k for key, k in self._recent_serves.items() if key[0] != name
            }
            self._pending_serves = {
                key: k for key, k in self._pending_serves.items() if key[0] != name
            }

    def epochs(self) -> Dict[str, int]:
        """Registration epoch per table name (names ever registered,
        including currently dropped ones)."""
        return dict(self._epochs)

    def fence(self) -> Dict[str, int]:
        """Bump every registered table's epoch and journal fresh full
        register records — the failover promotion step.

        Recovery and snapshot ranking key on ``(epoch, version)``, so
        after fencing, no state from the previous lineage (stale
        snapshots, segments shipped from a dead primary) can ever
        supersede this database's tables, even though their versions
        continue from where the old primary left off.

        :returns: the new epoch per registered table name.
        """
        fenced: Dict[str, int] = {}
        for name in self.tables():
            table = self.table(name)
            epoch = self._epochs.get(name, 0) + 1
            self._epochs[name] = epoch
            self.wal.append(
                {
                    "op": "register",
                    "table": name,
                    "epoch": epoch,
                    "version": table.version,
                    "doc": table_to_dict(table),
                }
            )
            fenced[name] = epoch
        self.wal.sync()
        return fenced

    # ------------------------------------------------------------------
    # Journalled mutations
    # ------------------------------------------------------------------
    # Each method delegates to the engine-level mutation (validation,
    # prepared-ranking refresh) and then journals the committed record;
    # a rejected mutation raises before either.
    # Both run under the table lock, so concurrent writers to one table
    # journal their records in version order.

    def add(
        self,
        name: str,
        tid: Any,
        score: float,
        probability: float,
        **attributes: Any,
    ) -> UncertainTuple:
        """Add one tuple to a registered table, journalled."""
        with self.table_lock(name):
            tup = super().add(name, tid, score, probability, **attributes)
            self.wal.append(
                {
                    "op": "add",
                    "table": name,
                    "version": self.table(name).version,
                    "tid": encode_tid(tid),
                    "score": float(score),
                    "probability": float(tup.probability),
                    "attributes": dict(attributes),
                }
            )
        return tup

    def add_rule(self, name: str, rule: GenerationRule) -> None:
        """Attach a multi-tuple generation rule, journalled."""
        with self.table_lock(name):
            super().add_rule(name, rule)
            self.wal.append(
                {
                    "op": "rule",
                    "table": name,
                    "version": self.table(name).version,
                    "rule_id": rule.rule_id,
                    "members": [encode_tid(tid) for tid in rule.tuple_ids],
                }
            )

    def remove_tuple(self, name: str, tid: Any) -> UncertainTuple:
        """Remove one tuple (shrinking its rule), journalled."""
        with self.table_lock(name):
            removed = super().remove_tuple(name, tid)
            self.wal.append(
                {
                    "op": "remove",
                    "table": name,
                    "version": self.table(name).version,
                    "tid": encode_tid(tid),
                }
            )
        return removed

    def update_probability(self, name: str, tid: Any, probability: float) -> UncertainTuple:
        """Replace one tuple's membership probability, journalled."""
        with self.table_lock(name):
            updated = super().update_probability(name, tid, probability)
            self.wal.append(
                {
                    "op": "update",
                    "table": name,
                    "version": self.table(name).version,
                    "tid": encode_tid(tid),
                    "probability": float(updated.probability),
                }
            )
        return updated

    def update_score(self, name: str, tid: Any, score: float) -> UncertainTuple:
        """Replace one tuple's ranking score, journalled."""
        with self.table_lock(name):
            updated = super().update_score(name, tid, score)
            self.wal.append(
                {
                    "op": "score",
                    "table": name,
                    "version": self.table(name).version,
                    "tid": encode_tid(tid),
                    "score": float(updated.score),
                }
            )
        return updated

    # ------------------------------------------------------------------
    # Serve-key journaling (prepare-cache warm start)
    # ------------------------------------------------------------------
    def note_served(
        self,
        name: str,
        k: int,
        where: Optional[str] = None,
        defer: bool = False,
    ) -> None:
        """Journal that ``(name, predicate, default ranking)`` was served.

        The prepare cache keys on (predicate, ranking) — ``k`` only
        shapes the reconstruction query, so one record per distinct
        ``(table, where)`` pair per WAL segment suffices.  ``where`` is
        the predicate's expression string (``repro.query.parser``
        syntax) or ``None`` for the trivial predicate.

        With ``defer=True`` the key is only buffered — no WAL append
        (and under ``--fsync always`` no fsync) happens on the caller's
        thread; :meth:`flush_serves` journals the buffer later.  The
        serving layer uses this so batch dispatch never stalls on the
        journal; buffered keys also land on :meth:`snapshot` and
        :meth:`close`.
        """
        with self._serve_lock:
            self._recent_serves[(name, where)] = k
            if defer:
                if (name, where) not in self._journalled_serves:
                    self._pending_serves[(name, where)] = k
                return
        self._journal_serve(name, k, where)

    def flush_serves(self) -> int:
        """Journal every serve key buffered by ``note_served(defer=True)``.

        Safe to call from any thread and after :meth:`close` (a closed
        journal makes it a no-op).

        :returns: the number of records appended.
        """
        with self._serve_lock:
            if not self._pending_serves or self.wal.closed:
                return 0
            pending = list(self._pending_serves.items())
            self._pending_serves.clear()
        started = time.perf_counter()
        appended = sum(
            self._journal_serve(name, k, where)
            for (name, where), k in pending
        )
        if appended and OBS.enabled:
            elapsed = time.perf_counter() - started
            catalogued("repro_durable_serve_flush_seconds").observe(elapsed)
            OBS.flight.note_serve_flush(elapsed)
        return appended

    def _journal_serve(self, name: str, k: int, where: Optional[str]) -> int:
        """Append one serve record unless this segment already has it."""
        with self._serve_lock:
            if (name, where) in self._journalled_serves:
                return 0
            self._journalled_serves.add((name, where))
        self.wal.append({"op": "serve", "table": name, "k": int(k), "where": where})
        return 1

    def ptk(self, name: str, k: int, threshold: float, query=None, **kwargs):
        self._auto_note(name, k, query)
        return super().ptk(name, k, threshold, query=query, **kwargs)

    def ptk_sampled(self, name: str, k: int, threshold: float, query=None, **kwargs):
        self._auto_note(name, k, query)
        return super().ptk_sampled(name, k, threshold, query=query, **kwargs)

    def ptk_batch(self, name: str, requests, **kwargs):
        if requests:
            self._auto_note(name, max(k for k, _ in requests), None)
        return super().ptk_batch(name, requests, **kwargs)

    def _auto_note(self, name: str, k: int, query: Optional[TopKQuery]) -> None:
        """Journal default-shaped queries; opaque predicates are skipped
        (they have no serialisable identity to re-prepare from)."""
        if query is not None and not (
            isinstance(query.predicate, AlwaysTrue)
            and query.ranking.cache_key() == ("score", True)
        ):
            return
        self.note_served(name, k)

    def _warm_prepare_cache(self, report: RecoveryReport) -> None:
        """Re-prepare the journalled serve keys against recovered tables."""
        from repro.query.parser import parse_predicate

        for name, k, where in report.serve_keys:
            if name not in self.tables():
                continue
            try:
                if where is None:
                    query = TopKQuery(k=max(int(k), 1))
                else:
                    query = TopKQuery(
                        k=max(int(k), 1), predicate=parse_predicate(where)
                    )
                self.prepare_cache.get(self.table(name), query)
            except ReproError as error:
                report.problems.append(
                    f"warm-start skipped ({name!r}, k={k}, "
                    f"where={where!r}): {error}"
                )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot(self, compact: bool = True) -> List[Path]:
        """Checkpoint every registered table and rotate the WAL.

        After the images land (atomic rename each), the WAL rotates to a
        fresh segment; with ``compact=True`` the superseded snapshot
        generations — including *every* generation of names no longer
        registered — are deleted first, then the sealed WAL segments.
        That order is crash-safe: stale snapshots of a dropped table are
        gone before the WAL record of its drop can be compacted away,
        and replay ``(epoch, version)`` gating covers the remaining
        windows.

        :returns: the snapshot paths written.
        """
        timer = (
            catalogued("repro_durable_snapshot_seconds").time()
            if OBS.enabled
            else None
        )
        started = time.perf_counter()
        with obs_span(
            "durable.snapshot", data_dir=str(self.data_dir)
        ) as span:
            if timer is not None:
                timer.__enter__()
            try:
                paths = [
                    write_snapshot(
                        self.table(name),
                        self.data_dir / "snapshots",
                        name=name,
                        epoch=self._epochs.get(name, 0),
                    )
                    for name in self.tables()
                ]
                sealed = self.wal.rotate()
                with self._serve_lock:
                    self._journalled_serves.clear()
                    self._pending_serves.clear()
                    recent = list(self._recent_serves.items())
                for (name, where), k in recent:
                    if name in self.tables():
                        self._journal_serve(name, k, where)
                if compact:
                    # Snapshots before WAL segments: once the sealed
                    # segment holding a 'drop' record is gone, no stale
                    # snapshot of the dropped table may remain to be
                    # resurrected by the next recovery.
                    compact_snapshots(
                        self.data_dir / "snapshots",
                        keep=1,
                        registered=set(self.tables()),
                    )
                    self.wal.drop_segments_before(self.wal.path)
            finally:
                if timer is not None:
                    timer.__exit__(None, None, None)
            span.set(
                tables=len(paths),
                sealed_segment=sealed.name,
                seconds=round(time.perf_counter() - started, 6),
            )
        return paths

    def close(self) -> None:
        """Flush buffered serve keys, then close the WAL (the database
        stays queryable)."""
        self.flush_serves()
        self.wal.close()

    def __enter__(self) -> "DurableDB":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def load_tables_into(db: DurableDB, directory: Union[str, Path]) -> List[str]:
    """Register every table file under ``directory`` that is not already
    registered (by name), journalling each — the ``repro serve
    --data-dir`` bootstrap path.

    :returns: the names newly registered.
    """
    from repro.cli import load_table

    directory = Path(directory)
    registered: List[str] = []
    paths = sorted(
        list(directory.glob("*.json")) + list(directory.glob("*.tuples.csv"))
    )
    for path in paths:
        table = load_table(str(path))
        name = table.name
        if name in db.tables():
            name = path.name.split(".")[0]
        if name in db.tables():
            continue
        try:
            db.register(table, name=name)
        except QueryError:
            continue
        registered.append(name)
    return registered
