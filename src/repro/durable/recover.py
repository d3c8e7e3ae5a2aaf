"""Crash recovery: latest snapshot + WAL replay = the last durable state.

Recovery rebuilds every table registered through a
:class:`~repro.durable.db.DurableDB` from its data directory::

    data_dir/
      snapshots/   *.snap          (columnar images, one per version)
      wal/         wal-*.log       (mutation journal segments)

The invariants recovery guarantees (tested property-style in
``tests/test_durable.py``):

1. **Prefix durability** — the recovered state equals the in-memory
   state after the last mutation whose WAL record was fully written;
   a torn final record is truncated, never replayed.
2. **Exact versions** — each recovered table's monotone ``version``
   equals the original's at the durable point, so the prepare cache's
   ``(table, version)`` keying stays sound across restarts (a recovered
   table that keeps mutating can never alias a pre-crash version).
3. **Idempotent replay** — every mutation record carries the table
   version it *produced*; records at or below the snapshot's version
   are skipped, so replaying segments that a crash interrupted between
   snapshot and compaction is harmless.  A version gap (record version
   more than one ahead) means mutations were lost and raises
   :class:`~repro.exceptions.RecoveryError` instead of rebuilding a
   silently wrong table.
4. **Epoch precedence** — ``register`` records and snapshots carry the
   name's *registration epoch* (how many times the name has been
   registered), and "already covered" comparisons use
   ``(epoch, version)``: a replacement table re-registered after a drop
   starts at a low version but a higher epoch, so it always supersedes
   its dropped predecessor's state.

``serve`` records journal recently served query keys; recovery returns
them so :class:`~repro.durable.db.DurableDB` can warm its prepare cache
by re-preparing exactly the ``(predicate, ranking)`` pairs production
traffic was using before the restart.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.exceptions import RecoveryError
from repro.durable import wal as wal_mod
from repro.durable.snapshot import load_latest_snapshots
from repro.io.jsonio import table_from_dict
from repro.model.mutation import Mutation
from repro.model.table import UncertainTable
from repro.obs import OBS, catalogued, span as obs_span

#: Most recent distinct serve keys retained for cache warm-start.
MAX_SERVE_KEYS = 32


@dataclass
class RecoveryReport:
    """What one recovery pass found and did.

    :param tables: registry name -> recovered ``version``.
    :param snapshots_loaded: tables seeded from a snapshot image.
    :param replayed: WAL mutation records applied.
    :param skipped: records ignored because a snapshot already covered
        them (version at or below the snapshot's).
    :param torn_bytes: bytes truncated from torn WAL tails.
    :param segments: WAL segments scanned.
    :param problems: non-fatal notes (skipped corrupt snapshot
        generations, torn tails).
    :param serve_keys: recently served query keys, oldest first.
    :param epochs: registration epoch per name — the highest epoch seen
        for each registry name, including names that were dropped, so a
        re-opened :class:`~repro.durable.db.DurableDB` keeps epochs
        monotone across restarts.
    :param duration_seconds: wall time of the pass.
    """

    tables: Dict[str, int] = field(default_factory=dict)
    snapshots_loaded: int = 0
    replayed: int = 0
    skipped: int = 0
    torn_bytes: int = 0
    segments: int = 0
    problems: List[str] = field(default_factory=list)
    serve_keys: List[Tuple[str, int, Optional[str]]] = field(default_factory=list)
    epochs: Dict[str, int] = field(default_factory=dict)
    duration_seconds: float = 0.0


def recover_state(
    data_dir: Union[str, Path],
) -> Tuple[Dict[str, UncertainTable], RecoveryReport]:
    """Rebuild all tables under ``data_dir``; see the module docstring.

    :returns: ``(tables by registry name, report)``.
    :raises WalCorruptionError: on WAL damage beyond a torn tail.
    :raises RecoveryError: on a version gap (lost mutations).
    """
    data_dir = Path(data_dir)
    report = RecoveryReport()
    started = time.perf_counter()
    with obs_span("durable.recover", data_dir=str(data_dir)):
        tables, snapshot_problems, epochs = load_latest_snapshots(
            data_dir / "snapshots"
        )
        report.problems.extend(snapshot_problems)
        report.snapshots_loaded = len(tables)
        records, scans, paths = wal_mod.replay_wal(data_dir / "wal")
        report.segments = len(scans)
        for scan, path in zip(scans, paths):
            report.torn_bytes += scan.torn_bytes
            if scan.problem is not None:
                report.problems.append(
                    f"{path.name}: {scan.problem} "
                    f"({scan.torn_bytes} byte(s) truncated)"
                )
        serve_keys: Dict[Tuple[str, int, Optional[str]], None] = {}
        for record in records:
            if record.get("op") == "serve":
                key = (
                    record["table"],
                    int(record["k"]),
                    record.get("where"),
                )
                serve_keys.pop(key, None)
                serve_keys[key] = None
                while len(serve_keys) > MAX_SERVE_KEYS:
                    serve_keys.pop(next(iter(serve_keys)))
                continue
            if apply_record(tables, record, epochs):
                report.replayed += 1
            else:
                report.skipped += 1
        report.serve_keys = list(serve_keys)
        report.epochs = dict(epochs)
        report.tables = {name: table.version for name, table in tables.items()}
        report.duration_seconds = time.perf_counter() - started
        if OBS.enabled and report.replayed:
            catalogued("repro_durable_recovery_replayed_total").inc(
                report.replayed
            )
    return tables, report


def apply_record(
    tables: Dict[str, UncertainTable],
    record: Dict[str, Any],
    epochs: Optional[Dict[str, int]] = None,
) -> Union[bool, Mutation]:
    """Apply one WAL record to the recovering table set.

    A table write is replayed as ``table.apply(Mutation.from_record(record))``.

    :param epochs: registration epoch of each table in ``tables``;
        updated in place as ``register`` records apply.  Entries for
        dropped names are kept so epoch monotonicity survives.
    :returns: the applied :class:`~repro.model.mutation.Mutation` for a
        table write, True for an applied ``register`` / ``drop``, and
        False when the record was version-skipped (already covered by a
        snapshot) or a no-op.
    :raises RecoveryError: on malformed records or version gaps.
    """
    op = record.get("op")
    name = record.get("table")
    if op == "register":
        version = int(record["version"])
        epoch = int(record.get("epoch", 0))
        existing = tables.get(name)
        if existing is not None:
            current_epoch = epochs.get(name, 0) if epochs is not None else 0
            if (current_epoch, existing.version) >= (epoch, version):
                return False
        table = table_from_dict(record["doc"])
        table._version = version
        tables[name] = table
        if epochs is not None:
            epochs[name] = max(epochs.get(name, 0), epoch)
        return True
    if op == "drop":
        # The epoch entry survives the drop on purpose: a later
        # re-registration must keep bumping past it.
        return tables.pop(name, None) is not None
    table = tables.get(name)
    if table is None:
        raise RecoveryError(
            f"WAL record {op!r} targets unknown table {name!r} "
            f"(its register record is missing)"
        )
    mutation = Mutation.from_record(record)
    if mutation is None:
        raise RecoveryError(f"unknown WAL record op {op!r}")
    if mutation.version <= table.version:
        return False
    if mutation.previous_version != table.version:
        raise RecoveryError(
            f"version gap on table {name!r}: recovered version "
            f"{table.version}, next WAL record claims {mutation.version} — "
            f"mutations were lost"
        )
    # Each write bumps the version by exactly one, so replay lands on
    # the journalled value.
    return table.apply(mutation)


@dataclass
class VerifyReport:
    """Read-only integrity report over one data directory."""

    wal_segments: int = 0
    wal_records: int = 0
    torn_bytes: int = 0
    snapshots: int = 0
    snapshot_errors: List[str] = field(default_factory=list)
    wal_errors: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when nothing worse than a torn tail was found."""
        return not self.snapshot_errors and not self.wal_errors


def verify_data_dir(data_dir: Union[str, Path]) -> VerifyReport:
    """Validate every snapshot CRC and WAL segment without mutating.

    Torn tails are *notes* (they are the expected crash signature);
    bad magic numbers, CRC-valid-but-unparseable records, and snapshot
    checksum failures are errors.
    """
    from repro.durable.snapshot import read_snapshot
    from repro.exceptions import SnapshotCorruptionError

    data_dir = Path(data_dir)
    report = VerifyReport()
    snapshot_dir = data_dir / "snapshots"
    if snapshot_dir.is_dir():
        for path in sorted(snapshot_dir.glob("*.snap")):
            report.snapshots += 1
            try:
                read_snapshot(path)
            except SnapshotCorruptionError as error:
                report.snapshot_errors.append(str(error))
    for path in wal_mod.WriteAheadLog.segment_paths(data_dir / "wal"):
        scan = wal_mod.scan_segment(path)
        report.wal_segments += 1
        report.wal_records += len(scan.records)
        report.torn_bytes += scan.torn_bytes
        if scan.corrupt:
            report.wal_errors.append(f"{path.name}: {scan.problem}")
        elif scan.problem is not None:
            report.notes.append(
                f"{path.name}: {scan.problem} "
                f"({scan.torn_bytes} byte(s) would be truncated)"
            )
    return report
