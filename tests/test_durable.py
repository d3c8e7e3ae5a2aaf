"""Tests for the durable storage subsystem (repro.durable).

Covers the WAL record format and torn-tail truncation, snapshot
round-trips and corruption fallback, recovery invariants (exact
contents, rule tags, and ``version``), the ``DurableDB`` wrapper,
prepare-cache warm start, the crash-recovery property test with
randomized kill points (including mid-record torn writes), a real
SIGKILL round-trip, and the ``repro durable`` CLI subcommands.
"""

from __future__ import annotations

import json
import os
import random
import signal
import struct
import subprocess
import sys
import time
import zlib
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.exact import exact_ptk_query
from repro.durable import (
    DurableDB,
    WriteAheadLog,
    read_snapshot,
    recover_state,
    replay_wal,
    scan_segment,
    verify_data_dir,
    write_snapshot,
)
from repro.durable.snapshot import (
    catalog_snapshots,
    compact_snapshots,
    serialize_table,
)
from repro.durable.wal import MAGIC, encode_record
from repro.exceptions import (
    DurabilityError,
    RecoveryError,
    RuleConflictError,
    SnapshotCorruptionError,
    UnknownTupleError,
    ValidationError,
    WalCorruptionError,
)
from repro.model.table import UncertainTable, table_from_rows
from repro.query.topk import TopKQuery

from tests.conftest import build_table


def sample_table(name: str = "demo") -> UncertainTable:
    """A small table with rules, attributes, and a tuple-typed tid."""
    table = UncertainTable(name=name)
    table.add("t1", 100.0, 0.5, location="A")
    table.add("t2", 90.0, 0.4)
    table.add("t3", 80.0, 0.45, location="B", day=3)
    table.add(("s", 7), 70.0, 0.3)
    table.add("t5", 60.0, 0.25)
    table.add_exclusive("r1", "t1", "t2")
    table.add_exclusive("r2", "t3", "t5")
    return table


def assert_tables_equal(actual: UncertainTable, expected: UncertainTable):
    """Contents, attributes, rule tags, and version must all match."""
    assert [t.tid for t in actual] == [t.tid for t in expected]
    for mine, theirs in zip(actual, expected):
        assert mine.score == theirs.score
        assert mine.probability == theirs.probability
        assert dict(mine.attributes) == dict(theirs.attributes)
    assert {
        r.rule_id: frozenset(r.tuple_ids) for r in actual.multi_rules()
    } == {r.rule_id: frozenset(r.tuple_ids) for r in expected.multi_rules()}
    assert actual.version == expected.version
    actual.validate()


# ----------------------------------------------------------------------
# WAL
# ----------------------------------------------------------------------
class TestWal:
    def test_append_and_replay_round_trip(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off")
        records = [
            {"op": "add", "table": "t", "version": i, "tid": f"x{i}"}
            for i in range(10)
        ]
        for record in records:
            wal.append(record)
        wal.close()
        replayed, scans, _ = replay_wal(tmp_path)
        assert replayed == records
        assert all(scan.torn_bytes == 0 for scan in scans)

    def test_tuple_tids_round_trip(self, tmp_path):
        from repro.durable.wal import decode_tid, encode_tid

        for tid in ["a", 7, ("a", 3), ("x", ("y", 1))]:
            assert decode_tid(json.loads(json.dumps(encode_tid(tid)))) == tid

    def test_rejects_unknown_fsync_policy(self, tmp_path):
        with pytest.raises(DurabilityError):
            WriteAheadLog(tmp_path, fsync="sometimes")

    def test_fsync_always_syncs_every_append(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="always")
        before = wal.fsyncs
        for i in range(5):
            wal.append({"op": "add", "version": i})
        assert wal.fsyncs - before == 5
        wal.close()

    def test_fsync_off_only_syncs_on_lifecycle(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off")
        opened = wal.fsyncs
        for i in range(50):
            wal.append({"op": "add", "version": i})
        assert wal.fsyncs == opened
        wal.close()

    def test_new_segment_per_open(self, tmp_path):
        WriteAheadLog(tmp_path, fsync="off").close()
        WriteAheadLog(tmp_path, fsync="off").close()
        assert len(WriteAheadLog.segment_paths(tmp_path)) == 2

    def test_rotate_and_compact(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off")
        wal.append({"op": "add", "version": 1})
        wal.rotate()
        wal.append({"op": "add", "version": 2})
        assert len(WriteAheadLog.segment_paths(tmp_path)) == 2
        assert wal.drop_segments_before(wal.path) == 1
        records, _, _ = replay_wal(tmp_path)
        assert [r["version"] for r in records] == [2]
        wal.close()

    def test_segment_order_past_six_digit_sequences(self, tmp_path):
        """Segments must order by integer sequence, not path string:
        'wal-1000000.log' sorts lexicographically before 'wal-999999.log'."""
        older = tmp_path / "wal-999999.log"
        newer = tmp_path / "wal-1000000.log"
        older.write_bytes(MAGIC + encode_record({"op": "add", "version": 1}))
        newer.write_bytes(MAGIC + encode_record({"op": "add", "version": 2}))
        assert WriteAheadLog.segment_paths(tmp_path) == [older, newer]
        records, _, paths = replay_wal(tmp_path)
        assert [r["version"] for r in records] == [1, 2]
        assert paths == [older, newer]

        wal = WriteAheadLog(tmp_path, fsync="off")  # continues the sequence
        assert wal.path.name == "wal-1000001.log"
        assert wal.drop_segments_before(wal.path) == 2
        assert not older.exists() and not newer.exists()
        wal.close()


class TestForeignFilesAndRotation:
    """Satellites of the replication PR: WAL-directory hygiene and
    size-based auto-rotation."""

    def test_segment_paths_tolerate_foreign_files(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off")
        wal.append({"op": "add", "version": 1})
        wal.close()
        (tmp_path / "wal-000099.log.tmp").write_bytes(b"half-renamed")
        (tmp_path / "notes.txt").write_text("operator scribbles")
        (tmp_path / "wal-abcdef.log").write_bytes(b"unparseable name")
        (tmp_path / "wal-000500.log").mkdir()  # directory, segment-shaped name
        assert WriteAheadLog.segment_paths(tmp_path) == [wal.path]
        assert WriteAheadLog.sequence_of(tmp_path / "wal-abcdef.log") == -1
        records, scans, paths = replay_wal(tmp_path)
        assert [r["version"] for r in records] == [1]
        assert paths == [wal.path]

    def test_writer_skips_past_segment_shaped_directory(self, tmp_path):
        """A directory named like a future segment must push the writer
        past its sequence — exclusive create would collide otherwise."""
        (tmp_path / "wal-000500.log").mkdir()
        wal = WriteAheadLog(tmp_path, fsync="off")
        assert wal.sequence > 500
        wal.append({"op": "add", "version": 1})
        wal.close()
        records, _, _ = replay_wal(tmp_path)
        assert [r["version"] for r in records] == [1]

    def test_rejects_max_segment_bytes_below_header(self, tmp_path):
        with pytest.raises(DurabilityError):
            WriteAheadLog(tmp_path, max_segment_bytes=4)

    def test_auto_rotation_by_size(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off", max_segment_bytes=256)
        records = [
            {"op": "add", "version": i, "pad": "x" * 40} for i in range(30)
        ]
        for record in records:
            wal.append(record)
        assert wal.rotations > 0
        assert (
            len(WriteAheadLog.segment_paths(tmp_path)) == wal.rotations + 1
        )
        replayed, scans, _ = replay_wal(tmp_path)
        assert replayed == records
        assert all(scan.torn_bytes == 0 for scan in scans)
        wal.close()

    def test_durabledb_auto_rotation_survives_recovery(self, tmp_path):
        with DurableDB(
            tmp_path, fsync="off", max_segment_bytes=512
        ) as db:
            db.register(sample_table("r"))
            for i in range(60):
                db.add("r", f"n{i}", score=float(i), probability=0.5)
            rotations = db.wal.rotations
            expected_version = db.table("r").version
        assert rotations > 0
        tables, report = recover_state(tmp_path)
        assert len(tables["r"]) == len(sample_table("r")) + 60
        assert tables["r"].version == expected_version
        assert not report.problems


class TestTornTail:
    def make_segment(self, tmp_path, n=5):
        wal = WriteAheadLog(tmp_path, fsync="off")
        for i in range(n):
            wal.append({"op": "add", "version": i, "pad": "y" * 40})
        wal.close()
        return wal.path

    @pytest.mark.parametrize("chop", [1, 3, 7, 11, 25])
    def test_truncated_tail_drops_only_last_record(self, tmp_path, chop):
        path = self.make_segment(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-chop])
        scan = scan_segment(path)
        assert not scan.corrupt
        assert scan.torn_bytes > 0
        assert [r["version"] for r in scan.records] == [0, 1, 2, 3]

    def test_flipped_tail_byte_is_torn_not_corrupt(self, tmp_path):
        path = self.make_segment(tmp_path, n=3)
        data = bytearray(path.read_bytes())
        data[-5] ^= 0xFF  # inside the final record's payload
        path.write_bytes(bytes(data))
        scan = scan_segment(path)
        assert not scan.corrupt
        assert scan.problem is not None
        assert [r["version"] for r in scan.records] == [0, 1]

    def test_torn_magic_is_empty_not_corrupt(self, tmp_path):
        path = tmp_path / "wal-000001.log"
        path.write_bytes(MAGIC[:3])
        scan = scan_segment(path)
        assert not scan.corrupt
        assert scan.records == []
        assert scan.torn_bytes == 3

    def test_bad_magic_is_corrupt(self, tmp_path):
        path = tmp_path / "wal-000001.log"
        path.write_bytes(b"NOTAWAL!" + b"junk")
        assert scan_segment(path).corrupt
        with pytest.raises(WalCorruptionError):
            replay_wal(tmp_path)

    def test_crc_valid_non_json_is_corrupt(self, tmp_path):
        payload = b"definitely not json"
        frame = struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
        path = tmp_path / "wal-000001.log"
        path.write_bytes(MAGIC + frame)
        scan = scan_segment(path)
        assert scan.corrupt

    def test_recovery_replays_prefix_before_torn_tail(self, tmp_path):
        db = DurableDB(tmp_path, fsync="off")
        db.register(sample_table())
        db.add("demo", "late", 10.0, 0.2)
        db.close()
        segment = WriteAheadLog.segment_paths(tmp_path / "wal")[0]
        segment.write_bytes(segment.read_bytes()[:-4])  # tear the add
        tables, report = recover_state(tmp_path)
        assert "late" not in tables["demo"]
        assert report.torn_bytes > 0
        assert report.problems


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------
class TestSnapshot:
    def test_round_trip_preserves_everything(self, tmp_path):
        table = sample_table()
        table.remove_tuple("t5")  # version drifts ahead of tuple count
        path = write_snapshot(table, tmp_path)
        loaded, name = read_snapshot(path)
        assert name == "demo"
        assert_tables_equal(loaded, table)

    def test_registry_name_differs_from_table_name(self, tmp_path):
        table = sample_table(name="internal")
        path = write_snapshot(table, tmp_path, name="registry")
        loaded, name = read_snapshot(path)
        assert name == "registry"
        assert loaded.name == "internal"

    def test_serialized_image_is_deterministic(self):
        table = sample_table()
        assert serialize_table(table) == serialize_table(table)

    def test_crc_corruption_detected(self, tmp_path):
        path = write_snapshot(sample_table(), tmp_path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotCorruptionError):
            read_snapshot(path)

    def test_corrupt_latest_falls_back_to_older_generation(self, tmp_path):
        from repro.durable.snapshot import load_latest_snapshots

        table = sample_table()
        write_snapshot(table, tmp_path)
        version_v1 = table.version
        table.add("extra", 5.0, 0.1)
        newest = write_snapshot(table, tmp_path)
        data = bytearray(newest.read_bytes())
        data[-3] ^= 0xFF
        newest.write_bytes(bytes(data))
        tables, problems, _ = load_latest_snapshots(tmp_path)
        assert tables["demo"].version == version_v1
        assert problems

    def test_compact_keeps_newest_generation(self, tmp_path):
        table = sample_table()
        write_snapshot(table, tmp_path)
        table.add("extra", 5.0, 0.1)
        newest = write_snapshot(table, tmp_path)
        assert compact_snapshots(tmp_path) == 1
        catalog = catalog_snapshots(tmp_path)
        assert catalog.latest["demo"][0] == newest

    def test_no_partial_file_visible(self, tmp_path):
        write_snapshot(sample_table(), tmp_path)
        assert not list(tmp_path.glob("*.tmp"))


# ----------------------------------------------------------------------
# Recovery invariants
# ----------------------------------------------------------------------
class TestRecovery:
    def test_wal_only_recovery_restores_exact_state(self, tmp_path):
        db = DurableDB(tmp_path, fsync="off")
        table = sample_table()
        db.register(table)
        db.add("demo", "t6", 55.0, 0.6, location="C")
        db.remove_tuple("demo", "t2")  # shrinks rule r1 to a singleton
        db.update_probability("demo", "t6", 0.7)
        db.close()

        recovered = DurableDB(tmp_path, fsync="off")
        assert_tables_equal(recovered.table("demo"), table)
        recovered.close()

    def test_snapshot_plus_replay(self, tmp_path):
        db = DurableDB(tmp_path, fsync="off")
        table = sample_table()
        db.register(table)
        db.snapshot()
        db.add("demo", "after", 55.0, 0.6)
        db.close()

        recovered = DurableDB(tmp_path, fsync="off")
        assert recovered.last_recovery.snapshots_loaded == 1
        assert recovered.last_recovery.replayed == 1
        assert_tables_equal(recovered.table("demo"), table)
        recovered.close()

    def test_replay_is_version_gated_after_uncompacted_snapshot(self, tmp_path):
        db = DurableDB(tmp_path, fsync="off")
        db.register(sample_table())
        db.add("demo", "kept", 55.0, 0.6)
        # Snapshot without compaction: the old segment with the register
        # and add records survives and must be skipped on replay.
        db.snapshot(compact=False)
        db.close()
        recovered = DurableDB(tmp_path, fsync="off")
        report = recovered.last_recovery
        assert report.replayed == 0
        assert report.skipped >= 2
        assert "kept" in recovered.table("demo")
        recovered.close()

    def test_drop_survives_restart(self, tmp_path):
        db = DurableDB(tmp_path, fsync="off")
        db.register(sample_table())
        db.drop("demo")
        db.close()
        recovered = DurableDB(tmp_path, fsync="off")
        assert recovered.tables() == []
        recovered.close()

    def test_reregister_after_drop(self, tmp_path):
        db = DurableDB(tmp_path, fsync="off")
        db.register(sample_table())
        db.drop("demo")
        replacement = table_from_rows([("n1", 10, 0.5)], name="demo")
        db.register(replacement)
        db.close()
        recovered = DurableDB(tmp_path, fsync="off")
        assert recovered.table("demo").tuple_ids() == ["n1"]
        recovered.close()

    def test_drop_then_snapshot_then_restart(self, tmp_path):
        """Compacting away the 'drop' record must not resurrect the
        table from its surviving snapshot files."""
        db = DurableDB(tmp_path, fsync="off")
        db.register(sample_table())
        db.snapshot()  # dropped table now has an on-disk image
        db.drop("demo")
        db.snapshot()  # compacts the segment holding the drop record
        db.close()
        assert not list((tmp_path / "snapshots").glob("*.snap"))
        recovered = DurableDB(tmp_path, fsync="off")
        assert recovered.tables() == []
        recovered.close()

    @pytest.mark.parametrize("compact", [True, False])
    def test_reregister_lower_version_survives_snapshot_restart(
        self, tmp_path, compact
    ):
        """A replacement registered after a drop restarts at a low
        version; its higher registration epoch must outrank the dropped
        predecessor's high-version snapshot, with and without
        compaction."""
        db = DurableDB(tmp_path, fsync="off")
        original = sample_table()
        db.register(original)
        db.snapshot()
        db.drop("demo")
        replacement = table_from_rows([("n1", 10, 0.5)], name="demo")
        assert replacement.version < original.version
        db.register(replacement)
        db.snapshot(compact=compact)
        db.close()
        recovered = DurableDB(tmp_path, fsync="off")
        assert recovered.table("demo").tuple_ids() == ["n1"]
        assert recovered.table("demo").version == replacement.version
        recovered.close()

    def test_version_gap_raises(self, tmp_path):
        db = DurableDB(tmp_path, fsync="off")
        table = sample_table()
        db.register(table)
        db.close()
        wal_dir = tmp_path / "wal"
        segment = WriteAheadLog.segment_paths(wal_dir)[0]
        with open(segment, "ab") as handle:
            handle.write(
                encode_record(
                    {
                        "op": "add",
                        "table": "demo",
                        "version": table.version + 2,  # gap
                        "tid": "ghost",
                        "score": 1.0,
                        "probability": 0.1,
                    }
                )
            )
        with pytest.raises(RecoveryError):
            recover_state(tmp_path)

    def test_mutation_on_unknown_table_raises(self, tmp_path):
        (tmp_path / "wal").mkdir()
        path = tmp_path / "wal" / "wal-000001.log"
        record = encode_record(
            {"op": "remove", "table": "ghost", "version": 1, "tid": "t"}
        )
        path.write_bytes(MAGIC + record)
        with pytest.raises(RecoveryError):
            recover_state(tmp_path)

    def test_ptk_answers_identical_after_recovery(self, tmp_path):
        db = DurableDB(tmp_path, fsync="off")
        table = build_table(
            [0.5, 0.45, 0.4, 0.35, 0.3, 0.6, 0.2], [[0, 1], [2, 3]],
            name="answers",
        )
        db.register(table)
        db.remove_tuple("answers", "t4")
        before = db.ptk("answers", k=3, threshold=0.2)
        db.close()
        recovered = DurableDB(tmp_path, fsync="off")
        after = recovered.ptk("answers", k=3, threshold=0.2)
        assert after.answers == before.answers
        assert after.probabilities == pytest.approx(before.probabilities)
        recovered.close()


# ----------------------------------------------------------------------
# Growing rules: the join record
# ----------------------------------------------------------------------
def joined_db(data_dir) -> DurableDB:
    """A journalled table whose rules grew by joins, one of which
    lost its joined member again."""
    db = DurableDB(data_dir, fsync="off")
    db.register(sample_table())
    for i in range(6, 11):
        db.add("demo", f"t{i}", 50.0 - i, 0.05)
    db.join_rule("demo", "r1", "t6")
    db.join_rule("demo", "r2", ("s", 7))
    db.remove_tuple("demo", "t6")
    db.join_rule("demo", "r1", "t7")
    db.add_exclusive("demo", "r3", "t8", "t9")
    db.join_rule("demo", "r3", "t10")
    return db


def assert_rules_identical(actual: UncertainTable, expected: UncertainTable):
    """Rules equal member for member, in order, plus contents and version."""
    assert_tables_equal(actual, expected)
    assert sorted(actual.multi_rules(), key=repr) == sorted(
        expected.multi_rules(), key=repr
    )


class TestJoinRule:
    def test_crash_recovery_after_joins(self, tmp_path):
        db = joined_db(tmp_path)
        table = db.table("demo")
        assert [r.tuple_ids for r in table.multi_rules()] == [
            ("t1", "t2", "t7"), ("t3", "t5", ("s", 7)), ("t8", "t9", "t10"),
        ]
        # No close: recovery reads what the journal holds at a crash.
        records, _, _ = replay_wal(tmp_path / "wal")
        recovered = DurableDB(tmp_path, fsync="off")
        assert recovered.last_recovery.replayed == len(records) == 12
        assert_rules_identical(recovered.table("demo"), table)
        recovered.close()
        db.close()

    def test_snapshot_then_joins_recover(self, tmp_path):
        db = joined_db(tmp_path)
        db.snapshot()
        db.add("demo", "late", 1.0, 0.05)
        db.join_rule("demo", "r1", "late")
        table = db.table("demo")
        db.close()
        recovered = DurableDB(tmp_path, fsync="off")
        assert recovered.last_recovery.replayed == 2
        assert_rules_identical(recovered.table("demo"), table)
        recovered.close()

    @pytest.mark.parametrize(
        "rule_id, tid, error",
        [
            ("r1", "t3", RuleConflictError),   # already in rule r2
            ("r1", "heavy", ValidationError),  # Pr(r1) would pass 1
            ("nope", "t9", ValidationError),   # no such rule
            ("r1", "ghost", UnknownTupleError),
        ],
    )
    def test_refused_join_journals_nothing(self, tmp_path, rule_id, tid, error):
        db = DurableDB(tmp_path, fsync="off")
        db.register(sample_table())
        db.add("demo", "t9", 1.0, 0.05)
        db.add("demo", "heavy", 1.0, 0.2)
        version = db.table("demo").version
        appended = db.wal.appended_records
        with pytest.raises(error):
            db.join_rule("demo", rule_id, tid)
        assert db.table("demo").version == version
        assert db.wal.appended_records == appended
        db.close()

    def test_verify_accepts_join_records(self, tmp_path):
        joined_db(tmp_path).close()
        records, _, _ = replay_wal(tmp_path / "wal")
        assert sum(r["op"] == "join" for r in records) == 4
        report = verify_data_dir(tmp_path)
        assert report.ok, report.wal_errors
        assert report.wal_records == len(records)


# ----------------------------------------------------------------------
# DurableDB behaviour
# ----------------------------------------------------------------------
class TestDurableDB:
    def test_mutations_validate_before_journalling(self, tmp_path):
        db = DurableDB(tmp_path, fsync="off")
        db.register(sample_table())
        appended = db.wal.appended_records
        with pytest.raises(Exception):
            db.add("demo", "t1", 1.0, 0.5)  # duplicate tid
        assert db.wal.appended_records == appended  # nothing journalled
        db.close()

    def test_serve_keys_warm_prepare_cache(self, tmp_path):
        db = DurableDB(tmp_path, fsync="off")
        db.register(sample_table())
        db.ptk("demo", k=2, threshold=0.3)
        db.close()

        recovered = DurableDB(tmp_path, fsync="off", warm_start=True)
        stats = recovered.prepare_cache.stats()
        assert stats.misses == 1  # warm start prepared it
        recovered.ptk("demo", k=2, threshold=0.3)
        assert recovered.prepare_cache.stats().hits == 1
        recovered.close()

    def test_warm_start_disabled(self, tmp_path):
        db = DurableDB(tmp_path, fsync="off")
        db.register(sample_table())
        db.ptk("demo", k=2, threshold=0.3)
        db.close()
        cold = DurableDB(tmp_path, fsync="off", warm_start=False)
        assert cold.prepare_cache.stats().misses == 0
        cold.close()

    def test_serve_key_journalled_once_per_segment(self, tmp_path):
        db = DurableDB(tmp_path, fsync="off")
        db.register(sample_table())
        before = db.wal.appended_records
        for _ in range(5):
            db.ptk("demo", k=2, threshold=0.3)
        assert db.wal.appended_records == before + 1
        db.close()

    def test_serve_keys_survive_snapshot_compaction(self, tmp_path):
        db = DurableDB(tmp_path, fsync="off")
        db.register(sample_table())
        db.ptk("demo", k=2, threshold=0.3)
        db.snapshot()  # compacts the segment holding the serve record
        db.close()
        recovered = DurableDB(tmp_path, fsync="off")
        assert recovered.last_recovery.serve_keys == [("demo", 2, None)]
        recovered.close()

    def test_serve_keys_for_dropped_table_skipped(self, tmp_path):
        db = DurableDB(tmp_path, fsync="off")
        db.register(sample_table())
        db.ptk("demo", k=2, threshold=0.3)
        db.drop("demo")
        db.close()
        recovered = DurableDB(tmp_path, fsync="off")  # must not raise
        assert recovered.tables() == []
        recovered.close()

    def test_deferred_serve_keys_journal_on_flush(self, tmp_path):
        db = DurableDB(tmp_path, fsync="off")
        db.register(sample_table())
        before = db.wal.appended_records
        db.note_served("demo", 2, defer=True)
        db.note_served("demo", 2, defer=True)  # deduped in the buffer
        assert db.wal.appended_records == before  # nothing inline
        assert db.flush_serves() == 1
        assert db.wal.appended_records == before + 1
        assert db.flush_serves() == 0  # once per segment, as inline
        db.close()
        recovered = DurableDB(tmp_path, fsync="off")
        assert ("demo", 2, None) in recovered.last_recovery.serve_keys
        recovered.close()

    def test_close_flushes_deferred_serve_keys(self, tmp_path):
        db = DurableDB(tmp_path, fsync="off")
        db.register(sample_table())
        db.note_served("demo", 3, defer=True)
        db.close()  # flush happens here, then again harmlessly
        assert db.flush_serves() == 0
        recovered = DurableDB(tmp_path, fsync="off")
        assert ("demo", 3, None) in recovered.last_recovery.serve_keys
        recovered.close()

    def test_opaque_query_not_journalled(self, tmp_path):
        from repro.query.predicates import ScoreAbove

        db = DurableDB(tmp_path, fsync="off")
        db.register(sample_table())
        before = db.wal.appended_records
        db.ptk("demo", k=2, threshold=0.3,
               query=TopKQuery(k=2, predicate=ScoreAbove(65.0)))
        assert db.wal.appended_records == before
        db.close()

    def test_snapshot_bounds_recovery_to_snapshot_read(self, tmp_path):
        db = DurableDB(tmp_path, fsync="off")
        db.register(sample_table())
        for i in range(20):
            db.add("demo", f"bulk{i}", float(i), 0.3)
        db.snapshot()
        db.close()
        recovered = DurableDB(tmp_path, fsync="off")
        assert recovered.last_recovery.replayed == 0
        assert len(recovered.table("demo")) == 25
        recovered.close()

    def test_durable_metrics_catalogued(self, tmp_path):
        from repro import obs
        from repro.obs import catalog
        from repro.obs import export as obs_export

        obs.enable(fresh=True)
        try:
            db = DurableDB(tmp_path, fsync="always")
            db.register(sample_table())
            db.add("demo", "m1", 1.0, 0.2)
            db.snapshot()
            db.close()
            DurableDB(tmp_path, fsync="off").close()
            snapshot = json.loads(obs_export.to_json())
            assert catalog.validate_snapshot(snapshot) == []
            names = snapshot["metrics"]
            for required in (
                "repro_durable_wal_appends_total",
                "repro_durable_wal_bytes_total",
                "repro_durable_wal_fsyncs_total",
                "repro_durable_snapshot_seconds",
                "repro_durable_snapshot_bytes",
            ):
                assert required in names, required
        finally:
            obs.disable()
            obs.reset()

    def test_context_manager_closes_wal(self, tmp_path):
        with DurableDB(tmp_path, fsync="off") as db:
            db.register(sample_table())
        with pytest.raises(DurabilityError):
            db.wal.append({"op": "drop", "table": "demo"})


# ----------------------------------------------------------------------
# Crash-recovery property test
# ----------------------------------------------------------------------
def _random_mutations(rng: random.Random, steps: int):
    """A valid randomized mutation script as (op, args) tuples.

    Applied twice — once through DurableDB (journalled) and once on a
    fresh in-memory table (the oracle) — so recovery is compared against
    an independent application path.
    """
    ops = []
    live = {}  # tid -> probability
    ruled = set()
    counter = 0
    for _ in range(steps):
        choice = rng.random()
        if choice < 0.45 or len(live) < 4:
            tid = f"m{counter}"
            counter += 1
            probability = round(rng.uniform(0.05, 0.6), 3)
            attributes = (
                {"loc": rng.choice("ABC")} if rng.random() < 0.3 else {}
            )
            ops.append(
                ("add", tid, round(rng.uniform(1, 100), 3), probability,
                 attributes)
            )
            live[tid] = probability
        elif choice < 0.6:
            free = [t for t in live if t not in ruled]
            rng.shuffle(free)
            members, total = [], 0.0
            for tid in free:
                if total + live[tid] <= 0.95:
                    members.append(tid)
                    total += live[tid]
                if len(members) == 3:
                    break
            if len(members) >= 2:
                ops.append(("rule", f"r{counter}", tuple(members)))
                counter += 1
                ruled.update(members)
        elif choice < 0.8:
            tid = rng.choice(sorted(live))
            ops.append(("remove", tid))
            del live[tid]
            ruled.discard(tid)
        else:
            free = [t for t in live if t not in ruled]
            if free:
                tid = rng.choice(sorted(free))
                probability = round(rng.uniform(0.05, 0.9), 3)
                ops.append(("update", tid, probability))
                live[tid] = probability
    return ops


def _apply_to_oracle(table: UncertainTable, op):
    kind = op[0]
    if kind == "add":
        _, tid, score, probability, attributes = op
        table.add(tid, score, probability, **attributes)
    elif kind == "rule":
        table.add_exclusive(op[1], *op[2])
    elif kind == "remove":
        table.remove_tuple(op[1])
    elif kind == "update":
        table.update_probability(op[1], op[2])


def _apply_to_durable(db: DurableDB, name: str, op):
    kind = op[0]
    if kind == "add":
        _, tid, score, probability, attributes = op
        db.add(name, tid, score, probability, **attributes)
    elif kind == "rule":
        db.add_exclusive(name, op[1], *op[2])
    elif kind == "remove":
        db.remove_tuple(name, op[1])
    elif kind == "update":
        db.update_probability(name, op[1], op[2])


@pytest.mark.parametrize("seed", [3, 11, 29, 47])
def test_crash_recovery_property(tmp_path, seed):
    """For random mutations and a random kill point (possibly mid-record),
    recovery equals the in-memory state at the last durable point and
    PT-k answers on it are identical."""
    rng = random.Random(seed)
    base_rows = [("b1", 50.0, 0.5), ("b2", 40.0, 0.45), ("b3", 30.0, 0.4)]
    ops = _random_mutations(rng, steps=40)

    victim_dir = tmp_path / "victim"
    db = DurableDB(victim_dir, fsync="off")
    db.register(table_from_rows(base_rows, name="prop"))
    offsets = [db.wal.tell]  # durable point after the register record
    for op in ops:
        _apply_to_durable(db, "prop", op)
        offsets.append(db.wal.tell)
    total = db.wal.tell
    segment_bytes = db.wal.path.read_bytes()
    db.close()
    assert len(segment_bytes) == total

    for trial in range(6):
        cut = rng.randint(0, total)
        # Number of whole mutations (after the register) that fit.
        durable_ops = 0
        registered = cut >= offsets[0]
        if registered:
            while (
                durable_ops < len(ops) and offsets[durable_ops + 1] <= cut
            ):
                durable_ops += 1

        crash_dir = tmp_path / f"crash-{trial}"
        (crash_dir / "wal").mkdir(parents=True)
        (crash_dir / "wal" / "wal-000001.log").write_bytes(
            segment_bytes[:cut]
        )
        tables, report = recover_state(crash_dir)
        if not registered:
            assert tables == {}
            continue
        oracle = table_from_rows(base_rows, name="prop")
        for op in ops[:durable_ops]:
            _apply_to_oracle(oracle, op)
        assert_tables_equal(tables["prop"], oracle)
        if len(oracle) >= 3:
            mine = exact_ptk_query(tables["prop"], TopKQuery(k=3), 0.25)
            theirs = exact_ptk_query(oracle, TopKQuery(k=3), 0.25)
            assert mine.answers == theirs.answers
            assert mine.probabilities == pytest.approx(theirs.probabilities)


# ----------------------------------------------------------------------
# Real SIGKILL round-trip
# ----------------------------------------------------------------------
_KILL_SCRIPT = """
import sys
from repro.durable import DurableDB
from repro.model.table import table_from_rows

db = DurableDB(sys.argv[1], fsync="off")
db.register(table_from_rows(
    [("b1", 50.0, 0.5), ("b2", 40.0, 0.45)], name="killed"))
print("READY", flush=True)
i = 0
while True:
    db.add("killed", f"x{i}", float(i % 97), 0.3)
    i += 1
"""


def test_sigkill_mid_append_recovers_consistent_prefix(tmp_path):
    process = subprocess.Popen(
        [sys.executable, "-c", _KILL_SCRIPT, str(tmp_path)],
        stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    try:
        assert process.stdout.readline().strip() == b"READY"
        time.sleep(0.4)  # let it append a few thousand records
    finally:
        process.send_signal(signal.SIGKILL)
        process.wait()

    tables, report = recover_state(tmp_path)
    table = tables["killed"]
    table.validate()
    n_added = len(table) - 2
    assert n_added >= 1
    # Appends are sequential, so the recovered tuples are exactly the
    # contiguous prefix x0..x{n-1}; the version matches the mutation
    # count (register version 2, one bump per add).
    assert table.tuple_ids() == ["b1", "b2"] + [f"x{i}" for i in range(n_added)]
    assert table.version == 2 + n_added

    oracle = table_from_rows([("b1", 50.0, 0.5), ("b2", 40.0, 0.45)], name="killed")
    for i in range(n_added):
        oracle.add(f"x{i}", float(i % 97), 0.3)
    mine = exact_ptk_query(table, TopKQuery(k=2), 0.3)
    theirs = exact_ptk_query(oracle, TopKQuery(k=2), 0.3)
    assert mine.answers == theirs.answers


# ----------------------------------------------------------------------
# Serving integration
# ----------------------------------------------------------------------
def test_serve_layer_journals_served_keys(tmp_path):
    import asyncio

    from repro import obs
    from repro.serve import ServeApp, ServeConfig

    db = DurableDB(tmp_path, fsync="off")
    db.register(sample_table(name="served"))
    app = ServeApp(db, ServeConfig(window_ms=0.0, enable_obs=False))
    body = json.dumps({"table": "served", "k": 2, "threshold": 0.3}).encode()

    async def main():
        status, _, payload = await app.dispatch("POST", "/query", body)
        return status, json.loads(payload)

    try:
        status, response = asyncio.run(main())
    finally:
        app.shutdown()
        obs.disable()
    assert status == 200
    assert response["answers"]
    db.close()
    recovered = DurableDB(tmp_path, fsync="off")
    assert ("served", 2, None) in recovered.last_recovery.serve_keys
    recovered.close()


# ----------------------------------------------------------------------
# CLI subcommands
# ----------------------------------------------------------------------
class TestDurableCli:
    def seed(self, tmp_path) -> Path:
        data_dir = tmp_path / "state"
        db = DurableDB(data_dir, fsync="off")
        db.register(sample_table())
        db.add("demo", "cli1", 10.0, 0.3)
        db.close()
        return data_dir

    def test_recover_subcommand(self, tmp_path, capsys):
        data_dir = self.seed(tmp_path)
        assert main(["durable", "recover", str(data_dir)]) == 0
        out = capsys.readouterr().out
        assert "recovered 1 table(s)" in out
        assert "demo: 6 tuples" in out

    def test_verify_subcommand_clean(self, tmp_path, capsys):
        data_dir = self.seed(tmp_path)
        assert main(["durable", "verify", str(data_dir)]) == 0
        assert "0 torn byte(s)" in capsys.readouterr().out

    def test_verify_subcommand_reports_corruption(self, tmp_path, capsys):
        data_dir = self.seed(tmp_path)
        segment = WriteAheadLog.segment_paths(data_dir / "wal")[0]
        segment.write_bytes(b"NOTAWAL!" + segment.read_bytes()[8:])
        assert main(["durable", "verify", str(data_dir)]) == 1

    def test_snapshot_subcommand(self, tmp_path, capsys):
        data_dir = self.seed(tmp_path)
        assert main(["durable", "snapshot", str(data_dir)]) == 0
        assert "snapshotted 1 table(s)" in capsys.readouterr().out
        assert list((data_dir / "snapshots").glob("*.snap"))
        tables, report = recover_state(data_dir)
        assert report.snapshots_loaded == 1
        assert len(tables["demo"]) == 6

    def test_snapshot_subcommand_empty_dir_fails(self, tmp_path):
        assert main(["durable", "snapshot", str(tmp_path / "empty")]) == 1
