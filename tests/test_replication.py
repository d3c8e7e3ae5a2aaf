"""Tests for the replication subsystem (repro.replication).

Covers the streaming WAL reader (cursor encode/decode, bounded batch
reads, torn-tail semantics, the randomized bit-exact-resume property,
live tail-follow under concurrent appends), retention pinning against
compaction, the replica applier (byte-identical PT-k answers at equal
table versions, idempotent re-application, durable restart), the
polling follower end-to-end over the loopback transport (staleness
headers and ``max_staleness_s`` rejection, primary-only routes), and
failover promotion with epoch fencing.
"""

from __future__ import annotations

import json
import random
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.exact import exact_ptk_query
from repro.durable import (
    DurableDB,
    WalCursor,
    WriteAheadLog,
    count_records_from,
    follow,
    pending_bytes_from,
    read_from,
    recover_state,
    replay_wal,
)
from repro.durable.recover import apply_record
from repro.durable.wal import MAGIC
from repro.exceptions import (
    CursorLostError,
    RecoveryError,
    ReplicationError,
)
from repro.model.table import UncertainTable
from repro.query.topk import TopKQuery
from repro.replication import (
    ReplicaApplier,
    ReplicationFollower,
    ReplicationServer,
    promote_data_dir,
)
from repro.serve.client import LoopbackTransport, ServeClient, ServeClientError
from repro.serve.server import ServeApp, ServeConfig


def sample_table(name: str = "t", n: int = 30) -> UncertainTable:
    table = UncertainTable(name=name)
    for i in range(n):
        table.add(f"t{i}", 100.0 - i, 0.2 + (i % 6) * 0.05, bucket=i % 3)
    table.add_exclusive("r1", "t0", "t5")
    table.add_exclusive("r2", "t3", "t6", "t12")
    return table


def make_primary(tmp_path: Path, **wal_kw) -> DurableDB:
    db = DurableDB(tmp_path / "primary", fsync="off", **wal_kw)
    db.register(sample_table())
    return db


def ptk_bytes(db, name: str, k: int = 5, threshold: float = 0.3) -> bytes:
    """The byte-exact PT-k result of an engine (answers + probabilities)."""
    answer = exact_ptk_query(db.table(name), TopKQuery(k=k), threshold)
    return json.dumps(
        {
            "answers": [str(t) for t in answer.answers],
            "probabilities": {
                str(t): answer.probabilities[t] for t in answer.answers
            },
        },
        sort_keys=True,
    ).encode()


# ----------------------------------------------------------------------
# WalCursor
# ----------------------------------------------------------------------
class TestWalCursor:
    def test_encode_decode_round_trip(self):
        for cursor in [WalCursor(), WalCursor(3, 8), WalCursor(10**7, 2**31)]:
            assert WalCursor.decode(cursor.encode()) == cursor

    def test_ordering_matches_stream_order(self):
        assert WalCursor(1, 500) < WalCursor(2, 8) < WalCursor(2, 9)

    @pytest.mark.parametrize(
        "text", ["", "abc", "1:", ":4", "1:2:3", "-1:0", "0:-5", "1.5:0"]
    )
    def test_malformed_cursors_rejected(self, text):
        with pytest.raises(ReplicationError):
            WalCursor.decode(text)

    def test_zero_cursor(self):
        assert WalCursor().is_zero
        assert not WalCursor(0, 8).is_zero


# ----------------------------------------------------------------------
# read_from / count / pending
# ----------------------------------------------------------------------
class TestReadFrom:
    def fill(self, directory, n=12, rotate_every=None, pad=24):
        wal = WriteAheadLog(directory, fsync="off")
        records = []
        for i in range(n):
            record = {"op": "add", "version": i, "pad": "x" * pad}
            wal.append(record)
            records.append(record)
            if rotate_every and (i + 1) % rotate_every == 0:
                wal.rotate()
        wal.close()
        return records

    def test_empty_directory(self, tmp_path):
        batch = read_from(tmp_path)
        assert batch.records == [] and batch.caught_up

    def test_nonzero_cursor_on_empty_directory_is_lost(self, tmp_path):
        with pytest.raises(CursorLostError):
            read_from(tmp_path, WalCursor(3, 8))

    def test_full_read_matches_replay(self, tmp_path):
        records = self.fill(tmp_path, rotate_every=4)
        batch = read_from(tmp_path)
        assert batch.records == records
        assert batch.caught_up
        replayed, _, _ = replay_wal(tmp_path)
        assert batch.records == replayed

    def test_every_boundary_resumes_bit_exact(self, tmp_path):
        records = self.fill(tmp_path, rotate_every=5)
        batch = read_from(tmp_path)
        for i, boundary in enumerate(batch.boundaries):
            suffix = read_from(tmp_path, boundary)
            assert suffix.records == records[i + 1 :]

    def test_limits_pause_without_losing_records(self, tmp_path):
        records = self.fill(tmp_path, rotate_every=3)
        seen, cursor = [], WalCursor()
        for _ in range(100):
            batch = read_from(tmp_path, cursor, max_records=1)
            seen.extend(batch.records)
            cursor = batch.cursor
            if batch.caught_up and not batch.records:
                break
        assert seen == records

    def test_torn_live_tail_stops_cleanly(self, tmp_path):
        records = self.fill(tmp_path)
        path = WriteAheadLog.segment_paths(tmp_path)[-1]
        data = path.read_bytes()
        path.write_bytes(data[:-7])  # torn mid-record, still in flight
        batch = read_from(tmp_path)
        assert batch.records == records[:-1]
        assert batch.caught_up
        assert batch.pending_bytes > 0  # the torn bytes still count as lag

    def test_torn_sealed_tail_is_skipped(self, tmp_path):
        records = self.fill(tmp_path, n=10, rotate_every=5)
        first = WriteAheadLog.segment_paths(tmp_path)[0]
        data = first.read_bytes()
        first.write_bytes(data[:-5])  # frozen crash signature
        batch = read_from(tmp_path)
        assert batch.records == records[:4] + records[5:]
        assert batch.caught_up

    def test_compacted_cursor_is_lost(self, tmp_path):
        self.fill(tmp_path, rotate_every=4)
        wal = WriteAheadLog(tmp_path, fsync="off")
        survivor = wal.path
        wal.drop_segments_before(survivor)
        wal.close()
        with pytest.raises(CursorLostError):
            read_from(tmp_path, WalCursor(1, 8))

    def test_count_and_pending_from_cursor(self, tmp_path):
        records = self.fill(tmp_path, rotate_every=4)
        assert count_records_from(tmp_path) == len(records)
        batch = read_from(tmp_path, max_records=5)
        assert count_records_from(tmp_path, batch.cursor) == len(records) - 5
        assert pending_bytes_from(tmp_path, batch.cursor) > 0
        done = read_from(tmp_path, batch.cursor)
        assert pending_bytes_from(tmp_path, done.cursor) == 0


# ----------------------------------------------------------------------
# Randomized properties: torn cuts and live tail-follow
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(8))
def test_stream_reader_property_torn_cuts(tmp_path, seed):
    """For random WALs with a random torn cut, the streamed records must
    equal recovery's replay (the oracle), batch boundaries must resume
    bit-exactly, and no partial record may ever surface."""
    rng = random.Random(seed)
    wal = WriteAheadLog(tmp_path, fsync="off")
    for i in range(rng.randint(5, 40)):
        wal.append(
            {"op": "add", "version": i, "pad": "y" * rng.randint(0, 120)}
        )
        if rng.random() < 0.2:
            wal.rotate()
    wal.close()

    paths = WriteAheadLog.segment_paths(tmp_path)
    victim = rng.choice(paths)
    data = victim.read_bytes()
    if len(data) > len(MAGIC) and rng.random() < 0.8:
        # Cut anywhere past the magic — possibly mid-header, mid-payload,
        # or mid-CRC; possibly at a segment boundary (the victim may be
        # sealed, with newer segments after it).
        victim.write_bytes(data[: rng.randint(len(MAGIC), len(data) - 1)])

    oracle, _, _ = replay_wal(tmp_path)

    streamed, boundaries, cursor = [], [], WalCursor()
    while True:
        batch = read_from(
            tmp_path, cursor, max_records=rng.randint(1, 7)
        )
        streamed.extend(batch.records)
        boundaries.extend(batch.boundaries)
        cursor = batch.cursor
        if batch.caught_up and not batch.records:
            break
    assert streamed == oracle

    for index in rng.sample(range(len(boundaries)), min(5, len(boundaries))):
        suffix = read_from(tmp_path, boundaries[index])
        assert suffix.records == oracle[index + 1 :]


@pytest.mark.parametrize("seed", range(4))
def test_follow_live_tail_under_concurrent_appends(tmp_path, seed):
    """The tail-follower must deliver every record exactly once, in
    order, while a writer races it with appends and size rotations."""
    rng = random.Random(100 + seed)
    total = 60
    done = threading.Event()

    def writer():
        wal = WriteAheadLog(
            tmp_path, fsync="off", max_segment_bytes=rng.randint(128, 512)
        )
        for i in range(total):
            wal.append(
                {"op": "add", "version": i, "pad": "z" * rng.randint(0, 90)}
            )
            if rng.random() < 0.1:
                time.sleep(0.001)
        wal.close()
        done.set()

    thread = threading.Thread(target=writer)
    thread.start()
    received = []
    for record, boundary in follow(
        tmp_path,
        poll_interval=0.005,
        stop=done.is_set,
        max_records=rng.randint(1, 9),
    ):
        received.append((record, boundary))
    thread.join()

    assert [r["version"] for r, _ in received] == list(range(total))
    # Every yielded boundary is a valid bit-exact resume point.
    for index in rng.sample(range(total), 6):
        suffix = read_from(tmp_path, received[index][1])
        assert [r["version"] for r in suffix.records] == list(
            range(index + 1, total)
        )


def test_follow_drains_records_appended_just_before_stop(tmp_path):
    """A writer that appends and then signals stop, after the
    follower's caught-up read but before its stop check, loses
    nothing."""
    wal = WriteAheadLog(tmp_path, fsync="off")
    wal.append({"op": "add", "version": 0})
    calls = []

    def stop():
        if not calls:
            wal.append({"op": "add", "version": 1})
        calls.append(None)
        return True

    received = follow(tmp_path, poll_interval=0.0, stop=stop)
    assert [r["version"] for r, _ in received] == [0, 1]
    wal.close()


# ----------------------------------------------------------------------
# Retention pinning vs compaction
# ----------------------------------------------------------------------
class TestRetentionPins:
    def test_pin_blocks_drop_and_unpin_releases(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off")
        wal.append({"op": "add", "version": 1})
        first = wal.sequence
        wal.rotate()
        wal.rotate()
        wal.pin_segments("replica:r1", first)
        assert wal.drop_segments_before(wal.path) == 0
        assert len(WriteAheadLog.segment_paths(tmp_path)) == 3
        wal.unpin_segments("replica:r1")
        assert wal.drop_segments_before(wal.path) == 2
        wal.close()

    def test_replica_survives_compaction_while_behind(self, tmp_path):
        """The acceptance test: snapshots compact the WAL *while* a slow
        replica is mid-stream, and the pin keeps every segment it still
        needs — the replica finishes without a lost cursor."""
        db = make_primary(tmp_path, max_segment_bytes=512)
        server = ReplicationServer(db)
        applier = ReplicaApplier()
        applier.bootstrap(server.handle_bootstrap(applier.replica_id))
        for i in range(40):
            db.add("t", f"n{i}", score=200.0 + i, probability=0.6)

        fetches = 0
        while True:
            payload = server.handle_fetch(
                applier.replica_id, applier.cursor.encode(), max_records=3
            )
            applier.apply_batch(payload)
            fetches += 1
            # Compaction runs between every fetch; the replica's pin must
            # keep its cursor segment alive.
            db.snapshot()
            if payload["caught_up"] and not payload["records"]:
                break
            assert fetches < 200, "replica never caught up"
        assert applier.db.table("t").version == db.table("t").version
        assert ptk_bytes(applier.db, "t") == ptk_bytes(db, "t")
        db.close()

    def test_forgotten_replica_loses_cursor_and_rebootstraps(self, tmp_path):
        db = make_primary(tmp_path, max_segment_bytes=256)
        server = ReplicationServer(db)
        applier = ReplicaApplier()
        applier.bootstrap(server.handle_bootstrap(applier.replica_id))
        for i in range(30):
            db.add("t", f"n{i}", score=300.0 + i, probability=0.5)
        server.forget(applier.replica_id)
        db.snapshot()  # unpinned: sealed segments compact away
        with pytest.raises(CursorLostError):
            server.handle_fetch(
                applier.replica_id, applier.cursor.encode()
            )
        applier.bootstrap(server.handle_bootstrap(applier.replica_id))
        payload = server.handle_fetch(
            applier.replica_id, applier.cursor.encode()
        )
        applier.apply_batch(payload)
        assert ptk_bytes(applier.db, "t") == ptk_bytes(db, "t")
        db.close()

    def test_status_reports_replica_lag(self, tmp_path):
        db = make_primary(tmp_path)
        server = ReplicationServer(db)
        applier = ReplicaApplier()
        applier.bootstrap(server.handle_bootstrap(applier.replica_id))
        for i in range(10):
            db.add("t", f"n{i}", score=400.0 + i, probability=0.5)
        status = server.status()
        replica = status["replicas"][applier.replica_id]
        assert replica["lag_records"] == 10
        payload = server.handle_fetch(
            applier.replica_id, applier.cursor.encode()
        )
        applier.apply_batch(payload)
        status = server.status()
        replica = status["replicas"][applier.replica_id]
        assert replica["lag_records"] == 0 and replica["caught_up"]
        db.close()


# ----------------------------------------------------------------------
# ReplicaApplier
# ----------------------------------------------------------------------
class TestReplicaApplier:
    def test_byte_identical_answers_at_equal_versions(self, tmp_path):
        db = make_primary(tmp_path)
        server = ReplicationServer(db)
        applier = ReplicaApplier()
        applier.bootstrap(server.handle_bootstrap(applier.replica_id))
        db.add("t", "late", score=500.0, probability=0.5)
        db.update_probability("t", "t2", 0.9)
        db.remove_tuple("t", "t9")
        db.add_exclusive("t", "r-new", "t1", "late")
        applier.apply_batch(
            server.handle_fetch(applier.replica_id, applier.cursor.encode())
        )
        assert applier.db.table("t").version == db.table("t").version
        for k, p in [(1, 0.2), (5, 0.3), (10, 0.5)]:
            assert ptk_bytes(applier.db, "t", k, p) == ptk_bytes(db, "t", k, p)
        db.close()

    def test_reapplying_a_batch_is_idempotent(self, tmp_path):
        db = make_primary(tmp_path)
        server = ReplicationServer(db)
        applier = ReplicaApplier()
        applier.bootstrap(server.handle_bootstrap(applier.replica_id))
        db.add("t", "x", score=1.0, probability=0.5)
        payload = server.handle_fetch(
            applier.replica_id, applier.cursor.encode()
        )
        assert applier.apply_batch(payload) == 1
        version = applier.db.table("t").version
        assert applier.apply_batch(payload) == 0  # version-gated skip
        assert applier.db.table("t").version == version
        db.close()

    def test_version_gap_raises_for_rebootstrap(self, tmp_path):
        db = make_primary(tmp_path)
        server = ReplicationServer(db)
        applier = ReplicaApplier()
        applier.bootstrap(server.handle_bootstrap(applier.replica_id))
        version = db.table("t").version
        gap = {
            "records": [
                {
                    "op": "add",
                    "table": "t",
                    "version": version + 10,
                    "tid": "gap",
                    "score": 1.0,
                    "probability": 0.5,
                    "attributes": {},
                }
            ],
            "cursor": server.end_cursor().encode(),
        }
        with pytest.raises(RecoveryError):
            applier.apply_batch(gap)
        db.close()

    def test_durable_replica_restarts_from_marker(self, tmp_path):
        db = make_primary(tmp_path)
        server = ReplicationServer(db)
        replica_dir = tmp_path / "replica"
        applier = ReplicaApplier(replica_dir, replica_id="r1")
        applier.bootstrap(server.handle_bootstrap("r1"))
        db.add("t", "x", score=1.0, probability=0.5)
        applier.apply_batch(server.handle_fetch("r1", applier.cursor.encode()))
        cursor = applier.cursor
        applier.close()

        reborn = ReplicaApplier(replica_dir)
        assert reborn.replica_id == "r1"  # identity persisted
        assert reborn.cursor == cursor
        assert reborn.db.table("t").version == db.table("t").version
        assert ptk_bytes(reborn.db, "t") == ptk_bytes(db, "t")
        reborn.close()
        db.close()

    def test_staleness_unbounded_before_first_sync(self):
        applier = ReplicaApplier()
        assert applier.staleness_seconds() is None
        assert applier.staleness()["staleness_seconds"] is None


# ----------------------------------------------------------------------
# Follower + serve layer end-to-end (loopback)
# ----------------------------------------------------------------------
def _loopback_pair(tmp_path):
    db = make_primary(tmp_path, max_segment_bytes=2048)
    papp = ServeApp(
        db, ServeConfig(window_ms=0), replication=ReplicationServer(db)
    )
    ptransport = LoopbackTransport(papp)
    applier = ReplicaApplier(replica_id="r1")
    follower = ReplicationFollower(
        applier, ServeClient(LoopbackTransport(papp)), poll_interval=0.02
    )
    follower.start()
    assert follower.wait_caught_up(20)
    rapp = ServeApp(applier.db, ServeConfig(window_ms=0), replication=applier)
    rtransport = LoopbackTransport(rapp)
    return db, ptransport, applier, follower, rtransport


class TestFollowerEndToEnd:
    def test_replicated_reads_and_staleness_protocol(self, tmp_path):
        db, ptr, applier, follower, rtr = _loopback_pair(tmp_path)
        primary, replica = ServeClient(ptr), ServeClient(rtr)
        try:
            written = primary.mutate(
                {
                    "op": "add",
                    "table": "t",
                    "tid": "live",
                    "score": 999.0,
                    "probability": 0.95,
                }
            )
            deadline = time.time() + 20
            while time.time() < deadline:
                if (
                    applier.caught_up
                    and applier.db.table("t").version >= written["version"]
                ):
                    break
                time.sleep(0.01)
            pq = primary.query("t", k=5, threshold=0.3, mode="exact")
            rq = replica.query(
                "t", k=5, threshold=0.3, mode="exact", max_staleness_s=30
            )
            assert pq["answers"] == rq["answers"]
            assert pq["probabilities"] == rq["probabilities"]
            assert rq["staleness"]["caught_up"]
            assert rq["staleness"]["staleness_seconds"] is not None

            health = replica.healthz()
            assert health["tables"] == 1  # count, unchanged shape
            meta = health["table_versions"]["t"]
            assert meta["version"] == written["version"]
            assert health["replication"]["role"] == "replica"
            assert primary.healthz()["replication"]["replicas"]
            assert replica.tables()[0]["epoch"] == meta["epoch"]

            # Staleness bound of zero: the replica cannot prove it is
            # that fresh, so the read is rejected 503 + Retry-After.
            follower.stop()
            time.sleep(0.05)
            with pytest.raises(ServeClientError) as rejected:
                replica.query("t", k=3, threshold=0.3, max_staleness_s=0.0)
            assert rejected.value.status == 503
            assert rejected.value.body["error"] == "stale-read"
            assert "staleness" in rejected.value.body
            # Unbounded requests still answer on the stale replica.
            assert replica.query("t", k=3, threshold=0.3)["answers"]
        finally:
            follower.stop()
            rtr.close()
            ptr.close()
            db.close()

    def test_primary_only_routes_and_lost_cursors(self, tmp_path):
        db, ptr, applier, follower, rtr = _loopback_pair(tmp_path)
        primary, replica = ServeClient(ptr), ServeClient(rtr)
        try:
            with pytest.raises(ServeClientError) as denied:
                replica.mutate(
                    {
                        "op": "add",
                        "table": "t",
                        "tid": "w",
                        "score": 1.0,
                        "probability": 0.5,
                    }
                )
            assert denied.value.status == 403
            with pytest.raises(ServeClientError) as denied:
                replica.bootstrap("other")
            assert denied.value.status == 403
            with pytest.raises(ServeClientError) as lost:
                primary.fetch_wal(cursor="99999:8", replica="ghost")
            assert lost.value.status == 410
            with pytest.raises(ServeClientError) as bad:
                primary.fetch_wal(cursor="nonsense", replica="ghost")
            assert bad.value.status == 400
            assert primary.replicate_status()["role"] == "primary"
            assert replica.replicate_status()["role"] == "replica"
            with pytest.raises(ServeClientError) as invalid:
                primary.mutate({"op": "add", "table": "t", "tid": "w"})
            assert invalid.value.status == 400
        finally:
            follower.stop()
            rtr.close()
            ptr.close()
            db.close()

    def test_follower_rebootstraps_after_cursor_loss(self, tmp_path):
        db, ptr, applier, follower, rtr = _loopback_pair(tmp_path)
        try:
            server = None
            for i in range(80):
                db.add("t", f"burst{i}", score=600.0 + i, probability=0.5)
            follower.stop()
            # Forget the replica so its pin lifts, then compact.
            papp_replication = ptr.app.replication
            papp_replication.forget("r1")
            db.snapshot()
            bootstraps_before = applier.bootstraps
            follower.start()
            target = db.table("t").version
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                if applier.db.table("t").version >= target:
                    break
                time.sleep(0.01)
            assert applier.bootstraps > bootstraps_before  # cursor was lost
            assert applier.db.table("t").version == db.table("t").version
            assert ptk_bytes(applier.db, "t") == ptk_bytes(db, "t")
        finally:
            follower.stop()
            rtr.close()
            ptr.close()
            db.close()


# ----------------------------------------------------------------------
# Promotion and epoch fencing
# ----------------------------------------------------------------------
class TestPromotion:
    def build_replica_dir(self, tmp_path):
        db = make_primary(tmp_path)
        server = ReplicationServer(db)
        replica_dir = tmp_path / "replica"
        applier = ReplicaApplier(replica_dir, replica_id="r1")
        applier.bootstrap(server.handle_bootstrap("r1"))
        db.add("t", "pre-failover", score=700.0, probability=0.9)
        applier.apply_batch(server.handle_fetch("r1", applier.cursor.encode()))
        applier.close()
        return db, replica_dir

    def test_promote_bumps_epochs_and_preserves_state(self, tmp_path):
        db, replica_dir = self.build_replica_dir(tmp_path)
        version = db.table("t").version
        report = promote_data_dir(replica_dir)
        assert report.new_epochs["t"] == report.old_epochs.get("t", 0) + 1
        promoted = DurableDB(replica_dir, fsync="off")
        assert promoted.table("t").version == version
        assert promoted.epochs()["t"] == report.new_epochs["t"]
        assert ptk_bytes(promoted, "t") == ptk_bytes(db, "t")
        promoted.close()
        db.close()

    def test_fencing_rejects_old_lineage_records(self, tmp_path):
        """After promotion, a register record from the dead primary's
        epoch must not supersede the promoted table."""
        db, replica_dir = self.build_replica_dir(tmp_path)
        promote_data_dir(replica_dir)
        tables, report = recover_state(replica_dir)
        epochs = dict(report.epochs)
        from repro.io.jsonio import table_to_dict

        stale = {
            "op": "register",
            "table": "t",
            "epoch": 0,  # the dead primary's lineage
            "version": tables["t"].version + 50,
            "doc": table_to_dict(db.table("t")),
        }
        assert apply_record(tables, stale, epochs) is False
        assert epochs["t"] == report.epochs["t"]
        db.close()

    def test_promote_cli(self, tmp_path, capsys):
        db, replica_dir = self.build_replica_dir(tmp_path)
        db.close()
        assert main(["replicate", "promote", str(replica_dir)]) == 0
        out = capsys.readouterr().out
        assert "promoted 1 table(s)" in out and "epoch 1 -> 2" in out
        tables, report = recover_state(replica_dir)
        assert report.epochs["t"] == 2
        assert len(tables["t"]) == len(sample_table()) + 1

    def test_promote_empty_directory_fails(self, tmp_path):
        with pytest.raises(ReplicationError):
            promote_data_dir(tmp_path / "nothing")
