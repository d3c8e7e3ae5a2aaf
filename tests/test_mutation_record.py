"""One :class:`Mutation` record from the table to the WAL to a replica.

* the record codec: ``to_record`` / ``from_record`` write and read the
  WAL's keys, and a table write's applied copy is what refresh reads;
* old logs still replay: ``tests/data/wal_parent`` holds a segment the
  previous release journalled through its named writes
  (``write_history.py`` there); recovery rebuilds it, and journalling
  the same history through ``DurableDB.apply`` writes the same records;
* tuple attributes named like the write's own fields (``score``,
  ``probability``, ``tid``, ``name``) round-trip through the stream
  window, the WAL and recovery, a replica, a snapshot, and an x-tuple
  table.
"""

import shutil
from pathlib import Path

import pytest

from repro.durable import DurableDB
from repro.durable import wal as wal_mod
from repro.durable.recover import recover_state
from repro.durable.snapshot import read_snapshot, write_snapshot
from repro.exceptions import ValidationError
from repro.model.mutation import FIELDS, Mutation
from repro.model.table import UncertainTable
from repro.model.tuples import UncertainTuple
from repro.replication.replica import ReplicaApplier
from repro.stream.window import SlidingWindowPTK

PARENT_WAL = Path(__file__).parent / "data" / "wal_parent"

#: Attribute names that collide with a write's own fields.
CLASHING = {"score": "s", "probability": "p", "tid": "t", "name": "n"}


class TestCodec:
    RECORDS = [
        {"op": "add", "table": "t", "version": 3, "tid": ["x", 1],
         "score": 1.5, "probability": 0.5, "attributes": {"score": 2}},
        {"op": "rule", "table": "t", "version": 4, "rule_id": ["g", 1],
         "members": ["a", ["x", 1]]},
        {"op": "join", "table": "t", "version": 5, "rule_id": "r1",
         "tid": "b"},
        {"op": "remove", "table": "t", "version": 6, "tid": "a"},
        {"op": "update", "table": "t", "version": 7, "tid": "b",
         "probability": 0.25},
        {"op": "score", "table": "t", "version": 8, "tid": "b",
         "score": 9.0},
    ]

    def test_records_round_trip(self):
        assert [r["op"] for r in self.RECORDS] == list(FIELDS)
        for record in self.RECORDS:
            mutation = Mutation.from_record(record)
            assert mutation.previous_version == record["version"] - 1
            assert mutation.to_record() == record

    def test_tids_decode_to_tuples(self):
        add, rule = (Mutation.from_record(r) for r in self.RECORDS[:2])
        assert add.tid == ("x", 1)
        assert rule.members == ("a", ("x", 1)) and rule.rule_id == ("g", 1)

    def test_tuple_rule_id_survives_the_wal_and_a_snapshot(self, tmp_path):
        db = DurableDB(tmp_path, fsync="off")
        table = UncertainTable(name="t")
        table.add("a", 1.0, 0.3)
        table.add("b", 2.0, 0.3)
        db.register(table)
        db.add_exclusive("t", ("g", 1), "a", "b")
        db.close()
        tables, _ = recover_state(tmp_path)
        assert tables["t"].rule_of("a").rule_id == ("g", 1)
        loaded, _ = read_snapshot(write_snapshot(tables["t"], tmp_path))
        assert loaded.rule_of("b").rule_id == ("g", 1)

    def test_applied_copy_carries_what_the_write_touched(self):
        table = UncertainTable(name="t")
        add = table.apply(Mutation("t", "add", tid="a", score=3,
                                   probability=1.0 + 1e-12))
        assert (add.previous_version, add.version) == (0, 1)
        assert add.probability == 1.0  # the stored, clamped value
        table.add("b", 2.0, 0.5)
        table.apply(Mutation("t", "update", tid="a", probability=0.25))
        moved = table.apply(Mutation("t", "score", tid="a", score=7.0))
        assert (moved.score, moved.old_score) == (7.0, 3)
        table.add("c", 1.0, 0.25)
        rule = table.apply(Mutation("t", "rule", rule_id="r", members=["a", "b"]))
        assert rule.members == ("a", "b")
        join = table.apply(Mutation("t", "join", rule_id="r", tid="c"))
        assert join.members == ("c",) and join.to_record()["tid"] == "c"
        removed = table.apply(Mutation("t", "remove", tid="b"))
        assert removed.old_score == 2.0 and removed.version == table.version

    def test_rejected_write_changes_nothing(self):
        table = UncertainTable(name="t")
        table.add("a", 1.0, 0.7)
        table.add("b", 2.0, 0.7)
        version = table.version
        for bad in (
            Mutation("t", "rule", rule_id="r", members=("a", "b")),
            Mutation("t", "join", rule_id="nope", tid="a"),
            Mutation("t", "truncate"),
        ):
            with pytest.raises(ValidationError):
                table.apply(bad)
        assert table.version == version and not table.multi_rules()


# ----------------------------------------------------------------------
# A journal the previous release wrote
# ----------------------------------------------------------------------
def history_through_apply(db):
    """``write_history.py``'s history, each write one Mutation through
    ``DurableDB.apply``."""
    table = UncertainTable(name="sightings")
    table.add("a", 10.0, 0.5)
    table.add(("pair", 1), 8.0, 0.3)
    db.register(table)
    for mutation in (
        Mutation("sightings", "add", tid="b", score=9.5, probability=0.25,
                 attributes={"tid": "b-outer", "name": "north",
                             "colour": "red"}),
        Mutation("sightings", "add", tid="c", score=7.0, probability=0.2),
        Mutation("sightings", "rule", rule_id="r1", members=("b", "c")),
        Mutation("sightings", "add", tid="d", score=6.0, probability=0.1),
        Mutation("sightings", "join", rule_id="r1", tid="d"),
        Mutation("sightings", "update", tid="a", probability=0.75),
        Mutation("sightings", "score", tid=("pair", 1), score=11.0),
        Mutation("sightings", "remove", tid="c"),
    ):
        db.apply(mutation)
    db.note_served("sightings", 2)
    dropped = UncertainTable(name="scratch")
    dropped.add("x", 3.0, 0.6)
    db.register(dropped)
    db.apply(Mutation("scratch", "add", tid="w", score=4.0, probability=0.5))
    db.drop("scratch")
    replacement = UncertainTable(name="scratch")
    replacement.add("z", 1.0, 0.9)
    db.register(replacement)
    db.apply(Mutation("scratch", "add", tid="y", score=2.0, probability=0.4))
    db.close()


class TestParentJournal:
    def test_recovers(self, tmp_path):
        shutil.copytree(PARENT_WAL / "wal", tmp_path / "wal")
        tables, report = recover_state(tmp_path)
        assert report.replayed == 14 and report.skipped == 0
        assert report.tables == {"sightings": 10, "scratch": 2}
        assert report.epochs == {"sightings": 1, "scratch": 2}
        assert report.serve_keys == [("sightings", 2, None)]
        sightings = tables["sightings"]
        assert [
            (t.tid, t.score, t.probability) for t in sightings
        ] == [
            ("a", 10.0, 0.75), (("pair", 1), 11.0, 0.3),
            ("b", 9.5, 0.25), ("d", 6.0, 0.1),
        ]
        assert dict(sightings.get("b").attributes) == {
            "tid": "b-outer", "name": "north", "colour": "red",
        }
        assert sightings.rule_of("d").tuple_ids == ("b", "d")
        assert tables["scratch"].tuple_ids() == ["z", "y"]

    def test_apply_journals_the_same_records(self, tmp_path):
        history_through_apply(DurableDB(tmp_path, fsync="off"))
        parent, _, _ = wal_mod.replay_wal(PARENT_WAL / "wal")
        written, _, _ = wal_mod.replay_wal(tmp_path / "wal")
        assert written == parent


# ----------------------------------------------------------------------
# Attributes named like the write's fields
# ----------------------------------------------------------------------
def clashing_table():
    table = UncertainTable(name="t")
    table.add_tuple(UncertainTuple("old", 5.0, 0.5, dict(CLASHING)))
    return table


def assert_clashing(table, tids=("old", "new")):
    for tid in tids:
        assert dict(table.get(tid).attributes) == CLASHING


ADD_CLASHING = Mutation("t", "add", tid="new", score=4.0, probability=0.5,
                        attributes=CLASHING)


class TestClashingAttributes:
    def test_window(self):
        window = SlidingWindowPTK(k=1, threshold=0.1, window_size=2)
        window.append(UncertainTuple("new", 4.0, 0.5, CLASHING), rule_tag="g")
        window.append(UncertainTuple("old", 5.0, 0.3, CLASHING), rule_tag="g")
        assert_clashing(window.snapshot_table())
        assert window.answer().answers == ["old", "new"]

    def test_wal_and_recovery(self, tmp_path):
        db = DurableDB(tmp_path, fsync="off")
        db.register(clashing_table())
        db.apply(ADD_CLASHING)
        db.close()
        tables, report = recover_state(tmp_path)
        assert report.tables == {"t": 2}
        assert_clashing(tables["t"])

    def test_caught_up_replica(self, tmp_path):
        db = DurableDB(tmp_path, fsync="off")
        db.register(clashing_table())
        db.apply(ADD_CLASHING)
        db.close()
        records, _, _ = wal_mod.replay_wal(tmp_path / "wal")
        replica = ReplicaApplier()
        replica.apply_batch({"records": records, "caught_up": True})
        assert replica.caught_up
        assert_clashing(replica.db.table("t"))
        assert replica.db.table("t").version == 2

    def test_snapshot(self, tmp_path):
        table = clashing_table()
        table.apply(ADD_CLASHING)
        loaded, _ = read_snapshot(write_snapshot(table, tmp_path))
        assert_clashing(loaded)

    def test_xtuples(self):
        from repro.model.xtuples import XTuple, table_from_xtuples

        table = table_from_xtuples([XTuple("e", [(1.0, 0.5)], CLASHING)])
        assert {k: v for k, v in table.get("e#0").attributes.items()
                if k in CLASHING} == CLASHING
