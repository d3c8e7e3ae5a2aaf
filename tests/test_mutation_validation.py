"""Mutation-input validation at the UncertainDB/DurableDB boundary.

A rejected mutation must be a *non-event*: consistent exception
taxonomy (``MutationError`` under ``ValidationError``), no table state
change, no version bump, no WAL record, no dynamic-index delta.
"""

import math

import pytest

from repro.durable.db import DurableDB
from repro.exceptions import (
    DuplicateTupleError,
    InvalidProbabilityError,
    InvalidScoreError,
    MutationError,
    ReproError,
    UnknownTupleError,
    ValidationError,
)
from repro.model.table import UncertainTable
from repro.query.engine import UncertainDB


def make_db():
    db = UncertainDB()
    table = UncertainTable(name="t")
    db.register(table, name="t")
    db.add("t", "a", 10.0, 0.5)
    db.add("t", "b", 9.0, 0.4)
    return db


BAD_PROBABILITIES = [0.0, -0.25, 1.5, float("nan"), float("inf"), "0.5", None, True]
BAD_SCORES = [float("nan"), float("inf"), float("-inf"), "10", None, False]


class TestTaxonomy:
    def test_hierarchy(self):
        # One umbrella for the write path; all still ValidationErrors so
        # pre-existing callers that catch broadly keep working.
        for exc in (InvalidProbabilityError, InvalidScoreError, DuplicateTupleError):
            assert issubclass(exc, MutationError)
            assert issubclass(exc, ValidationError)
            assert issubclass(exc, ReproError)


class TestProbabilityValidation:
    @pytest.mark.parametrize("bad", BAD_PROBABILITIES)
    def test_add_rejects_bad_probability(self, bad):
        db = make_db()
        version = db.table("t").version
        with pytest.raises(InvalidProbabilityError):
            db.add("t", "c", 5.0, bad)
        assert db.table("t").version == version
        assert db.table("t").tuple_ids() == ["a", "b"]

    @pytest.mark.parametrize("bad", BAD_PROBABILITIES)
    def test_update_rejects_bad_probability(self, bad):
        db = make_db()
        version = db.table("t").version
        with pytest.raises(InvalidProbabilityError):
            db.update_probability("t", "a", bad)
        assert db.table("t").version == version
        assert db.table("t").probability("a") == 0.5

    def test_probability_just_over_one_is_clamped_not_rejected(self):
        # The documented tolerance: float noise above 1.0 clamps to 1.0.
        db = make_db()
        db.update_probability("t", "a", 1.0 + 1e-12)
        assert db.table("t").probability("a") == 1.0


class TestScoreValidation:
    @pytest.mark.parametrize("bad", BAD_SCORES)
    def test_add_rejects_bad_score(self, bad):
        db = make_db()
        version = db.table("t").version
        with pytest.raises(InvalidScoreError):
            db.add("t", "c", bad, 0.5)
        assert db.table("t").version == version

    @pytest.mark.parametrize("bad", BAD_SCORES)
    def test_update_score_rejects_bad_score(self, bad):
        db = make_db()
        version = db.table("t").version
        with pytest.raises(InvalidScoreError):
            db.update_score("t", "a", bad)
        assert db.table("t").version == version
        assert db.table("t").get("a").score == 10.0

    def test_update_score_moves_rank(self):
        db = make_db()
        db.update_score("t", "b", 20.0)
        ranked = [tup.tid for tup in db.table("t").ranked_tuples()]
        assert ranked == ["b", "a"]


#: The smallest positive integer float64 cannot hold exactly.
UNREPRESENTABLE = 2**53 + 1


class TestFloat64Scores:
    """Scores must survive float64 exactly: the tuple ranking sorts the
    exact value while the columns (snapshots, the kernel) sort its
    float64, so 2**53 and 2**53 + 1 would rank differently in each."""

    def test_table_build_rejects(self):
        table = UncertainTable(name="t")
        with pytest.raises(InvalidScoreError, match="float64"):
            table.add("x", UNREPRESENTABLE, 0.5)
        assert len(table) == 0

    def test_engine_writes_reject(self):
        db = make_db()
        version = db.table("t").version
        with pytest.raises(InvalidScoreError):
            db.add("t", "c", UNREPRESENTABLE, 0.5)
        with pytest.raises(InvalidScoreError):
            db.update_score("t", "a", UNREPRESENTABLE)
        assert db.table("t").version == version
        assert db.table("t").get("a").score == 10.0

    def test_json_load_rejects(self, tmp_path):
        from repro.io.jsonio import read_table_json

        path = tmp_path / "t.json"
        path.write_text(
            '{"name": "t", "tuples": [{"tid": "x", "score": '
            f"{UNREPRESENTABLE}" ', "probability": 0.5}]}'
        )
        with pytest.raises(InvalidScoreError):
            read_table_json(path)

    def test_csv_load_rejects(self, tmp_path):
        from repro.io.csvio import read_table_csv

        (tmp_path / "t.tuples.csv").write_text(
            f"tid,score,probability\nx,{UNREPRESENTABLE},0.5\n"
        )
        with pytest.raises(InvalidScoreError):
            read_table_csv(tmp_path / "t", name="t")

    def test_mutate_endpoint_answers_400(self):
        from repro.serve.client import (
            LoopbackTransport, ServeClient, ServeClientError,
        )
        from repro.serve.server import ServeApp, ServeConfig

        db = make_db()
        version = db.table("t").version
        app = ServeApp(db, ServeConfig(window_ms=0.0, enable_obs=False))
        with LoopbackTransport(app) as transport:
            client = ServeClient(transport)
            for payload in [
                {"op": "add", "table": "t", "tid": "c",
                 "score": UNREPRESENTABLE, "probability": 0.5},
                {"op": "score", "table": "t", "tid": "a",
                 "score": UNREPRESENTABLE},
            ]:
                with pytest.raises(ServeClientError) as err:
                    client.mutate(payload)
                assert err.value.status == 400
        assert db.table("t").version == version

    def test_live_refreshed_and_snapshot_rankings_agree(self, tmp_path):
        from repro.durable.snapshot import open_snapshot_columns, write_snapshot
        from repro.dynamic import refresh_prepared
        from repro.model.mutation import Mutation
        from repro.query.prepare import prepare_ranking
        from repro.query.topk import TopKQuery

        table = UncertainTable(name="t")
        table.add("a", 2**53, 0.5)
        table.add("c", 1, 0.5)
        prepared = prepare_ranking(table, TopKQuery(k=1))
        previous = table.version
        table.add("b", 2**53 + 2, 0.5)
        refreshed = refresh_prepared(prepared, table, Mutation(
            "t", "add", previous, table.version, tid="b",
            score=2**53 + 2, probability=0.5,
        ))
        assert refreshed is not None
        live = prepare_ranking(table, TopKQuery(k=1)).columns.tids
        snapshot = open_snapshot_columns(
            write_snapshot(table, tmp_path)
        ).ranked_columns.tids
        assert tuple(live) == ("b", "a", "c")
        assert tuple(refreshed.columns.tids) == tuple(live)
        assert tuple(snapshot) == tuple(live)


class TestDuplicateAndUnknown:
    def test_duplicate_tid_rejected(self):
        db = make_db()
        version = db.table("t").version
        with pytest.raises(DuplicateTupleError):
            db.add("t", "a", 1.0, 0.1)
        assert db.table("t").version == version
        assert db.table("t").probability("a") == 0.5

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda db: db.remove_tuple("t", "zzz"),
            lambda db: db.update_probability("t", "zzz", 0.5),
            lambda db: db.update_score("t", "zzz", 1.0),
        ],
    )
    def test_unknown_tuple_rejected(self, mutate):
        db = make_db()
        version = db.table("t").version
        with pytest.raises(UnknownTupleError):
            mutate(db)
        assert db.table("t").version == version


class TestDurableBoundary:
    """A rejected mutation must never reach the WAL: on reopen the
    recovered version equals the pre-rejection version exactly."""

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda db: db.add("d", "x0", 1.0, 0.5),  # duplicate
            lambda db: db.add("d", "y", float("nan"), 0.5),
            lambda db: db.add("d", "y", 1.0, 2.0),
            lambda db: db.update_probability("d", "x0", -1.0),
            lambda db: db.update_score("d", "x0", float("inf")),
        ],
    )
    def test_rejection_is_not_journalled(self, tmp_path, mutate):
        db = DurableDB(tmp_path, fsync="off")
        table = UncertainTable(name="d")
        db.register(table, name="d")
        db.add("d", "x0", 10.0, 0.5)
        version = db.table("d").version
        with pytest.raises(MutationError):
            mutate(db)
        assert db.table("d").version == version
        db.close()
        reopened = DurableDB(tmp_path, fsync="off")
        assert reopened.table("d").version == version
        assert reopened.table("d").tuple_ids() == ["x0"]
        reopened.close()

    def test_rejection_emits_no_dynamic_delta(self):
        db = make_db()
        db.enable_dynamic(cap=4)
        db.ptk("t", k=2, threshold=0.3)  # build the index
        applied = db.dynamic.deltas_applied
        with pytest.raises(MutationError):
            db.add("t", "a", 1.0, 0.1)
        db.ptk("t", k=2, threshold=0.3)
        assert db.dynamic.deltas_applied == applied
        assert db.dynamic.fallbacks == {}


class TestServeMapping:
    def test_mutation_errors_map_to_http_400(self):
        from repro.serve.client import LoopbackTransport, ServeClient, ServeClientError
        from repro.serve.server import ServeApp, ServeConfig

        db = make_db()
        app = ServeApp(db, ServeConfig(window_ms=0.0, enable_obs=False))
        with LoopbackTransport(app) as transport:
            client = ServeClient(transport)
            for payload in [
                {"op": "add", "table": "t", "tid": "a", "score": 1.0,
                 "probability": 0.5},  # duplicate
                {"op": "score", "table": "t", "tid": "a",
                 "score": float("nan")},
            ]:
                with pytest.raises(ServeClientError) as err:
                    client.mutate(payload)
                assert err.value.status == 400
            # protocol-level validation catches range errors even earlier
            with pytest.raises(ServeClientError) as err:
                client.mutate({"op": "update", "table": "t", "tid": "a",
                               "probability": 2.0})
            assert err.value.status == 400


@pytest.mark.parametrize("field", ["score", "probability"])
def test_mutate_refuses_attributes_named_like_the_tuple_fields(field):
    # /mutate calls the named add(name, tid, score, probability,
    # **attributes), which cannot take these two names as keywords.
    from repro.serve.client import (
        LoopbackTransport, ServeClient, ServeClientError,
    )
    from repro.serve.server import ServeApp, ServeConfig

    db = make_db()
    version = db.table("t").version
    app = ServeApp(db, ServeConfig(window_ms=0.0, enable_obs=False))
    with LoopbackTransport(app) as transport:
        client = ServeClient(transport)
        with pytest.raises(ServeClientError) as err:
            client.mutate({"op": "add", "table": "t", "tid": "c",
                           "score": 1.0, "probability": 0.5,
                           "attributes": {field: 2, "tid": 3}})
        assert err.value.status == 400
        assert err.value.body["error"] == "bad-request"
        assert f"attributes.{field}" in err.value.body["message"]
        client.mutate({"op": "add", "table": "t", "tid": "c",
                       "score": 1.0, "probability": 0.5,
                       "attributes": {"tid": 3, "name": 4}})
    assert db.table("t").version == version + 1
    assert dict(db.table("t").get("c").attributes) == {"tid": 3, "name": 4}


def test_mutate_refuses_ids_that_cannot_key_a_table():
    from repro.serve.client import (
        LoopbackTransport, ServeClient, ServeClientError,
    )
    from repro.serve.server import ServeApp, ServeConfig

    db = make_db()
    version = db.table("t").version
    app = ServeApp(db, ServeConfig(window_ms=0.0, enable_obs=False))
    with LoopbackTransport(app) as transport:
        client = ServeClient(transport)
        for payload in [
            {"op": "add", "table": "t", "tid": {"x": 1}, "score": 1.0,
             "probability": 0.5},
            {"op": "remove", "table": "t", "tid": [{"x": 1}]},
            {"op": "rule", "table": "t", "rule_id": {"g": 1},
             "members": ["a", "b"]},
            {"op": "rule", "table": "t", "rule_id": "r",
             "members": ["a", {"b": 1}]},
        ]:
            with pytest.raises(ServeClientError) as err:
                client.mutate(payload)
            assert err.value.status == 400
            assert err.value.body["error"] == "bad-request"
        assert db.table("t").version == version
        # An array id is a tuple id, for rules as for tuples.
        client.mutate({"op": "rule", "table": "t", "rule_id": ["g", 1],
                       "members": ["a", "b"]})
    assert db.table("t").rule_of("a").rule_id == ("g", 1)
