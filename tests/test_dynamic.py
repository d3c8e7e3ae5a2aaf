"""The incremental PT-k index (:mod:`repro.dynamic`).

The load-bearing contract is *byte* equality: every incremental answer
must be bit-for-bit identical to a cold recompute of the current table
— same ``Pr^k`` doubles, same answer set, same order.  These tests pin
that contract per mutation kind, across suffix restarts, through the
registry's fallback policy, and end to end through the serve layer.

A preparation's warm-scan store prices its columns; :func:`advance`
moves a preparation across one write the way the prepare cache does (a
refresh, or a cold re-prepare where the refresh declines), handing the
store on, and :func:`read_column` reads it on the new columns.
"""

import json
import random
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.exact import exact_ptk_query
from repro.core.kernel import TableColumns, columnar_topk_scan
from repro.core.rule_compression import rule_index_of_table
from repro.dynamic import refresh_prepared
from repro.exceptions import QueryError, ReproError
from repro.model.mutation import Mutation
from repro.model.table import UncertainTable
from repro.query.engine import UncertainDB
from repro.query.prepare import prepare_ranking
from repro.query.topk import TopKQuery
from tests.test_columnar_read import bits, cold
from tests.test_kernel import random_table


def cold_probabilities(table, k):
    """The cold columnar scan's (tids, Pr^k) for the current table."""
    ranked = table.ranked_tuples()
    columns = TableColumns.from_ranked(ranked, rule_index_of_table(table))
    out, _ = columnar_topk_scan(columns.probability, columns.rule_index, k)
    return columns.tids, out


def advance(prepared, table, delta):
    """The preparation after ``delta``: refreshed, or cold on a decline,
    holding ``prepared``'s warm scans."""
    refreshed = refresh_prepared(prepared, table, delta)
    later = refreshed or prepare_ranking(table, TopKQuery(k=1))
    return later.carry_scans(prepared)


def build_index(table):
    """A cold preparation of ``table``, its warm-scan store empty."""
    return prepare_ranking(table, TopKQuery(k=1))


def read_column(prepared, k):
    """The full ``Pr^k`` column from ``prepared``'s warm scan at ``k``."""
    return prepared.index.topk_probabilities(prepared.columns, k)


class MutationDriver:
    """Random mutation generator: every op is drawn as one
    :class:`Mutation` through ``db.apply`` (a private engine over
    ``table`` unless ``db`` is given), whose applied copy is the delta."""

    def __init__(self, table, seed=0, name="t", db=None):
        self.table = table
        self.name = name
        if db is None:
            db = UncertainDB()
            db.register(table, name=name)
        self.db = db
        self.rng = random.Random(seed)
        self.next_tid = 0
        self.next_rule = 0

    def seed_tuples(self, n):
        deltas = []
        for _ in range(n):
            delta = self.emit("add")
            if delta is not None:
                deltas.append(delta)
        return deltas

    def draw(self, op):
        """The op as a Mutation against the current table, or None."""
        rng, table = self.rng, self.table
        if op == "add":
            tid = f"t{self.next_tid}"
            self.next_tid += 1
            score = rng.choice(
                [rng.uniform(0, 100), float(rng.randint(0, 20))]
            )
            return Mutation(self.name, "add", tid=tid, score=score,
                            probability=rng.uniform(0.05, 1.0))
        if op == "remove":
            return Mutation(self.name, "remove",
                            tid=rng.choice(table.tuple_ids()))
        if op == "update":
            tid = rng.choice(table.tuple_ids())
            return Mutation(self.name, "update", tid=tid,
                            probability=rng.uniform(0.05, 1.0))
        if op == "score":
            tid = rng.choice(table.tuple_ids())
            score = rng.choice(
                [rng.uniform(0, 100), float(rng.randint(0, 20))]
            )
            return Mutation(self.name, "score", tid=tid, score=score)
        free = [t for t in table.tuple_ids() if table.is_independent(t)]
        if op == "join":
            rules = table.multi_rules()
            if not rules or not free:
                return None
            rid, tid = rng.choice(rules).rule_id, rng.choice(free)
            return Mutation(self.name, "join", rule_id=rid, tid=tid)
        if len(free) < 2:
            return None
        members = rng.sample(free, rng.randint(2, min(4, len(free))))
        rid = f"r{self.next_rule}"
        self.next_rule += 1
        return Mutation(self.name, "rule", rule_id=rid, members=tuple(members))

    def emit(self, op):
        mutation = self.draw(op)
        if mutation is None:
            return None
        try:
            return self.db.apply(mutation)
        except ReproError:
            return None  # table rejected it (rule sum > 1, ...) — no delta

    def random_op(self):
        ops = (["add"] * 4 + ["remove"] * 2 + ["update"] * 4
               + ["score"] * 3 + ["rule"] * 2 + ["join"] * 2)
        if len(self.table) < 3:
            return self.emit("add")
        return self.emit(self.rng.choice(ops))


class TestByteEquality:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_every_mutation_kind_stays_bitwise_cold(self, seed, k):
        table = UncertainTable(name="t")
        driver = MutationDriver(table, seed=seed)
        driver.seed_tuples(25)
        prepared = build_index(table)
        for step in range(80):
            delta = driver.random_op()
            if delta is None:
                continue
            prepared = advance(prepared, table, delta)
            tids, out = cold_probabilities(table, k)
            assert tuple(prepared.columns.tids) == tids, (
                f"order differs at step {step}"
            )
            dyn = read_column(prepared, k)
            assert np.array_equal(out, dyn), (
                f"step {step}: {np.flatnonzero(out != dyn)[:5]}"
            )

    def test_crossing_checkpoint_blocks(self):
        # n > BLOCK exercises snapshot truncation and mid-run restores
        from repro.dynamic.index import BLOCK

        table = UncertainTable(name="t")
        driver = MutationDriver(table, seed=42)
        driver.seed_tuples(BLOCK + 40)
        prepared = build_index(table)
        for _ in range(30):
            delta = driver.random_op()
            if delta is None:
                continue
            prepared = advance(prepared, table, delta)
        tids, out = cold_probabilities(table, 3)
        assert tuple(prepared.columns.tids) == tids
        assert np.array_equal(out, read_column(prepared, 3))

    def test_suffix_restart_is_localised(self):
        # Mutating the worst-ranked tuple must not re-evaluate the prefix.
        table = UncertainTable(name="t")
        for i in range(200):
            table.add(f"t{i}", float(1000 - i), 0.5)
        prepared = build_index(table)
        scan = prepared.index.scan(prepared.columns, 1)
        prev = table.version
        table.update_probability("t199", 0.9)
        suffix = scan.follow(advance(
            prepared, table, Mutation("t", "update", prev, table.version,
                                        tid="t199", probability=0.9)).columns)
        assert suffix <= 2


class TestIndexContracts:
    def test_index_serves_exactly_its_k(self):
        # One scan per k: each column is bitwise the cold scan at its
        # own k, never a slice of a wider one.
        table = UncertainTable(name="t")
        for i in range(10):
            table.add(f"t{i}", float(10 - i), 0.5)
        prepared = build_index(table)
        for k in (3, 2):
            _, out = cold_probabilities(table, k)
            assert np.array_equal(out, read_column(prepared, k))
        assert sorted(prepared.index.scans) == [2, 3]

    def test_apply_skips_versions(self):
        # apply needs no delta chain: a preparation several writes ahead,
        # built cold, moves the scans as well as one refresh at a time.
        table = UncertainTable(name="t")
        for i in range(40):
            table.add(f"t{i}", float(40 - i), 0.1 + 0.02 * i)
        prepared = build_index(table)
        read_column(prepared, 2)
        table.update_probability("t30", 0.9)
        table.update_score("t35", 100.0)
        table.remove_tuple("t10")
        later = prepare_ranking(table, TopKQuery(k=1)).carry_scans(prepared)
        suffix = later.index.scan(later.columns, 2).follow(later.columns)
        assert suffix == len(table)  # the moved tuple now ranks first
        tids, out = cold_probabilities(table, 2)
        assert tuple(later.columns.tids) == tids
        assert np.array_equal(out, read_column(later, 2))

    def test_score_collision_refused_before_mutation(self):
        table = UncertainTable(name="t")
        table.add("a", 10.0, 0.5)
        table.add("b", 9.0, 0.5)
        prepared = build_index(table)
        prev = table.version
        table.update_score("b", 10.0)  # collides with ("a", 10.0)? no —
        # sort key is (-score, str(tid)); same score, different tid is
        # fine.  A true collision needs the same tid key too, which two
        # distinct tuples cannot have — so moving onto an equal score
        # must be *supported*:
        prepared = advance(prepared, table, Mutation(
            "t", "score", prev, table.version, tid="b", score=10.0,
            old_score=9.0))
        tids, out = cold_probabilities(table, 1)
        assert tuple(prepared.columns.tids) == tids
        assert np.array_equal(out, read_column(prepared, 1))


class TestRegistry:
    def build_db(self, n=20, dynamic=True):
        db = UncertainDB()
        table = UncertainTable(name="t")
        for i in range(n):
            table.add(f"t{i}", float(n - i), 0.4)
        db.register(table, name="t")
        if dynamic:
            db.enable_dynamic()
        return db

    def test_engine_answers_match_exact_engine(self):
        db = self.build_db()
        answer = db.ptk("t", k=4, threshold=0.3)
        assert answer.method == "dynamic"
        cold = exact_ptk_query(db.table("t"), TopKQuery(k=4), 0.3)
        assert answer.answers == cold.answers
        for tid in answer.answers:
            assert answer.probabilities[tid] == cold.probabilities[tid]
        assert len(answer.probabilities) == answer.stats.scan_depth
        # The full-scan sentinel: every Pr^k, no answers, whole depth.
        full = db.ptk("t", k=4, threshold=0.0)
        assert full.method == "dynamic"
        cold = exact_ptk_query(db.table("t"), TopKQuery(k=4), 0.0)
        assert full.answers == cold.answers == []
        assert full.probabilities == cold.probabilities
        assert full.stats.scan_depth == cold.stats.scan_depth == 20
        assert full.stats.stopped_by == cold.stats.stopped_by == "exhausted"
        # With the index off, db.ptk is the columnar read: dynamic on and
        # off agree bitwise, stop reason included.
        stops = set()
        for n, shapes in (
            (20, [(4, 0.3), (2, 0.5), (8, 0.1), (4, 0.0)]),
            (2000, [(5, 0.3), (20, 0.3), (50, 0.3)]),
        ):
            on = self.build_db(n=n)
            off = self.build_db(n=n, dynamic=False)
            for k, threshold in shapes:
                got = on.ptk("t", k=k, threshold=threshold)
                want = off.ptk("t", k=k, threshold=threshold)
                assert got.method == "dynamic"
                assert got.answers == want.answers
                assert got.probabilities == want.probabilities
                assert got.stats.scan_depth == want.stats.scan_depth
                assert got.stats.stopped_by == want.stats.stopped_by
                stops.add(got.stats.stopped_by)
        assert stops == {"total-probability", "exhausted"}

    def test_reads_bill_the_rows_they_priced(self):
        # A cold dynamic read bills what the columnar engine bills for
        # the same read (the rows it priced, whole chunks); a warm read
        # of the same scan prices nothing and bills 0.
        on = self.build_db(n=2000)
        off = self.build_db(n=2000, dynamic=False)
        cold = on.ptk("t", k=10, threshold=0.3)
        want = off.ptk("t", k=10, threshold=0.3)
        assert cold.method == "dynamic"
        assert cold.stats.scan_depth == want.stats.scan_depth
        assert cold.stats.tuples_evaluated == want.stats.tuples_evaluated
        assert cold.stats.tuples_evaluated > cold.stats.scan_depth
        warm = on.ptk("t", k=10, threshold=0.3)
        assert warm.stats.tuples_evaluated == 0

    def test_mutations_flow_through_deltas(self):
        db = self.build_db()
        db.ptk("t", k=3, threshold=0.3)
        db.add("t", "new", 99.0, 0.9)
        db.update_score("t", "t5", 120.0)
        db.update_probability("t", "t2", 0.95)
        db.remove_tuple("t", "t7")
        db.add_exclusive("t", "r0", "t10", "t11")
        answer = db.ptk("t", k=3, threshold=0.3)
        assert answer.method == "dynamic"
        assert db.dynamic.deltas_applied == 5
        assert db.dynamic.fallbacks == {}
        cold = exact_ptk_query(db.table("t"), TopKQuery(k=3), 0.3)
        assert answer.answers == cold.answers
        for tid, probability in answer.probabilities.items():
            assert cold.probabilities.get(tid, probability) == probability

    def test_direct_table_write_detected_as_stale(self):
        db = self.build_db()
        db.ptk("t", k=2, threshold=0.3)
        # bypass the engine: the version advances with no delta, the
        # prepare cache purges the stale preparation and re-prepares
        # cold, taking the stale entry's scans over
        db.table("t").update_probability("t0", 0.9)
        answer = db.ptk("t", k=2, threshold=0.3)
        assert answer.method == "dynamic"
        assert db.dynamic.fallbacks == {}
        assert db.dynamic.deltas_applied == 1
        cold = exact_ptk_query(db.table("t"), TopKQuery(k=2), 0.3)
        assert answer.answers == cold.answers

    def test_drop_and_reregister_under_new_epoch(self):
        db = self.build_db()
        db.ptk("t", k=2, threshold=0.3)
        db.drop("t")
        replacement = UncertainTable(name="t")
        replacement.add("z", 1.0, 0.5)
        db.register(replacement, name="t")
        answer = db.ptk("t", k=2, threshold=0.3)
        assert answer.method == "dynamic"
        assert answer.answers == ["z"]

    def test_stats_shape(self):
        db = self.build_db()
        db.ptk("t", k=2, threshold=0.3)
        stats = db.dynamic.stats()
        assert stats["tables"]["t"]["indexes"][2]["n"] == 20
        assert stats["reads"] == {"index": 0, "rebuild": 1}


class TestInputValidation:
    BAD = [(5, 1.5), (5, -0.2), (5, float("nan")), (0, 0.5), (-1, 0.5)]

    @staticmethod
    def error_of(db, k, threshold):
        with pytest.raises(ReproError) as caught:
            db.ptk("t", k=k, threshold=threshold)
        return type(caught.value), str(caught.value)

    @pytest.mark.parametrize("dynamic", [False, True])
    @pytest.mark.parametrize("k, threshold", BAD)
    def test_bad_input_raises_like_the_engine(self, dynamic, k, threshold):
        db = TestRegistry().build_db(n=200)
        plain = UncertainDB()
        plain.register(db.table("t"), name="t")
        db = db if dynamic else plain
        assert (db.dynamic is not None) == dynamic
        expected = self.error_of(plain, k, threshold)
        assert expected[0] is QueryError
        assert self.error_of(db, k, threshold) == expected


class TestPrepareRefresh:
    def run_refresh(self, mutate, op_fields):
        table = UncertainTable(name="t")
        for i in range(12):
            table.add(f"t{i}", float(12 - i), 0.4)
        prepared = prepare_ranking(table, TopKQuery(k=3))
        prev = table.version
        mutate(table)
        delta = Mutation("t", previous_version=prev,
                           version=table.version, **op_fields)
        refreshed = refresh_prepared(prepared, table, delta)
        assert refreshed is not None
        oracle = prepare_ranking(table, TopKQuery(k=3))
        assert [t.tid for t in refreshed.ranked] == [
            t.tid for t in oracle.ranked
        ]
        assert refreshed.source_version == table.version
        assert dict(refreshed.rule_probability) == dict(
            oracle.rule_probability
        )

    def test_add(self):
        self.run_refresh(
            lambda t: t.add("new", 6.5, 0.7),
            {"op": "add", "tid": "new", "score": 6.5, "probability": 0.7},
        )

    def test_remove(self):
        self.run_refresh(
            lambda t: t.remove_tuple("t4"),
            {"op": "remove", "tid": "t4", "old_score": 8.0},
        )

    def test_score_move(self):
        self.run_refresh(
            lambda t: t.update_score("t9", 11.5),
            {"op": "score", "tid": "t9", "score": 11.5, "old_score": 3.0},
        )

    def test_missing_old_score_declines(self):
        # Without the old score the old rank is unknown: refuse, so the
        # entry is re-prepared cold.
        table = UncertainTable(name="t")
        for i in range(5):
            table.add(f"t{i}", float(5 - i), 0.4)
        prepared = prepare_ranking(table, TopKQuery(k=1))
        prev = table.version
        table.remove_tuple("t2")
        delta = Mutation("t", "remove", prev, table.version, tid="t2")
        assert refresh_prepared(prepared, table, delta) is None

    def test_version_mismatch_declines(self):
        table = UncertainTable(name="t")
        table.add("a", 1.0, 0.5)
        prepared = prepare_ranking(table, TopKQuery(k=1))
        table.update_probability("a", 0.6)
        table.update_probability("a", 0.7)
        stale = Mutation("t", "update", table.version - 1, table.version,
                           tid="a", probability=0.7)
        # prepared is two versions behind: surgery must refuse
        assert refresh_prepared(prepared, table, stale) is None

    def test_cache_refresh_keeps_entry_warm(self):
        db = UncertainDB()
        table = UncertainTable(name="t")
        for i in range(10):
            table.add(f"t{i}", float(10 - i), 0.4)
        db.register(table, name="t")
        db.ptk("t", k=2, threshold=0.3)
        before = db.prepare_cache.stats()
        db.add("t", "new", 99.0, 0.9)
        db.ptk("t", k=2, threshold=0.3)
        after = db.prepare_cache.stats()
        # the post-mutation read hit the refreshed entry: no new miss
        assert after.misses == before.misses
        assert after.hits == before.hits + 1


class TestDeltaCodec:
    def test_wal_record_round_trip(self):
        from repro.durable.wal import encode_tid

        records = [
            {"op": "add", "table": "t", "version": 3, "tid": encode_tid("x"),
             "score": 1.5, "probability": 0.5, "attributes": {}},
            {"op": "remove", "table": "t", "version": 4,
             "tid": encode_tid("x")},
            {"op": "update", "table": "t", "version": 5,
             "tid": encode_tid("y"), "probability": 0.25},
            {"op": "score", "table": "t", "version": 6,
             "tid": encode_tid("y"), "score": 9.0},
            {"op": "rule", "table": "t", "version": 7, "rule_id": "r1",
             "members": [encode_tid("a"), encode_tid("b")]},
        ]
        for record in records:
            delta = Mutation.from_record(record)
            assert delta is not None
            assert delta.op == record["op"]
            assert delta.version == record["version"]
            assert delta.previous_version == record["version"] - 1
        assert Mutation.from_record({"op": "register", "table": "t"}) is None
        assert Mutation.from_record({"op": "serve", "table": "t"}) is None


class TestServeIntegration:
    def build_app(self, **config):
        from repro.serve.server import ServeApp, ServeConfig

        db = UncertainDB()
        table = UncertainTable(name="demo")
        for i in range(25):
            table.add(f"t{i}", float(100 - i), 0.2 + 0.01 * i)
        db.register(table, name="demo")
        config.setdefault("window_ms", 0.0)
        config.setdefault("dynamic", True)
        return db, ServeApp(db, ServeConfig(**config))

    def test_mutate_then_read_serves_from_index(self):
        from repro import obs
        from repro.serve.client import LoopbackTransport, ServeClient

        db, app = self.build_app()
        try:
            with LoopbackTransport(app) as transport:
                client = ServeClient(transport)
                first = client.query(table="demo", k=3, threshold=0.15)
                assert first["mode"] == "dynamic"
                client.mutate({"op": "add", "table": "demo", "tid": "hot",
                               "score": 500.0, "probability": 0.9})
                client.mutate({"op": "score", "table": "demo", "tid": "t5",
                               "score": 600.0})
                second = client.query(table="demo", k=3, threshold=0.15)
                assert second["mode"] == "dynamic"
                cold = exact_ptk_query(db.table("demo"), TopKQuery(k=3), 0.15)
                assert second["answers"] == [str(t) for t in cold.answers]
                health = client.healthz()
                assert health["dynamic"]["deltas_applied"] == 2
                assert health["dynamic"]["fallbacks"] == {}
                # explicit sampling keeps its semantics
                sampled = client.query(table="demo", k=3, threshold=0.15,
                                       mode="sampled", sample_budget=200)
                assert sampled["mode"] == "sampled"
                # every k reads the warm scans, however large
                big = client.query(table="demo", k=20, threshold=0.15)
                assert big["mode"] == "dynamic"
        finally:
            obs.disable()

    def test_dynamic_read_after_write_walks_no_tuples(self, monkeypatch):
        # The writes refresh the preparation; the read after them must
        # neither compute planner statistics nor walk tuple objects.
        from repro import obs
        from repro.model.statistics import TableStatistics
        from repro.model.tuples import UncertainTuple
        from repro.query.prepare import PreparedRanking
        from repro.serve.client import LoopbackTransport, ServeClient

        def forbidden(*args, **kwargs):  # pragma: no cover
            raise AssertionError(
                "a dynamic read must not compute statistics or walk tuples"
            )

        db, app = self.build_app()
        try:
            with LoopbackTransport(app) as transport:
                client = ServeClient(transport)
                client.query(table="demo", k=3, threshold=0.15)
                client.mutate({"op": "score", "table": "demo", "tid": "t5",
                               "score": 600.0})
                client.mutate({"op": "remove", "table": "demo",
                               "tid": "t7"})
                with monkeypatch.context() as patch:
                    patch.setattr(TableStatistics, "from_columns",
                                  classmethod(forbidden))
                    patch.setattr(PreparedRanking, "statistics",
                                  property(forbidden))
                    patch.setattr(PreparedRanking, "ranked",
                                  property(forbidden))
                    patch.setattr(UncertainTable, "__iter__", forbidden)
                    patch.setattr(UncertainTuple, "__init__", forbidden)
                    answer = client.query(table="demo", k=3, threshold=0.15)
                assert answer["mode"] == "dynamic"
                cold = exact_ptk_query(db.table("demo"), TopKQuery(k=3), 0.15)
                assert answer["answers"] == [str(t) for t in cold.answers]
        finally:
            obs.disable()

    def test_planned_read_after_write_plans_on_current_statistics(
        self, monkeypatch
    ):
        from repro import obs
        from repro.model.statistics import collect_statistics
        from repro.serve import server
        from repro.serve.client import LoopbackTransport, ServeClient

        planned = []
        real = server.estimate_latency

        def spy(*args, statistics=None, **kwargs):
            planned.append(statistics)
            return real(*args, statistics=statistics, **kwargs)

        monkeypatch.setattr(server, "estimate_latency", spy)
        db, app = self.build_app(dynamic=False)
        db.add_exclusive("demo", "r0", "t1", "t2", "t3")
        try:
            with LoopbackTransport(app) as transport:
                client = ServeClient(transport)
                client.query(table="demo", k=3, threshold=0.15)
                for write in (
                    {"op": "score", "tid": "t5", "score": 600.0},
                    {"op": "remove", "tid": "t2"},
                    {"op": "update", "tid": "t9", "probability": 0.9},
                    {"op": "add", "tid": "new", "score": 50.5,
                     "probability": 0.35},
                ):
                    client.mutate({"table": "demo", **write})
                del planned[:]
                client.query(table="demo", k=3, threshold=0.15)
        finally:
            obs.disable()
        [statistics] = planned
        expected = collect_statistics(db.table("demo"))
        for name, value in vars(expected).items():
            if isinstance(value, float):
                assert getattr(statistics, name) == pytest.approx(
                    value, rel=0, abs=1e-12
                ), name
            else:
                assert getattr(statistics, name) == value, name
        assert statistics.n_rules == 1 and statistics.max_rule_size == 2

    def test_plain_server_accepts_writes_without_replication(self):
        from repro import obs
        from repro.serve.client import LoopbackTransport, ServeClient

        _, app = self.build_app(dynamic=False)
        try:
            with LoopbackTransport(app) as transport:
                client = ServeClient(transport)
                out = client.mutate({"op": "remove", "table": "demo",
                                     "tid": "t3"})
                assert out["version"] > 0
        finally:
            obs.disable()

    def test_dynamic_profile_block_lands_in_flight_recorder(self):
        from repro import obs
        from repro.serve.client import LoopbackTransport, ServeClient

        _, app = self.build_app()
        try:
            with LoopbackTransport(app) as transport:
                client = ServeClient(transport)
                client.query(table="demo", k=3, threshold=0.15)
                debug = client._json("GET", "/debug/queries")
                dynamic = [p for p in debug["profiles"]
                           if p.get("mode") == "dynamic"]
                assert dynamic
                block = dynamic[-1]["dynamic"]
                assert block["indexes"] == [3]
                assert "reads" in block and "fallbacks" in block
        finally:
            obs.disable()


    def test_dynamic_item_records_its_scan_fields(self):
        from repro import obs
        from repro.serve.client import LoopbackTransport, ServeClient

        db, app = self.build_app()
        try:
            with LoopbackTransport(app) as transport:
                client = ServeClient(transport)
                result = client.query(table="demo", k=3, threshold=0.15)
                debug = client._json("GET", "/debug/queries")
        finally:
            obs.disable()
        assert result["mode"] == "dynamic"
        profile = [p for p in debug["profiles"] if p.get("mode") == "dynamic"][-1]
        cold = exact_ptk_query(
            db.table("demo"), TopKQuery(k=3), 0.15, columnar=True
        )
        assert profile["scan_depth"] == cold.stats.scan_depth
        assert profile["tuples_evaluated"] == cold.stats.tuples_evaluated
        assert profile["stopped_by"] == cold.stats.stopped_by


class TestWriteReadOrdering:
    """``POST /mutate`` runs on the event-loop thread while reads run on
    executor threads.  Each test injects a write into the middle of a
    read's table snapshot: the snapshot step starts the write on another
    thread and waits until it lands or 0.3 s pass.  The table lock must
    hold the write off until the snapshot is done."""

    def build_app(self, dynamic):
        return TestServeIntegration().build_app(dynamic=dynamic)

    @staticmethod
    def inject_write(table, client):
        before = table.version
        writer = threading.Thread(target=client.mutate, args=({
            "op": "add", "table": "demo", "tid": "late",
            "score": 500.0, "probability": 0.9,
        },))
        writer.start()
        deadline = time.monotonic() + 0.3
        while table.version == before and time.monotonic() < deadline:
            time.sleep(0.001)
        return writer

    def test_index_build_never_pairs_old_tuples_with_new_version(
        self, monkeypatch
    ):
        from repro import obs
        from repro.serve.client import LoopbackTransport, ServeClient

        from repro.query.ranking import RankingFunction

        db, app = self.build_app(dynamic=True)
        table = db.table("demo")
        writers = []
        real_rank_table = RankingFunction.rank_table

        def rank_table(ranking, selected):
            # The index is built over the preparation, and
            # prepare_ranking reads the version, then ranks the tuples.
            if not writers:
                writers.append(self.inject_write(table, client))
            return real_rank_table(ranking, selected)

        monkeypatch.setattr(RankingFunction, "rank_table", rank_table)
        try:
            with LoopbackTransport(app) as transport:
                client = ServeClient(transport)
                client.query(table="demo", k=3, threshold=0.15)
                writers[0].join(timeout=10)
                assert not writers[0].is_alive()
                answer = client.query(table="demo", k=3, threshold=0.15)
        finally:
            obs.disable()
        # Responses round Pr^k; the engine read of the same index does not.
        direct = db.ptk("demo", k=3, threshold=0.15)
        assert answer["mode"] == direct.method == "dynamic"
        assert answer["answers"] == [str(t) for t in direct.answers]
        assert "late" in direct.answers
        cold = dict(zip(*cold_probabilities(table, 3)))
        assert direct.answers == [t for t in cold if cold[t] >= 0.15]
        for tid, probability in direct.probabilities.items():
            assert probability == cold[tid]

    def test_cache_build_never_stores_new_tuples_under_old_version(
        self, monkeypatch
    ):
        from repro import obs
        from repro.query.ranking import RankingFunction
        from repro.serve.client import LoopbackTransport, ServeClient

        db, app = self.build_app(dynamic=False)
        table = db.table("demo")
        writers = []
        real_rank_table = RankingFunction.rank_table

        def rank_table(ranking, selected):
            # prepare_ranking reads the version, then ranks the tuples.
            if not writers:
                writers.append(self.inject_write(table, client))
            return real_rank_table(ranking, selected)

        monkeypatch.setattr(RankingFunction, "rank_table", rank_table)
        try:
            with LoopbackTransport(app) as transport:
                client = ServeClient(transport)
                client.query(table="demo", k=3, threshold=0.15)
                writers[0].join(timeout=10)
                assert not writers[0].is_alive()
                answer = client.query(table="demo", k=3, threshold=0.15)
        finally:
            obs.disable()
        cached = db.prepare_cache.get(table, TopKQuery(k=3))
        cold = prepare_ranking(table, TopKQuery(k=3))
        assert cached.ranked == cold.ranked
        assert cached.source_version == cold.source_version == table.version
        expected = exact_ptk_query(table, TopKQuery(k=3), 0.15)
        assert answer["answers"] == [str(t) for t in expected.answers]

    def test_concurrent_writers_and_readers_stay_cold_equal(self):
        # More threads than cores and a short switch interval, so reads
        # and writes of the one table interleave at fine grain.
        db = UncertainDB()
        table = UncertainTable(name="t")
        for i in range(60):
            table.add(f"t{i}", float(i % 17), 0.2 + 0.01 * (i % 50))
        db.register(table, name="t")
        # Every read moves its scan onto the preparation it takes, a
        # snapshot the table lock must keep whole.
        db.enable_dynamic()
        errors = []

        def writer(seed):
            rng = random.Random(seed)
            try:
                for step in range(40):
                    tid = f"t{rng.randrange(60)}"
                    if rng.random() < 0.5:
                        db.update_score("t", tid, rng.uniform(0, 20))
                    else:
                        db.update_probability("t", tid, rng.uniform(0.05, 0.9))
                    db.add("t", f"w{seed}-{step}", rng.uniform(0, 20), 0.1)
            except Exception as error:  # surfaced by the assert below
                errors.append(error)

        def reader(k):
            try:
                for _ in range(40):
                    db.ptk("t", k=k, threshold=0.2)
                    db.ptk_sampled("t", k=k, threshold=0.2)
            except Exception as error:
                errors.append(error)

        threads = [
            threading.Thread(target=writer, args=(seed,)) for seed in range(3)
        ] + [threading.Thread(target=reader, args=(k,)) for k in (2, 3, 4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(table) == 60 + 3 * 40
        for k in (2, 3, 4):
            answer = db.ptk("t", k=k, threshold=0.2)
            assert answer.method == "dynamic"
            cold = dict(zip(*cold_probabilities(table, k)))
            assert answer.answers == [t for t in cold if cold[t] >= 0.2]
            for tid, probability in answer.probabilities.items():
                assert probability == cold[tid]
        cached = db.prepare_cache.get(table, TopKQuery(k=2))
        assert cached.ranked == prepare_ranking(table, TopKQuery(k=2)).ranked


class TestCarriedScans:
    """A plain database's reads resume the warm scans each write hands
    on to the next preparation."""

    @staticmethod
    def synthetic_db(dynamic):
        from repro.datagen.synthetic import SyntheticConfig, generate_synthetic_table

        db = UncertainDB()
        db.register(generate_synthetic_table(
            SyntheticConfig(n_tuples=500, n_rules=50, seed=3)
        ), name="t")
        if dynamic:
            db.enable_dynamic()
        return db

    def test_unpruned_read_prices_every_row_with_dynamic_on(self):
        got = self.synthetic_db(True).ptk("t", 5, 0.3, pruning=False)
        want = self.synthetic_db(False).ptk("t", 5, 0.3, pruning=False)
        assert got.stats.scan_depth == want.stats.scan_depth == 500
        assert len(got.probabilities) == len(want.probabilities) == 500
        assert got.stats.stopped_by == want.stats.stopped_by == "exhausted"
        assert bits(got) == bits(want)

    def test_write_above_the_priced_rows_rewinds_to_its_snapshot(self):
        table = random_table(31, 600, rule_fraction=0.3)
        db = UncertainDB()
        db.register(table, name="t")
        first = db.ptk("t", 10, 0.3)
        before = db.prepare_cache.get(table, TopKQuery(k=10))
        priced = before.scanned_rows(10)
        assert priced == first.stats.tuples_evaluated > 40
        db.update_probability("t", before.columns.tids[40], 0.01)
        after = db.prepare_cache.get(table, TopKQuery(k=10))
        assert after.index is before.index
        # Row 32 is the last snapshot at or above the changed row 40;
        # the older preparation still keeps every row it priced.
        assert after.scanned_rows(10) == 32
        assert before.scanned_rows(10) == priced
        read = db.ptk("t", 10, 0.3)
        assert read.stats.tuples_evaluated == after.scanned_rows(10) - 32
        assert bits(read) == bits(cold(table, 10, 0.3))

    def test_write_below_the_priced_rows_costs_the_read_nothing(self):
        table = random_table(31, 600, rule_fraction=0.3)
        db = UncertainDB()
        db.register(table, name="t")
        db.ptk("t", 10, 0.3)
        before = db.prepare_cache.get(table, TopKQuery(k=10))
        priced = before.scanned_rows(10)
        assert priced < len(table)
        db.update_probability("t", before.columns.tids[-1], 0.01)
        after = db.prepare_cache.get(table, TopKQuery(k=10))
        assert after is not before
        assert after.scanned_rows(10) == priced
        read = db.ptk("t", 10, 0.3)
        assert read.stats.tuples_evaluated == 0
        assert bits(read) == bits(cold(table, 10, 0.3))

    def test_declined_refresh_reprepares_with_the_scans(self):
        # Moving "1" onto the score of 1 gives both one sort key; the
        # refresh declines, and the cold re-prepare takes the scans.
        table = UncertainTable(name="t")
        for tid in range(40):
            table.add(tid, float(100 - tid), 0.3)
        table.add("1", 50.5, 0.3)
        db = UncertainDB()
        db.register(table, name="t")
        db.ptk("t", 5, 0.3)
        before = db.prepare_cache.peek(table, TopKQuery(k=5))
        db.update_score("t", "1", table.get(1).score)
        assert db.prepare_cache.peek(table, TopKQuery(k=5)) is before
        after = db.prepare_cache.get(table, TopKQuery(k=5))
        assert after is not before and after.index is before.index
        assert after.index.deltas_applied == 1
        assert bits(db.ptk("t", 5, 0.3)) == bits(cold(table, 5, 0.3))
