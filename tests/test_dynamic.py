"""The incremental PT-k index (:mod:`repro.dynamic`).

The load-bearing contract is *byte* equality: every incremental answer
must be bit-for-bit identical to a cold recompute of the current table
— same ``Pr^k`` doubles, same answer set, same order.  These tests pin
that contract per mutation kind, across suffix restarts, through the
registry's fallback policy, and end to end through the serve layer.
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
from repro.dynamic import (
    DynamicIndex,
    DynamicIndexRegistry,
    TableDelta,
    delta_from_record,
    refresh_prepared,
)
from repro.exceptions import ReproError, UnsupportedDeltaError
from repro.model.table import UncertainTable
from repro.query.engine import UncertainDB
from repro.query.prepare import prepare_ranking
from repro.query.topk import TopKQuery


def cold_probabilities(table, k):
    """The cold columnar scan's (tids, Pr^k) for the current table."""
    ranked = table.ranked_tuples()
    columns = TableColumns.from_ranked(ranked, rule_index_of_table(table))
    out, _ = columnar_topk_scan(columns.probability, columns.rule_index, k)
    return columns.tids, out


class MutationDriver:
    """Random mutation generator that keeps table and deltas in sync."""

    def __init__(self, table, seed=0, name="t"):
        self.table = table
        self.name = name
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

    def emit(self, op):
        rng, table = self.rng, self.table
        prev = table.version
        try:
            if op == "add":
                tid = f"t{self.next_tid}"
                self.next_tid += 1
                score = rng.choice(
                    [rng.uniform(0, 100), float(rng.randint(0, 20))]
                )
                p = rng.uniform(0.05, 1.0)
                table.add(tid, score, p)
                return TableDelta(self.name, "add", prev, table.version,
                                  tid=tid, score=score, probability=p)
            if op == "remove":
                tid = rng.choice(table.tuple_ids())
                table.remove_tuple(tid)
                return TableDelta(self.name, "remove", prev, table.version,
                                  tid=tid)
            if op == "update":
                tid = rng.choice(table.tuple_ids())
                p = rng.uniform(0.05, 1.0)
                table.update_probability(tid, p)
                return TableDelta(self.name, "update", prev, table.version,
                                  tid=tid, probability=p)
            if op == "score":
                tid = rng.choice(table.tuple_ids())
                score = rng.choice(
                    [rng.uniform(0, 100), float(rng.randint(0, 20))]
                )
                table.update_score(tid, score)
                return TableDelta(self.name, "score", prev, table.version,
                                  tid=tid, score=score)
            free = [t for t in table.tuple_ids() if table.is_independent(t)]
            if len(free) < 2:
                return None
            members = rng.sample(free, rng.randint(2, min(4, len(free))))
            rid = f"r{self.next_rule}"
            self.next_rule += 1
            table.add_exclusive(rid, *members)
            return TableDelta(self.name, "rule", prev, table.version,
                              rule_id=rid, members=tuple(members))
        except ReproError:
            return None  # table rejected it (rule sum > 1, ...) — no delta

    def random_op(self):
        ops = (["add"] * 4 + ["remove"] * 2 + ["update"] * 4
               + ["score"] * 3 + ["rule"] * 2)
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
        index = DynamicIndex.build("t", table, cap=k)
        for step in range(80):
            delta = driver.random_op()
            if delta is None:
                continue
            try:
                index.apply(delta)
            except UnsupportedDeltaError:
                index = DynamicIndex.build("t", table, cap=k)
            tids, out = cold_probabilities(table, k)
            assert tuple(index.tids) == tids, f"order differs at step {step}"
            dyn = index.topk_probabilities(k)
            assert np.array_equal(out, dyn), (
                f"step {step}: {np.flatnonzero(out != dyn)[:5]}"
            )

    def test_crossing_checkpoint_blocks(self):
        # n > BLOCK exercises snapshot truncation and mid-run restores
        from repro.dynamic.index import BLOCK

        table = UncertainTable(name="t")
        driver = MutationDriver(table, seed=42)
        driver.seed_tuples(BLOCK + 40)
        index = DynamicIndex.build("t", table, cap=3)
        for _ in range(30):
            delta = driver.random_op()
            if delta is None:
                continue
            try:
                index.apply(delta)
            except UnsupportedDeltaError:
                index = DynamicIndex.build("t", table, cap=3)
        tids, out = cold_probabilities(table, 3)
        assert tuple(index.tids) == tids
        assert np.array_equal(out, index.topk_probabilities(3))

    def test_suffix_restart_is_localised(self):
        # Mutating the worst-ranked tuple must not re-evaluate the prefix.
        table = UncertainTable(name="t")
        for i in range(200):
            table.add(f"t{i}", float(1000 - i), 0.5)
        index = DynamicIndex.build("t", table, cap=2)
        prev = table.version
        table.update_probability("t199", 0.9)
        suffix = index.apply(TableDelta("t", "update", prev, table.version,
                                        tid="t199", probability=0.9))
        assert suffix <= 2


class TestIndexContracts:
    def test_index_serves_exactly_its_k(self):
        table = UncertainTable(name="t")
        for i in range(10):
            table.add(f"t{i}", float(10 - i), 0.5)
        index = DynamicIndex.build("t", table, cap=3)
        index.topk_probabilities(3)
        with pytest.raises(UnsupportedDeltaError):
            index.topk_probabilities(2)

    def test_version_gap_raises(self):
        from repro.exceptions import StaleDeltaError

        table = UncertainTable(name="t")
        for i in range(5):
            table.add(f"t{i}", float(5 - i), 0.5)
        index = DynamicIndex.build("t", table, cap=2)
        table.update_probability("t0", 0.9)
        table.update_probability("t1", 0.9)
        # skip the first mutation: previous_version doesn't chain
        with pytest.raises(StaleDeltaError):
            index.apply(TableDelta("t", "update", table.version - 1,
                                   table.version, tid="t1", probability=0.9))

    def test_score_collision_refused_before_mutation(self):
        table = UncertainTable(name="t")
        table.add("a", 10.0, 0.5)
        table.add("b", 9.0, 0.5)
        index = DynamicIndex.build("t", table, cap=1)
        prev = table.version
        table.update_score("b", 10.0)  # collides with ("a", 10.0)? no —
        # sort key is (-score, str(tid)); same score, different tid is
        # fine.  A true collision needs the same tid key too, which two
        # distinct tuples cannot have — so moving onto an equal score
        # must be *supported*:
        index.apply(TableDelta("t", "score", prev, table.version,
                               tid="b", score=10.0))
        tids, out = cold_probabilities(table, 1)
        assert tuple(index.tids) == tids
        assert np.array_equal(out, index.topk_probabilities(1))


class TestRegistry:
    def build_db(self, n=20, cap=8):
        db = UncertainDB()
        table = UncertainTable(name="t")
        for i in range(n):
            table.add(f"t{i}", float(n - i), 0.4)
        db.register(table, name="t")
        db.enable_dynamic(cap=cap)
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

    def test_k_above_cap_falls_back_to_cold_path(self):
        db = self.build_db(cap=4)
        answer = db.ptk("t", k=6, threshold=0.3)
        assert answer.method != "dynamic"
        assert db.dynamic.fallbacks.get("cap") == 1

    def test_backlog_triggers_rebuild(self):
        db = self.build_db(cap=4)
        db.dynamic.max_backlog = 3
        db.ptk("t", k=2, threshold=0.3)
        for i in range(6):
            db.update_probability("t", f"t{i}", 0.6)
        answer = db.ptk("t", k=2, threshold=0.3)
        assert db.dynamic.fallbacks.get("backlog") == 1
        cold = exact_ptk_query(db.table("t"), TopKQuery(k=2), 0.3)
        assert answer.answers == cold.answers

    def test_direct_table_write_detected_as_stale(self):
        db = self.build_db(cap=4)
        db.ptk("t", k=2, threshold=0.3)
        # bypass the engine: the version advances with no delta
        db.table("t").update_probability("t0", 0.9)
        answer = db.ptk("t", k=2, threshold=0.3)
        assert db.dynamic.fallbacks.get("stale") == 1
        cold = exact_ptk_query(db.table("t"), TopKQuery(k=2), 0.3)
        assert answer.answers == cold.answers

    def test_drop_and_reregister_under_new_epoch(self):
        db = self.build_db(cap=4)
        db.ptk("t", k=2, threshold=0.3)
        db.drop("t")
        assert db.dynamic.tracked() == []
        replacement = UncertainTable(name="t")
        replacement.add("z", 1.0, 0.5)
        db.register(replacement, name="t")
        answer = db.ptk("t", k=2, threshold=0.3)
        assert answer.method == "dynamic"
        assert answer.answers == ["z"]

    def test_stats_shape(self):
        db = self.build_db(cap=4)
        db.ptk("t", k=2, threshold=0.3)
        stats = db.dynamic.stats()
        assert stats["cap"] == 4
        assert stats["tables"]["t"]["indexes"][2]["n"] == 20
        assert stats["reads"] == {"index": 0, "rebuild": 1}


class TestPrepareRefresh:
    def run_refresh(self, mutate, op_fields):
        table = UncertainTable(name="t")
        for i in range(12):
            table.add(f"t{i}", float(12 - i), 0.4)
        prepared = prepare_ranking(table, TopKQuery(k=3))
        prev = table.version
        mutate(table)
        delta = TableDelta("t", previous_version=prev,
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
            {"op": "remove", "tid": "t4"},
        )

    def test_score_move(self):
        self.run_refresh(
            lambda t: t.update_score("t9", 11.5),
            {"op": "score", "tid": "t9", "score": 11.5},
        )

    def test_version_mismatch_declines(self):
        table = UncertainTable(name="t")
        table.add("a", 1.0, 0.5)
        prepared = prepare_ranking(table, TopKQuery(k=1))
        table.update_probability("a", 0.6)
        table.update_probability("a", 0.7)
        stale = TableDelta("t", "update", table.version - 1, table.version,
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
            delta = delta_from_record(record, epoch=2)
            assert delta is not None
            assert delta.op == record["op"]
            assert delta.version == record["version"]
            assert delta.previous_version == record["version"] - 1
            assert delta.epoch == 2
        assert delta_from_record({"op": "register", "table": "t"}) is None
        assert delta_from_record({"op": "serve", "table": "t"}) is None


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
        config.setdefault("dynamic_cap", 8)
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
                # k over the cap takes the planned path
                big = client.query(table="demo", k=20, threshold=0.15)
                assert big["mode"] == "exact"
        finally:
            obs.disable()

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

        db, app = self.build_app(dynamic=True)
        table = db.table("demo")
        writers = []
        real_ranked_tuples = table.ranked_tuples

        def ranked_tuples(*args, **kwargs):
            # DynamicIndex.build reads the tuples, then the version.
            ranked = real_ranked_tuples(*args, **kwargs)
            if not writers:
                writers.append(self.inject_write(table, client))
            return ranked

        monkeypatch.setattr(table, "ranked_tuples", ranked_tuples)
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
        # A small backlog makes reads rebuild often, and every build is
        # a snapshot the table lock must keep whole.
        db.enable_dynamic(cap=4, max_backlog=2)
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
