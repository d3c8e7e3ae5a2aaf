"""Tests for the table-level prepared-ranking cache (repro.query.prepare)."""

import pytest

from repro import obs
from repro.core.exact import exact_ptk_query, exact_topk_probabilities
from repro.core.batch import batch_ptk_queries
from repro.core.profile import topk_probability_profile
from repro.core.sampling import SamplingConfig, sampled_ptk_query
from repro.datagen.sensors import panda_table
from repro.obs import export as obs_export
from repro.query.engine import UncertainDB
from repro.query.predicates import AlwaysTrue, ScoreAbove
from repro.query.prepare import (
    PrepareCache,
    prepare_ranking,
    resolve_prepared,
)
from repro.query.ranking import by_score
from repro.query.topk import TopKQuery
from tests.conftest import build_table


class TestPreparedRanking:
    def test_contents(self):
        table = build_table([0.5, 0.3, 0.6], rule_groups=[[1, 2]])
        prepared = prepare_ranking(table, TopKQuery(k=2))
        assert [t.tid for t in prepared.ranked] == ["t0", "t1", "t2"]
        assert set(prepared.rule_of) == {"t1", "t2"}
        [rule_probability] = prepared.rule_probability.values()
        assert rule_probability == pytest.approx(0.9)
        assert len(prepared) == 3
        assert prepared.source_version == table.version

    def test_predicate_applied(self):
        table = build_table([0.5, 0.3, 0.6], rule_groups=[])
        query = TopKQuery(k=2, predicate=ScoreAbove(1.5))
        prepared = prepare_ranking(table, query)
        assert [t.tid for t in prepared.ranked] == ["t0", "t1"]


class TestPrepareCache:
    def test_hit_on_repeat(self):
        cache = PrepareCache()
        table = build_table([0.5, 0.3], rule_groups=[])
        query = TopKQuery(k=2)
        first = cache.get(table, query)
        second = cache.get(table, query)
        assert second is first
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)
        assert stats.hit_rate == pytest.approx(0.5)

    def test_shared_across_k_and_threshold(self):
        # k and threshold are not part of the key: the preparation only
        # depends on (table, predicate, ranking).
        cache = PrepareCache()
        table = build_table([0.5, 0.3], rule_groups=[])
        a = cache.get(table, TopKQuery(k=1))
        b = cache.get(table, TopKQuery(k=2))
        assert b is a

    def test_structural_predicate_and_ranking_keys_hit(self):
        cache = PrepareCache()
        table = build_table([0.5, 0.3], rule_groups=[])
        a = cache.get(
            table,
            TopKQuery(k=1, predicate=ScoreAbove(0.5), ranking=by_score()),
        )
        b = cache.get(
            table,
            TopKQuery(k=1, predicate=ScoreAbove(0.5), ranking=by_score()),
        )
        assert b is a

    def test_different_predicates_miss(self):
        cache = PrepareCache()
        table = build_table([0.5, 0.3], rule_groups=[])
        cache.get(table, TopKQuery(k=1, predicate=ScoreAbove(0.5)))
        other = cache.get(table, TopKQuery(k=1, predicate=ScoreAbove(1.5)))
        assert len(other.ranked) == 1
        assert cache.stats().misses == 2

    def test_mutation_invalidates_via_version(self):
        cache = PrepareCache()
        table = build_table([0.5, 0.3], rule_groups=[])
        query = TopKQuery(k=2)
        stale = cache.get(table, query)
        table.add("t9", score=99.0, probability=0.7)
        fresh = cache.get(table, query)
        assert fresh is not stale
        assert [t.tid for t in fresh.ranked][0] == "t9"
        assert cache.stats().misses == 2

    def test_lru_eviction(self):
        cache = PrepareCache(max_entries_per_table=2)
        table = build_table([0.5, 0.3], rule_groups=[])
        q1 = TopKQuery(k=1, predicate=ScoreAbove(0.1))
        q2 = TopKQuery(k=1, predicate=ScoreAbove(0.2))
        q3 = TopKQuery(k=1, predicate=ScoreAbove(0.3))
        cache.get(table, q1)
        cache.get(table, q2)
        cache.get(table, q3)  # evicts q1
        assert len(cache) == 2
        cache.get(table, q2)
        cache.get(table, q1)
        assert cache.stats().hits == 1  # only q2 survived for a hit

    def test_invalidate_single_table(self):
        cache = PrepareCache()
        table_a = build_table([0.5], rule_groups=[], name="a")
        table_b = build_table([0.5], rule_groups=[], name="b")
        cache.get(table_a, TopKQuery(k=1))
        cache.get(table_b, TopKQuery(k=1))
        assert cache.invalidate(table_a) == 1
        assert len(cache) == 1
        assert cache.stats().invalidations == 1

    def test_invalidate_all(self):
        cache = PrepareCache()
        table = build_table([0.5], rule_groups=[])
        cache.get(table, TopKQuery(k=1))
        assert cache.invalidate() == 1
        assert len(cache) == 0

    def test_full_clear_starts_new_counter_epoch(self):
        # A full clear (e.g. after crash recovery swaps the table set)
        # used to leave hit/miss counters accumulating across the reset,
        # so post-restart hit rates mixed two cache lifetimes.
        cache = PrepareCache()
        table = build_table([0.5, 0.3], rule_groups=[])
        query = TopKQuery(k=1)
        cache.get(table, query)
        cache.get(table, query)
        before = cache.stats()
        assert (before.hits, before.misses, before.epoch) == (1, 1, 0)

        dropped = cache.invalidate(None)
        assert dropped == 1
        after = cache.stats()
        assert (after.hits, after.misses) == (0, 0)
        assert after.epoch == 1
        assert after.invalidations == 1  # cumulative, not epoch-scoped
        assert after.hit_rate == 0.0

        # Counters restart cleanly within the new epoch.
        cache.get(table, query)
        cache.get(table, query)
        fresh = cache.stats()
        assert (fresh.hits, fresh.misses, fresh.epoch) == (1, 1, 1)

    def test_single_table_invalidate_keeps_epoch(self):
        cache = PrepareCache()
        table = build_table([0.5], rule_groups=[])
        cache.get(table, TopKQuery(k=1))
        cache.invalidate(table)
        stats = cache.stats()
        assert stats.epoch == 0
        assert stats.misses == 1  # targeted drops don't reset counters

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            PrepareCache(max_entries_per_table=0)

    def test_stats_drop_immediately_after_mutation(self):
        # Stale-version entries used to linger in stats()/len() until the
        # next get() purged them lazily; counting must purge (or filter)
        # them itself.
        cache = PrepareCache()
        table = build_table([0.5, 0.3], rule_groups=[])
        cache.get(table, TopKQuery(k=2))
        assert cache.stats().entries == 1
        table.add("t9", score=99.0, probability=0.7)
        assert cache.stats().entries == 0
        assert len(cache) == 0
        # The live count recovers after the next (rebuilding) lookup.
        cache.get(table, TopKQuery(k=2))
        assert cache.stats().entries == 1

    def test_stats_only_counts_live_versions_across_tables(self):
        cache = PrepareCache()
        table_a = build_table([0.5], rule_groups=[], name="a")
        table_b = build_table([0.5], rule_groups=[], name="b")
        cache.get(table_a, TopKQuery(k=1))
        cache.get(table_b, TopKQuery(k=1))
        table_a.add("t9", score=9.0, probability=0.5)
        assert cache.stats().entries == 1
        assert len(cache) == 1

    def test_thread_safe_under_concurrent_lookups_and_mutations(self):
        import threading

        cache = PrepareCache()
        table = build_table([0.5, 0.3, 0.8], rule_groups=[])
        query = TopKQuery(k=2)
        errors = []

        def hammer():
            try:
                for _ in range(200):
                    prepared = cache.get(table, query)
                    assert prepared.source_version <= table.version
                    cache.stats()
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        def mutate():
            try:
                for i in range(20):
                    table.add(f"m{i}", score=float(i), probability=0.5)
                    cache.invalidate(table)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        threads.append(threading.Thread(target=mutate))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # After the dust settles a fresh lookup serves the final version.
        assert cache.get(table, query).source_version == table.version

    def test_resolve_prefers_explicit_prepared(self):
        cache = PrepareCache()
        table = build_table([0.5], rule_groups=[])
        query = TopKQuery(k=1)
        prepared = prepare_ranking(table, query)
        assert resolve_prepared(table, query, prepared=prepared) is prepared
        assert cache.stats().misses == 0


class TestCachedAnswersIdentical:
    """Answers must be byte-identical with and without the cache."""

    def test_exact_ptk(self):
        table = panda_table()
        query = TopKQuery(k=2)
        baseline = exact_ptk_query(table, query, 0.35)
        cache = PrepareCache()
        for _ in range(2):  # second round runs fully from cache
            cached = exact_ptk_query(table, query, 0.35, cache=cache)
            assert cached.answers == baseline.answers
            assert cached.probabilities == baseline.probabilities
            assert cached.stats.scan_depth == baseline.stats.scan_depth
        assert cache.stats().hits == 1

    def test_sampled_ptk(self):
        table = panda_table()
        query = TopKQuery(k=2)
        config = SamplingConfig(sample_size=500, progressive=False, seed=42)
        baseline = sampled_ptk_query(table, query, 0.35, config=config)
        cache = PrepareCache()
        cached = sampled_ptk_query(table, query, 0.35, config=config, cache=cache)
        assert cached.answers == baseline.answers
        assert cached.probabilities == baseline.probabilities
        # One preparation serves both the estimate pass and the answer.
        assert cache.stats().misses == 1
        assert cache.stats().hits == 0

    def test_profile_and_batch(self):
        table = panda_table()
        query = TopKQuery(k=3)
        baseline = topk_probability_profile(table, query)
        cache = PrepareCache()
        cached = topk_probability_profile(table, query, cache=cache)
        assert set(cached) == set(baseline)
        for tid in baseline:
            assert cached[tid].tolist() == baseline[tid].tolist()
        requests = [(1, 0.5), (3, 0.35), (2, 0.2)]
        batch_baseline = batch_ptk_queries(table, requests)
        batch_cached = batch_ptk_queries(table, requests, cache=cache)
        for a, b in zip(batch_cached, batch_baseline):
            assert a.answers == b.answers
            assert a.probabilities == b.probabilities


class TestBatchStats:
    def test_shared_scan_billed_once(self):
        table = panda_table()
        answers = batch_ptk_queries(table, [(2, 0.5), (2, 0.35), (1, 0.2)])
        n = len(table)
        assert [a.stats.scan_depth for a in answers] == [n, n, n]
        # One full scan per distinct k, billed to its first request.
        assert [a.stats.tuples_evaluated for a in answers] == [n, 0, n]


class TestEngineIntegration:
    def test_repeated_ptk_hits_cache(self):
        db = UncertainDB()
        db.register(panda_table())
        first = db.ptk("panda_sightings", k=2, threshold=0.35)
        second = db.ptk("panda_sightings", k=2, threshold=0.35)
        assert second.answers == first.answers
        assert second.probabilities == first.probabilities
        stats = db.prepare_cache.stats()
        assert stats.hits >= 1
        assert stats.misses == 1

    def test_cache_shared_across_query_kinds(self):
        db = UncertainDB()
        db.register(panda_table())
        db.ptk("panda_sightings", k=2, threshold=0.35)
        db.topk_probabilities("panda_sightings", k=2)
        db.ptk_sampled(
            "panda_sightings",
            k=2,
            threshold=0.35,
            config=SamplingConfig(sample_size=50, seed=0),
        )
        stats = db.prepare_cache.stats()
        assert stats.misses == 1
        assert stats.hits == 2

    def test_drop_invalidates(self):
        db = UncertainDB()
        table = panda_table()
        db.register(table)
        db.ptk("panda_sightings", k=2, threshold=0.35)
        assert len(db.prepare_cache) == 1
        db.drop("panda_sightings")
        assert len(db.prepare_cache) == 0
        assert db.prepare_cache.stats().invalidations == 1

    def test_drop_and_reregister_serves_fresh_answers(self):
        db = UncertainDB()
        db.register(panda_table())
        before = db.ptk("panda_sightings", k=2, threshold=0.35)
        db.drop("panda_sightings")
        replacement = build_table(
            [0.9, 0.8], rule_groups=[], name="panda_sightings"
        )
        db.register(replacement)
        after = db.ptk("panda_sightings", k=2, threshold=0.35)
        assert set(after.probabilities) == {"t0", "t1"}
        assert after.answers != before.answers

    def test_mutated_table_served_fresh(self):
        db = UncertainDB()
        table = build_table([0.9, 0.8], rule_groups=[], name="w")
        db.register(table)
        first = db.ptk("w", k=1, threshold=0.5)
        table.add("t9", score=99.0, probability=1.0)
        second = db.ptk("w", k=1, threshold=0.5)
        assert "t9" in second.probabilities
        assert "t9" not in first.probabilities

    def test_ptk_batch_facade(self):
        db = UncertainDB()
        db.register(panda_table())
        answers = db.ptk_batch("panda_sightings", [(2, 0.35), (1, 0.5)])
        direct = batch_ptk_queries(panda_table(), [(2, 0.35), (1, 0.5)])
        assert [a.answers for a in answers] == [a.answers for a in direct]
        # A second batch reuses the cached preparation.
        db.ptk_batch("panda_sightings", [(2, 0.35)])
        assert db.prepare_cache.stats().hits >= 1


class TestObsCounters:
    def test_hit_and_miss_counters_exported(self):
        db = UncertainDB()
        db.register(panda_table())
        with obs.enabled_scope(fresh=True):
            db.ptk("panda_sightings", k=2, threshold=0.35)
            db.ptk("panda_sightings", k=2, threshold=0.35)
            db.drop("panda_sightings")
        metrics = obs_export.snapshot()["metrics"]
        assert (
            metrics["repro_prepare_cache_misses_total"]["samples"][0]["value"]
            == 1
        )
        assert (
            metrics["repro_prepare_cache_hits_total"]["samples"][0]["value"]
            == 1
        )
        assert (
            metrics["repro_prepare_cache_invalidations_total"]["samples"][0][
                "value"
            ]
            == 1
        )

    def test_batched_sampler_counter_exported(self):
        with obs.enabled_scope(fresh=True):
            sampled_ptk_query(
                panda_table(),
                TopKQuery(k=2),
                0.35,
                config=SamplingConfig(
                    sample_size=100, progressive=False, seed=0, batch_size=30
                ),
            )
        metrics = obs_export.snapshot()["metrics"]
        # 100 units at batch 30 -> 4 batches (30+30+30+10).
        assert (
            metrics["repro_sampler_batches_total"]["samples"][0]["value"] == 4
        )
