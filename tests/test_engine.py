"""Tests for the UncertainDB facade."""

import pytest

from repro.core.sampling import SamplingConfig
from repro.datagen.sensors import panda_table
from repro.exceptions import QueryError, UnknownTupleError
from repro.query.engine import UncertainDB
from repro.query.topk import TopKQuery


@pytest.fixture
def db():
    database = UncertainDB()
    database.register(panda_table())
    return database


class TestCatalogue:
    def test_register_and_lookup(self, db):
        assert "panda_sightings" in db.tables()
        assert len(db.table("panda_sightings")) == 6

    def test_register_under_custom_name(self):
        database = UncertainDB()
        name = database.register(panda_table(), name="pandas")
        assert name == "pandas"
        assert database.table("pandas") is not None

    def test_duplicate_name_rejected(self, db):
        with pytest.raises(QueryError):
            db.register(panda_table())

    def test_unknown_table_raises(self, db):
        with pytest.raises(UnknownTupleError):
            db.table("nope")

    def test_drop(self, db):
        db.drop("panda_sightings")
        assert db.tables() == []
        with pytest.raises(UnknownTupleError):
            db.drop("panda_sightings")

    def test_register_alias_keeps_warm_preparations(self, db):
        # Registering the *same* table object under a second name used to
        # invalidate its cached preparations (the invalidation in
        # register() hit the new table object, which is the old one
        # here).  Warm entries must survive.
        db.ptk("panda_sightings", k=2, threshold=0.35)
        assert db.prepare_cache.stats().entries == 1
        db.register(db.table("panda_sightings"), name="alias")
        assert db.prepare_cache.stats().entries == 1
        hits_before = db.prepare_cache.stats().hits
        db.ptk("alias", k=3, threshold=0.2)
        assert db.prepare_cache.stats().hits == hits_before + 1

    def test_drop_and_reregister_serves_fresh_preparations(self, db):
        db.ptk("panda_sightings", k=2, threshold=0.35)
        db.drop("panda_sightings")
        # drop() invalidates the old table object's entries...
        assert db.prepare_cache.stats().entries == 0
        # ...and a fresh registration under the same name never serves
        # the old table's preparations.
        fresh = panda_table()
        db.register(fresh)
        misses_before = db.prepare_cache.stats().misses
        db.ptk("panda_sightings", k=2, threshold=0.35)
        assert db.prepare_cache.stats().misses == misses_before + 1


class TestQueries:
    def test_ptk(self, db):
        answer = db.ptk("panda_sightings", k=2, threshold=0.35)
        assert answer.answer_set == {"R2", "R3", "R5"}

    def test_ptk_sampled(self, db):
        answer = db.ptk_sampled(
            "panda_sightings",
            k=2,
            threshold=0.35,
            config=SamplingConfig(sample_size=50_000, progressive=False, seed=5),
        )
        assert answer.answer_set == {"R2", "R3", "R5"}

    def test_utopk(self, db):
        answer = db.utopk("panda_sightings", k=2)
        assert answer.vector == ("R5", "R3")

    def test_ukranks(self, db):
        answer = db.ukranks("panda_sightings", k=2)
        assert answer.tuple_ids == ["R5", "R5"]

    def test_ukranks_reuses_the_preparation(self, db):
        first = db.ukranks("panda_sightings", k=2)
        stats = db.prepare_cache.stats()
        assert db.ukranks("panda_sightings", k=2) == first
        after = db.prepare_cache.stats()
        assert after.hits == stats.hits + 1
        assert after.misses == stats.misses

    def test_global_topk(self, db):
        result = db.global_topk("panda_sightings", k=2)
        assert [tid for tid, _ in result] == ["R5", "R2"]

    def test_expected_rank_topk(self, db):
        result = db.expected_rank_topk("panda_sightings", k=2)
        assert len(result) == 2
        values = [v for _, v in result]
        assert values == sorted(values)
        # R4 is certain and mid-ranked; it must beat flaky R1
        ranks = dict(db.expected_rank_topk("panda_sightings", k=6))
        assert ranks["R4"] < ranks["R1"]

    def test_topk_probabilities(self, db):
        probabilities = db.topk_probabilities("panda_sightings", k=2)
        assert probabilities["R5"] == pytest.approx(0.704)

    def test_expected_ranks(self, db):
        ranks = db.expected_ranks("panda_sightings")
        assert ranks["R1"] == pytest.approx(1.0)

    def test_explicit_query_object(self, db):
        answer = db.ptk(
            "panda_sightings", k=2, threshold=0.35, query=TopKQuery(k=2)
        )
        assert answer.answer_set == {"R2", "R3", "R5"}


class TestExplainPlan:
    def test_plan_fields(self, db):
        plan = db.explain_plan("panda_sightings", k=2, threshold=0.35)
        assert plan["n_tuples"] == 6
        assert 1 <= plan["estimated_scan_depth"] <= 6
        assert plan["recommended_method"] in ("exact", "sampling")

    def test_plan_depth_near_actual(self, db):
        plan = db.explain_plan("panda_sightings", k=2, threshold=0.35)
        answer = db.ptk("panda_sightings", k=2, threshold=0.35)
        assert abs(plan["estimated_scan_depth"] - answer.stats.scan_depth) <= 3


class TestComparison:
    def test_compare_semantics(self, db):
        comparison = db.compare_semantics("panda_sightings", k=2, threshold=0.35)
        assert comparison.ptk.answer_set == {"R2", "R3", "R5"}
        assert comparison.utopk.vector == ("R5", "R3")
        assert comparison.ukranks.tuple_ids == ["R5", "R5"]

    def test_compare_semantics_ranks_once(self, db):
        db.compare_semantics("panda_sightings", k=2, threshold=0.35)
        # ptk, U-KRanks and the Pr^k map share one preparation
        stats = db.prepare_cache.stats()
        assert (stats.misses, stats.hits) == (1, 2)

    def test_mentioned_tuples_deduplicated(self, db):
        comparison = db.compare_semantics("panda_sightings", k=2, threshold=0.35)
        mentioned = comparison.mentioned_tuples()
        assert len(mentioned) == len(set(mentioned))
        assert set(mentioned) == {"R2", "R3", "R5"}

    def test_probabilities_cover_mentioned(self, db):
        comparison = db.compare_semantics("panda_sightings", k=2, threshold=0.35)
        for tid in comparison.mentioned_tuples():
            assert tid in comparison.topk_probabilities


class TestDropHygiene:
    """Dropping a table must forget its warm preparations entirely."""

    def test_drop_invalidates_warm_prepare_entries(self, db):
        db.ptk("panda_sightings", k=2, threshold=0.35)
        assert db.prepare_cache.stats().entries >= 1
        db.drop("panda_sightings")
        stats = db.prepare_cache.stats()
        assert stats.entries == 0
        assert stats.invalidations >= 1

    def test_reregistered_same_name_never_serves_old_prepare(self):
        from tests.conftest import build_table

        database = UncertainDB()
        database.register(
            build_table([0.9, 0.8, 0.7, 0.6], rule_groups=[], name="x")
        )
        first = database.ptk("x", k=3, threshold=0.5)
        assert first.answer_set == {"t0", "t1", "t2"}
        misses_before = database.prepare_cache.stats().misses
        database.drop("x")

        # Same name, entirely different contents: one high-probability
        # tuple ranked by a different score scale.
        database.register(
            build_table([1.0], rule_groups=[], scores=[42.0], name="x")
        )
        answer = database.ptk("x", k=3, threshold=0.5)
        assert answer.answer_set == {"t0"}
        assert answer.probabilities["t0"] == pytest.approx(1.0)
        # The answer came from a fresh preparation, not the stale one.
        assert database.prepare_cache.stats().misses == misses_before + 1

    def test_drop_unknown_table_raises(self, db):
        from repro.exceptions import UnknownTableError

        with pytest.raises(UnknownTableError):
            db.drop("never_registered")
