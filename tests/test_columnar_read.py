"""Tests for the pruned columnar PT-k read.

``exact_ptk_query(..., columnar=True)`` with a threshold above 0 answers
from a columnar :class:`~repro.core.exact.ExactPTKEngine`: a
:class:`~repro.core.kernel.TopKScanState` over the preparation's
columns, read to Theorem 5's stop depth.  This module pins down

* its answers (the scalar engine's, the incremental index's stop depth),
* deadline cuts and checkpoint resumes of its state, and
* its observability: one flush per query, no per-row metric calls.
"""

from __future__ import annotations

import time

import pytest

from repro import obs
from repro.core import exact as exact_module
from repro.core.exact import COLUMNAR, ExactPTKEngine, exact_ptk_query
from repro.core.kernel import ANSWER_CHUNK
from repro.exceptions import QueryError
from repro.obs import OBS, catalogued
from repro.query.engine import UncertainDB
from repro.query.prepare import prepare_ranking
from repro.query.topk import TopKQuery

from tests.test_kernel import random_table


@pytest.fixture(autouse=True)
def _obs_off_after():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()
    OBS.flight.disable()
    OBS.flight.reset()


@pytest.fixture
def table():
    return random_table(31, 600, rule_fraction=0.3)


def columnar(table, k, threshold, prepared, **kwargs):
    return exact_ptk_query(
        table, TopKQuery(k=k), threshold, prepared=prepared, columnar=True,
        **kwargs,
    )


class TestAnswers:
    @pytest.mark.parametrize("k,threshold", [(1, 0.3), (10, 0.3), (40, 0.2)])
    def test_matches_scalar_engine(self, table, k, threshold):
        prepared = prepare_ranking(table, TopKQuery(k=k))
        read = columnar(table, k, threshold, prepared)
        scalar = exact_ptk_query(table, TopKQuery(k=k), threshold)
        assert read.method == COLUMNAR
        assert read.answers == scalar.answers
        for tid in read.answers:
            assert abs(read.probabilities[tid] - scalar.probabilities[tid]) <= 1e-12
        assert read.stats.stopped_by == "total-probability"
        assert read.stats.tuples_pruned == 0

    def test_default_stays_scalar(self, table):
        answer = exact_ptk_query(table, TopKQuery(k=10), 0.3)
        assert answer.method == "RC+LR"

    def test_unpruned_read_covers_the_column(self, table):
        prepared = prepare_ranking(table, TopKQuery(k=5))
        read = columnar(table, 5, 0.3, prepared, pruning=False)
        assert read.stats.scan_depth == len(table)
        assert len(read.probabilities) == len(table)
        assert read.stats.stopped_by == "exhausted"

    def test_rejects_bad_threshold(self, table):
        prepared = prepare_ranking(table, TopKQuery(k=5))
        with pytest.raises(QueryError):
            columnar(table, 5, 1.5, prepared)
        with pytest.raises(QueryError):
            ExactPTKEngine(
                prepared.ranked, prepared.rule_of, {}, k=0, threshold=0.3,
                columnar=True, columns=prepared.columns,
            )

    def test_builds_no_scalar_scan(self, table):
        prepared = prepare_ranking(table, TopKQuery(k=5))
        engine = ExactPTKEngine(
            prepared.ranked, prepared.rule_of, {}, k=5, threshold=0.3,
            columnar=True, columns=prepared.columns,
        )
        assert engine.tracker is None
        assert not hasattr(engine, "_stream")

    def test_each_read_prices_its_own_rows(self, table):
        prepared = prepare_ranking(table, TopKQuery(k=20))
        first = columnar(table, 20, 0.3, prepared)
        again = columnar(table, 20, 0.3, prepared)
        assert again.answers == first.answers
        assert again.probabilities == first.probabilities
        depth = first.stats.scan_depth
        assert depth <= first.stats.tuples_evaluated < depth + ANSWER_CHUNK
        assert again.stats.tuples_evaluated == first.stats.tuples_evaluated
        assert again.stats.subset_extensions == first.stats.subset_extensions
        assert first.stats.subset_extensions > 0

    def test_after_a_write(self, table):
        db = UncertainDB()
        db.register(table)
        query = TopKQuery(k=10)
        before = db.prepare_cache.get(table, query)
        columnar(table, 10, 0.3, before)
        db.update_probability(table.name, before.ranked[0].tid, 0.01)
        after = db.prepare_cache.get(table, query)
        assert after is not before
        read = columnar(table, 10, 0.3, after)
        assert read.answers == exact_ptk_query(table, query, 0.3).answers


class TestDeadlines:
    def test_zero_budget_then_resume(self, table):
        prepared = prepare_ranking(table, TopKQuery(k=40))
        partial = columnar(table, 40, 0.3, prepared, deadline_seconds=0.0)
        assert partial.partial
        assert partial.stats.stopped_by == "deadline"
        assert partial.stats.scan_depth == 0
        info = partial.checkpoint.describe()
        assert info["variant"] == COLUMNAR
        assert info["depth"] == 0
        assert "pruning" not in info
        resumed = exact_ptk_query(
            table, TopKQuery(k=40), 0.3, resume=partial.checkpoint
        )
        assert not resumed.partial
        uncut = columnar(
            table, 40, 0.3, prepare_ranking(table, TopKQuery(k=40))
        )
        assert resumed.answers == uncut.answers
        assert resumed.probabilities == uncut.probabilities
        assert resumed.stats.scan_depth == uncut.stats.scan_depth
        assert resumed.stats.tuples_evaluated == uncut.stats.tuples_evaluated
        assert resumed.stats.subset_extensions == uncut.stats.subset_extensions
        with pytest.raises(QueryError, match="already resumed"):
            partial.checkpoint.resume()

    def test_cut_between_chunks_continues_the_read(self, table, monkeypatch):
        prepared = prepare_ranking(table, TopKQuery(k=150))
        # A clock that ticks one second per reading: the budget of 2.5
        # is checked before each chunk, so the read is cut after exactly
        # two chunks whatever the machine's speed.
        clock = iter(range(10**6))
        monkeypatch.setattr(time, "perf_counter", lambda: float(next(clock)))
        partial = columnar(table, 150, 0.3, prepared, deadline_seconds=2.5)
        monkeypatch.undo()
        assert partial.partial
        assert partial.stats.scan_depth == 2 * ANSWER_CHUNK
        assert partial.stats.tuples_evaluated == 2 * ANSWER_CHUNK
        assert partial.answers == [
            tid for tid, value in partial.probabilities.items() if value >= 0.3
        ]
        resumed = partial.checkpoint.resume()
        assert not resumed.partial
        assert resumed.stats.scan_depth > partial.stats.scan_depth
        uncut = columnar(
            table, 150, 0.3, prepare_ranking(table, TopKQuery(k=150))
        )
        assert resumed.answers == uncut.answers
        assert resumed.probabilities == uncut.probabilities
        assert resumed.stats.tuples_evaluated == uncut.stats.tuples_evaluated


class TestObservability:
    def test_one_flush_per_query_and_profile_fields(self, table, monkeypatch):
        calls = []
        real = exact_module.catalogued

        def counting(name):
            calls.append(name)
            return real(name)

        monkeypatch.setattr(exact_module, "catalogued", counting)
        prepared = prepare_ranking(table, TopKQuery(k=50))
        with obs.enabled_scope(fresh=True):
            OBS.flight.enable()
            per_query = []
            for k in (1, 50):
                profile = OBS.flight.begin("ptk", k=k, threshold=0.3)
                before = len(calls)
                answer = columnar(table, k, 0.3, prepared)
                per_query.append(len(calls) - before)
                OBS.flight.finish(profile)
                assert profile.engine == "exact"
                assert profile.variant == COLUMNAR
                assert profile.scan_depth == answer.stats.scan_depth
                assert profile.tuples_evaluated == answer.stats.tuples_evaluated
                assert profile.dp_extensions == answer.stats.subset_extensions
                assert profile.pruned_membership == 0
                assert profile.pruned_same_rule == 0
                assert profile.stopped_by == "total-probability"
            # The metric calls do not grow with the depth priced.
            assert per_query[0] == per_query[1]
            assert catalogued("repro_ptk_queries_total").value(
                method=COLUMNAR
            ) == 2.0
            assert "repro_ptk_dp_units" not in calls
