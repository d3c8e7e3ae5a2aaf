"""Tests for the pruned columnar PT-k read.

``exact_ptk_query(..., columnar=True)`` with a threshold above 0 answers
from a columnar :class:`~repro.core.exact.ExactPTKEngine`: a
:class:`~repro.core.kernel.TopKScanState` over the preparation's
columns, read to Theorem 5's stop depth.  This module pins down

* its answers (the scalar engine's, the incremental index's stop depth),
* deadline cuts, and retries that continue the rows a cut read priced,
* the preparation's warm scans: reads at one ``k`` share one state, in
  any order and from any thread, bitwise as if each read were cold, and
* its observability: one flush per query, no per-row metric calls.
"""

from __future__ import annotations

import pickle
import random
import sys
import threading
import time
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import exact as exact_module
from repro.core import kernel
from repro.core.exact import COLUMNAR, ExactPTKEngine, exact_ptk_query
from repro.core.kernel import ANSWER_CHUNK, TopKScanState
from repro.exceptions import QueryError
from repro.obs import OBS, catalogued
from repro.query.engine import UncertainDB
from repro.query.prepare import MAX_SCAN_STATES, prepare_ranking
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
        columns = prepared.columns
        with pytest.raises(QueryError, match="scan state is for k=4"):
            ExactPTKEngine(
                prepared.ranked, prepared.rule_of, {}, k=5, threshold=0.3,
                columnar=True, columns=columns,
                state=TopKScanState(columns.probability, columns.rule_index, 4),
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
        assert first.stats.subset_extensions > 0
        # The repeat reads the preparation's warm scan: nothing to price.
        assert again.stats.scan_depth == depth
        assert again.stats.tuples_evaluated == 0
        assert again.stats.subset_extensions == 0

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
        assert partial.stats.tuples_evaluated == 0
        assert partial.method == COLUMNAR
        # The retry re-issues the read on the same preparation.
        resumed = columnar(table, 40, 0.3, prepared)
        assert not resumed.partial
        uncut = columnar(
            table, 40, 0.3, prepare_ranking(table, TopKQuery(k=40))
        )
        assert resumed.answers == uncut.answers
        assert resumed.probabilities == uncut.probabilities
        assert resumed.stats.scan_depth == uncut.stats.scan_depth
        assert resumed.stats.tuples_evaluated == uncut.stats.tuples_evaluated
        assert resumed.stats.subset_extensions == uncut.stats.subset_extensions

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
        resumed = columnar(table, 150, 0.3, prepared)
        assert not resumed.partial
        assert resumed.stats.scan_depth > partial.stats.scan_depth
        uncut = columnar(
            table, 150, 0.3, prepare_ranking(table, TopKQuery(k=150))
        )
        assert resumed.answers == uncut.answers
        assert resumed.probabilities == uncut.probabilities
        # The retry bills only the rows the cut read left.
        assert (
            partial.stats.tuples_evaluated + resumed.stats.tuples_evaluated
            == uncut.stats.tuples_evaluated
        )
        assert (
            partial.stats.subset_extensions + resumed.stats.subset_extensions
            == uncut.stats.subset_extensions
        )


def bits(answer):
    """What a warm read must share bitwise with a cold one."""
    return (
        answer.answers,
        [(tid, value.hex()) for tid, value in answer.probabilities.items()],
        answer.stats.scan_depth,
        answer.stats.stopped_by,
    )


def cold(table, k, threshold, pruning=True):
    """The read on a fresh preparation, whose scan no read has warmed."""
    return columnar(
        table, k, threshold, prepare_ranking(table, TopKQuery(k=k)),
        pruning=pruning,
    )


def ticking(read, budget):
    """Run ``read(budget)`` on a clock that ticks once per reading, so a
    budget of ``b`` cuts the read after ``ceil(b) - 1`` chunks whatever
    the machine's speed; ``None`` runs it unbudgeted on the real clock."""
    if budget is None:
        return read(None)
    clock = iter(range(10**6))
    fake = SimpleNamespace(perf_counter=lambda: float(next(clock)))
    with mock.patch.object(exact_module, "time", fake), mock.patch.object(
        kernel, "time", fake
    ):
        return read(budget)


#: (k, threshold, pruning, budget in clock ticks, retry a parked cut)
READ_OPS = st.tuples(
    st.sampled_from([1, 2, 5, 10, 40]),
    st.sampled_from([0.05, 0.2, 0.3, 0.5, 0.9]),
    st.booleans(),
    st.sampled_from([None, None, 0.5, 1.5, 2.5]),
    st.booleans(),
)


class TestWarmScans:
    """Reads on one preparation resume its warm scan at their ``k``."""

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(1, 300),
        hot_rules=st.booleans(),
        ops=st.lists(READ_OPS, min_size=1, max_size=12),
    )
    def test_interleaved_reads_equal_cold_reads(self, seed, n, hot_rules, ops):
        table = random_table(seed, n, rule_fraction=0.4, hot_rules=hot_rules)
        prepared = prepare_ranking(table, TopKQuery(k=1))
        expected = {}
        parked = []

        def issue(shape, budget):
            """Read ``shape``; a cut read is parked for a retry."""
            k, threshold, pruning = shape
            answer = ticking(
                lambda b: columnar(
                    table, k, threshold, prepared, pruning=pruning,
                    deadline_seconds=b,
                ),
                budget,
            )
            if answer.partial:
                parked.append(shape)
                return
            if shape not in expected:
                expected[shape] = bits(cold(table, *shape))
            assert bits(answer) == expected[shape]

        for k, threshold, pruning, budget, retry in ops:
            if retry and parked:
                issue(parked.pop(0), budget)
            else:
                issue((k, threshold, pruning), budget)
        while parked:
            issue(parked.pop(0), None)

    def test_repeat_bills_nothing_and_equals_the_cold_read(self, table):
        prepared = prepare_ranking(table, TopKQuery(k=1))
        first = columnar(table, 10, 0.3, prepared)
        assert first.stats.tuples_evaluated > 0
        assert prepared.scanned_rows(10) == first.stats.tuples_evaluated
        for threshold in (0.3, 0.5, 0.2):
            again = columnar(table, 10, threshold, prepared)
            assert bits(again) == bits(cold(table, 10, threshold))
        assert prepared.scanned_rows(10) >= again.stats.scan_depth

    def test_threads_share_one_preparation(self):
        table = random_table(7, 3000, rule_fraction=0.3)
        prepared = prepare_ranking(table, TopKQuery(k=1))
        shapes = [
            (k, threshold, True)
            for k in (5, 10, 40, 100) for threshold in (0.2, 0.3, 0.5)
        ] + [(5, 0.3, False)]
        expected = {shape: bits(cold(table, *shape)) for shape in shapes}
        failures = []

        def reader(seed):
            rng = random.Random(seed)
            try:
                for _ in range(50):
                    k, threshold, pruning = shape = rng.choice(shapes)
                    budget = rng.choice([None, None, 0.0, 0.0005])
                    answer = columnar(
                        table, k, threshold, prepared, pruning=pruning,
                        deadline_seconds=budget,
                    )
                    # A cut read is retried budgeted a few times,
                    # then without a budget.
                    for attempt in range(4):
                        if not answer.partial:
                            break
                        answer = columnar(
                            table, k, threshold, prepared, pruning=pruning,
                            deadline_seconds=budget if attempt < 3 else None,
                        )
                    if bits(answer) != expected[shape]:
                        failures.append(shape)
            except Exception as error:  # pragma: no cover - reported below
                failures.append(error)

        threads = [
            threading.Thread(target=reader, args=(seed,)) for seed in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads inside each read
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    def test_a_write_reads_a_new_preparation(self, table):
        db = UncertainDB()
        db.register(table)
        first = db.ptk(table.name, 10, 0.3)
        assert db.ptk(table.name, 10, 0.3).stats.tuples_evaluated == 0
        before = db.prepare_cache.get(table, TopKQuery(k=10))
        db.update_probability(table.name, before.ranked[0].tid, 0.01)
        after = db.prepare_cache.get(table, TopKQuery(k=10))
        assert after is not before
        assert after.scanned_rows(10) == 0
        read = db.ptk(table.name, 10, 0.3)
        assert read.stats.tuples_evaluated > 0
        assert bits(read) == bits(cold(table, 10, 0.3))
        assert bits(read) != bits(first)

    def test_least_recently_read_k_is_evicted(self, table):
        prepared = prepare_ranking(table, TopKQuery(k=1))
        ks = list(range(1, MAX_SCAN_STATES + 1))
        for k in ks:
            columnar(table, k, 0.3, prepared)
        columnar(table, 1, 0.3, prepared)  # k=1 is now the most recent
        assert prepared.scanned_rows(2) > 0  # peeking is not a read
        columnar(table, MAX_SCAN_STATES + 1, 0.3, prepared)
        assert prepared.scanned_rows(2) == 0
        for k in [1, *ks[2:], MAX_SCAN_STATES + 1]:
            assert prepared.scanned_rows(k) > 0
        again = columnar(table, 2, 0.3, prepared)
        assert again.stats.tuples_evaluated > 0
        assert bits(again) == bits(cold(table, 2, 0.3))

    def test_pickled_preparation_starts_cold(self, table):
        prepared = prepare_ranking(table, TopKQuery(k=1))
        columnar(table, 10, 0.3, prepared)
        # The default ranking is a closure: drop it, as the process pool
        # does, but on this warm preparation itself.
        object.__setattr__(prepared, "ranking", None)
        clone = pickle.loads(pickle.dumps(prepared))
        assert prepared.scanned_rows(10) > 0
        assert clone.scanned_rows(10) == 0
        assert bits(columnar(table, 10, 0.3, clone)) == bits(
            cold(table, 10, 0.3)
        )


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
