"""Tests for the parallel execution layer (repro.parallel)."""

import sys
import threading

import numpy as np
import pytest

from repro.core import sampling
from repro.core.batch import batch_ptk_queries
from repro.core.sampling import (
    SamplingConfig,
    sampled_topk_probabilities,
    shard_budgets,
)
from repro.datagen.sensors import panda_table
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic_table
from repro.exceptions import QueryError, SamplingError
from repro.parallel import resolve_workers, shard_map
from repro.query.engine import UncertainDB
from repro.query.topk import TopKQuery
from repro.stats.intervals import wilson_interval
from tests.test_columnar_read import bits


@pytest.fixture(scope="module")
def table():
    return generate_synthetic_table(
        SyntheticConfig(n_tuples=1500, n_rules=80, seed=3)
    )


QUERY = TopKQuery(k=20)


def sample(table, n_workers, **overrides):
    defaults = dict(sample_size=12_000, progressive=False, seed=9)
    defaults.update(overrides)
    config = SamplingConfig(n_workers=n_workers, **defaults)
    return sampled_topk_probabilities(table, QUERY, config=config)


def spy_on_shards(monkeypatch, inline=False):
    """Record the tasks the sampler deals to ``shard_map``; ``inline``
    forces them to run in this process."""
    shipped = []
    real = shard_map

    def spy(fn, tasks, workers):
        shipped.extend(tasks)
        return real(fn, tasks, workers, use_processes=not inline)

    monkeypatch.setattr(sampling, "shard_map", spy)
    return shipped


class TestShardPlumbing:
    def test_shard_budgets_split_exactly(self):
        assert shard_budgets(10, 4) == [3, 3, 2, 2]
        assert shard_budgets(8, 4) == [2, 2, 2, 2]
        assert sum(shard_budgets(50_001, 7)) == 50_001

    def test_zero_unit_shards_dropped(self):
        assert shard_budgets(2, 4) == [1, 1]

    def test_shard_budgets_validation(self):
        with pytest.raises(SamplingError):
            shard_budgets(0, 4)
        with pytest.raises(SamplingError):
            shard_budgets(100, 0)

    def test_shard_seeds_reproducible(self, table, monkeypatch):
        # Shard i of a run with the same (seed, n_shards) always draws
        # child i of SeedSequence(seed).spawn(n_shards).
        shipped = spy_on_shards(monkeypatch, inline=True)
        sample(table, 4, sample_size=400, seed=42)
        sample(table, 4, sample_size=400, seed=42)
        a, b = shipped[:4], shipped[4:]
        assert len(a) == 4
        for sa, sb in zip(a, b):
            assert (
                np.random.default_rng(sa.seed).random(8).tolist()
                == np.random.default_rng(sb.seed).random(8).tolist()
            )
        spawned = np.random.SeedSequence(42).spawn(4)
        assert [task.seed.spawn_key for task in a] == [
            child.spawn_key for child in spawned
        ]

    def test_shard_seeds_independent_streams(self, table, monkeypatch):
        shipped = spy_on_shards(monkeypatch, inline=True)
        sample(table, 3, sample_size=300, seed=42)
        draws = [
            np.random.default_rng(task.seed).random(4).tolist()
            for task in shipped
        ]
        assert draws[0] != draws[1] != draws[2]

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) >= 1
        with pytest.raises(QueryError):
            resolve_workers(-1)
        with pytest.raises(QueryError):
            resolve_workers(2.5)

    def test_shard_map_preserves_task_order(self):
        assert shard_map(_square, [3, 1, 2], 2, use_processes=False) == [9, 1, 4]

    def test_shard_map_with_real_pool(self):
        # One genuine pool round trip; falls back inline where the
        # sandbox forbids subprocesses, with identical results either way.
        assert shard_map(_square, [4, 5], 2, use_processes=True) == [16, 25]


def _square(x):
    return x * x


class TestShardedSampling:
    def test_deterministic_for_fixed_triple(self, table):
        a = sample(table, n_workers=4)
        b = sample(table, n_workers=4)
        assert a.estimates == b.estimates
        assert a.units_drawn == b.units_drawn == 12_000
        assert a.total_scanned == b.total_scanned

    def test_n_workers_1_byte_identical_to_single_process(
        self, table, monkeypatch
    ):
        # One worker runs the draw loop inline on default_rng(seed): no
        # shard, no spawned child seed.
        shipped = spy_on_shards(monkeypatch)
        config = SamplingConfig(
            sample_size=12_000, progressive=False, seed=9, n_workers=1
        )
        direct = sampled_topk_probabilities(
            table, QUERY, config=config, rng=np.random.default_rng(9)
        )
        via_parallel = sample(table, n_workers=1)
        assert direct.estimates == via_parallel.estimates
        assert direct.total_scanned == via_parallel.total_scanned
        assert shipped == []

    def test_worker_count_changes_the_stream(self, table):
        # Different shard counts draw different (equally valid) units;
        # the determinism contract is per (seed, batch_size, n_workers).
        assert sample(table, 2).estimates != sample(table, 4).estimates

    def test_agreement_with_single_process_within_wilson(self, table):
        serial = sample(table, n_workers=1)
        parallel = sample(table, n_workers=4)
        n = serial.units_drawn
        checked = 0
        for tid, p_serial in serial.estimates.items():
            low, high = wilson_interval(p_serial * n, n, confidence=0.999)
            # The parallel estimate is an independent draw of the same
            # quantity; it must land inside (a slightly padded) 99.9%
            # interval of the serial one for every tuple.
            pad = 0.01
            assert low - pad <= parallel.estimate_of(tid) <= high + pad, tid
            checked += 1
        assert checked > 0

    def test_sampling_config_delegates(self, table, monkeypatch):
        # SamplingConfig(n_workers=3) deals one shard per worker through
        # shard_map (this is what the CLI --workers flag hits).
        shipped = spy_on_shards(monkeypatch)
        config = SamplingConfig(
            sample_size=6_000, progressive=False, seed=9, n_workers=3
        )
        via_config = sampled_topk_probabilities(table, QUERY, config=config)
        direct = sample(table, n_workers=3, sample_size=6_000)
        assert via_config.estimates == direct.estimates
        assert [task.budget for task in shipped] == [2_000] * 6

    def test_explicit_rng_rejected_with_workers(self, table):
        config = SamplingConfig(sample_size=1_000, n_workers=2)
        with pytest.raises(SamplingError):
            sampled_topk_probabilities(
                table, QUERY, config=config, rng=np.random.default_rng(1)
            )

    def test_progressive_merged_stopping_deterministic(self, table):
        a = sample(table, 4, progressive=True, sample_size=40_000)
        b = sample(table, 4, progressive=True, sample_size=40_000)
        assert a.estimates == b.estimates
        assert a.units_drawn == b.units_drawn
        assert a.converged_early == b.converged_early
        if a.converged_early:
            assert a.units_drawn < 40_000
        assert a.units_drawn >= SamplingConfig().min_samples

    def test_pooled_equals_inline(self, table, monkeypatch):
        pooled = [
            sample(table, 2, sample_size=4_000, progressive=progressive)
            for progressive in (False, True)
        ]
        spy_on_shards(monkeypatch, inline=True)
        inline = [
            sample(table, 2, sample_size=4_000, progressive=progressive)
            for progressive in (False, True)
        ]
        for a, b in zip(inline, pooled):
            assert a.estimates == b.estimates
            assert a.total_scanned == b.total_scanned
            assert a.units_drawn == b.units_drawn
            assert a.converged_early == b.converged_early

    def test_shards_ship_columns(self, table, monkeypatch):
        import pickle

        from repro.query.prepare import prepare_ranking

        prepared = prepare_ranking(table, QUERY)
        shipped = spy_on_shards(monkeypatch, inline=True)
        sampled_topk_probabilities(
            table,
            QUERY,
            config=SamplingConfig(
                n_workers=2, sample_size=2_000, progressive=False, seed=9
            ),
            prepared=prepared,
        )
        assert len(shipped) == 2
        for task in shipped:
            assert task.columns is prepared.columns
            pickle.dumps(task)  # no closures: ranking lambdas stay home


def fresh_db(table):
    """A database whose preparations no read has warmed."""
    database = UncertainDB()
    database.register(panda_table())
    database.register(table, name="synth")
    return database


class TestFanOut:
    @pytest.fixture()
    def db(self, table):
        return fresh_db(table)

    REQUESTS = [
        ("panda_sightings", 2, 0.35),
        ("synth", 10, 0.3),
        ("panda_sightings", 3, 0.2),
        ("synth", 5, 0.5),
        ("synth", 20, 0.1),
    ]

    def test_ptk_many_matches_sequential(self, db):
        many = db.ptk_many(self.REQUESTS)
        for answer, (name, k, threshold) in zip(many, self.REQUESTS):
            reference = db.ptk(name, k=k, threshold=threshold)
            assert answer.answers == reference.answers
            assert answer.probabilities == reference.probabilities
            assert answer.k == k and answer.threshold == threshold

    # Repeated (table, k) pairs: each pair's requests read one scan.
    # synth k=10 reads deep (p=0.1) then shallow (p=0.6); k=20 reads
    # shallow then deep; k=5 repeats one threshold.
    GROUPED = [
        ("synth", 10, 0.1),
        ("panda_sightings", 2, 0.35),
        ("synth", 20, 0.7),
        ("synth", 10, 0.6),
        ("synth", 5, 0.4),
        ("synth", 20, 0.05),
        ("panda_sightings", 2, 0.6),
        ("synth", 5, 0.4),
        ("synth", 10, 0.3),
    ]

    @pytest.mark.parametrize("repeat", [False, True])
    @pytest.mark.parametrize("pruning", [True, False])
    def test_grouped_reads_equal_per_request_ptk(
        self, db, table, pruning, repeat
    ):
        many = db.ptk_many(self.GROUPED, pruning=pruning)
        if repeat:
            # The same call again reads scans that hold every row it needs.
            many = db.ptk_many(self.GROUPED, pruning=pruning)
        # Each reference reads a fresh database: on ``db`` the warm
        # scans ptk_many left would bill it 0 rows.
        references = [
            fresh_db(table).ptk(name, k=k, threshold=threshold, pruning=pruning)
            for name, k, threshold in self.GROUPED
        ]
        groups = {}
        for answer, reference, (name, k, threshold) in zip(
            many, references, self.GROUPED
        ):
            assert answer.method == reference.method == "columnar"
            assert answer.answers == reference.answers
            assert answer.probabilities == reference.probabilities
            assert answer.stats.scan_depth == reference.stats.scan_depth
            assert answer.stats.stopped_by == reference.stats.stopped_by
            assert answer.k == k and answer.threshold == threshold
            groups.setdefault((name, k), []).append((answer, reference))
        stops = {r.stats.stopped_by for r in references}
        assert stops == ({"total-probability"} if pruning else {"exhausted"})
        for pairs in groups.values():
            # The group's one scan priced as far as its deepest read
            # needed — what that read prices on a fresh state — and the
            # group's answers bill those rows exactly once, in the
            # first call.
            assert sum(a.stats.tuples_evaluated for a, _ in pairs) == (
                0 if repeat else max(r.stats.tuples_evaluated for _, r in pairs)
            )
            assert sum(a.stats.subset_extensions for a, _ in pairs) == (
                0 if repeat
                else max(r.stats.subset_extensions for _, r in pairs)
            )

    @pytest.mark.parametrize("calls", [1, 2])
    def test_ptk_batch_equals_unpruned_ptk(self, db, table, calls):
        # In the first call, the first request at each k bills the
        # reference's full scan, later ones at that k bill 0; a second
        # call bills 0 throughout.
        requests = [(10, 0.3), (5, 0.5), (10, 0.05), (20, 0.2), (5, 0.9)]
        for _ in range(calls):
            batch = db.ptk_batch("synth", requests)
        billed = {}
        for answer, (k, threshold) in zip(batch, requests):
            reference = fresh_db(table).ptk(
                "synth", k, threshold, pruning=False
            )
            assert answer.answers == reference.answers
            assert answer.probabilities == reference.probabilities
            assert len(answer.probabilities) == len(db.table("synth"))
            assert answer.stats.scan_depth == reference.stats.scan_depth
            assert answer.stats.stopped_by == reference.stats.stopped_by
            assert answer.stats.tuples_evaluated == (
                0 if k in billed or calls > 1
                else reference.stats.tuples_evaluated
            )
            billed[k] = billed.get(k, 0) + answer.stats.tuples_evaluated
        assert billed == {
            k: 0 if calls > 1 else len(db.table("synth")) for k in billed
        }

    def test_ptk_many_prepares_each_table_once(self, db):
        misses_before = db.prepare_cache.stats().misses
        db.ptk_many(self.REQUESTS)
        assert db.prepare_cache.stats().misses == misses_before + 2

    def test_ptk_many_unknown_table(self, db):
        from repro.exceptions import UnknownTupleError

        with pytest.raises(UnknownTupleError):
            db.ptk_many([("nope", 2, 0.5)])

    def test_ptk_many_empty(self, db):
        assert db.ptk_many([]) == []


class TestWarmBatchReads:
    """``db.ptk``, ``ptk_many`` and ``ptk_batch`` resume one
    preparation's warm scans, across calls and across writes."""

    def test_reads_bill_only_the_rows_the_warm_scan_lacks(self):
        table = generate_synthetic_table(
            SyntheticConfig(n_tuples=1500, n_rules=80, seed=5)
        )
        db = UncertainDB()
        db.register(table, name="t")

        def prepared():
            return db.prepare_cache.get(table, TopKQuery(k=1))

        def billed(answer, k, threshold, pruning=True):
            reference = UncertainDB()
            reference.register(table, name="t")
            fresh = reference.ptk("t", k, threshold, pruning=pruning)
            assert bits(answer) == bits(fresh)
            return answer.stats.tuples_evaluated

        def many(*thresholds):
            answers = db.ptk_many([("t", 10, p) for p in thresholds])
            return [billed(a, 10, p) for a, p in zip(answers, thresholds)]

        def batch():
            return billed(db.ptk_batch("t", [(5, 0.2)])[0], 5, 0.2, False)

        def write_at(rank):
            tids = prepared().columns.tids
            tid = next(t for t in tids[rank:] if table.is_independent(t))
            db.update_probability("t", tid, table.get(tid).probability / 2)

        n = len(table)
        assert billed(db.ptk("t", 10, 0.3), 10, 0.3) > 0
        assert many(0.3, 0.5) == [0, 0]
        assert batch() == n
        assert batch() == 0
        assert billed(db.ptk("t", 5, 0.2), 5, 0.2) == 0

        # Below the k=10 scan's priced rows: it keeps all of them.  The
        # k=5 scan priced every row and restores a snapshot.
        priced = prepared().index.scans[10].done
        assert priced < n
        write_at(priced)
        assert prepared().scanned_rows(10) == priced
        assert many(0.3, 0.6) == [0, 0]
        kept = prepared().scanned_rows(5)
        assert batch() == n - kept

        # Above them: the read re-prices from the restored snapshot.
        write_at(priced // 2)
        restored = prepared().scanned_rows(10)
        assert 0 < restored <= priced // 2
        assert many(0.3, 0.3) == [
            prepared().index.scans[10].done - restored, 0
        ]
        kept = prepared().scanned_rows(5)
        assert 0 < kept < n
        assert batch() == n - kept

    def test_threads_read_while_a_writer_toggles_a_tuple(self):
        # Three readers (more than this host's cores) and one writer
        # share the warm scans; every answer is a fresh database's read
        # of one of the two table versions the writer alternates.
        table = generate_synthetic_table(
            SyntheticConfig(n_tuples=800, n_rules=40, seed=9)
        )
        db = UncertainDB()
        db.register(table, name="t")
        ranked = db.prepare_cache.get(table, TopKQuery(k=1)).columns.tids
        tid = next(t for t in ranked[20:] if table.is_independent(t))
        values = (table.get(tid).probability, 0.05)
        many = [("t", 10, 0.3), ("t", 20, 0.2), ("t", 10, 0.5)]
        batch = [(5, 0.4), (10, 0.3)]
        expected = []
        for value in values:
            db.update_probability("t", tid, value)
            fresh = UncertainDB()
            fresh.register(table, name="t")
            expected.append((
                [bits(fresh.ptk("t", k, p)) for _, k, p in many],
                [bits(fresh.ptk("t", k, p, pruning=False)) for k, p in batch],
            ))
        failures = []

        def reader(seed):
            try:
                for round_ in range(30):
                    if (seed + round_) % 2:
                        got = ([bits(a) for a in db.ptk_many(many)], None)
                    else:
                        got = (None, [bits(a) for a in db.ptk_batch("t", batch)])
                    if not any(
                        got[0] in (None, e[0]) and got[1] in (None, e[1])
                        for e in expected
                    ):
                        failures.append((seed, round_))
            except Exception as error:  # pragma: no cover - reported below
                failures.append(error)

        def writer():
            for round_ in range(60):
                db.update_probability("t", tid, values[round_ % 2])

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(3)]
        threads.append(threading.Thread(target=writer))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


class TestParallelObservability:
    def test_shard_metrics_emitted(self, table):
        import repro.obs as obs
        from repro.obs.catalog import validate_snapshot
        from repro.obs.export import snapshot

        obs.enable(fresh=True)
        try:
            sample(table, n_workers=3, sample_size=3_000)
            snap = snapshot()
            metrics = snap["metrics"]
            assert metrics["repro_parallel_shards_total"]["samples"][0][
                "value"
            ] == 3.0
            assert metrics["repro_parallel_workers"]["samples"][0]["value"] == 3.0
            assert "repro_parallel_shard_units" in metrics
            assert "repro_parallel_merge_seconds" in metrics
            assert validate_snapshot(snap) == []
        finally:
            obs.disable()

    @pytest.mark.parametrize("n_workers", [1, 3])
    def test_sampler_metrics_for_any_worker_count(self, table, n_workers):
        # One publishing block serves both executors: a sharded run
        # reports lazy early stops and unit scan lengths too.
        import repro.obs as obs
        from repro.obs.export import snapshot

        obs.enable(fresh=True)
        try:
            result = sample(table, n_workers=n_workers, sample_size=3_000)
            metrics = snapshot()["metrics"]
        finally:
            obs.disable()

        def value(name):
            return metrics[name]["samples"][0]["value"]

        assert value("repro_sampler_units_total") == 3_000
        assert 0 < value("repro_sampler_lazy_early_stops_total") <= 3_000
        lengths = metrics["repro_sampler_unit_scan_length"]["samples"][0]
        assert lengths["count"] == 3_000
        assert lengths["sum"] == result.total_scanned

    def test_fanout_metrics_emitted(self, table):
        import repro.obs as obs
        from repro.obs.export import snapshot

        obs.enable(fresh=True)
        try:
            batch_ptk_queries(table, [(5, 0.5), (10, 0.3)])
            metrics = snapshot()["metrics"]
            samples = metrics["repro_parallel_fanout_queries_total"]["samples"]
            by_mode = {
                tuple(sorted(s["labels"].items())): s["value"] for s in samples
            }
            assert by_mode[(("mode", "batch"),)] == 2.0
        finally:
            obs.disable()
