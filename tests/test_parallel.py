"""Tests for the parallel execution layer (repro.parallel)."""

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


def spy_on_chunks(monkeypatch):
    """Record the chunks the fan-out deals to ``shard_map`` and run them
    in this process."""
    from repro.parallel import fanout

    shipped = []

    def spy(fn, tasks, workers):
        shipped.extend(tasks)
        return shard_map(fn, tasks, workers, use_processes=False)

    monkeypatch.setattr(fanout, "shard_map", spy)
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


class TestFanOut:
    @pytest.fixture()
    def db(self, table):
        database = UncertainDB()
        database.register(panda_table())
        database.register(table, name="synth")
        return database

    REQUESTS = [
        ("panda_sightings", 2, 0.35),
        ("synth", 10, 0.3),
        ("panda_sightings", 3, 0.2),
        ("synth", 5, 0.5),
        ("synth", 20, 0.1),
    ]

    def test_ptk_many_matches_sequential(self, db):
        many = db.ptk_many(self.REQUESTS, n_workers=2)
        for answer, (name, k, threshold) in zip(many, self.REQUESTS):
            reference = db.ptk(name, k=k, threshold=threshold)
            assert answer.answers == reference.answers
            assert answer.probabilities == reference.probabilities
            assert answer.k == k and answer.threshold == threshold

    # Repeated (table, k) pairs: each pair's requests share one scan.
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

    @pytest.mark.parametrize("use_processes", [False, True])
    @pytest.mark.parametrize("pruning", [True, False])
    def test_grouped_reads_equal_per_request_ptk(
        self, db, monkeypatch, use_processes, pruning
    ):
        if not use_processes:
            spy_on_chunks(monkeypatch)
        many = db.ptk_many(self.GROUPED, n_workers=2, pruning=pruning)
        references = [
            db.ptk(name, k=k, threshold=threshold, pruning=pruning)
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
            # The group's one state priced as far as its deepest read
            # needed — what that read prices on a fresh state — and the
            # group's answers bill those rows exactly once.
            assert sum(a.stats.tuples_evaluated for a, _ in pairs) == max(
                r.stats.tuples_evaluated for _, r in pairs
            )
            assert sum(a.stats.subset_extensions for a, _ in pairs) == max(
                r.stats.subset_extensions for _, r in pairs
            )

    def test_fanout_chunks_ship_columns(self, db, monkeypatch):
        import pickle

        from repro.parallel import fanout

        prepared_of = {
            name: db.prepare_cache.get(db.table(name), TopKQuery(k=1))
            for name in ("panda_sightings", "synth")
        }
        shipped = spy_on_chunks(monkeypatch)
        fanout.parallel_ptk_queries(prepared_of, self.GROUPED, n_workers=2)
        assert len(shipped) == 2
        for chunk in shipped:
            for key, columns in chunk.columns_of.items():
                assert columns is prepared_of[key].columns
            pickle.dumps(chunk)  # no closures: ranking lambdas stay home
        # Every (table, k) group is answered by exactly one chunk.
        groups = [
            {(key, k) for _, key, k, _ in chunk.items} for chunk in shipped
        ]
        assert not groups[0] & groups[1]

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_ptk_batch_equals_unpruned_ptk(self, db, n_workers):
        # Through a real pool for n_workers=2: the first request at each
        # k bills the reference's full scan, later ones at that k bill 0.
        requests = [(10, 0.3), (5, 0.5), (10, 0.05), (20, 0.2), (5, 0.9)]
        batch = db.ptk_batch("synth", requests, n_workers=n_workers)
        billed = {}
        for answer, (k, threshold) in zip(batch, requests):
            reference = db.ptk("synth", k, threshold, pruning=False)
            assert answer.answers == reference.answers
            assert answer.probabilities == reference.probabilities
            assert len(answer.probabilities) == len(db.table("synth"))
            assert answer.stats.scan_depth == reference.stats.scan_depth
            assert answer.stats.stopped_by == reference.stats.stopped_by
            assert answer.stats.tuples_evaluated == (
                0 if k in billed else reference.stats.tuples_evaluated
            )
            billed[k] = billed.get(k, 0) + answer.stats.tuples_evaluated
        assert billed == {k: len(db.table("synth")) for k in billed}

    def test_ptk_many_with_real_pool(self, db, monkeypatch):
        many = db.ptk_many(self.REQUESTS, n_workers=2)
        spy_on_chunks(monkeypatch)
        inline = db.ptk_many(self.REQUESTS, n_workers=2)
        for a, b in zip(many, inline):
            assert a.answers == b.answers and a.probabilities == b.probabilities

    def test_ptk_many_prepares_each_table_once(self, db):
        misses_before = db.prepare_cache.stats().misses
        db.ptk_many(self.REQUESTS, n_workers=2)
        assert db.prepare_cache.stats().misses == misses_before + 2

    def test_ptk_many_unknown_table(self, db):
        from repro.exceptions import UnknownTupleError

        with pytest.raises(UnknownTupleError):
            db.ptk_many([("nope", 2, 0.5)])

    def test_ptk_many_empty(self, db):
        assert db.ptk_many([]) == []

    def test_parallel_batch_matches_serial(self, table):
        requests = [(10, 0.3), (5, 0.5), (20, 0.2), (1, 0.9), (15, 0.4)]
        serial = batch_ptk_queries(table, requests)
        for workers in (2, 3):
            parallel = batch_ptk_queries(table, requests, n_workers=workers)
            for a, b in zip(parallel, serial):
                assert a.answers == b.answers
                assert a.probabilities == b.probabilities

    def test_engine_ptk_batch_parallel(self, db):
        requests = [(10, 0.3), (5, 0.5), (20, 0.2)]
        serial = db.ptk_batch("synth", requests)
        parallel = db.ptk_batch("synth", requests, n_workers=2)
        for a, b in zip(parallel, serial):
            assert a.answers == b.answers

    def test_single_request_stays_serial(self, table):
        # A 1-request batch must not pay fan-out machinery.
        serial = batch_ptk_queries(table, [(5, 0.5)])
        parallel = batch_ptk_queries(table, [(5, 0.5)], n_workers=4)
        assert parallel[0].answers == serial[0].answers
        assert parallel[0].stats.tuples_evaluated == len(
            serial[0].probabilities
        ) or parallel[0].stats.tuples_evaluated == serial[0].stats.tuples_evaluated


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
            batch_ptk_queries(table, [(5, 0.5), (10, 0.3)], n_workers=2)
            metrics = snapshot()["metrics"]
            samples = metrics["repro_parallel_fanout_queries_total"]["samples"]
            by_mode = {
                tuple(sorted(s["labels"].items())): s["value"] for s in samples
            }
            assert by_mode[(("mode", "batch"),)] == 2.0
        finally:
            obs.disable()
