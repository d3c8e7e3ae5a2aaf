"""Batched sampler throughput and prepare-cache amortisation.

Two experiments beyond the paper's figures:

1. **Batch speedup** — wall-clock of the vectorised batch sampler
   (:meth:`WorldSampler.sample_batch` driving
   :func:`sampled_topk_probabilities`) against the per-unit reference
   path (:meth:`WorldSampler.sample_unit` in a Python loop) on the
   synthetic workload.  The batch kernel draws coins lazily, so the
   estimates agree statistically (within Monte-Carlo error) rather
   than coin-for-coin; the batched path must be at least ~3x faster
   at budgets of 10k+ units.

2. **Prepare-cache amortisation** — repeated PT-k queries through
   :class:`UncertainDB` on an unchanged table: the first pays for
   selection/ranking/rule indexing, the rest hit the prepared-ranking
   cache.  With ``REPRO_BENCH_OBS=1`` the emitted metrics snapshot
   carries ``repro_prepare_cache_hits_total`` /
   ``repro_prepare_cache_misses_total`` (the CI smoke job asserts so).
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import bench_scale, emit
from repro.bench.harness import ExperimentTable
from repro.core.kernel import TableColumns
from repro.core.rule_compression import rule_index_of_table
from repro.core.sampling import (
    SamplingConfig,
    WorldSampler,
    sampled_topk_probabilities,
)
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic_table
from repro.query.engine import UncertainDB
from repro.query.topk import TopKQuery


@pytest.fixture(scope="module")
def workload():
    scale = bench_scale()
    config = SyntheticConfig(
        n_tuples=max(500, int(20_000 * scale)),
        n_rules=max(50, int(2_000 * scale)),
        seed=23,
    )
    k = max(5, int(200 * scale))
    budget = max(2_000, int(20_000 * scale))
    return generate_synthetic_table(config), k, budget


def _per_unit_reference(table, k, budget, seed):
    """The pre-batching sampler loop, kept as the timing baseline."""
    query = TopKQuery(k=k)
    selected = query.selected(table)
    ranked = query.ranking.rank_table(selected)
    sampler = WorldSampler(
        TableColumns.from_ranked(ranked, rule_index_of_table(selected)), k=k
    )
    rng = np.random.default_rng(seed)
    counts = {}
    for _ in range(budget):
        top, _ = sampler.sample_unit(rng)
        for tid in top:
            counts[tid] = counts.get(tid, 0) + 1
    return {tid: c / budget for tid, c in counts.items()}


def test_batch_sampler_speedup(benchmark, workload):
    table, k, budget = workload
    seed = 31
    config = SamplingConfig(sample_size=budget, progressive=False, seed=seed)

    start = time.perf_counter()
    reference = _per_unit_reference(table, k, budget, seed)
    per_unit_seconds = time.perf_counter() - start

    batched_result = benchmark.pedantic(
        lambda: sampled_topk_probabilities(table, TopKQuery(k=k), config),
        rounds=1,
        iterations=1,
    )
    start = time.perf_counter()
    sampled_topk_probabilities(table, TopKQuery(k=k), config)
    batched_seconds = time.perf_counter() - start

    speedup = per_unit_seconds / max(batched_seconds, 1e-9)
    result = ExperimentTable(
        title="Batched vs per-unit sampling (same budget, same quality)",
        columns=[
            "budget", "k", "per_unit_s", "batched_s", "speedup",
        ],
        notes=f"n={len(table)}, seed={seed}",
    )
    result.add_row(
        budget, k, round(per_unit_seconds, 4), round(batched_seconds, 4),
        round(speedup, 2),
    )
    emit(result, "sampling_batch_speedup.txt")

    # Same quality: every estimate within Monte-Carlo error of the
    # per-unit reference.  Both runs are independent draws of the same
    # estimator, so the difference has variance 2 p(1-p)/budget; a
    # 5-sigma band keeps the whole-table check deterministic-safe.
    for tid in set(batched_result.estimates) | set(reference):
        got = batched_result.estimates.get(tid, 0.0)
        want = reference.get(tid, 0.0)
        p = max((got + want) / 2, 2.0 / budget)
        band = 5.0 * (2.0 * p * (1.0 - p) / budget) ** 0.5
        assert abs(got - want) <= band, (tid, got, want, band)
    if budget >= 10_000:
        assert speedup >= 3.0, f"batched sampler only {speedup:.1f}x faster"
    else:
        assert speedup >= 1.0, f"batched sampler slower ({speedup:.2f}x)"


def test_prepare_cache_amortisation(benchmark, workload):
    table, k, _ = workload
    db = UncertainDB()
    name = db.register(table)
    threshold = 0.3
    repeats = 8

    start = time.perf_counter()
    first = db.ptk(name, k=k, threshold=threshold)
    first_seconds = time.perf_counter() - start

    def cached_round():
        return db.ptk(name, k=k, threshold=threshold)

    benchmark.pedantic(cached_round, rounds=1, iterations=1)
    start = time.perf_counter()
    for _ in range(repeats):
        answer = cached_round()
    warm_seconds = (time.perf_counter() - start) / repeats

    stats = db.prepare_cache.stats()
    result = ExperimentTable(
        title="Prepare-cache amortisation (repeated PT-k, unchanged table)",
        columns=[
            "n", "k", "first_query_s", "warm_query_s",
            "cache_hits", "cache_misses",
        ],
        notes=f"threshold={threshold}, repeats={repeats}",
    )
    result.add_row(
        len(table), k, round(first_seconds, 4), round(warm_seconds, 4),
        stats.hits, stats.misses,
    )
    emit(result, "sampling_batch_prepare_cache.txt")

    assert answer.answers == first.answers
    assert answer.probabilities == first.probabilities
    assert stats.misses == 1
    assert stats.hits >= repeats
