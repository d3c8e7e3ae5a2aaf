"""Micro-benchmarks of the core primitives (proper pytest-benchmark use).

Not a paper figure: these track the per-operation costs that the macro
experiments are built from — one DP extension, one sample unit, one full
PT-k query at the default configuration — so performance regressions in
the primitives are caught independently of workload shape.
"""

import random

import numpy as np
import pytest

from benchmarks.conftest import bench_scale
from repro.core.exact import (
    ExactVariant,
    exact_ptk_query,
    exact_topk_probabilities,
)
from repro.query.planner import LatencyEstimate
from repro.query.prepare import prepare_ranking
from repro.core.rule_compression import rule_index_of_table
from repro.core.sampling import WorldSampler
from repro.core.subset_probability import SubsetProbabilityVector
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic_table
from repro.query.topk import TopKQuery
from repro.serve.scheduler import CostScheduler, ExactTask


@pytest.fixture(autouse=True)
def _tag_scale(benchmark):
    """Stamp the workload scale on every result: the regression gate
    refuses to compare against a baseline recorded at another scale."""
    benchmark.extra_info["scale"] = bench_scale()


@pytest.fixture(scope="module")
def workload():
    scale = bench_scale()
    table = generate_synthetic_table(
        SyntheticConfig(
            n_tuples=max(500, int(20_000 * scale)),
            n_rules=max(50, int(2_000 * scale)),
            seed=7,
        )
    )
    k = max(10, int(200 * scale))
    return table, k


def test_subset_probability_extension(benchmark):
    vector = SubsetProbabilityVector(201)
    benchmark(vector.extend, 0.5)


def test_subset_probability_thousand_extensions(benchmark):
    def run():
        vector = SubsetProbabilityVector(201)
        for _ in range(1000):
            vector.extend(0.5)

    benchmark.pedantic(run, rounds=5, iterations=1)


def test_sample_unit_generation(benchmark, workload):
    table, k = workload
    query = TopKQuery(k=k)
    ranked = query.ranking.rank_table(table)
    sampler = WorldSampler(ranked, rule_index_of_table(table), k=k)
    rng = np.random.default_rng(0)
    benchmark(sampler.sample_unit, rng)


@pytest.mark.parametrize("variant", list(ExactVariant), ids=lambda v: v.value)
def test_exact_query_variants(benchmark, workload, variant):
    table, k = workload
    query = TopKQuery(k=k)
    benchmark.pedantic(
        lambda: exact_ptk_query(table, query, 0.3, variant=variant),
        rounds=3,
        iterations=1,
    )


def test_full_scan_columnar(benchmark, workload):
    """Full-scan mode on the vectorized columnar kernel."""
    table, k = workload
    query = TopKQuery(k=k)
    prepared = prepare_ranking(table, query)
    prepared.columns  # columnarisation is cached; time only the scan
    benchmark.pedantic(
        lambda: exact_topk_probabilities(
            table, query, prepared=prepared, columnar=True
        ),
        rounds=3,
        iterations=1,
    )


def test_exact_query_columnar_thresholded(benchmark, workload):
    """A k=100, p=0.3 read on the pruned columnar kernel: the served
    exact path, which prices a preparation's columns to Theorem 5's
    stop depth."""
    table, _ = workload
    query = TopKQuery(k=100)
    prepared = prepare_ranking(table, query)
    prepared.columns  # columnarisation is cached; time only the read
    benchmark.pedantic(
        lambda: exact_ptk_query(
            table, query, 0.3, prepared=prepared, columnar=True
        ),
        rounds=20,
        iterations=1,
    )


def test_full_scan_scalar(benchmark, workload):
    """Full-scan mode on the retained scalar oracle (the old path)."""
    table, k = workload
    query = TopKQuery(k=k)
    prepared = prepare_ranking(table, query)
    benchmark.pedantic(
        lambda: exact_topk_probabilities(
            table, query, prepared=prepared, columnar=False
        ),
        rounds=3,
        iterations=1,
    )


def test_scheduler_cost_order(benchmark):
    """Order + pre-execution re-check of one large mixed-cost batch.

    The scheduler sits on the serving hot path in front of every exact
    scan; this pins the pure-python cost of sorting a 512-item batch by
    predicted cost and re-deciding each item against its deadline.
    """
    rng = np.random.default_rng(13)
    seconds = rng.gamma(shape=0.8, scale=0.02, size=512)
    tasks = [
        ExactTask(
            position=i,
            estimate=LatencyEstimate(
                depth=50 + i,
                exact_seconds=float(seconds[i]),
                sampled_seconds_per_unit=1e-6,
                expected_unit_length=10.0,
            ),
        )
        for i in range(512)
    ]
    scheduler = CostScheduler()

    def run():
        runnable = 0
        for task in scheduler.order(tasks):
            decision = scheduler.decide(
                0.050, task.estimate.exact_seconds, 0.5
            )
            if decision == "run":
                runnable += 1
        return runnable

    assert run() > 0
    benchmark(run)


def _dynamic_write_read(benchmark, candidates):
    """Time one write→read cycle of the incremental PT-k index.

    Each round flips the probability of one independent tuple — the
    first of ``candidates(ranked tuples, stop depth)`` — carries the
    preparation across the write (:func:`refresh_prepared`, columns
    included), moves the index onto it and serves the prune-bounded
    answer (Theorem-5 stop depth).
    """
    from repro.dynamic import DynamicIndex, TableDelta, refresh_prepared

    scale = bench_scale()
    table = generate_synthetic_table(
        SyntheticConfig(
            n_tuples=max(500, int(20_000 * scale)),
            n_rules=max(50, int(2_000 * scale)),
            seed=23,
        )
    )
    k = max(10, int(200 * scale))
    prepared = prepare_ranking(table, TopKQuery(k=k))
    index = DynamicIndex.build(prepared)
    _, _, depth = index.scan_answer(k, 0.3)  # settle the lazy build once
    tid = next(
        t.tid
        for t in candidates(table.ranked_tuples(), depth)
        if table.is_independent(t.tid)
    )
    state = {"probability": 0.4, "prepared": prepared}

    def cycle():
        state["probability"] = 1.0 - state["probability"]
        previous = table.version
        table.update_probability(tid, state["probability"])
        state["prepared"] = refresh_prepared(
            state["prepared"],
            table,
            TableDelta(
                table="bench",
                op="update",
                previous_version=previous,
                version=table.version,
                tid=tid,
                probability=state["probability"],
            ),
        )
        index.apply(state["prepared"])
        return index.scan_answer(k, 0.3)

    benchmark.pedantic(cycle, rounds=30, iterations=1)


def test_dynamic_delta_refresh(benchmark):
    """The repro.dynamic serving hot path, write below the answer.

    The mutated tuple is the deepest independent one — the common
    case — so the read prices nothing: the index's scan keeps every row
    above the write.
    """
    _dynamic_write_read(benchmark, lambda ranked, depth: reversed(ranked))


def test_dynamic_shallow_write_read(benchmark):
    """The write lands above the answer depth (half-way down to it), so
    the index restores its scan from a snapshot and the read re-prices
    to the stop depth."""
    _dynamic_write_read(benchmark, lambda ranked, depth: ranked[depth // 2 :])


def test_prepare_cache_refresh(benchmark):
    """One score move plus one remove through ``PrepareCache.refresh``.

    The write path's prepare stage: every committed point mutation
    advances the warm default-shape preparation by ranked-tuple surgery
    (binary-searched placement, the previous rule index reused) instead
    of re-preparing it cold.  Each round's untimed setup adds the tuple
    the round removes, so the table keeps its size.
    """
    from repro.dynamic.delta import TableDelta
    from repro.query.prepare import PrepareCache

    scale = bench_scale()
    table = generate_synthetic_table(
        SyntheticConfig(
            n_tuples=max(500, int(20_000 * scale)),
            n_rules=max(50, int(2_000 * scale)),
            seed=29,
        )
    )
    cache = PrepareCache()
    cache.get(table, TopKQuery(k=10))
    independent = [t for t in table.tuple_ids() if table.is_independent(t)]
    rng = random.Random(5)
    fresh = iter(range(10**9))

    def write(op, tid, **fields):
        delta = TableDelta(
            table="bench",
            op=op,
            previous_version=table.version - 1,
            version=table.version,
            tid=tid,
            **fields,
        )
        assert cache.refresh(table, delta) == 1

    def setup():
        tid = f"fresh{next(fresh)}"
        tup = table.add(tid, rng.uniform(0, 1000), 0.5)
        write("add", tid, score=tup.score, probability=tup.probability)
        return (tid,), {}

    def cycle(tid):
        moved = table.update_score(
            rng.choice(independent), rng.uniform(0, 1000)
        )
        write("score", moved.tid, score=moved.score)
        table.remove_tuple(tid)
        write("remove", tid)

    benchmark.pedantic(cycle, setup=setup, rounds=50, iterations=1)
