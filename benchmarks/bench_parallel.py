"""Parallel execution layer: sharded sampling speedup and fan-out.

Two experiments beyond the paper's figures:

1. **Sharded sampling speedup** — wall-clock of
   :func:`sampled_topk_probabilities` at 1 vs 4 workers on the
   acceptance workload (n = 10,000 tuples, 50,000-unit budget).  Shard
   streams come from independent ``SeedSequence`` children, so the
   merged estimates are a fresh (equally valid) draw of the same
   estimator; the check asserts every merged estimate lies inside the
   99.9% Wilson interval of the single-process run.  The >= 2x speedup
   assertion is gated on the host actually having >= 4 usable cores —
   on smaller machines the honest numbers are still recorded, with the
   core count in the notes.

2. **Multi-query fan-out** — ``ptk_many`` over a batch of independent
   exact PT-k requests, 1 worker vs 4, each worker receiving the
   prepared columns and answering whole ``(table, k)`` groups.

Scaling: these experiments pin the acceptance sizes rather than using
``REPRO_BENCH_SCALE`` — the speedup claim is about a fixed workload.
"""

import time

import pytest

from benchmarks.conftest import emit
from repro.bench.harness import ExperimentTable
from repro.core.sampling import SamplingConfig, sampled_topk_probabilities
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic_table
from repro.parallel import available_cpus
from repro.query.engine import UncertainDB
from repro.query.topk import TopKQuery
from repro.stats.intervals import wilson_interval

N_TUPLES = 10_000
BUDGET = 50_000
K = 100
SEED = 17
WORKERS = 4


@pytest.fixture(scope="module")
def table():
    return generate_synthetic_table(
        SyntheticConfig(n_tuples=N_TUPLES, n_rules=1_000, seed=SEED)
    )


def _run(table, n_workers):
    config = SamplingConfig(
        sample_size=BUDGET,
        progressive=False,
        seed=SEED,
        n_workers=n_workers,
    )
    start = time.perf_counter()
    result = sampled_topk_probabilities(table, TopKQuery(k=K), config=config)
    return result, time.perf_counter() - start


def test_sharded_sampling_speedup(benchmark, table):
    cores = available_cpus()
    benchmark.pedantic(lambda: _run(table, WORKERS), rounds=1, iterations=1)

    serial, serial_seconds = _run(table, 1)
    parallel, parallel_seconds = _run(table, WORKERS)
    speedup = serial_seconds / max(parallel_seconds, 1e-9)

    result = ExperimentTable(
        title="Sharded sampling: 1 vs 4 workers, same budget",
        columns=[
            "n", "k", "budget", "workers", "serial_s", "parallel_s", "speedup",
        ],
        notes=(
            f"seed={SEED}; nproc={cores}; "
            "speedup assertion gated on >= 4 cores"
        ),
    )
    result.add_row(
        N_TUPLES, K, BUDGET, WORKERS,
        round(serial_seconds, 4), round(parallel_seconds, 4),
        round(speedup, 2),
    )
    emit(result, "parallel_sharded_speedup.txt")

    # Quality gate runs everywhere: the parallel run is an independent
    # draw of the same estimator, so every merged estimate must land in
    # the (slightly padded) 99.9% Wilson interval of the serial one.
    assert serial.units_drawn == parallel.units_drawn == BUDGET
    pad = 0.01
    for tid, p_serial in serial.estimates.items():
        low, high = wilson_interval(
            p_serial * BUDGET, BUDGET, confidence=0.999
        )
        got = parallel.estimates.get(tid, 0.0)
        assert low - pad <= got <= high + pad, (tid, got, (low, high))

    if cores >= WORKERS:
        assert speedup >= 2.0, (
            f"sharded sampling only {speedup:.2f}x faster with "
            f"{WORKERS} workers on {cores} cores"
        )


def test_fanout_many_queries(benchmark, table):
    cores = available_cpus()
    db = UncertainDB()
    name = db.register(table)
    requests = [
        (name, k, threshold)
        for k in (25, 50, 100)
        for threshold in (0.2, 0.4, 0.6, 0.8)
    ]

    # Warm the prepare cache so both timings measure query execution,
    # not the shared one-off preparation.
    db.ptk(name, k=K, threshold=0.5)

    start = time.perf_counter()
    serial = db.ptk_many(requests, n_workers=1)
    serial_seconds = time.perf_counter() - start

    benchmark.pedantic(
        lambda: db.ptk_many(requests, n_workers=WORKERS),
        rounds=1,
        iterations=1,
    )
    start = time.perf_counter()
    parallel = db.ptk_many(requests, n_workers=WORKERS)
    parallel_seconds = time.perf_counter() - start
    speedup = serial_seconds / max(parallel_seconds, 1e-9)

    result = ExperimentTable(
        title="Multi-query fan-out: independent exact PT-k requests",
        columns=[
            "n", "requests", "workers", "serial_s", "parallel_s", "speedup",
        ],
        notes=f"nproc={cores}; one shared preparation",
    )
    result.add_row(
        N_TUPLES, len(requests), WORKERS,
        round(serial_seconds, 4), round(parallel_seconds, 4),
        round(speedup, 2),
    )
    emit(result, "parallel_fanout.txt")

    # The kernel is deterministic: answers must match exactly.
    for a, b in zip(parallel, serial):
        assert a.answers == b.answers
        assert a.probabilities == b.probabilities
