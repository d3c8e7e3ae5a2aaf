"""Serving layer: closed-loop throughput/latency, coalescing on vs off.

Drives the *entire* service stack — routing, admission control, the
request coalescer, and the batch executor — through the in-process
:class:`~repro.serve.client.LoopbackTransport` (no sockets), with 1, 8,
and 32 closed-loop clients issuing mixed-k PT-k queries against one
table.  Each concurrency level runs twice: coalescing window on (2 ms)
and off (0 ms, every request dispatches solo), so the table isolates
what micro-batching buys.

What to look for:

* ``mean_batch`` — without a window it pins at 1.0; with one it grows
  with concurrency (the whole burst shares one prepared ranking).
* ``prepare_misses`` — stays at 1 per run either way (the
  ``PrepareCache`` absorbs repeat prepares even without coalescing);
  the window's win is batching the *scans*, not just the prepares.
* p50 vs p99 under load — admission keeps the queue bounded, so p99
  grows with concurrency but stays finite.

Host caveats (as in ``bench_parallel.py``): absolute numbers depend on
the machine and the GIL — the executor threads run CPU-bound Python, so
throughput does not scale linearly with ``max_inflight``; the committed
results were produced on a shared CI-class host and are indicative of
*shape*, not of a tuned deployment.

Scaling: ``REPRO_BENCH_SCALE`` scales the table size; the request count
per concurrency level is pinned so percentiles stay comparable.
"""

from __future__ import annotations

import threading
import time

import pytest

from benchmarks.conftest import bench_scale, emit
from repro import obs
from repro.bench.harness import ExperimentTable
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic_table
from repro.obs import OBS, catalogued
from repro.parallel import available_cpus
from repro.query.engine import UncertainDB
from repro.serve import (
    LoopbackTransport,
    ServeApp,
    ServeClient,
    ServeClientError,
    ServeConfig,
)

K_BASE = 20
THRESHOLD = 0.3
SEED = 23
CLIENT_COUNTS = (1, 8, 32)
TOTAL_REQUESTS = 192  # divisible by every client count


def _make_db():
    n_tuples = max(1_000, int(10_000 * bench_scale()))
    table = generate_synthetic_table(
        SyntheticConfig(
            n_tuples=n_tuples, n_rules=n_tuples // 10, seed=SEED
        )
    )
    db = UncertainDB()
    name = db.register(table)
    return db, name, n_tuples


def _percentile(sorted_values, fraction):
    index = int(round(fraction * (len(sorted_values) - 1)))
    return sorted_values[index]


def _closed_loop(db, name, window_ms, n_clients):
    """Run one closed loop; returns (latencies, wall, batch/cache stats)."""
    per_client = TOTAL_REQUESTS // n_clients
    app = ServeApp(
        db,
        ServeConfig(
            window_ms=window_ms,
            max_batch=64,
            max_inflight=4,
            max_queue=256,  # the closed loop must never see a 429
            enable_obs=False,
        ),
    )
    misses_before = db.prepare_cache.stats().misses
    latencies = []
    lock = threading.Lock()
    barrier = threading.Barrier(n_clients + 1)

    with LoopbackTransport(app) as transport:
        client = ServeClient(transport)

        def worker(worker_index):
            local = []
            barrier.wait()
            for i in range(per_client):
                k = K_BASE + ((worker_index + i) % 4)  # mixed-k batches
                start = time.perf_counter()
                client.query(name, k=k, threshold=THRESHOLD)
                local.append(time.perf_counter() - start)
            with lock:
                latencies.extend(local)

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(n_clients)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        wall_start = time.perf_counter()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - wall_start
        coalescer = app.coalescer.stats()

    misses = db.prepare_cache.stats().misses - misses_before
    return latencies, wall, coalescer, misses


@pytest.mark.parametrize("window_ms", [2.0, 0.0], ids=["coalesce", "solo"])
def test_serve_closed_loop(window_ms):
    db, name, n_tuples = _make_db()
    db.ptk(name, k=K_BASE, threshold=THRESHOLD)  # warm the prepare cache

    result = ExperimentTable(
        title=(
            "Serving closed loop: "
            + ("coalescing window 2 ms" if window_ms else "coalescing off")
        ),
        columns=[
            "clients", "requests", "wall_s", "qps",
            "p50_ms", "p99_ms", "mean_batch", "prepare_misses",
        ],
        notes=(
            f"n={n_tuples}, k={K_BASE}..{K_BASE + 3}, p={THRESHOLD}, "
            f"seed={SEED}; loopback transport (no sockets), "
            f"max_inflight=4 on {available_cpus()} usable core(s); "
            "CPU-bound Python under the GIL — shapes, not absolutes"
        ),
    )
    for n_clients in CLIENT_COUNTS:
        latencies, wall, coalescer, misses = _closed_loop(
            db, name, window_ms, n_clients
        )
        assert len(latencies) == TOTAL_REQUESTS
        ordered = sorted(latencies)
        result.add_row(
            n_clients,
            TOTAL_REQUESTS,
            round(wall, 3),
            round(TOTAL_REQUESTS / max(wall, 1e-9), 1),
            round(_percentile(ordered, 0.50) * 1000, 2),
            round(_percentile(ordered, 0.99) * 1000, 2),
            round(coalescer["mean_batch_size"], 2),
            misses,
        )
        # The prepare cache was warmed above: no run re-prepares.
        assert misses == 0, f"{misses} unexpected prepares"
        if window_ms == 0.0:
            assert coalescer["mean_batch_size"] == 1.0

    emit(
        result,
        "serve_closed_loop_"
        + ("coalesce" if window_ms else "solo")
        + ".txt",
    )


# ----------------------------------------------------------------------
# Skewed-cost closed loop: cost-ordered scheduling
# ----------------------------------------------------------------------
SKEW_CLIENTS = 12
SKEW_ROUNDS = 8
SKEW_HEAVY_EVERY = 6  # 2 of the 12 clients issue a heavy scan per round
SKEW_CHEAP_K = 5
#: Cheap-query deadline: comfortably covers the cheap work in a batch,
#: but one in-batch heavy scan ahead of a cheap item blows it.
SKEW_DEADLINE_MS = 200.0


def _skewed_loop(db, name, heavy_k):
    """Lockstep closed loop: each round, all clients issue together and
    the coalescer forms one mixed batch (2 heavy scans without
    deadlines, 10 cheap scans with tight ones).  Every client waits for
    its response before the next round, so the queue is empty between
    rounds and the measured latencies isolate exactly what the
    scheduler controls — the execution order *within* a batch."""
    app = ServeApp(
        db,
        ServeConfig(
            window_ms=20.0,  # wide enough to coalesce the whole round
            max_batch=64,
            max_inflight=1,
            max_queue=256,
            flight_ring=512,
            slow_ms=10_000.0,  # keep the slow log quiet for timing
        ),
    )
    OBS.flight.reset()
    degraded_before = catalogued("repro_serve_degraded_preexec_total").value()
    cheap_latencies, heavy_latencies = [], []
    expired = [0]
    lock = threading.Lock()
    round_barrier = threading.Barrier(SKEW_CLIENTS)

    with LoopbackTransport(app) as transport:
        client = ServeClient(transport)

        def worker(worker_index):
            local_cheap, local_heavy, local_expired = [], [], 0
            for round_index in range(SKEW_ROUNDS):
                round_barrier.wait()
                # the heavy role rotates through the clients
                heavy = (
                    (worker_index + round_index) % SKEW_HEAVY_EVERY == 0
                )
                start = time.perf_counter()
                try:
                    if heavy:
                        client.query(name, k=heavy_k, threshold=THRESHOLD)
                    else:
                        client.query(
                            name, k=SKEW_CHEAP_K, threshold=THRESHOLD,
                            deadline_ms=SKEW_DEADLINE_MS,
                        )
                except ServeClientError as exc:
                    if exc.status != 504:
                        raise
                    local_expired += 1
                elapsed = time.perf_counter() - start
                (local_heavy if heavy else local_cheap).append(elapsed)
            with lock:
                cheap_latencies.extend(local_cheap)
                heavy_latencies.extend(local_heavy)
                expired[0] += local_expired

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(SKEW_CLIENTS)
        ]
        wall_start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - wall_start
        profiles = OBS.flight.recent(limit=512)

    degraded = (
        catalogued("repro_serve_degraded_preexec_total").value()
        - degraded_before
    )
    return {
        "cheap": sorted(cheap_latencies),
        "heavy": sorted(heavy_latencies),
        "expired": expired[0],
        "degraded_preexec": int(degraded),
        "wall": wall,
        "profiles": profiles,
    }


def _post_deadline_exact(profiles):
    """Exact executions that started or ran past their deadline."""
    late = []
    for profile in profiles:
        remaining = profile.get("deadline_remaining_ms")
        if profile.get("mode") != "exact" or remaining is None:
            continue
        if profile.get("outcome") == "deadline-expired":
            continue  # failed fast, never executed
        if remaining < 0 or profile["actual_seconds"] * 1000.0 > remaining:
            late.append(profile)
    return late


def test_serve_skewed_cost_scheduler():
    """Cost-ordered dispatch under a skewed-cost closed loop.

    Each batch mixes two expensive exact scans (no deadline) with ten
    cheap scans carrying a tight deadline.  In arrival order the cheap
    queries would execute behind the expensive head-of-line scans,
    after their deadline had passed; the cost scheduler runs them ahead
    and re-checks each deadline pre-execution, so no exact scan ever
    starts (or runs) past its deadline.
    """
    db, name, n_tuples = _make_db()
    heavy_k = max(130, int(400 * bench_scale()))
    db.ptk(name, k=heavy_k, threshold=THRESHOLD)  # warm the prepare cache

    result = ExperimentTable(
        title="Skewed-cost closed loop: cost-ordered scheduling",
        columns=[
            "scheduler", "cheap_p50_ms", "cheap_p99_ms", "heavy_p99_ms",
            "expired_504", "degraded_preexec", "late_exact", "wall_s",
        ],
        notes=(
            f"n={n_tuples}, heavy k={heavy_k} (2 per batch of "
            f"{SKEW_CLIENTS}), cheap k={SKEW_CHEAP_K} with "
            f"{SKEW_DEADLINE_MS:.0f} ms deadline, p={THRESHOLD}, "
            f"{SKEW_CLIENTS} lockstep closed-loop clients x "
            f"{SKEW_ROUNDS} rounds; loopback transport, max_inflight=1 "
            f"on {available_cpus()} usable core(s); late_exact = exact "
            "executions started/run past deadline (flight profiles)"
        ),
    )
    try:
        run = _skewed_loop(db, name, heavy_k)
        late = _post_deadline_exact(run["profiles"])
        result.add_row(
            "cost",
            round(_percentile(run["cheap"], 0.50) * 1000, 2),
            round(_percentile(run["cheap"], 0.99) * 1000, 2),
            round(_percentile(run["heavy"], 0.99) * 1000, 2),
            run["expired"],
            run["degraded_preexec"],
            len(late),
            round(run["wall"], 3),
        )
    finally:
        obs.disable()
        obs.reset()
        OBS.flight.disable()
        OBS.flight.reset()

    # The cost scheduler never executes an exact scan past its deadline.
    assert not late

    emit(result, "serve_scheduler_skew.txt")
