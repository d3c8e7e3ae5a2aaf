"""Mixed read/write serving: delta refresh vs invalidate-and-re-prepare.

The point of :mod:`repro.dynamic`: under a write-heavy serve loop, a
mutation should cost one *suffix* re-evaluation of the maintained
``Pr^k`` state, not a cold re-prepare (sort + rule index + columnarise)
plus a full pruned scan on the next read.  This benchmark drives the
whole service stack — ``POST /mutate`` and ``POST /query`` through the
loopback transport — twice per workload mix:

* **invalidate** — ``dynamic`` off, and every mutation drops the
  table's cached preparations (the prepare-cache refresh hook is
  stubbed to invalidate): the next read's ``PrepareCache.get`` misses
  and re-prepares, and the answer is a fresh pruned scan (the
  pre-``repro.dynamic`` behaviour);
* **delta-refresh** — ``dynamic`` on: the applied
  :class:`~repro.model.mutation.Mutation` refreshes the warm
  preparation, columns included, and hands it the warm scans; the next
  read moves its scan onto the new columns (a column compare + a rewind
  to a snapshot) and answers from it, pricing lazily only to the
  Theorem-5 stop depth — byte-identical to a cold scan.

Mixes: 90/10 (read-dominated dashboard refreshing under a trickle of
updates) and 50/50 (write-heavy ingestion).  Every answer in the
delta-refresh arm is cross-checked against a cold
:func:`~repro.core.exact.exact_ptk_query` *during* the loop — the
speedup is only admissible at zero diffs.

What to look for (committed results under ``results/dynamic_mixed*``):

* ``read_p99_ms`` — the delta-refresh arm stays near its p50 because a
  read after a write re-prices at most the top of the ranking (a
  mutation below the answer depth costs no DP work at all), while the
  invalidate arm pays re-prepare + pruned scan exactly on those reads
  (the p99 *is* the post-write read);
* ``prepare_misses`` — flat (0) with refresh on, roughly one per write
  without;
* ``write_p50_ms`` — the cost that moved: the delta arm's writes carry
  the prepare surgery (columns included) the baseline defers to reads;
* ``diffs`` — always 0.

Host caveats as in ``bench_serve.py``: loopback, GIL-bound Python —
shapes, not absolutes.
"""

from __future__ import annotations

import os
import random
import statistics
import time

from benchmarks.conftest import bench_scale, emit
from repro.bench.harness import ExperimentTable
from repro.core.exact import exact_ptk_query
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic_table
from repro.query.engine import UncertainDB
from repro.query.topk import TopKQuery
from repro.serve import (
    LoopbackTransport,
    ServeApp,
    ServeClient,
    ServeConfig,
)

K = 10
THRESHOLD = 0.3
SEED = 31
TOTAL_OPS = 240
#: Cross-check every Nth dynamic answer against a cold exact scan.
ORACLE_EVERY = 16
MIXES = {"90/10": 0.10, "50/50": 0.50}


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


def _mixed_loop(write_fraction: float, dynamic: bool):
    """One single-client closed loop of TOTAL_OPS mixed operations.

    Returns (read latencies, write latencies, wall seconds,
    prepare misses, versions advanced, dynamic stats or None,
    oracle diffs).
    """
    db, name, n_tuples = _make_db()
    if not dynamic:
        # The true pre-repro.dynamic baseline: a mutation condemns warm
        # preparations and their scans, so every post-write read
        # re-prepares and scans cold.  Without this stub the
        # delta-refresh surgery — itself part of the subsystem under
        # test — would quietly keep the "invalidate" arm's cache warm,
        # and a re-prepare would take the stale entry's scans over.
        cache = db.prepare_cache
        cache.refresh = lambda table, delta: cache.invalidate(table) and 0
    app = ServeApp(
        db,
        ServeConfig(
            window_ms=0.0,
            max_inflight=1,
            enable_obs=False,
            dynamic=dynamic,
        ),
    )
    rng = random.Random(SEED)
    # Mutate only independent tuples: identical op sequences in both
    # arms, and probability updates never violate a rule's sum bound.
    table = db.table(name)
    free = [
        str(tup.tid) for tup in table.ranked_tuples()
        if table.is_independent(tup.tid)
    ]
    reads, writes, diffs = [], [], 0
    version_before = table.version
    with LoopbackTransport(app) as transport:
        client = ServeClient(transport)
        client.query(name, k=K, threshold=THRESHOLD)  # warm both arms
        misses_before = db.prepare_cache.stats().misses
        wall_start = time.perf_counter()
        for i in range(TOTAL_OPS):
            if rng.random() < write_fraction:
                tid = rng.choice(free)
                if rng.random() < 0.5:
                    payload = {
                        "op": "update", "table": name, "tid": tid,
                        "probability": rng.uniform(0.05, 0.95),
                    }
                else:
                    payload = {
                        "op": "score", "table": name, "tid": tid,
                        "score": rng.uniform(0.0, 1000.0),
                    }
                start = time.perf_counter()
                client.mutate(payload)
                writes.append(time.perf_counter() - start)
            else:
                start = time.perf_counter()
                response = client.query(name, k=K, threshold=THRESHOLD)
                reads.append(time.perf_counter() - start)
                if dynamic and i % ORACLE_EVERY == 0:
                    cold = exact_ptk_query(
                        db.table(name), TopKQuery(k=K), THRESHOLD
                    )
                    if response["answers"] != [
                        str(tid) for tid in cold.answers
                    ]:
                        diffs += 1
        wall = time.perf_counter() - wall_start
    misses = db.prepare_cache.stats().misses - misses_before
    versions = db.table(name).version - version_before
    stats = db.dynamic.stats() if dynamic else None
    return reads, writes, wall, misses, versions, stats, diffs, n_tuples


def test_dynamic_mixed_loops():
    result = ExperimentTable(
        title="Mixed read/write serving: delta refresh vs invalidate",
        columns=[
            "mix", "arm", "ops", "wall_s", "read_p50_ms", "read_p99_ms",
            "write_p50_ms", "prepare_misses", "versions", "deltas",
            "fallbacks", "diffs",
        ],
        notes=(
            f"k={K}, p={THRESHOLD}, seed={SEED}; single closed-loop "
            "client over the loopback transport; 'invalidate' serves "
            "post-write reads via re-prepare + pruned scan, "
            "'delta-refresh' via the carried warm scans (answers "
            "oracle-checked against cold exact scans: diffs must be 0); "
            f"nproc={os.cpu_count()}"
        ),
    )
    summary = {}
    for mix, write_fraction in MIXES.items():
        for arm, dynamic in (("invalidate", False), ("delta-refresh", True)):
            (reads, writes, wall, misses, versions,
             stats, diffs, n_tuples) = _mixed_loop(write_fraction, dynamic)
            ordered = sorted(reads)
            read_p99 = _percentile(ordered, 0.99)
            result.add_row(
                mix,
                arm,
                TOTAL_OPS,
                round(wall, 3),
                round(_percentile(ordered, 0.50) * 1000, 2),
                round(read_p99 * 1000, 2),
                round(_percentile(sorted(writes), 0.50) * 1000, 3),
                misses,
                versions,
                stats["deltas_applied"] if stats else "-",
                sum(stats["fallbacks"].values()) if stats else "-",
                diffs,
            )
            summary[(mix, arm)] = (read_p99, misses, versions, stats, diffs)

    for mix in MIXES:
        cold_p99, _, _, _, _ = summary[(mix, "invalidate")]
        warm_p99, misses, versions, stats, diffs = summary[
            (mix, "delta-refresh")
        ]
        # Zero diffs vs the oracle is the admissibility condition.
        assert diffs == 0, f"{mix}: {diffs} oracle mismatches"
        # Writes flowed as deltas, none fell back.
        assert versions > 0
        assert stats["deltas_applied"] > 0
        assert stats["fallbacks"] == {}
        # The refresh kept the prepare cache warm while versions
        # advanced (the invalidate arm misses once per post-write read).
        assert misses == 0, f"{mix}: {misses} re-prepares despite refresh"
        # The headline: post-write reads are cheaper than re-prepare +
        # full scan.  Asserted loosely (2x) to stay robust on noisy CI
        # hosts; committed results show the real margin.
        assert warm_p99 < cold_p99 * 2.0, (
            f"{mix}: delta-refresh p99 {warm_p99 * 1e3:.2f}ms vs "
            f"invalidate {cold_p99 * 1e3:.2f}ms"
        )

    emit(result, "dynamic_mixed.txt")


def test_rule_write_refresh():
    """Median cost of refreshing the warm preparation across one rule
    write, at n=10k with 1,000 three-member rules: a rule member's
    removal, a new two-member rule and a join.  Each refresh is checked
    against a cold ``prepare_ranking`` at the end."""
    from repro.dynamic import refresh_prepared
    from repro.model.mutation import Mutation
    from repro.model.table import UncertainTable
    from repro.query.prepare import prepare_ranking

    rng = random.Random(3)
    table = UncertainTable(name="t")
    for i in range(10_000):
        table.add(f"t{i}", rng.uniform(0, 1000), 0.3)
    for r in range(1_000):
        table.add_exclusive(f"r{r}", *(f"t{3 * r + j}" for j in range(3)))
    query = TopKQuery(k=5)
    prepared = prepare_ranking(table, query)
    seconds = {"remove (rule member)": [], "rule (new)": [], "rule (join)": []}
    fresh = iter(range(10_000, 10**6))

    def refreshed(label, mutation):
        applied = table.apply(mutation)
        started = time.perf_counter()
        result = refresh_prepared(prepared, table, applied)
        if label is not None:
            seconds[label].append(time.perf_counter() - started)
        return result

    for step in range(200):
        rule = rng.choice([r for r in table.multi_rules() if len(r) >= 3])
        prepared = refreshed("remove (rule member)",
                             Mutation("t", "remove", tid=rule.tuple_ids[0]))
        members = [f"t{next(fresh)}" for _ in range(3)]
        for tid in members:
            prepared = refreshed(None, Mutation(
                "t", "add", tid=tid, score=rng.uniform(0, 1000), probability=0.3))
        prepared = refreshed("rule (new)", Mutation(
            "t", "rule", rule_id=f"n{step}", members=tuple(members[:2])))
        prepared = refreshed("rule (join)", Mutation(
            "t", "join", rule_id=rule.rule_id, tid=members[2]))
    cold = prepare_ranking(table, query)
    assert prepared.columns.tids == cold.columns.tids
    assert (prepared.columns.rule_index.tobytes()
            == cold.columns.rule_index.tobytes())
    assert prepared.columns.rule_ids == cold.columns.rule_ids
    assert dict(prepared.rule_of) == dict(cold.rule_of)
    assert dict(prepared.rule_probability) == dict(cold.rule_probability)

    result = ExperimentTable(
        title="Prepare refresh across one rule write (n=10k, 1,000 rules)",
        columns=["write", "refreshes", "p50_ms"],
        notes=f"nproc={os.cpu_count()}",
    )
    for label, samples in seconds.items():
        result.add_row(label, len(samples),
                       statistics.median(samples) * 1e3)
    emit(result, "dynamic_rule_refresh.txt")


#: Rounds per deep-write arm; the table reports each repetition's median.
DEEP_ROUNDS = 40
DEEP_REPETITIONS = 3


def _deep_write_read_seconds(db, name, k):
    """Median seconds of ``db.ptk(name, k, p)`` after lowering the score
    of the lowest-ranked tuple by 1e-3, over :data:`DEEP_ROUNDS` rounds;
    every read is checked against a cold columnar read."""
    table = db.table(name)
    db.ptk(name, k, THRESHOLD)  # the scan at k is warm before round 1
    samples = []
    for _ in range(DEEP_ROUNDS):
        last = db.prepare_cache.get(table, TopKQuery(k=k)).columns.tids[-1]
        db.update_score(name, last, table.get(last).score - 1e-3)
        started = time.perf_counter()
        answer = db.ptk(name, k, THRESHOLD)
        samples.append(time.perf_counter() - started)
    cold = exact_ptk_query(table, TopKQuery(k=k), THRESHOLD, columnar=True)
    assert answer.answers == cold.answers
    assert answer.probabilities == cold.probabilities
    assert answer.stats.scan_depth == cold.stats.scan_depth
    return statistics.median(samples)


def test_deep_write_read():
    """A read after a write below every priced row, with the dynamic
    route on and off: both resume the same carried warm scans, so the
    write costs the read one column compare at every ``k``."""
    result = ExperimentTable(
        title="Read after a deep write (lowest-ranked tuple's score - 1e-3)",
        columns=["k", "arm", "repetition", "n", "read_p50_ms"],
        notes=(
            f"p={THRESHOLD}, seed={SEED}, n/10 rules; median of "
            f"{DEEP_ROUNDS} rounds per repetition, arms interleaved in "
            f"one process; nproc={os.cpu_count()}"
        ),
    )
    medians = {}
    for repetition in range(DEEP_REPETITIONS):
        for k in (10, 100):
            for arm in ("dynamic on", "dynamic off"):
                db, name, n_tuples = _make_db()
                if arm == "dynamic on":
                    db.enable_dynamic()
                seconds = _deep_write_read_seconds(db, name, k)
                medians.setdefault((k, arm), []).append(seconds)
                result.add_row(k, arm, repetition + 1, n_tuples,
                               round(seconds * 1e3, 3))
    emit(result, "dynamic_deep_write.txt")
    for k in (10, 100):
        on = statistics.median(medians[(k, "dynamic on")])
        off = statistics.median(medians[(k, "dynamic off")])
        assert off <= 1.5 * on, (
            f"k={k}: plain read {off * 1e3:.3f}ms vs dynamic "
            f"{on * 1e3:.3f}ms"
        )
