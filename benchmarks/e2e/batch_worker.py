"""The ``batch-offline`` worker: library-API batches in a fresh process.

Usage (driven by :mod:`benchmarks.e2e.workloads`, not by hand)::

    python -m benchmarks.e2e.batch_worker --seed S --seconds T --trace 0|1 --out FILE

Set-up is table generation, registration and the first answered
round; the worker then prints ``ready`` and waits for one line on stdin:
``stop`` exits, ``go`` runs one untimed warm-up round and then timed
rounds until ``--seconds`` have passed.  A round writes once to every
table (an in-place refresh of the warm preparation) and then calls
``UncertainDB.ptk_many`` with the default ``n_workers`` — a process pool
— and ``UncertainDB.ptk_batch``.  Every answer goes to ``FILE`` so the
parent can check it against the oracle.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.batch_worker")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from benchmarks.e2e.tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    from benchmarks.e2e.harness import StealMeter
    from benchmarks.e2e.workloads import BatchOffline, RoundPlan
    from repro.query.engine import UncertainDB

    tables = BatchOffline.tables(args.seed)
    db = UncertainDB()
    for table in tables:
        db.register(table)
    plan = RoundPlan(args.seed, tables)
    small = tables[-1].name
    rounds = [_round(db, plan, small, timed=False, calls=[], origin=0.0)]
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    rounds.append(_round(db, plan, small, timed=False, calls=[], origin=0.0))
    if tracer is not None:
        from benchmarks.e2e.tracing import engine_counters, engine_gauges

        tracer.add_sources(
            counters=lambda: engine_counters(db), gauges=lambda: engine_gauges(db)
        )
        tracer.start()
    calls: List[List[float]] = []
    meter = StealMeter()
    cpu_before = _cpu_seconds()
    meter.start()
    started = time.perf_counter()
    while time.perf_counter() - started < args.seconds:
        rounds.append(
            _round(db, plan, small, timed=True, calls=calls, origin=started)
        )
    wall = time.perf_counter() - started
    meter.stop()
    result: Dict[str, Any] = {
        "tables": [table.name for table in tables],
        "calls": calls,
        "wall": wall,
        "kept": meter.kept,
        "cpu_s": _cpu_seconds() - cpu_before,
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.stop()
        result["layers"] = tracer.summary()
        spans = args.out.with_suffix(".spans.jsonl")
        result["layers"]["spans_written"] = tracer.write_spans(spans)
        result["layers"]["spans_path"] = str(spans)
    args.out.write_text(json.dumps(result))
    return 0


def _cpu_seconds() -> float:
    """CPU time of this process plus its reaped pool workers."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _round(
    db, plan, small: str, timed: bool, calls: List[List[float]], origin: float
) -> Dict[str, Any]:
    """One round; ``calls`` gets ``[start - origin, seconds, queries]``
    per library call."""
    mutations, many, batch = plan.next()
    for name, op, tid, value in mutations:
        if op == "update":
            db.update_probability(name, tid, value)
        else:
            db.update_score(name, tid, value)
    started = time.perf_counter()
    many_answers = db.ptk_many(many)
    calls.append([started - origin, time.perf_counter() - started, len(many)])
    started = time.perf_counter()
    batch_answers = db.ptk_batch(small, batch)
    calls.append([started - origin, time.perf_counter() - started, len(batch)])

    def record(name, k, p, answer):
        ids = [str(tid) for tid in answer.answers]
        return [name, k, p, ids, [answer.probabilities[tid] for tid in answer.answers]]

    return {
        "timed": timed,
        "mutations": mutations,
        "many": [record(*request, a) for request, a in zip(many, many_answers)],
        "batch": [record(small, k, p, a) for (k, p), a in zip(batch, batch_answers)],
    }


if __name__ == "__main__":
    sys.exit(main())
