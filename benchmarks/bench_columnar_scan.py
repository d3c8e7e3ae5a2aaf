"""Columnar kernel vs scalar oracle on the full-scan path (standalone).

Measures ``exact_topk_probabilities`` — a PT-k query in full-scan mode —
with the vectorized columnar kernel against the retained scalar
reference loop, on the paper's synthetic workload shape.  This is the
headline number for the columnar refactor; the scalar side is O(n²) in
tuple count, so the large sizes take tens of minutes and the script is
run manually, not in CI (CI guards regressions through the calibrated
perf smoke instead; see ``check_bench_regression.py``).

Usage::

    PYTHONPATH=src python benchmarks/bench_columnar_scan.py [n ...]

writes ``benchmarks/results/columnar_scan.json`` (appending one record
per size) and prints a table.  Default sizes: 10_000 and 100_000.

The readers of whole DP vectors — the top-k profile and U-KRanks'
position probabilities — are timed at n=10k by::

    PYTHONPATH=SRC python benchmarks/bench_columnar_scan.py readers LABEL [k ...]

which appends one record per k (default 10 and 50), tagged ``LABEL``
and the host's ``nproc``, to ``benchmarks/results/columnar_readers.json``.
``SRC`` may be the ``src`` of another checkout, so two trees can be
timed in alternating pairs.  Both readers are public functions of
every tree: ``topk_probability_profile`` over a ready preparation, and
``ukranks_query`` including its own preparation.

The served exact read — ``exact_ptk_query(..., columnar=True)`` over a
ready preparation — is timed at n=10k, for each of the 15 ``(k, p)``
shapes the ``serve-read`` workload asks, by::

    PYTHONPATH=SRC python benchmarks/bench_columnar_scan.py served LABEL

Per shape it times the *cold* read (a fresh preparation, built
untimed) and the *warm* read (the same call again on that
preparation), each the median of 5, and records the rows the warm read
priced.  It appends one record, tagged ``LABEL`` and ``nproc``, to
``benchmarks/results/columnar_served.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

from repro.core.exact import exact_ptk_query, exact_topk_probabilities
from repro.core.profile import topk_probability_profile
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic_table
from repro.query.prepare import prepare_ranking
from repro.query.topk import TopKQuery
from repro.semantics.ukranks import ukranks_query

RESULTS = Path(__file__).parent / "results" / "columnar_scan.json"
READERS = Path(__file__).parent / "results" / "columnar_readers.json"
K = 100
SEED = 7
READERS_N = 10_000
SERVED = Path(__file__).parent / "results" / "columnar_served.json"
#: the ``serve-read`` workload's shapes
SERVED_KS = (5, 10, 20, 50, 100)
SERVED_PS = (0.2, 0.3, 0.5)
SERVED_REPEATS = 5


def measure(n: int) -> dict:
    table = generate_synthetic_table(
        SyntheticConfig(n_tuples=n, n_rules=n // 10, seed=SEED)
    )
    query = TopKQuery(k=K)
    prepared = prepare_ranking(table, query)
    prepared.columns  # materialise outside the timed region

    started = time.perf_counter()
    columnar = exact_topk_probabilities(
        table, query, prepared=prepared, columnar=True
    )
    columnar_seconds = time.perf_counter() - started

    started = time.perf_counter()
    scalar = exact_topk_probabilities(
        table, query, prepared=prepared, columnar=False
    )
    scalar_seconds = time.perf_counter() - started

    worst = max(abs(columnar[tid] - scalar[tid]) for tid in columnar)
    return {
        "n_tuples": n,
        "n_rules": n // 10,
        "k": K,
        "seed": SEED,
        "columnar_seconds": round(columnar_seconds, 4),
        "scalar_seconds": round(scalar_seconds, 4),
        "speedup": round(scalar_seconds / columnar_seconds, 2),
        "max_abs_difference": worst,
    }


def measure_readers(label: str, k: int) -> dict:
    table = generate_synthetic_table(
        SyntheticConfig(n_tuples=READERS_N, n_rules=READERS_N // 10, seed=SEED)
    )
    query = TopKQuery(k=k)
    prepared = prepare_ranking(table, query)
    prepared.columns  # materialise outside the timed region

    started = time.perf_counter()
    topk_probability_profile(table, query, prepared=prepared)
    profile_seconds = time.perf_counter() - started

    started = time.perf_counter()
    ukranks_query(table, query)
    ukranks_seconds = time.perf_counter() - started
    return {
        "label": label,
        "n_tuples": READERS_N,
        "n_rules": READERS_N // 10,
        "k": k,
        "seed": SEED,
        "nproc": os.cpu_count(),
        "profile_seconds": round(profile_seconds, 4),
        "ukranks_seconds": round(ukranks_seconds, 4),
    }


def readers(label: str, ks: list[int]) -> None:
    records = json.loads(READERS.read_text()) if READERS.exists() else []
    for k in ks:
        record = measure_readers(label, k)
        print(
            f"{label} n={READERS_N} k={k}: profile "
            f"{record['profile_seconds']}s ukranks "
            f"{record['ukranks_seconds']}s (nproc {record['nproc']})",
            flush=True,
        )
        records.append(record)
        READERS.write_text(json.dumps(records, indent=2) + "\n")


def _timed_read(table, k: int, threshold: float, prepared):
    started = time.perf_counter()
    answer = exact_ptk_query(
        table, TopKQuery(k=k), threshold, prepared=prepared, columnar=True
    )
    return time.perf_counter() - started, answer


def measure_served(label: str) -> dict:
    table = generate_synthetic_table(
        SyntheticConfig(n_tuples=READERS_N, n_rules=READERS_N // 10, seed=SEED)
    )
    shapes = []
    for k in SERVED_KS:
        for threshold in SERVED_PS:
            cold = []
            for _ in range(SERVED_REPEATS):
                prepared = prepare_ranking(table, TopKQuery(k=k))
                seconds, answer = _timed_read(table, k, threshold, prepared)
                cold.append(seconds)
            warm = []
            for _ in range(SERVED_REPEATS):
                seconds, again = _timed_read(table, k, threshold, prepared)
                warm.append(seconds)
                assert again.answers == answer.answers
            shapes.append({
                "k": k,
                "threshold": threshold,
                "scan_depth": answer.stats.scan_depth,
                "cold_ms": round(statistics.median(cold) * 1000.0, 3),
                "warm_ms": round(statistics.median(warm) * 1000.0, 3),
                "warm_rows": again.stats.tuples_evaluated,
            })
    return {
        "label": label,
        "n_tuples": READERS_N,
        "n_rules": READERS_N // 10,
        "seed": SEED,
        "nproc": os.cpu_count(),
        "cold_ms_mean": round(
            statistics.mean(s["cold_ms"] for s in shapes), 3
        ),
        "warm_ms_mean": round(
            statistics.mean(s["warm_ms"] for s in shapes), 3
        ),
        "shapes": shapes,
    }


def served(label: str) -> None:
    records = json.loads(SERVED.read_text()) if SERVED.exists() else []
    record = measure_served(label)
    print(
        f"{label} n={READERS_N}: cold {record['cold_ms_mean']} ms, warm "
        f"{record['warm_ms_mean']} ms (mean of {len(record['shapes'])} "
        f"shapes; nproc {record['nproc']})",
        flush=True,
    )
    records.append(record)
    SERVED.write_text(json.dumps(records, indent=2) + "\n")


def main(argv: list[str]) -> None:
    if argv[:1] == ["readers"]:
        readers(argv[1], [int(a) for a in argv[2:]] or [10, 50])
        return
    if argv[:1] == ["served"]:
        served(argv[1])
        return
    sizes = [int(a.replace("_", "")) for a in argv] or [10_000, 100_000]
    records = []
    if RESULTS.exists():
        records = json.loads(RESULTS.read_text())
    for n in sizes:
        record = measure(n)
        print(
            f"n={record['n_tuples']}: columnar {record['columnar_seconds']}s "
            f"scalar {record['scalar_seconds']}s "
            f"speedup {record['speedup']}x "
            f"parity {record['max_abs_difference']:.2e}",
            flush=True,
        )
        records = [r for r in records if r["n_tuples"] != n] + [record]
        records.sort(key=lambda r: r["n_tuples"])
        RESULTS.parent.mkdir(exist_ok=True)
        RESULTS.write_text(json.dumps(records, indent=2) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
