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
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from repro.core.exact import exact_topk_probabilities
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


def main(argv: list[str]) -> None:
    if argv[:1] == ["readers"]:
        readers(argv[1], [int(a) for a in argv[2:]] or [10, 50])
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
