"""Calibrated perf-smoke gate over the core micro-benchmarks.

CI runs ``bench_core_micro.py`` at a small fixed scale with
``--benchmark-json`` and hands the output to this script, which
compares the medians of the gated benchmarks against the committed
baseline ``benchmarks/BENCH_core.json`` and fails when the exact-path
median regresses by more than the budget (default 25%).

Raw wall-clock medians are not comparable across machines, so both the
baseline and every check normalise by a machine calibration factor: the
median time of a fixed, dependency-free python + numpy workload
measured on the spot.  A check on hardware 2x slower than the baseline
machine sees its calibration double too, cancelling out.

Usage::

    # record / refresh the committed baseline
    python benchmarks/check_bench_regression.py --update bench.json

    # gate a fresh run against the committed baseline (exit 1 on fail)
    python benchmarks/check_bench_regression.py --check bench.json
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

BASELINE_PATH = Path(__file__).parent / "BENCH_core.json"

#: Benchmarks whose regressions fail the gate.  Matched as substrings of
#: the pytest-benchmark name, so parametrised ids keep working.
GATED = (
    "test_exact_query_variants[RC+LR]",
    "test_exact_query_columnar_thresholded",
    "test_full_scan_columnar",
    "test_subset_probability_thousand_extensions",
    "test_scheduler_cost_order",
    "test_dynamic_delta_refresh",
    "test_dynamic_shallow_write_read",
    "test_prepare_cache_refresh",
)

#: Allowed slowdown of a calibrated median before the gate fails.
BUDGET = 1.25


def calibrate(rounds: int = 7) -> float:
    """Median seconds of a fixed mixed python/numpy workload.

    Exercises the same cost classes the gated benchmarks do — python
    loop dispatch, ``math.fsum``, and vectorised float64 numpy ops — so
    machine-speed differences scale the calibration roughly the way
    they scale the benchmarks.
    """
    import numpy as np

    samples = []
    values = [0.1 + (i % 97) * 1e-4 for i in range(2000)]
    array = np.linspace(0.0, 1.0, 200_000)
    for round_index in range(rounds + 1):
        started = time.perf_counter()
        total = 0.0
        for _ in range(50):
            total += math.fsum(values)
        for _ in range(50):
            scratch = array * 0.5
            scratch += array
            total += float(scratch[-1])
        assert total > 0.0
        if round_index == 0:
            continue  # warm-up round: caches, numpy dispatch, turbo ramp
        samples.append(time.perf_counter() - started)
    # The minimum is the steadiest cross-machine speed estimate: it is
    # the least contaminated by scheduler noise and background load.
    return min(samples)


def load_medians(bench_json: Path) -> dict:
    data = json.loads(bench_json.read_text())
    return {
        bench["name"]: bench["stats"]["median"]
        for bench in data["benchmarks"]
    }


def gated_only(medians: dict) -> dict:
    out = {}
    for name, median in medians.items():
        if any(g in name for g in GATED):
            out[name] = median
    return out


def update(bench_json: Path) -> int:
    medians = gated_only(load_medians(bench_json))
    if not medians:
        print("no gated benchmarks found in", bench_json, file=sys.stderr)
        return 1
    payload = {
        "calibration_seconds": calibrate(),
        "budget": BUDGET,
        "medians": medians,
    }
    BASELINE_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {BASELINE_PATH} ({len(medians)} gated benchmarks)")
    return 0


def check(bench_json: Path) -> int:
    if not BASELINE_PATH.exists():
        print(f"missing baseline {BASELINE_PATH}", file=sys.stderr)
        return 1
    baseline = json.loads(BASELINE_PATH.read_text())
    budget = float(baseline.get("budget", BUDGET))
    machine_factor = calibrate() / float(baseline["calibration_seconds"])
    print(f"machine calibration factor: {machine_factor:.3f}x baseline")
    medians = gated_only(load_medians(bench_json))
    failures = []
    for name, recorded in sorted(baseline["medians"].items()):
        current = medians.get(name)
        if current is None:
            failures.append(f"{name}: benchmark missing from this run")
            continue
        allowed = float(recorded) * machine_factor * budget
        verdict = "ok" if current <= allowed else "REGRESSED"
        print(
            f"  {name}: {current * 1e3:.2f}ms "
            f"(allowed {allowed * 1e3:.2f}ms) {verdict}"
        )
        if current > allowed:
            failures.append(
                f"{name}: median {current:.4f}s exceeds calibrated "
                f"budget {allowed:.4f}s (baseline {recorded:.4f}s)"
            )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--update", metavar="BENCH_JSON", type=Path)
    group.add_argument("--check", metavar="BENCH_JSON", type=Path)
    args = parser.parse_args()
    if args.update is not None:
        return update(args.update)
    return check(args.check)


if __name__ == "__main__":
    sys.exit(main())
