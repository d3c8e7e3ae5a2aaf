"""E13 — streaming PT-k: per-arrival latency over sliding windows.

Measures the monitored sliding window on the tracking stream: arrivals
per second for growing window sizes, plus answer churn.  An arrival is
one incremental write (plus a rule write for a tagged one, and one
removal once the window is full) and the answer one columnar read of
the warm scan each write hands on, which re-prices only the rows below
the first changed rank, up to the Theorem-5 stop depth.  So the per-arrival cost
should track k, not the window size — the streaming analogue of
Figure 7.  At the default scale (0.5) the stream is long enough for
the 5,000 window to fill.
"""

import os

from benchmarks.conftest import bench_scale, emit
from repro.bench.harness import ExperimentTable, measure
from repro.datagen.tracking import TrackingConfig, detection_stream
from repro.stream import PTKMonitor, SlidingWindowPTK


def test_streaming_throughput(benchmark):
    scale = max(bench_scale(), 0.2)
    config = TrackingConfig(
        n_objects=int(240 * scale) + 5,
        n_ticks=int(200 * scale) + 20,
        seed=8,
    )
    arrivals = list(detection_stream(config))
    k = 5

    def run() -> ExperimentTable:
        result = ExperimentTable(
            title=f"Streaming PT-k latency (k={k}, p=0.45)",
            columns=[
                "window_size",
                "arrivals",
                "arrivals_per_second",
                "answer_churn",
                "final_answer_size",
            ],
            notes=(
                f"tracking stream: {len(arrivals)} detections; "
                f"nproc={os.cpu_count()}"
            ),
        )
        for window_size in (100, 200, 400, 800, 5000):
            window = SlidingWindowPTK(
                k=k, threshold=0.45, window_size=window_size
            )
            monitor = PTKMonitor(window)

            def feed():
                for detection, tag in arrivals:
                    monitor.observe(detection, rule_tag=tag)

            _, seconds = measure(feed)
            result.add_row(
                window_size,
                len(arrivals),
                len(arrivals) / max(seconds, 1e-9),
                monitor.churn(),
                len(monitor.current_answer),
            )
        return result

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(result, "stream_throughput.txt")
    rows = result.as_dicts()
    # the per-arrival cost is k-bound: throughput degrades far less than
    # the 50x window growth
    rates = [row["arrivals_per_second"] for row in rows]
    assert min(rates) > max(rates) / 8
    # every configuration sustains a usable rate
    assert all(rate > 50 for rate in rates)
