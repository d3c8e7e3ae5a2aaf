"""``python -m benchmarks.e2e``: run workloads, check answers, report.

::

    python -m benchmarks.e2e --workload serve-read --seed 1 --seconds 20 --trace 0
    python -m benchmarks.e2e --seed 1 --out run-a.json

Each run prints its metrics by name and unit, then one JSON line
``{"correct", "attempted", "failed", "metrics"}``; the last line of
stdout is the last run's.  ``--trace 0`` reports the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` (or bare ``--trace``) runs the
workload untraced and then traced and reports the per-layer metrics.
``--out`` adds every run, with the host's core count, Python and NumPy
versions, to a JSON run record that ``benchmarks.e2e.compare`` reads, so
runs of two commits can alternate seed by seed into two records; traced
runs also leave their spans beside it as
``<record>.<workload>-<seed>.spans.jsonl``.  The exit status is 1 when
any answer disagreed with the oracle or no read completed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: ``run_seconds`` of BENCHMARK.json
DEFAULT_SECONDS = 20.0
WORKLOAD_NAMES = ("serve-read", "serve-rw", "serve-deadline", "batch-offline")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__.split("\n")[0]
    )
    parser.add_argument(
        "--workload", action="append", choices=WORKLOAD_NAMES,
        help="workload to run (repeatable; default: all four)",
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="seed of every table and op script"
    )
    parser.add_argument(
        "--seconds", type=float, default=DEFAULT_SECONDS,
        help="measured seconds per run",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: report per-layer metrics from a traced run",
    )
    parser.add_argument(
        "--out", type=Path,
        help="add the runs to this JSON run record (created if missing)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    previous = []
    if args.out is not None and args.out.exists():
        record = json.loads(args.out.read_text())
        if (record["seconds"], record["trace"]) != (args.seconds, bool(args.trace)):
            parser.error(f"{args.out} holds runs of other --seconds/--trace settings")
        previous = record["runs"]
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Servers stop on SIGINT.  A launcher that ignores SIGINT (a shell's
    # background job) would pass the ignore on to them; a handler does
    # not survive exec, so the servers start with the default action.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    from benchmarks.e2e.harness import host_info
    from benchmarks.e2e.workloads import WORKLOADS

    runs = []
    # Inside the checkout: the benchmark reads and writes nowhere else.
    with tempfile.TemporaryDirectory(prefix=".e2e-work-", dir=ROOT) as workdir:
        for name in args.workload or WORKLOAD_NAMES:
            run = WORKLOADS[name].run(
                args.seed, args.seconds, bool(args.trace), Path(workdir) / name
            )
            runs.append(run)
            if args.out is not None and run.details.get("spans_path"):
                spans = args.out.parent / f"{args.out.stem}.{name}-{args.seed}.spans.jsonl"
                shutil.copy(run.details["spans_path"], spans)
                run.details["spans_path"] = spans.name
            _print_run(run)
    if args.out is not None:
        record = {
            "host": host_info(),
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "runs": previous + [
                {
                    "workload": run.workload,
                    "seed": run.seed,
                    **run.line(),
                    "wrong": run.wrong[:20],
                    "details": run.details,
                }
                for run in runs
            ],
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all(run.correct for run in runs) else 1


def _print_run(run) -> None:
    status = "ok" if run.correct else f"{len(run.wrong)} WRONG"
    print(
        f"{run.workload} seed={run.seed}: {run.attempted} ops, "
        f"{run.failed} failed, oracle {status}"
    )
    for reason in run.wrong[:5]:
        print(f"  wrong: {reason}")
    for name, (value, unit) in run.metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for name, value in run.details.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            print(f"  ({name} = {value:.6g})")
    print(json.dumps(run.line()), flush=True)


if __name__ == "__main__":
    sys.exit(main())
