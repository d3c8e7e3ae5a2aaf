"""``python -m benchmarks.e2e.compare A.json B.json``: regression verdicts.

``A`` is the baseline run record (the parent commit), ``B`` the change;
both come from ``python -m benchmarks.e2e --seed S --out FILE`` run for
several seeds.  For
every workload and every ``end_to_end`` metric of ``BENCHMARK.json``,
the verdict follows the choosing-metrics rule for a change on one layer:

* each side's runs give a median and quartiles
  (``statistics.quantiles(values, n=4)``);
* *worse* is how far B's median moved from A's in the metric's bad
  direction, as a share of A's median;
* when A's spread — its interquartile distance over its median — is
  wider than the metric's ``bound``, the metric is ``unresolved``,
  unless every run of B reads better than every run of A (``ok``);
* otherwise it is ``regressed`` when *worse* exceeds the bound, else
  ``ok``.

A side with fewer than two runs has no quartiles: ``unresolved``.
The exit status is 1 when any verdict is ``regressed``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Where the metric bounds come from.
BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> Dict:
    """The verdict on one metric of one workload, with its numbers."""
    row: Dict = {"a_runs": len(a), "b_runs": len(b)}
    if len(a) < 2 or len(b) < 2:
        row["verdict"] = "unresolved"
        return row
    sign = 1.0 if better == "lower" else -1.0
    a_median, b_median = statistics.median(a), statistics.median(b)
    a_q = statistics.quantiles(a, n=4)
    b_q = statistics.quantiles(b, n=4)
    spread = (a_q[2] - a_q[0]) / a_median
    worse = sign * (b_median - a_median) / a_median
    every_run_better = max(sign * x for x in b) < min(sign * x for x in a)
    if spread > bound:
        result = "ok" if every_run_better else "unresolved"
    else:
        result = "regressed" if worse > bound else "ok"
    row.update(
        a_median=a_median, a_q1=a_q[0], a_q3=a_q[2],
        b_median=b_median, b_q1=b_q[0], b_q3=b_q[2],
        a_spread=spread, worse=worse, verdict=result,
    )
    return row


def _values(record: Dict, workload: str, metric: str) -> List[float]:
    return [
        run["metrics"][metric]["value"]
        for run in record["runs"]
        if run["workload"] == workload and metric in run["metrics"]
    ]


def compare(a_record: Dict, b_record: Dict, benchmark: Dict) -> List[Dict]:
    """One verdict row per (workload, end-to-end metric)."""
    rows = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            row = verdict(
                _values(a_record, workload, name),
                _values(b_record, workload, name),
                metric["better"],
                metric["bound"],
            )
            row.update(workload=workload, metric=name, bound=metric["bound"])
            rows.append(row)
    return rows


def render(rows: List[Dict], a_host: Dict, b_host: Dict) -> str:
    lines = [
        f"A: nproc={a_host.get('nproc')} python={a_host.get('python')} "
        f"numpy={a_host.get('numpy')}",
        f"B: nproc={b_host.get('nproc')} python={b_host.get('python')} "
        f"numpy={b_host.get('numpy')}",
        f"{'workload':<15} {'metric':<14} {'A median [q1, q3]':<32} "
        f"{'B median [q1, q3]':<32} {'worse':>7} {'bound':>6}  verdict",
    ]
    for row in rows:
        if "a_median" in row:
            a = f"{row['a_median']:.4g} [{row['a_q1']:.4g}, {row['a_q3']:.4g}]"
            b = f"{row['b_median']:.4g} [{row['b_q1']:.4g}, {row['b_q3']:.4g}]"
            worse = f"{row['worse']:+.1%}"
        else:
            a = f"{row['a_runs']} run(s)"
            b = f"{row['b_runs']} run(s)"
            worse = "-"
        lines.append(
            f"{row['workload']:<15} {row['metric']:<14} {a:<32} {b:<32} "
            f"{worse:>7} {row['bound']:>6.0%}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e.compare", description=__doc__.split("\n")[0]
    )
    parser.add_argument("a", type=Path, help="baseline run record")
    parser.add_argument("b", type=Path, help="changed run record")
    args = parser.parse_args(argv)
    a_record = json.loads(args.a.read_text())
    b_record = json.loads(args.b.read_text())
    benchmark = json.loads(BENCHMARK.read_text())
    rows = compare(a_record, b_record, benchmark)
    print(render(rows, a_record.get("host", {}), b_record.get("host", {})))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
