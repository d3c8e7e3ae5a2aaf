"""Smoke test of the end-to-end benchmark (not part of tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (a few
minutes: every workload runs briefly, untraced and traced, through the
real command).  It checks that every metric ``BENCHMARK.json`` names is
printed with its unit, that the oracle passes, that ``--trace``
reports per-layer metrics for the layers each workload exercises, and
that no run leaves a process running.
"""

from __future__ import annotations

import ctypes
import json
import os
import shutil
import signal
import subprocess
import tempfile
from pathlib import Path
from typing import List

import pytest

from benchmarks.e2e.__main__ import WORKLOAD_NAMES
from benchmarks.e2e.compare import verdict
from benchmarks.e2e.harness import Op, Sample
from benchmarks.e2e.tracing import per_layer_spec
from benchmarks.e2e.workloads import (
    WORKLOADS,
    Phase,
    ServeReadWrite,
    make_table,
    untraced_result,
)

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [workload["name"] for workload in BENCHMARK["workloads"]]
SECONDS = "1.5"
#: ``prctl`` option from ``<linux/prctl.h>``
PR_SET_CHILD_SUBREAPER = 36


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    """Run the benchmark command in a session of its own; no process it
    started may outlive it.

    This process is the children's subreaper, so a process the command
    leaves behind is re-parented here and stays visible, as a zombie at
    least, until :func:`_left_in_session` reaps it: a leftover that ends
    a moment after the command is still caught.  Output goes to files,
    not pipes, so the wait is for the command alone, not for a leftover
    holding its pipe.
    """
    _become_subreaper()
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen(
            [*BENCHMARK["command"], *args], cwd=cwd, text=True,
            stdout=out, stderr=err, start_new_session=True,
        )
        try:
            proc.wait(timeout=600)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
        finally:
            left = _left_in_session(proc.pid)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    assert not left, f"processes outlived the command: {left}"
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


def _become_subreaper() -> None:
    """Adopt the orphaned descendants of this process (Linux)."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _left_in_session(session: int) -> List[str]:
    """The processes of ``session``, zombies included; those adopted by
    this process are killed and reaped."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:  # the process ended meanwhile
            continue
        name = text[text.index("(") + 1:text.rindex(")")]
        fields = text.rsplit(")", 1)[1].split()
        if int(fields[3]) != session:
            continue
        pid = int(stat.parent.name)
        found.append(f"{pid} {name} ({fields[0]})")
        if int(fields[1]) == os.getpid():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return found


def _bench(workload: str, trace: int):
    out = _run(
        ROOT, "--workload", workload, "--seed", "3",
        "--seconds", SECONDS, "--trace", str(trace),
    )
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def _assert_reported(lines, result, spec) -> None:
    assert set(result["metrics"]) == {name for name, _ in spec}
    for name, unit in spec:
        assert result["metrics"][name]["unit"] == unit
        assert any(
            line.startswith(f"  {name} = ") and line.endswith(f" {unit}")
            for line in lines
        ), f"{name} not printed with its unit"


def test_benchmark_json_matches_the_code():
    assert NAMES == list(WORKLOADS) == list(WORKLOAD_NAMES)
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    assert [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ] == per_layer_spec()


@pytest.mark.parametrize("workload", NAMES)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    lines, result = _bench(workload, 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    _assert_reported(lines, result, spec)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_reports_the_exercised_layers(workload):
    lines, result = _bench(workload, 1)
    assert result["correct"] and result["failed"] == 0
    spec = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
    _assert_reported(lines, result, spec)
    metrics = result["metrics"]
    for layer in WORKLOADS[workload].layers:
        assert metrics[f"{layer}.calls_per_op"]["value"] > 0, layer
        assert metrics[f"{layer}.p50_ms"]["value"] > 0, layer
    if WORKLOADS[workload].serve:
        # The wrappers must not double-count self time.
        assert metrics["serve.residual_ms_mean"]["value"] >= 0


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero
    without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__", "results"),
        )
    out = _run(
        tmp_path, "--workload", NAMES[0], "--seed", "1",
        "--seconds", "1", "--trace", "0",
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9]
    assert verdict(parent, [10.1, 10.0, 9.9, 10.2, 10.0], "lower", 0.1)["verdict"] == "ok"
    assert verdict(parent, [12.0, 12.1, 11.9, 12.2, 12.0], "lower", 0.1)["verdict"] == "regressed"
    assert verdict(parent, [8.0, 8.1, 7.9, 8.2, 8.0], "higher", 0.1)["verdict"] == "regressed"
    noisy = [5.0, 10.0, 15.0, 20.0, 8.0]
    assert verdict(noisy, [12.0, 13.0, 11.0, 14.0, 12.5], "lower", 0.1)["verdict"] == "unresolved"
    assert verdict(noisy, [1.0, 1.1, 0.9, 1.2, 1.0], "lower", 0.1)["verdict"] == "ok"
    assert verdict([1.0], [1.0, 1.0], "lower", 0.1)["verdict"] == "unresolved"


def test_run_without_a_completed_read_fails_cleanly():
    """A server that refuses every request gives a failed run with no
    metrics, not a traceback."""
    samples = [Sample(Op("/query", {}), 503, 0.0, 0.01) for _ in range(5)]
    phase = Phase(samples, [0.0], 1.0, [0.5], 50.0, [], {})
    result = untraced_result(WORKLOADS["serve-read"], 1, phase)
    assert not result.correct and result.metrics == {}
    assert result.attempted == result.failed == 5


def test_barrier_keeps_only_answers_it_got():
    """Refused barrier queries are reported, and recovery is not checked
    against them."""
    table = make_table(200, 1)
    workload = ServeReadWrite()
    workload.table_name = table.name
    workload.prepare(table)

    class Refusing:
        def call(self, method, path, body=None):
            if path == "/tables":
                return 200, {"tables": [{"name": table.name, "version": table.version}]}
            return 503, {"error": "overloaded"}

    wrong = workload.barrier(Refusing())
    assert len(wrong) == len(workload.KS) * len(workload.PS)
    assert workload.last_answers == {}
