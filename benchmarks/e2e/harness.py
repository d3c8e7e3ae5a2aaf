"""Process, HTTP and statistics plumbing shared by the e2e workloads.

Nothing here knows about a particular workload: a :class:`ServerProcess`
runs one server process on an ephemeral port, :class:`HttpClient` is one
keep-alive connection, and :func:`closed_loop` drives one thread per
client through its op stream until a deadline.
"""

from __future__ import annotations

import http.client
import json
import os
import platform
import queue
import signal
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: How long a server or worker may take to come up before the run fails.
START_TIMEOUT_S = 120.0
#: How long a graceful stop may take before the process is killed.
STOP_TIMEOUT_S = 30.0
#: Width of the slices whose completion rates give ``ops_per_s``.
SLICE_S = 1.0


def subprocess_env() -> Dict[str, str]:
    """The environment for child processes: ``src`` and the repo root
    importable, nothing else changed."""
    env = dict(os.environ)
    paths = [str(SRC), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def host_info() -> Dict[str, Any]:
    """The host facts every result must state."""
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def cpu_ticks() -> Tuple[int, int]:
    """``(busy, stolen)`` clock ticks of all CPUs so far, from the
    ``cpu`` line of ``/proc/stat``; ``(0, 0)`` where it is unavailable."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        user, nice, system, _idle, _iowait, irq, softirq, steal = map(
            int, fields[1:9]
        )
    except (OSError, ValueError):
        return 0, 0
    return user + nice + system + irq + softirq, steal


class StealMeter:
    """How much of the CPU time the machine wanted the hypervisor gave it.

    On a shared virtual machine the host runs other guests on our
    virtual CPUs ("steal" in ``/proc/stat``).  Stolen time stretches
    every wall-clock time of the run and says nothing about the program.
    Between ``start`` and ``stop`` calls the meter sums busy and stolen
    ticks; ``kept`` = busy / (busy + stolen) scales it out: an end-to-end
    time is multiplied by ``kept``, a rate divided by it.  A halted CPU
    accrues no steal, so idle time and waits on I/O are not scaled away.
    ``kept`` is 1 where the kernel reports no steal.
    """

    def __init__(self) -> None:
        self.busy = 0
        self.stolen = 0
        self._mark: Optional[Tuple[int, int]] = None

    def start(self) -> None:
        self._mark = cpu_ticks()

    def stop(self) -> None:
        busy, stolen = cpu_ticks()
        self.busy += busy - self._mark[0]
        self.stolen += stolen - self._mark[1]
        self._mark = None

    @property
    def kept(self) -> float:
        total = self.busy + self.stolen
        return self.busy / total if total > 0 else 1.0


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    closest ranks — ``statistics.quantiles(..., method="inclusive")``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def slice_rates(
    intervals: Sequence[Tuple[float, float, float]],
    start: float,
    end: float,
) -> List[float]:
    """Completions per second in equal slices of about :data:`SLICE_S`
    seconds covering ``[start, end]``.

    Each ``(started, finished, weight)`` interval spreads its weight
    evenly over its own duration, so a slice counts the fraction of each
    op it overlaps — no rounding to whole completions.  The run reports
    the median slice: a burst that slows a minority of slices (another
    tenant taking the CPU) does not move it.
    """
    count = max(1, round((end - start) / SLICE_S))
    width = (end - start) / count
    rates = [0.0] * count
    for started, finished, weight in intervals:
        duration = max(finished - started, 1e-12)
        first = max(0, min(count - 1, int((started - start) / width)))
        last = max(0, min(count - 1, int((finished - start) / width)))
        for index in range(first, last + 1):
            low = max(started, start + index * width)
            high = min(finished, start + (index + 1) * width)
            if high > low:
                rates[index] += weight * (high - low) / duration
    return [rate / width for rate in rates]


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
class ServerProcess:
    """One server process bound to an ephemeral port.

    ``argv`` must make the process print the ``repro serve: ... on
    host:port`` banner; stdout is drained by a reader thread (so the
    pipe never fills) and stderr goes to ``log_path``.
    """

    BANNER = "repro serve:"

    def __init__(self, argv: List[str], log_path: Path) -> None:
        self.argv = argv
        self.log_path = log_path
        self.port: Optional[int] = None
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=subprocess_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        self._reader = threading.Thread(
            target=self._drain, name="e2e-server-stdout", daemon=True
        )
        self._reader.start()

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def wait_ready(self, timeout: float = START_TIMEOUT_S) -> int:
        """Block until the banner names the bound port; returns it."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(f"server did not start: {self.describe()}")
            try:
                line = self._lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise RuntimeError(f"server exited early: {self.describe()}")
            if line.startswith(self.BANNER):
                address = line.split(" on ", 1)[1].split()[0]
                self.port = int(address.rsplit(":", 1)[1])
                return self.port

    def cpu_seconds(self) -> float:
        """User plus system CPU time the server has used so far."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def vm_hwm_mb(self) -> float:
        """Peak resident set size of the server so far (``VmHWM``)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> int:
        """Graceful SIGINT stop; kills the process if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=STOP_TIMEOUT_S)
        self._log.close()
        return self.proc.returncode

    def describe(self) -> str:
        code = self.proc.poll()
        tail = ""
        if self.log_path.exists():
            tail = self.log_path.read_text(errors="replace")[-2000:]
        return f"{' '.join(self.argv)} (exit {code})\n{tail}"


# ----------------------------------------------------------------------
# HTTP
# ----------------------------------------------------------------------
class HttpClient:
    """One keep-alive connection; reconnects after a transport error."""

    def __init__(self, port: int, timeout: float = 60.0) -> None:
        self.port = port
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def call(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Tuple[Optional[int], Dict[str, Any]]:
        """One request; ``(status, decoded body)``, status ``None`` when
        the transport failed."""
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        try:
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=self.timeout
                )
            self._conn.request(method, path, body=payload, headers=headers)
            response = self._conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as error:
            self.close()
            return None, {"error": "transport", "message": repr(error)}
        try:
            decoded = json.loads(raw)
        except ValueError:
            decoded = {"raw": raw[:200].decode("utf-8", "replace")}
        return response.status, decoded

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


# ----------------------------------------------------------------------
# Closed-loop load
# ----------------------------------------------------------------------
@dataclass
class Op:
    """One request of a workload's op stream."""

    path: str
    body: Dict[str, Any]
    #: called with the decoded response once the request succeeded
    on_success: Optional[Callable[[Dict[str, Any]], None]] = None

    @property
    def is_read(self) -> bool:
        return self.path == "/query"


@dataclass
class Sample:
    """One completed request as the client saw it."""

    op: Op
    status: Optional[int]
    started: float
    seconds: float
    body: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status is not None and 200 <= self.status < 300


def run_ops(client: HttpClient, ops: Iterator[Op], count: int) -> List[Sample]:
    """Issue ``count`` ops back to back on one client (warm-up)."""
    return [_issue(client, next(ops)) for _ in range(count)]


def _issue(client: HttpClient, op: Op) -> Sample:
    started = time.perf_counter()
    status, body = client.call("POST", op.path, op.body)
    sample = Sample(op, status, started, time.perf_counter() - started, body)
    if sample.ok and op.on_success is not None:
        op.on_success(body)
    return sample


def closed_loop(
    clients: Sequence[HttpClient],
    streams: Sequence[Iterator[Op]],
    seconds: float,
) -> Tuple[List[Sample], List[float]]:
    """Each client thread sends its next op only after the previous one
    completed, until ``seconds`` have passed; in-flight ops finish.

    :returns: every sample, and the :func:`slice_rates` of the window
        from start until the last thread finished.
    """
    results: List[List[Sample]] = [[] for _ in clients]
    errors: List[BaseException] = []
    started = time.perf_counter()
    stop_at = started + seconds

    def drive(position: int) -> None:
        client, ops, sink = clients[position], streams[position], results[position]
        try:
            while time.perf_counter() < stop_at:
                sink.append(_issue(client, next(ops)))
        except BaseException as error:  # re-raised by the caller below
            errors.append(error)

    threads = [
        threading.Thread(target=drive, args=(i,), name=f"e2e-client-{i}")
        for i in range(len(clients))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    finished = time.perf_counter()
    if errors:
        raise errors[0]
    samples = [sample for sink in results for sample in sink]
    rates = slice_rates(
        [(s.started, s.started + s.seconds, s.ok) for s in samples],
        started, finished,
    )
    return samples, rates
