"""The four workloads: seeded tables and op streams, load, and checks.

Every table and op stream derives from the run's ``--seed``; the
program only ever sees the generated requests.  Op streams are built
from shuffled *blocks* that each hold the workload's exact mix, so any
window of the run carries the same mix whatever the seed.  Each
workload gets an untimed warm-up of a fixed op count, then runs closed
loops for the run's seconds; the ops a commit completes are the same
prefix of the same script on every commit.

Serve workloads launch ``python -m repro serve`` (CLI defaults) in its
own process, so client threads never share the server's interpreter
lock; ``batch-offline`` runs the ``UncertainDB`` library API in a
worker process (:mod:`benchmarks.e2e.batch_worker`).  Each run sets up
:data:`SETUPS` times — a fresh process each time — and reports the
median set-up time; the last process serves the measured phase.  Times
and rates are scaled for the CPU time the host stole
(:class:`~benchmarks.e2e.harness.StealMeter`).
"""

from __future__ import annotations

import json
import multiprocessing
import random
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from benchmarks.e2e import oracle, traced_serve
from benchmarks.e2e.harness import (
    START_TIMEOUT_S,
    HttpClient,
    Op,
    Sample,
    ServerProcess,
    StealMeter,
    closed_loop,
    percentile,
    run_ops,
    slice_rates,
    subprocess_env,
    ROOT,
)
from benchmarks.e2e.tracing import per_layer_metrics
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic_table
from repro.io.jsonio import read_table_json, write_table_json
from repro.model.table import UncertainTable

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Closed-loop clients: one thread each, at most ``nproc`` on the host.
CLIENTS = 2
#: The tail percentile reported: a 20-second ``serve-read`` run, the
#: slowest, completes 400-800 reads, which leaves at least twenty
#: samples above p95.
TAIL = 95


def make_table(n_tuples: int, seed: int) -> UncertainTable:
    """The paper's Section 6.2 synthetic table with ``n/10`` rules."""
    return generate_synthetic_table(
        SyntheticConfig(n_tuples=n_tuples, n_rules=n_tuples // 10, seed=seed)
    )


def stream_rng(workload: str, seed: int, stream: str) -> random.Random:
    """A deterministic RNG per (workload, seed, stream)."""
    return random.Random(f"{workload}/{seed}/{stream}")


def blocks(rng: random.Random, block: Sequence[Any]) -> Iterator[Any]:
    """Endless shuffled repetitions of ``block``."""
    while True:
        order = list(block)
        rng.shuffle(order)
        yield from order


@dataclass
class Phase:
    """What one measured phase produced (before metrics)."""

    samples: List[Sample]
    #: :func:`~benchmarks.e2e.harness.slice_rates` of the timed windows
    rates: List[float]
    #: CPU seconds the server (or worker and its pool) used while timed
    cpu_s: float
    setup_times: List[float]
    peak_rss_mb: float
    wrong: List[str]
    details: Dict[str, Any]
    layers: Optional[Dict[str, Any]] = None
    #: :attr:`~benchmarks.e2e.harness.StealMeter.kept` of the timed
    #: windows and of the set-ups
    kept: float = 1.0
    setup_kept: float = 1.0


@dataclass
class RunResult:
    """One run of one workload, as printed and recorded."""

    workload: str
    seed: int
    attempted: int
    failed: int
    wrong: List[str]
    metrics: Dict[str, Tuple[float, str]]
    details: Dict[str, Any] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.wrong

    def line(self) -> Dict[str, Any]:
        """The result object each run prints as its last line."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def end_to_end_metrics(
    phase: Phase, kept: bool = True
) -> Dict[str, Tuple[float, str]]:
    """The ``end_to_end`` metrics of BENCHMARK.json, in its order.

    :param kept: scale out the time the host stole (see
        :class:`~benchmarks.e2e.harness.StealMeter`); False gives the
        raw wall-clock values.
    """
    run, setup = (phase.kept, phase.setup_kept) if kept else (1.0, 1.0)
    reads = [s.seconds for s in phase.samples if s.op.is_read and s.ok]
    return {
        "setup_s": (statistics.median(phase.setup_times) * setup, "s"),
        "ops_per_s": (statistics.median(phase.rates) / run, "1/s"),
        "read_p50_ms": (percentile(reads, 50) * 1000.0 * run, "ms"),
        f"read_p{TAIL}_ms": (percentile(reads, TAIL) * 1000.0 * run, "ms"),
        "peak_rss_mb": (phase.peak_rss_mb, "MB"),
    }


def _failed(phase: Phase) -> int:
    """Non-2xx and transport failures plus wrong answers, at most the
    ops attempted."""
    failures = sum(not s.ok for s in phase.samples) + len(phase.wrong)
    return min(failures, len(phase.samples))


def _stalled(phase: Phase) -> bool:
    """No read completed: the phase has no latency or rate to report."""
    return not any(s.ok and s.op.is_read for s in phase.samples)


def _round_details(details: Dict[str, Any]) -> Dict[str, Any]:
    return {
        key: round(value, 6) if isinstance(value, float) else value
        for key, value in details.items()
    }


class Workload:
    """One workload: ``run`` measures it once for a seed."""

    name = ""
    why = ""
    #: whether requests go through the server (per-layer residual)
    serve = True
    #: traced boundaries this workload must exercise
    layers: Tuple[str, ...] = ()

    def run(self, seed: int, seconds: float, trace: bool, workdir: Path) -> RunResult:
        if not trace:
            phase = self._phase(seed, seconds, workdir / "run", SETUPS, traced=False)
            return untraced_result(self, seed, phase)
        base = self._phase(seed, seconds, workdir / "base", 1, traced=False)
        traced = self._phase(seed, seconds, workdir / "traced", 1, traced=True)
        return traced_result(self, seed, base, traced)

    def _phase(
        self, seed: int, seconds: float, workdir: Path, setups: int, traced: bool
    ) -> Phase:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Serve workloads
# ----------------------------------------------------------------------
class ServeWorkload(Workload):
    """A traffic mix against one ``repro serve`` process and one table."""

    n_tuples = 10_000
    #: closed-loop client threads
    clients = CLIENTS
    #: timed segments; quiesce barriers run between them
    segments = 1
    #: untimed warm-up ops per client before the timed phase
    warmup_ops = 15

    def serve_args(self, data_dir: Path) -> List[str]:
        return []

    def first_query(self) -> Dict[str, Any]:
        raise NotImplementedError

    def prepare(self, table: UncertainTable) -> None:
        """Untimed: build the oracle state from the server's table."""

    def stream(self, seed: int, client: int, phase: str) -> Iterator[Op]:
        raise NotImplementedError

    def barrier(self, probe: HttpClient) -> List[str]:
        """Quiesce check between segments; returns oracle failures."""
        return []

    def check(self, samples: Sequence[Sample]) -> Tuple[List[str], Dict[str, Any]]:
        """Oracle failures and workload-specific details."""
        raise NotImplementedError

    def after_stop(self, data_dir: Path) -> Tuple[List[str], Dict[str, Any]]:
        """Checks after the graceful stop (recovery)."""
        return [], {}

    def query(self, k: int, threshold: float, **extra: Any) -> Op:
        body = {"table": self.table_name, "k": k, "threshold": threshold}
        body.update(extra)
        return Op("/query", body)

    # -- the run ----------------------------------------------------------
    def _phase(
        self, seed: int, seconds: float, workdir: Path, setups: int, traced: bool
    ) -> Phase:
        setup_times: List[float] = []
        setup_meter, meter = StealMeter(), StealMeter()
        server: Optional[ServerProcess] = None
        probe: Optional[HttpClient] = None
        clients: List[HttpClient] = []
        try:
            for attempt in range(setups):
                if server is not None:
                    probe.close()
                    server.stop()
                directory = workdir / f"setup{attempt}"
                shutil.rmtree(directory, ignore_errors=True)
                (directory / "tables").mkdir(parents=True)
                setup_meter.start()
                started = time.perf_counter()
                table = make_table(self.n_tuples, seed)
                self.table_name = table.name
                table_path = directory / "tables" / "table.json"
                write_table_json(table, table_path)
                server = ServerProcess(
                    self._argv(directory, traced), directory / "server.log"
                )
                probe = HttpClient(server.wait_ready())
                status, body = probe.call("POST", "/query", self.first_query())
                setup_times.append(time.perf_counter() - started)
                setup_meter.stop()
                if status != 200:
                    raise RuntimeError(f"first query failed: {status} {body}")
            self.prepare(read_table_json(table_path))
            clients = [HttpClient(server.port) for _ in range(self.clients)]
            for index, client in enumerate(clients):
                run_ops(client, self.stream(seed, index, "warmup"), self.warmup_ops)
            streams = [self.stream(seed, i, "timed") for i in range(self.clients)]
            samples: List[Sample] = []
            rates: List[float] = []
            cpu_s = 0.0
            wrong: List[str] = []
            for segment in range(self.segments):
                if traced:
                    probe.call("POST", traced_serve.START)
                cpu_before = server.cpu_seconds()
                meter.start()
                got, got_rates = closed_loop(
                    clients, streams, seconds / self.segments
                )
                meter.stop()
                cpu_s += server.cpu_seconds() - cpu_before
                if traced:
                    probe.call("POST", traced_serve.STOP)
                samples.extend(got)
                rates.extend(got_rates)
                wrong.extend(self.barrier(probe))
            peak_rss_mb = server.vm_hwm_mb()
        finally:
            for client in clients + [probe]:
                if client is not None:
                    client.close()
            if server is not None:
                server.stop()
        found, details = self.check(samples)
        wrong.extend(found)
        stop_wrong, stop_details = self.after_stop(directory / "data")
        wrong.extend(stop_wrong)
        details.update(stop_details)
        details["ops"] = len(samples)
        details["setup_samples_s"] = [round(t, 6) for t in setup_times]
        layers = None
        if traced:
            layers = json.loads((directory / "trace.json").read_text())
            layers["spans_path"] = str(directory / "trace.spans.jsonl")
        return Phase(
            samples, rates, cpu_s, setup_times, peak_rss_mb, wrong,
            details, layers, meter.kept, setup_meter.kept,
        )

    def _argv(self, directory: Path, traced: bool) -> List[str]:
        serve = [str(directory / "tables"), "--port", "0"]
        serve += self.serve_args(directory / "data")
        if traced:
            return [
                sys.executable, "-m", "benchmarks.e2e.traced_serve",
                "--dump", str(directory / "trace"), "--", *serve,
            ]
        return [sys.executable, "-m", "repro", "serve", *serve]


class ServeRead(ServeWorkload):
    """Cold exact path: thresholded PT-k over one static table."""

    name = "serve-read"
    why = (
        "thresholded exact queries, k in {5..100}, on one static n=10k "
        "table: the exact scan and its set-up; the prepare cache fits"
    )
    KS = (5, 10, 20, 50, 100)
    PS = (0.2, 0.3, 0.5)
    layers = (
        "serve.protocol.decode", "serve.protocol.encode",
        "serve.admission.admit", "serve.coalescer.submit",
        "serve.scheduler.decide", "query.planner.estimate",
        "query.prepare.get", "core.exact.query", "core.exact.setup",
        "core.exact.scan", "obs.flight", "obs.metrics",
    )

    def first_query(self):
        return self.query(5, 0.3).body

    def prepare(self, table):
        from repro.query.prepare import prepare_ranking
        from repro.query.topk import TopKQuery

        prepared = prepare_ranking(table, TopKQuery(k=1))
        self.expected = {
            (k, p): oracle.cold_exact(table, k, p, prepared)
            for k in self.KS for p in self.PS
        }

    def stream(self, seed, client, phase):
        rng = stream_rng(self.name, seed, f"{phase}/{client}")
        shapes = [(k, p) for k in self.KS for p in self.PS]
        for k, p in blocks(rng, shapes):
            yield self.query(k, p)

    def check(self, samples):
        wrong = []
        for sample in samples:
            if sample.ok:
                body = sample.body
                reason = oracle.check_answer(
                    self.expected[(body["k"], body["threshold"])],
                    body["answers"], body["probabilities"],
                    oracle.SERVED_TOLERANCE,
                )
                if reason:
                    wrong.append(f"k={body['k']} p={body['threshold']}: {reason}")
        return wrong, {}


class ServeDeadline(ServeWorkload):
    """Deadline-carrying traffic: cheap exact and tight degraded reads."""

    name = "serve-deadline"
    why = (
        "80% cheap k=10 reads with 250 ms deadlines, 20% k=200 reads with "
        "150 ms deadlines that the planner degrades to the sampler"
    )
    #: (k, threshold, deadline_ms)
    CHEAP = (10, 0.3, 250.0)
    TIGHT = (200, 0.3, 150.0)
    #: With 40% tight reads the median fell where cheap reads overlapping
    #: a sampler run meet those that do not, and moved by up to 60%
    #: between runs; at 20% it sits inside the cheap reads.
    BLOCK = (CHEAP, CHEAP, CHEAP, CHEAP, TIGHT)
    #: the online latency model drifts without a warm-up; 30 ops per
    #: client settle the exact/sampled split
    warmup_ops = 30
    layers = (
        "serve.protocol.decode", "serve.coalescer.submit",
        "serve.scheduler.decide", "query.planner.estimate",
        "core.exact.query", "core.sampling.query", "obs.flight",
    )

    def first_query(self):
        k, p, deadline = self.CHEAP
        return self.query(k, p, deadline_ms=deadline).body

    def prepare(self, table):
        self.full = {k: oracle.full_scan(table, k) for k in (self.CHEAP[0], self.TIGHT[0])}

    def stream(self, seed, client, phase):
        rng = stream_rng(self.name, seed, f"{phase}/{client}")
        for k, p, deadline in blocks(rng, self.BLOCK):
            yield self.query(k, p, deadline_ms=deadline)

    def check(self, samples):
        wrong: List[str] = []
        exact = sampled = misses = partial = late = tuples = 0
        halfwidths: List[float] = []
        for sample in samples:
            deadline_s = sample.op.body["deadline_ms"] / 1000.0
            if not sample.ok:
                late += 1
                continue
            body = sample.body
            late += sample.seconds > deadline_s
            full = self.full[body["k"]]
            if body["mode"] == "sampled":
                sampled += 1
                intervals = body["intervals"]
                tuples += len(intervals)
                misses += oracle.interval_misses(intervals, full)
                halfwidths.extend((high - low) / 2.0 for low, high in intervals.values())
                continue
            exact += 1
            partial += bool(body.get("partial"))
            reason = oracle.check_answer(
                oracle.from_full_scan(full, body["threshold"]),
                body["answers"], body["probabilities"],
                oracle.SERVED_TOLERANCE, partial=body.get("partial", False),
            )
            if reason:
                wrong.append(f"k={body['k']} exact: {reason}")
        confidence = 0.95  # the protocol's default interval confidence
        reason = oracle.check_intervals(misses, tuples, confidence)
        if reason:
            wrong.append(reason)
        answered = exact + sampled
        return wrong, {
            "exact": exact,
            "sampled": sampled,
            "partial": partial,
            "exact_share": exact / answered if answered else 0.0,
            "sampled_halfwidth": (
                sum(halfwidths) / len(halfwidths) if halfwidths else 0.0
            ),
            "interval_miss_share": misses / tuples if tuples else 0.0,
            "deadline_miss_rate": late / len(samples) if samples else 0.0,
        }


class ServeReadWrite(ServeWorkload):
    """Durable, dynamic serving under a 30% write mix."""

    name = "serve-rw"
    why = (
        "30% POST /mutate writes with --data-dir, --fsync interval and "
        "--dynamic, one client: WAL, prepare refresh and the incremental "
        "indexes"
    )
    KS = (10, 20, 50)
    PS = (0.2, 0.3, 0.5)
    #: per client: 14 reads and 6 writes (20 ops, 30% writes)
    WRITES = ("update", "update", "score", "score", "add", "remove")
    READS_PER_BLOCK = 14
    segments = 4
    warmup_ops = 40
    #: One client, so no read overlaps a write.  The server applies
    #: ``POST /mutate`` on its event-loop thread while reads run on
    #: executor threads, unsynchronised: ``DynamicIndex.build`` reads the
    #: table's tuples and then its version, and a write landing between
    #: the two leaves an index stamped with the new version but holding
    #: the old contents, whose delta the registry then skips.  With two
    #: clients one run in about a dozen gave wrong answers at a barrier.
    clients = 1
    layers = (
        "serve.protocol.decode", "serve.coalescer.submit",
        "query.prepare.get", "query.prepare.refresh", "dynamic.answer",
        "dynamic.apply", "dynamic.scan", "durable.mutate",
        "durable.wal.append", "obs.metrics",
    )

    def serve_args(self, data_dir):
        return ["--data-dir", str(data_dir), "--fsync", "interval", "--dynamic"]

    def first_query(self):
        return self.query(self.KS[0], 0.3).body

    def prepare(self, table):
        self.mirror = table
        self.mirror_lock = threading.Lock()
        independent = [str(t.tid) for t in table if table.is_independent(t.tid)]
        # Each client owns disjoint tuples, so the final state does not
        # depend on how the clients' writes interleave.
        self.owned = [independent[i::self.clients] for i in range(self.clients)]
        self.added = [0] * self.clients
        self.last_answers: Dict[Tuple[int, float], Dict[str, Any]] = {}

    def stream(self, seed, client, phase):
        rng = stream_rng(self.name, seed, f"{phase}/{client}")
        shapes = blocks(rng, [(k, p) for k in self.KS for p in self.PS])
        block = ["read"] * self.READS_PER_BLOCK + list(self.WRITES)
        for kind in blocks(rng, block):
            if kind == "read":
                yield self.query(*next(shapes))
            else:
                yield self._write(kind, client, rng)

    def _write(self, kind: str, client: int, rng: random.Random) -> Op:
        owned = self.owned[client]
        body: Dict[str, Any] = {"op": kind, "table": self.table_name}
        if kind == "add":
            self.added[client] += 1
            body.update(
                tid=f"c{client}n{self.added[client]}",
                score=rng.uniform(0.0, self.n_tuples),
                probability=rng.uniform(0.05, 0.95),
            )
            owned.append(body["tid"])
        elif kind == "remove":
            body["tid"] = owned.pop(rng.randrange(len(owned)))
        elif kind == "update":
            body.update(tid=rng.choice(owned), probability=rng.uniform(0.05, 0.95))
        else:
            body.update(tid=rng.choice(owned), score=rng.uniform(0.0, self.n_tuples))
        return Op("/mutate", body, on_success=lambda _: self._mirror(body))

    def _mirror(self, body: Dict[str, Any]) -> None:
        with self.mirror_lock:
            table, tid, op = self.mirror, body["tid"], body["op"]
            if op == "add":
                table.add(tid, score=body["score"], probability=body["probability"])
            elif op == "remove":
                table.remove_tuple(tid)
            elif op == "update":
                table.update_probability(tid, body["probability"])
            else:
                table.update_score(tid, body["score"])

    def barrier(self, probe):
        from repro.query.prepare import prepare_ranking
        from repro.query.topk import TopKQuery

        wrong = []
        # Only this barrier's answers belong to the version that
        # recovery must reproduce.
        self.last_answers = {}
        status, body = probe.call("GET", "/tables")
        versions = {t["name"]: t["version"] for t in body.get("tables", [])}
        if versions.get(self.table_name) != self.mirror.version:
            wrong.append(
                f"barrier: server version {versions.get(self.table_name)}, "
                f"expected {self.mirror.version}"
            )
        prepared = prepare_ranking(self.mirror, TopKQuery(k=1))
        for k in self.KS:
            for p in self.PS:
                status, answer = probe.call("POST", "/query", self.query(k, p).body)
                expected = oracle.cold_exact(self.mirror, k, p, prepared)
                reason = (
                    f"status {status}" if status != 200 else oracle.check_answer(
                        expected, answer["answers"], answer["probabilities"],
                        oracle.SERVED_TOLERANCE,
                    )
                )
                if reason:
                    wrong.append(f"barrier k={k} p={p}: {reason}")
                if status == 200:
                    self.last_answers[(k, p)] = answer
        return wrong

    def check(self, samples):
        # A cold scan per timed read would cost more than the timed phase,
        # so only the barriers and recovery are checked.
        writes = [s.seconds for s in samples if not s.op.is_read and s.ok]
        return [], {
            "writes": len(writes),
            "write_p50_ms": percentile(writes, 50) * 1000.0 if writes else 0.0,
            f"write_p{TAIL}_ms": percentile(writes, TAIL) * 1000.0 if writes else 0.0,
        }

    def after_stop(self, data_dir):
        from repro.durable import recover_state
        from repro.exceptions import ReproError

        started = time.perf_counter()
        try:
            tables, _ = recover_state(data_dir)
        except ReproError as error:
            return [f"recovery failed: {error}"], {}
        recover_s = time.perf_counter() - started
        recovered = tables.get(self.table_name)
        if recovered is None:
            return ["recovery lost the table"], {"recover_s": recover_s}
        wrong = []
        reason = oracle.same_contents(self.mirror, recovered)
        if reason:
            wrong.append(f"recovered table: {reason}")
        for (k, p), answer in self.last_answers.items():
            reason = oracle.check_answer(
                oracle.cold_exact(recovered, k, p),
                answer["answers"], answer["probabilities"],
                oracle.SERVED_TOLERANCE,
            )
            if reason:
                wrong.append(f"recovered k={k} p={p}: {reason}")
        return wrong, {"recover_s": recover_s}


# ----------------------------------------------------------------------
# Offline batches through the library API
# ----------------------------------------------------------------------
class BatchOffline(Workload):
    """Library batches: ``ptk_many`` fan-out and the ``ptk_batch`` scan."""

    name = "batch-offline"
    serve = False
    why = (
        "UncertainDB.ptk_many over 4 n=5k tables (process pool) and "
        "ptk_batch on n=1k, each round after one write per table; no server"
    )
    N_TABLES = 4
    N = 5_000
    SMALL_N = 1_000
    KS = (5, 10, 20, 50, 100)
    PS = (0.2, 0.3, 0.5)
    MANY_PER_TABLE = 6
    BATCH_PAIRS = 6
    layers = (
        "query.prepare.get", "query.prepare.refresh", "core.batch.query",
        "parallel.fanout", "parallel.shard_map",
    )

    @classmethod
    def tables(cls, seed: int) -> List[UncertainTable]:
        """The four fan-out tables, then the small batch table."""
        return [cls.table(seed, index) for index in range(cls.N_TABLES + 1)]

    @classmethod
    def table(cls, seed: int, index: int) -> UncertainTable:
        """Table ``index`` of :meth:`tables`."""
        n = cls.N if index < cls.N_TABLES else cls.SMALL_N
        return make_table(n, seed * 10 + index)

    def _phase(
        self, seed: int, seconds: float, workdir: Path, setups: int, traced: bool
    ) -> Phase:
        workdir.mkdir(parents=True, exist_ok=True)
        out = workdir / "worker.json"
        argv = [
            sys.executable, "-m", "benchmarks.e2e.batch_worker",
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(traced)), "--out", str(out),
        ]
        setup_times = []
        setup_meter = StealMeter()
        for attempt in range(setups):
            setup_meter.start()
            started = time.perf_counter()
            worker = subprocess.Popen(
                argv, cwd=ROOT, env=subprocess_env(), text=True,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            )
            try:
                if not select.select([worker.stdout], [], [], START_TIMEOUT_S)[0]:
                    raise RuntimeError("batch worker did not start")
                ready = worker.stdout.readline().strip()
                setup_times.append(time.perf_counter() - started)
                setup_meter.stop()
                if ready != "ready":
                    raise RuntimeError(f"batch worker failed to start: {ready!r}")
                last = attempt == setups - 1
                worker.communicate(
                    "go\n" if last else "stop\n", timeout=seconds + START_TIMEOUT_S
                )
                code = worker.returncode
            finally:
                if worker.poll() is None:
                    worker.kill()
                    worker.wait()
            if code != 0:
                raise RuntimeError(f"batch worker exited with {code}")
        result = json.loads(out.read_text())
        # Every query of a library call is answered when the call returns.
        samples = [
            Sample(Op("/query", {}), 200, started, seconds)
            for started, seconds, queries in result["calls"]
            for _ in range(queries)
        ]
        rates = slice_rates(
            [(started, started + seconds, queries)
             for started, seconds, queries in result["calls"]],
            0.0, result["wall"],
        )
        wrong = self.check(seed, result["tables"], result["rounds"])
        details = {
            "ops": len(samples),
            "rounds": sum(r["timed"] for r in result["rounds"]),
            "setup_samples_s": [round(t, 6) for t in setup_times],
        }
        return Phase(
            samples, rates, result["cpu_s"], setup_times,
            result["peak_rss_mb"], wrong, details, result.get("layers"),
            result["kept"], setup_meter.kept,
        )

    def check(
        self, seed: int, names: List[str], rounds: List[Dict[str, Any]]
    ) -> List[str]:
        """Replay every round's writes on a fresh copy of each table and
        compare every answer with a cold exact scan of that table version.

        The oracle does as much work as the timed phase; tables are
        independent, so :data:`CLIENTS` processes check them side by side.
        The pool forks: a ``spawn`` pool would also start multiprocessing's
        resource tracker, a process that outlives this one.
        """
        script: Dict[str, List[Tuple[list, list]]] = {name: [] for name in names}
        for record in rounds:
            for name in names:
                script[name].append(([], []))
            for name, op, tid, value in record["mutations"]:
                script[name][-1][0].append((op, tid, value))
            for name, k, p, answers, probabilities in record["many"] + record["batch"]:
                script[name][-1][1].append((k, p, answers, probabilities))
        with ProcessPoolExecutor(
            CLIENTS, mp_context=multiprocessing.get_context("fork")
        ) as pool:
            futures = [
                pool.submit(check_table, seed, index, script[name])
                for index, name in enumerate(names)
            ]
            return [reason for future in futures for reason in future.result()]


def check_table(
    seed: int, index: int, rounds: List[Tuple[list, list]]
) -> List[str]:
    """Oracle failures on ``batch-offline`` table ``index``.

    :param rounds: per round, the table's writes ``(op, tid, value)`` and
        its answers ``(k, p, answers, probabilities)``.
    """
    from repro.query.prepare import prepare_ranking
    from repro.query.topk import TopKQuery

    table = BatchOffline.table(seed, index)
    wrong = []
    for number, (mutations, answered) in enumerate(rounds):
        for op, tid, value in mutations:
            if op == "update":
                table.update_probability(tid, value)
            else:
                table.update_score(tid, value)
        prepared = prepare_ranking(table, TopKQuery(k=1))
        for k, p, answers, probabilities in answered:
            expected = oracle.cold_exact(table, k, p, prepared)
            reason = oracle.check_answer(
                expected, answers, dict(zip(answers, probabilities)),
                oracle.EXACT_TOLERANCE,
            )
            if reason:
                wrong.append(f"round {number} {table.name} k={k} p={p}: {reason}")
    return wrong


class RoundPlan:
    """The seeded batch-offline script: writes and requests per round."""

    def __init__(self, seed: int, tables: Sequence[UncertainTable]) -> None:
        self.rng = stream_rng(BatchOffline.name, seed, "rounds")
        self.fanout = list(tables[:-1])
        self.small = tables[-1]
        shapes = [(k, p) for k in BatchOffline.KS for p in BatchOffline.PS]
        self.shapes = {t.name: blocks(self.rng, shapes) for t in tables}
        self.independent = {
            table.name: [t.tid for t in table if table.is_independent(t.tid)]
            for table in tables
        }
        self.number = 0

    def next(self) -> Tuple[list, list, list]:
        """``(mutations, ptk_many requests, ptk_batch pairs)``; round 0
        (the set-up query) writes nothing."""
        mutations = []
        if self.number:
            op = "update" if self.number % 2 else "score"
            for table in self.fanout + [self.small]:
                tid = self.rng.choice(self.independent[table.name])
                value = (
                    self.rng.uniform(0.05, 0.95) if op == "update"
                    else self.rng.uniform(0.0, len(table))
                )
                mutations.append((table.name, op, tid, value))
        many = [
            (table.name, *next(self.shapes[table.name]))
            for table in self.fanout
            for _ in range(BatchOffline.MANY_PER_TABLE)
        ]
        self.rng.shuffle(many)
        batch = [
            next(self.shapes[self.small.name])
            for _ in range(BatchOffline.BATCH_PAIRS)
        ]
        self.number += 1
        return mutations, many, batch


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
NO_READS = "no read completed"


def untraced_result(workload: Workload, seed: int, phase: Phase) -> RunResult:
    """The end-to-end metrics of one untraced phase; none when no read
    completed (the run then fails)."""
    metrics: Dict[str, Tuple[float, str]] = {}
    if _stalled(phase):
        phase.wrong.append(NO_READS)
    else:
        completed = sum(s.ok for s in phase.samples)
        phase.details["cpu_ms_per_op"] = phase.cpu_s / completed * 1000.0
        phase.details["steal_share"] = 1.0 - phase.kept
        phase.details["setup_steal_share"] = 1.0 - phase.setup_kept
        metrics = end_to_end_metrics(phase)
        phase.details.update(
            (f"wall_{name}", value)
            for name, (value, _) in end_to_end_metrics(phase, kept=False).items()
            if name != "peak_rss_mb"
        )
    return RunResult(
        workload.name, seed, len(phase.samples), _failed(phase),
        phase.wrong, metrics, _round_details(phase.details),
    )


def traced_result(
    workload: Workload, seed: int, base: Phase, traced: Phase
) -> RunResult:
    """Per-layer metrics of the traced phase; the untraced phase of the
    same seed gives the tracing overhead."""
    attempted = len(base.samples) + len(traced.samples)
    if _stalled(base) or _stalled(traced):
        wrong = base.wrong + traced.wrong + [NO_READS]
        return RunResult(
            workload.name, seed, attempted,
            min(attempted, _failed(base) + _failed(traced) + 1), wrong, {},
        )
    base_rate = statistics.median(base.rates) / base.kept
    traced_rate = statistics.median(traced.rates) / traced.kept
    ops = len(traced.samples)
    client_mean_ms = (
        sum(s.seconds for s in traced.samples) / ops * 1000.0
        if workload.serve and ops else None
    )
    metrics = per_layer_metrics(
        traced.layers, ops, client_mean_ms,
        (base_rate - traced_rate) / base_rate * 100.0,
    )
    details = {
        "ops": ops,
        "untraced_ops_per_s": base_rate,
        "traced_ops_per_s": traced_rate,
        "missing": traced.layers["missing"],
        "unresolved_targets": traced.layers["unresolved_targets"],
        "boundaries": traced.layers["boundaries"],
        "counters": traced.layers["counters"],
        "spans_path": traced.layers.get("spans_path"),
    }
    return RunResult(
        workload.name, seed, attempted,
        _failed(base) + _failed(traced), base.wrong + traced.wrong,
        metrics, details,
    )


WORKLOADS = {
    workload.name: workload
    for workload in (ServeRead(), ServeReadWrite(), ServeDeadline(), BatchOffline())
}
