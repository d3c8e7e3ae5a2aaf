"""Tests for the serving layer: protocol, admission, coalescing,
deadline-aware degradation, and the loopback/TCP clients.

Everything except the final TCP round-trip runs over
:class:`~repro.serve.client.LoopbackTransport` — the full service stack
(routing, admission control, the coalescer, and the degradation
planner) without opening a socket, so the suite stays hermetic in CI.
"""

from __future__ import annotations

import asyncio
import json
import random
import threading
import time

import pytest

from repro import obs
from repro.exceptions import ReproError
from repro.query.engine import UncertainDB
from repro.query.planner import LatencyModel
from repro.serve import (
    AdmissionController,
    LoopbackTransport,
    ProtocolError,
    QueryRequest,
    QueryResponse,
    RejectedError,
    RequestCoalescer,
    ServeApp,
    ServeClient,
    ServeClientError,
    ServeConfig,
)
from repro.serve.server import serve

from tests.conftest import build_table


@pytest.fixture(autouse=True)
def _obs_off_after():
    """ServeApp enables observability; restore the quiet default."""
    yield
    obs.disable()
    obs.OBS.flight.disable()
    obs.OBS.flight.unconfigure()
    obs.OBS.flight.reset()


def served_table(n: int = 240, name: str = "served"):
    """A mid-sized table with a few exclusion rules for serving tests."""
    rng = random.Random(11)
    probabilities = [round(0.2 + 0.7 * rng.random(), 3) for _ in range(n)]
    rule_groups = []
    for g in range(min(6, n // 2)):
        i, j = 2 * g, 2 * g + 1
        probabilities[i], probabilities[j] = 0.45, 0.4
        rule_groups.append([i, j])
    return build_table(probabilities, rule_groups, name=name)


def make_db(n: int = 240, name: str = "served") -> UncertainDB:
    db = UncertainDB()
    db.register(served_table(n=n, name=name))
    return db


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestQueryRequest:
    def test_minimal_request_defaults(self):
        request = QueryRequest.from_dict(
            {"table": "t", "k": 3, "threshold": 0.5}
        )
        assert request.table == "t"
        assert request.k == 3
        assert request.threshold == 0.5
        assert request.mode == "auto"
        assert request.deadline_ms is None
        assert request.sample_budget is None
        assert request.confidence == 0.95

    def test_full_request(self):
        request = QueryRequest.from_dict(
            {
                "table": "t",
                "k": 2,
                "threshold": 0.4,
                "mode": "sampled",
                "deadline_ms": 125,
                "sample_budget": 500,
                "confidence": 0.9,
            }
        )
        assert request.mode == "sampled"
        assert request.deadline_ms == 125.0
        assert request.sample_budget == 500
        assert request.confidence == 0.9

    @pytest.mark.parametrize("missing", ["table", "k", "threshold"])
    def test_missing_required_field(self, missing):
        payload = {"table": "t", "k": 3, "threshold": 0.5}
        del payload[missing]
        with pytest.raises(ProtocolError, match=missing):
            QueryRequest.from_dict(payload)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("table", ""),
            ("table", 7),
            ("k", 0),
            ("k", -1),
            ("k", 2.5),
            ("k", True),
            ("threshold", 0.0),
            ("threshold", 1.5),
            ("threshold", True),
            ("threshold", "high"),
            ("mode", "fastest"),
            ("deadline_ms", 0),
            ("deadline_ms", -5),
            ("deadline_ms", True),
            ("sample_budget", 0),
            ("sample_budget", 2.5),
            ("sample_budget", True),
            ("confidence", 0.0),
            ("confidence", 1.0),
            ("confidence", True),
        ],
    )
    def test_invalid_field_values(self, field, value):
        payload = {"table": "t", "k": 3, "threshold": 0.5, field: value}
        with pytest.raises(ProtocolError):
            QueryRequest.from_dict(payload)

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolError, match="topk"):
            QueryRequest.from_dict(
                {"table": "t", "k": 3, "threshold": 0.5, "topk": 4}
            )

    def test_non_object_payload_rejected(self):
        with pytest.raises(ProtocolError, match="object"):
            QueryRequest.from_dict([1, 2, 3])


class TestQueryResponse:
    def test_exact_response_omits_sampling_fields(self):
        body = QueryResponse(
            table="t", k=2, threshold=0.5, mode="exact",
            answers=["a"], probabilities={"a": 0.8},
        ).to_dict()
        assert body["mode"] == "exact"
        assert "intervals" not in body
        assert "units_drawn" not in body

    def test_sampled_response_carries_intervals(self):
        body = QueryResponse(
            table="t", k=2, threshold=0.5, mode="sampled",
            answers=["a"], probabilities={"a": 0.8},
            intervals={"a": (0.75, 0.85)}, units_drawn=400,
        ).to_dict()
        assert body["units_drawn"] == 400
        assert body["intervals"]["a"] == [0.75, 0.85]


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmissionController:
    def test_rejects_past_capacity_with_retry_hint(self):
        admission = AdmissionController(max_inflight=2, max_queue=1)
        for _ in range(3):  # capacity = inflight + queue
            admission.admit()
        with pytest.raises(RejectedError) as excinfo:
            admission.admit()
        assert excinfo.value.retry_after > 0
        admission.release()
        admission.admit()  # a slot freed up

    def test_retry_after_scales_with_backlog(self):
        admission = AdmissionController(max_inflight=1, max_queue=8)
        admission.observe_service(0.2, requests=1)
        admission.admit()
        shallow = admission.retry_after_seconds()
        for _ in range(4):
            admission.admit()
        assert admission.retry_after_seconds() > shallow

    def test_stats_shape(self):
        admission = AdmissionController(max_inflight=2, max_queue=3)
        admission.admit()
        stats = admission.stats()
        assert stats["pending"] == 1
        assert admission.capacity == 5
        assert stats["max_inflight"] == 2
        assert stats["max_queue"] == 3
        assert stats["admitted_total"] == 1
        assert stats["rejected_total"] == 0


# ----------------------------------------------------------------------
# Coalescer (driven directly on a private loop)
# ----------------------------------------------------------------------
class TestRequestCoalescer:
    def test_concurrent_submissions_form_one_batch(self):
        batches = []

        async def main():
            async def dispatch(key, items):
                batches.append(list(items))
                return [item * 10 for item in items]

            coalescer = RequestCoalescer(
                dispatch, window_seconds=0.02, max_batch=16
            )
            return await asyncio.gather(
                *(coalescer.submit("t", i) for i in range(5))
            )

        results = asyncio.run(main())
        assert results == [0, 10, 20, 30, 40]
        assert len(batches) == 1
        assert sorted(batches[0]) == [0, 1, 2, 3, 4]

    def test_max_batch_dispatches_early(self):
        batches = []

        async def main():
            async def dispatch(key, items):
                batches.append(list(items))
                return list(items)

            coalescer = RequestCoalescer(
                dispatch, window_seconds=5.0, max_batch=2
            )
            # A 5 s window would stall the test unless max_batch forces
            # dispatch as soon as each pair is complete.
            return await asyncio.wait_for(
                asyncio.gather(*(coalescer.submit("t", i) for i in range(4))),
                timeout=2.0,
            )

        asyncio.run(main())
        assert sorted(len(b) for b in batches) == [2, 2]

    def test_zero_window_dispatches_solo(self):
        batches = []

        async def main():
            async def dispatch(key, items):
                batches.append(list(items))
                return list(items)

            coalescer = RequestCoalescer(dispatch, window_seconds=0.0)
            return await asyncio.gather(
                *(coalescer.submit("t", i) for i in range(3))
            )

        asyncio.run(main())
        assert all(len(b) == 1 for b in batches)
        assert len(batches) == 3

    def test_exception_result_fails_only_that_item(self):
        async def main():
            async def dispatch(key, items):
                return [
                    ValueError("poisoned") if item == 1 else item
                    for item in items
                ]

            coalescer = RequestCoalescer(
                dispatch, window_seconds=0.02, max_batch=16
            )
            return await asyncio.gather(
                *(coalescer.submit("t", i) for i in range(3)),
                return_exceptions=True,
            )

        results = asyncio.run(main())
        assert results[0] == 0 and results[2] == 2
        assert isinstance(results[1], ValueError)

    def test_distinct_keys_do_not_share_batches(self):
        batches = []

        async def main():
            async def dispatch(key, items):
                batches.append((key, list(items)))
                return list(items)

            coalescer = RequestCoalescer(
                dispatch, window_seconds=0.02, max_batch=16
            )
            return await asyncio.gather(
                coalescer.submit("a", 1), coalescer.submit("b", 2)
            )

        asyncio.run(main())
        assert sorted(key for key, _ in batches) == ["a", "b"]


# ----------------------------------------------------------------------
# End-to-end over the loopback transport
# ----------------------------------------------------------------------
def loopback(db, **config_overrides):
    defaults = dict(window_ms=5.0, max_inflight=2, max_queue=16)
    defaults.update(config_overrides)
    latency_model = defaults.pop("latency_model", None)
    app = ServeApp(
        db, ServeConfig(**defaults), latency_model=latency_model
    )
    return LoopbackTransport(app)


class TestLoopbackService:
    def test_query_matches_direct_engine_answer(self):
        db = make_db()
        expected = db.ptk("served", k=5, threshold=0.3)
        with loopback(db) as transport:
            client = ServeClient(transport)
            result = client.query("served", k=5, threshold=0.3)
        assert result["mode"] == "exact"
        assert result["degraded"] is False
        assert result["answers"] == list(expected.answers)
        for tid in expected.answers:
            assert result["probabilities"][str(tid)] == pytest.approx(
                expected.probabilities[tid], abs=1e-6
            )

    def test_healthz_and_tables(self):
        db = make_db()
        with loopback(db) as transport:
            client = ServeClient(transport)
            health = client.healthz()
            tables = client.tables()
        assert health["status"] == "ok"
        assert health["tables"] == 1
        assert "pending" in health["admission"]
        assert tables[0]["name"] == "served"
        assert tables[0]["tuples"] == 240

    def test_unknown_table_is_404(self):
        with loopback(make_db()) as transport:
            client = ServeClient(transport)
            with pytest.raises(ServeClientError) as excinfo:
                client.query("nope", k=2, threshold=0.5)
        assert excinfo.value.status == 404
        assert excinfo.value.body["error"] == "unknown-table"

    def test_malformed_body_is_400(self):
        with loopback(make_db()) as transport:
            status, _ = transport.request("POST", "/query", b"{not json")
            assert status == 400
            status, _ = transport.request(
                "POST", "/query", b'{"table": "served", "k": 0, "threshold": 0.5}'
            )
            assert status == 400

    def test_unknown_route_and_wrong_method(self):
        with loopback(make_db()) as transport:
            status, _ = transport.request("GET", "/nope")
            assert status == 404
            status, _ = transport.request("GET", "/query")
            assert status == 405

    def test_metrics_exposition_names_serve_metrics(self):
        db = make_db()
        with loopback(db) as transport:
            client = ServeClient(transport)
            client.query("served", k=3, threshold=0.4)
            text = client.metrics()
        assert "repro_serve_requests_total" in text
        assert 'endpoint="query"' in text
        assert "repro_serve_batch_size" in text

    def test_forced_sampled_mode_not_marked_degraded(self):
        db = make_db()
        with loopback(db) as transport:
            client = ServeClient(transport)
            result = client.query(
                "served", k=5, threshold=0.3,
                mode="sampled", sample_budget=400,
            )
        assert result["mode"] == "sampled"
        assert result["degraded"] is False
        assert result["units_drawn"] == 400
        for tid in result["answers"]:
            low, high = result["intervals"][str(tid)]
            assert 0.0 <= low <= high <= 1.0

    def test_expired_deadline_is_504(self):
        db = make_db()
        with loopback(db, window_ms=30.0) as transport:
            client = ServeClient(transport)
            # 0.01 ms expires long before the 30 ms coalescing window
            # closes, so the batch runner must refuse, not answer late.
            with pytest.raises(ServeClientError) as excinfo:
                client.query("served", k=3, threshold=0.4, deadline_ms=0.01)
        assert excinfo.value.status == 504
        assert excinfo.value.body["error"] == "deadline-exceeded"


class TestCoalescedBatchSinglePrepare:
    """Acceptance: N concurrent same-table requests -> exactly 1 prepare."""

    def test_one_prepare_for_a_concurrent_batch(self):
        db = make_db()
        n_clients = 6
        before = db.prepare_cache.stats()
        results = [None] * n_clients
        barrier = threading.Barrier(n_clients)

        with loopback(db, window_ms=100.0, max_batch=64) as transport:
            client = ServeClient(transport)

            def worker(index):
                barrier.wait()
                # Mixed k values: the prepare key ignores k, so they
                # must still share the one prepared ranking.
                results[index] = client.query(
                    "served", k=3 + index, threshold=0.3
                )

            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(n_clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)

        after = db.prepare_cache.stats()
        assert all(r is not None for r in results)
        assert {r["batch_size"] for r in results} == {n_clients}
        assert after.misses - before.misses == 1
        # Direct engine answers agree with the batch's.
        for index, result in enumerate(results):
            expected = db.ptk("served", k=3 + index, threshold=0.3)
            assert result["answers"] == list(expected.answers)

    def test_sequential_requests_reuse_warm_prepare(self):
        db = make_db()
        with loopback(db, window_ms=0.0) as transport:
            client = ServeClient(transport)
            client.query("served", k=4, threshold=0.3)
            after_first = db.prepare_cache.stats()
            client.query("served", k=9, threshold=0.5)
            after_second = db.prepare_cache.stats()
        assert after_second.misses == after_first.misses
        assert after_second.hits > after_first.hits


class TestDeadlineDegradation:
    """Acceptance: predicted-unmeetable deadline -> sampled + interval."""

    def slow_model(self):
        # 10 s per DP cell: the planner predicts hours for any exact
        # scan, so every deadlined auto request must degrade.
        return LatencyModel(seconds_per_cell=10.0)

    def test_auto_with_tight_deadline_degrades_to_sampled(self):
        db = make_db()
        with loopback(db, latency_model=self.slow_model()) as transport:
            client = ServeClient(transport)
            started = time.monotonic()
            result = client.query(
                "served", k=5, threshold=0.3, deadline_ms=400
            )
            elapsed = time.monotonic() - started
        assert result["mode"] == "sampled"
        assert result["degraded"] is True
        assert result["units_drawn"] >= 1
        assert result["answers"], "degraded answer should not be empty"
        for tid in result["answers"]:
            low, high = result["intervals"][str(tid)]
            assert 0.0 <= low <= high <= 1.0
            p = result["probabilities"][str(tid)]
            assert low - 1e-9 <= p <= high + 1e-9
        # The entire point: answered within the deadline's order of
        # magnitude instead of timing out.
        assert elapsed < 10.0

    def test_degradation_ignores_sample_budget(self):
        # sample_budget binds mode=sampled only: a degraded auto request
        # sizes its budget from the remaining deadline, floored at
        # min_sample_budget.
        db = make_db()
        with loopback(db, latency_model=self.slow_model()) as transport:
            client = ServeClient(transport)
            result = client.query(
                "served", k=5, threshold=0.3, deadline_ms=400,
                sample_budget=37,
            )
        assert result["mode"] == "sampled"
        assert result["degraded"] is True
        assert result["units_drawn"] >= ServeConfig().min_sample_budget

    def test_sampled_mode_keeps_sample_budget_under_deadline(self):
        db = make_db()
        with loopback(db, latency_model=self.slow_model()) as transport:
            client = ServeClient(transport)
            result = client.query(
                "served", k=5, threshold=0.3, deadline_ms=400,
                mode="sampled", sample_budget=37,
            )
        assert result["mode"] == "sampled"
        assert result["degraded"] is False
        assert result["units_drawn"] == 37

    def test_degraded_total_metric_increments(self):
        db = make_db()
        with loopback(db, latency_model=self.slow_model()) as transport:
            client = ServeClient(transport)
            client.query("served", k=5, threshold=0.3, deadline_ms=400)
            text = client.metrics()
        assert "repro_serve_degraded_total" in text
        for line in text.splitlines():
            if line.startswith("repro_serve_degraded_total"):
                assert float(line.split()[-1]) >= 1.0
                break
        else:  # pragma: no cover
            pytest.fail("repro_serve_degraded_total not exported")

    def test_forced_exact_ignores_deadline_prediction(self):
        db = make_db()
        with loopback(db, latency_model=self.slow_model()) as transport:
            client = ServeClient(transport)
            result = client.query(
                "served", k=5, threshold=0.3, mode="exact", deadline_ms=400
            )
        assert result["mode"] == "exact"
        assert result["degraded"] is False

    def test_no_deadline_stays_exact_despite_slow_model(self):
        db = make_db()
        with loopback(db, latency_model=self.slow_model()) as transport:
            client = ServeClient(transport)
            result = client.query("served", k=5, threshold=0.3)
        assert result["mode"] == "exact"

    def test_sampled_answer_quality_close_to_exact(self):
        db = make_db()
        # On its own database: a read on db would warm the served scan,
        # and a warm read is priced too cheap to degrade.
        exact = make_db().ptk("served", k=5, threshold=0.3)
        with loopback(db, latency_model=self.slow_model()) as transport:
            client = ServeClient(transport)
            result = client.query(
                "served", k=5, threshold=0.3, deadline_ms=2000
            )
        assert result["mode"] == "sampled"
        overlap = set(result["answers"]) & set(exact.answers)
        # Sampling is approximate; demand substantial, not perfect,
        # agreement on a well-separated answer set.
        assert len(overlap) >= len(exact.answers) // 2


class TestBackpressure:
    def test_second_request_rejected_when_queue_full(self):
        db = make_db()
        outcome = {}
        with loopback(
            db, window_ms=250.0, max_inflight=1, max_queue=0
        ) as transport:
            client = ServeClient(transport)

            def occupant():
                outcome["first"] = client.query("served", k=3, threshold=0.3)

            thread = threading.Thread(target=occupant)
            thread.start()
            deadline = time.monotonic() + 5.0
            rejected = None
            while time.monotonic() < deadline:
                # Wait until the first request holds the only slot,
                # then the next arrival must bounce with 429.
                try:
                    client.query("served", k=2, threshold=0.3)
                except RejectedError as error:
                    rejected = error
                    break
                time.sleep(0.01)
            thread.join(timeout=30)
        assert rejected is not None, "no request was rejected"
        assert rejected.retry_after > 0
        assert outcome["first"]["answers"]

    def test_rejection_metric_and_stats(self):
        admission = AdmissionController(max_inflight=1, max_queue=0)
        obs.enable(fresh=True)
        try:
            admission.admit()
            with pytest.raises(RejectedError):
                admission.admit()
            stats = admission.stats()
            assert stats["rejected_total"] == 1
            from repro.obs import export as obs_export

            assert "repro_serve_rejections_total" in obs_export.to_prometheus()
        finally:
            obs.disable()


class TestDropWhileServing:
    def test_drop_between_admit_and_dispatch_is_404(self):
        db = make_db()
        with loopback(db, window_ms=150.0) as transport:
            client = ServeClient(transport)
            error_holder = {}

            def worker():
                try:
                    client.query("served", k=3, threshold=0.3)
                except ServeClientError as error:
                    error_holder["error"] = error

            thread = threading.Thread(target=worker)
            thread.start()
            time.sleep(0.03)  # inside the coalescing window
            db.drop("served")
            thread.join(timeout=30)
        assert error_holder["error"].status == 404


# ----------------------------------------------------------------------
# Real TCP round-trip (one small test; everything else is loopback)
# ----------------------------------------------------------------------
class _TCPServer:
    """Hosts a ServeApp on a real socket for the round-trip test."""

    def __init__(self, app: ServeApp) -> None:
        self.app = app
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self._run, name="repro-serve-tcp-test", daemon=True
        )
        self.thread.start()
        self.server = asyncio.run_coroutine_threadsafe(
            serve(app), self.loop
        ).result(timeout=10)
        self.port = self.server.sockets[0].getsockname()[1]

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()

    def close(self) -> None:
        async def _stop():
            self.server.close()
            await self.server.wait_closed()

        asyncio.run_coroutine_threadsafe(_stop(), self.loop).result(timeout=10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()
        self.app.shutdown()


def test_tcp_round_trip():
    db = make_db()
    app = ServeApp(db, ServeConfig(port=0, window_ms=1.0))
    server = _TCPServer(app)
    try:
        client = ServeClient.connect("127.0.0.1", server.port, timeout=30)
        assert client.healthz()["status"] == "ok"
        result = client.query("served", k=4, threshold=0.3)
        assert result["mode"] == "exact"
        assert result["answers"] == list(db.ptk("served", k=4, threshold=0.3).answers)
        with pytest.raises(ServeClientError) as excinfo:
            client.query("missing", k=2, threshold=0.5)
        assert excinfo.value.status == 404
        assert "repro_serve_requests_total" in client.metrics()
    finally:
        server.close()


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestServeCLI:
    def test_parser_accepts_serve_arguments(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve", "tables/",
                "--port", "0",
                "--window-ms", "3",
                "--max-inflight", "2",
                "--deadline-ms", "250",
            ]
        )
        assert args.tables == "tables/"
        assert args.port == 0
        assert args.window_ms == 3.0
        assert args.max_inflight == 2
        assert args.deadline_ms == 250.0
        assert args.fn.__name__ == "_cmd_serve"

    def test_load_table_directory(self, tmp_path):
        from repro.cli import load_table_directory
        from repro.io.jsonio import write_table_json

        write_table_json(served_table(n=20, name="alpha"), tmp_path / "a.json")
        write_table_json(served_table(n=25, name="beta"), tmp_path / "b.json")
        db = load_table_directory(tmp_path)
        assert sorted(db.tables()) == ["alpha", "beta"]
        assert len(db.table("beta")) == 25

    def test_load_table_directory_disambiguates_name_collision(self, tmp_path):
        from repro.cli import load_table_directory
        from repro.io.jsonio import write_table_json

        write_table_json(served_table(n=10, name="dup"), tmp_path / "one.json")
        write_table_json(served_table(n=12, name="dup"), tmp_path / "two.json")
        db = load_table_directory(tmp_path)
        assert sorted(db.tables()) == ["dup", "two"]

    def test_load_table_directory_empty_is_error(self, tmp_path):
        from repro.cli import load_table_directory

        with pytest.raises(ReproError, match="no tables"):
            load_table_directory(tmp_path)


# ----------------------------------------------------------------------
# /debug introspection and flight artefacts
# ----------------------------------------------------------------------
class TestDebugEndpoints:
    def _get_json(self, transport, path):
        status, payload = transport.request("GET", path)
        assert status == 200
        return json.loads(payload.decode("utf-8"))

    def test_debug_queries_shows_served_profiles(self):
        db = make_db()
        with loopback(db) as transport:
            client = ServeClient(transport)
            client.query("served", k=5, threshold=0.3)
            client.query("served", k=3, threshold=0.4)
            body = self._get_json(transport, "/debug/queries")
        assert body["flight"]["enabled"] is True
        assert body["flight"]["recorded"] >= 2
        profiles = body["profiles"]
        assert len(profiles) >= 2
        newest = profiles[0]
        assert newest["kind"] == "served"
        assert newest["served"] is True
        assert newest["table"] == "served"
        assert newest["outcome"] == "ok"
        assert newest["mode"] in ("exact", "sampled")
        assert newest["actual_seconds"] > 0.0
        assert newest["estimated_seconds"] > 0.0
        assert newest["prepare_hit"] in (True, False)

    def test_debug_slow_and_log_file(self, tmp_path):
        db = make_db()
        overrides = dict(slow_ms=0.0, flight_dir=str(tmp_path))
        with loopback(db, **overrides) as transport:
            client = ServeClient(transport)
            for k in (2, 3, 4):
                client.query("served", k=k, threshold=0.35)
            body = self._get_json(transport, "/debug/slow")
        assert body["slow_threshold_ms"] == 0.0
        assert body["slow_log_path"].endswith("slow.jsonl")
        assert len(body["profiles"]) >= 3
        assert all(p["slow"] for p in body["profiles"])

        from repro.obs.flight import read_jsonl

        obs.OBS.flight.close()
        scan = read_jsonl(tmp_path / "slow.jsonl")
        assert scan.problem is None
        assert len(scan.records) >= 3
        assert scan.records[0]["kind"] == "served"

    def test_debug_calibration_reports_residuals(self):
        db = make_db()
        with loopback(db) as transport:
            client = ServeClient(transport)
            for k in range(2, 8):
                client.query("served", k=k, threshold=0.35)
            body = self._get_json(transport, "/debug/calibration")
        assert body["calibrated"] >= 6
        exact = body["engines"]["exact"]
        assert exact["count"] >= 6
        for key in (
            "mean_relative_error",
            "median_relative_error",
            "mean_abs_relative_error",
        ):
            assert isinstance(exact[key], float)
        model = body["latency_model"]
        assert set(model) == {
            "seconds_per_cell",
            "seconds_per_sampled_tuple",
            "floor_seconds",
            "alpha",
        }

    def test_debug_views_counted_in_metrics(self):
        db = make_db()
        with loopback(db) as transport:
            # The registry is process-global: count deltas, not totals.
            before = obs.OBS.registry.get("repro_serve_debug_requests_total")
            queries_0 = before.value(view="queries") if before else 0.0
            calibration_0 = before.value(view="calibration") if before else 0.0
            self._get_json(transport, "/debug/queries")
            self._get_json(transport, "/debug/calibration")
            counter = obs.OBS.registry.get("repro_serve_debug_requests_total")
            assert counter is not None
            assert counter.value(view="queries") == queries_0 + 1.0
            assert counter.value(view="calibration") == calibration_0 + 1.0

    def test_flusher_writes_metrics_and_spans(self, tmp_path):
        db = make_db()
        overrides = dict(
            flight_dir=str(tmp_path), metrics_flush_s=0.05, slow_ms=0.0
        )
        with loopback(db, **overrides) as transport:
            client = ServeClient(transport)
            client.query("served", k=4, threshold=0.35)
            deadline = time.monotonic() + 5.0
            metrics_path = tmp_path / "metrics.json"
            spans_path = tmp_path / "spans.jsonl"
            while time.monotonic() < deadline:
                if metrics_path.exists() and spans_path.exists():
                    try:
                        snapshot = json.loads(metrics_path.read_text())
                    except json.JSONDecodeError:
                        snapshot = None
                    if snapshot and (
                        "repro_serve_requests_total" in snapshot["metrics"]
                    ):
                        break
                time.sleep(0.02)
            else:
                pytest.fail("flusher artefacts never appeared")

        from repro.obs.flight import read_jsonl

        scan = read_jsonl(spans_path)
        assert scan.problem is None
        assert len(scan.records) >= 1
        assert any(
            record["name"].startswith("serve.") or record["name"].startswith("query.")
            for record in scan.records
        )


class TestMetricsHeader:
    """Satellite: /metrics declares whether observability is live."""

    def _metrics_headers(self, app):
        status, headers, _body = asyncio.run(app.dispatch("GET", "/metrics"))
        assert status == 200
        return dict(headers)

    def test_header_true_when_obs_enabled(self):
        app = ServeApp(make_db(), ServeConfig(enable_obs=True))
        headers = self._metrics_headers(app)
        assert headers["X-Repro-Obs-Enabled"] == "true"
        assert headers["Content-Type"].startswith("text/plain")

    def test_header_false_when_obs_disabled(self):
        app = ServeApp(make_db(), ServeConfig(enable_obs=False))
        obs.disable()
        headers = self._metrics_headers(app)
        assert headers["X-Repro-Obs-Enabled"] == "false"
