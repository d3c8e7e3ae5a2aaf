"""Tests for cost-based batch scheduling and resumable exact scans.

Three layers:

* the scheduler policies themselves (ordering, pre-execution decisions,
  budgets);
* the core resumable-scan machinery (``deadline_seconds`` budgets,
  :class:`~repro.core.exact.ScanCheckpoint`, bit-exact resume parity,
  delta-safe metric publishing);
* the serving layer end to end (mixed-deadline batches under FIFO vs
  cost, pre-execution degradation, deadline-expired accounting,
  per-item latency-model calibration, checkpoint store hygiene).
"""

from __future__ import annotations

import random
import time

import pytest

from repro import obs
from repro.core import kernel
from repro.core.exact import ExactPTKEngine, ScanCheckpoint, exact_ptk_query
from repro.exceptions import QueryError
from repro.obs import OBS, catalogued
from repro.query.engine import UncertainDB
from repro.query.planner import LatencyModel
from repro.query.topk import TopKQuery
from repro.serve import (
    AdmissionController,
    CostScheduler,
    ExactTask,
    FifoScheduler,
    LoopbackTransport,
    ServeApp,
    ServeClient,
    ServeConfig,
    make_scheduler,
)
from repro.serve.protocol import DeadlineExceededError, QueryRequest, QueryResponse
from repro.serve.server import _Work
from repro.serve import server as server_module
from repro.query.planner import LatencyEstimate

from tests.conftest import build_table


@pytest.fixture(autouse=True)
def _obs_off_after():
    """ServeApp enables observability; restore the quiet default."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()
    obs.OBS.flight.disable()
    obs.OBS.flight.unconfigure()
    obs.OBS.flight.reset()


def scan_table(n: int = 400, name: str = "served"):
    """A rule-bearing table big enough for multi-millisecond scans."""
    rng = random.Random(11)
    probabilities = [round(0.2 + 0.7 * rng.random(), 3) for _ in range(n)]
    rule_groups = []
    for g in range(min(6, n // 2)):
        i, j = 2 * g, 2 * g + 1
        probabilities[i], probabilities[j] = 0.45, 0.4
        rule_groups.append([i, j])
    return build_table(probabilities, rule_groups, name=name)


def make_db(n: int = 400, name: str = "served") -> UncertainDB:
    db = UncertainDB()
    db.register(scan_table(n=n, name=name))
    return db


def _estimate(seconds: float, depth: int = 10) -> LatencyEstimate:
    return LatencyEstimate(
        depth=depth,
        exact_seconds=seconds,
        sampled_seconds_per_unit=1e-6,
        expected_unit_length=10.0,
    )


def _work(request: QueryRequest, deadline=None) -> _Work:
    now = time.monotonic()
    return _Work(request=request, deadline=deadline, arrived=now)


class PinnedModel(LatencyModel):
    """Constant exact-latency prediction, immune to calibration."""

    def __init__(self, exact_seconds: float) -> None:
        super().__init__()
        self._exact = exact_seconds

    def predict_exact_seconds(self, depth: int) -> float:
        return self._exact

    def observe_exact(self, depth: int, seconds: float) -> None:
        pass


class RecordingModel(LatencyModel):
    """Captures every exact calibration observation."""

    def __init__(self) -> None:
        super().__init__()
        self.exact_observations = []

    def observe_exact(self, depth: int, seconds: float) -> None:
        self.exact_observations.append((depth, seconds))
        super().observe_exact(depth, seconds)


# ----------------------------------------------------------------------
# Scheduler policies
# ----------------------------------------------------------------------
class TestSchedulerPolicies:
    def test_cost_orders_cheapest_first(self):
        tasks = [
            ExactTask(0, _estimate(0.5)),
            ExactTask(1, _estimate(0.01)),
            ExactTask(2, _estimate(0.1)),
        ]
        ordered = CostScheduler().order(tasks)
        assert [t.position for t in ordered] == [1, 2, 0]

    def test_cost_breaks_ties_by_arrival(self):
        tasks = [ExactTask(i, _estimate(0.2)) for i in range(4)]
        ordered = CostScheduler().order(tasks)
        assert [t.position for t in ordered] == [0, 1, 2, 3]

    def test_fifo_preserves_arrival_order(self):
        tasks = [
            ExactTask(0, _estimate(0.5)),
            ExactTask(1, _estimate(0.01)),
        ]
        ordered = FifoScheduler().order(tasks)
        assert [t.position for t in ordered] == [0, 1]

    def test_cost_decisions(self):
        scheduler = CostScheduler()
        assert scheduler.decide(None, 99.0, 0.5) == "run"
        assert scheduler.decide(-0.001, 0.001, 0.5) == "expired"
        assert scheduler.decide(0.0, 0.001, 0.5) == "expired"
        # estimate 30ms does not fit half of the 40ms left
        assert scheduler.decide(0.040, 0.030, 0.5) == "degrade"
        assert scheduler.decide(0.100, 0.030, 0.5) == "run"

    def test_forced_exact_never_degrades(self):
        scheduler = CostScheduler()
        assert scheduler.decide(0.040, 0.030, 0.5, can_degrade=False) == "run"
        # ... but an already-expired deadline still fails fast
        assert (
            scheduler.decide(-1.0, 0.030, 0.5, can_degrade=False) == "expired"
        )

    def test_fifo_is_deadline_blind(self):
        scheduler = FifoScheduler()
        assert scheduler.decide(-5.0, 99.0, 0.5) == "run"
        assert scheduler.budget(0.040, 0.5) is None

    def test_cost_budget_is_safety_fraction(self):
        scheduler = CostScheduler()
        assert scheduler.budget(None, 0.5) is None
        assert scheduler.budget(0.2, 0.5) == pytest.approx(0.1)

    def test_make_scheduler(self):
        assert make_scheduler("fifo").name == "fifo"
        assert make_scheduler("cost").name == "cost"
        with pytest.raises(ValueError, match="unknown scheduler"):
            make_scheduler("priority")


# ----------------------------------------------------------------------
# Resumable exact scans (core)
# ----------------------------------------------------------------------
class TestResumableScan:
    @pytest.fixture(autouse=True)
    def _slow_evaluations(self, monkeypatch):
        """Every evaluated tuple takes at least 0.3 ms, so the 1-2 ms
        budgets below cut the k=50 scan mid-way whatever the machine's
        speed."""
        real = ExactPTKEngine._evaluate

        def slowed(self, tup):
            time.sleep(0.0003)
            return real(self, tup)

        monkeypatch.setattr(ExactPTKEngine, "_evaluate", slowed)

    def _oracle(self, table, k=50, threshold=0.3):
        return exact_ptk_query(table, TopKQuery(k=k), threshold)

    def test_zero_budget_checkpoints_immediately(self):
        table = scan_table()
        answer = exact_ptk_query(
            table, TopKQuery(k=50), 0.3, deadline_seconds=0.0
        )
        assert answer.partial
        assert answer.stats.stopped_by == "deadline"
        assert answer.stats.scan_depth == 0
        assert answer.answers == []
        assert answer.checkpoint is not None
        assert answer.checkpoint.depth == 0

    def test_resume_completes_bit_exact(self):
        table = scan_table()
        oracle = self._oracle(table)
        partial = exact_ptk_query(
            table, TopKQuery(k=50), 0.3, deadline_seconds=0.002
        )
        assert partial.partial
        resumed = exact_ptk_query(
            table, TopKQuery(k=50), 0.3, resume=partial.checkpoint
        )
        assert resumed.checkpoint is None
        assert not resumed.partial
        assert resumed.answers == oracle.answers
        assert resumed.probabilities == oracle.probabilities  # bit-exact
        assert resumed.stats.scan_depth == oracle.stats.scan_depth
        assert resumed.stats.stopped_by == oracle.stats.stopped_by
        assert resumed.stats.tuples_evaluated == oracle.stats.tuples_evaluated
        assert resumed.stats.subset_extensions == oracle.stats.subset_extensions

    def test_many_tiny_segments_bit_exact(self):
        table = scan_table()
        oracle = self._oracle(table)
        answer = exact_ptk_query(
            table, TopKQuery(k=50), 0.3, deadline_seconds=0.001
        )
        segments = 1
        while answer.partial:
            segments += 1
            assert segments < 10_000  # safety rail
            answer = answer.checkpoint.resume(deadline_seconds=0.001)
        assert segments > 1  # the budget really did interrupt the scan
        assert answer.answers == oracle.answers
        assert answer.probabilities == oracle.probabilities
        assert answer.stats.stopped_by == oracle.stats.stopped_by
        assert answer.stats.scan_depth == oracle.stats.scan_depth

    def test_checkpoint_is_single_use(self):
        table = scan_table()
        partial = exact_ptk_query(
            table, TopKQuery(k=50), 0.3, deadline_seconds=0.0
        )
        checkpoint = partial.checkpoint
        checkpoint.resume()
        with pytest.raises(QueryError, match="already resumed"):
            checkpoint.resume()

    def test_resume_rejects_mismatched_query(self):
        table = scan_table()
        partial = exact_ptk_query(
            table, TopKQuery(k=50), 0.3, deadline_seconds=0.0
        )
        with pytest.raises(QueryError, match="cannot resume"):
            exact_ptk_query(
                table, TopKQuery(k=5), 0.3, resume=partial.checkpoint
            )

    def test_checkpoint_describe_exposes_pruning_state(self):
        table = scan_table()
        partial = exact_ptk_query(
            table, TopKQuery(k=50), 0.3, deadline_seconds=0.002
        )
        info = partial.checkpoint.describe()
        assert info["depth"] == partial.stats.scan_depth
        assert info["k"] == 50
        assert info["variant"] == "RC+LR"
        pruning = info["pruning"]
        assert pruning["k"] == 50
        assert pruning["threshold"] == 0.3
        assert pruning["probability_mass"] >= 0.0
        assert "max_failed_independent" in pruning

    def test_unbudgeted_run_has_no_checkpoint(self):
        table = scan_table()
        answer = self._oracle(table)
        assert answer.checkpoint is None
        assert not answer.partial

    def test_segmented_metrics_match_uninterrupted_run(self):
        """Resumed segments publish deltas: totals equal one clean run."""
        table = scan_table()
        names = (
            "repro_ptk_tuples_scanned_total",
            "repro_ptk_tuples_evaluated_total",
            "repro_ptk_dp_extensions_total",
            "repro_ptk_queries_total",
        )
        with obs.enabled_scope(fresh=True):
            answer = exact_ptk_query(
                table, TopKQuery(k=50), 0.3, deadline_seconds=0.001
            )
            while answer.partial:
                answer = answer.checkpoint.resume(deadline_seconds=0.001)
            segmented = {
                "repro_ptk_tuples_scanned_total": catalogued(
                    "repro_ptk_tuples_scanned_total"
                ).value(),
                "repro_ptk_tuples_evaluated_total": catalogued(
                    "repro_ptk_tuples_evaluated_total"
                ).value(),
                "repro_ptk_dp_extensions_total": catalogued(
                    "repro_ptk_dp_extensions_total"
                ).value(),
                "repro_ptk_queries_total": catalogued(
                    "repro_ptk_queries_total"
                ).value(method="RC+LR"),
                "stops": catalogued("repro_ptk_scan_stops_total").value(
                    reason=answer.stats.stopped_by
                ),
            }
        with obs.enabled_scope(fresh=True):
            clean = exact_ptk_query(table, TopKQuery(k=50), 0.3)
            baseline = {
                "repro_ptk_tuples_scanned_total": catalogued(
                    "repro_ptk_tuples_scanned_total"
                ).value(),
                "repro_ptk_tuples_evaluated_total": catalogued(
                    "repro_ptk_tuples_evaluated_total"
                ).value(),
                "repro_ptk_dp_extensions_total": catalogued(
                    "repro_ptk_dp_extensions_total"
                ).value(),
                "repro_ptk_queries_total": catalogued(
                    "repro_ptk_queries_total"
                ).value(method="RC+LR"),
                "stops": catalogued("repro_ptk_scan_stops_total").value(
                    reason=clean.stats.stopped_by
                ),
            }
        assert segmented == baseline
        assert segmented["stops"] == 1.0


# ----------------------------------------------------------------------
# Planner resume pricing
# ----------------------------------------------------------------------
class TestResumePricing:
    def test_resume_costs_difference_of_squares(self):
        model = LatencyModel(seconds_per_cell=1e-6, floor_seconds=0.0)
        full = model.predict_exact_seconds(100)
        resumed = model.predict_resume_seconds(60, 100)
        assert resumed == pytest.approx(1e-6 * (100**2 - 60**2))
        assert resumed < full

    def test_resume_cost_never_negative(self):
        model = LatencyModel(seconds_per_cell=1e-6, floor_seconds=1e-4)
        assert model.predict_resume_seconds(200, 100) == pytest.approx(1e-4)


# ----------------------------------------------------------------------
# Admission EWMA weighting (satellite)
# ----------------------------------------------------------------------
class TestAdmissionServiceEwma:
    def test_batch_update_compounds_per_request_weight(self):
        controller = AdmissionController()
        prior = controller.stats()["mean_service_ms"] / 1000.0
        controller.observe_service(16 * 0.01, requests=16)
        expected = prior + (1.0 - 0.8**16) * (0.01 - prior)
        assert controller.stats()["mean_service_ms"] == pytest.approx(
            expected * 1000.0, abs=2e-3  # stats() rounds to 3 decimals
        )

    def test_batch_equals_equivalent_sequential_singles(self):
        batched = AdmissionController()
        sequential = AdmissionController()
        batched.observe_service(8 * 0.02, requests=8)
        for _ in range(8):
            sequential.observe_service(0.02, requests=1)
        assert batched.stats()["mean_service_ms"] == pytest.approx(
            sequential.stats()["mean_service_ms"], abs=2e-3
        )

    def test_sixteen_request_batch_converges_faster_than_one(self):
        small = AdmissionController()
        large = AdmissionController()
        small.observe_service(0.01, requests=1)
        large.observe_service(16 * 0.01, requests=16)
        # Both move toward 10ms from the 50ms prior; the 16-request
        # batch must move much further (the old code moved them equally).
        assert (
            large.stats()["mean_service_ms"]
            < small.stats()["mean_service_ms"]
        )


# ----------------------------------------------------------------------
# Serving layer: scheduling end to end
# ----------------------------------------------------------------------
def serve_app(db, **overrides) -> ServeApp:
    defaults = dict(
        window_ms=5.0, max_inflight=2, max_queue=16,
        enable_obs=True, enable_flight=True,
    )
    defaults.update(overrides)
    latency_model = defaults.pop("latency_model", None)
    return ServeApp(db, ServeConfig(**defaults), latency_model=latency_model)


def exact_profiles():
    return [
        p for p in OBS.flight.recent(limit=200)
        if p.get("mode") == "exact"
    ]


def slow_exact(monkeypatch, seconds: float, k=None):
    """Make served exact queries (only those at ``k``, if given) take at
    least ``seconds`` longer, whatever the kernel's speed."""
    real = server_module.exact_ptk_query

    def slowed(table, query, *args, **kwargs):
        if k is None or query.k == k:
            time.sleep(seconds)
        return real(table, query, *args, **kwargs)

    monkeypatch.setattr(server_module, "exact_ptk_query", slowed)


def slow_scan_chunks(monkeypatch, seconds: float):
    """Make every chunk a columnar read prices take ``seconds`` longer,
    so a budgeted read is cut mid-scan whatever the kernel's speed."""
    real = kernel.TopKScanState.advance

    def slowed(self, stop):
        time.sleep(seconds)
        real(self, stop)

    monkeypatch.setattr(kernel.TopKScanState, "advance", slowed)


class TestMixedDeadlineBatches:
    """One expensive exact query ahead of cheap tight-deadline ones."""

    def _items(self, heavy_k=300, cheap_deadline=0.06):
        now = time.monotonic()
        items = [
            _work(
                QueryRequest(table="served", k=heavy_k, threshold=0.3),
                deadline=None,
            )
        ]
        for _ in range(3):
            items.append(
                _work(
                    QueryRequest(table="served", k=5, threshold=0.3),
                    deadline=now + cheap_deadline,
                )
            )
        return items

    def test_cost_scheduler_runs_no_exact_scan_past_deadline(self):
        db = make_db(n=1000)
        app = serve_app(db, scheduler="cost")
        try:
            results = app._run_batch("served", self._items())
        finally:
            app.shutdown()
        # Every cheap item answered exactly, within its deadline.
        for response in results[1:]:
            assert isinstance(response, QueryResponse)
            assert response.mode == "exact"
            assert not response.partial
        assert isinstance(results[0], QueryResponse)
        # Flight profiles prove no exact execution started after (or ran
        # past) its deadline.
        deadline_profiles = [
            p for p in exact_profiles()
            if p.get("deadline_remaining_ms") is not None
        ]
        assert len(deadline_profiles) == 3
        for profile in deadline_profiles:
            assert profile["deadline_remaining_ms"] > 0
            assert (
                profile["actual_seconds"] * 1000.0
                <= profile["deadline_remaining_ms"]
            )
            assert profile["scheduler"]["policy"] == "cost"
            assert profile["scheduler"]["decision"] == "run"
        # Cheap items were reordered ahead of the expensive scan.
        positions = [
            p["scheduler"]["queue_position"] for p in deadline_profiles
        ]
        assert max(positions) <= 2

    def test_fifo_scheduler_executes_exact_scans_past_deadline(self, monkeypatch):
        """The pre-scheduler failure mode, pinned as the FIFO baseline."""
        # The head-of-line k=300 scan outlasts the cheap items' 60 ms
        # deadlines by construction, not by the kernel's speed.
        slow_exact(monkeypatch, 0.1, k=300)
        db = make_db(n=1000)
        app = serve_app(db, scheduler="fifo")
        try:
            results = app._run_batch("served", self._items())
        finally:
            app.shutdown()
        for response in results:
            assert isinstance(response, QueryResponse)
        post_deadline = [
            p for p in exact_profiles()
            if p.get("deadline_remaining_ms") is not None
            and p["deadline_remaining_ms"] < 0
        ]
        # The expensive head-of-line scan burned the cheap items'
        # deadlines, yet FIFO executed their exact scans anyway.
        assert post_deadline, (
            "expected FIFO to execute exact scans past their deadline"
        )
        assert all(
            p["scheduler"]["policy"] == "fifo" for p in post_deadline
        )


class TestPreExecutionDecisions:
    def test_preexec_expiry_fails_fast(self, monkeypatch):
        slow_exact(monkeypatch, 0.08)
        db = make_db(n=60)
        app = serve_app(db, latency_model=PinnedModel(0.02))
        now = time.monotonic()
        items = [
            _work(QueryRequest(table="served", k=5, threshold=0.3)),
            _work(
                QueryRequest(table="served", k=5, threshold=0.3),
                deadline=now + 0.05,
            ),
        ]
        try:
            results = app._run_batch("served", items)
        finally:
            app.shutdown()
        assert isinstance(results[0], QueryResponse)
        assert isinstance(results[1], DeadlineExceededError)
        assert "pre-exec" in str(results[1])
        assert (
            catalogued("repro_serve_deadline_expired_total").value(
                stage="pre-exec"
            )
            == 1.0
        )

    def test_preexec_degradation_to_sampler(self, monkeypatch):
        slow_exact(monkeypatch, 0.09)
        db = make_db(n=60)
        app = serve_app(db, latency_model=PinnedModel(0.02))
        now = time.monotonic()
        items = [
            _work(QueryRequest(table="served", k=5, threshold=0.3)),
            _work(
                QueryRequest(table="served", k=5, threshold=0.3),
                deadline=now + 0.12,
            ),
        ]
        try:
            results = app._run_batch("served", items)
        finally:
            app.shutdown()
        assert isinstance(results[0], QueryResponse)
        assert results[0].mode == "exact"
        degraded = results[1]
        assert isinstance(degraded, QueryResponse)
        assert degraded.mode == "sampled"
        assert degraded.degraded is True
        assert degraded.scheduler["decision"] == "degrade"
        assert (
            catalogued("repro_serve_degraded_preexec_total").value() == 1.0
        )
        # Pre-execution degradations also count in the plan-level total.
        assert catalogued("repro_serve_degraded_total").value() >= 1.0

    def test_dispatch_expiry_counted(self):
        db = make_db(n=60)
        app = serve_app(db)
        items = [
            _work(
                QueryRequest(table="served", k=5, threshold=0.3),
                deadline=time.monotonic() - 0.01,
            ),
        ]
        try:
            results = app._run_batch("served", items)
        finally:
            app.shutdown()
        assert isinstance(results[0], DeadlineExceededError)
        assert (
            catalogued("repro_serve_deadline_expired_total").value(
                stage="dispatch"
            )
            == 1.0
        )
        profiles = OBS.flight.recent(limit=10)
        assert profiles[0]["outcome"] == "deadline-expired"


class TestPerItemCalibration:
    def test_each_exact_item_observed_with_its_own_depth(self):
        db = make_db(n=400)
        model = RecordingModel()
        app = serve_app(db, latency_model=model)
        items = [
            _work(QueryRequest(table="served", k=2, threshold=0.3)),
            _work(QueryRequest(table="served", k=40, threshold=0.3)),
        ]
        try:
            app._run_batch("served", items)
        finally:
            app.shutdown()
        assert len(model.exact_observations) == 2
        depths = sorted(depth for depth, _ in model.exact_observations)
        # Distinct per-item depths: the old code observed once with the
        # batch max depth and the batch *mean* latency.
        assert depths[0] < depths[1]
        for depth, seconds in model.exact_observations:
            assert depth >= 1
            assert seconds > 0.0


class TestServedColumnarReads:
    def test_each_read_observes_the_rows_it_priced(self):
        db = make_db(n=400)
        model = RecordingModel()
        app = serve_app(db, latency_model=model)
        request = QueryRequest(table="served", k=20, threshold=0.3)
        try:
            first = app._run_batch("served", [_work(request)])[0]
            again = app._run_batch("served", [_work(request)])[0]
        finally:
            app.shutdown()
        assert again.answers == first.answers
        profiles = exact_profiles()
        assert [p["variant"] for p in profiles] == ["columnar", "columnar"]
        priced = profiles[0]["tuples_evaluated"]
        assert priced > 0 and priced % kernel.ANSWER_CHUNK == 0
        assert priced >= profiles[0]["scan_depth"]
        assert [depth for depth, _ in model.exact_observations] == [
            priced, priced,
        ]

    def test_served_preparation_pickles(self):
        import dataclasses
        import pickle

        db = make_db(n=200)
        app = serve_app(db)
        try:
            app._run_batch(
                "served",
                [_work(QueryRequest(table="served", k=10, threshold=0.3))],
            )
        finally:
            app.shutdown()
        table = db.table("served")
        prepared = db.prepare_cache.get(table, TopKQuery(k=10))
        # The served ranking function is a closure; ship the preparation
        # the way the process pool does (predicate and ranking dropped).
        shipped = dataclasses.replace(prepared, predicate=None, ranking=None)
        clone = pickle.loads(pickle.dumps(shipped))
        assert clone.ranked == prepared.ranked
        assert clone.source_version == prepared.source_version


class TestServeResume:
    def test_partial_then_resumed_roundtrip(self, monkeypatch):
        db = make_db(n=1000)
        oracle = db.ptk("served", k=300, threshold=0.3)
        # 20 ms per priced chunk: the first read's 30 ms budget (half
        # its 60 ms deadline) cuts it after a chunk or two.
        slow_scan_chunks(monkeypatch, 0.02)
        app = serve_app(db)
        with LoopbackTransport(app) as transport:
            client = ServeClient(transport)
            first = client.query(
                "served", k=300, threshold=0.3, mode="exact", deadline_ms=60
            )
            assert first["mode"] == "exact"
            assert first.get("partial") is True
            assert first["scheduler"]["decision"] == "run"
            depth = first["scheduler"]["checkpoint_depth"]
            assert depth > 0
            assert app.checkpoint_stats()["parked"] == 1
            second = client.query(
                "served", k=300, threshold=0.3, mode="exact",
                deadline_ms=10_000,
            )
            assert second.get("partial") is None
            assert second["scheduler"]["resumed_from_depth"] == depth
            assert second["answers"] == list(oracle.answers)
            metrics = client.metrics()
        assert app.checkpoint_stats()["parked"] == 0
        for line in metrics.splitlines():
            if line.startswith("repro_serve_resumed_scans_total"):
                assert float(line.split()[-1]) >= 1.0
                break
        else:  # pragma: no cover
            pytest.fail("repro_serve_resumed_scans_total not exported")

    def test_healthz_reports_scheduler_and_checkpoints(self):
        db = make_db(n=60)
        app = serve_app(db)
        with LoopbackTransport(app) as transport:
            client = ServeClient(transport)
            health = client.healthz()
        assert health["scheduler"] == "cost"
        assert health["checkpoints"] == {"parked": 0, "capacity": 64}

    def test_checkpoint_store_is_bounded(self):
        db = make_db(n=60)
        app = serve_app(db, max_checkpoints=4)
        try:
            for i in range(9):
                app._store_checkpoint(
                    ("served", 1, i, 0.3),
                    ScanCheckpoint(engine=object(), depth=i, k=i, threshold=0.3),
                )
            assert app.checkpoint_stats()["parked"] == 4
            # Oldest evicted first; newest still claimable exactly once.
            assert app._take_checkpoint(("served", 1, 0, 0.3)) is None
            taken = app._take_checkpoint(("served", 1, 8, 0.3))
            assert taken is not None and taken.depth == 8
            assert app._take_checkpoint(("served", 1, 8, 0.3)) is None
        finally:
            app.shutdown()


class TestSchedulerProtocolFields:
    def test_scheduler_block_on_ordinary_exact_response(self):
        db = make_db(n=60)
        app = serve_app(db)
        with LoopbackTransport(app) as transport:
            client = ServeClient(transport)
            result = client.query("served", k=5, threshold=0.3)
        assert result["scheduler"]["policy"] == "cost"
        assert result["scheduler"]["queue_position"] == 0
        assert result["scheduler"]["decision"] == "run"
        assert result["scheduler"]["estimated_seconds"] > 0
        assert "partial" not in result

    def test_to_dict_omits_unset_scheduler_fields(self):
        response = QueryResponse(
            table="t", k=2, threshold=0.5, mode="exact"
        )
        body = response.to_dict()
        assert "partial" not in body
        assert "scheduler" not in body

    def test_to_dict_includes_partial_and_scheduler_when_set(self):
        response = QueryResponse(
            table="t", k=2, threshold=0.5, mode="exact",
            partial=True, scheduler={"policy": "cost", "decision": "run"},
        )
        body = response.to_dict()
        assert body["partial"] is True
        assert body["scheduler"] == {"policy": "cost", "decision": "run"}
