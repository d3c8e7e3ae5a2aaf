"""Tests for cost-based batch scheduling and resumable exact scans.

Three layers:

* the scheduler policies themselves (ordering, pre-execution decisions,
  budgets);
* deadline-cut columnar reads (``deadline_seconds`` budgets, retries
  that continue the preparation's warm scan bit-exactly, the rows each
  segment bills and publishes);
* the serving layer end to end (mixed-deadline batches, pre-execution
  degradation, deadline-expired accounting, one served record per
  item, per-item latency-model calibration, retries of cut reads).
"""

from __future__ import annotations

import random
import time

import pytest

from repro import obs
from repro.core import kernel
from repro.core.exact import exact_ptk_query
from repro.exceptions import QueryError
from repro.obs import OBS, catalogued
from repro.query.engine import UncertainDB
from repro.query.planner import LatencyModel
from repro.query.prepare import prepare_ranking
from repro.query.topk import TopKQuery
from repro.serve import (
    AdmissionController,
    CostScheduler,
    ExactTask,
    LoopbackTransport,
    ServeApp,
    ServeClient,
    ServeConfig,
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
    """Constant exact-latency prediction, immune to calibration: a
    read's warm rows do not lower it."""

    def __init__(self, exact_seconds: float) -> None:
        super().__init__()
        self._exact = exact_seconds

    def predict_exact_seconds(self, depth: int) -> float:
        return self._exact

    def predict_resume_seconds(self, done_depth: int, target_depth: int) -> float:
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

    def test_cost_budget_is_safety_fraction(self):
        scheduler = CostScheduler()
        assert scheduler.budget(None, 0.5) is None
        assert scheduler.budget(0.2, 0.5) == pytest.approx(0.1)


# ----------------------------------------------------------------------
# Resumable exact scans (core)
# ----------------------------------------------------------------------
def read(table, prepared, **kwargs):
    """The served exact read: columnar, on ``prepared``'s warm scan."""
    return exact_ptk_query(
        table, TopKQuery(k=150), 0.3, prepared=prepared, columnar=True,
        **kwargs,
    )


class TestResumableScan:
    """A deadline-cut read leaves the rows it priced in the preparation's
    warm scan; re-issuing the same read continues from them."""

    @pytest.fixture(autouse=True)
    def _slow_chunks(self, monkeypatch):
        """Every priced chunk takes at least 2 ms, so the 1-3 ms budgets
        below cut the k=150 read mid-way whatever the machine's speed."""
        slow_scan_chunks(monkeypatch, 0.002)

    @pytest.fixture
    def table(self):
        return scan_table(n=1000)

    def _oracle(self, table):
        """The uncut read, on a preparation no other read has warmed."""
        return read(table, prepare_ranking(table, TopKQuery(k=150)))

    def test_zero_budget_cuts_before_the_first_chunk(self, table):
        answer = read(
            table, prepare_ranking(table, TopKQuery(k=150)),
            deadline_seconds=0.0,
        )
        assert answer.partial
        assert answer.stats.stopped_by == "deadline"
        assert answer.stats.scan_depth == 0
        assert answer.stats.tuples_evaluated == 0
        assert answer.answers == []

    def test_resume_completes_bit_exact(self, table):
        oracle = self._oracle(table)
        assert oracle.stats.scan_depth > kernel.ANSWER_CHUNK
        prepared = prepare_ranking(table, TopKQuery(k=150))
        partial = read(table, prepared, deadline_seconds=0.003)
        assert partial.partial
        assert partial.stats.tuples_evaluated < oracle.stats.tuples_evaluated
        resumed = read(table, prepared)
        assert not resumed.partial
        assert resumed.answers == oracle.answers
        assert resumed.probabilities == oracle.probabilities  # bit-exact
        assert resumed.stats.scan_depth == oracle.stats.scan_depth
        assert resumed.stats.stopped_by == oracle.stats.stopped_by
        # The retry bills only the rows the cut read left.
        assert (
            partial.stats.tuples_evaluated + resumed.stats.tuples_evaluated
            == oracle.stats.tuples_evaluated
        )
        assert (
            partial.stats.subset_extensions + resumed.stats.subset_extensions
            == oracle.stats.subset_extensions
        )

    def test_many_tiny_segments_bit_exact(self, table):
        oracle = self._oracle(table)
        prepared = prepare_ranking(table, TopKQuery(k=150))
        answer = read(table, prepared, deadline_seconds=0.001)
        segments, rows = 1, answer.stats.tuples_evaluated
        while answer.partial:
            segments += 1
            assert segments < 10_000  # safety rail
            answer = read(table, prepared, deadline_seconds=0.001)
            rows += answer.stats.tuples_evaluated
        assert segments > 1  # the budget really did interrupt the scan
        assert answer.answers == oracle.answers
        assert answer.probabilities == oracle.probabilities
        assert answer.stats.stopped_by == oracle.stats.stopped_by
        assert answer.stats.scan_depth == oracle.stats.scan_depth
        assert rows == oracle.stats.tuples_evaluated

    def test_unbudgeted_read_is_not_partial(self, table):
        answer = self._oracle(table)
        assert not answer.partial
        assert answer.stats.stopped_by == "total-probability"

    def test_scalar_engine_rejects_a_deadline(self, table):
        for columnar in (None, False):
            with pytest.raises(QueryError, match="deadline_seconds"):
                exact_ptk_query(
                    table, TopKQuery(k=150), 0.3, columnar=columnar,
                    deadline_seconds=1.0,
                )

    def test_segmented_metrics_match_uninterrupted_run(self, table):
        """A cut read and its retries publish the rows each priced: the
        totals equal one clean read's."""
        def totals():
            return {
                "rows": catalogued("repro_ptk_tuples_evaluated_total").value(),
                "extensions": catalogued(
                    "repro_ptk_dp_extensions_total"
                ).value(),
                "queries": catalogued("repro_ptk_queries_total").value(
                    method="columnar"
                ),
                "stops": catalogued("repro_ptk_scan_stops_total").value(
                    reason="total-probability"
                ),
            }

        with obs.enabled_scope(fresh=True):
            prepared = prepare_ranking(table, TopKQuery(k=150))
            reads = [read(table, prepared, deadline_seconds=0.001)]
            while reads[-1].partial:
                reads.append(read(table, prepared, deadline_seconds=0.001))
            segmented = totals()
        with obs.enabled_scope(fresh=True):
            clean = self._oracle(table)
            baseline = totals()
        assert len(reads) > 1
        rows = sum(answer.stats.tuples_evaluated for answer in reads)
        assert rows == clean.stats.tuples_evaluated == segmented["rows"]
        assert segmented["rows"] == baseline["rows"]
        assert segmented["extensions"] == baseline["extensions"]
        # Every retry is a query of its own; only the last one stopped.
        assert segmented["queries"] == float(len(reads))
        assert segmented["stops"] == baseline["stops"] == 1.0


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
        app = serve_app(db)
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


#: The serve counters an item's outcome bumps, keyed for delta checks.
SERVE_COUNTERS = {
    "degraded": ("repro_serve_degraded_total", {}),
    "preexec": ("repro_serve_degraded_preexec_total", {}),
    "expired-dispatch": (
        "repro_serve_deadline_expired_total", {"stage": "dispatch"},
    ),
    "expired-pre-exec": (
        "repro_serve_deadline_expired_total", {"stage": "pre-exec"},
    ),
}


def serve_counts():
    return {
        key: catalogued(name).value(**labels)
        for key, (name, labels) in SERVE_COUNTERS.items()
    }


class TestPerItemRecord:
    """Whichever way a batch item is answered, it lands exactly one
    ``served`` profile and bumps its outcome's serve counter once."""

    TARGET_K = 7

    def _target(self, deadline=None, **request):
        request.setdefault("k", self.TARGET_K)
        return _work(
            QueryRequest(table="served", threshold=0.3, **request),
            deadline=deadline,
        )

    def _filler(self):
        return _work(QueryRequest(table="served", k=5, threshold=0.3))

    def _check(self, app, items, expected, deadline, bumped):
        before = serve_counts()
        recorded = OBS.flight.stats()["recorded"]
        try:
            app._run_batch("served", items)
        finally:
            app.shutdown()
        landed = OBS.flight.stats()["recorded"] - recorded
        assert landed == len(items)
        profiles = OBS.flight.recent(limit=landed)
        assert all(p["served"] for p in profiles)
        mine = [p for p in profiles if p["k"] == items[-1].request.k]
        assert len(mine) == 1
        profile = mine[0]
        assert {
            field: profile.get(field)
            for field in ("outcome", "mode", "batch_size", "prepare_hit")
        } == dict(expected, batch_size=len(items))
        remaining = profile.get("deadline_remaining_ms")
        if deadline is None:
            assert remaining is None
        elif deadline == "left":
            assert remaining > 0
        else:
            assert remaining <= 0
        after = serve_counts()
        assert {
            key: after[key] - before[key] for key in SERVE_COUNTERS
        } == {key: float(key in bumped) for key in SERVE_COUNTERS}

    def test_dynamic(self):
        app = serve_app(make_db(n=60), dynamic=True, dynamic_cap=8)
        self._check(
            app, [self._target()],
            {"outcome": "ok", "mode": "dynamic", "prepare_hit": False},
            None, (),
        )

    def test_exact(self):
        app = serve_app(make_db(n=60))
        self._check(
            app, [self._target(deadline=time.monotonic() + 10.0)],
            {"outcome": "ok", "mode": "exact", "prepare_hit": False},
            "left", (),
        )

    def _partial(self, monkeypatch):
        slow_scan_chunks(monkeypatch, 0.02)
        return self._target(
            k=300, mode="exact", deadline=time.monotonic() + 0.06
        )

    def test_deadline_partial_exact(self, monkeypatch):
        app = serve_app(make_db(n=1000))
        self._check(
            app, [self._partial(monkeypatch)],
            {"outcome": "deadline-partial", "mode": "exact",
             "prepare_hit": False},
            "left", (),
        )

    def test_resumed_exact(self, monkeypatch):
        app = serve_app(make_db(n=1000))
        first = app._run_batch("served", [self._partial(monkeypatch)])
        assert first[0].partial
        self._check(
            app,
            [self._target(k=300, mode="exact",
                          deadline=time.monotonic() + 10.0)],
            {"outcome": "ok", "mode": "exact", "prepare_hit": True},
            "left", (),
        )

    def test_planned_sampled(self):
        app = serve_app(make_db(n=60), latency_model=PinnedModel(5.0))
        self._check(
            app, [self._target(deadline=time.monotonic() + 0.2)],
            {"outcome": "ok", "mode": "sampled", "prepare_hit": False},
            "left", ("degraded",),
        )

    def test_preexec_degrade(self, monkeypatch):
        slow_exact(monkeypatch, 0.09)
        app = serve_app(make_db(n=60), latency_model=PinnedModel(0.02))
        self._check(
            app,
            [self._filler(), self._target(deadline=time.monotonic() + 0.12)],
            {"outcome": "ok", "mode": "sampled", "prepare_hit": False},
            "left", ("degraded", "preexec"),
        )

    def test_dispatch_expiry(self):
        app = serve_app(make_db(n=60))
        self._check(
            app, [self._target(deadline=time.monotonic() - 0.01)],
            {"outcome": "deadline-expired", "mode": None,
             "prepare_hit": False},
            "passed", ("expired-dispatch",),
        )

    def test_preexec_expiry(self, monkeypatch):
        slow_exact(monkeypatch, 0.08)
        app = serve_app(make_db(n=60), latency_model=PinnedModel(0.02))
        self._check(
            app,
            [self._filler(), self._target(deadline=time.monotonic() + 0.05)],
            {"outcome": "deadline-expired", "mode": None,
             "prepare_hit": False},
            "passed", ("expired-pre-exec",),
        )


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
    def test_retry_after_a_cut_observes_only_its_own_rows(self, monkeypatch):
        # 20 ms per priced chunk: the 60 ms deadline's 30 ms budget cuts
        # the first read after a chunk or two.
        slow_scan_chunks(monkeypatch, 0.02)
        db = make_db(n=1000)
        model = RecordingModel()
        app = serve_app(db, latency_model=model)

        def exact_read(seconds):
            request = QueryRequest(
                table="served", k=300, threshold=0.3, mode="exact"
            )
            work = _work(request, deadline=time.monotonic() + seconds)
            return app._run_batch("served", [work])[0]

        try:
            cut = exact_read(0.06)
            retry = exact_read(10.0)
        finally:
            app.shutdown()
        assert cut.partial and not retry.partial
        retry_profile, cut_profile = exact_profiles()  # newest first
        assert cut_profile["outcome"] == "deadline-partial"
        assert model.exact_observations == [
            (cut_profile["tuples_evaluated"], cut_profile["actual_seconds"]),
            (retry_profile["tuples_evaluated"], retry_profile["actual_seconds"]),
        ]
        # Each observation pairs the rows a read priced with that read's
        # own elapsed time: the retry's rows are only the remainder.
        full = make_db(n=1000).ptk("served", k=300, threshold=0.3)
        assert (
            cut_profile["tuples_evaluated"] + retry_profile["tuples_evaluated"]
            == full.stats.tuples_evaluated
        )
        assert retry_profile["tuples_evaluated"] < full.stats.tuples_evaluated

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
        warm, cold = profiles  # newest first
        priced = cold["tuples_evaluated"]
        assert priced > 0 and priced % kernel.ANSWER_CHUNK == 0
        assert priced >= cold["scan_depth"]
        # The repeat reads the preparation's warm scan: it prices no row
        # and is not observed.
        assert warm["tuples_evaluated"] == 0
        assert warm["scan_depth"] == cold["scan_depth"]
        assert [depth for depth, _ in model.exact_observations] == [priced]

    def test_warm_read_leaves_calibration_unchanged(self, monkeypatch):
        # 5 ms on every served read: without the guard the warm read's
        # elapsed would be folded in as the cost of a single DP cell.
        slow_exact(monkeypatch, 0.005)
        db = make_db(n=400)
        model = LatencyModel()
        app = serve_app(db, latency_model=model)
        request = QueryRequest(table="served", k=20, threshold=0.3)
        try:
            app._run_batch("served", [_work(request)])
            calibrated = model.seconds_per_cell
            app._run_batch("served", [_work(request)])
        finally:
            app.shutdown()
        assert model.seconds_per_cell == calibrated

    def test_warm_item_is_priced_by_the_rows_it_has_left(self):
        db = make_db(n=400)
        model = RecordingModel()
        model.observe_exact = lambda depth, seconds: None  # fixed prices
        app = serve_app(db, latency_model=model)
        request = QueryRequest(table="served", k=20, threshold=0.3)
        try:
            first = app._run_batch("served", [_work(request)])[0]
            again = app._run_batch("served", [_work(request)])[0]
            table = db.table("served")
            prepared = db.prepare_cache.get(table, TopKQuery(k=20))
            estimate = app._plan(table, request, None, prepared)[3]
        finally:
            app.shutdown()
        done = prepared.scanned_rows(20)
        assert done > 0
        warm = model.predict_resume_seconds(done, estimate.depth)
        assert estimate.exact_seconds == warm
        assert again.scheduler["estimated_seconds"] == warm
        assert warm < first.scheduler["estimated_seconds"]
        assert first.scheduler["estimated_seconds"] == (
            model.predict_exact_seconds(estimate.depth)
        )

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
        # On its own database: a read on db would warm the served scan.
        oracle = make_db(n=1000).ptk("served", k=300, threshold=0.3)
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
            second = client.query(
                "served", k=300, threshold=0.3, mode="exact",
                deadline_ms=10_000,
            )
            assert second.get("partial") is None
            assert second["answers"] == list(oracle.answers)
            metrics = client.metrics()
        retry, cut = exact_profiles()  # newest first
        assert cut["outcome"] == "deadline-partial"
        assert 0 < cut["tuples_evaluated"] < oracle.stats.tuples_evaluated
        # The retry continued the cut read's warm scan: it billed only
        # the rows the cut read left.
        assert retry["outcome"] == "ok"
        assert retry["scan_depth"] == oracle.stats.scan_depth
        assert (
            cut["tuples_evaluated"] + retry["tuples_evaluated"]
            == oracle.stats.tuples_evaluated
        )
        assert "repro_serve_resumed_scans_total" not in metrics

    def test_healthz_reports_scheduler(self):
        db = make_db(n=60)
        app = serve_app(db)
        with LoopbackTransport(app) as transport:
            client = ServeClient(transport)
            health = client.healthz()
        assert health["scheduler"] == "cost"
        assert "checkpoints" not in health


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
