"""Tests for the observability layer: metrics, tracing, exports, gating."""

from __future__ import annotations

import json
import math
import threading

import pytest

from repro import obs
from repro.core.exact import exact_ptk_query
from repro.datagen.sensors import panda_table
from repro.exceptions import ObservabilityError, UnknownTableError, UnknownTupleError
from repro.obs import catalog
from repro.obs import export as obs_export
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
)
from repro.obs.tracing import NOOP_SPAN, Tracer
from repro.query.engine import UncertainDB
from repro.query.topk import TopKQuery


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with observability off and empty."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _query_db():
    db = UncertainDB()
    db.register(panda_table())
    return db


# ----------------------------------------------------------------------
# Metric primitives
# ----------------------------------------------------------------------
class TestCounter:
    def test_inc_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_rejects_negative(self):
        counter = Counter("c")
        with pytest.raises(ObservabilityError):
            counter.inc(-1)

    def test_labelled_series_are_independent(self):
        counter = Counter("c", labelnames=("theorem",))
        counter.inc(2, theorem="membership")
        counter.inc(5, theorem="same-rule")
        assert counter.value(theorem="membership") == 2
        assert counter.value(theorem="same-rule") == 5

    def test_label_mismatch_rejected(self):
        counter = Counter("c", labelnames=("theorem",))
        with pytest.raises(ObservabilityError):
            counter.inc(1)
        with pytest.raises(ObservabilityError):
            counter.inc(1, wrong="x")

    def test_thread_safety(self):
        counter = Counter("c")

        def work():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value() == 8000


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value() == 12


class TestHistogram:
    def test_bucket_assignment_and_sum(self):
        hist = Histogram("h", buckets=(1, 10, 100))
        for value in (0.5, 5, 50, 500):
            hist.observe(value)
        [sample] = hist.samples()
        assert sample["count"] == 4
        assert sample["sum"] == pytest.approx(555.5)
        # Cumulative buckets: <=1, <=10, <=100, +Inf.
        assert sample["buckets"]["1.0"] == 1
        assert sample["buckets"]["10.0"] == 2
        assert sample["buckets"]["100.0"] == 3
        assert sample["buckets"]["+Inf"] == 4

    def test_rejects_bad_buckets(self):
        with pytest.raises(ObservabilityError):
            Histogram("h", buckets=())
        with pytest.raises(ObservabilityError):
            Histogram("h", buckets=(5, 5))

    def test_count_and_sum_accessors(self):
        hist = Histogram("h", buckets=(1, 2))
        assert hist.count() == 0
        hist.observe(1.5)
        assert hist.count() == 1
        assert hist.sum() == pytest.approx(1.5)


class TestTimer:
    def test_time_context_records(self):
        timer = Timer("t")
        with timer.time():
            pass
        assert timer.count() == 1
        assert timer.total_seconds() >= 0
        [sample] = timer.samples()
        assert sample["max"] >= 0

    def test_labelled_timer(self):
        timer = Timer("t", labelnames=("semantics",))
        timer.observe(0.25, semantics="ptk")
        timer.observe(0.75, semantics="ptk")
        assert timer.count(semantics="ptk") == 2
        assert timer.total_seconds(semantics="ptk") == pytest.approx(1.0)

    def test_rejects_invalid_durations(self):
        timer = Timer("t")
        with pytest.raises(ObservabilityError):
            timer.observe(-1)
        with pytest.raises(ObservabilityError):
            timer.observe(math.nan)


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        first = registry.counter("c", help="x")
        second = registry.counter("c")
        assert first is second

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ObservabilityError):
            registry.gauge("m")

    def test_label_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m", labelnames=("a",))
        with pytest.raises(ObservabilityError):
            registry.counter("m", labelnames=("b",))

    def test_reset_drops_everything(self):
        registry = MetricsRegistry()
        registry.counter("m").inc()
        registry.reset()
        assert len(registry) == 0
        assert registry.get("m") is None


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class TestTracing:
    def test_nesting_and_trace_id_propagation(self):
        tracer = Tracer()
        with tracer.span("query.ptk") as root:
            root_trace = tracer.current_trace_id()
            with tracer.span("ptk.prepare"):
                assert tracer.current_trace_id() == root_trace
            with tracer.span("ptk.scan") as scan:
                scan.set(scan_depth=4)
        assert root.trace_id == root_trace
        assert [child.name for child in root.children] == [
            "ptk.prepare",
            "ptk.scan",
        ]
        assert all(child.trace_id == root.trace_id for child in root.children)
        assert root.find("ptk.scan").attributes["scan_depth"] == 4
        assert root.duration >= sum(c.duration for c in root.children) - 1e-9

    def test_finished_ring_keeps_roots_only(self):
        tracer = Tracer(max_traces=2)
        for i in range(3):
            with tracer.span(f"root{i}"):
                with tracer.span("child"):
                    pass
        names = [span.name for span in tracer.traces()]
        assert names == ["root1", "root2"]
        assert tracer.last_trace().name == "root2"

    def test_threads_get_separate_stacks(self):
        tracer = Tracer()
        seen = {}

        def work(tag):
            with tracer.span(f"root.{tag}"):
                seen[tag] = tracer.current_trace_id()

        threads = [
            threading.Thread(target=work, args=(tag,)) for tag in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seen["a"] != seen["b"]

    def test_exception_annotates_span(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        [root] = tracer.traces()
        assert "error" in root.attributes

    def test_disabled_span_is_shared_noop(self):
        assert obs.span("anything") is NOOP_SPAN
        with obs.span("anything") as s:
            s.set(ignored=1)
        assert obs.OBS.tracer.traces() == []


# ----------------------------------------------------------------------
# Disabled-mode behaviour
# ----------------------------------------------------------------------
class TestDisabledMode:
    def test_query_answers_identical_and_registry_empty(self):
        db = _query_db()
        # On its own database: a read on db would warm the scan the
        # instrumented read then resumes.
        baseline = _query_db().ptk("panda_sightings", k=2, threshold=0.35)
        assert len(obs.OBS.registry) == 0
        assert obs.OBS.tracer.traces() == []

        with obs.enabled_scope(fresh=True):
            instrumented = db.ptk("panda_sightings", k=2, threshold=0.35)

        assert instrumented.answers == baseline.answers
        assert instrumented.probabilities == baseline.probabilities
        assert instrumented.stats.scan_depth == baseline.stats.scan_depth
        assert (
            instrumented.stats.subset_extensions
            == baseline.stats.subset_extensions
        )

        # And back off again: no further registry growth.
        size_after = len(obs.OBS.registry)
        db.ptk("panda_sightings", k=2, threshold=0.35)
        assert len(obs.OBS.registry) == size_after

    def test_enabled_scope_restores_previous_state(self):
        assert not obs.is_enabled()
        with obs.enabled_scope():
            assert obs.is_enabled()
        assert not obs.is_enabled()


# ----------------------------------------------------------------------
# End-to-end: one query populates the snapshot the issue demands
# ----------------------------------------------------------------------
class TestQuerySnapshot:
    REQUIRED = [
        "repro_ptk_scan_depth",
        "repro_ptk_tuples_pruned_total",
        "repro_compression_units_total",
        "repro_reorder_prefix_hits_total",
        "repro_query_seconds",
    ]

    def test_single_ptk_query_snapshot(self):
        # The scalar engine, driven the way ``repro stats`` drives it.
        db = _query_db()
        with obs.enabled_scope(fresh=True):
            with obs.query_scope(
                "ptk", table="panda_sightings", k=2, threshold=0.35
            ):
                exact_ptk_query(
                    db.table("panda_sightings"), TopKQuery(k=2), 0.35
                )
        snapshot = obs_export.snapshot()
        for name in self.REQUIRED:
            assert name in snapshot["metrics"], name
        pruned = snapshot["metrics"]["repro_ptk_tuples_pruned_total"]
        theorems = {s["labels"]["theorem"] for s in pruned["samples"]}
        assert theorems == {"membership", "same-rule"}
        # Per-phase span tree rooted at the query.
        [trace] = snapshot["traces"]
        assert trace["name"] == "query.ptk"
        child_names = [c["name"] for c in trace["children"]]
        assert "ptk.scan" in child_names
        assert all(
            c["trace_id"] == trace["trace_id"] for c in trace["children"]
        )
        assert catalog.validate_snapshot(snapshot) == []

    def test_columnar_ptk_query_snapshot(self):
        db = _query_db()
        with obs.enabled_scope(fresh=True):
            answer = db.ptk("panda_sightings", k=2, threshold=0.35)
        snapshot = obs_export.snapshot()
        assert answer.method == "columnar"
        assert answer.stats.scan_depth >= 1
        assert answer.stats.tuples_evaluated >= 1
        assert "repro_ptk_scan_depth" in snapshot["metrics"]
        [trace] = snapshot["traces"]
        assert trace["name"] == "query.ptk"
        assert catalog.validate_snapshot(snapshot) == []

    def test_sampler_metrics(self):
        from repro.core.sampling import SamplingConfig, sampled_ptk_query
        from repro.query.topk import TopKQuery

        with obs.enabled_scope(fresh=True):
            sampled_ptk_query(
                panda_table(),
                TopKQuery(k=2),
                0.35,
                config=SamplingConfig(sample_size=64, seed=3),
            )
        snapshot = obs_export.snapshot()
        metrics = snapshot["metrics"]
        assert (
            metrics["repro_sampler_units_total"]["samples"][0]["value"] == 64
        )
        assert metrics["repro_sampler_budget_units"]["samples"][0]["value"] == 64
        assert "repro_sampler_unit_scan_length" in metrics
        assert catalog.validate_snapshot(snapshot) == []

    def test_catalog_validation_flags_impostors(self):
        snapshot = {
            "metrics": {
                "made_up_metric": {"type": "counter", "labelnames": []},
                "repro_ptk_scan_depth": {"type": "gauge", "labelnames": []},
                "repro_ptk_tuples_pruned_total": {
                    "type": "counter",
                    "labelnames": ["wrong"],
                },
            }
        }
        problems = catalog.validate_snapshot(snapshot)
        assert len(problems) == 3


# ----------------------------------------------------------------------
# Exports
# ----------------------------------------------------------------------
class TestExport:
    def _populate(self):
        db = _query_db()
        with obs.enabled_scope(fresh=True):
            db.ptk("panda_sightings", k=2, threshold=0.35)

    def test_json_round_trip(self, tmp_path):
        self._populate()
        path = obs_export.write_json(tmp_path / "metrics.json")
        parsed = json.loads(path.read_text())
        assert parsed == obs_export.snapshot()
        assert parsed["version"] == obs_export.SNAPSHOT_VERSION
        assert catalog.validate_snapshot(parsed) == []

    def test_prometheus_round_trip(self):
        self._populate()
        text = obs_export.to_prometheus()
        samples = obs_export.parse_prometheus(text)
        snapshot = obs_export.snapshot()["metrics"]
        scanned = snapshot["repro_ptk_tuples_scanned_total"]["samples"][0]
        assert samples[("repro_ptk_tuples_scanned_total", ())] == scanned["value"]
        hist = snapshot["repro_ptk_scan_depth"]["samples"][0]
        assert (
            samples[("repro_ptk_scan_depth_count", ())] == hist["count"]
        )
        assert samples[
            ("repro_ptk_scan_depth_bucket", (("le", "+Inf"),))
        ] == hist["count"]
        pruned = samples[
            (
                "repro_ptk_tuples_pruned_total",
                (("theorem", "membership"),),
            )
        ]
        assert pruned >= 0

    def test_render_text_mentions_trace(self):
        self._populate()
        text = obs_export.render_text()
        assert "repro_ptk_scan_depth" in text
        assert "query.ptk" in text
        assert "ptk.scan" in text


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestCLI:
    @pytest.fixture()
    def table_path(self, tmp_path):
        from repro.io.jsonio import write_table_json

        path = tmp_path / "panda.json"
        write_table_json(panda_table(), path)
        return path

    def test_query_emit_metrics(self, table_path, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "metrics.json"
        code = main(
            [
                "query",
                str(table_path),
                "-k",
                "2",
                "-p",
                "0.35",
                "--emit-metrics",
                str(out),
            ]
        )
        assert code == 0
        parsed = json.loads(out.read_text())
        assert catalog.validate_snapshot(parsed) == []
        assert "repro_ptk_scan_depth" in parsed["metrics"]

    def test_stats_subcommand_json(self, table_path, capsys):
        from repro.cli import main

        code = main(
            ["stats", str(table_path), "-k", "2", "-p", "0.35", "--format", "json"]
        )
        assert code == 0
        parsed = json.loads(capsys.readouterr().out)
        assert catalog.validate_snapshot(parsed) == []
        assert parsed["traces"], "stats must include the span tree"

    def test_stats_subcommand_prometheus(self, table_path, capsys):
        from repro.cli import main

        code = main(
            ["stats", str(table_path), "-k", "2", "-p", "0.35", "--format", "prom"]
        )
        assert code == 0
        samples = obs_export.parse_prometheus(capsys.readouterr().out)
        assert ("repro_ptk_tuples_scanned_total", ()) in samples


# ----------------------------------------------------------------------
# Satellite: UnknownTableError
# ----------------------------------------------------------------------
class TestUnknownTableError:
    def test_table_raises_specific_error(self):
        db = UncertainDB()
        with pytest.raises(UnknownTableError):
            db.table("nope")
        with pytest.raises(UnknownTableError):
            db.drop("nope")

    def test_still_catchable_as_unknown_tuple_error(self):
        db = UncertainDB()
        with pytest.raises(UnknownTupleError):
            db.table("nope")


# ----------------------------------------------------------------------
# Satellite: derived quantiles in the JSON export
# ----------------------------------------------------------------------
class TestDerivedQuantiles:
    """Pin the bucket-interpolation math against hand-computed samples."""

    def test_histogram_quantiles_interpolate_within_buckets(self):
        hist = Histogram("h", buckets=(1, 2, 4))
        # Per-bucket counts: [1, 1, 2, 0 in +Inf]; total 4.
        for value in (0.5, 1.5, 3.0, 3.5):
            hist.observe(value)
        [sample] = hist.samples()
        quantiles = sample["quantiles"]
        # rank(p50) = 2 lands exactly on the (1, 2] bucket's upper edge.
        assert quantiles["p50"] == pytest.approx(2.0)
        # rank(p95) = 3.8: 2 observations precede the (2, 4] bucket,
        # interpolate 0.9 of the way through its 2 observations.
        assert quantiles["p95"] == pytest.approx(2.0 + 2.0 * 0.9)
        assert quantiles["p99"] == pytest.approx(2.0 + 2.0 * 0.98)

    def test_histogram_quantiles_clamp_to_last_finite_bound(self):
        hist = Histogram("h", buckets=(1, 10))
        hist.observe(500)  # lands in +Inf
        [sample] = hist.samples()
        assert sample["quantiles"]["p50"] == pytest.approx(10.0)
        assert sample["quantiles"]["p99"] == pytest.approx(10.0)

    def test_empty_histogram_has_no_quantiles(self):
        hist = Histogram("h", buckets=(1, 2))
        assert hist.samples() == []

    def test_timer_samples_carry_quantiles(self):
        timer = Timer("t")
        for _ in range(10):
            timer.observe(0.002)  # within the (0.001, 0.0025] bucket
        [sample] = timer.samples()
        quantiles = sample["quantiles"]
        assert set(quantiles) == {"p50", "p95", "p99"}
        # All mass in one bucket: every quantile inside it.
        assert 0.001 < quantiles["p50"] <= 0.0025
        assert 0.001 < quantiles["p99"] <= 0.0025
        assert quantiles["p50"] <= quantiles["p95"] <= quantiles["p99"]
        # Timers derive from the shared latency buckets without
        # exposing raw bucket counts in their samples.
        assert "buckets" not in sample

    def test_quantiles_survive_the_json_round_trip(self, tmp_path):
        db = _query_db()
        with obs.enabled_scope(fresh=True):
            db.ptk("panda_sightings", k=2, threshold=0.35)
        path = obs_export.write_json(tmp_path / "metrics.json")
        parsed = json.loads(path.read_text())
        [sample] = parsed["metrics"]["repro_query_seconds"]["samples"]
        assert sample["quantiles"]["p50"] > 0.0


# ----------------------------------------------------------------------
# Satellite: Prometheus label escaping + catalogue rejection
# ----------------------------------------------------------------------
class TestPrometheusLabelEscaping:
    def _export_with_label(self, value: str) -> str:
        registry = MetricsRegistry()
        registry.counter("c_total", labelnames=("v",)).inc(1, v=value)
        return obs_export.to_prometheus(registry)

    def test_double_quotes_escaped(self):
        text = self._export_with_label('say "hi"')
        assert r'v="say \"hi\""' in text

    def test_backslashes_escaped(self):
        text = self._export_with_label("dir\\file")
        assert r'v="dir\\file"' in text

    def test_newlines_escaped(self):
        text = self._export_with_label("line1\nline2")
        assert r'v="line1\nline2"' in text
        # The exposition stays line-framed: no raw newline inside a label.
        for line in text.splitlines():
            if line.startswith("c_total{"):
                assert line.endswith(" 1")

    def test_all_three_together(self):
        text = self._export_with_label('a"b\nc\\d')
        assert r'v="a\"b\nc\\d"' in text


class TestCatalogueRejection:
    def test_uncatalogued_metric_name_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_flight_bogus_total").inc()
        snapshot = obs_export.snapshot(registry=registry, tracer=Tracer())
        problems = catalog.validate_snapshot(snapshot)
        assert any("repro_flight_bogus_total" in p for p in problems)

    def test_spec_of_unknown_name_raises(self):
        with pytest.raises(KeyError):
            catalog.spec_of("repro_not_in_catalogue_total")
