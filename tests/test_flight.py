"""Tests for the query flight recorder (:mod:`repro.obs.flight`).

Covers the recorder itself (ring bounding, slow-log framing and its
torn-tail tolerance, calibration), its wiring into the engines (profiles
filled by exact and sampled queries through the facade), the serving
layer's ``/debug/*`` endpoints, and the ``repro flight`` CLI.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro import obs
from repro.cli import main
from repro.obs import OBS
from repro.obs.flight import (
    FlightRecorder,
    QueryProfile,
    calibration_report,
    read_jsonl,
    summarize_profiles,
    write_spans_jsonl,
)
from repro.core.exact import exact_ptk_query
from repro.core.sampling import SamplingConfig
from repro.query.engine import UncertainDB
from repro.query.topk import TopKQuery

from tests.conftest import build_table


@pytest.fixture(autouse=True)
def _clean_flight():
    """Fresh, quiet observability + flight state around every test."""
    obs.disable()
    obs.reset()
    OBS.flight.disable()
    OBS.flight.unconfigure()
    yield
    obs.disable()
    obs.reset()
    OBS.flight.disable()
    OBS.flight.unconfigure()


def _query_db() -> UncertainDB:
    db = UncertainDB()
    db.register(
        build_table(
            [0.9, 0.8, 0.7, 0.45, 0.4, 0.3, 0.2],
            rule_groups=[[3, 4]],
            name="sightings",
        )
    )
    return db


def _profile(**fields) -> QueryProfile:
    profile = QueryProfile(kind="test")
    for name, value in fields.items():
        setattr(profile, name, value)
    return profile


# ----------------------------------------------------------------------
# Recorder mechanics
# ----------------------------------------------------------------------
class TestRecorder:
    def test_disabled_begin_returns_none(self):
        recorder = FlightRecorder()
        assert recorder.begin("exact") is None
        assert recorder.current() is None

    def test_begin_finish_records_latency(self):
        recorder = FlightRecorder()
        recorder.enable()
        profile = recorder.begin("exact", table="t", k=3, threshold=0.5)
        assert recorder.current() is profile
        finished = recorder.finish(profile)
        assert recorder.current() is None
        assert finished.actual_seconds is not None
        assert finished.actual_seconds >= 0.0
        assert recorder.recent()[0]["table"] == "t"

    def test_ring_is_bounded_and_counts_evictions(self):
        recorder = FlightRecorder(ring_size=4)
        recorder.enable()
        for i in range(10):
            recorder.record(_profile(k=i, actual_seconds=0.001))
        recent = recorder.recent()
        assert len(recent) == 4
        # Newest first: the last recorded profile leads.
        assert recent[0]["k"] == 9
        assert recorder.stats()["evictions"] == 6
        assert recorder.stats()["recorded"] == 10

    def test_nested_profiles_stack_per_thread(self):
        recorder = FlightRecorder()
        recorder.enable()
        outer = recorder.begin("outer")
        inner = recorder.begin("inner")
        assert recorder.current() is inner
        recorder.finish(inner)
        assert recorder.current() is outer
        recorder.finish(outer)

    def test_profiles_do_not_cross_threads(self):
        recorder = FlightRecorder()
        recorder.enable()
        recorder.begin("main-thread")
        seen = []

        def worker():
            seen.append(recorder.current())

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen == [None]

    def test_to_dict_drops_unset_fields(self):
        profile = _profile(actual_seconds=0.5)
        data = profile.to_dict()
        assert data["kind"] == "test"
        assert data["actual_seconds"] == 0.5
        assert "scan_depth" not in data
        assert "engine" not in data
        assert not any(key.startswith("_") for key in data)


# ----------------------------------------------------------------------
# Slow-query log: threshold gating and torn-tail tolerance
# ----------------------------------------------------------------------
class TestSlowLog:
    def test_threshold_gates_the_log(self, tmp_path):
        log = tmp_path / "slow.jsonl"
        recorder = FlightRecorder()
        recorder.configure(slow_log_path=log, slow_threshold_ms=10.0)
        recorder.enable()
        recorder.record(_profile(actual_seconds=0.001))  # fast: not logged
        recorder.record(_profile(actual_seconds=0.5))  # slow: logged
        recorder.close()
        scan = read_jsonl(log)
        assert scan.problem is None
        assert len(scan.records) == 1
        assert scan.records[0]["slow"] is True
        assert scan.records[0]["actual_seconds"] == 0.5
        assert len(recorder.slow_recent()) == 1

    def test_threshold_zero_logs_everything(self, tmp_path):
        log = tmp_path / "slow.jsonl"
        recorder = FlightRecorder()
        recorder.configure(slow_log_path=log, slow_threshold_ms=0.0)
        recorder.enable()
        for _ in range(3):
            recorder.record(_profile(actual_seconds=0.0))
        recorder.close()
        assert len(read_jsonl(log).records) == 3

    def test_torn_tail_does_not_corrupt_prefix(self, tmp_path):
        """A SIGKILL mid-write can only tear the final record."""
        log = tmp_path / "slow.jsonl"
        recorder = FlightRecorder()
        recorder.configure(slow_log_path=log, slow_threshold_ms=0.0)
        recorder.enable()
        for i in range(5):
            recorder.record(_profile(k=i, actual_seconds=0.2))
        recorder.close()
        intact = read_jsonl(log)
        assert len(intact.records) == 5 and intact.problem is None

        # Simulate the crash: truncate mid-way through the last record.
        data = log.read_bytes()
        log.write_bytes(data[: len(data) - 7])
        torn = read_jsonl(log)
        assert len(torn.records) == 4
        assert torn.problem is not None
        assert torn.torn_bytes > 0
        assert [r["k"] for r in torn.records] == [0, 1, 2, 3]

        # Garbage appended after valid records is also confined.
        log.write_bytes(data + b"\x00\xffgarbage")
        garbled = read_jsonl(log)
        assert len(garbled.records) == 5
        assert garbled.problem is not None

    def test_read_jsonl_missing_file(self, tmp_path):
        scan = read_jsonl(tmp_path / "absent.jsonl")
        assert scan.problem == "missing"
        assert scan.records == []

    def test_appends_survive_reconfigure(self, tmp_path):
        log = tmp_path / "slow.jsonl"
        recorder = FlightRecorder()
        recorder.configure(slow_log_path=log, slow_threshold_ms=0.0)
        recorder.enable()
        recorder.record(_profile(actual_seconds=0.1))
        recorder.configure(ring_size=8)  # unrelated knob: log untouched
        recorder.record(_profile(actual_seconds=0.1))
        recorder.close()
        assert len(read_jsonl(log).records) == 2


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------
class TestCalibration:
    def test_residuals_grouped_by_engine(self):
        profiles = [
            # exact: estimates 2x, 1x, 0.5x the actual
            {"engine": "exact", "estimated_seconds": 0.2, "actual_seconds": 0.1},
            {"engine": "exact", "estimated_seconds": 0.1, "actual_seconds": 0.1},
            {"engine": "exact", "estimated_seconds": 0.05, "actual_seconds": 0.1},
            # sampled: single exact prediction
            {"engine": "sampled", "estimated_seconds": 0.3, "actual_seconds": 0.3},
            # not calibratable: missing fields
            {"engine": "exact", "actual_seconds": 0.1},
            {"kind": "exact"},
        ]
        report = calibration_report(profiles)
        assert report["profiles"] == 6
        assert report["calibrated"] == 4
        exact = report["engines"]["exact"]
        assert exact["count"] == 3
        # residuals: +1.0, 0.0, -0.5 -> mean 1/6, median 0.0
        assert exact["mean_relative_error"] == pytest.approx(1.0 / 6.0)
        assert exact["median_relative_error"] == pytest.approx(0.0)
        assert exact["mean_abs_relative_error"] == pytest.approx(0.5)
        assert report["engines"]["sampled"]["count"] == 1
        assert report["engines"]["sampled"]["mean_relative_error"] == 0.0

    def test_recorder_calibration_uses_ring(self):
        recorder = FlightRecorder()
        recorder.enable()
        for _ in range(3):
            recorder.record(
                _profile(
                    engine="exact",
                    estimated_seconds=0.2,
                    actual_seconds=0.1,
                )
            )
        report = recorder.calibration()
        assert report["engines"]["exact"]["count"] == 3
        assert report["engines"]["exact"]["mean_relative_error"] == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Engine integration via the facade
# ----------------------------------------------------------------------
class TestEngineProfiles:
    def test_exact_query_fills_profile(self):
        # The scalar engine, driven the way ``repro stats`` drives it.
        db = _query_db()
        obs.enable(fresh=True)
        OBS.flight.enable()
        with obs.query_scope("ptk", table="sightings", k=2, threshold=0.3):
            exact_ptk_query(db.table("sightings"), TopKQuery(k=2), 0.3)
        profiles = OBS.flight.recent()
        assert len(profiles) == 1
        profile = profiles[0]
        assert profile["kind"] == "ptk"
        assert profile["table"] == "sightings"
        assert profile["k"] == 2
        assert profile["engine"] == "exact"
        assert profile["variant"] == "RC+LR"
        assert profile["scan_depth"] >= 1
        assert profile["tuples_evaluated"] >= 1
        assert profile["actual_seconds"] > 0.0
        assert "trace_id" in profile
        assert (
            profile["compression_units_independent"]
            + profile["compression_units_rule"]
            >= 1
        )

    def test_columnar_ptk_fills_profile(self):
        db = _query_db()
        obs.enable(fresh=True)
        OBS.flight.enable()
        db.ptk("sightings", k=2, threshold=0.3)
        [profile] = OBS.flight.recent()
        assert profile["kind"] == "ptk"
        assert profile["engine"] == "exact"
        assert profile["variant"] == "columnar"
        assert profile["scan_depth"] >= 1
        assert profile["tuples_evaluated"] >= 1

    def test_sampled_query_fills_profile(self):
        db = _query_db()
        obs.enable(fresh=True)
        OBS.flight.enable()
        db.ptk_sampled(
            "sightings",
            k=2,
            threshold=0.3,
            config=SamplingConfig(sample_size=200, seed=5),
        )
        profile = OBS.flight.recent()[0]
        assert profile["engine"] == "sampled"
        assert profile["sample_budget"] == 200
        assert profile["sample_units"] >= 1
        assert profile["wilson_halfwidth"] > 0.0
        assert profile["stopped_by"] in ("converged", "budget")

    def test_prepare_outcome_lands_on_profile(self):
        db = _query_db()
        obs.enable(fresh=True)
        OBS.flight.enable()
        db.ptk("sightings", k=2, threshold=0.3)
        db.ptk("sightings", k=2, threshold=0.3)
        first, second = OBS.flight.recent()[::-1][0], OBS.flight.recent()[0]
        assert first["prepare_hit"] is False
        assert second["prepare_hit"] is True

    def test_flight_off_records_nothing(self):
        db = _query_db()
        obs.enable(fresh=True)
        db.ptk("sightings", k=2, threshold=0.3)
        assert OBS.flight.recent() == []

    def test_flight_metrics_published_and_catalogued(self):
        from repro.obs import catalog, export as obs_export

        db = _query_db()
        obs.enable(fresh=True)
        OBS.flight.enable()
        OBS.flight.configure(slow_threshold_ms=0.0)
        db.ptk("sightings", k=2, threshold=0.3)
        counter = OBS.registry.get("repro_flight_profiles_total")
        assert counter is not None
        assert counter.value(kind="ptk") == 1.0
        slow = OBS.registry.get("repro_flight_slow_queries_total")
        assert slow.value() == 1.0
        assert catalog.validate_snapshot(obs_export.snapshot()) == []


# ----------------------------------------------------------------------
# Span-tree export
# ----------------------------------------------------------------------
class TestSpanExport:
    def test_spans_written_once(self, tmp_path):
        db = _query_db()
        obs.enable(fresh=True)
        db.ptk("sightings", k=2, threshold=0.3)
        path = tmp_path / "spans.jsonl"
        written = write_spans_jsonl(path)
        assert len(written) == 1
        # Second call with the dedup set writes nothing new.
        again = write_spans_jsonl(path, skip_trace_ids=set(written))
        assert again == []
        scan = read_jsonl(path)
        assert scan.problem is None
        assert scan.records[0]["name"].startswith("query.")
        assert scan.records[0]["trace_id"] == written[0]


# ----------------------------------------------------------------------
# Summaries and the CLI
# ----------------------------------------------------------------------
class TestSummaryAndCLI:
    def _write_log(self, path):
        records = [
            {"kind": "served", "engine": "exact", "actual_seconds": 0.01,
             "estimated_seconds": 0.02, "slow": True},
            {"kind": "served", "engine": "exact", "actual_seconds": 0.03,
             "estimated_seconds": 0.03, "slow": True},
            {"kind": "served", "engine": "sampled", "actual_seconds": 0.2,
             "estimated_seconds": 0.1, "slow": True, "degraded": True},
        ]
        with open(path, "w") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
        return records

    def test_summarize_profiles(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        self._write_log(path)
        summary = summarize_profiles(read_jsonl(path).records)
        assert summary["profiles"] == 3
        assert summary["by_engine"] == {"exact": 2, "sampled": 1}
        assert summary["slow"] == 3
        assert summary["degraded"] == 1
        assert summary["latency_seconds"]["max"] == pytest.approx(0.2)

    def test_cli_summary_and_calibration(self, tmp_path, capsys):
        path = tmp_path / "slow.jsonl"
        self._write_log(path)
        assert main(["flight", "summary", str(path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["profiles"] == 3
        # A directory containing slow.jsonl also works.
        assert main(["flight", "calibration", str(tmp_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["engines"]["exact"]["count"] == 2
        assert report["engines"]["sampled"]["median_relative_error"] == (
            pytest.approx(-0.5)
        )

    def test_cli_tail_limits_and_reports_torn_tail(self, tmp_path, capsys):
        path = tmp_path / "slow.jsonl"
        self._write_log(path)
        with open(path, "ab") as handle:
            handle.write(b'{"torn": tr')  # no newline: torn tail
        assert main(["flight", "tail", str(path), "-n", "2"]) == 0
        captured = capsys.readouterr()
        lines = [l for l in captured.out.splitlines() if l.strip()]
        assert len(lines) == 2
        assert "torn byte(s) ignored" in captured.err

    def test_cli_missing_file_errors(self, tmp_path, capsys):
        assert main(["flight", "tail", str(tmp_path / "nope.jsonl")]) == 1
        assert "does not exist" in capsys.readouterr().err
