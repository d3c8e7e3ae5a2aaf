"""Tests for table statistics and the scan-depth planner."""

import pytest

from repro.core.exact import exact_ptk_query
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic_table
from repro.exceptions import QueryError
from repro.model.statistics import collect_statistics
from repro.model.table import UncertainTable
from repro.query.planner import (
    choose_method,
    depth_curve,
    estimate_scan_depth,
    estimate_scan_depth_exactish,
)
from repro.query.topk import TopKQuery
from tests.conftest import build_table


class TestStatistics:
    def test_basic_summary(self):
        table = build_table([0.2, 0.4, 0.6], rule_groups=[[0, 1]])
        stats = collect_statistics(table)
        assert stats.n_tuples == 3
        assert stats.n_rules == 1
        assert stats.mean_probability == pytest.approx(0.4)
        assert stats.expected_world_size == pytest.approx(1.2)
        assert stats.mean_rule_size == 2.0
        assert stats.max_rule_size == 2
        assert stats.mean_rule_probability == pytest.approx(0.6)
        assert stats.rule_tuple_fraction == pytest.approx(2 / 3)

    def test_histogram_counts_all_tuples(self):
        table = build_table([0.05, 0.15, 0.95], rule_groups=[])
        stats = collect_statistics(table)
        assert sum(stats.probability_histogram) == 3

    def test_empty_table(self):
        stats = collect_statistics(UncertainTable())
        assert stats.n_tuples == 0
        assert stats.mean_probability == 0.0


class TestDepthEstimates:
    def workload(self, mean=0.5, n=4000):
        return generate_synthetic_table(
            SyntheticConfig(
                n_tuples=n, n_rules=n // 10, independent_prob_mean=mean, seed=3
            )
        )

    def test_estimate_within_factor_two_of_measured(self):
        table = self.workload()
        k, p = 50, 0.3
        measured = exact_ptk_query(table, TopKQuery(k=k), p).stats.scan_depth
        estimate = estimate_scan_depth(table, k, p)
        assert measured / 2 <= estimate.depth <= measured * 2

    def test_exactish_at_least_as_close(self):
        table = self.workload(mean=0.3)
        k, p = 50, 0.3
        measured = exact_ptk_query(table, TopKQuery(k=k), p).stats.scan_depth
        coarse = estimate_scan_depth(table, k, p)
        refined = estimate_scan_depth_exactish(table, k, p)
        assert abs(refined.depth - measured) <= abs(coarse.depth - measured) * 1.5

    def test_depth_grows_with_k(self):
        table = self.workload()
        curve = depth_curve(table, ks=[10, 50, 200], threshold=0.3)
        depths = [e.depth for e in curve]
        assert depths == sorted(depths)

    def test_depth_shrinks_with_mean_probability(self):
        low = estimate_scan_depth(self.workload(mean=0.2), 50, 0.3)
        high = estimate_scan_depth(self.workload(mean=0.8), 50, 0.3)
        assert high.depth < low.depth

    def test_depth_capped_by_table_size(self):
        table = build_table([0.01] * 10, rule_groups=[])
        estimate = estimate_scan_depth(table, 5, 0.3)
        assert estimate.depth == 10
        assert estimate.fraction == 1.0

    def test_empty_table(self):
        estimate = estimate_scan_depth(UncertainTable(), 5, 0.3)
        assert estimate.depth == 0

    def test_validation(self):
        table = build_table([0.5], rule_groups=[])
        with pytest.raises(QueryError):
            estimate_scan_depth(table, 0, 0.3)
        with pytest.raises(QueryError):
            estimate_scan_depth(table, 5, 0.0)
        with pytest.raises(QueryError):
            estimate_scan_depth_exactish(table, 5, 1.5)


class TestSignedQuantileRegression:
    """The mass target must stay *signed* across the threshold range.

    The pre-fix planner clamped the threshold at ``0.49999``, so every
    ``p > 0.5`` collapsed to ``z ~ 0`` and a mass target of ``~k`` —
    exactly where the tail bound fires earliest (``M ~ k - z_p sqrt(k)``).
    """

    def workload(self, n=4000):
        return generate_synthetic_table(
            SyntheticConfig(
                n_tuples=n, n_rules=0, independent_prob_mean=0.5, seed=11
            )
        )

    def test_high_threshold_target_falls_below_k(self):
        k = 100
        table = self.workload()
        estimate = estimate_scan_depth(table, k, 0.95)
        # z_{0.95} ~ -1.645, so the target sits well below k; the pre-fix
        # clamp produced a target of ~k here.
        assert estimate.mass_target <= k - k**0.5

    def test_depth_strictly_decreases_with_threshold(self):
        table = self.workload()
        k = 100
        depths = [
            estimate_scan_depth(table, k, p).depth
            for p in (0.1, 0.5, 0.8, 0.95)
        ]
        # Pre-fix, every p >= 0.5 produced the same depth (z clamped to
        # ~0); the signed quantile restores strict monotonicity.
        assert depths == sorted(depths, reverse=True)
        assert len(set(depths)) == len(depths)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.8, 0.95])
    def test_predicted_tracks_measured_depth(self, p):
        table = self.workload()
        k = 100
        measured = exact_ptk_query(table, TopKQuery(k=k), p).stats.scan_depth
        predicted = estimate_scan_depth(table, k, p).depth
        assert measured * 0.65 <= predicted <= measured * 1.5, (
            p, predicted, measured
        )


class TestMethodChoice:
    def test_small_k_prefers_exact(self):
        table = TestDepthEstimates().workload()
        assert choose_method(table, k=10, threshold=0.3) == "exact"

    def test_huge_k_prefers_sampling(self):
        table = TestDepthEstimates().workload(n=20000)
        assert choose_method(table, k=2000, threshold=0.3) == "sampling"

    def test_budget_shifts_crossover(self):
        table = TestDepthEstimates().workload()
        generous = choose_method(table, k=400, threshold=0.3, sample_budget=10**9)
        assert generous == "exact"  # sampling cost inflated by the budget


class TestLatencyModel:
    def workload(self, n=2000):
        return generate_synthetic_table(
            SyntheticConfig(n_tuples=n, n_rules=n // 10, seed=5)
        )

    def test_exact_prediction_grows_with_depth(self):
        from repro.query.planner import LatencyModel

        model = LatencyModel()
        assert model.predict_exact_seconds(100) < model.predict_exact_seconds(
            1000
        )
        # Quadratic in depth: 10x depth -> 100x cell cost.
        small = model.predict_exact_seconds(100) - model.floor_seconds
        large = model.predict_exact_seconds(1000) - model.floor_seconds
        assert large == pytest.approx(100 * small, rel=1e-6)

    def test_observe_exact_calibrates_toward_measurement(self):
        from repro.query.planner import LatencyModel

        model = LatencyModel(seconds_per_cell=1e-9)
        before = model.predict_exact_seconds(1000)
        for _ in range(50):
            model.observe_exact(1000, 0.5)  # much slower than predicted
        after = model.predict_exact_seconds(1000)
        assert after > before
        assert after == pytest.approx(0.5, rel=0.5)

    def test_estimate_latency_fields(self):
        from repro.query.planner import LatencyModel, estimate_latency

        table = self.workload()
        estimate = estimate_latency(
            table, k=50, threshold=0.3, model=LatencyModel()
        )
        assert estimate.depth >= 50
        assert estimate.exact_seconds > 0
        assert estimate.sampled_seconds_per_unit > 0
        assert 0 < estimate.expected_unit_length <= len(table)

    def test_unit_budget_for_inverts_prediction(self):
        from repro.query.planner import LatencyModel

        model = LatencyModel()
        units = model.unit_budget_for(1.0, unit_length=100)
        predicted = model.predict_sampled_seconds(units, unit_length=100)
        assert predicted == pytest.approx(1.0, rel=0.05)

    def test_explain_plan_reports_latency_with_model(self):
        from repro.query.engine import UncertainDB
        from repro.query.planner import LatencyModel

        db = UncertainDB()
        db.register(self.workload(), name="w")
        bare = db.explain_plan("w", k=50, threshold=0.3)
        assert "predicted_exact_seconds" not in bare
        rich = db.explain_plan(
            "w", k=50, threshold=0.3, latency_model=LatencyModel()
        )
        assert rich["predicted_exact_seconds"] > 0
        assert rich["predicted_seconds_per_sample_unit"] > 0
        assert rich["expected_sample_unit_length"] > 0

    def test_explain_plan_computes_statistics_once(self, monkeypatch):
        from repro.model.statistics import TableStatistics
        from repro.query.engine import UncertainDB
        from repro.query.planner import LatencyModel, estimate_latency

        db = UncertainDB()
        db.register(self.workload(), name="w")
        table = db.table("w")
        real = TableStatistics.from_columns.__func__
        calls = []

        def counting(cls, *args):
            calls.append(args)
            return real(cls, *args)

        monkeypatch.setattr(
            TableStatistics, "from_columns", classmethod(counting)
        )
        report = db.explain_plan(
            "w", k=50, threshold=0.3, latency_model=LatencyModel()
        )
        assert len(calls) == 1
        monkeypatch.undo()
        # The report the planner gives from the table's own statistics:
        # counts exact, float summaries equal to the last bits.
        statistics = collect_statistics(table)
        estimate = estimate_scan_depth(table, 50, 0.3, statistics=statistics)
        latency = estimate_latency(
            table, 50, 0.3, model=LatencyModel(), statistics=statistics
        )
        assert report == {
            "table": "w",
            "n_tuples": len(table),
            "estimated_scan_depth": estimate.depth,
            "estimated_fraction": estimate.fraction,
            "recommended_method": choose_method(
                table, 50, 0.3, statistics=statistics
            ),
            "predicted_exact_seconds": pytest.approx(
                latency.exact_seconds, rel=1e-12
            ),
            "predicted_seconds_per_sample_unit": pytest.approx(
                latency.sampled_seconds_per_unit, rel=1e-12
            ),
            "expected_sample_unit_length": pytest.approx(
                latency.expected_unit_length, rel=1e-12
            ),
        }
