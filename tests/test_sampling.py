"""Tests for the Monte-Carlo sampling method (Section 5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernel import TableColumns
from repro.core.rule_compression import rule_index_of_table
from repro.core.sampling import (
    SamplingConfig,
    WorldSampler,
    sampled_ptk_query,
    sampled_topk_probabilities,
)
from repro.datagen.sensors import PANDA_TOP2_PROBABILITIES, panda_table
from repro.exceptions import QueryError, SamplingError
from repro.query.topk import TopKQuery
from repro.semantics.naive import naive_topk_probabilities
from repro.stats.bounds import chernoff_hoeffding_sample_size
from repro.stats.intervals import wilson_interval
from tests.conftest import build_table, uncertain_tables


class TestConfig:
    def test_explicit_size(self):
        assert SamplingConfig(sample_size=123).resolved_sample_size() == 123

    def test_derived_size_matches_theorem6(self):
        config = SamplingConfig(epsilon=0.1, delta=0.05)
        assert config.resolved_sample_size() == chernoff_hoeffding_sample_size(
            0.1, 0.05
        )

    def test_rejects_nonpositive_size(self):
        with pytest.raises(SamplingError):
            SamplingConfig(sample_size=0).resolved_sample_size()


class TestWorldSampler:
    def test_rejects_bad_k(self):
        with pytest.raises(QueryError):
            WorldSampler(TableColumns.from_ranked([], {}), k=0)

    def test_certain_tuple_always_included(self):
        table = build_table([1.0, 0.5], rule_groups=[])
        sampler = WorldSampler(
            TableColumns.from_ranked(table.ranked_tuples(), {}), k=2
        )
        rng = np.random.default_rng(0)
        for _ in range(50):
            top, _ = sampler.sample_unit(rng)
            assert "t0" in top

    def test_rule_yields_at_most_one_member(self):
        table = build_table([0.5, 0.45], rule_groups=[[0, 1]])
        rule_of = rule_index_of_table(table)
        sampler = WorldSampler(
            TableColumns.from_ranked(table.ranked_tuples(), rule_of), k=2
        )
        rng = np.random.default_rng(1)
        for _ in range(200):
            top, _ = sampler.sample_unit(rng)
            assert len(top) <= 1

    def test_rule_member_frequencies(self):
        table = build_table([0.6, 0.3], rule_groups=[[0, 1]])
        rule_of = rule_index_of_table(table)
        sampler = WorldSampler(
            TableColumns.from_ranked(table.ranked_tuples(), rule_of), k=2
        )
        rng = np.random.default_rng(2)
        counts = {"t0": 0, "t1": 0, None: 0}
        n = 20_000
        for _ in range(n):
            top, _ = sampler.sample_unit(rng)
            counts[top[0] if top else None] += 1
        assert counts["t0"] / n == pytest.approx(0.6, abs=0.02)
        assert counts["t1"] / n == pytest.approx(0.3, abs=0.02)
        assert counts[None] / n == pytest.approx(0.1, abs=0.02)

    def test_unit_has_at_most_k_tuples(self):
        table = build_table([0.9] * 10, rule_groups=[])
        sampler = WorldSampler(
            TableColumns.from_ranked(table.ranked_tuples(), {}), k=3
        )
        rng = np.random.default_rng(3)
        for _ in range(50):
            top, _ = sampler.sample_unit(rng)
            assert len(top) <= 3

    def test_top_k_in_ranking_order(self):
        table = build_table([0.9] * 6, rule_groups=[])
        ranked = table.ranked_tuples()
        positions = {t.tid: i for i, t in enumerate(ranked)}
        sampler = WorldSampler(TableColumns.from_ranked(ranked, {}), k=4)
        rng = np.random.default_rng(4)
        for _ in range(50):
            top, _ = sampler.sample_unit(rng)
            indices = [positions[t] for t in top]
            assert indices == sorted(indices)

    def test_lazy_scan_length_shorter_than_table(self):
        # high membership probabilities: the k-th inclusion comes early
        table = build_table([0.95] * 100, rule_groups=[])
        sampler = WorldSampler(
            TableColumns.from_ranked(table.ranked_tuples(), {}), k=5
        )
        rng = np.random.default_rng(5)
        lengths = [sampler.sample_unit(rng)[1] for _ in range(100)]
        assert max(lengths) < 100
        assert np.mean(lengths) < 15

    def test_nonlazy_scan_length_is_table_size(self):
        table = build_table([0.95] * 20, rule_groups=[])
        sampler = WorldSampler(
            TableColumns.from_ranked(table.ranked_tuples(), {}),
            k=5, lazy=False,
        )
        rng = np.random.default_rng(6)
        _, scanned = sampler.sample_unit(rng)
        assert scanned == 20


class TestBatchedSampler:
    """The vectorised batch path against the per-unit reference path.

    The batch kernel consumes the RNG stream lazily (it never draws the
    coins the lazy scan would skip), so agreement with the per-unit path
    is statistical — same distribution, not the same coins: estimates
    must agree within Wilson bounds and scan-length statistics must
    match in expectation.
    """

    def _reference_counts(self, sampler, seed, n_units):
        """Accumulate counts/scan lengths unit by unit (the old loop)."""
        rng = np.random.default_rng(seed)
        counts = {}
        scanned = []
        for _ in range(n_units):
            top, length = sampler.sample_unit(rng)
            scanned.append(length)
            for tid in top:
                counts[tid] = counts.get(tid, 0) + 1
        return counts, scanned

    @pytest.mark.parametrize("batch_size", [7, 64, 500])
    def test_batch_agrees_with_per_unit_within_wilson_bounds(self, batch_size):
        table = panda_table()
        rule_of = rule_index_of_table(table)
        ranked = table.ranked_tuples()
        n_units = 4000
        sampler = WorldSampler(TableColumns.from_ranked(ranked, rule_of), k=2)
        ref_counts, ref_scanned = self._reference_counts(
            sampler, seed=11, n_units=n_units
        )
        rng = np.random.default_rng(11)
        counts = np.zeros(len(ranked), dtype=np.int64)
        scanned = []
        drawn = 0
        while drawn < n_units:
            step = min(batch_size, n_units - drawn)
            batch_counts, batch_scanned = sampler.sample_batch(rng, step)
            counts += batch_counts
            scanned.extend(batch_scanned.tolist())
            drawn += step
        ids = sampler.tuple_ids
        for i, tid in enumerate(ids):
            lo_b, hi_b = wilson_interval(int(counts[i]), n_units)
            lo_r, hi_r = wilson_interval(ref_counts.get(tid, 0), n_units)
            assert lo_b <= hi_r and lo_r <= hi_b, (
                f"{tid}: batched [{lo_b:.3f}, {hi_b:.3f}] disjoint from "
                f"per-unit [{lo_r:.3f}, {hi_r:.3f}]"
            )
        # Scan lengths have the same distribution; with 4000 units the
        # means must be close.
        assert np.mean(scanned) == pytest.approx(np.mean(ref_scanned), abs=0.2)
        assert max(scanned) <= len(ranked)
        assert min(scanned) >= 1

    @given(uncertain_tables(max_tuples=8), st.integers(1, 4))
    @settings(max_examples=10, deadline=None)
    def test_batch_estimates_match_truth_on_random_tables(self, table, k):
        rule_of = rule_index_of_table(table)
        ranked = table.ranked_tuples()
        sampler = WorldSampler(TableColumns.from_ranked(ranked, rule_of), k=k)
        n_units = 2000
        counts, scanned = sampler.sample_batch(
            np.random.default_rng(5), n_units
        )
        truth = naive_topk_probabilities(table, TopKQuery(k=k))
        ids = sampler.tuple_ids
        for i, tid in enumerate(ids):
            # 2000 units: additive error ~ 3 * sqrt(0.25/2000) ~ 0.034
            assert int(counts[i]) / n_units == pytest.approx(
                truth.get(tid, 0.0), abs=0.08
            )
        assert scanned.shape == (n_units,)
        assert np.all((scanned >= 1) & (scanned <= max(len(ranked), 1)))

    @pytest.mark.parametrize("batch_size", [1, 3, 50, 200, 1000])
    def test_estimates_consistent_across_batch_sizes(self, batch_size):
        config = SamplingConfig(
            sample_size=4000, progressive=False, seed=9, batch_size=batch_size
        )
        result = sampled_topk_probabilities(
            panda_table(), TopKQuery(k=2), config
        )
        for tid, expected in PANDA_TOP2_PROBABILITIES.items():
            assert result.estimate_of(tid) == pytest.approx(expected, abs=0.05)
        # Deterministic for a fixed (seed, batch_size) pair.
        again = sampled_topk_probabilities(
            panda_table(), TopKQuery(k=2), config
        )
        assert again.estimates == result.estimates
        assert again.total_scanned == result.total_scanned

    def test_average_sample_length_matches_per_unit_reference(self):
        table = panda_table()
        sampler = WorldSampler(
            TableColumns.from_ranked(
                table.ranked_tuples(), rule_index_of_table(table)
            ),
            k=2
        )
        _, ref_scanned = self._reference_counts(sampler, seed=13, n_units=4000)
        result = sampled_topk_probabilities(
            table,
            TopKQuery(k=2),
            SamplingConfig(sample_size=4000, progressive=False, seed=17),
        )
        assert result.average_sample_length == pytest.approx(
            np.mean(ref_scanned), abs=0.2
        )

    @pytest.mark.parametrize("batch_size", [1, 30, 100, 999, 4096])
    def test_progressive_stops_only_at_checkpoint_boundaries(self, batch_size):
        result = sampled_topk_probabilities(
            panda_table(),
            TopKQuery(k=2),
            SamplingConfig(
                progressive=True,
                min_samples=200,
                check_interval=100,
                tolerance=0.05,
                seed=1,
                batch_size=batch_size,
            ),
        )
        assert result.converged_early
        assert result.units_drawn % 100 == 0
        assert result.units_drawn >= 200

    def test_progressive_estimates_sound_at_any_batch_size(self):
        # The draw schedule differs per batch size, so convergence may
        # fire at different checkpoints — but always *at* a checkpoint,
        # and always with estimates near the truth.
        for batch_size in (1, 37, 100, 5000):
            result = sampled_topk_probabilities(
                panda_table(),
                TopKQuery(k=2),
                SamplingConfig(
                    progressive=True,
                    min_samples=500,
                    check_interval=100,
                    tolerance=0.05,
                    seed=1,
                    batch_size=batch_size,
                ),
            )
            assert result.units_drawn % 100 == 0
            for tid, expected in PANDA_TOP2_PROBABILITIES.items():
                assert result.estimate_of(tid) == pytest.approx(
                    expected, abs=0.1
                )

    def test_rejects_nonpositive_batch_size(self):
        with pytest.raises(SamplingError):
            SamplingConfig(batch_size=0).resolved_batch_size()
        with pytest.raises(SamplingError):
            sampled_topk_probabilities(
                panda_table(),
                TopKQuery(k=2),
                SamplingConfig(sample_size=10, batch_size=-5),
            )

    def test_default_batch_size_tracks_checkpoint_interval(self):
        assert (
            SamplingConfig(progressive=True, check_interval=250)
            .resolved_batch_size()
            == 250
        )
        assert SamplingConfig(progressive=False).resolved_batch_size() == 1024

    def test_sample_batch_rejects_nonpositive(self):
        table = build_table([0.5], rule_groups=[])
        sampler = WorldSampler(
            TableColumns.from_ranked(table.ranked_tuples(), {}), k=1
        )
        with pytest.raises(SamplingError):
            sampler.sample_batch(np.random.default_rng(0), 0)

    def test_empty_ranking(self):
        sampler = WorldSampler(TableColumns.from_ranked([], {}), k=1)
        counts, scanned = sampler.sample_batch(np.random.default_rng(0), 8)
        assert counts.size == 0
        assert scanned.tolist() == [0] * 8


class TestEstimates:
    def test_panda_estimates_converge(self):
        result = sampled_topk_probabilities(
            panda_table(),
            TopKQuery(k=2),
            SamplingConfig(sample_size=100_000, progressive=False, seed=7),
        )
        for tid, expected in PANDA_TOP2_PROBABILITIES.items():
            assert result.estimate_of(tid) == pytest.approx(expected, abs=0.01)

    def test_deterministic_under_seed(self):
        config = SamplingConfig(sample_size=500, progressive=False, seed=42)
        a = sampled_topk_probabilities(panda_table(), TopKQuery(k=2), config)
        b = sampled_topk_probabilities(panda_table(), TopKQuery(k=2), config)
        assert a.estimates == b.estimates

    @given(uncertain_tables(max_tuples=8), st.integers(1, 4))
    @settings(max_examples=10, deadline=None)
    def test_estimates_within_monte_carlo_error(self, table, k):
        query = TopKQuery(k=k)
        truth = naive_topk_probabilities(table, query)
        result = sampled_topk_probabilities(
            table,
            query,
            SamplingConfig(sample_size=20_000, progressive=False, seed=0),
        )
        for tid, expected in truth.items():
            # 20k samples: additive error ~ 3 * sqrt(0.25/20000) ~ 0.011
            assert result.estimate_of(tid) == pytest.approx(expected, abs=0.03)

    def test_progressive_stops_early(self):
        result = sampled_topk_probabilities(
            panda_table(),
            TopKQuery(k=2),
            SamplingConfig(
                progressive=True,
                min_samples=200,
                check_interval=100,
                tolerance=0.05,
                seed=1,
            ),
        )
        assert result.converged_early
        assert result.units_drawn < result.budget

    def test_budget_respected_without_convergence(self):
        result = sampled_topk_probabilities(
            panda_table(),
            TopKQuery(k=2),
            SamplingConfig(sample_size=300, progressive=False, seed=1),
        )
        assert result.units_drawn == 300
        assert not result.converged_early


class TestSampledQuery:
    def test_rejects_bad_threshold(self):
        with pytest.raises(QueryError):
            sampled_ptk_query(panda_table(), TopKQuery(k=2), 0.0)

    def test_answer_matches_exact_on_panda(self):
        answer = sampled_ptk_query(
            panda_table(),
            TopKQuery(k=2),
            0.35,
            SamplingConfig(sample_size=50_000, progressive=False, seed=3),
        )
        assert answer.answer_set == {"R2", "R3", "R5"}
        assert answer.method == "sampling"

    def test_answers_in_ranking_order(self):
        answer = sampled_ptk_query(
            panda_table(),
            TopKQuery(k=2),
            0.35,
            SamplingConfig(sample_size=50_000, progressive=False, seed=3),
        )
        assert answer.answers == ["R2", "R5", "R3"]

    def test_stats_populated(self):
        answer = sampled_ptk_query(
            panda_table(),
            TopKQuery(k=2),
            0.35,
            SamplingConfig(sample_size=1000, progressive=False, seed=3),
        )
        assert answer.stats.sample_units == 1000
        assert answer.stats.avg_sample_length > 0


class TestForDeadline:
    def test_budget_scales_with_time(self):
        tight = SamplingConfig.for_deadline(
            0.2, unit_length=100, seconds_per_unit=1e-3
        )
        loose = SamplingConfig.for_deadline(
            1.0, unit_length=100, seconds_per_unit=1e-3
        )
        # Both affordable budgets sit under the Theorem-6 cap (1107 at
        # the default epsilon/delta), so time translates to units 1:1.
        assert tight.sample_size == 200
        assert loose.sample_size == 1000
        assert loose.progressive

    def test_floor_when_deadline_nearly_exhausted(self):
        config = SamplingConfig.for_deadline(
            1e-6, unit_length=100, seconds_per_unit=1e-3, min_units=100
        )
        assert config.sample_size == 100

    def test_capped_at_chernoff_budget_by_default(self):
        from repro.stats.bounds import chernoff_hoeffding_sample_size

        config = SamplingConfig.for_deadline(
            1e9, unit_length=100, seconds_per_unit=1e-9
        )
        cap = chernoff_hoeffding_sample_size(
            SamplingConfig.epsilon, SamplingConfig.delta
        )
        assert config.sample_size == cap

    def test_explicit_cap_respected(self):
        config = SamplingConfig.for_deadline(
            100.0, unit_length=100, seconds_per_unit=1e-3, max_units=2000
        )
        assert config.sample_size == 2000

    def test_invalid_unit_cost_rejected(self):
        from repro.exceptions import SamplingError

        with pytest.raises(SamplingError):
            SamplingConfig.for_deadline(
                1.0, unit_length=100, seconds_per_unit=0.0
            )

    def test_config_runs_end_to_end(self):
        config = SamplingConfig.for_deadline(
            0.5, unit_length=3, seconds_per_unit=1e-4, seed=7
        )
        answer = sampled_ptk_query(
            panda_table(), TopKQuery(k=2), 0.35, config
        )
        assert answer.answer_set  # a usable, non-empty estimate
