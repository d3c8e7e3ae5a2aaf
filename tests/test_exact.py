"""Tests for the exact PT-k algorithm (all variants) against ground truth."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exact import (
    ExactVariant,
    exact_ptk_query,
    exact_topk_probabilities,
)
from repro.core.profile import exact_position_probabilities
from repro.datagen.sensors import (
    PANDA_PT2_ANSWER_AT_035,
    PANDA_TOP2_PROBABILITIES,
    example3_table,
    panda_table,
)
from repro.exceptions import QueryError
from repro.query.predicates import ScoreAbove
from repro.query.topk import TopKQuery
from repro.semantics.naive import (
    naive_position_probabilities,
    naive_topk_probabilities,
)
from tests.conftest import build_table, uncertain_tables

ALL_VARIANTS = list(ExactVariant)


class TestPaperValues:
    def test_panda_top2_probabilities(self):
        probabilities = exact_topk_probabilities(panda_table(), TopKQuery(k=2))
        for tid, expected in PANDA_TOP2_PROBABILITIES.items():
            assert probabilities[tid] == pytest.approx(expected, abs=1e-9)

    def test_panda_pt2_answer(self):
        answer = exact_ptk_query(panda_table(), TopKQuery(k=2), 0.35)
        assert answer.answer_set == PANDA_PT2_ANSWER_AT_035

    def test_example3_values(self):
        probabilities = exact_topk_probabilities(example3_table(), TopKQuery(k=3))
        assert probabilities["t6"] == pytest.approx(0.32, abs=1e-9)
        assert probabilities["t7"] == pytest.approx(0.025, abs=1e-9)

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_all_variants_reproduce_table3(self, variant):
        probabilities = exact_topk_probabilities(
            panda_table(), TopKQuery(k=2), variant=variant
        )
        for tid, expected in PANDA_TOP2_PROBABILITIES.items():
            assert probabilities[tid] == pytest.approx(expected, abs=1e-9)


class TestValidation:
    def test_rejects_bad_threshold(self):
        table = panda_table()
        for bad in (-0.1, -1e-300, 1.5):
            with pytest.raises(QueryError):
                exact_ptk_query(table, TopKQuery(k=2), bad)

    def test_threshold_zero_is_full_scan_mode(self):
        # threshold == 0.0 is the explicit full-scan mode: every tuple's
        # Pr^k is computed, no membership decisions are made, and no
        # pruning rule may fire.
        table = panda_table()
        answer = exact_ptk_query(table, TopKQuery(k=2), 0.0)
        assert answer.answers == []
        assert answer.stats.stopped_by == "exhausted"
        assert answer.stats.scan_depth == len(table)
        assert set(answer.probabilities) == {t.tid for t in table}
        for tid, expected in PANDA_TOP2_PROBABILITIES.items():
            assert answer.probabilities[tid] == pytest.approx(expected, abs=1e-9)

    def test_threshold_one_allowed(self):
        table = build_table([1.0, 0.5], rule_groups=[])
        answer = exact_ptk_query(table, TopKQuery(k=1), 1.0)
        assert answer.answers == ["t0"]


class TestAgainstNaive:
    @given(uncertain_tables(max_tuples=10), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_probabilities_match_enumeration(self, table, k):
        query = TopKQuery(k=k)
        truth = naive_topk_probabilities(table, query)
        for variant in ALL_VARIANTS:
            got = exact_topk_probabilities(table, query, variant=variant)
            for tid, expected in truth.items():
                assert got[tid] == pytest.approx(expected, abs=1e-9), (
                    variant,
                    tid,
                )

    @given(uncertain_tables(max_tuples=9), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_position_probabilities_match_enumeration(self, table, k):
        query = TopKQuery(k=k)
        truth = naive_position_probabilities(table, query)
        got = exact_position_probabilities(table, query)
        for tid, expected in truth.items():
            for j in range(k):
                assert got[tid][j] == pytest.approx(expected[j], abs=1e-9)

    @given(
        uncertain_tables(max_tuples=10),
        st.integers(1, 5),
        st.floats(0.05, 0.95),
    )
    @settings(max_examples=40, deadline=None)
    def test_answer_sets_match_enumeration(self, table, k, threshold):
        query = TopKQuery(k=k)
        truth = naive_topk_probabilities(table, query)
        answer = exact_ptk_query(table, query, threshold)
        for tid, probability in truth.items():
            # skip knife-edge cases where float noise flips >= comparisons
            if abs(probability - threshold) < 1e-9:
                continue
            assert (tid in answer.answer_set) == (probability >= threshold)


class TestPredicateHandling:
    def test_predicate_restricts_and_reweights(self):
        # removing tuples via the predicate frees rule mass
        table = build_table(
            [0.5, 0.4, 0.4, 0.3], rule_groups=[[1, 2]],
            scores=[40, 30, 20, 10],
        )
        query = TopKQuery(k=1, predicate=ScoreAbove(25))
        probabilities = exact_topk_probabilities(table, query)
        assert set(probabilities) == {"t0", "t1"}
        truth = naive_topk_probabilities(table, query)
        for tid, expected in truth.items():
            assert probabilities[tid] == pytest.approx(expected)


class TestStatsAndAnswerObject:
    def test_answers_in_ranking_order(self):
        answer = exact_ptk_query(panda_table(), TopKQuery(k=2), 0.35)
        assert answer.answers == ["R2", "R5", "R3"]  # by duration desc

    def test_stats_counts(self):
        answer = exact_ptk_query(panda_table(), TopKQuery(k=2), 0.35)
        stats = answer.stats
        assert stats.scan_depth <= 6
        assert stats.tuples_evaluated + stats.tuples_pruned == stats.scan_depth

    def test_probability_of_with_default(self):
        answer = exact_ptk_query(panda_table(), TopKQuery(k=2), 0.35)
        assert answer.probability_of("R2") == pytest.approx(0.4)
        assert answer.probability_of("nonexistent", default=0.0) == 0.0
        with pytest.raises(KeyError):
            answer.probability_of("nonexistent")

    def test_ranked_answers_sorted_by_probability(self):
        answer = exact_ptk_query(panda_table(), TopKQuery(k=2), 0.35)
        pairs = answer.ranked_answers()
        values = [p.probability for p in pairs]
        assert values == sorted(values, reverse=True)
        assert pairs[0].tid == "R5"

    def test_contains_and_len(self):
        answer = exact_ptk_query(panda_table(), TopKQuery(k=2), 0.35)
        assert "R5" in answer
        assert "R1" not in answer
        assert len(answer) == 3

    def test_method_labels(self):
        for variant in ALL_VARIANTS:
            answer = exact_ptk_query(
                panda_table(), TopKQuery(k=2), 0.35, variant=variant
            )
            assert answer.method == variant.value


class TestInvariants:
    @given(uncertain_tables(max_tuples=10), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_total_mass_at_most_k(self, table, k):
        probabilities = exact_topk_probabilities(table, TopKQuery(k=k))
        assert math.fsum(probabilities.values()) <= k + 1e-9

    @given(uncertain_tables(max_tuples=10), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_bounded_by_membership(self, table, k):
        probabilities = exact_topk_probabilities(table, TopKQuery(k=k))
        for tup in table:
            assert probabilities[tup.tid] <= tup.probability + 1e-9

    @given(uncertain_tables(max_tuples=10))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_k(self, table):
        # a tuple's top-k probability can only grow with k
        smaller = exact_topk_probabilities(table, TopKQuery(k=2))
        larger = exact_topk_probabilities(table, TopKQuery(k=4))
        for tid in smaller:
            assert larger[tid] >= smaller[tid] - 1e-9

    @given(uncertain_tables(max_tuples=10), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_k_at_least_table_size_gives_membership(self, table, k):
        # with k >= |T| every present tuple is in the top-k
        if k < len(table):
            k = len(table)
        probabilities = exact_topk_probabilities(table, TopKQuery(k=k))
        for tup in table:
            assert probabilities[tup.tid] == pytest.approx(
                tup.probability, abs=1e-9
            )
