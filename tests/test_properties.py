"""Cross-cutting property tests: global invariants of the whole system.

These tests exercise relationships *between* subsystems — exact vs
sampling vs profiles vs semantics — on randomly generated
rule-constrained tables, beyond the per-module properties tested
elsewhere.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exact import exact_ptk_query, exact_topk_probabilities
from repro.core.profile import topk_probability_profile
from repro.core.kernel import TableColumns
from repro.core.rule_compression import rule_index_of_table
from repro.core.sampling import WorldSampler
from repro.model.table import UncertainTable
from repro.model.worlds import enumerate_possible_worlds
from repro.query.topk import TopKQuery
from repro.semantics.naive import (
    naive_topk_probabilities,
    naive_topk_vector_probabilities,
)
from repro.semantics.ukranks import ukranks_query
from repro.semantics.utopk import utopk_query
from tests.conftest import build_table, uncertain_tables


class TestRankingInvariance:
    @given(uncertain_tables(max_tuples=9), st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_monotone_score_transform_preserves_probabilities(self, table, k):
        # Pr^k depends only on the ranking *order*, not on score values
        query = TopKQuery(k=k)
        original = exact_topk_probabilities(table, query)
        transformed = UncertainTable(name="transformed")
        for tup in table:
            transformed.add_tuple(
                tup.__class__(
                    tid=tup.tid,
                    score=math.exp(tup.score / 100.0),  # strictly monotone
                    probability=tup.probability,
                    attributes=tup.attributes,
                )
            )
        for rule in table.multi_rules():
            transformed.add_rule(rule)
        after = exact_topk_probabilities(transformed, query)
        for tid, probability in original.items():
            assert after[tid] == pytest.approx(probability, abs=1e-9)


class TestRuleDegeneracy:
    @given(uncertain_tables(max_tuples=8, allow_rules=False), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_singleton_rules_equal_independence(self, table, k):
        # wrapping every tuple in an explicit singleton rule is a no-op
        wrapped = UncertainTable(name="wrapped")
        for tup in table:
            wrapped.add_tuple(tup)
        for i, tup in enumerate(table):
            wrapped.add_exclusive(f"single{i}", tup.tid)
        query = TopKQuery(k=k)
        assert exact_topk_probabilities(
            wrapped, query
        ) == exact_topk_probabilities(table, query)

    def test_certain_rule_behaves_like_certain_choice(self):
        # a rule with total probability 1 always contributes one tuple
        table = build_table([0.6, 0.4, 0.5], rule_groups=[[0, 1]])
        probabilities = exact_topk_probabilities(table, TopKQuery(k=1))
        # rank order: t0, t1, t2.  t0 wins when chosen (0.6); t1 wins
        # when chosen (0.4); t2 never wins.
        assert probabilities["t0"] == pytest.approx(0.6)
        assert probabilities["t1"] == pytest.approx(0.4)
        assert probabilities["t2"] == pytest.approx(0.0)


class TestCrossSemanticsConsistency:
    @given(uncertain_tables(max_tuples=8), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_utopk_vector_probability_bounded_by_member_topk(self, table, k):
        # Pr(vector is THE top-k) <= Pr(member in top-k) for each member
        query = TopKQuery(k=k)
        answer = utopk_query(table, query)
        probabilities = naive_topk_probabilities(table, query)
        for tid in answer.vector:
            assert answer.probability <= probabilities[tid] + 1e-9

    @given(uncertain_tables(max_tuples=8), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_ukranks_rank1_winner_matches_vector_semantics(self, table, k):
        # rank-1 probability of t = total probability of vectors led by t
        query = TopKQuery(k=k)
        vectors = naive_topk_vector_probabilities(table, query)
        ukranks = ukranks_query(table, query)
        rank1_tid, rank1_probability = ukranks.winners[0]
        led_by = {}
        for vector, probability in vectors.items():
            if vector:
                led_by[vector[0]] = led_by.get(vector[0], 0.0) + probability
        if led_by:
            best = max(led_by.values())
            assert rank1_probability == pytest.approx(best, abs=1e-9)


class TestProfileConsistency:
    @given(uncertain_tables(max_tuples=8), st.integers(2, 5))
    @settings(max_examples=15, deadline=None)
    def test_profile_final_column_is_prk(self, table, k):
        query = TopKQuery(k=k)
        profiles = topk_probability_profile(table, query)
        exact = exact_topk_probabilities(table, query)
        for tid, probability in exact.items():
            assert profiles[tid][-1] == pytest.approx(probability, abs=1e-9)


class TestSamplerDistribution:
    @given(uncertain_tables(max_tuples=6))
    @settings(max_examples=8, deadline=None)
    def test_inclusion_marginals_match_membership(self, table):
        # the sampler's per-tuple inclusion frequency is the membership
        # probability (law of large numbers with a generous tolerance)
        ranked = table.ranked_tuples()
        sampler = WorldSampler(
            TableColumns.from_ranked(ranked, rule_index_of_table(table)),
            k=len(ranked), lazy=False
        )
        rng = np.random.default_rng(7)
        n = 4000
        counts = {t.tid: 0 for t in ranked}
        for _ in range(n):
            include = sampler.sample_inclusion_mask(rng)
            for position in np.flatnonzero(include):
                counts[ranked[position].tid] += 1
        for tup in ranked:
            assert counts[tup.tid] / n == pytest.approx(
                tup.probability, abs=0.035
            )

    def test_world_frequencies_match_enumeration(self):
        # joint distribution check on a table with rules
        table = build_table([0.4, 0.3, 0.5], rule_groups=[[0, 1]])
        ranked = table.ranked_tuples()
        sampler = WorldSampler(
            TableColumns.from_ranked(ranked, rule_index_of_table(table)),
            k=3, lazy=False
        )
        rng = np.random.default_rng(3)
        n = 40_000
        frequencies: dict = {}
        for _ in range(n):
            include = sampler.sample_inclusion_mask(rng)
            key = frozenset(
                ranked[position].tid for position in np.flatnonzero(include)
            )
            frequencies[key] = frequencies.get(key, 0) + 1
        for world in enumerate_possible_worlds(table):
            observed = frequencies.get(world.tuple_ids, 0) / n
            assert observed == pytest.approx(world.probability, abs=0.01)


class TestEngineRobustness:
    @given(uncertain_tables(max_tuples=10), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_stop_check_interval_does_not_change_answers(self, table, k):
        query = TopKQuery(k=k)
        fine = exact_ptk_query(table, query, 0.35, stop_check_interval=1)
        coarse = exact_ptk_query(table, query, 0.35, stop_check_interval=1000)
        assert fine.answer_set == coarse.answer_set

    @given(uncertain_tables(max_tuples=10))
    @settings(max_examples=20, deadline=None)
    def test_threshold_monotonicity_of_answer_sets(self, table):
        query = TopKQuery(k=3)
        loose = exact_ptk_query(table, query, 0.2)
        tight = exact_ptk_query(table, query, 0.6)
        assert tight.answer_set <= loose.answer_set
