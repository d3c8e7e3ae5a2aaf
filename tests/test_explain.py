"""Tests for explanations and sensitivity analysis."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exact import exact_topk_probabilities
from repro.core.explain import explain_tuple, format_explanation
from repro.datagen.sensors import panda_table
from repro.exceptions import UnknownTupleError
from repro.query.predicates import ScoreAbove
from repro.query.topk import TopKQuery
from tests.conftest import build_table, uncertain_tables

#: Units this close to certain made the old divide-by-``1 - p``
#: deconvolution amplify rounding error by up to ``1 / (1 - p)``.
NEAR_CERTAIN = (0.9999, 0.999999, 0.99999999)


def fewer_than(probabilities, k):
    """``Pr(count < k)`` of independent units, exactly, in Fractions."""
    counts = [Fraction(1)]
    for p in map(Fraction, probabilities):
        counts = [
            (counts[j] if j < len(counts) else 0) * (1 - p)
            + (counts[j - 1] * p if j else 0)
            for j in range(len(counts) + 1)
        ]
    return sum(counts[:k])


@st.composite
def near_certain_tables(draw):
    """n <= 9 tables mixing near-certain and ordinary tuples, at most
    one of them in a two-member rule."""
    n = draw(st.integers(2, 9))
    probabilities = [
        draw(st.sampled_from(NEAR_CERTAIN) | st.floats(0.05, 0.95))
        for _ in range(n)
    ]
    rule_groups = []
    if n >= 3 and draw(st.booleans()):
        probabilities[0], probabilities[2] = 0.5, 0.49999999
        rule_groups.append([0, 2])
    return build_table(probabilities, rule_groups)


class TestExplanationValues:
    def test_topk_probability_matches_exact(self):
        table = panda_table()
        query = TopKQuery(k=2)
        truth = exact_topk_probabilities(table, query)
        for tup in table:
            explanation = explain_tuple(table, query, tup.tid)
            assert explanation.topk_probability == pytest.approx(
                truth[tup.tid], abs=1e-9
            )

    def test_position_distribution_sums_to_topk(self):
        table = panda_table()
        query = TopKQuery(k=2)
        explanation = explain_tuple(table, query, "R5")
        assert sum(explanation.position_distribution) == pytest.approx(
            explanation.topk_probability, abs=1e-9
        )

    def test_rule_mates_listed(self):
        table = panda_table()
        explanation = explain_tuple(table, TopKQuery(k=2), "R3")
        assert explanation.excluded_rule_mates == ("R2",)

    def test_unknown_tuple_raises(self):
        with pytest.raises(UnknownTupleError):
            explain_tuple(panda_table(), TopKQuery(k=2), "R99")

    def test_predicate_failure_raises(self):
        query = TopKQuery(k=2, predicate=ScoreAbove(100))
        with pytest.raises(UnknownTupleError):
            explain_tuple(panda_table(), query, "R1")


class TestInfluence:
    def test_influence_matches_brute_force_removal(self):
        # removing the strongest suppressor and re-running exactly
        # reproduces the predicted gain
        table = build_table([0.8, 0.7, 0.6, 0.5], rule_groups=[])
        query = TopKQuery(k=2)
        explanation = explain_tuple(table, query, "t3")
        truth_before = exact_topk_probabilities(table, query)["t3"]
        for ui in explanation.influences:
            (removed,) = ui.unit.members
            reduced = table.filter(lambda t, r=removed: t.tid != r)
            truth_after = exact_topk_probabilities(reduced, query)["t3"]
            assert truth_after - truth_before == pytest.approx(
                ui.influence, abs=1e-9
            )

    @given(uncertain_tables(max_tuples=8), st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_influences_nonnegative_and_bounded(self, table, k):
        query = TopKQuery(k=k)
        ranked = query.ranking.rank_table(table)
        if not ranked:
            return
        target = ranked[-1]
        explanation = explain_tuple(table, query, target.tid)
        for ui in explanation.influences:
            assert ui.influence >= 0.0
            # removing a unit cannot push Pr^k above Pr(t)
            assert (
                explanation.topk_probability + ui.influence
                <= explanation.membership_probability + 1e-9
            )

    def test_influence_of_rule_unit_matches_removal(self):
        # removing a whole rule (both members) reproduces the rule-tuple
        # unit's predicted influence
        table = build_table(
            [0.5, 0.45, 0.9, 0.6], rule_groups=[[0, 1]]
        )
        query = TopKQuery(k=1)
        explanation = explain_tuple(table, query, "t3")
        rule_influence = next(
            ui
            for ui in explanation.influences
            if ui.unit.members == frozenset({"t0", "t1"})
        )
        reduced = table.filter(lambda t: t.tid not in ("t0", "t1"))
        before = exact_topk_probabilities(table, query)["t3"]
        after = exact_topk_probabilities(reduced, query)["t3"]
        assert after - before == pytest.approx(
            rule_influence.influence, abs=1e-9
        )


class TestNearCertainUnits:
    @given(near_certain_tables(), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_influences_match_fraction_removal(self, table, k):
        query = TopKQuery(k=k)
        for tup in table:
            explanation = explain_tuple(table, query, tup.tid)
            units = [u.probability for u in explanation.dominant_units]
            before = fewer_than(units, k)
            for i, unit in enumerate(explanation.dominant_units):
                without = units[:i] + units[i + 1 :]
                exact = Fraction(tup.probability) * (
                    fewer_than(without, k) - before
                )
                influence = next(
                    ui.influence
                    for ui in explanation.influences
                    if ui.unit is unit
                )
                assert abs(influence - float(exact)) <= 1e-12


class TestFormatting:
    def test_format_contains_key_facts(self):
        table = panda_table()
        explanation = explain_tuple(table, TopKQuery(k=2), "R4")
        text = format_explanation(explanation)
        assert "Pr^2(R4)" in text
        assert "suppressors" in text

    def test_mode_rank(self):
        table = build_table([0.9, 0.5], rule_groups=[])
        explanation = explain_tuple(table, TopKQuery(k=2), "t1")
        # t0 very likely present, so t1 most likely lands at rank 2
        assert explanation.rank_if_present_mode == 2
