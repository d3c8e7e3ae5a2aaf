"""Tests for in-place table mutation (remove_tuple / update_probability)."""

import pytest

from repro.core.exact import exact_topk_probabilities
from repro.exceptions import UnknownTupleError, ValidationError
from repro.query.topk import TopKQuery
from repro.semantics.naive import naive_topk_probabilities
from tests.conftest import build_table


class TestRemoveTuple:
    def test_remove_independent(self):
        table = build_table([0.5, 0.4, 0.3], rule_groups=[])
        removed = table.remove_tuple("t1")
        assert removed.probability == 0.4
        assert len(table) == 2
        assert "t1" not in table
        table.validate()

    def test_remove_independent_with_explicit_singleton_rule(self):
        table = build_table([0.5, 0.4, 0.3], rule_groups=[[0, 2]])
        table.add_exclusive("solo", "t1")
        assert table.rule_of("t1").rule_id == "solo"
        table.remove_tuple("t1")
        assert "solo" not in {rule.rule_id for rule in table.rules()}
        assert [set(rule.tuple_ids) for rule in table.multi_rules()] == [
            {"t0", "t2"}
        ]
        table.validate()

    def test_remove_unknown_raises(self):
        table = build_table([0.5], rule_groups=[])
        with pytest.raises(UnknownTupleError):
            table.remove_tuple("ghost")

    def test_remove_rule_member_shrinks_rule(self):
        table = build_table([0.3, 0.3, 0.3, 0.5], rule_groups=[[0, 1, 2]])
        table.remove_tuple("t1")
        rule = table.rule_of("t0")
        assert set(rule.tuple_ids) == {"t0", "t2"}
        table.validate()

    def test_remove_leaves_singleton_independent(self):
        table = build_table([0.3, 0.3, 0.5], rule_groups=[[0, 1]])
        table.remove_tuple("t0")
        assert table.is_independent("t1")
        assert table.multi_rules() == []
        table.validate()

    def test_removal_updates_query_answers(self):
        table = build_table([0.6, 0.5, 0.4], rule_groups=[])
        before = exact_topk_probabilities(table, TopKQuery(k=1))
        assert before["t1"] == pytest.approx(0.5 * 0.4)
        table.remove_tuple("t0")
        after = exact_topk_probabilities(table, TopKQuery(k=1))
        assert after["t1"] == pytest.approx(0.5)
        truth = naive_topk_probabilities(table, TopKQuery(k=1))
        assert after == pytest.approx(truth)

    def test_iteration_order_preserved(self):
        table = build_table([0.5, 0.4, 0.3], rule_groups=[])
        table.remove_tuple("t1")
        assert [t.tid for t in table] == ["t0", "t2"]


class TestUpdateProbability:
    def test_update_independent(self):
        table = build_table([0.5, 0.4], rule_groups=[])
        updated = table.update_probability("t0", 0.9)
        assert updated.probability == 0.9
        assert table.probability("t0") == 0.9

    def test_update_respects_rule_budget(self):
        table = build_table([0.4, 0.5, 0.2], rule_groups=[[0, 1]])
        with pytest.raises(ValidationError):
            table.update_probability("t0", 0.6)
        # unchanged on failure
        assert table.probability("t0") == 0.4

    def test_update_within_rule_budget(self):
        table = build_table([0.4, 0.5, 0.2], rule_groups=[[0, 1]])
        table.update_probability("t0", 0.5)
        assert table.rule_probability(table.rule_of("t0")) == pytest.approx(1.0)
        table.validate()

    def test_update_rejects_illegal_probability(self):
        table = build_table([0.5], rule_groups=[])
        with pytest.raises(ValidationError):
            table.update_probability("t0", 0.0)

    def test_update_changes_query_answers(self):
        table = build_table([0.6, 0.5], rule_groups=[])
        table.update_probability("t0", 0.999)
        probabilities = exact_topk_probabilities(table, TopKQuery(k=1))
        assert probabilities["t1"] == pytest.approx(0.5 * 0.001)
