"""In-place refresh of warm :class:`~repro.query.prepare.PreparedRanking`\\ s.

The prepare cache keys entries by table *version*, so without this
module every mutation would condemn every warm preparation: the next
read would pay selection + sort + rule indexing again even though a
point mutation moves at most one rank.  :func:`refresh_prepared`
advances a default-shape preparation (trivial predicate, rank by score
descending) across one :class:`~repro.dynamic.delta.TableDelta` and
produces exactly the object :func:`~repro.query.prepare.prepare_ranking`
would build against the mutated table, at the cost of one point write
on its columns:

* **ranking** — the written tuple's old rank is a binary search of the
  columns for its old sort key ``(-score, str(tid))``: the delta
  carries the old score of a ``remove`` or ``score`` write, and an
  ``update`` keeps the tuple's score.  Its new rank is a second binary
  search.  Each column then loses or gains one row by concatenation, or
  is copied and assigned — never written where an older preparation or
  a scan still holds it;
* **rule index** — reused from the previous preparation.  Only a
  ``rule`` write (a new rule, or a join growing one) and the removal of
  a rule member change which tuples rules cover, and only those and a
  probability update of a rule member change a ``Pr(R)``.  Each touches
  one rule: its ``rule_of`` entries and its one ``Pr(R)`` sum are
  re-read from the table, the rest copied.  Rule slots are renumbered
  by first encounter (:func:`~repro.core.kernel.first_encounter_slots`,
  one vectorised pass over the slot column) only when rule membership
  changes or a member moves.

A refresh that cannot guarantee the exact cold order returns ``None``
and the entry dies by ordinary version purge — never a wrong order.
That happens on a version gap, on a ``remove`` or ``score`` delta
without the old score, and on a score move onto a sort key another
tuple holds:
this needs two tids whose ``str()`` is equal (``1`` and ``"1"``), and
the true order among them is table insertion order, which surgery
cannot see.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import replace
from typing import Any, Optional, Tuple

import numpy as np

from repro.core.kernel import TableColumns, first_encounter_slots
from repro.model.table import UncertainTable
from repro.query.prepare import PreparedRanking

from repro.dynamic.delta import DELTA_OPS, TableDelta

#: The cache key of the one query shape refresh understands: trivial
#: predicate, rank by score descending (the serving layer's default).
DEFAULT_SHAPE_KEY = (("always",), ("score", True))


def _sort_key(score: float, tid: Any) -> Tuple[float, str]:
    return (-score, str(tid))


def _bisect(columns: TableColumns, key: Tuple[float, str], right=False) -> int:
    """Where ``key`` falls in the ranking of ``columns`` (before rows of
    an equal key, or after them with ``right``)."""
    score, tids = columns.score, columns.tids
    return (bisect_right if right else bisect_left)(
        range(len(tids)), key, key=lambda i: _sort_key(score[i], tids[i])
    )


def _rank_of(columns: TableColumns, score: float, tid: Any) -> Optional[int]:
    """The rank of ``tid``, ranked under ``score``, in ``columns``."""
    key = _sort_key(score, tid)
    tids = columns.tids
    # Tids whose str() is equal share a sort key; step past the others.
    for position in range(_bisect(columns, key), len(tids)):
        if tids[position] == tid:
            return position
        if _sort_key(columns.score[position], tids[position]) != key:
            break
    return None


def _without(column: np.ndarray, row: int) -> np.ndarray:
    return np.concatenate((column[:row], column[row + 1 :]))


def _with(column: np.ndarray, row: int, value: Any) -> np.ndarray:
    return np.concatenate((column[:row], [value], column[row:]))


def _index_rule(rule_of, rule_probability, table: UncertainTable, tid: Any) -> None:
    """Re-read the rule of member ``tid`` into copies of a preparation's
    ``rule_of`` and ``rule_probability``."""
    rule = table.rule_of(tid)
    for member in rule.tuple_ids:
        rule_of[member] = rule
    rule_probability[rule.rule_id] = table.rule_probability(rule)


def refresh_prepared(
    prepared: PreparedRanking,
    table: UncertainTable,
    delta: TableDelta,
) -> Optional[PreparedRanking]:
    """Advance one default-shape preparation across one delta.

    :param prepared: a preparation of ``table`` at
        ``delta.previous_version`` with the trivial predicate (so
        ``prepared.table is table``).
    :param table: the table the delta has already been applied to.
    :param delta: the committed mutation.
    :returns: the refreshed preparation at ``delta.version``, or
        ``None`` when the refresh cannot reproduce the exact cold
        ranking (the caller drops the entry instead).
    """
    if prepared.source_version != delta.previous_version:
        return None
    op = delta.op
    if op not in DELTA_OPS:
        return None
    columns = prepared.columns
    rule_of = prepared.rule_of
    rule_probability = prepared.rule_probability
    # The rule slot the write touched, if any: that of the row a remove
    # or score write takes out, or of the rule a rule write grows.
    slot = -1
    if op in ("remove", "update", "score"):
        old_score = (
            table.get(delta.tid).score if op == "update" else delta.old_score
        )
        if old_score is None:
            return None
        position = _rank_of(columns, old_score, delta.tid)
        if position is None:
            return None
        if op == "update":
            probability = columns.probability.copy()
            probability[position] = table.get(delta.tid).probability
            columns = replace(columns, probability=probability)
            rule = rule_of.get(delta.tid)
            if rule is not None:
                rule_probability = dict(rule_probability)
                rule_probability[rule.rule_id] = table.rule_probability(rule)
        else:
            slot = int(columns.rule_index[position])
            tids = columns.tids
            columns = replace(
                columns,
                tids=tids[:position] + tids[position + 1 :],
                score=_without(columns.score, position),
                probability=_without(columns.probability, position),
                rule_index=_without(columns.rule_index, position),
            )
            if op == "remove" and slot >= 0:
                rule_of, rule_probability = dict(rule_of), dict(rule_probability)
                rule = rule_of.pop(delta.tid)
                del rule_probability[rule.rule_id]
                survivor = next(t for t in rule.tuple_ids if t != delta.tid)
                if table.multi_rule_id_of(survivor) is None:
                    # Shrunk to one member: the rule is gone.
                    del rule_of[survivor]
                    columns.rule_index[columns.rule_index == slot] = -1
                else:
                    _index_rule(rule_of, rule_probability, table, survivor)
    elif op == "rule":
        rule = table.rule_of(delta.members[0])
        if rule.is_multi:
            rule_ids = columns.rule_ids
            if rule.rule_id in rule_probability:
                slot = rule_ids.index(rule.rule_id)
            else:
                slot, rule_ids = len(rule_ids), rule_ids + (rule.rule_id,)
            rule_index = columns.rule_index.copy()
            for tid in delta.members:
                position = _rank_of(columns, table.get(tid).score, tid)
                if position is None:
                    return None
                rule_index[position] = slot
            columns = replace(columns, rule_index=rule_index, rule_ids=rule_ids)
            rule_of, rule_probability = dict(rule_of), dict(rule_probability)
            _index_rule(rule_of, rule_probability, table, rule.tuple_ids[0])
    if op in ("add", "score"):
        tup = table.get(delta.tid)
        key = _sort_key(tup.score, tup.tid)
        # bisect right: a fresh tuple is newest in insertion order, so
        # the stable ranking sort places it after any equal key.
        inserted = _bisect(columns, key, right=True)
        tids = columns.tids
        if op == "score" and inserted and _sort_key(
            columns.score[inserted - 1], tids[inserted - 1]
        ) == key:
            # Equal sort key held by another tuple: the cold order among
            # equals is insertion order, which surgery cannot see.
            return None
        # A fresh row is independent (slot -1); a moved one keeps its
        # rule slot.
        columns = replace(
            columns,
            tids=tids[:inserted] + (tup.tid,) + tids[inserted:],
            score=_with(columns.score, inserted, tup.score),
            probability=_with(columns.probability, inserted, tup.probability),
            rule_index=_with(columns.rule_index, inserted, slot),
        )
    # Rule membership changed, or a member moved: its rule's first
    # encounter may have too.
    if slot >= 0:
        rule_index, rule_ids = first_encounter_slots(
            columns.rule_index, columns.rule_ids
        )
        columns = replace(columns, rule_index=rule_index, rule_ids=rule_ids)
    return PreparedRanking(
        table=prepared.table,
        columns=columns,
        rule_of=rule_of,
        rule_probability=rule_probability,
        source_version=delta.version,
        predicate=prepared.predicate,
        ranking=prepared.ranking,
    )
