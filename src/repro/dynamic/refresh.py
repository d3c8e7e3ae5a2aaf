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
* **rule index** — reused from the previous preparation.  No op but
  ``rule`` changes which tuples rules cover, and only a probability
  update of a rule member changes a ``Pr(R)``; that one sum is re-taken.
  A ``rule`` op and the removal of a rule member, where the table's
  shrink semantics apply, re-index the rules from the table.  Rule
  slots are renumbered by first encounter only when rule membership
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

from repro.core.kernel import TableColumns, rule_slots
from repro.model.table import UncertainTable
from repro.query.prepare import PreparedRanking, index_rules

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
            tids = columns.tids
            columns = replace(
                columns,
                tids=tids[:position] + tids[position + 1 :],
                score=_without(columns.score, position),
                probability=_without(columns.probability, position),
                rule_index=_without(columns.rule_index, position),
            )
            if op == "remove" and delta.tid in rule_of:
                rule_of, rule_probability = index_rules(table)
    elif op == "rule":
        rule_of, rule_probability = index_rules(table)
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
        # The row lands independent (rule slot -1); a moved member is
        # renumbered with its rule below.
        columns = replace(
            columns,
            tids=tids[:inserted] + (tup.tid,) + tids[inserted:],
            score=_with(columns.score, inserted, tup.score),
            probability=_with(columns.probability, inserted, tup.probability),
            rule_index=_with(columns.rule_index, inserted, -1),
        )
    # A new rule_of means the rules were re-indexed (membership may have
    # changed); a moved member can change its rule's first encounter.
    if rule_of is not prepared.rule_of or (
        op == "score" and delta.tid in rule_of
    ):
        rule_index, rule_ids = rule_slots(columns.tids, rule_of)
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
