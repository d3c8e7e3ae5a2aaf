"""In-place refresh of warm :class:`~repro.query.prepare.PreparedRanking`\\ s.

The prepare cache keys entries by table *version*, so without this
module every mutation would condemn every warm preparation: the next
read would pay selection + sort + rule indexing again even though a
point mutation moves at most one rank.  :func:`refresh_prepared`
advances a default-shape preparation (trivial predicate, rank by score
descending) across one :class:`~repro.dynamic.delta.TableDelta` and
produces exactly the object :func:`~repro.query.prepare.prepare_ranking`
would build against the mutated table, at the cost of one point write:

* **ranking** — the written tuple's old rank comes from the
  preparation's cached id column (one C-level ``index``, started at a
  binary search of the unchanged sort key for an update), its new rank
  from a binary search over the ranked tuples (``bisect`` with the sort
  key as ``key=``, no materialised key list); the rest is one list
  insert/delete/replace, mirrored in the id column the refreshed
  preparation inherits;
* **rule index** — reused from the previous preparation.  No op but
  ``rule`` changes which tuples rules cover, and only a probability
  update of a rule member changes a ``Pr(R)``; that one sum is re-taken.
  A ``rule`` op and the removal of a rule member, where the table's
  shrink semantics apply, re-index the rules from the table;
* **columns** — carried across when the old preparation had
  materialised them (:attr:`~repro.query.prepare.PreparedRanking
  .columns` is lazy): a row inserted or deleted by concatenation, or a
  copy-and-assign, at the written ranks — never a write into an array
  an older preparation or a scan still holds.  Rule slots are renumbered by
  first encounter only when rule membership changes or a member moves.
  A preparation that never materialised its columns stays lazy.

A refresh that cannot guarantee the exact cold order returns ``None``
and the entry dies by ordinary version purge — never a wrong order.
That happens on a version gap, and on a score move onto a sort key
another tuple holds: the key is ``(-score, str(tid))``, so this needs
two tids whose ``str()`` is equal (``1`` and ``"1"``), and the true
order among them is table insertion order, which surgery cannot see.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Optional, Tuple

import numpy as np

from repro.core.kernel import TableColumns, rule_slots
from repro.model.table import UncertainTable
from repro.query.prepare import PreparedRanking, index_rules

from repro.dynamic.delta import DELTA_OPS, TableDelta

#: The cache key of the one query shape refresh understands: trivial
#: predicate, rank by score descending (the serving layer's default).
DEFAULT_SHAPE_KEY = (("always",), ("score", True))


def _sort_key(tup: Any) -> Tuple[float, str]:
    return (-tup.score, str(tup.tid))


def _edited(
    column: np.ndarray, removed: Optional[int], inserted: Optional[int], value
) -> np.ndarray:
    """``column`` without row ``removed``, then with ``value`` at row
    ``inserted`` (either may be ``None``); a new array whenever either
    is given, so no array an older preparation holds is written."""
    if removed is not None:
        column = np.concatenate((column[:removed], column[removed + 1 :]))
    if inserted is not None:
        column = np.concatenate(
            (column[:inserted], np.array([value], column.dtype),
             column[inserted:])
        )
    return column


def _rank_of(
    prepared: PreparedRanking, table: UncertainTable, delta: TableDelta
) -> Optional[int]:
    """The written tuple's rank in ``prepared``.  An update keeps the
    tuple's sort key, so a binary search finds where to start looking;
    a remove or a score move scans the id column from the top."""
    start = 0
    if delta.op == "update":
        key = _sort_key(table.get(delta.tid))
        start = bisect_left(prepared.ranked, key, key=_sort_key)
    try:
        return prepared.tids.index(delta.tid, start)
    except ValueError:
        return None


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
    ranked = list(prepared.ranked)
    tids = prepared.tids
    rule_of = prepared.rule_of
    rule_probability = prepared.rule_probability
    removed = inserted = None
    if op in ("remove", "update", "score"):
        position = _rank_of(prepared, table, delta)
        if position is None:
            return None
        if op == "update":
            ranked[position] = table.get(delta.tid)
            rule = rule_of.get(delta.tid)
            if rule is not None:
                rule_probability = dict(rule_probability)
                rule_probability[rule.rule_id] = table.rule_probability(rule)
        else:
            del ranked[position]
            tids = tids[:position] + tids[position + 1 :]
            removed = position
            if op == "remove" and delta.tid in rule_of:
                rule_of, rule_probability = index_rules(table)
    elif op == "rule":
        rule_of, rule_probability = index_rules(table)
    if op in ("add", "score"):
        tup = table.get(delta.tid)
        key = _sort_key(tup)
        # bisect_right: a fresh tuple is newest in insertion order, so
        # the stable ranking sort places it after any equal key.
        inserted = bisect_right(ranked, key, key=_sort_key)
        collides = inserted and _sort_key(ranked[inserted - 1]) == key
        if op == "score" and collides:
            # Equal sort key held by another tuple: the cold order among
            # equals is insertion order, which surgery cannot see.
            return None
        ranked.insert(inserted, tup)
        tids = tids[:inserted] + (tup.tid,) + tids[inserted:]
    refreshed = PreparedRanking(
        table=prepared.table,
        ranked=tuple(ranked),
        rule_of=rule_of,
        rule_probability=rule_probability,
        source_version=delta.version,
        predicate=prepared.predicate,
        ranking=prepared.ranking,
    )
    # Seed the cached properties the way cached_property stores them,
    # so the next write and the next columnar read rebuild neither.
    refreshed.__dict__["tids"] = tids
    columns = prepared.__dict__.get("columns")
    if columns is None:
        return refreshed
    # An added or moved tuple lands independent (rule slot -1); a moved
    # member is renumbered with its rule below.
    new_row = (None, None, None) if inserted is None else (
        tup.score, tup.probability, -1
    )
    score, probability, rule_index = (
        _edited(column, removed, inserted, value)
        for column, value in zip(
            (columns.score, columns.probability, columns.rule_index), new_row
        )
    )
    if op == "update":
        probability = probability.copy()
        probability[position] = ranked[position].probability
    rule_ids = columns.rule_ids
    # A new rule_of means the rules were re-indexed (membership may have
    # changed); a moved member can change its rule's first encounter.
    if rule_of is not prepared.rule_of or (
        op == "score" and delta.tid in rule_of
    ):
        rule_index, rule_ids = rule_slots(tids, rule_of)
    refreshed.__dict__["columns"] = TableColumns(
        tids=tids,
        score=score,
        probability=probability,
        rule_index=rule_index,
        rule_ids=rule_ids,
    )
    return refreshed
