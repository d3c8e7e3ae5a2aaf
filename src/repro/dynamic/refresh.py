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
  preparation's cached id column (one C-level ``index``), its new rank
  from a binary search over the ranked tuples (``bisect`` with the sort
  key as ``key=``, no materialised key list); the rest is one list
  insert/delete/replace, mirrored in the id column the refreshed
  preparation inherits;
* **rule index** — reused from the previous preparation.  No op but
  ``rule`` changes which tuples rules cover, and only a probability
  update of a rule member changes a ``Pr(R)``; that one sum is re-taken.
  A ``rule`` op and the removal of a rule member, where the table's
  shrink semantics apply, re-index the rules from the table;
* **columns** — left to the preparation's lazy ``cached_property``.

A refresh that cannot guarantee the exact cold order returns ``None``
and the entry dies by ordinary version purge — never a wrong order.
That happens on a version gap, and on a score move onto a sort key
another tuple holds: the key is ``(-score, str(tid))``, so this needs
two tids whose ``str()`` is equal (``1`` and ``"1"``), and the true
order among them is table insertion order, which surgery cannot see.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, List, Optional, Tuple

from repro.model.table import UncertainTable
from repro.query.prepare import PreparedRanking, index_rules

from repro.dynamic.delta import DELTA_OPS, TableDelta

#: The cache key of the one query shape refresh understands: trivial
#: predicate, rank by score descending (the serving layer's default).
DEFAULT_SHAPE_KEY = (("always",), ("score", True))


def _sort_key(tup: Any) -> Tuple[float, str]:
    return (-tup.score, str(tup.tid))


def _rank_of(tids: List[Any], tid: Any) -> Optional[int]:
    try:
        return tids.index(tid)
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
    tids = list(prepared.tids)
    rule_of = prepared.rule_of
    rule_probability = prepared.rule_probability
    if op in ("remove", "update", "score"):
        position = _rank_of(tids, delta.tid)
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
            del tids[position]
            if op == "remove" and delta.tid in rule_of:
                rule_of, rule_probability = index_rules(table)
    elif op == "rule":
        rule_of, rule_probability = index_rules(table)
    if op in ("add", "score"):
        tup = table.get(delta.tid)
        key = _sort_key(tup)
        # bisect_right: a fresh tuple is newest in insertion order, so
        # the stable ranking sort places it after any equal key.
        position = bisect_right(ranked, key, key=_sort_key)
        collides = position and _sort_key(ranked[position - 1]) == key
        if op == "score" and collides:
            # Equal sort key held by another tuple: the cold order among
            # equals is insertion order, which surgery cannot see.
            return None
        ranked.insert(position, tup)
        tids.insert(position, tup.tid)
    refreshed = PreparedRanking(
        table=prepared.table,
        ranked=tuple(ranked),
        rule_of=rule_of,
        rule_probability=rule_probability,
        source_version=delta.version,
        predicate=prepared.predicate,
        ranking=prepared.ranking,
    )
    # Seed the cached id column the way cached_property stores it, so
    # the next write does not rebuild it.
    refreshed.__dict__["tids"] = tuple(tids)
    return refreshed
