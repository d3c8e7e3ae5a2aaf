"""Table deltas: the description of one committed table mutation.

A :class:`TableDelta` is a *descriptive* record of one committed table
mutation — which operation ran, which tuple or rule it touched, and the
table versions before and after it.  Deltas are emitted by
:class:`~repro.query.engine.UncertainDB` mutation methods after the
table layer has validated and applied the change (so a delta always
describes a mutation that *succeeded*), and are reconstructed on
replicas from the shipped WAL stream (:func:`delta_from_record`).  Their
one consumer is :meth:`~repro.query.prepare.PrepareCache.refresh`,
which carries warm preparations — and with them the columns the
dynamic indexes price — across the write.

Versioning contract: ``previous_version`` is the table version the
mutation was applied against and ``version`` the version it produced.
:func:`~repro.dynamic.refresh.refresh_prepared` advances a preparation
only when its ``source_version`` equals ``previous_version``; on any
gap the stale entry is purged and the next read re-prepares cold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

#: Mutation operations a delta can describe.  The vocabulary matches the
#: WAL record ops of :mod:`repro.durable.wal` (``update`` is a
#: probability update), plus ``score`` for the score-update mutation.
DELTA_OPS = ("add", "remove", "update", "score", "rule")


@dataclass(frozen=True)
class TableDelta:
    """One committed single-tuple (or single-rule) table mutation.

    :param table: registered table name the mutation applies to.
    :param op: one of :data:`DELTA_OPS`.
    :param previous_version: table version the mutation was applied
        against.
    :param version: table version after the mutation.
    :param tid: the tuple id (``add`` / ``remove`` / ``update`` /
        ``score``).
    :param score: the tuple's score (``add``) or new score (``score``).
    :param probability: the tuple's membership probability (``add``) or
        new probability (``update``).
    :param attributes: the tuple's attribute payload (``add`` only).
    :param rule_id: the generation rule id (``rule`` only).
    :param members: the rule's member tuple ids (``rule`` only).
    """

    table: str
    op: str
    previous_version: int
    version: int
    tid: Any = None
    score: Optional[float] = None
    probability: Optional[float] = None
    attributes: Any = None
    rule_id: Any = None
    members: Tuple[Any, ...] = field(default=())


def delta_from_record(record: Dict[str, Any]) -> Optional[TableDelta]:
    """Reconstruct the :class:`TableDelta` described by one WAL record.

    The replica-side twin of the primary's in-process delta emission:
    after :func:`repro.durable.recover.apply_record` applies a shipped
    record, the applier refreshes its warm preparations with the
    equivalent delta, so a replica's prepared state (and the dynamic
    indexes priced on it) advances as the primary's does, without a
    cold re-prepare.

    :param record: a decoded WAL record dict (``op`` / ``table`` /
        ``version`` plus op-specific fields; tids in the WAL's encoded
        form).
    :returns: the delta, or ``None`` for record types that do not
        mutate tuple/rule state (``register`` / ``drop`` / ``serve``).
    """
    from repro.durable.wal import decode_tid

    op = record.get("op")
    if op not in DELTA_OPS:
        return None
    version = int(record["version"])
    base: Dict[str, Any] = dict(
        table=record["table"],
        op=op,
        previous_version=version - 1,
        version=version,
    )
    if op == "add":
        return TableDelta(
            tid=decode_tid(record["tid"]),
            score=float(record["score"]),
            probability=float(record["probability"]),
            attributes=record.get("attributes") or None,
            **base,
        )
    if op == "remove":
        return TableDelta(tid=decode_tid(record["tid"]), **base)
    if op == "update":
        return TableDelta(
            tid=decode_tid(record["tid"]),
            probability=float(record["probability"]),
            **base,
        )
    if op == "score":
        return TableDelta(
            tid=decode_tid(record["tid"]),
            score=float(record["score"]),
            **base,
        )
    return TableDelta(
        rule_id=record["rule_id"],
        members=tuple(decode_tid(m) for m in record["members"]),
        **base,
    )
