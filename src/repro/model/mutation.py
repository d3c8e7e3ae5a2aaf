"""One table write as a value: the :class:`Mutation` record.

The model of Section 2 changes state in a handful of ways: a tuple
enters or leaves, its score or probability changes, or a generation
rule forms or grows.  A :class:`Mutation` names one such write.  The
same value travels every layer:

* :meth:`UncertainTable.apply <repro.model.table.UncertainTable.apply>`
  validates and applies it, and returns the *applied* copy, which adds
  the table versions around the write and what the write touched (the
  tuple's old score, the rule members);
* :meth:`UncertainDB.apply <repro.query.engine.UncertainDB.apply>`
  refreshes warm preparations from the applied copy
  (:func:`~repro.dynamic.refresh.refresh_prepared`);
* :meth:`DurableDB.apply <repro.durable.db.DurableDB.apply>` journals
  :meth:`Mutation.to_record`, recovery and replicas read it back with
  :meth:`Mutation.from_record` and apply it again.

The op vocabulary is the WAL's: ``add``, ``rule`` (a new multi-tuple
rule), ``join`` (an independent tuple moves into an existing rule),
``remove``, ``update`` (a probability) and ``score``.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Callable, Dict, Mapping, NamedTuple, Optional, Tuple

#: The fields each op's WAL record carries besides ``op`` / ``table`` /
#: ``version``.
FIELDS: Dict[str, Tuple[str, ...]] = {
    "add": ("tid", "score", "probability", "attributes"),
    "rule": ("rule_id", "members"),
    "join": ("rule_id", "tid"),
    "remove": ("tid",),
    "update": ("tid", "probability"),
    "score": ("tid", "score"),
}


def encode_tid(tid: Any) -> Any:
    """Map a tuple id to its JSON form (tuples become arrays)."""
    if isinstance(tid, tuple):
        return [encode_tid(item) for item in tid]
    return tid


def decode_tid(tid: Any) -> Any:
    """Inverse of :func:`encode_tid` (arrays become tuples, recursively)."""
    if isinstance(tid, list):
        return tuple(decode_tid(item) for item in tid)
    return tid


#: Field -> (to its record form, from its record form).
_CODECS: Dict[str, Tuple[Callable[[Any], Any], Callable[[Any], Any]]] = {
    "tid": (encode_tid, decode_tid),
    "members": (lambda members: encode_tid(tuple(members)), decode_tid),
    "score": (float, float),
    "probability": (float, float),
    "attributes": (dict, dict),
    "rule_id": (encode_tid, decode_tid),
}


class Mutation(NamedTuple):
    """One write to one table: an immutable record.

    A named tuple rather than a frozen dataclass: every write builds
    two (the request and its applied copy), and a tuple builds in a
    third of the time, which bulk loads through ``UncertainTable.add``
    notice.

    :param table: the table's name (its registry name above the table
        layer).
    :param op: one of :data:`FIELDS`.
    :param previous_version: table version the write was applied
        against (set on the applied copy).
    :param version: table version the write produced (set on the
        applied copy).
    :param tid: the tuple (``add`` / ``join`` / ``remove`` / ``update``
        / ``score``).
    :param score: the tuple's score (``add``) or new score (``score``).
    :param old_score: the tuple's score before a ``remove`` or
        ``score`` write (set on the applied copy): refresh finds the
        tuple's old rank by it.
    :param probability: the tuple's probability (``add``) or new
        probability (``update``).
    :param attributes: the tuple's attribute payload (``add``).  A dict
        field, not keywords, so any attribute name passes.
    :param rule_id: the generation rule (``rule`` / ``join``).
    :param members: the tuples the write puts into the rule: every
        member of a new rule, or (on the applied copy) the one tuple a
        join moved in.
    """

    table: str
    op: str
    previous_version: Optional[int] = None
    version: Optional[int] = None
    tid: Any = None
    score: Optional[float] = None
    old_score: Optional[float] = None
    probability: Optional[float] = None
    attributes: Mapping[str, Any] = MappingProxyType({})
    rule_id: Any = None
    members: Tuple[Any, ...] = ()

    def to_record(self) -> Dict[str, Any]:
        """The WAL record of this (applied) write."""
        record = {"op": self.op, "table": self.table, "version": self.version}
        for name in FIELDS[self.op]:
            record[name] = _CODECS[name][0](getattr(self, name))
        return record

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> Optional["Mutation"]:
        """The write a WAL record describes, or ``None`` for a record
        that is not a table write (``register`` / ``drop`` /
        ``serve``).  Its versions are the record's."""
        names = FIELDS.get(record.get("op"))
        if names is None:
            return None
        version = int(record["version"])
        fields = {
            name: _CODECS[name][1](record[name]) for name in names if name in record
        }
        return cls(
            record["table"], record["op"], version - 1, version, **fields
        )
