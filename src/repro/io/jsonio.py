"""JSON persistence: one self-contained document per uncertain table.

Schema::

    {
      "name": "...",
      "tuples": [
        {"tid": ..., "score": ..., "probability": ..., "attributes": {...}},
        ...
      ],
      "rules": [
        {"rule_id": ..., "members": [...]},
        ...
      ]
    }

Attribute values must be JSON-serialisable.  Tuple ids round-trip
exactly for JSON-native id types (strings, ints) **and** for Python
tuples: JSON has no tuple type, so a tuple tid is written as an array
and converted back to a (possibly nested) tuple on read — an array can
never be a live tid anyway (lists are unhashable), so the conversion is
unambiguous.  Other non-native id types (e.g. ``frozenset``) are not
supported by this format.

Documents are validated on read: a duplicate tuple id or a rule member
referencing an unknown tuple id raises a
:class:`~repro.exceptions.ValidationError` naming the offending id, so
a corrupt document fails loudly instead of building a skewed table.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from repro.exceptions import ValidationError
from repro.model.table import UncertainTable
from repro.model.tuples import UncertainTuple


def table_to_dict(table: UncertainTable) -> Dict[str, Any]:
    """The JSON-ready dictionary form of a table."""
    return {
        "name": table.name,
        "tuples": [
            {
                "tid": tup.tid,
                "score": float(tup.score),
                "probability": float(tup.probability),
                "attributes": dict(tup.attributes),
            }
            for tup in table
        ],
        "rules": [
            {"rule_id": rule.rule_id, "members": list(rule.tuple_ids)}
            for rule in table.multi_rules()
        ],
    }


def _revive_tid(tid: Any) -> Any:
    """Map a JSON-decoded tid back to its Python form.

    Tuple tids serialise as arrays; arrays therefore decode back to
    tuples (recursively).  Everything else passes through.
    """
    if isinstance(tid, list):
        return tuple(_revive_tid(item) for item in tid)
    return tid


def table_from_dict(document: Dict[str, Any]) -> UncertainTable:
    """Rebuild a table from :func:`table_to_dict` output.

    :raises ValidationError: when required keys are missing, a tuple id
        appears twice, or a rule references an id that is not in the
        document (the error names the offending id).
    """
    try:
        name = document.get("name", "uncertain_table")
        table = UncertainTable(name=name)
        seen: set = set()
        for entry in document["tuples"]:
            tid = _revive_tid(entry["tid"])
            if tid in seen:
                raise ValidationError(
                    f"table document {name!r} contains duplicate "
                    f"tuple id {tid!r}"
                )
            seen.add(tid)
            table.add_tuple(UncertainTuple(
                tid,
                entry["score"],
                entry["probability"],
                dict(entry.get("attributes", {})),
            ))
        for entry in document.get("rules", []):
            members = [_revive_tid(member) for member in entry["members"]]
            for member in members:
                if member not in seen:
                    raise ValidationError(
                        f"rule {entry['rule_id']!r} references unknown "
                        f"tuple id {member!r}"
                    )
            table.add_exclusive(_revive_tid(entry["rule_id"]), *members)
    except KeyError as missing:
        raise ValidationError(f"table document missing key {missing}") from None
    table.validate()
    return table


def write_table_json(table: UncertainTable, path: Union[str, Path]) -> None:
    """Write the table as a JSON document (overwrites)."""
    with open(path, "w") as handle:
        json.dump(table_to_dict(table), handle, indent=2)


def read_table_json(path: Union[str, Path]) -> UncertainTable:
    """Read a table written by :func:`write_table_json`."""
    with open(path) as handle:
        document = json.load(handle)
    return table_from_dict(document)
