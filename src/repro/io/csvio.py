"""CSV persistence: a tuples file plus a rules file.

Layout:

* ``<stem>.tuples.csv`` — header ``tid,score,probability,<attr>...``;
  attribute columns are the union of attribute keys over all tuples
  (missing values are empty cells and are dropped on read).
* ``<stem>.rules.csv`` — header ``rule_id,members``; members are
  ``|``-separated tuple ids.

Tuple ids are written as strings; tables whose ids are not strings will
round-trip with stringified ids, which is the usual expectation for CSV.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import List, Union

from repro.exceptions import ValidationError
from repro.model.table import UncertainTable

_MEMBER_SEPARATOR = "|"


def _paths(stem: Union[str, Path]) -> tuple:
    stem = Path(stem)
    return (
        stem.with_suffix(".tuples.csv"),
        stem.with_suffix(".rules.csv"),
    )


def _score(text: str):
    """A score cell: an integer literal stays exact, so the model can
    refuse one float64 cannot hold instead of rounding it."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def write_table_csv(table: UncertainTable, stem: Union[str, Path]) -> None:
    """Write ``table`` to ``<stem>.tuples.csv`` and ``<stem>.rules.csv``.

    Existing files are overwritten.
    """
    tuples_path, rules_path = _paths(stem)
    attribute_keys: List[str] = []
    seen = set()
    for tup in table:
        for key in tup.attributes:
            if key not in seen:
                seen.add(key)
                attribute_keys.append(key)
    reserved = {"tid", "score", "probability"}
    clash = reserved & set(attribute_keys)
    if clash:
        raise ValidationError(
            f"attribute names clash with reserved CSV columns: {sorted(clash)}"
        )

    with open(tuples_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["tid", "score", "probability", *attribute_keys])
        for tup in table:
            row = [str(tup.tid), repr(float(tup.score)), repr(float(tup.probability))]
            for key in attribute_keys:
                value = tup.attributes.get(key, "")
                row.append("" if value == "" else str(value))
            writer.writerow(row)

    with open(rules_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["rule_id", "members"])
        for rule in table.multi_rules():
            writer.writerow(
                [
                    str(rule.rule_id),
                    _MEMBER_SEPARATOR.join(str(tid) for tid in rule.tuple_ids),
                ]
            )


def read_table_csv(
    stem: Union[str, Path], name: str = "uncertain_table"
) -> UncertainTable:
    """Read a table written by :func:`write_table_csv`.

    The rules file is optional: a missing ``<stem>.rules.csv`` yields an
    all-independent table.
    """
    tuples_path, rules_path = _paths(stem)
    table = UncertainTable(name=name)
    with open(tuples_path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise ValidationError(f"{tuples_path} is empty")
        for row in reader:
            attributes = {
                key: value
                for key, value in row.items()
                if key not in ("tid", "score", "probability") and value != ""
            }
            table.add(
                row["tid"],
                score=_score(row["score"]),
                probability=float(row["probability"]),
                **attributes,
            )
    if rules_path.exists():
        with open(rules_path, newline="") as handle:
            reader = csv.DictReader(handle)
            for row in reader:
                members = row["members"].split(_MEMBER_SEPARATOR)
                table.add_exclusive(row["rule_id"], *members)
    table.validate()
    return table
