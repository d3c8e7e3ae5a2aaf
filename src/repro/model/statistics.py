"""Table statistics: the catalog summary the planner works from.

A real system would maintain these in its catalog; here one vectorised
function computes them on demand from columns
(:meth:`TableStatistics.from_columns`), for prepared rankings
(:attr:`repro.query.prepare.PreparedRanking.statistics`) and tables
(:func:`collect_statistics`) alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.model.table import UncertainTable


@dataclass(frozen=True)
class TableStatistics:
    """One-pass summary of an uncertain table.

    :param n_tuples: tuple count.
    :param n_rules: multi-tuple rule count.
    :param mean_probability: mean membership probability over tuples.
    :param std_probability: its standard deviation.
    :param expected_world_size: ``Σ Pr(t)`` — the mean possible-world
        cardinality.
    :param mean_rule_size: mean members per multi-tuple rule (0 if none).
    :param max_rule_size: largest rule (0 if none).
    :param mean_rule_probability: mean ``Pr(R)`` over multi-tuple rules.
    :param rule_tuple_fraction: fraction of tuples involved in rules.
    :param probability_histogram: 10-bin histogram of membership
        probabilities over (0, 1].
    """

    n_tuples: int
    n_rules: int
    mean_probability: float
    std_probability: float
    expected_world_size: float
    mean_rule_size: float
    max_rule_size: int
    mean_rule_probability: float
    rule_tuple_fraction: float
    probability_histogram: Tuple[int, ...]

    @classmethod
    def from_columns(
        cls,
        probability: np.ndarray,
        rule_index: np.ndarray,
        rule_probabilities: Sequence[float],
    ) -> "TableStatistics":
        """Summarise a table given as columns, rows in any order:
        ``rule_index`` holds each tuple's multi-tuple rule slot (``-1``
        when independent) and ``rule_probabilities[s]`` is slot ``s``'s
        ``Pr(R)``.  Counts and the histogram do not depend on the row
        order; the float summaries agree across orders to the last bits.
        """
        n = len(probability)
        n_rules = len(rule_probabilities)
        sizes = np.bincount(rule_index[rule_index >= 0], minlength=n_rules)
        members = int(sizes.sum())
        histogram, _ = np.histogram(probability, bins=10, range=(0.0, 1.0))
        return cls(
            n_tuples=n,
            n_rules=n_rules,
            mean_probability=float(probability.mean()) if n else 0.0,
            std_probability=float(probability.std()) if n else 0.0,
            expected_world_size=float(probability.sum()),
            mean_rule_size=members / n_rules if n_rules else 0.0,
            max_rule_size=int(sizes.max()) if n_rules else 0,
            mean_rule_probability=(
                sum(rule_probabilities) / n_rules if n_rules else 0.0
            ),
            rule_tuple_fraction=members / n if n else 0.0,
            probability_histogram=tuple(int(c) for c in histogram),
        )


def collect_statistics(table: UncertainTable) -> TableStatistics:
    """:class:`TableStatistics` of ``table``, from its tuples in insertion
    order."""
    rules = table.multi_rules()
    slot_of = {
        tid: slot for slot, rule in enumerate(rules) for tid in rule.tuple_ids
    }
    tuples = table.tuples()
    return TableStatistics.from_columns(
        np.array([t.probability for t in tuples], dtype=np.float64),
        np.array([slot_of.get(t.tid, -1) for t in tuples], dtype=np.int64),
        [table.rule_probability(rule) for rule in rules],
    )
