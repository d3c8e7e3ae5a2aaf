"""Explanations and sensitivity analysis for top-k probabilities.

Answering *"why is ``Pr^k(t)`` what it is?"* matters in the paper's
application domains (an analyst staring at iceberg R14 wants to know
what keeps it out of the answer).  Everything needed is already in the
PT-k machinery:

* the compressed dominant set of ``t`` shows exactly which tuples and
  rule-tuples compete with it (and which rule-mates were removed by
  Corollary 2);
* the position distribution ``Pr(t, j)`` (Equation 3) shows *where* in
  the top-k ``t`` tends to land;
* a unit's *influence* — how much ``Pr^k(t)`` would change if that
  competing unit were removed — has a closed form:

  .. math::

      Pr^k_{-u}(t) - Pr^k(t) = Pr(t) \\cdot Pr(u) \\cdot
          Pr\\big(|T(t) \\setminus u| = k - 1\\big)

  (removing ``u`` helps exactly in the worlds where ``u`` appears and
  exactly ``k-1`` of the others do — the worlds where ``u`` personally
  pushes ``t`` out of the top-k).

The count distribution of ``T(t) \\ u_i`` is the convolution of the
DP vector of the units before ``u_i`` with that of the units after it,
so one forward and one backward Theorem-2 chain
(:func:`~repro.core.kernel.dp_extend_chain`) give every influence:
``Pr(|T(t) \\ u_i| = k-1) = sum_j pre_i[j] · suf_{m-1-i}[k-1-j]``.
Every term is a product of non-negative numbers, so no influence
cancels or divides, even for units at ``Pr(u) -> 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Tuple

import numpy as np

from repro.core import kernel
from repro.core.rule_compression import (
    CompressionUnit,
    DominantSetScan,
    rule_index_of_table,
)
from repro.exceptions import UnknownTupleError
from repro.model.table import UncertainTable
from repro.query.topk import TopKQuery


@dataclass(frozen=True)
class UnitInfluence:
    """How much one competing unit suppresses ``Pr^k(t)``.

    :param unit: the competing compressed unit.
    :param influence: ``Pr^k_{-unit}(t) - Pr^k(t)`` — the probability
        gained if the unit's tuples were dropped from the table.  Always
        non-negative.
    """

    unit: CompressionUnit
    influence: float


@dataclass(frozen=True)
class Explanation:
    """A full account of one tuple's top-k probability.

    :param tid: the explained tuple.
    :param k: the query's k.
    :param membership_probability: ``Pr(t)`` (the upper bound of
        Theorem 3).
    :param topk_probability: ``Pr^k(t)``.
    :param position_distribution: ``Pr(t, j)`` for ``j = 1..k``.
    :param dominant_units: the compressed dominant set ``T(t)``.
    :param excluded_rule_mates: rule-mates removed by Corollary 2.
    :param influences: per-unit influence, strongest first.
    """

    tid: Any
    k: int
    membership_probability: float
    topk_probability: float
    position_distribution: Tuple[float, ...]
    dominant_units: Tuple[CompressionUnit, ...]
    excluded_rule_mates: Tuple[Any, ...]
    influences: Tuple[UnitInfluence, ...]

    @property
    def rank_if_present_mode(self) -> int:
        """The most likely rank of the tuple, given it appears (1-based)."""
        return int(np.argmax(self.position_distribution)) + 1

    def top_suppressors(self, limit: int = 5) -> List[UnitInfluence]:
        """The units whose removal would raise ``Pr^k(t)`` the most."""
        return list(self.influences[:limit])


def explain_tuple(
    table: UncertainTable,
    query: TopKQuery,
    tid: Any,
) -> Explanation:
    """Explain ``Pr^k`` of one tuple (see module docstring).

    :raises UnknownTupleError: when ``tid`` is not in ``P(table)``.
    """
    selected = query.selected(table)
    if tid not in selected:
        raise UnknownTupleError(
            f"tuple {tid!r} does not satisfy the query predicate "
            f"(or is not in the table)"
        )
    k = query.k
    ranked = query.ranking.rank_table(selected)
    rule_of = rule_index_of_table(selected)
    scan = DominantSetScan(ranked, rule_of)
    target = None
    for tup in ranked:
        if tup.tid == tid:
            target = tup
            break
        scan.advance(tup)
    assert target is not None  # guaranteed by the membership check

    units = scan.units_for(target)
    own_rule = rule_of.get(tid)
    excluded = tuple(
        member
        for member in (own_rule.tuple_ids if own_rule is not None else ())
        if member != tid and any(r.tid == member for r in ranked)
        and _rank_of(ranked, member) < _rank_of(ranked, tid)
    )

    probabilities = np.array([unit.probability for unit in units])
    empty = np.zeros(k)
    empty[0] = 1.0
    # prefix[i]: the first i units; suffix[i]: the last i units
    prefix = kernel.dp_extend_chain(empty, probabilities)
    suffix = kernel.dp_extend_chain(empty, probabilities[::-1])
    counts = prefix[-1]
    topk_probability = target.probability * kernel.fewer_than_k(counts, k)
    positions = tuple((target.probability * counts).tolist())

    # Pr(|T(t) \ u_i| = k-1): pair prefix i with suffix m-1-i, reversed
    rest = (prefix[:-1] * suffix[-2::-1, ::-1]).sum(axis=1)
    gains = target.probability * probabilities * rest
    influences = [
        UnitInfluence(unit=unit, influence=gain)
        for unit, gain in zip(units, gains.tolist())
    ]
    influences.sort(key=lambda ui: (-ui.influence, ui.unit.first_rank))

    return Explanation(
        tid=tid,
        k=k,
        membership_probability=target.probability,
        topk_probability=topk_probability,
        position_distribution=positions,
        dominant_units=tuple(units),
        excluded_rule_mates=excluded,
        influences=tuple(influences),
    )


def _rank_of(ranked, tid) -> int:
    for i, tup in enumerate(ranked):
        if tup.tid == tid:
            return i
    raise UnknownTupleError(f"tuple {tid!r} not in the ranked list")


def format_explanation(explanation: Explanation, limit: int = 5) -> str:
    """Human-readable rendering used by examples and the CLI."""
    lines = [
        f"Pr^{explanation.k}({explanation.tid}) = "
        f"{explanation.topk_probability:.4f}  "
        f"(membership {explanation.membership_probability:.4f})",
        f"  competing units: {len(explanation.dominant_units)}; "
        f"rule-mates excluded: "
        f"{list(explanation.excluded_rule_mates) or 'none'}",
        f"  most likely rank if present: {explanation.rank_if_present_mode}",
        "  strongest suppressors (probability regained if removed):",
    ]
    for ui in explanation.top_suppressors(limit):
        members = ",".join(sorted(str(m) for m in ui.unit.members))
        lines.append(f"    {{{members}}}: +{ui.influence:.4f}")
    return "\n".join(lines)
