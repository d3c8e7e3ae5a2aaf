"""U-KRanks queries: the most probable tuple at each rank (Soliman et al.).

A U-KRanks query returns, for every rank ``i = 1..k``, the tuple with the
highest probability of being ranked *exactly* ``i``-th in a possible
world.  One tuple can win several ranks (R9 and R11 each occupy two
positions in the paper's Table 5) and high-top-k-probability tuples can
win none — the behaviour the Section 6.1 comparison highlights.

Position probabilities come from the rule-aware generalisation of
Equation 3: ``Pr(t, j) = Pr(t) * Pr(exactly j-1 of T(t) appear)`` with
``T(t)`` the compressed dominant set, read from the columnar kernel's
DP rows in a single scan (:mod:`repro.core.profile`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.profile import exact_position_probabilities
from repro.model.table import UncertainTable
from repro.query.prepare import PrepareCache
from repro.query.topk import TopKQuery


@dataclass(frozen=True)
class UKRanksAnswer:
    """Per-rank winners of a U-KRanks query.

    :param winners: ``winners[i]`` is the (tuple id, probability) pair for
        rank ``i+1`` — the tuple most likely to be exactly at that rank
        and the probability with which it is.
    """

    winners: Tuple[Tuple[Any, float], ...]

    @property
    def tuple_ids(self) -> List[Any]:
        """The winning tuple ids, rank 1 first (duplicates possible)."""
        return [tid for tid, _ in self.winners]

    @property
    def distinct_tuple_ids(self) -> List[Any]:
        """Winning ids without duplicates, first-rank order preserved."""
        seen = set()
        out: List[Any] = []
        for tid, _ in self.winners:
            if tid not in seen:
                seen.add(tid)
                out.append(tid)
        return out

    def __len__(self) -> int:
        return len(self.winners)


def ukranks_from_position_probabilities(
    position_probabilities: Dict[Any, List[float]], k: int
) -> UKRanksAnswer:
    """Pick the arg-max tuple per rank from a position-probability map.

    Ties are broken by stringified tuple id for determinism.
    """
    winners: List[Tuple[Any, float]] = []
    for j in range(k):
        best_tid = None
        best_probability = -1.0
        for tid, probs in position_probabilities.items():
            pr = probs[j] if j < len(probs) else 0.0
            if pr > best_probability or (
                pr == best_probability
                and best_tid is not None
                and str(tid) < str(best_tid)
            ):
                best_tid = tid
                best_probability = pr
        winners.append((best_tid, max(best_probability, 0.0)))
    return UKRanksAnswer(winners=tuple(winners))


def ukranks_query(
    table: UncertainTable,
    query: TopKQuery,
    cache: Optional[PrepareCache] = None,
) -> UKRanksAnswer:
    """Answer a U-KRanks query on an uncertain table.

    :param cache: a :class:`PrepareCache` to consult (and fill) for the
        table's ranking, as in :func:`exact_position_probabilities`.
    """
    position_probabilities = exact_position_probabilities(
        table, query, cache=cache
    )
    return ukranks_from_position_probabilities(position_probabilities, query.k)
