"""Cold oracles for the answers the benchmark receives.

* Exact answers — every timed answer of ``serve-read`` and
  ``batch-offline``, the exact half of ``serve-deadline``, and on
  ``serve-rw`` the answers at its quiesce barriers and after recovery
  (its timed reads go unchecked) — must equal a cold
  :func:`~repro.core.exact.exact_ptk_query` of the same shape on the
  same table version, computed here from the oracle's own copy of the
  table (never the system's caches).
* Sampled answers (``serve-deadline``) carry Wilson intervals; across a
  run, the share of answered tuples whose exact ``Pr^k`` falls outside
  the returned interval must be at most twice the nominal miss rate.

Two evaluators of one ``Pr^k`` may differ in the last bits, so a tuple
whose cold value lies within :data:`AMBIGUOUS` of the threshold may
fall on either side; it is excluded from the set comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, Mapping, Optional

from repro.core.exact import exact_ptk_query, exact_topk_probabilities
from repro.model.table import UncertainTable
from repro.query.prepare import PreparedRanking
from repro.query.topk import TopKQuery

AMBIGUOUS = 1e-9
#: Library answers carry full-precision floats.
EXACT_TOLERANCE = 1e-9
#: The server rounds probabilities (and interval ends) to 6 decimals.
SERVED_TOLERANCE = 5e-7 + 1e-9


@dataclass(frozen=True)
class Expected:
    """The cold answer of one ``(table version, k, threshold)``."""

    threshold: float
    #: cold ``Pr^k`` of every tuple the cold scan priced, by ``str(tid)``
    probabilities: Mapping[str, float]
    answers: FrozenSet[str]


def cold_exact(
    table: UncertainTable,
    k: int,
    threshold: float,
    prepared: Optional[PreparedRanking] = None,
) -> Expected:
    """Answer ``(k, threshold)`` with a fresh exact scan of ``table``.

    :param prepared: the oracle's own preparation of this table version
        (saves re-sorting per shape); never one the system built.
    """
    answer = exact_ptk_query(
        table, TopKQuery(k=k), threshold, prepared=prepared
    )
    return Expected(
        threshold=threshold,
        probabilities={str(t): p for t, p in answer.probabilities.items()},
        answers=frozenset(str(t) for t in answer.answers),
    )


def full_scan(table: UncertainTable, k: int) -> Dict[str, float]:
    """Exact ``Pr^k`` of every tuple, by ``str(tid)``."""
    return {
        str(t): p
        for t, p in exact_topk_probabilities(table, TopKQuery(k=k)).items()
    }


def from_full_scan(probabilities: Mapping[str, float], threshold: float) -> Expected:
    """The exact answer at ``threshold`` read off a full scan."""
    return Expected(
        threshold=threshold,
        probabilities=probabilities,
        answers=frozenset(t for t, p in probabilities.items() if p >= threshold),
    )


def check_answer(
    expected: Expected,
    answers: Iterable[Any],
    probabilities: Mapping[str, float],
    tolerance: float,
    partial: bool = False,
) -> Optional[str]:
    """``None`` when the answer matches the oracle, else the reason.

    :param probabilities: returned ``Pr^k`` per answered tuple.
    :param partial: a deadline-cut scan covers a ranked prefix only, so
        its answers need only be a subset of the oracle's.
    """
    got = {str(t) for t in answers}
    ambiguous = {
        t
        for t, p in expected.probabilities.items()
        if abs(p - expected.threshold) <= AMBIGUOUS
    }
    extra = got - expected.answers - ambiguous
    missing = set() if partial else expected.answers - got - ambiguous
    if extra or missing:
        return (
            f"answer set differs from the cold oracle: "
            f"missing {sorted(missing)[:5]}, extra {sorted(extra)[:5]}"
        )
    for tid, value in probabilities.items():
        cold = expected.probabilities.get(str(tid))
        if cold is None or abs(value - cold) > tolerance:
            return f"Pr^k({tid}) = {value}, cold oracle {cold}"
    return None


def interval_misses(
    intervals: Mapping[str, Any], exact: Mapping[str, float]
) -> int:
    """Answered tuples whose exact ``Pr^k`` lies outside the returned
    interval (widened by the server's rounding)."""
    misses = 0
    for tid, (low, high) in intervals.items():
        value = exact[str(tid)]
        if value < low - SERVED_TOLERANCE or value > high + SERVED_TOLERANCE:
            misses += 1
    return misses


def check_intervals(misses: int, total: int, confidence: float) -> Optional[str]:
    """At most twice the nominal miss rate across a run's sampled answers."""
    allowed = 2.0 * (1.0 - confidence)
    if total and misses / total > allowed:
        return (
            f"{misses}/{total} sampled tuples' exact Pr^k fall outside "
            f"their interval (allowed {allowed:.0%})"
        )
    return None


def same_contents(live: UncertainTable, recovered: UncertainTable) -> Optional[str]:
    """``None`` when two tables hold the same version, tuples and rules."""
    if live.version != recovered.version:
        return f"version {recovered.version}, live {live.version}"

    def contents(table: UncertainTable):
        tuples = {str(t.tid): (t.score, t.probability) for t in table}
        rules = {
            str(rule.rule_id): frozenset(map(str, rule.tuple_ids))
            for rule in table.multi_rules()
        }
        return tuples, rules

    if contents(live) != contents(recovered):
        return "tuples or rules differ from the live table"
    return None
