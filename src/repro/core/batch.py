"""Batch PT-k answering: many (k, p) queries over one scan per k.

Dashboards and report generators routinely ask several threshold
queries over the same table and ranking (different k for different
panels, several thresholds for sensitivity).  A ``Pr^k`` column priced
once answers every threshold at that k, so the requests share one
columnar scan per distinct k (:func:`repro.core.exact.shared_scan_reads`)
over one preparation of the table, dealt to workers by the same fan-out
as :func:`repro.parallel.fanout.parallel_ptk_queries`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.results import PTKAnswer
from repro.exceptions import QueryError
from repro.model.table import UncertainTable
from repro.query.prepare import PrepareCache, resolve_prepared
from repro.query.ranking import RankingFunction, by_score
from repro.query.topk import TopKQuery


def validate_requests(requests: Sequence[Tuple[int, float]]) -> None:
    """Validate a batch of ``(k, threshold)`` pairs up front."""
    for k, threshold in requests:
        if not isinstance(k, int) or isinstance(k, bool) or k <= 0:
            raise QueryError(f"k must be a positive integer, got {k!r}")
        if not (0.0 < threshold <= 1.0):
            raise QueryError(
                f"probability threshold must be in (0, 1], got {threshold!r}"
            )


def batch_ptk_queries(
    table: UncertainTable,
    requests: Sequence[Tuple[int, float]],
    ranking: RankingFunction | None = None,
    cache: Optional[PrepareCache] = None,
    n_workers: Optional[int] = 1,
) -> List[PTKAnswer]:
    """Answer several ``(k, threshold)`` PT-k queries in one scan.

    :param requests: ``(k, p)`` pairs; validated up front.
    :param ranking: shared ranking function.
    :param cache: an optional :class:`PrepareCache`; selection, ranking,
        and rule indexing run at most once either way — the cache lets
        *successive* batch calls on an unchanged table skip them too.
    :param n_workers: how many workers the distinct k's are dealt to
        (:func:`repro.parallel.fanout.fan_out`, which receives the
        prepared columns); ``1`` (the default) answers inline, ``0`` or
        ``None`` means one per CPU.
    :returns: one :class:`PTKAnswer` per request, in request order.
        Each answer carries the full ``Pr^k`` map for its k and is
        bitwise :func:`repro.core.exact.exact_ptk_query` with
        ``pruning=False, columnar=True``.  The first request at each k
        bills that k's scan (``tuples_evaluated``); later ones at the
        same k bill 0, their marginal cost.
    """
    from repro.parallel.fanout import fan_out

    if not requests:
        return []
    validate_requests(requests)
    ranking = ranking or by_score()
    max_k = max(k for k, _ in requests)
    query = TopKQuery(k=max_k, ranking=ranking)
    prepared = resolve_prepared(table, query, cache=cache)
    return fan_out(
        {table.name: prepared},
        [(table.name, k, threshold) for k, threshold in requests],
        n_workers,
        pruning=False,
        mode="batch",
    )


def threshold_sweep(
    table: UncertainTable,
    k: int,
    thresholds: Sequence[float],
    ranking: RankingFunction | None = None,
) -> Dict[float, List[Any]]:
    """Answer one k at many thresholds (a common dashboard pattern).

    :returns: threshold -> answer tuple ids (ranking order).
    """
    answers = batch_ptk_queries(
        table, [(k, threshold) for threshold in thresholds], ranking=ranking
    )
    return {
        threshold: answer.answers
        for threshold, answer in zip(thresholds, answers)
    }
