"""Top-k probability profiles: ``Pr^j(t)`` for every ``j <= k`` at once.

An extension beyond the paper's API surface (in the spirit of its
"different kinds of ranking and preference queries" future work): the
subset-probability vector computed for ``Pr^k(t)`` already contains
everything needed for every smaller ``j`` — ``Pr^j(t) = Pr(t) *
sum_{i<j} Pr(T(t), i)`` is just a prefix sum, and ``Pr(t, j) = Pr(t) *
Pr(T(t), j-1)`` (the position probability) is one entry.  One columnar
scan (:func:`~repro.core.kernel.columnar_dp_rows`) therefore yields the
full profile, which answers questions like

* "how does the answer set change as k varies?" without re-running,
* "what is the smallest k at which tuple t passes threshold p?"
  (:func:`minimal_k_for_threshold`),
* "which tuple is most likely at rank j?" (U-KRanks, from
  :func:`exact_position_probabilities`),
* threshold/parameter sensitivity reports in the examples.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core import kernel
from repro.exceptions import QueryError
from repro.model.table import UncertainTable
from repro.query.prepare import PrepareCache, PreparedRanking, resolve_prepared
from repro.query.topk import TopKQuery


def _dp_rows(
    table: UncertainTable,
    query: TopKQuery,
    prepared: Optional[PreparedRanking],
    cache: Optional[PrepareCache],
) -> Tuple[Tuple[Any, ...], np.ndarray, np.ndarray]:
    """``(tids, probability, rows)`` of the prepared ranking, with
    ``rows[i]`` row ``i``'s DP vector ``Pr(T(t), j)`` for ``j < k``."""
    prepared = resolve_prepared(table, query, prepared=prepared, cache=cache)
    columns = prepared.columns
    rows = kernel.columnar_dp_rows(
        columns.probability, columns.rule_index, query.k
    )
    return columns.tids, columns.probability, rows


def _profile_matrix(
    table: UncertainTable,
    query: TopKQuery,
    prepared: Optional[PreparedRanking] = None,
    cache: Optional[PrepareCache] = None,
) -> Tuple[Tuple[Any, ...], np.ndarray]:
    """Tuple ids in ranking order and their ``(n, k)`` profile matrix."""
    tids, probability, rows = _dp_rows(table, query, prepared, cache)
    profiles = probability[:, None] * np.minimum(np.cumsum(rows, axis=1), 1.0)
    profiles.flags.writeable = False
    return tids, profiles


def topk_probability_profile(
    table: UncertainTable,
    query: TopKQuery,
    prepared: Optional[PreparedRanking] = None,
    cache: Optional[PrepareCache] = None,
) -> Dict[Any, np.ndarray]:
    """``Pr^j`` for ``j = 1..k`` for every tuple, in one columnar scan.

    :param prepared: a ready :class:`PreparedRanking` for ``(table,
        query)``; skips selection/ranking/rule indexing entirely.
    :param cache: a :class:`PrepareCache` to consult (and fill) when
        ``prepared`` is not given.
    :returns: mapping tuple id -> read-only array ``profile`` with
        ``profile[j-1] = Pr^j(t)``.  Each profile is non-decreasing in j
        and capped by the tuple's membership probability.
    """
    tids, profiles = _profile_matrix(table, query, prepared, cache)
    return dict(zip(tids, profiles))


def exact_position_probabilities(
    table: UncertainTable,
    query: TopKQuery,
    prepared: Optional[PreparedRanking] = None,
    cache: Optional[PrepareCache] = None,
) -> Dict[Any, List[float]]:
    """Position probabilities ``Pr(t, j)`` for ``j = 1..k``, with rules.

    ``Pr(t, j) = Pr(t) * Pr(exactly j-1 of T(t) appear)`` — the rule-aware
    generalisation of Equation 3 used by the U-KRanks baseline.

    :param prepared: as for :func:`topk_probability_profile`.
    :param cache: as for :func:`topk_probability_profile`.
    :returns: mapping tuple id -> list of k probabilities (index 0 is
        rank 1).
    """
    tids, probability, rows = _dp_rows(table, query, prepared, cache)
    return dict(zip(tids, (probability[:, None] * rows).tolist()))


def _validate_threshold(threshold: float) -> None:
    if not (0.0 < threshold <= 1.0):
        raise QueryError(
            f"probability threshold must be in (0, 1], got {threshold!r}"
        )


def answer_sizes_by_k(
    table: UncertainTable,
    query: TopKQuery,
    threshold: float,
) -> List[int]:
    """``|Answer(Q^j, p)|`` for every ``j = 1..k`` from one profile scan."""
    _validate_threshold(threshold)
    _, profiles = _profile_matrix(table, query)
    return np.sum(profiles >= threshold, axis=0).tolist()


def minimal_k_for_threshold(
    table: UncertainTable,
    query: TopKQuery,
    threshold: float,
) -> Dict[Any, Optional[int]]:
    """The smallest ``j <= k`` at which each tuple passes the threshold.

    :returns: mapping tuple id -> minimal j, or ``None`` when the tuple
        fails the threshold even at ``j = k``.  Because profiles are
        monotone in j, this is a meaningful "how deep a list do you need
        before this tuple becomes a credible answer" diagnostic.
    """
    _validate_threshold(threshold)
    tids, profiles = _profile_matrix(table, query)
    result: Dict[Any, Optional[int]] = {}
    for tid, passing in zip(tids, profiles >= threshold):
        hits = np.flatnonzero(passing)
        result[tid] = int(hits[0]) + 1 if hits.size else None
    return result
