"""Multi-query fan-out: independent PT-k requests on warm preparations.

Serving workloads rarely ask one query at a time: a dashboard refresh
issues dozens of independent ``(table, k, threshold)`` requests at once.
Each is answered by the read :meth:`repro.query.engine.UncertainDB.ptk`
runs: the columnar exact read of its preparation's warm scan at ``k``
(:attr:`repro.query.prepare.PreparedRanking.index`), in the calling
process.  Requests on one ``(table, k)`` read one scan, and so do the
reads before and after the call, across writes: a write below the
priced rows costs no DP work at read time.

:func:`parallel_ptk_queries` answers arbitrary ``(table_key, k,
threshold)`` requests against each table's shared preparation and backs
:meth:`repro.query.engine.UncertainDB.ptk_many`;
:func:`repro.core.batch.batch_ptk_queries` answers one table's requests
through the same :func:`fan_out`.  Answers are returned in request order
and are bitwise a fresh database's reads.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence, Tuple

from repro.core.batch import validate_requests
from repro.core.exact import exact_ptk_query
from repro.core.results import PTKAnswer
from repro.exceptions import QueryError
from repro.obs import OBS, catalogued, span as obs_span
from repro.parallel.pool import shard_map
from repro.query.prepare import PreparedRanking
from repro.query.topk import TopKQuery


def fan_out(
    prepared_of: Mapping[str, PreparedRanking],
    requests: Sequence[Tuple[str, int, float]],
    pruning: bool,
    mode: str,
) -> List[PTKAnswer]:
    """Answer each request by the columnar read of its table's
    preparation, in request order; ``mode`` labels the span and
    metrics."""

    def read(request: Tuple[str, int, float]) -> PTKAnswer:
        key, k, threshold = request
        prepared = prepared_of[key]
        return exact_ptk_query(
            prepared.table, TopKQuery(k=k), threshold, pruning=pruning,
            prepared=prepared, columnar=True,
        )

    with obs_span("query.fanout", mode=mode, requests=len(requests)):
        # One inline shard_map call: the end-to-end benchmark's traced
        # batch-offline run still requires a parallel.shard_map layer.
        # It goes when that benchmark drops parallel.* from its layers.
        answers = shard_map(read, requests, 1)
    if OBS.enabled:
        catalogued("repro_parallel_fanout_queries_total").inc(
            len(requests), mode=mode
        )
    return answers


def parallel_ptk_queries(
    prepared_of: Mapping[str, PreparedRanking],
    requests: Sequence[Tuple[str, int, float]],
    pruning: bool = True,
) -> List[PTKAnswer]:
    """Answer independent exact PT-k requests on prepared tables.

    :param prepared_of: table key -> prepared ranking; every key named in
        ``requests`` must be present (see :meth:`UncertainDB.ptk_many`).
    :param requests: ``(table_key, k, threshold)`` triples.
    :returns: answers in request order, each the columnar read of its
        preparation's warm scan at ``k`` (:func:`exact_ptk_query` with
        ``prepared=`` and ``columnar=True``): bitwise a fresh scan's
        answers, probabilities, ``scan_depth`` and ``stopped_by``, each
        billing (``tuples_evaluated``) only the rows it priced.
    """
    if not requests:
        return []
    validate_requests([(k, threshold) for _, k, threshold in requests])
    missing = {key for key, _, _ in requests} - set(prepared_of)
    if missing:
        raise QueryError(
            f"no prepared ranking supplied for table(s) {sorted(missing)!r}"
        )
    return fan_out(prepared_of, requests, pruning, "many")
