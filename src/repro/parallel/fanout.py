"""Multi-query fan-out: independent PT-k requests across a process pool.

Serving workloads rarely ask one query at a time: a dashboard refresh
issues dozens of independent ``(table, k, threshold)`` requests at once.
Each is answered by the columnar read of the exact engine — CPU-bound,
no shared mutable state across tables — so they partition cleanly
across workers.

The expensive shared part, query preparation (selection + ranking + rule
indexing), is **not** repeated per worker: the parent prepares each
table once (through its :class:`~repro.query.prepare.PrepareCache`,
warming it for later queries) and ships the preparation's cached
:class:`~repro.core.kernel.TableColumns` — tids and dense arrays, cheap
to pickle — to the workers.  Requests on one ``(table, k)`` form a group
that one worker answers from one shared
:class:`~repro.core.kernel.TopKScanState`, read once per threshold
(:func:`repro.core.exact.shared_scan_reads`).

:func:`parallel_ptk_queries` answers arbitrary ``(table_key, k,
threshold)`` requests against each table's shared preparation and backs
:meth:`repro.query.engine.UncertainDB.ptk_many`;
:func:`repro.core.batch.batch_ptk_queries` answers one table's requests
through the same :func:`fan_out`.  One worker runs the one chunk inline.

Answers are returned in request order and are identical whichever
executor runs them (the kernel is deterministic and pausing it is
bitwise neutral).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.batch import validate_requests
from repro.core.exact import shared_scan_reads
from repro.core.kernel import TableColumns
from repro.core.results import PTKAnswer
from repro.exceptions import QueryError
from repro.obs import OBS, catalogued, span as obs_span
from repro.parallel.pool import resolve_workers, shard_map
from repro.query.prepare import PreparedRanking


@dataclass(frozen=True)
class _ExactChunk:
    """One worker's slice of a fan-out: whole ``(table, k)`` groups of
    requests plus the columns of their tables."""

    items: Tuple[Tuple[int, str, int, float], ...]  # (position, key, k, p)
    columns_of: Mapping[str, TableColumns]
    pruning: bool


def _run_exact_chunk(chunk: _ExactChunk) -> List[Tuple[int, PTKAnswer]]:
    """Answer one chunk's requests (module-level: must pickle)."""
    by_table: Dict[str, List[Tuple[int, int, float]]] = {}
    for position, key, k, threshold in chunk.items:
        by_table.setdefault(key, []).append((position, k, threshold))
    out: List[Tuple[int, PTKAnswer]] = []
    for key, items in by_table.items():
        answers = shared_scan_reads(
            chunk.columns_of[key],
            [(k, threshold) for _, k, threshold in items],
            pruning=chunk.pruning,
        )
        out.extend(zip((position for position, _, _ in items), answers))
    return out


def fan_out(
    prepared_of: Mapping[str, PreparedRanking],
    requests: Sequence[Tuple[str, int, float]],
    n_workers: Optional[int],
    pruning: bool,
    mode: str,
) -> List[PTKAnswer]:
    """Deal whole ``(table, k)`` groups round-robin (first-appearance
    order) to at most ``n_workers`` chunks and answer them; ``mode``
    labels the span and metrics."""
    workers = resolve_workers(n_workers)
    groups = list(dict.fromkeys((key, k) for key, k, _ in requests))
    n_chunks = min(workers, len(groups))
    chunk_of = {group: i % n_chunks for i, group in enumerate(groups)}
    chunks = []
    for c in range(n_chunks):
        items = tuple(
            (position, key, k, threshold)
            for position, (key, k, threshold) in enumerate(requests)
            if chunk_of[key, k] == c
        )
        chunks.append(
            _ExactChunk(
                items=items,
                columns_of={
                    key: prepared_of[key].columns
                    for key in {key for _, key, _, _ in items}
                },
                pruning=pruning,
            )
        )
    with obs_span(
        "query.fanout", mode=mode, requests=len(requests), workers=workers
    ):
        chunk_results = shard_map(_run_exact_chunk, chunks, workers)
    answers: List[Optional[PTKAnswer]] = [None] * len(requests)
    for chunk_result in chunk_results:
        for position, answer in chunk_result:
            answers[position] = answer
    if OBS.enabled:
        catalogued("repro_parallel_fanout_queries_total").inc(
            len(requests), mode=mode
        )
        catalogued("repro_parallel_workers").set(workers)
    return answers  # type: ignore[return-value]


def parallel_ptk_queries(
    prepared_of: Mapping[str, PreparedRanking],
    requests: Sequence[Tuple[str, int, float]],
    n_workers: Optional[int] = None,
    pruning: bool = True,
) -> List[PTKAnswer]:
    """Answer independent exact PT-k requests across a worker pool.

    :param prepared_of: table key -> prepared ranking; every key named in
        ``requests`` must be present.  Prepare once in the parent (see
        :meth:`UncertainDB.ptk_many`) — workers never re-prepare; they
        receive the preparation's columns.
    :param requests: ``(table_key, k, threshold)`` triples.
    :param n_workers: pool size; ``None``/``0`` means one per CPU, ``1``
        answers serially in-process.
    :returns: answers in request order, identical to calling
        :func:`exact_ptk_query` with ``columnar=True`` per request.
        Requests on one ``(table, k)`` share a scan, so its rows are
        billed (``tuples_evaluated``) to the reads that priced them.
    """
    if not requests:
        return []
    validate_requests([(k, threshold) for _, k, threshold in requests])
    missing = {key for key, _, _ in requests} - set(prepared_of)
    if missing:
        raise QueryError(
            f"no prepared ranking supplied for table(s) {sorted(missing)!r}"
        )
    return fan_out(prepared_of, requests, n_workers, pruning, "many")

