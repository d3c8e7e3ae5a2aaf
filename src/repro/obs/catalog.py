"""The metric catalogue: every metric the engine may emit, with provenance.

Each entry records the metric's name, type, label names, help text, and
the part of the paper whose claim it witnesses at runtime (theorem,
section, or figure).  Instrumentation sites and the exporter are free to
emit any subset; :func:`validate_snapshot` checks that whatever *was*
emitted matches the catalogue — the CI smoke job and the test suite run
it over real query output.

Keeping the catalogue in data (rather than scattered through call sites)
gives dashboards and the docs one authoritative list; see
``docs/observability.md`` for the rendered version.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Tuple


@dataclass(frozen=True)
class MetricSpec:
    """Catalogue entry for one metric.

    :param name: full metric name (``repro_`` prefix).
    :param type: ``counter`` / ``gauge`` / ``histogram`` / ``timer``.
    :param labels: label names the metric carries, possibly empty.
    :param help: one-line description (also exported as Prometheus HELP).
    :param paper_ref: theorem / section / figure the metric witnesses.
    """

    name: str
    type: str
    labels: Tuple[str, ...] = ()
    help: str = ""
    paper_ref: str = ""


def _spec(name: str, type: str, labels: Tuple[str, ...], help: str, ref: str) -> MetricSpec:
    return MetricSpec(name=name, type=type, labels=labels, help=help, paper_ref=ref)


#: Every metric the instrumented engine can emit, keyed by name.
CATALOG: Dict[str, MetricSpec] = {
    spec.name: spec
    for spec in [
        # ---------------------------------------------------- exact engine
        _spec(
            "repro_ptk_queries_total", "counter", ("method",),
            "PT-k queries answered, by algorithm "
            "(RC, RC+AR, RC+LR, columnar, sampling).",
            "Section 6.2 (variant comparison)",
        ),
        _spec(
            "repro_ptk_tuples_scanned_total", "counter", (),
            "Tuples retrieved from the ranked stream across all queries.",
            "Figures 4 and 7 (scan depth)",
        ),
        _spec(
            "repro_ptk_scan_depth", "histogram", (),
            "Per-query scan depth distribution.",
            "Figures 4 and 7",
        ),
        _spec(
            "repro_ptk_tuples_evaluated_total", "counter", (),
            "Tuples whose Pr^k was actually computed (not pruned).",
            "Section 4.4",
        ),
        _spec(
            "repro_ptk_tuples_pruned_total", "counter", ("theorem",),
            "Tuples skipped without computing Pr^k, by pruning rule "
            "(theorem=membership|same-rule).",
            "Theorems 3 and 4",
        ),
        _spec(
            "repro_ptk_scan_stops_total", "counter", ("reason",),
            "How scans ended (reason=exhausted|total-probability|tail-bound).",
            "Theorem 5 and the tail stop bound",
        ),
        _spec(
            "repro_ptk_dp_extensions_total", "counter", (),
            "O(k) subset-probability DP extensions performed.",
            "Equation 5 (the paper's cost measure)",
        ),
        _spec(
            "repro_ptk_dp_units", "histogram", (),
            "Width of the DP unit order per evaluated tuple "
            "(compressed dominant-set size actually folded).",
            "Section 4.3 (DP state size)",
        ),
        # ----------------------------------------------- rule compression
        _spec(
            "repro_compression_units_total", "counter", ("kind",),
            "Compression units created during scans "
            "(kind=independent|rule).",
            "Section 4.3.1 (rule-tuple compression)",
        ),
        _spec(
            "repro_compression_rule_merges_total", "counter", (),
            "Rule-tuple rebuilds that merged an additional scanned member.",
            "Corollary 1 (rule-tuple collapse)",
        ),
        _spec(
            "repro_compression_dominant_set_size", "histogram", (),
            "Compressed dominant-set sizes handed to the DP.",
            "Section 4.3.1",
        ),
        # ----------------------------------------------------- reordering
        _spec(
            "repro_reorder_prefix_hits_total", "counter", (),
            "DP evaluations that reused a non-empty shared prefix.",
            "Section 4.3.2 (prefix sharing)",
        ),
        _spec(
            "repro_reorder_prefix_misses_total", "counter", (),
            "DP evaluations that could reuse nothing.",
            "Section 4.3.2",
        ),
        _spec(
            "repro_reorder_dp_cells_reused_total", "counter", (),
            "DP prefix entries served from the shared cache.",
            "Equation 5 (cost saved)",
        ),
        _spec(
            "repro_reorder_dp_cells_recomputed_total", "counter", (),
            "DP entries extended past the shared prefix.",
            "Equation 5 (cost paid)",
        ),
        # -------------------------------------------------- prepare cache
        _spec(
            "repro_prepare_cache_hits_total", "counter", (),
            "Query preparations (selection + ranking + rule index) served "
            "from the table-level cache.",
            "Beyond the paper (production serving)",
        ),
        _spec(
            "repro_prepare_cache_misses_total", "counter", (),
            "Query preparations built from scratch (cache miss or no cache).",
            "Beyond the paper (production serving)",
        ),
        _spec(
            "repro_prepare_cache_invalidations_total", "counter", (),
            "Cached preparations dropped by explicit invalidation "
            "(table drops, re-registrations).",
            "Beyond the paper (production serving)",
        ),
        _spec(
            "repro_prepare_cache_refreshes_total", "counter", (),
            "Cached preparations advanced in place by a table delta "
            "instead of being invalidated and rebuilt.",
            "Beyond the paper (incremental maintenance)",
        ),
        # -------------------------------------------------- dynamic index
        _spec(
            "repro_dyn_deltas_applied_total", "counter", ("op",),
            "Committed mutations carried into a built dynamic PT-k "
            "index without a cold rebuild (op=any: the index follows "
            "table versions, not operations).",
            "Beyond the paper (incremental maintenance)",
        ),
        _spec(
            "repro_dyn_suffix_length", "histogram", (),
            "Ranks invalidated per column move (the suffix of the "
            "ranked order from the first rank where the new columns "
            "differ).",
            "Beyond the paper (incremental maintenance)",
        ),
        _spec(
            "repro_dyn_fallbacks_total", "counter", ("reason",),
            "Dynamic-index reads that fell back to a cold rebuild "
            "(reason=cap|error).",
            "Beyond the paper (incremental maintenance)",
        ),
        _spec(
            "repro_dyn_refresh_seconds", "timer", (),
            "Wall time moving a dynamic index onto a newer "
            "preparation (column compare plus snapshot restore).",
            "Beyond the paper (incremental maintenance)",
        ),
        _spec(
            "repro_dyn_reads_total", "counter", ("source",),
            "PT-k reads answered through the dynamic registry "
            "(source=index|rebuild).",
            "Beyond the paper (incremental maintenance)",
        ),
        # ------------------------------------------------------- sampling
        _spec(
            "repro_sampler_units_total", "counter", (),
            "Sample units (possible-world top-k lists) drawn.",
            "Section 5",
        ),
        _spec(
            "repro_sampler_batches_total", "counter", (),
            "Vectorised sampler batches drawn (each covers many units).",
            "Section 5 (batched unit generation)",
        ),
        _spec(
            "repro_sampler_unit_scan_length", "histogram", (),
            "Tuples scanned per sample unit under lazy generation.",
            "Section 5 / Figure 4 (sample length)",
        ),
        _spec(
            "repro_sampler_lazy_early_stops_total", "counter", (),
            "Sample units cut short after the k-th inclusion.",
            "Section 5 (lazy unit generation)",
        ),
        _spec(
            "repro_sampler_convergence_stops_total", "counter", (),
            "Sampling runs ended by the (d, phi) stopping rule.",
            "Section 5 (progressive stopping)",
        ),
        _spec(
            "repro_sampler_budget_units", "gauge", (),
            "Unit budget of the last sampling run "
            "(Chernoff-Hoeffding bound or explicit size).",
            "Theorem 6",
        ),
        _spec(
            "repro_sampler_achieved_units", "gauge", (),
            "Units actually drawn by the last sampling run.",
            "Section 5 (achieved vs bound)",
        ),
        # ------------------------------------------------------- parallel
        _spec(
            "repro_parallel_shards_total", "counter", (),
            "Sampling shards executed by the parallel path.",
            "Beyond the paper (parallel execution)",
        ),
        _spec(
            "repro_parallel_workers", "gauge", (),
            "Worker count resolved for the last parallel call.",
            "Beyond the paper (parallel execution)",
        ),
        _spec(
            "repro_parallel_shard_units", "histogram", (),
            "Sample units drawn per shard.",
            "Beyond the paper (parallel execution)",
        ),
        _spec(
            "repro_parallel_shard_seconds", "histogram", (),
            "Wall time per sampling shard (as measured inside the worker).",
            "Beyond the paper (parallel execution)",
        ),
        _spec(
            "repro_parallel_merge_seconds", "timer", (),
            "Wall time merging shard counts and replaying the (d, phi) "
            "rule on merged snapshots.",
            "Beyond the paper (parallel execution)",
        ),
        _spec(
            "repro_parallel_fanout_queries_total", "counter", ("mode",),
            "Queries answered through the multi-query fan-out "
            "(mode=many|batch).",
            "Beyond the paper (parallel execution)",
        ),
        # -------------------------------------------------------- serving
        _spec(
            "repro_serve_requests_total", "counter", ("endpoint",),
            "HTTP requests received by the serving layer, by endpoint "
            "(query, healthz, metrics, tables).",
            "Beyond the paper (query serving)",
        ),
        _spec(
            "repro_serve_rejections_total", "counter", ("reason",),
            "Requests refused by admission control "
            "(reason=queue-full|deadline).",
            "Beyond the paper (query serving)",
        ),
        _spec(
            "repro_serve_batch_size", "histogram", (),
            "Requests coalesced into each dispatched micro-batch.",
            "Beyond the paper (query serving)",
        ),
        _spec(
            "repro_serve_degraded_total", "counter", (),
            "Queries degraded from the exact algorithm to the sampler "
            "because the planner predicted a deadline miss.",
            "Theorem 6 vs Theorems 3-5 (exact/sampling trade-off)",
        ),
        _spec(
            "repro_serve_degraded_preexec_total", "counter", (),
            "Queries degraded to the sampler by the batch scheduler's "
            "pre-execution re-check: the remaining deadline could no "
            "longer fit the (possibly resumed) exact scan.",
            "Theorem 6 vs Theorems 3-5 (exact/sampling trade-off)",
        ),
        _spec(
            "repro_serve_deadline_expired_total", "counter", ("stage",),
            "Batch items whose deadline had already passed when the "
            "batch dispatched (stage=dispatch) or when the scheduler "
            "was about to execute them (stage=pre-exec).",
            "Beyond the paper (query serving)",
        ),
        _spec(
            "repro_serve_resumed_scans_total", "counter", (),
            "Exact scans resumed from a deadline checkpoint instead of "
            "restarting from depth 0.",
            "Beyond the paper (query serving)",
        ),
        _spec(
            "repro_serve_queue_depth", "gauge", (),
            "Requests admitted but not yet completed.",
            "Beyond the paper (query serving)",
        ),
        _spec(
            "repro_serve_request_seconds", "timer", ("endpoint",),
            "Wall time per served request, by endpoint.",
            "Beyond the paper (query serving)",
        ),
        # ------------------------------------------------------ streaming
        _spec(
            "repro_stream_arrivals_total", "counter", (),
            "Tuples fed to sliding-window monitors.",
            "Beyond the paper (streaming extension)",
        ),
        _spec(
            "repro_stream_answer_churn_total", "counter", ("direction",),
            "Answer-set membership changes (direction=entered|left).",
            "Beyond the paper (streaming extension)",
        ),
        # -------------------------------------------------------- storage
        _spec(
            "repro_storage_pages_read_total", "counter", (),
            "Heap-file pages fetched (the benchmark I/O cost model).",
            "Section 6 (I/O accounting)",
        ),
        # ------------------------------------------------------ durability
        _spec(
            "repro_durable_wal_appends_total", "counter", ("kind",),
            "Write-ahead-log records appended, by record kind "
            "(register, add, rule, remove, update, drop, serve).",
            "Beyond the paper (durable storage)",
        ),
        _spec(
            "repro_durable_wal_bytes_total", "counter", (),
            "Bytes appended to the write-ahead log (framing included).",
            "Beyond the paper (durable storage)",
        ),
        _spec(
            "repro_durable_wal_fsyncs_total", "counter", (),
            "fsync calls issued by the write-ahead log "
            "(policy: always / interval / off).",
            "Beyond the paper (durable storage)",
        ),
        _spec(
            "repro_durable_snapshot_seconds", "timer", (),
            "Wall time of one full checkpoint (all tables snapshotted, "
            "WAL rotated and compacted).",
            "Beyond the paper (durable storage)",
        ),
        _spec(
            "repro_durable_snapshot_bytes", "histogram", (),
            "On-disk size of each snapshot image written.",
            "Beyond the paper (durable storage)",
        ),
        _spec(
            "repro_durable_recovery_replayed_total", "counter", (),
            "WAL mutation records replayed on top of snapshots during "
            "recovery.",
            "Beyond the paper (durable storage)",
        ),
        _spec(
            "repro_durable_wal_backlog_bytes", "gauge", (),
            "Bytes appended to the write-ahead log since the last fsync "
            "(data at risk under the interval/off policies).",
            "Beyond the paper (durable storage)",
        ),
        _spec(
            "repro_durable_serve_flush_seconds", "timer", (),
            "Wall time flushing buffered serve-key records to the WAL.",
            "Beyond the paper (durable storage)",
        ),
        # ----------------------------------------------------- replication
        _spec(
            "repro_repl_fetches_total", "counter", ("outcome",),
            "WAL fetch requests served by the replication primary "
            "(outcome=ok|empty|cursor-lost|bootstrap).",
            "Beyond the paper (replication)",
        ),
        _spec(
            "repro_repl_records_shipped_total", "counter", (),
            "WAL records shipped to replicas by the primary.",
            "Beyond the paper (replication)",
        ),
        _spec(
            "repro_repl_bytes_shipped_total", "counter", (),
            "Framed WAL bytes shipped to replicas by the primary.",
            "Beyond the paper (replication)",
        ),
        _spec(
            "repro_repl_connected_replicas", "gauge", (),
            "Replicas seen by the primary within the retention TTL.",
            "Beyond the paper (replication)",
        ),
        _spec(
            "repro_repl_pinned_segments", "gauge", (),
            "Sealed WAL segments kept alive by replica retention pins "
            "(segments compaction would otherwise have deleted).",
            "Beyond the paper (replication)",
        ),
        _spec(
            "repro_repl_records_applied_total", "counter", ("outcome",),
            "Shipped records processed by a replica applier "
            "(outcome=applied|skipped).",
            "Beyond the paper (replication)",
        ),
        _spec(
            "repro_repl_apply_seconds", "timer", (),
            "Wall time applying one fetched batch on a replica.",
            "Beyond the paper (replication)",
        ),
        _spec(
            "repro_repl_lag_records", "gauge", (),
            "Replication lag of this replica in WAL records "
            "(as counted by the primary, capped).",
            "Beyond the paper (replication)",
        ),
        _spec(
            "repro_repl_lag_bytes", "gauge", (),
            "Replication lag of this replica in WAL bytes.",
            "Beyond the paper (replication)",
        ),
        _spec(
            "repro_repl_staleness_seconds", "gauge", (),
            "Seconds since this replica last confirmed it was caught up "
            "with the primary.",
            "Beyond the paper (replication)",
        ),
        _spec(
            "repro_repl_reconnects_total", "counter", (),
            "Follower poll cycles that failed transiently (connection "
            "refused, primary restarting) and were retried.",
            "Beyond the paper (replication)",
        ),
        _spec(
            "repro_repl_stale_reads_rejected_total", "counter", (),
            "Replica reads rejected because the replica's staleness "
            "exceeded the request's max_staleness_s bound (HTTP 503).",
            "Beyond the paper (replication)",
        ),
        # ------------------------------------------------ flight recorder
        _spec(
            "repro_flight_profiles_total", "counter", ("kind",),
            "Query profiles recorded by the flight recorder, by query "
            "kind (exact, sampled, served, ...).",
            "Beyond the paper (flight recorder)",
        ),
        _spec(
            "repro_flight_slow_queries_total", "counter", (),
            "Profiles whose measured latency crossed the slow-query "
            "threshold.",
            "Beyond the paper (flight recorder)",
        ),
        _spec(
            "repro_flight_slow_log_bytes_total", "counter", (),
            "Bytes appended to the slow-query JSONL log.",
            "Beyond the paper (flight recorder)",
        ),
        _spec(
            "repro_serve_debug_requests_total", "counter", ("view",),
            "Requests to the /debug introspection endpoints "
            "(view=queries|slow|calibration).",
            "Beyond the paper (flight recorder)",
        ),
        # --------------------------------------------------------- timers
        _spec(
            "repro_query_seconds", "timer", ("semantics",),
            "Wall time per query, by semantics "
            "(ptk, ptk-sampled, utopk, ukranks, global-topk, ...).",
            "Figure 5 (runtime comparison)",
        ),
        _spec(
            "repro_stream_advance_seconds", "timer", (),
            "Wall time of one monitored window advance "
            "(append + re-answer).",
            "Beyond the paper (streaming extension)",
        ),
    ]
}


def spec_of(name: str) -> MetricSpec:
    """Catalogue entry for ``name``; raises ``KeyError`` when unknown."""
    return CATALOG[name]


def validate_snapshot(snapshot: Mapping[str, Any]) -> List[str]:
    """Check an exported snapshot against the catalogue.

    :param snapshot: either a full export (with a ``"metrics"`` key, as
        produced by :func:`repro.obs.export.snapshot`) or a bare
        registry dump (name -> description).
    :returns: a list of human-readable problems; empty when the snapshot
        conforms.  Unknown metric names, type mismatches, and label-name
        mismatches are reported; the catalogue does not require any
        particular metric to be present.
    """
    metrics = snapshot.get("metrics", snapshot)
    problems: List[str] = []
    if not isinstance(metrics, Mapping):
        return [f"metrics section is not a mapping: {type(metrics).__name__}"]
    for name, data in metrics.items():
        spec = CATALOG.get(name)
        if spec is None:
            problems.append(f"metric {name!r} is not in the catalogue")
            continue
        if not isinstance(data, Mapping):
            problems.append(f"metric {name!r} has a non-mapping description")
            continue
        if data.get("type") != spec.type:
            problems.append(
                f"metric {name!r} has type {data.get('type')!r}, "
                f"catalogue says {spec.type!r}"
            )
        labels = tuple(data.get("labelnames", ()))
        if labels != spec.labels:
            problems.append(
                f"metric {name!r} has labels {list(labels)}, "
                f"catalogue says {list(spec.labels)}"
            )
    return problems
