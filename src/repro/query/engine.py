"""The user-facing query engine facade.

:class:`UncertainDB` is the "database" a downstream application talks
to: it registers named uncertain tables and answers ranking queries
under every semantics the library implements —

* ``ptk`` / ``ptk-sampled`` — the paper's probabilistic threshold top-k,
* ``utopk`` — most probable top-k vector,
* ``ukranks`` — most probable tuple per rank,
* ``global-topk`` — the k tuples of highest top-k probability,

plus raw per-tuple probability reports.  Examples and the Section 6.1
comparison are written against this facade.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.exact import (
    ExactVariant,
    _validate_threshold,
    exact_ptk_query,
    exact_topk_probabilities,
)
from repro.core.results import PTKAnswer
from repro.core.sampling import SamplingConfig, sampled_ptk_query
from repro.dynamic.delta import TableDelta
from repro.exceptions import QueryError, UnknownTableError
from repro.model.rules import GenerationRule
from repro.model.table import UncertainTable
from repro.model.tuples import UncertainTuple
from repro.obs import query_scope
from repro.query.prepare import PrepareCache
from repro.query.topk import TopKQuery
from repro.semantics.extras import expected_ranks, global_topk
from repro.semantics.ukranks import UKRanksAnswer, ukranks_query
from repro.semantics.utopk import UTopKAnswer, utopk_query


@dataclass
class SemanticsComparison:
    """Answers of all three published semantics on one query (Section 6.1).

    :param ptk: the PT-k answer at the supplied threshold.
    :param utopk: the most probable top-k vector.
    :param ukranks: the per-rank winners.
    :param topk_probabilities: exact ``Pr^k`` of every tuple appearing in
        any of the three answers (the paper's Table 6 view).
    """

    ptk: PTKAnswer
    utopk: UTopKAnswer
    ukranks: UKRanksAnswer
    topk_probabilities: Dict[Any, float]

    def mentioned_tuples(self) -> List[Any]:
        """Every tuple id referenced by at least one of the answers."""
        mentioned: List[Any] = []
        seen = set()
        for tid in (
            list(self.ptk.answers)
            + list(self.utopk.vector)
            + self.ukranks.tuple_ids
        ):
            if tid not in seen:
                seen.add(tid)
                mentioned.append(tid)
        return mentioned


class UncertainDB:
    """A registry of uncertain tables with a query front-end.

    ::

        db = UncertainDB()
        db.register(panda_table())
        answer = db.ptk("panda_sightings", k=2, threshold=0.35)
    """

    def __init__(self) -> None:
        self._tables: Dict[str, UncertainTable] = {}
        self._prepare_cache = PrepareCache()
        self._dynamic: Optional[Any] = None
        self._table_locks: Dict[str, threading.RLock] = {}
        self._table_locks_guard = threading.Lock()

    def table_lock(self, name: str) -> threading.RLock:
        """The lock that orders ``name``'s writes against its reads.

        A mutation holds it across the table write *and*
        :meth:`_emit_delta`.  A read holds it at least while it takes
        its snapshot of the table (a prepare-cache lookup, which a
        dynamic read makes too); the ``ptk*`` methods here hold it for
        the whole query.  Without it a read could pair one version's
        contents with the other's number: a preparation of the new
        tuples stored under the old version (the writer's refresh then
        applies the delta a second time).  Re-entrant, so a journalling
        subclass can hold it around the engine-level mutation plus its
        WAL append.

        :meth:`register` creates the lock; a name that was never
        registered gets a private lock (its callers fail on the table
        lookup), so request-supplied names cannot grow the lock table.
        """
        with self._table_locks_guard:
            return self._table_locks.get(name) or threading.RLock()

    @property
    def prepare_cache(self) -> PrepareCache:
        """The table-level prepared-ranking cache (see ``repro.query.prepare``).

        Shared by the exact, sampling, profile, and batch paths; consult
        :meth:`PrepareCache.stats` for hit/miss counters.
        """
        return self._prepare_cache

    @property
    def dynamic(self) -> Optional[Any]:
        """The incremental PT-k index registry, or ``None`` until
        :meth:`enable_dynamic` is called."""
        return self._dynamic

    def enable_dynamic(self, cap: Optional[int] = None) -> Any:
        """Turn on incremental PT-k maintenance (:mod:`repro.dynamic`).

        Every mutation routed through this engine's methods
        (:meth:`add`, :meth:`remove_tuple`, ...) already carries the
        table's warm default-shape preparation across the write,
        columns included.  Once enabled, default-shape :meth:`ptk` reads
        are answered from a per-table index of live kernel scans over
        that preparation (byte-identical to a cold columnar scan).

        Idempotent: a second call returns the existing registry
        unchanged (``cap`` is only read on the first).

        :param cap: largest ``k`` served incrementally (default
            :data:`repro.dynamic.index.DEFAULT_CAP`).
        :returns: the :class:`~repro.dynamic.registry.DynamicIndexRegistry`.
        """
        from repro.dynamic.registry import DynamicIndexRegistry
        from repro.dynamic.index import DEFAULT_CAP

        if self._dynamic is None:
            self._dynamic = DynamicIndexRegistry(
                self._prepare_cache, cap=DEFAULT_CAP if cap is None else cap
            )
            for name in self.tables():
                self._dynamic.register(name)
        return self._dynamic

    def _emit_delta(
        self,
        name: str,
        table: UncertainTable,
        op: str,
        previous_version: int,
        **fields: Any,
    ) -> TableDelta:
        """Publish one committed mutation: refresh warm prepared
        rankings in place (the dynamic indexes read them)."""
        delta = TableDelta(
            table=name,
            op=op,
            previous_version=previous_version,
            version=table.version,
            **fields,
        )
        self._prepare_cache.refresh(table, delta)
        return delta

    # ------------------------------------------------------------------
    # Catalogue
    # ------------------------------------------------------------------
    def register(self, table: UncertainTable, name: Optional[str] = None) -> str:
        """Register a table under ``name`` (default: the table's name).

        :returns: the name the table is registered under.
        :raises QueryError: if the name is already taken.
        """
        key = name or table.name
        if key in self._tables:
            raise QueryError(f"a table named {key!r} is already registered")
        with self._table_locks_guard:
            self._table_locks.setdefault(key, threading.RLock())
        self._tables[key] = table
        # No cache invalidation here: the cache is keyed by table object
        # identity and version, so a previously dropped table's entries
        # are already gone (``drop`` invalidates them) and a table object
        # registered under a second name must keep its warm preparations.
        if self._dynamic is not None:
            self._dynamic.register(key)
        return key

    def table(self, name: str) -> UncertainTable:
        """Look up a registered table.

        :raises UnknownTableError: when no table is registered under
            ``name``.
        """
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(f"no table registered as {name!r}") from None

    def tables(self) -> List[str]:
        """Names of all registered tables."""
        return list(self._tables)

    def drop(self, name: str) -> None:
        """Remove a table from the registry and forget its preparations."""
        table = self.table(name)
        del self._tables[name]
        self._prepare_cache.invalidate(table)
        if self._dynamic is not None:
            self._dynamic.drop(name)

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    # The engine-level mutation boundary: inputs are validated by the
    # model layer (probabilities in (0, 1], finite scores, no duplicate
    # ids — all raising MutationError subclasses *before* any state
    # changes), and every committed mutation is published through
    # ``_emit_delta`` so warm preparations (which the dynamic indexes
    # price) advance instead of going cold.  DurableDB overrides each method to add
    # WAL journalling on top.

    def add(
        self,
        name: str,
        tid: Any,
        score: float,
        probability: float,
        **attributes: Any,
    ) -> UncertainTuple:
        """Add one tuple to a registered table.

        :raises InvalidProbabilityError: probability outside ``(0, 1]``
            or not finite.
        :raises InvalidScoreError: NaN / infinite / non-numeric score.
        :raises DuplicateTupleError: the id is already present.
        :raises UnknownTableError: no such table.
        """
        with self.table_lock(name):
            table = self.table(name)
            previous = table.version
            tup = table.add(tid, score, probability, **attributes)
            self._emit_delta(
                name,
                table,
                "add",
                previous,
                tid=tid,
                score=tup.score,
                probability=tup.probability,
                attributes=dict(attributes) or None,
            )
        return tup

    def add_rule(self, name: str, rule: GenerationRule) -> None:
        """Attach a multi-tuple generation rule to a registered table."""
        with self.table_lock(name):
            table = self.table(name)
            previous = table.version
            table.add_rule(rule)
            self._emit_delta(
                name,
                table,
                "rule",
                previous,
                rule_id=rule.rule_id,
                members=tuple(rule.tuple_ids),
            )

    def add_exclusive(
        self, name: str, rule_id: Any, *tuple_ids: Any
    ) -> GenerationRule:
        """Convenience wrapper over :meth:`add_rule`."""
        rule = GenerationRule(rule_id=rule_id, tuple_ids=tuple(tuple_ids))
        self.add_rule(name, rule)
        return rule

    def remove_tuple(self, name: str, tid: Any) -> UncertainTuple:
        """Remove one tuple (shrinking its rule, if any)."""
        with self.table_lock(name):
            table = self.table(name)
            previous = table.version
            removed = table.remove_tuple(tid)
            self._emit_delta(name, table, "remove", previous, tid=tid)
        return removed

    def update_probability(
        self, name: str, tid: Any, probability: float
    ) -> UncertainTuple:
        """Replace one tuple's membership probability."""
        with self.table_lock(name):
            table = self.table(name)
            previous = table.version
            updated = table.update_probability(tid, probability)
            self._emit_delta(
                name,
                table,
                "update",
                previous,
                tid=tid,
                probability=updated.probability,
            )
        return updated

    def update_score(self, name: str, tid: Any, score: float) -> UncertainTuple:
        """Replace one tuple's ranking score (it moves in the order)."""
        with self.table_lock(name):
            table = self.table(name)
            previous = table.version
            updated = table.update_score(tid, score)
            self._emit_delta(
                name, table, "score", previous, tid=tid, score=updated.score
            )
        return updated

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def ptk(
        self,
        name: str,
        k: int,
        threshold: float,
        query: Optional[TopKQuery] = None,
        variant: ExactVariant = ExactVariant.RC_LR,
        pruning: bool = True,
    ) -> PTKAnswer:
        """Exact PT-k query against a registered table.

        With :meth:`enable_dynamic` on, a default-shape query (no
        explicit ``query`` object) whose ``k`` fits the registry cap is
        answered from the maintained incremental index: same answer
        set, ``method="dynamic"``, and ``probabilities`` covering the
        ranks down to the Theorem-5 stop depth
        (``answer.stats.scan_depth``), not every tuple — bitwise what a
        cold columnar scan of the current table computes for them.  A
        bad ``k`` or ``threshold`` raises the same :class:`QueryError`
        on either path.
        """
        with query_scope(
            "ptk", table=name, k=k, threshold=threshold
        ), self.table_lock(name):
            if query is None:
                query = TopKQuery(k=k)
                if self._dynamic is not None:
                    _validate_threshold(threshold)
                    answer = self._dynamic.answer(
                        name, self.table(name), k, threshold
                    )
                    if answer is not None:
                        return answer
            return exact_ptk_query(
                self.table(name),
                query,
                threshold,
                variant=variant,
                pruning=pruning,
                cache=self._prepare_cache,
            )

    def ptk_sampled(
        self,
        name: str,
        k: int,
        threshold: float,
        query: Optional[TopKQuery] = None,
        config: Optional[SamplingConfig] = None,
    ) -> PTKAnswer:
        """Approximate PT-k query via the sampling method."""
        with query_scope(
            "ptk-sampled", table=name, k=k, threshold=threshold
        ), self.table_lock(name):
            return sampled_ptk_query(
                self.table(name),
                query or TopKQuery(k=k),
                threshold,
                config=config,
                cache=self._prepare_cache,
            )

    def ptk_batch(
        self,
        name: str,
        requests: "List[Tuple[int, float]]",
        ranking=None,
        n_workers: int = 1,
        use_processes: bool = True,
    ) -> List[PTKAnswer]:
        """Several ``(k, threshold)`` PT-k queries sharing one scan.

        Delegates to :func:`repro.core.batch.batch_ptk_queries` with this
        engine's prepare cache, so back-to-back batches on an unchanged
        table skip selection/ranking/rule indexing entirely.

        :param n_workers: ``1`` answers all requests over one serial
            scan; ``> 1`` (or ``0`` for one per CPU) partitions them
            across a process pool sharing one prepared ranking.
        """
        from repro.core.batch import batch_ptk_queries

        with query_scope(
            "ptk-batch", table=name, requests=len(requests)
        ), self.table_lock(name):
            return batch_ptk_queries(
                self.table(name),
                requests,
                ranking=ranking,
                cache=self._prepare_cache,
                n_workers=n_workers,
                use_processes=use_processes,
            )

    def ptk_many(
        self,
        requests: "List[Tuple[str, int, float]]",
        n_workers: Optional[int] = None,
        variant: ExactVariant = ExactVariant.RC_LR,
        pruning: bool = True,
        use_processes: bool = True,
    ) -> List[PTKAnswer]:
        """Independent exact PT-k queries fanned out across workers.

        Each request is a ``(table_name, k, threshold)`` triple; requests
        may span several registered tables.  Every distinct table is
        prepared **once** in the parent — through this engine's prepare
        cache, so the warm entries also serve later queries — and the
        prepared rankings are shared by all workers.  Answers come back
        in request order and are identical to calling :meth:`ptk` per
        request.

        :param n_workers: pool size; ``None``/``0`` means one worker per
            available CPU, ``1`` answers serially in-process.
        :param use_processes: set False to run the partitions inline
            (identical answers, no pool).
        """
        from repro.parallel.fanout import parallel_ptk_queries

        # Preparation is k-independent (keyed by predicate and ranking),
        # so one cache lookup per distinct table covers every request.
        ready: Dict[str, Any] = {}
        for name, k, _ in requests:
            if name not in ready:
                with self.table_lock(name):
                    ready[name] = self._prepare_cache.get(
                        self.table(name), TopKQuery(k=k)
                    )
        with query_scope(
            "ptk-many", requests=len(requests), tables=len(ready)
        ):
            return parallel_ptk_queries(
                ready,
                requests,
                n_workers=n_workers,
                variant=variant,
                pruning=pruning,
                use_processes=use_processes,
            )

    def utopk(
        self, name: str, k: int, query: Optional[TopKQuery] = None
    ) -> UTopKAnswer:
        """U-TopK query (most probable top-k vector)."""
        with query_scope("utopk", table=name, k=k):
            return utopk_query(self.table(name), query or TopKQuery(k=k))

    def ukranks(
        self, name: str, k: int, query: Optional[TopKQuery] = None
    ) -> UKRanksAnswer:
        """U-KRanks query (most probable tuple per rank)."""
        with query_scope("ukranks", table=name, k=k):
            return ukranks_query(self.table(name), query or TopKQuery(k=k))

    def global_topk(
        self, name: str, k: int, query: Optional[TopKQuery] = None
    ) -> List[Tuple[Any, float]]:
        """Global-Topk: the k tuples of highest top-k probability."""
        with query_scope("global-topk", table=name, k=k):
            return global_topk(self.table(name), query or TopKQuery(k=k))

    def expected_rank_topk(
        self, name: str, k: int, query: Optional[TopKQuery] = None
    ) -> List[Tuple[Any, float]]:
        """Expected-rank top-k (Cormode et al. semantics)."""
        from repro.semantics.expected_rank import expected_rank_topk

        with query_scope("expected-rank", table=name, k=k):
            return expected_rank_topk(self.table(name), query or TopKQuery(k=k))

    def topk_probabilities(
        self, name: str, k: int, query: Optional[TopKQuery] = None
    ) -> Dict[Any, float]:
        """Exact ``Pr^k`` of every tuple satisfying the predicate."""
        with query_scope("topk-probabilities", table=name, k=k):
            return exact_topk_probabilities(
                self.table(name),
                query or TopKQuery(k=k),
                cache=self._prepare_cache,
            )

    def expected_ranks(
        self, name: str, query: Optional[TopKQuery] = None
    ) -> Dict[Any, float]:
        """Conditional expected rank of every tuple (see semantics.extras)."""
        with query_scope("expected-ranks", table=name):
            return expected_ranks(self.table(name), query or TopKQuery(k=1))

    def explain_plan(
        self, name: str, k: int, threshold: float, latency_model=None
    ) -> dict:
        """Planning-time cost report for a PT-k query.

        :param latency_model: an optional
            :class:`repro.query.planner.LatencyModel`; when given (the
            serving layer passes its calibrated one) the report also
            carries the predicted wall-clock latency of the exact scan
            and the predicted cost of one sample unit — the numbers the
            deadline-aware degradation policy compares against a
            request's remaining budget.
        :returns: a dict with the predicted scan depth / fraction (see
            :mod:`repro.query.planner`) and the heuristic exact-vs-
            sampling recommendation.
        """
        from repro.query.planner import (
            choose_method,
            estimate_latency,
            estimate_scan_depth,
        )

        table = self.table(name)
        estimate = estimate_scan_depth(table, k, threshold)
        report = {
            "table": name,
            "n_tuples": len(table),
            "estimated_scan_depth": estimate.depth,
            "estimated_fraction": estimate.fraction,
            "recommended_method": choose_method(table, k, threshold),
        }
        if latency_model is not None:
            latency = estimate_latency(
                table, k, threshold, model=latency_model
            )
            report["predicted_exact_seconds"] = latency.exact_seconds
            report["predicted_seconds_per_sample_unit"] = (
                latency.sampled_seconds_per_unit
            )
            report["expected_sample_unit_length"] = (
                latency.expected_unit_length
            )
        return report

    def compare_semantics(
        self,
        name: str,
        k: int,
        threshold: float,
        query: Optional[TopKQuery] = None,
    ) -> SemanticsComparison:
        """Run PT-k, U-TopK and U-KRanks side by side (the Section 6.1 study)."""
        table = self.table(name)
        query = query or TopKQuery(k=k)
        with query_scope("compare-semantics", table=name, k=k):
            ptk = exact_ptk_query(
                table, query, threshold, cache=self._prepare_cache
            )
            utopk = utopk_query(table, query)
            ukranks = ukranks_query(table, query)
            probabilities = exact_topk_probabilities(
                table, query, cache=self._prepare_cache
            )
        mentioned = (
            set(ptk.answers) | set(utopk.vector) | set(ukranks.tuple_ids)
        )
        return SemanticsComparison(
            ptk=ptk,
            utopk=utopk,
            ukranks=ukranks,
            topk_probabilities={
                tid: probabilities[tid] for tid in mentioned if tid in probabilities
            },
        )
