"""The exact PT-k algorithm (Figure 3) in its three variants.

The engine scans the ranked list once.  For each retrieved tuple it

1. maintains the compressed dominant set incrementally
   (:class:`~repro.core.rule_compression.DominantSetScan`),
2. orders the units with the configured reordering strategy and evaluates
   the subset-probability DP, reusing the shared prefix
   (:class:`~repro.core.reordering.PrefixSharedDP`),
3. computes ``Pr^k(t) = Pr(t) * Pr(|T(t)| < k present)`` (Equation 4),
4. applies the pruning rules (Theorems 3–5) and the tail stop bound.

Variants (Section 6.2):

* ``RC`` — rule-tuple compression only; every tuple's DP is recomputed
  from scratch.
* ``RC+AR`` — compression plus aggressive reordering with prefix sharing.
* ``RC+LR`` — compression plus lazy reordering with prefix sharing (the
  paper's best performer).
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core import kernel
from repro.core.kernel import TableColumns
from repro.core.pruning import PruningFlags, PruningTracker
from repro.core.reordering import (
    AggressiveReordering,
    CanonicalOrder,
    FreshDP,
    LazyReordering,
    PrefixSharedDP,
    ReorderingStrategy,
)
from repro.core.results import PTKAnswer
from repro.core.rule_compression import (
    CompressionUnit,
    DominantSetScan,
    rule_index_of_table,
)
from repro.exceptions import QueryError
from repro.model.rules import GenerationRule
from repro.obs import OBS, catalogued, span as obs_span
from repro.model.table import UncertainTable
from repro.model.tuples import UncertainTuple
from repro.query.access import RankedStream
from repro.query.prepare import PrepareCache, PreparedRanking, resolve_prepared
from repro.query.topk import TopKQuery


class ExactVariant(enum.Enum):
    """Algorithm variants compared throughout Section 6.2."""

    RC = "RC"
    RC_AR = "RC+AR"
    RC_LR = "RC+LR"

    @property
    def strategy(self) -> ReorderingStrategy:
        """Unit-ordering strategy used by this variant."""
        if self is ExactVariant.RC:
            return CanonicalOrder()
        if self is ExactVariant.RC_AR:
            return AggressiveReordering()
        return LazyReordering()

    @property
    def shares_prefix(self) -> bool:
        """True when the variant keeps a shared-prefix DP cache."""
        return self is not ExactVariant.RC


def _validate_threshold(threshold: float) -> None:
    if not (0.0 <= threshold <= 1.0):
        raise QueryError(
            f"probability threshold must be in (0, 1], or exactly 0.0 "
            f"for full-scan mode, got {threshold!r}"
        )


def _rule_probabilities(
    table: UncertainTable, rule_of: Mapping[Any, GenerationRule]
) -> Dict[Any, float]:
    """``Pr(R)`` for every multi-tuple rule present in ``rule_of``."""
    out: Dict[Any, float] = {}
    for rule in rule_of.values():
        if rule.rule_id not in out:
            out[rule.rule_id] = table.rule_probability(rule)
    return out


#: ``method`` / ``variant`` name of a thresholded columnar read.
COLUMNAR = "columnar"


@dataclass
class ScanCheckpoint:
    """A resumable scan-prefix checkpoint of an interrupted exact scan.

    Produced when :meth:`ExactPTKEngine.run` hits a ``deadline_seconds``
    budget mid-scan.  The checkpoint owns the *live engine*, so resuming
    simply continues the very same scan: the resumed result is bit-exact
    with an uninterrupted run by construction (no state is re-derived).
    The live state is the scalar scan's — stream cursor, dominant-set
    scan, shared-prefix DP, pruning-tracker state, and the partially
    filled answer — or, for a columnar read, the engine's
    :class:`~repro.core.kernel.TopKScanState` (the DP state, the
    ``Pr^k`` rows priced so far and the Theorem-5 running mass).

    A checkpoint is single-use: the engine it wraps mutates as the scan
    continues, so :meth:`resume` refuses a second call.

    :param engine: the interrupted engine (opaque to callers).
    :param depth: tuples fully processed before the interruption.
    :param k: the query's k (for cache keying by callers).
    :param threshold: the query's probability threshold.
    :param variant: algorithm variant name (``RC`` / ``RC+AR`` /
        ``RC+LR``, or ``columnar``).
    """

    engine: "ExactPTKEngine" = field(repr=False)
    depth: int = 0
    k: int = 0
    threshold: float = 0.0
    variant: str = ""
    consumed: bool = field(default=False, repr=False)

    def resume(self, deadline_seconds: Optional[float] = None) -> PTKAnswer:
        """Continue the interrupted scan (optionally budgeted again).

        :raises QueryError: when the checkpoint was already resumed.
        """
        if self.consumed:
            raise QueryError(
                "scan checkpoint already resumed; checkpoints are "
                "single-use (request a fresh one from the new answer)"
            )
        self.consumed = True
        return self.engine.run(deadline_seconds=deadline_seconds)

    def describe(self) -> Dict[str, Any]:
        """Introspection for debug endpoints and the scheduler block.

        ``pruning`` (the Theorem 3–5 tracker state) is present only for
        the scalar scan; the columnar read has no tracker.
        """
        info = {
            "depth": self.depth,
            "k": self.k,
            "threshold": self.threshold,
            "variant": self.variant,
            "answers_so_far": len(self.engine.partial_answer.answers),
        }
        tracker = self.engine.tracker
        if tracker is not None:
            info["pruning"] = tracker.snapshot()
        return info


class ExactPTKEngine:
    """Executor for a PT-k query over a ranked stream.

    Most callers should use the module-level functions
    :func:`exact_ptk_query` / :func:`exact_topk_probabilities`; the
    engine class exists so benchmarks can inspect intermediate state.

    :meth:`run` accepts an optional wall-clock budget.  A budgeted run
    that cannot finish in time returns a *partial* answer whose
    ``checkpoint`` resumes the scan later — repeated ``run()`` calls on
    one engine continue the same scan, they never restart it.

    :param ranked: full ranked list behind the stream (rank positions of
        rule members must be known up front; tuples are still *retrieved*
        progressively so scan depth is meaningful).
    :param rule_of: maps tuple id -> multi-tuple rule.
    :param rule_probability: maps rule id -> ``Pr(R)``.
    :param k: top-k size.
    :param threshold: probability threshold p in ``(0, 1]`` — or exactly
        ``0.0`` for *full-scan mode*: every ``Pr^k`` is computed, no
        tuple "passes" (``answers`` stays empty), pruning is off, and
        ``stats.stopped_by`` reads ``"exhausted"``.
    :param variant: RC / RC+AR / RC+LR.
    :param pruning: disable to force a full scan computing every ``Pr^k``
        (used for ground truth, U-KRanks, and the pruning ablation).
    :param stop_check_interval: how often the tail stop bound is checked.
    :param columnar: use the vectorized columnar kernel instead of the
        scalar per-tuple loop.  In full-scan mode the kernel prices the
        whole column in one shot.  With a threshold it prices the column
        in ranking order to Theorem 5's stop depth (every row, with
        ``pruning=False``); ``variant``, ``pruning_flags`` and
        ``stop_check_interval`` do not apply, Theorems 3–4 skip no row,
        and the answer's ``method`` is ``"columnar"``.  Default:
        columnar when full-scanning, scalar otherwise, so
        ``columnar=False`` or the default for a thresholded query
        retains the scalar implementation as the cross-check oracle.
    :param columns: pre-built :class:`~repro.core.kernel.TableColumns`
        for ``ranked`` (e.g. from a prepared ranking or a recovered
        snapshot); built on demand when omitted.
    """

    def __init__(
        self,
        ranked: Sequence[UncertainTuple],
        rule_of: Mapping[Any, GenerationRule],
        rule_probability: Mapping[Any, float],
        k: int,
        threshold: float,
        variant: ExactVariant = ExactVariant.RC_LR,
        pruning: bool = True,
        stop_check_interval: int = 16,
        pruning_flags: Optional[PruningFlags] = None,
        columnar: Optional[bool] = None,
        columns: Optional[TableColumns] = None,
    ) -> None:
        if k <= 0:
            raise QueryError(f"k must be positive, got {k}")
        _validate_threshold(threshold)
        self.k = k
        self.threshold = threshold
        self.variant = variant
        self.full_scan = threshold == 0.0
        self.pruning = pruning and not self.full_scan
        self.columnar = columnar if columnar is not None else self.full_scan
        self._ranked = ranked
        self._rule_of = rule_of
        self._columns = columns
        self._method = (
            COLUMNAR if self.columnar and not self.full_scan else variant.value
        )
        # Resumable-scan state: the answer fills across run() segments,
        # and _publish increments global counters by *deltas* so a
        # resumed query is not double-counted.
        self._answer = PTKAnswer(k=k, threshold=threshold, method=self._method)
        self._published: Dict[str, int] = {}
        self._tracker: Optional[PruningTracker] = None
        if self.columnar:
            # The kernel reads the columns alone; none of the scalar
            # scan's per-tuple structures are built.
            if not self.full_scan:
                columns = self._table_columns()
                self._topk = kernel.TopKScanState(
                    columns.probability, columns.rule_index, k
                )
                self._limit = k - threshold if self.pruning else math.inf
            return
        self._stream = RankedStream(ranked, presorted=True)
        self._scan = DominantSetScan(ranked, rule_of)
        self._strategy = variant.strategy
        # cap = k + 1: entries 0..k-1 feed Pr^k, entry k serves nothing
        # here but keeps vector shapes uniform with the tail bound.
        cap = k + 1
        self._dp = PrefixSharedDP(cap) if variant.shares_prefix else FreshDP(cap)
        self._previous_order: List[CompressionUnit] = []
        self._tracker = PruningTracker(
            k=k,
            threshold=threshold,
            rule_of=rule_of,
            table_rule_probability=rule_probability,
            stop_check_interval=stop_check_interval,
            flags=pruning_flags,
        )
        # Observability: resolve metric handles once per engine so the
        # per-tuple hot path pays only a None check when obs is off.
        self._obs_dp_units = (
            catalogued("repro_ptk_dp_units") if OBS.enabled else None
        )

    @property
    def partial_answer(self) -> PTKAnswer:
        """The (possibly still partial) answer the scan is filling."""
        return self._answer

    @property
    def tracker(self) -> Optional[PruningTracker]:
        """The pruning tracker (checkpoint introspection, benchmarks);
        ``None`` for a columnar engine."""
        return self._tracker

    def _table_columns(self) -> TableColumns:
        """The columns of ``ranked``, built on first use if not given."""
        if self._columns is None:
            self._columns = TableColumns.from_ranked(self._ranked, self._rule_of)
        return self._columns

    def run(self, deadline_seconds: Optional[float] = None) -> PTKAnswer:
        """Execute (or continue) the scan and return the answer object.

        :param deadline_seconds: optional wall-clock budget for *this*
            call.  When the budget expires mid-scan the returned answer
            is partial: ``stats.stopped_by == "deadline"`` and
            ``answer.checkpoint`` resumes the scan.  A columnar read
            checks it between chunks of
            :data:`~repro.core.kernel.ANSWER_CHUNK` rows; the columnar
            full-scan kernel ignores it (one vectorized shot, no
            per-tuple loop to interrupt).
        """
        if self.columnar:
            if self.full_scan:
                return self._run_columnar()
            return self._read_columnar(deadline_seconds)
        answer = self._answer
        answer.checkpoint = None
        stats = answer.stats
        stop_at = (
            None
            if deadline_seconds is None
            else time.perf_counter() + deadline_seconds
        )
        interrupted = False
        with obs_span("ptk.scan", variant=self.variant.value, k=self.k) as scan_span:
            while True:
                # The budget is checked *before* retrieving, so every
                # consumed tuple is fully processed: the stream cursor
                # is exactly the count of processed tuples and a resume
                # picks up at the next unseen one.
                if stop_at is not None and time.perf_counter() >= stop_at:
                    interrupted = True
                    break
                tup = self._stream.next_tuple()
                if tup is None:
                    break
                self._tracker.note_first_encounter(tup)
                skip_reason = self._tracker.should_skip(tup) if self.pruning else None
                if skip_reason is None:
                    probability = self._evaluate(tup)
                    stats.tuples_evaluated += 1
                    answer.probabilities[tup.tid] = probability
                    if not self.full_scan and probability >= self.threshold:
                        answer.answers.append(tup.tid)
                    self._tracker.observe(tup, probability)
                else:
                    if skip_reason == "membership":
                        stats.tuples_pruned_membership += 1
                    else:
                        stats.tuples_pruned_same_rule += 1
                    self._tracker.observe_skipped(tup, skip_reason)
                self._scan.advance(tup)
                if self.pruning:
                    stop_reason = self._tracker.should_stop(self._scan)
                    if stop_reason is not None:
                        stats.stopped_by = stop_reason
                        break
            stats.scan_depth = self._stream.scan_depth
            stats.subset_extensions = self._dp.extensions
            if interrupted:
                stats.stopped_by = "deadline"
                answer.checkpoint = ScanCheckpoint(
                    engine=self,
                    depth=stats.scan_depth,
                    k=self.k,
                    threshold=self.threshold,
                    variant=self.variant.value,
                )
            elif stats.stopped_by == "deadline":
                # A resumed scan that ran to a real stop: the stale
                # marker from the interrupted segment must not survive.
                stats.stopped_by = (
                    self._tracker.stopped_by or "exhausted"
                )
            scan_span.set(
                scan_depth=stats.scan_depth, stopped_by=stats.stopped_by
            )
        if OBS.enabled:
            self._publish(stats, self._scan.unit_counts())
        return answer

    def _run_columnar(self) -> PTKAnswer:
        """Full-scan mode on the vectorized columnar kernel.

        Produces the same ``probabilities`` map as the scalar full scan
        (to within the kernel's documented 1e-12 parity budget) with
        ``answers`` empty and a clean ``stopped_by``; the reordering
        strategy is irrelevant because the kernel maintains one live DP
        over the whole scan.
        """
        answer = PTKAnswer(
            k=self.k, threshold=self.threshold, method=self.variant.value
        )
        stats = answer.stats
        with obs_span(
            "ptk.scan", variant=self.variant.value, k=self.k, columnar=True
        ) as scan_span:
            columns = self._table_columns()
            out, extensions = kernel.columnar_topk_scan(
                columns.probability, columns.rule_index, self.k
            )
            answer.probabilities.update(zip(columns.tids, out.tolist()))
            stats.scan_depth = len(columns)
            stats.tuples_evaluated = len(columns)
            stats.subset_extensions = extensions
            scan_span.set(
                scan_depth=stats.scan_depth, stopped_by=stats.stopped_by
            )
        if OBS.enabled:
            self._publish(stats, columns.unit_counts())
        return answer

    def _read_columnar(self, deadline_seconds: Optional[float]) -> PTKAnswer:
        """A thresholded query on the resumable columnar kernel.

        Reveals the ``Pr^k`` column in ranking order to Theorem 5's stop
        depth (:meth:`~repro.core.kernel.TopKScanState.read`, the read
        the dynamic index serves too); the answers are the revealed rows with ``Pr^k >= p``, since by
        Theorem 5 no deeper row can reach ``p``.  Theorems 3–4 do not
        apply to the kernel, so no row is skipped:
        ``stats.tuples_evaluated`` counts the rows priced (the stop depth
        rounded up to a whole chunk) and the pruning counters stay 0.
        A deadline cut returns a partial answer whose checkpoint
        continues the same state.
        """
        stop_at = (
            None
            if deadline_seconds is None
            else time.perf_counter() + deadline_seconds
        )
        answer = PTKAnswer(k=self.k, threshold=self.threshold, method=COLUMNAR)
        stats = answer.stats
        state = self._topk
        with obs_span(
            "ptk.scan", variant=COLUMNAR, k=self.k, columnar=True
        ) as scan_span:
            (
                answer.answers,
                answer.probabilities,
                depth,
                stats.stopped_by,
            ) = state.read(
                self._columns.tids, self.threshold, self._limit, stop_at
            )
            stats.scan_depth = depth
            stats.tuples_evaluated = state.done
            stats.subset_extensions = state.extensions
            if stats.stopped_by == "deadline":
                answer.checkpoint = ScanCheckpoint(
                    engine=self,
                    depth=depth,
                    k=self.k,
                    threshold=self.threshold,
                    variant=COLUMNAR,
                )
            scan_span.set(scan_depth=depth, stopped_by=stats.stopped_by)
        self._answer = answer
        if OBS.enabled:
            self._publish(stats, None)
        return answer

    def _delta(self, key: str, value: int) -> int:
        """Unpublished growth of a stat since the last ``_publish``.

        A budgeted scan publishes once per ``run()`` segment; counting
        deltas keeps the global counters exact across resumes (absolute
        values would double-count every resumed prefix).
        """
        previous = self._published.get(key, 0)
        self._published[key] = value
        return value - previous

    def _publish(
        self, stats, unit_counts: Optional[Tuple[int, int, int]]
    ) -> None:
        """Flush the run's counters into the global metrics registry.

        Done once per query segment (not per tuple) so enabled-mode
        overhead stays off the inner loop.  Work counters advance by
        deltas; the per-query counters (queries, stops, the scan-depth
        histogram) fire once — queries on the first segment, stops and
        the depth sample only when the scan actually completed.

        :param unit_counts: ``(independent units, rule units, rule
            merges)`` for the flight profile, or ``None`` to leave them
            unset.
        """
        if not self._published:
            catalogued("repro_ptk_queries_total").inc(1.0, method=self._method)
        catalogued("repro_ptk_tuples_scanned_total").inc(
            self._delta("scan_depth", stats.scan_depth)
        )
        catalogued("repro_ptk_tuples_evaluated_total").inc(
            self._delta("tuples_evaluated", stats.tuples_evaluated)
        )
        pruned = catalogued("repro_ptk_tuples_pruned_total")
        pruned.inc(
            self._delta("pruned_membership", stats.tuples_pruned_membership),
            theorem="membership",
        )
        pruned.inc(
            self._delta("pruned_same_rule", stats.tuples_pruned_same_rule),
            theorem="same-rule",
        )
        catalogued("repro_ptk_dp_extensions_total").inc(
            self._delta("subset_extensions", stats.subset_extensions)
        )
        if stats.stopped_by != "deadline":
            catalogued("repro_ptk_scan_depth").observe(stats.scan_depth)
            catalogued("repro_ptk_scan_stops_total").inc(
                1.0, reason=stats.stopped_by
            )
        profile = OBS.flight.current()
        if profile is not None:
            profile.engine = "exact"
            profile.variant = self._method
            profile.scan_depth = stats.scan_depth
            profile.tuples_evaluated = stats.tuples_evaluated
            profile.pruned_membership = stats.tuples_pruned_membership
            profile.pruned_same_rule = stats.tuples_pruned_same_rule
            profile.dp_extensions = stats.subset_extensions
            profile.stopped_by = stats.stopped_by
            if unit_counts is not None:
                independent, rule, merges = unit_counts
                profile.compression_units_independent = independent
                profile.compression_units_rule = rule
                profile.compression_rule_merges = merges

    def _evaluate(self, tup: UncertainTuple) -> float:
        """Equation 4 over the compressed dominant set of ``tup``."""
        units = self._scan.units_for(tup)
        order = self._strategy.order_units(units, self._previous_order)
        if self._obs_dp_units is not None:
            self._obs_dp_units.observe(len(order))
        vector = self._dp.vector_for(order)
        if self.variant.shares_prefix:
            self._previous_order = order
        if len(order) < self.k:
            # Fewer than k units in the dominant set: Pr(|T(t)| < k) is
            # exactly 1, not a DP sum that may sit an ulp off it.
            return tup.probability
        # The kernel's compensated sum — identical to
        # SubsetProbabilityVector.probability_fewer_than, so the scan
        # path and the oracle/tail-bound path agree bit-for-bit on the
        # same vector (naive ndarray.sum() here once let Pr^k straddle
        # the threshold differently from the reference computation).
        return tup.probability * kernel.fewer_than_k(vector, self.k)


def exact_ptk_query(
    table: UncertainTable,
    query: TopKQuery,
    threshold: float,
    variant: ExactVariant = ExactVariant.RC_LR,
    pruning: bool = True,
    stop_check_interval: int = 16,
    pruning_flags: Optional[PruningFlags] = None,
    prepared: Optional[PreparedRanking] = None,
    cache: Optional[PrepareCache] = None,
    columnar: Optional[bool] = None,
    deadline_seconds: Optional[float] = None,
    resume: Optional[ScanCheckpoint] = None,
) -> PTKAnswer:
    """Answer a PT-k query exactly (the paper's main algorithm).

    :param table: the uncertain table ``T``.
    :param query: the top-k query ``Q^k(P, f)``.
    :param threshold: the probability threshold ``p`` in ``(0, 1]``, or
        exactly ``0.0`` for full-scan mode (every ``Pr^k`` computed,
        ``answers`` left empty, pruning off).
    :param variant: RC, RC+AR or RC+LR (default: the fastest, RC+LR).
    :param pruning: set False to compute every tuple's probability.
    :param pruning_flags: enable individual pruning rules (ablation);
        ignored when ``pruning`` is False.
    :param prepared: a ready :class:`PreparedRanking` for ``(table,
        query)``; skips selection/ranking/rule indexing entirely.
    :param cache: a :class:`PrepareCache` to consult (and fill) when
        ``prepared`` is not given.
    :param columnar: in full-scan mode, run the vectorized columnar
        kernel (the default there); ``False`` keeps the scalar
        per-tuple loop as the cross-check oracle.  With a threshold
        above 0, ``True`` reads the preparation's columns to Theorem 5's
        stop depth (see :class:`ExactPTKEngine`); the default ``None``
        keeps the scalar engine, the reference oracle.
    :param deadline_seconds: wall-clock budget for the scan; on
        expiry the answer is partial (``stats.stopped_by ==
        "deadline"``) and carries a resumable ``checkpoint``.
    :param resume: a :class:`ScanCheckpoint` from an earlier budgeted
        call; the scan continues from its prefix instead of restarting.
        The checkpoint must come from the same (table version, k,
        threshold) — callers key their checkpoint stores accordingly —
        and every other parameter of this call is ignored.
    :returns: a :class:`~repro.core.results.PTKAnswer`.
    """
    if resume is not None:
        if resume.k != query.k or resume.threshold != threshold:
            raise QueryError(
                f"checkpoint is for k={resume.k} threshold="
                f"{resume.threshold}, cannot resume a query with "
                f"k={query.k} threshold={threshold}"
            )
        return resume.resume(deadline_seconds=deadline_seconds)
    with obs_span("ptk.prepare"):
        prepared = resolve_prepared(table, query, prepared=prepared, cache=cache)
    columns = None
    if columnar or (columnar is None and threshold == 0.0):
        # The prepared ranking caches its columnarisation, so repeated
        # columnar scans against an unchanged table skip re-extraction.
        columns = prepared.columns
    engine = ExactPTKEngine(
        prepared.ranked,
        prepared.rule_of,
        prepared.rule_probability,
        k=query.k,
        threshold=threshold,
        variant=variant,
        pruning=pruning,
        stop_check_interval=stop_check_interval,
        pruning_flags=pruning_flags,
        columnar=columnar,
        columns=columns,
    )
    return engine.run(deadline_seconds=deadline_seconds)


def exact_topk_probabilities(
    table: UncertainTable,
    query: TopKQuery,
    variant: ExactVariant = ExactVariant.RC_LR,
    prepared: Optional[PreparedRanking] = None,
    cache: Optional[PrepareCache] = None,
    columnar: Optional[bool] = None,
) -> Dict[Any, float]:
    """``Pr^k`` for *every* tuple satisfying the predicate (full scan).

    A PT-k query in explicit full-scan mode (``threshold=0.0``): every
    tuple's probability is computed, nothing is declared an "answer",
    and the scan runs to exhaustion.  Used for ground-truth
    comparisons, result tables, and the alternative-semantics
    baselines.  By default the vectorized columnar kernel does the
    work; pass ``columnar=False`` for the scalar reference loop.
    """
    answer = exact_ptk_query(
        table,
        query,
        threshold=0.0,
        variant=variant,
        pruning=False,
        prepared=prepared,
        cache=cache,
        columnar=columnar,
    )
    return answer.probabilities


def exact_position_probabilities(
    table: UncertainTable,
    query: TopKQuery,
) -> Dict[Any, List[float]]:
    """Position probabilities ``Pr(t, j)`` for ``j = 1..k``, with rules.

    ``Pr(t, j) = Pr(t) * Pr(exactly j-1 of T(t) appear)`` — the rule-aware
    generalisation of Equation 3 used by the U-KRanks baseline.

    :returns: mapping tuple id -> list of k probabilities (index 0 is
        rank 1).
    """
    selected = query.selected(table)
    ranked = query.ranking.rank_table(selected)
    rule_of = rule_index_of_table(selected)
    scan = DominantSetScan(ranked, rule_of)
    strategy = LazyReordering()
    dp = PrefixSharedDP(query.k + 1)
    previous: List[CompressionUnit] = []
    result: Dict[Any, List[float]] = {}
    for tup in ranked:
        units = scan.units_for(tup)
        order = strategy.order_units(units, previous)
        vector = dp.vector_for(order)
        previous = order
        result[tup.tid] = [
            tup.probability * float(vector[j]) for j in range(query.k)
        ]
        scan.advance(tup)
    return result
