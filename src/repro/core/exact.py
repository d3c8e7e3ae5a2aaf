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
import threading
import time
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
from repro.core.rule_compression import CompressionUnit, DominantSetScan
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


class ExactPTKEngine:
    """Executor for a PT-k query over a ranked stream.

    Most callers should use the module-level functions
    :func:`exact_ptk_query` / :func:`exact_topk_probabilities`; the
    engine class exists so benchmarks can inspect intermediate state.

    A thresholded columnar :meth:`run` accepts an optional wall-clock
    budget.  A read that cannot finish in time returns a *partial*
    answer; the rows it priced stay in its scan state, so a later read
    of that state continues from them.

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
    :param state: a columnar read's :class:`~repro.core.kernel.
        TopKScanState` at this ``k`` over ``columns``, to read instead of
        a fresh one.  Several engines may read one state in turn (a
        preparation's warm scan, :meth:`~repro.dynamic.index.DynamicIndex
        .scan`): rows another engine priced are not priced again, and
        each read's ``tuples_evaluated`` and ``subset_extensions`` bill
        only the state's growth during it.
    :param lock: the lock of a preparation's warm scan
        (:meth:`~repro.dynamic.index.DynamicIndex.scan`), a ``state``
        shared across threads and preparations.  A read holds it only
        while it moves the state onto ``columns``
        (:meth:`~repro.dynamic.index._LiveScan.follow`) and reads it, and
        a budgeted read waits for it no later than its deadline.
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
        state: Optional[kernel.TopKScanState] = None,
        lock: Optional[threading.Lock] = None,
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
        self._tracker: Optional[PruningTracker] = None
        if self.columnar:
            # The kernel reads the columns alone; none of the scalar
            # scan's per-tuple structures are built.
            if not self.full_scan:
                columns = self._table_columns()
                if state is None:
                    state = kernel.TopKScanState(
                        columns.probability, columns.rule_index, k
                    )
                elif state.k != k:
                    raise QueryError(
                        f"scan state is for k={state.k}, cannot read "
                        f"k={k} from it"
                    )
                self._topk = state
                self._lock = lock
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
    def tracker(self) -> Optional[PruningTracker]:
        """The scalar scan's pruning tracker; ``None`` for a columnar
        engine."""
        return self._tracker

    def _table_columns(self) -> TableColumns:
        """The columns of ``ranked``, built on first use if not given."""
        if self._columns is None:
            self._columns = TableColumns.from_ranked(self._ranked, self._rule_of)
        return self._columns

    def run(self, deadline_seconds: Optional[float] = None) -> PTKAnswer:
        """Execute the scan and return the answer object.

        :param deadline_seconds: optional wall-clock budget of a
            thresholded columnar read, checked between chunks of
            :data:`~repro.core.kernel.ANSWER_CHUNK` rows.  When it
            expires the answer is partial (``stats.stopped_by ==
            "deadline"``) and the rows priced so far stay in the scan
            state.  The columnar full-scan kernel ignores it (one
            vectorized shot, nothing to interrupt).
        :raises QueryError: when a budget is given to the scalar engine,
            the reference oracle, which always runs to its stop.
        """
        if self.columnar:
            if self.full_scan:
                return self._run_columnar()
            return self._read_columnar(deadline_seconds)
        if deadline_seconds is not None:
            raise QueryError(
                "deadline_seconds needs a columnar read (columnar=True "
                "with a threshold above 0); the scalar engine has no "
                "deadline cut"
            )
        answer = PTKAnswer(k=self.k, threshold=self.threshold, method=self._method)
        stats = answer.stats
        with obs_span("ptk.scan", variant=self.variant.value, k=self.k) as scan_span:
            while True:
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
        the dynamic route serves too); the answers are the revealed rows with ``Pr^k >= p``, since by
        Theorem 5 no deeper row can reach ``p``.  Theorems 3–4 do not
        apply to the kernel, so no row is skipped:
        ``stats.tuples_evaluated`` counts the rows this engine priced
        (on a fresh state, the stop depth rounded up to a whole chunk;
        on a shared one, only the rows earlier readers had not) and the
        pruning counters stay 0.  A deadline cut returns a partial
        answer and leaves the rows it priced in the state, for the next
        read at this ``k`` to continue; a deadline that passes while
        another reader holds the state's lock returns a partial answer
        with nothing revealed.
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
            if self._acquire(stop_at):
                try:
                    if self._lock is not None:
                        state.follow(self._columns)
                    done, extensions = state.done, state.extensions
                    (
                        answer.answers,
                        answer.probabilities,
                        stats.scan_depth,
                        stats.stopped_by,
                    ) = state.read(
                        self._columns.tids, self.threshold, self._limit,
                        stop_at,
                    )
                    stats.tuples_evaluated = state.done - done
                    stats.subset_extensions = state.extensions - extensions
                finally:
                    if self._lock is not None:
                        self._lock.release()
            else:
                stats.stopped_by = "deadline"
            scan_span.set(
                scan_depth=stats.scan_depth, stopped_by=stats.stopped_by
            )
        if OBS.enabled:
            self._publish(stats, None)
        return answer

    def _acquire(self, stop_at: Optional[float]) -> bool:
        """Take the shared state's lock, if any, waiting no later than
        ``stop_at``; False when the deadline passed first."""
        lock = self._lock
        if lock is None or lock.acquire(blocking=False):
            return True
        if stop_at is None:
            return lock.acquire()
        return lock.acquire(timeout=max(stop_at - time.perf_counter(), 0.0))

    def _publish(
        self, stats, unit_counts: Optional[Tuple[int, int, int]]
    ) -> None:
        """Flush the run's counters into the global metrics registry.

        Done once per query (not per tuple) so enabled-mode overhead
        stays off the inner loop.  The stop counter and the scan-depth
        histogram fire only when the scan reached a real stop, not a
        deadline cut.

        :param unit_counts: ``(independent units, rule units, rule
            merges)`` for the flight profile, or ``None`` to leave them
            unset.
        """
        catalogued("repro_ptk_queries_total").inc(1.0, method=self._method)
        catalogued("repro_ptk_tuples_scanned_total").inc(stats.scan_depth)
        catalogued("repro_ptk_tuples_evaluated_total").inc(
            stats.tuples_evaluated
        )
        pruned = catalogued("repro_ptk_tuples_pruned_total")
        pruned.inc(stats.tuples_pruned_membership, theorem="membership")
        pruned.inc(stats.tuples_pruned_same_rule, theorem="same-rule")
        catalogued("repro_ptk_dp_extensions_total").inc(
            stats.subset_extensions
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
        above 0, ``True`` reads the preparation's warm scan at ``k``
        (:attr:`~repro.query.prepare.PreparedRanking.index`) to
        Theorem 5's stop depth (see :class:`ExactPTKEngine`): answers,
        probabilities, ``scan_depth`` and ``stopped_by`` are bitwise a
        fresh scan's, and ``tuples_evaluated`` and
        ``subset_extensions`` bill only the rows earlier reads at ``k``
        had not priced, on this preparation or one before a write that
        left them unchanged (0 when a read repeats).  The default ``None``
        keeps the scalar engine, the reference oracle.
    :param deadline_seconds: wall-clock budget of a columnar read
        (``columnar=True``, threshold above 0).  On expiry the answer is
        partial (``stats.stopped_by == "deadline"``); the rows it priced
        stay in the preparation's warm scan, so a retry at the same
        ``k`` continues from them and bills only the rest.
    :returns: a :class:`~repro.core.results.PTKAnswer`.
    :raises QueryError: when ``deadline_seconds`` is given to the
        scalar engine, the reference, which is never cut.
    """
    with obs_span("ptk.prepare"):
        prepared = resolve_prepared(table, query, prepared=prepared, cache=cache)
    columns = state = lock = None
    if columnar or (columnar is None and threshold == 0.0):
        # A columnar read prices the preparation's columns alone.
        columns = prepared.columns
    if columnar and threshold != 0.0:
        # ... and resumes the preparation's warm scan at this k.
        _validate_threshold(threshold)
        state = prepared.index.scan(columns, query.k)
        lock = state.lock
    engine = ExactPTKEngine(
        () if columns is not None else prepared.ranked,
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
        state=state,
        lock=lock,
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

