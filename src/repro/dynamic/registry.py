"""The dynamic-index registry: one index per table, fallback policy, answers.

One :class:`DynamicIndexRegistry` lives inside an
:class:`~repro.query.engine.UncertainDB` once
:meth:`~repro.query.engine.UncertainDB.enable_dynamic` is called.  It
owns one :class:`~repro.dynamic.index.DynamicIndex` per registered table
— the live ``Pr^k`` scans, one per requested ``k``, over the table's
default-shape preparation — and answers reads from it:

* **writes** touch nothing here: the engine's mutation path refreshes
  the prepare cache's preparation (columns included), the table's only
  ranked state;
* **reads** take the table's current preparation from the prepare cache
  and, when it is not the one the index is priced on, move the index
  onto it (:meth:`DynamicIndex.apply`: a column compare plus a rewind of
  each scan to its latest snapshot above the first changed rank), then
  answer from the scan for the requested ``k``, pricing only up to the
  Theorem-5 stop depth the answer needs.

Callers hold the table's lock (:meth:`~repro.query.engine.UncertainDB
.table_lock`) across :meth:`~DynamicIndexRegistry.answer`, so the
preparation it reads describes one table version.

Degradation is the design's safety net, not an afterthought: a ``k``
above the registry cap is answered by the caller's cold path, and an
unexpected error while moving or reading the index discards it and
rebuilds it from the preparation (:meth:`DynamicIndex.build`).  Every
fallback is counted by reason (``repro_dyn_fallbacks_total``), so "the
escape hatch fired" is an observable event, never a silent behavior
change.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

from repro.core.results import PTKAnswer
from repro.exceptions import QueryError
from repro.model.table import UncertainTable
from repro.obs import OBS, catalogued
from repro.query.prepare import PrepareCache
from repro.query.topk import TopKQuery

from repro.dynamic.index import DEFAULT_CAP, DynamicIndex


def _priced_read(index: DynamicIndex, k: int, threshold: float):
    """:meth:`DynamicIndex.scan_answer` plus the rows it priced: what the
    read added to ``k``'s live scan."""
    scan = index.scans.get(k)
    done = 0 if scan is None else scan.done
    answers, probabilities, depth, stopped_by = index.scan_answer(k, threshold)
    return answers, probabilities, depth, stopped_by, index.scans[k].done - done


class _TableState:
    """Per-table registry slot: the table's index (``None`` until its
    first read) and the lock that serialises access to it."""

    __slots__ = ("index", "lock")

    def __init__(self) -> None:
        self.index: Optional[DynamicIndex] = None
        self.lock = threading.Lock()


class DynamicIndexRegistry:
    """Dynamic PT-k indexes for the tables of one database.

    :param cache: the database's prepare cache; its default-shape
        preparation of each table is what the indexes price.
    :param cap: largest ``k`` served incrementally; one scan is built
        per distinct requested ``k`` up to this bound.
    """

    def __init__(self, cache: PrepareCache, cap: int = DEFAULT_CAP) -> None:
        if cap <= 0:
            raise QueryError(f"dynamic cap must be positive, got {cap}")
        self.cache = cache
        self.cap = int(cap)
        self._states: Dict[str, _TableState] = {}
        self._lock = threading.Lock()
        # Cumulative counters (also exported as repro_dyn_* metrics;
        # kept here as plain ints so /healthz and tests can read them
        # without the obs registry).
        self.deltas_applied = 0
        self.fallbacks: Dict[str, int] = {}
        self.reads_index = 0
        self.reads_rebuild = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, name: str) -> None:
        """Track ``name``, discarding any index of an earlier table by
        that name; the index is built lazily on the first read."""
        with self._lock:
            self._states[name] = _TableState()

    def drop(self, name: str) -> None:
        """Forget a table's index."""
        with self._lock:
            self._states.pop(name, None)

    def tracked(self) -> List[str]:
        """Names currently tracked by the registry."""
        with self._lock:
            return list(self._states)

    # ------------------------------------------------------------------
    # The read path
    # ------------------------------------------------------------------
    def _fallback(self, reason: str) -> None:
        self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1
        if OBS.enabled:
            catalogued("repro_dyn_fallbacks_total").inc(1.0, reason=reason)

    def _index_for(self, state: _TableState, prepared) -> DynamicIndex:
        """The table's index, moved onto ``prepared`` (built on first
        use).  Callers hold ``state.lock``."""
        index = state.index
        if index is None:
            index = state.index = DynamicIndex.build(prepared)
            return index
        if index.prepared is prepared:
            return index
        started = time.perf_counter()
        carried = prepared.source_version - index.prepared.source_version
        suffix = index.apply(prepared)
        self.deltas_applied += max(carried, 0)
        if OBS.enabled:
            elapsed = time.perf_counter() - started
            # The index sees versions, not operations: op="any".
            catalogued("repro_dyn_deltas_applied_total").inc(
                float(max(carried, 0)), op="any"
            )
            catalogued("repro_dyn_suffix_length").observe(suffix)
            catalogued("repro_dyn_refresh_seconds").observe(elapsed)
        return index

    def answer(
        self,
        name: str,
        table: UncertainTable,
        k: int,
        threshold: float,
    ) -> Optional[PTKAnswer]:
        """A PT-k answer from the maintained index, or ``None`` when the
        table is untracked or ``k`` exceeds the cap (callers run their
        usual cold path; the miss is counted).

        The answer carries the scanned prefix's ``Pr^k`` values —
        bitwise what a cold columnar scan of the current table would
        produce for those ranks — with ``answers`` holding the ids at
        or above ``threshold`` in ranking order and ``stats.scan_depth``
        the Theorem-5 stop depth the read actually priced (see
        :meth:`DynamicIndex.scan_answer`).  Inputs are the caller's to
        validate (:meth:`~repro.query.engine.UncertainDB.ptk` does).
        ``stats.tuples_evaluated`` bills the rows this read added to the
        live scan, as the columnar engine bills the rows it priced: a
        cold read its whole chunks, a warm one 0.
        """
        if k > self.cap:
            self._fallback("cap")
            return None
        with self._lock:
            state = self._states.get(name)
        if state is None:
            return None
        with state.lock:
            prepared = self.cache.get(table, TopKQuery(k=k))
            try:
                index = self._index_for(state, prepared)
                rebuilt = k not in index.scans
                read = _priced_read(index, k, threshold)
            except Exception:
                # Degrade: rebuild cold from the preparation and re-read
                # (a second failure is a genuine bug and propagates).
                self._fallback("error")
                index = state.index = DynamicIndex.build(prepared)
                rebuilt = True
                read = _priced_read(index, k, threshold)
            answer = PTKAnswer(k=k, threshold=threshold, method="dynamic")
            (
                answers,
                probabilities,
                answer.stats.scan_depth,
                answer.stats.stopped_by,
                answer.stats.tuples_evaluated,
            ) = read
            answer.probabilities.update(probabilities)
            answer.answers.extend(answers)
        if rebuilt:
            self.reads_rebuild += 1
        else:
            self.reads_index += 1
        if OBS.enabled:
            catalogued("repro_dyn_reads_total").inc(
                1.0, source="rebuild" if rebuilt else "index"
            )
        return answer

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Registry-level counters plus per-table, per-``k`` scan stats."""
        with self._lock:
            states = dict(self._states)
        tables = {}
        for name, state in states.items():
            with state.lock:
                index = state.index
                tables[name] = {
                    "indexes": {} if index is None else index.stats()
                }
        return {
            "cap": self.cap,
            "deltas_applied": self.deltas_applied,
            "fallbacks": dict(self.fallbacks),
            "reads": {"index": self.reads_index, "rebuild": self.reads_rebuild},
            "tables": tables,
        }
