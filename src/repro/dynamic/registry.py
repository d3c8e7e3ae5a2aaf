"""The dynamic-index registry: delta queues, fallback policy, answers.

One :class:`DynamicIndexRegistry` lives inside an
:class:`~repro.query.engine.UncertainDB` once
:meth:`~repro.query.engine.UncertainDB.enable_dynamic` is called.  It
owns a small family of :class:`~repro.dynamic.index.DynamicIndex`\\ es
per registered table — **one per requested** ``k``, because an index is
byte-exact at exactly one ``k`` (see the index module docstring) — and
mediates between the write path and the read path:

* **writes** enqueue :class:`~repro.dynamic.delta.TableDelta` records
  (cheap, no DP work on the mutating thread);
* **reads** drain the pending queue into every built index — column
  surgery per delta, plus moving the index's live kernel scan back to
  its latest snapshot above the changed rank — and answer from that
  scan for the requested ``k``, pricing only up to the Theorem-5 stop
  depth the answer needs.

Degradation is the design's safety net, not an afterthought: any
condition under which an incremental answer could be wrong — a version
gap in the delta chain, a sort-key collision the index refuses, a
backlog past :attr:`max_backlog` (where replaying deltas would cost
more than scanning), a ``k`` above the registry cap, or an unexpected
error — falls back to :meth:`DynamicIndex.build`, which *is* the cold
scan in the index's representation.  Every fallback is counted by
reason (``repro_dyn_fallbacks_total``), so "the escape hatch fired" is
an observable event, never a silent behavior change.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.core.results import PTKAnswer
from repro.exceptions import (
    DynamicIndexError,
    QueryError,
    UnsupportedDeltaError,
)
from repro.model.table import UncertainTable
from repro.obs import OBS, catalogued

from repro.dynamic.delta import TableDelta
from repro.dynamic.index import DEFAULT_CAP, DynamicIndex

#: Pending deltas beyond which a read rebuilds instead of replaying.
DEFAULT_MAX_BACKLOG = 256


class _TableState:
    """Per-table registry slot: the per-``k`` index family, the shared
    pending delta queue, and the registration epoch."""

    __slots__ = ("epoch", "indexes", "pending", "lock")

    def __init__(self, epoch: int) -> None:
        self.epoch = epoch
        self.indexes: Dict[int, DynamicIndex] = {}
        self.pending: Deque[TableDelta] = deque()
        self.lock = threading.Lock()


class DynamicIndexRegistry:
    """Dynamic PT-k indexes for the tables of one database.

    :param cap: largest ``k`` served incrementally; one index is built
        per distinct requested ``k`` up to this bound.
    :param max_backlog: pending deltas beyond which a read rebuilds the
        indexes from the table instead of replaying the queue.
    """

    def __init__(
        self,
        cap: int = DEFAULT_CAP,
        max_backlog: int = DEFAULT_MAX_BACKLOG,
    ) -> None:
        if cap <= 0:
            raise QueryError(f"dynamic cap must be positive, got {cap}")
        self.cap = int(cap)
        self.max_backlog = int(max_backlog)
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
    # Registration and the write path
    # ------------------------------------------------------------------
    def register(self, name: str, epoch: int = 0) -> int:
        """Track ``name``; indexes are built lazily on first read per
        ``k``.  Re-registering under a higher epoch discards the old
        indexes and queue (their deltas describe a dead lineage).

        :returns: the epoch the registry now associates with the name.
        """
        with self._lock:
            state = self._states.get(name)
            if state is None:
                self._states[name] = _TableState(epoch)
                return epoch
            if epoch > state.epoch:
                self._states[name] = _TableState(epoch)
                return epoch
            return state.epoch

    def drop(self, name: str) -> None:
        """Forget a table's indexes and pending deltas."""
        with self._lock:
            self._states.pop(name, None)

    def tracked(self) -> List[str]:
        """Names currently tracked by the registry."""
        with self._lock:
            return list(self._states)

    def enqueue(self, delta: TableDelta) -> bool:
        """Queue one committed mutation for its table's indexes.

        Constant-time on the write path: the DP work happens at the
        next read.  Deltas for untracked tables or stale epochs are
        dropped (the indexes will rebuild from the table anyway).

        :returns: True when the delta was queued.
        """
        with self._lock:
            state = self._states.get(delta.table)
        if state is None or delta.epoch != state.epoch:
            return False
        with state.lock:
            state.pending.append(delta)
        return True

    # ------------------------------------------------------------------
    # The read path
    # ------------------------------------------------------------------
    def index_for(
        self, name: str, table: UncertainTable, k: int
    ) -> Optional[DynamicIndex]:
        """The table's index for ``k``, advanced through every pending
        delta.

        Drains the queue under the per-table lock, applying each delta
        to every built sibling as a suffix re-evaluation; rebuilds cold
        on any degradation condition (see the module docstring).
        Returns ``None`` for untracked names or ``k`` above the cap.
        """
        if k <= 0 or k > self.cap:
            return None
        with self._lock:
            state = self._states.get(name)
        if state is None:
            return None
        with state.lock:
            index, _ = self._advance(state, name, table, k)
            return index

    def _advance(
        self, state: _TableState, name: str, table: UncertainTable, k: int
    ) -> Tuple[DynamicIndex, bool]:
        """Drain the pending queue into the built index family, then
        hand back (index for ``k``, whether a cold build happened).
        Callers hold ``state.lock``."""
        indexes = state.indexes
        if not indexes:
            # Nothing built yet: queued deltas are subsumed by building
            # from the live table.
            state.pending.clear()
        elif len(state.pending) > self.max_backlog:
            self._fallback(state, reason="backlog")
        while state.pending and indexes:
            delta = state.pending.popleft()
            started = time.perf_counter()
            suffix = -1
            try:
                for index in indexes.values():
                    if delta.version <= index.version:
                        continue  # already covered (e.g. by a rebuild)
                    suffix = index.apply(delta)
            except UnsupportedDeltaError:
                self._fallback(state, reason="unsupported")
                break
            except DynamicIndexError:
                self._fallback(state, reason="stale")
                break
            except Exception:
                self._fallback(state, reason="error")
                break
            if suffix < 0:
                continue
            self.deltas_applied += 1
            if OBS.enabled:
                elapsed = time.perf_counter() - started
                catalogued("repro_dyn_deltas_applied_total").inc(
                    1.0, op=delta.op
                )
                catalogued("repro_dyn_suffix_length").observe(suffix)
                catalogued("repro_dyn_refresh_seconds").observe(elapsed)
        index = indexes.get(k)
        if index is not None and index.version != table.version:
            # Mutations bypassed the delta path (direct table writes):
            # the chain is broken, only the table knows the truth.
            self._fallback(state, reason="stale")
            index = None
        if index is None:
            index = DynamicIndex.build(name, table, cap=k, epoch=state.epoch)
            indexes[k] = index
            return index, True
        return index, False

    def _fallback(self, state: _TableState, reason: str) -> None:
        """Discard the index family and queue; the caller rebuilds the
        requested ``k`` cold (siblings rebuild lazily on their next
        read).  Counted per reason."""
        self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1
        if OBS.enabled:
            catalogued("repro_dyn_fallbacks_total").inc(1.0, reason=reason)
        state.indexes.clear()
        state.pending.clear()

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
        :meth:`DynamicIndex.scan_answer`).
        """
        if k > self.cap:
            self.fallbacks["cap"] = self.fallbacks.get("cap", 0) + 1
            if OBS.enabled:
                catalogued("repro_dyn_fallbacks_total").inc(1.0, reason="cap")
            return None
        with self._lock:
            state = self._states.get(name)
        if state is None:
            return None
        with state.lock:
            index, rebuilt = self._advance(state, name, table, k)
            try:
                answers, probabilities, depth = index.scan_answer(
                    k, threshold
                )
            except Exception:
                # Lazy re-pricing happens at read time, outside
                # _advance's per-delta guards: degrade exactly the same
                # way — rebuild cold and re-read (a second failure is a
                # genuine bug and propagates).
                self._fallback(state, reason="error")
                index, rebuilt = self._advance(state, name, table, k)
                answers, probabilities, depth = index.scan_answer(
                    k, threshold
                )
            answer = PTKAnswer(k=k, threshold=threshold, method="dynamic")
            answer.probabilities.update(probabilities)
            answer.answers.extend(answers)
            answer.stats.scan_depth = depth
            answer.stats.tuples_evaluated = depth
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
        """Registry-level counters plus per-table index stats."""
        with self._lock:
            states = dict(self._states)
        tables = {}
        for name, state in states.items():
            with state.lock:
                tables[name] = {
                    "epoch": state.epoch,
                    "pending": len(state.pending),
                    "indexes": {
                        k: index.stats()
                        for k, index in sorted(state.indexes.items())
                    },
                }
        return {
            "cap": self.cap,
            "max_backlog": self.max_backlog,
            "deltas_applied": self.deltas_applied,
            "fallbacks": dict(self.fallbacks),
            "reads": {"index": self.reads_index, "rebuild": self.reads_rebuild},
            "tables": tables,
        }
