"""The dynamic read route: default-shape PT-k reads from the warm-scan store.

One :class:`DynamicIndexRegistry` lives inside an
:class:`~repro.query.engine.UncertainDB` once
:meth:`~repro.query.engine.UncertainDB.enable_dynamic` is called.  It
keeps no scans of its own: a read takes the table's current
default-shape preparation from the prepare cache and answers from that
preparation's :class:`~repro.dynamic.index.DynamicIndex` — the store
every columnar exact read of the table uses too, which each write's
refresh hands on — pricing only up to the Theorem-5 stop depth the
answer needs.  The registry adds ``method="dynamic"`` answers and read
counters.

Callers hold the table's lock (:meth:`~repro.query.engine.UncertainDB
.table_lock`) across :meth:`~DynamicIndexRegistry.answer`, so the
preparation it reads describes one table version.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.core.results import PTKAnswer
from repro.model.table import UncertainTable
from repro.obs import OBS, catalogued
from repro.query.topk import TopKQuery

from repro.dynamic.index import DynamicIndex

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.query.engine import UncertainDB


class DynamicIndexRegistry:
    """The dynamic read route of one database.

    :param db: the database whose tables' default-shape preparations
        (and their warm-scan stores) the reads use.
    """

    def __init__(self, db: "UncertainDB") -> None:
        self.db = db
        # Cumulative counters (also exported as repro_dyn_* metrics;
        # kept here as plain ints so /healthz and tests can read them
        # without the obs registry).
        self.reads_index = 0
        self.reads_rebuild = 0
        # No read falls back any more; the e2e tracer still reads the
        # key.
        self.fallbacks: Dict[str, int] = {}

    def _indexes(self) -> Dict[str, DynamicIndex]:
        """Each table's store, from its cached default-shape preparation
        (a table not read since it was registered has none)."""
        indexes = {}
        for name in self.db.tables():
            prepared = self.db.prepare_cache.peek(
                self.db.table(name), TopKQuery(k=1)
            )
            if prepared is not None:
                indexes[name] = prepared.index
        return indexes

    @property
    def deltas_applied(self) -> int:
        """Table versions the tables' stores were carried across."""
        return sum(index.deltas_applied for index in self._indexes().values())

    def answer(
        self, table: UncertainTable, k: int, threshold: float
    ) -> PTKAnswer:
        """A PT-k answer from the table's warm-scan store
        (:meth:`DynamicIndex.scan_answer`): ``method="dynamic"``, the
        scanned prefix's ``Pr^k`` values — bitwise what a cold columnar
        scan of the current table computes for those ranks — and
        ``stats.tuples_evaluated`` billing the rows the read priced.
        Inputs are the caller's to validate
        (:meth:`~repro.query.engine.UncertainDB.ptk` does).
        """
        prepared = self.db.prepare_cache.get(table, TopKQuery(k=k))
        rebuilt = k not in prepared.index.scans
        answer = prepared.index.scan_answer(prepared.columns, k, threshold)
        if rebuilt:
            self.reads_rebuild += 1
        else:
            self.reads_index += 1
        if OBS.enabled:
            catalogued("repro_dyn_reads_total").inc(
                1.0, source="rebuild" if rebuilt else "index"
            )
        return answer

    def stats(self) -> dict:
        """Registry-level counters plus per-table, per-``k`` scan stats."""
        indexes = self._indexes()
        return {
            "deltas_applied": sum(i.deltas_applied for i in indexes.values()),
            "fallbacks": dict(self.fallbacks),
            "reads": {"index": self.reads_index, "rebuild": self.reads_rebuild},
            "tables": {
                name: {"indexes": index.stats()}
                for name, index in indexes.items()
            },
        }
