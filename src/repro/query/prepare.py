"""Prepared rankings: amortising per-query preparation across queries.

Every query path in the library — the exact DP, the sampler, batch
answering, and the top-k probability profile — begins with the same
three steps over the target table:

1. apply the predicate (``P(T)``, Section 4),
2. rank the surviving tuples by the ranking function,
3. index the multi-tuple generation rules (and their ``Pr(R)``).

For a production workload serving many queries against slowly-changing
tables, that preparation dominates small-k query cost and is identical
across requests.  :class:`PreparedRanking` bundles the three products
into one immutable object and :class:`PrepareCache` memoises it per
``(table version, predicate, ranking)``, so repeated queries — exact or
sampled, any k or threshold — pay for selection, sorting, and rule
indexing once.

Correctness relies on two identities:

* tables carry a monotone :attr:`~repro.model.table.UncertainTable.version`
  counter bumped on every mutation, so a stale selection is never served;
* predicates and ranking functions expose structural ``cache_key()``
  identities (falling back to object identity, which cannot be falsely
  shared — the cache entry keeps the keyed objects alive, so their ids
  cannot be recycled while the entry lives).

Tables are held weakly: dropping the last reference to a table frees its
cached preparations.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

from repro.model.rules import GenerationRule
from repro.model.table import UncertainTable
from repro.model.tuples import UncertainTuple
from repro.obs import OBS, catalogued, span as obs_span
from repro.query.topk import TopKQuery

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.kernel import TableColumns

#: Cached preparations kept per table; oldest evicted first.  Dashboards
#: alternating a handful of predicates/rankings stay fully cached.
DEFAULT_MAX_ENTRIES_PER_TABLE = 8


@dataclass(frozen=True)
class PreparedRanking:
    """Everything query engines need that depends only on (table, P, f).

    :param table: the *selected* table ``P(T)`` (the source table itself
        when the predicate is trivial).
    :param ranked: tuples of the selected table in ranking order, best
        first.
    :param rule_of: tuple id -> multi-tuple generation rule (independent
        tuples omitted).
    :param rule_probability: rule id -> ``Pr(R)``.
    :param source_version: the source table's version when prepared.
    :param predicate: the predicate object this preparation is keyed by
        (held so identity-based cache keys stay unambiguous).
    :param ranking: the ranking function, held for the same reason.
    """

    table: UncertainTable
    ranked: Tuple[UncertainTuple, ...]
    rule_of: Mapping[Any, GenerationRule]
    rule_probability: Mapping[Any, float]
    source_version: int = 0
    predicate: Any = None
    ranking: Any = None

    def ranked_list(self) -> List[UncertainTuple]:
        """The ranked tuples as a fresh list (callers may not mutate it)."""
        return list(self.ranked)

    @cached_property
    def columns(self) -> "TableColumns":
        """The ranked tuples as dense float64/int64 columns.

        Built once per preparation and cached on the instance (a
        ``cached_property`` writes straight into ``__dict__``, which a
        frozen dataclass permits), so every full-scan query against a
        cached preparation shares one columnarisation;
        :func:`repro.dynamic.refresh.refresh_prepared` carries them
        across a write when they were built.  The arrays are immutable
        by convention — consumers, including the columnar kernel and
        the dynamic index's scans, only read them.
        """
        from repro.core.kernel import TableColumns

        return TableColumns.from_ranked(self.ranked, self.rule_of)

    @cached_property
    def tids(self) -> Tuple[Any, ...]:
        """The ranked tuples' ids, cached like :attr:`columns`.

        :func:`repro.dynamic.refresh.refresh_prepared` finds a written
        tuple's rank here and hands the edited ids to the refreshed
        preparation, so the column is built once per cache entry, not
        once per write.
        """
        return tuple(t.tid for t in self.ranked)

    def __len__(self) -> int:
        return len(self.ranked)


def index_rules(
    table: UncertainTable,
) -> Tuple[Dict[Any, GenerationRule], Dict[Any, float]]:
    """The rule products of a preparation: tuple id -> multi-tuple rule
    (independent tuples omitted) and rule id -> ``Pr(R)``."""
    from repro.core.rule_compression import rule_index_of_table

    rule_of = rule_index_of_table(table)
    rule_probability: Dict[Any, float] = {}
    for rule in rule_of.values():
        if rule.rule_id not in rule_probability:
            rule_probability[rule.rule_id] = table.rule_probability(rule)
    return rule_of, rule_probability


def prepare_ranking(table: UncertainTable, query: TopKQuery) -> PreparedRanking:
    """Run selection, ranking, and rule indexing for ``query`` on ``table``.

    The uncached building block; most callers go through a
    :class:`PrepareCache` (every :class:`~repro.query.engine.UncertainDB`
    owns one) or pass ``prepared=`` explicitly.
    """
    with obs_span("query.prepare", table=table.name):
        version = table.version
        selected = query.selected(table)
        ranked = tuple(query.ranking.rank_table(selected))
        rule_of, rule_probability = index_rules(selected)
    return PreparedRanking(
        table=selected,
        ranked=ranked,
        rule_of=rule_of,
        rule_probability=rule_probability,
        source_version=version,
        predicate=query.predicate,
        ranking=query.ranking,
    )


@dataclass
class PrepareCacheStats:
    """Point-in-time counters of one cache (also exported via obs).

    ``hits`` and ``misses`` count within the current *epoch*: a full
    clear (``invalidate(None)`` — e.g. after crash recovery replaces
    every table) zeroes them and bumps ``epoch``, so post-restart
    hit rates never mix measurements from before and after the reset.
    ``invalidations`` stays cumulative over the cache's lifetime.
    """

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    entries: int = 0
    epoch: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PrepareCache:
    """Memoises :class:`PreparedRanking` per (table version, P, f).

    Tables are weak keys — a dropped table frees its entries.  Per table,
    at most ``max_entries_per_table`` preparations are retained, evicted
    least-recently-used first; entries for stale versions are purged
    eagerly on the first lookup after a mutation.

    The cache is shared freely across query kinds: an exact PT-k query,
    a sampling run, and a profile scan with the same predicate and
    ranking all hit the same entry.

    All public methods are thread-safe: a threaded server can share one
    :class:`~repro.query.engine.UncertainDB` (and therefore one cache)
    across request handlers.  A single re-entrant lock serialises
    lookups, so at most one preparation is built at a time per cache —
    concurrent readers of a warm entry queue briefly behind a miss
    rather than building the same preparation twice.
    """

    def __init__(
        self, max_entries_per_table: int = DEFAULT_MAX_ENTRIES_PER_TABLE
    ) -> None:
        if max_entries_per_table <= 0:
            raise ValueError(
                f"max_entries_per_table must be positive, "
                f"got {max_entries_per_table}"
            )
        self.max_entries_per_table = max_entries_per_table
        self._by_table: "weakref.WeakKeyDictionary[UncertainTable, OrderedDict]" = (
            weakref.WeakKeyDictionary()
        )
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._invalidations = 0
        self._epoch = 0

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, table: UncertainTable, query: TopKQuery) -> PreparedRanking:
        """The prepared ranking for ``query`` on ``table`` (built on miss)."""
        with self._lock:
            version = table.version
            key = (query.predicate.cache_key(), query.ranking.cache_key())
            entries = self._by_table.get(table)
            if entries is not None:
                # Purge preparations of older table versions eagerly.
                stale = [
                    k for k, prep in entries.items()
                    if prep.source_version != version
                ]
                for k in stale:
                    del entries[k]
                hit = entries.get(key)
                if hit is not None:
                    entries.move_to_end(key)
                    self._hits += 1
                    if OBS.enabled:
                        catalogued("repro_prepare_cache_hits_total").inc()
                        OBS.flight.note_prepare(hit=True)
                    return hit
            self._misses += 1
            if OBS.enabled:
                catalogued("repro_prepare_cache_misses_total").inc()
                OBS.flight.note_prepare(hit=False)
            prepared = prepare_ranking(table, query)
            if entries is None:
                entries = OrderedDict()
                self._by_table[table] = entries
            entries[key] = prepared
            entries.move_to_end(key)
            while len(entries) > self.max_entries_per_table:
                entries.popitem(last=False)
            return prepared

    def refresh(self, table: UncertainTable, delta: Any) -> int:
        """Advance warm preparations of ``table`` across one committed
        mutation instead of letting version keying condemn them.

        For every cached entry prepared at ``delta.previous_version``
        whose shape :func:`repro.dynamic.refresh.refresh_prepared`
        understands (trivial predicate, rank by score descending), the
        entry is replaced in place by ranked-tuple surgery (its columns
        too, when built) — the next read hits a warm, current-version
        preparation with no cold re-prepare.  Entries the surgery declines fall back to the
        ordinary stale-purge path, so a refresh is never less correct
        than an invalidation, only cheaper.

        :param delta: a :class:`repro.dynamic.delta.TableDelta` already
            applied to ``table``.
        :returns: the number of entries refreshed.
        """
        from repro.dynamic.refresh import DEFAULT_SHAPE_KEY, refresh_prepared

        refreshed = 0
        with self._lock:
            entries = self._by_table.get(table)
            if not entries:
                return 0
            for key, prepared in list(entries.items()):
                if key != DEFAULT_SHAPE_KEY:
                    continue
                if prepared.source_version != delta.previous_version:
                    continue
                replacement = refresh_prepared(prepared, table, delta)
                if replacement is None:
                    continue
                entries[key] = replacement
                refreshed += 1
            if refreshed and OBS.enabled:
                catalogued("repro_prepare_cache_refreshes_total").inc(
                    refreshed
                )
        return refreshed

    # ------------------------------------------------------------------
    # Invalidation and introspection
    # ------------------------------------------------------------------
    def invalidate(self, table: Optional[UncertainTable] = None) -> int:
        """Drop cached preparations; all of them when ``table`` is None.

        Version keying already protects correctness — invalidation exists
        to release memory deterministically (``UncertainDB.drop`` calls
        it) and is counted in ``repro_prepare_cache_invalidations_total``.

        A full clear also starts a new counter *epoch*: hit/miss
        counters reset to zero and ``stats().epoch`` increments, so a
        cache wiped by recovery or a table-set swap reports post-restart
        rates instead of mixing two lifetimes (cumulative invalidation
        counts are unaffected).

        :returns: number of entries dropped.
        """
        with self._lock:
            dropped = 0
            if table is None:
                for entries in self._by_table.values():
                    dropped += len(entries)
                self._by_table.clear()
                self._hits = 0
                self._misses = 0
                self._epoch += 1
            else:
                entries = self._by_table.pop(table, None)
                if entries:
                    dropped = len(entries)
            if dropped:
                self._invalidations += dropped
                if OBS.enabled:
                    catalogued("repro_prepare_cache_invalidations_total").inc(
                        dropped
                    )
            return dropped

    def _purge_stale(self) -> int:
        """Drop entries whose source table has since mutated.

        ``get`` purges lazily per table; counting must not wait for the
        next lookup, or ``stats().entries`` over-reports between a table
        mutation and the next query (and any counters built on it lie).

        :returns: the number of *live* entries remaining.
        """
        live = 0
        for table, entries in list(self._by_table.items()):
            version = table.version
            stale = [
                key for key, prep in entries.items()
                if prep.source_version != version
            ]
            for key in stale:
                del entries[key]
            live += len(entries)
        return live

    def stats(self) -> PrepareCacheStats:
        """Hit/miss/invalidation counters plus the live entry count.

        Stale-version entries are purged before counting, so ``entries``
        reflects what the next lookups can actually serve.
        """
        with self._lock:
            return PrepareCacheStats(
                hits=self._hits,
                misses=self._misses,
                invalidations=self._invalidations,
                entries=self._purge_stale(),
                epoch=self._epoch,
            )

    def __len__(self) -> int:
        with self._lock:
            return self._purge_stale()


def resolve_prepared(
    table: UncertainTable,
    query: TopKQuery,
    prepared: Optional[PreparedRanking] = None,
    cache: Optional[PrepareCache] = None,
) -> PreparedRanking:
    """The standard resolution order used by every query entry point.

    An explicitly supplied ``prepared`` wins; otherwise a ``cache`` is
    consulted (building and storing on miss); otherwise the preparation
    is built from scratch.
    """
    if prepared is not None:
        return prepared
    if cache is not None:
        return cache.get(table, query)
    return prepare_ranking(table, query)
