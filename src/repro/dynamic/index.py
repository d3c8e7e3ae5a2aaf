"""The incremental PT-k index: the kernel scan, kept across point mutations.

A :class:`DynamicIndex` maintains, for one table under the default query
shape (trivial predicate, rank by score descending), the scan
:func:`repro.core.kernel.columnar_topk_scan` would run cold — as a live
:class:`~repro.core.kernel.TopKScanState` that a write need not restart
at rank 1:

* the ranked order itself (tids, sort keys, score/probability/rule-slot
  columns), maintained by binary search under point mutations;
* one live scan state over those columns, priced lazily: a read advances
  it only as far as its answer needs;
* snapshots of that state
  (:meth:`~repro.core.kernel.TopKScanState.snapshot`: its DP vectors and
  per-rule sums, no columns) taken as it advances — at rows 1, 2, 4, …
  up to :data:`BLOCK`, then every ``BLOCK`` rows.

**The invariant that makes deltas sound:** the scan's state at a row is
a pure function of the ``(probability, rule-slot)`` column entries
*strictly before* it, except for the size of its rule-factor tree, which
follows the table's slot count.  A mutation therefore invalidates
exactly the rows from the first rank where the old and new columns
differ.  :meth:`DynamicIndex.apply` computes that rank, rewinds the
live state to the latest snapshot at or before it when the state has
priced past it (:meth:`~repro.core.kernel.TopKScanState.restore`), and
rebases the state onto the new columns
(:meth:`~repro.core.kernel.TopKScanState.rebase`, which refits the tree
when its size changes).  No DP work happens on the write path.  A PT-k
answer read (:meth:`scan_answer`) runs the kernel's Theorem-5 read on
the live state: it prices rows in ranking order and stops once the
compensated running mass exceeds ``k - threshold``, since no deeper
tuple can then reach the threshold.  A mutation *below* the priced rows
therefore costs O(column surgery) at write time and *zero* DP work at
read time; a mutation above them re-prices from the snapshot, at most
half its rank (``BLOCK`` rows, deeper down) above it.
:meth:`topk_probabilities` completes the scan to ``n``.

**Byte-exactness contract**: for ``k == cap``,
:meth:`topk_probabilities` returns a ``Pr^k`` column bitwise equal to
``columnar_topk_scan(probability, rule_index, k)`` on the current
table — not merely close.  The index runs no scan loop of its own: every
row is priced by :meth:`~repro.core.kernel.TopKScanState.advance`.
Pausing that scan is bitwise neutral, and a restored, rebased snapshot
continues exactly as the uninterrupted scan of the new columns would
(the same DP vectors, open-run chain and per-rule member sums; a factor
tree's nodes depend only on its leaves, so a refitted tree equals the
one the cold scan builds).  One index serves exactly **one** ``k``
(``cap == k``), so every ``np.convolve`` sees operands of the very
lengths the cold scan at that ``k`` would pass.  This is not pedantry:
entries below ``k`` of a longer-cap convolution are *mathematically*
equal to the cap-``k`` ones but not always bitwise equal — NumPy's
correlate kernel picks different code paths (and thus rounding /
summation orders) by operand length, and the smoke harness caught a
cap-12 index drifting 1 ulp from the cold scan at ``k=2``.  The
registry therefore keeps a small per-``k`` family of indexes per table.

The index refuses (:class:`~repro.exceptions.UnsupportedDeltaError`)
the one mutation whose result depends on state it cannot see: a score
update landing on a sort key some *other* tuple already holds, where
the true order depends on table insertion order.  The registry treats
that refusal — like any version gap — as a signal to rebuild cold.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.core.kernel import TopKScanState
from repro.exceptions import (
    QueryError,
    StaleDeltaError,
    UnsupportedDeltaError,
)
from repro.model.table import UncertainTable

from repro.dynamic.delta import TableDelta

#: Snapshot stride past the first ``BLOCK`` rows (see :func:`_next_mark`):
#: a write down there re-prices at most ``BLOCK`` rows above its rank.
BLOCK = 512

#: Default registry-level cap: the largest ``k`` served incrementally
#: (an index is built per requested ``k`` up to this bound).  Memory per
#: (table, k) index is its columns plus one ``n``-float ``Pr^k`` column,
#: and per snapshot two ``k``-float DP vectors, the factor tree and the
#: member probabilities of the rules seen above its row.
DEFAULT_CAP = 64


def _sort_key(score: float, tid: Any) -> Tuple[float, str]:
    """The ranking sort key: score descending, ``str(tid)`` ascending."""
    return (-score, str(tid))


def _next_mark(row: int) -> int:
    """The first snapshot row past ``row``: the powers of two below
    :data:`BLOCK`, then every multiple of it.  Reads mostly stop in the
    first few hundred rows, so a write there restores close to its
    rank."""
    if row < BLOCK:
        return min(1 << row.bit_length(), BLOCK)
    return (row // BLOCK + 1) * BLOCK


class _LiveScan(TopKScanState):
    """The index's scan: keeps ``(row, snapshot)`` pairs, row 0 first,
    and appends one at every :func:`_next_mark` row it reaches."""

    def __init__(
        self, probability: np.ndarray, rule_index: np.ndarray, k: int
    ) -> None:
        super().__init__(probability, rule_index, k)
        self.snapshots: List[Tuple[int, Dict[str, Any]]] = [
            (0, self.snapshot())
        ]

    def advance(self, stop: int) -> None:
        stop = min(int(stop), self.n)
        while self.done < stop:
            mark = _next_mark(self.done)
            super().advance(min(stop, mark))
            if self.done == mark:
                self.snapshots.append((mark, self.snapshot()))


class DynamicIndex:
    """Incrementally maintained PT-k state for one table (see module doc).

    Build with :meth:`build`; advance with :meth:`apply`; read with
    :meth:`scan_answer` / :meth:`topk_probabilities` /
    :meth:`answer_tids`.  Instances are not thread-safe — the registry
    serialises access.

    :param cap: the one ``k`` this index serves byte-exactly (see the
        module docstring for why serving ``k < cap`` is unsound).
    """

    def __init__(self, name: str, cap: int = DEFAULT_CAP) -> None:
        if cap <= 0:
            raise QueryError(f"dynamic index cap must be positive, got {cap}")
        self.name = name
        self.cap = int(cap)
        self.version = -1
        self.epoch = 0
        #: cumulative counters the registry exports as metrics
        self.deltas_applied = 0
        self.suffix_reevaluated = 0
        # ranked-order state (all in ranking order, best first)
        self._tids: List[Any] = []
        self._keys: List[Tuple[float, str]] = []
        self._key_of: Dict[Any, Tuple[float, str]] = {}
        self._score = np.empty(0, dtype=np.float64)
        self._prob = np.empty(0, dtype=np.float64)
        self._slots = np.empty(0, dtype=np.int64)
        # rule topology: tid -> rule_id for multi-tuple rule members,
        # rule_id -> member tids (unordered; order comes from ranks)
        self._rule_of: Dict[Any, Any] = {}
        self._members: Dict[Any, List[Any]] = {}
        self._live = _LiveScan(self._prob, self._slots, self.cap)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        name: str,
        table: UncertainTable,
        cap: int = DEFAULT_CAP,
        epoch: int = 0,
    ) -> "DynamicIndex":
        """Cold-build an index from a table's current contents.

        This *is* the cold scan in the index's representation — a
        rebuild after any fallback goes through here.  Nothing is
        priced yet: the first read prices only to its own Theorem-5
        stop depth, so a rebuild costs what a pruned cold scan costs.
        """
        index = cls(name, cap=cap)
        index.epoch = epoch
        ranked = table.ranked_tuples()
        index._tids = [t.tid for t in ranked]
        index._keys = [_sort_key(t.score, t.tid) for t in ranked]
        index._key_of = dict(zip(index._tids, index._keys))
        n = len(ranked)
        index._score = np.fromiter(
            (t.score for t in ranked), dtype=np.float64, count=n
        )
        index._prob = np.fromiter(
            (t.probability for t in ranked), dtype=np.float64, count=n
        )
        for rule in table.multi_rules():
            index._members[rule.rule_id] = list(rule.tuple_ids)
            for tid in rule.tuple_ids:
                index._rule_of[tid] = rule.rule_id
        index._slots = index._compute_slots(index._tids)
        index._live = _LiveScan(index._prob, index._slots, index.cap)
        index.version = table.version
        return index

    def _compute_slots(self, tids: List[Any]) -> np.ndarray:
        """Rule slots by first encounter in ranking order — the exact
        assignment :meth:`repro.core.kernel.TableColumns.from_ranked`
        makes, so slot numbering (and thus factor-tree pairing) matches
        a cold prepare bit for bit."""
        slots = np.full(len(tids), -1, dtype=np.int64)
        slot_of: Dict[Any, int] = {}
        rule_of = self._rule_of
        for position, tid in enumerate(tids):
            rule_id = rule_of.get(tid)
            if rule_id is None:
                continue
            slot = slot_of.get(rule_id)
            if slot is None:
                slot = len(slot_of)
                slot_of[rule_id] = slot
            slots[position] = slot
        return slots

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tids)

    @property
    def tids(self) -> List[Any]:
        """Tuple ids in ranking order (do not mutate)."""
        return self._tids

    def stats(self) -> dict:
        """Counters for ``/healthz`` and the registry's metrics."""
        return {
            "n": len(self._tids),
            "cap": self.cap,
            "version": self.version,
            "epoch": self.epoch,
            "clean": self._live.done,
            "deltas_applied": self.deltas_applied,
            "suffix_reevaluated": self.suffix_reevaluated,
        }

    def _position_of(self, tid: Any) -> int:
        key = self._key_of[tid]
        position = bisect_left(self._keys, key)
        while self._tids[position] != tid:
            position += 1
        return position

    # ------------------------------------------------------------------
    # Delta application
    # ------------------------------------------------------------------
    def apply(self, delta: TableDelta) -> int:
        """Apply one committed mutation; returns the invalidated suffix
        length (0 when only metadata changed).  Column surgery happens
        here; DP re-pricing is deferred to the next read and bounded by
        its stop depth (see :meth:`scan_answer`).

        :raises StaleDeltaError: when the delta does not chain onto this
            index's ``(epoch, version)``.
        :raises UnsupportedDeltaError: when the mutation's effect on the
            ranked order cannot be reproduced without the table (sort-key
            collision on a score move); the index is left unchanged.
        """
        if delta.epoch != self.epoch or delta.previous_version != self.version:
            raise StaleDeltaError(
                f"index for {self.name!r} is at (epoch {self.epoch}, "
                f"version {self.version}); delta expects (epoch "
                f"{delta.epoch}, version {delta.previous_version})"
            )
        op = delta.op
        if op == "add":
            suffix = self._apply_add(delta)
        elif op == "remove":
            suffix = self._apply_remove(delta)
        elif op == "update":
            suffix = self._apply_probability(delta)
        elif op == "score":
            suffix = self._apply_score(delta)
        elif op == "rule":
            suffix = self._apply_rule(delta)
        else:
            raise UnsupportedDeltaError(
                f"unknown delta op {op!r} for table {self.name!r}"
            )
        self.version = delta.version
        self.deltas_applied += 1
        return suffix

    def _apply_add(self, delta: TableDelta) -> int:
        tid, score, probability = delta.tid, delta.score, delta.probability
        key = _sort_key(score, tid)
        # bisect_right: a freshly added tuple is the newest in insertion
        # order, so the stable ranking sort places it after any tuple
        # sharing its key.
        position = bisect_right(self._keys, key)
        self._tids.insert(position, tid)
        self._keys.insert(position, key)
        self._key_of[tid] = key
        new_score = np.insert(self._score, position, score)
        new_prob = np.insert(self._prob, position, probability)
        # An added tuple is always independent (rules attach separately),
        # so no slot renumbering: first-encounter order of the existing
        # members is untouched by an interleaved -1.
        new_slots = np.insert(self._slots, position, -1)
        return self._commit(new_score, new_prob, new_slots)

    def _apply_remove(self, delta: TableDelta) -> int:
        tid = delta.tid
        position = self._position_of(tid)
        del self._tids[position]
        del self._keys[position]
        del self._key_of[tid]
        new_score = np.delete(self._score, position)
        new_prob = np.delete(self._prob, position)
        rule_id = self._rule_of.pop(tid, None)
        if rule_id is None:
            new_slots = np.delete(self._slots, position)
        else:
            # Mirror UncertainTable.remove_tuple's shrink semantics: a
            # rule reduced below two members is dropped and its survivor
            # becomes independent.  Either way the slot numbering can
            # shift (the removed member may have been its rule's first
            # encounter), so recompute slots from scratch.
            members = self._members[rule_id]
            members.remove(tid)
            if len(members) < 2:
                del self._members[rule_id]
                for survivor in members:
                    self._rule_of.pop(survivor, None)
            new_slots = self._compute_slots(self._tids)
        return self._commit(new_score, new_prob, new_slots)

    def _apply_probability(self, delta: TableDelta) -> int:
        position = self._position_of(delta.tid)
        new_prob = self._prob.copy()
        new_prob[position] = delta.probability
        return self._commit(self._score, new_prob, self._slots)

    def _apply_score(self, delta: TableDelta) -> int:
        tid, score = delta.tid, delta.score
        old_position = self._position_of(tid)
        new_key = _sort_key(score, tid)
        keys = self._keys[:old_position] + self._keys[old_position + 1 :]
        position = bisect_right(keys, new_key)
        if position > 0 and keys[position - 1] == new_key:
            # Another tuple holds the identical sort key.  The true
            # order among equals is table insertion order, which a score
            # update preserves and this index does not track — refuse
            # rather than guess (the registry rebuilds cold).
            raise UnsupportedDeltaError(
                f"score update of {tid!r} collides with an equal sort key "
                f"in table {self.name!r}; rebuilding from the table"
            )
        tids = self._tids[:old_position] + self._tids[old_position + 1 :]
        tids.insert(position, tid)
        keys.insert(position, new_key)
        new_score = np.insert(np.delete(self._score, old_position), position, score)
        new_prob = np.insert(
            np.delete(self._prob, old_position),
            position,
            self._prob[old_position],
        )
        self._tids = tids
        self._keys = keys
        self._key_of[tid] = new_key
        if tid in self._rule_of:
            # Moving a member can change its rule's first-encounter rank.
            new_slots = self._compute_slots(tids)
        else:
            new_slots = np.insert(
                np.delete(self._slots, old_position), position, -1
            )
        return self._commit(new_score, new_prob, new_slots)

    def _apply_rule(self, delta: TableDelta) -> int:
        members = tuple(delta.members)
        if len(members) < 2:
            # Singleton rules don't enter the compressed DP (the table
            # registers them, the rule index ignores them).
            return self._commit(self._score, self._prob, self._slots)
        self._members[delta.rule_id] = list(members)
        for tid in members:
            self._rule_of[tid] = delta.rule_id
        new_slots = self._compute_slots(self._tids)
        return self._commit(self._score, self._prob, new_slots)

    # ------------------------------------------------------------------
    # Moving the scan onto new columns
    # ------------------------------------------------------------------
    def _commit(
        self,
        new_score: np.ndarray,
        new_prob: np.ndarray,
        new_slots: np.ndarray,
    ) -> int:
        """Swap in the new columns and move the live scan onto them.

        The first rank where the old and new ``(probability,
        rule-slot)`` columns differ bounds the damage exactly (see the
        module docstring).  A live scan that has priced past it rewinds
        to its latest snapshot at or before it; either way the scan is
        rebased onto the new columns.  No DP work happens here: the
        next read re-prices only to its own stop depth.
        """
        old_prob, old_slots = self._prob, self._slots
        new_n = int(new_prob.shape[0])
        m = min(int(old_prob.shape[0]), new_n)
        differs = np.flatnonzero(
            (old_prob[:m] != new_prob[:m]) | (old_slots[:m] != new_slots[:m])
        )
        start = int(differs[0]) if differs.size else m

        self._score = new_score
        self._prob = new_prob
        self._slots = new_slots
        live = self._live
        if start < live.done:
            snapshots = live.snapshots
            while snapshots[-1][0] > start:
                snapshots.pop()
            live.restore(snapshots[-1][1])
        live.rebase(new_prob, new_slots)
        return new_n - start

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def _require_k(self, k: int) -> None:
        if k <= 0:
            raise QueryError(f"k must be positive, got {k}")
        if k != self.cap:
            raise UnsupportedDeltaError(
                f"index for table {self.name!r} serves k={self.cap} "
                f"only, got k={k}"
            )

    def topk_probabilities(self, k: int) -> np.ndarray:
        """The full ``Pr^k`` column in ranking order, bitwise equal to a
        cold :func:`~repro.core.kernel.columnar_topk_scan` at ``k``.

        Completes the live scan; the array stays valid (and unchanged)
        after later deltas.  Treat it as immutable.

        :raises QueryError: for non-positive ``k``.
        :raises UnsupportedDeltaError: for any ``k`` other than this
            index's own cap — each index is exact at exactly one ``k``
            (callers route other values to a sibling index or a cold
            scan).
        """
        self._require_k(k)
        live = self._live
        priced = live.done
        live.advance(live.n)
        self.suffix_reevaluated += live.done - priced
        return live.out

    def scan_answer(
        self, k: int, threshold: float
    ) -> Tuple[List[Any], Dict[Any, float], int]:
        """The PT-k answer with Theorem-5-bounded depth.

        The kernel's read (:meth:`~repro.core.kernel.TopKScanState.read`,
        the one :class:`~repro.core.exact.ExactPTKEngine`'s columnar read
        runs) on the live scan: it reveals the ``Pr^k`` column in
        ranking order and stops as soon as the compensated running mass
        exceeds ``k - threshold`` — by Theorem 5 (``sum_t Pr^k(t) =
        E[min(k, |W|)] <= k``) no deeper tuple can reach the threshold.
        Rows already priced are not priced again, so a mutation *below*
        the stop depth costs no DP work at all here.

        :returns: ``(answer tids in ranking order, tid -> Pr^k for the
            scanned prefix, stop depth)``.  The scanned values are
            bitwise the cold full-column values; the answer set equals
            the full column's threshold set.  Empty for the full-scan
            sentinel ``threshold == 0.0``, matching the exact engine.
        :raises UnsupportedDeltaError: for ``k != cap`` (see
            :meth:`topk_probabilities`).
        """
        self._require_k(k)
        if threshold == 0.0:
            return [], {}, 0
        live = self._live
        priced = live.done
        answers, probabilities, depth, _ = live.read(
            self._tids, threshold, k - threshold
        )
        self.suffix_reevaluated += live.done - priced
        return answers, probabilities, depth

    def answer_tids(self, k: int, threshold: float) -> List[Any]:
        """Tuple ids with ``Pr^k >= threshold``, in ranking order — the
        PT-k answer set (empty for the full-scan sentinel 0.0, matching
        the exact engine's convention)."""
        if threshold == 0.0:
            return []
        out = self.topk_probabilities(k)
        return [self._tids[i] for i in np.flatnonzero(out >= threshold).tolist()]

    def probabilities_map(self, k: int) -> Dict[Any, float]:
        """``tid -> Pr^k`` for every tuple, in ranking order."""
        out = self.topk_probabilities(k)
        return dict(zip(self._tids, out.tolist()))
