"""The incremental PT-k index: suffix re-evaluation under point mutations.

A :class:`DynamicIndex` maintains, for one table under the default query
shape (trivial predicate, rank by score descending), everything the
columnar full scan of :func:`repro.core.kernel.columnar_topk_scan` would
compute — plus enough intermediate state to *restart* that scan at an
arbitrary rank instead of rank 1:

* the ranked order itself (tids, sort keys, score/probability/rule-slot
  columns), maintained by binary search under point mutations;
* ``W``, an ``(n, cap)`` float64 matrix whose row ``i`` is the DP state
  vector the cold scan would hold when *pricing* position ``i`` — the
  pre-extension chain row for an independent tuple, the
  Corollary-2 "product excluding own rule" vector for a rule member;
* ``units_excl``, the number of live compression units strictly before
  each position (minus the member's own rule-tuple), which decides the
  exact-constant-1 shortcut;
* checkpoints of the independent-only DP vector every :data:`BLOCK`
  ranks, so a restart never replays more than ``BLOCK`` Theorem-2
  extensions to reseed.

**The invariant that makes deltas sound:** every row of ``W`` is a pure
function of the ``(probability, rule-slot)`` column entries *strictly
before* it.  A mutation therefore invalidates exactly the suffix
starting at the first rank where the old and new columns differ; the
prefix — rows, unit counts, and checkpoints alike — is reused verbatim.
:meth:`DynamicIndex.apply` computes that first-diff rank and lowers the
*clean watermark* to it; the actual re-evaluation is **lazy** and
**prune-bounded**.  A PT-k answer read (:meth:`scan_answer`) reveals
the ``Pr^k`` column in ranking order and stops at the Theorem-5 bound —
once the compensated running mass exceeds ``k - threshold`` no deeper
tuple can reach the threshold — so it re-runs the cold kernel's loop
only over ``[watermark, stop depth)``.  A mutation *below* the answer
depth therefore costs O(column surgery) at write time and *zero* DP
work at read time: rows above it are untouched by construction, and
rows below it are never priced until someone asks for the full column
(:meth:`topk_probabilities`, which completes the scan to ``n``).

**Byte-exactness contract** (the same bar the columnar kernel was held
to in PR 7): for every ``k <= cap``, :meth:`topk_probabilities` returns
a ``Pr^k`` column bitwise equal to
``columnar_topk_scan(probability, rule_index, k)`` on the current
table — not merely close.  The pieces that make this work:

* the suffix scan replays the cold kernel's exact operation sequence
  (same :func:`~repro.core.kernel.dp_extend` /
  :func:`~repro.core.kernel.dp_extend_chain` recurrences, same
  :class:`~repro.core.kernel._RuleFactorTree` sized to the table's
  total slot count, same compensated sums over full member lists);
* restarting mid-run chains from the *stored* predecessor row
  (``W[start-1]`` extended by one Theorem-2 step) — bitwise identical
  to the uninterrupted chain, which a fresh
  ``v_independent ⊗ tree-root`` convolution would not be;
* one index serves exactly **one** ``k`` (``cap == k``), so every
  ``np.convolve`` in the replay sees operands of the very lengths the
  cold scan at that ``k`` would pass.  This is not pedantry: entries
  below ``k`` of a longer-cap convolution are *mathematically* equal to
  the cap-``k`` ones but not always bitwise equal — NumPy's correlate
  kernel picks different code paths (and thus rounding/summation
  orders) by operand length, and the smoke harness caught a cap-12
  index drifting 1 ulp from the cold scan at ``k=2``.  The registry
  therefore keeps a small per-``k`` family of indexes per table rather
  than one wide matrix.

The index refuses (:class:`~repro.exceptions.UnsupportedDeltaError`)
the one mutation whose result depends on state it cannot see: a score
update landing on a sort key some *other* tuple already holds, where
the true order depends on table insertion order.  The registry treats
that refusal — like any version gap — as a signal to rebuild cold.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.kernel import (
    _RuleFactorTree,
    _combined,
    _RUN_BLOCK,
    ANSWER_CHUNK,
    RunningSum,
    compensated_sum,
    dp_extend,
    dp_extend_chain,
    fewer_than_k_batch,
)
from repro.exceptions import (
    QueryError,
    StaleDeltaError,
    UnsupportedDeltaError,
)
from repro.model.table import UncertainTable

from repro.dynamic.delta import TableDelta

#: Checkpoint stride for the independent-only DP vector: a restart at
#: rank ``s`` replays at most ``BLOCK`` Theorem-2 extensions to reseed.
BLOCK = 512

#: Default registry-level cap: the largest ``k`` served incrementally
#: (an index is built per requested ``k`` up to this bound).  Memory per
#: (table, k) index is ``n * k * 8`` bytes.
DEFAULT_CAP = 64


def _sort_key(score: float, tid: Any) -> Tuple[float, str]:
    """The ranking sort key: score descending, ``str(tid)`` ascending."""
    return (-score, str(tid))


class DynamicIndex:
    """Incrementally maintained PT-k state for one table (see module doc).

    Build with :meth:`build`; advance with :meth:`apply`; read with
    :meth:`topk_probabilities` / :meth:`answer_tids`.  Instances are not
    thread-safe — the registry serialises access.

    :param cap: the one ``k`` this index serves byte-exactly (DP rows,
        checkpoints and convolutions are all length ``cap``; see the
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
        self._rule_ids: List[Any] = []
        # rule topology: tid -> rule_id for multi-tuple rule members,
        # rule_id -> member tids (unordered; order comes from ranks)
        self._rule_of: Dict[Any, Any] = {}
        self._members: Dict[Any, List[Any]] = {}
        # DP state: rows [0, _clean) of W/units are valid for the
        # current columns; rows beyond await a lazy rescan.
        self._W = np.empty((0, self.cap), dtype=np.float64)
        self._units = np.empty(0, dtype=np.int64)
        self._clean = 0
        self._ckpts: List[np.ndarray] = [self._initial_vector()]
        self._out: Optional[np.ndarray] = None

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
        rebuild after any fallback goes through here.
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
        index._slots, index._rule_ids = index._compute_slots(index._tids)
        # Rows are priced lazily: a build allocates and leaves the
        # watermark at 0, so the first read prices only to its own
        # Theorem-5 stop depth — a rebuild after fallback costs what a
        # pruned cold scan costs, not a full-column scan.
        index._W = np.empty((n, index.cap), dtype=np.float64)
        index._units = np.empty(n, dtype=np.int64)
        index.version = table.version
        return index

    def _initial_vector(self) -> np.ndarray:
        vector = np.zeros(self.cap, dtype=np.float64)
        vector[0] = 1.0
        return vector

    def _compute_slots(
        self, tids: List[Any]
    ) -> Tuple[np.ndarray, List[Any]]:
        """Rule slots by first encounter in ranking order — the exact
        assignment :meth:`repro.core.kernel.TableColumns.from_ranked`
        makes, so slot numbering (and thus factor-tree pairing) matches
        a cold prepare bit for bit."""
        slots = np.full(len(tids), -1, dtype=np.int64)
        rule_ids: List[Any] = []
        slot_of: Dict[Any, int] = {}
        rule_of = self._rule_of
        for position, tid in enumerate(tids):
            rule_id = rule_of.get(tid)
            if rule_id is None:
                continue
            slot = slot_of.get(rule_id)
            if slot is None:
                slot = len(rule_ids)
                slot_of[rule_id] = slot
                rule_ids.append(rule_id)
            slots[position] = slot
        return slots, rule_ids

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
            "clean": self._clean,
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
            rule_ids = self._rule_ids
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
            new_slots, rule_ids = self._compute_slots(self._tids)
        suffix = self._commit(new_score, new_prob, new_slots)
        self._rule_ids = rule_ids
        return suffix

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
            new_slots, rule_ids = self._compute_slots(tids)
        else:
            new_slots = np.insert(
                np.delete(self._slots, old_position), position, -1
            )
            rule_ids = self._rule_ids
        suffix = self._commit(new_score, new_prob, new_slots)
        self._rule_ids = rule_ids
        return suffix

    def _apply_rule(self, delta: TableDelta) -> int:
        members = tuple(delta.members)
        if len(members) < 2:
            # Singleton rules don't enter the compressed DP (the table
            # registers them, the rule index ignores them).
            return self._commit(self._score, self._prob, self._slots)
        self._members[delta.rule_id] = list(members)
        for tid in members:
            self._rule_of[tid] = delta.rule_id
        new_slots, rule_ids = self._compute_slots(self._tids)
        suffix = self._commit(self._score, self._prob, new_slots)
        self._rule_ids = rule_ids
        return suffix

    # ------------------------------------------------------------------
    # Suffix re-evaluation
    # ------------------------------------------------------------------
    def _commit(
        self,
        new_score: np.ndarray,
        new_prob: np.ndarray,
        new_slots: np.ndarray,
    ) -> int:
        """Swap in the new columns and lower the clean watermark.

        Every ``W`` row is a pure function of the ``(probability,
        rule-slot)`` entries strictly before it, so the first rank where
        the old and new columns differ bounds the damage exactly.  No DP
        work happens here: the invalidated suffix is re-priced lazily —
        and only to the depth an answer actually needs — by
        :meth:`_ensure` on the next read.
        """
        old_prob, old_slots = self._prob, self._slots
        old_n = int(old_prob.shape[0])
        new_n = int(new_prob.shape[0])
        m = min(old_n, new_n)
        differs = np.flatnonzero(
            (old_prob[:m] != new_prob[:m]) | (old_slots[:m] != new_slots[:m])
        )
        start = int(differs[0]) if differs.size else m

        self._score = new_score
        self._prob = new_prob
        self._slots = new_slots
        self._clean = min(self._clean, start, new_n)
        if new_n != old_n:
            grown_W = np.empty((new_n, self.cap), dtype=np.float64)
            grown_W[: self._clean] = self._W[: self._clean]
            grown_units = np.empty(new_n, dtype=np.int64)
            grown_units[: self._clean] = self._units[: self._clean]
            self._W = grown_W
            self._units = grown_units
        self._out = None
        # Checkpoints past the watermark describe dead column state.
        del self._ckpts[self._clean // BLOCK + 1 :]
        return new_n - start

    def _ensure(self, stop: int) -> None:
        """Make rows ``[0, stop)`` of ``W``/``units`` valid."""
        stop = min(int(stop), int(self._prob.shape[0]))
        if self._clean < stop:
            self._rescan(self._clean, stop)

    def _rescan(self, start: int, stop: Optional[int] = None) -> None:
        """Re-run the cold scan loop over ranks ``[start, stop)``.

        Reseeds ``v_independent`` from the nearest checkpoint at or
        before ``start`` plus a bounded Theorem-2 replay, rebuilds the
        rule-factor tree from the (valid) prefix, then replicates
        :func:`~repro.core.kernel.columnar_topk_scan`'s per-position
        operation sequence exactly — writing state rows into ``W``
        instead of pricing tuples (pricing happens lazily per ``k`` in
        :meth:`topk_probabilities` / :meth:`scan_answer`).

        Stopping early and resuming later is bitwise-neutral: every
        kernel primitive involved (``dp_extend``, ``dp_extend_chain``)
        is a strict per-step recurrence, and a mid-run resume seeds from
        the stored predecessor row exactly as a mid-run mutation restart
        does.  Callers pass ``start == self._clean``; rows before it are
        valid by the watermark invariant.
        """
        n = int(self._prob.shape[0])
        if stop is None:
            stop = n
        cap = self.cap
        prob = self._prob
        slots_list = self._slots.tolist()

        # Chain seed for a mid-run restart: if the restart rank and its
        # predecessor are both independent they share a cold-scan run,
        # and the continuation row is the stored predecessor row pushed
        # one Theorem-2 step — bitwise the uninterrupted chain, which a
        # fresh v⊗root convolution is not.
        chain_seed: Optional[np.ndarray] = None
        if 0 < start < n and self._slots[start - 1] < 0 and self._slots[start] < 0:
            chain_seed = self._W[start - 1].copy()
            dp_extend(chain_seed, prob[start - 1 : start])

        # Reseed the independent-only DP vector from the last recorded
        # checkpoint, recording any boundaries the replay crosses (a
        # previous partial rescan may have stopped short of them).
        del self._ckpts[start // BLOCK + 1 :]
        base_block = len(self._ckpts) - 1
        v = self._ckpts[base_block].copy()
        position = base_block * BLOCK
        while position < start:
            boundary = min(start, (position // BLOCK + 1) * BLOCK)
            replay = np.flatnonzero(self._slots[position:boundary] < 0)
            if replay.size:
                dp_extend(v, prob[position:boundary][replay])
            position = boundary
            if position % BLOCK == 0 and position // BLOCK == len(self._ckpts):
                self._ckpts.append(v.copy())
        next_ckpt = len(self._ckpts) * BLOCK

        # Rebuild the rule-factor tree and per-rule member lists from
        # the prefix.  The tree is sized to the whole table's slot count
        # — pairing inside the tree affects product bit patterns, and
        # the cold scan sizes by total count.
        total_slots = int(self._slots.max()) + 1 if n else 0
        tree = _RuleFactorTree(total_slots if total_slots > 0 else 1, cap)
        prefix_slots = self._slots[:start]
        member_positions = np.flatnonzero(prefix_slots >= 0)
        rule_member_probs: Dict[int, List[float]] = {}
        for position in member_positions.tolist():
            rule_member_probs.setdefault(
                int(prefix_slots[position]), []
            ).append(float(prob[position]))
        rule_sum: Dict[int, float] = {}
        for slot, member_probs in rule_member_probs.items():
            seen_sum = compensated_sum(member_probs)
            rule_sum[slot] = seen_sum
            tree.update(slot, seen_sum if seen_sum < 1.0 else 1.0)
        unit_count = int(start - member_positions.size) + len(rule_member_probs)

        W = self._W
        units = self._units
        i = start
        while i < stop:
            while next_ckpt <= i:
                # Boundary inside a member stretch: v is untouched by
                # members, so the current vector is the boundary state.
                self._ckpts.append(v.copy())
                next_ckpt += BLOCK
            slot = slots_list[i]
            if slot < 0:
                j = i + 1
                while j < stop and slots_list[j] < 0:
                    j += 1
                if chain_seed is not None:
                    run_vector = chain_seed
                    chain_seed = None
                else:
                    run_vector = _combined(v, tree.root(), cap)
                block_start = i
                while block_start < j:
                    block_end = min(block_start + _RUN_BLOCK, j)
                    chain = dp_extend_chain(
                        run_vector, prob[block_start:block_end]
                    )
                    W[block_start:block_end] = chain[: block_end - block_start]
                    run_vector = chain[block_end - block_start]
                    block_start = block_end
                units[i:j] = np.arange(unit_count, unit_count + (j - i))
                fold_start = i
                while fold_start < j:
                    fold_end = min(j, next_ckpt)
                    dp_extend(v, prob[fold_start:fold_end])
                    fold_start = fold_end
                    if fold_start == next_ckpt:
                        self._ckpts.append(v.copy())
                        next_ckpt += BLOCK
                unit_count += j - i
                i = j
                continue
            chain_seed = None
            own_probability = float(prob[i])
            seen_sum = rule_sum.get(slot, 0.0)
            units[i] = unit_count - (1 if seen_sum > 0.0 else 0)
            W[i] = _combined(v, tree.product_excluding(slot), cap)
            member_probs = rule_member_probs.setdefault(slot, [])
            member_probs.append(own_probability)
            new_sum = compensated_sum(member_probs)
            rule_sum[slot] = new_sum
            tree.update(slot, new_sum if new_sum < 1.0 else 1.0)
            if seen_sum <= 0.0:
                unit_count += 1
            i += 1
        if stop >= n:
            while next_ckpt <= n:
                # Trailing boundaries past the last independent run: v
                # already holds the final state (see the member-stretch
                # argument above).
                self._ckpts.append(v.copy())
                next_ckpt += BLOCK
        self._clean = stop
        self.suffix_reevaluated += stop - start

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def topk_probabilities(self, k: int) -> np.ndarray:
        """The full ``Pr^k`` column in ranking order, bitwise equal to a
        cold :func:`~repro.core.kernel.columnar_topk_scan` at ``k``.

        Cached until the next delta.  Treat the returned array as
        immutable.

        :raises QueryError: for non-positive ``k``.
        :raises UnsupportedDeltaError: for any ``k`` other than this
            index's own cap — each index is exact at exactly one ``k``
            (callers route other values to a sibling index or a cold
            scan).
        """
        if k <= 0:
            raise QueryError(f"k must be positive, got {k}")
        if k != self.cap:
            raise UnsupportedDeltaError(
                f"index for table {self.name!r} serves k={self.cap} "
                f"only, got k={k}"
            )
        if self._out is not None:
            return self._out
        self._ensure(len(self._tids))
        out = self._prob * fewer_than_k_batch(self._W, k)
        # The cold kernel serves positions whose dominant set holds
        # fewer than k units the literal constant — Pr(|T(t)| < k) is
        # *exactly* 1 there, not a row sum an ulp below it.
        shallow = self._units < k
        out[shallow] = self._prob[shallow]
        self._out = out
        return out

    def scan_answer(
        self, k: int, threshold: float
    ) -> Tuple[List[Any], Dict[Any, float], int]:
        """The PT-k answer with Theorem-5-bounded depth.

        Reveals the ``Pr^k`` column in ranking order — re-pricing lazy
        rows in :data:`ANSWER_CHUNK` steps — and stops as soon as the
        compensated running mass exceeds ``k - threshold``: by
        Theorem 5 (``sum_t Pr^k(t) = E[min(k, |W|)] <= k``) no deeper
        tuple can reach the threshold.  This is the same stop rule
        (and the same :class:`~repro.core.kernel.RunningSum`
        accumulator) the exact engine's pruned scan applies, so a
        mutation *below* the stop depth costs no DP work at all here.

        :returns: ``(answer tids in ranking order, tid -> Pr^k for the
            scanned prefix, stop depth)``.  The scanned values are
            bitwise the cold full-column values; the answer set equals
            the full column's threshold set.  Empty for the full-scan
            sentinel ``threshold == 0.0``, matching the exact engine.
        :raises UnsupportedDeltaError: for ``k != cap`` (see
            :meth:`topk_probabilities`).
        """
        if k <= 0:
            raise QueryError(f"k must be positive, got {k}")
        if k != self.cap:
            raise UnsupportedDeltaError(
                f"index for table {self.name!r} serves k={self.cap} "
                f"only, got k={k}"
            )
        answers: List[Any] = []
        probabilities: Dict[Any, float] = {}
        if threshold == 0.0:
            return answers, probabilities, 0
        n = len(self._tids)
        limit = k - threshold
        mass = RunningSum()
        depth = 0
        while depth < n:
            chunk_stop = min(n, depth + ANSWER_CHUNK)
            if self._out is not None:
                out = self._out[depth:chunk_stop]
            else:
                self._ensure(chunk_stop)
                out = self._prob[depth:chunk_stop] * fewer_than_k_batch(
                    self._W[depth:chunk_stop], k
                )
                shallow = self._units[depth:chunk_stop] < k
                out[shallow] = self._prob[depth:chunk_stop][shallow]
            values = out.tolist()
            folded = mass.add_until(values, limit)
            if folded is not None:
                values = values[:folded]
            for offset, value in enumerate(values):
                tid = self._tids[depth + offset]
                probabilities[tid] = value
                if value >= threshold:
                    answers.append(tid)
            if folded is not None:
                return answers, probabilities, depth + folded
            depth = chunk_stop
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
