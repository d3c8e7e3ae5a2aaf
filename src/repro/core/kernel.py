"""Columnar compute kernel for the exact PT-k dynamic program.

This module is the single numeric core shared by the scan path, the
pruning tracker, and the scalar oracle:

* **One summation primitive.**  Every ``Pr(|S| < k)`` style sum in the
  library — Equation 4's ``fewer_than_k`` factor, the tail stop bound,
  and Theorem 5's running probability mass — routes through
  :func:`compensated_sum` / :func:`fewer_than_k` / :class:`RunningSum`
  so no two code paths can disagree about the same partial sum again
  (the PR-6 era bug where ``exact._evaluate`` used a naive ``ndarray
  .sum()`` while ``SubsetProbabilityVector`` used ``math.fsum``).
* **Batched Theorem-2 extensions.**  :func:`dp_extend` and
  :func:`dp_extend_chain` fold a contiguous run of independent units
  into a DP vector with numpy-vectorised inner steps instead of one
  python call per unit.
* **A columnar table representation.**  :class:`TableColumns` holds the
  ranked tuples of a prepared query as float64 score/probability
  columns plus an int64 rule-index column — the same layout the durable
  snapshot format persists, so recovery can hand the serving layer
  memory-mapped columns without materialising tuple objects.
* **One scan kernel.**  :class:`TopKScanState` computes ``Pr^k(t)``
  over a ranked columnar table in one resumable pass, 10–100x faster
  than the per-tuple python loop at ``n >= 1e5``, while staying within
  ``1e-12`` of the retained scalar implementation (the cross-check
  oracle; see ``tests/test_kernel.py``).  :func:`columnar_topk_scan` is
  that pass run to the end of the table; a thresholded read stops it
  at Theorem 5's bound, and a read cut by its deadline resumes it.
  The incremental index (:mod:`repro.dynamic`) keeps one such state
  alive across writes.

Layering: this module imports only :mod:`numpy` and
:mod:`repro.exceptions` so every other layer (model, core, query,
durable) can depend on it without cycles.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import QueryError

#: Block length for batched DP runs: bounds the chain-matrix scratch at
#: ``(_RUN_BLOCK + 1) * cap`` float64s while keeping per-row numpy
#: dispatch overhead amortised.
_RUN_BLOCK = 2048

#: Reveal granularity of a Theorem-5-bounded read: rows are priced in
#: chunks of this many ranks until the running mass crosses ``k - p``.
ANSWER_CHUNK = 64


# ----------------------------------------------------------------------
# The shared summation primitive
# ----------------------------------------------------------------------
def compensated_sum(values: Iterable[float]) -> float:
    """Exactly rounded sum of floats (``math.fsum`` under the hood).

    The one primitive behind every probability summation in the
    library.  Accepts any iterable, including numpy arrays.
    """
    if isinstance(values, np.ndarray):
        values = values.tolist()
    return float(math.fsum(values))


def fewer_than_k(vector: np.ndarray, k: int) -> float:
    """``Pr(|S ∩ W| < k)`` from a DP vector — Equation 4's second factor.

    Sums entries ``0..k-1`` with :func:`compensated_sum` and clamps at 1
    (the entries of a truncated Poisson-binomial vector can drift a few
    ulps above a true sum of 1).
    """
    if k < 0 or k > vector.shape[0]:
        raise QueryError(
            f"k must be in [0, {vector.shape[0]}], got {k}"
        )
    total = compensated_sum(vector[:k])
    return total if total < 1.0 else 1.0


def fewer_than_k_batch(matrix: np.ndarray, k: int) -> np.ndarray:
    """Row-wise :func:`fewer_than_k` over a ``(rows, cap)`` DP matrix.

    Used by the columnar scan so batched evaluation goes through the
    identical compensated sum as the scalar path — same inputs, same
    bits out.
    """
    if matrix.shape[0] == 0:
        return np.empty(0, dtype=np.float64)
    rows = matrix[:, :k] if matrix.shape[1] > k else matrix
    out = np.fromiter(
        map(math.fsum, rows.tolist()), dtype=np.float64, count=rows.shape[0]
    )
    np.minimum(out, 1.0, out=out)
    return out


class RunningSum:
    """Streaming compensated accumulator (Neumaier variant of Kahan).

    For call sites that cannot buffer their terms — e.g. the Theorem-5
    probability mass, fed one ``Pr^k`` at a time over up to ``n``
    tuples, where naive ``+=`` can drift across the ``k - p`` stop
    boundary.
    """

    __slots__ = ("_sum", "_compensation", "count")

    def __init__(self) -> None:
        self._sum = 0.0
        self._compensation = 0.0
        self.count = 0

    def add(self, value: float) -> None:
        """Fold one term into the running total."""
        total = self._sum + value
        if abs(self._sum) >= abs(value):
            self._compensation += (self._sum - total) + value
        else:
            self._compensation += (value - total) + self._sum
        self._sum = total
        self.count += 1

    def add_until(self, values: Iterable[float], limit: float) -> Optional[int]:
        """Fold ``values`` in order until the total exceeds ``limit``.

        The Theorem-5 stop search: the same :meth:`add` steps and
        comparisons as adding and checking one value at a time.

        :returns: how many values were folded when the total first
            exceeded ``limit``, or ``None`` if it never did (every value
            folded).
        """
        for count, value in enumerate(values, 1):
            self.add(value)
            if self.value > limit:
                return count
        return None

    @property
    def value(self) -> float:
        """The compensated total of everything added so far."""
        return self._sum + self._compensation

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RunningSum(value={self.value!r}, count={self.count})"


# ----------------------------------------------------------------------
# Batched Theorem-2 extensions
# ----------------------------------------------------------------------
def dp_extend(vector: np.ndarray, probabilities: np.ndarray) -> int:
    """Fold a run of independent units into ``vector``, in place.

    Each step is the Theorem-2 recurrence
    ``v'[j] = v[j-1]·p + v[j]·(1-p)`` truncated at the vector's cap.

    :returns: the number of extensions performed (the Equation-5 cost).
    """
    head = vector[:-1]
    for p in probabilities:
        shifted = head * p
        vector *= 1.0 - p
        vector[1:] += shifted
    return len(probabilities)


def dp_extend_chain(initial: np.ndarray, probabilities: np.ndarray) -> np.ndarray:
    """All intermediate DP vectors of a run, as a ``(L+1, cap)`` matrix.

    ``result[0]`` is ``initial`` (copied); ``result[i]`` is the vector
    after folding ``probabilities[:i]``.  This is the batched form of
    the prefix-snapshot chain that :class:`PrefixSharedDP` keeps, and
    what lets the columnar scan evaluate a whole run of independent
    tuples with one row-sum instead of per-tuple python calls.
    """
    length = int(len(probabilities))
    cap = int(initial.shape[0])
    chain = np.empty((length + 1, cap), dtype=np.float64)
    chain[0] = initial
    for i in range(length):
        previous = chain[i]
        current = chain[i + 1]
        p = probabilities[i]
        np.multiply(previous, 1.0 - p, out=current)
        current[1:] += previous[:-1] * p
    return chain


# ----------------------------------------------------------------------
# The columnar table representation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TableColumns:
    """Ranked tuples of a prepared query as dense float64/int64 columns.

    The layout durable snapshots persist and :class:`~repro.query.
    prepare.PreparedRanking` caches: ``score`` and ``probability`` are
    contiguous float64 arrays in ranking order (best first) and
    ``rule_index`` maps each position to a small integer rule slot
    (``-1`` for independent tuples) indexing into ``rule_ids``.

    Ownership: the arrays are owned by whoever built them — a prepared
    ranking owns freshly materialised columns, a recovered snapshot
    hands out views over its memory-map — and are treated as immutable
    by every consumer.  The kernel never writes to them.
    """

    tids: Tuple[Any, ...]
    score: np.ndarray
    probability: np.ndarray
    rule_index: np.ndarray
    rule_ids: Tuple[Any, ...]

    def __len__(self) -> int:
        return len(self.tids)

    @classmethod
    def from_ranked(
        cls,
        ranked: Sequence[Any],
        rule_of: Mapping[Any, Any],
    ) -> "TableColumns":
        """Columnarise a ranked tuple sequence (best first).

        ``ranked`` items need ``tid`` / ``score`` / ``probability``
        attributes; ``rule_of`` maps tuple id to an object with a
        ``rule_id`` attribute (independent tuples absent).
        """
        n = len(ranked)
        score = np.fromiter(
            (t.score for t in ranked), dtype=np.float64, count=n
        )
        probability = np.fromiter(
            (t.probability for t in ranked), dtype=np.float64, count=n
        )
        tids = tuple(t.tid for t in ranked)
        rule_index, rule_ids = rule_slots(tids, rule_of)
        return cls(
            tids=tids,
            score=score,
            probability=probability,
            rule_index=rule_index,
            rule_ids=rule_ids,
        )

    def unit_counts(self) -> Tuple[int, int, int]:
        """``(independent units, rule units, rule merges)`` over the table.

        The full-scan analogue of ``DominantSetScan.unit_counts`` for
        the flight recorder.
        """
        rule_positions = self.rule_index >= 0
        members = int(rule_positions.sum())
        independent = len(self.tids) - members
        rules = int(np.unique(self.rule_index[rule_positions]).size)
        return independent, rules, max(members - rules, 0)


def rule_slots(
    tids: Sequence[Any], rule_of: Mapping[Any, Any]
) -> Tuple[np.ndarray, Tuple[Any, ...]]:
    """Rule slots by first encounter in ranking order: the
    ``(rule_index, rule_ids)`` columns of :class:`TableColumns`.

    ``rule_of`` maps tuple id to an object with a ``rule_id`` attribute
    (independent tuples absent); slot ``i`` is the ``i``-th rule met.
    """
    rule_index = np.full(len(tids), -1, dtype=np.int64)
    rule_ids: List[Any] = []
    slot_of: Dict[Any, int] = {}
    for position, tid in enumerate(tids):
        rule = rule_of.get(tid)
        if rule is None:
            continue
        slot = slot_of.get(rule.rule_id)
        if slot is None:
            slot = slot_of[rule.rule_id] = len(rule_ids)
            rule_ids.append(rule.rule_id)
        rule_index[position] = slot
    return rule_index, tuple(rule_ids)


def ranked_order(scores: np.ndarray, tids: Sequence[Any]) -> np.ndarray:
    """Ranking-order permutation: score descending, ``str(tid)`` ascending.

    Matches the python-level ``sorted(key=(-score, str(tid)))`` ranking
    exactly: numpy's ``<U`` comparison is code-point ordering, the same
    relation python strings use, and ``lexsort`` is stable.
    """
    score_column = np.asarray(scores, dtype=np.float64)
    tid_keys = np.asarray([str(t) for t in tids])
    return np.lexsort((tid_keys, -score_column))


# ----------------------------------------------------------------------
# The scan kernel
# ----------------------------------------------------------------------
class _RuleFactorTree:
    """Segment tree over the rule-tuple factor polynomials.

    Leaf ``s`` holds rule slot ``s``'s Corollary-1 factor
    ``(1 - q_s) + q_s·x`` (the constant polynomial 1 while the rule is
    unseen); an internal node holds the truncated product of its
    children.  Truncation at the DP cap is associativity-safe: the
    coefficients below the cap of a product depend only on the
    coefficients below the cap of its factors.

    Both operations the scan needs — refreshing one rule's probability
    sum, and the Corollary-2 product of *every other* rule's factor —
    cost ``O(log m)`` truncated convolutions, so exclusion never
    requires the numerically unstable divide-out of a hot factor nor an
    ``O(m)`` rebuild per member.
    """

    __slots__ = ("cap", "size", "nodes")

    def __init__(self, slots: int, cap: int) -> None:
        self.cap = cap
        self.size = _tree_size(slots)
        one = np.ones(1, dtype=np.float64)
        # Heap layout: node 1 is the root, leaves start at ``size``.
        self.nodes: List[np.ndarray] = [one] * (2 * self.size)

    def copy(self) -> "_RuleFactorTree":
        """An independent tree with the same nodes (node arrays are
        immutable, so they are shared)."""
        clone = copy.copy(self)
        clone.nodes = list(self.nodes)
        return clone

    def update(self, slot: int, q: float) -> None:
        """Set rule ``slot``'s factor to ``(1-q) + q·x`` and re-product.

        ``q`` is clamped at 1: a compensated sum of member probabilities
        can sit an ulp above it.
        """
        if q > 1.0:
            q = 1.0
        node = self.size + slot
        self.nodes[node] = np.array([1.0 - q, q], dtype=np.float64)
        node //= 2
        while node >= 1:
            self.nodes[node] = self._product(
                self.nodes[2 * node], self.nodes[2 * node + 1]
            )
            node //= 2

    def root(self) -> np.ndarray:
        """The truncated product of every rule factor."""
        return self.nodes[1]

    def product_excluding(self, slot: int) -> np.ndarray:
        """The truncated product of every rule factor except ``slot``'s.

        Multiplies the sibling node on each level of ``slot``'s
        root-path; for an unseen slot this equals :meth:`root`.
        """
        result = np.ones(1, dtype=np.float64)
        node = self.size + slot
        while node > 1:
            result = self._product(result, self.nodes[node ^ 1])
            node //= 2
        return result

    def _product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # Node arrays are immutable by convention, so the identity
        # shortcuts may share references.
        if a.shape[0] == 1 and a[0] == 1.0:
            return b
        if b.shape[0] == 1 and b[0] == 1.0:
            return a
        full = np.convolve(a, b)
        return full[: self.cap] if full.shape[0] > self.cap else full


def _tree_size(slots: int) -> int:
    """Leaf count of a factor tree over ``slots`` rule slots: the
    smallest power of two at least ``max(slots, 1)``."""
    return 1 << max(slots - 1, 0).bit_length()


def _combined(v_independent: np.ndarray, factors: np.ndarray, k: int) -> np.ndarray:
    """Fresh length-``k`` DP vector ``v_independent ⊗ factors``."""
    if factors.shape[0] == 1 and factors[0] == 1.0:
        return v_independent.copy()
    return np.ascontiguousarray(np.convolve(v_independent, factors)[:k])


def columnar_topk_scan(
    probability: np.ndarray,
    rule_index: Optional[np.ndarray],
    k: int,
) -> Tuple[np.ndarray, int]:
    """``Pr^k(t)`` for every tuple of a ranked columnar table.

    One forward pass in ranking order, equivalent to the scalar
    engine's full scan (pruning off): a fresh :class:`TopKScanState`
    advanced to the end of the table.

    :param probability: float64 membership probabilities, ranking order.
    :param rule_index: int64 rule slot per position, ``-1`` for
        independent tuples; ``None`` means all independent.
    :param k: the query's k (DP cap; entries ``0..k-1`` feed ``Pr^k``).
    :returns: ``(out, extensions)`` — the ``Pr^k`` column and the count
        of Theorem-2 extensions performed (Equation-5 cost; each rule
        factor refresh counts as one extension).
    """
    state = TopKScanState(probability, rule_index, k)
    state.advance(state.n)
    return state.out, state.extensions


#: The attributes of a :class:`TopKScanState` a snapshot holds: its
#: DP state and Theorem-5 read at row ``done``, without the columns.
_DP_STATE = (
    "done", "extensions", "_v", "_chain", "_tree", "_member_probs",
    "_units", "_run_start", "_run_base",
    "_limit", "_mass", "_massed", "_crossed",
)


def _copied(state: Dict[str, Any]) -> Dict[str, Any]:
    """A copy of a scan's DP state that shares nothing mutable with it."""
    copied = dict(state)
    copied["_v"] = state["_v"].copy()
    if state["_chain"] is not None:
        copied["_chain"] = (
            copied["_v"]
            if state["_chain"] is state["_v"]
            else state["_chain"].copy()
        )
    if state["_tree"] is not None:
        copied["_tree"] = state["_tree"].copy()
    copied["_member_probs"] = dict(state["_member_probs"])
    copied["_mass"] = copy.copy(state["_mass"])
    return copied


class TopKScanState:
    """The columnar ``Pr^k`` scan at one ``k``, resumable at any row.

    The scan is one forward pass in ranking order:

    * an independent-only DP vector accumulates every scanned
      independent unit, and a :class:`_RuleFactorTree` carries one
      Corollary-1 factor per scanned rule at its clamped compensated
      probability sum, so the compressed dominant set of the next tuple
      is always ``v_independent ⊗ tree product``;
    * runs of independent tuples are evaluated in blocks — a batched
      Theorem-2 chain plus one compensated row-sum per tuple;
    * a rule member's own rule-tuple must be excluded (Corollary 2):
      its ``Pr(|T(t)| < k)`` factor comes from ``v_independent ⊗``
      the tree product *excluding its slot* — ``O(log m)`` truncated
      convolutions, stable for any factor probability up to and
      including certain rules at ``q = 1``.

    :meth:`advance` prices rows ``[done, stop)`` into :attr:`out`.
    Pausing is bitwise neutral: :func:`dp_extend`,
    :func:`dp_extend_chain` and the row-wise fsum are strict per-step
    recurrences, and a pause inside an independent run keeps that run's
    chain vector, so the continuation extends it exactly as the
    uninterrupted pass would (a fresh ``v_independent ⊗ root``
    convolution is mathematically equal but not bitwise).
    :meth:`theorem5_depth` adds Theorem 5's stop rule on top, so a PT-k
    read (:meth:`read`) prices only the rows its answer needs, and a
    read cut by its deadline continues where it stopped.

    The state at row ``done`` depends only on the column entries above
    it (plus the table's rule-slot count, which sizes the factor tree),
    so :meth:`snapshot`, :meth:`restore` and :meth:`rebase` let a caller
    keep the scan across a write to the table.

    Rows below :attr:`done` never change once priced.  Instances are
    not thread-safe; callers sharing one serialise access.

    :param probability: float64 membership probabilities, ranking order.
    :param rule_index: int64 rule slot per position, ``-1`` for
        independent tuples; ``None`` means all independent.
    :param k: the query's k (DP cap; entries ``0..k-1`` feed ``Pr^k``).
    """

    def __init__(
        self,
        probability: np.ndarray,
        rule_index: Optional[np.ndarray],
        k: int,
    ) -> None:
        if k <= 0:
            raise QueryError(f"k must be positive, got {k}")
        self.k = int(k)
        self.done = 0
        #: Theorem-2 extensions so far (Equation-5 cost; each rule
        #: factor refresh counts as one)
        self.extensions = 0
        self._v = np.zeros(self.k, dtype=np.float64)
        self._v[0] = 1.0
        self._tree: Optional[_RuleFactorTree] = None
        # Per-rule member probabilities in scan order; the rule-tuple
        # probability is their compensated sum — the same quantity
        # DominantSetScan computes, so both paths see identical units.
        self._member_probs: Dict[int, Tuple[float, ...]] = {}
        # Number of live units (independents + one rule-tuple per seen
        # rule) before row ``done``.  While a tuple's dominant set has
        # fewer than k units, ``Pr(|T(t)| < k) = 1`` *exactly* — served
        # as the literal constant rather than a DP sum that can sit an
        # ulp below 1.
        self._units = 0
        # The open independent run: its chain vector (the pre-extension
        # DP state of row ``done``), first row, and unit count there.
        # ``None`` between runs.
        self._chain: Optional[np.ndarray] = None
        self._run_start = 0
        self._run_base = 0
        # Theorem-5 running mass over rows [0, _massed) for the read
        # limit _limit, and the depth where it crossed that limit.
        self._limit: Optional[float] = None
        self._mass = RunningSum()
        self._massed = 0
        self._crossed: Optional[int] = None
        self._set_columns(probability, rule_index)
        #: the ``Pr^k`` column; rows ``[0, done)`` are priced
        self.out = np.zeros(self.n, dtype=np.float64)

    def _set_columns(
        self, probability: np.ndarray, rule_index: Optional[np.ndarray]
    ) -> None:
        """Read the scan's columns and size the factor tree to them."""
        self._p = np.ascontiguousarray(probability, dtype=np.float64)
        self.n = int(self._p.shape[0])
        # Rule members in ranking order and their slots; everything
        # between two members is one run of independent tuples.
        self._member_rows = np.empty(0, dtype=np.int64)
        self._member_slots = self._member_rows
        if rule_index is not None:
            slots = np.ascontiguousarray(rule_index, dtype=np.int64)
            self._member_rows = np.flatnonzero(slots >= 0)
            self._member_slots = slots[self._member_rows]
        self._fit()

    def _fit(self) -> None:
        """Point the member cursor at ``done`` and size the factor tree
        to the columns' rule-slot count, as the cold scan does."""
        # index of the first member at or after ``done``
        self._cursor = int(np.searchsorted(self._member_rows, self.done))
        if not self._member_slots.size:
            return
        slot_count = int(self._member_slots.max()) + 1
        if self._tree is not None and self._tree.size == _tree_size(slot_count):
            return
        # A tree's nodes depend only on its leaves: refit from the sums.
        self._tree = _RuleFactorTree(slot_count, self.k)
        for slot, members in self._member_probs.items():
            self._tree.update(slot, compensated_sum(members))
        if self._chain is self._v:
            # Without rules the run chain *is* the independent vector;
            # from now on both are extended separately.
            self._chain = self._v.copy()

    def snapshot(self) -> Dict[str, Any]:
        """The scan's state at row ``done``, for :meth:`restore`.

        It holds the DP state only — no columns and no priced rows — so
        it costs ``O(k + rules)``, not ``O(n)``.  Treat it as opaque.
        """
        return _copied({name: getattr(self, name) for name in _DP_STATE})

    def restore(self, snapshot: Dict[str, Any]) -> None:
        """Rewind this scan to a :meth:`snapshot` it took earlier.

        The column entries above the snapshot's row must be unchanged
        since it was taken.  Rows priced above that row are kept, and
        the scan continues from it exactly as it did the first time.  A
        snapshot can be restored any number of times.
        """
        for name, value in _copied(snapshot).items():
            setattr(self, name, value)
        self._fit()

    def rebase(
        self, probability: np.ndarray, rule_index: Optional[np.ndarray]
    ) -> None:
        """Continue this scan over new columns.

        The new columns must equal the old ones on rows ``[0, done)``;
        rows past ``done`` (and the table length) may differ.  The
        priced prefix, the DP state and the current read carry over;
        continuing from here is bitwise the cold scan of the new
        columns.
        """
        priced = self.out[: self.done]
        self._set_columns(probability, rule_index)
        self.out = np.zeros(self.n, dtype=np.float64)
        self.out[: self.done] = priced

    def advance(self, stop: int) -> None:
        """Price rows ``[done, stop)`` (clamped to the table)."""
        stop = min(int(stop), self.n)
        rows, slots = self._member_rows, self._member_slots
        i = self.done
        while i < stop:
            cursor = self._cursor
            member = int(rows[cursor]) if cursor < rows.size else self.n
            if i < member:
                j = min(member, stop)
                self._price_run(i, j)
                i = j
            else:
                self._price_member(i, int(slots[cursor]))
                self._cursor = cursor + 1
                i += 1
        self.done = i

    def _price_run(self, start: int, stop: int) -> None:
        """Price independent rows ``[start, stop)``, opening or
        continuing their run, and fold them into the DP state."""
        k = self.k
        p = self._p
        out = self.out
        if self._chain is None:
            # With no rule in the table there is a single run, and the
            # independent-only vector is its chain.
            self._chain = (
                self._v
                if self._tree is None
                else _combined(self._v, self._tree.root(), k)
            )
            self._run_start, self._run_base = start, self._units
        vector = self._chain
        i = start
        while i < stop:
            j = min(i + _RUN_BLOCK, stop)
            chain = dp_extend_chain(vector, p[i:j])
            out[i:j] = fewer_than_k_batch(chain[: j - i], k)
            vector[:] = chain[j - i]
            i = j
        ones_end = min(stop, self._run_start + max(k - self._run_base, 0))
        if ones_end > start:
            out[start:ones_end] = 1.0
        out[start:stop] *= p[start:stop]
        self.extensions += stop - start
        if self._tree is not None:
            self.extensions += dp_extend(self._v, p[start:stop])
        self._units += stop - start

    def _price_member(self, i: int, slot: int) -> None:
        """Price rule member ``i`` and refresh its rule's factor."""
        self._chain = None  # a member closes the open run
        k = self.k
        own_probability = float(self._p[i])
        seen = self._member_probs.get(slot, ())
        seen_sum = compensated_sum(seen)
        if self._units - (1 if seen_sum > 0.0 else 0) < k:
            self.out[i] = own_probability
        else:
            excluded = _combined(self._v, self._tree.product_excluding(slot), k)
            self.out[i] = own_probability * fewer_than_k(excluded, k)
        members = self._member_probs[slot] = seen + (own_probability,)
        self._tree.update(slot, compensated_sum(members))
        self.extensions += 1  # the rule-tuple factor refresh
        if seen_sum <= 0.0:
            self._units += 1  # a fresh rule-tuple joined the live units

    def theorem5_depth(
        self, limit: float, stop_at: Optional[float] = None
    ) -> Tuple[int, str]:
        """The depth a PT-k read must reveal, pricing rows as needed.

        Theorem 5: ``sum_t Pr^k(t) = E[min(k, |W|)] <= k``, so once the
        compensated running mass of the column exceeds ``limit = k - p``
        no deeper tuple can reach ``p``.  The depth is the first row
        where the mass crosses ``limit``; rows are priced to the next
        multiple of :data:`ANSWER_CHUNK` until it does.

        A call with the previous call's ``limit`` continues that read (a
        finished read costs nothing, a ``"deadline"`` cut resumes); a
        new ``limit`` starts a new read over the rows already priced.

        :param limit: ``k - p``; ``math.inf`` reads the whole column.
        :param stop_at: optional ``time.perf_counter()`` deadline,
            checked between chunks.
        :returns: ``(depth, stopped_by)`` in the vocabulary of
            :class:`~repro.core.results.AlgorithmStats`:
            ``"total-probability"`` (the mass crossed ``limit``),
            ``"exhausted"`` (it never did), or ``"deadline"`` —
            ``stop_at`` cut the read, ``depth`` is the rows priced so
            far, and a later call continues from there.
        """
        if limit != self._limit:
            self._limit = limit
            self._mass = RunningSum()
            self._massed = 0
            self._crossed = None
        while self._crossed is None:
            if self._massed < self.done:
                folded = self._mass.add_until(
                    self.out[self._massed : self.done].tolist(), limit
                )
                if folded is not None:
                    self._crossed = self._massed + folded
                    break
                self._massed = self.done
            if self.done >= self.n:
                return self.n, "exhausted"
            if stop_at is not None and time.perf_counter() >= stop_at:
                return self.done, "deadline"
            self.advance((self.done // ANSWER_CHUNK + 1) * ANSWER_CHUNK)
        return self._crossed, "total-probability"

    def read(
        self,
        tids: Sequence[Any],
        threshold: float,
        limit: float,
        stop_at: Optional[float] = None,
    ) -> Tuple[List[Any], Dict[Any, float], int, str]:
        """A thresholded PT-k read: :meth:`theorem5_depth` plus what it
        reveals.

        :param tids: tuple ids in ranking order (``tids[i]`` is row i).
        :param threshold: the query's ``p``.
        :param limit: the stop search's limit, ``k - p`` (``math.inf``
            reveals the whole column).
        :param stop_at: optional ``time.perf_counter()`` deadline.
        :returns: ``(answers, probabilities, depth, stopped_by)`` —
            the ids of revealed rows with ``Pr^k >= threshold`` in
            ranking order, ``tid -> Pr^k`` for the revealed rows, and
            :meth:`theorem5_depth`'s result.
        """
        depth, stopped_by = self.theorem5_depth(limit, stop_at)
        column = self.out[:depth]
        answers = [
            tids[i] for i in np.flatnonzero(column >= threshold).tolist()
        ]
        probabilities = dict(zip(tids[:depth], column.tolist()))
        return answers, probabilities, depth, stopped_by
