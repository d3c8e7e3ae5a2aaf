"""The warm-scan store: the kernel scans of a preparation, kept across writes.

Every :class:`~repro.query.prepare.PreparedRanking` has a
:class:`DynamicIndex` (:attr:`~repro.query.prepare.PreparedRanking
.index`): per ``k``, the scan :func:`repro.core.kernel
.columnar_topk_scan` would run cold over the preparation's
``(probability, rule_index)`` columns, as a live
:class:`~repro.core.kernel.TopKScanState` that a write need not restart
at rank 1.  A write makes a new preparation, and the prepare cache hands
the old one's store to it (:meth:`DynamicIndex.apply`): the refreshed
preparation, or a cold re-prepare of the same shape.  So every read, of
every shape and every ``k``, resumes what the reads before the write
priced:

* a scan is priced lazily: a read advances it only as far as its answer
  needs;
* snapshots of its state (:meth:`~repro.core.kernel.TopKScanState
  .snapshot`: DP vectors and per-rule sums, no columns) are taken as it
  advances — at rows 1, 2, 4, … up to :data:`BLOCK`, then every
  ``BLOCK`` rows.

**The invariant that makes moving sound:** the scan's state at a row is
a pure function of the ``(probability, rule-slot)`` column entries
*strictly before* it, except for the size of its rule-factor tree, which
follows the table's slot count.  New columns therefore invalidate
exactly the rows from the first rank where they differ from the priced
ones.  A read first moves its ``k``'s scan onto its own preparation's
columns (:meth:`_LiveScan.follow`, under the scan's lock): one
vectorised compare finds that rank, a scan that has priced past it
rewinds to its latest snapshot at or before it
(:meth:`~repro.core.kernel.TopKScanState.restore`), and the scan is
rebased onto the new columns (:meth:`~repro.core.kernel.TopKScanState
.rebase`, which refits the tree when its size changes).  This holds
however the new columns were made — by a refresh, by a cold re-prepare,
by recovery or by a replica's apply — and in either direction, so a
reader still holding an older preparation moves the scan back; the
store needs no delta log, version chain or epoch.  A write *below* the
priced rows therefore costs one column compare and *zero* DP work at
read time; a write above them re-prices from the snapshot, at most half
its rank (``BLOCK`` rows, deeper down) above it.

**Byte-exactness contract**: a read returns a ``Pr^k`` column bitwise
equal to ``columnar_topk_scan(probability, rule_index, k)`` on the
reader's columns — not merely close.  The store runs no scan loop of
its own: every row is priced by :meth:`~repro.core.kernel.TopKScanState
.advance`.  Pausing that scan is bitwise neutral, and a restored,
rebased snapshot continues exactly as the uninterrupted scan of the new
columns would (the same DP vectors, open-run chain and per-rule member
sums; a factor tree's nodes depend only on its leaves, so a refitted
tree equals the one the cold scan builds).  Each ``k`` has its own
scan, so every ``np.convolve`` sees operands of the very lengths the
cold scan at that ``k`` would pass.  This is not pedantry: entries below
``k`` of a longer-cap convolution are *mathematically* equal to the
cap-``k`` ones but not always bitwise equal — NumPy's correlate kernel
picks different code paths (and thus rounding / summation orders) by
operand length, and the smoke harness caught a cap-12 scan drifting 1
ulp from the cold scan at ``k=2``.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

import numpy as np

from repro.core.kernel import TableColumns, TopKScanState
from repro.core.results import PTKAnswer
from repro.obs import OBS, catalogued

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.query.prepare import PreparedRanking

#: Snapshot stride past the first ``BLOCK`` rows (see :func:`_next_mark`):
#: a write down there re-prices at most ``BLOCK`` rows above its rank.
BLOCK = 512

#: Warm scans kept per store, one per ``k``; the least recently read
#: ``k`` is evicted first.  Memory per scan is one ``n``-float ``Pr^k``
#: column plus, per snapshot, two ``k``-float DP vectors, the factor
#: tree and the member probabilities of the rules seen above its row;
#: the columns are the preparation's.
MAX_SCAN_STATES = 8


def _next_mark(row: int) -> int:
    """The first snapshot row past ``row``: the powers of two below
    :data:`BLOCK`, then every multiple of it.  Reads mostly stop in the
    first few hundred rows, so a write there restores close to its
    rank."""
    if row < BLOCK:
        return min(1 << row.bit_length(), BLOCK)
    return (row // BLOCK + 1) * BLOCK


def _first_difference(old: TableColumns, new: TableColumns) -> int:
    """The first rank where ``new``'s ``(probability, rule slot)``
    entries differ from ``old``'s (the shorter length if none does)."""
    m = min(len(old), len(new))
    differs = np.flatnonzero(
        (old.probability[:m] != new.probability[:m])
        | (old.rule_index[:m] != new.rule_index[:m])
    )
    return int(differs[0]) if differs.size else m


class _LiveScan(TopKScanState):
    """A store's scan at one ``k``: keeps the columns it is priced on,
    the lock its readers take, and ``(row, snapshot)`` pairs, row 0
    first, appending one at every :func:`_next_mark` row it reaches."""

    def __init__(self, columns: TableColumns, k: int) -> None:
        super().__init__(columns.probability, columns.rule_index, k)
        self.columns = columns
        self.lock = threading.Lock()
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

    def _resume_row(self, start: int) -> int:
        """The row a move whose first changed rank is ``start`` keeps:
        ``done``, or the latest snapshot row at or before ``start``."""
        if start >= self.done:
            return self.done
        return max(row for row, _ in self.snapshots if row <= start)

    def follow(self, columns: TableColumns) -> int:
        """Move the scan onto ``columns``, the reader's; callers hold
        :attr:`lock`.

        A scan that has priced past the first changed rank rewinds to
        its latest snapshot at or before it; either way it is rebased
        onto the new columns.  No DP work happens here: the read that
        follows re-prices only to its own stop depth.

        :returns: the invalidated suffix length (rows from that rank).
        """
        if columns is self.columns:
            return 0
        start = _first_difference(self.columns, columns)
        resume = self._resume_row(start)
        if resume < self.done:
            snapshots = self.snapshots
            while snapshots[-1][0] > resume:
                snapshots.pop()
            self.restore(snapshots[-1][1])
        self.rebase(columns.probability, columns.rule_index)
        self.columns = columns
        if OBS.enabled:
            catalogued("repro_dyn_suffix_length").observe(len(columns) - start)
        return len(columns) - start

    def valid_rows(self, columns: TableColumns) -> int:
        """Priced rows the next read on ``columns`` keeps, without moving
        the scan: an estimate when another thread moves it meanwhile."""
        priced, done = self.columns, self.done
        if columns is priced:
            return done
        start = _first_difference(priced, columns)
        return done if start >= done else self._resume_row(start)


class DynamicIndex:
    """The warm ``Pr^k`` scans of one preparation and of the
    preparations it was handed on to (see module doc): ``scans`` maps
    each read ``k`` to its scan, least recently read first.

    Build with :meth:`build`; hand to a later preparation of the same
    table and shape with :meth:`apply`; read with :meth:`scan` (the
    columnar exact read), :meth:`scan_answer` or
    :meth:`topk_probabilities`, each on the reader's columns.
    Thread-safe: the store's lock guards ``scans``, and each scan's own
    lock serialises its moves and reads.
    """

    def __init__(self, version: int) -> None:
        self.scans: "OrderedDict[int, _LiveScan]" = OrderedDict()
        self._lock = threading.Lock()
        #: the newest source version the store was handed to
        self.version = version
        #: table versions the store was carried across
        self.deltas_applied = 0

    @classmethod
    def build(cls, prepared: "PreparedRanking") -> "DynamicIndex":
        """A new, empty store for ``prepared``.

        Nothing is priced yet: each ``k``'s scan starts at row 0 on its
        first read and prices only to that read's Theorem-5 stop depth,
        so a rebuild costs what a pruned cold scan costs.
        """
        return cls(prepared.source_version)

    def apply(self, prepared: "PreparedRanking") -> "DynamicIndex":
        """Hand this store to ``prepared``, a later preparation of the
        same table and shape; returns the store.

        No scan moves here: each moves on its next read
        (:meth:`_LiveScan.follow`), so a write costs no DP work and a
        ``k`` that is not read again costs nothing.
        """
        carried = max(prepared.source_version - self.version, 0)
        self.version = max(prepared.source_version, self.version)
        self.deltas_applied += carried
        if OBS.enabled:
            # The store sees versions, not operations: op="any".
            catalogued("repro_dyn_deltas_applied_total").inc(
                float(carried), op="any"
            )
        return self

    def scan(self, columns: TableColumns, k: int) -> _LiveScan:
        """The warm scan at ``k``, built on ``columns`` on first use.

        It may still be priced on other columns: readers take its
        ``lock``, move it onto theirs (:meth:`_LiveScan.follow`), read,
        and take no other lock meanwhile.  At most
        :data:`MAX_SCAN_STATES` are kept, the least recently read ``k``
        evicted first.
        """
        with self._lock:
            scan = self.scans.get(k)
            if scan is None:
                scan = self.scans[k] = _LiveScan(columns, k)
                while len(self.scans) > MAX_SCAN_STATES:
                    self.scans.popitem(last=False)
            else:
                self.scans.move_to_end(k)
            return scan

    def valid_rows(self, columns: TableColumns, k: int) -> int:
        """Rows of ``columns`` the scan at ``k`` has priced and would
        keep (0 when there is none); creates no scan and is not a
        read."""
        with self._lock:
            scan = self.scans.get(k)
        return 0 if scan is None else scan.valid_rows(columns)

    def stats(self) -> Dict[int, dict]:
        """Per-``k`` scan counters for ``/healthz`` and the registry."""
        with self._lock:
            scans = sorted(self.scans.items())
        return {
            k: {"n": scan.n, "cap": k, "version": self.version, "clean": scan.done}
            for k, scan in scans
        }

    def topk_probabilities(self, columns: TableColumns, k: int) -> np.ndarray:
        """The full ``Pr^k`` column of ``columns`` in ranking order,
        bitwise equal to a cold :func:`~repro.core.kernel
        .columnar_topk_scan` at ``k``.

        Completes ``k``'s scan; the array stays valid (and unchanged)
        after later moves.  Treat it as immutable.
        """
        scan = self.scan(columns, k)
        with scan.lock:
            scan.follow(columns)
            scan.advance(scan.n)
            return scan.out

    def scan_answer(
        self, columns: TableColumns, k: int, threshold: float
    ) -> PTKAnswer:
        """The PT-k answer on ``columns`` with Theorem-5-bounded depth.

        The kernel's read (:meth:`~repro.core.kernel.TopKScanState.read`,
        the one :class:`~repro.core.exact.ExactPTKEngine`'s columnar read
        runs) on ``k``'s scan: it reveals the ``Pr^k`` column in ranking
        order and stops as soon as the compensated running mass exceeds
        ``k - threshold`` — by Theorem 5 (``sum_t Pr^k(t) =
        E[min(k, |W|)] <= k``) no deeper tuple can reach the threshold.
        The full-scan sentinel ``threshold == 0.0`` reveals the whole
        column and answers nothing, as the exact engine does.

        :returns: a ``method="dynamic"`` answer: the ids at or above
            ``threshold`` in ranking order, ``Pr^k`` of the scanned
            prefix (bitwise the cold full-column values), the stop depth
            and the read's ``stopped_by`` (``"total-probability"`` or
            ``"exhausted"``).  ``stats.tuples_evaluated`` bills the rows
            the read priced, as the columnar engine does: a cold read
            its whole chunks, a repeat 0, a read after a write the rows
            it re-priced.
        """
        full_scan = threshold == 0.0
        scan = self.scan(columns, k)
        with scan.lock:
            scan.follow(columns)
            done = scan.done
            answers, probabilities, depth, stopped_by = scan.read(
                columns.tids, threshold, math.inf if full_scan else k - threshold
            )
            priced = scan.done - done
        answer = PTKAnswer(
            k=k,
            threshold=threshold,
            answers=[] if full_scan else answers,
            probabilities=probabilities,
            method="dynamic",
        )
        stats = answer.stats
        stats.scan_depth, stats.stopped_by, stats.tuples_evaluated = (
            depth, stopped_by, priced
        )
        return answer
