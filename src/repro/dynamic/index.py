"""The incremental PT-k index: the kernel scans, kept across writes.

A :class:`DynamicIndex` prices one table's default-shape
:class:`~repro.query.prepare.PreparedRanking` (trivial predicate, rank
by score descending) — the prepare cache's entry, which
:func:`~repro.dynamic.refresh.refresh_prepared` carries across every
write, columns included.  That preparation is the table's only ranked
state; the index adds, per served ``k``, the scan
:func:`repro.core.kernel.columnar_topk_scan` would run cold over its
``(probability, rule_index)`` columns, as a live
:class:`~repro.core.kernel.TopKScanState` that a write need not restart
at rank 1:

* the scan is priced lazily: a read advances it only as far as its
  answer needs;
* snapshots of its state (:meth:`~repro.core.kernel.TopKScanState
  .snapshot`: DP vectors and per-rule sums, no columns) are taken as it
  advances — at rows 1, 2, 4, … up to :data:`BLOCK`, then every
  ``BLOCK`` rows.

**The invariant that makes moving sound:** the scan's state at a row is
a pure function of the ``(probability, rule-slot)`` column entries
*strictly before* it, except for the size of its rule-factor tree, which
follows the table's slot count.  New columns therefore invalidate
exactly the rows from the first rank where they differ from the priced
ones.  :meth:`DynamicIndex.apply` finds that rank with one vectorised
compare, rewinds every scan that has priced past it to its latest
snapshot at or before it (:meth:`~repro.core.kernel.TopKScanState
.restore`), and rebases the scan onto the new columns
(:meth:`~repro.core.kernel.TopKScanState.rebase`, which refits the tree
when its size changes).  This holds however the new columns were made —
by a refresh, by a cold re-prepare, by recovery or by a replica's apply
— so the index needs no delta log, version chain or epoch.  No DP work
happens in :meth:`~DynamicIndex.apply`.  A PT-k read
(:meth:`~DynamicIndex.scan_answer`) runs the kernel's Theorem-5 read on
the live scan: it prices rows in ranking order and stops once the
compensated running mass exceeds ``k - threshold``, since no deeper
tuple can then reach the threshold.  A write *below* the priced rows
therefore costs one column compare and *zero* DP work at read time; a
write above them re-prices from the snapshot, at most half its rank
(``BLOCK`` rows, deeper down) above it.

**Byte-exactness contract**: :meth:`~DynamicIndex.topk_probabilities`
returns a ``Pr^k`` column bitwise equal to ``columnar_topk_scan(
probability, rule_index, k)`` on the current table — not merely close.
The index runs no scan loop of its own: every row is priced by
:meth:`~repro.core.kernel.TopKScanState.advance`.  Pausing that scan is
bitwise neutral, and a restored, rebased snapshot continues exactly as
the uninterrupted scan of the new columns would (the same DP vectors,
open-run chain and per-rule member sums; a factor tree's nodes depend
only on its leaves, so a refitted tree equals the one the cold scan
builds).  Each ``k`` has its own scan, so every ``np.convolve`` sees
operands of the very lengths the cold scan at that ``k`` would pass.
This is not pedantry: entries below ``k`` of a longer-cap convolution
are *mathematically* equal to the cap-``k`` ones but not always bitwise
equal — NumPy's correlate kernel picks different code paths (and thus
rounding / summation orders) by operand length, and the smoke harness
caught a cap-12 scan drifting 1 ulp from the cold scan at ``k=2``.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.core.kernel import TopKScanState
from repro.query.prepare import PreparedRanking

#: Snapshot stride past the first ``BLOCK`` rows (see :func:`_next_mark`):
#: a write down there re-prices at most ``BLOCK`` rows above its rank.
BLOCK = 512

#: Default registry-level cap: the largest ``k`` served incrementally
#: (a scan is built per requested ``k`` up to this bound).  Memory per
#: scan is one ``n``-float ``Pr^k`` column plus, per snapshot, two
#: ``k``-float DP vectors, the factor tree and the member probabilities
#: of the rules seen above its row; the columns are the preparation's.
DEFAULT_CAP = 64


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
    """The live ``Pr^k`` scans of one table's preparation (see module
    doc): ``scans`` maps each served ``k`` to its scan.

    Build with :meth:`build`; move onto a newer preparation with
    :meth:`apply`; read with :meth:`scan_answer` /
    :meth:`topk_probabilities`.  Instances are not thread-safe — the
    registry serialises access.
    """

    def __init__(self, prepared: PreparedRanking) -> None:
        #: the preparation whose columns the scans are priced on
        self.prepared = prepared
        self.scans: Dict[int, _LiveScan] = {}

    @classmethod
    def build(cls, prepared: PreparedRanking) -> "DynamicIndex":
        """Cold-build an index over a default-shape preparation.

        Nothing is priced yet: each ``k``'s scan starts at row 0 on its
        first read and prices only to that read's Theorem-5 stop depth,
        so a rebuild costs what a pruned cold scan costs.
        """
        prepared.columns  # columnarise once, outside the first read
        return cls(prepared)

    @property
    def tids(self) -> Tuple[Any, ...]:
        """Tuple ids in ranking order."""
        return self.prepared.tids

    def stats(self) -> Dict[int, dict]:
        """Per-``k`` scan counters for ``/healthz`` and the registry."""
        return {
            k: {
                "n": scan.n,
                "cap": k,
                "version": self.prepared.source_version,
                "clean": scan.done,
            }
            for k, scan in sorted(self.scans.items())
        }

    def apply(self, prepared: PreparedRanking) -> int:
        """Move every scan onto ``prepared``'s columns.

        The first rank where the new ``(probability, rule_index)``
        columns differ from the priced ones bounds the damage exactly
        (see the module docstring).  A scan that has priced past it
        rewinds to its latest snapshot at or before it; either way the
        scan is rebased onto the new columns.  No DP work happens here:
        the next read re-prices only to its own stop depth.

        :returns: the invalidated suffix length (rows from that rank).
        """
        old, new = self.prepared.columns, prepared.columns
        m = min(len(old), len(new))
        differs = np.flatnonzero(
            (old.probability[:m] != new.probability[:m])
            | (old.rule_index[:m] != new.rule_index[:m])
        )
        start = int(differs[0]) if differs.size else m
        for scan in self.scans.values():
            if start < scan.done:
                snapshots = scan.snapshots
                while snapshots[-1][0] > start:
                    snapshots.pop()
                scan.restore(snapshots[-1][1])
            scan.rebase(new.probability, new.rule_index)
        self.prepared = prepared
        return len(new) - start

    def _scan(self, k: int) -> _LiveScan:
        scan = self.scans.get(k)
        if scan is None:
            columns = self.prepared.columns
            scan = self.scans[k] = _LiveScan(
                columns.probability, columns.rule_index, k
            )
        return scan

    def topk_probabilities(self, k: int) -> np.ndarray:
        """The full ``Pr^k`` column in ranking order, bitwise equal to a
        cold :func:`~repro.core.kernel.columnar_topk_scan` at ``k``.

        Completes ``k``'s scan; the array stays valid (and unchanged)
        after later writes.  Treat it as immutable.
        """
        scan = self._scan(k)
        scan.advance(scan.n)
        return scan.out

    def scan_answer(
        self, k: int, threshold: float
    ) -> Tuple[List[Any], Dict[Any, float], int]:
        """The PT-k answer with Theorem-5-bounded depth.

        The kernel's read (:meth:`~repro.core.kernel.TopKScanState.read`,
        the one :class:`~repro.core.exact.ExactPTKEngine`'s columnar read
        runs) on ``k``'s scan: it reveals the ``Pr^k`` column in ranking
        order and stops as soon as the compensated running mass exceeds
        ``k - threshold`` — by Theorem 5 (``sum_t Pr^k(t) =
        E[min(k, |W|)] <= k``) no deeper tuple can reach the threshold.
        Rows already priced are not priced again, so a write *below*
        the stop depth costs no DP work at all here.  The full-scan
        sentinel ``threshold == 0.0`` reveals the whole column and
        answers nothing, as the exact engine does.

        :returns: ``(answer tids in ranking order, tid -> Pr^k for the
            scanned prefix, stop depth)``.  The scanned values are
            bitwise the cold full-column values; the answer set equals
            the full column's threshold set.
        """
        full_scan = threshold == 0.0
        answers, probabilities, depth, _ = self._scan(k).read(
            self.prepared.tids,
            threshold,
            math.inf if full_scan else k - threshold,
        )
        return ([] if full_scan else answers), probabilities, depth
