"""Cost-based batch scheduling: cheapest-first exact dispatch.

The coalescer hands ``_run_batch`` a micro-batch.  Running its exact
work in arrival order, with deadlines checked once at batch start,
would let a request whose deadline expired *while earlier items ran*
still burn a full exact scan.  :class:`CostScheduler`, the serving
layer's one policy, closes that hole with the litmus discipline (sort
by cost, propagate timeouts to costlier queries, re-execute
interrupted work incrementally):

1. **Order.**  After the planner prices every item
   (:class:`~repro.query.planner.LatencyEstimate`), exact work runs
   cheapest-first by ``exact_seconds``.  Cheap, tight-deadline queries
   no longer queue behind one expensive scan; under a convex cost
   distribution this is the SJF ordering that minimises mean wait.
2. **Re-decide.**  Immediately before each item executes, its
   *remaining* deadline is re-read against the clock and the item's
   own estimate.  An item that can no longer fit degrades to the
   sampler (with a
   :meth:`~repro.core.sampling.SamplingConfig.for_deadline` budget)
   *before* the exact scan starts — counted by
   ``repro_serve_degraded_preexec_total`` — and an item whose deadline
   already passed fails fast (``repro_serve_deadline_expired_total``,
   stage ``pre-exec``).
3. **Budget.**  Exact scans run under a wall-clock budget
   (:func:`~repro.core.exact.exact_ptk_query` ``deadline_seconds``), so
   a mispriced scan is cut off at its deadline instead of blowing it:
   the client gets a partial answer and the server keeps a
   :class:`~repro.core.exact.ScanCheckpoint` to resume on retry.

Decisions are plain strings so the serving layer can stamp them
verbatim into flight-recorder profiles and response ``scheduler``
blocks: ``"run"``, ``"degrade"``, or ``"expired"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.query.planner import LatencyEstimate


@dataclass(frozen=True)
class ExactTask:
    """One batch item planned for the exact engine, awaiting dispatch.

    :param position: index of the item in the original batch (arrival
        order; responses are keyed by it).
    :param estimate: the planner's latency estimate for the item.
    """

    position: int
    estimate: LatencyEstimate


class CostScheduler:
    """Cheapest-first dispatch with pre-execution deadline re-checks.

    Ordering is by the planner's ``exact_seconds`` (ties broken by
    arrival order, so equal-cost items keep FIFO fairness).  Before an
    item runs, :meth:`decide` re-prices it against the time actually
    left; :meth:`budget` clips the exact scan itself so even a
    mispredicted run cannot execute past its deadline.
    """

    name = "cost"

    def order(self, tasks: Sequence[ExactTask]) -> List[ExactTask]:
        """Cheapest predicted exact scan first; arrival order on ties."""
        return sorted(
            tasks, key=lambda t: (t.estimate.exact_seconds, t.position)
        )

    def decide(
        self, remaining: Optional[float], estimated_seconds: float,
        safety: float, can_degrade: bool = True,
    ) -> str:
        """Re-check one item against its remaining deadline.

        :param remaining: seconds until the item's deadline (``None``
            when it has no deadline).
        :param estimated_seconds: predicted cost of the work left for
            this item — the full scan, or the remainder after a
            checkpoint.
        :param safety: fraction of the remaining deadline the estimate
            must fit within (``ServeConfig.deadline_safety``).
        :param can_degrade: False for forced-``exact`` requests, whose
            contract forbids silently answering with the sampler; they
            run budgeted instead (a miss yields a partial answer, not a
            mode switch).
        :returns: ``"run"``, ``"degrade"``, or ``"expired"``.
        """
        if remaining is None:
            return "run"
        if remaining <= 0:
            return "expired"
        if can_degrade and estimated_seconds > remaining * safety:
            return "degrade"
        return "run"

    def budget(
        self, remaining: Optional[float], safety: float
    ) -> Optional[float]:
        """Wall-clock budget for an exact scan about to run.

        The same safety fraction used for the degrade decision: the
        slack absorbs estimation error and response serialisation, and
        guarantees the scan is cut off *before* the deadline itself.
        """
        if remaining is None:
            return None
        return max(remaining, 0.0) * safety

