"""Query planning: predicting PT-k scan depth from table statistics.

Figure 7's headline — scan depth depends on k, not on the table size —
has a quantitative core: the tail stop bound fires at the first prefix
whose membership-probability mass ``M_i = Σ_{j<=i} Pr(t_j)`` makes
``Pr(N <= k)`` fall below the threshold, where ``N`` is the
Poisson-binomial count of the prefix.  By the normal approximation this
happens near

.. math::

    M_D \\approx k + z_p \\sqrt{k}

(with ``z_p`` the threshold's normal quantile and variance bounded by
the mean), so the expected depth is roughly ``(k + z_p sqrt(k)) / μ``
for mean membership probability ``μ``.

:func:`estimate_scan_depth` implements both the cheap closed form and a
more careful per-prefix walk over the actual probabilities (still
O(depth), no DP); the accuracy of each against the measured depth is a
test and a benchmark.  A cost-based optimizer would use this to decide
between the exact algorithm and the sampler — :func:`choose_method`
encodes that heuristic, mirroring the paper's observation that each has
its edge (exact for small k, sampling for large k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.model.statistics import TableStatistics, collect_statistics
from repro.model.table import UncertainTable
from repro.exceptions import QueryError
from repro.stats.intervals import standard_normal_quantile


@dataclass(frozen=True)
class ScanDepthEstimate:
    """Predicted retrieval cost of a PT-k query.

    :param depth: predicted number of tuples retrieved.
    :param fraction: predicted fraction of ``P(T)`` retrieved.
    :param mass_target: the prefix probability mass at which the tail
        bound is expected to fire (``~ k + z sqrt(k)``).
    """

    depth: int
    fraction: float
    mass_target: float


def _mass_target(k: int, threshold: float) -> float:
    """Prefix mass at which ``Pr(N <= k)`` drops below the threshold."""
    # Pr(N <= k) ~ Phi((k - M)/sqrt(V)) with V <= M, so the bound fires
    # near M ~ k + z * sqrt(k) where z = Phi^{-1}(1 - p).  The quantile
    # must stay *signed*: for p > 0.5 it is negative and the tail bound
    # fires before the prefix mass reaches k — high thresholds prune
    # earlier, not later.
    p = min(max(threshold, 1e-12), 1.0 - 1e-12)
    z = standard_normal_quantile(1.0 - p)
    return k + z * math.sqrt(max(k, 1))


def estimate_scan_depth(
    table: UncertainTable,
    k: int,
    threshold: float,
    statistics: Optional[TableStatistics] = None,
) -> ScanDepthEstimate:
    """Closed-form scan-depth prediction from summary statistics.

    Uses only the mean membership probability (catalog information) —
    deliberately *not* the ranked list — so it is a planning-time
    estimate.
    """
    if k <= 0:
        raise QueryError(f"k must be positive, got {k}")
    if not (0.0 < threshold <= 1.0):
        raise QueryError(
            f"probability threshold must be in (0, 1], got {threshold!r}"
        )
    statistics = statistics or collect_statistics(table)
    n = statistics.n_tuples
    if n == 0:
        return ScanDepthEstimate(depth=0, fraction=0.0, mass_target=0.0)
    target = _mass_target(k, threshold)
    mean = max(statistics.mean_probability, 1e-9)
    # At extreme thresholds the target can drop to (or below) zero — the
    # scan still retrieves at least one tuple before any bound can fire.
    depth = min(n, max(1, int(math.ceil(target / mean))))
    return ScanDepthEstimate(
        depth=depth, fraction=depth / n, mass_target=target
    )


def estimate_scan_depth_exactish(
    table: UncertainTable,
    k: int,
    threshold: float,
) -> ScanDepthEstimate:
    """Per-prefix refinement: walk the actual ranked probabilities.

    Still O(depth) and DP-free: accumulates the true prefix mass and
    stops at the first prefix reaching the mass target.  More accurate
    than the closed form when membership probabilities correlate with
    rank (as in the iceberg data).
    """
    if k <= 0:
        raise QueryError(f"k must be positive, got {k}")
    if not (0.0 < threshold <= 1.0):
        raise QueryError(
            f"probability threshold must be in (0, 1], got {threshold!r}"
        )
    ranked = table.ranked_tuples()
    n = len(ranked)
    if n == 0:
        return ScanDepthEstimate(depth=0, fraction=0.0, mass_target=0.0)
    target = _mass_target(k, threshold)
    mass = 0.0
    for depth, tup in enumerate(ranked, start=1):
        mass += tup.probability
        if mass >= target:
            return ScanDepthEstimate(
                depth=depth, fraction=depth / n, mass_target=target
            )
    return ScanDepthEstimate(depth=n, fraction=1.0, mass_target=target)


@dataclass(frozen=True)
class LatencyEstimate:
    """Planning-time wall-clock prediction for one PT-k query.

    :param depth: predicted exact-scan depth (see
        :class:`ScanDepthEstimate`).
    :param exact_seconds: predicted exact-algorithm latency.
    :param sampled_seconds_per_unit: predicted cost of one sample unit
        (used to size a budget from a deadline).
    :param expected_unit_length: predicted tuples scanned per lazy
        sample unit (``~ k / mean membership probability``).
    """

    depth: int
    exact_seconds: float
    sampled_seconds_per_unit: float
    expected_unit_length: float


class LatencyModel:
    """Maps the planner's cost units to wall-clock seconds.

    The paper's cost measure for the exact algorithm is the number of
    O(k) subset-probability DP extensions — quadratic in the scan depth
    in the worst case — and for the sampler it is ``budget * sample
    length``.  This model carries the two machine-dependent coefficients
    that turn those unit counts into seconds, plus a fixed per-query
    floor (dispatch, selection bookkeeping).

    The defaults are deliberately conservative (a slowish core); callers
    serving real traffic should let the model *calibrate itself* by
    feeding measured latencies back via :meth:`observe_exact` /
    :meth:`observe_sampled` — both update the coefficient with an
    exponentially weighted moving average, so the model tracks the
    hardware it actually runs on within a few dozen queries.

    Thread safety: updates are single numeric-slot writes guarded by the
    GIL; a torn read is impossible and a lost update merely slows
    convergence, so no lock is taken on the hot path.
    """

    #: EWMA weight of each new observation.
    alpha = 0.2

    def __init__(
        self,
        seconds_per_cell: float = 2e-7,
        seconds_per_sampled_tuple: float = 1e-7,
        floor_seconds: float = 2e-4,
    ) -> None:
        self.seconds_per_cell = seconds_per_cell
        self.seconds_per_sampled_tuple = seconds_per_sampled_tuple
        self.floor_seconds = floor_seconds

    # -------------------------------------------------------- prediction
    def predict_exact_seconds(self, depth: int) -> float:
        """Predicted exact latency from a scan-depth estimate."""
        cells = float(max(depth, 1)) ** 2
        return self.floor_seconds + self.seconds_per_cell * cells

    def predict_resume_seconds(
        self, done_depth: int, target_depth: int
    ) -> float:
        """Predicted *remaining* latency of an exact read whose warm
        scan already priced ``done_depth`` rows.

        Those rows have paid for the ``done_depth^2`` DP-cell prefix;
        reading to ``target_depth`` costs only the difference of
        squares.  The serving layer's scheduler prices a read on a warm
        scan with this instead of the full ``predict_exact_seconds``, so
        rows a cut or earlier read priced are not paid for again.
        """
        done = float(max(done_depth, 0)) ** 2
        target = float(max(target_depth, 1)) ** 2
        return self.floor_seconds + self.seconds_per_cell * max(
            target - done, 0.0
        )

    def predict_sampled_seconds(
        self, budget: int, unit_length: float
    ) -> float:
        """Predicted sampler latency for a unit budget."""
        return self.floor_seconds + (
            self.seconds_per_sampled_tuple * max(unit_length, 1.0) * budget
        )

    def unit_budget_for(self, seconds: float, unit_length: float) -> int:
        """Largest unit budget predicted to finish within ``seconds``.

        Returns 0 when even the floor cost does not fit — the caller
        must reject rather than degrade.
        """
        available = seconds - self.floor_seconds
        if available <= 0:
            return 0
        per_unit = self.seconds_per_sampled_tuple * max(unit_length, 1.0)
        return int(available / max(per_unit, 1e-12))

    def coefficients(self) -> dict:
        """The current (possibly EWMA-calibrated) cost coefficients.

        Exposed by the serving layer's ``/debug/calibration`` endpoint so
        operators can see what the model has converged to.
        """
        return {
            "seconds_per_cell": self.seconds_per_cell,
            "seconds_per_sampled_tuple": self.seconds_per_sampled_tuple,
            "floor_seconds": self.floor_seconds,
            "alpha": self.alpha,
        }

    # ------------------------------------------------------- calibration
    def observe_exact(self, depth: int, seconds: float) -> None:
        """Fold one measured exact query into the cost coefficient."""
        cells = float(max(depth, 1)) ** 2
        measured = max(seconds - self.floor_seconds, 0.0) / cells
        if measured > 0.0:
            self.seconds_per_cell += self.alpha * (
                measured - self.seconds_per_cell
            )

    def observe_sampled(
        self, units: int, unit_length: float, seconds: float
    ) -> None:
        """Fold one measured sampling run into the cost coefficient."""
        scanned = max(units, 1) * max(unit_length, 1.0)
        measured = max(seconds - self.floor_seconds, 0.0) / scanned
        if measured > 0.0:
            self.seconds_per_sampled_tuple += self.alpha * (
                measured - self.seconds_per_sampled_tuple
            )


def estimate_latency(
    table: UncertainTable,
    k: int,
    threshold: float,
    model: Optional[LatencyModel] = None,
    statistics: Optional[TableStatistics] = None,
) -> LatencyEstimate:
    """Depth -> latency prediction used by the serving layer.

    Combines :func:`estimate_scan_depth` with a :class:`LatencyModel`:
    the exact path costs ``~ depth^2`` DP-cell touches, a sample unit
    costs ``~ k / mu`` scanned tuples (the lazy generation length of
    Section 5).  ``repro.serve`` compares ``exact_seconds`` against a
    request's remaining deadline to decide whether to degrade to the
    sampler, and sizes the sampler's budget from
    ``sampled_seconds_per_unit``.
    """
    model = model or LatencyModel()
    statistics = statistics or collect_statistics(table)
    estimate = estimate_scan_depth(table, k, threshold, statistics=statistics)
    mean = max(statistics.mean_probability, 1e-9)
    unit_length = min(float(max(statistics.n_tuples, 1)), k / mean)
    return LatencyEstimate(
        depth=estimate.depth,
        exact_seconds=model.predict_exact_seconds(estimate.depth),
        sampled_seconds_per_unit=(
            model.seconds_per_sampled_tuple * max(unit_length, 1.0)
        ),
        expected_unit_length=unit_length,
    )


def choose_method(
    table: UncertainTable,
    k: int,
    threshold: float,
    sample_budget: int = 1107,
    statistics: Optional[TableStatistics] = None,
) -> str:
    """Heuristic exact-vs-sampling choice (the paper's "each has its edge").

    Exact cost grows superlinearly in the scan depth (depth * average
    dominant-set work); sampling cost is ``budget * expected sample
    length`` with sample length ~ depth.  The crossover therefore sits
    where depth exceeds roughly the sample budget; below it the exact
    algorithm's single deep scan is cheaper than a thousand shallow ones.

    :returns: ``"exact"`` or ``"sampling"``.
    """
    estimate = estimate_scan_depth(table, k, threshold, statistics=statistics)
    # exact work ~ depth^2 DP-unit touches; sampling ~ budget * depth
    exact_cost = float(estimate.depth) ** 2
    sampling_cost = float(sample_budget) * max(estimate.depth, 1)
    return "exact" if exact_cost <= sampling_cost else "sampling"


def depth_curve(
    table: UncertainTable,
    ks: List[int],
    threshold: float,
) -> List[ScanDepthEstimate]:
    """Estimates across several k values (planning diagnostics)."""
    statistics = collect_statistics(table)
    return [
        estimate_scan_depth(table, k, threshold, statistics=statistics)
        for k in ks
    ]
