"""The sampling-based PT-k method (Section 5).

For each tuple ``t`` let ``X_t`` indicate "``t`` is in the top-k of the
possible world"; then ``Pr^k(t) = E[X_t]``.  The sampler draws possible
worlds i.i.d. from the table's distribution and averages the indicators.

Two practical improvements from the paper are implemented:

* **Lazy unit generation.**  A sample unit is conceptually generated by
  scanning the *ranked* list and flipping each tuple's membership coin in
  order; generation stops as soon as ``k`` tuples have been included,
  because later tuples cannot enter the unit's top-k.  The expected
  number of tuples scanned is about ``k / mu`` for mean membership
  probability ``mu`` — the "sample length" series of Figure 4.  (The
  implementation draws all coins vectorised and then *measures* where
  the lazy scan would have stopped; the distribution of units and of the
  reported sample length is identical to the sequential process.)
* **Progressive stopping.**  Rather than always drawing the worst-case
  Chernoff–Hoeffding sample size (Theorem 6), estimates are checkpointed
  every ``d`` units and sampling stops once no tuple's estimate moved by
  more than ``phi`` since the previous checkpoint.

Rule handling: each multi-tuple rule's outcome is drawn once per unit —
member ``t`` with probability ``Pr(t)``, no member with ``1 - Pr(R)`` —
exactly the generative model of Section 5, which keeps units unbiased
despite the early stop.

**Batched generation.**  Units are drawn in NumPy batches
(:meth:`WorldSampler.sample_batch`): per batch, one uniform per rule,
then membership-coin columns chunk by chunk down the ranking — and
column drawing stops as soon as every unit in the batch has its ``k``
inclusions, the batched form of lazy unit generation (positions further
down the ranking cannot enter any top-k).  Batches are aligned to the
progressive ``(d, phi)`` checkpoint interval, so convergence can only
fire at checkpoint boundaries — exactly as in the sequential
formulation.  Every membership decision uses a fresh i.i.d. uniform, so
estimates are unbiased and **deterministic for a fixed seed and batch
size**; they are statistically equivalent to — but not coin-for-coin
identical with — the per-unit reference path
(:meth:`WorldSampler.sample_unit`), which must draw every coin of every
unit.  Skipping those never-inspected coins is where the batch path's
wall-clock advantage comes from.

**One draw loop, any number of workers.**  :func:`_draw` is the only
loop over :meth:`WorldSampler.sample_batch`.  One worker runs it inline
and applies the ``(d, phi)`` rule at each checkpoint; ``n`` workers run
it once per shard — budgets split by :func:`shard_budgets`, streams
from ``SeedSequence(seed).spawn(n)`` — keeping cumulative snapshots,
and the parent replays the same rule over the merged snapshots and
truncates to its stopping point.  Shards still draw their full budget
(one round trip, no mid-flight coordination).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.kernel import TableColumns
from repro.core.results import AlgorithmStats, PTKAnswer
from repro.exceptions import QueryError, SamplingError
from repro.model.table import UncertainTable
from repro.obs import OBS, catalogued, span as obs_span
from repro.parallel.pool import resolve_workers, shard_map
from repro.query.prepare import PrepareCache, PreparedRanking, resolve_prepared
from repro.query.topk import TopKQuery
from repro.stats.bounds import chernoff_hoeffding_sample_size
from repro.stats.intervals import wilson_interval

#: Batch size used by non-progressive runs when the config does not pin
#: one; progressive runs default to the checkpoint interval ``d``.
DEFAULT_BATCH_SIZE = 1024


@dataclass
class SamplingConfig:
    """Configuration of the Monte-Carlo PT-k estimator.

    :param sample_size: fixed number of sample units; when ``None`` it is
        derived from ``epsilon`` / ``delta`` via Theorem 6.
    :param epsilon: relative-error target of the Chernoff–Hoeffding bound.
    :param delta: failure-probability target of the bound.
    :param progressive: enable the ``(d, phi)`` early-stopping rule.
    :param check_interval: ``d`` — units between convergence checkpoints.
    :param tolerance: ``phi`` — maximum estimate change considered
        converged.
    :param min_samples: never stop before this many units (protects the
        progressive rule from declaring convergence on noise).
    :param lazy: stop generating a unit after ``k`` inclusions (the
        Section-5 optimisation; affects the reported sample length, not
        the estimates).
    :param seed: seed for the internal PRNG; pass a
        ``numpy.random.Generator`` to :func:`sampled_ptk_query` to
        override entirely.
    :param batch_size: units drawn per vectorised batch.  ``None``
        derives it: the checkpoint interval ``d`` for progressive runs
        (so convergence checks stay on checkpoint boundaries), else
        :data:`DEFAULT_BATCH_SIZE`.  Estimates are deterministic for a
        fixed ``(seed, batch_size)`` pair and statistically equivalent
        across batch sizes; the knob trades peak memory (the per-chunk
        coin matrix) against Python-loop overhead.
    :param n_workers: worker processes the unit budget is sharded
        across.  ``1`` (the default) runs the draw loop inline; ``> 1``
        deals one shard per worker and merges them (deterministic for a
        fixed ``(seed, batch_size, n_workers)`` triple, but a different
        unit stream than ``n_workers=1``); ``0`` or ``None`` means one
        worker per available CPU.
    """

    sample_size: Optional[int] = None
    epsilon: float = 0.1
    delta: float = 0.05
    progressive: bool = True
    check_interval: int = 100
    tolerance: float = 0.005
    min_samples: int = 500
    lazy: bool = True
    seed: Optional[int] = None
    batch_size: Optional[int] = None
    n_workers: Optional[int] = 1

    def resolved_sample_size(self) -> int:
        """The unit budget: explicit size or the Theorem-6 bound."""
        if self.sample_size is not None:
            if self.sample_size <= 0:
                raise SamplingError(
                    f"sample_size must be positive, got {self.sample_size}"
                )
            return self.sample_size
        return chernoff_hoeffding_sample_size(self.epsilon, self.delta)

    @classmethod
    def for_deadline(
        cls,
        seconds: float,
        unit_length: float,
        seconds_per_unit: float,
        min_units: int = 100,
        max_units: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> "SamplingConfig":
        """A config whose unit budget is sized to fit a time budget.

        The serving layer's degradation path: when the planner predicts
        the exact scan cannot meet a request's deadline, the request is
        answered by the sampler with however many units the *remaining*
        deadline affords (``seconds / seconds_per_unit``), clamped to
        ``[min_units, max_units]``.  Progressive ``(d, phi)`` stopping
        stays on, so converged estimates may finish even earlier; the
        floor keeps the estimate from degenerating when the deadline is
        nearly exhausted.

        :param seconds: remaining wall-clock budget.
        :param unit_length: expected tuples scanned per lazy unit
            (``LatencyEstimate.expected_unit_length``).
        :param seconds_per_unit: predicted cost of one unit
            (``LatencyEstimate.sampled_seconds_per_unit``).
        :param max_units: optional hard cap; defaults to the Theorem-6
            budget of the default ``(epsilon, delta)`` — more units than
            the worst-case bound buys nothing.
        """
        if seconds_per_unit <= 0:
            raise SamplingError(
                f"seconds_per_unit must be positive, got {seconds_per_unit!r}"
            )
        if min_units <= 0:
            raise SamplingError(
                f"min_units must be positive, got {min_units}"
            )
        affordable = int(max(seconds, 0.0) / seconds_per_unit)
        cap = (
            max_units
            if max_units is not None
            else chernoff_hoeffding_sample_size(
                cls.epsilon, cls.delta
            )
        )
        budget = max(min_units, min(affordable, max(cap, min_units)))
        # Checkpoints every ~5% of the budget: fine-grained enough for
        # the progressive rule to save real time, coarse enough that the
        # batched kernel still amortises its per-batch overhead.
        interval = max(50, budget // 20)
        return cls(
            sample_size=budget,
            progressive=True,
            check_interval=interval,
            min_samples=min(min_units, budget),
            seed=seed,
        )

    def resolved_batch_size(self) -> int:
        """Units per vectorised batch (see ``batch_size``)."""
        if self.batch_size is not None:
            if self.batch_size <= 0:
                raise SamplingError(
                    f"batch_size must be positive, got {self.batch_size}"
                )
            return self.batch_size
        if self.progressive:
            return max(1, self.check_interval)
        return DEFAULT_BATCH_SIZE


@dataclass
class SamplingResult:
    """Estimates plus sampler-specific instrumentation.

    :param estimates: tuple id -> estimated ``Pr^k`` (tuples never seen
        in any top-k have estimate 0 and are omitted).
    :param units_drawn: number of sample units actually generated.
    :param budget: the unit budget (Theorem 6 bound or explicit size).
    :param converged_early: True when the progressive rule stopped the
        sampler before the budget.
    :param total_scanned: total tuples scanned across all units (under
        the lazy early-stop rule).
    """

    estimates: Dict[Any, float] = field(default_factory=dict)
    units_drawn: int = 0
    budget: int = 0
    converged_early: bool = False
    total_scanned: int = 0

    @property
    def average_sample_length(self) -> float:
        """Mean number of tuples scanned per unit (Figure 4 series)."""
        if self.units_drawn == 0:
            return 0.0
        return self.total_scanned / self.units_drawn

    def estimate_of(self, tid: Any) -> float:
        """Estimated ``Pr^k`` of a tuple (0 when never in a top-k)."""
        return self.estimates.get(tid, 0.0)

    def interval_of(
        self, tid: Any, confidence: float = 0.95
    ) -> Tuple[float, float]:
        """Wilson confidence interval for one tuple's ``Pr^k``."""
        from repro.stats.intervals import wilson_interval

        return wilson_interval(
            self.estimate_of(tid) * self.units_drawn,
            max(self.units_drawn, 1),
            confidence=confidence,
        )

    def classify(self, threshold: float, confidence: float = 0.95):
        """Three-way verdicts against a PT-k threshold.

        See :func:`repro.stats.intervals.classify_against_threshold`;
        tuples never seen in any sampled top-k are absent (treat them as
        surely-out, or pass them via that function's ``population``).
        """
        from repro.stats.intervals import classify_against_threshold

        return classify_against_threshold(
            self.estimates,
            max(self.units_drawn, 1),
            threshold,
            confidence=confidence,
        )


class WorldSampler:
    """Draws top-k lists of sampled possible worlds from ranked columns.

    All randomness for one unit is drawn in two vectorised blocks (one
    coin per position for independent tuples, one per rule); the lazy
    early-stop of Section 5 is accounted for by reporting the position
    of the k-th inclusion as the unit's scan length.

    :param columns: the ranked tuples as kernel columns (a preparation's
        :attr:`~repro.query.prepare.PreparedRanking.columns`); rule
        ``s`` of the sampler is rule slot ``s`` of ``rule_index``.
    :param k: how many inclusions complete a unit.
    :param lazy: report early-stopped scan lengths (estimates are
        unaffected).
    """

    def __init__(
        self, columns: TableColumns, k: int, lazy: bool = True
    ) -> None:
        if k <= 0:
            raise QueryError(f"k must be positive, got {k}")
        self.k = k
        self.lazy = lazy
        self._ids = columns.tids
        n = len(columns)
        self._n = n
        self._probabilities = columns.probability
        rule_index = columns.rule_index

        # Independent positions: one membership coin each.
        self._independent_mask = rule_index < 0

        # Rules, flattened: member positions grouped per rule slot, in
        # ranking order within each rule, with within-rule cumulative
        # probabilities; one uniform per rule selects the member whose
        # interval ``[previous cumulative, cumulative)`` contains it (or
        # no member, with mass 1 - Pr(R)).
        self._n_rules = len(columns.rule_ids)
        self._member_positions = np.flatnonzero(~self._independent_mask)
        slots = rule_index[self._member_positions]
        order = np.argsort(slots, kind="stable")
        self._flat_positions = self._member_positions[order]
        self._flat_rule = slots[order]
        running = np.cumsum(self._probabilities[self._flat_positions])
        first = np.ones(len(order), dtype=bool)
        first[1:] = self._flat_rule[1:] != self._flat_rule[:-1]
        starts = np.flatnonzero(first)
        # Each member less the running sum before its rule's first one.
        self._flat_cumulative = running - np.repeat(
            np.concatenate(([0.0], running))[starts],
            np.diff(np.append(starts, len(order))),
        )
        previous = np.zeros_like(self._flat_cumulative)
        previous[1:] = self._flat_cumulative[:-1]
        previous[first] = 0.0
        # Per-column lookup for the batched kernel: the member at ranked
        # position ``p`` appears iff its rule's uniform lands in the
        # member's interval — the same event as being the first hit of
        # the suffix test in :meth:`sample_inclusion_mask`.
        self._col_rule = np.zeros(n, dtype=np.int64)
        self._col_cum = np.zeros(n, dtype=np.float64)
        self._col_prev = np.zeros(n, dtype=np.float64)
        self._col_rule[self._flat_positions] = self._flat_rule
        self._col_cum[self._flat_positions] = self._flat_cumulative
        self._col_prev[self._flat_positions] = previous

    @property
    def tuple_ids(self) -> Tuple[Any, ...]:
        """Tuple ids in ranking order (position ``i`` -> id)."""
        return self._ids

    def sample_inclusion_mask(self, rng: np.random.Generator) -> np.ndarray:
        """Boolean mask over ranked positions: which tuples appear."""
        include = np.zeros(self._n, dtype=bool)
        coins = rng.random(self._n)
        ind = self._independent_mask
        include[ind] = coins[ind] < self._probabilities[ind]
        if self._n_rules:
            rule_coins = rng.random(self._n_rules)
            # A member is "hit" when the rule's coin falls below its
            # within-rule cumulative probability; the *first* hit member
            # of each rule is the one that appears.
            hits = rule_coins[self._flat_rule] < self._flat_cumulative
            if hits.any():
                hit_rules, first_index = np.unique(
                    self._flat_rule[hits], return_index=True
                )
                chosen_positions = self._flat_positions[hits][first_index]
                include[chosen_positions] = True
        return include

    def sample_unit(self, rng: np.random.Generator) -> Tuple[List[Any], int]:
        """One sample unit: the top-k tuple ids and the lazy scan length.

        :returns: ``(top_k_ids, scanned)`` — ids in ranking order (may be
            shorter than k for sparse worlds); ``scanned`` is where the
            sequential lazy generator would have stopped.
        """
        include = self.sample_inclusion_mask(rng)
        present = np.flatnonzero(include)
        top = present[: self.k]
        if self.lazy and len(present) >= self.k:
            scanned = int(present[self.k - 1]) + 1
        else:
            scanned = self._n
        return [self._ids[i] for i in top], scanned

    def sample_batch(
        self, rng: np.random.Generator, batch_size: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``batch_size`` units in one vectorised pass.

        The batched form of lazy generation: one uniform per rule up
        front, then membership-coin columns are drawn chunk by chunk
        down the ranking, and drawing stops as soon as every unit in
        the batch has its ``k`` inclusions — later positions cannot
        enter any top-k.  Every decision uses a fresh i.i.d. uniform,
        so the counts are unbiased and deterministic for a fixed seed
        and batch size; the stream is *not* consumed in
        :meth:`sample_unit` order — never materialising the coins the
        lazy scan would skip is where the speedup comes from.

        :returns: ``(counts, scanned)`` — ``counts[i]`` is the number of
            units whose top-k contains the tuple at ranked position
            ``i``; ``scanned[j]`` is unit ``j``'s lazy scan length.
        """
        if batch_size <= 0:
            raise SamplingError(
                f"batch_size must be positive, got {batch_size}"
            )
        n = self._n
        if n == 0:
            return (
                np.zeros(0, dtype=np.int64),
                np.zeros(batch_size, dtype=np.int64),
            )
        rule_coins = (
            rng.random((batch_size, self._n_rules)) if self._n_rules else None
        )
        counts = np.zeros(n, dtype=np.int64)
        filled = np.zeros(batch_size, dtype=np.int64)
        scanned = np.full(batch_size, n, dtype=np.int64)
        members = self._member_positions
        chunk = max(256, 2 * self.k)
        start = 0
        while start < n:
            stop = min(n, start + chunk)
            coins = rng.random((batch_size, stop - start))
            sub = coins < self._probabilities[start:stop]
            sub &= self._independent_mask[start:stop]
            if rule_coins is not None:
                lo, hi = np.searchsorted(members, (start, stop))
                cols = members[lo:hi]
                if cols.size:
                    rc = rule_coins[:, self._col_rule[cols]]
                    sub[:, cols - start] = (rc >= self._col_prev[cols]) & (
                        rc < self._col_cum[cols]
                    )
            cumulative = np.cumsum(sub, axis=1)
            cumulative += filled[:, None]
            counts[start:stop] += np.count_nonzero(
                sub & (cumulative <= self.k), axis=0
            )
            reached_now = (cumulative[:, -1] >= self.k) & (filled < self.k)
            if reached_now.any():
                # argmax finds the first position whose running count
                # reaches k — the position of the k-th inclusion.
                kth = np.argmax(cumulative[reached_now] >= self.k, axis=1)
                scanned[reached_now] = start + kth + 1
            filled = cumulative[:, -1]
            start = stop
            if int(filled.min()) >= self.k:
                break
            chunk *= 2
        if not self.lazy:
            scanned = np.full(batch_size, n, dtype=np.int64)
        return counts, scanned


#: Upper bound on snapshots recorded per shard: bounds the count matrix
#: shipped back to the parent (``snapshots * n_ranked * 8`` bytes).  Huge
#: budgets coarsen the merged checkpoint cadence instead of growing it.
MAX_SNAPSHOTS_PER_SHARD = 256


def shard_budgets(budget: int, n_workers: int) -> List[int]:
    """Split a unit budget into per-shard budgets, largest first.

    Every shard receives ``budget // n_workers`` units and the remainder
    is spread one unit each over the first shards; shards that would
    receive zero units are dropped (``budget < n_workers``).
    """
    if budget <= 0:
        raise SamplingError(f"budget must be positive, got {budget}")
    if n_workers <= 0:
        raise SamplingError(f"n_workers must be positive, got {n_workers}")
    base, remainder = divmod(budget, n_workers)
    budgets = [base + (1 if i < remainder else 0) for i in range(n_workers)]
    return [b for b in budgets if b > 0]


@dataclass
class _Rule:
    """The progressive ``(d, phi)`` rule, fed cumulative checkpoints in
    order: a one-worker run's online ones or a sharded run's merged
    snapshots."""

    min_samples: int
    tolerance: float
    previous: Optional[np.ndarray] = None

    def stops(self, units: int, counts: np.ndarray) -> bool:
        """True when no estimate moved by more than ``tolerance`` since
        the previous checkpoint at or past ``min_samples`` units."""
        if units < self.min_samples:
            return False
        estimates = counts / units
        if (
            self.previous is not None
            and self.previous.any()
            and np.all(np.abs(estimates - self.previous) <= self.tolerance)
        ):
            return True
        self.previous = estimates
        return False


@dataclass
class _Draw:
    """Cumulative state of one draw loop: a whole run or one shard.

    ``snapshots`` holds ``(units, counts, total_scanned)`` at every
    checkpoint short of the budget when no rule is applied online;
    ``lengths`` holds each batch's unit scan lengths when obs is on.
    """

    counts: np.ndarray
    units: int = 0
    total_scanned: int = 0
    batches: int = 0
    converged: bool = False
    seconds: float = 0.0
    snapshots: List[Tuple[int, np.ndarray, int]] = field(default_factory=list)
    lengths: List[np.ndarray] = field(default_factory=list)


def _draw(
    sampler: WorldSampler,
    rng: np.random.Generator,
    budget: int,
    batch_size: int,
    stride: int,
    rule: Optional[_Rule],
) -> _Draw:
    """Draw up to ``budget`` units in batches that never cross a multiple
    of ``stride`` (``0``: no checkpoints).  At each checkpoint ``rule``
    may stop the loop; without a rule the loop keeps a snapshot."""
    draw = _Draw(counts=np.zeros(len(sampler.tuple_ids), dtype=np.int64))
    keep_lengths = OBS.enabled
    while draw.units < budget:
        step = min(batch_size, budget - draw.units)
        if stride:
            step = min(step, stride - draw.units % stride)
        batch_counts, scanned = sampler.sample_batch(rng, step)
        draw.counts += batch_counts
        draw.units += step
        draw.batches += 1
        draw.total_scanned += int(scanned.sum())
        if keep_lengths:
            draw.lengths.append(scanned)
        if not stride or draw.units % stride:
            continue
        if rule is not None:
            if rule.stops(draw.units, draw.counts):
                draw.converged = True
                break
        elif draw.units < budget:
            draw.snapshots.append(
                (draw.units, draw.counts.copy(), draw.total_scanned)
            )
    return draw


@dataclass(frozen=True)
class _ShardTask:
    """Everything one worker needs, picklable and self-contained."""

    columns: TableColumns
    k: int
    lazy: bool
    budget: int
    batch_size: int
    stride: int
    seed: np.random.SeedSequence


def _run_shard(task: _ShardTask) -> _Draw:
    """One shard's draw loop (module-level: must pickle for the pool)."""
    started = time.perf_counter()
    draw = _draw(
        WorldSampler(task.columns, k=task.k, lazy=task.lazy),
        np.random.default_rng(task.seed),
        task.budget,
        task.batch_size,
        task.stride,
        None,
    )
    draw.seconds = time.perf_counter() - started
    return draw


def _merge(draws: Sequence[_Draw], rule: Optional[_Rule]) -> _Draw:
    """Sum the shards' draws, truncated to the first merged snapshot
    where ``rule`` stops (snapshots exist only when there is a rule)."""
    merged = _Draw(
        counts=sum(draw.counts for draw in draws),
        units=sum(draw.units for draw in draws),
        total_scanned=sum(draw.total_scanned for draw in draws),
        batches=sum(draw.batches for draw in draws),
        lengths=[lengths for draw in draws for lengths in draw.lengths],
    )
    for checkpoint in zip(*(draw.snapshots for draw in draws)):
        units = sum(snapshot[0] for snapshot in checkpoint)
        counts = sum(snapshot[1] for snapshot in checkpoint)
        if rule.stops(units, counts):
            merged.counts, merged.units, merged.converged = counts, units, True
            merged.total_scanned = sum(snapshot[2] for snapshot in checkpoint)
            if merged.lengths:
                merged.lengths = [
                    np.concatenate(draw.lengths)[: snapshot[0]]
                    for draw, snapshot in zip(draws, checkpoint)
                ]
            break
    return merged


def _sharded_draw(
    columns: TableColumns,
    k: int,
    config: SamplingConfig,
    budget: int,
    batch_size: int,
    workers: int,
    rule: Optional[_Rule],
) -> _Draw:
    """Deal the budget to one shard per worker and merge their draws.

    Shard ``i`` draws from child ``i`` of ``SeedSequence(seed).spawn``
    and snapshots every ``ceil(d / shards)`` units (coarsened to at most
    :data:`MAX_SNAPSHOTS_PER_SHARD`), so merged checkpoints keep the
    one-worker cadence of ``~d`` units.
    """
    budgets = shard_budgets(budget, workers)
    stride = 0
    if config.progressive:
        stride = max(
            math.ceil(max(1, config.check_interval) / len(budgets)),
            math.ceil(max(budgets) / MAX_SNAPSHOTS_PER_SHARD),
        )
    seeds = np.random.SeedSequence(config.seed).spawn(len(budgets))
    tasks = [
        _ShardTask(columns, k, config.lazy, shard_budget, batch_size, stride, seed)
        for shard_budget, seed in zip(budgets, seeds)
    ]
    with obs_span(
        "sampling.parallel_draw",
        k=k,
        budget=budget,
        workers=workers,
        shards=len(tasks),
    ) as draw_span:
        draws = shard_map(_run_shard, tasks, workers)
        merge_started = time.perf_counter()
        with obs_span("sampling.merge", shards=len(draws)):
            merged = _merge(draws, rule)
        merge_seconds = time.perf_counter() - merge_started
        draw_span.set(units_drawn=merged.units, converged_early=merged.converged)
    if OBS.enabled:
        catalogued("repro_parallel_shards_total").inc(len(draws))
        catalogued("repro_parallel_workers").set(workers)
        shard_units = catalogued("repro_parallel_shard_units")
        shard_seconds = catalogued("repro_parallel_shard_seconds")
        for draw in draws:
            shard_units.observe(draw.units)
            shard_seconds.observe(draw.seconds)
        catalogued("repro_parallel_merge_seconds").observe(merge_seconds)
    return merged


def sampled_topk_probabilities(
    table: UncertainTable,
    query: TopKQuery,
    config: Optional[SamplingConfig] = None,
    rng: Optional[np.random.Generator] = None,
    prepared: Optional[PreparedRanking] = None,
    cache: Optional[PrepareCache] = None,
) -> SamplingResult:
    """Estimate ``Pr^k`` for all tuples by Monte Carlo (Section 5).

    Units are drawn in vectorised batches aligned to the progressive
    checkpoint interval; estimates are deterministic for a fixed
    ``(seed, batch_size, n_workers)`` triple and statistically
    equivalent across them (see the module docstring).  One worker runs
    the draw loop inline and applies the ``(d, phi)`` rule online; more
    deal one shard each through :func:`repro.parallel.pool.shard_map`
    and replay the rule over the merged snapshots.

    :param table: the uncertain table.
    :param query: the top-k query.
    :param config: sampler configuration; defaults to Theorem-6 budget
        with progressive stopping.
    :param rng: explicit PRNG for a one-worker run; defaults to one
        seeded from the config.
    :param prepared: a ready :class:`PreparedRanking` for ``(table,
        query)``; skips selection/ranking/rule indexing entirely.
    :param cache: a :class:`PrepareCache` to consult (and fill) when
        ``prepared`` is not given.
    """
    config = config or SamplingConfig()
    if config.n_workers != 1 and rng is not None:
        raise SamplingError(
            "an explicit rng cannot be combined with n_workers != 1: "
            "shard streams are derived from config.seed via "
            "SeedSequence.spawn"
        )
    workers = resolve_workers(config.n_workers)
    with obs_span("sampling.prepare"):
        prepared = resolve_prepared(table, query, prepared=prepared, cache=cache)
    budget = config.resolved_sample_size()
    batch_size = config.resolved_batch_size()
    rule = _Rule(config.min_samples, config.tolerance) if config.progressive else None
    if workers > 1:
        draw = _sharded_draw(
            prepared.columns, query.k, config, budget, batch_size, workers, rule
        )
    else:
        with obs_span("sampling.draw", k=query.k, budget=budget) as draw_span:
            draw = _draw(
                WorldSampler(prepared.columns, k=query.k, lazy=config.lazy),
                rng if rng is not None else np.random.default_rng(config.seed),
                budget,
                batch_size,
                max(1, config.check_interval) if config.progressive else 0,
                rule,
            )
            draw_span.set(units_drawn=draw.units, converged_early=draw.converged)

    if OBS.enabled:
        if draw.lengths:
            lengths = np.concatenate(draw.lengths)
            catalogued("repro_sampler_unit_scan_length").observe_many(
                lengths.tolist()
            )
            catalogued("repro_sampler_lazy_early_stops_total").inc(
                int(np.count_nonzero(lengths < len(prepared)))
            )
        catalogued("repro_sampler_units_total").inc(draw.units)
        catalogued("repro_sampler_batches_total").inc(draw.batches)
        catalogued("repro_sampler_convergence_stops_total").inc(
            1.0 if draw.converged else 0.0
        )
        catalogued("repro_sampler_budget_units").set(budget)
        catalogued("repro_sampler_achieved_units").set(draw.units)

    n = max(draw.units, 1)
    ids = prepared.columns.tids
    return SamplingResult(
        estimates={ids[i]: int(draw.counts[i]) / n for i in np.flatnonzero(draw.counts)},
        units_drawn=draw.units,
        budget=budget,
        converged_early=draw.converged,
        total_scanned=draw.total_scanned,
    )


def sampled_ptk_query(
    table: UncertainTable,
    query: TopKQuery,
    threshold: float,
    config: Optional[SamplingConfig] = None,
    rng: Optional[np.random.Generator] = None,
    prepared: Optional[PreparedRanking] = None,
    cache: Optional[PrepareCache] = None,
) -> PTKAnswer:
    """Answer a PT-k query approximately with the sampler.

    The answer set contains every tuple whose *estimated* top-k
    probability reaches the threshold; Figure 6 measures the precision
    and recall of this approximation against the exact answer.

    One :class:`PreparedRanking` (supplied, cached, or built here) is
    shared between the estimate pass and answer ordering — selection and
    ranking run at most once per call.
    """
    if not (0.0 < threshold <= 1.0):
        raise QueryError(
            f"probability threshold must be in (0, 1], got {threshold!r}"
        )
    prepared = resolve_prepared(table, query, prepared=prepared, cache=cache)
    sampling = sampled_topk_probabilities(
        table, query, config=config, rng=rng, prepared=prepared
    )
    answer = PTKAnswer(k=query.k, threshold=threshold, method="sampling")
    answer.probabilities = dict(sampling.estimates)
    answer.answers = [
        tid
        for tid in prepared.columns.tids
        if sampling.estimate_of(tid) >= threshold
    ]
    answer.stats = AlgorithmStats(
        scan_depth=0,
        tuples_evaluated=len(sampling.estimates),
        stopped_by="converged" if sampling.converged_early else "budget",
        sample_units=sampling.units_drawn,
        avg_sample_length=sampling.average_sample_length,
    )
    if OBS.enabled:
        catalogued("repro_ptk_queries_total").inc(1.0, method="sampling")
        profile = OBS.flight.current()
        if profile is not None:
            profile.engine = "sampled"
            profile.sample_budget = sampling.budget
            profile.sample_units = sampling.units_drawn
            profile.sample_converged = sampling.converged_early
            profile.avg_sample_length = sampling.average_sample_length
            profile.stopped_by = answer.stats.stopped_by
            # Worst-case estimate uncertainty at the achieved sample
            # size: the Wilson half-width at p-hat = 1/2.
            n = max(sampling.units_drawn, 1)
            low, high = wilson_interval(0.5 * n, n)
            profile.wilson_halfwidth = (high - low) / 2.0
    return answer
