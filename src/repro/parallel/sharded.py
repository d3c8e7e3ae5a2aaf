"""Sharded Monte-Carlo sampling: the unit budget split across workers.

The batched kernel (:meth:`repro.core.sampling.WorldSampler.sample_batch`)
made one unit cheap; past that, wall-clock only improves by drawing
units **concurrently**.  This module splits the unit budget into one
shard per worker, runs the batched kernel per shard in a process pool,
and merges the per-tuple inclusion counts.

The determinism contract
------------------------

For a fixed ``(seed, batch_size, n_workers)`` triple the merged
estimates are bit-identical across runs and across executors (process
pool or inline), because every source of randomness is pinned up front:

* shard PRNGs come from ``np.random.SeedSequence(seed).spawn(n)`` — the
  NumPy-recommended way to derive independent, reproducible child
  streams (shard ``i`` always receives child ``i``);
* shard budgets are a fixed split (``budget // n`` each, the remainder
  spread over the first shards);
* merging sums integer inclusion counts in shard order, which is
  order-insensitive anyway.

``n_workers=1`` does not spawn a child seed: it delegates to the
single-process :func:`repro.core.sampling.sampled_topk_probabilities`
and reproduces today's answers byte for byte.

Progressive stopping on merged snapshots
----------------------------------------

The ``(d, phi)`` rule needs *global* estimates, which no single shard
has.  Each shard therefore records cumulative count snapshots at a fixed
stride (``~d / n_workers`` units, so merged checkpoints keep the
single-process cadence of ``d`` merged units), and the parent replays
the rule over the **merged** snapshots: the earliest checkpoint at which
no merged estimate moved by more than ``phi`` — at or past
``min_samples`` merged units — becomes the stopping point, and counts,
units, and scan totals are truncated to it.  Shards still draw their
full budget (one round trip, no mid-flight coordination), so progressive
runs buy statistical honesty rather than wall-clock here; see
``docs/parallel.md`` for when that trade is worth it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.kernel import TableColumns
from repro.core.sampling import (
    SamplingConfig,
    SamplingResult,
    WorldSampler,
    sampled_topk_probabilities,
)
from repro.exceptions import SamplingError
from repro.model.table import UncertainTable
from repro.obs import OBS, catalogued, span as obs_span
from repro.parallel.pool import resolve_workers, shard_map
from repro.query.prepare import PrepareCache, PreparedRanking, resolve_prepared
from repro.query.topk import TopKQuery

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
    budgets = [
        base + (1 if i < remainder else 0) for i in range(n_workers)
    ]
    return [b for b in budgets if b > 0]


def shard_seeds(
    seed: Optional[int], n_shards: int
) -> List[np.random.SeedSequence]:
    """Independent child seed sequences, one per shard.

    ``SeedSequence(seed).spawn(n)`` guarantees the children are
    statistically independent and reproducible: shard ``i`` of a run
    with the same ``(seed, n_shards)`` always sees the same stream.
    """
    return np.random.SeedSequence(seed).spawn(n_shards)


@dataclass(frozen=True)
class _ShardTask:
    """Everything one worker needs, picklable and self-contained."""

    index: int
    columns: TableColumns
    k: int
    lazy: bool
    budget: int
    batch_size: int
    snapshot_stride: int  # 0 = record no intermediate snapshots
    seed: np.random.SeedSequence


@dataclass
class _ShardSnapshot:
    """Cumulative state of one shard at a checkpoint boundary."""

    units: int
    counts: np.ndarray
    total_scanned: int


@dataclass
class _ShardResult:
    """What one shard sends back to the parent for merging."""

    index: int
    units: int
    counts: np.ndarray
    total_scanned: int
    batches: int
    seconds: float
    snapshots: List[_ShardSnapshot] = field(default_factory=list)


def _run_shard(task: _ShardTask) -> _ShardResult:
    """Draw one shard's units (module-level: must pickle for the pool)."""
    started = time.perf_counter()
    sampler = WorldSampler(task.columns, k=task.k, lazy=task.lazy)
    rng = np.random.default_rng(task.seed)
    n = len(task.columns)
    counts = np.zeros(n, dtype=np.int64)
    total_scanned = 0
    drawn = 0
    batches = 0
    snapshots: List[_ShardSnapshot] = []
    stride = task.snapshot_stride
    while drawn < task.budget:
        step = min(task.batch_size, task.budget - drawn)
        if stride:
            # Align batches to snapshot boundaries so cumulative counts
            # exist exactly at each checkpoint.
            next_boundary = (drawn // stride + 1) * stride
            step = min(step, next_boundary - drawn)
        batch_counts, scanned = sampler.sample_batch(rng, step)
        counts += batch_counts
        total_scanned += int(scanned.sum())
        drawn += step
        batches += 1
        if stride and drawn % stride == 0 and drawn < task.budget:
            snapshots.append(
                _ShardSnapshot(
                    units=drawn,
                    counts=counts.copy(),
                    total_scanned=total_scanned,
                )
            )
    return _ShardResult(
        index=task.index,
        units=drawn,
        counts=counts,
        total_scanned=total_scanned,
        batches=batches,
        seconds=time.perf_counter() - started,
        snapshots=snapshots,
    )


def _snapshot_stride(
    config: SamplingConfig, n_shards: int, max_shard_budget: int
) -> int:
    """Units between per-shard snapshots (0 when not progressive).

    The base stride ``ceil(d / n_shards)`` keeps merged checkpoints at
    the single-process cadence of ``~d`` merged units; very large shard
    budgets coarsen it so no shard records more than
    :data:`MAX_SNAPSHOTS_PER_SHARD` snapshots.
    """
    if not config.progressive:
        return 0
    base = max(1, math.ceil(max(1, config.check_interval) / n_shards))
    cap = max(1, math.ceil(max_shard_budget / MAX_SNAPSHOTS_PER_SHARD))
    return max(base, cap)


def _merge_shards(
    results: Sequence[_ShardResult],
    n_ranked: int,
    config: SamplingConfig,
    budget: int,
) -> Tuple[SamplingResult, np.ndarray]:
    """Merge shard counts, replaying the (d, phi) rule on merged snapshots.

    :returns: the merged result (estimates not yet filled) and the merged
        per-position inclusion counts it was truncated to.
    """
    merged = SamplingResult(budget=budget)
    counts = np.zeros(n_ranked, dtype=np.int64)
    for result in results:
        counts += result.counts
    units = sum(result.units for result in results)
    total_scanned = sum(result.total_scanned for result in results)

    if config.progressive and results:
        n_checkpoints = min(len(result.snapshots) for result in results)
        previous: Optional[np.ndarray] = None
        for c in range(n_checkpoints):
            checkpoint_units = sum(
                result.snapshots[c].units for result in results
            )
            if checkpoint_units < config.min_samples:
                continue
            checkpoint_counts = np.zeros(n_ranked, dtype=np.int64)
            for result in results:
                checkpoint_counts += result.snapshots[c].counts
            estimates = checkpoint_counts / checkpoint_units
            if (
                previous is not None
                and previous.any()
                and np.all(np.abs(estimates - previous) <= config.tolerance)
            ):
                counts = checkpoint_counts
                units = checkpoint_units
                total_scanned = sum(
                    result.snapshots[c].total_scanned for result in results
                )
                merged.converged_early = True
                break
            previous = estimates

    merged.units_drawn = units
    merged.total_scanned = total_scanned
    return merged, counts


def parallel_sampled_topk_probabilities(
    table: UncertainTable,
    query: TopKQuery,
    config: Optional[SamplingConfig] = None,
    prepared: Optional[PreparedRanking] = None,
    cache: Optional[PrepareCache] = None,
    use_processes: bool = True,
) -> SamplingResult:
    """Estimate ``Pr^k`` with the unit budget sharded across workers.

    Semantically a drop-in for
    :func:`repro.core.sampling.sampled_topk_probabilities`: unbiased
    estimates, deterministic for a fixed ``(seed, batch_size,
    n_workers)`` triple, and byte-identical to the single-process path
    when ``config.n_workers == 1``.

    :param use_processes: set False to run the shards inline (identical
        results, no pool — useful in tests and constrained sandboxes).
    """
    config = config or SamplingConfig()
    n_workers = resolve_workers(config.n_workers)
    if n_workers <= 1:
        return sampled_topk_probabilities(
            table,
            query,
            config=_with_workers(config, 1),
            prepared=prepared,
            cache=cache,
        )

    with obs_span("sampling.prepare"):
        prepared = resolve_prepared(
            table, query, prepared=prepared, cache=cache
        )
    budget = config.resolved_sample_size()
    batch_size = config.resolved_batch_size()
    budgets = shard_budgets(budget, n_workers)
    seeds = shard_seeds(config.seed, len(budgets))
    stride = _snapshot_stride(config, len(budgets), max(budgets))
    columns = prepared.columns
    tasks = [
        _ShardTask(
            index=i,
            columns=columns,
            k=query.k,
            lazy=config.lazy,
            budget=shard_budget,
            batch_size=batch_size,
            snapshot_stride=stride,
            seed=seed,
        )
        for i, (shard_budget, seed) in enumerate(zip(budgets, seeds))
    ]

    with obs_span(
        "sampling.parallel_draw",
        k=query.k,
        budget=budget,
        workers=n_workers,
        shards=len(tasks),
    ) as draw_span:
        results = shard_map(
            _run_shard, tasks, n_workers, use_processes=use_processes
        )
        merge_started = time.perf_counter()
        with obs_span("sampling.merge", shards=len(results)):
            merged, counts = _merge_shards(
                results, len(columns), config, budget
            )
        merge_seconds = time.perf_counter() - merge_started
        draw_span.set(
            units_drawn=merged.units_drawn,
            converged_early=merged.converged_early,
        )

    n = max(merged.units_drawn, 1)
    ids = columns.tids
    merged.estimates = {
        ids[i]: int(counts[i]) / n for i in np.flatnonzero(counts)
    }

    if OBS.enabled:
        catalogued("repro_parallel_shards_total").inc(len(results))
        catalogued("repro_parallel_workers").set(n_workers)
        shard_units = catalogued("repro_parallel_shard_units")
        shard_seconds = catalogued("repro_parallel_shard_seconds")
        for result in results:
            shard_units.observe(result.units)
            shard_seconds.observe(result.seconds)
        catalogued("repro_parallel_merge_seconds").observe(merge_seconds)
        catalogued("repro_sampler_units_total").inc(merged.units_drawn)
        catalogued("repro_sampler_batches_total").inc(
            sum(result.batches for result in results)
        )
        catalogued("repro_sampler_convergence_stops_total").inc(
            1.0 if merged.converged_early else 0.0
        )
        catalogued("repro_sampler_budget_units").set(budget)
        catalogued("repro_sampler_achieved_units").set(merged.units_drawn)
    return merged


def _with_workers(config: SamplingConfig, n_workers: int) -> SamplingConfig:
    """A copy of ``config`` pinned to ``n_workers`` (avoids recursion)."""
    from dataclasses import replace

    if config.n_workers == n_workers:
        return config
    return replace(config, n_workers=n_workers)
