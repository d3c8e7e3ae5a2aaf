"""Parallel query execution: sharded sampling and multi-query fan-out.

Two independent axes of parallelism over the same process-pool plumbing
(:mod:`repro.parallel.pool`):

* **within one sampled query** — :mod:`repro.parallel.sharded` splits
  the Monte-Carlo unit budget across workers and merges inclusion
  counts, deterministic for a fixed ``(seed, batch_size, n_workers)``;
* **across many queries** — :mod:`repro.parallel.fanout` partitions
  independent PT-k requests across workers that receive each table's
  prepared columns, one shared scan per ``(table, k)``.

See ``docs/parallel.md`` for the worker model and determinism contract.
"""

from repro.parallel.fanout import (
    parallel_batch_ptk_queries,
    parallel_ptk_queries,
)
from repro.parallel.pool import (
    MAX_WORKERS,
    available_cpus,
    resolve_workers,
    shard_map,
)
from repro.parallel.sharded import (
    parallel_sampled_topk_probabilities,
    shard_budgets,
    shard_seeds,
)

__all__ = [
    "MAX_WORKERS",
    "available_cpus",
    "parallel_batch_ptk_queries",
    "parallel_ptk_queries",
    "parallel_sampled_topk_probabilities",
    "resolve_workers",
    "shard_budgets",
    "shard_seeds",
    "shard_map",
]
