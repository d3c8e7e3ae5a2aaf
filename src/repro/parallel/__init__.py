"""Parallel query execution: the process pool and multi-query fan-out.

Two independent axes of parallelism over the same process-pool plumbing
(:mod:`repro.parallel.pool`):

* **within one sampled query** — :func:`repro.core.sampling.sampled_topk_probabilities`
  deals the Monte-Carlo unit budget to one shard per worker through
  :func:`shard_map` and merges inclusion counts, deterministic for a
  fixed ``(seed, batch_size, n_workers)``;
* **across many queries** — :mod:`repro.parallel.fanout` partitions
  independent PT-k requests across workers that receive each table's
  prepared columns, one shared scan per ``(table, k)``.

One worker is the inline case of both.  See ``docs/parallel.md`` for
the worker model and determinism contract.
"""

from repro.parallel.fanout import parallel_ptk_queries
from repro.parallel.pool import (
    MAX_WORKERS,
    available_cpus,
    resolve_workers,
    shard_map,
)

__all__ = [
    "MAX_WORKERS",
    "available_cpus",
    "parallel_ptk_queries",
    "resolve_workers",
    "shard_map",
]
