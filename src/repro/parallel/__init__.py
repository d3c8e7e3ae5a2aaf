"""Parallel query execution: the process pool and multi-query fan-out.

* **within one sampled query** — :func:`repro.core.sampling.sampled_topk_probabilities`
  deals the Monte-Carlo unit budget to one shard per worker through
  :func:`shard_map` (:mod:`repro.parallel.pool`) and merges inclusion
  counts, deterministic for a fixed ``(seed, batch_size, n_workers)``;
  one worker is the inline case;
* **across many queries** — :mod:`repro.parallel.fanout` answers
  independent PT-k requests in the calling process, each resuming its
  preparation's warm scan, which a pooled worker could not.

See ``docs/parallel.md`` for the worker model and determinism contract.
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
