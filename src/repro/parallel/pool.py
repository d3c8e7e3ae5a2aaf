"""Process-pool plumbing shared by the parallel execution paths.

One narrow contract: :func:`shard_map` applies a picklable task function
to a list of picklable tasks and returns the results **in task order** —
never in completion order — so every caller's merge step is independent
of process scheduling and results stay deterministic for a fixed task
list.

The pool prefers the ``fork`` start method where the platform offers it
(cheap worker start, no module re-import); otherwise the default start
method is used.  When a pool cannot be used at all — the platform
forbids subprocesses, or a task fails to pickle — execution falls back
to running the tasks inline in the calling process.  The fallback is
*not* a semantic change: task functions are pure functions of their
task, so inline and pooled runs produce identical results.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.exceptions import QueryError

Task = TypeVar("Task")
Result = TypeVar("Result")

#: Hard cap on worker processes, far above any sane fan-out.
MAX_WORKERS = 64


def available_cpus() -> int:
    """Usable CPU count (cgroup/affinity aware where the OS exposes it)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_workers(n_workers: Optional[int]) -> int:
    """Validate and resolve a worker count.

    ``None`` and ``0`` mean "one worker per available CPU"; explicit
    values are validated and capped at :data:`MAX_WORKERS`.
    """
    if n_workers is None or n_workers == 0:
        return min(MAX_WORKERS, available_cpus())
    if not isinstance(n_workers, int) or isinstance(n_workers, bool):
        raise QueryError(f"n_workers must be an integer, got {n_workers!r}")
    if n_workers < 0:
        raise QueryError(f"n_workers must be >= 0, got {n_workers}")
    return min(MAX_WORKERS, n_workers)


def _mp_context():
    """The cheapest available multiprocessing context."""
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def shard_map(
    fn: Callable[[Task], Result],
    tasks: Sequence[Task],
    n_workers: int,
    use_processes: bool = True,
) -> List[Result]:
    """Apply ``fn`` to every task, returning results in task order.

    :param fn: a module-level (picklable) pure function of one task.
    :param tasks: picklable task objects.
    :param n_workers: pool size; ``<= 1`` runs inline.
    :param use_processes: set False to force inline execution (tests and
        environments without subprocess support); results are identical.
    """
    if not tasks:
        return []
    if n_workers <= 1 or len(tasks) == 1 or not use_processes:
        return [fn(task) for task in tasks]
    # Imported on first use: repro.core.sampling imports this module at
    # start-up, and loading the process-pool machinery takes ~20 ms.
    import pickle
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(
            max_workers=min(n_workers, len(tasks)), mp_context=_mp_context()
        ) as executor:
            return list(executor.map(fn, tasks))
    except (OSError, BrokenProcessPool, pickle.PicklingError):
        # Pool unavailable (sandbox, fd limits, unpicklable task): the
        # inline path computes the same results, only without overlap.
        return [fn(task) for task in tasks]
