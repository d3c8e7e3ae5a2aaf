"""Request coalescing: micro-batching concurrent same-table queries.

The expensive shared step of every PT-k query is preparation (selection
+ ranking + rule indexing); the per-request work on top of a warm
:class:`~repro.query.prepare.PreparedRanking` is small for practical k.
Under concurrent load the cheapest thing a server can do is therefore
*wait a moment*: hold the first request for a table for a short window
(default a few milliseconds), let concurrent requests for the same
table pile onto it, and dispatch the whole batch through the engine's
batch path so one prepared ranking — and one profile scan — serves all
of them.

:class:`RequestCoalescer` is the generic machinery: callers ``await
submit(key, item)``; items sharing a ``key`` within the window are
dispatched together via the supplied async ``dispatch(key, items)``
callable, which returns one result per item (an ``Exception`` instance
as a result rejects just that item).  A window of zero disables
coalescing — every request dispatches alone, which is also the honest
baseline configuration for the serving benchmarks.
"""

from __future__ import annotations

import asyncio
import inspect
from typing import Any, Awaitable, Callable, Dict, Generic, List, Set, TypeVar

K = TypeVar("K")
T = TypeVar("T")

#: ``dispatch(key, items) -> results`` contract; results align with items.
#: A dispatch callable that accepts a third parameter is additionally
#: handed a thread-safe ``complete(index, result)`` callback it may
#: invoke to resolve individual items *before* the batch returns — how
#: the cost scheduler gets cheap, tight-deadline responses out from
#: behind an expensive scan still running in the same batch.
DispatchFn = Callable[[Any, List[Any]], Awaitable[List[Any]]]


def _accepts_complete(dispatch: Callable) -> bool:
    """True when ``dispatch`` takes a per-item completion callback."""
    try:
        parameters = inspect.signature(dispatch).parameters.values()
    except (TypeError, ValueError):  # builtins, odd callables
        return False
    positional = [
        p for p in parameters
        if p.kind in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        )
    ]
    return len(positional) >= 3 or any(
        p.kind is inspect.Parameter.VAR_POSITIONAL for p in parameters
    )


class _Batch:
    """One open batch: items plus the futures awaiting their results."""

    __slots__ = ("items", "futures", "closed")

    def __init__(self) -> None:
        self.items: List[Any] = []
        self.futures: List[asyncio.Future] = []
        self.closed = False


class RequestCoalescer:
    """Groups concurrent ``submit`` calls by key within a time window.

    :param dispatch: async callable answering a whole batch; must return
        exactly one result per item, in item order.  A result that is an
        ``Exception`` instance is raised to that item's submitter alone;
        a *raised* exception fails the whole batch.
    :param window_seconds: how long the first request of a batch waits
        for company.  ``0`` dispatches every item alone, immediately.
    :param max_batch: dispatch early once a batch reaches this size.
    """

    def __init__(
        self,
        dispatch: DispatchFn,
        window_seconds: float = 0.002,
        max_batch: int = 64,
    ) -> None:
        if window_seconds < 0:
            raise ValueError(
                f"window_seconds must be >= 0, got {window_seconds}"
            )
        if max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        self._dispatch = dispatch
        self._wants_complete = _accepts_complete(dispatch)
        self.window_seconds = window_seconds
        self.max_batch = max_batch
        self._open: Dict[Any, _Batch] = {}
        # Pending window tasks, each dropped when it finishes, so
        # :meth:`drain` can end the ones still running at shutdown.
        self._windows: Set[asyncio.Task] = set()
        self._batches_dispatched = 0
        self._items_dispatched = 0

    # ------------------------------------------------------------------
    async def submit(self, key: Any, item: Any) -> Any:
        """Join (or open) the batch for ``key``; resolves with the result."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        if self.window_seconds <= 0:
            await self._run_batch_now(key, [item], [future])
            return await future
        batch = self._open.get(key)
        if batch is None or batch.closed:
            batch = _Batch()
            self._open[key] = batch
            task = loop.create_task(self._close_after_window(key, batch))
            self._windows.add(task)
            task.add_done_callback(self._windows.discard)
        batch.items.append(item)
        batch.futures.append(future)
        if len(batch.items) >= self.max_batch:
            self._detach(key, batch)
            await self._run_batch_now(key, batch.items, batch.futures)
        return await future

    # ------------------------------------------------------------------
    async def _close_after_window(self, key: Any, batch: _Batch) -> None:
        await asyncio.sleep(self.window_seconds)
        if batch.closed:
            return  # already dispatched by the max_batch overflow path
        self._detach(key, batch)
        await self._run_batch_now(key, batch.items, batch.futures)

    async def drain(self) -> None:
        """Cancel and await the window tasks still pending (run on
        their loop).

        An item can be answered early (``complete``) while its window
        task still awaits the rest of the batch; a transport that stops
        its loop calls this first, so no such task is destroyed while
        pending.
        """
        tasks = list(self._windows)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    def _detach(self, key: Any, batch: _Batch) -> None:
        batch.closed = True
        if self._open.get(key) is batch:
            del self._open[key]

    async def _run_batch_now(
        self, key: Any, items: List[Any], futures: List[asyncio.Future]
    ) -> None:
        self._batches_dispatched += 1
        self._items_dispatched += len(items)
        loop = asyncio.get_running_loop()

        def complete(index: int, result: Any) -> None:
            """Resolve one item early; callable from any thread."""

            def _set() -> None:
                future = futures[index]
                if future.done():
                    return
                if isinstance(result, Exception):
                    future.set_exception(result)
                else:
                    future.set_result(result)

            loop.call_soon_threadsafe(_set)

        try:
            if self._wants_complete:
                results = await self._dispatch(key, list(items), complete)
            else:
                results = await self._dispatch(key, list(items))
        except Exception as error:  # noqa: BLE001 - fan the failure out
            for future in futures:
                if not future.done():
                    future.set_exception(error)
            return
        if len(results) != len(items):
            error = RuntimeError(
                f"coalescer dispatch returned {len(results)} results "
                f"for {len(items)} items"
            )
            for future in futures:
                if not future.done():
                    future.set_exception(error)
            return
        for future, result in zip(futures, results):
            if future.done():
                continue
            if isinstance(result, Exception):
                future.set_exception(result)
            else:
                future.set_result(result)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Batching effectiveness counters (exposed via ``/healthz``)."""
        batches = self._batches_dispatched
        return {
            "batches_dispatched": batches,
            "items_dispatched": self._items_dispatched,
            "mean_batch_size": (
                round(self._items_dispatched / batches, 3) if batches else 0.0
            ),
            "open_batches": len(self._open),
        }
