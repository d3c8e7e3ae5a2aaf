"""repro.serve — the network-facing query serving layer.

An asyncio HTTP/1.1 service (stdlib only) hosting an
:class:`~repro.query.engine.UncertainDB`:

* :mod:`~repro.serve.server` — :class:`ServeApp` (routing, batch
  execution, deadline-aware exact-vs-sampled degradation) and the TCP
  front-end; ``repro serve`` on the CLI.
* :mod:`~repro.serve.coalescer` — per-table micro-batching so one warm
  :class:`~repro.query.prepare.PreparedRanking` serves a whole burst of
  concurrent requests.
* :mod:`~repro.serve.scheduler` — cost-based batch scheduling: exact
  work cheapest-first, pre-execution deadline re-checks, budgeted
  scans whose priced rows a retry continues.
* :mod:`~repro.serve.admission` — bounded queue, ``max_inflight``, 429
  rejection with ``Retry-After``.
* :mod:`~repro.serve.protocol` — JSON request/response schema and the
  service error types.
* :mod:`~repro.serve.client` — blocking :class:`ServeClient` over TCP or
  the hermetic in-process :class:`LoopbackTransport`.

With a replication role attached (``ServeApp(db, replication=...)``)
the app additionally serves ``/replicate/wal|bootstrap|status`` and
``POST /mutate`` on primaries, and stamps staleness (enforcing
``max_staleness_s``) on replicas — see :mod:`repro.replication` and
``docs/replication.md``.

See ``docs/serving.md`` for endpoints and the degradation policy.
"""

from repro.serve.admission import AdmissionController
from repro.serve.client import (
    HTTPTransport,
    LoopbackTransport,
    ServeClient,
    ServeClientError,
)
from repro.serve.coalescer import RequestCoalescer
from repro.serve.scheduler import CostScheduler, ExactTask
from repro.serve.protocol import (
    DeadlineExceededError,
    ProtocolError,
    QueryRequest,
    QueryResponse,
    RejectedError,
    StaleReadError,
    mutation_from_dict,
)
from repro.serve.server import ServeApp, ServeConfig, run, serve

__all__ = [
    "AdmissionController",
    "CostScheduler",
    "DeadlineExceededError",
    "ExactTask",
    "HTTPTransport",
    "LoopbackTransport",
    "ProtocolError",
    "QueryRequest",
    "QueryResponse",
    "RejectedError",
    "RequestCoalescer",
    "ServeApp",
    "ServeClient",
    "ServeClientError",
    "ServeConfig",
    "StaleReadError",
    "mutation_from_dict",
    "run",
    "serve",
]
