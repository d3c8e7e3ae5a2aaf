"""``repro serve`` with per-layer tracing, for the ``--trace`` run.

Usage::

    python -m benchmarks.e2e.traced_serve --dump PREFIX -- <repro serve args>

Installs the :mod:`benchmarks.e2e.tracing` wrappers, then runs the real
``repro.cli.main(["serve", ...])``.  Two extra routes, answered before
the service sees the request, open and close the recording window so
set-up, warm-up and oracle barriers stay out of it:
``POST /__trace/start`` and ``POST /__trace/stop``.  When the server
stops (SIGINT), the summary goes to ``PREFIX.json`` and the kept spans
to ``PREFIX.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from benchmarks.e2e.tracing import Tracer, engine_gauges, install, server_counters

START, STOP = "/__trace/start", "/__trace/stop"


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.traced_serve")
    parser.add_argument("--dump", type=Path, required=True)
    args = parser.parse_args(argv[:split])
    serve_args = argv[split + 1:]

    from repro import cli
    from repro.serve.server import ServeApp

    tracer = Tracer()
    install(tracer)
    original_init = ServeApp.__init__
    original_dispatch = ServeApp.dispatch

    def init(self, *a, **kw):
        original_init(self, *a, **kw)
        tracer.add_sources(
            counters=lambda: server_counters(self),
            gauges=lambda: engine_gauges(self.db),
        )

    async def dispatch(self, method, path, body=b""):
        if path in (START, STOP):
            (tracer.start if path == START else tracer.stop)()
            return 200, [("Content-Type", "application/json")], b"{}\n"
        return await original_dispatch(self, method, path, body)

    ServeApp.__init__ = init
    ServeApp.dispatch = dispatch
    try:
        return cli.main(["serve", *serve_args])
    finally:
        tracer.stop()
        summary = tracer.summary()
        summary["spans_written"] = tracer.write_spans(
            args.dump.with_suffix(".spans.jsonl")
        )
        args.dump.with_suffix(".json").write_text(json.dumps(summary, indent=1))


if __name__ == "__main__":
    sys.exit(main())
