"""End-to-end benchmark of PT-k serving (``python -m benchmarks.e2e``).

Four seeded workloads run against the production entry points — the
``repro serve`` process over TCP and the ``UncertainDB`` library API —
with every answer checked against a cold oracle.  See ``README.md`` in
this directory for the workloads, the metrics and how to read them.
"""
