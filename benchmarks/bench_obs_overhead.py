"""Observability overhead guardrail on the exact PT-k hot path.

Not a paper figure: this pins the cost of the instrumentation layer at
its three settings —

* **obs off** — the shipping default; instrumented sites pay one
  ``OBS.enabled`` attribute check and nothing else,
* **obs on** — metrics registry + span tree per query,
* **obs on + flight** — additionally one :class:`QueryProfile` per
  query landing in the flight recorder's ring.

The workload is a fixed 10k-tuple synthetic table queried through the
:class:`UncertainDB` facade (so the ``query_scope`` wiring is part of
what is measured), with the prepare cache warmed first — steady-state
query cost, not preparation.  The acceptance bar: obs-off must stay
within a few percent of the uninstrumented baseline, and the flight
recorder must add no measurable step over plain obs-on.
"""

import statistics
import time

import pytest

from benchmarks.conftest import emit
from repro import obs
from repro.bench.harness import ExperimentTable
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic_table
from repro.obs import OBS
from repro.parallel import available_cpus
from repro.query.engine import UncertainDB

N_TUPLES = 10_000
N_RULES = 1_000
K = 100
THRESHOLD = 0.3
ROUNDS = 7


@pytest.fixture(scope="module")
def db():
    table = generate_synthetic_table(
        SyntheticConfig(n_tuples=N_TUPLES, n_rules=N_RULES, seed=7)
    )
    engine = UncertainDB()
    engine.register(table, name="overhead")
    # Warm the prepare cache so every timed round is steady-state.
    engine.ptk("overhead", k=K, threshold=THRESHOLD)
    return engine


def _median_seconds(engine: UncertainDB) -> float:
    samples = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        engine.ptk("overhead", k=K, threshold=THRESHOLD)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def test_obs_overhead_states(db):
    """Median exact-query latency per observability state."""
    was_enabled = OBS.enabled
    try:
        obs.disable()
        OBS.flight.disable()
        off = _median_seconds(db)

        obs.enable(fresh=True)
        OBS.flight.disable()
        on = _median_seconds(db)

        OBS.flight.enable()
        on_flight = _median_seconds(db)
    finally:
        OBS.flight.disable()
        OBS.flight.reset()
        if was_enabled:
            obs.enable()
        else:
            obs.disable()
            obs.reset()

    table = ExperimentTable(
        title=(
            f"Observability overhead, exact PT-k "
            f"(n={N_TUPLES}, k={K}, p={THRESHOLD}, median of {ROUNDS})"
        ),
        columns=[
            "state",
            "median_seconds",
            "overhead_vs_off_pct",
        ],
        notes=(
            "queries through UncertainDB.ptk with a warm prepare cache; "
            "flight = per-query QueryProfile into the in-memory ring "
            f"(no slow log configured); {available_cpus()} usable core(s)"
        ),
    )
    for state, seconds in (
        ("obs-off", off),
        ("obs-on", on),
        ("obs-on+flight", on_flight),
    ):
        table.add_row(
            state,
            round(seconds, 6),
            round(100.0 * (seconds / off - 1.0), 2),
        )
    emit(table, "obs_overhead.txt")

    # Generous sanity bars (CI machines are noisy); the committed
    # results file carries the precise numbers.
    assert on_flight < off * 3.0
    assert on < off * 3.0
