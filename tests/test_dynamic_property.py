"""Property tests: the dynamic index vs cold-recompute oracles.

Three oracles, in increasing strength:

1. the cold columnar scan of the current table (bitwise equality —
   the index's contract);
2. the exact engine's :func:`exact_ptk_query` answer set;
3. at small ``n``, the possible-world enumerator in exact rational
   arithmetic (:func:`naive_topk_probabilities` with ``exact=True``),
   whose ``Fraction >= float`` threshold comparisons are themselves
   exact.

The index prices whatever preparation it is handed, so the index
suites run every step twice: once on the refreshed preparation, once on
a cold :func:`prepare_ranking`.  The warm prepared ranking is held to
the same standard: after every delta, :func:`refresh_prepared` must
return the object a cold :func:`prepare_ranking` builds — its columns
too, when the old one had materialised them — or ``None`` on a sort-key
collision.

Plus the two hard end-to-end cases: a SIGKILL mid-mutation (recovery
must rebuild state the index then answers identically on) and the
replica applying the shipped WAL (its dynamic answers must equal the
primary's bitwise).
"""

import os
import random
import signal
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.exact import exact_ptk_query
from repro.dynamic import (
    DynamicIndex,
    TableDelta,
    delta_from_record,
    refresh_prepared,
)
from repro.model.table import UncertainTable
from repro.query.engine import UncertainDB
from repro.query.prepare import prepare_ranking
from repro.query.topk import TopKQuery
from repro.semantics.naive import naive_topk_probabilities
from tests.test_dynamic import MutationDriver, advance, cold_probabilities


def feed(db, table, delta):
    """Mirror UncertainDB._emit_delta for driver-made mutations."""
    db.prepare_cache.refresh(table, delta)


def twin_indexes(table):
    """Two indexes over one table: ``warm`` follows refreshed
    preparations, ``cold`` a cold re-prepare at every step."""
    prepared = prepare_ranking(table, TopKQuery(k=1))
    return prepared, DynamicIndex.build(prepared), DynamicIndex.build(prepared)


def step_both(prepared, warm, cold, table, delta):
    """Move both indexes across ``delta``; returns the new preparation
    and the indexes to check."""
    prepared = advance(prepared, table, delta)
    warm.apply(prepared)
    cold.apply(prepare_ranking(table, TopKQuery(k=1)))
    return prepared, (warm, cold)


# Mutation scripts are drawn as (op-code, seed) pairs; the driver turns
# them into valid mutations against the evolving table.
OPS = ["add", "remove", "update", "score", "rule"]
mutation_scripts = st.lists(
    st.tuples(st.integers(0, len(OPS) - 1), st.integers(0, 2**16)),
    min_size=1,
    max_size=40,
)


# Snapshot strides small enough that the tables here (n of about 8 to
# 50) restore from snapshots inside independent runs and inside member
# stretches, and across factor-tree resizes; at the default stride
# every restore would start from row 0.
SMALL_STRIDES = pytest.mark.parametrize("block", [2, 5])


@pytest.fixture
def stride(monkeypatch, block):
    monkeypatch.setattr("repro.dynamic.index.BLOCK", block)


class TestInterleavedMutations:
    # Pinned: the first rule lands behind a restored snapshot taken
    # inside the rule-free table's only run; rule slots outgrow the
    # factor tree mid-table.
    @SMALL_STRIDES
    @given(script=mutation_scripts, k=st.integers(1, 4),
           seed=st.integers(0, 1000))
    @example(script=[(0, 55842), (3, 35866), (4, 5237), (0, 61336)],
             k=3, seed=494)
    @example(script=[(4, 62246), (4, 24250), (4, 3275), (4, 46628)],
             k=2, seed=315)
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_every_step_bitwise_equal_to_cold_scan(
        self, stride, script, k, seed
    ):
        table = UncertainTable(name="t")
        driver = MutationDriver(table, seed=seed)
        driver.seed_tuples(8)
        prepared, warm, cold = twin_indexes(table)
        for op_index, op_seed in script:
            driver.rng.seed(op_seed)
            op = OPS[op_index] if len(table) >= 3 else "add"
            delta = driver.emit(op)
            if delta is None:
                continue
            prepared, indexes = step_both(prepared, warm, cold, table, delta)
            for index in indexes:
                tids, out = cold_probabilities(table, k)
                assert tuple(index.tids) == tids
                assert np.array_equal(out, index.topk_probabilities(k))

    @SMALL_STRIDES
    @given(script=mutation_scripts, k=st.integers(1, 4),
           seed=st.integers(0, 1000), threshold=st.floats(0.05, 0.95))
    @example(script=[(0, 60071), (3, 48184), (2, 12924), (4, 6816),
                     (2, 6029)], k=2, seed=951, threshold=0.28)
    @example(script=[(4, 62246), (4, 24250), (4, 3275), (4, 46628)],
             k=2, seed=315, threshold=0.44)
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_lazy_scan_answer_equals_cold_threshold_set(
        self, stride, script, k, seed, threshold
    ):
        # The prune-bounded lazy path: interleave mutations with
        # scan_answer reads only — never topk_probabilities, so the
        # index's scan genuinely lags — and pin the answer set plus the
        # scanned prefix's values to the cold full column at every
        # step.  A final full read checks that the chain of partial
        # scans and restores composes bitwise into the uninterrupted
        # scan.
        table = UncertainTable(name="t")
        driver = MutationDriver(table, seed=seed)
        driver.seed_tuples(8)
        prepared, warm, cold = twin_indexes(table)
        for op_index, op_seed in script:
            driver.rng.seed(op_seed)
            op = OPS[op_index] if len(table) >= 3 else "add"
            delta = driver.emit(op)
            if delta is None:
                continue
            prepared, indexes = step_both(prepared, warm, cold, table, delta)
            for index in indexes:
                answers, probabilities, depth = index.scan_answer(
                    k, threshold
                )
                tids, out = cold_probabilities(table, k)
                expected = [
                    t for i, t in enumerate(tids) if out[i] >= threshold
                ]
                assert answers == expected
                assert depth <= len(tids)
                for position in range(depth):
                    assert probabilities[tids[position]] == out[position]
        for index in (warm, cold):
            tids, out = cold_probabilities(table, k)
            assert tuple(index.tids) == tids
            assert np.array_equal(out, index.topk_probabilities(k))

    @given(script=mutation_scripts, k=st.integers(1, 3),
           seed=st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_engine_dynamic_answers_match_fraction_oracle(
        self, script, k, seed
    ):
        # Small n so world enumeration stays cheap; the Fraction oracle
        # decides threshold membership in exact arithmetic.
        db = UncertainDB()
        table = UncertainTable(name="t")
        db.register(table, name="t")
        db.enable_dynamic(cap=4)
        driver = MutationDriver(table, seed=seed)
        for _ in range(5):
            delta = driver.emit("add")
            if delta is not None:
                feed(db, table, delta)
        threshold = 0.3
        for op_index, op_seed in script[:12]:
            driver.rng.seed(op_seed)
            op = OPS[op_index] if len(table) >= 3 else "add"
            delta = driver.emit(op)
            if delta is None:
                continue
            feed(db, table, delta)
            if not len(table):
                continue
            answer = db.ptk("t", k=k, threshold=threshold)
            assert answer.method == "dynamic"
            oracle = naive_topk_probabilities(
                table, TopKQuery(k=k), exact=True
            )
            expected = [
                tup.tid for tup in table.ranked_tuples()
                if oracle[tup.tid] >= Fraction(threshold)
            ]
            # the DP's compensated floats may sit an ulp off the exact
            # rational at the boundary; everything strictly inside the
            # threshold on either side must agree
            for tid in set(answer.answers) ^ set(expected):
                distance = abs(
                    oracle[tid] - Fraction(threshold)
                )
                assert distance < Fraction(1, 10**9), (
                    f"{tid}: Pr^k={float(oracle[tid])} vs "
                    f"threshold {threshold}"
                )

    @given(script=mutation_scripts, seed=st.integers(0, 1000))
    @example(script=[(0, 0), (2, 2), (3, 0), (4, 2)], seed=103)
    @settings(max_examples=15, deadline=None)
    def test_exact_engine_agreement_after_script(self, script, seed):
        # Answer sets must match the scalar exact engine; the values are
        # pinned bitwise to the columnar scan, the index's contract.
        # The scalar engine sums in a different order and may sit an ulp
        # away (the pinned example: Pr^3(t9) differs in the last digits).
        db = UncertainDB()
        table = UncertainTable(name="t")
        db.register(table, name="t")
        db.enable_dynamic(cap=4)
        driver = MutationDriver(table, seed=seed)
        for _ in range(10):
            delta = driver.emit("add")
            if delta is not None:
                feed(db, table, delta)
        for op_index, op_seed in script:
            driver.rng.seed(op_seed)
            op = OPS[op_index] if len(table) >= 3 else "add"
            delta = driver.emit(op)
            if delta is not None:
                feed(db, table, delta)
        answer = db.ptk("t", k=3, threshold=0.25)
        assert answer.method == "dynamic"
        cold = exact_ptk_query(table, TopKQuery(k=3), 0.25)
        assert answer.answers == cold.answers
        column = dict(zip(*cold_probabilities(table, 3)))
        for tid, probability in answer.probabilities.items():
            assert probability == column[tid]


# ----------------------------------------------------------------------
# Prepare refresh: every refreshed preparation equals a cold prepare
# ----------------------------------------------------------------------
def refresh_table(seed):
    """Integer tids (so each can gain a ``str()`` twin) under two
    multi-tuple rules."""
    rng = random.Random(seed)
    table = UncertainTable(name="t")
    for tid in range(12):
        table.add(tid, float(rng.randint(0, 20)), 0.2)
    table.add_exclusive("r0", 0, 1, 2)
    table.add_exclusive("r1", 3, 4)
    return table


def emit_twin(table, rng):
    """A sort-key collision: add the ``str()`` twin of an integer tid at
    its score, or move one of a twin pair onto its partner's score."""
    previous = table.version
    pairs = [t for t in table.tuple_ids() if str(t) in table and t != str(t)]
    if pairs and rng.random() < 0.5:
        tid = rng.choice(pairs)
        mover, anchor = rng.choice([(tid, str(tid)), (str(tid), tid)])
        score = table.get(anchor).score
        table.update_score(mover, score)
        return TableDelta("t", "score", previous, table.version,
                          tid=mover, score=score)
    singles = [
        t for t in table.tuple_ids()
        if isinstance(t, int) and str(t) not in table
    ]
    if not singles:
        return None
    tid = rng.choice(singles)
    score = table.get(tid).score
    table.add(str(tid), score, 0.3)
    return TableDelta("t", "add", previous, table.version,
                      tid=str(tid), score=score, probability=0.3)


def score_collides(table, delta):
    """True when a score move landed on a sort key another tuple holds."""
    if delta.op != "score":
        return False
    moved = table.get(delta.tid)
    return any(
        other.tid != moved.tid
        and other.score == moved.score
        and str(other.tid) == str(moved.tid)
        for other in table
    )


def assert_columns_bitwise(got, expected):
    assert got.tids == expected.tids
    for name in ("score", "probability", "rule_index"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.rule_ids == expected.rule_ids


class TestPrepareRefreshProperty:
    # Op-codes past OPS draw a collision write (emit_twin).
    @given(
        script=st.lists(
            st.tuples(st.integers(0, len(OPS)), st.integers(0, 2**16)),
            min_size=1,
            max_size=40,
        ),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_refresh_equals_cold_prepare(self, script, seed):
        # Removes and updates pick any tuple, rule members included, so
        # the script shrinks rules, dissolves them, and re-sums Pr(R).
        table = refresh_table(seed)
        driver = MutationDriver(table, seed=seed)
        query = TopKQuery(k=3)
        prepared = prepare_ranking(table, query)
        for op_index, op_seed in script:
            driver.rng.seed(op_seed)
            if len(table) < 3:
                delta = driver.emit("add")
            elif op_index == len(OPS):
                delta = emit_twin(table, driver.rng)
            else:
                delta = driver.emit(OPS[op_index])
            if delta is None:
                continue
            # Two steps in three refresh a preparation with materialised
            # columns; the third drops the cached property's value, so
            # the lazy path is exercised mid-script too.
            columnar = op_seed % 3 != 0
            if columnar:
                prepared.columns
            else:
                prepared.__dict__.pop("columns", None)
            refreshed = refresh_prepared(prepared, table, delta)
            cold = prepare_ranking(table, query)
            if refreshed is None:
                assert score_collides(table, delta)
                prepared = cold
                continue
            if columnar:
                assert_columns_bitwise(refreshed.__dict__["columns"],
                                       cold.columns)
            else:
                assert "columns" not in refreshed.__dict__
            assert refreshed.ranked == cold.ranked
            assert refreshed.tids == cold.tids
            assert dict(refreshed.rule_of) == dict(cold.rule_of)
            assert {
                rule_id: value.hex()
                for rule_id, value in refreshed.rule_probability.items()
            } == {
                rule_id: value.hex()
                for rule_id, value in cold.rule_probability.items()
            }
            assert refreshed.source_version == cold.source_version
            prepared = refreshed


# ----------------------------------------------------------------------
# Crash recovery: SIGKILL mid-mutation, then dynamic == cold
# ----------------------------------------------------------------------
_KILL_SCRIPT = """
import random
import sys
from repro.durable import DurableDB
from repro.model.table import UncertainTable

db = DurableDB(sys.argv[1], fsync="off")
table = UncertainTable(name="killed")
db.register(table, name="killed")
rng = random.Random(7)
for i in range(40):
    db.add("killed", f"s{i}", float(rng.randint(0, 500)), 0.2 + 0.015 * (i % 40))
print("READY", flush=True)
i = 40
while True:
    roll = rng.random()
    tids = db.table("killed").tuple_ids()
    if roll < 0.5:
        db.add("killed", f"s{i}", float(rng.randint(0, 500)), 0.4)
        i += 1
    elif roll < 0.7:
        db.update_probability("killed", rng.choice(tids), rng.uniform(0.05, 0.9))
    elif roll < 0.9:
        db.update_score("killed", rng.choice(tids), float(rng.randint(0, 500)))
    else:
        db.remove_tuple("killed", rng.choice(tids))
"""


def test_sigkill_recovery_then_dynamic_equals_cold(tmp_path):
    from repro.durable import DurableDB

    process = subprocess.Popen(
        [sys.executable, "-c", _KILL_SCRIPT, str(tmp_path)],
        stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    try:
        assert process.stdout.readline().strip() == b"READY"
        time.sleep(0.4)
    finally:
        process.send_signal(signal.SIGKILL)
        process.wait()

    db = DurableDB(tmp_path, fsync="off")
    try:
        db.enable_dynamic(cap=8)
        table = db.table("killed")
        table.validate()
        for k in (1, 3, 5):
            answer = db.ptk("killed", k=k, threshold=0.2)
            assert answer.method == "dynamic"
            cold = exact_ptk_query(table, TopKQuery(k=k), 0.2)
            assert answer.answers == cold.answers
            for tid in answer.answers:
                assert answer.probabilities[tid] == cold.probabilities[tid]
        # keep mutating the recovered state: deltas chain on recovery's
        # versions, byte-exactly
        db.update_score("killed", table.tuple_ids()[0], 999.0)
        db.add("killed", "post-crash", 998.0, 0.9)
        answer = db.ptk("killed", k=3, threshold=0.2)
        assert answer.method == "dynamic"
        assert db.dynamic.fallbacks == {}
        cold = exact_ptk_query(table, TopKQuery(k=3), 0.2)
        assert answer.answers == cold.answers
    finally:
        db.close()


# ----------------------------------------------------------------------
# Replica apply: the shipped WAL drives the replica's index to byte
# equality with the primary's
# ----------------------------------------------------------------------
def test_replica_dynamic_answers_equal_primary(tmp_path):
    from repro.durable import DurableDB
    from repro.durable import wal as wal_mod
    from repro.replication.replica import ReplicaApplier

    primary = DurableDB(tmp_path, fsync="off")
    table = UncertainTable(name="shared")
    primary.register(table, name="shared")
    primary.enable_dynamic(cap=6)
    driver = MutationDriver(primary.table("shared"), seed=11, name="shared")
    import random as _random

    rng = _random.Random(3)
    for i in range(30):
        primary.add("shared", f"p{i}", float(rng.randint(0, 200)),
                    0.1 + 0.02 * (i % 40))
    for _ in range(25):
        tids = primary.table("shared").tuple_ids()
        roll = rng.random()
        if roll < 0.4:
            primary.update_probability("shared", rng.choice(tids),
                                       rng.uniform(0.05, 0.9))
        elif roll < 0.7:
            primary.update_score("shared", rng.choice(tids),
                                 float(rng.randint(0, 200)))
        elif roll < 0.85:
            primary.remove_tuple("shared", rng.choice(tids))
        else:
            primary.add("shared", f"x{rng.randint(0, 10**6)}",
                        float(rng.randint(0, 200)), 0.5)
    records, _, _ = wal_mod.replay_wal(primary.data_dir / "wal")

    replica = ReplicaApplier()
    replica.db.enable_dynamic(cap=6)
    registers = [r for r in records if r["op"] == "register"]
    mutations = [r for r in records
                 if r["op"] not in ("register", "serve")]
    replica.apply_batch({"records": registers, "cursor": "0:1"})
    replica.db.ptk("shared", k=3, threshold=0.2)  # build before the stream
    replica.apply_batch({"records": mutations, "cursor": "0:2"})

    primary_answer = primary.ptk("shared", k=3, threshold=0.2)
    replica_answer = replica.db.ptk("shared", k=3, threshold=0.2)
    assert primary_answer.method == replica_answer.method == "dynamic"
    assert replica.db.dynamic.deltas_applied > 0
    assert replica.db.dynamic.fallbacks == {}
    assert replica_answer.answers == primary_answer.answers
    assert replica_answer.probabilities == primary_answer.probabilities
    primary.close()
