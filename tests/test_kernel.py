"""Tests for the columnar kernel: primitives, parity, and zero-copy serving.

The kernel (:mod:`repro.core.kernel`) promises three things this module
pins down:

* every probability summation routes through one compensated primitive,
  so no two code paths can disagree about the same partial sum;
* the vectorized full scan stays within ``1e-12`` of the retained
  scalar implementation on every table shape;
* the scan is resumable bitwise: pausing anywhere changes no bit, and
  its Theorem-5-pruned read equals the incremental index's; and
* snapshot recovery can serve full scans from memory-mapped columns
  without materialising tuple objects.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernel
from repro.core.exact import ExactVariant, exact_ptk_query, exact_topk_probabilities
from repro.core.kernel import (
    RunningSum,
    TableColumns,
    TopKScanState,
    columnar_dp_rows,
    columnar_topk_scan,
    compensated_sum,
    dp_extend,
    dp_extend_chain,
    fewer_than_k,
    fewer_than_k_batch,
    ranked_order,
)
from repro.core.reordering import LazyReordering, PrefixSharedDP
from repro.core.rule_compression import DominantSetScan
from repro.core.subset_probability import SubsetProbabilityVector
from repro.durable.snapshot import (
    open_latest_snapshot_columns,
    open_snapshot_columns,
    write_snapshot,
)
from repro.dynamic import DynamicIndex
from repro.exceptions import QueryError
from repro.model.table import UncertainTable
from repro.query.prepare import prepare_ranking
from repro.query.topk import TopKQuery
from repro.semantics.naive import naive_topk_probabilities
from tests.conftest import build_table, uncertain_tables

ALL_VARIANTS = list(ExactVariant)

#: A vector whose naive (pairwise) ``ndarray.sum()`` differs from the
#: exactly rounded ``math.fsum`` by one ulp — the shape of the summation
#: divergence this PR removes from ``exact._evaluate``.
ULP_VECTOR = [0.0833, 0.12, 0.0784, 0.0974, 0.1039, 0.0635, 0.0478]

#: Independent probabilities whose Theorem-2 DP vector entries fsum to
#: ``0.9999999999999999`` although the true total is exactly 1: a tuple
#: scanned right after them, with fewer than k units ahead, has a true
#: ``Pr(|T(t)| < k)`` of exactly 1 that a summed DP would understate.
SHORT_SCAN_PREFIX = [0.773, 0.453, 0.122, 0.338]


def random_table(
    seed: int,
    n: int,
    rule_fraction: float = 0.3,
    hot_rules: bool = False,
) -> UncertainTable:
    """A seeded random table with controllable rule density.

    With ``hot_rules`` some rules sum near (or exactly to) 1.0, forcing
    the kernel off the divide-out fast path and onto the rebuild path.
    """
    rng = random.Random(seed)
    table = UncertainTable(name=f"random-{seed}-{n}")
    for i in range(n):
        table.add(
            f"t{i:05d}",
            score=rng.uniform(0.0, 1000.0),
            probability=rng.uniform(0.01, 0.99),
        )
    in_rules = int(n * rule_fraction)
    indices = rng.sample(range(n), in_rules)
    g = 0
    while len(indices) >= 2:
        size = min(rng.randint(2, 5), len(indices))
        members = [indices.pop() for _ in range(size)]
        if hot_rules and g % 3 == 0:
            # Certain rule: members share probability 1/size exactly.
            share = 1.0 / size
            for i in members:
                table.update_probability(f"t{i:05d}", share)
        else:
            total = math.fsum(table.probability(f"t{i:05d}") for i in members)
            if total > 0.95:
                scale = 0.95 / total
                for i in members:
                    table.update_probability(
                        f"t{i:05d}", table.probability(f"t{i:05d}") * scale
                    )
        table.add_exclusive(f"r{g}", *[f"t{i:05d}" for i in members])
        g += 1
    return table


class TestSummationPrimitive:
    def test_compensated_sum_is_fsum(self):
        values = [1e16, 1.0, -1e16, 1.0]
        assert compensated_sum(values) == math.fsum(values) == 2.0

    def test_compensated_sum_accepts_ndarray(self):
        array = np.array(ULP_VECTOR)
        assert compensated_sum(array) == math.fsum(ULP_VECTOR)

    def test_fewer_than_k_uses_exact_rounding(self):
        # Regression for the PR-6-era bug: exact._evaluate used a naive
        # ndarray .sum() while the DP vector class used fsum, so the
        # same vector produced two different "Pr fewer than k" values.
        vector = np.array(ULP_VECTOR)
        naive = float(vector.sum())
        exact = math.fsum(ULP_VECTOR)
        assert naive != exact  # the fixture really straddles an ulp
        assert fewer_than_k(vector, len(ULP_VECTOR)) == exact

    def test_fewer_than_k_clamps_at_one(self):
        vector = np.array([0.7, 0.2, 0.1 + 1e-13])
        assert fewer_than_k(vector, 3) == 1.0

    def test_fewer_than_k_prefix(self):
        vector = np.array([0.5, 0.25, 0.25])
        assert fewer_than_k(vector, 1) == 0.5
        assert fewer_than_k(vector, 2) == 0.75

    def test_fewer_than_k_rejects_bad_k(self):
        vector = np.zeros(4)
        with pytest.raises(QueryError):
            fewer_than_k(vector, -1)
        with pytest.raises(QueryError):
            fewer_than_k(vector, 5)

    def test_batch_matches_scalar_rows(self):
        rng = random.Random(3)
        matrix = np.array(
            [[rng.uniform(0.0, 0.2) for _ in range(6)] for _ in range(40)]
        )
        for k in (1, 3, 6):
            batch = fewer_than_k_batch(matrix, k)
            for row, value in zip(matrix, batch):
                assert value == fewer_than_k(row, k)

    def test_batch_empty(self):
        assert fewer_than_k_batch(np.empty((0, 4)), 2).shape == (0,)

    def test_running_sum_matches_fsum(self):
        rng = random.Random(11)
        values = [rng.uniform(0.0, 1.0) * 10 ** rng.randint(-12, 0) for _ in range(5000)]
        acc = RunningSum()
        for v in values:
            acc.add(v)
        assert acc.count == len(values)
        assert acc.value == pytest.approx(math.fsum(values), abs=1e-15)

    def test_add_until_stops_where_repeated_add_crosses(self):
        rng = random.Random(3)
        values = [rng.uniform(0.0, 1.0) for _ in range(500)]
        limit = 100.3
        one_by_one = RunningSum()
        for crossed, value in enumerate(values, 1):
            one_by_one.add(value)
            if one_by_one.value > limit:
                break
        chunked = RunningSum()
        assert chunked.add_until(values[:123], limit) is None
        assert chunked.add_until(values[123:], limit) == crossed - 123
        assert chunked.value == one_by_one.value  # bitwise
        assert chunked.count == crossed

    def test_running_sum_compensates_where_naive_drifts(self):
        # 1 followed by many tiny terms: naive += loses every tiny term.
        acc = RunningSum()
        acc.add(1.0)
        for _ in range(1000):
            acc.add(1e-17)
        naive = 1.0
        for _ in range(1000):
            naive += 1e-17
        assert naive == 1.0  # the drifting behaviour being replaced
        assert acc.value == pytest.approx(1.0 + 1e-14, rel=1e-12)


class TestDPPrimitives:
    def test_dp_extend_matches_subset_vector(self):
        rng = random.Random(5)
        probs = [rng.uniform(0.01, 0.99) for _ in range(40)]
        vector = SubsetProbabilityVector(cap=8)
        for p in probs:
            vector.extend(p)
        batched = np.zeros(8)
        batched[0] = 1.0
        count = dp_extend(batched, np.array(probs))
        assert count == len(probs)
        assert np.array_equal(batched, np.array(vector.values))

    def test_dp_extend_chain_rows_are_prefixes(self):
        rng = random.Random(6)
        probs = np.array([rng.uniform(0.01, 0.99) for _ in range(20)])
        initial = np.zeros(5)
        initial[0] = 1.0
        chain = dp_extend_chain(initial, probs)
        assert chain.shape == (21, 5)
        rolling = initial.copy()
        assert np.array_equal(chain[0], rolling)
        for i, p in enumerate(probs):
            dp_extend(rolling, np.array([p]))
            assert np.array_equal(chain[i + 1], rolling)


class TestTableColumns:
    def test_from_ranked_and_unit_counts(self):
        table = build_table(
            [0.5, 0.4, 0.3, 0.2, 0.1], rule_groups=[[1, 3], [2, 4]]
        )
        prepared = prepare_ranking(table, TopKQuery(k=2))
        columns = TableColumns.from_ranked(prepared.ranked, prepared.rule_of)
        assert len(columns) == 5
        assert columns.tids == tuple(t.tid for t in prepared.ranked)
        assert columns.probability.dtype == np.float64
        assert columns.rule_index.dtype == np.int64
        assert set(columns.rule_ids) == {"r0", "r1"}
        # t0 is independent; the rest pair off into two rules.
        assert columns.unit_counts() == (1, 2, 2)

    def test_prepared_ranking_caches_columns(self):
        table = build_table([0.9, 0.5, 0.3], rule_groups=[])
        prepared = prepare_ranking(table, TopKQuery(k=2))
        assert prepared.columns is prepared.columns
        assert prepared.columns.tids == ("t0", "t1", "t2")

    def test_ranked_order_matches_python_sort(self):
        rng = random.Random(9)
        tids = [f"t{i:03d}" for i in range(200)]
        scores = [float(rng.randint(0, 40)) for _ in tids]  # heavy ties
        order = ranked_order(np.array(scores), tids)
        vectorized = [tids[i] for i in order]
        expected = [
            tid
            for tid, _ in sorted(
                zip(tids, scores), key=lambda pair: (-pair[1], str(pair[0]))
            )
        ]
        assert vectorized == expected


class TestColumnarScalarParity:
    """The columnar kernel vs the scalar oracle: <= 1e-12, all shapes."""

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    @pytest.mark.parametrize("k", [1, 5, 50])
    @pytest.mark.parametrize("seed,rule_fraction,hot", [
        (101, 0.0, False),   # independent-only
        (202, 0.35, False),  # mixed
        (303, 0.8, False),   # rule-heavy
        (404, 0.6, True),    # hot rules: divide-out unsafe, rebuild path
    ])
    def test_parity_on_random_tables(self, variant, k, seed, rule_fraction, hot):
        table = random_table(seed, 120, rule_fraction=rule_fraction, hot_rules=hot)
        query = TopKQuery(k=k)
        columnar = exact_topk_probabilities(
            table, query, variant=variant, columnar=True
        )
        scalar = exact_topk_probabilities(
            table, query, variant=variant, columnar=False
        )
        assert set(columnar) == set(scalar)
        for tid, value in columnar.items():
            assert abs(value - scalar[tid]) <= 1e-12, tid

    @given(uncertain_tables(max_tuples=12), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_parity_property(self, table, k):
        query = TopKQuery(k=k)
        columnar = exact_topk_probabilities(table, query, columnar=True)
        scalar = exact_topk_probabilities(table, query, columnar=False)
        for tid, value in columnar.items():
            assert abs(value - scalar[tid]) <= 1e-12

    @given(uncertain_tables(max_tuples=9), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_columnar_matches_exact_enumeration(self, table, k):
        query = TopKQuery(k=k)
        columnar = exact_topk_probabilities(table, query, columnar=True)
        truth = naive_topk_probabilities(table, query, exact=True)
        for tid, value in columnar.items():
            assert abs(value - float(truth[tid])) <= 1e-9

    def test_many_members_of_one_hot_rule(self):
        # Ten members summing to exactly 1.0: every member after the
        # first needs its rule-tuple divided back out of a DP whose
        # rule factor is the clamped q = 1.0 — rebuild territory.
        table = build_table(
            [0.1] * 10 + [0.5, 0.4], rule_groups=[list(range(10))]
        )
        query = TopKQuery(k=3)
        columnar = exact_topk_probabilities(table, query, columnar=True)
        scalar = exact_topk_probabilities(table, query, columnar=False)
        for tid in columnar:
            assert abs(columnar[tid] - scalar[tid]) <= 1e-12

    def test_full_scan_answer_shape(self):
        table = random_table(7, 50, rule_fraction=0.4)
        answer = exact_ptk_query(table, TopKQuery(k=5), 0.0)
        assert answer.answers == []
        assert answer.stats.stopped_by == "exhausted"
        assert answer.stats.scan_depth == 50
        assert len(answer.probabilities) == 50
        assert answer.stats.subset_extensions > 0


class TestUlpStraddleRegression:
    """True Pr^k values sitting exactly on the threshold must classify
    exactly — the bug class this PR fixes."""

    def test_short_scan_probability_is_exact(self):
        # After SHORT_SCAN_PREFIX the DP vector's float entries fsum to
        # one ulp below 1 although the true total is exactly 1.  The
        # next tuple has fewer than k units ahead, so its Pr^k is its
        # membership probability *exactly*; with threshold equal to it,
        # membership must not depend on that missing ulp.
        probabilities = SHORT_SCAN_PREFIX + [0.4, 0.9]
        vector = SubsetProbabilityVector(cap=6)
        for p in SHORT_SCAN_PREFIX:
            vector.extend(p)
        assert math.fsum(vector.values.tolist()) < 1.0  # the trap is real
        table = build_table(probabilities, rule_groups=[])
        answer = exact_ptk_query(table, TopKQuery(k=6), 0.4, pruning=False)
        assert answer.probabilities["t4"] == 0.4
        assert "t4" in answer.answer_set

    def test_short_scan_is_exact_in_both_engines(self):
        probabilities = SHORT_SCAN_PREFIX + [0.4, 0.9]
        table = build_table(probabilities, rule_groups=[])
        query = TopKQuery(k=6)
        for columnar in (True, False):
            result = exact_topk_probabilities(table, query, columnar=columnar)
            assert result["t4"] == 0.4
            # every tuple ahead of position k is served the exact 1 * p
            for i, p in enumerate(probabilities[:5]):
                assert result[f"t{i}"] == p

    @given(uncertain_tables(max_tuples=8), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_membership_matches_exact_oracle_on_boundaries(self, table, k):
        query = TopKQuery(k=k)
        truth = naive_topk_probabilities(table, query, exact=True)
        for threshold in (0.25, 0.5):
            answer = exact_ptk_query(table, query, threshold, pruning=False)
            expected = {tid for tid, pr in truth.items() if pr >= threshold}
            assert answer.answer_set == expected


class TestSnapshotColumnServing:
    """Zero-copy recovery: snapshot -> memory-mapped kernel columns."""

    def sample_table(self) -> UncertainTable:
        table = random_table(42, 60, rule_fraction=0.3)
        return table

    def test_columns_are_memory_mapped(self, tmp_path):
        table = self.sample_table()
        path = write_snapshot(table, tmp_path)
        columns = open_snapshot_columns(path)
        assert isinstance(columns.score, np.memmap)
        assert isinstance(columns.probability, np.memmap)
        assert not columns.score.flags.writeable
        assert not columns.probability.flags.writeable
        assert len(columns) == len(table)
        for tid in columns.tids:
            assert columns.probability[columns.tids.index(tid)] == pytest.approx(
                table.probability(tid)
            )

    def test_snapshot_scan_matches_live_engine(self, tmp_path):
        table = self.sample_table()
        path = write_snapshot(table, tmp_path)
        columns = open_snapshot_columns(path)
        for k in (1, 5):
            from_snapshot = columns.topk_probabilities(k)
            live = exact_topk_probabilities(table, TopKQuery(k=k))
            assert set(from_snapshot) == set(live)
            for tid, value in from_snapshot.items():
                assert value == live[tid]

    def test_serving_materialises_no_tuples(self, tmp_path, monkeypatch):
        table = self.sample_table()
        path = write_snapshot(table, tmp_path)

        import repro.model.tuples as tuples_module

        def exploding_init(self, *args, **kwargs):  # pragma: no cover
            raise AssertionError(
                "snapshot column serving must not build UncertainTuple objects"
            )

        monkeypatch.setattr(
            tuples_module.UncertainTuple, "__init__", exploding_init
        )
        columns = open_snapshot_columns(path)
        result = columns.topk_probabilities(3)
        assert len(result) == len(columns)

    def test_open_latest_picks_newest_and_skips_corrupt(self, tmp_path):
        table = self.sample_table()
        old = write_snapshot(table, tmp_path)
        table.add("t_new", score=5000.0, probability=0.5)
        newest = write_snapshot(table, tmp_path)
        columns = open_latest_snapshot_columns(tmp_path, table.name)
        assert columns is not None
        assert columns.path == newest
        assert "t_new" in columns.tids
        # Corrupt the newest body: the opener must fall back to the old one.
        data = bytearray(newest.read_bytes())
        data[-1] ^= 0xFF
        newest.write_bytes(bytes(data))
        fallback = open_latest_snapshot_columns(tmp_path, table.name)
        assert fallback is not None
        assert fallback.path == old

    def test_open_latest_handles_missing(self, tmp_path):
        assert open_latest_snapshot_columns(tmp_path, "nope") is None
        assert open_latest_snapshot_columns(tmp_path / "absent", "x") is None


@st.composite
def scan_tables(draw, max_tuples: int = 40):
    """Tables with multi-tuple rules, some of them certain (``q = 1``).

    Scores are a random permutation so members scatter through the
    ranking; a certain rule's members share ``1/size`` exactly.
    """
    n = draw(st.integers(1, max_tuples))
    probabilities = [
        draw(st.floats(0.01, 0.99, allow_nan=False, allow_infinity=False))
        for _ in range(n)
    ]
    rng = random.Random(draw(st.integers(0, 2**31 - 1)))
    scores = [float(v) for v in rng.sample(range(10 * n + 10), n)]
    indices = list(range(n))
    rng.shuffle(indices)
    rule_groups = []
    cursor = 0
    for _ in range(draw(st.integers(0, n // 2))):
        if cursor + 2 > n:
            break
        size = draw(st.integers(2, min(5, n - cursor)))
        group = indices[cursor : cursor + size]
        cursor += size
        if draw(st.booleans()):
            for i in group:
                probabilities[i] = 1.0 / size
        else:
            total = math.fsum(probabilities[i] for i in group)
            if total > 0.95:
                for i in group:
                    probabilities[i] *= 0.95 / total
        rule_groups.append(group)
    return build_table(probabilities, rule_groups, scores=scores)


class TestResumableScan:
    """:class:`TopKScanState`: pausing is bitwise neutral, and the
    Theorem-5-pruned read matches the incremental index and the scalar
    engine."""

    @given(
        scan_tables(),
        st.integers(1, 45),
        st.lists(st.integers(0, 45), max_size=8),
        st.floats(0.01, 1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_paused_scan_and_pruned_read(self, table, k, pauses, threshold):
        query = TopKQuery(k=k)
        columns = prepare_ranking(table, query).columns
        n = len(columns)
        reference, extensions = columnar_topk_scan(
            columns.probability, columns.rule_index, k
        )

        # 1. Pausing anywhere is bitwise neutral.
        state = TopKScanState(columns.probability, columns.rule_index, k)
        for pause in sorted(p % (n + 1) for p in pauses):
            state.advance(pause)
            assert state.done == pause
        state.advance(n)
        assert state.done == n
        assert state.out.tobytes() == reference.tobytes()
        assert state.extensions == extensions

        # 2. The pruned read equals the incremental index's
        #    Theorem-5-bounded read, also from a state paused before or
        #    past its stop depth.
        read = exact_ptk_query(
            table, query, threshold, prepared=prepare_ranking(table, query),
            columnar=True,
        )
        prepared = prepare_ranking(table, query)
        dynamic = DynamicIndex.build(prepared).scan_answer(
            prepared.columns, k, threshold
        )
        assert read.answers == dynamic.answers
        assert read.probabilities == dynamic.probabilities
        depth = dynamic.stats.scan_depth
        assert read.stats.scan_depth == depth
        paused = TopKScanState(columns.probability, columns.rule_index, k)
        if pauses:
            paused.advance(pauses[0] % (n + 1))
        assert paused.theorem5_depth(k - threshold)[0] == depth

        # 3. The answer set is the scalar engine's, up to tuples whose
        #    Pr^k lies within 1e-9 of the threshold.
        scalar = exact_ptk_query(table, query, threshold)
        borderline = {
            tid
            for tid, value in zip(columns.tids, reference.tolist())
            if abs(value - threshold) <= 1e-9
        }
        assert read.answer_set - borderline == scalar.answer_set - borderline

    def test_pause_inside_a_run_after_a_rule(self):
        # A rule ahead of a long independent run: resuming mid-run must
        # continue the run's chain, not re-derive v_independent x root.
        table = random_table(17, 200, rule_fraction=0.3)
        columns = prepare_ranking(table, TopKQuery(k=8)).columns
        reference, _ = columnar_topk_scan(
            columns.probability, columns.rule_index, 8
        )
        state = TopKScanState(columns.probability, columns.rule_index, 8)
        for stop in range(0, 201, 7):
            state.advance(stop)
        state.advance(200)
        assert state.out.tobytes() == reference.tobytes()

    @given(scan_tables(), st.integers(1, 12), st.data())
    @settings(max_examples=150, deadline=None)
    def test_restored_snapshot_rebases_to_cold_scan(self, table, k, data):
        # A snapshot taken at row s, restored after the scan ran on and
        # rebased onto columns that agree on [0, s) but whose suffix
        # brings a rule slot past the factor tree's power-of-two size
        # (or the table's first rule), continues bitwise as the cold
        # scan of the new columns.
        columns = prepare_ranking(table, TopKQuery(k=k)).columns
        n = len(columns)
        s = data.draw(st.integers(0, n - 1), label="s")
        state = TopKScanState(columns.probability, columns.rule_index, k)
        state.advance(s)
        snapshot = state.snapshot()
        state.advance(n)
        original = state.out
        slot_count = int(columns.rule_index.max()) + 1
        size = 1
        while size < max(slot_count, 1):
            size *= 2
        suffix = data.draw(
            st.lists(
                st.tuples(st.floats(0.01, 0.3), st.integers(-1, size)),
                min_size=1,
                max_size=30,
            ),
            label="suffix",
        )
        suffix[data.draw(st.integers(0, len(suffix) - 1))] = (0.2, size)
        probability = np.concatenate(
            [columns.probability[:s], [p for p, _ in suffix]]
        )
        rule_index = np.concatenate(
            [columns.rule_index[:s], [slot for _, slot in suffix]]
        ).astype(np.int64)
        state.restore(snapshot)
        assert state.done == s
        state.rebase(probability, rule_index)
        state.advance(len(probability))
        reference, _ = columnar_topk_scan(probability, rule_index, k)
        assert state.out.tobytes() == reference.tobytes()
        # the column the scan returned before the rebase is untouched
        cold, _ = columnar_topk_scan(
            columns.probability, columns.rule_index, k
        )
        assert original.tobytes() == cold.tobytes()

    def test_theorem5_depth_reports_reason_and_prices_one_chunk_past(self):
        table = random_table(5, 300, rule_fraction=0.3)
        columns = prepare_ranking(table, TopKQuery(k=10)).columns
        state = TopKScanState(columns.probability, columns.rule_index, 10)
        depth, reason = state.theorem5_depth(10 - 0.3)
        assert reason == "total-probability"
        assert depth <= state.done < depth + kernel.ANSWER_CHUNK
        priced = state.done
        assert state.theorem5_depth(10 - 0.3) == (depth, reason)
        assert state.done == priced  # a finished read prices nothing more
        whole = TopKScanState(columns.probability, columns.rule_index, 10)
        assert whole.theorem5_depth(math.inf) == (300, "exhausted")
        assert whole.done == 300

    def test_theorem5_depth_deadline_cut(self):
        table = random_table(5, 300, rule_fraction=0.3)
        columns = prepare_ranking(table, TopKQuery(k=10)).columns
        state = TopKScanState(columns.probability, columns.rule_index, 10)
        assert state.theorem5_depth(9.7, stop_at=0.0) == (0, "deadline")
        assert state.done == 0

    def test_rejects_non_positive_k(self):
        with pytest.raises(QueryError):
            TopKScanState(np.ones(3), None, 0)


def scalar_dp_rows(table: UncertainTable, k: int) -> np.ndarray:
    """Each ranked tuple's DP vector from the scalar reference: the
    compressed dominant set, lazily reordered, through PrefixSharedDP."""
    prepared = prepare_ranking(table, TopKQuery(k=k))
    scan = DominantSetScan(prepared.ranked, prepared.rule_of)
    strategy = LazyReordering()
    dp = PrefixSharedDP(cap=k)
    previous = []
    rows = []
    for tup in prepared.ranked:
        order = strategy.order_units(scan.units_for(tup), previous)
        rows.append(dp.vector_for(order))
        previous = order
        scan.advance(tup)
    return np.array(rows).reshape(len(rows), k)


class TestDPRows:
    """:func:`columnar_dp_rows`: the scan's per-row DP vectors."""

    def assert_rows_match_scalar(self, table: UncertainTable, k: int) -> None:
        columns = prepare_ranking(table, TopKQuery(k=k)).columns
        rows = columnar_dp_rows(columns.probability, columns.rule_index, k)
        expected = scalar_dp_rows(table, k)
        assert rows.shape == expected.shape == (len(columns), k)
        assert np.max(np.abs(rows - expected), initial=0.0) <= 1e-12

    @pytest.mark.parametrize("k", [1, 5, 50])
    @pytest.mark.parametrize("seed,rule_fraction,hot", [
        (101, 0.0, False),   # independent-only
        (202, 0.35, False),  # mixed
        (303, 0.8, False),   # rule-heavy
        (404, 0.6, True),    # certain rules (q = 1)
    ])
    def test_rows_match_scalar_on_random_tables(
        self, k, seed, rule_fraction, hot
    ):
        table = random_table(seed, 120, rule_fraction=rule_fraction, hot_rules=hot)
        self.assert_rows_match_scalar(table, k)

    @given(scan_tables(max_tuples=20), st.integers(1, 25))
    @settings(max_examples=80, deadline=None)
    def test_rows_match_scalar_property(self, table, k):
        # scan_tables draws certain rules, and k often exceeds n
        self.assert_rows_match_scalar(table, k)

    def test_k_above_n(self):
        self.assert_rows_match_scalar(random_table(9, 12, rule_fraction=0.5), 30)

    def test_empty_table(self):
        rows = columnar_dp_rows(np.empty(0), np.empty(0, dtype=np.int64), 4)
        assert rows.shape == (0, 4)
        assert scalar_dp_rows(UncertainTable(name="empty"), 4).shape == (0, 4)

    @given(scan_tables(), st.integers(1, 45))
    @settings(max_examples=80, deadline=None)
    def test_capturing_rows_leaves_the_scan_bitwise_unchanged(self, table, k):
        columns = prepare_ranking(table, TopKQuery(k=k)).columns
        out, extensions = columnar_topk_scan(
            columns.probability, columns.rule_index, k
        )
        state = TopKScanState(columns.probability, columns.rule_index, k)
        state._rows = np.empty((state.n, k))
        state.advance(state.n)
        assert state.out.tobytes() == out.tobytes()
        assert state.extensions == extensions
