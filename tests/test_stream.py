"""Tests for the sliding-window / monitoring subsystem."""

import pytest

from repro.core.exact import exact_ptk_query
from repro.datagen.tracking import TrackingConfig, detection_stream
from repro.exceptions import DuplicateTupleError, QueryError, ValidationError
from repro.model.tuples import UncertainTuple
from repro.query.ranking import by_score
from repro.query.topk import TopKQuery
from repro.stream import AnswerDelta, PTKMonitor, SlidingWindowPTK


def detection(tid, score, probability=0.6):
    return UncertainTuple(tid=tid, score=score, probability=probability)


class TestWindowBasics:
    def test_validation(self):
        with pytest.raises(QueryError):
            SlidingWindowPTK(k=0, threshold=0.5, window_size=10)
        with pytest.raises(QueryError):
            SlidingWindowPTK(k=1, threshold=0.0, window_size=10)
        with pytest.raises(QueryError):
            SlidingWindowPTK(k=1, threshold=0.5, window_size=0)

    def test_append_and_len(self):
        window = SlidingWindowPTK(k=2, threshold=0.5, window_size=3)
        for i in range(3):
            window.append(detection(f"a{i}", i))
        assert len(window) == 3
        assert window.arrivals == 3

    def test_eviction_keeps_window_size(self):
        window = SlidingWindowPTK(k=2, threshold=0.5, window_size=3)
        for i in range(10):
            window.append(detection(f"a{i}", i))
        assert len(window) == 3
        assert window.arrivals == 10
        table = window.snapshot_table()
        assert sorted(t.tid for t in table) == ["a7", "a8", "a9"]

    def test_duplicate_live_id_rejected(self):
        window = SlidingWindowPTK(k=2, threshold=0.5, window_size=3)
        window.append(detection("x", 1))
        with pytest.raises(ValidationError):
            window.append(detection("x", 2))

    def test_attributes_reach_the_window_table(self):
        window = SlidingWindowPTK(k=2, threshold=0.5, window_size=3)
        window.append(UncertainTuple(
            tid="x", score=1.0, probability=0.5,
            attributes={"name": "radar1", "tid": 7, "tick": 3},
        ))
        [tup] = window.snapshot_table()
        assert dict(tup.attributes) == {"name": "radar1", "tid": 7, "tick": 3}

    def test_id_reusable_after_expiry(self):
        window = SlidingWindowPTK(k=2, threshold=0.5, window_size=2)
        window.append(detection("x", 1))
        window.append(detection("y", 2))
        window.append(detection("z", 3))  # x expires
        window.append(detection("x", 4))  # fine again
        assert len(window) == 2


class TestWindowRules:
    def test_rule_mass_enforced(self):
        window = SlidingWindowPTK(k=2, threshold=0.5, window_size=10)
        window.append(detection("a", 1, 0.6), rule_tag="g")
        with pytest.raises(ValidationError):
            window.append(detection("b", 2, 0.6), rule_tag="g")

    def test_rule_mass_released_on_expiry(self):
        window = SlidingWindowPTK(k=2, threshold=0.5, window_size=2)
        window.append(detection("a", 1, 0.6), rule_tag="g")
        window.append(detection("pad", 0, 0.5))
        window.append(detection("pad2", 0, 0.5))  # a expired
        window.append(detection("b", 2, 0.9), rule_tag="g")  # ok now
        assert len(window) == 2

    def test_snapshot_builds_rules(self):
        window = SlidingWindowPTK(k=2, threshold=0.5, window_size=10)
        window.append(detection("a", 3, 0.4), rule_tag="g")
        window.append(detection("b", 2, 0.4), rule_tag="g")
        window.append(detection("c", 1, 0.9))
        table = window.snapshot_table()
        rules = table.multi_rules()
        assert len(rules) == 1
        assert set(rules[0].tuple_ids) == {"a", "b"}

    def test_singleton_group_makes_no_rule(self):
        window = SlidingWindowPTK(k=2, threshold=0.5, window_size=10)
        window.append(detection("a", 3, 0.4), rule_tag="g")
        assert window.snapshot_table().multi_rules() == []


class TestWindowAnswers:
    def test_answer_matches_batch(self):
        window = SlidingWindowPTK(k=2, threshold=0.4, window_size=5)
        scores = [5, 9, 2, 7, 4]
        for i, s in enumerate(scores):
            window.append(detection(f"a{i}", s, 0.5 + 0.05 * i))
        streaming = window.answer()
        batch = exact_ptk_query(window.snapshot_table(), TopKQuery(k=2), 0.4)
        assert streaming.answer_set == batch.answer_set

    def test_answer_cached_between_changes(self):
        window = SlidingWindowPTK(k=1, threshold=0.5, window_size=5)
        window.append(detection("a", 1, 0.9))
        first = window.answer()
        assert window.answer() is first  # same object: cache hit
        window.append(detection("b", 2, 0.9))
        assert window.answer() is not first

    def test_extend_with_tags(self):
        window = SlidingWindowPTK(k=2, threshold=0.3, window_size=10)
        window.extend(
            [detection("a", 3, 0.4), detection("b", 2, 0.4)],
            rule_tags=["g", "g"],
        )
        assert len(window.snapshot_table().multi_rules()) == 1

    def test_version_monotone(self):
        window = SlidingWindowPTK(k=1, threshold=0.5, window_size=2)
        versions = [window.version]
        for i in range(4):
            window.append(detection(f"a{i}", i))
            versions.append(window.version)
        assert versions == sorted(set(versions))


def assert_matches_scalar(window, k, threshold, ranking=None):
    """The window's answer equals the scalar engine's on a snapshot:
    the same answers in order, probabilities within 1e-12."""
    answer = window.answer()
    query = TopKQuery(k=k) if ranking is None else TopKQuery(k=k, ranking=ranking)
    scalar = exact_ptk_query(window.snapshot_table(), query, threshold)
    assert answer.answers == scalar.answers
    # Each engine reports the rows it priced; the answers are among them.
    priced = answer.probabilities.keys() & scalar.probabilities.keys()
    assert priced >= set(answer.answers)
    for tid in priced:
        assert answer.probabilities[tid] == pytest.approx(
            scalar.probabilities[tid], abs=1e-12
        )
    return answer


class TestWindowParity:
    """Every arrival of a tagged tracking stream, against the scalar
    RC+LR engine run on a copy of the window."""

    ARRIVALS = list(
        detection_stream(TrackingConfig(n_objects=15, n_ticks=30, seed=4))
    )

    def feed(self, window, k, threshold, ranking=None):
        tags = sum(tag is not None for _, tag in self.ARRIVALS)
        assert tags > 20  # the stream exercises rule writes
        methods = set()
        for detection_, tag in self.ARRIVALS:
            window.append(detection_, rule_tag=tag)
            answer = assert_matches_scalar(window, k, threshold, ranking)
            methods.add(answer.method)
        return methods

    @pytest.mark.parametrize("window_size", [10, 40])
    def test_every_arrival_matches_scalar_engine(self, window_size):
        window = SlidingWindowPTK(k=5, threshold=0.45, window_size=window_size)
        assert self.feed(window, 5, 0.45) == {"columnar"}

    def test_large_k_reads_columnar(self):
        k = 70
        window = SlidingWindowPTK(k=k, threshold=0.2, window_size=120)
        assert self.feed(window, k, 0.2) == {"columnar"}

    def test_non_default_ranking(self):
        ranking = by_score(descending=False)
        window = SlidingWindowPTK(
            k=3, threshold=0.3, window_size=25, ranking=ranking
        )
        assert self.feed(window, 3, 0.3, ranking) == {"columnar"}


class TestRejectedArrival:
    """A rejected arrival leaves the window as it was."""

    def state(self, window):
        table = window.snapshot_table()
        return (
            len(window),
            [(t.tid, t.score, t.probability) for t in table],
            [rule.tuple_ids for rule in table.multi_rules()],
            window.answer().answers,
            window.answer().probabilities,
        )

    def window(self):
        window = SlidingWindowPTK(k=2, threshold=0.3, window_size=4)
        window.append(detection("a", 5, 0.4), rule_tag="g")
        window.append(detection("b", 4, 0.3))
        window.append(detection("c", 3, 0.5), rule_tag="h")
        window.append(detection("d", 2, 0.3), rule_tag="h")
        return window

    @pytest.mark.parametrize(
        "tup, tag, error",
        [
            (detection("b", 9, 0.2), None, DuplicateTupleError),
            (detection("a", 9, 0.2), "g", DuplicateTupleError),
            # the tag's second live member: a new rule is refused
            (detection("x", 9, 0.7), "g", ValidationError),
            # a later member: the join is refused
            (detection("x", 9, 0.3), "h", ValidationError),
        ],
    )
    def test_window_unchanged(self, tup, tag, error):
        window = self.window()
        before = self.state(window)
        with pytest.raises(error):
            window.append(tup, rule_tag=tag)
        assert self.state(window) == before
        assert window.arrivals == 4
        # The window goes on as if the arrival never came: "a" expires.
        window.append(detection("x", 1, 0.2), rule_tag="h")
        assert sorted(t.tid for t in window.snapshot_table()) == [
            "b", "c", "d", "x"
        ]
        [rule] = window.snapshot_table().multi_rules()
        assert rule.tuple_ids == ("c", "d", "x")


class TestMonitor:
    def test_delta_on_entry(self):
        window = SlidingWindowPTK(k=1, threshold=0.5, window_size=5)
        monitor = PTKMonitor(window)
        delta = monitor.observe(detection("a", 5, 0.9))
        assert delta.entered == frozenset({"a"})
        assert delta.left == frozenset()
        assert delta.changed

    def test_delta_on_displacement(self):
        window = SlidingWindowPTK(k=1, threshold=0.5, window_size=5)
        monitor = PTKMonitor(window)
        monitor.observe(detection("a", 5, 0.9))
        delta = monitor.observe(detection("b", 9, 0.95))
        assert "b" in delta.entered
        assert "a" in delta.left

    def test_no_change_delta(self):
        window = SlidingWindowPTK(k=1, threshold=0.9, window_size=5)
        monitor = PTKMonitor(window)
        monitor.observe(detection("a", 5, 0.95))
        delta = monitor.observe(detection("weak", 1, 0.05))
        assert not delta.changed

    def test_history_and_churn(self):
        window = SlidingWindowPTK(k=1, threshold=0.5, window_size=5)
        monitor = PTKMonitor(window)
        monitor.observe(detection("a", 5, 0.9))
        monitor.observe(detection("b", 9, 0.95))
        assert len(monitor.history) == 2
        assert monitor.churn() == 3  # a entered, then b entered + a left
        assert monitor.current_answer == {"b"}

    def test_expiry_triggers_left_delta(self):
        window = SlidingWindowPTK(k=1, threshold=0.5, window_size=2)
        monitor = PTKMonitor(window)
        monitor.observe(detection("a", 9, 0.9))
        monitor.observe(detection("b", 1, 0.9))
        delta = monitor.observe(detection("c", 2, 0.9))  # a expires
        assert "a" in delta.left

    def test_monitor_on_prefilled_window(self):
        window = SlidingWindowPTK(k=1, threshold=0.5, window_size=5)
        window.append(detection("a", 5, 0.9))
        monitor = PTKMonitor(window)
        assert monitor.current_answer == {"a"}
        delta = monitor.observe(detection("weak", 1, 0.05))
        assert not delta.changed


class TestMonitorTimerOnError:
    """Regression: a rejected arrival must not leak the advance timer."""

    def test_timer_recorded_when_append_raises(self):
        from repro import obs

        window = SlidingWindowPTK(k=1, threshold=0.5, window_size=5)
        monitor = PTKMonitor(window)
        with obs.enabled_scope(fresh=True):
            timer = obs.catalogued("repro_stream_advance_seconds")
            monitor.observe(detection("a", 5, 0.9))
            with pytest.raises(ValidationError):
                monitor.observe(detection("a", 6, 0.9))  # duplicate live id
            # The failed advance still closed (and recorded) its timing.
            assert timer.count() == 2
            # The monitor keeps working after the error.
            delta = monitor.observe(detection("b", 9, 0.95))
            assert timer.count() == 3
            assert "b" in delta.entered
        assert monitor.current_answer == {"b"}

    def test_rejected_arrival_leaves_no_history(self):
        window = SlidingWindowPTK(k=1, threshold=0.5, window_size=5)
        monitor = PTKMonitor(window)
        monitor.observe(detection("a", 5, 0.9))
        with pytest.raises(ValidationError):
            monitor.observe(detection("a", 6, 0.9))
        assert len(monitor.history) == 1


class TestEvictTagAccounting:
    """Regression: a tag must survive eviction while live members carry it."""

    def test_tiny_probability_member_keeps_tag_alive(self):
        # "a" (mass 0.6) and "tiny" (5e-10, below PROBABILITY_ATOL) share
        # a tag.  When "a" expires its mass is released while "tiny"
        # still carries the tag.
        window = SlidingWindowPTK(k=1, threshold=0.5, window_size=2)
        window.append(detection("a", 1, 0.6), rule_tag="g")
        window.append(detection("tiny", 2, 5e-10), rule_tag="g")
        window.append(detection("pad", 3, 0.5))  # evicts "a"
        assert sorted(t.tid for t in window.snapshot_table()) == ["pad", "tiny"]
        # 0.999 + 5e-10 fits once "a" is gone.
        window.append(detection("b", 4, 0.999), rule_tag="g")  # evicts "tiny"
        # The <= 1 constraint is still enforced on the tag afterwards.
        with pytest.raises(ValidationError):
            window.append(detection("c", 5, 0.5), rule_tag="g")
        assert sorted(t.tid for t in window.snapshot_table()) == ["b", "pad"]

    def test_no_keyerror_when_tagged_members_outlive_depleted_mass(self):
        window = SlidingWindowPTK(k=1, threshold=0.5, window_size=2)
        window.append(detection("a", 1, 0.9), rule_tag="g")
        window.append(detection("tiny", 2, 1e-10), rule_tag="g")
        window.append(detection("pad", 3, 0.5))   # evicts "a" (mass -> ~0)
        window.append(detection("pad2", 4, 0.5))  # evicts "tiny" (same tag)
        assert len(window) == 2

    def test_tag_forgotten_once_last_member_leaves(self):
        window = SlidingWindowPTK(k=1, threshold=0.5, window_size=1)
        window.append(detection("a", 1, 0.9), rule_tag="g")
        window.append(detection("b", 2, 0.1))  # evicts "a", tag gone
        # Full 0.95 mass available again under the same tag.
        window.append(detection("c", 3, 0.95), rule_tag="g")
        assert len(window) == 1

    def test_mass_never_negative_after_float_cancellation(self):
        window = SlidingWindowPTK(k=1, threshold=0.5, window_size=3)
        window.append(detection("a", 1, 0.3), rule_tag="g")
        window.append(detection("b", 2, 0.1), rule_tag="g")
        window.append(detection("c", 3, 0.2), rule_tag="g")
        window.append(detection("d", 4, 0.25), rule_tag="g")  # evicts "a"
        window.append(detection("e", 5, 0.4), rule_tag="g")   # evicts "b"
        table = window.snapshot_table()
        [rule] = table.multi_rules()
        assert rule.tuple_ids == ("c", "d", "e")
        assert table.rule_probability(rule) == pytest.approx(0.85)
        # Expired members' mass is released: c, d, e plus 0.15 fits;
        # plus 0.16 does not (the check precedes the eviction of "c").
        with pytest.raises(ValidationError):
            window.append(detection("f", 6, 0.16), rule_tag="g")
        window.append(detection("f", 6, 0.15), rule_tag="g")  # evicts "c"
        [rule] = window.snapshot_table().multi_rules()
        assert rule.tuple_ids == ("d", "e", "f")


class TestMonitorQuietBursts:
    """History records answer changes, not arrivals: a burst of weak
    tuples that never perturbs the answer must not accumulate entries."""

    def test_unchanging_burst_leaves_history_empty(self):
        window = SlidingWindowPTK(k=1, threshold=0.9, window_size=100)
        monitor = PTKMonitor(window)
        monitor.observe(detection("strong", 100, 0.95))
        assert len(monitor.history) == 1
        for i in range(30):
            delta = monitor.observe(detection(f"weak{i}", 1, 0.05))
            assert not delta.changed
        assert len(monitor.history) == 1  # no empty deltas accumulated
        assert monitor.churn() == 1  # only the original entry

    def test_observe_still_reports_every_arrival(self):
        window = SlidingWindowPTK(k=1, threshold=0.9, window_size=100)
        monitor = PTKMonitor(window)
        monitor.observe(detection("strong", 100, 0.95))
        delta = monitor.observe(detection("weak", 1, 0.05))
        # The return value is per-arrival even when nothing changed...
        assert delta.arrival == "weak"
        assert delta.answer_size == 1
        # ...but quiet arrivals are not recorded.
        assert [d.arrival for d in monitor.history] == ["strong"]

    def test_history_interleaves_only_changes(self):
        window = SlidingWindowPTK(k=1, threshold=0.5, window_size=100)
        monitor = PTKMonitor(window)
        monitor.observe(detection("a", 10, 0.9))       # enters
        monitor.observe(detection("weak0", 1, 0.05))   # quiet
        monitor.observe(detection("b", 20, 0.95))      # displaces a
        monitor.observe(detection("weak1", 1, 0.05))   # quiet
        assert [d.arrival for d in monitor.history] == ["a", "b"]
        assert all(d.changed for d in monitor.history)
        assert monitor.churn() == 3

    def test_churn_unaffected_by_quiet_arrivals(self):
        window = SlidingWindowPTK(k=2, threshold=0.5, window_size=50)
        monitor = PTKMonitor(window)
        monitor.observe(detection("a", 10, 0.9))
        churn_before = monitor.churn()
        for i in range(10):
            monitor.observe(detection(f"w{i}", 0.1, 0.01))
        assert monitor.churn() == churn_before


class TestAnswerDeltaChanged:
    def test_changed_false_when_both_sides_empty(self):
        delta = AnswerDelta(arrival="x")
        assert not delta.changed

    def test_changed_true_on_entry_only(self):
        delta = AnswerDelta(arrival="x", entered=frozenset({"a"}))
        assert delta.changed

    def test_changed_true_on_exit_only(self):
        delta = AnswerDelta(arrival="x", left=frozenset({"a"}))
        assert delta.changed

    def test_changed_true_on_swap(self):
        delta = AnswerDelta(
            arrival="x", entered=frozenset({"a"}), left=frozenset({"b"})
        )
        assert delta.changed
