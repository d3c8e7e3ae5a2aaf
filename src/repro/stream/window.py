"""Count-based sliding windows of uncertain tuples.

A :class:`SlidingWindowPTK` holds the most recent ``window_size`` tuples
of a stream.  Each arriving tuple may carry a *rule tag*: tuples sharing
a tag inside the window are mutually exclusive, exactly like a
generation rule (e.g. co-located detections of one object).  When a
tuple expires from the window it simply leaves its rule; the surviving
members keep their membership probabilities (their exclusiveness
constraint still holds pairwise).

The window is a private :class:`~repro.query.engine.UncertainDB` table
driven by its incremental writes, each one
:class:`~repro.model.mutation.Mutation` through
:meth:`~repro.query.engine.UncertainDB.apply`: an arrival is one
``add`` (plus a ``rule`` when it is its tag's second live member, or a
``join`` after that), an expiry one ``remove``.  The tuple's attributes
travel as a dict, so any attribute name passes.  Each write hands the
table's warm scans on to its next preparation, so
:meth:`~SlidingWindowPTK.answer`, a columnar exact read, re-prices only
the rows at and below the first changed rank, up to the Theorem-5 stop
depth: the cost tracks k, not the window size.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple

from repro.core.results import PTKAnswer
from repro.exceptions import QueryError, ValidationError
from repro.model.mutation import Mutation
from repro.model.table import UncertainTable
from repro.model.tuples import UncertainTuple
from repro.query.engine import UncertainDB
from repro.query.ranking import RankingFunction, by_score
from repro.query.topk import TopKQuery

_TABLE = "window"


class SlidingWindowPTK:
    """A PT-k query continuously evaluated over a sliding window.

    :param k: top-k size.
    :param threshold: probability threshold p.
    :param window_size: number of most recent tuples retained.
    :param ranking: ranking function (default: descending score).

    Usage::

        window = SlidingWindowPTK(k=5, threshold=0.5, window_size=1000)
        for reading in stream:
            window.append(reading, rule_tag=reading_group(reading))
            answer = window.answer()     # cached between arrivals
    """

    def __init__(
        self,
        k: int,
        threshold: float,
        window_size: int,
        ranking: Optional[RankingFunction] = None,
    ) -> None:
        if k <= 0:
            raise QueryError(f"k must be positive, got {k}")
        if not (0.0 < threshold <= 1.0):
            raise QueryError(
                f"probability threshold must be in (0, 1], got {threshold!r}"
            )
        if window_size <= 0:
            raise QueryError(f"window_size must be positive, got {window_size}")
        self.k = k
        self.threshold = threshold
        self.window_size = window_size
        self.ranking = ranking or by_score()
        self._query = None if ranking is None else TopKQuery(k=k, ranking=ranking)
        self._db = UncertainDB()
        self._db.register(UncertainTable(name=_TABLE))
        self._table = self._db.table(_TABLE)
        self._window: Deque[Tuple[Any, Optional[Any]]] = deque()
        # Newest live member of each tag.  Expiry is oldest-first, so
        # when it expires it was the tag's last live member.
        self._newest: Dict[Any, Any] = {}
        self._cached_version = -1
        self._cached_answer: Optional[PTKAnswer] = None
        self._arrivals = 0

    # ------------------------------------------------------------------
    # Stream side
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._window)

    @property
    def arrivals(self) -> int:
        """Total tuples ever appended (including expired ones)."""
        return self._arrivals

    def append(
        self, tup: UncertainTuple, rule_tag: Optional[Any] = None
    ) -> None:
        """Add a tuple to the window, evicting the oldest when full.

        A rejected arrival leaves the window unchanged.

        :param rule_tag: tuples sharing a tag are mutually exclusive
            while they coexist in the window.
        :raises DuplicateTupleError: when a live tuple has the same id.
        :raises ValidationError: when the tag's in-window probability
            mass would exceed 1.
        """
        apply, tid = self._db.apply, tup.tid
        grouped = rule_tag in self._newest  # the tag has a live member
        apply(Mutation(_TABLE, "add", tid=tid, score=tup.score,
                       probability=tup.probability, attributes=tup.attributes))
        if grouped:
            newest = self._newest[rule_tag]
            try:
                if self._table.multi_rule_id_of(newest) is None:
                    apply(Mutation(_TABLE, "rule", rule_id=rule_tag,
                                   members=(newest, tid)))
                else:
                    apply(Mutation(_TABLE, "join", rule_id=rule_tag, tid=tid))
            except ValidationError:
                apply(Mutation(_TABLE, "remove", tid=tid))
                raise
        if rule_tag is not None:
            self._newest[rule_tag] = tid
        self._window.append((tid, rule_tag))
        self._arrivals += 1
        if len(self._window) > self.window_size:
            expired, tag = self._window.popleft()
            if tag is not None and self._newest[tag] == expired:
                del self._newest[tag]
            apply(Mutation(_TABLE, "remove", tid=expired))

    def extend(self, tuples, rule_tags=None) -> None:
        """Append many tuples (``rule_tags`` parallel to ``tuples``)."""
        if rule_tags is None:
            for tup in tuples:
                self.append(tup)
        else:
            for tup, tag in zip(tuples, rule_tags):
                self.append(tup, rule_tag=tag)

    # ------------------------------------------------------------------
    # Query side
    # ------------------------------------------------------------------
    def snapshot_table(self) -> UncertainTable:
        """A copy of the current window contents as an uncertain table."""
        return self._table.filter(
            lambda _: True, name=f"window@{self._table.version}"
        )

    def answer(self) -> PTKAnswer:
        """The PT-k answer over the current window (cached per version)."""
        version = self._table.version
        if self._cached_version != version:
            self._cached_answer = self._db.ptk(
                _TABLE, self.k, self.threshold, query=self._query
            )
            self._cached_version = version
        return self._cached_answer

    @property
    def version(self) -> int:
        """The window table's version: bumped on every change."""
        return self._table.version
