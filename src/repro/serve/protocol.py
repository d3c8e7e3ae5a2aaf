"""Wire protocol of the serving layer: request/response bodies.

Everything crossing the service boundary is JSON.  A query request::

    {"table": "sightings", "k": 5, "threshold": 0.5,
     "mode": "auto", "deadline_ms": 250}

and the corresponding response::

    {"table": "sightings", "k": 5, "threshold": 0.5,
     "mode": "exact",            # or "sampled" when degraded/forced
     "degraded": false,
     "answers": ["t3", "t7"],
     "probabilities": {"t3": 0.81, "t7": 0.64},
     "intervals": {"t3": [0.78, 0.84]},   # sampled responses only
     "batch_size": 4,            # requests coalesced into the dispatch
     "elapsed_ms": 1.9,
     "units_drawn": 1800,        # sampled responses only
     "partial": true,            # only when a deadline cut the scan
     "scheduler": {"policy": "cost", "queue_position": 0,
                   "estimated_seconds": 0.004, "decision": "run"}}

Tuple ids are stringified in JSON object keys (JSON objects cannot key
on non-strings); the ``answers`` array keeps the original id values when
they are JSON-native.

:class:`QueryRequest` validates untrusted payloads and raises
:class:`ProtocolError` (HTTP 400) naming the offending field; the
server never lets a malformed request reach the query engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.exceptions import ReproError

#: Query modes a client may request.  ``auto`` lets the server pick:
#: exact when the planner predicts the deadline is met, else sampled.
MODES = ("auto", "exact", "sampled")


class ProtocolError(ReproError):
    """A request body violates the wire protocol (HTTP 400)."""


class RejectedError(ReproError):
    """Admission control refused the request (HTTP 429).

    :param retry_after: seconds the client should wait before retrying.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class DeadlineExceededError(ReproError):
    """The request's deadline expired before an answer was ready (504)."""


class StaleReadError(ReproError):
    """A replica's staleness exceeds the request's bound (HTTP 503).

    Raised only on replicas, for requests carrying ``max_staleness_s``,
    when the replica cannot prove it was caught up with the primary
    recently enough.  The response carries ``Retry-After`` sized to the
    follower's poll interval — by then the replica has either caught up
    or learned its new lag.

    :param staleness: the replica's staleness block at rejection time.
    :param retry_after: seconds the client should wait before retrying.
    """

    def __init__(
        self,
        message: str,
        staleness: Optional[Dict[str, Any]] = None,
        retry_after: float = 0.5,
    ) -> None:
        super().__init__(message)
        self.staleness = staleness or {}
        self.retry_after = retry_after


def _require(payload: Mapping[str, Any], key: str) -> Any:
    try:
        return payload[key]
    except KeyError:
        raise ProtocolError(f"query request is missing {key!r}") from None


@dataclass(frozen=True)
class QueryRequest:
    """One validated PT-k query request.

    :param table: registered table name.
    :param k: top-k size, positive.
    :param threshold: PT-k probability threshold in (0, 1].
    :param mode: ``auto`` (server decides), ``exact``, or ``sampled``.
    :param deadline_ms: wall-clock budget for this request; ``None``
        means the server's default (possibly unbounded).
    :param sample_budget: explicit unit budget for ``mode=sampled``;
        ignored in other modes (``auto`` sizes the budget from the
        remaining deadline when it degrades).
    :param confidence: confidence level of the Wilson intervals stamped
        on sampled responses.
    :param max_staleness_s: bounded-staleness read guard, meaningful on
        replicas: reject with 503 instead of answering from state whose
        staleness bound exceeds this many seconds.  A primary always
        satisfies any bound (its data is never stale).
    """

    table: str
    k: int
    threshold: float
    mode: str = "auto"
    deadline_ms: Optional[float] = None
    sample_budget: Optional[int] = None
    confidence: float = 0.95
    max_staleness_s: Optional[float] = None

    @classmethod
    def from_dict(cls, payload: Any) -> "QueryRequest":
        """Validate an untrusted JSON payload into a request.

        :raises ProtocolError: naming the first offending field.
        """
        if not isinstance(payload, Mapping):
            raise ProtocolError(
                f"query request must be a JSON object, "
                f"got {type(payload).__name__}"
            )
        table = _require(payload, "table")
        if not isinstance(table, str) or not table:
            raise ProtocolError(f"table must be a non-empty string, got {table!r}")
        k = _require(payload, "k")
        if isinstance(k, bool) or not isinstance(k, int) or k <= 0:
            raise ProtocolError(f"k must be a positive integer, got {k!r}")
        threshold = _require(payload, "threshold")
        if (
            isinstance(threshold, bool)
            or not isinstance(threshold, (int, float))
            or not (0.0 < float(threshold) <= 1.0)
        ):
            raise ProtocolError(
                f"threshold must be a number in (0, 1], got {threshold!r}"
            )
        mode = payload.get("mode", "auto")
        if mode not in MODES:
            raise ProtocolError(
                f"mode must be one of {list(MODES)}, got {mode!r}"
            )
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is not None:
            if (
                isinstance(deadline_ms, bool)
                or not isinstance(deadline_ms, (int, float))
                or float(deadline_ms) <= 0
            ):
                raise ProtocolError(
                    f"deadline_ms must be a positive number, got {deadline_ms!r}"
                )
            deadline_ms = float(deadline_ms)
        sample_budget = payload.get("sample_budget")
        if sample_budget is not None:
            if (
                isinstance(sample_budget, bool)
                or not isinstance(sample_budget, int)
                or sample_budget <= 0
            ):
                raise ProtocolError(
                    f"sample_budget must be a positive integer, "
                    f"got {sample_budget!r}"
                )
        confidence = payload.get("confidence", 0.95)
        if (
            isinstance(confidence, bool)
            or not isinstance(confidence, (int, float))
            or not (0.0 < float(confidence) < 1.0)
        ):
            raise ProtocolError(
                f"confidence must be a number in (0, 1), got {confidence!r}"
            )
        max_staleness_s = payload.get("max_staleness_s")
        if max_staleness_s is not None:
            if (
                isinstance(max_staleness_s, bool)
                or not isinstance(max_staleness_s, (int, float))
                or float(max_staleness_s) < 0
            ):
                raise ProtocolError(
                    f"max_staleness_s must be a non-negative number, "
                    f"got {max_staleness_s!r}"
                )
            max_staleness_s = float(max_staleness_s)
        unknown = set(payload) - {
            "table", "k", "threshold", "mode", "deadline_ms",
            "sample_budget", "confidence", "max_staleness_s",
        }
        if unknown:
            raise ProtocolError(
                f"unknown query request field(s): {sorted(unknown)}"
            )
        return cls(
            table=table,
            k=int(k),
            threshold=float(threshold),
            mode=mode,
            deadline_ms=deadline_ms,
            sample_budget=sample_budget,
            confidence=float(confidence),
            max_staleness_s=max_staleness_s,
        )


@dataclass
class QueryResponse:
    """One answered query, ready to serialise.

    ``mode`` is the algorithm that actually ran; ``degraded`` is True
    only when the client asked for ``auto``/``exact`` and the server
    fell back to sampling to meet the deadline.

    ``partial`` is True when an exact scan was cut off at its deadline
    budget: ``answers``/``probabilities`` cover only the scanned ranked
    prefix, and the server holds a checkpoint from which an identical
    retry resumes instead of restarting.  ``scheduler`` carries the
    batch scheduler's per-item trace (policy, queue position, estimate,
    decision) for requests that went through exact-work scheduling.
    """

    table: str
    k: int
    threshold: float
    mode: str
    degraded: bool = False
    answers: List[Any] = field(default_factory=list)
    probabilities: Dict[str, float] = field(default_factory=dict)
    intervals: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    batch_size: int = 1
    elapsed_ms: float = 0.0
    units_drawn: Optional[int] = None
    partial: bool = False
    scheduler: Optional[Dict[str, Any]] = None
    #: Replica responses only: the staleness block at answer time
    #: (cursor, caught_up, lag_records, lag_bytes, staleness_seconds).
    staleness: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {
            "table": self.table,
            "k": self.k,
            "threshold": self.threshold,
            "mode": self.mode,
            "degraded": self.degraded,
            "answers": list(self.answers),
            "probabilities": dict(self.probabilities),
            "batch_size": self.batch_size,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
        if self.mode == "sampled":
            body["intervals"] = {
                tid: [round(low, 6), round(high, 6)]
                for tid, (low, high) in self.intervals.items()
            }
            body["units_drawn"] = self.units_drawn
        if self.partial:
            body["partial"] = True
        if self.scheduler is not None:
            body["scheduler"] = dict(self.scheduler)
        if self.staleness is not None:
            body["staleness"] = dict(self.staleness)
        return body


#: Mutation operations ``POST /mutate`` accepts (any writable server).
MUTATION_OPS = ("add", "remove", "update", "score", "rule")


@dataclass(frozen=True)
class MutationRequest:
    """One validated write request (``POST /mutate``, not on replicas).

    Writes are accepted by any server that owns its state — a plain
    server or a replication primary (journalled, so replicas and the
    failover smoke test observe them flowing through the WAL stream).
    Replicas refuse: their state is the primary's.

    :param op: ``add`` / ``remove`` / ``update`` / ``score`` / ``rule``.
    :param table: registered table name.
    :param tid: tuple id (``add`` / ``remove`` / ``update`` / ``score``).
    :param score: ranking score (``add`` / ``score``).
    :param probability: membership probability (``add`` / ``update``).
    :param attributes: extra tuple attributes (``add``).
    :param rule_id: generation-rule id (``rule``).
    :param members: tuple ids of the exclusion rule (``rule``).
    """

    op: str
    table: str
    tid: Any = None
    score: Optional[float] = None
    probability: Optional[float] = None
    attributes: Dict[str, Any] = field(default_factory=dict)
    rule_id: Any = None
    members: Tuple[Any, ...] = ()

    @classmethod
    def from_dict(cls, payload: Any) -> "MutationRequest":
        """Validate an untrusted JSON payload into a mutation.

        :raises ProtocolError: naming the first offending field.
        """
        if not isinstance(payload, Mapping):
            raise ProtocolError(
                f"mutation request must be a JSON object, "
                f"got {type(payload).__name__}"
            )
        op = _require(payload, "op")
        if op not in MUTATION_OPS:
            raise ProtocolError(
                f"op must be one of {list(MUTATION_OPS)}, got {op!r}"
            )
        table = _require(payload, "table")
        if not isinstance(table, str) or not table:
            raise ProtocolError(
                f"table must be a non-empty string, got {table!r}"
            )
        known = {"op", "table"}
        tid = score = probability = rule_id = None
        attributes: Dict[str, Any] = {}
        members: Tuple[Any, ...] = ()
        if op in ("add", "remove", "update", "score"):
            tid = _require(payload, "tid")
            known.add("tid")
        if op in ("add", "score"):
            score = _number(payload, "score")
            known.add("score")
        if op in ("add", "update"):
            probability = _number(payload, "probability")
            if not (0.0 < probability <= 1.0):
                raise ProtocolError(
                    f"probability must be in (0, 1], got {probability!r}"
                )
            known.add("probability")
        if op == "add":
            attributes = payload.get("attributes", {})
            if not isinstance(attributes, Mapping):
                raise ProtocolError(
                    f"attributes must be a JSON object, got {attributes!r}"
                )
            attributes = dict(attributes)
            known.add("attributes")
        if op == "rule":
            rule_id = _require(payload, "rule_id")
            raw_members = _require(payload, "members")
            if not isinstance(raw_members, (list, tuple)) or len(raw_members) < 2:
                raise ProtocolError(
                    f"members must be a list of >= 2 tuple ids, "
                    f"got {raw_members!r}"
                )
            members = tuple(raw_members)
            known.update(("rule_id", "members"))
        unknown = set(payload) - known
        if unknown:
            raise ProtocolError(
                f"unknown mutation request field(s) for op {op!r}: "
                f"{sorted(unknown)}"
            )
        return cls(
            op=op,
            table=table,
            tid=tid,
            score=score,
            probability=probability,
            attributes=attributes,
            rule_id=rule_id,
            members=members,
        )


def _number(payload: Mapping[str, Any], key: str) -> float:
    """A JSON number, as parsed: an integer stays exact so the model
    can refuse a score float64 cannot hold instead of rounding it."""
    value = _require(payload, key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"{key} must be a number, got {value!r}")
    return value


def error_body(error: str, message: str, **extra: Any) -> Dict[str, Any]:
    """The uniform JSON error body: ``{"error", "message", ...}``."""
    body = {"error": error, "message": message}
    body.update(extra)
    return body
