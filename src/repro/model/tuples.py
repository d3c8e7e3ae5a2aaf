"""Uncertain tuples: the atomic unit of the possible-worlds model.

An uncertain tuple pairs an ordinary relational tuple (here: a score used
for ranking plus an arbitrary attribute mapping) with a *membership
probability* — the probability that the tuple exists at all.  Tuples are
immutable value objects; tables and algorithms never mutate them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.exceptions import InvalidProbabilityError, InvalidScoreError

#: Tolerance used throughout the library when comparing probabilities.
PROBABILITY_ATOL = 1e-9


def validate_probability(value: float, *, what: str = "probability") -> float:
    """Validate that ``value`` is a probability in ``(0, 1]``.

    The model requires strictly positive membership probabilities (a tuple
    with probability 0 never exists and carries no information).  A tiny
    numerical overshoot above 1 (within :data:`PROBABILITY_ATOL`) is
    clamped to exactly 1 so that rule probabilities computed as sums of
    floats do not spuriously fail validation.

    :param value: the candidate probability.
    :param what: noun used in the error message.
    :returns: the validated (possibly clamped) probability.
    :raises InvalidProbabilityError: if the value is not in ``(0, 1]``
        (a :class:`~repro.exceptions.MutationError`, and therefore a
        ``ValidationError`` for existing callers).
    """
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InvalidProbabilityError(
            f"{what} must be a real number, got {value!r}"
        )
    if math.isnan(value) or math.isinf(value):
        raise InvalidProbabilityError(f"{what} must be finite, got {value!r}")
    if value <= 0.0:
        raise InvalidProbabilityError(f"{what} must be > 0, got {value!r}")
    if value > 1.0 + PROBABILITY_ATOL:
        raise InvalidProbabilityError(f"{what} must be <= 1, got {value!r}")
    return min(float(value), 1.0)


def validate_score(value: float, *, what: str = "score") -> float:
    """Validate that ``value`` is a finite real number usable for ranking.

    NaN would poison the ranking order (every comparison false) and
    ``±inf`` breaks the ``-score`` sort key and the latency model's
    depth pricing, so both are rejected at the mutation boundary rather
    than left for the DP to misbehave on downstream.  So is an integer
    float64 cannot hold exactly (``2**53 + 1``): the tuple ranking sorts
    the exact value while the columns (snapshots, the kernel) sort its
    float64, and the two orders would disagree.

    :raises InvalidScoreError: if the value is NaN, infinite, not a
        number, or not exactly representable as a float64.
    """
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InvalidScoreError(f"{what} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond float64's range
        number = math.inf
    if math.isnan(number) or math.isinf(number):
        raise InvalidScoreError(f"{what} must be finite, got {value!r}")
    if number != value:
        raise InvalidScoreError(
            f"{what} must be exactly representable as a float64, "
            f"got {value!r}"
        )
    return number


@dataclass(frozen=True)
class UncertainTuple:
    """A tuple with a membership probability.

    :param tid: unique identifier within its table.  Any hashable value is
        accepted; strings and integers are typical.
    :param score: the value the default ranking function orders by
        (descending).  In the paper's running example this is the sighting
        duration / number of drifted days.
    :param probability: membership probability ``Pr(t)`` in ``(0, 1]``.
    :param attributes: optional extra payload (location, timestamp, ...);
        never interpreted by the algorithms but carried through query
        answers so applications can render results.
    """

    tid: Any
    score: float
    probability: float
    attributes: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        validated = validate_probability(self.probability, what=f"Pr({self.tid})")
        if validated != self.probability:
            object.__setattr__(self, "probability", validated)
        validate_score(self.score, what=f"score of tuple {self.tid!r}")

    def with_probability(self, probability: float) -> "UncertainTuple":
        """Return a copy of this tuple with a different membership probability."""
        return UncertainTuple(
            tid=self.tid,
            score=self.score,
            probability=probability,
            attributes=self.attributes,
        )

    def with_score(self, score: float) -> "UncertainTuple":
        """Return a copy of this tuple with a different ranking score."""
        return UncertainTuple(
            tid=self.tid,
            score=score,
            probability=self.probability,
            attributes=self.attributes,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"UncertainTuple(tid={self.tid!r}, score={self.score!r}, p={self.probability:.4g})"
