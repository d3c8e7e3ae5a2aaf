"""Result containers shared by the exact algorithm, the sampler, and benches."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass(frozen=True)
class TupleProbability:
    """A tuple id paired with its (exact or estimated) top-k probability."""

    tid: Any
    probability: float

    def __iter__(self):
        return iter((self.tid, self.probability))


@dataclass
class AlgorithmStats:
    """Instrumentation shared across algorithm variants.

    :param scan_depth: number of tuples retrieved from the ranked stream
        (the y-axis of Figures 4 and 7 for the exact algorithm).
    :param subset_extensions: number of O(k) subset-probability DP
        extensions performed — the Equation-5 cost, and the quantity the
        paper reports tracks runtime exactly.
    :param tuples_evaluated: tuples whose ``Pr^k`` was actually computed.
    :param tuples_pruned_membership: tuples skipped by Theorem 3.
    :param tuples_pruned_same_rule: tuples skipped by Theorem 4.
    :param stopped_by: what ended the scan: ``"exhausted"`` (whole list),
        ``"total-probability"`` (Theorem 5), ``"tail-bound"`` (the
        ``Pr(at most k of the seen units appear) < p`` bound), or
        ``"deadline"`` (a wall-clock budget cut a columnar read; the
        answer is partial).
    :param sample_units: sampler only — number of sample units drawn.
    :param avg_sample_length: sampler only — mean tuples scanned per unit
        (the "sample length" series of Figure 4).
    """

    scan_depth: int = 0
    subset_extensions: int = 0
    tuples_evaluated: int = 0
    tuples_pruned_membership: int = 0
    tuples_pruned_same_rule: int = 0
    stopped_by: str = "exhausted"
    sample_units: int = 0
    avg_sample_length: float = 0.0

    @property
    def tuples_pruned(self) -> int:
        """Total tuples whose evaluation was skipped by pruning."""
        return self.tuples_pruned_membership + self.tuples_pruned_same_rule


@dataclass
class PTKAnswer:
    """The answer to a PT-k query plus everything measured along the way.

    :param k: the query's k.
    :param threshold: the probability threshold p.
    :param answers: tuple ids passing the threshold, in ranking order.
    :param probabilities: every computed top-k probability, keyed by
        tuple id.  For pruned tuples no entry is present (the algorithm
        proved their probability is below the threshold without computing
        it).
    :param stats: instrumentation counters.
    :param method: short name of the algorithm that produced the answer.
    """

    k: int
    threshold: float
    answers: List[Any] = field(default_factory=list)
    probabilities: Dict[Any, float] = field(default_factory=dict)
    stats: AlgorithmStats = field(default_factory=AlgorithmStats)
    method: str = "exact"

    @property
    def partial(self) -> bool:
        """True when a deadline cut the scan and the answer covers only
        the scanned prefix."""
        return self.stats.stopped_by == "deadline"

    @property
    def answer_set(self) -> set:
        """The answers as a set (order-insensitive comparisons)."""
        return set(self.answers)

    def probability_of(self, tid: Any, default: Optional[float] = None) -> float:
        """Computed ``Pr^k`` of a tuple, or ``default`` if it was pruned.

        :raises KeyError: when absent and no default is given.
        """
        if tid in self.probabilities:
            return self.probabilities[tid]
        if default is None:
            raise KeyError(
                f"top-k probability of {tid!r} was not computed "
                f"(pruned below threshold {self.threshold})"
            )
        return default

    def ranked_answers(self) -> List[TupleProbability]:
        """Answers with probabilities, sorted by probability descending."""
        pairs = [
            TupleProbability(tid, self.probabilities[tid]) for tid in self.answers
        ]
        return sorted(pairs, key=lambda tp: (-tp.probability, str(tp.tid)))

    def __contains__(self, tid: Any) -> bool:
        return tid in self.answer_set

    def __len__(self) -> int:
        return len(self.answers)
