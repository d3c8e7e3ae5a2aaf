"""Pruning rules for the exact PT-k algorithm (Section 4.4).

Three rules let the algorithm skip computing ``Pr^k`` for tuples that
provably fail the threshold, and stop retrieving tuples altogether:

* **Theorem 3 (membership probability).**  ``Pr^k(t) <= Pr(t)``, and a
  *failed* independent tuple ``t`` (one with ``Pr^k(t) < p``) transfers
  its failure to every lower-ranked independent tuple with no larger
  membership probability — and to every tuple of a rule ranked entirely
  below ``t`` whose rule probability is no larger.
* **Theorem 4 (same rule).**  Within one rule, a failed member ``t``
  transfers failure to every lower-ranked member with no larger
  membership probability.
* **Theorem 5 (total probability).**  ``sum_t Pr^k(t) = E[min(k, |W|)]
  <= k``; once the probabilities already computed sum above ``k - p``,
  every remaining tuple must fail.

The tracker also implements the *tail bound* that justifies terminating
retrieval: for any unseen tuple ``t'``, its compressed dominant set
``T(t')`` contains every currently live unit except at most one (its own
rule's left part), so with ``N`` = number of live units present,

``Pr^k(t') <= Pr(count of T(t') < k) <= Pr(N <= k)``

(the first inequality is Equation 4 with ``Pr(t') <= 1``; the second
holds because removing one indicator variable shifts the count down by at
most one).  Once ``Pr(N <= k) < p`` no future tuple can pass, so the scan
stops.  This is the mechanism behind "line 6" of Figure 3 and is what
makes scan depth track ``k`` rather than ``n`` (Figure 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from repro.core.kernel import RunningSum
from repro.core.rule_compression import DominantSetScan
from repro.core.subset_probability import SubsetProbabilityVector
from repro.model.rules import GenerationRule
from repro.model.tuples import UncertainTuple


@dataclass(frozen=True)
class PruningFlags:
    """Which pruning rules are active (for the ablation benchmark).

    :param membership: Theorem 3 (membership-probability pruning).
    :param same_rule: Theorem 4 (same-rule pruning).
    :param total_probability: Theorem 5 (total top-k probability stop).
    :param tail_bound: the ``Pr(N <= k) < p`` retrieval stop.
    """

    membership: bool = True
    same_rule: bool = True
    total_probability: bool = True
    tail_bound: bool = True

    @classmethod
    def none(cls) -> "PruningFlags":
        """All rules off: the algorithm scans and evaluates everything."""
        return cls(False, False, False, False)


class PruningTracker:
    """State machine applying Theorems 3–5 plus the tail stop bound.

    The exact engine consults :meth:`should_skip` before evaluating a
    tuple, reports every computed probability through :meth:`observe`,
    and asks :meth:`should_stop` after each scanned tuple.

    :param k: the query's k.
    :param threshold: the probability threshold p.
    :param rule_of: maps tuple id -> multi-tuple rule (independents absent).
    :param table_rule_probability: maps rule id -> ``Pr(R)``; needed by
        the rule half of Theorem 3.
    :param stop_check_interval: the tail bound costs O(u·k) to evaluate,
        so it is recomputed only every this many scanned tuples.
    :param flags: which rules are active (default: all).
    """

    def __init__(
        self,
        k: int,
        threshold: float,
        rule_of: Mapping[Any, GenerationRule],
        table_rule_probability: Mapping[Any, float],
        stop_check_interval: int = 16,
        flags: Optional[PruningFlags] = None,
    ) -> None:
        self.k = k
        self.threshold = threshold
        self.flags = flags or PruningFlags()
        self._rule_of = rule_of
        self._rule_probability = table_rule_probability
        self._stop_check_interval = max(1, stop_check_interval)
        # Theorem 3 state: largest membership probability among failed
        # independent tuples seen so far.
        self._max_failed_independent: float = -1.0
        # Theorem 3 (rule half): for each rule, the failed-independent
        # running max at the moment its first member was scanned; valid
        # because that tuple is then ranked above every rule member.
        self._rule_entry_max: Dict[Any, float] = {}
        # Theorem 4 state: per-rule largest failed member probability.
        self._rule_failed_max: Dict[Any, float] = {}
        # Theorem 5 state: compensated running sum of computed Pr^k
        # values.  A naive `+=` over up to n terms can drift across the
        # `k - p` stop boundary; the kernel accumulator cannot.
        self._probability_mass = RunningSum()
        self._since_stop_check = 0

    # ------------------------------------------------------------------
    # Per-tuple decisions
    # ------------------------------------------------------------------
    def note_first_encounter(self, tup: UncertainTuple) -> None:
        """Record rule-entry state when a rule's first member is scanned.

        Must be called for every retrieved tuple before
        :meth:`should_skip`.
        """
        rule = self._rule_of.get(tup.tid)
        if rule is not None and rule.rule_id not in self._rule_entry_max:
            self._rule_entry_max[rule.rule_id] = self._max_failed_independent

    def should_skip(self, tup: UncertainTuple) -> Optional[str]:
        """Can ``Pr^k(tup) < p`` be inferred without computing it?

        :returns: ``"membership"`` (Theorem 3), ``"same-rule"``
            (Theorem 4), or ``None`` when the tuple must be evaluated.
        """
        rule = self._rule_of.get(tup.tid)
        if rule is None:
            if (
                self.flags.membership
                and tup.probability <= self._max_failed_independent
            ):
                return "membership"
            return None
        # Rule half of Theorem 3: some failed independent tuple ranked
        # above the whole rule has probability >= Pr(R).
        if self.flags.membership:
            rule_probability = self._rule_probability.get(rule.rule_id, 1.0)
            entry_max = self._rule_entry_max.get(rule.rule_id, -1.0)
            if rule_probability <= entry_max:
                return "membership"
        # Theorem 4: a higher-ranked member with probability >= Pr(tup)
        # already failed.
        if self.flags.same_rule:
            failed_max = self._rule_failed_max.get(rule.rule_id, -1.0)
            if tup.probability <= failed_max:
                return "same-rule"
        return None

    def observe(self, tup: UncertainTuple, topk_probability: float) -> None:
        """Feed back a computed ``Pr^k`` so future tuples can be pruned."""
        self._probability_mass.add(topk_probability)
        if topk_probability >= self.threshold:
            return
        rule = self._rule_of.get(tup.tid)
        if rule is None:
            if tup.probability > self._max_failed_independent:
                self._max_failed_independent = tup.probability
        else:
            current = self._rule_failed_max.get(rule.rule_id, -1.0)
            if tup.probability > current:
                self._rule_failed_max[rule.rule_id] = tup.probability

    def observe_skipped(self, tup: UncertainTuple, reason: str) -> None:
        """Propagate failure knowledge from a pruned (not computed) tuple.

        A pruned tuple is known to fail, so it can strengthen the same
        trackers as a computed failure (its probability is a valid
        witness by the transitivity of Theorems 3 and 4).
        """
        rule = self._rule_of.get(tup.tid)
        if rule is None:
            if tup.probability > self._max_failed_independent:
                self._max_failed_independent = tup.probability
        else:
            current = self._rule_failed_max.get(rule.rule_id, -1.0)
            if tup.probability > current:
                self._rule_failed_max[rule.rule_id] = tup.probability

    # ------------------------------------------------------------------
    # Stop decisions
    # ------------------------------------------------------------------
    def should_stop(self, scan: DominantSetScan) -> Optional[str]:
        """Decide whether no unseen tuple can pass the threshold.

        Checks Theorem 5 on every call and the tail bound every
        ``stop_check_interval`` calls.

        :returns: ``"total-probability"`` or ``"tail-bound"`` when the
            scan may stop, else ``None``.
        """
        if (
            self.flags.total_probability
            and self._probability_mass.value > self.k - self.threshold
        ):
            return "total-probability"
        if self.flags.tail_bound:
            self._since_stop_check += 1
            if self._since_stop_check >= self._stop_check_interval:
                self._since_stop_check = 0
                if self._tail_bound(scan) < self.threshold:
                    return "tail-bound"
        return None

    def _tail_bound(self, scan: DominantSetScan) -> float:
        """``Pr(at most k of the live units appear)`` — the stop bound."""
        units = scan.all_units()
        if len(units) <= self.k:
            return 1.0
        vector = SubsetProbabilityVector(self.k + 1)
        vector.extend_run([unit.probability for unit in units])
        return vector.probability_fewer_than(self.k + 1)

    @property
    def probability_mass(self) -> float:
        """Sum of all computed ``Pr^k`` values so far (Theorem 5 state)."""
        return self._probability_mass.value
