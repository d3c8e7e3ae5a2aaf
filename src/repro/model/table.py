"""Uncertain tables: tuples plus generation rules.

An :class:`UncertainTable` is the central container of the library.  It
stores uncertain tuples keyed by id and the multi-tuple generation rules
among them, and enforces the model invariants of Section 2:

* every tuple id is unique,
* every tuple is involved in at most one multi-tuple rule,
* for every rule ``R``, ``Pr(R) = sum of member probabilities <= 1``.

Independent tuples conceptually carry a trivial singleton rule; the table
does not materialise those, but :meth:`UncertainTable.rule_of` reports a
synthetic singleton rule for them so algorithms can treat the rule set as
a partition of the tuples.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.exceptions import (
    DuplicateTupleError,
    RuleConflictError,
    UnknownTupleError,
    ValidationError,
)
from repro.model.mutation import Mutation
from repro.model.rules import GenerationRule
from repro.model.tuples import PROBABILITY_ATOL, UncertainTuple

#: Prefix used for synthetic singleton rule ids.
_SINGLETON_PREFIX = "__singleton__"


class UncertainTable:
    """A set of uncertain tuples with exclusiveness generation rules.

    Tables are mutable while being built (``add_tuple`` / ``add_rule``) and
    are treated as immutable by all algorithms.  Iteration yields tuples in
    insertion order; ranked access is provided by
    :meth:`ranked_tuples` and by :class:`repro.query.access.RankedStream`.

    :param name: optional human-readable table name used in reprs and
        error messages.
    """

    def __init__(self, name: str = "uncertain_table") -> None:
        self.name = name
        self._tuples: Dict[Any, UncertainTuple] = {}
        # Insertion-ordered set of tuple ids (dict keys).  A dict rather
        # than a list so removal is O(1) — bulk WAL-replayed deletions
        # (repro.durable) would go quadratic on a list's O(n) remove.
        self._order: Dict[Any, None] = {}
        self._rules: Dict[Any, GenerationRule] = {}
        self._rule_of_tuple: Dict[Any, Any] = {}
        # tid -> ids of its explicitly registered singleton rules, in
        # registration order (rule_of reports the first).
        self._singletons_of: Dict[Any, List[Any]] = {}
        self._version = 0

    @property
    def version(self) -> int:
        """Monotone counter bumped on every mutation.

        ``(table, version)`` identifies one immutable snapshot of the
        table's contents; the prepared-ranking cache
        (:mod:`repro.query.prepare`) keys on it so stale selections and
        rankings are never served after a mutation.
        """
        return self._version

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_tuple(self, tup: UncertainTuple) -> None:
        """Add a tuple to the table.

        :raises DuplicateTupleError: if a tuple with the same id exists.
        """
        if tup.tid in self._tuples:
            raise DuplicateTupleError(
                f"table {self.name!r} already contains tuple {tup.tid!r}"
            )
        self._tuples[tup.tid] = tup
        self._order[tup.tid] = None
        self._version += 1

    def add_rule(self, rule: GenerationRule) -> None:
        """Register a multi-tuple generation rule.

        :raises UnknownTupleError: if the rule references an id that is not
            in the table.
        :raises RuleConflictError: if any involved tuple already belongs to
            another multi-tuple rule.
        :raises ValidationError: if the members' probabilities sum above 1,
            or the rule id is already taken.
        """
        if rule.rule_id in self._rules:
            raise ValidationError(
                f"table {self.name!r} already contains rule {rule.rule_id!r}"
            )
        for tid in rule.tuple_ids:
            if tid not in self._tuples:
                raise UnknownTupleError(
                    f"rule {rule.rule_id!r} references unknown tuple {tid!r}"
                )
            self._check_unruled(tid)
        self._check_mass(rule.rule_id, (self._tuples[t] for t in rule.tuple_ids))
        self._rules[rule.rule_id] = rule
        if rule.is_multi:
            for tid in rule.tuple_ids:
                self._rule_of_tuple[tid] = rule.rule_id
        else:
            self._singletons_of.setdefault(rule.tuple_ids[0], []).append(
                rule.rule_id
            )
        self._version += 1

    def _check_unruled(self, tid: Any) -> None:
        if tid in self._rule_of_tuple:
            raise RuleConflictError(
                f"tuple {tid!r} is already involved in rule "
                f"{self._rule_of_tuple[tid]!r}; a tuple may be involved in "
                f"at most one generation rule"
            )

    def _check_mass(self, rule_id: Any, members: Iterable[UncertainTuple]) -> None:
        """Refuse a rule whose ``members`` would sum above probability 1."""
        total = sum(tup.probability for tup in members)
        if total > 1.0 + PROBABILITY_ATOL:
            raise ValidationError(
                f"rule {rule_id!r} would have total probability {total:.6f} > 1"
            )

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def apply(self, mutation: Mutation) -> Mutation:
        """Apply one write: the one place the table branches on its op.

        Every check runs before any state changes, so a rejected write
        leaves the table (and its version) as it was.

        * ``add`` builds and adds the tuple (:meth:`add_tuple`);
        * ``rule`` adds the rule over ``members`` (:meth:`add_rule`);
        * ``join`` moves the independent ``tid`` into the multi-tuple
          rule ``rule_id`` as its last member;
        * ``remove`` drops the tuple; a multi-tuple rule reduced to one
          member is dropped too (its survivor becomes independent),
          matching the projection semantics of :meth:`filter`;
        * ``update`` / ``score`` replace the tuple's probability /
          score; it keeps its attributes and rule membership.

        :returns: the applied copy of ``mutation``: ``previous_version``
            and ``version`` around the write, the stored ``score`` and
            ``probability`` of an added tuple, the stored probability of
            an ``update`` and score of a ``score`` write, the
            ``old_score`` of a ``remove`` or ``score`` write, and the
            ``members`` a ``rule`` or ``join`` put into the rule.
        :raises InvalidProbabilityError, InvalidScoreError: bad values.
        :raises DuplicateTupleError: an added id is already present.
        :raises UnknownTupleError: the write names an absent tuple.
        :raises RuleConflictError: a rule or join takes a tuple that is
            already in a multi-tuple rule.
        :raises ValidationError: a rule would sum above probability 1, a
            rule id is taken, a join names no multi-tuple rule, or the
            op is unknown.
        """
        op, tid = mutation.op, mutation.tid
        previous = self._version
        if op == "add":
            tup = UncertainTuple(
                tid, mutation.score, mutation.probability,
                dict(mutation.attributes),
            )
            self.add_tuple(tup)
            applied = dict(score=tup.score, probability=tup.probability)
        elif op == "rule":
            rule = GenerationRule(mutation.rule_id, tuple(mutation.members))
            self.add_rule(rule)
            applied = dict(members=rule.tuple_ids)
        elif op == "join":
            rule = self._rules.get(mutation.rule_id)
            if rule is None or not rule.is_multi:
                raise ValidationError(
                    f"table {self.name!r} has no multi-tuple rule "
                    f"{mutation.rule_id!r}"
                )
            self.get(tid)  # raise if unknown
            self._check_unruled(tid)
            grown = GenerationRule(rule.rule_id, rule.tuple_ids + (tid,))
            self._check_mass(
                rule.rule_id, (self._tuples[t] for t in grown.tuple_ids)
            )
            self._rules[rule.rule_id] = grown
            self._rule_of_tuple[tid] = rule.rule_id
            applied = dict(members=(tid,))
        elif op == "remove":
            removed = self.get(tid)
            del self._tuples[tid]
            del self._order[tid]
            rule_id = self._rule_of_tuple.pop(tid, None)
            if rule_id is not None:
                rule = self._rules[rule_id]
                shrunk = rule.restricted_to(
                    [member for member in rule.tuple_ids if member != tid]
                )
                if shrunk is None or not shrunk.is_multi:
                    del self._rules[rule_id]
                    if shrunk is not None:
                        self._rule_of_tuple.pop(shrunk.tuple_ids[0], None)
                else:
                    self._rules[rule_id] = shrunk
            for key in self._singletons_of.pop(tid, ()):
                del self._rules[key]
            applied = dict(old_score=removed.score)
        elif op == "update":
            updated = self.get(tid).with_probability(mutation.probability)
            rule_id = self._rule_of_tuple.get(tid)
            if rule_id is not None:
                self._check_mass(rule_id, (
                    updated if member == tid else self._tuples[member]
                    for member in self._rules[rule_id].tuple_ids
                ))
            self._tuples[tid] = updated
            applied = dict(probability=updated.probability)
        elif op == "score":
            current = self.get(tid)
            self._tuples[tid] = current.with_score(mutation.score)
            applied = dict(score=self._tuples[tid].score, old_score=current.score)
        else:
            raise ValidationError(f"unknown mutation op {op!r}")
        self._version = previous + 1
        return mutation._replace(
            previous_version=previous, version=self._version, **applied
        )

    # The named writes: each is one :class:`Mutation` through apply.
    def add(
        self,
        tid: Any,
        /,
        score: float,
        probability: float,
        **attributes: Any,
    ) -> UncertainTuple:
        """Build and add an :class:`UncertainTuple`.

        :returns: the tuple that was added.
        """
        self.apply(Mutation(self.name, "add", tid=tid, score=score,
                            probability=probability, attributes=attributes))
        return self._tuples[tid]

    def add_exclusive(self, rule_id: Any, *tuple_ids: Any) -> GenerationRule:
        """Convenience wrapper: build and add a :class:`GenerationRule`."""
        rule = GenerationRule(rule_id=rule_id, tuple_ids=tuple(tuple_ids))
        self.add_rule(rule)
        return rule

    def join_rule(self, rule_id: Any, tid: Any) -> GenerationRule:
        """Move an independent tuple into an existing multi-tuple rule.

        :returns: the grown rule.
        """
        self.apply(Mutation(self.name, "join", rule_id=rule_id, tid=tid))
        return self._rules[rule_id]

    def remove_tuple(self, tid: Any) -> UncertainTuple:
        """Remove a tuple, shrinking any rule that involves it.

        :returns: the removed tuple.
        """
        removed = self.get(tid)
        self.apply(Mutation(self.name, "remove", tid=tid))
        return removed

    def update_probability(self, tid: Any, probability: float) -> UncertainTuple:
        """Replace a tuple's membership probability in place.

        :returns: the new tuple object.
        """
        self.apply(Mutation(self.name, "update", tid=tid, probability=probability))
        return self._tuples[tid]

    def update_score(self, tid: Any, score: float) -> UncertainTuple:
        """Replace a tuple's ranking score in place.

        :returns: the new tuple object.
        """
        self.apply(Mutation(self.name, "score", tid=tid, score=score))
        return self._tuples[tid]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[UncertainTuple]:
        return (self._tuples[tid] for tid in self._order)

    def __contains__(self, tid: Any) -> bool:
        return tid in self._tuples

    def get(self, tid: Any) -> UncertainTuple:
        """Return the tuple with id ``tid``.

        :raises UnknownTupleError: if absent.
        """
        try:
            return self._tuples[tid]
        except KeyError:
            raise UnknownTupleError(
                f"table {self.name!r} has no tuple {tid!r}"
            ) from None

    def tuple_ids(self) -> List[Any]:
        """All tuple ids in insertion order."""
        return list(self._order)

    def tuples(self) -> List[UncertainTuple]:
        """All tuples in insertion order."""
        return [self._tuples[tid] for tid in self._order]

    def probability(self, tid: Any) -> float:
        """Membership probability ``Pr(t)`` of the tuple with id ``tid``."""
        return self.get(tid).probability

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    def multi_rules(self) -> List[GenerationRule]:
        """All explicitly registered rules with two or more members."""
        return [rule for rule in self._rules.values() if rule.is_multi]

    def rules(self) -> List[GenerationRule]:
        """All rules covering the table: explicit multi-tuple rules plus a
        synthetic singleton rule for every independent tuple.

        The result is a partition of the tuple ids, matching the paper's
        convention that "each tuple is involved in one and only one
        generation rule".
        """
        explicit = list(self._rules.values())
        covered = {tid for rule in explicit for tid in rule.tuple_ids}
        singletons = [
            GenerationRule(rule_id=f"{_SINGLETON_PREFIX}{tid}", tuple_ids=(tid,))
            for tid in self._order
            if tid not in covered
        ]
        return explicit + singletons

    def rule_of(self, tid: Any) -> GenerationRule:
        """The (unique) generation rule involving tuple ``tid``.

        Independent tuples get a synthetic singleton rule.
        """
        self.get(tid)  # raise if unknown
        rule_id = self._rule_of_tuple.get(tid)
        if rule_id is not None:
            return self._rules[rule_id]
        # An explicitly-registered singleton rule still wins over the
        # synthetic one so round-tripping through io preserves rule ids.
        singletons = self._singletons_of.get(tid)
        if singletons:
            return self._rules[singletons[0]]
        return GenerationRule(rule_id=f"{_SINGLETON_PREFIX}{tid}", tuple_ids=(tid,))

    def multi_rule_id_of(self, tid: Any) -> Optional[Any]:
        """Id of the multi-tuple rule involving ``tid``, or ``None``."""
        return self._rule_of_tuple.get(tid)

    def is_independent(self, tid: Any) -> bool:
        """True if ``tid`` is not involved in any multi-tuple rule."""
        self.get(tid)
        return tid not in self._rule_of_tuple

    def rule_probability(self, rule: GenerationRule) -> float:
        """``Pr(R)``: sum of the members' membership probabilities.

        Compensated (``math.fsum``, the same primitive the core kernel
        wraps) so the membership-pruning comparison against rule-tuple
        probabilities never disagrees with the DP by accumulated
        roundoff.  The model layer cannot import the kernel (the core
        package imports the model), hence the direct ``fsum``.
        """
        total = math.fsum(
            self._tuples[tid].probability for tid in rule.tuple_ids
        )
        return min(total, 1.0)

    # ------------------------------------------------------------------
    # Derived tables
    # ------------------------------------------------------------------
    def filter(
        self,
        predicate: Callable[[UncertainTuple], bool],
        name: Optional[str] = None,
    ) -> "UncertainTable":
        """Project the table onto tuples satisfying ``predicate``.

        This implements ``P(T)`` of Section 4: surviving tuples keep their
        membership probabilities, and each rule is projected onto the
        surviving tuples (rules reduced to zero members are dropped;
        rules reduced to one member become singleton rules, i.e. the tuple
        becomes independent).
        """
        result = UncertainTable(name=name or f"{self.name}_filtered")
        keep: set = set()
        for tid in self._order:
            tup = self._tuples[tid]
            if predicate(tup):
                result.add_tuple(tup)
                keep.add(tid)
        for rule in self._rules.values():
            projected = rule.restricted_to(keep)
            if projected is not None and projected.is_multi:
                result.add_rule(projected)
        return result

    def subset(self, tuple_ids: Iterable[Any], name: Optional[str] = None) -> "UncertainTable":
        """Project the table onto an explicit set of tuple ids."""
        wanted = set(tuple_ids)
        for tid in wanted:
            self.get(tid)
        return self.filter(lambda t: t.tid in wanted, name=name)

    # ------------------------------------------------------------------
    # Ranked access
    # ------------------------------------------------------------------
    def ranked_tuples(
        self, key: Optional[Callable[[UncertainTuple], float]] = None
    ) -> List[UncertainTuple]:
        """Tuples sorted by the ranking function, best first.

        :param key: score extractor; defaults to the tuple's ``score``
            attribute.  Higher is better.  Ties are broken by tuple id
            (stringified) so the order is total, as the paper requires.
        """
        if key is None:
            key = lambda t: t.score  # noqa: E731 - tiny default
        return sorted(self, key=lambda t: (-key(t), str(t.tid)))

    # ------------------------------------------------------------------
    # Statistics and validation
    # ------------------------------------------------------------------
    def expected_size(self) -> float:
        """Expected number of tuples in a possible world."""
        return sum(t.probability for t in self)

    def validate(self) -> None:
        """Re-check all invariants; raises :class:`ValidationError` on failure.

        Construction already validates incrementally; this is a belt-and-
        braces hook for tables deserialised from external files.
        """
        seen: set = set()
        for rule in self._rules.values():
            total = 0.0
            for tid in rule.tuple_ids:
                if tid not in self._tuples:
                    raise UnknownTupleError(
                        f"rule {rule.rule_id!r} references unknown tuple {tid!r}"
                    )
                if rule.is_multi:
                    if tid in seen:
                        raise RuleConflictError(
                            f"tuple {tid!r} appears in more than one rule"
                        )
                    seen.add(tid)
                total += self._tuples[tid].probability
            if total > 1.0 + PROBABILITY_ATOL:
                raise ValidationError(
                    f"rule {rule.rule_id!r} has total probability {total:.6f} > 1"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"UncertainTable({self.name!r}: {len(self._tuples)} tuples, "
            f"{len(self.multi_rules())} multi-tuple rules)"
        )


def table_from_rows(
    rows: Sequence[tuple],
    name: str = "uncertain_table",
) -> UncertainTable:
    """Build a table from ``(tid, score, probability)`` triples.

    A compact constructor used pervasively by tests and examples::

        table = table_from_rows([("t1", 100, 0.7), ("t2", 90, 0.2)])
    """
    table = UncertainTable(name=name)
    for tid, score, probability in rows:
        table.add(tid, score, probability)
    return table
