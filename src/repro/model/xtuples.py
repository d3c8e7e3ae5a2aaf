"""X-tuples: entities with alternative values (attribute-level uncertainty).

The paper's model is tuple-level: each tuple either exists or not, with
exclusiveness rules.  A very common alternative in the uncertain-data
literature is *attribute-level* uncertainty: one logical entity has
several alternative values (e.g. conflicting speed readings), each with
a probability.  That model embeds exactly into this library's:

* each alternative becomes one uncertain tuple, and
* the alternatives of one entity form a generation rule (they are
  mutually exclusive by construction).

This module provides the embedding — :class:`XTuple` and
:func:`table_from_xtuples` — plus the entity-level queries it induces:

* ``Pr^k(entity) = Σ_alternatives Pr^k(alt)`` (alternatives are
  exclusive, so the events "alt_i in top-k" are disjoint);
* :func:`entity_ptk_query`, the PT-k query whose answers are entities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.core.exact import ExactVariant, exact_topk_probabilities
from repro.core.results import AlgorithmStats, PTKAnswer
from repro.exceptions import QueryError, ValidationError
from repro.model.table import UncertainTable
from repro.model.tuples import UncertainTuple
from repro.query.topk import TopKQuery

#: Attribute key that records which entity an alternative belongs to.
ENTITY_ATTRIBUTE = "__entity__"
#: Attribute key that records the alternative's ordinal.
ALTERNATIVE_ATTRIBUTE = "__alternative__"


@dataclass(frozen=True)
class XTuple:
    """One entity with alternative (score, probability) values.

    :param entity_id: unique entity identifier.
    :param alternatives: ``(score, probability)`` pairs; probabilities
        must sum to at most 1 (the remainder is "the entity is absent").
    :param attributes: shared payload copied onto every alternative.
    """

    entity_id: Any
    alternatives: Tuple[Tuple[float, float], ...]
    attributes: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.alternatives:
            raise ValidationError(
                f"x-tuple {self.entity_id!r} has no alternatives"
            )
        total = sum(probability for _, probability in self.alternatives)
        if total > 1.0 + 1e-9:
            raise ValidationError(
                f"x-tuple {self.entity_id!r} alternatives sum to "
                f"{total:.6f} > 1"
            )
        object.__setattr__(self, "alternatives", tuple(self.alternatives))

    @property
    def existence_probability(self) -> float:
        """Probability the entity appears at all (any alternative)."""
        return min(1.0, sum(p for _, p in self.alternatives))


def table_from_xtuples(
    xtuples: Sequence[XTuple], name: str = "x_relation"
) -> UncertainTable:
    """Embed a set of x-tuples into a tuple-level uncertain table.

    Alternative ``j`` of entity ``e`` becomes the tuple ``"e#j"`` with
    the alternative's score and probability, tagged with
    :data:`ENTITY_ATTRIBUTE`; multi-alternative entities get one
    generation rule each.
    """
    table = UncertainTable(name=name)
    seen = set()
    for xtuple in xtuples:
        if xtuple.entity_id in seen:
            raise ValidationError(
                f"duplicate entity id {xtuple.entity_id!r}"
            )
        seen.add(xtuple.entity_id)
        member_ids: List[Any] = []
        for j, (score, probability) in enumerate(xtuple.alternatives):
            tid = f"{xtuple.entity_id}#{j}"
            attributes = dict(xtuple.attributes)
            attributes[ENTITY_ATTRIBUTE] = xtuple.entity_id
            attributes[ALTERNATIVE_ATTRIBUTE] = j
            table.add_tuple(UncertainTuple(tid, score, probability, attributes))
            member_ids.append(tid)
        if len(member_ids) > 1:
            table.add_exclusive(f"xrule:{xtuple.entity_id}", *member_ids)
    return table


def entity_of(table: UncertainTable, tid: Any) -> Any:
    """The entity an alternative tuple belongs to."""
    return table.get(tid).attributes.get(ENTITY_ATTRIBUTE, tid)


def entity_topk_probabilities(
    table: UncertainTable,
    query: TopKQuery,
    variant: ExactVariant = ExactVariant.RC_LR,
) -> Dict[Any, float]:
    """``Pr^k`` per *entity*: the probability any alternative is top-k.

    Alternatives of one entity are mutually exclusive, so their top-k
    events are disjoint and the entity probability is the plain sum.
    Tables not built from x-tuples degrade gracefully: tuples without
    an entity tag count as their own entities.
    """
    per_tuple = exact_topk_probabilities(table, query, variant=variant)
    result: Dict[Any, float] = {}
    for tid, probability in per_tuple.items():
        entity = entity_of(table, tid)
        result[entity] = result.get(entity, 0.0) + probability
    return {entity: min(1.0, p) for entity, p in result.items()}


def entity_ptk_query(
    table: UncertainTable,
    query: TopKQuery,
    threshold: float,
    variant: ExactVariant = ExactVariant.RC_LR,
) -> PTKAnswer:
    """PT-k at the entity level: entities whose ``Pr^k`` passes ``p``.

    The answer's ``answers`` are entity ids ordered by each entity's
    best-ranked alternative.
    """
    if not (0.0 < threshold <= 1.0):
        raise QueryError(
            f"probability threshold must be in (0, 1], got {threshold!r}"
        )
    probabilities = entity_topk_probabilities(table, query, variant=variant)
    ranked = query.ranking.rank_table(query.selected(table))
    first_position: Dict[Any, int] = {}
    for position, tup in enumerate(ranked):
        entity = entity_of(table, tup.tid)
        first_position.setdefault(entity, position)
    answer = PTKAnswer(k=query.k, threshold=threshold, method="entity-ptk")
    answer.probabilities = probabilities
    answer.answers = sorted(
        (
            entity
            for entity, probability in probabilities.items()
            if probability >= threshold
        ),
        key=lambda entity: first_position.get(entity, 1 << 30),
    )
    answer.stats = AlgorithmStats(
        scan_depth=len(ranked), tuples_evaluated=len(ranked)
    )
    return answer
