"""Uncertain data model: tuples, generation rules, tables, possible worlds.

This package implements the possible-worlds data model of Section 2 of the
paper (after Abiteboul et al., Imielinski & Lipski, and Sarma et al.):

* :class:`~repro.model.tuples.UncertainTuple` — a tuple with a membership
  probability in ``(0, 1]`` and arbitrary attribute payload.
* :class:`~repro.model.rules.GenerationRule` — an exclusiveness constraint
  ``t_1 XOR t_2 XOR ... XOR t_m``: at most one involved tuple exists in any
  possible world.
* :class:`~repro.model.table.UncertainTable` — a collection of tuples plus a
  set of generation rules covering every tuple exactly once (singleton rules
  are implicit).
* :class:`~repro.model.mutation.Mutation` — one write to a table (a tuple
  enters, leaves or changes; a rule forms or grows), the record every
  layer from the table to the WAL and the replicas passes along.
* :mod:`~repro.model.worlds` — exact possible-world enumeration, world
  probabilities (Equation 1), and world counting.

The model layer is deliberately independent of query semantics; ranking,
predicates, and the PT-k algorithms live in :mod:`repro.query` and
:mod:`repro.core`.
"""

from repro.model.mutation import Mutation
from repro.model.rules import GenerationRule
from repro.model.table import UncertainTable
from repro.model.tuples import UncertainTuple
from repro.model.worlds import (
    PossibleWorld,
    count_possible_worlds,
    enumerate_possible_worlds,
    world_probability,
)

__all__ = [
    "GenerationRule",
    "Mutation",
    "PossibleWorld",
    "UncertainTable",
    "UncertainTuple",
    "count_possible_worlds",
    "enumerate_possible_worlds",
    "world_probability",
]
