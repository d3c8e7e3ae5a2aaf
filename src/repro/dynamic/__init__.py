"""``repro.dynamic`` — incremental PT-k maintenance under point mutations.

Turns WAL mutations into column moves instead of cache invalidations:
:func:`~repro.dynamic.refresh.refresh_prepared` carries a table's warm
default-shape preparation — its columns, the table's only ranked
state — across one applied
:class:`~repro.model.mutation.Mutation`; every preparation's
:class:`~repro.dynamic.index.DynamicIndex` keeps one live kernel scan
per read ``k``, handed on to each newer preparation of its shape, and a
read moves its scan onto its own columns, re-pricing only the rows a
write can affect; and a :class:`~repro.dynamic.registry
.DynamicIndexRegistry` serves ``method="dynamic"`` answers from it.
See ``docs/dynamic.md`` for the design.
"""

from repro.dynamic.index import MAX_SCAN_STATES, DynamicIndex
from repro.dynamic.refresh import DEFAULT_SHAPE_KEY, refresh_prepared
from repro.dynamic.registry import DynamicIndexRegistry

__all__ = [
    "DEFAULT_SHAPE_KEY",
    "MAX_SCAN_STATES",
    "DynamicIndex",
    "DynamicIndexRegistry",
    "refresh_prepared",
]
