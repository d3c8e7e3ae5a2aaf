"""``repro.dynamic`` — incremental PT-k maintenance under point mutations.

Turns WAL mutations into column moves instead of cache invalidations:
:func:`~repro.dynamic.refresh.refresh_prepared` carries a table's warm
default-shape preparation — its columns, the table's only ranked
state — across one committed
:class:`~repro.dynamic.delta.TableDelta`; a
:class:`~repro.dynamic.index.DynamicIndex` keeps one live kernel scan
per served ``k`` over that preparation's columns and moves them onto
each newer preparation, re-pricing only the rows a write can affect;
and a :class:`~repro.dynamic.registry.DynamicIndexRegistry` holds one
index per table and serves byte-exact ``Pr^k`` answers from it.  See
``docs/dynamic.md`` for the design and its fallback conditions.
"""

from repro.dynamic.delta import DELTA_OPS, TableDelta, delta_from_record
from repro.dynamic.index import DEFAULT_CAP, DynamicIndex
from repro.dynamic.refresh import DEFAULT_SHAPE_KEY, refresh_prepared
from repro.dynamic.registry import DynamicIndexRegistry

__all__ = [
    "DELTA_OPS",
    "DEFAULT_CAP",
    "DEFAULT_SHAPE_KEY",
    "DynamicIndex",
    "DynamicIndexRegistry",
    "TableDelta",
    "delta_from_record",
    "refresh_prepared",
]
