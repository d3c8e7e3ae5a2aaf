"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  Sub-classes separate model
validation problems (bad probabilities, malformed rules) from query-time
problems (bad parameters, unknown tuples).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ValidationError(ReproError):
    """A data-model object violates an invariant.

    Raised when a tuple has a membership probability outside ``(0, 1]``,
    when a generation rule's total probability exceeds 1, when a tuple is
    referenced by more than one rule, and similar structural problems.
    """


class MutationError(ValidationError):
    """A table mutation was rejected before touching any state.

    The umbrella for write-path input validation at the
    :class:`~repro.query.engine.UncertainDB` /
    :class:`~repro.durable.db.DurableDB` boundary: a rejected mutation
    leaves the table, its version, the WAL, and any warm preparation
    exactly as they were.
    """


class InvalidProbabilityError(MutationError):
    """A membership probability is outside ``(0, 1]`` or not a finite number."""


class InvalidScoreError(MutationError):
    """A tuple score is NaN, infinite, or not a number at all."""


class DuplicateTupleError(MutationError):
    """Two tuples in one table share the same tuple id."""


class UnknownTupleError(ReproError):
    """An operation referenced a tuple id that is not in the table."""


class UnknownTableError(UnknownTupleError):
    """A query referenced a table name that is not registered.

    Subclasses :class:`UnknownTupleError` for one release:
    :meth:`repro.query.engine.UncertainDB.table` historically raised
    ``UnknownTupleError`` for missing *tables*, so existing ``except``
    clauses keep working while callers migrate.
    """


class RuleConflictError(ValidationError):
    """A tuple is involved in more than one multi-tuple generation rule.

    The paper (Section 2) assumes each tuple is involved in at most one
    generation rule; this library enforces that assumption.
    """


class QueryError(ReproError):
    """A query was malformed (e.g. ``k <= 0`` or a threshold outside (0,1])."""


class SamplingError(ReproError):
    """The sampling subsystem was configured inconsistently."""


class ObservabilityError(ReproError):
    """The observability layer was used inconsistently.

    Raised for metric type or label-set conflicts in the registry,
    negative counter increments, and malformed histogram buckets.
    """


class DurabilityError(ReproError):
    """Base class for errors raised by the persistence subsystem
    (:mod:`repro.durable`): write-ahead logging, snapshots, recovery."""


class WalCorruptionError(DurabilityError):
    """A write-ahead-log segment is structurally corrupt.

    Raised only for damage that cannot be explained by a torn tail — a
    bad magic header, or a CRC-valid record whose payload does not
    parse.  A partial final record (the normal signature of a crash
    mid-append) is *not* an error: recovery truncates it silently.
    """


class SnapshotCorruptionError(DurabilityError):
    """A snapshot file failed its checksum or could not be decoded."""


class RecoveryError(DurabilityError):
    """Recovery found an impossible state — e.g. a gap in the journaled
    table-version sequence, meaning mutations were lost between the
    latest snapshot and the surviving WAL records."""


class ReplicationError(ReproError):
    """Base class for errors raised by the replication subsystem
    (:mod:`repro.replication`): malformed cursors, protocol violations,
    promotion of an empty or foreign data directory."""


class CursorLostError(ReplicationError):
    """A replica's WAL cursor points at history the primary no longer has.

    Raised when the cursor's segment was compacted away (the replica fell
    behind further than retention pinning protected it) or names a
    sequence past every segment on disk (the primary was restored from
    older state).  The replica must discard its position and re-bootstrap
    from a full table snapshot.
    """


class EnumerationLimitError(ReproError):
    """Possible-world enumeration would exceed the configured safety limit.

    Enumeration is exponential in the number of generation rules; this
    error protects callers from accidentally enumerating astronomically
    many worlds.  Raise the limit explicitly if the blow-up is intended.
    """
