"""Streaming WAL reader: cursors, batched range reads, and tail-follow.

Replication ships the write-ahead log as-is — the primary's journal *is*
the replication stream.  This module adds the read side that shipping
needs and recovery does not: resumable positions (:class:`WalCursor`),
bounded batch reads from a position (:func:`read_from`), and a polling
generator that follows the live tail (:func:`follow`).

Cursor semantics
----------------

A cursor is ``(sequence, offset)``: the segment's parsed sequence number
and an absolute byte offset within that segment.  A cursor always points
at a record *boundary* — the reader only ever advances past complete,
CRC-verified records, so resuming from any cursor it handed out yields
exactly the records that follow, never a partial one.  The zero cursor
``(0, 0)`` means "from the oldest segment on disk".

Torn tails
----------

The same crash taxonomy as recovery (:mod:`repro.durable.wal`), applied
per segment position in the stream:

* torn bytes at the end of a **sealed** segment (one with a newer
  segment after it) are the frozen signature of an old crash — the
  writer opened a fresh segment and never acknowledged the torn record,
  so the reader skips them and continues at the next segment;
* torn bytes at the end of the **newest** segment are an append that may
  still be in flight — the reader stops *before* them and reports
  ``caught_up``; the next poll retries from the same cursor;
* bad magic or a CRC-valid non-JSON payload is structural corruption and
  raises :class:`~repro.exceptions.WalCorruptionError`, exactly as
  recovery would.

If the cursor's segment has been compacted away (or names a sequence
past everything on disk), :class:`~repro.exceptions.CursorLostError` is
raised — the replica fell outside the retention window and must
re-bootstrap from a full snapshot.
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.durable.wal import _HEADER, MAGIC, MAX_RECORD_BYTES, WriteAheadLog
from repro.exceptions import CursorLostError, ReplicationError, WalCorruptionError

#: Default per-batch limits for :func:`read_from`.
DEFAULT_MAX_RECORDS = 512
DEFAULT_MAX_BYTES = 1 << 20


@dataclass(frozen=True, order=True)
class WalCursor:
    """A resumable position in the WAL: ``(segment sequence, byte offset)``.

    Ordered lexicographically, which matches stream order because
    sequence numbers only grow.  Serialised as ``"<sequence>:<offset>"``
    for transport in URLs and JSON.
    """

    sequence: int = 0
    offset: int = 0

    def encode(self) -> str:
        """Wire form, e.g. ``"12:4096"``."""
        return f"{self.sequence}:{self.offset}"

    @classmethod
    def decode(cls, text: str) -> "WalCursor":
        """Parse the wire form; raises :class:`ReplicationError` if malformed."""
        try:
            sequence_text, _, offset_text = str(text).partition(":")
            sequence = int(sequence_text)
            offset = int(offset_text)
        except (TypeError, ValueError):
            raise ReplicationError(
                f"malformed WAL cursor {text!r}; expected '<sequence>:<offset>'"
            ) from None
        if sequence < 0 or offset < 0:
            raise ReplicationError(
                f"malformed WAL cursor {text!r}; sequence and offset must be >= 0"
            )
        return cls(sequence, offset)

    @property
    def is_zero(self) -> bool:
        """True for the from-the-beginning cursor ``(0, 0)``."""
        return self.sequence == 0 and self.offset == 0


@dataclass
class StreamBatch:
    """One bounded read from the stream.

    :param records: complete, CRC-verified records in journal order.
    :param start: the cursor the read began from.
    :param cursor: position after the last returned record — resume here.
    :param boundaries: cursor after each record (parallel to ``records``),
        so a consumer can persist a resume point mid-batch.
    :param caught_up: True when the read stopped because no further
        complete records exist on disk (rather than hitting a limit).
    :param pending_bytes: bytes on disk past ``cursor`` (live torn tails
        included — an upper bound on remaining replication lag).
    :param shipped_bytes: framed size of the returned records.
    """

    records: List[Dict[str, Any]] = field(default_factory=list)
    start: WalCursor = field(default_factory=WalCursor)
    cursor: WalCursor = field(default_factory=WalCursor)
    boundaries: List[WalCursor] = field(default_factory=list)
    caught_up: bool = True
    pending_bytes: int = 0
    shipped_bytes: int = 0


def _locate(
    paths: List[Path], sequences: List[int], cursor: WalCursor
) -> Tuple[int, int]:
    """Map a cursor to (segment index, byte offset) or raise CursorLostError."""
    if cursor.is_zero:
        return 0, 0
    if cursor.sequence in sequences:
        return sequences.index(cursor.sequence), cursor.offset
    if cursor.sequence > sequences[-1]:
        raise CursorLostError(
            f"cursor {cursor.encode()} is past every WAL segment on disk "
            f"(newest is {sequences[-1]}); the primary holds older state "
            f"than this cursor was issued against"
        )
    raise CursorLostError(
        f"cursor {cursor.encode()} points at a compacted-away segment "
        f"(oldest on disk is {sequences[0]}); re-bootstrap required"
    )


def read_from(
    directory: Union[str, Path],
    cursor: WalCursor = WalCursor(),
    max_records: int = DEFAULT_MAX_RECORDS,
    max_bytes: int = DEFAULT_MAX_BYTES,
) -> StreamBatch:
    """Read up to ``max_records`` / ``max_bytes`` of records after ``cursor``.

    Never returns a partial record: the batch cursor always lands on a
    record boundary, and re-reading from it reproduces the stream
    bit-exactly.  See the module docstring for torn-tail semantics.

    :raises CursorLostError: the cursor's segment is gone (compacted).
    :raises WalCorruptionError: structural damage a torn write cannot explain.
    """
    if max_records < 1 or max_bytes < 1:
        raise ReplicationError(
            f"read_from limits must be >= 1, got max_records={max_records} "
            f"max_bytes={max_bytes}"
        )
    directory = Path(directory)
    paths = WriteAheadLog.segment_paths(directory)
    if not paths:
        if not cursor.is_zero:
            raise CursorLostError(
                f"cursor {cursor.encode()} but no WAL segments under {directory}"
            )
        return StreamBatch(start=cursor, cursor=cursor)

    sequences = [WriteAheadLog.sequence_of(p) for p in paths]
    index, offset = _locate(paths, sequences, cursor)

    batch = StreamBatch(start=cursor, cursor=cursor, caught_up=False)
    limited = False
    while index < len(paths):
        path = paths[index]
        sequence = sequences[index]
        is_last = index == len(paths) - 1
        data = path.read_bytes()
        if offset < len(MAGIC):
            # Entering a segment at its start: verify the magic header.
            prefix = data[: len(MAGIC)]
            if len(data) >= len(MAGIC) and prefix != MAGIC:
                raise WalCorruptionError(f"{path}: not a WAL segment (bad magic)")
            if len(data) < len(MAGIC):
                if data and not MAGIC.startswith(data):
                    raise WalCorruptionError(
                        f"{path}: not a WAL segment (bad magic)"
                    )
                # Torn magic write: skip if sealed, wait if live.
                if is_last:
                    batch.caught_up = True
                    break
                index += 1
                offset = 0
                batch.cursor = WalCursor(sequences[index], 0)
                continue
            offset = len(MAGIC)
            batch.cursor = WalCursor(sequence, offset)
        torn = False
        while offset < len(data):
            if (
                len(batch.records) >= max_records
                or batch.shipped_bytes >= max_bytes
            ):
                limited = True
                break
            if offset + _HEADER.size > len(data):
                torn = True
                break
            length, crc = _HEADER.unpack_from(data, offset)
            if length > MAX_RECORD_BYTES:
                torn = True  # implausible length: garbage from a torn header
                break
            start = offset + _HEADER.size
            end = start + length
            if end > len(data):
                torn = True
                break
            payload = data[start:end]
            if zlib.crc32(payload) != crc:
                torn = True
                break
            try:
                record = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise WalCorruptionError(
                    f"{path}: CRC-valid record is not JSON: {error}"
                ) from None
            offset = end
            batch.records.append(record)
            batch.shipped_bytes += _HEADER.size + length
            batch.cursor = WalCursor(sequence, offset)
            batch.boundaries.append(batch.cursor)
        if limited:
            break
        if torn and is_last:
            # A write may be in flight; stop before it and retry later.
            batch.caught_up = True
            break
        if is_last:
            batch.caught_up = True
            break
        # Sealed segment exhausted (cleanly or with a frozen torn tail):
        # advance to the start of the next segment.
        index += 1
        offset = 0
        batch.cursor = WalCursor(sequences[index], 0)

    batch.pending_bytes = pending_bytes_from(directory, batch.cursor)
    return batch


def pending_bytes_from(
    directory: Union[str, Path], cursor: WalCursor
) -> int:
    """Bytes on disk past ``cursor`` (an upper bound on replication lag:
    live torn tails and segment headers still to be skipped count)."""
    pending = 0
    for path in WriteAheadLog.segment_paths(directory):
        sequence = WriteAheadLog.sequence_of(path)
        if sequence < cursor.sequence:
            continue
        try:
            size = path.stat().st_size
        except OSError:
            continue  # compacted between listing and stat
        if sequence == cursor.sequence:
            pending += max(0, size - max(cursor.offset, len(MAGIC)))
        else:
            pending += max(0, size - len(MAGIC))
    return pending


def count_records_from(
    directory: Union[str, Path],
    cursor: WalCursor = WalCursor(),
    limit: int = 4096,
) -> int:
    """Count complete records after ``cursor``, capped at ``limit``.

    A frame walk without JSON decoding — cheap enough to answer "how many
    records is the replica behind?" on every status probe.  Torn tails
    and lost cursors count as zero further records rather than raising.
    """
    paths = WriteAheadLog.segment_paths(directory)
    if not paths:
        return 0
    sequences = [WriteAheadLog.sequence_of(p) for p in paths]
    try:
        index, offset = _locate(paths, sequences, cursor)
    except CursorLostError:
        return 0
    count = 0
    while index < len(paths) and count < limit:
        try:
            data = paths[index].read_bytes()
        except OSError:
            break
        offset = max(offset, len(MAGIC))
        while offset < len(data) and count < limit:
            if offset + _HEADER.size > len(data):
                break
            length, crc = _HEADER.unpack_from(data, offset)
            if length > MAX_RECORD_BYTES:
                break
            end = offset + _HEADER.size + length
            if end > len(data):
                break
            if zlib.crc32(data[offset + _HEADER.size : end]) != crc:
                break
            count += 1
            offset = end
        index += 1
        offset = 0
    return count


def follow(
    directory: Union[str, Path],
    cursor: WalCursor = WalCursor(),
    poll_interval: float = 0.02,
    stop: Optional[Callable[[], bool]] = None,
    max_records: int = DEFAULT_MAX_RECORDS,
) -> Iterator[Tuple[Dict[str, Any], WalCursor]]:
    """Follow the live tail, yielding ``(record, cursor_after_record)``.

    Polls :func:`read_from` and sleeps ``poll_interval`` whenever it is
    caught up; returns once ``stop()`` goes true while caught up.  Each
    yielded cursor is a valid resume point: a new ``follow`` (or
    :func:`read_from`) started there continues with the next record.
    """
    position = cursor
    while True:
        # Asked before the read: a writer that appends and then sets
        # stop between a caught-up read and the check would otherwise
        # lose its last records.
        stopping = stop is not None and stop()
        batch = read_from(directory, position, max_records=max_records)
        for record, boundary in zip(batch.records, batch.boundaries):
            yield record, boundary
        position = batch.cursor
        if batch.caught_up:
            if stopping:
                return
            time.sleep(poll_interval)
