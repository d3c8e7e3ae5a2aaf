"""The write-ahead log: an append-only, checksummed journal of mutations.

Every mutation applied through :class:`repro.durable.db.DurableDB`
(``register``, ``add``, ``rule``, ``join``, ``remove``, ``update``,
``score``, ``drop``) is serialised to one binary record *after* the
in-memory table accepted it, so the journal only ever contains
mutations that passed validation.
``serve`` records additionally journal recently served query keys so
recovery can warm the prepare cache (:mod:`repro.durable.recover`).

Record framing::

    segment  := MAGIC ("RPWAL001") record*
    record   := <u32 payload_len> <u32 crc32(payload)> payload
    payload  := compact UTF-8 JSON object with an "op" field

A crash can leave a *torn tail*: a partial header, a payload shorter
than its declared length, or a payload that fails its CRC.  Scanning
(:func:`scan_segment`) stops at the first such record and reports the
bytes dropped; recovery simply replays the prefix — the torn record was
never acknowledged as durable.  Damage that a torn write cannot explain
(bad magic, a CRC-valid record that is not JSON) raises
:class:`~repro.exceptions.WalCorruptionError` from :func:`replay_wal`
and is reported by ``repro durable verify``.

Durability knobs (``fsync`` policy):

* ``always``   — fsync after every append; an acknowledged record
  survives power loss.
* ``interval`` — flush every append (survives SIGKILL of the process),
  fsync at most once per ``fsync_interval`` seconds (bounded loss on
  power failure).  The default.
* ``off``      — flush only; fsync is left to the OS.

A fresh segment is started on every open and on :meth:`rotate` — the
writer never appends to a file that might end in a torn record.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.exceptions import DurabilityError, WalCorruptionError
from repro.model.mutation import decode_tid, encode_tid  # noqa: F401 - the WAL's tid codec
from repro.obs import OBS, catalogued

MAGIC = b"RPWAL001"
_HEADER = struct.Struct("<II")

#: Records larger than this are assumed to be garbage from a torn write
#: (no legitimate payload approaches it), bounding memory during scans.
MAX_RECORD_BYTES = 64 * 1024 * 1024

FSYNC_POLICIES = ("always", "interval", "off")


def encode_record(record: Dict[str, Any]) -> bytes:
    """Frame one record: length + CRC32 header, compact JSON payload."""
    payload = json.dumps(
        record, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


@dataclass
class SegmentScan:
    """Result of scanning one WAL segment.

    :param records: the decoded records of the valid prefix.
    :param good_bytes: length of the valid prefix (magic included).
    :param total_bytes: physical file length.
    :param corrupt: True for damage a torn write cannot explain.
    :param problem: human-readable description of why the scan stopped
        early, or ``None`` when the segment is clean.
    """

    records: List[Dict[str, Any]] = field(default_factory=list)
    good_bytes: int = 0
    total_bytes: int = 0
    corrupt: bool = False
    problem: Optional[str] = None

    @property
    def torn_bytes(self) -> int:
        """Bytes past the valid prefix (0 for a clean segment)."""
        return self.total_bytes - self.good_bytes


def scan_segment(path: Union[str, Path]) -> SegmentScan:
    """Scan one segment, stopping at the first invalid record.

    Never raises for on-disk damage: a torn tail is normal after a
    crash, and structural corruption is reported via
    :attr:`SegmentScan.corrupt` so callers decide how loud to be.
    """
    data = Path(path).read_bytes()
    scan = SegmentScan(total_bytes=len(data))
    if len(data) < len(MAGIC):
        # A crash can tear even the 8-byte magic write; a short file that
        # is a prefix of the magic is a torn header, anything else is not
        # a WAL segment at all.
        if data and not MAGIC.startswith(data):
            scan.corrupt = True
            scan.problem = "not a WAL segment (bad magic)"
        elif data:
            scan.problem = "torn segment header"
        return scan
    if data[: len(MAGIC)] != MAGIC:
        scan.corrupt = True
        scan.problem = "not a WAL segment (bad magic)"
        return scan
    offset = len(MAGIC)
    scan.good_bytes = offset
    while offset < len(data):
        if offset + _HEADER.size > len(data):
            scan.problem = "torn record header"
            break
        length, crc = _HEADER.unpack_from(data, offset)
        if length > MAX_RECORD_BYTES:
            scan.problem = f"implausible record length {length} (torn header)"
            break
        start = offset + _HEADER.size
        end = start + length
        if end > len(data):
            scan.problem = "torn record payload"
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            scan.problem = "record failed CRC32 (torn write)"
            break
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            # The CRC matched, so these bytes were written on purpose;
            # this is a writer bug or tampering, not a torn tail.
            scan.corrupt = True
            scan.problem = f"CRC-valid record is not JSON: {error}"
            break
        scan.records.append(record)
        scan.good_bytes = end
        offset = end
    return scan


class WriteAheadLog:
    """Append-only journal over a directory of numbered segments.

    :param directory: segment directory (created if missing).
    :param fsync: durability policy — ``always`` / ``interval`` / ``off``.
    :param fsync_interval: maximum seconds between fsyncs under the
        ``interval`` policy.
    :param max_segment_bytes: when set, :meth:`append` rotates to a new
        segment once the active one reaches this size, so consumers
        (snapshot compaction, replication shipping) see bounded segments
        without anyone calling :meth:`rotate` by hand.

    Segments are named ``wal-<seq>.log``; sequence numbers only grow.
    The writer opens a *new* segment (it never appends to an existing
    file), so a torn tail left by a crash stays frozen where recovery
    can detect and skip it.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        fsync: str = "interval",
        fsync_interval: float = 0.05,
        max_segment_bytes: Optional[int] = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise DurabilityError(
                f"unknown fsync policy {fsync!r}; "
                f"expected one of {FSYNC_POLICIES}"
            )
        if max_segment_bytes is not None and max_segment_bytes <= len(MAGIC):
            raise DurabilityError(
                f"max_segment_bytes must exceed the {len(MAGIC)}-byte "
                f"segment header, got {max_segment_bytes}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync_policy = fsync
        self.fsync_interval = fsync_interval
        self.max_segment_bytes = max_segment_bytes
        self.appended_records = 0
        self.appended_bytes = 0
        self.fsyncs = 0
        self.rotations = 0
        self.unsynced_bytes = 0
        self._file = None
        self._last_fsync = 0.0
        self._lock = threading.RLock()
        self._pins: Dict[str, int] = {}
        self._sequence = self._last_sequence()
        self._open_segment()

    # ------------------------------------------------------------------
    # Segment bookkeeping
    # ------------------------------------------------------------------
    @staticmethod
    def sequence_of(path: Union[str, Path]) -> int:
        """The integer sequence number in a segment name, or -1.

        Ordering must use this, never the path string: lexicographic
        comparison misorders ``wal-1000000.log`` before
        ``wal-999999.log`` once sequences outgrow the zero padding.
        """
        try:
            return int(Path(path).stem.split("-", 1)[1])
        except (IndexError, ValueError):
            return -1

    @classmethod
    def segment_paths(cls, directory: Union[str, Path]) -> List[Path]:
        """All segments under ``directory``, oldest first (by sequence).

        Foreign directory entries that merely match the glob — editor
        temp files like ``wal-000003.log~x`` saved as ``wal-x.log``,
        subdirectories, anything whose name does not parse to a sequence
        number — are not segments and are skipped rather than scanned.
        """
        return sorted(
            (
                path
                for path in Path(directory).glob("wal-*.log")
                if path.is_file() and cls.sequence_of(path) >= 0
            ),
            key=lambda path: (cls.sequence_of(path), path.name),
        )

    def _last_sequence(self) -> int:
        # Scan the raw glob, not segment_paths(): a foreign *directory*
        # named like a segment must still push the writer past its
        # sequence or _open_segment's exclusive create would collide.
        sequences = [
            self.sequence_of(p) for p in Path(self.directory).glob("wal-*.log")
        ]
        return max([0] + sequences)

    def _open_segment(self) -> None:
        self._sequence += 1
        self._path = self.directory / f"wal-{self._sequence:06d}.log"
        self._file = open(self._path, "xb")
        self._file.write(MAGIC)
        self._file.flush()
        self._fsync()

    @property
    def path(self) -> Path:
        """Path of the segment currently being appended to."""
        return self._path

    @property
    def tell(self) -> int:
        """Byte length of the active segment written so far."""
        return self._file.tell()

    @property
    def sequence(self) -> int:
        """Sequence number of the active segment."""
        return self._sequence

    def position(self) -> Tuple[int, int]:
        """Consistent ``(sequence, offset)`` of the end of the journal.

        Taken under the append lock, so the offset never lands inside a
        half-written record — safe to hand out as a replication cursor
        while other threads append.
        """
        with self._lock:
            if self._file is None:
                return self._sequence, len(MAGIC)
            return self._sequence, self._file.tell()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._file is None

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(self, record: Dict[str, Any]) -> int:
        """Journal one record; returns the bytes appended.

        The record is flushed to the OS before returning (all policies),
        so a SIGKILL of the process cannot lose an acknowledged append;
        the fsync policy decides what a *power* failure can lose.

        Appends are serialised by an internal lock — the serving layer
        flushes buffered serve keys from executor threads while the
        owning thread may be journalling mutations.
        """
        buffer = encode_record(record)
        with self._lock:
            if self._file is None:
                raise DurabilityError("write-ahead log is closed")
            self._file.write(buffer)
            self._file.flush()
            self.unsynced_bytes += len(buffer)
            if self.fsync_policy == "always":
                self._fsync()
            elif self.fsync_policy == "interval":
                now = time.monotonic()
                if now - self._last_fsync >= self.fsync_interval:
                    self._fsync()
            self.appended_records += 1
            self.appended_bytes += len(buffer)
            backlog = self.unsynced_bytes
            if (
                self.max_segment_bytes is not None
                and self._file.tell() >= self.max_segment_bytes
            ):
                self._rotate_locked()
        if OBS.enabled:
            catalogued("repro_durable_wal_appends_total").inc(
                kind=str(record.get("op", "unknown"))
            )
            catalogued("repro_durable_wal_bytes_total").inc(len(buffer))
            catalogued("repro_durable_wal_backlog_bytes").set(backlog)
        return len(buffer)

    def _fsync(self) -> None:
        os.fsync(self._file.fileno())
        self._last_fsync = time.monotonic()
        self.fsyncs += 1
        self.unsynced_bytes = 0
        if OBS.enabled:
            catalogued("repro_durable_wal_fsyncs_total").inc()
            catalogued("repro_durable_wal_backlog_bytes").set(0)

    def sync(self) -> None:
        """Force the active segment to stable storage."""
        with self._lock:
            if self._file is not None:
                self._file.flush()
                self._fsync()

    # ------------------------------------------------------------------
    # Rotation and compaction
    # ------------------------------------------------------------------
    def rotate(self) -> Path:
        """Seal the active segment and start a new one.

        :returns: the path of the sealed segment.
        """
        with self._lock:
            return self._rotate_locked()

    def _rotate_locked(self) -> Path:
        sealed = self._path
        self._file.flush()
        self._fsync()
        self._file.close()
        self._open_segment()
        self.rotations += 1
        return sealed

    # ------------------------------------------------------------------
    # Retention pinning (replication)
    # ------------------------------------------------------------------
    def pin_segments(self, token: str, sequence: int) -> None:
        """Protect segments with sequences >= ``sequence`` from compaction.

        Each ``token`` (one per live replica) holds at most one pin;
        re-pinning moves it forward as the replica's cursor advances.
        :meth:`drop_segments_before` never deletes a pinned segment, so a
        replica that is behind can always resume from its cursor instead
        of re-bootstrapping.
        """
        with self._lock:
            self._pins[token] = max(0, int(sequence))

    def unpin_segments(self, token: str) -> None:
        """Release ``token``'s retention pin (no-op if absent)."""
        with self._lock:
            self._pins.pop(token, None)

    def pinned_sequence(self) -> Optional[int]:
        """The lowest pinned sequence, or ``None`` when nothing is pinned."""
        with self._lock:
            return min(self._pins.values()) if self._pins else None

    @property
    def pins(self) -> Dict[str, int]:
        """Snapshot of the live retention pins (token -> sequence)."""
        with self._lock:
            return dict(self._pins)

    def drop_segments_before(self, path: Path) -> int:
        """Delete sealed segments with sequences older than ``path``'s
        (compaction).

        Called after a snapshot has made their records redundant.  The
        effective threshold is clamped to the lowest retention pin, so
        segments a live replica still needs survive compaction.

        :returns: the number of segments deleted.
        """
        threshold = self.sequence_of(path)
        pinned = self.pinned_sequence()
        if pinned is not None:
            threshold = min(threshold, pinned)
        dropped = 0
        for segment in self.segment_paths(self.directory):
            if self.sequence_of(segment) >= threshold or segment == self._path:
                continue
            segment.unlink()
            dropped += 1
        return dropped

    def close(self) -> None:
        """Flush, fsync, and close the active segment."""
        with self._lock:
            if self._file is not None:
                self._file.flush()
                self._fsync()
                self._file.close()
                self._file = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def replay_wal(
    directory: Union[str, Path],
) -> Tuple[List[Dict[str, Any]], List[SegmentScan], List[Path]]:
    """Scan every segment under ``directory`` in order.

    :returns: ``(records, scans, paths)`` — the concatenated valid
        records, the per-segment scan reports, and the segment paths.
    :raises WalCorruptionError: when a segment shows damage that a torn
        write cannot explain (see :func:`scan_segment`).
    """
    records: List[Dict[str, Any]] = []
    scans: List[SegmentScan] = []
    paths = WriteAheadLog.segment_paths(directory)
    for path in paths:
        scan = scan_segment(path)
        if scan.corrupt:
            raise WalCorruptionError(f"{path}: {scan.problem}")
        records.extend(scan.records)
        scans.append(scan)
    return records, scans, paths


def iter_wal(directory: Union[str, Path]) -> Iterator[Dict[str, Any]]:
    """Yield every valid record under ``directory``, oldest first."""
    records, _, _ = replay_wal(directory)
    return iter(records)
