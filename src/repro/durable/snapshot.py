"""Columnar table snapshots: compact, checksummed, atomically replaced.

A snapshot freezes one :class:`~repro.model.table.UncertainTable` at one
``version``.  The numeric columns (scores, membership probabilities) are
stored as raw little-endian float64 numpy arrays — the compact on-disk
representation that makes large probabilistic tables cheap to reload —
and everything irregular (tuple ids, sparse attributes, rule tags) lives
in a JSON header::

    file   := MAGIC ("RPSNAP01") <u32 crc32(body)> <u32 header_len> body
    body   := header_json scores_f64[] probabilities_f64[]
    header := {"name", "epoch", "version", "count", "tids", "attributes",
               "rules": [{"rule_id", "members"}, ...]}

Tuple ids follow the :mod:`repro.io.jsonio` convention: tuple-typed ids
are written as arrays and revived on read.  ``attributes`` is sparse —
only tuples with a non-empty attribute mapping appear, keyed by their
position in the column order.

Writes are crash-safe by construction: the file is built under a
``*.tmp`` name in the destination directory, fsynced, then atomically
renamed over the target (``os.replace``).  Readers therefore only ever
see complete snapshots; a crash mid-write leaves a stale ``*.tmp`` that
:func:`write_snapshot` and compaction clean up.

One table accumulates one file per snapshotted version
(``<safe-name>.<name-crc>-e<epoch>-v<version>.snap``); recovery picks
the newest one that passes its CRC and falls back to older generations,
and :func:`compact_snapshots` deletes superseded files once a newer one
has landed.

"Newest" is decided by ``(epoch, version)``, not raw version: the
*registration epoch* counts how many times a registry name has been
(re-)registered, so a replacement table re-registered after a drop —
which restarts at a low ``version`` — still outranks the dropped
predecessor's high-version snapshots.  Files written before epochs
existed read as epoch 0.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.kernel import (
    TableColumns,
    columnar_topk_scan,
    ranked_order,
    rule_slots,
)
from repro.exceptions import SnapshotCorruptionError
from repro.durable.wal import decode_tid, encode_tid
from repro.model.rules import GenerationRule
from repro.model.table import UncertainTable
from repro.obs import OBS, catalogued

MAGIC = b"RPSNAP01"
_PREFIX = struct.Struct("<II")  # crc32(body), header length


def snapshot_filename(name: str, version: int, epoch: int = 0) -> str:
    """Deterministic snapshot filename for ``(name, epoch, version)``.

    The sanitised name keeps listings readable; the CRC32 of the exact
    name disambiguates tables whose names sanitise identically, and the
    epoch keeps a re-registered table's files distinct from its dropped
    predecessor's.
    """
    safe = "".join(c if c.isalnum() or c in "._-" else "_" for c in name)[:80]
    return (
        f"{safe or 'table'}.{zlib.crc32(name.encode('utf-8')):08x}"
        f"-e{epoch:06d}-v{version:012d}.snap"
    )


def snapshot_rank(header: Dict[str, Any]) -> Tuple[int, int]:
    """Recency key of a snapshot header: ``(epoch, version)``.

    Pre-epoch files (no ``epoch`` field) rank as epoch 0.
    """
    return int(header.get("epoch", 0)), int(header["version"])


def serialize_table(
    table: UncertainTable, name: Optional[str] = None, epoch: int = 0
) -> bytes:
    """The complete snapshot file image for ``table`` (header + columns).

    :param name: registry name to record; defaults to ``table.name``.
    :param epoch: registration epoch of the registry name.
    """
    tuples = table.tuples()
    scores = np.array([t.score for t in tuples], dtype="<f8")
    probabilities = np.array([t.probability for t in tuples], dtype="<f8")
    attributes = {
        str(position): dict(tup.attributes)
        for position, tup in enumerate(tuples)
        if tup.attributes
    }
    header = {
        "name": name if name is not None else table.name,
        "table_name": table.name,
        "epoch": int(epoch),
        "version": table.version,
        "count": len(tuples),
        "tids": [encode_tid(t.tid) for t in tuples],
        "attributes": attributes,
        "rules": [
            {
                "rule_id": rule.rule_id,
                "members": [encode_tid(tid) for tid in rule.tuple_ids],
            }
            for rule in table.multi_rules()
        ],
    }
    header_bytes = json.dumps(
        header, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    body = header_bytes + scores.tobytes() + probabilities.tobytes()
    return MAGIC + _PREFIX.pack(zlib.crc32(body), len(header_bytes)) + body


def deserialize_table(data: bytes, source: str = "<bytes>") -> Tuple[UncertainTable, str]:
    """Rebuild ``(table, registry name)`` from a snapshot image.

    The table's :attr:`~repro.model.table.UncertainTable.version` is
    restored to the exact journalled value — the recovery invariant the
    prepare cache's version keying relies on.

    :raises SnapshotCorruptionError: on a bad magic, CRC mismatch, or
        undecodable header.
    """
    if len(data) < len(MAGIC) + _PREFIX.size or data[: len(MAGIC)] != MAGIC:
        raise SnapshotCorruptionError(f"{source}: not a snapshot (bad magic)")
    crc, header_len = _PREFIX.unpack_from(data, len(MAGIC))
    body = data[len(MAGIC) + _PREFIX.size:]
    if zlib.crc32(body) != crc:
        raise SnapshotCorruptionError(f"{source}: snapshot failed CRC32")
    try:
        header = json.loads(body[:header_len].decode("utf-8"))
        count = int(header["count"])
        columns = body[header_len:]
        scores = np.frombuffer(columns, dtype="<f8", count=count)
        probabilities = np.frombuffer(
            columns, dtype="<f8", count=count, offset=count * 8
        )
        table = UncertainTable(name=header.get("table_name") or header["name"])
        attributes = header.get("attributes", {})
        for position, tid in enumerate(header["tids"]):
            table.add(
                decode_tid(tid),
                score=float(scores[position]),
                probability=float(probabilities[position]),
                **attributes.get(str(position), {}),
            )
        for rule in header.get("rules", []):
            table.add_exclusive(
                rule["rule_id"], *[decode_tid(m) for m in rule["members"]]
            )
        table.validate()
        table._version = int(header["version"])
    except SnapshotCorruptionError:
        raise
    except Exception as error:
        raise SnapshotCorruptionError(
            f"{source}: undecodable snapshot: {error}"
        ) from error
    return table, header["name"]


def read_header(path: Union[str, Path]) -> Dict[str, Any]:
    """Decode just the JSON header of a snapshot file (no CRC check).

    Used to order candidate files by version cheaply; full validation
    happens in :func:`read_snapshot` when a candidate is actually loaded.
    """
    path = Path(path)
    with open(path, "rb") as handle:
        prefix = handle.read(len(MAGIC) + _PREFIX.size)
        if len(prefix) < len(MAGIC) + _PREFIX.size or prefix[: len(MAGIC)] != MAGIC:
            raise SnapshotCorruptionError(f"{path}: not a snapshot (bad magic)")
        _, header_len = _PREFIX.unpack_from(prefix, len(MAGIC))
        try:
            return json.loads(handle.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise SnapshotCorruptionError(
                f"{path}: undecodable snapshot header: {error}"
            ) from error


def write_snapshot(
    table: UncertainTable,
    directory: Union[str, Path],
    name: Optional[str] = None,
    epoch: int = 0,
) -> Path:
    """Write one snapshot atomically; returns the final path.

    The image lands under a temporary name first and is renamed into
    place only after an fsync, so readers never observe a partial file.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    registry_name = name if name is not None else table.name
    target = directory / snapshot_filename(registry_name, table.version, epoch)
    data = serialize_table(table, name=registry_name, epoch=epoch)
    temporary = target.with_name(target.name + ".tmp")
    with open(temporary, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temporary, target)
    _fsync_directory(directory)
    if OBS.enabled:
        catalogued("repro_durable_snapshot_bytes").observe(len(data))
    return target


def read_snapshot(path: Union[str, Path]) -> Tuple[UncertainTable, str]:
    """Load and fully validate one snapshot file."""
    return deserialize_table(Path(path).read_bytes(), source=str(path))


@dataclass
class SnapshotColumns:
    """Zero-copy columnar view over one snapshot file.

    ``score`` and ``probability`` are read-only ``numpy.memmap`` views
    straight over the on-disk float64 columns — the same layout (and
    the same :class:`~repro.core.kernel.TableColumns` consumers) the
    in-memory prepared rankings use — so serving a recovered table's
    full-scan queries never materialises per-tuple python objects.

    Mmap lifecycle: the mapping stays valid for as long as any derived
    array is referenced and closes when the arrays are collected; on
    POSIX, compaction unlinking the file does not invalidate a live
    mapping.  Consumers must treat the arrays as immutable (the mode-r
    map enforces it).
    """

    path: Path
    name: str
    table_name: str
    epoch: int
    version: int
    tids: Tuple[Any, ...]
    score: np.ndarray
    probability: np.ndarray
    #: ``(rule_id, member tids)`` per multi-tuple rule, as journalled.
    rules: Tuple[Tuple[Any, Tuple[Any, ...]], ...]

    def __len__(self) -> int:
        return len(self.tids)

    @cached_property
    def ranked_columns(self) -> TableColumns:
        """The snapshot re-ordered into ranking order, as kernel columns.

        Snapshots persist insertion order, so serving the exact DP
        needs one vectorized ``lexsort`` gather (score descending,
        stringified tid ascending — the library's canonical ranking).
        The gather copies the two float64 columns; the source stays
        memory-mapped.
        """
        order = ranked_order(np.asarray(self.score, dtype=np.float64), self.tids)
        ranked_tids = tuple(self.tids[i] for i in order)
        rule_of = {
            tid: rule
            for rule in (GenerationRule(*entry) for entry in self.rules)
            for tid in rule.tuple_ids
        }
        rule_index, rule_ids = rule_slots(ranked_tids, rule_of)
        return TableColumns(
            tids=ranked_tids,
            score=np.ascontiguousarray(self.score[order], dtype=np.float64),
            probability=np.ascontiguousarray(
                self.probability[order], dtype=np.float64
            ),
            rule_index=rule_index,
            rule_ids=rule_ids,
        )

    def topk_probabilities(self, k: int) -> Dict[Any, float]:
        """``Pr^k`` for every tuple, straight off the snapshot columns.

        The recovery-time serving shortcut: one columnar kernel scan,
        no :class:`~repro.model.table.UncertainTable` reconstruction.
        """
        columns = self.ranked_columns
        out, _ = columnar_topk_scan(columns.probability, columns.rule_index, k)
        return dict(zip(columns.tids, out.tolist()))


def open_snapshot_columns(
    path: Union[str, Path], verify: bool = True
) -> SnapshotColumns:
    """Open a snapshot's numeric columns as read-only memory-maps.

    The JSON header is decoded eagerly (ids, rules, version); the two
    float64 columns are *not* read — they are ``numpy.memmap`` views the
    OS pages in on demand, which is what makes recovery of large tables
    cheap enough to serve from directly.

    :param verify: stream the body once to check the CRC32 before
        handing out views (recommended; recovery paths that already
        validated the file may skip it).
    :raises SnapshotCorruptionError: bad magic, short file, bad CRC, or
        an undecodable header.
    """
    path = Path(path)
    with open(path, "rb") as handle:
        prefix = handle.read(len(MAGIC) + _PREFIX.size)
        if len(prefix) < len(MAGIC) + _PREFIX.size or prefix[: len(MAGIC)] != MAGIC:
            raise SnapshotCorruptionError(f"{path}: not a snapshot (bad magic)")
        crc, header_len = _PREFIX.unpack_from(prefix, len(MAGIC))
        header_bytes = handle.read(header_len)
        if len(header_bytes) < header_len:
            raise SnapshotCorruptionError(f"{path}: truncated snapshot header")
        if verify:
            body_crc = zlib.crc32(header_bytes)
            while True:
                chunk = handle.read(1 << 20)
                if not chunk:
                    break
                body_crc = zlib.crc32(chunk, body_crc)
            if body_crc != crc:
                raise SnapshotCorruptionError(f"{path}: snapshot failed CRC32")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
        count = int(header["count"])
        tids = tuple(decode_tid(t) for t in header["tids"])
        rules = tuple(
            (
                rule["rule_id"],
                tuple(decode_tid(m) for m in rule["members"]),
            )
            for rule in header.get("rules", [])
        )
    except (UnicodeDecodeError, ValueError, KeyError, TypeError) as error:
        raise SnapshotCorruptionError(
            f"{path}: undecodable snapshot header: {error}"
        ) from error
    offset = len(MAGIC) + _PREFIX.size + header_len
    expected_end = offset + 2 * count * 8
    if path.stat().st_size < expected_end:
        raise SnapshotCorruptionError(
            f"{path}: truncated snapshot columns "
            f"(need {expected_end} bytes, have {path.stat().st_size})"
        )
    score = (
        np.memmap(path, dtype="<f8", mode="r", offset=offset, shape=(count,))
        if count
        else np.empty(0, dtype=np.float64)
    )
    probability = (
        np.memmap(
            path,
            dtype="<f8",
            mode="r",
            offset=offset + count * 8,
            shape=(count,),
        )
        if count
        else np.empty(0, dtype=np.float64)
    )
    return SnapshotColumns(
        path=path,
        name=header["name"],
        table_name=header.get("table_name") or header["name"],
        epoch=int(header.get("epoch", 0)),
        version=int(header["version"]),
        tids=tids,
        score=score,
        probability=probability,
        rules=rules,
    )


def open_latest_snapshot_columns(
    directory: Union[str, Path], name: str, verify: bool = True
) -> Optional[SnapshotColumns]:
    """Memory-mapped columns of ``name``'s newest loadable snapshot.

    The zero-copy sibling of :func:`load_latest_snapshots` for one
    table: candidates are tried newest ``(epoch, version)`` first, CRC
    failures fall back to older generations, and ``None`` means no
    loadable snapshot exists.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return None
    candidates: List[Tuple[Tuple[int, int], Path]] = []
    for path in sorted(directory.glob("*.snap")):
        try:
            header = read_header(path)
            if header["name"] == name:
                candidates.append((snapshot_rank(header), path))
        except (SnapshotCorruptionError, KeyError, TypeError, ValueError):
            continue
    for _, path in sorted(candidates, reverse=True):
        try:
            return open_snapshot_columns(path, verify=verify)
        except SnapshotCorruptionError:
            continue
    return None


@dataclass
class SnapshotCatalog:
    """What a snapshot directory currently holds.

    :param latest: registry name -> (path, version) of the newest
        loadable candidate per table (not yet CRC-verified).
    :param errors: files whose header could not even be read.
    """

    latest: Dict[str, Tuple[Path, int]] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)


def catalog_snapshots(directory: Union[str, Path]) -> SnapshotCatalog:
    """Index a snapshot directory by table name, newest first.

    Newest means the highest ``(epoch, version)`` rank — see
    :func:`snapshot_rank`.
    """
    catalog = SnapshotCatalog()
    directory = Path(directory)
    if not directory.is_dir():
        return catalog
    best: Dict[str, Tuple[int, int]] = {}
    for path in sorted(directory.glob("*.snap")):
        try:
            header = read_header(path)
            name, rank = header["name"], snapshot_rank(header)
        except (SnapshotCorruptionError, KeyError, TypeError, ValueError) as error:
            catalog.errors.append(f"{path.name}: {error}")
            continue
        if name not in best or rank > best[name]:
            best[name] = rank
            catalog.latest[name] = (path, rank[1])
    return catalog


def load_latest_snapshots(
    directory: Union[str, Path],
) -> Tuple[Dict[str, UncertainTable], List[str], Dict[str, int]]:
    """Load the newest valid snapshot of every table under ``directory``.

    Candidates are ranked by ``(epoch, version)``; a candidate failing
    its CRC is skipped with a note and the next older generation of the
    same table (if any) is tried, so one corrupt file degrades recovery
    to an older durable point instead of failing it.

    :returns: ``(tables by registry name, problem notes, registration
        epoch of each loaded table)``.
    """
    directory = Path(directory)
    tables: Dict[str, UncertainTable] = {}
    problems: List[str] = []
    epochs: Dict[str, int] = {}
    if not directory.is_dir():
        return tables, problems, epochs
    candidates: Dict[str, List[Tuple[Tuple[int, int], Path]]] = {}
    for path in sorted(directory.glob("*.snap")):
        try:
            header = read_header(path)
            candidates.setdefault(header["name"], []).append(
                (snapshot_rank(header), path)
            )
        except (SnapshotCorruptionError, KeyError, TypeError, ValueError) as error:
            problems.append(str(error))
    for name, ranked in candidates.items():
        for (epoch, _), path in sorted(ranked, reverse=True):
            try:
                table, registry_name = read_snapshot(path)
            except SnapshotCorruptionError as error:
                problems.append(str(error))
                continue
            tables[registry_name] = table
            epochs[registry_name] = epoch
            break
        else:
            problems.append(f"no loadable snapshot for table {name!r}")
    return tables, problems, epochs


def compact_snapshots(
    directory: Union[str, Path],
    keep: int = 1,
    registered: Optional[set] = None,
) -> int:
    """Delete superseded snapshot generations (and stale ``*.tmp`` files).

    :param keep: newest generations (by ``(epoch, version)``) to retain
        per table.
    :param registered: when given, the registry names that still exist —
        *every* generation of a name not in the set is deleted, so a
        dropped table cannot resurrect once the WAL record of its drop
        is compacted away.
    :returns: the number of files deleted.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return 0
    deleted = 0
    for leftover in directory.glob("*.snap.tmp"):
        leftover.unlink()
        deleted += 1
    generations: Dict[str, List[Tuple[Tuple[int, int], Path]]] = {}
    for path in directory.glob("*.snap"):
        try:
            header = read_header(path)
            generations.setdefault(header["name"], []).append(
                (snapshot_rank(header), path)
            )
        except (SnapshotCorruptionError, KeyError, TypeError, ValueError):
            continue  # unreadable files are verify's business, not ours
    for name, ranked in generations.items():
        if registered is not None and name not in registered:
            superseded = sorted(ranked, reverse=True)
        else:
            superseded = sorted(ranked, reverse=True)[max(keep, 1):]
        for _, path in superseded:
            path.unlink()
            deleted += 1
    return deleted


def _fsync_directory(directory: Path) -> None:
    """Best-effort fsync of a directory (persists the rename itself)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)
