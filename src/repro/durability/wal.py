"""Write-ahead log segments: length-prefixed, CRC-guarded JSON frames.

The WAL is a directory of *segment* files, each a concatenation of records::

    +----------------+----------------+------------------------+
    | length (4B BE) | crc32  (4B BE) | payload (UTF-8 JSON)   |
    +----------------+----------------+------------------------+

``length`` counts payload bytes only; ``crc32`` is over the payload. Each
payload is one JSON object carrying a monotonically increasing ``"seq"``
plus the operation fields (see :mod:`repro.durability.recovery`).

Segments are named ``wal-<first_seq>.seg`` after the sequence number of the
first record they hold, so the covered range of any segment is evident from
the directory listing alone: segment *i* covers ``[first_seq_i,
first_seq_{i+1})`` and is safe to delete once a snapshot covers it.

Reading **fails soft at the tail and hard everywhere else**: a truncated or
CRC-mismatched record ends the scan (a crash mid-``write`` leaves exactly
such a torn tail, and the torn record was by construction never
acknowledged), while callers that find a damaged record *followed by more
segments* treat it as real corruption — that policy lives in
:class:`~repro.durability.manager.DurabilityManager`, not here. This module
never raises on damaged bytes; it reports how far the segment was valid.
"""

from __future__ import annotations

import json
import os
import re
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any

from repro.errors import DurabilityError

_HEADER = struct.Struct(">II")

#: Ceiling on one record's payload. Generous for bound SQL statements, small
#: enough that a garbage length prefix cannot make recovery allocate wildly.
MAX_RECORD_BYTES = 8 << 20

#: Default segment rotation threshold.
DEFAULT_SEGMENT_BYTES = 4 << 20

_SEGMENT_RE = re.compile(r"^wal-(\d{12})\.seg$")

#: Supported fsync policies for :class:`WalWriter`.
SYNC_MODES = ("always", "batch", "off")


def segment_name(first_seq: int) -> str:
    return f"wal-{first_seq:012d}.seg"


def list_segments(directory: str) -> list[tuple[int, str]]:
    """``(first_seq, absolute_path)`` for every segment, in seq order."""
    found: list[tuple[int, str]] = []
    for entry in os.listdir(directory):
        match = _SEGMENT_RE.match(entry)
        if match:
            found.append((int(match.group(1)), os.path.join(directory, entry)))
    return sorted(found)


# ------------------------------------------------------------------- encoding


def encode_record(payload: dict[str, Any]) -> bytes:
    """Serialize one record: header (length, crc32) + JSON body."""
    try:
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise DurabilityError(
            f"WAL record is not JSON-serializable: {exc}"
        ) from exc
    if len(body) > MAX_RECORD_BYTES:
        raise DurabilityError(
            f"WAL record of {len(body)} bytes exceeds "
            f"MAX_RECORD_BYTES ({MAX_RECORD_BYTES})"
        )
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


@dataclass
class SegmentScan:
    """What one segment file held: the valid prefix and how it ended."""

    path: str
    records: list[dict[str, Any]] = field(default_factory=list)
    #: Start byte of each record in ``records`` — recovery truncates an
    #: uncommitted transaction tail at the offset of its ``txn_begin``.
    offsets: list[int] = field(default_factory=list)
    #: Bytes of the file occupied by valid records (truncation point).
    valid_bytes: int = 0
    #: True when the file ended exactly at a record boundary.
    clean: bool = True
    #: Why the scan stopped early (None when clean).
    error: str | None = None


def scan_bytes(data: bytes, path: str = "<memory>") -> SegmentScan:
    """Decode records until the data ends or a record fails validation."""
    scan = SegmentScan(path=path)
    offset = 0
    total = len(data)
    while offset < total:
        if offset + _HEADER.size > total:
            return _stop(scan, offset, "truncated header at end of segment")
        length, crc = _HEADER.unpack_from(data, offset)
        if length > MAX_RECORD_BYTES:
            return _stop(
                scan, offset,
                f"record length {length} exceeds MAX_RECORD_BYTES",
            )
        body_start = offset + _HEADER.size
        if body_start + length > total:
            return _stop(
                scan, offset,
                f"truncated record body ({total - body_start}/{length} bytes)",
            )
        body = data[body_start:body_start + length]
        if zlib.crc32(body) != crc:
            return _stop(scan, offset, "CRC mismatch")
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return _stop(scan, offset, f"invalid JSON: {exc}")
        if not isinstance(payload, dict):
            return _stop(scan, offset, "record payload is not a JSON object")
        scan.records.append(payload)
        scan.offsets.append(offset)
        offset = body_start + length
        scan.valid_bytes = offset
    return scan


def _stop(scan: SegmentScan, offset: int, reason: str) -> SegmentScan:
    scan.valid_bytes = offset
    scan.clean = False
    scan.error = reason
    return scan


def scan_segment(path: str) -> SegmentScan:
    """Scan one segment file from disk; never raises on damaged content."""
    with open(path, "rb") as source:
        return scan_bytes(source.read(), path=path)


def fsync_directory(directory: str) -> None:
    """Flush directory metadata (new/renamed files) to stable storage."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # platform without directory fds; best effort
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# --------------------------------------------------------------------- writer


class WalWriter:
    """Appends records to segment files with a configurable fsync policy.

    ``sync`` policies:

    * ``"always"`` — fsync after every append; an acknowledged write survives
      SIGKILL (the durability contract of the server);
    * ``"batch"``  — fsync every ``batch_every`` records and on rotate/close;
      a crash may lose the last unsynced batch, never more;
    * ``"off"``    — OS-buffered only (process crash still safe via the page
      cache, machine crash is not); for bulk loads and benchmarks.

    Rotation happens *before* an append once the current segment holds at
    least ``segment_bytes``; the new segment is named after the sequence
    number of the record that opens it.
    """

    def __init__(
        self,
        directory: str,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        sync: str = "always",
        batch_every: int = 64,
    ) -> None:
        if sync not in SYNC_MODES:
            raise DurabilityError(
                f"unknown sync mode {sync!r}; pick one of {SYNC_MODES}"
            )
        self.directory = directory
        self.segment_bytes = max(1, segment_bytes)
        self.sync = sync
        self.batch_every = max(1, batch_every)
        self._file: Any = None
        self._segment_size = 0
        self._unsynced = 0
        self.records_written = 0
        self.bytes_written = 0
        self.segments_opened = 0
        #: Optional callback observing each fsync's duration in seconds
        #: (a histogram child's ``observe``); set by the durability manager
        #: when metrics are bound. ``None`` costs a single attribute check.
        self.fsync_observer: Any = None

    def _fsync(self) -> None:
        """fsync the open segment, feeding the observer when bound."""
        observer = self.fsync_observer
        if observer is None:
            os.fsync(self._file.fileno())
            return
        from repro.obs.clock import Stopwatch

        watch = Stopwatch()
        os.fsync(self._file.fileno())
        observer(watch.elapsed_s())

    def append(self, payload: dict[str, Any], seq: int) -> int:
        """Encode and append one record; returns its size in bytes."""
        return self.append_batch([(payload, seq)])

    def append_batch(
        self, records: "list[tuple[dict[str, Any], int]]"
    ) -> int:
        """Append ``(payload, seq)`` records with **one** sync decision.

        All frames are written (rotating segments as needed), then the sync
        policy is applied once: ``"always"`` fsyncs once per *batch* rather
        than once per record — the whole point of the batched write path.
        A crash mid-batch leaves a torn tail of frames that were never
        acknowledged (the batch's caller had not returned), so recovery's
        truncate-the-tail rule still holds. Returns total bytes appended.
        """
        if not records:
            return 0
        # Encode everything first: a non-serializable payload must fail the
        # whole batch before any sibling frame reaches the file.
        frames = [(encode_record(payload), seq) for payload, seq in records]
        total = 0
        for frame, seq in frames:
            if self._file is None or self._segment_size >= self.segment_bytes:
                # Rotation fsyncs and closes the previous segment (unless
                # sync="off"), so a batch spanning a rotation still ends
                # with every written byte covered by an fsync.
                self._open_segment(seq)
            self._file.write(frame)
            self._segment_size += len(frame)
            self.records_written += 1
            self.bytes_written += len(frame)
            total += len(frame)
        if self.sync == "always":
            self._file.flush()
            self._fsync()
        else:
            self._file.flush()
            self._unsynced += len(frames)
            if self.sync == "batch" and self._unsynced >= self.batch_every:
                self._fsync()
                self._unsynced = 0
        return total

    def _open_segment(self, first_seq: int) -> None:
        self._sync_and_close()
        path = os.path.join(self.directory, segment_name(first_seq))
        if os.path.exists(path):
            raise DurabilityError(f"segment {path} already exists")
        self._file = open(path, "ab")
        self._segment_size = 0
        self.segments_opened += 1
        fsync_directory(self.directory)

    def _sync_and_close(self) -> None:
        if self._file is None:
            return
        self._file.flush()
        if self.sync != "off":
            self._fsync()
        self._file.close()
        self._file = None
        self._unsynced = 0

    def flush(self) -> None:
        """Force buffered records to stable storage (regardless of policy)."""
        if self._file is not None:
            self._file.flush()
            self._fsync()
            self._unsynced = 0

    def close(self) -> None:
        self._sync_and_close()

    @property
    def closed(self) -> bool:
        return self._file is None

