"""Length+CRC-framed append-only write-ahead log for durable ingest.

The durable store lifecycle (:mod:`repro.core.durable`) acknowledges an
ingest only after the record batch is framed into this log, so a crash
between two seals loses nothing that was acknowledged — recovery replays
the log tail into a fresh memtable.

File layout::

    BWAL | u16 version | u16 reserved          (8-byte file header)
    frame*                                     (append-only)

Frame layout::

    u32 payload length | u32 crc32(payload) | payload

Frame payload (one record batch, columnar)::

    u8 kind (1 = record batch) | u32 n
    n x i64 event ids | n x f8 timestamps
    u8 has_counts | [n x i64 counts]

A frame is the atomic unit of durability: the CRC either validates the
whole batch or the frame (and everything after it) is discarded as a
*torn tail*.  Replay therefore recovers exactly a prefix of the
acknowledged batches — never a torn one — which is what makes the
recovered store bit-comparable to an exact oracle fed the same prefix.

fsync policies (the durability/throughput dial):

``"always"``
    fsync after every append — an acknowledged batch survives power
    loss.  Slowest; one disk flush per batch.
``"batch"`` (default)
    fsync at explicit durability points (:meth:`flush`, seal,
    :meth:`close`) *and* whenever the unsynced tail crosses the
    ``flush_bytes`` threshold, so a slow producer cannot hold
    acknowledged records unsynced indefinitely.  An OS
    crash can lose at most the sub-threshold tail since the last sync;
    a mere process crash (``SIGKILL``) cannot lose anything, because
    the frames already reached the page cache.
``"never"``
    never fsync; the OS decides when bytes hit the platter.  Fastest,
    for bulk loads that can be replayed from the source.
"""

from __future__ import annotations

import io
import logging
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import InvalidParameterError
from repro.core.metrics import global_registry
from repro.core.tracing import span as _trace_span

_logger = logging.getLogger("repro.core.wal")

__all__ = [
    "DEFAULT_FLUSH_BYTES",
    "FSYNC_POLICIES",
    "WAL_HEADER_SIZE",
    "WAL_MAGIC",
    "WAL_VERSION",
    "WalReplay",
    "WriteAheadLog",
    "replay_wal",
]

WAL_MAGIC = b"BWAL"
WAL_VERSION = 1
FSYNC_POLICIES = ("always", "batch", "never")

# Under fsync="batch", sync once the unsynced tail crosses this many
# bytes even if no explicit durability point arrives (1 MiB keeps the
# worst-case power-loss window bounded without per-append flushes).
DEFAULT_FLUSH_BYTES = 1 << 20

_FILE_HEADER = struct.Struct("<4sHH")  # magic, version, reserved
WAL_HEADER_SIZE = _FILE_HEADER.size
_FRAME_HEADER = struct.Struct("<II")  # payload length, crc32
_BATCH_HEADER = struct.Struct("<BI")  # kind, record count
_KIND_RECORDS = 1

# Guards replay against a corrupt length field claiming gigabytes: no
# legitimate frame exceeds this (the durable store seals long before).
MAX_FRAME_BYTES = 1 << 30


def _require_policy(fsync: str) -> str:
    if fsync not in FSYNC_POLICIES:
        raise InvalidParameterError(
            f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}"
        )
    return fsync


def _encode_batch(ids: np.ndarray, ts: np.ndarray, counts) -> bytes:
    out = io.BytesIO()
    out.write(_BATCH_HEADER.pack(_KIND_RECORDS, int(ids.size)))
    out.write(np.ascontiguousarray(ids, dtype="<i8").tobytes())
    out.write(np.ascontiguousarray(ts, dtype="<f8").tobytes())
    if counts is None:
        out.write(b"\x00")
    else:
        out.write(b"\x01")
        out.write(np.ascontiguousarray(counts, dtype="<i8").tobytes())
    return out.getvalue()


def _decode_batch(payload: bytes):
    kind, n = _BATCH_HEADER.unpack_from(payload)
    if kind != _KIND_RECORDS:
        raise InvalidParameterError(f"unknown WAL frame kind {kind}")
    offset = _BATCH_HEADER.size
    ids = np.frombuffer(payload, dtype="<i8", count=n, offset=offset).copy()
    offset += 8 * n
    ts = np.frombuffer(payload, dtype="<f8", count=n, offset=offset).copy()
    offset += 8 * n
    has_counts = payload[offset]
    offset += 1
    counts = None
    if has_counts:
        counts = np.frombuffer(
            payload, dtype="<i8", count=n, offset=offset
        ).copy()
    return ids, ts, counts


class WriteAheadLog:
    """One append-only log file plus its fsync policy.

    ``append`` frames a record batch and hands it to the OS in a single
    ``write`` — after it returns, the batch is recoverable across a
    process kill (and across power loss under ``fsync="always"``).
    """

    def __init__(
        self,
        path,
        *,
        fsync: str = "batch",
        flush_bytes: int | None = None,
        truncate: bool = False,
        _resume_at: int | None = None,
    ) -> None:
        self.path = os.fspath(path)
        self.fsync_policy = _require_policy(fsync)
        if flush_bytes is None:
            flush_bytes = DEFAULT_FLUSH_BYTES
        if flush_bytes <= 0:
            raise InvalidParameterError(
                "the flush_bytes threshold must be positive"
            )
        self.flush_bytes = int(flush_bytes)
        self._unsynced_bytes = 0
        metrics = global_registry()
        self._frames_total = metrics.counter(
            "wal_append_frames_total", "frames appended to WALs"
        )
        self._bytes_total = metrics.counter(
            "wal_append_bytes_total", "bytes appended to WALs"
        )
        self._fsyncs_total = metrics.counter(
            "wal_fsyncs_total", "fsync calls issued by WALs"
        )
        fresh = truncate or not os.path.exists(self.path)
        if _resume_at is not None and not fresh:
            # Recovery found a torn tail: drop it *before* appending, or
            # the next replay would stop at the tear and skip everything
            # written after it.
            with open(self.path, "r+b") as handle:
                handle.truncate(_resume_at)
        # buffering=0: an acknowledged frame is in the page cache the
        # moment append() returns, so SIGKILL cannot lose it.
        self._handle = open(self.path, "wb" if fresh else "ab", buffering=0)
        if fresh:
            self._handle.write(_FILE_HEADER.pack(WAL_MAGIC, WAL_VERSION, 0))
            self._sync()
        self._size = os.fstat(self._handle.fileno()).st_size
        self._closed = False

    # -- writing -------------------------------------------------------
    def append(self, event_ids, timestamps, counts=None) -> int:
        """Frame one record batch into the log; returns the new size.

        The caller validates the batch (shape, stream order) *before*
        appending — a frame, once written, will be replayed.
        """
        ids = np.asarray(event_ids)
        ts = np.asarray(timestamps, dtype=np.float64)
        payload = _encode_batch(ids, ts, counts)
        frame = (
            _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        )
        with _trace_span(
            "wal.append", records=int(ids.size), bytes=len(frame)
        ):
            self._handle.write(frame)
            self._size += len(frame)
            self._frames_total.inc()
            self._bytes_total.inc(len(frame))
            if self.fsync_policy == "always":
                self._sync()
            elif self.fsync_policy == "batch":
                self._unsynced_bytes += len(frame)
                if self._unsynced_bytes >= self.flush_bytes:
                    self._sync()
        return self._size

    def append_record(
        self, event_id: int, timestamp: float, count: int = 1
    ) -> int:
        """Scalar convenience: one record framed as a batch of one."""
        counts = None if count == 1 else np.asarray([count], dtype=np.int64)
        return self.append(
            np.asarray([event_id], dtype=np.int64),
            np.asarray([timestamp], dtype=np.float64),
            counts,
        )

    def flush(self) -> None:
        """Explicit durability point (fsync unless policy is "never")."""
        if self.fsync_policy != "never":
            self._sync()

    def sync(self) -> None:
        """Unconditional fsync (used when sealing, whatever the policy)."""
        self._sync()

    def _sync(self) -> None:
        with _trace_span("wal.fsync"):
            os.fsync(self._handle.fileno())
        self._fsyncs_total.inc()
        self._unsynced_bytes = 0

    # -- lifecycle -----------------------------------------------------
    @property
    def size(self) -> int:
        """Current log size in bytes (header + frames)."""
        return self._size

    @property
    def unsynced_bytes(self) -> int:
        """Bytes appended since the last fsync (0 under "always")."""
        return self._unsynced_bytes

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Flush per policy and release the file handle (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            if self.fsync_policy != "never":
                self._sync()
        finally:
            self._handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


@dataclass
class WalReplay:
    """Everything replay learned from one log file.

    ``good_offset`` is the end of the last valid frame — reopening the
    log for append truncates there, so a torn tail can never shadow
    frames appended after recovery.
    """

    batches: list = field(default_factory=list)
    frames: int = 0
    records: int = 0
    good_offset: int = _FILE_HEADER.size
    torn: bool = False

    def __iter__(self):
        return iter(self.batches)


def replay_wal(path) -> WalReplay:
    """Scan a log, yielding every batch up to the first torn frame.

    A missing file replays as empty (the crash window between writing a
    manifest and creating its log).  A file too short for its header, or
    with the wrong magic, is *corruption of sealed state* and raises —
    unlike a torn tail, that can silently lose acknowledged frames.
    """
    with _trace_span("wal.replay") as sp:
        result = _replay_wal(path)
        sp.set_attribute("frames", result.frames)
        sp.set_attribute("records", result.records)
        sp.set_attribute("torn", result.torn)
    if result.torn:
        _logger.warning(
            "torn WAL tail in %s: replayed %d frames (%d records), "
            "discarding bytes past offset %d",
            path,
            result.frames,
            result.records,
            result.good_offset,
        )
    return result


def _replay_wal(path) -> WalReplay:
    metrics = global_registry()
    replay_frames = metrics.counter(
        "wal_replay_frames_total", "frames replayed from WALs"
    )
    replay_records = metrics.counter(
        "wal_replay_records_total", "records replayed from WALs"
    )
    replay_torn = metrics.counter(
        "wal_replay_torn_tails_total", "torn WAL tails discarded on replay"
    )
    result = WalReplay()
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        result.good_offset = 0
        return result
    if len(data) < _FILE_HEADER.size:
        result.torn = True
        result.good_offset = 0
        replay_torn.inc()
        return result
    magic, version, _reserved = _FILE_HEADER.unpack_from(data)
    if magic != WAL_MAGIC:
        raise InvalidParameterError(f"{path!s} is not a WAL file")
    if version > WAL_VERSION:
        raise InvalidParameterError(
            f"WAL format v{version} is newer than supported v{WAL_VERSION}"
        )
    offset = _FILE_HEADER.size
    while offset + _FRAME_HEADER.size <= len(data):
        length, crc = _FRAME_HEADER.unpack_from(data, offset)
        start = offset + _FRAME_HEADER.size
        end = start + length
        if length > MAX_FRAME_BYTES or end > len(data):
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            break
        ids, ts, counts = _decode_batch(payload)
        result.batches.append((ids, ts, counts))
        result.frames += 1
        result.records += int(ids.size)
        offset = end
    result.good_offset = offset
    result.torn = offset != len(data)
    replay_frames.inc(result.frames)
    replay_records.inc(result.records)
    if result.torn:
        replay_torn.inc()
    return result
