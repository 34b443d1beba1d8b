"""Durable write/read-split store lifecycle: WAL → memtable → segments.

Every other backend is build-offline/query-after: the store is one
mutable in-memory object, persisted only by an explicit full save.
:class:`DurableBurstStore` (registry key ``"durable"``) splits that into
an explicit lifecycle, the shape Hokusai-style segment stores use:

* **writes** are framed into a :class:`~repro.core.wal.WriteAheadLog`
  first — an acknowledged append survives a process kill — then applied
  to an in-memory *memtable* (any registered child backend);
* once the memtable holds ``seal_elements`` stream elements it is
  **sealed**: finalized, frozen into an immutable v3 envelope segment
  file (:func:`~repro.core.serialize.save_store` written atomically),
  the WAL is rotated, and the manifest commits the new segment list;
* **reads** fan across the sealed segments (opened lazily via
  :func:`~repro.core.serialize.open_store`), the frozen pending-seal
  generations and a snapshot of the live memtable.  The read path asks
  the child store for two operations only and never which kind it is:
  ``snapshot()`` turns the live memtable into an immutable part and
  ``stack(parts)`` joins immutable parts into one queryable view.  An
  exact child stacks without merging (each query runs per part and
  sums integer counts, see :meth:`ExactStore.stack
  <repro.core.store.ExactStore.stack>`), and its snapshot shares the
  append-only memtable lists up to their current lengths, so a read
  after a write costs O(events), not O(memtable) or O(history).  A
  sketch child's ``snapshot`` is its codec round trip and its
  ``stack`` the left fold of its ``merge`` — the §III-A time-range
  merge contract.  The view is cached until the next state change.

Crash recovery (``resume=True`` / :func:`recover`) opens the manifest's
segments and replays the WAL tail written after the last seal, each
replayed WAL applied to the memtable as one batch; it is idempotent,
and any torn trailing frame is discarded and truncated.
Every manifest field it reads is checked first: a missing or malformed
one raises :class:`~repro.core.errors.RecoveryError` naming the field,
before any tombstone drain, stale-file sweep or manifest rewrite.
The correctness contract, locked by the crash-injection suite: after
recovery, every query answers bit-identically to an
:class:`~repro.baselines.exact.ExactBurstStore` fed the same prefix of
acknowledged events.

Crash-window analysis for the seal sequence (new WAL → segment file →
manifest → old-WAL delete, every file write atomic-rename + fsync):

* crash before the manifest commit — the old manifest still pairs the
  old WAL, which contains every sealed record; replay covers the
  orphaned segment/WAL files, and the next seal overwrites them;
* crash after the manifest commit — the new manifest pairs the new
  (possibly still missing, hence empty) WAL; a leftover old WAL is
  ignored and cleaned up on the next recovery;
* crash mid-manifest-write — ``os.replace`` leaves the old manifest
  intact.

Concurrency: one writer thread plus any number of reader threads.
Readers only ever touch immutable objects — sealed segments, frozen
pending-seal memtables and memtable snapshots — so a query can never
observe a half-applied batch (no torn reads); the lock only serializes
snapshot construction with appends.  Every state change invalidates
the cached views through one method,
``DurableBurstStore._invalidate_views_locked``.

Background sealing (``background_seal=True``, directory mode only)
moves the expensive half of a seal — segment serialization, atomic
write, fsync — off the ingest hot path, the deamortization move the
Online Event-Detection Problem paper argues turns worst-case stalls
into steady throughput.  The hot path only *freezes* the memtable
(finalize, rotate the WAL, enqueue) and keeps appending into a fresh
generation; a dedicated seal thread drains the queue performing
segment-write → manifest-commit → old-WAL-delete.  At most
``max_unsealed`` frozen generations may be in flight: beyond that,
ingest *blocks* (never drops) until the seal thread catches up.  The
manifest's ``live_wals`` list names every WAL still backing unsealed
records — a seq leaves the list in the same atomic manifest commit
that adds its segment, so the acknowledged-prefix recovery contract is
unchanged: recovery replays the live WALs in order into one memtable.

Sharded operation: :func:`create_durable` with ``shards=N`` builds a
:class:`~repro.core.store.ShardedBurstStore` whose children are durable
stores in per-shard subdirectories (per-shard WALs).  A top-level
``sharded-durable`` manifest lists those directories in shard order
(``shard_dirs``), so :func:`recover` can rebuild the whole composite.
This module is the one reader and writer of that manifest; the
parallel-ingest coordinator and :func:`~repro.core.compaction.rebalance`
go through it too.  A rebalance commits like a compaction swap: it
writes the new shards under the next layout generation's names, swaps
the manifest once with the old directories as ``tombstones``, then
drains them.

Maintenance (``store.compact()``): sealed segments never stop
accumulating on their own, so :meth:`DurableBurstStore.compact` runs the
size-tiered merge passes of :mod:`repro.core.compaction` on the caller's
thread; no thread compacts on its own.  Each pass merges an adjacent run
of small segments into one and retires the inputs through a single
atomic manifest swap whose ``tombstones`` field recovery drains — see
that module for the crash-window analysis.  Shard counts are changed
offline with :func:`repro.core.compaction.rebalance` (CLI: ``repro
rebalance``).

Note on sketch-backed memtables: a snapshot folds the child's buffered
state on a scratch copy (the codec round trip), and a seal folds it in
place (``finalize``); both compress every partial PBE-1 buffer in one batched
sweep.  Buffered corners are exact, so a fold trades fidelity for space:
approximation guarantees are unaffected, but a sealed segment's corner
layout, and so its answers, can differ from a build that never sealed
there.  Exact children are unaffected and are what the bit-identity
differential uses.
"""

from __future__ import annotations

import contextvars
import io
import json
import logging
import math
import os
import re
import shutil
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.core import tracing as _tracing
from repro.core.compaction import (
    DEFAULT_COMPACT_FANIN,
    DEFAULT_COMPACT_MIN_SEGMENTS,
    compact_until_stable,
)
from repro.core.errors import (
    CompactionError,
    InvalidParameterError,
    RecoveryError,
    SerializationError,
    ShardCountMismatchError,
    ShardLayoutError,
    StreamOrderError,
    UnknownBackendError,
)
from repro.core.metrics import global_registry
from repro.core.serialize import atomic_write_bytes, open_store, save_store
from repro.core.store import (
    ShardedBurstStore,
    _pack_config,
    _StoreBase,
    _unpack_config,
    create_store,
    load_backend,
    register_backend,
)
from repro.core.wal import (
    WAL_HEADER_SIZE,
    WriteAheadLog,
    _require_policy,
    replay_wal,
)

__all__ = [
    "DEFAULT_MAX_UNSEALED",
    "DEFAULT_SEAL_ELEMENTS",
    "MANIFEST_NAME",
    "DurableBurstStore",
    "create_durable",
    "recover",
]

_logger = logging.getLogger("repro.core.durable")

MANIFEST_NAME = "MANIFEST.json"
MANIFEST_FORMAT = 1
# The commit journal of the rebalance protocol that shard-layout
# manifests replaced: a leftover one is refused, never replayed.
_LEGACY_REBALANCE_JOURNAL = "REBALANCE-COMMIT.json"
DEFAULT_SEAL_ELEMENTS = 100_000

# Background sealing: how many frozen-but-unsealed memtable generations
# may be in flight before ingest blocks on the seal thread.
DEFAULT_MAX_UNSEALED = 2

_NEG_INF = float("-inf")

_SEGMENT_RE = re.compile(r"^segment-(\d+)\.beds$")


def _segment_index(name: str) -> int:
    match = _SEGMENT_RE.match(name)
    if match is None:
        raise RecoveryError(
            f"manifest lists malformed segment name {name!r}"
        )
    return int(match.group(1))


def _write_manifest_file(directory: str, manifest: dict, *, fsync) -> None:
    atomic_write_bytes(
        os.path.join(directory, MANIFEST_NAME),
        (json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode(),
        fsync=fsync,
    )


def _count(minimum: int):
    return lambda value: type(value) is int and value >= minimum


def _list_of(check):
    return lambda value: isinstance(value, list) and all(map(check, value))


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_segment_name(value) -> bool:
    return isinstance(value, str) and _SEGMENT_RE.match(value) is not None


def _is_time(value) -> bool:
    return value is None or (
        type(value) in (int, float) and math.isfinite(value)
    )


#: Per manifest kind, every field recovery reads: ``(required, check)``.
_MANIFEST_FIELDS = {
    "durable": {
        "backend": (True, _is_str),
        "child_cfg": (False, lambda value: isinstance(value, dict)),
        "seal_elements": (True, _count(1)),
        "segments": (True, _list_of(_is_segment_name)),
        "tombstones": (False, _list_of(_is_str)),
        "wal_seq": (True, _count(0)),
        "live_wals": (False, _list_of(_count(0))),
        "t_end": (False, _is_time),
    },
    "sharded-durable": {
        "backend": (True, _is_str),
        "child_cfg": (False, lambda value: isinstance(value, dict)),
        "shards": (True, _count(1)),
        "seal_elements": (False, _count(1)),
        "shard_dirs": (False, _list_of(_is_str)),
        "tombstones": (False, _list_of(_is_str)),
    },
}


def _check_manifest_fields(directory: str, manifest: dict) -> None:
    """Refuse a manifest with a missing or malformed field, before any
    reader acts on it: recovery drains tombstones, sweeps unlisted files
    and rewrites the manifest, so a store rebuilt from a bad field could
    delete acknowledged records or never accept another append."""
    fields = _MANIFEST_FIELDS.get(manifest.get("kind"), {})
    for name, (required, check) in fields.items():
        if name not in manifest:
            if required:
                raise RecoveryError(
                    f"durable manifest in {directory} has no {name!r} field"
                )
        elif not check(manifest[name]):
            raise RecoveryError(
                f"durable manifest in {directory} has a malformed "
                f"{name!r} field: {manifest[name]!r}"
            )


def _read_manifest_file(directory: str) -> dict:
    """Read, field-check and version-check the manifest of a durable
    directory."""
    journal = os.path.join(directory, _LEGACY_REBALANCE_JOURNAL)
    if os.path.exists(journal):
        raise RecoveryError(
            f"{journal} is the commit journal of a rebalance run by an "
            "earlier version; it is refused, not replayed — finish that "
            "rebalance with the version that started it"
        )
    try:
        with open(os.path.join(directory, MANIFEST_NAME), "rb") as handle:
            manifest = json.loads(handle.read().decode("utf-8"))
    except FileNotFoundError:
        raise RecoveryError(f"no durable manifest in {directory}") from None
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RecoveryError(
            f"unreadable durable manifest in {directory}: {exc}"
        ) from None
    if not isinstance(manifest, dict):
        raise RecoveryError("durable manifest is not a JSON object")
    version = manifest.get("format", 0)
    if not _count(0)(version):
        raise RecoveryError(
            f"durable manifest in {directory} has a malformed 'format' "
            f"field: {version!r}"
        )
    if version > MANIFEST_FORMAT:
        raise RecoveryError(
            f"durable manifest format v{version} is "
            f"newer than supported v{MANIFEST_FORMAT}"
        )
    _check_manifest_fields(directory, manifest)
    return manifest


def _drain_tombstones(directory: str, names) -> None:
    """Delete what a committed manifest retired: the input segments of
    a compaction swap, the old shard directories of a rebalance, or the
    shard directories of a rebalance that never committed.

    Per-store and top-level recovery both call it.  The manifest no
    longer lists these names, so no reader can use them; a drain that
    a crash cut short (a file already gone, a half-deleted directory)
    simply finishes on the next run.
    """
    for name in names:
        path = os.path.join(directory, name)
        try:
            if os.path.isdir(path):
                shutil.rmtree(path)
            else:
                os.unlink(path)
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise RecoveryError(
                f"cannot remove retired {path}: {exc}"
            ) from None


def _concatenated(batches: list) -> tuple:
    """The ``(ids, ts, counts)`` frames of one replayed log as one batch,
    in log order.  ``counts`` is ``None`` when no frame carries counts;
    otherwise a frame without them counts one per record."""
    if len(batches) == 1:
        return batches[0]
    ids = np.concatenate([frame_ids for frame_ids, _, _ in batches])
    ts = np.concatenate([frame_ts for _, frame_ts, _ in batches])
    if all(counts is None for _, _, counts in batches):
        return ids, ts, None
    counts = np.concatenate(
        [
            np.ones(frame_ids.size, dtype=np.int64) if counts is None
            else counts
            for frame_ids, _, counts in batches
        ]
    )
    return ids, ts, counts


@dataclass
class _PendingSeal:
    """One frozen memtable generation awaiting its segment commit.

    ``store`` is finalized and immutable; ``wal_seqs`` are the log files
    still backing its records — they stay on disk (and in the manifest's
    ``live_wals``) until the segment commit that makes them redundant.
    """

    name: str
    store: object
    elements: int
    wal_seqs: list[int] = field(default_factory=list)
    old_wal: WriteAheadLog | None = None
    # Trace stitching: the freeze-time span context parents the seal
    # thread's spans, and the freeze timestamps let the queue-wait
    # (freeze → segment write start) be recorded retroactively.
    trace_ctx: tuple | None = None
    frozen_wall: float = 0.0
    frozen_perf: float = 0.0


class DurableBurstStore(_StoreBase):
    """WAL-backed store with an in-memory memtable and sealed segments.

    With ``directory=None`` the lifecycle runs purely in memory (no WAL,
    no files): sealing moves the memtable into the in-memory segment
    list.  That ephemeral mode is what serialization round-trips and the
    backend matrix exercise; it answers queries identically to the
    durable mode minus crash safety.

    With a directory, the store is crash-safe: pass ``resume=True`` to
    attach to (and recover) an existing directory — the manifest's
    configuration then wins over the constructor arguments, which only
    seed a fresh directory.
    """

    backend_key = "durable"

    def __init__(
        self,
        directory=None,
        *,
        backend: str = "exact",
        seal_elements: int = DEFAULT_SEAL_ELEMENTS,
        fsync: str = "batch",
        flush_bytes: int | None = None,
        flush_records: int | None = None,
        background_seal: bool = False,
        max_unsealed: int = DEFAULT_MAX_UNSEALED,
        resume: bool = False,
        tracer=None,
        _segments=None,
        _memtable=None,
        **child_cfg,
    ) -> None:
        super().__init__()
        # Runtime-only: never serialized, never in _config()/manifests
        # (a Tracer holds locks and file handles and cannot pickle).
        self._tracer = tracer
        if backend == "durable":
            raise InvalidParameterError("durable stores cannot nest")
        if int(seal_elements) <= 0:
            raise InvalidParameterError(
                f"seal_elements must be > 0, got {seal_elements}"
            )
        self.fsync_policy = _require_policy(fsync)
        self.directory = None if directory is None else os.fspath(directory)
        if self.directory is not None and (
            _segments is not None or _memtable is not None
        ):
            raise InvalidParameterError(
                "preloaded parts require an ephemeral store (directory=None)"
            )
        if background_seal and self.directory is None:
            raise InvalidParameterError(
                "background sealing requires a directory (ephemeral seals "
                "are just a list append; there is nothing to deamortize)"
            )
        if int(max_unsealed) <= 0:
            raise InvalidParameterError(
                f"max_unsealed must be > 0, got {max_unsealed}"
            )
        self.background_seal = bool(background_seal)
        self.max_unsealed = int(max_unsealed)
        self.flush_bytes = flush_bytes
        self.flush_records = flush_records
        self._lock = threading.RLock()
        # Condition over the store lock: producers wait on it when the
        # pending-seal queue is full; the seal thread waits on it for
        # work and notifies on every completed seal.
        self._seal_cv = threading.Condition(self._lock)
        self._pending: list[_PendingSeal] = []
        self._seal_thread: threading.Thread | None = None
        self._seal_stop = False
        self._seal_busy = False  # the seal thread holds a job
        self._seal_error: BaseException | None = None
        self._memtable_wal_seqs: list[int] = []
        self._next_segment = 0
        # Segment names handed out (seal or merge) but not committed.
        self._reserved: set[str] = set()
        self.replayed_records = 0
        self.child_backend = backend
        self.child_cfg = dict(child_cfg)
        self.seal_elements = int(seal_elements)
        self._segments = list(_segments) if _segments is not None else []
        self._segment_names: list[str] = []
        self._memtable = (
            _memtable
            if _memtable is not None
            else create_store(backend, **child_cfg)
        )
        self._memtable_elements = (
            int(getattr(self._memtable, "count", 0))
            if _memtable is not None
            else 0
        )
        # Served when everything is sealed or nothing was ingested:
        # readers must never alias the live memtable (torn reads).
        self._empty = create_store(backend, **child_cfg)
        self._wal: WriteAheadLog | None = None
        self._wal_seq = 0
        self._closed = False
        # Read-view caches, invalidated only by _invalidate_views_locked:
        # the full view (valid while _view_version == _version), the
        # immutable parts under the memtable, and the incremental fold
        # of the (append-only) segment list.
        self._version = 0
        self._view = None
        self._view_version = -1
        self._lower: list | None = None
        self._sealed_view = None
        self._sealed_folded = 0
        # Inputs of a committed compaction swap whose files are not yet
        # deleted; persisted in the manifest so recovery drains them.
        self._tombstones: list[str] = []
        # Serializes compact() calls, and close() with an in-flight one.
        self._compact_lock = threading.Lock()
        metrics = global_registry()
        if self.directory is not None:
            # Registered for every directory store, so the compaction
            # families exist before its first merge.
            self._compaction_runs = metrics.counter(
                "compaction_runs_total", "segment compaction runs committed"
            )
            self._compaction_bytes_rewritten = metrics.counter(
                "compaction_bytes_rewritten_total",
                "segment bytes rewritten by compaction merges",
            )
            self._compaction_segments_merged = metrics.counter(
                "compaction_segments_merged_total",
                "input segments retired by compaction",
            )
            self._compaction_live = metrics.gauge(
                "compaction_segments_live",
                "committed segments after the last compaction scan",
            )
        self._seal_seconds = metrics.histogram(
            "durable_seal_seconds", "memtable seal latency (seconds)"
        )
        self._segment_gauge = metrics.gauge(
            "durable_segments", "sealed segments held"
        )
        self._seals_total = metrics.counter(
            "durable_seals_total", "memtable seals performed"
        )
        self._recoveries_total = metrics.counter(
            "durable_recoveries_total", "durable directory recoveries"
        )
        self._replayed_records = metrics.counter(
            "durable_replayed_records_total",
            "records replayed from WAL tails",
        )
        self._queue_depth_gauge = metrics.gauge(
            "durable_seal_queue_depth",
            "frozen memtable generations awaiting the seal thread",
        )
        self._seal_lag_gauge = metrics.gauge(
            "durable_seal_lag_elements",
            "stream elements frozen but not yet sealed to a segment",
        )
        self._backpressure_seconds = metrics.counter(
            "durable_backpressure_seconds_total",
            "seconds ingest spent blocked on the unsealed-memtable cap",
        )
        self._backpressure_waits = metrics.counter(
            "durable_backpressure_waits_total",
            "ingest blocks caused by the unsealed-memtable cap",
        )
        self._segment_bytes_total = metrics.counter(
            "durable_segment_bytes_total",
            "bytes first-written to sealed segment files",
        )
        if self.directory is not None:
            self._attach(resume=resume)
        if self.background_seal:
            self._seal_thread = threading.Thread(
                target=self._seal_worker,
                name="durable-seal",
                daemon=True,
            )
            self._seal_thread.start()

    def _span(self, name: str, *, parent=None, **attrs):
        """A tracing span on the store's tracer (or the process one)."""
        return _tracing.span(
            name, tracer=self._tracer, parent=parent, **attrs
        )

    # -- directory lifecycle -------------------------------------------
    def _wal_path(self, seq: int) -> str:
        return os.path.join(self.directory, f"wal-{seq:08d}.log")

    def _attach(self, *, resume: bool) -> None:
        if os.path.exists(os.path.join(self.directory, MANIFEST_NAME)):
            if not resume:
                raise InvalidParameterError(
                    f"{self.directory} already holds a durable store; "
                    "open it with resume=True or recover()"
                )
            self._recover_directory()
            return
        os.makedirs(self.directory, exist_ok=True)
        self._wal_seq = 1
        self._memtable_wal_seqs = [1]
        self._wal = self._open_wal(1, truncate=True)
        self._write_manifest()

    def _open_wal(self, seq: int, **kwargs) -> WriteAheadLog:
        return WriteAheadLog(
            self._wal_path(seq),
            fsync=self.fsync_policy,
            flush_bytes=self.flush_bytes,
            flush_records=self.flush_records,
            **kwargs,
        )

    def _read_manifest(self) -> dict:
        manifest = _read_manifest_file(self.directory)
        if manifest.get("kind") != "durable":
            raise RecoveryError(
                f"{self.directory} holds a {manifest.get('kind')!r} "
                "manifest; use recover() on the top-level directory"
            )
        return manifest

    def _recover_directory(self) -> None:
        with self._span("durable.recover") as sp:
            self._recover_directory_traced(sp)

    def _recover_directory_traced(self, sp) -> None:
        manifest = self._read_manifest()
        self.child_backend = manifest["backend"]
        self.child_cfg = dict(manifest.get("child_cfg", {}))
        self.seal_elements = manifest["seal_elements"]
        try:
            self._memtable = create_store(
                self.child_backend, **self.child_cfg
            )
        except (TypeError, InvalidParameterError, UnknownBackendError) as exc:
            raise RecoveryError(
                f"durable manifest in {self.directory}: backend "
                f"{self.child_backend!r} refuses its 'backend' or "
                f"'child_cfg' field: {exc}"
            ) from None
        self._empty = create_store(self.child_backend, **self.child_cfg)
        self._memtable_elements = 0
        # Drain compaction tombstones first: inputs of a committed
        # manifest swap whose deletion did not finish before a crash.
        # They are not in ``segments`` anymore, so unlinking them can
        # never touch a live file.
        _drain_tombstones(self.directory, manifest.get("tombstones", []))
        for name in manifest["segments"]:
            path = os.path.join(self.directory, name)
            try:
                self._segments.append(open_store(path, lazy=True))
            except FileNotFoundError:
                raise RecoveryError(
                    f"manifest references missing segment {name}"
                ) from None
            except SerializationError as exc:
                raise RecoveryError(
                    f"sealed segment {name} is corrupt: {exc}"
                ) from None
            self._segment_names.append(name)
        self._wal_seq = manifest["wal_seq"]
        # Compaction makes segment names non-dense (a merged segment
        # takes a fresh index while its inputs vanish), so the next
        # index is one past the largest committed one — never the
        # list length.
        self._next_segment = 1 + max(
            (_segment_index(name) for name in self._segment_names),
            default=-1,
        )
        # Replay every WAL still backing unsealed records, oldest first.
        # Backward compatibility: manifests written before background
        # sealing have no ``live_wals`` — the active log is the only one.
        live_wals = list(manifest.get("live_wals", []))
        if not live_wals:
            live_wals = [self._wal_seq]
        replayed_seqs: list[int] = []
        total_records = 0
        last_replay = None
        for seq in live_wals:
            replay = replay_wal(self._wal_path(seq))
            if replay.batches:
                # A replayed log is applied as one batch, without
                # re-logging (its frames are already durable) and
                # without sealing — a seal here would rotate logs out
                # from under the frames not yet applied.  An oversized
                # memtable seals on the next live append instead.
                self._apply_batch(
                    *_concatenated(replay.batches), log=False,
                    allow_seal=False,
                )
            replayed_seqs.append(seq)
            total_records += replay.records
            last_replay = replay
            if replay.torn or replay.good_offset < WAL_HEADER_SIZE:
                # A torn (or missing) log ends the recoverable prefix:
                # anything in later logs was acknowledged *after* these
                # lost frames, and replaying it would break the
                # prefix-oracle contract.
                _logger.warning(
                    "recovery truncation in %s: WAL seq %d is torn or "
                    "missing; stopping replay at the recoverable prefix "
                    "(%d records)",
                    self.directory,
                    seq,
                    total_records,
                )
                break
        self._replayed_records.inc(total_records)
        self.replayed_records = total_records
        # The manifest horizon is applied *after* replay: a manifest
        # written mid-lifecycle (e.g. by a previous recovery) may
        # already cover the replayed records, and replay enforces
        # stream order internally from -inf anyway.
        t_end = manifest.get("t_end")
        if t_end is not None:
            self._t_end = max(self._t_end, float(t_end))
        self._wal_seq = replayed_seqs[-1]
        self._memtable_wal_seqs = list(replayed_seqs)
        if last_replay is None or last_replay.good_offset < WAL_HEADER_SIZE:
            self._wal = self._open_wal(self._wal_seq, truncate=True)
        else:
            self._wal = self._open_wal(
                self._wal_seq,
                _resume_at=(
                    last_replay.good_offset if last_replay.torn else None
                ),
            )
        self._cleanup_stale_wals()
        with self._span("manifest.commit"):
            self._write_manifest()
        self._invalidate_views_locked(spliced=True)
        self._recoveries_total.inc()
        self._segment_gauge.set(len(self._segments))
        sp.set_attribute("replayed_records", total_records)
        sp.set_attribute("segments", len(self._segments))

    def _cleanup_stale_wals(self) -> None:
        # Every log backing unsealed records (replayed seqs + active +
        # frozen pending generations) is live; anything else is a
        # leftover from a crash window.  Orphan segment files never
        # committed to the manifest are garbage too — EXCEPT the ones a
        # concurrent background seal or compaction merge has already
        # written but not yet committed: sweeping those would race the
        # manifest commit and delete a file the very next manifest
        # references.  The sweep therefore runs under the seal lock and
        # protects every name reserved but not yet committed.
        with self._seal_cv:
            live = {
                os.path.basename(self._wal_path(seq))
                for seq in (*self._memtable_wal_seqs, self._wal_seq)
            }
            protected = set(self._segment_names) | self._reserved
            for job in self._pending:
                live.update(
                    os.path.basename(self._wal_path(seq))
                    for seq in job.wal_seqs
                )
            try:
                names = os.listdir(self.directory)
            except OSError:
                return
            for name in names:
                stale_wal = (
                    name.startswith("wal-")
                    and name.endswith(".log")
                    and name not in live
                )
                stale_segment = (
                    name.startswith("segment-")
                    and name.endswith(".beds")
                    and name not in protected
                )
                if stale_wal or stale_segment:
                    try:
                        os.unlink(os.path.join(self.directory, name))
                    except OSError:
                        pass

    def _write_manifest(
        self, segments=None, pending=None, tombstones=None, *, durable=None
    ) -> None:
        # A commit passes the layout it is about to publish; the default
        # is the published one.  ``live_wals`` lists every log whose
        # records are not yet in a committed segment, oldest first:
        # frozen pending generations, then the logs backing the active
        # memtable.  A seq leaves the list only in the same atomic
        # commit that adds its segment.
        # ``durable=False`` skips the fsync: the rename still makes the
        # manifest atomic and process-crash safe, only the power-loss
        # window grows — callers may pass it when the fsync policy
        # already trades that window away AND no WAL deletion rides on
        # this manifest being on stable storage.
        if segments is None:
            segments, pending, tombstones = (
                self._segment_names, self._pending, self._tombstones
            )
        live_wals: list[int] = []
        for job in pending:
            for seq in job.wal_seqs:
                if seq not in live_wals:
                    live_wals.append(seq)
        for seq in (*self._memtable_wal_seqs, self._wal_seq):
            if seq not in live_wals:
                live_wals.append(seq)
        manifest = {
            "format": MANIFEST_FORMAT,
            "kind": "durable",
            "backend": self.child_backend,
            "child_cfg": self.child_cfg,
            "seal_elements": self.seal_elements,
            "segments": segments,
            "tombstones": list(tombstones),
            "wal_seq": self._wal_seq,
            "live_wals": live_wals,
            "t_end": None if self._t_end == _NEG_INF else self._t_end,
        }
        if durable is None:
            durable = self.fsync_policy != "never"
        _write_manifest_file(self.directory, manifest, fsync=durable)

    # -- ingest --------------------------------------------------------
    def _inner_update(self, event_id, timestamp, count) -> None:
        ids = np.asarray([event_id], dtype=np.int64)
        ts = np.asarray([timestamp], dtype=np.float64)
        counts = (
            None if count == 1 else np.asarray([count], dtype=np.int64)
        )
        with self._lock:
            self._check_writable()
            self._apply_batch(ids, ts, counts)

    def _inner_extend_batch(self, ids, ts, counts) -> None:
        with self._lock:
            self._check_writable()
            self._apply_batch(ids.astype(np.int64, copy=False), ts, counts)

    def _check_writable(self) -> None:
        if self._closed:
            raise InvalidParameterError("durable store is closed")
        self._raise_seal_error()

    def _apply_batch(
        self, ids, ts, counts, *, log: bool = True, allow_seal: bool = True
    ) -> None:
        """Log, apply and (deterministically) seal one validated batch.

        The memtable seals after exactly the record that brings it to
        ``seal_elements`` stream elements, checked per-prefix *inside*
        the batch — so scalar, one-batch and arbitrarily-split ingests
        of the same stream produce byte-identical stores.
        """
        first = float(ts[0])
        if first < self._t_end:
            raise StreamOrderError(
                f"timestamp {first} arrived after {self._t_end}"
            )
        total = int(ids.size)
        with self._span("durable.apply_batch", records=total):
            self._apply_batch_traced(
                ids, ts, counts, total, log=log, allow_seal=allow_seal
            )

    def _apply_batch_traced(
        self, ids, ts, counts, total, *, log, allow_seal
    ) -> None:
        start = 0
        while start < total:
            if allow_seal and self._memtable_elements >= self.seal_elements:
                self._seal_locked()
            if not allow_seal:
                end = total
                took = (
                    total - start
                    if counts is None
                    else int(counts[start:].sum())
                )
            else:
                capacity = self.seal_elements - self._memtable_elements
                if counts is None:
                    end = start + min(total - start, capacity)
                    took = end - start
                else:
                    cumulative = np.cumsum(counts[start:])
                    crossing = int(
                        np.searchsorted(cumulative, capacity, side="left")
                    )
                    if crossing >= cumulative.size:
                        end = total
                        took = int(cumulative[-1])
                    else:
                        end = start + crossing + 1
                        took = int(cumulative[crossing])
            sub_counts = None if counts is None else counts[start:end]
            # Each seal-bounded slice gets its own WAL frame *after* any
            # rotation: records in the memtable always live in the
            # currently-active log, so sealing (which deletes the old
            # log) can never orphan an unsealed remainder of a batch.
            if log and self._wal is not None:
                self._wal.append(ids[start:end], ts[start:end], sub_counts)
            self._memtable._ingest_batch(
                ids[start:end], ts[start:end], sub_counts
            )
            self._memtable_elements += int(took)
            # Advance the horizon per slice, not per batch: a mid-batch
            # seal writes the manifest, whose t_end must cover exactly
            # the records sealed so far.
            last = float(ts[end - 1])
            if last > self._t_end:
                self._t_end = last + 0.0  # a zero horizon is +0.0
            start = end
        if allow_seal and self._memtable_elements >= self.seal_elements:
            self._seal_locked()
        self._invalidate_views_locked(parts=False)

    # -- sealing -------------------------------------------------------
    def seal(self) -> None:
        """Seal the live memtable into an immutable segment.

        No-op on an empty memtable.  Durable mode freezes the memtable
        (rotating the WAL), writes the segment atomically and commits
        the manifest before deleting the old log, so a crash at any
        instant loses nothing.  A failed seal re-raises and leaves the
        frozen generation pending (reads stay correct); later writes
        raise ``SerializationError`` until the directory is recovered.
        Under ``background_seal`` this only *freezes* the memtable and
        enqueues it — :meth:`drain_seals` waits for the commit.
        """
        with self._lock:
            self._check_writable()
            self._seal_locked()

    def _seal_locked(self) -> None:
        if self._memtable_elements == 0:
            return
        if self.directory is None:
            with self._seal_seconds.time():
                self._memtable.finalize()
                self._segments.append(self._memtable)
                self._memtable = create_store(
                    self.child_backend, **self.child_cfg
                )
                self._memtable_elements = 0
            self._seals_total.inc()
            self._segment_gauge.set(len(self._segments))
            self._invalidate_views_locked()
            return
        try:
            if self.background_seal:
                self._enqueue_locked()
            else:
                self._seal_job(self._freeze_locked())
        except BaseException as exc:
            self._seal_failed(exc)
            raise

    def _enqueue_locked(self) -> None:
        """Freeze the memtable for the seal thread; blocks (never drops)
        while ``max_unsealed`` generations are already in flight."""
        if len(self._pending) >= self.max_unsealed:
            self._backpressure_waits.inc()
            with self._span(
                "backpressure.wait", pending=len(self._pending)
            ):
                blocked = time.perf_counter()
                while (
                    len(self._pending) >= self.max_unsealed
                    and self._seal_error is None
                ):
                    self._seal_cv.wait()
                self._backpressure_seconds.inc(
                    time.perf_counter() - blocked
                )
        self._raise_seal_error()
        with self._span(
            "memtable.freeze", elements=self._memtable_elements
        ):
            job = self._freeze_locked()
            job.trace_ctx = _tracing.current_context()
            # Queued only: list the frozen generation's logs in
            # live_wals, so a crash before its commit replays them.
            # Fsync only under "always" — no WAL deletion rides on this
            # hot-path write.
            with self._span("manifest.commit", segment=job.name):
                self._write_manifest(durable=self.fsync_policy == "always")

    def _next_segment_name_locked(self) -> str:
        """Reserve a fresh segment file name (for a seal or a merge);
        the stale-file sweep spares it until it is committed."""
        name = f"segment-{self._next_segment:06d}.beds"
        self._next_segment += 1
        self._reserved.add(name)
        return name

    def _freeze_locked(self) -> _PendingSeal:
        """First half of every directory seal: finalize the memtable,
        rotate the WAL, and move the memtable to the pending list as a
        frozen generation; appends continue into a fresh memtable."""
        self._memtable.finalize()
        new_seq = self._wal_seq + 1
        new_wal = self._open_wal(new_seq, truncate=True)
        job = _PendingSeal(
            name=self._next_segment_name_locked(),
            store=self._memtable,
            elements=self._memtable_elements,
            wal_seqs=list(self._memtable_wal_seqs),
            old_wal=self._wal,
            frozen_wall=time.time(),
            frozen_perf=time.perf_counter(),
        )
        self._wal, self._wal_seq = new_wal, new_seq
        self._memtable_wal_seqs = [new_seq]
        self._pending.append(job)
        self._memtable = create_store(self.child_backend, **self.child_cfg)
        self._memtable_elements = 0
        self._invalidate_views_locked()
        self._update_seal_gauges_locked()
        self._seal_cv.notify_all()
        return job

    def _seal_worker(self) -> None:
        while True:
            with self._seal_cv:
                self._seal_busy = False
                self._seal_cv.notify_all()
                while not self._pending and not self._seal_stop:
                    self._seal_cv.wait()
                if not self._pending:
                    return
                job = self._pending[0]
                self._seal_busy = True
            try:
                self._complete_seal(job)
            except BaseException as exc:  # surface on the ingest path
                self._seal_failed(exc)
                return

    def _complete_seal(self, job: _PendingSeal) -> None:
        """The seal thread's entry point for one queued generation."""
        # The seal thread has no ambient span context (ContextVars do
        # not cross threads), so the freeze-time context captured in
        # the job parents everything here — including the queue wait,
        # which is recorded retroactively now that it is over.
        _tracing.record_span(
            "seal.queue_wait",
            start=job.frozen_wall,
            duration=time.perf_counter() - job.frozen_perf,
            tracer=self._tracer,
            parent=job.trace_ctx,
            segment=job.name,
        )
        self._seal_job(job)

    def _seal_job(self, job: _PendingSeal) -> None:
        """Second half of every directory seal: segment write → commit
        → WAL GC, on the seal thread or inline on the caller's thread.

        The serialization and fsync need no store lock (the frozen
        memtable is immutable); only :meth:`_commit_segment` takes it.
        """
        with self._seal_seconds.time():
            path = os.path.join(self.directory, job.name)
            with self._span(
                "seal.segment_write",
                parent=job.trace_ctx,
                segment=job.name,
                elements=job.elements,
            ):
                written = atomic_write_bytes(
                    path,
                    save_store(job.store),
                    fsync=self.fsync_policy != "never",
                )
                segment = open_store(path, lazy=True)
            if job.old_wal is not None:
                job.old_wal.close()
            with self._span(
                "manifest.commit", parent=job.trace_ctx, segment=job.name
            ):
                self._commit_segment(
                    job.name,
                    segment,
                    sealed=job,
                    retired=[self._wal_path(seq) for seq in job.wal_seqs],
                )
        self._seals_total.inc()
        self._segment_bytes_total.inc(written)

    def _commit_segment(
        self, name, segment, *, replaces=(), sealed=None, retired=()
    ) -> None:
        """The one commit that changes the segment list: a seal passes
        the frozen generation ``sealed`` and its ``retired`` WALs, a
        compaction swap the adjacent run of inputs ``replaces``.

        The manifest for the new layout (``replaces`` as tombstones) is
        written first; only after it succeeded are the in-memory lists
        published, so a failed commit changes nothing.  Then the retired
        files and inputs are unlinked and a swap's tombstones cleared,
        all before waiters (``drain_seals``) are woken.
        """
        replaces = list(replaces)
        with self._seal_cv:
            names = self._segment_names
            # Only a compact() holding _compact_lock removes names and
            # seals only append, so a planned run cannot move — but
            # never swap on a stale plan.
            start = names.index(replaces[0]) if replaces else len(names)
            stop = start + len(replaces)
            if names[start:stop] != replaces:
                raise CompactionError("segment list changed mid-compaction")
            layout = [*names[:start], name, *names[stop:]]
            pending = [job for job in self._pending if job is not sealed]
            tombstones = replaces or self._tombstones
            self._write_manifest(layout, pending, tombstones)
            self._segments[start:stop] = [segment]
            self._segment_names = layout
            self._reserved.discard(name)
            self._pending = pending
            self._tombstones = tombstones
            self._invalidate_views_locked(spliced=bool(replaces))
            self._segment_gauge.set(len(self._segments))
            self._update_seal_gauges_locked()
            inputs = [os.path.join(self.directory, n) for n in replaces]
            for path in [*retired, *inputs]:
                try:
                    os.unlink(path)
                except OSError:
                    pass
            if replaces:
                self._write_manifest(
                    layout, pending, [], durable=self.fsync_policy == "always"
                )
                self._tombstones = []
            self._seal_cv.notify_all()

    def _seal_failed(self, exc: BaseException) -> None:
        """Record a failed seal: the frozen generation stays pending and
        WAL-backed, and every later write refuses until recovery."""
        with self._seal_cv:
            if self._seal_error is None:
                self._seal_error = exc
                _logger.warning(
                    "seal failed in %s: %r (records remain WAL-backed; "
                    "recover() the directory)", self.directory, exc,
                )
            self._seal_cv.notify_all()

    def _update_seal_gauges_locked(self) -> None:
        self._queue_depth_gauge.set(len(self._pending))
        self._seal_lag_gauge.set(
            sum(job.elements for job in self._pending)
        )

    def _raise_seal_error(self) -> None:
        if self._seal_error is not None:
            kind = "background seal" if self.background_seal else "seal"
            raise SerializationError(
                f"{kind} failed: {self._seal_error!r}; the records are "
                "still WAL-backed — recover() the directory"
            ) from self._seal_error

    def drain_seals(self) -> None:
        """Block until every frozen generation is sealed to a segment.

        No-op without background sealing.  After it returns, queries
        are served from committed segments plus the live memtable, and
        the retired WALs are deleted.
        """
        if not self.background_seal:
            return
        with self._seal_cv:
            while (
                self._pending or self._seal_busy
            ) and self._seal_error is None:
                self._seal_cv.wait()
            self._raise_seal_error()

    # -- compaction ----------------------------------------------------
    def compact(
        self,
        *,
        fanin: int = DEFAULT_COMPACT_FANIN,
        min_segments: int = DEFAULT_COMPACT_MIN_SEGMENTS,
    ) -> int:
        """Compact sealed segments until stable, on the caller's thread.

        Runs the size-tiered merge policy (see
        :mod:`repro.core.compaction`) until no adjacent same-tier run
        remains; returns the number of merge passes committed.  Refuses
        like an append: ``InvalidParameterError`` once the store is
        closed (its state may be stale, and a merge would commit it),
        ``SerializationError`` after a failed seal.
        """
        if self.directory is None:
            raise InvalidParameterError(
                "compaction requires a directory-backed store"
            )
        with self._compact_lock:
            return compact_until_stable(
                self, fanin=int(fanin), min_segments=int(min_segments)
            )

    @property
    def seal_queue_depth(self) -> int:
        """Frozen generations awaiting the background seal thread."""
        with self._lock:
            return len(self._pending)

    @property
    def seal_lag_elements(self) -> int:
        """Stream elements frozen but not yet sealed to a segment."""
        with self._lock:
            return sum(job.elements for job in self._pending)

    def flush(self) -> None:
        """Durability point: fsync the WAL per the store's policy."""
        with self._lock:
            if self._wal is not None and not self._wal.closed:
                self._wal.flush()

    def finalize(self) -> None:
        with self._lock:
            self._memtable.finalize()
            self._invalidate_views_locked(parts=False)

    def close(self) -> None:
        """Drain pending seals, flush and release the WAL (idempotent).
        Queries keep working on the already-ingested data; further
        appends raise.

        If a seal failed, close still succeeds — the frozen
        records remain WAL-backed and the manifest's live_wals covers
        them, so :func:`recover` replays them losslessly.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        thread = self._seal_thread
        if thread is not None:
            # Joining with the lock held would deadlock the worker's
            # commit step; the stop flag makes it drain then exit.
            with self._seal_cv:
                self._seal_stop = True
                self._seal_cv.notify_all()
            thread.join()
            self._seal_thread = None
        # Taken without any store lock held: an in-flight compact()
        # finishes its commit (or its cleanup) before close returns.
        with self._compact_lock:
            pass
        with self._lock:
            if self._wal is not None:
                self._wal.close()
            for job in self._pending:  # left behind by a failed seal
                if job.old_wal is not None:
                    job.old_wal.close()
            # A closed store that is still referenced must not pin a
            # merged copy of its history; a later read rebuilds it.
            self._invalidate_views_locked(spliced=True)
            self._view = None

    # -- read path -----------------------------------------------------
    def _invalidate_views_locked(
        self, *, parts: bool = True, spliced: bool = False
    ) -> None:
        """Invalidate the read-view caches after a state change.

        The one place they are invalidated (store lock held).  An
        append or ``finalize`` changes only the memtable
        (``parts=False``): the next read takes a new memtable part over
        the cached lower parts.  A freeze or a seal commit changes the
        pending or segment list, so the lower parts go too; the
        incremental sealed fold stays valid because a seal only appends
        a segment.  A compaction swap splices the segment list and
        recovery rebuilds it (``spliced=True``): the sealed fold
        restarts from scratch.

        A stale view is only *marked* stale here: the reader that
        replaces it releases it, so the write path never pays for
        freeing the previous memtable snapshot.
        """
        self._version += 1
        if parts:
            self._lower = None
        if spliced:
            self._sealed_view = None
            self._sealed_folded = 0

    def _fold_sealed_locked(self):
        if self._sealed_folded != len(self._segments):
            view = self._sealed_view
            for segment in self._segments[self._sealed_folded :]:
                view = segment if view is None else view.merge(segment)
            self._sealed_view = view
            self._sealed_folded = len(self._segments)
        return self._sealed_view

    def _lower_parts_locked(self) -> list:
        """The immutable parts under the memtable as at most one store,
        cached until the segment or pending list changes: the folded
        sealed view and the frozen pending generations, stacked."""
        if self._lower is None:
            parts = [self._fold_sealed_locked()]
            parts.extend(job.store for job in self._pending)
            parts = [part for part in parts if part is not None]
            if len(parts) > 1:
                parts = [type(self._empty).stack(parts)]
            self._lower = parts
        return self._lower

    def _memtable_part_locked(self):
        """The live memtable as an immutable part (``None`` if empty):
        the child's own :meth:`snapshot` — O(events) for an exact child,
        whose memtable only appends under this lock."""
        if self._memtable_elements == 0:
            return None
        return self._memtable.snapshot()

    def _read_view(self):
        """The current immutable queryable snapshot (cached per state).

        The lower part (sealed view + frozen pending generations) is
        cached until a seal, freeze or compaction; a non-empty memtable
        adds one snapshot part per write, and the child's ``stack``
        joins the two (O(events) per new view for exact children).
        A reader sees either the pre-seal view (generation still
        pending) or the post-seal view (file-backed segment) — never a
        torn mix, because the pending→segment swap is one locked commit
        that invalidates the cached view.
        """
        with self._lock:
            if self._view_version != self._version:
                parts = list(self._lower_parts_locked())
                memtable = self._memtable_part_locked()
                if memtable is not None:
                    parts.append(memtable)
                if not parts:
                    view = self._empty
                elif len(parts) == 1:
                    view = parts[0]
                else:
                    view = type(self._empty).stack(parts)
                self._view = view
                self._view_version = self._version
            return self._view

    # Query hooks answer on the read view's hooks: the public methods
    # of _StoreBase validate and account the call on this store.
    def _point(self, event_id: int, t: float, tau: float) -> float:
        with self._span("query.point"):
            return self._read_view()._point(event_id, t, tau)

    def _point_batch(self, ids, times, tau: float) -> np.ndarray:
        with self._span("query.point_batch", pairs=int(ids.size)):
            return self._read_view()._point_batch(ids, times, tau)

    def _bursty_times(self, event_id, theta, tau, t_end, merge_gap, piecewise):
        if t_end is None and self._t_end != _NEG_INF:
            t_end = self._t_end + 2 * tau
        with self._span("query.bursty_times"):
            return self._read_view()._bursty_times(
                event_id, theta, tau, t_end, merge_gap, piecewise
            )

    def _bursty_events(self, t: float, theta: float, tau: float):
        with self._span("query.bursty_events"):
            return self._read_view()._bursty_events(t, theta, tau)

    def _peak(self, event_id: int, t_start: float, t_end: float, tau: float):
        with self._span("query.peak"):
            return self._read_view()._peak(event_id, t_start, t_end, tau)

    def segment_starts(self, event_id: int) -> list[float]:
        return self._read_view().segment_starts(event_id)

    def cumulative_frequency(self, event_id: int, t: float) -> float:
        return self._read_view().cumulative_frequency(event_id, t)

    def cumulative_frequency_many(self, event_id: int, ts) -> np.ndarray:
        return self._read_view().cumulative_frequency_many(event_id, ts)

    def export_records(self) -> tuple[np.ndarray, np.ndarray]:
        """Enumerate every acknowledged record (exact children only)."""
        return self._read_view().export_records()

    @property
    def piecewise(self):  # type: ignore[override]
        return getattr(self._memtable, "piecewise", "constant")

    # -- accounting ----------------------------------------------------
    def _parts_locked(self) -> list:
        """Every immutable part: committed segments, then frozen
        pending-seal generations (oldest first)."""
        return [*self._segments, *(job.store for job in self._pending)]

    @property
    def count(self) -> int:
        with self._lock:
            return int(getattr(self._memtable, "count", 0)) + sum(
                int(getattr(part, "count", 0))
                for part in self._parts_locked()
            )

    @property
    def n_segments(self) -> int:
        """Committed segments (pending background seals not included)."""
        with self._lock:
            return len(self._segments)

    def memory_elements(self) -> int:
        with self._lock:
            return self._memtable.memory_elements() + sum(
                part.memory_elements() for part in self._parts_locked()
            )

    def size_in_bytes(self) -> int:
        with self._lock:
            return self._memtable.size_in_bytes() + sum(
                part.size_in_bytes() for part in self._parts_locked()
            )

    # -- merge & codec -------------------------------------------------
    def merge(self, other: "DurableBurstStore") -> "DurableBurstStore":
        """Merge two durable stores over consecutive time ranges.

        The result is ephemeral: its segment list is the concatenation
        of both parts' sealed segments plus snapshots of their live
        memtables (parts stay usable and un-aliased afterwards).
        """
        if not isinstance(other, DurableBurstStore):
            raise InvalidParameterError(
                "can only merge durable with durable"
            )
        if self.child_backend != other.child_backend:
            raise InvalidParameterError(
                "child backends differ; cannot merge"
            )
        parts = []
        for store in (self, other):
            with store._lock:
                parts.extend(store._parts_locked())
                memtable = store._memtable_part_locked()
                if memtable is not None:
                    parts.append(memtable)
        merged = DurableBurstStore(
            None,
            backend=self.child_backend,
            seal_elements=self.seal_elements,
            fsync=self.fsync_policy,
            _segments=parts,
            **self.child_cfg,
        )
        merged._t_end = max(self._t_end, other._t_end)
        return merged

    def _config(self) -> dict:
        config = super()._config()
        config["backend"] = self.child_backend
        config["child_cfg"] = self.child_cfg
        config["seal_elements"] = self.seal_elements
        return config

    def to_bytes(self) -> bytes:
        with self._lock:
            parts = self._parts_locked()
            out = io.BytesIO()
            out.write(struct.pack("<I", len(parts)))
            for part in [*parts, self._memtable]:
                payload = part.to_bytes()
                out.write(struct.pack("<Q", len(payload)))
                out.write(payload)
            return _pack_config(self._config(), out.getvalue())

    @classmethod
    def from_bytes(cls, data: bytes) -> "DurableBurstStore":
        config, payload = _unpack_config(data)
        backend = config["backend"]
        if len(payload) < 4:
            raise SerializationError("truncated durable payload")
        (n_segments,) = struct.unpack_from("<I", payload, 0)
        offset = 4
        parts = []
        for _ in range(n_segments + 1):
            if len(payload) < offset + 8:
                raise SerializationError("truncated durable payload")
            (length,) = struct.unpack_from("<Q", payload, offset)
            offset += 8
            if len(payload) < offset + length:
                raise SerializationError("truncated durable part")
            parts.append(
                load_backend(backend, payload[offset : offset + length])
            )
            offset += length
        store = cls(
            None,
            backend=backend,
            seal_elements=int(
                config.get("seal_elements", DEFAULT_SEAL_ELEMENTS)
            ),
            _segments=parts[:-1],
            _memtable=parts[-1],
            **config.get("child_cfg", {}),
        )
        store._restore_config(config)
        return store

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = self.directory or "ephemeral"
        return (
            f"DurableBurstStore({where!r}, backend={self.child_backend!r}, "
            f"segments={len(self._segments)}, "
            f"memtable={self._memtable_elements})"
        )


# ----------------------------------------------------------------------
# Directory-level composition and recovery
# ----------------------------------------------------------------------
# A sharded root holds a ``sharded-durable`` MANIFEST.json and one
# durable store directory per shard.  ``shard_dirs`` names them in shard
# order — position i is the shard the Fibonacci hash routes index i to.
# A manifest without ``shard_dirs`` (every root written before
# rebalances named their shards) means ``shard-000 … shard-{N-1}``.
# Each rebalance builds its shards under the next layout generation
# (``shard-000.g1``, …), so a new name is never one that a committed
# manifest used, and commits like a compaction swap: one atomic
# manifest replace listing the old directories as ``tombstones``, then
# the drain.  This section is the only code that reads or writes that
# manifest or names a shard directory.
_SHARD_DIR_RE = re.compile(r"^shard-\d{3}(?:\.g(\d+))?$")


def _shard_dir_name(index: int, generation: int) -> str:
    return f"shard-{index:03d}" + (f".g{generation}" if generation else "")


def _shard_generation(name: str) -> int | None:
    """Layout generation of a shard directory name; None for others."""
    match = _SHARD_DIR_RE.match(name)
    return None if match is None else int(match.group(1) or 0)


def _sharded_layout(directory, manifest, *, shards=None, backend=None):
    """Check a top-level manifest; return its shard directory names.

    ``shards`` and ``backend`` are what a caller is about to open the
    layout with: one writer owns one shard, so a different shard count
    raises :class:`~repro.core.errors.ShardCountMismatchError`.
    """
    kind = manifest.get("kind")
    if kind != "sharded-durable":
        raise InvalidParameterError(
            f"{directory} holds a {kind!r} manifest, not a "
            "sharded-durable layout (created with shards > 1)"
        )
    have = manifest["shards"]
    if shards is not None and have != int(shards):
        raise ShardCountMismatchError(
            f"{directory} holds {have} shards but {int(shards)} were "
            "requested; the shard count must match (one writer per "
            "shard) — change it offline with "
            f"`repro rebalance {directory} --shards {int(shards)}`"
        )
    if backend is not None and manifest.get("backend") != backend:
        raise InvalidParameterError(
            f"{directory} holds backend {manifest.get('backend')!r}, "
            f"not {backend!r}"
        )
    names = list(
        manifest.get("shard_dirs")
        or [_shard_dir_name(index, 0) for index in range(have)]
    )
    tombstones = list(manifest.get("tombstones", []))
    if (
        len(names) != have
        or len(set(names)) != have
        or set(names) & set(tombstones)
        or any(_shard_generation(str(n)) is None for n in names + tombstones)
    ):
        raise RecoveryError(
            f"malformed sharded-durable manifest in {directory}: "
            f"shard_dirs {names}, tombstones {tombstones}"
        )
    return names


def _settle_shard_dirs(directory, manifest, names, *, fsync) -> list[str]:
    """Bring a sharded root in line with its manifest; return the paths.

    Drains the manifest's tombstones (old shards of a committed
    rebalance), then removes every unlisted shard directory of a newer
    generation than the listed ones: the output of a rebalance that
    crashed before its commit, swept like an orphan segment.  Any other
    disagreement raises :class:`~repro.core.errors.ShardLayoutError` —
    a missing shard would silently drop acknowledged records from
    answers, an extra one holds records nothing would consult.
    """
    if manifest.get("tombstones"):
        _drain_tombstones(directory, manifest["tombstones"])
        _write_manifest_file(
            directory, {**manifest, "tombstones": []}, fsync=fsync
        )
    generation = max(_shard_generation(name) for name in names)
    try:
        present = {
            name
            for name in os.listdir(directory)
            if _shard_generation(name) is not None
            and os.path.isdir(os.path.join(directory, name))
        }
    except OSError as exc:
        raise RecoveryError(
            f"cannot list shard directories in {directory}: {exc}"
        ) from None
    orphans = [
        name
        for name in sorted(present - set(names))
        if _shard_generation(name) > generation
    ]
    _drain_tombstones(directory, orphans)
    missing = sorted(set(names) - present)
    extra = sorted(present - set(names) - set(orphans))
    if missing or extra:
        detail = []
        if missing:
            detail.append(f"missing {', '.join(missing)}")
        if extra:
            detail.append(f"extra {', '.join(extra)}")
        raise ShardLayoutError(
            f"{directory} manifest declares {len(names)} shards but "
            f"the directory layout disagrees: {'; '.join(detail)}"
        )
    return [os.path.join(directory, name) for name in names]


def _open_shard_layout(
    directory, *, resume, shards, backend, child_cfg, seal_elements, fsync
) -> list[str]:
    """Shard directory paths of a sharded root, for writers to open.

    An existing root needs ``resume=True`` and must hold ``shards``
    shards of ``backend``; it is settled first.  A root without a
    manifest gets one for a generation-0 layout.
    """
    if os.path.exists(os.path.join(directory, MANIFEST_NAME)):
        if not resume:
            raise InvalidParameterError(
                f"{directory} already holds a durable store; pass "
                "resume=True or use recover()"
            )
        manifest = _read_manifest_file(directory)
        names = _sharded_layout(
            directory, manifest, shards=shards, backend=backend
        )
        return _settle_shard_dirs(directory, manifest, names, fsync=fsync)
    # Every later resume reads child_cfg back from this manifest: let the
    # backend refuse a keyword it does not take before it is persisted.
    create_store(backend, **child_cfg)
    os.makedirs(directory, exist_ok=True)
    names = [_shard_dir_name(index, 0) for index in range(int(shards))]
    manifest = {
        "format": MANIFEST_FORMAT,
        "kind": "sharded-durable",
        "shards": int(shards),
        "backend": backend,
        "child_cfg": dict(child_cfg),
        "seal_elements": int(seal_elements),
        "shard_dirs": names,
        "tombstones": [],
    }
    _write_manifest_file(directory, manifest, fsync=fsync)
    return [os.path.join(directory, name) for name in names]


def _next_shard_layout(names, shards: int) -> list[str]:
    """Directory names for a rebalance of the layout ``names`` to
    ``shards``: the next generation, which no committed manifest used."""
    generation = 1 + max(_shard_generation(name) for name in names)
    return [_shard_dir_name(index, generation) for index in range(shards)]


def _commit_shard_layout(directory, manifest: dict, names) -> None:
    """Switch a sharded root to the (already built) shard dirs ``names``.

    The compaction-swap commit: one atomic manifest replace that lists
    the old directories as tombstones is the commit point, then the
    old directories are drained and the tombstones cleared.  Recovery
    finishes the drain after a crash past the commit; before it, the
    new directories are newer-generation orphans it removes.
    """
    retired = _sharded_layout(directory, manifest)
    committed = {
        **manifest,
        "shards": len(names),
        "shard_dirs": list(names),
        "tombstones": retired,
    }
    _write_manifest_file(directory, committed, fsync=True)
    _drain_tombstones(directory, retired)
    _write_manifest_file(directory, {**committed, "tombstones": []}, fsync=True)


def _wrap_shards(children: list) -> ShardedBurstStore:
    wrapper = ShardedBurstStore(
        shards=len(children), backend="durable", _children=children
    )
    ends = [child.t_end for child in children if child.t_end != _NEG_INF]
    if ends:
        wrapper._t_end = max(ends)
    return wrapper


def create_durable(
    directory,
    *,
    backend: str = "exact",
    shards: int = 1,
    seal_elements: int = DEFAULT_SEAL_ELEMENTS,
    fsync: str = "batch",
    flush_bytes: int | None = None,
    flush_records: int | None = None,
    background_seal: bool = False,
    max_unsealed: int = DEFAULT_MAX_UNSEALED,
    resume: bool = False,
    tracer=None,
    **child_cfg,
):
    """Create (or resume) a durable store rooted at ``directory``.

    With ``shards > 1``, returns a
    :class:`~repro.core.store.ShardedBurstStore` whose children are
    durable stores in per-shard subdirectories — per-shard WALs,
    per-shard seals — tied together by a top-level manifest that
    names them and that :func:`recover` reads back; resuming checks the
    shard count against it.  ``flush_bytes``/``flush_records``
    bound the unsynced WAL tail under ``fsync="batch"``;
    ``background_seal``/``max_unsealed`` move segment writes off the
    ingest hot path (see :class:`DurableBurstStore`).
    """
    if int(shards) <= 0:
        raise InvalidParameterError(f"shards must be > 0, got {shards}")
    directory = os.fspath(directory)
    runtime = dict(
        fsync=fsync,
        flush_bytes=flush_bytes,
        flush_records=flush_records,
        background_seal=background_seal,
        max_unsealed=max_unsealed,
        tracer=tracer,
    )
    durable_kwargs = dict(
        backend=backend, seal_elements=seal_elements, **runtime, **child_cfg
    )
    if int(shards) == 1:
        return DurableBurstStore(directory, resume=resume, **durable_kwargs)
    if resume and os.path.exists(os.path.join(directory, MANIFEST_NAME)):
        _sharded_layout(
            directory, _read_manifest_file(directory), shards=shards
        )
        return recover(directory, **runtime)
    paths = _open_shard_layout(
        directory,
        resume=resume,
        shards=shards,
        backend=backend,
        fsync=fsync != "never",
        child_cfg=child_cfg,
        seal_elements=seal_elements,
    )
    children = [DurableBurstStore(path, **durable_kwargs) for path in paths]
    return _wrap_shards(children)


def recover(
    directory,
    *,
    fsync: str = "batch",
    flush_bytes: int | None = None,
    flush_records: int | None = None,
    background_seal: bool = False,
    max_unsealed: int = DEFAULT_MAX_UNSEALED,
    tracer=None,
):
    """Recover the durable store rooted at ``directory``.

    Reads the manifest, reopens every sealed segment, replays each live
    WAL and returns a ready store (single or sharded, per the
    manifest).  Idempotent: recovering an already-clean directory — or
    recovering twice — yields identical query answers.  A
    ``REBALANCE-COMMIT.json`` journal left by an earlier version's
    rebalance is refused with a :class:`~repro.core.errors.RecoveryError`.

    Sharded layouts recover every shard concurrently on a thread pool;
    each recovered store exposes ``replayed_records``, and the sharded
    wrapper's children do so per shard.  First the root is settled against the
    manifest's ``shard_dirs``: retired shard directories (tombstones)
    are drained, those of an uncommitted rebalance removed, and any
    other missing or extra shard directory raises
    :class:`~repro.core.errors.ShardLayoutError` instead of silently
    answering from a partial store.
    """
    directory = os.fspath(directory)
    manifest = _read_manifest_file(directory)
    kind = manifest.get("kind")
    durable_kwargs = dict(
        fsync=fsync,
        flush_bytes=flush_bytes,
        flush_records=flush_records,
        background_seal=background_seal,
        max_unsealed=max_unsealed,
        tracer=tracer,
    )
    if kind == "durable":
        return DurableBurstStore(directory, resume=True, **durable_kwargs)
    if kind == "sharded-durable":
        backend = manifest["backend"]
        child_cfg = dict(manifest.get("child_cfg", {}))
        seal_elements = int(
            manifest.get("seal_elements", DEFAULT_SEAL_ELEMENTS)
        )
        paths = _settle_shard_dirs(
            directory,
            manifest,
            _sharded_layout(directory, manifest),
            fsync=fsync != "never",
        )
        n_shards = len(paths)
        # A failing shard must not leak the ones already recovered
        # (their WAL handles and background threads): collect per-shard
        # outcomes, and close every success before the error propagates.
        children: list = [None] * n_shards
        failures: list[tuple[int, BaseException]] = []

        def _recover_shard(index: int) -> None:
            try:
                children[index] = DurableBurstStore(
                    paths[index],
                    backend=backend,
                    seal_elements=seal_elements,
                    resume=True,
                    **durable_kwargs,
                    **child_cfg,
                )
            except BaseException as exc:
                failures.append((index, exc))

        # WAL replay alternates parsing (CPU) with reads (IO); a thread
        # pool overlaps the IO stalls across shards.  Each shard runs in
        # a copy of the caller's context, so its spans join the caller's
        # trace (pool threads start with an empty context).
        with ThreadPoolExecutor(
            max_workers=min(n_shards, 8),
            thread_name_prefix="recover-shard",
        ) as pool:
            futures = [
                pool.submit(
                    contextvars.copy_context().run, _recover_shard, index
                )
                for index in range(n_shards)
            ]
            for future in futures:
                future.result()
        if failures:
            for child in children:
                if child is not None:
                    try:
                        child.close()
                    except Exception:  # pragma: no cover - best effort
                        pass
            index, exc = min(failures, key=lambda pair: pair[0])
            if isinstance(exc, RecoveryError):
                raise exc
            raise RecoveryError(
                f"shard {index} failed to recover: {exc!r}"
            ) from exc
        return _wrap_shards(children)
    raise RecoveryError(f"unknown durable manifest kind {kind!r}")


register_backend(
    "durable",
    DurableBurstStore,
    DurableBurstStore.from_bytes,
    "WAL + memtable + sealed-segment lifecycle over any child backend",
)
