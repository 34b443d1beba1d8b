"""Multi-process sharded durable ingest: coordinator + writer processes.

PR 7's durable lifecycle is single-process: one thread appends to every
per-shard WAL, so sharded durable ingest is bounded by one core and one
fsync stream.  This module adds the multi-process path named by ROADMAP
item 2 — the Hokusai per-aggregator sharding shape:

* a :class:`ParallelIngestCoordinator` partitions each incoming record
  batch by the same Fibonacci shard hash
  :class:`~repro.core.store.ShardedBurstStore` uses, and feeds N
  **writer processes** over bounded work queues (``multiprocessing``
  spawn-safe — the worker entrypoint is a module-level function and
  every argument is picklable);
* each writer owns exactly **one shard directory** — WAL, memtable,
  segments — opened as a background-sealing
  :class:`~repro.core.durable.DurableBurstStore`, so segment writes and
  fsyncs happen off the append hot path inside every writer too;
* after applying a sub-batch (WAL append + memtable), the writer sends
  an **ack** carrying its cumulative applied-record count: the
  coordinator's acknowledged per-shard prefix.  Acks are coalesced
  while the writer is backlogged (at the latest every ``_ACK_EVERY``
  batches) and sent eagerly when its queue drains; ``flush`` and
  ``done`` always carry exact counts.  Crash-recovery
  semantics are identical to the single-process path — kill any writer
  (or the coordinator) with SIGKILL and
  :func:`~repro.core.durable.recover` rebuilds every shard to at least
  its acknowledged prefix, because an ack is sent only after the WAL
  append returned (page-cache durable);
* **backpressure, never drops**: the work queues are bounded, so a slow
  writer blocks ``extend_batch`` in the coordinator (time accounted in
  ``parallel_backpressure_seconds_total``); inside a writer the bounded
  unsealed-memtable cap blocks appends the same way.

The on-disk layout is exactly what ``create_durable(shards=N)``
produces — a top-level ``sharded-durable`` manifest over one
subdirectory per shard, read and written by :mod:`repro.core.durable`
alone — so :func:`~repro.core.durable.recover` (and the ``repro
recover`` CLI) work unchanged on a parallel-ingested store, and a
resumed coordinator opens the shard directories the manifest lists
(after a ``repro rebalance``, those of the new layout).

Queue protocol (one work queue per writer, one shared ack queue)::

    coordinator -> writer   ("batch", batch_id, ids, ts, counts|None,
                             trace_ctx|None)
                            ("flush", flush_id, trace_ctx|None)
                            None                      # stop sentinel
    writer -> coordinator   ("ack", writer_id, batch_id, applied, stats)
                            ("flushed", writer_id, flush_id, applied,
                             stats, metrics_snapshot)
                            ("error", writer_id, etype, traceback)
                            ("done", writer_id, applied, stats,
                             metrics_snapshot)

``applied`` is cumulative per writer; ``stats`` is
``(seal_queue_depth, seal_lag_elements, busy_seconds)`` — the writer's
seal queue, its lag, and its cumulative time spent applying batches
and flushing (I/O waits included) — so the coordinator can surface
fleet-wide gauges and ingest-concurrency numbers without touching the
shard directories.

Two cross-process observability channels ride the protocol:

* ``trace_ctx`` is a ``(trace_id, span_id)`` pair captured inside the
  coordinator's per-batch span (see :mod:`repro.core.tracing`): the
  writer parents its ``writer.apply_batch`` span on it, stitching one
  ingest trace across the coordinator and all writer processes.  Each
  writer appends spans to its own ``spans-writer-NNN.jsonl`` in the
  trace directory (one flushed line per span), so a SIGKILL'd writer
  loses at most the line in flight.
* ``metrics_snapshot`` is the writer's
  :func:`~repro.core.metrics.global_registry` snapshot, shipped on
  flush/done — writer-process WAL/durable instruments are otherwise
  invisible to the coordinator.  :meth:`ParallelIngestCoordinator.
  fleet_metrics_snapshot` folds them into whole-fleet numbers with
  :func:`~repro.core.metrics.merge_snapshots`.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_module
import time
import traceback

import numpy as np

from repro.core.cmpbe import _validated_record_batch
from repro.core.durable import (
    DEFAULT_MAX_UNSEALED,
    DEFAULT_SEAL_ELEMENTS,
    MANIFEST_NAME,
    DurableBurstStore,
    _open_shard_layout,
)
from repro.core.errors import (
    InvalidParameterError,
    StreamOrderError,
    WriterProcessError,
)
from repro.core.metrics import global_registry, merge_snapshots
from repro.core.store import shard_routes
from repro.core.tracing import (
    JsonlSpanExporter,
    Tracer,
    current_context,
    set_tracer,
    span as _trace_span,
)
from repro.core.wal import _require_policy

__all__ = [
    "DEFAULT_QUEUE_DEPTH",
    "ParallelIngestCoordinator",
]

#: Bounded work-queue depth per writer: deep enough to keep a writer
#: busy across an fsync stall, shallow enough that backpressure reaches
#: the coordinator within a few batches.
DEFAULT_QUEUE_DEPTH = 8

#: A writer acknowledges at the latest every this-many applied batches.
#: Acks are coalesced while the writer has a backlog (each ack is an
#: IPC message plus a coordinator wake-up — pure overhead when another
#: batch is already waiting) and sent eagerly once its queue drains, so
#: the coordinator's acknowledged prefix stays fresh under light load
#: and cheap under heavy load.
_ACK_EVERY = 8

#: Adaptive-batching floor: backpressure halves the effective coalesce
#: budget (AIMD) but never below this, so a congested fleet still
#: amortizes the per-frame IPC cost over a few KiB of records.
_COALESCE_FLOOR_BYTES = 4096


def _writer_tracer(trace_cfg: dict | None, writer_id: int):
    """Build this writer's own tracer from the picklable trace config.

    Tracer objects hold locks and file handles, so they never cross the
    process boundary — each writer constructs one from the config dict
    and installs it process-wide, which is what routes the store-level
    WAL/seal instrumentation into ``spans-writer-NNN.jsonl``.
    """
    if not trace_cfg:
        return None
    tracer = Tracer(
        exporters=[
            JsonlSpanExporter(
                os.path.join(
                    trace_cfg["dir"], f"spans-writer-{writer_id:03d}.jsonl"
                )
            )
        ],
        sample_rate=float(trace_cfg.get("sample_rate", 1.0)),
        slow_threshold_ms=trace_cfg.get("slow_ms"),
        process=f"writer-{writer_id}",
    )
    set_tracer(tracer)
    return tracer


def _writer_main(
    shard_dir: str,
    writer_id: int,
    store_cfg: dict,
    trace_cfg: dict | None,
    work_queue,
    ack_queue,
) -> None:
    """Writer-process entrypoint: own one shard directory, apply every
    batch, ack cumulative applied counts.

    Module-level (not a closure) and fed only picklable arguments, so
    it works under the ``spawn`` start method.  On an application error
    (e.g. a stream-order violation) the writer reports it and keeps
    *draining* its queue without applying — a dead consumer on a
    bounded queue would deadlock the coordinator mid-``put``.
    """
    store = None
    applied = 0
    failed = False
    unacked = 0
    busy = 0.0
    tracer = None
    last_ctx = None
    try:
        tracer = _writer_tracer(trace_cfg, writer_id)
        resume = os.path.exists(os.path.join(shard_dir, MANIFEST_NAME))
        # Startup predates any dispatched work, so this is its own
        # (per-writer) root trace: it covers the fresh-WAL header fsync
        # or, on resume, the shard's recovery replay.
        with _trace_span("writer.open", writer=writer_id, resume=resume):
            store = DurableBurstStore(
                shard_dir, resume=resume, **store_cfg
            )
        applied = int(store.count)
        while True:
            message = work_queue.get()
            if message is None:
                break
            kind = message[0]
            if failed:
                continue
            try:
                if kind == "batch":
                    _kind, batch_id, ids, ts, counts, ctx = message
                    last_ctx = ctx or last_ctx
                    begin = time.perf_counter()
                    with _trace_span(
                        "writer.apply_batch",
                        parent=ctx,
                        writer=writer_id,
                        records=int(ids.size),
                    ):
                        store.extend_batch(ids, ts, counts)
                    busy += time.perf_counter() - begin
                    applied += int(
                        ids.size if counts is None else counts.sum()
                    )
                    unacked += 1
                    # Coalesce acks while backlogged (see _ACK_EVERY);
                    # Queue.empty() is advisory, which is fine for an
                    # ack heuristic — flush/done resynchronise exactly.
                    if unacked >= _ACK_EVERY or work_queue.empty():
                        unacked = 0
                        ack_queue.put(
                            (
                                "ack",
                                writer_id,
                                batch_id,
                                applied,
                                (
                                    store.seal_queue_depth,
                                    store.seal_lag_elements,
                                    busy,
                                ),
                            )
                        )
                elif kind == "flush":
                    unacked = 0
                    last_ctx = message[2] or last_ctx
                    begin = time.perf_counter()
                    with _trace_span(
                        "writer.flush",
                        parent=message[2],
                        writer=writer_id,
                    ):
                        store.flush()
                    busy += time.perf_counter() - begin
                    ack_queue.put(
                        (
                            "flushed",
                            writer_id,
                            message[1],
                            applied,
                            (
                                store.seal_queue_depth,
                                store.seal_lag_elements,
                                busy,
                            ),
                            global_registry().snapshot(),
                        )
                    )
            except BaseException as exc:  # report, then drain-only
                failed = True
                ack_queue.put(
                    (
                        "error",
                        writer_id,
                        type(exc).__name__,
                        traceback.format_exc(),
                    )
                )
    except BaseException as exc:  # setup/teardown failure
        try:
            ack_queue.put(
                (
                    "error",
                    writer_id,
                    type(exc).__name__,
                    traceback.format_exc(),
                )
            )
        except Exception:
            pass
    finally:
        stats = (0, 0, busy)
        if store is not None:
            try:
                stats = (
                    store.seal_queue_depth,
                    store.seal_lag_elements,
                    busy,
                )
                # Close before snapshotting so the final seals/fsyncs
                # are in the shipped fleet metrics.  Parent the
                # shutdown on the last dispatched context so its WAL
                # fsyncs join the ingest trace instead of becoming
                # orphan root traces.
                with _trace_span(
                    "writer.close", parent=last_ctx, writer=writer_id
                ):
                    store.close()
            except Exception:
                pass
        if tracer is not None:
            try:
                tracer.close()
            except Exception:
                pass
        try:
            ack_queue.put(
                ("done", writer_id, applied, stats,
                 global_registry().snapshot())
            )
        except Exception:
            pass


class ParallelIngestCoordinator:
    """Partition record batches across N durable writer processes.

    Parameters mirror :func:`~repro.core.durable.create_durable` with
    ``shards=writers``; the extra knobs are the parallel-path dials:

    queue_depth:
        Bounded per-writer work-queue depth — the backpressure window.
    coalesce_bytes / coalesce_ms:
        Adaptive batching (off by default).  Small per-shard sub-batches
        are buffered per writer and dispatched as one frame once the
        buffer reaches ``coalesce_bytes`` of record payload or its
        oldest record has waited ``coalesce_ms`` milliseconds — the
        classic amortization of per-frame IPC/pickling cost under
        fine-grained ingest.  Backpressure shrinks the effective byte
        budget multiplicatively (and smooth dispatch grows it back
        additively), so coalescing never deepens a stall it did not
        cause.  Buffered records are dispatched by :meth:`flush` and
        :meth:`close` before their barriers, so durability semantics
        are unchanged — only records *between* barriers may sit in the
        coordinator buffer instead of a writer queue.

    Writers always seal in the background (``background_seal=True``)
    and are started with the portable ``spawn`` method.

    Use as a context manager; :meth:`close` stops the writers (each
    drains its background seals and closes its WAL) and the directory
    is then ready for :func:`~repro.core.durable.recover` or
    ``create_durable(..., resume=True)``.
    """

    def __init__(
        self,
        directory,
        *,
        writers: int,
        backend: str = "exact",
        seal_elements: int = DEFAULT_SEAL_ELEMENTS,
        fsync: str = "batch",
        flush_bytes: int | None = None,
        max_unsealed: int = DEFAULT_MAX_UNSEALED,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        coalesce_bytes: int | None = None,
        coalesce_ms: float | None = None,
        resume: bool = False,
        trace_dir=None,
        trace_sample_rate: float = 1.0,
        trace_slow_ms: float | None = None,
        **child_cfg,
    ) -> None:
        if int(writers) <= 0:
            raise InvalidParameterError(
                f"writers must be > 0, got {writers}"
            )
        if int(queue_depth) <= 0:
            raise InvalidParameterError(
                f"queue_depth must be > 0, got {queue_depth}"
            )
        if coalesce_bytes is not None and int(coalesce_bytes) <= 0:
            raise InvalidParameterError(
                f"coalesce_bytes must be > 0, got {coalesce_bytes}"
            )
        if coalesce_ms is not None and float(coalesce_ms) <= 0:
            raise InvalidParameterError(
                f"coalesce_ms must be > 0, got {coalesce_ms}"
            )
        if coalesce_ms is not None and coalesce_bytes is None:
            raise InvalidParameterError(
                "coalesce_ms requires coalesce_bytes (the latency "
                "budget bounds how long a byte-budget buffer may wait)"
            )
        _require_policy(fsync)
        self.directory = os.fspath(directory)
        self.n_writers = int(writers)
        self.backend = backend
        self.child_cfg = dict(child_cfg)
        self._closed = False
        self._t_end = float("-inf")
        self._batch_seq = 0
        self._flush_seq = 0
        self._sent: list[int] = [0] * self.n_writers
        # Adaptive batching state: per-writer frame buffers, their
        # payload byte totals, and the arrival time of each buffer's
        # oldest frame (None when empty).
        self._coalesce_budget = (
            None if coalesce_bytes is None else int(coalesce_bytes)
        )
        self._coalesce_ms = (
            None if coalesce_ms is None else float(coalesce_ms)
        )
        self._coalesce_effective = self._coalesce_budget or 0
        self._buffers: list[list] = [[] for _ in range(self.n_writers)]
        self._buffer_bytes: list[int] = [0] * self.n_writers
        self._buffer_first: list[float | None] = [None] * self.n_writers
        self._acked: list[int] = [0] * self.n_writers
        self._done: list[bool] = [False] * self.n_writers
        self._writer_stats: list[tuple[int, int, float]] = [
            (0, 0, 0.0)
        ] * self.n_writers
        self._writer_snapshots: dict[int, dict] = {}
        # Tracers are not picklable (locks, file handles); writers each
        # build their own from this plain-dict config.  The coordinator
        # side traces through the ambient tracer (see repro.cli).
        self._trace_cfg = (
            None
            if trace_dir is None
            else {
                "dir": os.fspath(trace_dir),
                "sample_rate": float(trace_sample_rate),
                "slow_ms": trace_slow_ms,
            }
        )
        self._failure: WriterProcessError | None = None
        self._failure_is_order = False
        self._failure_raised = False
        metrics = global_registry()
        self._batches_total = metrics.counter(
            "parallel_ingest_batches_total",
            "sub-batches dispatched to writer processes",
        )
        self._records_total = metrics.counter(
            "parallel_ingest_records_total",
            "records dispatched to writer processes",
        )
        self._acked_records = metrics.counter(
            "parallel_ingest_acked_records_total",
            "records acknowledged durable by writer processes",
        )
        self._backpressure_seconds = metrics.counter(
            "parallel_backpressure_seconds_total",
            "seconds the coordinator blocked on full writer queues",
        )
        self._queue_depth_gauge = metrics.gauge(
            "parallel_seal_queue_depth",
            "deepest per-writer background-seal queue (last acks)",
        )
        self._seal_lag_gauge = metrics.gauge(
            "parallel_seal_lag_elements",
            "unsealed frozen elements across writers (last acks)",
        )
        self._coalesced_frames = metrics.counter(
            "parallel_coalesced_batches_total",
            "sub-batch frames absorbed into coalesced dispatches",
        )
        self._coalesce_flushes = metrics.counter(
            "parallel_coalesce_flushes_total",
            "coalesce-buffer dispatches to writer queues",
        )
        self._coalesce_budget_gauge = metrics.gauge(
            "parallel_coalesce_budget_bytes",
            "effective adaptive-batching byte budget (AIMD)",
        )
        if self._coalesce_budget is not None:
            self._coalesce_budget_gauge.set(self._coalesce_effective)
        # Validates an existing layout (shard count, backend) before
        # any writer spawns; a fresh root gets its manifest here.
        shard_dirs = _open_shard_layout(
            self.directory,
            resume=resume,
            shards=self.n_writers,
            backend=self.backend,
            fsync=True,
            child_cfg=self.child_cfg,
            seal_elements=seal_elements,
        )
        store_cfg = dict(
            backend=self.backend,
            seal_elements=int(seal_elements),
            fsync=fsync,
            flush_bytes=flush_bytes,
            background_seal=True,
            max_unsealed=max_unsealed,
            **self.child_cfg,
        )
        ctx = mp.get_context("spawn")
        self._work_queues = [
            ctx.Queue(maxsize=int(queue_depth))
            for _ in range(self.n_writers)
        ]
        self._ack_queue = ctx.Queue()
        self._processes = []
        for writer_id in range(self.n_writers):
            process = ctx.Process(
                target=_writer_main,
                args=(
                    shard_dirs[writer_id],
                    writer_id,
                    store_cfg,
                    self._trace_cfg,
                    self._work_queues[writer_id],
                    self._ack_queue,
                ),
                name=f"repro-writer-{writer_id}",
                daemon=True,
            )
            process.start()
            self._processes.append(process)

    # -- ingest --------------------------------------------------------
    def extend_batch(self, event_ids, timestamps, counts=None) -> None:
        """Partition one record batch across the writers (blocking).

        Validates shape and global stream order exactly like
        ``extend_batch`` on a store, then routes each shard's
        sub-batch (original order preserved) onto that writer's
        bounded queue.  Returns once every sub-batch is *enqueued* —
        acknowledgements arrive asynchronously (see
        :attr:`acked_records`); call :meth:`flush` for a durability
        barrier.
        """
        self._check_open()
        ids, ts, counts = _validated_record_batch(
            event_ids, timestamps, counts
        )
        if ids.size == 0:
            return
        first = float(ts[0])
        if first < self._t_end:
            raise StreamOrderError(
                f"timestamp {first} arrived after {self._t_end}"
            )
        ids = ids.astype(np.int64, copy=False)
        self._drain_acks(block=False)
        self._raise_failure()
        with _trace_span(
            "coordinator.extend_batch", records=int(ids.size)
        ):
            # Capture inside the span so writer-side spans parent on
            # this dispatch, stitching one tree across processes.
            trace_ctx = current_context()
            routes = shard_routes(ids, self.n_writers)
            for writer_id in range(self.n_writers):
                mask = routes == writer_id
                if not bool(mask.any()):
                    continue
                sub_ids = ids[mask]
                sub_ts = ts[mask]
                sub_counts = None if counts is None else counts[mask]
                if self._coalesce_budget is not None:
                    self._buffer_frame(
                        writer_id, sub_ids, sub_ts, sub_counts, trace_ctx
                    )
                else:
                    self._dispatch_frame(
                        writer_id, sub_ids, sub_ts, sub_counts, trace_ctx
                    )
        self._flush_aged_buffers()
        self._t_end = max(self._t_end, float(ts[-1]))

    # -- adaptive batching ---------------------------------------------
    def _dispatch_frame(
        self, writer_id, sub_ids, sub_ts, sub_counts, trace_ctx
    ) -> None:
        n_records = int(
            sub_ids.size if sub_counts is None else sub_counts.sum()
        )
        self._batch_seq += 1
        self._put(
            writer_id,
            (
                "batch",
                self._batch_seq,
                sub_ids,
                sub_ts,
                sub_counts,
                trace_ctx,
            ),
        )
        self._sent[writer_id] += n_records
        self._batches_total.inc()
        self._records_total.inc(n_records)

    def _buffer_frame(
        self, writer_id, sub_ids, sub_ts, sub_counts, trace_ctx
    ) -> None:
        self._buffers[writer_id].append(
            (sub_ids, sub_ts, sub_counts, trace_ctx)
        )
        self._buffer_bytes[writer_id] += (
            sub_ids.nbytes
            + sub_ts.nbytes
            + (0 if sub_counts is None else sub_counts.nbytes)
        )
        if self._buffer_first[writer_id] is None:
            self._buffer_first[writer_id] = time.perf_counter()
        if self._buffer_bytes[writer_id] >= self._coalesce_effective:
            self._flush_buffer(writer_id)

    def _flush_buffer(self, writer_id: int) -> None:
        """Dispatch a writer's buffered frames as one coalesced frame.

        Frames were appended in stream order and each carries a
        non-decreasing per-shard timestamp run, so their concatenation
        is a valid batch for the writer's store.
        """
        frames = self._buffers[writer_id]
        if not frames:
            return
        self._buffers[writer_id] = []
        self._buffer_bytes[writer_id] = 0
        self._buffer_first[writer_id] = None
        if len(frames) == 1:
            sub_ids, sub_ts, sub_counts, trace_ctx = frames[0]
        else:
            sub_ids = np.concatenate([frame[0] for frame in frames])
            sub_ts = np.concatenate([frame[1] for frame in frames])
            if any(frame[2] is not None for frame in frames):
                sub_counts = np.concatenate(
                    [
                        frame[2]
                        if frame[2] is not None
                        else np.ones(frame[0].size, dtype=np.int64)
                        for frame in frames
                    ]
                )
            else:
                sub_counts = None
            trace_ctx = frames[-1][3]
            self._coalesced_frames.inc(len(frames))
        self._coalesce_flushes.inc()
        self._dispatch_frame(
            writer_id, sub_ids, sub_ts, sub_counts, trace_ctx
        )

    def _flush_aged_buffers(self) -> None:
        if self._coalesce_budget is None or self._coalesce_ms is None:
            return
        now = time.perf_counter()
        for writer_id in range(self.n_writers):
            first = self._buffer_first[writer_id]
            if (
                first is not None
                and (now - first) * 1000.0 >= self._coalesce_ms
            ):
                self._flush_buffer(writer_id)

    def _flush_all_buffers(self) -> None:
        if self._coalesce_budget is None:
            return
        for writer_id in range(self.n_writers):
            self._flush_buffer(writer_id)

    def _shrink_coalesce_budget(self) -> None:
        """Multiplicative decrease on backpressure: a full writer queue
        means dispatches outpace the fleet — larger frames only deepen
        the stall, so halve toward the floor."""
        if self._coalesce_budget is None:
            return
        self._coalesce_effective = max(
            _COALESCE_FLOOR_BYTES, self._coalesce_effective // 2
        )
        self._coalesce_budget_gauge.set(self._coalesce_effective)

    def _grow_coalesce_budget(self) -> None:
        if (
            self._coalesce_budget is None
            or self._coalesce_effective >= self._coalesce_budget
        ):
            return
        self._coalesce_effective = min(
            self._coalesce_budget,
            self._coalesce_effective
            + max(self._coalesce_budget // 8, 1),
        )
        self._coalesce_budget_gauge.set(self._coalesce_effective)

    def _put(self, writer_id: int, message) -> None:
        """Blocking bounded-queue put, with liveness checks.

        A full queue is backpressure (accounted, then wait); a full
        queue whose consumer died would block forever, so the wait
        polls the process and surfaces a :class:`WriterProcessError`
        instead of hanging.
        """
        queue = self._work_queues[writer_id]
        try:
            queue.put_nowait(message)
            self._grow_coalesce_budget()
            return
        except queue_module.Full:
            self._shrink_coalesce_budget()
        start = time.perf_counter()
        try:
            with _trace_span("backpressure.wait", writer=writer_id):
                while True:
                    try:
                        queue.put(message, timeout=0.5)
                        return
                    except queue_module.Full:
                        self._drain_acks(block=False)
                        self._raise_failure()
                        if not self._processes[writer_id].is_alive():
                            raise WriterProcessError(
                                writer_id,
                                "writer process died with its queue "
                                "full",
                            )
        finally:
            self._backpressure_seconds.inc(time.perf_counter() - start)

    def flush(self) -> int:
        """Durability barrier: every record sent so far is applied and
        WAL-flushed in its writer.  Returns total acknowledged records.
        """
        self._check_open()
        self._raise_failure()
        self._flush_all_buffers()
        self._flush_seq += 1
        flush_id = self._flush_seq
        with _trace_span("coordinator.flush"):
            trace_ctx = current_context()
            pending = set()
            for writer_id in range(self.n_writers):
                self._put(writer_id, ("flush", flush_id, trace_ctx))
                pending.add(writer_id)
            while pending:
                try:
                    message = self._ack_queue.get(timeout=0.5)
                except queue_module.Empty:
                    for writer_id in list(pending):
                        if not self._processes[writer_id].is_alive():
                            raise WriterProcessError(
                                writer_id,
                                "writer process died before flush ack",
                            )
                    continue
                self._handle_ack(message)
                if (
                    message[0] == "flushed"
                    and message[2] == flush_id
                ):
                    pending.discard(message[1])
                self._raise_failure()
        return self.acked_records

    # -- acknowledgement tracking --------------------------------------
    def _drain_acks(self, *, block: bool) -> None:
        while True:
            try:
                if block:
                    message = self._ack_queue.get(timeout=0.5)
                else:
                    message = self._ack_queue.get_nowait()
            except queue_module.Empty:
                return
            self._handle_ack(message)
            if block:
                return

    def _handle_ack(self, message) -> None:
        kind = message[0]
        if kind == "ack":
            _, writer_id, _batch_id, applied, stats = message
            gained = applied - self._acked[writer_id]
            if gained > 0:
                self._acked_records.inc(gained)
            self._acked[writer_id] = applied
            self._writer_stats[writer_id] = stats
            self._update_gauges()
        elif kind == "flushed":
            _, writer_id, _flush_id, applied, stats, snapshot = message
            gained = applied - self._acked[writer_id]
            if gained > 0:
                self._acked_records.inc(gained)
            self._acked[writer_id] = applied
            self._writer_stats[writer_id] = stats
            self._writer_snapshots[writer_id] = snapshot
            self._update_gauges()
        elif kind == "done":
            _, writer_id, applied, stats, snapshot = message
            gained = applied - self._acked[writer_id]
            if gained > 0:
                self._acked_records.inc(gained)
            self._acked[writer_id] = applied
            self._writer_stats[writer_id] = stats
            self._writer_snapshots[writer_id] = snapshot
            self._done[writer_id] = True
            self._update_gauges()
        elif kind == "error":
            _, writer_id, etype, text = message
            if self._failure is None:  # first failure wins
                self._failure = WriterProcessError(
                    writer_id, f"{etype}\n{text}"
                )
                self._failure_is_order = etype == "StreamOrderError"

    def _update_gauges(self) -> None:
        self._queue_depth_gauge.set(
            max(stats[0] for stats in self._writer_stats)
        )
        self._seal_lag_gauge.set(
            sum(stats[1] for stats in self._writer_stats)
        )

    def _raise_failure(self, *, once: bool = False) -> None:
        if self._failure is None:
            return
        if once and self._failure_raised:
            return
        self._failure_raised = True
        if self._failure_is_order:
            raise StreamOrderError(str(self._failure)) from self._failure
        raise self._failure

    @property
    def acked_records(self) -> int:
        """Records acknowledged durable across all writers."""
        return sum(self._acked)

    @property
    def sent_records(self) -> int:
        """Records dispatched to writer queues (acked ≤ sent)."""
        return sum(self._sent)

    def acked_by_shard(self) -> list[int]:
        """Cumulative acknowledged records per shard (a copy)."""
        return list(self._acked)

    @property
    def seal_queue_depth(self) -> int:
        """Deepest writer seal queue, from the latest acks."""
        return max(stats[0] for stats in self._writer_stats)

    @property
    def seal_lag_elements(self) -> int:
        """Total unsealed frozen elements, from the latest acks."""
        return sum(stats[1] for stats in self._writer_stats)

    def writer_metrics_snapshots(self) -> dict[int, dict]:
        """Latest per-writer metrics snapshot, keyed by writer id.

        Writers ship a full registry snapshot on every ``flushed`` and
        ``done`` ack, so after a :meth:`flush` (or :meth:`close`) this
        covers every writer; between flushes it may lag or miss writers
        that have not flushed yet.  Returns a shallow copy.
        """
        return dict(self._writer_snapshots)

    def fleet_metrics_snapshot(self) -> dict:
        """Coordinator + writer metrics merged into one snapshot.

        Counters and gauges sum; histograms merge bucket-wise (see
        :func:`~repro.core.metrics.merge_snapshots`).  This is what
        ``repro stats`` / ``--metrics-json`` report for parallel
        ingest, so WAL and seal activity inside writer processes is
        visible instead of silently dropped.
        """
        return merge_snapshots(
            global_registry().snapshot(),
            *(
                self._writer_snapshots[key]
                for key in sorted(self._writer_snapshots)
            ),
        )

    def writer_busy_seconds(self) -> list[float]:
        """Cumulative apply/flush time per writer, from the latest acks.

        I/O waits count as busy: the sum across writers divided by wall
        time is the ingest concurrency — how many writers were applying
        records (or waiting on their shard's disk) at once.  Exact
        after a :meth:`flush`, which forces a fresh ack from everyone.
        """
        return [float(stats[2]) for stats in self._writer_stats]

    # -- lifecycle -----------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise InvalidParameterError(
                "parallel ingest coordinator is closed"
            )

    def close(self, *, timeout: float = 60.0) -> int:
        """Stop the writers and wait for their final acks (idempotent).

        Each writer drains its background seal queue and closes its
        WAL before reporting ``done``; afterwards the directory is a
        clean sharded-durable store.  Returns total acknowledged
        records.  Raises :class:`WriterProcessError` if any writer
        failed (after stopping the rest).
        """
        if self._closed:
            return self.acked_records
        self._closed = True
        for writer_id in range(self.n_writers):
            try:
                # Buffered frames precede the stop sentinel so no
                # accepted record is dropped by adaptive batching.
                self._flush_buffer(writer_id)
            except Exception:
                pass
            try:
                self._work_queues[writer_id].put(None, timeout=timeout)
            except Exception:
                pass
        deadline = time.monotonic() + timeout
        while not all(self._done) and time.monotonic() < deadline:
            try:
                message = self._ack_queue.get(timeout=0.5)
            except Exception:
                if not any(p.is_alive() for p in self._processes):
                    # all writers exited; collect any stragglers
                    try:
                        while True:
                            self._handle_ack(
                                self._ack_queue.get_nowait()
                            )
                    except Exception:
                        pass
                    break
                continue
            self._handle_ack(message)
        for process in self._processes:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            if process.is_alive():  # pragma: no cover - hung writer
                process.terminate()
                process.join(timeout=5.0)
        for queue in (*self._work_queues, self._ack_queue):
            queue.close()
            queue.join_thread()
        # A failure already surfaced to the caller (e.g. mid-ingest)
        # must not re-raise out of the context-manager exit.
        self._raise_failure(once=True)
        return self.acked_records

    def __enter__(self) -> "ParallelIngestCoordinator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
