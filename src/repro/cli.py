"""Command-line interface: ``python -m repro <command>``.

Subcommands
-----------
generate
    Synthesize an `olympicrio`- or `uspolitics`-like stream to a file.
ingest (alias: build)
    Ingest a stream file into a burst store and serialize it.  The
    stream is read and fed to the store in numpy record batches
    (``--batch-size``, default 8192); batching never changes the built
    store, only the ingest speed.  ``--backend`` picks any registered
    store backend (``exact``, ``cm-pbe-1``, ``cm-pbe-2``, ``direct``,
    ``index``) and ``--shards N`` hash-partitions event ids across N
    copies of it; without ``--backend`` the default CM-PBE path writes
    the legacy v1 blob, byte-identical to previous releases.
    ``--durable DIR`` ingests through the write-ahead-logged durable
    lifecycle instead: every acknowledged batch is crash-recoverable
    from DIR (``repro recover``), ``--resume`` continues a previous
    run, and ``--fsync``/``--seal-elements`` tune the durability/
    throughput trade-off.
recover
    Recover a durable store directory: replay the WAL tail after the
    last sealed segment and print what survived.
rebalance
    Rewrite a sharded durable directory to a different shard count
    offline (``repro rebalance DIR --shards M``): every acknowledged
    record is streamed through the Fibonacci shard hash into M new
    shard directories, committed by one atomic manifest replace.
query
    Answer point / bursty-time queries from a serialized store (either
    the versioned envelope or a legacy v1 blob).
inspect
    Print a sketch's or stream's vital statistics.
stats
    Render a metrics snapshot written by ``--metrics-json`` (human text
    or Prometheus exposition with ``--prometheus``).
trace
    Summarize or export span logs written by ``ingest --trace DIR``:
    ``trace summary`` prints a per-span p50/p99 latency table and
    ``trace export --perfetto OUT.json`` writes Chrome trace-event JSON
    loadable in Perfetto / ``chrome://tracing``.
experiment
    Run one of the paper's figures at a chosen scale and print the table.
validate
    Score a serialized sketch's accuracy against its source stream.
report
    Stitch persisted benchmark tables into one REPORT.md.

Streams are stored in the binary format of :mod:`repro.streams.io`
(``--csv`` switches to CSV); sketches use :mod:`repro.core.serialize`.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import sys
from pathlib import Path

from repro.core.cmpbe import CMPBE
from repro.core.compaction import (
    DEFAULT_COMPACT_FANIN,
    DEFAULT_COMPACT_MIN_SEGMENTS,
    rebalance as rebalance_directory,
)
from repro.core.durable import (
    DEFAULT_MAX_UNSEALED,
    DEFAULT_SEAL_ELEMENTS,
    create_durable,
    recover,
)
from repro.core.errors import (
    InvalidParameterError,
    RecoveryError,
    StreamOrderError,
    WriterProcessError,
)
from repro.core.parallel_ingest import ParallelIngestCoordinator
from repro.core.metrics import (
    dump_snapshot_json,
    global_registry,
    prometheus_exposition,
    render_snapshot,
)
from repro.core.serialize import (
    ENVELOPE_MAGIC,
    atomic_write_bytes,
    dump_cmpbe,
    load_store,
    save_store,
    write_store,
)
from repro.core.store import create_store
from repro.core.tracing import (
    JsonlSpanExporter,
    Tracer,
    load_trace,
    perfetto_trace,
    render_summary,
    set_tracer,
    span as trace_span,
    summarize_spans,
)
from repro.core.wal import FSYNC_POLICIES
from repro.eval import harness
from repro.eval.tables import format_table
from repro.streams.io import (
    DEFAULT_BATCH_SIZE,
    iter_record_batches,
    read_binary,
    read_csv,
    write_binary,
    write_csv,
)
from repro.workloads.olympics import make_olympicrio, make_soccer_stream
from repro.workloads.politics import make_uspolitics
from repro.workloads.profiles import DAY

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the repro argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bursty event detection throughout histories",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="log to stderr (-v warnings+info, -vv debug); goes before "
        "the subcommand",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="synthesize a workload stream"
    )
    generate.add_argument(
        "dataset", choices=["olympicrio", "uspolitics"],
    )
    generate.add_argument("--out", required=True, type=Path)
    generate.add_argument("--events", type=int, default=128)
    generate.add_argument("--mentions", type=int, default=50_000)
    generate.add_argument("--seed", type=int, default=2016)
    generate.add_argument(
        "--csv", action="store_true", help="write CSV instead of binary"
    )

    for name in ("ingest", "build"):
        ingest = commands.add_parser(
            name,
            help="ingest a stream into a CM-PBE sketch"
            + ("" if name == "ingest" else " (alias of ingest)"),
        )
        ingest.add_argument("stream", type=Path)
        ingest.add_argument(
            "--out",
            type=Path,
            help="serialized store envelope (required unless --durable)",
        )
        ingest.add_argument(
            "--durable",
            type=Path,
            metavar="DIR",
            help="ingest through the WAL-backed durable lifecycle rooted "
            "at DIR; every acknowledged batch survives a crash",
        )
        ingest.add_argument(
            "--resume",
            action="store_true",
            help="with --durable: recover DIR and continue ingesting",
        )
        ingest.add_argument(
            "--seal-elements",
            type=int,
            default=DEFAULT_SEAL_ELEMENTS,
            help="with --durable: memtable size that triggers sealing a "
            "segment (default %(default)s)",
        )
        ingest.add_argument(
            "--fsync",
            choices=sorted(FSYNC_POLICIES),
            default="batch",
            help="with --durable: when to fsync the WAL (default batch)",
        )
        ingest.add_argument(
            "--writers",
            type=int,
            metavar="N",
            help="with --durable: ingest through N writer processes, one "
            "per shard directory (multi-process sharded layout; recover "
            "with 'repro recover DIR' as usual)",
        )
        ingest.add_argument(
            "--flush-bytes",
            type=int,
            help="with --durable: under --fsync batch, fsync the WAL "
            "whenever this many unsynced bytes accumulate "
            "(default 1 MiB)",
        )
        ingest.add_argument(
            "--background-seal",
            action="store_true",
            help="with --durable: seal segments on a background thread "
            "instead of stalling the ingest hot path (always on inside "
            "--writers processes)",
        )
        ingest.add_argument(
            "--max-unsealed",
            type=int,
            default=DEFAULT_MAX_UNSEALED,
            help="with --durable: frozen memtable generations in flight "
            "before ingest blocks, under background sealing "
            "(default %(default)s)",
        )
        ingest.add_argument(
            "--compact",
            action="store_true",
            help="with --durable: after ingest, merge runs of adjacent "
            "same-size-tier segments down (size-tiered compaction); "
            "answers are unchanged, recovery and queries get faster",
        )
        ingest.add_argument(
            "--compact-fanin",
            type=int,
            default=DEFAULT_COMPACT_FANIN,
            help="with --compact: max segments merged per compaction "
            "pass (default %(default)s)",
        )
        ingest.add_argument(
            "--compact-min-segments",
            type=int,
            default=DEFAULT_COMPACT_MIN_SEGMENTS,
            help="with --compact: leave stores with fewer segments "
            "alone (default %(default)s)",
        )
        ingest.add_argument(
            "--coalesce-bytes",
            type=int,
            metavar="N",
            help="with --writers: buffer small per-shard sub-batches "
            "and dispatch them as one frame once N payload bytes "
            "accumulate (adaptive: backpressure shrinks the budget)",
        )
        ingest.add_argument(
            "--coalesce-ms",
            type=float,
            metavar="MS",
            help="with --coalesce-bytes: dispatch a buffered frame "
            "after its oldest record has waited MS milliseconds",
        )
        ingest.add_argument(
            "--method", choices=["cm-pbe-1", "cm-pbe-2"], default="cm-pbe-1"
        )
        ingest.add_argument("--eta", type=int, default=100)
        ingest.add_argument("--buffer-size", type=int, default=1500)
        ingest.add_argument("--gamma", type=float, default=20.0)
        ingest.add_argument("--width", type=int, default=6)
        ingest.add_argument("--depth", type=int, default=3)
        ingest.add_argument("--seed", type=int, default=0)
        ingest.add_argument(
            "--backend",
            choices=["exact", "cm-pbe-1", "cm-pbe-2", "direct", "index"],
            help="store backend from the registry; omit for the legacy "
            "CM-PBE blob (bit-identical to previous releases)",
        )
        ingest.add_argument(
            "--shards",
            type=int,
            help="hash-partition event ids across N copies of --backend",
        )
        ingest.add_argument(
            "--universe-size",
            type=int,
            help="event-id universe size (required by --backend index)",
        )
        ingest.add_argument(
            "--batch-size",
            type=int,
            default=DEFAULT_BATCH_SIZE,
            help="records per ingest batch (never affects the result)",
        )
        ingest.add_argument(
            "--metrics-json",
            type=Path,
            help="write a metrics snapshot (JSON) of the ingest run here; "
            "never affects the serialized store",
        )
        ingest.add_argument(
            "--trace",
            type=Path,
            metavar="DIR",
            help="write span logs (JSONL, one file per process) to DIR; "
            "inspect with 'repro trace summary DIR'",
        )
        ingest.add_argument(
            "--trace-sample-rate",
            type=float,
            default=1.0,
            help="fraction of traces to record (default %(default)s)",
        )
        ingest.add_argument(
            "--trace-slow-ms",
            type=float,
            help="also log any span slower than this many milliseconds, "
            "with its full ancestry",
        )

    recover_cmd = commands.add_parser(
        "recover",
        help="recover a durable store directory (replays the WAL tail)",
    )
    recover_cmd.add_argument("directory", type=Path)
    recover_cmd.add_argument(
        "--out",
        type=Path,
        help="also write the recovered store as a serialized envelope",
    )
    recover_cmd.add_argument(
        "--fsync",
        choices=sorted(FSYNC_POLICIES),
        default="batch",
        help="fsync policy for the reopened WAL (default batch)",
    )

    rebalance_cmd = commands.add_parser(
        "rebalance",
        help="rewrite a sharded durable directory to a different shard "
        "count (offline, crash-safe)",
    )
    rebalance_cmd.add_argument("directory", type=Path)
    rebalance_cmd.add_argument(
        "--shards",
        type=int,
        required=True,
        metavar="M",
        help="target shard count; records are re-routed through the "
        "same Fibonacci shard hash queries use",
    )
    rebalance_cmd.add_argument(
        "--fsync",
        choices=sorted(FSYNC_POLICIES),
        default="batch",
        help="fsync policy while writing the new shards "
        "(default batch)",
    )

    query = commands.add_parser(
        "query", help="answer a historical burst query from a sketch"
    )
    query.add_argument(
        "kind", choices=["point", "bursty-times"],
    )
    query.add_argument("--sketch", required=True, type=Path)
    query.add_argument("--event", type=int, help="event id (scalar queries)")
    query.add_argument("--t", type=float, help="query time (point)")
    query.add_argument("--theta", type=float, help="threshold")
    query.add_argument("--tau", type=float, default=DAY)
    query.add_argument(
        "--t-end", type=float, help="history end for bursty-times"
    )
    query.add_argument(
        "--batch-file",
        type=Path,
        help="CSV or JSONL file of event_id,t pairs; answers every pair "
        "as one point-query batch through the vectorized read path",
    )
    query.add_argument(
        "--metrics-json",
        type=Path,
        help="write a metrics snapshot (JSON) of the query run here",
    )

    inspect = commands.add_parser(
        "inspect", help="print statistics of a stream or sketch file"
    )
    inspect.add_argument("path", type=Path)

    stats = commands.add_parser(
        "stats",
        help="render a metrics snapshot written by --metrics-json",
    )
    stats.add_argument("metrics", type=Path)
    stats.add_argument(
        "--prometheus",
        action="store_true",
        help="emit Prometheus text exposition instead of the summary",
    )

    trace = commands.add_parser(
        "trace",
        help="summarize or export span logs written by ingest --trace",
    )
    trace.add_argument("action", choices=["summary", "export"])
    trace.add_argument(
        "trace",
        type=Path,
        help="span-log directory (or a single spans-*.jsonl file)",
    )
    trace.add_argument(
        "--perfetto",
        type=Path,
        metavar="OUT.json",
        help="with export: write Chrome trace-event JSON here "
        "(open in Perfetto or chrome://tracing)",
    )
    trace.add_argument(
        "--strict",
        action="store_true",
        help="fail on torn mid-file span lines instead of skipping them",
    )

    experiment = commands.add_parser(
        "experiment", help="run one of the paper's figures"
    )
    experiment.add_argument(
        "figure",
        choices=["fig7", "fig8", "fig9", "fig11", "costs"],
    )
    experiment.add_argument("--mentions", type=int, default=20_000)
    experiment.add_argument("--events", type=int, default=64)

    validate = commands.add_parser(
        "validate",
        help="score a sketch's accuracy against its source stream",
    )
    validate.add_argument("--sketch", required=True, type=Path)
    validate.add_argument("--stream", required=True, type=Path)
    validate.add_argument("--tau", type=float, default=DAY)
    validate.add_argument("--times", type=int, default=16)

    report_cmd = commands.add_parser(
        "report",
        help="stitch benchmarks/results/*.txt into one REPORT.md",
    )
    report_cmd.add_argument(
        "--results",
        type=Path,
        default=Path("benchmarks") / "results",
    )
    report_cmd.add_argument("--out", type=Path, default=None)
    return parser


def _read_stream(path: Path):
    if path.suffix == ".csv":
        return read_csv(path)
    return read_binary(path)


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.dataset == "olympicrio":
        stream = make_olympicrio(
            n_events=args.events,
            total_mentions=args.mentions,
            seed=args.seed,
        )
    else:
        stream = make_uspolitics(
            n_events=args.events,
            total_mentions=args.mentions,
            seed=args.seed,
        ).stream
    if args.csv:
        write_csv(stream, args.out)
    else:
        write_binary(stream, args.out)
    print(
        f"wrote {len(stream)} mentions of "
        f"{len(stream.distinct_event_ids())} events to {args.out}"
    )
    return 0


def _backend_config(args: argparse.Namespace) -> dict:
    """Registry kwargs for the chosen ``--backend``."""
    backend = args.backend
    if backend == "exact":
        return {}
    cell = "pbe1" if args.method == "cm-pbe-1" else "pbe2"
    cfg = dict(
        cell=cell,
        eta=args.eta,
        buffer_size=args.buffer_size,
        gamma=args.gamma,
        unit=1.0,
    )
    if backend == "direct":
        return cfg
    cfg.update(width=args.width, depth=args.depth, seed=args.seed)
    if backend == "index":
        cfg["universe_size"] = args.universe_size
    elif backend in ("cm-pbe-1", "cm-pbe-2"):
        # The grid scans the universe on bursty-event queries if known.
        cfg["universe_size"] = args.universe_size
        del cfg["cell"]
    return cfg


def _write_metrics_json(
    path: Path,
    store=None,
    *,
    global_snapshot: dict | None = None,
) -> None:
    """Dump the run's metrics: the process registry plus, when the run
    went through one store in this process, that store's own registry.

    ``global_snapshot`` overrides the process registry — the parallel
    ingest path passes the fleet-merged snapshot (coordinator + every
    writer process) so the file reports whole-fleet numbers.
    """
    snapshot = {
        "global": (
            global_registry().snapshot()
            if global_snapshot is None
            else global_snapshot
        ),
        "store": None if store is None else store.metrics_snapshot(),
    }
    path.write_text(dump_snapshot_json(snapshot))
    print(f"metrics -> {path}")


@contextlib.contextmanager
def _trace_session(args: argparse.Namespace):
    """Install a tracer for this ingest run when ``--trace`` was given.

    The tracer becomes the process-ambient one (so store/WAL spans find
    it), writes ``spans-coordinator.jsonl`` under the trace directory,
    and is closed — with the previous tracer restored — on the way out.
    """
    trace_dir = getattr(args, "trace", None)
    if trace_dir is None:
        yield None
        return
    tracer = Tracer(
        exporters=[JsonlSpanExporter(trace_dir / "spans-coordinator.jsonl")],
        sample_rate=args.trace_sample_rate,
        slow_threshold_ms=args.trace_slow_ms,
        process="coordinator",
    )
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
        tracer.close()
        print(f"trace spans -> {trace_dir}")


def _segment_total(store) -> int:
    """Sealed-segment count of a durable store or sharded composite."""
    shards = getattr(store, "shards", None)
    if shards is not None:
        return sum(child.n_segments for child in shards)
    return store.n_segments


def _segment_file_total(directory: Path) -> int:
    """Committed segment files under a durable directory (top-level or
    per-shard), counted without opening the stores."""
    import os

    total = 0
    for root, _dirs, files in os.walk(directory):
        total += sum(
            1
            for name in files
            if name.startswith("segment-") and name.endswith(".beds")
        )
    return total


def _ingest_parallel(args: argparse.Namespace, cfg: dict) -> int:
    """Multi-process durable ingest: one writer process per shard."""
    if args.shards and args.shards != args.writers:
        print(
            "error: --writers implies one shard per writer; drop "
            "--shards or make them equal",
            file=sys.stderr,
        )
        return 2
    ingested = 0
    try:
        with ParallelIngestCoordinator(
            args.durable,
            writers=args.writers,
            backend=args.backend,
            seal_elements=args.seal_elements,
            fsync=args.fsync,
            flush_bytes=args.flush_bytes,
            max_unsealed=args.max_unsealed,
            coalesce_bytes=args.coalesce_bytes,
            coalesce_ms=args.coalesce_ms,
            resume=args.resume,
            trace_dir=args.trace,
            trace_sample_rate=args.trace_sample_rate,
            trace_slow_ms=args.trace_slow_ms,
            **cfg,
        ) as coordinator:
            for event_ids, timestamps in iter_record_batches(
                args.stream, args.batch_size
            ):
                coordinator.extend_batch(event_ids, timestamps)
                ingested += len(event_ids)
            coordinator.flush()
    except StreamOrderError as error:
        # Everything acknowledged so far is already durable; tell the
        # user where the stream violated the resume horizon.
        print(f"error: {error}", file=sys.stderr)
        return 2
    except RecoveryError as error:
        # e.g. resuming with a writer count that does not match the
        # directory's shard layout (ShardCountMismatchError).
        print(f"error: {error}", file=sys.stderr)
        return 2
    except WriterProcessError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.compact:
        store = recover(args.durable, fsync=args.fsync)
        with store:
            runs = sum(
                child.compact(
                    fanin=args.compact_fanin,
                    min_segments=args.compact_min_segments,
                )
                for child in (getattr(store, "shards", None) or [store])
            )
        print(f"compacted: {runs} merge passes")
    label = f"durable {args.backend} x{args.writers} writers"
    print(
        f"ingested {coordinator.acked_records} mentions -> {label} "
        f"store, {_segment_file_total(args.durable)} sealed segments "
        f"-> {args.durable}"
    )
    if args.metrics_json is not None:
        # Fleet-merged: the writers shipped their registry snapshots
        # back on the final done acks, so the file covers their WAL and
        # seal activity too, not just the coordinator process.
        _write_metrics_json(
            args.metrics_json,
            global_snapshot=coordinator.fleet_metrics_snapshot(),
        )
    return 0


def _ingest_durable(args: argparse.Namespace) -> int:
    if args.backend is None:
        args.backend = args.method
    cfg = _backend_config(args)
    if args.writers is not None:
        if args.writers <= 0:
            print("error: --writers must be positive", file=sys.stderr)
            return 2
        with _trace_session(args):
            with trace_span(
                "ingest", mode="parallel", writers=args.writers
            ):
                return _ingest_parallel(args, cfg)
    with _trace_session(args) as tracer:
        with trace_span("ingest", mode="durable"):
            return _ingest_durable_single(args, cfg, tracer)


def _ingest_durable_single(
    args: argparse.Namespace, cfg: dict, tracer=None
) -> int:
    try:
        store = create_durable(
            args.durable,
            backend=args.backend,
            shards=args.shards or 1,
            seal_elements=args.seal_elements,
            fsync=args.fsync,
            flush_bytes=args.flush_bytes,
            background_seal=args.background_seal,
            max_unsealed=args.max_unsealed,
            resume=args.resume,
            tracer=tracer,
            **cfg,
        )
    except RecoveryError as error:
        # e.g. resuming with a shard count that does not match the
        # directory (ShardCountMismatchError points at `repro rebalance`).
        print(f"error: {error}", file=sys.stderr)
        return 2
    with store:
        try:
            for event_ids, timestamps in iter_record_batches(
                args.stream, args.batch_size
            ):
                store.extend_batch(event_ids, timestamps)
        except StreamOrderError as error:
            # Everything acknowledged so far is already durable; tell
            # the user where the stream violated the resume horizon.
            print(f"error: {error}", file=sys.stderr)
            return 2
        store.flush()
        if args.background_seal:
            # Settle in-flight seals so the segment count below (and
            # any snapshot) reflects everything frozen so far.
            for child in getattr(store, "shards", None) or [store]:
                child.drain_seals()
        if args.compact:
            runs = sum(
                child.compact(
                    fanin=args.compact_fanin,
                    min_segments=args.compact_min_segments,
                )
                for child in (getattr(store, "shards", None) or [store])
            )
            print(f"compacted: {runs} merge passes")
        if args.out is not None:
            written = write_store(store, args.out)
            print(f"snapshot: {written} bytes -> {args.out}")
        label = f"durable {args.backend}"
        if args.shards and args.shards > 1:
            label += f" x{args.shards} shards"
        print(
            f"ingested {store.count} mentions -> {label} store, "
            f"{_segment_total(store)} sealed segments -> {args.durable}"
        )
    if args.metrics_json is not None:
        _write_metrics_json(args.metrics_json, store)
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    try:
        store = recover(args.directory, fsync=args.fsync)
    except RecoveryError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    with store:
        shards = getattr(store, "shards", None)
        layout = f"{len(shards)} shards" if shards is not None else "1 store"
        print(
            f"recovered {store.count} mentions "
            f"({_segment_total(store)} sealed segments, {layout}) "
            f"from {args.directory}"
        )
        if shards is not None:
            replayed = " ".join(
                f"{Path(child.directory).name}="
                f"{child.replayed_records}"
                for child in shards
            )
            print(f"replayed from WAL tails: {replayed}")
        else:
            print(
                f"replayed from WAL tail: {store.replayed_records} records"
            )
        if args.out is not None:
            written = write_store(store, args.out)
            print(f"snapshot: {written} bytes -> {args.out}")
    return 0


def _cmd_rebalance(args: argparse.Namespace) -> int:
    with _trace_session(args) as tracer:
        try:
            result = rebalance_directory(
                args.directory,
                shards=args.shards,
                fsync=args.fsync,
                tracer=tracer,
            )
        except (RecoveryError, InvalidParameterError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    print(
        f"rebalanced {result['records']} mentions -> "
        f"{result['shards']} shards -> {args.directory}"
    )
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    if args.out is None and args.durable is None:
        print(
            "error: ingest needs --out and/or --durable DIR",
            file=sys.stderr,
        )
        return 2
    if args.durable is not None:
        return _ingest_durable(args)
    if args.backend is None and not args.shards:
        # Legacy path: a bare CM-PBE serialized as the v1 blob.  Kept
        # verbatim so existing archives and golden outputs stay
        # bit-identical.
        if args.method == "cm-pbe-1":
            sketch = CMPBE.with_pbe1(
                eta=args.eta,
                width=args.width,
                depth=args.depth,
                buffer_size=args.buffer_size,
                seed=args.seed,
            )
        else:
            sketch = CMPBE.with_pbe2(
                gamma=args.gamma,
                width=args.width,
                depth=args.depth,
                seed=args.seed,
            )
        for event_ids, timestamps in iter_record_batches(
            args.stream, args.batch_size
        ):
            sketch.extend_batch(event_ids, timestamps)
        sketch.finalize()  # dumps no longer fold the live sketch in place
        payload = dump_cmpbe(sketch)
        atomic_write_bytes(args.out, payload)
        print(
            f"ingested {sketch.count} mentions -> {args.method} sketch, "
            f"{len(payload)} bytes on disk "
            f"({sketch.size_in_bytes()} logical) -> {args.out}"
        )
        if args.metrics_json is not None:
            _write_metrics_json(args.metrics_json)
        return 0
    if args.backend is None:
        args.backend = args.method
    cfg = _backend_config(args)
    if args.shards and args.shards > 1:
        store = create_store(
            "sharded", shards=args.shards, backend=args.backend, **cfg
        )
        label = f"{args.backend} x{args.shards} shards"
    else:
        store = create_store(args.backend, **cfg)
        label = args.backend
    with store:
        for event_ids, timestamps in iter_record_batches(
            args.stream, args.batch_size
        ):
            store.extend_batch(event_ids, timestamps)
        store.finalize()
        payload = save_store(store)
    atomic_write_bytes(args.out, payload)
    print(
        f"ingested {store.count} mentions -> {label} store, "
        f"{len(payload)} bytes on disk "
        f"({store.size_in_bytes()} logical) -> {args.out}"
    )
    if args.metrics_json is not None:
        _write_metrics_json(args.metrics_json, store)
    return 0


def _read_query_batch(path: Path) -> tuple[list[int], list[float]]:
    """Parse a ``--batch-file`` of ``event_id,t`` pairs.

    Lines starting with ``{`` are JSONL records with ``event_id`` and
    ``t`` keys; anything else is CSV (an ``event_id,t`` header line is
    skipped).  Blank lines are ignored.
    """
    import json

    event_ids: list[int] = []
    times: list[float] = []
    for raw_line in path.read_text().splitlines():
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("{"):
            record = json.loads(line)
            event_ids.append(int(record["event_id"]))
            times.append(float(record["t"]))
            continue
        first, _, second = line.partition(",")
        try:
            event_ids.append(int(first))
        except ValueError:
            continue  # header line
        times.append(float(second))
    return event_ids, times


def _cmd_query(args: argparse.Namespace) -> int:
    store = load_store(args.sketch.read_bytes())
    code = _run_query(args, store)
    if args.metrics_json is not None and code == 0:
        _write_metrics_json(args.metrics_json, store)
    return code


def _run_query(args: argparse.Namespace, store) -> int:
    if args.batch_file is not None:
        if args.kind != "point":
            print(
                "error: --batch-file only supports point queries",
                file=sys.stderr,
            )
            return 2
        event_ids, times = _read_query_batch(args.batch_file)
        values = store.point_query_batch(event_ids, times, args.tau)
        for event_id, t, value in zip(event_ids, times, values):
            print(f"b({event_id}, t={t}, tau={args.tau}) = {float(value)}")
        return 0
    if args.event is None:
        print("error: scalar queries need --event", file=sys.stderr)
        return 2
    if args.kind == "point":
        if args.t is None:
            print("error: point queries need --t", file=sys.stderr)
            return 2
        value = store.point_query(args.event, args.t, args.tau)
        print(f"b({args.event}, t={args.t}, tau={args.tau}) = {value}")
        return 0
    if args.theta is None:
        print("error: bursty-times needs --theta", file=sys.stderr)
        return 2
    knots = store.segment_starts(args.event)
    if not knots:
        print("(no data for this event)")
        return 0
    t_end = args.t_end if args.t_end is not None else max(knots) + 2 * args.tau
    # Breakpoint scan mode, regardless of cell type, matching the
    # historical CLI behaviour.
    intervals = store.bursty_time_query(
        args.event,
        args.theta,
        args.tau,
        t_end=t_end,
        piecewise="constant",
    )
    if not intervals:
        print("(never bursty at this threshold)")
    for start, end in intervals:
        print(f"bursty from {start} to {end}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    data = args.path.read_bytes()
    if data[:4] == b"CMPB":
        sketch = load_store(data).inner
        print(
            f"CM-PBE sketch: {sketch.depth}x{sketch.width} grid, "
            f"combiner={sketch.combiner}, count={sketch.count}, "
            f"{sketch.size_in_bytes()} bytes logical"
        )
        return 0
    if data[:4] == ENVELOPE_MAGIC:
        store = load_store(data)
        print(
            f"burst store: backend={store.backend_key}, "
            f"count={store.count}, "
            f"{store.memory_elements()} elements retained, "
            f"{store.size_in_bytes()} bytes logical"
        )
        return 0
    from repro.workloads.stats import describe_stream

    stream = _read_stream(args.path)
    print("event stream:")
    print(describe_stream(stream).summary())
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    try:
        payload = json.loads(args.metrics.read_text())
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: cannot read metrics file: {error}", file=sys.stderr)
        return 2
    global_section = payload.get("global", {})
    store_section = payload.get("store")
    if args.prometheus:
        # Metric namespaces are disjoint (store_* vs the first-party
        # cmpbe_*/sharded_*/monitor_*/stream_* families), so the two
        # sections concatenate without collisions.
        sys.stdout.write(prometheus_exposition(global_section))
        if store_section:
            sys.stdout.write(prometheus_exposition(store_section))
        return 0
    print("== global ==")
    print(render_snapshot(global_section))
    if store_section is not None:
        print("== store ==")
        print(render_snapshot(store_section))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.core.errors import InvalidParameterError

    try:
        spans = load_trace(args.trace, strict=args.strict)
    except (OSError, InvalidParameterError) as error:
        print(f"error: cannot read trace: {error}", file=sys.stderr)
        return 2
    if not spans:
        print("(no spans recorded)")
        return 0
    if args.action == "summary":
        print(render_summary(summarize_spans(spans)))
        return 0
    if args.perfetto is None:
        print(
            "error: trace export needs --perfetto OUT.json",
            file=sys.stderr,
        )
        return 2
    payload = json.dumps(perfetto_trace(spans), separators=(",", ":"))
    args.perfetto.write_text(payload + "\n")
    print(
        f"{len(spans)} spans -> {args.perfetto} "
        "(open in https://ui.perfetto.dev or chrome://tracing)"
    )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    soccer = make_soccer_stream(total_mentions=args.mentions)
    if args.figure == "fig7":
        rows = harness.characteristics_series(soccer, tau=DAY)
        print(format_table(rows, title="Fig 7 (soccer), tau = 1 day"))
    elif args.figure == "fig8":
        rows = harness.pbe1_parameter_study(
            {"soccer": list(soccer.timestamps)}, etas=[25, 100, 400],
            n_queries=50,
        )
        print(format_table(rows, title="Fig 8: PBE-1 parameter study"))
    elif args.figure == "fig9":
        rows = harness.pbe2_parameter_study(
            {"soccer": list(soccer.timestamps)},
            gammas=[10.0, 50.0, 200.0],
            n_queries=50,
        )
        print(format_table(rows, title="Fig 9: PBE-2 parameter study"))
    elif args.figure == "fig11":
        stream = make_olympicrio(
            n_events=args.events, total_mentions=args.mentions
        )
        rows = harness.cmpbe_space_accuracy(
            stream, etas=[6, 60], gammas=[300.0, 15.0], n_queries=50
        )
        print(format_table(rows, title="Fig 11: CM-PBE error vs space"))
    else:
        rows = harness.cost_comparison(
            list(soccer.timestamps), n_queries=100
        )
        print(format_table(rows, title="Cost comparison"))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.eval.validation import validate_sketch

    sketch = load_store(args.sketch.read_bytes())
    stream = _read_stream(args.stream)
    report = validate_sketch(
        sketch, stream, tau=args.tau, n_times=args.times
    )
    print(report.summary())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.eval.reporting import write_report

    target = write_report(args.results, args.out)
    print(f"wrote {target}")
    return 0


_HANDLERS = {
    "generate": _cmd_generate,
    "ingest": _cmd_build,
    "build": _cmd_build,
    "recover": _cmd_recover,
    "rebalance": _cmd_rebalance,
    "query": _cmd_query,
    "inspect": _cmd_inspect,
    "stats": _cmd_stats,
    "trace": _cmd_trace,
    "experiment": _cmd_experiment,
    "validate": _cmd_validate,
    "report": _cmd_report,
}


def _configure_logging(verbosity: int) -> logging.Handler | None:
    """Attach a stderr handler to the ``repro`` logger for ``-v``.

    The library itself only installs a :class:`logging.NullHandler`
    (library etiquette: silent unless the application opts in); the CLI
    *is* the application, so ``-v`` surfaces warnings and info and
    ``-vv`` adds debug.  Returns the handler so tests can detach it.
    """
    if verbosity <= 0:
        return None
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(
        logging.Formatter("%(levelname)s %(name)s: %(message)s")
    )
    logger = logging.getLogger("repro")
    logger.addHandler(handler)
    logger.setLevel(logging.INFO if verbosity == 1 else logging.DEBUG)
    return handler


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    # Scope the process-wide registry to this invocation: one CLI run is
    # one measurement window (and in-process callers, e.g. the golden
    # tests, stay order-independent).
    global_registry().reset()
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _configure_logging(args.verbose)
    try:
        return _HANDLERS[args.command](args)
    finally:
        if handler is not None:
            logging.getLogger("repro").removeHandler(handler)
