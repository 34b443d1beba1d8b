"""The two workloads: live reads during exact ingest, quiescent CM-PBE-1.

One client drives each workload as a closed loop in this process: it
sends the next write or query only after the previous call returned.
No writer process, shard, background seal or compactor thread is
started, so every run of one seed does the same work.

Every call into the program is timed from outside (wall clock, next to
probe readings, see :mod:`measure`), and per-layer counts are deltas of
the program's public ``global_registry()`` counters.  Answer checks run
outside the timed regions.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import threading
import time
from contextlib import contextmanager

import numpy as np

from measure import Meter, Probe, Spans, percentile

from repro.core.durable import create_durable, recover
from repro.core.metrics import global_registry
from repro.core.serialize import open_store
from repro.core.store import create_store
from repro.core.wal import replay_wal
from repro.workloads.olympics import make_olympicrio
from repro.workloads.profiles import DAY

FSYNC = "batch"
UNIVERSE = 1024
TAU = DAY
PEAK_WINDOW = 2 * DAY
POINT_PAIRS = 64
QUERY_TYPES = ("point", "events", "times", "peak")

# live-exact: a sealed exact history, then one write batch per query.
# The loop grows the history by under half, so the latency percentiles
# draw on the whole run rather than on its last iterations.
LIVE_PRELOAD = 650_000  # six seals and a 50,000-record memtable
LIVE_PRELOAD_BATCH = 10_000
LIVE_BATCH = 500
LIVE_ITERATIONS_PER_SECOND = 15
LIVE_THETA = 25.0
LIVE_SETUPS = 5
LIVE_RECOVERIES = 15

# history-cmpbe1: the README universe with the bench_query.py cells.
CMPBE_CFG = dict(
    universe_size=UNIVERSE, eta=60, buffer_size=400, width=16, depth=5, seed=0
)
HISTORY_SEAL = 1_000
HISTORY_BATCH = 125  # divides HISTORY_SEAL: the memtable is empty after a seal
HISTORY_RECORDS = 5_400  # five seals and a 400-record WAL tail
HISTORY_ROUNDS_PER_TEN_SECONDS = 30  # split over the repetitions
HISTORY_THETA = 3.0
HISTORY_REPEATS = 5
HISTORY_RECOVERIES = 3  # per repetition

_COUNTERS = (
    "wal_append_bytes_total",
    "wal_fsyncs_total",
    "durable_seals_total",
    "durable_segment_bytes_total",
    "compaction_runs_total",
    "compaction_bytes_rewritten_total",
)

_METHODS = {
    "point": "point_query_batch",
    "events": "bursty_event_query",
    "times": "bursty_time_query",
    "peak": "peak_query",
}


def ask(store, query):
    kind, args = query
    return getattr(store, _METHODS[kind])(*args)


def same(a, b) -> bool:
    """Bit-identical answers (arrays compare by dtype, shape and bytes)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and a.tobytes() == b.tobytes()
        )
    return a == b


def directory_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def counters() -> dict[str, float]:
    snap = global_registry().snapshot()["counters"]
    return {
        name: snap.get(name, {"value": 0.0})["value"] for name in _COUNTERS
    }


def _delta(before: dict, after: dict) -> dict:
    return {name: after[name] - before[name] for name in before}


def stream_columns(seed: int, n_records: int):
    """``n_records`` records of a seeded olympicrio stream.

    The generator's count is only close to the requested one, so a
    slightly larger stream is thinned by an even stride to exactly
    ``n_records``: every seed then spans the whole horizon.
    """
    stream = make_olympicrio(
        n_events=UNIVERSE,
        total_mentions=int(n_records * 1.02) + 200,
        seed=seed,
    )
    ids, ts = stream.as_columns()
    if ids.size < n_records:
        raise RuntimeError(
            f"generator gave {ids.size} records, {n_records} needed"
        )
    keep = np.linspace(0, ids.size - 1, n_records).round().astype(np.int64)
    return ids[keep], ts[keep]


class Bench:
    """One run's state: probe, timings, spans, failure accounting."""

    def __init__(
        self, *, seed: int, seconds: int, trace: bool, workdir: str,
        query_probe: str = "core",
    ) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        # The probe part that query latencies are scaled by; every other
        # timing is scaled by the core probe.
        self.query_probe = query_probe
        self.probe = Probe(lists=query_probe == "lists")
        self.meter = Meter(self.probe)
        self.spans = Spans(trace)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.per_layer: dict[str, float] = {}
        self.split_s = 0.0
        self.records = 0
        self._seals = global_registry().counter("durable_seals_total")

    # -- timing ----------------------------------------------------------
    def timed(self, kind: str, fn, *args, **kwargs):
        """Call ``fn`` and record its wall time under ``kind``.

        The span is named after the part of ``kind`` past its last colon
        (``"setup0:durable.create"`` -> ``durable.create``).
        """
        with self.spans.span(kind.rsplit(":", 1)[-1]):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            end = time.perf_counter()
        self.meter.add(kind, start, end)
        return result

    def split(self, kind: str, fn, *args, **kwargs):
        """A traced-run-only call that splits a cost into its parts."""
        start = time.perf_counter()
        result = self.timed(kind, fn, *args, **kwargs)
        self.split_s += time.perf_counter() - start
        return result

    def tick(self, n: int = 1) -> None:
        """Take ``n`` probe readings."""
        with self.spans.span("machine.probe"):
            for _ in range(n):
                self.probe.read()

    @contextmanager
    def phase(self, name: str):
        """A measured phase, run with the cyclic garbage collector off.

        The exact stores hold Python lists of up to a million floats,
        which every collection traverses, so one automatic collection costs
        from 4 ms (young views) to 30 ms (everything); and since each
        iteration allocates the same number of containers, the
        collections lock onto one query type of the rotation at a phase
        that shifts with the seed.  Like ``timeit``, the phase therefore
        runs with automatic collection disabled; a full collection runs
        before it and after it, outside every timed call.
        """
        gc.collect()
        self.check_single_threaded(name)
        gc.disable()
        try:
            with self.spans.span(f"phase.{name}"):
                yield
        finally:
            gc.enable()
            gc.collect()

    # -- failure accounting ----------------------------------------------
    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def attempt(self, kind: str, fn, *args, **kwargs):
        """One counted operation; an exception marks it failed."""
        self.attempted += 1
        try:
            return True, self.timed(kind, fn, *args, **kwargs)
        except Exception as exc:  # counted and reported; the run goes on
            self.fail(f"{kind}: {exc!r}")
            return False, None

    def check(self, ok: bool, what: str) -> None:
        """A mismatch found outside the timed regions fails one operation."""
        if not ok:
            self.fail(what)

    def check_single_threaded(self, where: str) -> None:
        """No background thread or child process may be running."""
        extra = [
            thread.name
            for thread in threading.enumerate()
            if thread is not threading.main_thread()
        ]
        tasks = _os_tasks()
        children = _child_pids()
        if extra or tasks > 1 or children:
            self.attempted += 1
            self.fail(
                f"{where}: threads {extra}, OS tasks {tasks}, "
                f"child processes {children}"
            )

    # -- writes ----------------------------------------------------------
    def write(self, store, ids, ts, tag: str) -> tuple[bool, bool]:
        """Append one batch; returns (acknowledged, sealed)."""
        before = self._seals.value
        self.attempted += 1
        with self.spans.span("durable.extend_batch"):
            start = time.perf_counter()
            try:
                store.extend_batch(ids, ts)
            except Exception as exc:  # counted and reported
                self.fail(f"{tag} write: {exc!r}")
                return False, False
            end = time.perf_counter()
        sealed = self._seals.value != before
        self.meter.add(f"{tag}:{'seal' if sealed else 'append'}", start, end)
        return True, sealed

    def compact(self, store, tag: str) -> None:
        """The scheduled synchronous compaction after a seal."""
        self.attempt(f"{tag}:durable.compact", store.compact)

    # -- scaled aggregates -----------------------------------------------
    def scaled_sum(self, *kinds: str) -> float:
        return sum(sum(self.meter.scaled(kind)) for kind in kinds)

    def raw_sum(self, *kinds: str) -> float:
        return sum(sum(self.meter.raw(kind)) for kind in kinds)

    def mean_ms(self, kind: str) -> float:
        """Mean scaled milliseconds of ``kind`` (0 if no call ran)."""
        values = self.meter.scaled(kind)
        return 1e3 * statistics.fmean(values) if values else 0.0


def _os_tasks() -> int:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return 1


def _child_pids() -> list[str]:
    pids: list[str] = []
    try:
        for task in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{task}/children") as handle:
                pids.extend(handle.read().split())
    except OSError:
        pass
    return pids


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------
def _time_at(t_first: float, t_now: float, u: float) -> float:
    return t_first + u * (t_now - t_first)


def make_query(kind, rng, t_first, t_now, theta, u, event):
    """One query of ``kind`` over the history ``[t_first, t_now]``.

    ``u`` in [0, 1) places the query in time and ``event`` picks the
    event; point batches draw their 64 pairs from ``rng``.
    """
    if kind == "point":
        ids = rng.integers(0, UNIVERSE, POINT_PAIRS).astype(np.int64)
        ts = t_first + rng.random(POINT_PAIRS) * (t_now - t_first)
        return kind, (ids, ts, TAU)
    if kind == "events":
        return kind, (_time_at(t_first + 2 * TAU, t_now, u), theta, TAU)
    if kind == "times":
        return kind, (event, theta, TAU, t_now + 2 * TAU)
    start = _time_at(t_first, t_now - PEAK_WINDOW, u)
    return kind, (event, start, start + PEAK_WINDOW, TAU)


def event_ranking(ids) -> np.ndarray:
    """Event ids from the most to the least frequent in ``ids``."""
    counts = np.bincount(ids, minlength=UNIVERSE)
    return np.argsort(-counts, kind="stable")


def draw_queries(slots, rng, t_first: float, theta: float, ranking) -> list:
    """Seeded queries for ``slots``, a list of ``(kind, t_now)``.

    Per kind, query times are stratified over the history, and so are
    the events over ``ranking`` (event ids by falling record count): the
    stream is heavily skewed (its top event holds about a fifth of the
    records), and a query about a heavy event costs several times the
    median, so every run asks about as many heavy events and its
    percentiles depend less on the luck of its seed's draw.
    """
    queries = [None] * len(slots)
    for kind in QUERY_TYPES:
        where = [i for i, slot in enumerate(slots) if slot[0] == kind]
        n = len(where)
        u = (rng.permutation(n) + rng.random(n)) / max(n, 1)
        ranks = (rng.permutation(n) + rng.random(n)) / max(n, 1)
        events = ranking[(ranks * UNIVERSE).astype(np.int64)]
        for j, i in enumerate(where):
            queries[i] = make_query(
                kind, rng, t_first, slots[i][1], theta,
                float(u[j]), int(events[j]),
            )
    return queries


def first_answer_query(t_now: float):
    """The first query after a recovery: every event at the newest moment,
    so it reads every cell and does not depend on the seed's draw."""
    ids = np.arange(UNIVERSE, dtype=np.int64)
    return "point", (ids, np.full(UNIVERSE, t_now), TAU)


def query(bench: Bench, store, q, *, repeat: bool):
    """A timed query; in traced runs, an immediate repeat on the same
    version splits the read-view build from the answer."""
    kind = q[0]
    ok, answer = bench.attempt(f"query.{kind}", ask, store, q)
    if ok and repeat:
        again = bench.split(f"repeat.{kind}", ask, store, q)
        bench.check(same(answer, again), f"repeat {kind} answer differs")
    return ok, answer


# ----------------------------------------------------------------------
# Recovery and shared metrics
# ----------------------------------------------------------------------
def recover_copies(
    bench: Bench, snapshot: str, n: int, first_query,
    expect_count: int, expect_answer,
):
    """Recover ``n`` fresh copies of the snapshot; returns the last store,
    whose directory is the snapshot's name plus ``-recovered``.

    Each copy is made before its clock starts; ``recover_s`` is the time
    from the ``recover()`` call to the first answered query.
    """
    store = None
    target = f"{snapshot}-recovered"
    for _ in range(n):
        with bench.spans.span("copy.snapshot"):
            if store is not None:
                store.close()
            shutil.rmtree(target, ignore_errors=True)
            shutil.copytree(snapshot, target)
            gc.collect()
        bench.tick(4)
        ok, store = bench.attempt(
            "recover:durable.recover", recover, target, fsync=FSYNC
        )
        if not ok:
            continue
        ok, answer = bench.attempt("recover:query.first", ask, store, first_query)
        bench.tick(4)
        bench.check(
            int(store.count) == expect_count,
            f"recovered count {store.count} != acknowledged {expect_count}",
        )
        if ok:
            bench.check(
                same(answer, expect_answer),
                "first answer after recovery differs from before the crash",
            )
    return store


def trace_snapshot(bench: Bench, snapshot: str) -> None:
    """Traced runs: open the snapshot's segments and replay its live logs."""
    with open(os.path.join(snapshot, "MANIFEST.json"), "rb") as handle:
        manifest = json.loads(handle.read())
    segments = [os.path.join(snapshot, name) for name in manifest["segments"]]
    for path in segments:
        bench.split("serialize.open", open_store, path, lazy=True)
    replayed = 0
    for seq in manifest.get("live_wals") or [manifest["wal_seq"]]:
        path = os.path.join(snapshot, f"wal-{int(seq):08d}.log")
        replayed += bench.split("wal.replay", replay_wal, path).records
    bench.per_layer["serialize.segment_bytes"] = sum(
        os.path.getsize(path) for path in segments
    )
    bench.per_layer["wal.replayed_records"] = replayed


def write_layers(bench: Bench, tag: str, delta: dict, records: int) -> None:
    """Per-layer metrics of one measured write phase."""
    pl = bench.per_layer
    pl["durable.append_ms"] = bench.mean_ms(f"{tag}:append")
    pl["durable.seal_ms"] = bench.mean_ms(f"{tag}:seal")
    pl["store.extend_ms"] = bench.mean_ms(f"{tag}:store.extend")
    pl["wal.bytes_per_record"] = delta["wal_append_bytes_total"] / records
    pl["wal.fsyncs"] = delta["wal_fsyncs_total"]
    pl["durable.seals"] = delta["durable_seals_total"]
    pl["compaction.busy_s"] = bench.scaled_sum(f"{tag}:durable.compact")
    pl["compaction.runs"] = delta["compaction_runs_total"]
    pl["compaction.rewrite_ratio"] = delta[
        "compaction_bytes_rewritten_total"
    ] / max(delta["durable_segment_bytes_total"], 1.0)


def rep_median(bench: Bench, prefix: str, reps: int) -> tuple[float, float]:
    """Median (scaled, raw) seconds of the program calls of each repetition
    ``{prefix}0`` .. ``{prefix}{reps-1}``; split-out calls are left out."""
    scaled, raw = [], []
    for rep in range(reps):
        kinds = [
            kind
            for kind in bench.meter.calls
            if kind.startswith(f"{prefix}{rep}:")
            and not kind.endswith(":store.extend")
        ]
        scaled.append(bench.scaled_sum(*kinds))
        raw.append(bench.raw_sum(*kinds))
    return statistics.median(scaled), statistics.median(raw)


def end_to_end(
    bench: Bench, *, setup, ingest, size: float, records: int
) -> dict[str, tuple[float, float]]:
    """Every end-to-end metric as (value at the reference speed, raw)."""
    bench.records = records
    metrics = {"setup_s": setup, "ingest_rec_per_s": ingest}
    for kind in QUERY_TYPES:
        scaled = bench.meter.scaled(f"query.{kind}", bench.query_probe)
        raw = bench.meter.raw(f"query.{kind}")
        for q in (50, 90):
            metrics[f"{kind}_p{q}_ms"] = (
                1e3 * percentile(scaled, q), 1e3 * percentile(raw, q)
            )
    calls = bench.meter.scaled("recover:durable.recover")
    firsts = bench.meter.scaled("recover:query.first")
    raw_calls = bench.meter.raw("recover:durable.recover")
    raw_firsts = bench.meter.raw("recover:query.first")
    metrics["recover_s"] = (
        statistics.median(a + b for a, b in zip(calls, firsts)),
        statistics.median(a + b for a, b in zip(raw_calls, raw_firsts)),
    )
    metrics["bytes_per_record"] = (size, size)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = (rss, rss)
    return metrics


# ----------------------------------------------------------------------
# live-exact
# ----------------------------------------------------------------------
def live_exact(bench: Bench) -> dict:
    iterations = max(8, LIVE_ITERATIONS_PER_SECOND * bench.seconds)
    n_records = LIVE_PRELOAD + iterations * LIVE_BATCH
    ids, ts = stream_columns(bench.seed, n_records)
    rng = np.random.default_rng([bench.seed, 1])
    t_first = float(ts[0])
    # Queries are drawn up front; each one reads the history up to the
    # newest acknowledged timestamp at its iteration.
    slots = [
        (QUERY_TYPES[i % 4], float(ts[LIVE_PRELOAD + (i + 1) * LIVE_BATCH - 1]))
        for i in range(iterations)
    ]
    plan = draw_queries(slots, rng, t_first, LIVE_THETA, event_ranking(ids))
    first_query = first_answer_query(float(ts[-1]))

    # Set-up: preload the sealed history, several times; keep the last.
    store = None
    for rep in range(LIVE_SETUPS):
        if store is not None:
            store.close()
            shutil.rmtree(store.directory, ignore_errors=True)
        tag = f"setup{rep}"
        with bench.phase("setup"):
            store = bench.timed(
                f"{tag}:durable.create", create_durable,
                os.path.join(bench.workdir, f"live-{rep}"),
                backend="exact", fsync=FSYNC,
            )
            for start in range(0, LIVE_PRELOAD, LIVE_PRELOAD_BATCH):
                bench.tick()
                stop = start + LIVE_PRELOAD_BATCH
                _, sealed = bench.write(store, ids[start:stop], ts[start:stop], tag)
                if sealed:
                    bench.compact(store, tag)
            bench.tick(4)
    oracle = create_store("exact")
    oracle.extend_batch(ids[:LIVE_PRELOAD], ts[:LIVE_PRELOAD])
    bare = create_store("exact") if bench.trace else None
    acked = LIVE_PRELOAD

    before = counters()
    with bench.phase("loop"):
        for i in range(iterations):
            bench.tick()
            start = LIVE_PRELOAD + i * LIVE_BATCH
            batch_ids = ids[start : start + LIVE_BATCH]
            batch_ts = ts[start : start + LIVE_BATCH]
            ok, sealed = bench.write(store, batch_ids, batch_ts, "loop")
            if sealed:
                bench.compact(store, "loop")
                if bare is not None:
                    bare = create_store("exact")
            if not ok:
                continue
            acked += LIVE_BATCH
            with bench.spans.span("check.oracle"):
                oracle.extend_batch(batch_ids, batch_ts)
            if bare is not None:
                bench.split(
                    "loop:store.extend", bare.extend_batch, batch_ids, batch_ts
                )
            q = plan[i]
            ok, answer = query(bench, store, q, repeat=bench.trace)
            if ok:
                with bench.spans.span("check.oracle"):
                    expected = ask(oracle, q)
                bench.check(
                    same(answer, expected),
                    f"live {q[0]} query {i} differs from the oracle",
                )
        bench.tick(4)
    write_layers(bench, "loop", _delta(before, counters()), iterations * LIVE_BATCH)

    # A kill just after the last acknowledged flush: copy the open store.
    store.flush()
    snapshot = os.path.join(bench.workdir, "snapshot")
    shutil.copytree(store.directory, snapshot)
    bench.per_layer["durable.segments"] = store.n_segments
    store.close()
    expected_first = ask(oracle, first_query)
    with bench.phase("recover"):
        last = recover_copies(
            bench, snapshot, LIVE_RECOVERIES, first_query, acked, expected_first
        )
    if last is not None:
        last.close()
    if bench.trace:
        with bench.phase("trace-splits"):
            trace_snapshot(bench, snapshot)

    write_kinds = ("loop:append", "loop:seal", "loop:durable.compact")
    written = iterations * LIVE_BATCH
    return end_to_end(
        bench,
        setup=rep_median(bench, "setup", LIVE_SETUPS),
        ingest=(
            written / bench.scaled_sum(*write_kinds),
            written / bench.raw_sum(*write_kinds),
        ),
        size=directory_bytes(snapshot) / acked,
        records=acked,
    )


# ----------------------------------------------------------------------
# history-cmpbe1
# ----------------------------------------------------------------------
def compact_checked(bench: Bench, store, tag: str, checks) -> None:
    """Compact after a seal; answers must not change.  The memtable is
    empty right after a seal, so only the compaction can change them."""
    with bench.spans.span("check.compaction"):
        pre = [ask(store, q) for q in checks]
    runs = counters()["compaction_runs_total"]
    bench.compact(store, tag)
    if counters()["compaction_runs_total"] == runs:
        return
    with bench.spans.span("check.compaction"):
        for q, a in zip(checks, pre):
            bench.check(
                same(a, ask(store, q)), f"{q[0]} answer changed by compaction"
            )


def history_cmpbe1(bench: Bench) -> dict:
    rounds = max(
        1, HISTORY_ROUNDS_PER_TEN_SECONDS * bench.seconds // 10 // HISTORY_REPEATS
    )
    per_seal = HISTORY_SEAL // HISTORY_BATCH
    last = HISTORY_REPEATS - 1
    sizes = []
    store = None
    # Each repetition sets up, ingests, snapshots and recovers its own
    # seeded stream, so setup_s, ingest_rec_per_s, recover_s and
    # bytes_per_record are medians over several data sets: the PBE-1
    # compression of a memtable costs what the data happens to put in
    # each cell.  Each recovered store then answers its share of the
    # query panel, so the latency percentiles pool five data sets too:
    # a bursty-time query costs what the data puts in the event's cells.
    # The last repetition's compactions and recovery get the full answer
    # checks.
    for rep in range(HISTORY_REPEATS):
        sub_seed = int(
            np.random.SeedSequence([bench.seed, rep]).generate_state(1)[0]
        )
        ids, ts = stream_columns(sub_seed, HISTORY_RECORDS)
        rng = np.random.default_rng([bench.seed, rep, 2])
        t_first, t_now = float(ts[0]), float(ts[-1])
        ranking = event_ranking(ids)
        checks = draw_queries(
            [(kind, t_now) for kind in QUERY_TYPES], rng, t_first,
            HISTORY_THETA, ranking,
        )
        first_query = first_answer_query(t_now)
        batches = [
            (ids[start : start + HISTORY_BATCH], ts[start : start + HISTORY_BATCH])
            for start in range(0, HISTORY_RECORDS, HISTORY_BATCH)
        ]
        with bench.phase("setup"):
            store = bench.timed(
                f"setup{rep}:durable.create", create_durable,
                os.path.join(bench.workdir, f"history-{rep}"),
                backend="cm-pbe-1", fsync=FSYNC, seal_elements=HISTORY_SEAL,
                **CMPBE_CFG,
            )
            for batch_ids, batch_ts in batches[:per_seal]:
                bench.tick()
                bench.write(store, batch_ids, batch_ts, f"setup{rep}")
            bench.tick(4)
        tag = f"ingest{rep}"
        bare = create_store("cm-pbe-1", **CMPBE_CFG) if bench.trace else None
        before = counters()
        with bench.phase("ingest"):
            for batch_ids, batch_ts in batches[per_seal:]:
                bench.tick()
                _, sealed = bench.write(store, batch_ids, batch_ts, tag)
                if bare is not None:
                    bench.split(
                        f"{tag}:store.extend", bare.extend_batch,
                        batch_ids, batch_ts,
                    )
                if sealed:
                    if bare is not None:
                        bare = create_store("cm-pbe-1", **CMPBE_CFG)
                    if rep == last:
                        compact_checked(bench, store, tag, checks)
                    else:
                        bench.compact(store, tag)
            bench.tick(4)
        if rep == last:
            write_layers(
                bench, tag, _delta(before, counters()),
                HISTORY_RECORDS - HISTORY_SEAL,
            )

        # Crash just after the last acknowledged flush, then recover copies.
        store.flush()
        snapshot = os.path.join(bench.workdir, f"snapshot-{rep}")
        shutil.copytree(store.directory, snapshot)
        sizes.append(directory_bytes(snapshot) / HISTORY_RECORDS)
        with bench.spans.span("check.crash"):
            first_expected = ask(store, first_query)
            if rep == last:
                before_crash = [ask(store, q) for q in checks]
        bench.per_layer["durable.segments"] = store.n_segments
        store.close()
        with bench.phase("recover"):
            store = recover_copies(
                bench, snapshot, HISTORY_RECOVERIES, first_query,
                HISTORY_RECORDS, first_expected,
            )
        if store is None:
            raise RuntimeError("no recovery of the snapshot succeeded")
        if rep == last:
            with bench.spans.span("check.crash"):
                for q, expected in zip(checks, before_crash):
                    bench.check(
                        same(ask(store, q), expected),
                        f"{q[0]} answer differs after recovery",
                    )
        panel = draw_queries(
            [(kind, t_now) for _ in range(rounds) for kind in QUERY_TYPES],
            rng, t_first, HISTORY_THETA, ranking,
        )
        with bench.phase("panel"):
            for q in panel:
                bench.tick()
                query(bench, store, q, repeat=bench.trace)
            bench.tick(4)
        store.close()
    if bench.trace:
        with bench.phase("trace-splits"):
            trace_snapshot(bench, snapshot)

    # Medians over the repetitions: one stalled repetition does not move them.
    ingest_s = rep_median(bench, "ingest", HISTORY_REPEATS)
    records = HISTORY_RECORDS - HISTORY_SEAL
    return end_to_end(
        bench,
        setup=rep_median(bench, "setup", HISTORY_REPEATS),
        ingest=(records / ingest_s[0], records / ingest_s[1]),
        size=statistics.median(sizes),
        records=HISTORY_RECORDS,
    )


WORKLOADS = {"live-exact": live_exact, "history-cmpbe1": history_cmpbe1}

# The probe part each workload's query latencies are scaled by.  A live
# exact query rebuilds the read view, merging per-event Python lists of
# about a million float objects, like the list part; the CM-PBE-1
# queries run small numpy and Python kernels, like the core probe.
QUERY_PROBE = {"live-exact": "lists", "history-cmpbe1": "core"}


# ----------------------------------------------------------------------
# Per-layer metrics of a traced run
# ----------------------------------------------------------------------
def layer_metrics(bench: Bench) -> dict[str, float]:
    """The per-layer table of a traced run."""
    pl = dict(bench.per_layer)
    meter = bench.meter
    builds = []
    for kind in QUERY_TYPES:
        live = meter.scaled(f"query.{kind}", bench.query_probe)
        repeat = meter.scaled(f"repeat.{kind}", bench.query_probe)
        builds.extend(a - b for a, b in zip(live, repeat))
        pl[f"store.answer_{kind}_ms"] = 1e3 * percentile(repeat, 50)
    pl["durable.view_build_ms"] = 1e3 * statistics.median(builds)
    seg_records = bench.records - pl["wal.replayed_records"]
    pl["serialize.segment_bytes_per_record"] = pl.pop(
        "serialize.segment_bytes"
    ) / max(seg_records, 1)
    pl["serialize.open_s"] = bench.scaled_sum("serialize.open")
    pl["wal.replay_s"] = bench.scaled_sum("wal.replay")
    pl["durable.recover_call_s"] = statistics.median(
        meter.scaled("recover:durable.recover")
    )
    pl["durable.first_answer_s"] = statistics.median(
        meter.scaled("recover:query.first")
    )
    pl["machine.probe_ms"] = 1e3 * bench.probe.median_s()
    spans = bench.spans
    phases = [name for name in spans.totals if name.startswith("phase.")]
    wall = sum(spans.total(name) for name in phases)
    uncovered = sum(spans.self_time(name) for name in phases)
    pl["trace.coverage"] = 1.0 - uncovered / wall
    extra = bench.split_s + spans.count * spans.cost_per_span()
    pl["trace.overhead"] = extra / (wall - extra)
    return pl
