"""Scalar-vs-batched historical read benchmark (BENCH_query.json).

PR 1 gave the write side a vectorized batch path; this suite measures
the read side: every registered backend answers the same point-query
workload twice — once as a scalar ``point_query`` loop, once through
``point_query_batch`` — and the results must be bit-identical before
any timing is reported.

Each backend also answers a panel of bursty-event, bursty-time and
peak queries (``scan_rows``).  Every bursty-event answer is checked
against ``point_query_batch`` over the whole id universe at the query
time, thresholded and put in canonical order (burstiness falling, then
id): the scanning backends must return exactly those hits, and the
pruned ``index`` descent a subset of them with the same values.  Every
bursty-time and peak answer must equal the per-sample read:
``bursty_time_intervals`` / ``max_burstiness`` over ``store.curve(e)``
and ``store.segment_starts(e)``, which read ``F~`` at every breakpoint
sample.  A row is ``consistent`` when all of its answers agree.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_query.py [--smoke] [--check]

``--smoke`` shrinks the workload and query counts for a CI run and
writes ``BENCH_query.smoke.json`` unless ``--out`` says otherwise, so
the committed full-size ``BENCH_query.json`` stays the reference;
``--check`` exits nonzero if the batched path ever diverges from the
scalar loop, a scan row is not ``consistent``, or the CM-PBE grids
fall below the vectorization floor at 10k+ queries.

The batched wins are structural, not incidental: one ``searchsorted``
over each PBE's corners replaces a bisect per query, the CM-PBE row
combiner is one ``np.minimum``/``np.maximum`` comparator network over
the whole estimate matrix, a batch at one time (a bursty-event scan)
reads each CM-PBE cell once per time, a bursty-time or peak query
over a CM-PBE-1 grid reads the event's estimate once per knot rather
than once per breakpoint sample, per-id hash columns are computed
once per batch (once per store for the scanned universe), and the
sharded composite fans large shard batches out on a thread pool (from
``POOL_MIN_PAIRS_PER_SHARD`` pairs per shard; smaller ones run in shard
order on the caller's thread).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.dyadic import BurstyEvent
from repro.core.metrics import global_registry
from repro.core.queries import bursty_time_intervals, max_burstiness
from repro.core.store import create_store
from repro.workloads.olympics import make_olympicrio
from repro.workloads.profiles import DAY

RESULTS_DIR = Path(__file__).parent / "results"

UNIVERSE = 128

_SKETCH = dict(eta=60, buffer_size=400, width=16, depth=5, seed=0)

#: (label, registry key, create_store config) — one row per read engine.
BACKENDS: list[tuple[str, str, dict]] = [
    ("exact", "exact", {}),
    ("cm-pbe-1", "cm-pbe-1", dict(universe_size=UNIVERSE, **_SKETCH)),
    (
        "cm-pbe-2",
        "cm-pbe-2",
        dict(universe_size=UNIVERSE, gamma=12.0, unit=1.0, width=16,
             depth=5, seed=0),
    ),
    ("direct", "direct", dict(cell="pbe1", eta=60, buffer_size=400)),
    (
        "index",
        "index",
        dict(universe_size=UNIVERSE, cell="pbe1", **_SKETCH),
    ),
    (
        "sharded-x3-cm-pbe-1",
        "sharded",
        dict(shards=3, backend="cm-pbe-1", universe_size=UNIVERSE,
             **_SKETCH),
    ),
]

#: Backends whose batched point path is fully vectorized and must clear
#: this multiple over the scalar loop at VECTORIZED_AT queries or more.
VECTORIZED_FLOOR = 5.0
VECTORIZED_AT = 10_000
VECTORIZED_LABELS = {"cm-pbe-1", "cm-pbe-2"}

FULL_SIZES = [1_000, 10_000, 100_000]
SMOKE_SIZES = [500, 2_000]

#: Bursty-event, bursty-time and peak queries per backend (full,
#: smoke), and the threshold the first two ask for.
SCAN_QUERIES = (200, 40)
SCAN_THETA = 3.0
#: A peak query asks for the burstiest moment in this many ``tau``
#: after a scan time.
PEAK_WINDOW = 7
#: What an inconsistent scan row disagrees with, per query kind.
REFERENCES = {
    "events": "hits differ from the thresholded point batch",
    "times": "intervals differ from the per-sample read",
    "peak": "peaks differ from the per-sample read",
}
#: Backends whose bursty-event query prunes the id universe: their hits
#: are a subset of the thresholded point batch, not all of it.
PRUNED_LABELS = {"index"}

#: Best-of repeats per query-count tier; large tiers run once.
def _repeats(n_queries: int) -> int:
    if n_queries <= 1_000:
        return 3
    if n_queries <= 10_000:
        return 2
    return 1


def _best_seconds(fn, repeats: int) -> float:
    """Best-of-N wall time; one untimed warmup absorbs cold caches."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _expected_hits(store, t: float, tau: float) -> list[BurstyEvent]:
    """The bursty events at ``t`` as ``point_query_batch`` over the whole
    universe gives them: thresholded, burstiness falling, then id."""
    ids = np.arange(UNIVERSE)
    values = store.point_query_batch(ids, np.full(UNIVERSE, t), tau)
    return sorted(
        (
            BurstyEvent(event_id, value)
            for event_id, value in zip(ids.tolist(), values.tolist())
            if value >= SCAN_THETA
        ),
        key=lambda hit: (-hit.burstiness, hit.event_id),
    )


def _per_sample_times(store, event_id: int, tau: float):
    """A bursty-time answer read one breakpoint sample at a time."""
    knots = store.segment_starts(event_id)
    if not knots:
        return []
    return bursty_time_intervals(
        store.curve(event_id), knots, SCAN_THETA, tau,
        t_end=store.t_end + 2 * tau, piecewise=store.piecewise,
    )


def _per_sample_peak(store, event_id: int, t_start: float, tau: float):
    """A peak answer read one breakpoint sample at a time."""
    return max_burstiness(
        store.curve(event_id), store.segment_starts(event_id), tau,
        t_start, t_start + PEAK_WINDOW * tau, piecewise=store.piecewise,
    )


def _found(kind: str, answers: list) -> int:
    """Hits, intervals, or peaks at or above the threshold."""
    if kind == "peak":
        return sum(value >= SCAN_THETA for _, value in answers)
    return sum(map(len, answers))


def _scan_rows(label, store, times, events, tau: float) -> list[dict]:
    """One bursty-event, one bursty-time and one peak row for
    ``store``; each is ``consistent`` when it equals its reference
    (the thresholded point batch, the per-sample reads)."""
    times, events = times.tolist(), events.tolist()

    def scans():
        return [store.bursty_event_query(t, SCAN_THETA, tau) for t in times]

    def intervals():
        return [
            store.bursty_time_query(event_id, SCAN_THETA, tau)
            for event_id in events
        ]

    def peaks():
        return [
            store.peak_query(event_id, t, t + PEAK_WINDOW * tau, tau)
            for event_id, t in zip(events, times)
        ]

    answers = scans()
    consistent = True
    for t, hits in zip(times, answers):
        expected = _expected_hits(store, t, tau)
        if label in PRUNED_LABELS:
            found = {hit.event_id for hit in hits}
            expected = [hit for hit in expected if hit.event_id in found]
        consistent = consistent and hits == expected
    found_intervals = intervals()
    found_peaks = peaks()
    checks = {
        "events": (answers, consistent),
        "times": (
            found_intervals,
            found_intervals
            == [_per_sample_times(store, e, tau) for e in events],
        ),
        "peak": (
            found_peaks,
            found_peaks
            == [
                _per_sample_peak(store, e, t, tau)
                for e, t in zip(events, times)
            ],
        ),
    }
    repeats = _repeats(len(times))
    rows = []
    for kind, fn in (("events", scans), ("times", intervals), ("peak", peaks)):
        found, agrees = checks[kind]
        seconds = _best_seconds(fn, repeats)
        rows.append(
            {
                "backend": label,
                "kind": kind,
                "n_queries": len(times),
                "seconds": seconds,
                "queries_per_s": len(times) / seconds,
                "found": _found(kind, found),
                "consistent": bool(agrees),
            }
        )
    return rows


def run_query_comparison(
    smoke: bool = False, out_path: Path | None = None
) -> dict:
    """Time scalar vs batched point queries per backend; write the JSON."""
    n_mentions = 4_000 if smoke else 30_000
    sizes = SMOKE_SIZES if smoke else FULL_SIZES
    stream = make_olympicrio(n_events=UNIVERSE, total_mentions=n_mentions)
    ids_column, ts_column = stream.as_columns()
    t_end = float(ts_column[-1])
    tau = DAY

    rng = np.random.default_rng(2016)
    workloads = {
        n: (
            rng.integers(0, UNIVERSE, n).astype(np.int64),
            rng.uniform(0.0, t_end + 2 * tau, n),
        )
        for n in sizes
    }

    scan_times = rng.uniform(2 * tau, t_end, SCAN_QUERIES[smoke])
    scan_events = rng.integers(0, UNIVERSE, SCAN_QUERIES[smoke])

    rows, scan_rows = [], []
    for label, backend, cfg in BACKENDS:
        store = create_store(backend, **cfg)
        store.extend_batch(ids_column, ts_column)
        store.finalize()
        for n in sizes:
            query_ids, query_ts = workloads[n]
            id_list = query_ids.tolist()
            ts_list = query_ts.tolist()

            def scalar():
                return [
                    store.point_query(event_id, t, tau)
                    for event_id, t in zip(id_list, ts_list)
                ]

            def batch():
                return store.point_query_batch(query_ids, query_ts, tau)

            identical = bool(
                np.array_equal(
                    np.asarray(scalar(), dtype=np.float64), batch()
                )
            )
            repeats = _repeats(n)
            scalar_s = _best_seconds(scalar, repeats)
            batch_s = _best_seconds(batch, repeats)
            rows.append(
                {
                    "backend": label,
                    "n_queries": int(n),
                    "identical": identical,
                    "scalar_seconds": scalar_s,
                    "batch_seconds": batch_s,
                    "scalar_queries_per_s": n / scalar_s,
                    "batch_queries_per_s": n / batch_s,
                    "speedup": scalar_s / batch_s,
                }
            )
        scan_rows += _scan_rows(label, store, scan_times, scan_events, tau)

    payload = {
        "workload": {
            "stream": f"olympicrio ({UNIVERSE} events)",
            "n_mentions": int(ids_column.size),
            "query_sizes": [int(n) for n in sizes],
            "scan_queries": SCAN_QUERIES[smoke],
            "scan_theta": SCAN_THETA,
            "tau": tau,
            "smoke": smoke,
        },
        "rows": rows,
        "max_speedup": max(r["speedup"] for r in rows),
        "scan_rows": scan_rows,
        # Operational counters accumulated over the run (LRU hit rates,
        # shard fan-out latencies, ...), so a regression in the serving
        # path shows up next to the wall-clock numbers.
        "metrics": global_registry().snapshot(),
    }
    target = out_path or RESULTS_DIR / (
        "BENCH_query.smoke.json" if smoke else "BENCH_query.json"
    )
    target.parent.mkdir(exist_ok=True)
    target.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def check_query_results(payload: dict) -> list[str]:
    """Regression gate over a BENCH_query.json payload."""
    failures = []
    for row in payload["rows"]:
        tag = f"{row['backend']} @ {row['n_queries']}"
        if not row["identical"]:
            failures.append(f"{tag}: batched result differs from scalar")
        if (
            row["backend"] in VECTORIZED_LABELS
            and row["n_queries"] >= VECTORIZED_AT
            and row["speedup"] < VECTORIZED_FLOOR
        ):
            failures.append(
                f"{tag}: below {VECTORIZED_FLOOR:.0f}x vectorization "
                f"floor (got {row['speedup']:.2f}x)"
            )
    for row in payload["scan_rows"]:
        if not row["consistent"]:
            failures.append(
                f"{row['backend']} {row['kind']}: {REFERENCES[row['kind']]}"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="scalar-vs-batched point query comparison"
    )
    parser.add_argument(
        "--smoke", action="store_true", help="small workload (CI smoke)"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero on divergence or a speedup regression",
    )
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    payload = run_query_comparison(smoke=args.smoke, out_path=args.out)
    header = (
        f"{'backend':<20} {'queries':>8} {'scalar q/s':>13} "
        f"{'batch q/s':>13} {'speedup':>8} {'identical':>10}"
    )
    print(header)
    print("-" * len(header))
    for row in payload["rows"]:
        print(
            f"{row['backend']:<20} {row['n_queries']:>8} "
            f"{row['scalar_queries_per_s']:>13,.0f} "
            f"{row['batch_queries_per_s']:>13,.0f} "
            f"{row['speedup']:>7.2f}x {str(row['identical']):>10}"
        )
    print(f"\nmax speedup: {payload['max_speedup']:.1f}x\n")
    header = (
        f"{'backend':<20} {'query':>7} {'queries':>8} {'q/s':>10} "
        f"{'found':>7} {'consistent':>11}"
    )
    print(header)
    print("-" * len(header))
    for row in payload["scan_rows"]:
        print(
            f"{row['backend']:<20} {row['kind']:>7} {row['n_queries']:>8} "
            f"{row['queries_per_s']:>10,.0f} {row['found']:>7} "
            f"{str(row.get('consistent', '')):>11}"
        )
    if args.check:
        failures = check_query_results(payload)
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
