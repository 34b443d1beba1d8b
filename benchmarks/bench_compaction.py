"""Segment-compaction benchmark (BENCH_compaction.json).

Compaction (``store.compact()``) exists to stop a long-running ingest from
degrading: every sealed segment adds one more envelope to the query
fold and one more file to ``recover()``.  This suite measures exactly
that claim, before and after a full merge-down of a many-segment
store:

* **query latency vs segment count** — best-of-K wall time for a
  point-query panel and a handful of bursty-event queries over the
  fragmented store, then again after ``store.compact()``;
* **recovery time vs segment count** — wall time of
  :func:`repro.core.durable.recover` over both layouts;
* **answer identity** — the compacted store must answer the panel
  bit-identically; a benchmark that got faster by changing answers is
  a bug, not a win.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_compaction.py [--smoke] [--check]

``--smoke`` shrinks the workload for a CI run and writes
``BENCH_compaction.smoke.json`` unless ``--out`` says otherwise, so the
committed full-size ``BENCH_compaction.json`` stays the reference;
``--check`` exits nonzero when compaction misses its segment-count
contract (``<= ceil(before / fanin)``), changes any answer, or leaves
the compacted store dramatically slower than the fragmented one.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.durable import create_durable, recover
from repro.core.metrics import global_registry

RESULTS_DIR = Path(__file__).parent / "results"

TAU = 8.0
THETA = 0.4
UNIVERSE = 97

#: slack on the post-compaction latency gates: the compacted store must
#: stay within this factor of the fragmented one.  Compaction usually
#: *wins* both races; the generous bound only trips on structural
#: regressions (e.g. the merged segment no longer read in place),
#: never on a noisy CI box timing microsecond-scale queries.
LATENCY_SLACK = 5.0


def _stream(n: int):
    ids = (np.arange(n, dtype=np.int64) * 7) % UNIVERSE
    ts = np.arange(n, dtype=np.float64) * 0.25
    return ids, ts


def _panel(horizon: float):
    panel_ids = np.repeat(np.arange(UNIVERSE, dtype=np.int64), 5)
    panel_ts = np.tile(np.linspace(0.0, horizon, 5), UNIVERSE)
    return panel_ids, panel_ts


def _time_queries(store, horizon: float, repeats: int = 3) -> dict:
    panel_ids, panel_ts = _panel(horizon)
    best_point = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        point = store.point_query_batch(panel_ids, panel_ts, TAU)
        best_point = min(best_point, time.perf_counter() - t0)
    probe_ts = np.linspace(0.0, horizon, 5)
    best_events = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        events = [
            store.bursty_event_query(float(t), THETA, TAU)
            for t in probe_ts
        ]
        best_events = min(best_events, time.perf_counter() - t0)
    return {
        "point_panel_seconds": best_point,
        "bursty_event_seconds": best_events,
        "point_answers": point,
        "event_answers": events,
    }


def _time_recover(directory) -> dict:
    t0 = time.perf_counter()
    store = recover(directory)
    elapsed = time.perf_counter() - t0
    count = store.count
    segments = len(store._segment_names)
    store.close()
    return {
        "recover_seconds": elapsed,
        "records": int(count),
        "segments": int(segments),
    }


def _measure_layout(directory, horizon: float) -> dict:
    recovery = _time_recover(directory)
    store = recover(directory)
    try:
        queries = _time_queries(store, horizon)
    finally:
        store.close()
    return recovery | queries


def run_compaction_benchmark(
    smoke: bool = False, out_path: Path | None = None
) -> dict:
    seal_elements = 64
    n_segments = 24 if smoke else 200
    fanin = 8
    n_records = seal_elements * n_segments
    ids, ts = _stream(n_records)
    horizon = float(ts[-1]) + 2 * TAU
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch) / "store"
        store = create_durable(
            directory, seal_elements=seal_elements, fsync="never"
        )
        with store:
            store.extend_batch(ids, ts)
            store.seal()
            segments_before = len(store._segment_names)
        before = _measure_layout(directory, horizon)

        store = recover(directory)
        with store:
            t0 = time.perf_counter()
            runs = store.compact(fanin=fanin, min_segments=2)
            compact_seconds = time.perf_counter() - t0
            segments_after = len(store._segment_names)
        after = _measure_layout(directory, horizon)

    identical = bool(
        np.array_equal(
            before.pop("point_answers"), after.pop("point_answers")
        )
        and before.pop("event_answers") == after.pop("event_answers")
    )
    payload = {
        "workload": {
            "records": int(n_records),
            "seal_elements": seal_elements,
            "segments_before": int(segments_before),
            "fanin": fanin,
            "smoke": smoke,
        },
        "compaction": {
            "runs": int(runs),
            "compact_seconds": compact_seconds,
            "segments_after": int(segments_after),
            "segment_budget": math.ceil(segments_before / fanin),
        },
        "before": before,
        "after": after,
        "answers_identical": identical,
        "metrics": global_registry().snapshot(),
    }
    target = out_path or RESULTS_DIR / (
        "BENCH_compaction.smoke.json" if smoke else "BENCH_compaction.json"
    )
    target.parent.mkdir(exist_ok=True)
    target.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def check_compaction_results(payload: dict) -> list[str]:
    """Regression gate over a BENCH_compaction.json payload."""
    failures = []
    compaction = payload["compaction"]
    before = payload["before"]
    after = payload["after"]
    if compaction["segments_after"] > compaction["segment_budget"]:
        failures.append(
            f"compaction left {compaction['segments_after']} segments; "
            f"the size-tiered contract allows at most "
            f"{compaction['segment_budget']}"
        )
    if compaction["runs"] < 1:
        failures.append("compaction never ran on a fragmented store")
    if not payload["answers_identical"]:
        failures.append("compacted store changed query answers")
    if after["records"] != before["records"]:
        failures.append(
            f"recovery round-tripped {after['records']} records after "
            f"compaction vs {before['records']} before"
        )
    for key, label in (
        ("point_panel_seconds", "point-query panel"),
        ("bursty_event_seconds", "bursty-event queries"),
        ("recover_seconds", "recovery"),
    ):
        if after[key] > before[key] * LATENCY_SLACK:
            failures.append(
                f"{label}: {after[key]:.4f}s after compaction vs "
                f"{before[key]:.4f}s before (> {LATENCY_SLACK:.0f}x)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="segment compaction query/recovery benchmark"
    )
    parser.add_argument(
        "--smoke", action="store_true", help="small workload (CI smoke)"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero when compaction misses its contract",
    )
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    payload = run_compaction_benchmark(smoke=args.smoke, out_path=args.out)
    compaction = payload["compaction"]
    print(
        f"segments: {payload['workload']['segments_before']} -> "
        f"{compaction['segments_after']} "
        f"(budget {compaction['segment_budget']}, "
        f"{compaction['runs']} runs, "
        f"{compaction['compact_seconds']:.3f}s, "
        f"answers identical: {payload['answers_identical']})"
    )
    header = (
        f"{'layout':<12} {'segments':>9} {'recover s':>10} "
        f"{'panel s':>9} {'events s':>9}"
    )
    print(header)
    print("-" * len(header))
    for label, row in (("before", payload["before"]),
                       ("after", payload["after"])):
        print(
            f"{label:<12} {row['segments']:>9} "
            f"{row['recover_seconds']:>10.4f} "
            f"{row['point_panel_seconds']:>9.4f} "
            f"{row['bursty_event_seconds']:>9.4f}"
        )
    if args.check:
        failures = check_compaction_results(payload)
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
