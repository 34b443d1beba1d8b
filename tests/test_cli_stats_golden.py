"""Golden CLI test for the metrics surface: ``--metrics-json`` +
``repro stats``.

One scenario ingests the fixture stream into a sharded CM-PBE store
with ``--metrics-json``, runs a batched point query and a bursty-time
query (each snapshotting its own invocation), then renders all three
snapshots with ``repro stats`` (and one Prometheus exposition).  Two
further ingests exercise the durable lifecycle — single-process with
inline sealing, then two writer processes — so the
queue-depth/seal-lag gauges and backpressure counters appear in both
the human rendering and the Prometheus exposition.  The transcript is
frozen under ``tests/golden/stats.txt``.

Latency histograms are real wall time, so every ``sum=`` /
``_sum`` value belonging to a ``*_seconds`` metric is normalized to
``<T>`` before comparison; counts, sizes and all other counters are
exact.  Unlike the ingest goldens this scenario is not parametrized
over batch sizes — read-batch counters legitimately depend on the
batch size, so the snapshot is only frozen at the default.

To regenerate after an intentional behaviour change::

    PYTHONPATH=src python tests/test_cli_stats_golden.py --regenerate
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

from repro.cli import main

DATA = Path(__file__).parent / "data" / "golden_stream.csv"
QUERIES = Path(__file__).parent / "data" / "golden_queries.csv"
GOLDEN = Path(__file__).parent / "golden" / "stats.txt"

STEPS: list[list[str]] = [
    [
        "ingest", str(DATA), "--out", "<SKETCH>",
        "--backend", "cm-pbe-1", "--shards", "2",
        "--universe-size", "48", "--eta", "24",
        "--buffer-size", "64", "--width", "8", "--depth", "3",
        "--metrics-json", "<M-ingest>",
    ],
    [
        "query", "point", "--sketch", "<SKETCH>",
        "--batch-file", str(QUERIES), "--tau", "60.0",
        "--metrics-json", "<M-point>",
    ],
    [
        "query", "bursty-times", "--sketch", "<SKETCH>",
        "--event", "3", "--theta", "20.0", "--tau", "60.0",
        "--metrics-json", "<M-times>",
    ],
    ["stats", "<M-ingest>"],
    ["stats", "<M-point>"],
    ["stats", "<M-times>"],
    ["stats", "<M-ingest>", "--prometheus"],
    [
        "ingest", str(DATA), "--durable", "<DUR>",
        "--backend", "cm-pbe-1", "--seal-elements", "64",
        "--compact", "--compact-fanin", "2",
        "--compact-min-segments", "2",
        "--universe-size", "48", "--eta", "24",
        "--buffer-size", "64", "--width", "8", "--depth", "3",
        "--metrics-json", "<M-durable>",
    ],
    [
        "ingest", str(DATA), "--durable", "<DUR2>", "--writers", "2",
        "--backend", "cm-pbe-1", "--seal-elements", "200",
        "--universe-size", "48", "--eta", "24",
        "--buffer-size", "64", "--width", "8", "--depth", "3",
        "--metrics-json", "<M-parallel>",
    ],
    ["recover", "<DUR2>"],
    ["stats", "<M-durable>"],
    ["stats", "<M-parallel>"],
    ["stats", "<M-parallel>", "--prometheus"],
]

#: ``sum=…`` on a human-rendered ``*_seconds`` histogram line, the
#: Prometheus ``*_seconds_sum`` sample, and any ``*_seconds_total``
#: counter (seal/backpressure wall time): wall time, never
#: golden-stable.
_SECONDS_SUMS = re.compile(
    r"(_seconds count=\d+ sum=)\S+|(_seconds_sum )\S+"
)

#: A ``*_seconds_total`` counter's value sample — matched only on
#: non-comment lines so Prometheus ``# HELP``/``# TYPE`` text survives.
_SECONDS_TOTALS = re.compile(r"(_seconds_total )\S+$")

#: Per-``le`` bucket counts of a ``*_seconds`` histogram: which bucket
#: an observation lands in is wall time, so only the bucket *set* is
#: golden-stable (the fleet-merged parallel snapshot ships the writers'
#: seal-latency histograms into the Prometheus step).
_SECONDS_BUCKETS = re.compile(r'(_seconds_bucket\{le="[^"]+"\} )\S+$')


def _normalize_times(text: str) -> str:
    text = _SECONDS_SUMS.sub(
        lambda m: (m.group(1) or m.group(2)) + "<T>", text
    )
    lines = [
        line if line.startswith("#")
        else _SECONDS_BUCKETS.sub(
            r"\g<1><T>", _SECONDS_TOTALS.sub(r"\g<1><T>", line)
        )
        for line in text.split("\n")
    ]
    return "\n".join(lines)


def run_scenario(tmp_dir: Path, capsys) -> str:
    substitutions = {
        "<SKETCH>": str(tmp_dir / "stats.sketch"),
        "<DUR>": str(tmp_dir / "durable"),
        "<DUR2>": str(tmp_dir / "durable-x2"),
        "<M-ingest>": str(tmp_dir / "ingest.metrics.json"),
        "<M-point>": str(tmp_dir / "point.metrics.json"),
        "<M-times>": str(tmp_dir / "times.metrics.json"),
        "<M-durable>": str(tmp_dir / "durable.metrics.json"),
        "<M-parallel>": str(tmp_dir / "parallel.metrics.json"),
    }
    transcript: list[str] = []
    for step in STEPS:
        argv = [substitutions.get(arg, arg) for arg in step]
        assert main(argv) == 0
        out = capsys.readouterr().out
        for token, value in substitutions.items():
            out = out.replace(value, token)
        transcript.append(_normalize_times(out))
    return "".join(transcript)


def test_stats_cli_matches_golden(tmp_path, capsys):
    assert run_scenario(tmp_path, capsys) == GOLDEN.read_text()


def test_metrics_json_reports_nonzero_serving_counters(tmp_path, capsys):
    """Acceptance check in test form: after a real ingest + query run
    the snapshots show non-zero ingest/query counters, LRU hit/miss
    counts for scalar reads and shard fan-out latencies."""
    import json

    run_scenario(tmp_path, capsys)
    ingest = json.loads((tmp_path / "ingest.metrics.json").read_text())
    point = json.loads((tmp_path / "point.metrics.json").read_text())
    times = json.loads((tmp_path / "times.metrics.json").read_text())

    store_counters = ingest["store"]["counters"]
    assert store_counters["store_elements_ingested_total"]["value"] > 0
    assert store_counters["store_ingest_batches_total"]["value"] > 0
    assert (
        ingest["global"]["counters"]["stream_read_records_total"]["value"]
        > 0
    )

    assert (
        point["store"]["counters"]["store_point_query_batches_total"][
            "value"
        ]
        == 1
    )
    fanout = point["global"]["histograms"]["sharded_shard_seconds"]
    assert fanout["count"] > 0
    # Batch reads hash their unique ids with one hash_many and leave the
    # hash-column LRU alone; scalar reads (the bursty-time query) use it.
    lru = point["global"]["counters"]
    assert lru["cmpbe_hash_cache_misses_total"]["value"] == 0
    assert lru["cmpbe_hash_cache_hits_total"]["value"] == 0

    assert (
        times["store"]["counters"]["store_bursty_time_queries_total"][
            "value"
        ]
        == 1
    )
    assert (
        times["global"]["counters"]["cmpbe_hash_cache_hits_total"]["value"]
        > 0
    )
    assert (
        times["global"]["counters"]["cmpbe_hash_cache_misses_total"]["value"]
        > 0
    )

    durable = json.loads((tmp_path / "durable.metrics.json").read_text())
    gauges = durable["global"]["gauges"]
    counters = durable["global"]["counters"]
    assert "durable_seal_queue_depth" in gauges
    assert "durable_seal_lag_elements" in gauges
    assert "durable_backpressure_seconds_total" in counters
    assert "durable_backpressure_waits_total" in counters
    assert counters["durable_seals_total"]["value"] > 0

    par = json.loads((tmp_path / "parallel.metrics.json").read_text())
    gauges = par["global"]["gauges"]
    counters = par["global"]["counters"]
    assert "parallel_seal_queue_depth" in gauges
    assert "parallel_seal_lag_elements" in gauges
    assert "parallel_backpressure_seconds_total" in counters
    assert counters["parallel_ingest_acked_records_total"]["value"] > 0
    # Fleet merge: WAL/seal activity happens in the writer processes,
    # so these only appear because the writers shipped their registry
    # snapshots back over the ack queue.
    assert counters["wal_append_frames_total"]["value"] > 0
    assert counters["wal_append_bytes_total"]["value"] > 0
    assert counters["wal_fsyncs_total"]["value"] > 0
    assert counters["parallel_ingest_records_total"]["value"] == counters[
        "parallel_ingest_acked_records_total"
    ]["value"]


def _regenerate() -> None:
    import contextlib
    import io
    import tempfile
    import types

    class _Drain:
        def __init__(self, buffer: io.StringIO) -> None:
            self._buffer = buffer
            self._position = 0

        def readouterr(self):
            value = self._buffer.getvalue()
            out = value[self._position:]
            self._position = len(value)
            return types.SimpleNamespace(out=out)

    GOLDEN.parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            transcript = run_scenario(Path(tmp), _Drain(buffer))
        GOLDEN.write_text(transcript)
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
