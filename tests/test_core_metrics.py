"""Tests for the operational metrics layer (repro.core.metrics):
instrument semantics, registry lifecycle, every store's own accounting
over the backend matrix, and the first-party instrumentation wired into
CMPBE, ShardedBurstStore, BurstMonitor and the stream readers."""

from __future__ import annotations

import re
import struct

import numpy as np
import pytest

from repro.core.cmpbe import CMPBE, HASH_CACHE_SIZE
from repro.core.durable import create_durable
from repro.core.errors import InvalidParameterError
from repro.core.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
    merge_snapshots,
    prometheus_exposition,
    render_snapshot,
)
from repro.core.monitor import BurstMonitor
from repro.core.serialize import load_store, save_store
from repro.core.store import create_store

from tests.backends import BACKEND_IDS, BACKEND_MATRIX

def drip_and_surge(n: int = 400) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(3)
    ts = np.sort(rng.uniform(0.0, 1_000.0, n))
    ids = rng.integers(0, 8, n)
    surge = np.sort(rng.uniform(400.0, 440.0, 60))
    all_ts = np.concatenate([ts, surge])
    all_ids = np.concatenate([ids, np.full(60, 3)])
    order = np.argsort(all_ts, kind="stable")
    return all_ids[order], all_ts[order]


class TestInstruments:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("c", "help text")
        counter.inc()
        counter.inc(3)
        counter.inc(0)
        assert counter.value == 4
        with pytest.raises(InvalidParameterError):
            counter.inc(-1)

    def test_gauge_up_and_down(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7

    def test_histogram_buckets_are_cumulative(self):
        hist = MetricsRegistry().histogram(
            "h", buckets=(1.0, 10.0, 100.0)
        )
        for value in (0.5, 5.0, 50.0, 500.0):
            hist.observe(value)
        snapshot = hist._snapshot()
        assert snapshot["count"] == 4
        assert snapshot["sum"] == pytest.approx(555.5)
        assert snapshot["min"] == 0.5
        assert snapshot["max"] == 500.0
        assert snapshot["buckets"] == [[1.0, 1], [10.0, 2], [100.0, 3]]

    def test_histogram_rejects_bad_buckets(self):
        registry = MetricsRegistry()
        with pytest.raises(InvalidParameterError):
            registry.histogram("bad", buckets=())
        with pytest.raises(InvalidParameterError):
            registry.histogram("bad2", buckets=(2.0, 1.0))

    def test_timer_observes_elapsed(self):
        hist = MetricsRegistry().histogram("t")
        with hist.time():
            pass
        assert hist.count == 1
        assert hist.sum >= 0.0


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_clash_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(InvalidParameterError, match="counter"):
            registry.gauge("x")

    def test_invalid_name_rejected(self):
        with pytest.raises(InvalidParameterError):
            MetricsRegistry().counter("")

    def test_reset_forgets_and_zeroes(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        counter.inc(5)
        registry.reset()
        # Held reference is zeroed and detached; the name is free again.
        assert counter.value == 0
        assert registry.snapshot()["counters"] == {}
        assert registry.counter("x") is not counter

    def test_snapshot_sections(self):
        registry = MetricsRegistry()
        registry.counter("c", "a counter").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["c"] == {
            "value": 2.0, "help": "a counter",
        }
        assert snapshot["gauges"]["g"]["value"] == 1.5
        assert snapshot["histograms"]["h"]["count"] == 1

    def test_global_registry_is_singleton(self):
        assert global_registry() is global_registry()


class TestRendering:
    def _snapshot(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", "requests served").inc(3)
        registry.gauge("inflight").set(2)
        registry.histogram("latency_seconds", buckets=(0.1, 1.0)).observe(
            0.05
        )
        return registry.snapshot()

    def test_render_snapshot_lists_all_sections(self):
        text = render_snapshot(self._snapshot())
        assert "requests_total 3" in text
        assert "inflight 2" in text
        assert "latency_seconds count=1" in text

    def test_render_empty_snapshot(self):
        assert "no metrics" in render_snapshot(MetricsRegistry().snapshot())

    def test_prometheus_exposition_format(self):
        text = prometheus_exposition(self._snapshot())
        assert "# TYPE repro_requests_total counter" in text
        assert "repro_requests_total 3" in text
        assert "# TYPE repro_inflight gauge" in text
        assert '# TYPE repro_latency_seconds histogram' in text
        assert 'repro_latency_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_latency_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_latency_seconds_count 1" in text
        assert text.endswith("\n")


#: Every ``store_*`` counter a store records, as the CLI snapshot
#: lists them.
STORE_COUNTERS = (
    "store_elements_ingested_total",
    "store_ingest_batches_total",
    "store_point_queries_total",
    "store_point_query_batches_total",
    "store_bursty_time_queries_total",
    "store_bursty_event_queries_total",
    "store_peak_queries_total",
)


def store_counters(store) -> dict[str, float]:
    counters = store.metrics_snapshot()["counters"]
    return {name: counters[name]["value"] for name in STORE_COUNTERS}


def _ingest_each(store, ids, ts) -> None:
    for event_id, timestamp in zip(ids.tolist(), ts.tolist()):
        store._ingest(event_id, timestamp, 1)


def public_calls(ids, ts, tau: float = 50.0):
    """``(counter deltas, public call, hook call)`` for every public
    ingest and query method; the hook call is what a composite runs on
    its parts (validated arguments, no accounting)."""
    head, one, tail = slice(0, 300), 300, slice(301, None)
    qids = ids[:64]
    qts = ts[:64] + tau
    return [
        (
            {
                "store_elements_ingested_total": 300,
                "store_ingest_batches_total": 1,
            },
            lambda s: s.extend_batch(ids[head], ts[head]),
            lambda s: s._ingest_batch(ids[head], ts[head], None),
        ),
        (
            {"store_elements_ingested_total": 1},
            lambda s: s.update(int(ids[one]), float(ts[one])),
            lambda s: s._ingest(int(ids[one]), float(ts[one]), 1),
        ),
        (
            {"store_elements_ingested_total": ids[tail].size},
            lambda s: s.extend(zip(ids[tail].tolist(), ts[tail].tolist())),
            lambda s: _ingest_each(s, ids[tail], ts[tail]),
        ),
        (
            {"store_point_queries_total": 1},
            lambda s: s.point_query(3, 420.0, tau),
            lambda s: float(s._point(3, 420.0, tau)),
        ),
        (
            {"store_point_query_batches_total": 1},
            lambda s: s.point_query_batch(qids, qts, tau).tobytes(),
            lambda s: s._point_batch(qids, qts, tau).tobytes(),
        ),
        (
            {"store_bursty_time_queries_total": 1},
            lambda s: s.bursty_time_query(3, 20.0, tau),
            lambda s: s._bursty_times(3, 20.0, tau, None, 0.0, None),
        ),
        (
            {"store_bursty_event_queries_total": 1},
            lambda s: s.bursty_event_query(420.0, 5.0, tau),
            lambda s: s._bursty_events(420.0, 5.0, tau),
        ),
        (
            {"store_peak_queries_total": 1},
            lambda s: s.peak_query(3, 300.0, 600.0, tau),
            lambda s: s._peak(3, 300.0, 600.0, tau),
        ),
    ]


def parts_of(store) -> list:
    """Every store a composite reads or writes through: shard children,
    durable segments, pending generations, memtable and read views."""
    parts = []
    for child in getattr(store, "shards", None) or [store]:
        if child is not store:
            parts.append(child)
        if hasattr(child, "_memtable"):
            parts.extend(child._segments)
            parts.extend(job.store for job in child._pending)
            parts.extend(child._lower or [])
            parts.extend(
                part
                for part in (
                    child._memtable, child._view, child._sealed_view
                )
                if part is not None
            )
    return parts


#: Children the legacy ``instrumented`` envelope test wraps.
LEGACY_ROWS = [
    row
    for row in BACKEND_MATRIX
    if row[0] in (
        "exact", "cm-pbe-1", "direct-pbe1", "index-pbe1",
        "sharded-x3-cm-pbe-1", "durable-exact",
    )
]


class TestInstrumentedStoreDifferential:
    """Every store is instrumented: its public calls answer exactly as
    its unaccounted hooks do and add their volume to its own counters."""

    @pytest.mark.parametrize(
        "label,backend,cfg", BACKEND_MATRIX, ids=BACKEND_IDS
    )
    def test_identical_answers_and_counted_volume(self, label, backend, cfg):
        """One count per public call; answers and serialized bytes
        match the unaccounted hook calls bit for bit."""
        ids, ts = drip_and_surge()
        store = create_store(backend, **cfg)
        twin = create_store(backend, **cfg)
        expected = dict.fromkeys(STORE_COUNTERS, 0.0)
        for deltas, public, hook in public_calls(ids, ts):
            if "store_point_queries_total" in deltas:
                store.finalize()
                twin.finalize()
            assert public(store) == hook(twin), (label, deltas)
            for counter, amount in deltas.items():
                expected[counter] += amount
            assert store_counters(store) == expected, (label, deltas)
        snapshot = store.metrics_snapshot()["histograms"]
        assert snapshot["store_query_seconds"]["count"] == 5
        assert snapshot["store_ingest_batch_size"]["count"] == 1
        assert snapshot["store_ingest_batch_size"]["sum"] == 300
        assert snapshot["store_point_query_batch_size"]["sum"] == 64
        # Hook calls never allocate accounting, on the store or on any
        # part a composite reads through.
        assert twin._store_metrics is None, label
        for part in parts_of(store) + parts_of(twin):
            assert part._store_metrics is None, label
        assert store.to_bytes() == twin.to_bytes(), label
        store.close()
        twin.close()

    def test_update_and_extend_count_elements(self):
        """``update`` counts its ``count`` weight, ``extend`` each pair."""
        store = create_store("exact")
        store.update(1, 1.0)
        store.update(1, 2.0, count=3)
        store.extend([(2, 3.0), (2, 4.0)])
        counters = store_counters(store)
        assert counters["store_elements_ingested_total"] == 6
        assert counters["store_ingest_batches_total"] == 0


class TestStoreAccounting:
    """Each call counts once, on the store the caller holds, and never
    changes an answer or the serialized artifact."""

    @pytest.mark.parametrize("backend", ["exact", "cm-pbe-1"])
    def test_durable_parts_count_nothing(self, tmp_path, backend):
        """A durable store with sealed, pending and memtable parts
        counts each call once; its read view allocates no registry."""
        from tests.test_durable_layered import held_background_seals

        cfg = {} if backend == "exact" else dict(
            universe_size=48, eta=20, width=8, depth=3, seed=0
        )
        ids, ts = drip_and_surge()
        store = create_durable(
            tmp_path / "s",
            backend=backend,
            seal_elements=100,
            fsync="never",
            background_seal=True,
            max_unsealed=10,
            **cfg,
        )
        store.extend_batch(ids[:200], ts[:200])
        store.drain_seals()
        with held_background_seals() as gate:
            try:
                store.extend_batch(ids[200:350], ts[200:350])
                assert store.n_segments == 2
                assert store.seal_queue_depth == 1
                assert store._memtable_elements == 50
                expected = store_counters(store)
                for deltas, public, _ in public_calls(ids, ts)[3:]:
                    public(store)
                    for counter, amount in deltas.items():
                        expected[counter] += amount
                    assert store_counters(store) == expected, deltas
                    for part in parts_of(store):
                        assert part._store_metrics is None, deltas
            finally:
                gate.set()
                store.close()

    def test_two_shard_store_counts_once(self):
        ids, ts = drip_and_surge()
        store = create_store("sharded", shards=2, backend="exact")
        store.extend_batch(ids, ts)
        store.bursty_event_query(420.0, 5.0, 50.0)
        store.point_query_batch(ids[:64], ts[:64] + 50.0, 50.0)
        counters = store_counters(store)
        assert counters["store_ingest_batches_total"] == 1
        assert counters["store_elements_ingested_total"] == ids.size
        assert counters["store_bursty_event_queries_total"] == 1
        assert counters["store_point_query_batches_total"] == 1
        for child in store.shards:
            assert child._store_metrics is None
        store.close()

    def test_serialized_bytes_gauge_tracks_save_store(self):
        store = create_store("exact")
        store.update(1, 1.0)
        blob = save_store(store)
        gauge = store.metrics_snapshot()["gauges"]["store_serialized_bytes"]
        assert gauge["value"] == len(blob)

    @pytest.mark.parametrize(
        "label,backend,cfg", LEGACY_ROWS, ids=[row[0] for row in LEGACY_ROWS]
    )
    def test_legacy_envelope_loads(self, label, backend, cfg):
        """Envelopes saved by the former ``instrumented`` wrapper
        backend (its payload: the child's key, then its payload) load
        as the bare child."""
        from repro.core.serialize import (
            _ENVELOPE_HEADER,
            _TABLE_COUNT,
            _TABLE_ENTRY,
            ENVELOPE_MAGIC,
            STORE_FORMAT_VERSION,
            _index_store_payload,
        )
        from repro.core.store import _pack_config

        ids, ts = drip_and_surge(150)
        child = create_store(backend, **cfg)
        child.extend_batch(ids, ts)
        child.finalize()
        payload = _pack_config({"backend": backend}, child.to_bytes())
        entries = _index_store_payload(
            "instrumented", payload, 0, len(payload)
        )
        key = b"instrumented"
        blob = (
            _ENVELOPE_HEADER.pack(
                ENVELOPE_MAGIC, STORE_FORMAT_VERSION, len(key)
            )
            + key
            + _TABLE_COUNT.pack(len(entries))
            + b"".join(_TABLE_ENTRY.pack(*entry) for entry in entries)
            + struct.pack("<Q", len(payload))
            + payload
        )
        for data in (blob, bytearray(blob)):
            again = load_store(data)
            assert again.backend_key == backend
            assert again.count == child.count
            assert again.point_query(3, 500.0, 50.0) == child.point_query(
                3, 500.0, 50.0
            )
            assert save_store(again) == save_store(child)
            again.close()
        child.close()


class TestFirstPartyInstrumentation:
    def setup_method(self):
        global_registry().reset()

    def test_cmpbe_lru_hits_misses(self):
        sketch = CMPBE.with_pbe1(eta=10, width=4, depth=2)
        sketch.extend_batch(np.array([1, 2, 3]), np.array([1.0, 2.0, 3.0]))
        sketch.burstiness(1, 5.0, 1.0)  # miss
        sketch.burstiness(1, 6.0, 1.0)  # hit
        snapshot = global_registry().snapshot()["counters"]
        assert snapshot["cmpbe_hash_cache_misses_total"]["value"] == 1
        assert snapshot["cmpbe_hash_cache_hits_total"]["value"] == 1

    def test_cmpbe_lru_eviction_bounded_and_counted(self):
        """Scalar lookups fill the LRU up to its bound and count every
        eviction; batch reads hash with ``hash_many`` and leave it alone."""
        sketch = CMPBE.with_pbe1(eta=10, width=4, depth=2)
        ids = np.arange(HASH_CACHE_SIZE + 12)
        sketch.burstiness_many(ids, np.ones(ids.size), 1.0)
        assert not sketch._column_cache
        for event_id in ids.tolist():
            sketch._hash_columns(event_id)
        assert len(sketch._column_cache) == HASH_CACHE_SIZE
        snapshot = global_registry().snapshot()["counters"]
        assert snapshot["cmpbe_hash_cache_evictions_total"]["value"] == 12
        assert snapshot["cmpbe_hash_cache_misses_total"]["value"] == ids.size

    def test_monitor_counters(self):
        monitor = BurstMonitor(tau=10.0, theta=2.0, cooldown=100.0)
        # Quiet lead-in past warm-up, then a dense surge: the first
        # crossing alerts, repeats are suppressed by the cooldown.
        for t in range(0, 40, 10):
            monitor.update(1, float(t))
        for i in range(30):
            monitor.update(1, 50.0 + 0.1 * i)
        snapshot = global_registry().snapshot()
        counters = snapshot["counters"]
        assert counters["monitor_alerts_total"]["value"] >= 1
        assert counters["monitor_cooldown_suppressed_total"]["value"] >= 1
        assert (
            snapshot["gauges"]["monitor_window_elements"]["value"]
            == monitor.memory_elements()
        )

    def test_binary_reader_counters(self, tmp_path):
        from repro.streams.events import EventStream
        from repro.streams.io import iter_binary_batches, write_binary

        stream = EventStream(
            [(i % 5, float(i)) for i in range(25)]
        )
        path = tmp_path / "stream.bin"
        write_binary(stream, path)
        batches = list(iter_binary_batches(path, batch_size=10))
        assert len(batches) == 3
        counters = global_registry().snapshot()["counters"]
        assert counters["stream_read_batches_total"]["value"] == 3
        assert counters["stream_read_records_total"]["value"] == 25
        assert counters["stream_read_bytes_total"]["value"] == 25 * 12

    def test_csv_reader_counters(self, tmp_path):
        from repro.streams.events import EventStream
        from repro.streams.io import iter_csv_batches, write_csv

        stream = EventStream([(i % 3, float(i)) for i in range(10)])
        path = tmp_path / "stream.csv"
        write_csv(stream, path)
        batches = list(iter_csv_batches(path, batch_size=4))
        assert len(batches) == 3
        counters = global_registry().snapshot()["counters"]
        assert counters["stream_read_batches_total"]["value"] == 3
        assert counters["stream_read_records_total"]["value"] == 10
        assert counters["stream_read_bytes_total"]["value"] > 0

    def test_sharded_fanout_metrics(self):
        ids, ts = drip_and_surge(200)
        store = create_store("sharded", shards=3, backend="exact")
        store.extend_batch(ids, ts)
        store.point_query_batch(ids[:50], ts[:50] + 10.0, 25.0)
        store.bursty_event_query(420.0, 5.0, 50.0)
        snapshot = global_registry().snapshot()
        counters = snapshot["counters"]
        assert counters["sharded_point_query_batches_total"]["value"] == 1
        assert (
            counters["sharded_bursty_event_queries_total"]["value"] == 1
        )
        shard_seconds = snapshot["histograms"]["sharded_shard_seconds"]
        # Point fan-out touches every owning shard; the event query
        # always touches all three.
        assert shard_seconds["count"] >= 4
        store.close()


class TestAnalyzerAndValidationSnapshots:
    def test_analyzer_metrics_snapshot(self):
        from repro.core.queries import HistoricalBurstAnalyzer

        store = create_store("exact")
        analyzer = HistoricalBurstAnalyzer(store=store)
        analyzer.update(1, 1.0)
        analyzer.point_query(1, 5.0, 2.0)
        snapshot = analyzer.metrics_snapshot()
        assert "counters" in snapshot["global"]
        assert (
            snapshot["store"]["counters"]["store_point_queries_total"][
                "value"
            ]
            == 1
        )

    def test_analyzer_snapshot_without_instrumentation(self):
        """No wrapper needed: the store's own families are always
        there, zeroed before any call."""
        from repro.core.queries import HistoricalBurstAnalyzer

        analyzer = HistoricalBurstAnalyzer("exact")
        counters = analyzer.metrics_snapshot()["store"]["counters"]
        assert counters["store_point_queries_total"]["value"] == 0

    def test_validation_report_embeds_metrics(self):
        import json

        from repro.eval.validation import validate_sketch

        records = [(1, float(t)) for t in range(50)]
        store = create_store("exact")
        store.extend(records)
        report = validate_sketch(store, records, tau=5.0, n_times=4)
        assert report.metrics is not None
        assert "counters" in report.metrics["global"]
        store_counters = report.metrics["store"]["counters"]
        assert store_counters["store_point_queries_total"]["value"] > 0
        payload = json.loads(report.to_json())
        assert payload["metrics"]["store"] is not None


class TestPrometheusConformance:
    """The exposition must satisfy the Prometheus text-format spec:
    metric names in ``[a-zA-Z_:][a-zA-Z0-9_:]*``, escaped HELP text and
    label values, cumulative ``_bucket`` series capped by ``+Inf``, and
    ``# HELP`` preceding ``# TYPE`` preceding the samples."""

    _NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

    def _parse(self, text: str):
        """Split exposition lines into (comments, samples) with a
        light-weight sample parser: name{labels} value."""
        samples = []
        comments = []
        for line in text.splitlines():
            if line.startswith("#"):
                comments.append(line)
                continue
            assert line == line.rstrip(), "no trailing whitespace"
            metric, _, value = line.rpartition(" ")
            name, _, labels = metric.partition("{")
            samples.append((name, labels.rstrip("}"), value))
        return comments, samples

    def test_sample_names_match_the_grammar(self):
        registry = MetricsRegistry()
        registry.counter("weird.name-with spaces", "x").inc()
        registry.counter("0starts_with_digit", "x").inc()
        registry.histogram("lat_seconds", buckets=(0.5,)).observe(0.1)
        comments, samples = self._parse(
            prometheus_exposition(registry.snapshot())
        )
        assert samples, "exposition produced no samples"
        for name, _labels, _value in samples:
            base = name
            for suffix in ("_bucket", "_sum", "_count"):
                if base.endswith(suffix):
                    base = base[: -len(suffix)]
            assert self._NAME.match(name), name
            assert self._NAME.match(base), base

    def test_help_and_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter(
            "escaped_total", 'line\nbreak and back\\slash and "quote"'
        ).inc()
        text = prometheus_exposition(registry.snapshot())
        assert (
            '# HELP repro_escaped_total line\\nbreak and '
            'back\\\\slash and "quote"' in text
        )
        assert "\nline" not in text  # the raw LF never survives

    def test_buckets_are_cumulative_and_capped_by_inf(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "lat_seconds", "x", buckets=(0.1, 1.0, 10.0)
        )
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            histogram.observe(value)
        _comments, samples = self._parse(
            prometheus_exposition(registry.snapshot())
        )
        buckets = [
            (labels, float(value))
            for name, labels, value in samples
            if name == "repro_lat_seconds_bucket"
        ]
        counts = [count for _labels, count in buckets]
        assert counts == sorted(counts), "buckets must be cumulative"
        assert counts == [1.0, 3.0, 4.0, 5.0]
        assert buckets[-1][0] == 'le="+Inf"'
        count = next(
            float(v)
            for n, _l, v in samples
            if n == "repro_lat_seconds_count"
        )
        assert buckets[-1][1] == count

    def test_help_precedes_type_precedes_samples(self):
        registry = MetricsRegistry()
        registry.counter("ordered_total", "helpful").inc(2)
        lines = prometheus_exposition(registry.snapshot()).splitlines()
        help_at = lines.index("# HELP repro_ordered_total helpful")
        type_at = lines.index("# TYPE repro_ordered_total counter")
        sample_at = lines.index("repro_ordered_total 2")
        assert help_at < type_at < sample_at


class TestMergeSnapshots:
    """merge_snapshots folds per-process registries into fleet totals."""

    def _registry(self, n: int) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("ops_total", "ops").inc(n)
        registry.gauge("level", "level").set(n)
        histogram = registry.histogram(
            "lat_seconds", "lat", buckets=(0.1, 1.0)
        )
        histogram.observe(0.05 * n)
        histogram.observe(2.0)
        return registry

    def test_counters_gauges_and_histograms_sum(self):
        merged = merge_snapshots(
            self._registry(1).snapshot(), self._registry(3).snapshot()
        )
        assert merged["counters"]["ops_total"]["value"] == 4
        # Gauges sum too: multi-process gauges are per-shard levels
        # (queue depths, lag), where the fleet number is the total.
        assert merged["gauges"]["level"]["value"] == 4
        histogram = merged["histograms"]["lat_seconds"]
        assert histogram["count"] == 4
        assert histogram["sum"] == pytest.approx(0.05 + 0.15 + 4.0)
        # Cumulative per input: 0.05 ≤ 0.1 but 0.15 is not, and both
        # 2.0 observations fall only in the implicit +Inf bucket.
        assert histogram["buckets"] == [[0.1, 1], [1.0, 2]]
        assert histogram["min"] == pytest.approx(0.05)
        assert histogram["max"] == pytest.approx(2.0)

    def test_merge_is_union_over_names(self):
        left = MetricsRegistry()
        left.counter("only_left_total", "l").inc()
        right = MetricsRegistry()
        right.counter("only_right_total", "r").inc(2)
        merged = merge_snapshots(left.snapshot(), right.snapshot())
        assert merged["counters"]["only_left_total"]["value"] == 1
        assert merged["counters"]["only_right_total"]["value"] == 2

    def test_merge_of_nothing_is_empty(self):
        merged = merge_snapshots()
        assert merged == {"counters": {}, "gauges": {}, "histograms": {}}
