"""Tests for the operational metrics layer (repro.core.metrics):
instrument semantics, registry lifecycle, the InstrumentedStore
pass-through differential over the backend matrix, and the first-party
instrumentation wired into CMPBE, ShardedBurstStore, BurstMonitor and
the stream readers."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.core.cmpbe import CMPBE, HASH_CACHE_SIZE
from repro.core.errors import InvalidParameterError
from repro.core.metrics import (
    Counter,
    Gauge,
    Histogram,
    InstrumentedStore,
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

#: Matrix entries that are not already instrumented (the differential
#: wraps each of these and demands identical answers).
PLAIN_MATRIX = [
    (label, backend, cfg)
    for label, backend, cfg in BACKEND_MATRIX
    if backend != "instrumented"
]
PLAIN_IDS = [label for label, _, _ in PLAIN_MATRIX]


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


class TestInstrumentedStoreDifferential:
    """Wrapping a backend must never change any answer."""

    @pytest.mark.parametrize(
        "label,backend,cfg", PLAIN_MATRIX, ids=PLAIN_IDS
    )
    def test_identical_answers_and_counted_volume(self, label, backend, cfg):
        ids, ts = drip_and_surge()
        plain = create_store(backend, **cfg)
        wrapped = InstrumentedStore(create_store(backend, **cfg))
        plain.extend_batch(ids, ts)
        wrapped.extend_batch(ids, ts)
        plain.finalize()
        wrapped.finalize()
        tau = 50.0
        query_ids = ids[:64]
        query_ts = ts[:64] + tau
        assert np.array_equal(
            wrapped.point_query_batch(query_ids, query_ts, tau),
            plain.point_query_batch(query_ids, query_ts, tau),
        ), label
        for t in (300.0, 420.0, 900.0):
            assert wrapped.point_query(3, t, tau) == plain.point_query(
                3, t, tau
            ), label
            assert wrapped.bursty_event_query(
                t, 5.0, tau
            ) == plain.bursty_event_query(t, 5.0, tau), label
        assert wrapped.bursty_time_query(
            3, 20.0, tau
        ) == plain.bursty_time_query(3, 20.0, tau), label
        counters = {
            name: entry["value"]
            for name, entry in wrapped.metrics.snapshot()[
                "counters"
            ].items()
        }
        assert counters["store_elements_ingested_total"] == ids.size
        assert counters["store_ingest_batches_total"] == 1
        assert counters["store_point_queries_total"] == 3
        assert counters["store_point_query_batches_total"] == 1
        assert counters["store_bursty_event_queries_total"] == 3
        assert counters["store_bursty_time_queries_total"] == 1

    @pytest.mark.parametrize(
        "label,backend,cfg", PLAIN_MATRIX, ids=PLAIN_IDS
    )
    def test_serialization_is_flag_transparent(self, label, backend, cfg):
        """An instrumented store's envelope must reload to an
        instrumented store wrapping an equivalent backend."""
        ids, ts = drip_and_surge(150)
        wrapped = InstrumentedStore(create_store(backend, **cfg))
        wrapped.extend_batch(ids, ts)
        wrapped.finalize()
        again = load_store(save_store(wrapped))
        assert again.backend_key == "instrumented"
        assert again.inner.backend_key == backend
        assert again.count == wrapped.count
        assert again.point_query(3, 500.0, 50.0) == wrapped.point_query(
            3, 500.0, 50.0
        )

    def test_update_and_extend_count_elements(self):
        wrapped = create_store("instrumented", backend="exact")
        wrapped.update(1, 1.0)
        wrapped.update(1, 2.0, count=3)
        wrapped.extend([(2, 3.0), (2, 4.0)])
        snapshot = wrapped.metrics.snapshot()
        assert (
            snapshot["counters"]["store_elements_ingested_total"]["value"]
            == 6
        )

    def test_serialized_bytes_gauge_tracks_to_bytes(self):
        wrapped = create_store("instrumented", backend="exact")
        wrapped.update(1, 1.0)
        blob = wrapped.to_bytes()
        gauge = wrapped.metrics.snapshot()["gauges"][
            "store_serialized_bytes"
        ]
        assert gauge["value"] == len(blob)

    def test_merge_unwraps_and_returns_instrumented(self):
        a = InstrumentedStore(create_store("exact"))
        b = InstrumentedStore(create_store("exact"))
        a.update(1, 1.0)
        b.update(1, 5.0)
        merged = a.merge(b)
        assert isinstance(merged, InstrumentedStore)
        assert merged.count == 2
        # Merging with a bare store works too.
        bare = create_store("exact")
        bare.update(1, 7.0)
        assert merged.merge(bare).count == 3

    def test_constructor_validation(self):
        with pytest.raises(InvalidParameterError):
            InstrumentedStore()
        with pytest.raises(InvalidParameterError):
            InstrumentedStore(create_store("exact"), backend="exact")
        with pytest.raises(InvalidParameterError):
            create_store("instrumented", backend="instrumented")

    def test_delegates_long_tail_attributes(self):
        wrapped = create_store("instrumented", backend="exact")
        wrapped.update(1, 1.0)
        assert wrapped.piecewise == "constant"
        assert wrapped.segment_starts(1) == [1.0]
        assert wrapped.count == 1
        with pytest.raises(AttributeError):
            wrapped.no_such_attribute


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

        store = create_store("instrumented", backend="exact")
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
        from repro.core.queries import HistoricalBurstAnalyzer

        analyzer = HistoricalBurstAnalyzer("exact")
        assert analyzer.metrics_snapshot()["store"] is None

    def test_validation_report_embeds_metrics(self):
        import json

        from repro.eval.validation import validate_sketch

        records = [(1, float(t)) for t in range(50)]
        store = InstrumentedStore(create_store("exact"))
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
