"""Tests for the tracing layer (repro.core.tracing): span parenting,
per-trace sampling, the bounded ring, torn-write-safe JSONL export,
the slow-op log, summary percentiles, Perfetto export, and the
acceptance property — a parallel ingest run stitches into one trace
tree spanning the coordinator and every writer process."""

from __future__ import annotations

import json
import logging

import numpy as np
import pytest

from repro.cli import main
from repro.core import store as store_module
from repro.core.durable import create_durable, recover
from repro.core.errors import InvalidParameterError
from repro.core.metrics import MetricsRegistry, global_registry
from repro.core.tracing import (
    JsonlSpanExporter,
    Tracer,
    current_context,
    current_trace_id,
    load_trace,
    perfetto_trace,
    read_span_file,
    render_summary,
    set_tracer,
    span,
    stitch_spans,
    summarize_spans,
)


@pytest.fixture(autouse=True)
def _no_ambient_tracer():
    """Isolate every test from the process-wide tracer (and from the
    REPRO_TRACE env probe, which set_tracer marks as done)."""
    previous = set_tracer(None)
    yield
    set_tracer(previous)


class TestSpans:
    def test_context_manager_parenting(self):
        tracer = Tracer()
        with tracer.span("parent"):
            with tracer.span("child"):
                pass
        child, parent = tracer.finished_spans()
        assert child["name"] == "child"
        assert parent["name"] == "parent"
        assert parent["parent_id"] is None
        assert child["parent_id"] == parent["span_id"]
        assert child["trace_id"] == parent["trace_id"]

    def test_siblings_share_a_parent_not_each_other(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("first"):
                pass
            with tracer.span("second"):
                pass
        first, second, root = tracer.finished_spans()
        assert first["parent_id"] == root["span_id"]
        assert second["parent_id"] == root["span_id"]

    def test_attributes_status_and_error_capture(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom", records=3) as active:
                active.set_attribute("extra", "yes")
                raise ValueError("no")
        (finished,) = tracer.finished_spans()
        assert finished["status"] == "error"
        assert finished["attributes"] == {"records": 3, "extra": "yes"}
        assert finished["duration"] >= 0.0

    def test_explicit_remote_parent_tuple(self):
        tracer = Tracer()
        with tracer.span("local-root"):
            ctx = current_context()
        assert ctx is not None
        remote = Tracer(process="writer-7")
        with remote.span("remote-child", parent=ctx):
            pass
        (child,) = remote.finished_spans()
        assert (child["trace_id"], child["parent_id"]) == ctx
        assert child["process"] == "writer-7"

    def test_record_span_is_retroactive(self):
        tracer = Tracer()
        tracer.record_span(
            "queue.wait", start=123.0, duration=0.25, parent=("t1", "s1")
        )
        (finished,) = tracer.finished_spans()
        assert finished["trace_id"] == "t1"
        assert finished["parent_id"] == "s1"
        assert finished["start"] == 123.0
        assert finished["duration"] == 0.25

    def test_ring_buffer_is_bounded(self):
        tracer = Tracer(ring_size=4)
        for index in range(10):
            with tracer.span(f"s{index}"):
                pass
        names = [s["name"] for s in tracer.finished_spans()]
        assert names == ["s6", "s7", "s8", "s9"]

    def test_module_helper_is_noop_without_a_tracer(self):
        assert current_trace_id() is None
        with span("nothing") as active:
            active.set_attribute("ignored", 1)
            assert current_context() is None

    def test_invalid_sample_rate_rejected(self):
        with pytest.raises(InvalidParameterError):
            Tracer(sample_rate=1.5)


class TestSampling:
    def test_sampling_decides_whole_traces(self):
        tracer = Tracer(sample_rate=0.0)
        with tracer.span("root"):
            assert current_context() is None  # unsampled trace
            with tracer.span("child"):
                pass
        assert tracer.finished_spans() == []

    def test_rate_is_roughly_honoured_per_root(self):
        tracer = Tracer(sample_rate=0.5, seed=11, ring_size=4096)
        for _ in range(400):
            with tracer.span("root"):
                with tracer.span("child"):
                    pass
        spans = tracer.finished_spans()
        assert len(spans) % 2 == 0  # child always follows its root
        assert 200 < len(spans) < 600  # ~400 of 800 at rate 0.5

    def test_explicit_parent_forces_sampling(self):
        # A remote parent only exists because the remote side sampled
        # the trace, so the local side must not re-roll the dice.
        tracer = Tracer(sample_rate=0.0)
        with tracer.span("child", parent=("t1", "s1")):
            pass
        (finished,) = tracer.finished_spans()
        assert finished["trace_id"] == "t1"


class TestJsonlExport:
    def test_spans_export_as_one_line_each(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        tracer = Tracer(exporters=[JsonlSpanExporter(path)])
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        tracer.close()
        lines = path.read_bytes().splitlines()
        assert len(lines) == 2
        assert [json.loads(line)["name"] for line in lines] == ["a", "b"]

    def test_torn_tail_is_dropped_quietly(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        tracer = Tracer(exporters=[JsonlSpanExporter(path)])
        with tracer.span("whole"):
            pass
        tracer.close()
        with open(path, "ab") as handle:
            handle.write(b'{"name": "torn half')  # no newline: a tear
        spans = read_span_file(path)
        assert [s["name"] for s in spans] == ["whole"]
        # strict mode also tolerates the newline-less tail — only a
        # *mid-file* tear is corruption.
        assert read_span_file(path, strict=True) == spans

    def test_mid_file_tear_warns_or_raises(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        tracer = Tracer(exporters=[JsonlSpanExporter(path)])
        with tracer.span("first"):
            pass
        with open(path, "ab") as handle:
            handle.write(b"not json\n")
        with tracer.span("second"):
            pass
        tracer.close()
        spans = read_span_file(path)  # lenient: skip the bad line
        assert [s["name"] for s in spans] == ["first", "second"]
        with pytest.raises(InvalidParameterError):
            read_span_file(path, strict=True)

    def test_load_trace_concatenates_a_directory(self, tmp_path):
        for name in ("spans-b.jsonl", "spans-a.jsonl"):
            tracer = Tracer(exporters=[JsonlSpanExporter(tmp_path / name)])
            with tracer.span(name):
                pass
            tracer.close()
        spans = load_trace(tmp_path)
        # Deterministic order: files sorted by name.
        assert [s["name"] for s in spans] == [
            "spans-a.jsonl", "spans-b.jsonl",
        ]


class TestSlowOps:
    def test_slow_spans_log_with_ancestry(self, caplog):
        registry = global_registry()
        registry.reset()
        tracer = Tracer(slow_threshold_ms=0.0)  # everything is slow
        with caplog.at_level(logging.WARNING, logger="repro.core.tracing"):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
        slow = tracer.slow_ops()
        assert [entry["name"] for entry in slow] == ["inner", "outer"]
        assert slow[0]["ancestry"] == ["outer", "inner"]
        assert "outer > inner" in caplog.text
        counters = registry.snapshot()["counters"]
        assert counters["trace_slow_ops_total"]["value"] == 2

    def test_fast_spans_stay_out_of_the_slow_log(self):
        tracer = Tracer(slow_threshold_ms=60_000.0)
        with tracer.span("quick"):
            pass
        assert tracer.slow_ops() == []


class TestSummary:
    def _spans(self):
        tracer = Tracer()
        for duration in (0.010, 0.020, 0.030, 0.040):
            tracer.record_span("op", start=0.0, duration=duration)
        tracer.record_span("other", start=0.0, duration=0.5)
        return tracer.finished_spans()

    def test_percentiles_and_totals(self):
        rows = summarize_spans(self._spans())
        assert [row["name"] for row in rows] == ["op", "other"]
        op = rows[0]
        assert op["count"] == 4
        assert op["p50"] == pytest.approx(0.020)
        assert op["p99"] == pytest.approx(0.040)
        assert op["max"] == pytest.approx(0.040)
        assert op["total"] == pytest.approx(0.100)

    def test_render_summary_table(self):
        text = render_summary(summarize_spans(self._spans()))
        lines = text.splitlines()
        assert lines[0].split() == [
            "span", "count", "p50_ms", "p99_ms", "total_ms",
        ]
        assert lines[1].split()[:2] == ["op", "4"]
        assert "20.000" in lines[1]  # p50 in milliseconds


class TestPerfetto:
    def test_export_is_valid_trace_event_json(self):
        coordinator = Tracer(process="coordinator")
        with coordinator.span("root", records=8):
            ctx = current_context()
        writer = Tracer(process="writer-0")
        with writer.span("child", parent=ctx):
            pass
        # Both tracers live in this test process; fake the writer's pid
        # so the per-process metadata events both appear, as they would
        # for a real multi-process trace.
        writer_spans = [
            dict(s, pid=s["pid"] + 1) for s in writer.finished_spans()
        ]
        payload = perfetto_trace(
            coordinator.finished_spans() + writer_spans
        )
        # Round-trip through JSON: must be serializable as-is.
        payload = json.loads(json.dumps(payload))
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in complete} == {"root", "child"}
        for event in complete:
            assert event["cat"] == "repro"
            assert isinstance(event["ts"], (int, float))
            assert isinstance(event["dur"], (int, float))
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
        assert {e["args"]["name"] for e in metadata} == {
            "coordinator", "writer-0",
        }
        root = next(e for e in complete if e["name"] == "root")
        assert root["args"]["records"] == 8


class TestExemplars:
    def test_histogram_observation_carries_the_trace_id(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat_seconds", "x", buckets=(1.0,))
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            with tracer.span("traced"):
                histogram.observe(0.5)
                trace_id = current_trace_id()
        finally:
            set_tracer(previous)
        snapshot = registry.snapshot()["histograms"]["lat_seconds"]
        assert snapshot["exemplar"] == {"trace_id": trace_id, "value": 0.5}

    def test_untraced_observations_keep_the_old_schema(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat_seconds", "x", buckets=(1.0,))
        histogram.observe(0.5)
        assert "exemplar" not in registry.snapshot()["histograms"][
            "lat_seconds"
        ]


class TestEnvToggle:
    def test_repro_trace_env_builds_a_tracer(self, tmp_path, monkeypatch):
        import repro.core.tracing as tracing

        monkeypatch.setenv("REPRO_TRACE", str(tmp_path))
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "1.0")
        monkeypatch.setenv("REPRO_TRACE_SLOW_MS", "250")
        monkeypatch.setattr(tracing, "_TRACER", None)
        monkeypatch.setattr(tracing, "_ENV_CHECKED", False)
        tracer = tracing.get_tracer()
        try:
            assert tracer is not None
            assert tracer.slow_threshold_ms == 250.0
            with tracing.span("from-env"):
                pass
            tracer.close()
            spans = load_trace(tmp_path)
            assert [s["name"] for s in spans] == ["from-env"]
        finally:
            tracing.set_tracer(None)


class TestStitchedIngestTrace:
    """Acceptance: ``repro ingest --durable DIR --writers N --trace T``
    produces ONE trace tree spanning the coordinator and every writer
    process, verified by walking parent ids across process-tagged
    spans."""

    def test_parallel_ingest_stitches_one_tree(self, tmp_path, capsys):
        stream = tmp_path / "stream.bin"
        assert main([
            "generate", "olympicrio", "--out", str(stream),
            "--events", "16", "--mentions", "4000",
        ]) == 0
        durable = tmp_path / "durable"
        trace_dir = durable / "trace"
        assert main([
            "ingest", str(stream), "--durable", str(durable),
            "--writers", "4", "--backend", "exact",
            "--trace", str(trace_dir), "--batch-size", "512",
        ]) == 0
        capsys.readouterr()

        spans = load_trace(trace_dir, strict=True)
        tree = stitch_spans(spans)
        assert tree["orphans"] == []
        roots = {s["name"] for s in tree["roots"]}
        assert "ingest" in roots
        # Anything else rooting its own trace is per-writer startup,
        # which happens before any work is dispatched.
        assert roots - {"ingest"} <= {"writer.open"}

        ingest_root = next(
            s for s in tree["roots"] if s["name"] == "ingest"
        )
        trace_id = ingest_root["trace_id"]
        by_id = tree["by_id"]
        ingest_spans = [s for s in spans if s["trace_id"] == trace_id]
        # The single ingest trace covers all five processes...
        assert {s["process"] for s in ingest_spans} == {
            "coordinator", "writer-0", "writer-1", "writer-2", "writer-3",
        }
        # ...and every span in it walks up, hop by hop, to the root —
        # including across the process boundary (writer span whose
        # parent lives in the coordinator's span file).
        crossings = 0
        for started in ingest_spans:
            walk = started
            seen = set()
            while walk["parent_id"] is not None:
                assert walk["span_id"] not in seen, "parent cycle"
                seen.add(walk["span_id"])
                parent = by_id[walk["parent_id"]]
                if parent["process"] != walk["process"]:
                    crossings += 1
                walk = parent
            assert walk["span_id"] == ingest_root["span_id"]
        assert crossings > 0, "no cross-process edges were exercised"

        writer_applies = [
            s for s in ingest_spans if s["name"] == "writer.apply_batch"
        ]
        assert writer_applies
        for applied in writer_applies:
            assert by_id[applied["parent_id"]]["name"] == (
                "coordinator.extend_batch"
            )


class TestShardedTraceContext:
    """Shard recovery and large point batches run on pool threads, which
    start with an empty context; each task runs in a copy of the
    caller's, so a traced sharded query or recovery stays one trace."""

    def test_shard_spans_join_the_caller_trace(self, tmp_path):
        tracer = Tracer()
        set_tracer(tracer)
        store = create_durable(
            tmp_path / "store", backend="cm-pbe-1", shards=3,
            universe_size=12, eta=20, width=4, depth=2, fsync="never",
        )
        try:
            store.extend_batch(np.arange(120) % 12, np.arange(120.0))
            with tracer.span("client.request"):
                store.point_query_batch(
                    np.arange(12), np.full(12, 100.0), 10.0
                )
                store.bursty_event_query(100.0, 1.0, 10.0)
        finally:
            store.close()
        with tracer.span("client.recover"):
            recover(tmp_path / "store").close()

        spans = tracer.finished_spans()
        by_id = {s["span_id"]: s for s in spans}
        for root_name, child_prefix in (
            ("client.request", "query."),
            ("client.recover", "durable.recover"),
        ):
            (root,) = [s for s in spans if s["name"] == root_name]
            children = [
                s for s in spans if s["name"].startswith(child_prefix)
            ]
            assert len(children) >= 3
            assert {s["trace_id"] for s in children} == {root["trace_id"]}
        queries = [s for s in spans if s["name"].startswith("query.")]
        assert len(queries) == 6  # 3 shards x (point batch, events)
        for query in queries:
            assert by_id[query["parent_id"]]["name"] == "sharded.fanout"

    def test_pooled_shard_spans_join_the_caller_trace(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(store_module, "POOL_MIN_PAIRS_PER_SHARD", 1)
        tracer = Tracer()
        set_tracer(tracer)
        store = create_durable(
            tmp_path / "store", backend="cm-pbe-1", shards=3,
            universe_size=12, eta=20, width=4, depth=2, fsync="never",
        )
        try:
            store.extend_batch(np.arange(120) % 12, np.arange(120.0))
            with tracer.span("client.request"):
                store.point_query_batch(
                    np.arange(12), np.full(12, 100.0), 10.0
                )
            assert store._pool is not None
        finally:
            store.close()

        spans = tracer.finished_spans()
        by_id = {s["span_id"]: s for s in spans}
        (root,) = [s for s in spans if s["name"] == "client.request"]
        queries = [s for s in spans if s["name"].startswith("query.")]
        assert len(queries) == 3
        for query in queries:
            assert query["trace_id"] == root["trace_id"]
            assert by_id[query["parent_id"]]["name"] == "sharded.fanout"
