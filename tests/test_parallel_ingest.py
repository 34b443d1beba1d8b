"""Multi-process sharded durable ingest.

Four angles on :class:`~repro.core.parallel_ingest.ParallelIngestCoordinator`:

* oracle equivalence — a parallel-ingested directory answers the full
  query matrix identically to the single-process ``shards=N`` path and
  to an exact oracle;
* acknowledgement semantics — acks are monotone, never exceed dispatch,
  and :meth:`flush` is an exact durability barrier;
* parameter/stream validation at the coordinator boundary;
* SIGKILL torture — kill one writer *and* the coordinator mid-ingest,
  then recover every shard to at least its acknowledged prefix.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.core.durable import create_durable, recover
from repro.core.errors import InvalidParameterError, StreamOrderError
from repro.core.parallel_ingest import ParallelIngestCoordinator
from repro.core.store import ExactStore, ShardedBurstStore, shard_routes

UNIVERSE = 13
TAU = 4.0
THETA = 0.4


def _stream(n, universe=UNIVERSE):
    ids = (np.arange(n) * 7) % universe
    ts = np.arange(n, dtype=np.float64) * 0.5
    return ids, ts


def _oracle(ids, ts):
    oracle = ExactStore()
    if len(ids):
        oracle.extend_batch(np.asarray(ids), np.asarray(ts))
    return oracle


def _assert_matrix_identical(store, oracle, universe=UNIVERSE):
    horizon = max(oracle.t_end if oracle.count else 0.0, 1.0) + 2 * TAU
    panel_ids = np.repeat(np.arange(universe), 7)
    panel_ts = np.tile(np.linspace(0.0, horizon, 7), universe)
    np.testing.assert_array_equal(
        store.point_query_batch(panel_ids, panel_ts, TAU),
        oracle.point_query_batch(panel_ids, panel_ts, TAU),
    )
    for event in range(universe):
        assert store.bursty_time_query(event, THETA, TAU) == (
            oracle.bursty_time_query(event, THETA, TAU)
        ), event
    assert store.count == oracle.count


def _ingest_parallel(directory, ids, ts, *, writers, batch=97, **kwargs):
    kwargs.setdefault("fsync", "never")
    kwargs.setdefault("seal_elements", 200)
    with ParallelIngestCoordinator(
        directory, writers=writers, **kwargs
    ) as coordinator:
        for start in range(0, len(ids), batch):
            coordinator.extend_batch(
                ids[start : start + batch], ts[start : start + batch]
            )
        acked = coordinator.flush()
    return acked


class TestOracleEquivalence:
    def test_matches_single_process_sharded_ingest(self, tmp_path):
        ids, ts = _stream(1200)
        acked = _ingest_parallel(tmp_path / "par", ids, ts, writers=3)
        assert acked == 1200
        serial = create_durable(
            tmp_path / "ser", shards=3, seal_elements=200, fsync="never"
        )
        for start in range(0, 1200, 97):
            serial.extend_batch(
                ids[start : start + 97], ts[start : start + 97]
            )
        serial.close()
        par = recover(tmp_path / "par")
        ser = recover(tmp_path / "ser")
        assert isinstance(par, ShardedBurstStore)
        # Same Fibonacci routing => identical per-shard record streams.
        for par_child, ser_child in zip(par.shards, ser.shards):
            assert par_child.count == ser_child.count
        _assert_matrix_identical(par, _oracle(ids, ts))
        horizon = float(ts[-1]) + 2 * TAU
        panel_ids = np.repeat(np.arange(UNIVERSE), 7)
        panel_ts = np.tile(np.linspace(0.0, horizon, 7), UNIVERSE)
        np.testing.assert_array_equal(
            par.point_query_batch(panel_ids, panel_ts, TAU),
            ser.point_query_batch(panel_ids, panel_ts, TAU),
        )
        par.close()
        ser.close()

    def test_counts_column_acks_by_occurrence(self, tmp_path):
        ids = np.asarray([1, 2, 3, 4, 5], dtype=np.int64)
        ts = np.arange(5, dtype=np.float64)
        counts = np.asarray([2, 1, 3, 1, 4], dtype=np.int64)
        with ParallelIngestCoordinator(
            tmp_path / "s", writers=2, fsync="never", seal_elements=50
        ) as coordinator:
            coordinator.extend_batch(ids, ts, counts)
            acked = coordinator.flush()
        assert acked == int(counts.sum())
        recovered = recover(tmp_path / "s")
        oracle = ExactStore()
        oracle.extend_batch(ids, ts, counts)
        _assert_matrix_identical(recovered, oracle, universe=6)
        recovered.close()

    def test_resume_continues_across_sessions(self, tmp_path):
        ids, ts = _stream(800)
        _ingest_parallel(tmp_path / "s", ids[:400], ts[:400], writers=2)
        acked = _ingest_parallel(
            tmp_path / "s", ids[400:], ts[400:], writers=2, resume=True
        )
        assert acked == 800  # cumulative: resumed writers re-count
        recovered = recover(tmp_path / "s")
        _assert_matrix_identical(recovered, _oracle(ids, ts))
        recovered.close()


class TestAckSemantics:
    def test_acks_are_monotone_and_flush_is_exact(self, tmp_path):
        ids, ts = _stream(600)
        with ParallelIngestCoordinator(
            tmp_path / "s", writers=2, fsync="never", seal_elements=100
        ) as coordinator:
            last_acked = 0
            for start in range(0, 600, 60):
                coordinator.extend_batch(
                    ids[start : start + 60], ts[start : start + 60]
                )
                acked = coordinator.acked_records
                assert last_acked <= acked <= coordinator.sent_records
                last_acked = acked
            total = coordinator.flush()
            assert total == coordinator.sent_records == 600
            by_shard = coordinator.acked_by_shard()
            assert sum(by_shard) == 600
            # The acknowledged split matches the routing exactly.
            routes = shard_routes(ids.astype(np.int64), 2)
            for shard in range(2):
                assert by_shard[shard] == int((routes == shard).sum())
            busy = coordinator.writer_busy_seconds()
            assert len(busy) == 2
            assert all(value >= 0.0 for value in busy)
            assert sum(busy) > 0.0

    def test_closed_coordinator_rejects_ingest(self, tmp_path):
        coordinator = ParallelIngestCoordinator(
            tmp_path / "s", writers=1, fsync="never"
        )
        coordinator.close()
        assert coordinator.close() == 0  # idempotent
        with pytest.raises(InvalidParameterError, match="closed"):
            coordinator.extend_batch([1], [0.0])


class TestValidation:
    def test_nonpositive_knobs_rejected(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="writers"):
            ParallelIngestCoordinator(tmp_path / "a", writers=0)
        with pytest.raises(InvalidParameterError, match="queue_depth"):
            ParallelIngestCoordinator(
                tmp_path / "b", writers=1, queue_depth=0
            )
        with pytest.raises(InvalidParameterError, match="fsync"):
            ParallelIngestCoordinator(
                tmp_path / "c", writers=1, fsync="sometimes"
            )

    def test_stream_validation_happens_before_dispatch(self, tmp_path):
        with ParallelIngestCoordinator(
            tmp_path / "s", writers=1, fsync="never"
        ) as coordinator:
            with pytest.raises(StreamOrderError):
                coordinator.extend_batch([1, 2], [5.0, 1.0])
            with pytest.raises(InvalidParameterError, match="1-d"):
                coordinator.extend_batch([[1]], [[0.0]])
            with pytest.raises(InvalidParameterError, match="counts"):
                coordinator.extend_batch([1, 2], [0.0, 1.0], [3])
            with pytest.raises(InvalidParameterError, match="positive"):
                coordinator.extend_batch([1, 2], [0.0, 1.0], [1, 0])
            coordinator.extend_batch([1, 2], [3.0, 4.0])
            # Cross-batch regression against the durable horizon.
            with pytest.raises(StreamOrderError, match="arrived after"):
                coordinator.extend_batch([3], [1.0])
            assert coordinator.flush() == 2

    def test_existing_directory_requires_resume(self, tmp_path):
        _ingest_parallel(tmp_path / "s", *_stream(50), writers=2)
        with pytest.raises(InvalidParameterError, match="resume"):
            ParallelIngestCoordinator(
                tmp_path / "s", writers=2, fsync="never"
            )

    def test_resume_checks_shape_before_spawning(self, tmp_path):
        from repro.core.errors import ShardCountMismatchError

        _ingest_parallel(tmp_path / "s", *_stream(50), writers=2)
        # A shard-count mismatch is no longer a dead end: the named
        # error points at the offline `repro rebalance` fix.
        with pytest.raises(ShardCountMismatchError, match="must match"):
            ParallelIngestCoordinator(
                tmp_path / "s", writers=3, fsync="never", resume=True
            )
        with pytest.raises(InvalidParameterError, match="backend"):
            ParallelIngestCoordinator(
                tmp_path / "s",
                writers=2,
                backend="direct",
                cell="pbe1",
                eta=60,
                fsync="never",
                resume=True,
            )

    def test_single_store_layout_rejected(self, tmp_path):
        create_durable(tmp_path / "s", seal_elements=5).close()
        with pytest.raises(InvalidParameterError, match="sharded-durable"):
            ParallelIngestCoordinator(
                tmp_path / "s", writers=1, fsync="never", resume=True
            )


_CHILD_SCRIPT = textwrap.dedent(
    """
    import json, os, sys, time

    import numpy as np


    def main():
        from repro.core.parallel_ingest import ParallelIngestCoordinator
        from repro.core.tracing import (
            JsonlSpanExporter, Tracer, set_tracer, span,
        )

        directory, state_path, writers, n, universe, trace_dir = (
            sys.argv[1:7]
        )
        writers, n, universe = int(writers), int(n), int(universe)
        ids = (np.arange(n) * 7) % universe
        ts = np.arange(n, dtype=np.float64) * 0.5
        # Same wiring as the CLI: the coordinator process owns its own
        # tracer; the writers build theirs from the shipped config.
        set_tracer(Tracer(
            exporters=[JsonlSpanExporter(
                os.path.join(trace_dir, "spans-coordinator.jsonl")
            )],
            process="coordinator",
        ))
        coordinator = ParallelIngestCoordinator(
            directory,
            writers=writers,
            fsync="never",
            seal_elements=400,
            queue_depth=4,
            trace_dir=trace_dir,
        )
        batch = 137
        for start in range(0, n, batch):
            stop = min(start + batch, n)
            with span("ingest.batch"):
                coordinator.extend_batch(ids[start:stop], ts[start:stop])
            # Snapshot the acknowledged prefixes (only ever an
            # UNDER-estimate of what is durable: an ack is sent after
            # the WAL append returned) plus the writer pids so the
            # parent can SIGKILL one writer and then the coordinator.
            state = {
                "acked": coordinator.acked_by_shard(),
                "writer_pids": [
                    p.pid for p in coordinator._processes
                ],
            }
            tmp = state_path + ".tmp"
            with open(tmp, "w") as handle:
                json.dump(state, handle)
            os.replace(tmp, state_path)
            # Pace the ingest so the kills land mid-stream instead of
            # racing a sub-second clean completion.
            time.sleep(0.001)
        coordinator.close()


    if __name__ == "__main__":
        # Spawned writer processes re-import this file as __main__;
        # the guard keeps them from re-running the coordinator.
        main()
    """
)


def _read_state(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


class TestSigkillTorture:
    """SIGKILL one writer, then the coordinator; every shard must
    recover to at least its acknowledged prefix — and to an exact
    prefix of its own sub-stream, never a torn or reordered one."""

    N = 20_000
    WRITERS = 2

    def test_acknowledged_prefixes_survive(self, tmp_path):
        directory = tmp_path / "store"
        state_path = tmp_path / "state.json"
        trace_dir = tmp_path / "trace"
        trace_dir.mkdir()
        script = tmp_path / "torture_child.py"
        script.write_text(_CHILD_SCRIPT)
        env = dict(os.environ)
        src = os.path.join(
            os.path.dirname(os.path.dirname(__file__)), "src"
        )
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.Popen(
            [
                sys.executable,
                str(script),
                str(directory),
                str(state_path),
                str(self.WRITERS),
                str(self.N),
                str(UNIVERSE),
                str(trace_dir),
            ],
            env=env,
        )
        writer_pids = []
        try:
            deadline = time.monotonic() + 90.0
            state = None
            while time.monotonic() < deadline:
                state = _read_state(state_path)
                if state is not None and sum(state["acked"]) >= 2_000:
                    break
                if child.poll() is not None:
                    break
                time.sleep(0.01)
            assert state is not None, "child never published state"
            writer_pids = state["writer_pids"]
            # Kill one writer first, then the coordinator itself.
            if child.poll() is None:
                try:
                    os.kill(writer_pids[0], signal.SIGKILL)
                except ProcessLookupError:
                    pass
                time.sleep(0.05)
                os.kill(child.pid, signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
            # SIGKILL skips atexit: orphaned daemon writers must die
            # too (this is the "whole machine lost power" shape).
            for pid in writer_pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass
        state = _read_state(state_path)
        acked = state["acked"]
        assert sum(acked) >= 2_000, "kill landed before the window"
        assert sum(acked) < self.N, "child finished before the kill"
        # Give any just-killed writer a moment to disappear so recover
        # sees a quiescent directory.
        time.sleep(0.2)
        recovered = recover(directory)
        assert isinstance(recovered, ShardedBurstStore)
        ids, ts = _stream(self.N)
        routes = shard_routes(ids.astype(np.int64), self.WRITERS)
        event_routes = shard_routes(
            np.arange(UNIVERSE, dtype=np.int64), self.WRITERS
        )
        for index, shard in enumerate(recovered.shards):
            mask = routes == index
            shard_ids, shard_ts = ids[mask], ts[mask]
            took = shard.count
            # The acknowledged-prefix oracle, per shard.
            assert acked[index] <= took <= len(shard_ids), (
                index,
                acked[index],
                took,
            )
            oracle = _oracle(shard_ids[:took], shard_ts[:took])
            for event in np.arange(UNIVERSE)[
                event_routes == index
            ].tolist():
                assert shard.bursty_time_query(event, THETA, TAU) == (
                    oracle.bursty_time_query(event, THETA, TAU)
                ), (index, event)
        recovered.close()
        self._check_trace_survives_the_kill(trace_dir)

    def _check_trace_survives_the_kill(self, trace_dir):
        """Span logs are torn-write safe: a SIGKILL'd process loses at
        most the final, newline-less line of its own span file, and the
        surviving spans still stitch across the process boundary."""
        from repro.core.tracing import read_span_file, stitch_spans

        files = sorted(trace_dir.glob("spans-*.jsonl"))
        assert len(files) == 1 + self.WRITERS, files
        spans = []
        for path in files:
            # strict=True: a torn *tail* is fine, a mid-file tear is
            # corruption and raises.
            spans.extend(read_span_file(path, strict=True))
        assert spans, "no spans survived the kill"
        tree = stitch_spans(spans)
        by_id = tree["by_id"]
        # Orphans are allowed — their parents were in flight (a span is
        # only exported when it *closes*) — but whatever has a surviving
        # parent must chain upward without cycles.
        for span_dict in spans:
            walk, seen = span_dict, set()
            while (
                walk["parent_id"] is not None
                and walk["parent_id"] in by_id
            ):
                assert walk["span_id"] not in seen, "parent cycle"
                seen.add(walk["span_id"])
                walk = by_id[walk["parent_id"]]
        # And the stitching is cross-process: some writer span's parent
        # survived in the coordinator's file.
        stitched = [
            s
            for s in spans
            if s["process"].startswith("writer-")
            and s["parent_id"] in by_id
            and by_id[s["parent_id"]]["process"] == "coordinator"
        ]
        assert stitched, "no surviving cross-process span edges"


class TestAdaptiveCoalescing:
    """Small-frame coalescing: many tiny ``extend_batch`` calls collapse
    into few writer-queue dispatches, with answers — and per-shard
    routing — identical to an uncoalesced ingest."""

    def test_tiny_batches_coalesce_and_round_trip(self, tmp_path):
        ids, ts = _stream(1000)
        with ParallelIngestCoordinator(
            tmp_path / "co",
            writers=2,
            fsync="never",
            seal_elements=200,
            coalesce_bytes=1 << 20,
        ) as coordinator:
            dispatched_before = coordinator._batches_total._value
            absorbed_before = coordinator._coalesced_frames._value
            for start in range(0, 1000, 5):  # 200 five-record frames
                coordinator.extend_batch(
                    ids[start : start + 5], ts[start : start + 5]
                )
            acked = coordinator.flush()
            dispatched = (
                coordinator._batches_total._value - dispatched_before
            )
            absorbed = (
                coordinator._coalesced_frames._value - absorbed_before
            )
        assert acked == 1000
        # 200 frames fanned out over 2 writers collapsed into (far)
        # fewer queue dispatches than frames; the rest were absorbed.
        assert dispatched <= 8
        assert absorbed >= 200 - dispatched
        recovered = recover(tmp_path / "co")
        _assert_matrix_identical(recovered, _oracle(ids, ts))
        counts_coalesced = [child.count for child in recovered.shards]
        recovered.close()

        # Identical per-shard routing to an uncoalesced run.
        _ingest_parallel(
            tmp_path / "plain", ids, ts, writers=2, batch=5
        )
        plain = recover(tmp_path / "plain")
        assert [c.count for c in plain.shards] == counts_coalesced
        plain.close()

    def test_mixed_counts_frames_coalesce_exactly(self, tmp_path):
        ids = np.asarray([1, 2, 3, 4, 5, 6], dtype=np.int64)
        ts = np.arange(6, dtype=np.float64)
        counts = np.asarray([2, 1, 3, 1, 4, 2], dtype=np.int64)
        with ParallelIngestCoordinator(
            tmp_path / "s",
            writers=2,
            fsync="never",
            seal_elements=50,
            coalesce_bytes=1 << 20,
        ) as coordinator:
            # Alternate counted and plain frames so the coalescer has
            # to normalize the missing counts column on concatenation.
            coordinator.extend_batch(ids[:3], ts[:3], counts[:3])
            coordinator.extend_batch(ids[3:], ts[3:])
            acked = coordinator.flush()
        assert acked == int(counts[:3].sum()) + 3
        recovered = recover(tmp_path / "s")
        oracle = ExactStore()
        oracle.extend_batch(ids[:3], ts[:3], counts[:3])
        oracle.extend_batch(ids[3:], ts[3:])
        _assert_matrix_identical(recovered, oracle, universe=7)
        recovered.close()

    def test_latency_budget_flushes_aged_buffers(self, tmp_path):
        ids, ts = _stream(40)
        with ParallelIngestCoordinator(
            tmp_path / "s",
            writers=1,
            fsync="never",
            seal_elements=200,
            coalesce_bytes=1 << 20,
            coalesce_ms=0.0001,
        ) as coordinator:
            before = coordinator._batches_total._value
            coordinator.extend_batch(ids[:20], ts[:20])
            time.sleep(0.01)
            # The aged buffer drains at the next batch boundary, well
            # before any byte budget is reached.
            coordinator.extend_batch(ids[20:], ts[20:])
            mid = coordinator._batches_total._value
            assert mid - before >= 1
            coordinator.flush()
        recovered = recover(tmp_path / "s")
        _assert_matrix_identical(recovered, _oracle(ids, ts))
        recovered.close()

    def test_coalesce_validation(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            ParallelIngestCoordinator(
                tmp_path / "a", writers=1, coalesce_bytes=0
            )
        with pytest.raises(InvalidParameterError):
            ParallelIngestCoordinator(
                tmp_path / "b", writers=1, coalesce_ms=-1.0
            )
        with pytest.raises(InvalidParameterError):
            # A latency budget without a byte budget is meaningless.
            ParallelIngestCoordinator(
                tmp_path / "c", writers=1, coalesce_ms=5.0
            )
