"""Durable store lifecycle: seal/manifest mechanics, resume semantics,
concurrent ingest+query, and the context-manager surface."""

from __future__ import annotations

import json
import os
import threading
import time

import numpy as np
import pytest

import repro.core.durable as durable_mod
from repro.baselines.exact import ExactBurstStore
from repro.core.durable import (
    MANIFEST_NAME,
    DurableBurstStore,
    create_durable,
    recover,
)
from repro.core.errors import (
    InvalidParameterError,
    RecoveryError,
    SerializationError,
    StreamOrderError,
)
from repro.core.monitor import BurstMonitor, MonitoredAnalyzer
from repro.core.serialize import load_store, save_store
from repro.core.store import ExactStore, ShardedBurstStore, create_store


def _stream(n, universe=6):
    ids = (np.arange(n) * 5) % universe
    ts = np.arange(n, dtype=np.float64)
    return ids, ts


class TestLifecycle:
    def test_seal_threshold_rolls_segments(self, tmp_path):
        with create_durable(tmp_path / "s", seal_elements=10) as store:
            ids, ts = _stream(35)
            store.extend_batch(ids, ts)
            assert store.n_segments == 3
            assert store._memtable_elements == 5
            assert store.count == 35
            names = sorted(os.listdir(tmp_path / "s"))
            assert "segment-000002.beds" in names
            assert sum(1 for n in names if n.startswith("wal-")) == 1

    def test_counts_weigh_toward_the_seal_threshold(self, tmp_path):
        with create_durable(tmp_path / "s", seal_elements=10) as store:
            store.extend_batch([1, 2, 3], [0.0, 1.0, 2.0], [4, 4, 4])
            # 4 + 4 crosses at the third record (cumulative 12 >= 10).
            assert store.n_segments == 1
            assert store.count == 12
            assert store._memtable_elements == 0

    def test_explicit_seal_and_empty_seal_noop(self, tmp_path):
        with create_durable(tmp_path / "s", seal_elements=1000) as store:
            store.append(1, 0.0)
            store.seal()
            assert store.n_segments == 1
            store.seal()  # empty memtable: no-op
            assert store.n_segments == 1

    def test_manifest_tracks_segments_and_wal(self, tmp_path):
        store = create_durable(tmp_path / "s", seal_elements=5)
        ids, ts = _stream(12)
        store.extend_batch(ids, ts)
        store.close()
        manifest = json.loads((tmp_path / "s" / MANIFEST_NAME).read_text())
        assert manifest["kind"] == "durable"
        assert manifest["backend"] == "exact"
        assert manifest["segments"] == [
            "segment-000000.beds",
            "segment-000001.beds",
        ]
        assert manifest["wal_seq"] == 3
        assert manifest["t_end"] == 9.0  # horizon of the sealed records

    def test_closed_store_rejects_writes_but_serves_queries(self, tmp_path):
        store = create_durable(tmp_path / "s", seal_elements=100)
        store.append(1, 0.0)
        value = store.point_query(1, 1.0, 2.0)
        store.close()
        store.close()  # idempotent
        assert store.point_query(1, 1.0, 2.0) == value
        with pytest.raises(InvalidParameterError, match="closed"):
            store.append(1, 2.0)

    def test_stream_order_enforced_across_seals(self, tmp_path):
        with create_durable(tmp_path / "s", seal_elements=2) as store:
            store.extend_batch([1, 2, 3], [1.0, 2.0, 3.0])
            assert store.n_segments == 1  # fresh memtable since then
            with pytest.raises(StreamOrderError):
                store.append(9, 0.5)

    def test_directory_collision_requires_resume(self, tmp_path):
        create_durable(tmp_path / "s", seal_elements=5).close()
        with pytest.raises(InvalidParameterError, match="resume"):
            create_durable(tmp_path / "s", seal_elements=5)
        again = create_durable(
            tmp_path / "s", seal_elements=5, resume=True
        )
        again.close()

    def test_resume_prefers_the_manifest_config(self, tmp_path):
        store = create_durable(
            tmp_path / "s", backend="exact", seal_elements=7
        )
        store.extend_batch(*_stream(10))
        store.close()
        resumed = create_durable(
            tmp_path / "s", backend="cm-pbe-1", seal_elements=999,
            resume=True,
        )
        assert resumed.child_backend == "exact"
        assert resumed.seal_elements == 7
        resumed.close()

    def test_nested_durable_rejected(self):
        with pytest.raises(InvalidParameterError, match="nest"):
            create_store("durable", backend="durable")

    def test_ephemeral_mode_needs_no_directory(self):
        store = create_store("durable", backend="exact", seal_elements=3)
        store.extend_batch(*_stream(10))
        assert store.directory is None
        assert store.n_segments == 3
        assert store.count == 10


class TestRecovery:
    def test_wal_tail_replays_into_the_memtable(self, tmp_path):
        store = create_durable(tmp_path / "s", seal_elements=8)
        ids, ts = _stream(20)
        store.extend_batch(ids, ts)
        store.close()
        recovered = recover(tmp_path / "s")
        assert recovered.n_segments == 2
        assert recovered._memtable_elements == 4
        assert recovered.count == 20
        assert recovered.t_end == 19.0
        recovered.close()

    def test_recovery_is_idempotent(self, tmp_path):
        store = create_durable(tmp_path / "s", seal_elements=8)
        store.extend_batch(*_stream(21))
        store.close()
        first = recover(tmp_path / "s")
        first.close()
        second = recover(tmp_path / "s")
        panel = [(int(e), float(t)) for e in range(6) for t in range(25)]
        ids = [e for e, _ in panel]
        ts = [t for _, t in panel]
        third = recover(tmp_path / "s")
        np.testing.assert_array_equal(
            second.point_query_batch(ids, ts, 3.0),
            third.point_query_batch(ids, ts, 3.0),
        )
        second.close()
        third.close()

    def test_recovered_answers_match_exact_oracle(self, tmp_path):
        store = create_durable(tmp_path / "s", seal_elements=6)
        ids, ts = _stream(40)
        store.extend_batch(ids, ts)
        store.close()
        oracle = ExactStore()
        oracle.extend_batch(ids, ts)
        recovered = recover(tmp_path / "s")
        panel_ids = np.repeat(np.arange(6), 9)
        panel_ts = np.tile(np.linspace(0.0, 44.0, 9), 6)
        np.testing.assert_array_equal(
            recovered.point_query_batch(panel_ids, panel_ts, 3.0),
            oracle.point_query_batch(panel_ids, panel_ts, 3.0),
        )
        for event in range(6):
            assert recovered.bursty_time_query(
                event, 0.4, 3.0
            ) == oracle.bursty_time_query(event, 0.4, 3.0)
        assert recovered.bursty_event_query(
            20.0, 0.4, 3.0
        ) == oracle.bursty_event_query(20.0, 0.4, 3.0)
        recovered.close()

    def test_recover_without_manifest_raises(self, tmp_path):
        with pytest.raises(RecoveryError, match="no durable manifest"):
            recover(tmp_path)

    def test_recover_with_malformed_manifest_raises(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(RecoveryError, match="unreadable"):
            recover(tmp_path)

    def test_missing_segment_raises_recovery_error(self, tmp_path):
        store = create_durable(tmp_path / "s", seal_elements=4)
        store.extend_batch(*_stream(10))
        store.close()
        os.unlink(tmp_path / "s" / "segment-000000.beds")
        with pytest.raises(RecoveryError, match="missing segment"):
            recover(tmp_path / "s")

    def test_single_store_dir_rejected_by_durable_on_sharded(self, tmp_path):
        create_durable(tmp_path / "s", shards=2, seal_elements=5).close()
        with pytest.raises(RecoveryError, match="sharded-durable"):
            DurableBurstStore(tmp_path / "s", resume=True)

    def test_recovery_after_resumed_ingest(self, tmp_path):
        store = create_durable(tmp_path / "s", seal_elements=8)
        ids, ts = _stream(10)
        store.extend_batch(ids, ts)
        store.close()
        resumed = recover(tmp_path / "s")
        resumed.extend_batch(ids, ts + 10.0)
        resumed.close()
        final = recover(tmp_path / "s")
        assert final.count == 20
        oracle = ExactStore()
        oracle.extend_batch(np.concatenate([ids, ids]),
                            np.concatenate([ts, ts + 10.0]))
        assert final.bursty_event_query(
            12.0, 0.4, 2.0
        ) == oracle.bursty_event_query(12.0, 0.4, 2.0)
        final.close()


class TestShardedDurable:
    def test_composite_layout_and_recovery(self, tmp_path):
        store = create_durable(
            tmp_path / "s", shards=3, seal_elements=5
        )
        assert isinstance(store, ShardedBurstStore)
        ids, ts = _stream(45, universe=11)
        store.extend_batch(ids, ts)
        store.close()
        names = sorted(os.listdir(tmp_path / "s"))
        assert names[0] == MANIFEST_NAME
        assert names[1:] == ["shard-000", "shard-001", "shard-002"]
        recovered = recover(tmp_path / "s")
        assert isinstance(recovered, ShardedBurstStore)
        assert recovered.count == 45
        oracle = ExactStore()
        oracle.extend_batch(ids, ts)
        panel_ids = np.repeat(np.arange(11), 5)
        panel_ts = np.tile(np.linspace(0.0, 50.0, 5), 11)
        np.testing.assert_array_equal(
            recovered.point_query_batch(panel_ids, panel_ts, 4.0),
            oracle.point_query_batch(panel_ids, panel_ts, 4.0),
        )
        assert recovered.bursty_event_query(
            22.0, 0.3, 4.0
        ) == oracle.bursty_event_query(22.0, 0.3, 4.0)
        recovered.close()

    def test_sharded_resume_requires_flag(self, tmp_path):
        create_durable(tmp_path / "s", shards=2, seal_elements=5).close()
        with pytest.raises(InvalidParameterError, match="resume"):
            create_durable(tmp_path / "s", shards=2, seal_elements=5)
        resumed = create_durable(
            tmp_path / "s", shards=2, seal_elements=5, resume=True
        )
        resumed.close()

    def test_wrapper_seal_and_flush_fan_out(self, tmp_path):
        store = create_durable(tmp_path / "s", shards=2, seal_elements=100)
        store.extend_batch(*_stream(10))
        store.flush()
        store.seal()
        assert all(child.n_segments >= 1 for child in store.shards
                   if child._memtable_elements == 0)
        assert store.count == 10
        store.close()


class TestConcurrentIngestAndQuery:
    def test_readers_never_see_torn_state(self, tmp_path):
        """One writer appending, two readers hammering queries.

        Every reader-visible answer must equal the exact oracle's answer
        over SOME acknowledged prefix of the stream — a torn read
        (partially applied batch, half-merged view) could not satisfy
        that for any prefix.  Prefix counts are recovered from the
        store's own count, which only moves under the writer lock.
        """
        ids, ts = _stream(400, universe=5)
        prefix_answers = {}
        oracle = ExactBurstStore()
        boundary = 0
        for n in range(0, 401, 8):  # batch size below
            while boundary < n:
                oracle.update(int(ids[boundary]), float(ts[boundary]))
                boundary += 1
            prefix_answers[n] = {
                event: oracle.burstiness(event, 200.0, 50.0)
                for event in range(5)
            }
        store = create_durable(
            tmp_path / "s", seal_elements=64, fsync="never"
        )
        errors = []
        stop = threading.Event()

        def writer():
            for start in range(0, 400, 8):
                store.extend_batch(
                    ids[start : start + 8], ts[start : start + 8]
                )
            stop.set()

        def reader():
            while not stop.is_set() or not errors:
                seen = store.count
                if seen % 8 != 0:
                    errors.append(f"torn count {seen}")
                    return
                values = {
                    event: store.point_query(event, 200.0, 50.0)
                    for event in range(5)
                }
                again = store.count
                # The view is an immutable snapshot: all five answers
                # must come from one acknowledged prefix in [seen, again].
                candidates = [
                    n for n in prefix_answers if seen <= n <= again
                ]
                if not any(
                    prefix_answers[n] == values for n in candidates
                ):
                    errors.append(
                        f"no prefix in [{seen}, {again}] matches {values}"
                    )
                    return
                if stop.is_set():
                    return

        threads = [threading.Thread(target=reader) for _ in range(2)]
        write_thread = threading.Thread(target=writer)
        for thread in threads:
            thread.start()
        write_thread.start()
        write_thread.join()
        for thread in threads:
            thread.join()
        store.close()
        assert not errors, errors[:3]


class TestBackgroundSeal:
    def test_background_segments_match_inline_byte_for_byte(self, tmp_path):
        """Moving the seal off the hot path must not change what lands
        on disk: same stream, same thresholds => identical segments."""
        ids, ts = _stream(60)
        inline = create_durable(
            tmp_path / "inline", seal_elements=8, fsync="never"
        )
        inline.extend_batch(ids, ts)
        inline.close()
        background = create_durable(
            tmp_path / "bg",
            seal_elements=8,
            fsync="never",
            background_seal=True,
        )
        background.extend_batch(ids, ts)
        background.drain_seals()
        background.close()
        inline_segments = sorted(
            name
            for name in os.listdir(tmp_path / "inline")
            if name.startswith("segment-")
        )
        bg_segments = sorted(
            name
            for name in os.listdir(tmp_path / "bg")
            if name.startswith("segment-")
        )
        assert bg_segments == inline_segments
        assert len(bg_segments) == 7  # 60 records through an 8-cap
        for name in bg_segments:
            assert (tmp_path / "bg" / name).read_bytes() == (
                tmp_path / "inline" / name
            ).read_bytes(), name
        first = recover(tmp_path / "inline")
        second = recover(tmp_path / "bg")
        assert first.count == second.count == 60
        panel_ids = np.repeat(np.arange(6), 9)
        panel_ts = np.tile(np.linspace(0.0, 70.0, 9), 6)
        np.testing.assert_array_equal(
            second.point_query_batch(panel_ids, panel_ts, 3.0),
            first.point_query_batch(panel_ids, panel_ts, 3.0),
        )
        first.close()
        second.close()

    def test_backpressure_blocks_and_never_drops(
        self, tmp_path, monkeypatch
    ):
        real_save = durable_mod.save_store

        def slow_save(store):
            time.sleep(0.02)
            return real_save(store)

        monkeypatch.setattr(durable_mod, "save_store", slow_save)
        store = create_durable(
            tmp_path / "s",
            seal_elements=4,
            fsync="never",
            background_seal=True,
            max_unsealed=1,
        )
        waits_before = store._backpressure_waits.value
        seconds_before = store._backpressure_seconds.value
        ids, ts = _stream(48)
        store.extend_batch(ids, ts)  # 12 generations through a 1-deep gate
        assert store._backpressure_waits.value > waits_before
        assert store._backpressure_seconds.value > seconds_before
        assert store.seal_queue_depth <= 1
        assert store.count == 48  # blocked, never dropped
        store.drain_seals()
        assert store.seal_queue_depth == 0
        assert store.seal_lag_elements == 0
        store.close()
        recovered = recover(tmp_path / "s")
        assert recovered.count == 48
        recovered.close()

    def test_seal_failure_surfaces_and_records_stay_recoverable(
        self, tmp_path, monkeypatch
    ):
        store = create_durable(
            tmp_path / "s",
            seal_elements=4,
            fsync="never",
            background_seal=True,
        )

        def boom(_store):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(durable_mod, "save_store", boom)
        ids, ts = _stream(4)
        store.extend_batch(ids, ts)  # one frozen generation; worker dies
        with pytest.raises(SerializationError, match="background seal"):
            store.drain_seals()
        monkeypatch.undo()
        # The frozen generation is still WAL-backed: close succeeds and
        # recovery replays every acknowledged record.
        store.close()
        recovered = recover(tmp_path / "s")
        assert recovered.count == 4
        oracle = ExactStore()
        oracle.extend_batch(ids, ts)
        for event in range(6):
            assert recovered.point_query(event, 2.0, 3.0) == (
                oracle.point_query(event, 2.0, 3.0)
            )
        recovered.close()

    def test_drain_without_background_sealing_is_a_noop(self, tmp_path):
        with create_durable(tmp_path / "s", seal_elements=4) as store:
            store.extend_batch(*_stream(10))
            store.drain_seals()
            assert store.seal_queue_depth == 0


class TestSnapshotConsistencyMidBackgroundSeal:
    """Concurrent readers racing the background seal thread must always
    observe a batch-boundary snapshot of the stream — the pre-seal view
    or the post-seal view, never a torn mix — for every durable
    backend, not just the exact one."""

    @pytest.mark.parametrize(
        "backend,cfg",
        [
            ("exact", {}),
            (
                "cm-pbe-1",
                dict(universe_size=5, eta=40, width=8, depth=3, seed=0),
            ),
        ],
        ids=["exact", "cm-pbe-1"],
    )
    def test_readers_see_batch_boundary_prefixes(
        self, tmp_path, backend, cfg
    ):
        ids, ts = _stream(400, universe=5)
        batch = 8
        panel_ids = np.arange(5)
        panel_ts = np.full(5, 200.0)

        def prefix_answers_for(n):
            # An ephemeral durable store with the same seal threshold
            # partitions the prefix into the same generations, so its
            # answers are exact per-prefix oracles even for the sketch
            # backend.
            with create_store(
                "durable", backend=backend, seal_elements=64, **cfg
            ) as oracle:
                if n:
                    oracle.extend_batch(ids[:n], ts[:n])
                return tuple(
                    oracle.point_query_batch(panel_ids, panel_ts, 50.0)
                )

        prefix_answers = {
            n: prefix_answers_for(n) for n in range(0, 401, batch)
        }
        store = create_durable(
            tmp_path / "s",
            backend=backend,
            seal_elements=64,
            fsync="never",
            background_seal=True,
            **cfg,
        )
        errors = []
        stop = threading.Event()

        def writer():
            for start in range(0, 400, batch):
                store.extend_batch(
                    ids[start : start + batch], ts[start : start + batch]
                )
            stop.set()

        def reader():
            while not stop.is_set() and not errors:
                seen = store.count
                if seen % batch != 0:
                    errors.append(f"torn count {seen}")
                    return
                # One batch call = one view fetch = one atomic snapshot.
                values = tuple(
                    store.point_query_batch(panel_ids, panel_ts, 50.0)
                )
                again = store.count
                candidates = [
                    n for n in prefix_answers if seen <= n <= again
                ]
                if not any(
                    prefix_answers[n] == values for n in candidates
                ):
                    errors.append(
                        f"no prefix in [{seen}, {again}] matches {values}"
                    )
                    return

        threads = [threading.Thread(target=reader) for _ in range(2)]
        write_thread = threading.Thread(target=writer)
        for thread in threads:
            thread.start()
        write_thread.start()
        write_thread.join()
        for thread in threads:
            thread.join()
        assert not errors, errors[:3]
        store.drain_seals()
        assert (
            tuple(store.point_query_batch(panel_ids, panel_ts, 50.0))
            == prefix_answers[400]
        )
        store.close()
        recovered = recover(tmp_path / "s")
        assert recovered.count == 400
        recovered.close()


class TestSerializationAndComposition:
    def test_round_trip_preserves_segments_and_memtable(self, tmp_path):
        store = create_durable(tmp_path / "s", seal_elements=6)
        ids, ts = _stream(20)
        store.extend_batch(ids, ts)
        blob = save_store(store)
        loaded = load_store(blob)
        assert loaded.directory is None
        assert loaded.n_segments == store.n_segments
        assert loaded.count == store.count
        assert save_store(loaded) == blob
        store.close()

    def test_merge_concatenates_time_ranges(self):
        left = create_store("durable", backend="exact", seal_elements=4)
        right = create_store("durable", backend="exact", seal_elements=4)
        ids, ts = _stream(20)
        left.extend_batch(ids[:12], ts[:12])
        right.extend_batch(ids[12:], ts[12:])
        merged = left.merge(right)
        oracle = ExactStore()
        oracle.extend_batch(ids, ts)
        for event in range(6):
            for t in (3.0, 11.0, 19.0):
                assert merged.point_query(event, t, 2.0) == (
                    oracle.point_query(event, t, 2.0)
                )
        # Parts stay independently usable after the merge.
        right.append(0, 30.0)
        assert merged.count == 20

    def test_merge_rejects_mismatched_children(self):
        a = create_store("durable", backend="exact")
        b = create_store("durable", backend="direct", cell="pbe1", eta=60)
        with pytest.raises(InvalidParameterError, match="differ"):
            a.merge(b)

    def test_merge_rejects_another_child_config(self):
        # Both children are cm-pbe-1, but their grids hash differently:
        # the merge used to succeed and every later query raised.
        a = create_store(
            "durable", backend="cm-pbe-1", width=8, seed=0, universe_size=16
        )
        b = create_store(
            "durable", backend="cm-pbe-1", width=4, seed=5, universe_size=16
        )
        a.append(1, 1.0)
        b.append(1, 5.0)
        with pytest.raises(InvalidParameterError, match="configurations"):
            a.merge(b)

    def test_durable_store_accounts_its_lifecycle(self, tmp_path):
        with create_durable(tmp_path / "s", seal_elements=4) as store:
            store.append(1, 0.0)
            store.extend_batch([2, 3], [1.0, 2.0])
            store.seal()
            store.flush()
            assert store.n_segments == 1
        with pytest.raises(InvalidParameterError, match="closed"):
            store.append(4, 3.0)
        snapshot = store.metrics_snapshot()
        counters = snapshot["counters"]
        assert counters["store_elements_ingested_total"]["value"] == 3.0

    def test_monitored_analyzer_rides_a_durable_store(self, tmp_path):
        monitor = BurstMonitor(tau=2.0, theta=0.5)
        store = create_durable(tmp_path / "s", seal_elements=8)
        analyzer = MonitoredAnalyzer(monitor, store=store)
        for i in range(30):
            analyzer.update(1, float(i))
        assert store.count == 30
        assert store.n_segments >= 3
        # Historical queries and live alerting share one ingest path.
        assert analyzer.historical_burstiness(
            1, 15.0, 2.0
        ) == store.point_query(1, 15.0, 2.0)
        store.close()


class TestContextManagers:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: create_store("exact"),
            lambda: create_store("cm-pbe-1", universe_size=8, eta=40,
                                 width=8, depth=3, seed=0),
            lambda: create_store("sharded", shards=2, backend="exact"),
            lambda: create_store("durable", backend="exact"),
        ],
        ids=["exact", "cm-pbe-1", "sharded", "durable"],
    )
    def test_every_store_is_a_context_manager(self, factory):
        with factory() as store:
            store.update(1, 0.0)
            store.append(1, 1.0)
            store.flush()
            assert store.count == 2
        store.close()  # close after close: still idempotent
        counters = store.metrics_snapshot()["counters"]
        assert counters["store_elements_ingested_total"]["value"] == 2

    def test_sharded_close_chains_to_durable_children(self, tmp_path):
        store = create_durable(tmp_path / "s", shards=2, seal_elements=5)
        store.extend_batch(*_stream(4))
        store.close()
        for child in store.shards:
            with pytest.raises(InvalidParameterError, match="closed"):
                child.append(1, 99.0)


class TestRecoveryLeakAndLayout:
    """Satellite bugfixes: failing sharded recovery must not leak the
    shards that already opened, and the manifest's shard count is
    validated against the directory layout before any shard opens."""

    def _build(self, path, shards=3):
        store = create_durable(path, shards=shards, seal_elements=5)
        ids, ts = _stream(45, universe=11)
        store.extend_batch(ids, ts)
        store.close()
        return ids, ts

    def test_failing_shard_closes_already_opened_shards(
        self, tmp_path, monkeypatch
    ):
        self._build(tmp_path / "s")
        # Doctor one shard so its recovery raises after the others
        # have opened.
        bad_manifest = tmp_path / "s" / "shard-002" / MANIFEST_NAME
        bad_manifest.write_bytes(b"{this is not json")

        created = []
        real_cls = durable_mod.DurableBurstStore

        class Tracking(real_cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                # Only fully-constructed stores can leak; the doctored
                # shard raises inside __init__ and never lands here.
                created.append(self)

        monkeypatch.setattr(durable_mod, "DurableBurstStore", Tracking)
        with pytest.raises(RecoveryError):
            recover(tmp_path / "s", background_seal=True)
        opened = [
            child for child in created if hasattr(child, "_closed")
        ]
        assert opened, "no shard opened before the doctored one failed"
        # Every successfully opened shard was closed before the error
        # propagated: no leaked WAL handles, no leaked seal threads.
        assert all(child._closed for child in opened)
        assert not [
            t
            for t in threading.enumerate()
            if t.name.startswith("durable-seal")
        ]

    def test_missing_shard_dir_raises_named_layout_error(self, tmp_path):
        import shutil

        from repro.core.errors import ShardLayoutError

        self._build(tmp_path / "s")
        shutil.rmtree(tmp_path / "s" / "shard-001")
        with pytest.raises(ShardLayoutError, match="missing shard-001"):
            recover(tmp_path / "s")

    def test_extra_shard_dir_raises_named_layout_error(self, tmp_path):
        from repro.core.errors import ShardLayoutError

        self._build(tmp_path / "s")
        (tmp_path / "s" / "shard-003").mkdir()
        with pytest.raises(ShardLayoutError, match="extra shard-003"):
            recover(tmp_path / "s")

    def test_layout_error_is_a_recovery_error(self):
        from repro.core.errors import ShardLayoutError

        assert issubclass(ShardLayoutError, RecoveryError)

    def test_unknown_keyword_refused_before_the_manifest(self, tmp_path):
        # A keyword the child backend does not take (a typo, or a removed
        # option such as compact or start_method) must not reach the
        # manifest's child_cfg, which every later resume feeds back to
        # the backend.
        from repro.core.parallel_ingest import ParallelIngestCoordinator

        with pytest.raises(TypeError):
            create_durable(tmp_path / "s", shards=2, not_an_option=1)
        with pytest.raises(TypeError):
            ParallelIngestCoordinator(
                tmp_path / "p", writers=2, not_an_option=1
            )
        assert not (tmp_path / "s").exists()
        assert not (tmp_path / "p").exists()


class TestStaleSweepVsBackgroundSeal:
    """Satellite bugfix: the stale-file sweep must not reap a segment a
    background seal has written but not yet committed to the manifest."""

    def test_sweep_protects_mid_seal_segment(self, tmp_path, monkeypatch):
        from repro.core.serialize import atomic_write_bytes as real_write

        barrier = threading.Event()
        release = threading.Event()

        def gated(path, data, *, fsync=True):
            written = real_write(path, data, fsync=fsync)
            name = os.path.basename(os.fspath(path))
            if name.startswith("segment-"):
                # Freeze the sealer in the window between "segment file
                # on disk" and "segment committed to the manifest".
                barrier.set()
                release.wait(timeout=10.0)
            return written

        store = create_durable(
            tmp_path / "s",
            seal_elements=8,
            fsync="never",
            background_seal=True,
        )
        try:
            monkeypatch.setattr(
                durable_mod, "atomic_write_bytes", gated
            )
            ids, ts = _stream(16)
            store.extend_batch(ids, ts)
            assert barrier.wait(5.0), "background seal never started"
            on_disk = {
                name
                for name in os.listdir(tmp_path / "s")
                if name.startswith("segment-")
            }
            assert on_disk, "sealer signalled before writing a segment"
            # The uncommitted segment is invisible to the manifest; a
            # sweep racing the seal must still leave it alone.
            store._cleanup_stale_wals()
            still_there = {
                name
                for name in os.listdir(tmp_path / "s")
                if name.startswith("segment-")
            }
            assert on_disk <= still_there
        finally:
            release.set()
        store.drain_seals()
        monkeypatch.undo()
        store.close()
        recovered = recover(tmp_path / "s")
        assert recovered.count == 16
        recovered.close()
