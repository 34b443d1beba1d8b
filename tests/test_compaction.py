"""Segment compaction and shard rebalancing (repro.core.compaction).

Covers the tiering policy in isolation, end-to-end merge-down identity
(answers bit-identical before/after compaction, across every backend
with a lazy merge fast path, and from views taken before the swap once
its inputs are unlinked), ``store.compact()`` racing background
seals and refusing on closed or failed stores, offline ``rebalance``
round-trips, and the named errors that point users at
``repro rebalance`` when shard counts disagree.
"""

from __future__ import annotations

import math
import mmap

import numpy as np
import pytest

import repro.core.durable as durable_mod
from repro.core.compaction import (
    DEFAULT_COMPACT_FANIN,
    plan_compaction,
    rebalance,
    size_tier,
)
from repro.core.durable import DurableBurstStore, create_durable, recover
from repro.core.errors import (
    InvalidParameterError,
    SerializationError,
    ShardCountMismatchError,
)
from repro.core.parallel_ingest import ParallelIngestCoordinator

from test_crash_recovery import (
    TAU,
    THETA,
    UNIVERSE,
    _FailingAtomicWrite,
    _InjectedCrash,
    _oracle,
    _stream,
    assert_matrix_identical,
)
from tests.test_durable_layered import held_background_seals


def _segment_count(store):
    children = getattr(store, "shards", None) or [store]
    return sum(len(child._segment_names) for child in children)


# ----------------------------------------------------------------------
# Tiering policy
# ----------------------------------------------------------------------
class TestTierPolicy:
    def test_size_tier_is_monotonic_and_factor_four(self):
        sizes = [1, 2, 5, 17, 100, 4096, 10**6, 10**9]
        tiers = [size_tier(s) for s in sizes]
        assert tiers == sorted(tiers)
        assert size_tier(1) == 0
        for s in (1, 7, 64, 1000, 12345):
            # One factor of four is exactly one tier.
            assert size_tier(4 * s) == size_tier(s) + 1

    def test_zero_and_negative_clamp(self):
        assert size_tier(0) == size_tier(1)
        assert size_tier(-5) == size_tier(1)

    def test_plan_requires_min_segments(self):
        assert plan_compaction([10, 10], min_segments=4) is None
        assert plan_compaction([], min_segments=2) is None
        assert plan_compaction([10, 10], min_segments=2) == (0, 2)

    def test_plan_caps_at_fanin(self):
        sizes = [8] * 10
        assert plan_compaction(sizes, fanin=4, min_segments=2) == (0, 4)

    def test_plan_prefers_smallest_tier(self):
        # Two big segments up front, then a run of small ones: the
        # small tier wins even though the big run comes first.
        sizes = [10**6, 10**6, 4, 4, 4]
        assert plan_compaction(sizes, fanin=8, min_segments=2) == (2, 5)

    def test_plan_only_merges_adjacent_runs(self):
        # Same-tier segments separated by a big one never form a run.
        sizes = [4, 10**6, 4, 10**6, 4]
        assert plan_compaction(sizes, fanin=8, min_segments=2) is None

    def test_plan_validates_parameters(self):
        with pytest.raises(InvalidParameterError):
            plan_compaction([1, 1], fanin=1, min_segments=2)
        with pytest.raises(InvalidParameterError):
            plan_compaction([1, 1], fanin=2, min_segments=1)


# ----------------------------------------------------------------------
# Merge-down identity
# ----------------------------------------------------------------------
class TestCompactionIdentity:
    def test_fifty_segments_compact_with_identical_answers(self, tmp_path):
        ids, ts = _stream(500)
        store = create_durable(
            tmp_path / "store", seal_elements=10, fsync="never"
        )
        with store:
            store.extend_batch(ids, ts)
            store.seal()
            before = _segment_count(store)
            assert before >= 50
            fanin = 5
            runs = store.compact(fanin=fanin, min_segments=2)
            assert runs >= 1
            after = _segment_count(store)
            assert after <= math.ceil(before / fanin)
            assert_matrix_identical(store, _oracle(ids, ts))
        # The compacted layout recovers to the same answers.
        recovered = recover(tmp_path / "store")
        with recovered:
            assert _segment_count(recovered) == after
            assert_matrix_identical(recovered, _oracle(ids, ts))

    @pytest.mark.parametrize("backend", ["cm-pbe-1", "cm-pbe-2"])
    def test_sketch_backends_compact_bit_identically(
        self, tmp_path, backend
    ):
        # Approximate backends have no exact oracle; the invariant is
        # that compaction (which routes through the lazy zero-copy
        # merge fast paths) changes no answer at all.
        ids, ts = _stream(400)
        store = create_durable(
            tmp_path / "store",
            backend=backend,
            seal_elements=16,
            fsync="never",
            universe_size=UNIVERSE,
        )
        horizon = float(ts[-1]) + 2 * TAU
        panel_ids = np.repeat(np.arange(UNIVERSE), 5)
        panel_ts = np.tile(np.linspace(0.0, horizon, 5), UNIVERSE)
        with store:
            store.extend_batch(ids, ts)
            store.seal()
            assert _segment_count(store) >= 10
            point_before = store.point_query_batch(panel_ids, panel_ts, TAU)
            times_before = [
                store.bursty_time_query(e, THETA, TAU)
                for e in range(UNIVERSE)
            ]
            events_before = [
                store.bursty_event_query(float(t), THETA, TAU)
                for t in np.linspace(0.0, horizon, 5)
            ]
            store.compact(fanin=4, min_segments=2)
            assert _segment_count(store) < 10
            np.testing.assert_array_equal(
                store.point_query_batch(panel_ids, panel_ts, TAU),
                point_before,
            )
            assert [
                store.bursty_time_query(e, THETA, TAU)
                for e in range(UNIVERSE)
            ] == times_before
            assert [
                store.bursty_event_query(float(t), THETA, TAU)
                for t in np.linspace(0.0, horizon, 5)
            ] == events_before
        recovered = recover(tmp_path / "store")
        with recovered:
            np.testing.assert_array_equal(
                recovered.point_query_batch(panel_ids, panel_ts, TAU),
                point_before,
            )

    def test_compaction_survives_interleaved_ingest(self, tmp_path):
        ids, ts = _stream(600)
        store = create_durable(
            tmp_path / "store", seal_elements=20, fsync="never"
        )
        with store:
            for start in range(0, 600, 200):
                store.extend_batch(
                    ids[start : start + 200], ts[start : start + 200]
                )
                store.compact(fanin=4, min_segments=2)
            store.seal()
            store.compact(fanin=4, min_segments=2)
            assert_matrix_identical(store, _oracle(ids, ts))

    def test_views_taken_before_a_swap_answer_after_the_unlinks(
        self, tmp_path
    ):
        # Exact segments are read in place from their mappings, which
        # outlive the unlinked files of a compaction's inputs.
        ids, ts = _stream(200)
        directory = tmp_path / "store"
        store = create_durable(directory, seal_elements=50, fsync="never")
        with store:
            store.extend_batch(ids, ts)
            store.seal()
            inputs = [directory / name for name in store._segment_names]
            assert len(inputs) == 4  # one merge of fan-in 4 takes all
            segments = list(store._segments)
            run = next(iter(segments[0].inner._tables[0].values()))
            assert isinstance(run.obj, mmap.mmap)  # a view, not a copy
            view = store._read_view()
            stacked = type(segments[0]).stack(segments)
            assert store.compact(fanin=4, min_segments=2) >= 1
            assert not any(path.exists() for path in inputs)
            oracle = _oracle(ids, ts)
            for old in (view, stacked):
                assert_matrix_identical(old, oracle)
                assert old.to_bytes() == oracle.to_bytes()
            assert_matrix_identical(store, oracle)

    def test_compact_requires_directory(self):
        store = DurableBurstStore(None, seal_elements=10)
        with store:
            with pytest.raises(InvalidParameterError):
                store.compact()


# ----------------------------------------------------------------------
# store.compact() is the one compaction path
# ----------------------------------------------------------------------
class TestCompactCall:
    def test_compact_while_background_seals_are_in_flight(self, tmp_path):
        ids, ts = _stream(400)
        store = create_durable(
            tmp_path / "store",
            seal_elements=10,
            fsync="never",
            background_seal=True,
            max_unsealed=100,
        )
        with store:
            store.extend_batch(ids[:200], ts[:200])
            store.drain_seals()
            with held_background_seals() as gate:
                store.extend_batch(ids[200:], ts[200:])
                assert store.seal_queue_depth > 0
                runs = store.compact(fanin=4, min_segments=2)
                assert runs >= 1
                # The held generations stayed pending and readable.
                assert store.seal_queue_depth > 0
                assert_matrix_identical(store, _oracle(ids, ts))
                gate.set()
                store.drain_seals()
            store.compact(fanin=4, min_segments=2)
            assert_matrix_identical(store, _oracle(ids, ts))
        recovered = recover(tmp_path / "store")
        with recovered:
            assert recovered.count == 400
            assert_matrix_identical(recovered, _oracle(ids, ts))

    def test_compact_validates_parameters(self, tmp_path):
        store = create_durable(tmp_path / "store", fsync="never")
        with store:
            with pytest.raises(InvalidParameterError):
                store.compact(fanin=1)
            with pytest.raises(InvalidParameterError):
                store.compact(min_segments=1)
        assert DEFAULT_COMPACT_FANIN >= 2

    def test_compact_on_closed_store_refuses(self, tmp_path):
        # A closed handle's state goes stale once the directory is
        # recovered and written again; committing a merge from it would
        # roll the manifest back and lose acknowledged records.
        ids, ts = _stream(203)
        path = tmp_path / "store"
        stale = create_durable(path, seal_elements=10, fsync="never")
        stale.extend_batch(ids[:200], ts[:200])
        stale.close()
        live = recover(path, fsync="never")
        live.extend_batch(ids[200:], ts[200:])
        live.seal()
        with pytest.raises(InvalidParameterError, match="closed"):
            stale.compact(fanin=4, min_segments=2)
        live.close()
        recovered = recover(path)
        with recovered:
            assert recovered.count == 203
            assert_matrix_identical(recovered, _oracle(ids, ts))

    def test_compact_after_failed_seal_refuses(self, tmp_path, monkeypatch):
        ids, ts = _stream(50)
        store = create_durable(
            tmp_path / "store", seal_elements=10, fsync="never"
        )
        with store:
            store.extend_batch(ids[:40], ts[:40])
            monkeypatch.setattr(
                durable_mod, "atomic_write_bytes", _FailingAtomicWrite(1)
            )
            with pytest.raises(_InjectedCrash):
                store.extend_batch(ids[40:], ts[40:])
            monkeypatch.undo()
            with pytest.raises(SerializationError):
                store.compact(fanin=2, min_segments=2)
        recovered = recover(tmp_path / "store")
        with recovered:
            assert_matrix_identical(recovered, _oracle(ids, ts))


# ----------------------------------------------------------------------
# Offline shard rebalancing
# ----------------------------------------------------------------------
class TestRebalance:
    def _build(self, directory, ids, ts, shards):
        store = create_durable(
            directory,
            shards=shards,
            seal_elements=32,
            fsync="never",
        )
        with store:
            store.extend_batch(ids, ts)
            store.seal()

    def test_round_trip_matches_fresh_build(self, tmp_path):
        ids, ts = _stream(500)
        target = tmp_path / "store"
        self._build(target, ids, ts, shards=4)

        result = rebalance(target, shards=2, fsync="never")
        assert result == {"shards": 2, "records": 500}
        two = recover(target)
        with two:
            assert len(two.shards) == 2
            assert_matrix_identical(two, _oracle(ids, ts))
            counts_two = [child.count for child in two.shards]

        # Same routing as a store built sharded-by-2 from scratch.
        fresh = tmp_path / "fresh2"
        self._build(fresh, ids, ts, shards=2)
        fresh_store = recover(fresh)
        with fresh_store:
            assert [c.count for c in fresh_store.shards] == counts_two

        # And back up to 4 shards: still every answer, still 500.
        result = rebalance(target, shards=4, fsync="never")
        assert result == {"shards": 4, "records": 500}
        four = recover(target)
        with four:
            assert len(four.shards) == 4
            assert_matrix_identical(four, _oracle(ids, ts))

    def test_rebalance_rejects_non_sharded_directories(self, tmp_path):
        store = create_durable(tmp_path / "flat", fsync="never")
        with store:
            store.extend_batch(*_stream(32))
        with pytest.raises(InvalidParameterError):
            rebalance(tmp_path / "flat", shards=2)

    def test_rebalance_validates_shard_count(self, tmp_path):
        ids, ts = _stream(64)
        self._build(tmp_path / "store", ids, ts, shards=2)
        with pytest.raises(InvalidParameterError):
            rebalance(tmp_path / "store", shards=0)


# ----------------------------------------------------------------------
# Named shard-count errors point at `repro rebalance`
# ----------------------------------------------------------------------
class TestShardCountMismatch:
    def test_create_durable_resume_names_rebalance(self, tmp_path):
        ids, ts = _stream(100)
        store = create_durable(
            tmp_path / "store", shards=4, seal_elements=32, fsync="never"
        )
        with store:
            store.extend_batch(ids, ts)
        with pytest.raises(ShardCountMismatchError, match="repro rebalance"):
            create_durable(
                tmp_path / "store", shards=2, resume=True, fsync="never"
            )

    def test_coordinator_resume_names_rebalance(self, tmp_path):
        ids, ts = _stream(100)
        store = create_durable(
            tmp_path / "store", shards=4, seal_elements=32, fsync="never"
        )
        with store:
            store.extend_batch(ids, ts)
        with pytest.raises(ShardCountMismatchError, match="repro rebalance"):
            ParallelIngestCoordinator(
                tmp_path / "store", writers=2, resume=True, fsync="never"
            )
