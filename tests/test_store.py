"""Unit tests for the pluggable backend layer (repro.core.store):
registry semantics, the BurstStore protocol surface, sharded routing and
cross-part merging."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cmpbe import CMPBE
from repro.core.errors import (
    InvalidParameterError,
    StreamOrderError,
    UnknownBackendError,
)
from repro.core.parallel import build_store_chunked, merge_stores
from repro.core.pbe1 import PBE1
from repro.core import store as store_module
from repro.core.store import (
    POOL_MIN_PAIRS_PER_SHARD,
    BurstStore,
    DyadicIndexStore,
    ShardedBurstStore,
    backend_keys,
    create_store,
    register_backend,
    shard_routes,
)

from tests.backends import BACKEND_IDS, BACKEND_MATRIX, UNIVERSE


def drip_and_surge(n: int = 600) -> tuple[np.ndarray, np.ndarray]:
    """Events 0..7 drip uniformly; event 3 surges in [400, 440]."""
    rng = np.random.default_rng(7)
    ts = np.sort(rng.uniform(0.0, 1_000.0, n))
    ids = rng.integers(0, 8, n)
    surge = np.sort(rng.uniform(400.0, 440.0, 80))
    all_ts = np.concatenate([ts, surge])
    all_ids = np.concatenate([ids, np.full(80, 3)])
    order = np.argsort(all_ts, kind="stable")
    return all_ids[order], all_ts[order]


class TestRegistry:
    def test_known_keys(self):
        assert set(backend_keys()) == {
            "exact",
            "cm-pbe-1",
            "cm-pbe-2",
            "direct",
            "index",
            "sharded",
            "durable",
        }

    def test_unknown_backend_raises_with_listing(self):
        with pytest.raises(UnknownBackendError, match="cm-pbe-1"):
            create_store("no-such-backend")

    def test_every_created_store_satisfies_protocol(self):
        for label, backend, cfg in BACKEND_MATRIX:
            store = create_store(backend, **cfg)
            assert isinstance(store, BurstStore), label
            assert store.backend_key == backend, label

    def test_register_backend_latest_wins(self):
        sentinel = create_store("exact")

        register_backend(
            "test-dummy", lambda **cfg: sentinel, lambda payload: sentinel
        )
        try:
            assert "test-dummy" in backend_keys()
            assert create_store("test-dummy") is sentinel
            replacement = create_store("exact")
            register_backend(
                "test-dummy",
                lambda **cfg: replacement,
                lambda payload: replacement,
            )
            assert create_store("test-dummy") is replacement
        finally:
            from repro.core.store import _REGISTRY

            _REGISTRY.pop("test-dummy", None)


class TestProtocolSurface:
    @pytest.mark.parametrize(
        "label,backend,cfg", BACKEND_MATRIX, ids=BACKEND_IDS
    )
    def test_ingest_paths_agree(self, label, backend, cfg):
        """update, extend and extend_batch must be interchangeable."""
        ids, ts = drip_and_surge(200)
        one = create_store(backend, **cfg)
        two = create_store(backend, **cfg)
        three = create_store(backend, **cfg)
        for event_id, t in zip(ids.tolist(), ts.tolist()):
            one.update(event_id, t)
        two.extend(zip(ids.tolist(), ts.tolist()))
        three.extend_batch(ids, ts)
        for store in (one, two, three):
            store.finalize()
        for store in (two, three):
            assert store.count == one.count
            for event_id in (0, 3):
                for t in (300.0, 420.0, 900.0):
                    assert store.point_query(
                        event_id, t, 25.0
                    ) == pytest.approx(
                        one.point_query(event_id, t, 25.0), abs=1e-9
                    )

    @pytest.mark.parametrize(
        "label,backend,cfg", BACKEND_MATRIX, ids=BACKEND_IDS
    )
    def test_memory_elements_positive_after_ingest(self, label, backend, cfg):
        ids, ts = drip_and_surge(200)
        store = create_store(backend, **cfg)
        store.extend_batch(ids, ts)
        store.finalize()
        assert store.memory_elements() > 0
        assert store.size_in_bytes() > 0

    @pytest.mark.parametrize(
        "label,backend,cfg", BACKEND_MATRIX, ids=BACKEND_IDS
    )
    def test_out_of_order_rejected(self, label, backend, cfg):
        store = create_store(backend, **cfg)
        store.update(1, 10.0)
        with pytest.raises(StreamOrderError):
            store.update(1, 5.0)

    def test_surge_is_bursty_everywhere(self):
        """Every backend flags the planted surge as a bursty time."""
        ids, ts = drip_and_surge()
        for label, backend, cfg in BACKEND_MATRIX:
            store = create_store(backend, **cfg)
            store.extend_batch(ids, ts)
            store.finalize()
            intervals = store.bursty_time_query(3, theta=20.0, tau=50.0)
            assert intervals, label
            assert any(
                start <= 440.0 and end >= 400.0 for start, end in intervals
            ), (label, intervals)


class TestShardedRouting:
    def test_rejects_bad_config(self):
        with pytest.raises(InvalidParameterError):
            create_store("sharded", shards=0, backend="exact")
        with pytest.raises(InvalidParameterError):
            create_store("sharded", shards=2, backend="sharded")

    def test_routing_is_deterministic_and_total(self):
        store = create_store("sharded", shards=5, backend="exact")
        for event_id in range(200):
            shard = store.shard_of(event_id)
            assert 0 <= shard < 5
            assert shard == store.shard_of(event_id)

    def test_vectorized_routing_matches_scalar(self):
        store = create_store("sharded", shards=7, backend="exact")
        ids = np.arange(500)
        vectorized = shard_routes(ids, store.n_shards)
        assert vectorized.tolist() == [
            store.shard_of(i) for i in ids.tolist()
        ]

    def test_events_land_wholly_in_their_shard(self):
        ids, ts = drip_and_surge(300)
        store = create_store("sharded", shards=3, backend="exact")
        store.extend_batch(ids, ts)
        for event_id in np.unique(ids).tolist():
            owner = store.shard_of(event_id)
            for shard_index, shard in enumerate(store.shards):
                expected = (
                    int((ids == event_id).sum())
                    if shard_index == owner
                    else 0
                )
                times = shard.inner.timestamps_of(event_id)
                assert len(times) == expected

    def test_fanout_equals_plain_backend(self):
        """Sharding the exact backend must be answer-invisible."""
        ids, ts = drip_and_surge()
        plain = create_store("exact")
        sharded = create_store("sharded", shards=4, backend="exact")
        plain.extend_batch(ids, ts)
        sharded.extend_batch(ids, ts)
        tau = 50.0
        for t in (300.0, 420.0, 900.0):
            assert sharded.bursty_event_query(
                t, 5.0, tau
            ) == plain.bursty_event_query(t, 5.0, tau)
        assert sharded.bursty_time_query(3, 20.0, tau) == plain.bursty_time_query(
            3, 20.0, tau
        )
        assert sharded.count == plain.count
        assert sharded.memory_elements() == plain.memory_elements()

    def test_shards_property_exposes_children(self):
        store = create_store("sharded", shards=3, backend="exact")
        assert len(store.shards) == 3
        assert all(child.backend_key == "exact" for child in store.shards)


class TestShardedExecutorLifecycle:
    """Regression: every fan-out used to spin up (and tear down) a fresh
    ThreadPoolExecutor; the pool is now created lazily once per store,
    by the first point batch large enough to fan out on it."""

    def _loaded_store(self):
        ids, ts = drip_and_surge(300)
        store = create_store("sharded", shards=3, backend="exact")
        store.extend_batch(ids, ts)
        return store, ids, ts

    @staticmethod
    def _large_batch(ids, ts):
        n = 3 * POOL_MIN_PAIRS_PER_SHARD
        return np.resize(ids, n), np.resize(ts, n) + 10.0

    def test_pool_is_lazy_and_persistent(self):
        store, ids, ts = self._loaded_store()
        assert store._pool is None  # nothing until a large fan-out
        store.point_query_batch(ids[:50], ts[:50] + 10.0, 25.0)
        store.bursty_event_query(420.0, 5.0, 50.0)
        assert store._pool is None  # small batches and events run inline
        store.point_query_batch(*self._large_batch(ids, ts), 25.0)
        pool = store._pool
        assert pool is not None
        store.point_query_batch(*self._large_batch(ids, ts), 25.0)
        assert store._pool is pool  # reused, not respawned
        store.close()

    def test_close_shuts_down_and_allows_reuse(self):
        store, ids, ts = self._loaded_store()
        before = store.bursty_event_query(420.0, 5.0, 50.0)
        batch = store.point_query_batch(*self._large_batch(ids, ts), 25.0)
        store.close()
        assert store._pool is None
        # A store used after close() lazily recreates its pool.
        assert store.bursty_event_query(420.0, 5.0, 50.0) == before
        assert np.array_equal(
            store.point_query_batch(*self._large_batch(ids, ts), 25.0), batch
        )
        store.close()

    def test_results_identical_across_pool_lifecycles(self):
        store, ids, ts = self._loaded_store()
        query_ids, query_ts = ids[:80], ts[:80] + 5.0
        first = store.point_query_batch(query_ids, query_ts, 25.0)
        store.close()
        second = store.point_query_batch(query_ids, query_ts, 25.0)
        assert np.array_equal(first, second)
        store.close()

    def test_pool_and_inline_fan_outs_answer_alike(self, monkeypatch):
        store, ids, ts = self._loaded_store()
        query_ids, query_ts = self._large_batch(ids, ts)
        pooled = store.point_query_batch(query_ids, query_ts, 25.0)
        assert store._pool is not None
        monkeypatch.setattr(
            store_module, "POOL_MIN_PAIRS_PER_SHARD", query_ids.size
        )
        inline = store.point_query_batch(query_ids, query_ts, 25.0)
        scalar = [
            store.point_query(int(e), float(t), 25.0)
            for e, t in zip(query_ids[:200], query_ts[:200])
        ]
        assert np.array_equal(pooled, inline)
        assert np.array_equal(pooled[:200], scalar)
        store.close()

    def test_del_with_unused_pool_is_safe(self):
        store = create_store("sharded", shards=2, backend="exact")
        store.__del__()  # never fanned out; nothing to shut down
        store2, ids, ts = self._loaded_store()
        store2.point_query_batch(*self._large_batch(ids, ts), 25.0)
        store2.__del__()


class TestMerge:
    @pytest.mark.parametrize(
        "label,backend,cfg", BACKEND_MATRIX, ids=BACKEND_IDS
    )
    def test_chunked_build_matches_serial_for_exact_family(
        self, label, backend, cfg
    ):
        ids, ts = drip_and_surge()
        chunked = build_store_chunked(ids, ts, backend, n_chunks=3, **cfg)
        serial = create_store(backend, **cfg)
        serial.extend_batch(ids, ts)
        serial.finalize()
        assert chunked.count == serial.count
        if "exact" in label:
            for event_id in (0, 3):
                for t in (300.0, 420.0, 900.0):
                    assert chunked.point_query(
                        event_id, t, 25.0
                    ) == serial.point_query(event_id, t, 25.0)

    def test_merge_stores_requires_parts(self):
        with pytest.raises(InvalidParameterError):
            merge_stores([])

    def test_sharded_merge_rejects_mismatched_layout(self):
        ids, ts = drip_and_surge(100)
        a = create_store("sharded", shards=2, backend="exact")
        b = create_store("sharded", shards=3, backend="exact")
        a.extend_batch(ids, ts)
        with pytest.raises(InvalidParameterError):
            a.merge(b)

    def test_incompatible_cell_configs_rejected(self):
        a = create_store("cm-pbe-1", eta=8, universe_size=UNIVERSE)
        b = create_store("cm-pbe-1", eta=16, universe_size=UNIVERSE)
        a.update(1, 1.0)
        b.update(1, 5.0)
        with pytest.raises(InvalidParameterError):
            a.merge(b)

    @pytest.mark.parametrize(
        "geometry_b",
        [
            dict(width=8, depth=3, seed=5),  # merged silently, seed 0 kept
            dict(width=4, depth=3, seed=0),  # a bare StopIteration
        ],
        ids=["seed", "width"],
    )
    def test_index_merge_refuses_other_level_geometry(self, geometry_b):
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 64, 300)

        def index(lo, **geometry):
            store = create_store("index", universe_size=64, **geometry)
            store.extend_batch(ids, np.sort(rng.uniform(lo, lo + 100, 300)))
            return store

        a = index(0.0, width=8, depth=3, seed=0)
        b = index(200.0, **geometry_b)
        with pytest.raises(
            InvalidParameterError, match="grid dimensions/seed differ"
        ):
            a.merge(b)

    def test_index_merge_and_load_build_only_the_returned_cells(
        self, monkeypatch
    ):
        """No throwaway index: a two-part merge and a load construct
        exactly the CM-PBE levels and PBE-1 cells of the index they
        return (both once built a whole extra index first)."""
        rng = np.random.default_rng(1)

        def part(lo):
            store = create_store(
                "index", universe_size=64, width=8, depth=3, eta=20
            )
            store.extend_batch(
                rng.integers(0, 64, 300),
                np.sort(rng.uniform(lo, lo + 100, 300)),
            )
            store.finalize()  # no live buffer: a merge copies no cell
            return store

        a, b = part(0.0), part(200.0)
        built = {"CMPBE": 0, "PBE1": 0}
        for cls in (CMPBE, PBE1):
            original = cls.__init__

            def counting(self, *args, _name=cls.__name__, _init=original,
                         **kwargs):
                built[_name] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)

        def cells_of(store):
            levels = store._levels()
            return {
                "CMPBE": sum(isinstance(lvl, CMPBE) for lvl in levels),
                "PBE1": sum(len(lvl.cells()) for lvl in levels),
            }

        merged = a.merge(b)
        assert built == cells_of(merged)
        payload = merged.to_bytes()
        built.update(CMPBE=0, PBE1=0)
        loaded = DyadicIndexStore.from_bytes(payload)
        assert built == cells_of(loaded)
        assert loaded.to_bytes() == payload


class TestAnalyzerFacade:
    def test_analyzer_wraps_prebuilt_store(self):
        from repro.core.queries import HistoricalBurstAnalyzer

        ids, ts = drip_and_surge()
        store = create_store("sharded", shards=2, backend="exact")
        store.extend_batch(ids, ts)
        analyzer = HistoricalBurstAnalyzer(store=store)
        assert analyzer.method == "sharded"
        assert analyzer.store is store
        direct = store.point_query(3, 420.0, 50.0)
        assert analyzer.point_query(3, 420.0, 50.0) == direct

    def test_analyzer_methods_route_through_registry(self):
        from repro.core.queries import HistoricalBurstAnalyzer

        analyzer = HistoricalBurstAnalyzer("exact")
        assert analyzer.store.backend_key == "exact"
        analyzer = HistoricalBurstAnalyzer(
            "cm-pbe-1", universe_size=16, with_index=True
        )
        assert analyzer.store.backend_key == "index"
        analyzer = HistoricalBurstAnalyzer(
            "cm-pbe-2", universe_size=16, with_index=False
        )
        assert analyzer.store.backend_key == "cm-pbe-2"
