"""Property tests: batched queries are bit-identical to scalar queries.

The read-path counterpart of ``test_batch_properties.py``: every
backend grew a ``point_query_batch`` (and the sketch cores grew
``value_many`` / ``burstiness_many``), and these hypothesis tests pin
the contract that batching a query workload is *purely* a throughput
optimization — zero tolerance, not approximate equality:

* ``value_many`` must equal a ``value`` loop on PBE-1/PBE-2, buffered
  and flushed states alike,
* ``burstiness_many`` must equal a ``burstiness`` loop on CM-PBE and
  the direct map, both combiners,
* ``point_query_batch`` must equal a ``point_query`` loop on every
  registered backend in the matrix (sharded composites included) and on
  merged stores,
* the vectorized level-at-a-time bursty-event descent must return the
  same hits, in the same order, issuing the same number of point
  queries as the recursive scalar oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.backends import BACKEND_IDS, BACKEND_MATRIX, UNIVERSE
from repro.core.cmpbe import CMPBE, DirectPBEMap
from repro.core.dyadic import BurstyEventIndex
from repro.core.pbe1 import PBE1
from repro.core.pbe2 import PBE2
from repro.core.store import create_store
from tests.oracles.queries import bursty_events_scalar

settings.register_profile("query_batch", deadline=None, max_examples=40)
settings.load_profile("query_batch")

TAU = 4.0


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def stream_and_queries(draw, max_size: int = 80, n_ids: int = UNIVERSE):
    """A sorted record stream plus an arbitrary query workload."""
    raw = draw(st.lists(st.integers(0, 50), min_size=1, max_size=max_size))
    ts = sorted(t / 2 for t in raw)
    ids = draw(
        st.lists(
            st.integers(0, n_ids - 1), min_size=len(ts), max_size=len(ts)
        )
    )
    query_ids = draw(
        st.lists(st.integers(0, n_ids - 1), min_size=0, max_size=24)
    )
    query_ts = draw(
        st.lists(
            st.floats(-10.0, 40.0, allow_nan=False),
            min_size=len(query_ids),
            max_size=len(query_ids),
        )
    )
    return ids, ts, query_ids, query_ts


def _scalar_loop(store, query_ids, query_ts, tau=TAU):
    return np.asarray(
        [
            store.point_query(int(event_id), float(t), tau)
            for event_id, t in zip(query_ids, query_ts)
        ],
        dtype=np.float64,
    )


# ----------------------------------------------------------------------
# Sketch cores: value_many == value loop
# ----------------------------------------------------------------------
class TestValueMany:
    @given(stream_and_queries())
    def test_pbe1(self, data):
        _, ts, _, query_ts = data
        sketch = PBE1(eta=6, buffer_size=8)
        sketch.extend(ts)
        for stage in ("buffered", "flushed"):
            if stage == "flushed":
                sketch.flush()
            batch = sketch.value_many(query_ts)
            scalar = np.asarray(
                [sketch.value(t) for t in query_ts], dtype=np.float64
            )
            assert np.array_equal(batch, scalar)

    @given(stream_and_queries())
    def test_pbe2(self, data):
        _, ts, _, query_ts = data
        sketch = PBE2(gamma=3.0)
        sketch.extend(ts)
        for stage in ("live", "finalized"):
            if stage == "finalized":
                sketch.finalize()
            batch = sketch.value_many(query_ts)
            scalar = np.asarray(
                [sketch.value(t) for t in query_ts], dtype=np.float64
            )
            assert np.array_equal(batch, scalar)


# ----------------------------------------------------------------------
# CM-PBE / direct map: burstiness_many == burstiness loop
# ----------------------------------------------------------------------
class TestBurstinessMany:
    @pytest.mark.parametrize("combiner", ["median", "min"])
    @given(data=stream_and_queries())
    def test_cmpbe(self, combiner, data):
        ids, ts, query_ids, query_ts = data
        sketch = CMPBE.with_pbe1(
            eta=6, width=5, depth=3, buffer_size=8, combiner=combiner
        )
        sketch.extend(zip(ids, ts))
        batch = sketch.burstiness_many(query_ids, query_ts, TAU)
        scalar = np.asarray(
            [
                sketch.burstiness(int(e), float(t), TAU)
                for e, t in zip(query_ids, query_ts)
            ],
            dtype=np.float64,
        )
        assert np.array_equal(batch, scalar)

    @given(data=stream_and_queries())
    def test_direct_map(self, data):
        ids, ts, query_ids, query_ts = data
        sketch = DirectPBEMap(lambda: PBE1(eta=6, buffer_size=8))
        sketch.extend(zip(ids, ts))
        batch = sketch.burstiness_many(query_ids, query_ts, TAU)
        scalar = np.asarray(
            [
                sketch.burstiness(int(e), float(t), TAU)
                for e, t in zip(query_ids, query_ts)
            ],
            dtype=np.float64,
        )
        assert np.array_equal(batch, scalar)


# ----------------------------------------------------------------------
# Store layer: point_query_batch == point_query loop, every backend
# ----------------------------------------------------------------------
class TestPointQueryBatch:
    @pytest.mark.parametrize(
        "label,backend,cfg", BACKEND_MATRIX, ids=BACKEND_IDS
    )
    @given(data=stream_and_queries())
    def test_matches_scalar_loop(self, label, backend, cfg, data):
        ids, ts, query_ids, query_ts = data
        store = create_store(backend, **cfg)
        store.extend_batch(ids, ts)
        batch = store.point_query_batch(query_ids, query_ts, TAU)
        assert batch.dtype == np.float64
        assert np.array_equal(batch, _scalar_loop(store, query_ids, query_ts))

    @pytest.mark.parametrize(
        "label,backend,cfg", BACKEND_MATRIX, ids=BACKEND_IDS
    )
    def test_matches_on_merged_store(self, label, backend, cfg):
        rng = np.random.default_rng(5)
        first = create_store(backend, **cfg)
        second = create_store(backend, **cfg)
        first.extend_batch(
            rng.integers(0, UNIVERSE, 200), np.sort(rng.uniform(0, 20, 200))
        )
        second.extend_batch(
            rng.integers(0, UNIVERSE, 200),
            np.sort(rng.uniform(20, 40, 200)),
        )
        merged = first.merge(second)
        query_ids = rng.integers(0, UNIVERSE, 64)
        query_ts = rng.uniform(-5.0, 50.0, 64)
        batch = merged.point_query_batch(query_ids, query_ts, TAU)
        assert np.array_equal(
            batch, _scalar_loop(merged, query_ids, query_ts)
        )

    def test_empty_batch(self):
        store = create_store("exact")
        result = store.point_query_batch([], [], TAU)
        assert result.shape == (0,)
        assert result.dtype == np.float64


# ----------------------------------------------------------------------
# Dyadic index: vectorized descent == recursive scalar oracle
# ----------------------------------------------------------------------
def _index_pair(universe: int, kind: str):
    if kind == "pbe1":
        make = lambda: BurstyEventIndex.with_pbe1(  # noqa: E731
            universe, eta=6, width=8, depth=3, buffer_size=16
        )
    else:
        make = lambda: BurstyEventIndex.with_pbe2(  # noqa: E731
            universe, gamma=4.0, width=8, depth=3
        )
    return make(), make()


class TestVectorizedDescent:
    @pytest.mark.parametrize("kind", ["pbe1", "pbe2"])
    @pytest.mark.parametrize("universe", [1, 5, 48, 64])
    @given(data=stream_and_queries(), theta=st.floats(0.5, 8.0))
    def test_matches_scalar_descent(self, kind, universe, data, theta):
        ids, ts, _, _ = data
        vectorized, scalar = _index_pair(universe, kind)
        column = np.minimum(np.asarray(ids, dtype=np.int64), universe - 1)
        vectorized.extend_batch(column, ts)
        scalar.extend_batch(column, ts)
        t = ts[-1]
        fast = vectorized.bursty_events(t, theta, TAU)
        slow = bursty_events_scalar(scalar, t, theta, TAU)
        assert [(h.event_id, h.burstiness) for h in fast] == [
            (h.event_id, h.burstiness) for h in slow
        ]
        assert (
            vectorized.point_queries_issued == scalar.point_queries_issued
        )

    def test_point_query_batch_counts_queries(self):
        index = BurstyEventIndex.with_pbe1(
            16, eta=6, width=8, depth=3, buffer_size=16
        )
        rng = np.random.default_rng(3)
        index.extend_batch(
            rng.integers(0, 16, 300), np.sort(rng.uniform(0, 30, 300))
        )
        query_ids = rng.integers(0, 16, 40)
        query_ts = rng.uniform(0, 35, 40)
        index.reset_query_counter()
        batch = index.point_query_batch(query_ids, query_ts, TAU)
        assert index.point_queries_issued == 40
        scalar = np.asarray(
            [
                index.point_query(int(e), float(t), TAU)
                for e, t in zip(query_ids, query_ts)
            ],
            dtype=np.float64,
        )
        assert np.array_equal(batch, scalar)


# ----------------------------------------------------------------------
# Hash-column LRU: invalidated on ingest, transparent to queries
# ----------------------------------------------------------------------
class TestHashColumnCache:
    def test_cache_hits_and_invalidation(self):
        sketch = CMPBE.with_pbe1(eta=6, width=5, depth=3, buffer_size=8)
        sketch.update(7, 1.0)
        before = sketch.burstiness(7, 2.0, TAU)
        assert 7 in sketch._column_cache
        sketch.update(7, 3.0)
        assert not sketch._column_cache
        after = sketch.burstiness(7, 2.0, TAU)
        assert after == before  # same time, later data beyond t
        assert 7 in sketch._column_cache

    def test_cache_is_bounded(self):
        from repro.core.cmpbe import HASH_CACHE_SIZE

        sketch = CMPBE.with_pbe1(eta=6, width=5, depth=3, buffer_size=8)
        ids = np.arange(HASH_CACHE_SIZE + 10, dtype=np.int64)
        for event_id in ids.tolist():
            sketch.burstiness(event_id, 0.0, TAU)
        assert len(sketch._column_cache) == HASH_CACHE_SIZE
        # Batch reads hash their unique ids directly, bypassing the LRU.
        sketch.burstiness_many(
            ids + ids.size, np.zeros(ids.size, dtype=np.float64), TAU
        )
        assert int(ids.size) not in sketch._column_cache
