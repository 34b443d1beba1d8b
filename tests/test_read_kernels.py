"""Property tests for the CM-PBE read kernels.

* :func:`repro.core.cmpbe.median_over_rows` equals
  ``np.median(rows, axis=0)`` byte for byte (depths 1–9, widths up to
  4,000, ties, zeros, integer levels up to 2**53), and the scalar
  combiner applies the same rule;
* a batch whose pairs share one time reads the ``(3, depth * width)``
  cell grid once, and equals the same pairs read per pair and the
  per-cell oracles of ``tests/oracles/cmpbe.py`` on cm-pbe-1, cm-pbe-2
  (both combiners), every level of the dyadic index, a sharded store
  and a durable store with a live memtable over sealed segments;
* ``bursty_event_query`` returns the ids, values and order that
  ``_canonical_hits`` gives over the per-pair values, ``theta = 0`` and
  ties in burstiness included;
* a flat CM-PBE store hashes its id universe once, into a read-only
  matrix equal to ``hash_many(arange(K))``.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.core.cmpbe as cmpbe_module
from repro.core.cmpbe import CMPBE, DirectPBEMap, _median_of, median_over_rows
from repro.core.dyadic import BurstyEvent
from repro.core.pbe2 import PBE2
from repro.core.store import _canonical_hits, create_store
from repro.sketch.hashing import HashFamily
from tests.oracles.cmpbe import cmpbe_burstiness_many, direct_burstiness_many

# The grid-read counter is a function-scoped fixture: each example
# resets what it asserts on.
settings.register_profile(
    "read_kernels",
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
settings.load_profile("read_kernels")

TAU = 4.0
UNIVERSE = 48
_PBE1 = dict(eta=6, buffer_size=12, width=16, depth=5, seed=0)
_PBE2 = dict(gamma=3.0, unit=1.0, width=16, depth=5, seed=0)

#: (label, backend key, create_store config) of every store whose
#: bursty-event scan reads the one-time grid.
SCANNING = [
    ("cm-pbe-1", "cm-pbe-1", dict(universe_size=UNIVERSE, **_PBE1)),
    (
        "cm-pbe-1-min",
        "cm-pbe-1",
        dict(universe_size=UNIVERSE, combiner="min", **_PBE1),
    ),
    ("cm-pbe-2", "cm-pbe-2", dict(universe_size=UNIVERSE, **_PBE2)),
    (
        "cm-pbe-2-min",
        "cm-pbe-2",
        dict(universe_size=UNIVERSE, combiner="min", **_PBE2),
    ),
    (
        "cm-pbe-1-depth4",
        "cm-pbe-1",
        dict(universe_size=UNIVERSE, eta=6, buffer_size=12, width=8,
             depth=4, seed=3),
    ),
    (
        "sharded-x3-cm-pbe-1",
        "sharded",
        dict(shards=3, backend="cm-pbe-1", universe_size=UNIVERSE, **_PBE1),
    ),
    (
        "durable-cm-pbe-1",
        "durable",
        dict(backend="cm-pbe-1", seal_elements=40, universe_size=UNIVERSE,
             **_PBE1),
    ),
]
SCANNING_IDS = [label for label, _, _ in SCANNING]


# ----------------------------------------------------------------------
# Strategies and helpers
# ----------------------------------------------------------------------
@st.composite
def streams(draw, min_size: int = 1, max_size: int = 160):
    """A time-ordered record stream over ``UNIVERSE`` ids; few distinct
    times and a skewed id draw, so cells and burstiness values tie."""
    raw = draw(
        st.lists(st.integers(0, 60), min_size=min_size, max_size=max_size)
    )
    ts = np.array(sorted(t / 2 for t in raw), dtype=np.float64)
    hot = draw(st.integers(1, UNIVERSE))
    ids = draw(
        st.lists(
            st.integers(0, hot - 1), min_size=ts.size, max_size=ts.size
        )
    )
    return np.array(ids, dtype=np.int64), ts


query_times = st.floats(-5.0, 45.0, allow_nan=False).map(
    lambda t: round(t * 4) / 4
)


def _store(backend: str, cfg: dict, ids, ts):
    store = create_store(backend, **cfg)
    store.extend_batch(ids, ts)
    return store


def _per_pair(read, ids: np.ndarray, t: float) -> np.ndarray:
    """``read(ids, ts)`` at ``t`` for every id, through the per-pair
    lookup: one extra pair at another time keeps the batch off the
    one-time grid, and every answer depends on its own pair only."""
    n = ids.size
    both = read(
        np.append(ids, ids[:1]), np.append(np.full(n, t), t + 1.0)
    )
    return both[:n]


@pytest.fixture
def grid_reads(monkeypatch):
    """Count the one-time grid reads (``_cell_values`` over every cell
    of a grid, a 1-d slot array) and the per-pair ones."""
    calls = {"grid": 0, "pairs": 0}
    cell_values = cmpbe_module._cell_values

    def spy(cells, pack, slots, times):
        calls["grid" if np.ndim(slots) == 1 else "pairs"] += 1
        return cell_values(cells, pack, slots, times)

    monkeypatch.setattr(cmpbe_module, "_cell_values", spy)
    return calls


def _bytes(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


# ----------------------------------------------------------------------
# The median kernel
# ----------------------------------------------------------------------
@given(
    depth=st.integers(1, 9),
    width=st.integers(1, 4000),
    seed=st.integers(0, 2**32 - 1),
    distinct=st.integers(1, 64),
    top=st.sampled_from([1, 7, 1000, 2**53]),
)
def test_median_kernel_is_np_median_at_scale(depth, width, seed, distinct, top):
    """Wide matrices of integer levels (up to 2**53) drawn from a small
    pool that holds zero, so every column has ties."""
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, top, distinct, endpoint=True).astype(np.float64)
    pool[0] = 0.0
    rows = rng.choice(pool, size=(depth, width))
    assert median_over_rows(rows).tobytes() == (
        np.median(rows, axis=0).tobytes()
    )


_LEVELS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 3.0, 2.0**53 - 1, 2.0**53]),
    st.integers(0, 2**53).map(float),
)


@given(
    st.integers(1, 9).flatmap(
        lambda depth: hnp.arrays(
            np.float64,
            st.tuples(st.just(depth), st.integers(1, 40)),
            elements=_LEVELS,
        )
    )
)
def test_median_kernel_is_np_median_on_ties_and_zeros(rows):
    """Adversarial small matrices: signed zeros, halves, 2**53 and its
    neighbour.  The scalar combiner applies the same rule per column."""
    expected = np.median(rows, axis=0)
    assert median_over_rows(rows).tobytes() == expected.tobytes()
    scalar = [_median_of(column) for column in rows.T.tolist()]
    assert _bytes(scalar) == expected.tobytes()


def test_median_kernel_reads_only_the_middle():
    """For odd depth the kernel keeps only the comparators the middle
    row depends on: fewer than the full network's 2 * 10 at depth 5."""
    network = cmpbe_module._median_network(5)
    assert sum(keep_min + keep_max for _, _, keep_min, keep_max in network) < 20
    assert cmpbe_module._median_network(1) == ()


# ----------------------------------------------------------------------
# One-time batches: the grid path
# ----------------------------------------------------------------------
def _oracle(sketch, ids: np.ndarray, t: float) -> np.ndarray:
    ts = np.full(ids.size, t)
    if isinstance(sketch, CMPBE):
        return cmpbe_burstiness_many(sketch, ids, ts, TAU)
    return direct_burstiness_many(sketch, ids, ts, TAU)


def _assert_grid_matches(sketch, ids: np.ndarray, t: float) -> None:
    """The one-time batch of ``ids`` at ``t`` equals its per-pair read
    and the per-cell oracle, byte for byte."""
    one_time = sketch.burstiness_many(ids, np.full(ids.size, t), TAU)
    read = lambda i, ts: sketch.burstiness_many(i, ts, TAU)  # noqa: E731
    assert one_time.tobytes() == _per_pair(read, ids, t).tobytes()
    assert one_time.tobytes() == _oracle(sketch, ids, t).tobytes()


@pytest.mark.parametrize("combiner", ["median", "min"])
@pytest.mark.parametrize("cell", ["pbe1", "pbe2"])
@given(data=streams(), t=query_times, finalize_at=st.integers(0, 160))
def test_one_time_batch_matches_per_pair_and_oracle(
    grid_reads, cell, combiner, data, t, finalize_at
):
    ids, ts = data
    if cell == "pbe1":
        sketch = CMPBE.with_pbe1(6, 16, 5, buffer_size=12, combiner=combiner)
    else:
        sketch = CMPBE.with_pbe2(3.0, 16, 5, combiner=combiner)
    sketch.extend_batch(ids[:finalize_at], ts[:finalize_at])
    sketch.finalize()
    sketch.extend_batch(ids[finalize_at:], ts[finalize_at:])
    grid_reads["grid"] = 0
    # Repeated and unordered ids gather the same cells.
    batch = np.concatenate([np.arange(UNIVERSE)[::-1], ids[:8]])
    _assert_grid_matches(sketch, batch, t)
    assert grid_reads["grid"] == 1


def test_batches_smaller_than_a_row_read_per_pair(grid_reads):
    """Fewer pairs than ``width`` never read the whole grid."""
    sketch = CMPBE.with_pbe1(6, 16, 5, buffer_size=12)
    sketch.extend_batch(np.arange(40) % 7, np.arange(40) / 4)
    ids = np.arange(15)
    _assert_grid_matches(sketch, ids, 6.0)
    assert grid_reads["grid"] == 0


@pytest.mark.parametrize("cell", ["pbe1", "pbe2"])
@given(data=streams(), t=query_times)
def test_every_index_level_matches(grid_reads, cell, data, t):
    ids, ts = data
    cells = _PBE1 if cell == "pbe1" else _PBE2
    store = _store(
        "index", dict(universe_size=UNIVERSE, cell=cell, **cells), ids, ts
    )
    grid_reads["grid"] = 0
    index = store.inner
    for level in range(index.n_levels):
        sketch = index.level_sketch(level)
        level_ids = np.arange(-(-UNIVERSE // 2**level))
        _assert_grid_matches(sketch, level_ids, t)
    # Levels 0 and 1 are CM-PBE grids at least a row wide.
    assert isinstance(index.level_sketch(1), CMPBE)
    assert isinstance(index.level_sketch(index.n_levels - 1), DirectPBEMap)
    assert grid_reads["grid"] >= 2


@pytest.mark.parametrize("label,backend,cfg", SCANNING, ids=SCANNING_IDS)
@given(data=streams(min_size=60), t=query_times)
def test_store_one_time_batch_matches(grid_reads, label, backend, cfg, data, t):
    """Store point batches at one time (the sharded store's per-shard
    batches, the durable store's view over sealed segments and a live
    memtable) equal their per-pair reads and the oracle of the sketch
    that owns each id."""
    ids, ts = data
    store = _store(backend, cfg, ids, ts)
    grid_reads["grid"] = 0
    universe = np.arange(UNIVERSE)
    one_time = store.point_query_batch(universe, np.full(UNIVERSE, t), TAU)
    read = lambda i, q: store.point_query_batch(i, q, TAU)  # noqa: E731
    assert one_time.tobytes() == _per_pair(read, universe, t).tobytes()
    if backend == "sharded":
        oracle = np.array(
            [
                _oracle(store.shards[store.shard_of(e)].inner, np.array([e]), t)[0]
                for e in universe.tolist()
            ]
        )
    elif backend == "durable":
        assert store.n_segments >= 1
        oracle = _oracle(store._read_view().inner, universe, t)
    else:
        oracle = _oracle(store.inner, universe, t)
    assert one_time.tobytes() == oracle.tobytes()
    assert grid_reads["grid"] >= 1


# ----------------------------------------------------------------------
# Bursty-event scans
# ----------------------------------------------------------------------
def _expected_hits(store, ids: np.ndarray, t: float, theta: float):
    read = lambda i, q: store.point_query_batch(i, q, TAU)  # noqa: E731
    values = _per_pair(read, ids, t)
    return _canonical_hits(
        [
            BurstyEvent(event_id, value)
            for event_id, value in zip(ids.tolist(), values.tolist())
            if value >= theta
        ]
    )


@pytest.mark.parametrize("label,backend,cfg", SCANNING, ids=SCANNING_IDS)
@given(
    data=streams(),
    t=query_times,
    theta=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
)
def test_bursty_event_query_is_canonical_over_per_pair_values(
    label, backend, cfg, data, t, theta
):
    ids, ts = data
    store = _store(backend, cfg, ids, ts)
    hits = store.bursty_event_query(t, theta, TAU)
    expected = _expected_hits(store, np.arange(UNIVERSE), t, theta)
    assert [(h.event_id, h.burstiness) for h in hits] == [
        (h.event_id, h.burstiness) for h in expected
    ]
    assert _bytes([h.burstiness for h in hits]) == _bytes(
        [h.burstiness for h in expected]
    )


@given(data=streams(), t=query_times, theta=st.sampled_from([0.0, 1.0]))
def test_direct_scan_is_canonical_over_seen_ids(data, t, theta):
    ids, ts = data
    store = _store("direct", dict(cell="pbe1", eta=6, buffer_size=12), ids, ts)
    hits = store.bursty_event_query(t, theta, TAU)
    assert hits == _expected_hits(store, store.inner.ids(), t, theta)


def test_theta_zero_scan_orders_ties_by_id():
    """At a time with no records every id reads 0.0: with theta = 0 the
    scan returns the whole universe, ties in id order."""
    store = create_store("cm-pbe-1", universe_size=UNIVERSE, **_PBE1)
    store.extend_batch(np.arange(30) % 5, np.arange(30, dtype=np.float64))
    hits = store.bursty_event_query(500.0, 0.0, TAU)
    assert [hit.event_id for hit in hits] == list(range(UNIVERSE))
    assert all(hit.burstiness == 0.0 for hit in hits)


# ----------------------------------------------------------------------
# The cached universe columns
# ----------------------------------------------------------------------
def test_universe_columns_are_hashed_once_and_read_only(monkeypatch):
    store = create_store("cm-pbe-1", universe_size=UNIVERSE, **_PBE1)
    store.extend_batch(np.arange(60) % 9, np.arange(60) / 4)
    store.bursty_event_query(10.0, 1.0, TAU)
    sketch = store.inner
    columns = sketch.universe_columns(UNIVERSE)
    expected = HashFamily(depth=5, width=16, seed=0).hash_many(
        np.arange(UNIVERSE)
    )
    assert columns.dtype == expected.dtype
    assert np.array_equal(columns, expected)
    assert not columns.flags.writeable
    with pytest.raises(ValueError):
        columns[0, 0] = 1

    # Ingest changes the cells, never the columns.
    store.extend_batch(np.array([3, 4]), np.array([20.0, 20.5]))
    hashed = []
    hash_many = HashFamily.hash_many
    monkeypatch.setattr(
        HashFamily,
        "hash_many",
        lambda self, items: hashed.append(len(items)) or hash_many(self, items),
    )
    again = store.bursty_event_query(10.0, 1.0, TAU)
    assert hashed == []
    assert sketch.universe_columns(UNIVERSE) is columns
    # A different universe size hashes afresh.
    assert sketch.universe_columns(UNIVERSE + 1).shape == (UNIVERSE + 1, 5)
    assert hashed == [UNIVERSE + 1]
    assert again == _expected_hits(store, np.arange(UNIVERSE), 10.0, 1.0)


# ----------------------------------------------------------------------
# Scalar PBE-2 lookups
# ----------------------------------------------------------------------
@given(data=streams(min_size=20), t=query_times)
def test_pbe2_scalar_value_survives_pickling_and_growth(data, t):
    """The scalar lookup reads memoryviews of the segment columns; a
    pickled cell rebinds them, and growth rebinds the grown table."""
    _, ts = data
    cell = PBE2(gamma=1.0)
    half = ts.size // 2
    cell.extend_batch(ts[:half])
    cell.finalize()
    clone = pickle.loads(pickle.dumps(cell))
    assert clone.value(t) == cell.value(t)
    for sketch in (cell, clone):
        sketch.extend_batch(ts[half:])
        sketch.finalize()
    probes = np.append(ts, t)
    for sketch in (cell, clone):
        scalar = [sketch.value(x) for x in probes.tolist()]
        assert np.array_equal(scalar, sketch.value_many(probes))
    assert clone._table().tobytes() == cell._table().tobytes()
