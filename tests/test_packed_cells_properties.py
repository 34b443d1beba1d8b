"""Property tests: packed PBE-1 batch reads equal the per-cell oracles.

CM-PBE and direct-map containers answer batch reads from a
:class:`repro.core.pbe1.PackedCells` table built once per version: every
cell's corners in flat arrays, looked up through one integer key.  These
tests pin, at zero tolerance (byte-equal float64 answers), that packing
is purely a speed change on ``cm-pbe-1``, ``direct`` (PBE-1 cells),
``index`` (PBE-1 cells) and a three-shard ``cm-pbe-1``:

* ``burstiness_many``, ``cumulative_frequency_many`` and
  ``segment_starts`` of every container (every dyadic level of the
  index) equal the per-cell loops in :mod:`tests.oracles.cmpbe`, and
  store batch reads equal the scalar ``point_query`` loop, for query
  times before the first corner, exactly on corners (and on their
  ``tau``/``2 tau`` shifts), between corners and past the last one, on
  tie-heavy, Unix-epoch and signed-zero timestamps;
* a pack never outlives the version it was built for: ingest (batch and
  scalar), ``finalize`` and ``merge`` after a query answer like a twin
  that was never queried, and a merge leaves its operands' answers as
  they were;
* a memory-mapped archive answers every batch read like its twin read
  into memory, with every PBE-1 cell still viewing the mapping;
* readers racing to build the same pack all answer as one reader does.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cmpbe import CMPBE
from repro.core.serialize import open_store, save_store
from repro.core.store import create_store
from tests.oracles.cmpbe import (
    cmpbe_burstiness_many,
    cmpbe_cumulative_frequency_many,
    cmpbe_segment_starts,
    direct_burstiness_many,
)

settings.register_profile("packed_cells", deadline=None, max_examples=30)
settings.load_profile("packed_cells")

UNIVERSE = 24
BUFFER_SIZE = 16
EPOCH = 1.7e9
LABELS = ["cm-pbe-1", "direct", "index", "sharded-cm-pbe-1"]


# ----------------------------------------------------------------------
# Strategies and helpers
# ----------------------------------------------------------------------
@st.composite
def record_streams(draw, min_size: int = 1, max_size: int = 200):
    """A sorted ``(ids, ts)`` stream: tie-heavy integers, quarter steps
    at Unix-epoch scale, or integers whose zeros carry random signs."""
    raw = sorted(
        draw(
            st.lists(
                st.integers(0, 300), min_size=min_size, max_size=max_size
            )
        )
    )
    kind = draw(st.sampled_from(["ties", "epoch", "signed-zero"]))
    if kind == "epoch":
        ts = [EPOCH + 0.25 * t for t in raw]
    else:
        ts = [float(t) for t in raw]
    if kind == "signed-zero":
        signs = draw(
            st.lists(st.booleans(), min_size=len(ts), max_size=len(ts))
        )
        ts = [-0.0 if t == 0.0 and neg else t for t, neg in zip(ts, signs)]
    ids = draw(
        st.lists(
            st.integers(0, UNIVERSE - 1), min_size=len(ts), max_size=len(ts)
        )
    )
    return np.asarray(ids, dtype=np.int64), np.asarray(ts, dtype=np.float64)


def _store(label: str):
    pbe1 = dict(eta=4, buffer_size=BUFFER_SIZE)
    grid = dict(width=5, depth=3, seed=0, **pbe1)
    if label == "cm-pbe-1":
        return create_store("cm-pbe-1", universe_size=UNIVERSE, **grid)
    if label == "direct":
        return create_store("direct", cell="pbe1", **pbe1)
    if label == "index":
        return create_store(
            "index", universe_size=UNIVERSE, cell="pbe1", **grid
        )
    return create_store(
        "sharded", shards=3, backend="cm-pbe-1", universe_size=UNIVERSE,
        **grid,
    )


def _containers(store) -> list:
    """Every CM-PBE grid / direct map of a store (each dyadic level,
    each shard)."""
    if store.backend_key == "sharded":
        return [shard.inner for shard in store.shards]
    if store.backend_key == "index":
        return [
            store.inner.level_sketch(level)
            for level in range(store.inner.n_levels)
        ]
    return [store.inner]


def _corners(store) -> np.ndarray:
    """Every corner time of every container."""
    xs = [
        np.asarray(cell.segment_starts(), dtype=np.float64)
        for sketch in _containers(store)
        for cell in sketch.cells()
    ]
    return np.concatenate(xs + [np.empty(0)])


def _query_times(store, tau: float, extra: np.ndarray) -> np.ndarray:
    """Times before the first corner, on corners and on their ``tau`` /
    ``2 tau`` shifts, between corners, past the last one, plus both
    zeros."""
    corners = np.unique(_corners(store))
    if corners.size == 0:
        return np.concatenate([extra, [-0.0, 0.0]])
    mids = (corners[:-1] + corners[1:]) / 2
    return np.concatenate(
        [
            [corners[0] - 1.0, corners[-1] + 3 * tau, -0.0, 0.0],
            corners,
            corners + tau,
            corners + 2 * tau,
            mids,
            extra,
        ]
    )


def _same(a, b) -> bool:
    """Byte-equal float64 arrays (zero tolerance, signs of zero too)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_matches_oracles(store, times: np.ndarray, tau: float) -> None:
    rng = np.random.default_rng(times.size)
    ids = rng.integers(0, UNIVERSE + 3, times.size)
    for sketch in _containers(store):
        if isinstance(sketch, CMPBE):
            level_ids = ids % UNIVERSE
            assert _same(
                sketch.burstiness_many(level_ids, times, tau),
                cmpbe_burstiness_many(sketch, level_ids, times, tau),
            )
            for event_id in np.unique(level_ids)[:6].tolist():
                assert _same(
                    sketch.cumulative_frequency_many(event_id, times),
                    cmpbe_cumulative_frequency_many(sketch, event_id, times),
                )
                assert sketch.segment_starts(event_id) == (
                    cmpbe_segment_starts(sketch, event_id)
                )
        else:
            assert _same(
                sketch.burstiness_many(ids, times, tau),
                direct_burstiness_many(sketch, ids, times, tau),
            )
    point_ids = ids % UNIVERSE
    batch = store.point_query_batch(point_ids, times, tau)
    scalar = [
        store.point_query(e, t, tau)
        for e, t in zip(point_ids.tolist(), times.tolist())
    ]
    assert _same(batch, scalar)


# ----------------------------------------------------------------------
# Packed reads equal the per-cell oracles
# ----------------------------------------------------------------------
@pytest.mark.parametrize("label", LABELS)
@given(stream=record_streams(), tau=st.sampled_from([0.25, 1.0, 7.0]))
def test_packed_reads_match_oracles(label, stream, tau):
    ids, ts = stream
    store = _store(label)
    store.extend_batch(ids, ts)
    _assert_matches_oracles(store, _query_times(store, tau, ts), tau)
    store.finalize()
    _assert_matches_oracles(store, _query_times(store, tau, ts), tau)


@pytest.mark.parametrize("label", LABELS)
def test_empty_and_unseen_reads(label):
    store = _store(label)
    ts = np.array([-1.0, -0.0, 0.0, 5.0])
    assert _same(store.point_query_batch([0, 1, 2, 3], ts, 1.0), np.zeros(4))
    store.extend_batch([1], [2.0])
    _assert_matches_oracles(store, _query_times(store, 1.0, ts), 1.0)


# ----------------------------------------------------------------------
# A pack never outlives its version
# ----------------------------------------------------------------------
MUTATIONS = ["extend_batch", "update", "finalize", "merge"]


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("label", LABELS)
@given(
    first=record_streams(max_size=120),
    second=record_streams(max_size=120),
    tau=st.sampled_from([0.5, 3.0]),
)
def test_mutation_after_query_drops_the_pack(
    label, mutation, first, second, tau
):
    ids_a, ts_a = first
    ids_b, ts_b = second
    ts_b = ts_b - ts_b[0] + ts_a[-1] + 1.0  # strictly after the first part
    queried, twin = _store(label), _store(label)
    for store in (queried, twin):
        store.extend_batch(ids_a, ts_a)
    times = _query_times(queried, tau, np.concatenate([ts_a, ts_b]))
    _assert_matches_oracles(queried, times, tau)  # builds every pack
    before = queried.point_query_batch(ids_a % UNIVERSE, ts_a, tau)

    if mutation == "merge":
        others = [_store(label) for _ in range(2)]
        for other in others:
            other.extend_batch(ids_b, ts_b)
        merged = queried.merge(others[0])
        reference = twin.merge(others[1])
        # The operand keeps answering from its own, still valid pack.
        again = queried.point_query_batch(ids_a % UNIVERSE, ts_a, tau)
        assert _same(again, before)
        queried, twin = merged, reference
    for store in (queried, twin):
        if mutation == "extend_batch":
            store.extend_batch(ids_b, ts_b)
        elif mutation == "update":
            for event_id, t in zip(ids_b.tolist(), ts_b.tolist()):
                store.update(event_id, t)
        elif mutation == "finalize":
            store.finalize()
    assert _same(
        queried.point_query_batch(ids_b % UNIVERSE, ts_b, tau),
        twin.point_query_batch(ids_b % UNIVERSE, ts_b, tau),
    )
    _assert_matches_oracles(queried, times, tau)


# ----------------------------------------------------------------------
# Memory-mapped archives pack in place
# ----------------------------------------------------------------------
def _kept_columns(store) -> list[np.ndarray]:
    """Kept corner arrays of every non-empty PBE-1 cell of ``store``."""
    return [
        column
        for part in getattr(store, "shards", [store])
        for level in part._levels()
        for cell in level.cells()
        for column in (cell._kept_xs, cell._kept_ys)
        if column.size
    ]


@pytest.mark.parametrize("label", LABELS)
@given(stream=record_streams(min_size=20), tau=st.sampled_from([1.0, 9.0]))
def test_lazy_archive_packs_without_hydrating(
    tmp_path_factory, label, stream, tau
):
    ids, ts = stream
    store = _store(label)
    store.extend_batch(ids, ts)
    store.finalize()
    path = tmp_path_factory.mktemp("lazy") / "store.beds"
    path.write_bytes(save_store(store))
    lazy = open_store(path)
    eager = open_store(path, lazy=False)
    times = _query_times(eager, tau, ts)
    query_ids = np.resize(np.arange(UNIVERSE), times.size)
    t_mid = float(np.median(ts))
    for reader in (
        lambda s: s.point_query_batch(query_ids, times, tau),
        lambda s: s.bursty_event_query(t_mid, 0.5, tau),
        lambda s: [s.bursty_time_query(e, 0.5, tau) for e in range(UNIVERSE)],
        lambda s: [
            s.peak_query(e, t_mid - tau, t_mid + tau, tau)
            for e in range(UNIVERSE)
        ],
    ):
        answer, expected = reader(lazy), reader(eager)
        if isinstance(expected, np.ndarray):
            assert _same(answer, expected)
        else:
            assert answer == expected
    # Every PBE-1 cell still reads the mapping in place, read-only.
    mapping = np.frombuffer(lazy._lazy_source, dtype=np.uint8)
    columns = _kept_columns(lazy)
    assert columns
    for column in columns:
        assert not column.flags.writeable
        assert np.shares_memory(column, mapping)


# ----------------------------------------------------------------------
# Concurrent readers share one pack
# ----------------------------------------------------------------------
@pytest.mark.parametrize("label", ["cm-pbe-1", "direct"])
def test_concurrent_readers_race_the_lazy_build(label):
    """Readers that race to build a container's pack each get a whole
    table: every answer equals the single-threaded one."""
    rng = np.random.default_rng(7)
    store = _store(label)
    store.extend_batch(
        rng.integers(0, UNIVERSE, 600), np.sort(rng.uniform(0, 500, 600))
    )
    store.finalize()
    ids = rng.integers(0, UNIVERSE, 256)
    times = rng.uniform(-10, 520, 256)
    expected = store.point_query_batch(ids, times, 4.0)
    failures: list[str] = []

    def reader():
        for _ in range(20):
            if not _same(store.point_query_batch(ids, times, 4.0), expected):
                failures.append("answer differs")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            store.finalize()  # no-op fold; drops the pack
            threads = [threading.Thread(target=reader) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not failures
