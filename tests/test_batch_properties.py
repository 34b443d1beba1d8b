"""Property tests: batch ingestion is bit-identical to scalar ingestion.

Every sketch in the stack grew an ``extend_batch`` / ``update_batch``
fast path in addition to its scalar ``update``.  These hypothesis tests
pin the contract that batching is *purely* a throughput optimization:

* feeding a record batch at once must leave byte-identical internal
  state to feeding the same records one ``update`` at a time,
* splitting one batch into arbitrary sub-batches must not change the
  result either (so ``--batch-size`` can never affect a built sketch),
* the chunk-and-merge builders must agree with their scalar-built
  equivalents and preserve exactness at kept corners.

State is compared on the sketches' full internals (corners, buffers,
polygons, pending elements, counts, accumulated error), not just query
answers — query-level equality could hide drift that surfaces later.
"""

from __future__ import annotations

import bisect

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cmpbe import CMPBE, DirectPBEMap
from repro.core.parallel import _chunk_bounds, merge_pbe1
from repro.core.pbe1 import PBE1
from repro.core.pbe2 import PBE2
from repro.sketch.countmin import CountMinSketch
from repro.sketch.hashing import HashFamily

# Polygon clipping makes some PBE2 examples mildly slow; a wall-clock
# deadline would turn that into flaky failures on loaded CI machines.
settings.register_profile("batch", deadline=None, max_examples=80)
settings.load_profile("batch")


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def timestamp_batch(draw, max_size: int = 64):
    """A sorted timestamp column (integer/half-integer ticks, duplicates
    likely) with optional positive per-record counts."""
    raw = draw(st.lists(st.integers(0, 40), min_size=0, max_size=max_size))
    ts = sorted(t / 2 for t in raw)
    counts = None
    if draw(st.booleans()):
        counts = draw(
            st.lists(
                st.integers(1, 3), min_size=len(ts), max_size=len(ts)
            )
        )
    return ts, counts


@st.composite
def record_batch(draw, max_size: int = 64, n_ids: int = 8):
    """A CM-PBE record batch: parallel id / sorted-timestamp columns."""
    ts, counts = draw(timestamp_batch(max_size=max_size))
    ids = draw(
        st.lists(
            st.integers(0, n_ids - 1),
            min_size=len(ts),
            max_size=len(ts),
        )
    )
    return ids, ts, counts


@st.composite
def cut_points(draw, n: int, max_cuts: int = 4):
    """Sorted interior cut indices partitioning ``range(n)``."""
    cuts = draw(
        st.lists(st.integers(0, n), max_size=max_cuts)
    )
    return sorted(set(cuts))


def _sub_batches(ts, counts, cuts):
    """Split parallel columns at the given cut indices."""
    bounds = [0, *cuts, len(ts)]
    for lo, hi in zip(bounds, bounds[1:]):
        yield ts[lo:hi], None if counts is None else counts[lo:hi]


# ----------------------------------------------------------------------
# State snapshots (full internals, not query answers)
# ----------------------------------------------------------------------
def pbe1_state(sketch: PBE1):
    return (
        sketch._kept_xs.tolist(),
        sketch._kept_ys.tolist(),
        sketch._buffer_xs,
        sketch._buffer_ys,
        sketch._count,
        sketch._construction_error,
    )


def pbe2_state(sketch: PBE2):
    return (
        [(s.a, s.b, s.t_start, s.t_end) for s in sketch._segments],
        sketch._segment_starts,
        sketch._pending_t,
        sketch._pending_y,
        sketch._last_committed_t,
        sketch._last_committed_y,
        None if sketch._polygon is None else sketch._polygon.vertices,
        sketch._open_ranges,
        sketch._group_start,
        sketch._group_last_t,
        sketch._count,
    )


def _cell_state(cell):
    return pbe1_state(cell) if isinstance(cell, PBE1) else pbe2_state(cell)


def cmpbe_state(sketch: CMPBE):
    return (
        sketch._count,
        [[_cell_state(cell) for cell in row] for row in sketch._cells],
    )


def direct_map_state(sketch: DirectPBEMap):
    return (
        sketch._count,
        {eid: _cell_state(cell) for eid, cell in sketch._cells.items()},
    )


def _feed_scalar(sketch, ts, counts):
    if counts is None:
        for t in ts:
            sketch.update(t)
    else:
        for t, c in zip(ts, counts):
            sketch.update(t, c)


# ----------------------------------------------------------------------
# Hashing and Count-Min
# ----------------------------------------------------------------------
@given(
    items=st.lists(st.integers(0, 2**62), min_size=1, max_size=50),
    depth=st.integers(1, 4),
    width=st.integers(1, 97),
    seed=st.integers(0, 10),
)
def test_hash_many_matches_scalar_hash_all(items, depth, width, seed):
    family = HashFamily(depth=depth, width=width, seed=seed)
    matrix = family.hash_many(np.asarray(items, dtype=np.int64))
    assert matrix.shape == (len(items), depth)
    for i, item in enumerate(items):
        assert matrix[i].tolist() == list(family.hash_all(item))


@given(
    items=st.lists(st.integers(0, 200), min_size=0, max_size=60),
    with_counts=st.booleans(),
    data=st.data(),
)
def test_countmin_update_batch_matches_scalar(items, with_counts, data):
    counts = None
    if with_counts:
        counts = data.draw(
            st.lists(
                st.integers(1, 5),
                min_size=len(items),
                max_size=len(items),
            )
        )
    scalar = CountMinSketch(width=16, depth=3, seed=5)
    batched = CountMinSketch(width=16, depth=3, seed=5)
    if counts is None:
        for item in items:
            scalar.update(item)
    else:
        for item, c in zip(items, counts):
            scalar.update(item, c)
    batched.update_batch(
        np.asarray(items, dtype=np.int64),
        None if counts is None else np.asarray(counts, dtype=np.int64),
    )
    assert np.array_equal(scalar._table, batched._table)
    assert scalar._total == batched._total


# ----------------------------------------------------------------------
# PBE-1 / PBE-2: batch == scalar, and batching is associative
# ----------------------------------------------------------------------
@given(batch=timestamp_batch(), eta=st.integers(2, 4), data=st.data())
def test_pbe1_batch_matches_scalar(batch, eta, data):
    ts, counts = batch
    # Tiny buffers force compression mid-batch, the hard case.
    buffer_size = data.draw(st.integers(2, 7))
    scalar = PBE1(eta=eta, buffer_size=buffer_size)
    batched = PBE1(eta=eta, buffer_size=buffer_size)
    _feed_scalar(scalar, ts, counts)
    batched.extend_batch(ts, counts)
    assert pbe1_state(scalar) == pbe1_state(batched)


@given(batch=timestamp_batch(), data=st.data())
def test_pbe1_batch_split_invariance(batch, data):
    ts, counts = batch
    cuts = data.draw(cut_points(len(ts)))
    whole = PBE1(eta=3, buffer_size=5)
    split = PBE1(eta=3, buffer_size=5)
    whole.extend_batch(ts, counts)
    for sub_ts, sub_counts in _sub_batches(ts, counts, cuts):
        split.extend_batch(sub_ts, sub_counts)
    assert pbe1_state(whole) == pbe1_state(split)


@given(
    batch=timestamp_batch(),
    gamma=st.sampled_from([1.0, 2.5, 6.0]),
    max_vertices=st.sampled_from([None, 3, 4, 6]),
)
def test_pbe2_batch_matches_scalar(batch, gamma, max_vertices):
    ts, counts = batch
    scalar = PBE2(gamma=gamma, max_polygon_vertices=max_vertices)
    batched = PBE2(gamma=gamma, max_polygon_vertices=max_vertices)
    _feed_scalar(scalar, ts, counts)
    batched.extend_batch(ts, counts)
    assert pbe2_state(scalar) == pbe2_state(batched)


@given(
    batch=timestamp_batch(),
    data=st.data(),
    max_vertices=st.sampled_from([None, 3, 4, 6]),
)
def test_pbe2_batch_split_invariance(batch, data, max_vertices):
    ts, counts = batch
    cuts = data.draw(cut_points(len(ts)))
    whole = PBE2(gamma=2.0, max_polygon_vertices=max_vertices)
    split = PBE2(gamma=2.0, max_polygon_vertices=max_vertices)
    whole.extend_batch(ts, counts)
    for sub_ts, sub_counts in _sub_batches(ts, counts, cuts):
        split.extend_batch(sub_ts, sub_counts)
    assert pbe2_state(whole) == pbe2_state(split)


# ----------------------------------------------------------------------
# CM-PBE and the direct map: grouped batch == interleaved scalar
# ----------------------------------------------------------------------
@given(batch=record_batch(), variant=st.sampled_from(["pbe1", "pbe2"]))
def test_cmpbe_batch_matches_scalar(batch, variant):
    ids, ts, counts = batch

    def make():
        if variant == "pbe1":
            return CMPBE.with_pbe1(
                eta=2, width=4, depth=2, buffer_size=4, seed=3
            )
        return CMPBE.with_pbe2(gamma=2.0, width=4, depth=2, seed=3)

    scalar, batched = make(), make()
    if counts is None:
        for e, t in zip(ids, ts):
            scalar.update(e, t)
    else:
        for e, t, c in zip(ids, ts, counts):
            scalar.update(e, t, c)
    batched.extend_batch(ids, ts, counts)
    assert cmpbe_state(scalar) == cmpbe_state(batched)


@given(batch=record_batch(), data=st.data())
def test_cmpbe_batch_split_invariance(batch, data):
    ids, ts, counts = batch
    cuts = data.draw(cut_points(len(ts)))
    bounds = [0, *cuts, len(ts)]

    def make():
        return CMPBE.with_pbe1(
            eta=2, width=4, depth=2, buffer_size=4, seed=3
        )

    whole, split = make(), make()
    whole.extend_batch(ids, ts, counts)
    for lo, hi in zip(bounds, bounds[1:]):
        split.extend_batch(
            ids[lo:hi],
            ts[lo:hi],
            None if counts is None else counts[lo:hi],
        )
    assert cmpbe_state(whole) == cmpbe_state(split)


@given(batch=record_batch())
def test_direct_map_batch_matches_scalar(batch):
    ids, ts, counts = batch
    scalar = DirectPBEMap(lambda: PBE1(eta=2, buffer_size=4))
    batched = DirectPBEMap(lambda: PBE1(eta=2, buffer_size=4))
    if counts is None:
        for e, t in zip(ids, ts):
            scalar.update(e, t)
    else:
        for e, t, c in zip(ids, ts, counts):
            scalar.update(e, t, c)
    batched.extend_batch(ids, ts, counts)
    assert direct_map_state(scalar) == direct_map_state(batched)


# ----------------------------------------------------------------------
# Stress shapes for the vectorized ingest cores: degenerate batches that
# exercise the hull-pruning and polygon-clipping edge cases — duplicate
# runs (zero-width staircase steps), monotone ramps (no pruning ever
# fires), all-equal counts (collinear hull candidates), and single
# elements (the vector paths' base case).
# ----------------------------------------------------------------------
@st.composite
def stress_batch(draw, max_size: int = 64):
    """A degenerate timestamp column drawn from one of the shapes the
    vectorized kernels are most likely to get wrong."""
    shape = draw(
        st.sampled_from(["duplicates", "ramp", "equal_counts", "single"])
    )
    if shape == "single":
        ts = [draw(st.integers(0, 40)) / 2]
    elif shape == "duplicates":
        # Few distinct ticks, long runs of each.
        ticks = draw(
            st.lists(
                st.integers(0, 10), min_size=1, max_size=5, unique=True
            )
        )
        runs = [
            (tick, draw(st.integers(1, max_size // len(ticks) + 1)))
            for tick in sorted(ticks)
        ]
        ts = [float(tick) for tick, n in runs for _ in range(n)]
    else:
        # Strictly increasing ramp (integer or half-integer stride).
        start = draw(st.integers(0, 10))
        stride = draw(st.sampled_from([1, 2]))
        n = draw(st.integers(1, max_size))
        ts = [(start + i * stride) / 2 for i in range(n)]
    counts = None
    if shape == "equal_counts":
        counts = [draw(st.integers(1, 3))] * len(ts)
    elif draw(st.booleans()):
        counts = draw(
            st.lists(st.integers(1, 3), min_size=len(ts), max_size=len(ts))
        )
    return ts, counts


@given(batch=stress_batch(), eta=st.integers(2, 4), data=st.data())
def test_pbe1_stress_batch_matches_scalar(batch, eta, data):
    ts, counts = batch
    buffer_size = data.draw(st.integers(2, 7))
    scalar = PBE1(eta=eta, buffer_size=buffer_size)
    batched = PBE1(eta=eta, buffer_size=buffer_size)
    _feed_scalar(scalar, ts, counts)
    batched.extend_batch(ts, counts)
    assert pbe1_state(scalar) == pbe1_state(batched)


@given(batch=stress_batch(), gamma=st.sampled_from([1.0, 2.5, 6.0]))
def test_pbe2_stress_batch_matches_scalar(batch, gamma):
    ts, counts = batch
    scalar = PBE2(gamma=gamma)
    batched = PBE2(gamma=gamma)
    _feed_scalar(scalar, ts, counts)
    batched.extend_batch(ts, counts)
    assert pbe2_state(scalar) == pbe2_state(batched)


# ----------------------------------------------------------------------
# Chunk-boundary sweep: split one fixed workload at EVERY offset.
# Hypothesis samples cut points; these deterministic sweeps leave no
# boundary unchecked, so an off-by-one at a specific split position
# cannot hide behind example sampling.
# ----------------------------------------------------------------------
_SWEEP_TS = [0.0, 0.0, 0.5, 1.0, 1.0, 1.0, 2.5, 3.0, 3.0, 4.5, 4.5, 6.0]
_SWEEP_COUNTS = [1, 2, 1, 3, 1, 1, 2, 1, 1, 3, 1, 2]


def test_pbe1_split_at_every_offset_matches_whole():
    whole = PBE1(eta=3, buffer_size=4)
    whole.extend_batch(_SWEEP_TS, _SWEEP_COUNTS)
    expected = pbe1_state(whole)
    for cut in range(len(_SWEEP_TS) + 1):
        split = PBE1(eta=3, buffer_size=4)
        split.extend_batch(_SWEEP_TS[:cut], _SWEEP_COUNTS[:cut])
        split.extend_batch(_SWEEP_TS[cut:], _SWEEP_COUNTS[cut:])
        assert pbe1_state(split) == expected, f"cut at {cut}"


def test_pbe2_split_at_every_offset_matches_whole():
    whole = PBE2(gamma=2.0)
    whole.extend_batch(_SWEEP_TS, _SWEEP_COUNTS)
    expected = pbe2_state(whole)
    for cut in range(len(_SWEEP_TS) + 1):
        split = PBE2(gamma=2.0)
        split.extend_batch(_SWEEP_TS[:cut], _SWEEP_COUNTS[:cut])
        split.extend_batch(_SWEEP_TS[cut:], _SWEEP_COUNTS[cut:])
        assert pbe2_state(split) == expected, f"cut at {cut}"


# ----------------------------------------------------------------------
# Whole-store equivalence across the backend matrix: scalar feed, one
# whole batch, and a two-way split must all serialize identically.
# ----------------------------------------------------------------------
_STORE_IDS = [0, 3, 1, 3, 7, 2, 3, 0, 5, 3, 1, 7, 4, 3, 2, 0, 6, 3, 5, 1, 3, 7, 0, 3]
_STORE_TS = [
    0.0, 0.0, 0.5, 1.0, 1.5, 1.5, 2.0, 3.0, 3.0, 3.5, 4.0, 5.0,
    5.0, 5.5, 6.0, 7.5, 8.0, 8.0, 9.0, 9.5, 10.0, 10.5, 11.0, 11.0,
]


def _matrix_store(backend, cfg):
    from repro.core.store import create_store

    return create_store(backend, **cfg)


def _store_matrix_params():
    import pytest as _pytest

    from tests.backends import BACKEND_IDS, BACKEND_MATRIX

    return _pytest.mark.parametrize(
        "label,backend,cfg", BACKEND_MATRIX, ids=BACKEND_IDS
    )


@_store_matrix_params()
def test_store_batch_matches_scalar_across_matrix(label, backend, cfg):
    from repro.core.serialize import save_store

    scalar = _matrix_store(backend, cfg)
    for event_id, t in zip(_STORE_IDS, _STORE_TS):
        scalar.update(event_id, t)
    batched = _matrix_store(backend, cfg)
    batched.extend_batch(_STORE_IDS, _STORE_TS)

    for cut in (0, 1, 5, 11, 12, 13, 23, 24):
        split = _matrix_store(backend, cfg)
        split.extend_batch(_STORE_IDS[:cut], _STORE_TS[:cut])
        split.extend_batch(_STORE_IDS[cut:], _STORE_TS[cut:])
        assert save_store(split) == save_store(batched), f"cut at {cut}"
    assert save_store(scalar) == save_store(batched)


# ----------------------------------------------------------------------
# Chunk-and-merge: numpy-chunked parts == scalar-built parts, and the
# merged sketch stays exact at its kept corners.
# ----------------------------------------------------------------------
@given(
    batch=timestamp_batch(max_size=80),
    n_chunks=st.integers(1, 5),
)
def test_chunked_parts_match_scalar_parts(batch, n_chunks):
    ts, _ = batch
    if not ts:
        return
    chunks = [np.asarray(ts[a:b]) for a, b in _chunk_bounds(ts, n_chunks)]
    batch_parts, scalar_parts = [], []
    for chunk in chunks:
        bp = PBE1(eta=3, buffer_size=6)
        bp.extend_batch(chunk)
        bp.flush()
        batch_parts.append(bp)
        sp = PBE1(eta=3, buffer_size=6)
        sp.extend(chunk.tolist())
        sp.flush()
        scalar_parts.append(sp)
    merged_batch = merge_pbe1(batch_parts)
    merged_scalar = merge_pbe1(scalar_parts)
    assert pbe1_state(merged_batch) == pbe1_state(merged_scalar)


@given(batch=timestamp_batch(max_size=80), n_chunks=st.integers(1, 4))
def test_merged_kept_corners_are_exact(batch, n_chunks):
    """Merged corners sit exactly on the exact cumulative staircase.

    PBE-1 keeps a *subset* of exact corners and merging only offsets
    counts, so every kept corner of the merged sketch must report the
    true ``F(t)`` — and the total count must be the stream length.
    """
    ts, _ = batch
    if not ts:
        return
    chunks = [np.asarray(ts[a:b]) for a, b in _chunk_bounds(ts, n_chunks)]
    parts = []
    for chunk in chunks:
        part = PBE1(eta=3, buffer_size=6)
        part.extend_batch(chunk)
        parts.append(part)
    merged = merge_pbe1(parts)
    assert merged.count == len(ts)
    for x, y in zip(merged._kept_xs, merged._kept_ys):
        assert y == bisect.bisect_right(ts, x)
