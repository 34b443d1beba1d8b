"""Property tests: batched PBE-1 folds equal per-cell folds, bit for bit.

A seal, a save or a merge folds every partial PBE-1 buffer of a
container in one batched refinement sweep
(:func:`repro.core.pbe1.approximate_staircases` through
:func:`repro.core.pbe1.fold_buffers`).  These tests pin, at zero
tolerance, that batching is purely a throughput change:

* the batched engine equals one-cell calls and the scalar DP loop in
  :mod:`tests.oracles.pbe1`, for ``selected`` and ``error``, on mixed
  cell sizes (trivial cells, ``n = 3``, ``n = buffer_size``, one cell,
  ``eta = 2``) with tie-heavy integer and Unix-epoch float corners;
* ``to_bytes()`` of ``cm-pbe-1``, ``direct`` and ``index`` stores with
  live buffers equals the bytes after a per-cell oracle fold, and
  ``finalize()`` equals a per-cell ``flush()`` loop;
* a dump or a merge leaves the live sketch untouched: later ingest
  answers exactly like a twin that was never dumped or merged.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pbe1 import PBE1, approximate_staircase, approximate_staircases
from repro.core.store import create_store
from tests.oracles.pbe1 import staircase_dp

settings.register_profile("pbe1_fold", deadline=None, max_examples=40)
settings.load_profile("pbe1_fold")

UNIVERSE = 24
BUFFER_SIZE = 24
EPOCH = 1.7e9


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def staircases(draw, max_n: int = BUFFER_SIZE):
    """Strictly increasing corners: tie-heavy integers or epoch floats."""
    n = draw(st.sampled_from([0, 1, 2, 3, max_n]) | st.integers(0, max_n))
    if draw(st.booleans()):
        gaps = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        steps = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
        xs = np.cumsum(gaps, dtype=np.float64)
    else:
        gaps = draw(
            st.lists(st.floats(0.01, 500.0), min_size=n, max_size=n)
        )
        steps = draw(st.lists(st.integers(1, 40), min_size=n, max_size=n))
        xs = EPOCH + np.cumsum(gaps)
        keep = np.concatenate([[True], np.diff(xs) > 0]) if n else []
        xs, steps = xs[keep], np.asarray(steps)[keep]
    return xs, np.cumsum(steps, dtype=np.float64)


@st.composite
def record_streams(draw, max_size: int = 240):
    """A sorted ``(ids, ts)`` stream: integer-tied or epoch timestamps."""
    raw = draw(st.lists(st.integers(0, 400), min_size=1, max_size=max_size))
    scale = draw(st.sampled_from([1.0, 0.25]))
    base = draw(st.sampled_from([0.0, EPOCH]))
    ts = [base + t * scale for t in sorted(raw)]
    ids = draw(
        st.lists(
            st.integers(0, UNIVERSE - 1), min_size=len(ts), max_size=len(ts)
        )
    )
    return np.asarray(ids, dtype=np.int64), np.asarray(ts)


def _store(label: str, eta: int = 5):
    """A small PBE-1 store of each container kind."""
    pbe1 = dict(eta=eta, buffer_size=BUFFER_SIZE)
    grid = dict(width=4, depth=3, seed=0, **pbe1)
    if label == "cm-pbe-1":
        return create_store("cm-pbe-1", universe_size=UNIVERSE, **grid)
    if label == "direct":
        return create_store("direct", cell="pbe1", **pbe1)
    if label == "index":
        return create_store(
            "index", universe_size=UNIVERSE, cell="pbe1", **grid
        )
    if label == "cm-pbe-2":
        return create_store(
            "cm-pbe-2",
            universe_size=UNIVERSE,
            gamma=3.0,
            unit=1.0,
            width=4,
            depth=3,
            seed=0,
        )
    if label == "direct-pbe2":
        return create_store("direct", cell="pbe2", gamma=3.0, unit=1.0)
    if label == "index-pbe2":
        return create_store(
            "index",
            universe_size=UNIVERSE,
            cell="pbe2",
            gamma=3.0,
            unit=1.0,
            width=4,
            depth=3,
            seed=0,
        )
    raise AssertionError(label)


def _sketch_cells(sketch) -> list:
    if isinstance(sketch._cells, dict):
        return list(sketch._cells.values())
    return [cell for row in sketch._cells for cell in row]


def _cells(store) -> list:
    """Every PBE cell under a cm-pbe, direct or index store."""
    inner = store.inner
    if hasattr(inner, "level_sketch"):
        return [
            cell
            for level in range(inner.n_levels)
            for cell in _sketch_cells(inner.level_sketch(level))
        ]
    return _sketch_cells(inner)


def _state(cell) -> tuple:
    """A cell's full mutable state."""
    if isinstance(cell, PBE1):
        return (
            list(cell._kept_xs),
            list(cell._kept_ys),
            list(cell._buffer_xs),
            list(cell._buffer_ys),
            cell.count,
            cell.construction_error,
        )
    return (
        [(s.a, s.b, s.t_start, s.t_end) for s in cell._segments],
        cell._pending_t,
        cell._pending_y,
        None if cell._poly_x is None else list(cell._poly_x),
        list(cell._open_ranges),
        cell.count,
    )


def _oracle_fold(cell: PBE1) -> None:
    """Fold one cell's buffer through the scalar DP loop."""
    if cell._buffer_xs:
        xs = np.asarray(cell._buffer_xs)
        ys = np.asarray(cell._buffer_ys)
        cell._commit_fold(xs, ys, staircase_dp(xs, ys, cell.eta))


def _split(ids: np.ndarray, ts: np.ndarray, cut: int):
    """Two time-ordered halves that never split a run of equal times."""
    cut = min(cut, ts.size)
    while 0 < cut < ts.size and ts[cut] == ts[cut - 1]:
        cut += 1
    return (ids[:cut], ts[:cut]), (ids[cut:], ts[cut:])


PBE1_STORES = ["cm-pbe-1", "direct", "index"]
MERGE_STORES = PBE1_STORES + ["cm-pbe-2", "direct-pbe2", "index-pbe2"]


# ----------------------------------------------------------------------
# Engine: batched sweep == one-cell calls == scalar oracle
# ----------------------------------------------------------------------
@given(
    cells=st.lists(staircases(), min_size=1, max_size=6),
    eta=st.sampled_from([2, 3, 4, 7, BUFFER_SIZE - 1]),
)
def test_batched_engine_equals_per_cell_and_oracle(cells, eta):
    batched = approximate_staircases(cells, eta)
    assert len(batched) == len(cells)
    for (xs, ys), result in zip(cells, batched):
        single = approximate_staircase(xs, ys, eta)
        oracle = staircase_dp(xs, ys, eta)
        assert result.selected.tolist() == single.selected.tolist()
        assert result.selected.tolist() == oracle.selected.tolist()
        assert result.error == single.error == oracle.error


def test_epoch_tie_keeps_the_leftmost_argmin():
    # Corners 5 and 6 tie exactly for row 7 of layer 5, while rounding
    # made 6 the strict argmin of layer 4; a floor at the previous
    # layer's argmin skipped 5 and kept [0..3, 5, 6, ...] instead.
    steps = [1700000001.9393728, 1.0] + [0.01] * 6 + [1.0] * 16
    xs = np.cumsum(steps)
    ys = np.arange(1.0, 25.0)
    result = approximate_staircase(xs, ys, 23)
    oracle = staircase_dp(xs, ys, 23)
    expected = [0, 1, 2, 3, 4, 5, *range(7, 24)]
    assert result.selected.tolist() == oracle.selected.tolist() == expected
    assert result.error == oracle.error == 0.00999760627746582


@given(cell=staircases(), eta=st.sampled_from([2, 5]))
def test_one_cell_batch_is_the_single_call(cell, eta):
    (result,) = approximate_staircases([cell], eta)
    oracle = staircase_dp(*cell, eta)
    assert result.selected.tolist() == oracle.selected.tolist()
    assert result.error == oracle.error


def test_batch_order_does_not_change_any_cell():
    rng = np.random.default_rng(7)
    cells = []
    for n in (3, 40, 2, 17, 40, 9):
        xs = np.unique(rng.integers(0, 4 * n + 4, size=3 * n))[:n]
        cells.append((xs.astype(np.float64), np.arange(1.0, xs.size + 1)))
    forward = approximate_staircases(cells, 4)
    backward = approximate_staircases(cells[::-1], 4)[::-1]
    for a, b in zip(forward, backward):
        assert a.selected.tolist() == b.selected.tolist()
        assert a.error == b.error


def test_split_sweeps_equal_one_sweep(monkeypatch):
    # A fold too large for one argmin table runs as several sweeps; the
    # split must not change any cell.
    import repro.core.pbe1 as pbe1_mod

    rng = np.random.default_rng(11)
    cells = []
    for n in (30, 12, 45, 8, 30):
        xs = np.unique(rng.integers(0, 4 * n, size=3 * n))[:n]
        cells.append((xs.astype(np.float64), np.arange(1.0, xs.size + 1)))
    whole = approximate_staircases(cells, 5)
    monkeypatch.setattr(pbe1_mod, "_SWEEP_ARG_BYTES", 8 * 4 * 40)
    sweep = [(slot, xs, ys) for slot, (xs, ys) in enumerate(cells)]
    assert len(pbe1_mod._sweep_chunks(sweep, 5)) > 2
    for a, b in zip(whole, approximate_staircases(cells, 5)):
        assert a.selected.tolist() == b.selected.tolist()
        assert a.error == b.error


def _staircase_case(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.uniform(0.0, 500.0, size=n))
    xs = np.unique(xs.round(1))
    ys = np.arange(1.0, xs.size + 1.0)
    return xs, ys


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("eta", [4, 9, 25])
def test_staircase_engine_matches_scalar_oracle(seed, eta):
    # Three cells of different sizes share one batched sweep; each must
    # equal the scalar DP loop bit for bit.
    cells = [
        _staircase_case(seed + 10 * k, n)
        for k, n in enumerate((120, 64, 90))
    ]
    for (xs, ys), result in zip(cells, approximate_staircases(cells, eta)):
        oracle = staircase_dp(xs, ys, eta)
        assert list(result.selected) == list(oracle.selected)
        assert result.error == oracle.error


# ----------------------------------------------------------------------
# Containers: batched folds == per-cell folds
# ----------------------------------------------------------------------
@pytest.mark.parametrize("label", PBE1_STORES)
@given(stream=record_streams(), eta=st.sampled_from([2, 3, 5]))
def test_snapshot_bytes_equal_per_cell_oracle_fold(label, stream, eta):
    ids, ts = stream
    live, twin = _store(label, eta), _store(label, eta)
    live.extend_batch(ids, ts)
    twin.extend_batch(ids, ts)
    for cell in _cells(twin):
        _oracle_fold(cell)
    assert live.to_bytes() == twin.to_bytes()


@pytest.mark.parametrize("label", PBE1_STORES)
@given(stream=record_streams(), eta=st.sampled_from([2, 3, 5]))
def test_finalize_equals_per_cell_flush(label, stream, eta):
    ids, ts = stream
    batched, looped = _store(label, eta), _store(label, eta)
    batched.extend_batch(ids, ts)
    looped.extend_batch(ids, ts)
    batched.finalize()
    for cell in _cells(looped):
        cell.flush()
    assert [_state(c) for c in _cells(batched)] == [
        _state(c) for c in _cells(looped)
    ]
    assert batched.to_bytes() == looped.to_bytes()


@pytest.mark.parametrize("label", PBE1_STORES)
@given(stream=record_streams(), cut=st.integers(1, 240))
def test_dump_leaves_live_sketch_unchanged(label, stream, cut):
    ids, ts = stream
    (ids_a, ts_a), (ids_b, ts_b) = _split(ids, ts, cut)
    dumped, twin = _store(label), _store(label)
    dumped.extend_batch(ids_a, ts_a)
    twin.extend_batch(ids_a, ts_a)
    before = [_state(c) for c in _cells(dumped)]
    dumped.to_bytes()
    assert [_state(c) for c in _cells(dumped)] == before
    dumped.extend_batch(ids_b, ts_b)
    twin.extend_batch(ids_b, ts_b)
    assert dumped.to_bytes() == twin.to_bytes()


# ----------------------------------------------------------------------
# Merges never mutate their operands
# ----------------------------------------------------------------------
@pytest.mark.parametrize("label", MERGE_STORES)
@given(stream=record_streams(), cut=st.integers(1, 240))
def test_merge_leaves_live_operands_unchanged(label, stream, cut):
    ids, ts = stream
    (ids_a, ts_a), (ids_b, ts_b) = _split(ids, ts, cut)
    merged_left, twin = _store(label), _store(label)
    merged_left.extend_batch(ids_a, ts_a)
    twin.extend_batch(ids_a, ts_a)
    right = _store(label)
    right.extend_batch(ids_b, ts_b)
    before_left = [_state(c) for c in _cells(merged_left)]
    before_right = [_state(c) for c in _cells(right)]
    merged_left.merge(right)
    merged_left.merge(_store(label))
    assert [_state(c) for c in _cells(merged_left)] == before_left
    assert [_state(c) for c in _cells(right)] == before_right


@pytest.mark.parametrize("label", MERGE_STORES)
def test_merge_with_empty_then_ingest_matches_never_merged_twin(label):
    # Regression: merging used to flush/finalize the live left operand in
    # place, so later ingest into it compressed at shifted boundaries and
    # answered differently from a never-merged twin.
    rng = np.random.default_rng(3)
    ts = np.sort(rng.integers(0, 2_000, size=600)).astype(np.float64)
    ids = rng.integers(0, UNIVERSE, size=ts.size)
    (ids_a, ts_a), (ids_b, ts_b) = _split(ids, ts, 250)
    merged, twin = _store(label), _store(label)
    merged.extend_batch(ids_a, ts_a)
    twin.extend_batch(ids_a, ts_a)
    merged.merge(_store(label))
    merged.extend_batch(ids_b, ts_b)
    twin.extend_batch(ids_b, ts_b)
    query_ids = np.arange(UNIVERSE).repeat(8)
    query_ts = np.tile(np.linspace(0.0, 2_000.0, 8), UNIVERSE)
    assert np.array_equal(
        merged.point_query_batch(query_ids, query_ts, 50.0),
        twin.point_query_batch(query_ids, query_ts, 50.0),
    )
    assert merged.to_bytes() == twin.to_bytes()


def test_merge_result_matches_merging_folded_copies():
    # The merged store must not depend on whether the operands were
    # finalized before the merge.
    rng = np.random.default_rng(5)
    ts = np.sort(rng.integers(0, 900, size=400)).astype(np.float64)
    ids = rng.integers(0, UNIVERSE, size=ts.size)
    (ids_a, ts_a), (ids_b, ts_b) = _split(ids, ts, 180)
    for label in MERGE_STORES:
        live_a, live_b = _store(label), _store(label)
        done_a, done_b = _store(label), _store(label)
        for store, (i, t) in (
            (live_a, (ids_a, ts_a)),
            (live_b, (ids_b, ts_b)),
            (done_a, (ids_a, ts_a)),
            (done_b, (ids_b, ts_b)),
        ):
            store.extend_batch(i, t)
        done_a.finalize()
        done_b.finalize()
        assert live_a.merge(live_b).to_bytes() == (
            done_a.merge(done_b).to_bytes()
        ), label
