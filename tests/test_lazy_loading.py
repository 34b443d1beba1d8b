"""In-place (mmap/zero-copy) envelope loading: correctness, aliasing, safety.

Three walls, per the v3 envelope contract in ``repro.core.serialize``:

1. **Equivalence** — a store read in place from its bytes answers every
   query class bit-identically to one loaded from a copy, across the
   full backend matrix (sharded composites at 2/3/4 shards included),
   and re-saving it reproduces the archive byte for byte.
2. **No aliased writes** — a PBE-1 cell decodes zero-copy: its kept
   corners are read-only views of the payload, before and after
   queries, merges and size accounting.  A PBE-2 cell copies its
   segment records once into its own columns.  Ingesting into a decoded
   cell never writes into its payload, a copy and its source never see
   each other's appends, and a writable buffer is copied at load, so
   overwriting it changes no answer.
3. **Safety** — a truncated or doctored blob offset table raises
   :class:`~repro.core.errors.CorruptOffsetTableError` (or its
   :class:`~repro.core.errors.SerializationError` parent) at open time,
   never a garbage answer later; the committed v1 fixture still
   auto-upgrades through the in-place path.
"""

from __future__ import annotations

import pickle
import queue
import struct
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from tests.backends import BACKEND_MATRIX, UNIVERSE
from repro.core.errors import CorruptOffsetTableError, SerializationError
from repro.core.parallel import merge_pbe1, merge_pbe2
from repro.core.pbe1 import PBE1
from repro.core.pbe2 import PBE2
from repro.core.serialize import (
    _ENVELOPE_HEADER,
    _TABLE_COUNT,
    _TABLE_ENTRY,
    _finalized_pbe2,
    _pbe1_copy,
    dump_pbe1,
    dump_pbe2,
    load_pbe1,
    load_pbe2,
    load_store,
    open_store,
    save_store,
)
from repro.core.store import create_store

V1_FIXTURE = Path(__file__).parent / "data" / "v1_cmpbe.bin"


def _populated_blob(backend: str, cfg: dict, seed: int = 0) -> bytes:
    rng = np.random.default_rng(seed)
    store = create_store(backend, **cfg)
    ids = rng.integers(0, UNIVERSE, size=300)
    ts = np.sort(rng.uniform(0.0, 100.0, size=300)).round(1)
    store.extend_batch(ids, ts)
    store.finalize()
    return save_store(store)


def _cells(store) -> list:
    """Every cell of a (possibly sharded) sketch store."""
    return [
        cell
        for part in getattr(store, "shards", [store])
        for level in part._levels()
        for cell in level.cells()
    ]


def _tables(store) -> list[np.ndarray]:
    """The arrays every cell of a sketch store reads its curve from."""
    return [
        column
        for cell in _cells(store)
        for column in (
            (cell._kept_xs, cell._kept_ys)
            if isinstance(cell, PBE1)
            else (cell._cols,)
        )
    ]


def _answers(store) -> tuple:
    """One answer of every query class."""
    ids = np.array([0, 3, 7, 21, 40], dtype=np.int64)
    starts = np.array([5.0, 10.0, 0.0, 30.0, 50.0])
    return (
        store.count,
        [store.point_query(e, 10.0, 80.0) for e in (0, 3, 7, 21, 40, UNIVERSE - 1)],
        store.bursty_time_query(3, 2.0, 20.0),
        store.bursty_event_query(50.0, 2.0, 20.0),
        store.point_query_batch(ids, starts, 25.0).tolist(),
        [store.peak_query(e, 0.0, 60.0, 5.0) for e in (1, 3, 7)],
    )


def _pbe1_columns(store) -> list[np.ndarray]:
    """The kept corner arrays of every non-empty PBE-1 cell of a
    (possibly sharded) sketch store."""
    return [
        column
        for cell in _cells(store)
        if isinstance(cell, PBE1)
        for column in (cell._kept_xs, cell._kept_ys)
        if column.size
    ]


def _assert_views_of(columns, source) -> None:
    """Every column is a read-only view into ``source``'s memory."""
    payload = np.frombuffer(source, dtype=np.uint8)
    assert columns
    for column in columns:
        assert not column.flags.writeable
        assert np.shares_memory(column, payload)


def _table_region(blob: bytes) -> tuple[int, int]:
    """(table offset, entry count) of a v3 envelope."""
    _, _, key_length = _ENVELOPE_HEADER.unpack_from(blob)
    table_at = _ENVELOPE_HEADER.size + key_length
    (n_entries,) = _TABLE_COUNT.unpack_from(blob, table_at)
    return table_at, n_entries


# ----------------------------------------------------------------------
# Wall 1: lazy ≡ eager over the backend matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "label,backend,cfg",
    BACKEND_MATRIX,
    ids=[label for label, _, _ in BACKEND_MATRIX],
)
def test_lazy_load_answers_match_eager(label, backend, cfg):
    """Read in place from ``bytes`` or from a copy of a ``bytearray``,
    a store answers alike."""
    blob = _populated_blob(backend, cfg)
    lazy = load_store(blob)
    eager = load_store(bytearray(blob))

    assert lazy.backend_key == eager.backend_key
    assert _answers(lazy) == _answers(eager)


@pytest.mark.parametrize(
    "label,backend,cfg",
    BACKEND_MATRIX,
    ids=[label for label, _, _ in BACKEND_MATRIX],
)
def test_overwriting_a_loaded_bytearray_changes_nothing(label, backend, cfg):
    """A writable buffer is copied at load: writing into it afterwards
    leaves the store's answers and saved bytes as they were."""
    blob = _populated_blob(backend, cfg)
    buffer = bytearray(blob)
    store = load_store(buffer)
    before = _answers(store)
    buffer[:] = bytes(len(buffer))
    assert _answers(store) == before
    assert save_store(store) == blob


@pytest.mark.parametrize(
    "label,backend,cfg",
    BACKEND_MATRIX,
    ids=[label for label, _, _ in BACKEND_MATRIX],
)
def test_lazy_round_trip_is_a_fixed_point(label, backend, cfg):
    """save(load(blob)) reproduces the archive byte for byte."""
    blob = _populated_blob(backend, cfg)
    assert save_store(load_store(blob)) == blob


def test_open_store_mmap_matches_eager(tmp_path):
    blob = _populated_blob(
        "sharded",
        dict(
            shards=3,
            backend="cm-pbe-1",
            universe_size=UNIVERSE,
            eta=60,
            buffer_size=400,
            width=16,
            depth=5,
            seed=0,
        ),
    )
    path = tmp_path / "store.beds"
    path.write_bytes(blob)

    lazy = open_store(path)
    eager = open_store(path, lazy=False)
    _assert_views_of(_pbe1_columns(lazy), lazy._lazy_source)

    for event_id in (0, 7, 40):
        assert lazy.point_query(event_id, 10.0, 80.0) == eager.point_query(
            event_id, 10.0, 80.0
        )
    # Queries read the mapping in place.
    _assert_views_of(_pbe1_columns(lazy), lazy._lazy_source)


def test_open_store_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.beds"
    path.write_bytes(b"")
    with pytest.raises(SerializationError):
        open_store(path)


# ----------------------------------------------------------------------
# Wall 2: decoded cells alias no buffer they may write or see written
# ----------------------------------------------------------------------
def test_load_and_queries_copy_no_corner():
    blob = _populated_blob(
        "cm-pbe-1",
        dict(universe_size=UNIVERSE, eta=60, buffer_size=400, width=16, depth=5, seed=0),
    )
    lazy = load_store(blob)
    _assert_views_of(_pbe1_columns(lazy), blob)

    # Size accounting and queries read the views in place.
    eager = load_store(bytearray(blob))
    assert lazy.memory_elements() == eager.memory_elements()
    assert lazy.size_in_bytes() == eager.size_in_bytes()
    assert lazy.point_query(7, 10.0, 80.0) == eager.point_query(7, 10.0, 80.0)
    _assert_views_of(_pbe1_columns(lazy), blob)


@pytest.mark.parametrize(
    "backend,cfg",
    [
        ("cm-pbe-1", dict(eta=60, buffer_size=400)),
        ("cm-pbe-2", dict(gamma=12.0, unit=1.0)),
    ],
    ids=["cm-pbe-1", "cm-pbe-2"],
)
def test_size_accounting_leaves_cells_unchanged(tmp_path, backend, cfg):
    """``size_in_bytes`` of an opened archive equals the eager store's
    and reads every cell as it stands: no cell's arrays are replaced."""
    blob = _populated_blob(
        backend,
        dict(universe_size=UNIVERSE, width=16, depth=5, seed=0, **cfg),
    )
    path = tmp_path / "store.beds"
    path.write_bytes(blob)
    lazy = open_store(path)
    eager = open_store(path, lazy=False)
    tables = _tables(lazy)
    assert lazy.size_in_bytes() == eager.size_in_bytes() > 0
    assert all(a is b for a, b in zip(_tables(lazy), tables, strict=True))
    assert save_store(lazy) == blob


def test_load_pbe1_copies_no_corner():
    part = PBE1(eta=8, buffer_size=30)
    part.extend_batch(np.sort(np.random.default_rng(2).uniform(0, 99, 200)))
    part.flush()
    blob = dump_pbe1(part)
    for payload in (blob, memoryview(bytearray(blob)).toreadonly()):
        decoded = load_pbe1(payload)
        _assert_views_of([decoded._kept_xs, decoded._kept_ys], payload)
        assert decoded._kept_xs.size == part._kept_xs.size


def test_load_pbe1_copies_a_writable_payload():
    """A writable payload may change after the load, so its corners are
    copied: overwriting it leaves the decoded cell as it was."""
    part = _folded_part(np.arange(60.0))
    payload = bytearray(dump_pbe1(part))
    decoded = load_pbe1(payload)
    for column in (decoded._kept_xs, decoded._kept_ys):
        assert not column.flags.writeable
        assert not np.shares_memory(column, np.frombuffer(payload, np.uint8))
    payload[:] = bytes(len(payload))
    assert dump_pbe1(decoded) == dump_pbe1(part)


def _tie_then_more(cell: PBE1, tie: float) -> None:
    """A record tied with the cell's last corner (scalar path), a batch
    led by another tie (batch path), then enough records to fold."""
    cell.update(tie)
    cell.extend_batch([tie, tie + 0.5, tie + 0.5])
    cell.extend_batch(tie + 1.0 + np.arange(40.0))
    cell.update(tie + 41.0, count=2)


def _folded_part(ts) -> PBE1:
    part = PBE1(eta=5, buffer_size=12)
    part.extend_batch(ts)
    part.flush()
    return part


def test_ingest_into_a_decoded_cell_leaves_its_payload():
    """A decoded cell grows its tied last corner on a new array: the
    payload keeps its bytes, and the cell saves what a never-saved twin
    fed the same records saves."""
    ts = np.sort(np.random.default_rng(6).uniform(0, 50, 90)).round(1)
    backing = bytearray(dump_pbe1(_folded_part(ts)))
    before = bytes(backing)
    decoded = load_pbe1(memoryview(backing).toreadonly())
    twin = _folded_part(ts)
    tie = float(decoded._kept_xs[-1])
    for cell in (decoded, twin):
        _tie_then_more(cell, tie)
    assert bytes(backing) == before
    assert dump_pbe1(decoded) == dump_pbe1(twin)


def test_a_run_of_ties_copies_the_kept_levels_once():
    """The first tie with a decoded cell's last corner copies its kept
    levels; later ties raise that private copy in place."""
    ts = np.sort(np.random.default_rng(9).uniform(0, 50, 90)).round(1)
    payload = dump_pbe1(_folded_part(ts))
    decoded = load_pbe1(payload)
    twin = _folded_part(ts)
    tie = float(decoded._kept_xs[-1])
    decoded.update(tie)
    private = decoded._kept_ys
    assert not np.shares_memory(private, np.frombuffer(payload, np.uint8))
    twin.update(tie)
    for cell in (decoded, twin):
        for _ in range(5):
            cell.update(tie, count=2)
        cell.extend_batch([tie, tie])
    assert decoded._kept_ys is private
    assert not private.flags.writeable
    assert dump_pbe1(decoded) == dump_pbe1(twin)
    assert load_pbe1(payload)._kept_ys[-1] < private[-1]


def test_a_copy_and_its_source_share_no_writes():
    """``_pbe1_copy`` shares the kept arrays; ingesting into either side
    leaves the other's saved bytes as they were."""
    ts = np.sort(np.random.default_rng(7).uniform(0, 50, 90)).round(1)
    tie = float(_folded_part(ts)._kept_xs[-1])
    twin = _folded_part(ts)
    _tie_then_more(twin, tie)
    for fed_copy in (True, False):
        source = _folded_part(ts)
        copy = _pbe1_copy(source)
        assert copy._kept_xs is source._kept_xs
        fed, other = (copy, source) if fed_copy else (source, copy)
        frozen = dump_pbe1(other)
        _tie_then_more(fed, tie)
        assert dump_pbe1(other) == frozen
        assert dump_pbe1(fed) == dump_pbe1(twin)


@pytest.mark.parametrize("protocol", [4, 5])
def test_an_unpickled_cell_grows_its_tie_on_a_copy(protocol):
    """Pickling hands the kept levels over (protocol 5 as a read-only
    view of the pickle's bytes), so the unpickled cell owns none."""
    ts = np.sort(np.random.default_rng(10).uniform(0, 50, 90)).round(1)
    source = _folded_part(ts)
    frozen = dump_pbe1(source)
    clone = pickle.loads(pickle.dumps(source, protocol=protocol))
    tie = float(clone._kept_xs[-1])
    _tie_then_more(clone, tie)
    _tie_then_more(source, tie)
    assert dump_pbe1(clone) == dump_pbe1(source) != frozen


def test_a_snapshot_is_unchanged_by_a_tie_on_its_source():
    cfg = dict(universe_size=UNIVERSE, eta=5, buffer_size=12, width=4, depth=3, seed=0)
    rng = np.random.default_rng(8)
    ids = rng.integers(0, UNIVERSE, 300)
    ts = np.sort(rng.uniform(0, 50, 300)).round(1)
    store = create_store("cm-pbe-1", **cfg)
    store.extend_batch(ids, ts)
    store.finalize()
    snapshot = store.snapshot()
    frozen = save_store(snapshot)
    twin = create_store("cm-pbe-1", **cfg)
    twin.extend_batch(ids, ts)
    twin.finalize()
    more_ids = np.concatenate([np.full(UNIVERSE, ids[-1]), np.arange(UNIVERSE)])
    more_ts = np.concatenate([np.full(UNIVERSE, ts[-1]), ts[-1] + 1 + np.arange(UNIVERSE)])
    for target in (store, twin):
        target.extend_batch(more_ids, more_ts)
    assert save_store(snapshot) == frozen
    assert save_store(store) == save_store(twin)


def _pbe2_part(ts, gamma: float = 3.0) -> PBE2:
    part = PBE2(gamma=gamma, unit=0.5)
    part.extend_batch(ts)
    part.finalize()
    return part


def _more_pbe2_records(cell: PBE2, start: float, seed: int) -> None:
    """Records after ``start`` on both ingest paths, then a finalize: a
    few new rows, fewer than the spare rows of the parts below."""
    rng = np.random.default_rng(seed)
    cell.update(start + 0.5)
    cell.extend_batch(start + 1.0 + np.sort(rng.uniform(0, 8, 40)).round(1))
    cell.update(start + 10.0, count=3)
    cell.finalize()


def test_ingest_into_a_decoded_pbe2_cell_leaves_its_payload():
    """A decoded PBE-2 copies its segment records into its own columns:
    appends leave the payload's bytes as they were, and the cell saves
    what a cell decoded from an independent copy saves."""
    ts = np.sort(np.random.default_rng(11).uniform(0, 50, 400)).round(1)
    blob = dump_pbe2(_pbe2_part(ts))
    backing = bytearray(blob)
    decoded = load_pbe2(memoryview(backing).toreadonly())
    assert not np.shares_memory(decoded._cols, np.frombuffer(backing, np.uint8))
    assert decoded._cols.shape == (4, decoded.n_segments)
    twin = load_pbe2(bytes(blob))
    for cell in (decoded, twin):
        _more_pbe2_records(cell, float(ts[-1]), seed=12)
    assert bytes(backing) == blob
    assert decoded.n_segments > load_pbe2(blob).n_segments
    assert dump_pbe2(decoded) == dump_pbe2(twin)


@pytest.mark.parametrize("copy_first", [True, False])
def test_a_pbe2_copy_and_its_source_share_no_writes(copy_first):
    """A copy shares its source's finalized rows; when both append
    afterwards, in either order, each saves what an unshared twin fed
    the same records saves."""
    ts = np.sort(np.random.default_rng(13).uniform(0, 50, 400)).round(1)
    source = _pbe2_part(ts)
    table, n = source._cols, source.n_segments
    copy = _finalized_pbe2(source)
    assert np.shares_memory(copy._cols, table)
    feeds = [(source, 14), (copy, 15)]
    if copy_first:
        feeds.reverse()
    for cell, seed in feeds:
        _more_pbe2_records(cell, float(ts[-1]), seed)
    # Both appended rows; the source's went into its spare rows.
    assert min(source.n_segments, copy.n_segments) > n
    assert source._cols is table
    for cell, seed in feeds:
        twin = _pbe2_part(ts)
        _more_pbe2_records(twin, float(ts[-1]), seed)
        assert dump_pbe2(cell) == dump_pbe2(twin)


def test_a_pbe2_snapshot_is_unchanged_by_appends_on_its_source():
    cfg = dict(universe_size=UNIVERSE, gamma=2.0, unit=0.5, width=4, depth=3, seed=0)
    rng = np.random.default_rng(16)
    ids = rng.integers(0, UNIVERSE, 600)
    ts = np.sort(rng.uniform(0, 50, 600)).round(1)
    store = create_store("cm-pbe-2", **cfg)
    store.extend_batch(ids, ts)
    store.finalize()
    # A finalized cell's snapshot shares its rows; the cell has spare
    # rows to append into.
    snapshot = store.snapshot()
    assert any(
        np.shares_memory(a._cols, b._cols)
        and b.n_segments < b._cols.shape[1]
        for a, b in zip(_cells(snapshot), _cells(store))
    )
    frozen = save_store(snapshot)
    twin = create_store("cm-pbe-2", **cfg)
    twin.extend_batch(ids, ts)
    twin.finalize()
    more_ids = rng.integers(0, UNIVERSE, 600)
    more_ts = ts[-1] + 1 + np.sort(rng.uniform(0, 50, 600)).round(1)
    for target in (store, twin):
        target.extend_batch(more_ids, more_ts)
        target.finalize()
    assert save_store(snapshot) == frozen
    assert save_store(store) == save_store(twin)


def test_pbe2_snapshots_race_a_writer():
    """Readers re-save snapshots whose cells share rows with cells a
    writer keeps appending into: each saves the bytes it saved when it
    was taken."""
    cfg = dict(universe_size=UNIVERSE, gamma=2.0, unit=0.5, width=4, depth=3, seed=0)
    rng = np.random.default_rng(17)
    n, batch, n_readers = 6_000, 100, 3
    ids = rng.integers(0, UNIVERSE, n)
    ts = np.sort(rng.uniform(0, 600, n)).round(1)
    store, lock = create_store("cm-pbe-2", **cfg), threading.Lock()
    views: queue.Queue = queue.Queue()
    failures: list[int] = []

    def writer():
        for start in range(0, n, batch):
            with lock:
                store.extend_batch(
                    ids[start : start + batch], ts[start : start + batch]
                )
                store.finalize()
                snapshot = store.snapshot()
                views.put((snapshot, save_store(snapshot), start))
        for _ in range(n_readers):
            views.put(None)

    def reader():
        while (item := views.get(timeout=60)) is not None:
            snapshot, frozen, start = item
            if save_store(snapshot) != frozen:
                failures.append(start)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(n_readers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not failures


def test_lazy_merge_pbe1_reads_blobs_without_hydrating():
    """Merging two decoded PBE-1 operands is bit-identical to merging
    the never-saved parts, and leaves both operands views of their
    blobs."""
    rng = np.random.default_rng(3)
    ts = np.sort(rng.uniform(0.0, 200.0, size=2000)).round(2)
    half = 1000
    while half < ts.size and ts[half] == ts[half - 1]:
        half += 1

    parts = []
    for chunk in (ts[:half], ts[half:]):
        part = PBE1(eta=40, buffer_size=100)
        part.extend_batch(chunk)
        part.flush()
        parts.append(part)
    blobs = [dump_pbe1(part) for part in parts]

    decoded = [load_pbe1(blob) for blob in blobs]
    merged = merge_pbe1(decoded)

    assert dump_pbe1(merged) == dump_pbe1(merge_pbe1(parts))
    for part, blob in zip(decoded, blobs):
        _assert_views_of([part._kept_xs, part._kept_ys], blob)
    assert not np.shares_memory(merged._kept_ys, decoded[0]._kept_ys)


def test_merge_pbe2_leaves_its_operands_unchanged():
    """Merging decoded PBE-2 operands is bit-identical to merging the
    never-saved parts, copies their rows into a new table, and leaves
    each operand's columns and saved bytes as they were."""
    rng = np.random.default_rng(4)
    ts = np.sort(rng.uniform(0.0, 200.0, size=2000)).round(2)
    half = 1000
    while half < ts.size and ts[half] == ts[half - 1]:
        half += 1

    blobs, parts = [], []
    for chunk in (ts[:half], ts[half:]):
        part = PBE2(gamma=8.0, unit=1.0)
        part.extend_batch(chunk)
        part.finalize()
        blobs.append(dump_pbe2(part))
        parts.append(part)

    decoded = [load_pbe2(blob) for blob in blobs]
    tables = [part._cols for part in decoded]
    merged = merge_pbe2(decoded)

    assert dump_pbe2(merged) == dump_pbe2(merge_pbe2(parts))
    for part, table, blob in zip(decoded, tables, blobs):
        assert part._cols is table
        assert not np.shares_memory(merged._cols, table)
        assert dump_pbe2(part) == blob


def test_store_level_lazy_merge_never_hydrates():
    """Merging two stores read in place from their bytes answers like
    merging copies of them, and leaves both operands views of their
    blobs with their saved bytes unchanged."""
    cfg = dict(
        universe_size=UNIVERSE, eta=60, buffer_size=400, width=16, depth=5, seed=0
    )
    rng = np.random.default_rng(5)
    ids = rng.integers(0, UNIVERSE, size=400)
    early = np.sort(rng.uniform(0.0, 50.0, size=400)).round(1)
    late = np.sort(rng.uniform(51.0, 100.0, size=400)).round(1)

    first = create_store("cm-pbe-1", **cfg)
    second = create_store("cm-pbe-1", **cfg)
    first.extend_batch(ids, early)
    second.extend_batch(ids, late)
    first.finalize()
    second.finalize()
    blob_first, blob_second = save_store(first), save_store(second)

    lazy_first = load_store(blob_first)
    lazy_second = load_store(blob_second)
    merged_lazy = lazy_first.merge(lazy_second)
    merged_eager = load_store(bytearray(blob_first)).merge(
        load_store(bytearray(blob_second))
    )

    assert save_store(merged_lazy) == save_store(merged_eager)
    for operand, blob in ((lazy_first, blob_first), (lazy_second, blob_second)):
        _assert_views_of(_pbe1_columns(operand), blob)
        assert save_store(operand) == blob


# ----------------------------------------------------------------------
# Wall 3: safety — corruption is a named error, v1 keeps upgrading
# ----------------------------------------------------------------------
def test_committed_v1_fixture_loads_lazily():
    blob = V1_FIXTURE.read_bytes()
    lazy = load_store(blob)
    eager = load_store(bytearray(blob))

    assert lazy.backend_key == "cm-pbe-1"
    assert lazy.count == 400
    _assert_views_of(_pbe1_columns(lazy), blob)

    assert lazy.point_query(0, 250.0, 40.0) == pytest.approx(-2.0, abs=1e-9)
    assert lazy.point_query(3, 400.0, 40.0) == pytest.approx(4.0, abs=1e-9)
    assert lazy.point_query(0, 250.0, 40.0) == eager.point_query(
        0, 250.0, 40.0
    )
    # Re-saving the upgraded v1 store emits a v3 envelope whose table
    # then validates on its own reload.
    upgraded = save_store(lazy)
    assert save_store(load_store(upgraded)) == upgraded


@pytest.fixture(scope="module")
def v3_blob() -> bytes:
    return _populated_blob(
        "cm-pbe-1",
        dict(universe_size=UNIVERSE, eta=60, buffer_size=400, width=16, depth=5, seed=2),
    )


@pytest.mark.parametrize("lazy", [True, False], ids=["lazy", "eager"])
def test_doctored_entry_offset_raises_named_error(tmp_path, v3_blob, lazy):
    """Raised whether ``open_store`` maps the file or reads it."""
    table_at, _ = _table_region(v3_blob)
    bad = bytearray(v3_blob)
    kind, offset, length = _TABLE_ENTRY.unpack_from(
        bad, table_at + _TABLE_COUNT.size
    )
    _TABLE_ENTRY.pack_into(
        bad, table_at + _TABLE_COUNT.size, kind, offset + 1, length
    )
    path = tmp_path / "bad.beds"
    path.write_bytes(bad)
    with pytest.raises(CorruptOffsetTableError):
        open_store(path, lazy=lazy)


def test_unknown_cell_kind_raises_named_error(v3_blob):
    table_at, _ = _table_region(v3_blob)
    bad = bytearray(v3_blob)
    _, offset, length = _TABLE_ENTRY.unpack_from(
        bad, table_at + _TABLE_COUNT.size
    )
    _TABLE_ENTRY.pack_into(
        bad, table_at + _TABLE_COUNT.size, 7, offset, length
    )
    with pytest.raises(CorruptOffsetTableError):
        load_store(bytes(bad))


def test_truncation_inside_table_raises_named_error(v3_blob):
    table_at, _ = _table_region(v3_blob)
    truncated = v3_blob[: table_at + _TABLE_COUNT.size + 3]
    with pytest.raises(CorruptOffsetTableError):
        load_store(truncated)


def test_inflated_entry_count_raises_named_error(v3_blob):
    """A table claiming more entries than exist must fail at open time
    (the parse runs off the table into the payload region) — corrupt
    metadata is a SerializationError, never a garbage answer."""
    table_at, n_entries = _table_region(v3_blob)
    bad = bytearray(v3_blob)
    _TABLE_COUNT.pack_into(bad, table_at, n_entries + 1000)
    with pytest.raises(SerializationError):
        load_store(bytes(bad))


def test_swapped_payload_disagrees_with_table(v3_blob):
    """Graft one store's table onto another's payload: structural checks
    may pass, but the re-derived table cannot match."""
    other = _populated_blob(
        "cm-pbe-1",
        dict(universe_size=UNIVERSE, eta=60, buffer_size=400, width=16, depth=5, seed=9),
    )
    table_at, n_entries = _table_region(v3_blob)
    table_end = table_at + _TABLE_COUNT.size + n_entries * _TABLE_ENTRY.size
    other_table_at, other_n = _table_region(other)
    other_end = (
        other_table_at + _TABLE_COUNT.size + other_n * _TABLE_ENTRY.size
    )
    grafted = v3_blob[:table_at] + other[other_table_at:other_end] + v3_blob[table_end:]
    if grafted == v3_blob:  # pragma: no cover - seeds chosen to differ
        pytest.skip("fixtures serialized identically; nothing to graft")
    with pytest.raises(SerializationError):
        load_store(grafted)
