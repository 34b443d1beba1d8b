"""Lazy (mmap/zero-copy) envelope loading: correctness, laziness, safety.

Three walls, per the v3 envelope contract in ``repro.core.serialize``:

1. **Equivalence** — a store loaded lazily answers every query class
   bit-identically to its eagerly loaded twin, across the full backend
   matrix (sharded composites at 2/3/4 shards included), and re-saving a
   lazy store reproduces the archive byte for byte.
2. **Laziness** — a PBE-1 cell decodes zero-copy by construction: its
   kept corners are read-only views of the payload, before and after
   queries, merges and size accounting, and ingesting into a decoded
   cell never writes into its payload.  PBE-2 cells are lazy proxies:
   loading and size accounting hydrate nothing, merging two lazy
   operands touches only blob *reads*, and a query is what materializes
   a cell.
3. **Safety** — a truncated or doctored blob offset table raises
   :class:`~repro.core.errors.CorruptOffsetTableError` (or its
   :class:`~repro.core.errors.SerializationError` parent) at open time,
   never a garbage answer later; the committed v1 fixture still
   auto-upgrades through the lazy path.
"""

from __future__ import annotations

import pickle
import struct
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
    LazySketchStats,
    _pbe1_copy,
    dump_pbe1,
    dump_pbe2,
    lazy_stats,
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


def _pbe1_columns(store) -> list[np.ndarray]:
    """The kept corner arrays of every non-empty PBE-1 cell of a
    (possibly sharded) sketch store."""
    return [
        column
        for part in getattr(store, "shards", [store])
        for level in part._levels()
        for cell in level.cells()
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
    blob = _populated_blob(backend, cfg)
    eager = load_store(blob)
    lazy = load_store(blob, lazy=True)

    assert lazy.backend_key == eager.backend_key
    assert lazy.count == eager.count
    for event_id in (0, 3, 7, 21, 40, UNIVERSE - 1):
        assert lazy.point_query(event_id, 10.0, 80.0) == eager.point_query(
            event_id, 10.0, 80.0
        )
    assert lazy.bursty_time_query(3, 2.0, 20.0) == eager.bursty_time_query(
        3, 2.0, 20.0
    )
    assert lazy.bursty_event_query(50.0, 2.0, 20.0) == eager.bursty_event_query(
        50.0, 2.0, 20.0
    )
    ids = np.array([0, 3, 7, 21, 40], dtype=np.int64)
    starts = np.array([5.0, 10.0, 0.0, 30.0, 50.0])
    np.testing.assert_array_equal(
        lazy.point_query_batch(ids, starts, 25.0),
        eager.point_query_batch(ids, starts, 25.0),
    )


@pytest.mark.parametrize(
    "label,backend,cfg",
    BACKEND_MATRIX,
    ids=[label for label, _, _ in BACKEND_MATRIX],
)
def test_lazy_round_trip_is_a_fixed_point(label, backend, cfg):
    """save(load(blob, lazy=True)) reproduces the archive byte for byte
    — re-serialization reads blobs zero-copy, it never needs Python
    corner lists."""
    blob = _populated_blob(backend, cfg)
    assert save_store(load_store(blob, lazy=True)) == blob


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
    assert lazy_stats(eager) is None
    stats = lazy_stats(lazy)
    assert isinstance(stats, LazySketchStats)
    _assert_views_of(_pbe1_columns(lazy), lazy._lazy_source)

    for event_id in (0, 7, 40):
        assert lazy.point_query(event_id, 10.0, 80.0) == eager.point_query(
            event_id, 10.0, 80.0
        )
    # PBE-1 cells are no lazy proxies: queries read the mapping in place.
    assert stats.blobs == stats.hydrations == 0
    _assert_views_of(_pbe1_columns(lazy), lazy._lazy_source)


def test_open_store_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.beds"
    path.write_bytes(b"")
    with pytest.raises(SerializationError):
        open_store(path)


# ----------------------------------------------------------------------
# Wall 2: PBE-1 cells are zero-copy views; PBE-2 cells hydrate on touch
# ----------------------------------------------------------------------
def test_load_and_queries_copy_no_corner():
    blob = _populated_blob(
        "cm-pbe-1",
        dict(universe_size=UNIVERSE, eta=60, buffer_size=400, width=16, depth=5, seed=0),
    )
    lazy = load_store(blob, lazy=True)
    _assert_views_of(_pbe1_columns(lazy), blob)

    # Size accounting and queries read the views in place.
    eager = load_store(blob)
    assert lazy.memory_elements() == eager.memory_elements()
    assert lazy.size_in_bytes() == eager.size_in_bytes()
    assert lazy.point_query(7, 10.0, 80.0) == eager.point_query(7, 10.0, 80.0)
    _assert_views_of(_pbe1_columns(lazy), blob)
    assert lazy_stats(lazy).hydrations == 0


@pytest.mark.parametrize(
    "backend,cfg",
    [
        ("cm-pbe-1", dict(eta=60, buffer_size=400)),
        ("cm-pbe-2", dict(gamma=12.0, unit=1.0)),
    ],
    ids=["cm-pbe-1", "cm-pbe-2"],
)
def test_size_accounting_hydrates_nothing(tmp_path, backend, cfg):
    """``size_in_bytes`` of an opened archive equals the eager store's
    and materializes no cell."""
    path = tmp_path / "store.beds"
    path.write_bytes(
        _populated_blob(
            backend,
            dict(universe_size=UNIVERSE, width=16, depth=5, seed=0, **cfg),
        )
    )
    lazy = open_store(path)
    eager = open_store(path, lazy=False)
    assert lazy.size_in_bytes() == eager.size_in_bytes() > 0
    assert lazy_stats(lazy).hydrations == 0


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


def test_lazy_merge_pbe2_reads_blobs_without_hydrating():
    rng = np.random.default_rng(4)
    ts = np.sort(rng.uniform(0.0, 200.0, size=2000)).round(2)
    half = 1000
    while half < ts.size and ts[half] == ts[half - 1]:
        half += 1

    blobs = []
    for chunk in (ts[:half], ts[half:]):
        part = PBE2(gamma=8.0, unit=1.0)
        part.extend_batch(chunk)
        part.finalize()
        blobs.append(dump_pbe2(part))

    eager_merge = merge_pbe2([load_pbe2(blob) for blob in blobs])
    stats = LazySketchStats()
    lazy_parts = [load_pbe2(blob, lazy=True, stats=stats) for blob in blobs]
    lazy_merge = merge_pbe2(lazy_parts)

    assert dump_pbe2(lazy_merge) == dump_pbe2(eager_merge)
    assert all(not part.is_materialized for part in lazy_parts)
    assert stats.hydrations == 0
    assert stats.lazy_reads == len(blobs)


def test_store_level_lazy_merge_never_hydrates():
    """Merging two lazily loaded stores routes through the PBE merge
    fast paths: every cell blob is read zero-copy, zero hydrations."""
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

    lazy_first = load_store(blob_first, lazy=True)
    lazy_second = load_store(blob_second, lazy=True)
    merged_lazy = lazy_first.merge(lazy_second)
    merged_eager = load_store(blob_first).merge(load_store(blob_second))

    assert save_store(merged_lazy) == save_store(merged_eager)
    for operand, blob in ((lazy_first, blob_first), (lazy_second, blob_second)):
        assert lazy_stats(operand).hydrations == 0
        _assert_views_of(_pbe1_columns(operand), blob)


# ----------------------------------------------------------------------
# Wall 3: safety — corruption is a named error, v1 keeps upgrading
# ----------------------------------------------------------------------
def test_committed_v1_fixture_loads_lazily():
    blob = V1_FIXTURE.read_bytes()
    lazy = load_store(blob, lazy=True)
    eager = load_store(blob)

    assert lazy.backend_key == "cm-pbe-1"
    assert lazy.count == 400
    _assert_views_of(_pbe1_columns(lazy), blob)

    assert lazy.point_query(0, 250.0, 40.0) == pytest.approx(-2.0, abs=1e-9)
    assert lazy.point_query(3, 400.0, 40.0) == pytest.approx(4.0, abs=1e-9)
    assert lazy.point_query(0, 250.0, 40.0) == eager.point_query(
        0, 250.0, 40.0
    )
    # Re-saving the upgraded v1 store emits a v3 envelope whose table
    # then validates on its own lazy reload.
    upgraded = save_store(lazy)
    assert save_store(load_store(upgraded, lazy=True)) == upgraded


@pytest.fixture(scope="module")
def v3_blob() -> bytes:
    return _populated_blob(
        "cm-pbe-1",
        dict(universe_size=UNIVERSE, eta=60, buffer_size=400, width=16, depth=5, seed=2),
    )


@pytest.mark.parametrize("lazy", [True, False], ids=["lazy", "eager"])
def test_doctored_entry_offset_raises_named_error(v3_blob, lazy):
    table_at, _ = _table_region(v3_blob)
    bad = bytearray(v3_blob)
    kind, offset, length = _TABLE_ENTRY.unpack_from(
        bad, table_at + _TABLE_COUNT.size
    )
    _TABLE_ENTRY.pack_into(
        bad, table_at + _TABLE_COUNT.size, kind, offset + 1, length
    )
    with pytest.raises(CorruptOffsetTableError):
        load_store(bytes(bad), lazy=lazy)


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
        load_store(bytes(bad), lazy=True)


def test_truncation_inside_table_raises_named_error(v3_blob):
    table_at, _ = _table_region(v3_blob)
    truncated = v3_blob[: table_at + _TABLE_COUNT.size + 3]
    with pytest.raises(CorruptOffsetTableError):
        load_store(truncated, lazy=True)


def test_inflated_entry_count_raises_named_error(v3_blob):
    """A table claiming more entries than exist must fail at open time
    (the parse runs off the table into the payload region) — corrupt
    metadata is a SerializationError, never a garbage answer."""
    table_at, n_entries = _table_region(v3_blob)
    bad = bytearray(v3_blob)
    _TABLE_COUNT.pack_into(bad, table_at, n_entries + 1000)
    with pytest.raises(SerializationError):
        load_store(bytes(bad), lazy=True)


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
        load_store(grafted, lazy=True)
