"""Compact binary (de)serialization of the PBE sketches.

A historical-burstiness sketch only pays off if it can outlive the
process that built it.  This module freezes finalized sketches into a
small tagged binary format (little-endian, float64 payloads):

* PBE-1 — the kept corner arrays,
* PBE-2 — the finalized segment coefficients,
* CM-PBE — grid dimensions, hash seed, combiner and every cell.

Sketches are flushed/finalized on dump; loading returns a sketch that
answers queries exactly as the original did (ingesting *more* data into a
loaded PBE-1/PBE-2 is supported and continues from the stored state).

On top of these per-type codecs sits the **versioned store envelope**
(:func:`save_store` / :func:`load_store`): any backend registered in
:mod:`repro.core.store` — sharded composites included — round-trips
through a single pair of functions.  The envelope is ``magic (BEDS) +
format version + backend key + blob offset table + payload``;
:func:`load_store` also recognises the bare v1 magics (``CMPB``,
``DMAP``, ``BIDX``) and wraps those legacy blobs in their store
adapters, so archives written before the envelope existed keep loading.

Format v3 adds the **blob offset table**: the absolute span of every
PBE-1/PBE-2 cell payload inside the envelope, written at save time and
re-derived (and cross-checked) at load time.  A table that is
truncated, points outside the payload, or disagrees with the payload
structure raises :class:`~repro.core.errors.CorruptOffsetTableError`
at open time.

Every load takes one path.  :func:`load_store` reads a read-only buffer
in place and copies a writable one once; :func:`open_store`
memory-maps an archive, so exact columns and PBE-1 kept corners are
read-only float64 views of the mapping.  A PBE-2 cell is its finalized
segments in four float64 columns: :func:`load_pbe2` fills them with one
copy of the segment records, making no Python object per segment.
"""

from __future__ import annotations

import io
import json
import mmap
import os
import struct
import tempfile

import numpy as np

from repro.core.cmpbe import CMPBE
from repro.core.errors import (
    CorruptOffsetTableError,
    InvalidParameterError,
    SerializationError,
)
from repro.core.pbe1 import PBE1, fold_buffers
from repro.core.pbe2 import PBE2, LineSegment

__all__ = [
    "ENVELOPE_MAGIC",
    "STORE_FORMAT_VERSION",
    "save_store",
    "load_store",
    "open_store",
    "write_store",
    "atomic_write_bytes",
    "dump_direct_map",
    "load_direct_map",
    "dump_index",
    "load_index",
    "dump_pbe1",
    "load_pbe1",
    "dump_pbe2",
    "load_pbe2",
    "dump_cmpbe",
    "load_cmpbe",
]

_PBE1_MAGIC = b"PBE1"
_PBE2_MAGIC = b"PBE2"
_CMPBE_MAGIC = b"CMPB"
_HEADER_1 = struct.Struct("<4sIIQd")  # magic, eta, buffer, count, n_corners
_HEADER_2 = struct.Struct("<4sddQd")  # magic, gamma, unit, count, n_segments


def _pbe1_copy(sketch: PBE1) -> PBE1:
    """An independent copy of a PBE-1: it shares the read-only kept
    corner arrays, which neither side owns from then on, and copies the
    buffer and totals."""
    scratch = PBE1(eta=sketch.eta, buffer_size=sketch.buffer_size)
    scratch._set_kept(sketch._kept_xs, sketch._kept_ys)
    sketch._kept_ys_writer = None
    scratch._buffer_xs = list(sketch._buffer_xs)
    scratch._buffer_ys = list(sketch._buffer_ys)
    scratch._count = sketch._count
    scratch._construction_error = sketch._construction_error
    return scratch


def _pbe2_live(sketch: PBE2) -> bool:
    """Whether :meth:`PBE2.finalize` would change ``sketch``."""
    return (
        sketch._pending_t is not None
        or sketch._poly_x is not None
        or bool(sketch._open_ranges)
    )


def folded_cells(cells) -> list:
    """``cells`` with their live state folded in, on scratch copies.

    Every PBE-1 with a partial buffer is copied and all the copies are
    compressed in one batched :func:`~repro.core.pbe1.fold_buffers`
    call; every PBE-2 with open state is replaced by a finalized copy.
    Other cells pass through as they are.  Serializing or merging must
    not mutate the sketches it reads: compressing a live buffer in place
    would shift the original's future compression boundaries, so a
    concurrent reader snapshot would silently change the writer's
    eventual curve (and any segment later sealed from it).
    """
    out = list(cells)
    live = [
        slot
        for slot, cell in enumerate(out)
        if isinstance(cell, PBE1) and cell._buffer_xs
    ]
    for slot in live:
        out[slot] = _pbe1_copy(out[slot])
    fold_buffers([out[slot] for slot in live])
    for slot, cell in enumerate(out):
        if isinstance(cell, PBE2) and _pbe2_live(cell):
            out[slot] = _finalized_pbe2(cell)
    return out


def folded_sketch_cells(sketches) -> list[list]:
    """:func:`folded_cells` over the cells of many CM-PBE grids and
    direct maps at once (one fold call); one cell list per sketch, in
    each sketch's ``cells()`` order."""
    per_sketch = [sketch.cells() for sketch in sketches]
    folded = iter(folded_cells([c for cells in per_sketch for c in cells]))
    return [[next(folded) for _ in cells] for cells in per_sketch]


def dump_pbe1(sketch: PBE1) -> bytes:
    """Serialize a PBE-1, folding any buffered corners into the curve.

    The fold happens on a scratch copy — dumping never mutates the
    sketch, so snapshotting a live store cannot perturb it.
    """
    if sketch._buffer_xs:
        sketch = folded_cells([sketch])[0]
    xs = np.asarray(sketch._kept_xs, dtype="<f8")
    ys = np.asarray(sketch._kept_ys, dtype="<f8")
    out = io.BytesIO()
    out.write(
        _HEADER_1.pack(
            _PBE1_MAGIC,
            sketch.eta,
            sketch.buffer_size,
            sketch.count,
            float(xs.size),
        )
    )
    out.write(xs.tobytes())
    out.write(ys.tobytes())
    return out.getvalue()


def load_pbe1(data) -> PBE1:
    """Restore a PBE-1 dumped with :func:`dump_pbe1`.

    Zero-copy over a read-only ``data`` (``bytes``, or the ``mmap`` of
    :func:`open_store`): the kept corners are read-only float64 views of
    it, which the sketch keeps alive.  A writable ``data`` (a
    ``bytearray``, say) may change after the load, so its corners are
    copied.
    """
    if len(data) < _HEADER_1.size:
        raise InvalidParameterError("truncated PBE-1 payload")
    magic, eta, buffer_size, count, n_corners_f = _HEADER_1.unpack_from(data)
    if magic != _PBE1_MAGIC:
        raise InvalidParameterError("not a PBE-1 payload")
    n_corners = int(n_corners_f)
    offset = _HEADER_1.size
    expected = offset + 2 * 8 * n_corners
    if len(data) < expected:
        raise InvalidParameterError("truncated PBE-1 payload")
    xs = np.frombuffer(data, dtype="<f8", count=n_corners, offset=offset)
    offset += 8 * n_corners
    ys = np.frombuffer(data, dtype="<f8", count=n_corners, offset=offset)
    if not memoryview(data).readonly:
        xs, ys = xs.copy(), ys.copy()
    sketch = PBE1(eta=eta, buffer_size=buffer_size)
    sketch._set_kept(xs, ys)
    sketch._count = count
    return sketch


def _finalized_pbe2(sketch: PBE2) -> PBE2:
    """A scratch copy of ``sketch`` with its live state finalized.

    Same contract as :func:`folded_cells`: the original keeps its open
    polygon/pending corner untouched, so serializing a live sketch does
    not change how its remaining stream gets segmented.  The copy shares
    the original's finalized rows, which neither side writes again.
    """
    scratch = PBE2(
        gamma=sketch.gamma,
        unit=sketch.unit,
        max_polygon_vertices=sketch.max_polygon_vertices,
    )
    scratch._set_table(sketch._table())
    scratch._pending_t = sketch._pending_t
    scratch._pending_y = sketch._pending_y
    scratch._last_committed_t = sketch._last_committed_t
    scratch._last_committed_y = sketch._last_committed_y
    scratch._poly_x = (
        None if sketch._poly_x is None else list(sketch._poly_x)
    )
    scratch._poly_y = (
        None if sketch._poly_y is None else list(sketch._poly_y)
    )
    scratch._open_ranges = list(sketch._open_ranges)
    scratch._group_start = sketch._group_start
    scratch._group_last_t = sketch._group_last_t
    scratch._count = sketch._count
    scratch.finalize()
    return scratch


def dump_pbe2(sketch: PBE2) -> bytes:
    """Serialize a PBE-2, folding live state into finalized segments.

    The fold happens on a scratch copy — dumping never mutates the
    sketch, so snapshotting a live store cannot perturb it.
    """
    if _pbe2_live(sketch):
        sketch = _finalized_pbe2(sketch)
    header = _HEADER_2.pack(
        _PBE2_MAGIC,
        sketch.gamma,
        sketch.unit,
        sketch.count,
        float(sketch.n_segments),
    )
    return header + np.asarray(sketch._table().T, dtype="<f8").tobytes()


def load_pbe2(data) -> PBE2:
    """Restore a PBE-2 dumped with :func:`dump_pbe2`.

    The ``(a, b, t_start, t_end)`` records are copied once into the
    sketch's four contiguous float64 columns; no Python object is made
    per segment.
    """
    if len(data) < _HEADER_2.size:
        raise InvalidParameterError("truncated PBE-2 payload")
    magic, gamma, unit, count, n_segments_f = _HEADER_2.unpack_from(data)
    if magic != _PBE2_MAGIC:
        raise InvalidParameterError("not a PBE-2 payload")
    n_segments = int(n_segments_f)
    if len(data) < _HEADER_2.size + 32 * n_segments:
        raise InvalidParameterError("truncated PBE-2 payload")
    rows = np.frombuffer(
        data, dtype="<f8", count=4 * n_segments, offset=_HEADER_2.size
    ).reshape(n_segments, 4)
    sketch = PBE2(gamma=gamma, unit=unit)
    sketch._set_table(np.ascontiguousarray(rows.T, dtype=np.float64))
    sketch._count = count
    if n_segments:
        last = LineSegment(*rows[-1].tolist())
        # Resume ingestion from the stored curve's endpoint.
        sketch._last_committed_t = last.t_end
        sketch._last_committed_y = last.value(last.t_end)
    return sketch


def dump_cmpbe(sketch: CMPBE) -> bytes:
    """Serialize a CM-PBE and all of its cells.

    Live cells are folded on scratch copies in one batched call; the
    sketch itself is never mutated.
    """
    return _dump_cmpbe(sketch, folded_cells(sketch.cells()))


def _dump_cmpbe(sketch: CMPBE, cells: list) -> bytes:
    """:func:`dump_cmpbe` over already-folded ``cells`` (row-major)."""
    out = io.BytesIO()
    combiner_flag = 0 if sketch.combiner == "median" else 1
    out.write(
        struct.pack(
            "<4sIIIQq",
            _CMPBE_MAGIC,
            sketch.width,
            sketch.depth,
            combiner_flag,
            sketch.count,
            sketch.seed,
        )
    )
    cell_payloads: list[bytes] = []
    kind = None
    for cell in cells:
        if isinstance(cell, PBE1):
            kind = 1
            cell_payloads.append(dump_pbe1(cell))
        elif isinstance(cell, PBE2):
            kind = 2
            cell_payloads.append(dump_pbe2(cell))
        else:
            raise InvalidParameterError(
                "only PBE1/PBE2 cells are serializable"
            )
    out.write(struct.pack("<I", kind or 0))
    for payload in cell_payloads:
        out.write(struct.pack("<Q", len(payload)))
        out.write(payload)
    return out.getvalue()


def load_cmpbe(data: bytes) -> CMPBE:
    """Restore a CM-PBE dumped with :func:`dump_cmpbe` (the hash seed is
    stored in the payload, so the loaded grid hashes identically)."""
    header = struct.Struct("<4sIIIQq")
    if len(data) < header.size:
        raise InvalidParameterError("truncated CM-PBE payload")
    magic, width, depth, combiner_flag, count, stored_seed = (
        header.unpack_from(data)
    )
    if magic != _CMPBE_MAGIC:
        raise InvalidParameterError("not a CM-PBE payload")
    offset = header.size
    (kind,) = struct.unpack_from("<I", data, offset)
    offset += 4
    cells: list = []
    for _ in range(width * depth):
        (length,) = struct.unpack_from("<Q", data, offset)
        offset += 8
        payload = data[offset : offset + length]
        offset += length
        if kind == 1:
            cells.append(load_pbe1(payload))
        elif kind == 2:
            cells.append(load_pbe2(payload))
        else:
            raise InvalidParameterError("unknown CM-PBE cell kind")
    combiner = "median" if combiner_flag == 0 else "min"
    iterator = iter(cells)
    sketch = CMPBE(
        cell_factory=lambda: next(iterator),
        width=width,
        depth=depth,
        combiner=combiner,
        seed=stored_seed,
    )
    sketch._count = count
    return sketch


_DIRECT_MAGIC = b"DMAP"
_INDEX_MAGIC = b"BIDX"


def dump_direct_map(direct) -> bytes:
    """Serialize a :class:`~repro.core.cmpbe.DirectPBEMap`.

    Live cells are folded on scratch copies in one batched call; the map
    itself is never mutated.
    """
    from repro.core.cmpbe import DirectPBEMap

    if not isinstance(direct, DirectPBEMap):
        raise InvalidParameterError("expected a DirectPBEMap")
    return _dump_direct_map(direct, folded_cells(direct.cells()))


def _dump_direct_map(direct, cells: list) -> bytes:
    """:func:`dump_direct_map` over already-folded ``cells`` (in the
    map's ``cells()`` order)."""
    out = io.BytesIO()
    items = sorted(zip(direct._cells, cells), key=lambda item: item[0])
    out.write(struct.pack("<4sQQ", _DIRECT_MAGIC, direct.count, len(items)))
    for event_id, cell in items:
        if isinstance(cell, PBE1):
            kind = 1
            payload = dump_pbe1(cell)
        elif isinstance(cell, PBE2):
            kind = 2
            payload = dump_pbe2(cell)
        else:
            raise InvalidParameterError(
                "only PBE1/PBE2 cells are serializable"
            )
        out.write(struct.pack("<QIQ", event_id, kind, len(payload)))
        out.write(payload)
    return out.getvalue()


def load_direct_map(data: bytes):
    """Restore a DirectPBEMap dumped with :func:`dump_direct_map`."""
    from repro.core.cmpbe import DirectPBEMap

    header = struct.Struct("<4sQQ")
    if len(data) < header.size:
        raise InvalidParameterError("truncated DirectPBEMap payload")
    magic, count, n_cells = header.unpack_from(data)
    if magic != _DIRECT_MAGIC:
        raise InvalidParameterError("not a DirectPBEMap payload")
    direct = DirectPBEMap(lambda: PBE1(eta=2))  # factory unused on load
    offset = header.size
    for _ in range(n_cells):
        event_id, kind, length = struct.unpack_from("<QIQ", data, offset)
        offset += 20
        payload = data[offset : offset + length]
        offset += length
        if kind == 1:
            direct._cells[int(event_id)] = load_pbe1(payload)
        elif kind == 2:
            direct._cells[int(event_id)] = load_pbe2(payload)
        else:
            raise InvalidParameterError("unknown DirectPBEMap cell kind")
    direct._count = count
    return direct


def dump_index(index) -> bytes:
    """Serialize a :class:`~repro.core.dyadic.BurstyEventIndex`.

    The per-level sketches (CM-PBEs at fine levels, direct maps at coarse
    levels) are stored as tagged payloads; the loaded index answers
    queries exactly as the original.  The live cells of every level are
    folded on scratch copies in one batched call.
    """
    from repro.core.cmpbe import CMPBE as _CMPBE
    from repro.core.dyadic import BurstyEventIndex

    if not isinstance(index, BurstyEventIndex):
        raise InvalidParameterError("expected a BurstyEventIndex")
    out = io.BytesIO()
    n_levels = index.n_levels
    out.write(
        struct.pack("<4sQI", _INDEX_MAGIC, index.universe_size, n_levels)
    )
    levels = [index.level_sketch(level) for level in range(n_levels)]
    for sketch, cells in zip(levels, folded_sketch_cells(levels)):
        if isinstance(sketch, _CMPBE):
            kind = 1
            payload = _dump_cmpbe(sketch, cells)
        else:
            kind = 2
            payload = _dump_direct_map(sketch, cells)
        out.write(struct.pack("<IQ", kind, len(payload)))
        out.write(payload)
    return out.getvalue()


def load_index(data: bytes):
    """Restore a BurstyEventIndex dumped with :func:`dump_index`."""
    from repro.core.dyadic import BurstyEventIndex

    header = struct.Struct("<4sQI")
    if len(data) < header.size:
        raise InvalidParameterError("truncated index payload")
    magic, universe_size, n_levels = header.unpack_from(data)
    if magic != _INDEX_MAGIC:
        raise InvalidParameterError("not a BurstyEventIndex payload")
    offset = header.size
    levels = []
    for _ in range(n_levels):
        kind, length = struct.unpack_from("<IQ", data, offset)
        offset += 12
        payload = data[offset : offset + length]
        offset += length
        if kind == 1:
            levels.append(load_cmpbe(payload))
        elif kind == 2:
            levels.append(load_direct_map(payload))
        else:
            raise InvalidParameterError("unknown index level kind")
    return BurstyEventIndex.from_levels(int(universe_size), levels)


# ----------------------------------------------------------------------
# Versioned store envelope
# ----------------------------------------------------------------------
ENVELOPE_MAGIC = b"BEDS"  # Bursty Event Detection Store
STORE_FORMAT_VERSION = 3  # v1 bare blobs; v2 envelope; v3 adds offset table
_ENVELOPE_HEADER = struct.Struct("<4sHH")  # magic, version, key length
_V1_MAGICS = {_CMPBE_MAGIC, _DIRECT_MAGIC, _INDEX_MAGIC}
_TABLE_COUNT = struct.Struct("<I")
_TABLE_ENTRY = struct.Struct("<BQQ")  # cell kind (1=PBE1, 2=PBE2), off, len


# ----------------------------------------------------------------------
# Blob offset table: indexing every PBE blob inside a backend payload
# ----------------------------------------------------------------------
def _need(data, offset: int, size: int, what: str) -> None:
    if offset + size > len(data):
        raise SerializationError(f"truncated {what}")


def _split_config(data, start: int) -> tuple[dict, int]:
    """Parse a ``_pack_config`` prefix: (config dict, inner offset)."""
    _need(data, start, 4, "store payload")
    (length,) = struct.unpack_from("<I", data, start)
    _need(data, start + 4, length, "store config")
    try:
        config = json.loads(bytes(data[start + 4 : start + 4 + length]))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"malformed store config: {exc}") from None
    return config, start + 4 + length


def _index_cmpbe_blob(data, start: int) -> tuple[list, int]:
    header = struct.Struct("<4sIIIQq")
    _need(data, start, header.size, "CM-PBE payload")
    magic, width, depth, _flag, _count, _seed = header.unpack_from(
        data, start
    )
    if magic != _CMPBE_MAGIC:
        raise SerializationError("not a CM-PBE payload")
    offset = start + header.size
    _need(data, offset, 4, "CM-PBE payload")
    (kind,) = struct.unpack_from("<I", data, offset)
    offset += 4
    if kind not in (1, 2):
        raise SerializationError("unknown CM-PBE cell kind")
    entries = []
    for _ in range(width * depth):
        _need(data, offset, 8, "CM-PBE cell")
        (length,) = struct.unpack_from("<Q", data, offset)
        offset += 8
        _need(data, offset, length, "CM-PBE cell")
        entries.append((kind, offset, int(length)))
        offset += length
    return entries, offset


def _index_direct_blob(data, start: int) -> tuple[list, int]:
    header = struct.Struct("<4sQQ")
    _need(data, start, header.size, "DirectPBEMap payload")
    magic, _count, n_cells = header.unpack_from(data, start)
    if magic != _DIRECT_MAGIC:
        raise SerializationError("not a DirectPBEMap payload")
    offset = start + header.size
    entries = []
    for _ in range(n_cells):
        _need(data, offset, 20, "DirectPBEMap cell")
        _event_id, kind, length = struct.unpack_from("<QIQ", data, offset)
        offset += 20
        if kind not in (1, 2):
            raise SerializationError("unknown DirectPBEMap cell kind")
        _need(data, offset, length, "DirectPBEMap cell")
        entries.append((kind, offset, int(length)))
        offset += length
    return entries, offset


def _index_index_blob(data, start: int) -> tuple[list, int]:
    header = struct.Struct("<4sQI")
    _need(data, start, header.size, "index payload")
    magic, _universe, n_levels = header.unpack_from(data, start)
    if magic != _INDEX_MAGIC:
        raise SerializationError("not a BurstyEventIndex payload")
    offset = start + header.size
    entries = []
    for _ in range(n_levels):
        _need(data, offset, 12, "index level")
        kind, length = struct.unpack_from("<IQ", data, offset)
        offset += 12
        _need(data, offset, length, "index level")
        if kind == 1:
            entries.extend(_index_cmpbe_blob(data, offset)[0])
        elif kind == 2:
            entries.extend(_index_direct_blob(data, offset)[0])
        else:
            raise SerializationError("unknown index level kind")
        offset += length
    return entries, offset


def _index_store_payload(key: str, data, start: int, end: int) -> list:
    """``(kind, offset, length)`` of every PBE blob in one backend payload.

    Offsets are absolute within ``data`` (the outermost envelope
    payload), so nested structures — index levels, sharded children,
    the ``instrumented`` wrapper of older envelopes — flatten into a
    single table.  Backends with no PBE cells (``exact``, custom registrations this walker does not
    know) index as empty.
    """
    if key in ("cm-pbe-1", "cm-pbe-2"):
        config, inner = _split_config(data, start)
        return _index_cmpbe_blob(data, inner)[0]
    if key == "direct":
        config, inner = _split_config(data, start)
        return _index_direct_blob(data, inner)[0]
    if key == "index":
        config, inner = _split_config(data, start)
        return _index_index_blob(data, inner)[0]
    if key == "instrumented":
        config, inner = _split_config(data, start)
        return _index_store_payload(config["backend"], data, inner, end)
    if key == "sharded":
        config, inner = _split_config(data, start)
        child = config["backend"]
        entries = []
        offset = inner
        for _ in range(int(config["shards"])):
            _need(data, offset, 8, "sharded payload")
            (length,) = struct.unpack_from("<Q", data, offset)
            offset += 8
            _need(data, offset, length, "shard payload")
            entries.extend(
                _index_store_payload(child, data, offset, offset + length)
            )
            offset += length
        return entries
    if key == "durable":
        # Layout: config | u32 n_segments | n x (u64 len + child payload)
        # | u64 len + memtable payload.  Segments and memtable all use
        # the child backend's codec, so they flatten recursively.
        config, inner = _split_config(data, start)
        child = config["backend"]
        entries = []
        offset = inner
        _need(data, offset, 4, "durable payload")
        (n_segments,) = struct.unpack_from("<I", data, offset)
        offset += 4
        for _ in range(n_segments + 1):  # sealed parts, then the memtable
            _need(data, offset, 8, "durable part")
            (length,) = struct.unpack_from("<Q", data, offset)
            offset += 8
            _need(data, offset, length, "durable part payload")
            entries.extend(
                _index_store_payload(child, data, offset, offset + length)
            )
            offset += length
        return entries
    return []


def _read_offset_table(data, offset: int) -> tuple[list, int]:
    """Parse the v3 table section; (entries, offset past the table)."""
    if len(data) < offset + _TABLE_COUNT.size:
        raise CorruptOffsetTableError("truncated blob offset table")
    (n_entries,) = _TABLE_COUNT.unpack_from(data, offset)
    offset += _TABLE_COUNT.size
    end = offset + n_entries * _TABLE_ENTRY.size
    if len(data) < end:
        raise CorruptOffsetTableError(
            f"blob offset table claims {n_entries} entries but is truncated"
        )
    entries = [
        _TABLE_ENTRY.unpack_from(data, offset + i * _TABLE_ENTRY.size)
        for i in range(n_entries)
    ]
    return entries, end


def _validate_offset_table(key: str, payload, entries: list) -> None:
    """Reject a table that cannot be trusted to locate blobs.

    Checks are layered: structural first (kinds, bounds, ordering, the
    magic at every span), then a full re-derivation of the table from
    the payload itself — any disagreement means either the table or the
    payload was corrupted, and a load built on it would hand back
    garbage curves.
    """
    previous_end = 0
    for kind, offset, length in entries:
        if kind not in (1, 2):
            raise CorruptOffsetTableError(
                f"offset table entry has unknown cell kind {kind}"
            )
        if offset < previous_end or offset + length > len(payload):
            raise CorruptOffsetTableError(
                "offset table entry out of bounds or overlapping"
            )
        want = _PBE1_MAGIC if kind == 1 else _PBE2_MAGIC
        if length < 4 or bytes(payload[offset : offset + 4]) != want:
            raise CorruptOffsetTableError(
                "offset table entry does not point at a "
                f"{want.decode()} blob"
            )
        previous_end = offset + length
    try:
        expected = _index_store_payload(key, payload, 0, len(payload))
    except SerializationError as exc:
        raise CorruptOffsetTableError(
            f"payload cannot be indexed against its offset table: {exc}"
        ) from None
    if [tuple(entry) for entry in entries] != expected:
        raise CorruptOffsetTableError(
            "offset table disagrees with the payload structure"
        )


def save_store(store) -> bytes:
    """Freeze any registered burst store into one self-describing blob.

    Layout (v3): ``magic | u16 format version | u16 key length | backend
    key (utf-8) | u32 table entries | entries (u8 kind, u64 offset, u64
    length) | u64 payload length | payload`` where the payload is the
    backend's own ``to_bytes`` and the table records the span of every
    PBE-1/PBE-2 cell blob inside it.  The backend key is read back by
    :func:`load_store` to pick the right loader from the registry, so a
    single archive format covers every backend — sharded composites
    included; the table locates every cell blob, and a load checks it
    against the payload before trusting either.
    """
    key = getattr(store, "backend_key", None)
    if not key:
        raise SerializationError(
            "store has no backend_key; build it via repro.core.store"
        )
    payload = store.to_bytes()
    entries = _index_store_payload(key, payload, 0, len(payload))
    encoded_key = key.encode("utf-8")
    table = _TABLE_COUNT.pack(len(entries)) + b"".join(
        _TABLE_ENTRY.pack(*entry) for entry in entries
    )
    blob = (
        _ENVELOPE_HEADER.pack(
            ENVELOPE_MAGIC, STORE_FORMAT_VERSION, len(encoded_key)
        )
        + encoded_key
        + table
        + struct.pack("<Q", len(payload))
        + payload
    )
    store._accounting.serialized_bytes.set(len(blob))
    return blob


def load_store(data):
    """Load any store saved with :func:`save_store`.

    Bare v1 blobs (``CMPB``/``DMAP``/``BIDX`` magics, written by the
    ``dump_*`` functions before the envelope existed) are recognised and
    wrapped in their store adapters, so old archives stay readable; v2
    envelopes (no offset table) load as well.

    A read-only ``data`` (``bytes``, or the ``mmap`` of
    :func:`open_store`) is read in place: exact columns and PBE-1 kept
    corners are read-only views of it, which the store keeps alive.  A
    writable ``data`` (a ``bytearray``, say) may change after the load,
    so it is copied once first.  v3 envelopes verify the blob offset
    table against the payload and raise
    :class:`~repro.core.errors.CorruptOffsetTableError` on any mismatch.
    """
    view = memoryview(data)
    if not view.readonly:
        view = memoryview(view.tobytes())
    return _load_store_inner(view)


def _load_store_inner(data: memoryview):
    head = bytes(data[:4]) if len(data) >= 4 else b""
    if head in _V1_MAGICS:
        return _load_v1_blob(data)
    if len(data) < _ENVELOPE_HEADER.size:
        raise SerializationError("truncated store envelope")
    magic, version, key_length = _ENVELOPE_HEADER.unpack_from(data)
    if magic != ENVELOPE_MAGIC:
        if magic in (_PBE1_MAGIC, _PBE2_MAGIC):
            raise SerializationError(
                "bare PBE payload; use load_pbe1/load_pbe2 for single "
                "curves, or save whole stores with save_store"
            )
        raise SerializationError("not a burst-store payload")
    if version > STORE_FORMAT_VERSION:
        raise SerializationError(
            f"store format v{version} is newer than supported "
            f"v{STORE_FORMAT_VERSION}"
        )
    offset = _ENVELOPE_HEADER.size
    if len(data) < offset + key_length:
        raise SerializationError("truncated store envelope")
    key = bytes(data[offset : offset + key_length]).decode("utf-8")
    offset += key_length
    entries = None
    if version >= 3:
        entries, offset = _read_offset_table(data, offset)
    if len(data) < offset + 8:
        raise SerializationError("truncated store envelope")
    (payload_length,) = struct.unpack_from("<Q", data, offset)
    offset += 8
    if len(data) < offset + payload_length:
        raise SerializationError("truncated store payload")
    payload = data[offset : offset + payload_length]
    if entries is not None:
        _validate_offset_table(key, payload, entries)
    from repro.core.store import _unpack_config, load_backend

    while key == "instrumented":
        # Envelopes written by the former metrics-wrapper backend: its
        # payload is the child's key and payload; load the child.
        config, payload = _unpack_config(payload)
        key = config["backend"]
    return load_backend(key, payload)


def open_store(path, *, lazy: bool = True):
    """Open a :func:`save_store` archive from disk.

    With ``lazy=True`` (the default) the file is memory-mapped and the
    store reads the mapping in place: opening costs header parsing,
    offset-table checks and one copy of each PBE-2 cell's segment
    records, and the exact and PBE-1 arrays page in from the mapping as
    queries touch them.  The mapping stays alive for the lifetime of the
    returned store.  With ``lazy=False`` the file is read into memory
    first.
    """
    if not lazy:
        with open(path, "rb") as handle:
            return load_store(handle.read())
    with open(path, "rb") as handle:
        if os.fstat(handle.fileno()).st_size == 0:
            raise SerializationError("truncated store envelope")
        mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    store = load_store(mapping)
    # Anchor the mapping on the store: cells hold views into it, and a
    # read after close would be a crash instead of an error.
    store._lazy_source = mapping
    return store


# ----------------------------------------------------------------------
# Crash-safe writes
# ----------------------------------------------------------------------
def _fsync_directory(directory: str) -> None:
    """fsync a directory so a just-renamed entry survives power loss.

    Best-effort: some filesystems refuse to open directories.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _write_and_sync(handle, data, *, fsync: bool) -> None:
    """Write ``data`` then flush it to disk (fault-injection seam)."""
    handle.write(data)
    handle.flush()
    if fsync:
        os.fsync(handle.fileno())


def atomic_write_bytes(path, data, *, fsync: bool = True) -> int:
    """Write a file so readers see either the old bytes or all new ones.

    The payload lands in a temp file *in the target directory* (rename
    across filesystems is not atomic) and is renamed into place with
    ``os.replace`` — a crash at any instant leaves the destination
    either untouched or fully written, never torn.  With ``fsync=True``
    both the temp file and the directory entry are flushed, so the
    guarantee extends from process crashes to power loss.

    Returns the number of bytes written, so byte-accounting call sites
    (seal/compaction write-amplification counters) need no second
    ``len`` of a payload they may not hold anymore.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            _write_and_sync(handle, data, fsync=fsync)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    if fsync:
        _fsync_directory(directory)
    return len(data)


def write_store(store, path, *, fsync: bool = True) -> int:
    """Crash-safe :func:`save_store` to disk; returns bytes written.

    A crash mid-save can never leave a torn envelope at ``path``: the
    old file (if any) stays intact until the new one is complete.
    """
    payload = save_store(store)
    return atomic_write_bytes(path, payload, fsync=fsync)


def _load_v1_blob(data: bytes):
    """Wrap a pre-envelope blob in its store adapter (magic-dispatched)."""
    from repro.core.store import (
        CMPBEStore,
        DirectMapStore,
        DyadicIndexStore,
    )

    magic = data[:4]
    if magic == _CMPBE_MAGIC:
        return CMPBEStore.from_legacy(load_cmpbe(data))
    if magic == _DIRECT_MAGIC:
        return DirectMapStore.from_legacy(load_direct_map(data))
    return DyadicIndexStore.from_legacy(load_index(data))
