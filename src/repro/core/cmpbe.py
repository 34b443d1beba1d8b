"""CM-PBE: historical burstiness sketches for mixed event streams (§IV).

A naive per-event PBE would need one sketch per distinct event id.  CM-PBE
instead keeps a ``depth x width`` Count-Min grid whose *cells are PBEs*:
an incoming ``(event_id, timestamp)`` is hashed to one cell per row, the
event id is dropped, and the cell's PBE ingests the timestamp as if all
collided events were a single stream (Fig. 5).

A cell's estimate of ``F_e(t)`` is two-sided: hash collisions add mass
(overestimate) while the PBE itself never overestimates its collided
stream (underestimate) — so the **median** over the ``d`` rows is returned
(the paper's choice; the classic Count-Min ``min`` combiner is available
as an ablation).  Theorem 1:
``Pr[|F~_e(t) - F_e(t)| <= eps * N + Delta] >= 1 - delta`` for CM-PBE-1
(replace ``Delta`` with ``gamma`` for CM-PBE-2).
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache
from typing import Callable, Iterable, Protocol

import numpy as np

from repro.core.errors import (
    InvalidParameterError,
    StreamOrderError,
    require_count,
    require_finite_time,
    require_tau,
)
from repro.core.metrics import global_registry
from repro.core.pbe1 import PBE1, PackedCells, fold_buffers
from repro.core.pbe2 import PBE2
from repro.sketch.countmin import dimensions_for
from repro.sketch.hashing import HashFamily
from repro.streams.frequency import burstiness_from_curve

__all__ = [
    "CMPBE",
    "DirectPBEMap",
    "PersistentSketchCell",
    "finalize_sketches",
    "median_over_rows",
]


class PersistentSketchCell(Protocol):
    """What a CM-PBE cell must support (PBE1 and PBE2 both qualify)."""

    def update(self, timestamp: float, count: int = 1) -> None: ...

    def extend_batch(self, timestamps, counts=None) -> None: ...

    def value(self, t: float) -> float: ...

    def value_many(self, ts) -> np.ndarray: ...

    def size_in_bytes(self) -> int: ...


def finalize_sketches(sketches: Iterable) -> None:
    """Fold the live state of every cell of many containers in place.

    All PBE-1 buffers compress in one batched
    :func:`~repro.core.pbe1.fold_buffers` call; every other cell runs its
    own ``finalize`` (PBE-2) or ``flush``, if it has one.  Each
    container's packed corner table is dropped.
    """
    sketches = list(sketches)
    cells = [cell for sketch in sketches for cell in sketch.cells()]
    fold_buffers(cell for cell in cells if isinstance(cell, PBE1))
    for cell in cells:
        if isinstance(cell, PBE1):
            continue
        flush = getattr(cell, "finalize", None) or getattr(
            cell, "flush", None
        )
        if flush is not None:
            flush()
    for sketch in sketches:
        sketch._pack = None


def _pack_of(cells: list) -> PackedCells | None:
    """A :class:`PackedCells` table over PBE-1 cells; ``None`` for PBE-2
    cells, which keep their per-cell ``value_many`` loop."""
    if cells and not isinstance(cells[0], PBE1):
        return None
    return PackedCells(cells)


def _cell_values(
    cells: list, pack: PackedCells | None, slots: np.ndarray, times
) -> np.ndarray:
    """``F~`` of ``cells[slots[i]]`` at ``times[i]`` (shapes broadcast):
    one packed lookup, or one ``value_many`` per distinct PBE-2 cell."""
    if pack is not None:
        return pack.lookup(slots, times)
    slots, times = np.broadcast_arrays(slots, times)
    out = np.empty(slots.shape, dtype=np.float64)
    flat_out, times = out.reshape(-1), times.reshape(-1)
    for slot, order in _iter_groups(slots.reshape(-1)):
        flat_out[order] = cells[slot].value_many(times[order])
    return out


@lru_cache(maxsize=None)
def _median_network(depth: int) -> tuple[tuple[int, int, bool, bool], ...]:
    """The comparators of a ``depth``-row odd-even transposition sort
    that can reach the middle row(s), as ``(i, i + 1, keep_min,
    keep_max)``: walking the full network backwards from the middle,
    a comparator is kept if one of its outputs is still needed, and
    only that output is computed."""
    network = [
        (i, i + 1)
        for step in range(depth)
        for i in range(step % 2, depth - 1, 2)
    ]
    needed = {(depth - 1) // 2, depth // 2}
    kept = []
    for i, j in reversed(network):
        keep_min, keep_max = i in needed, j in needed
        if keep_min or keep_max:
            kept.append((i, j, keep_min, keep_max))
            needed |= {i, j}
    return tuple(reversed(kept))


def median_over_rows(rows: np.ndarray) -> np.ndarray:
    """``np.median(rows, axis=0)`` bit for bit, for any depth.

    The rows go through an odd-even transposition network of
    ``np.minimum``/``np.maximum`` (pruned to the comparators the middle
    depends on); an odd depth takes the middle row, an even one
    ``(lo + hi) / 2.0`` of the middle two.  ``np.median`` averages with
    a sum that starts at ``+0.0``, so a zero median is ``+0.0``; starting
    from ``0.0`` here does the same and changes no other value.
    """
    rows = list(rows)
    for i, j, keep_min, keep_max in _median_network(len(rows)):
        lo, hi = rows[i], rows[j]
        if keep_min:
            rows[i] = np.minimum(lo, hi)
        if keep_max:
            rows[j] = np.maximum(lo, hi)
    mid = len(rows) // 2
    if len(rows) % 2:
        return rows[mid] + 0.0
    return (0.0 + rows[mid - 1] + rows[mid]) / 2.0


def _median_of(values: list[float]) -> float:
    """The scalar form of :func:`median_over_rows`."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid] + 0.0
    return (0.0 + ordered[mid - 1] + ordered[mid]) / 2.0


#: Hot-id hash columns remembered per sketch before eviction kicks in.
HASH_CACHE_SIZE = 1024


def _validated_query_batch(
    event_ids, timestamps
) -> tuple[np.ndarray, np.ndarray]:
    """Validate parallel ``(event_ids, ts)`` query columns."""
    ids = np.asarray(event_ids, dtype=np.int64)
    ts = np.asarray(timestamps, dtype=np.float64)
    if ids.ndim != 1 or ts.ndim != 1 or ids.shape != ts.shape:
        raise InvalidParameterError(
            "query event_ids and ts must be 1-d arrays of equal length"
        )
    require_finite_time(ts)
    return ids, ts


def _validated_record_batch(
    event_ids, timestamps, counts
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Validate a ``(event_ids, timestamps, counts)`` record batch."""
    ids = np.asarray(event_ids)
    ts = np.asarray(timestamps, dtype=np.float64)
    if ids.ndim != 1 or ts.ndim != 1 or ids.shape != ts.shape:
        raise InvalidParameterError(
            "event_ids and timestamps must be 1-d arrays of equal length"
        )
    require_finite_time(ts)
    if ts.size > 1 and bool(np.any(np.diff(ts) < 0)):
        raise StreamOrderError("batch timestamps must be non-decreasing")
    if counts is not None:
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != ts.shape:
            raise InvalidParameterError(
                "counts must match the record batch shape"
            )
        if counts.size and bool(np.any(counts <= 0)):
            raise InvalidParameterError("count must be positive")
    return ids, ts, counts


def _iter_groups(keys: np.ndarray):
    """Yield ``(key, order_slice)`` per distinct key, stably time-ordered.

    ``order_slice`` indexes the original batch; within a group the
    original (stream) order is preserved, so feeding each group to its
    cell as one sub-batch replays exactly the scalar per-cell sequence.
    """
    if keys.size == 0:
        return
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    boundaries = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [keys.size]))
    for s, e in zip(starts.tolist(), ends.tolist()):
        yield int(sorted_keys[s]), order[s:e]


class _EventCurveView:
    """Adapter exposing CM-PBE's per-event estimate as a cumulative curve."""

    __slots__ = ("_sketch", "_event_id")

    def __init__(self, sketch: "CMPBE", event_id: int) -> None:
        self._sketch = sketch
        self._event_id = event_id

    def value(self, t: float) -> float:
        return self._sketch.cumulative_frequency(self._event_id, t)

    def value_many(self, ts) -> np.ndarray:
        return self._sketch.cumulative_frequency_many(self._event_id, ts)

    def size_in_bytes(self) -> int:
        return self._sketch.size_in_bytes()


class CMPBE:
    """Count-Min sketch of persistent burstiness estimators.

    Parameters
    ----------
    cell_factory:
        Zero-argument callable returning a fresh PBE for each cell; use
        :meth:`with_pbe1` / :meth:`with_pbe2` for the paper's two variants.
    width, depth:
        Grid dimensions (``w = O(1/eps)`` columns, ``d = O(log 1/delta)``
        rows); see :meth:`from_error_bounds`.
    combiner:
        ``"median"`` (paper default) or ``"min"`` (classic CM, ablation).
    seed:
        Hash-family seed for reproducibility.
    """

    def __init__(
        self,
        cell_factory: Callable[[], PersistentSketchCell],
        width: int,
        depth: int,
        combiner: str = "median",
        seed: int = 0,
    ) -> None:
        if width <= 0 or depth <= 0:
            raise InvalidParameterError("width and depth must be > 0")
        if combiner not in ("median", "min"):
            raise InvalidParameterError(
                f"combiner must be 'median' or 'min', got {combiner!r}"
            )
        self.width = width
        self.depth = depth
        self.combiner = combiner
        self.seed = seed
        self._hashes = HashFamily(depth=depth, width=width, seed=seed)
        self._cells: list[list[PersistentSketchCell]] = [
            [cell_factory() for _ in range(width)] for _ in range(depth)
        ]
        self._count = 0
        self._pack: PackedCells | None = None
        self._universe: np.ndarray | None = None
        self._column_cache: OrderedDict[int, list[int]] = OrderedDict()
        metrics = global_registry()
        self._cache_hits = metrics.counter(
            "cmpbe_hash_cache_hits_total", "hash-column LRU hits"
        )
        self._cache_misses = metrics.counter(
            "cmpbe_hash_cache_misses_total", "hash-column LRU misses"
        )
        self._cache_evictions = metrics.counter(
            "cmpbe_hash_cache_evictions_total", "hash-column LRU evictions"
        )

    # ------------------------------------------------------------------
    # Named constructors
    # ------------------------------------------------------------------
    @classmethod
    def with_pbe1(
        cls,
        eta: int,
        width: int,
        depth: int,
        buffer_size: int = 1500,
        combiner: str = "median",
        seed: int = 0,
    ) -> "CMPBE":
        """CM-PBE-1: cells are buffered optimal-staircase PBEs."""
        return cls(
            cell_factory=lambda: PBE1(eta=eta, buffer_size=buffer_size),
            width=width,
            depth=depth,
            combiner=combiner,
            seed=seed,
        )

    @classmethod
    def with_pbe2(
        cls,
        gamma: float,
        width: int,
        depth: int,
        unit: float = 1.0,
        combiner: str = "median",
        seed: int = 0,
    ) -> "CMPBE":
        """CM-PBE-2: cells are buffer-free PLA PBEs."""
        return cls(
            cell_factory=lambda: PBE2(gamma=gamma, unit=unit),
            width=width,
            depth=depth,
            combiner=combiner,
            seed=seed,
        )

    @staticmethod
    def dimensions_from_error_bounds(
        epsilon: float, delta: float
    ) -> tuple[int, int]:
        """``(width, depth)`` for a ``Pr[err > eps N] <= delta`` guarantee."""
        return dimensions_for(epsilon, delta)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def update(self, event_id: int, timestamp: float, count: int = 1) -> None:
        """Ingest ``count`` mentions of ``event_id`` at ``timestamp``."""
        self._column_cache.clear()
        self._pack = None
        for row, column in enumerate(self._hashes.hash_all(event_id)):
            self._cells[row][column].update(timestamp, count)
        self._count += count

    def extend(self, records) -> None:
        """Ingest many ``(event_id, timestamp)`` pairs in stream order."""
        for event_id, timestamp in records:
            self.update(event_id, timestamp)

    def extend_batch(self, event_ids, timestamps, counts=None) -> None:
        """Vectorized ingest of a record batch (columnar arrays).

        One hash pass per *unique* event id instead of per element; each
        ``(row, column)`` cell then receives its collided sub-stream as a
        single time-ordered batch.  Byte-identical to the equivalent
        sequence of :meth:`update` calls.

        Parameters
        ----------
        event_ids, timestamps:
            Parallel 1-d columns of the record batch, timestamps
            non-decreasing.
        counts:
            Optional positive per-record occurrence counts.
        """
        ids, ts, counts = _validated_record_batch(
            event_ids, timestamps, counts
        )
        if ids.size == 0:
            return
        self._column_cache.clear()
        self._pack = None
        unique_ids, inverse = np.unique(ids, return_inverse=True)
        columns = self._hashes.hash_many(unique_ids)[inverse]
        for row in range(self.depth):
            cells = self._cells[row]
            for column, order in _iter_groups(columns[:, row]):
                cells[column].extend_batch(
                    ts[order],
                    None if counts is None else counts[order],
                )
        self._count += (
            int(ids.size) if counts is None else int(counts.sum())
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _packed(self) -> PackedCells | None:
        """The grid's corners packed once per version (``None`` for
        PBE-2 cells).  Built into a local and published with one
        assignment, so concurrent readers never see a partial table."""
        pack = self._pack
        if pack is None:
            pack = _pack_of(self.cells())
            self._pack = pack
        return pack

    def _hash_columns(self, event_id: int) -> list[int]:
        """The event's per-row columns, LRU-cached for hot ids (scalar
        reads only: batch reads hash their unique ids with one
        ``hash_many``).

        Ingest clears the cache (the columns themselves never change,
        but clearing keeps the invariant simple should a future cache
        ever hold value state too).
        """
        cache = self._column_cache
        columns = cache.get(event_id)
        if columns is not None:
            cache.move_to_end(event_id)
            self._cache_hits.inc()
            return columns
        columns = self._hashes.hash_all(event_id)
        cache[event_id] = columns
        self._cache_misses.inc()
        if len(cache) > HASH_CACHE_SIZE:
            cache.popitem(last=False)
            self._cache_evictions.inc()
        return columns

    def _combine_rows(self, columns: list[int], t: float) -> float:
        """One ``F~_e(t)`` estimate from pre-hashed columns."""
        values = [
            self._cells[row][column].value(t)
            for row, column in enumerate(columns)
        ]
        if self.combiner == "median":
            return _median_of(values)
        return float(min(values))

    def _combine(self, rows: np.ndarray) -> np.ndarray:
        """The combiner over the leading (row) axis of an estimate
        array: :func:`median_over_rows` or the row minimum."""
        if self.combiner == "median":
            return median_over_rows(rows)
        return rows.min(axis=0)

    def cumulative_frequency(self, event_id: int, t: float) -> float:
        """Estimate ``F_e(t)`` by combining the ``d`` row estimates."""
        return self._combine_rows(self._hash_columns(event_id), t)

    def _event_cells(self, event_id: int) -> list[int]:
        """Flat (row-major) indexes of the ``d`` cells the event hashes to."""
        return [
            row * self.width + column
            for row, column in enumerate(self._hash_columns(event_id))
        ]

    def cumulative_frequency_many(self, event_id: int, ts) -> np.ndarray:
        """Vectorized ``F~_e`` over an array of query times.

        Hashes the id once and searches each row's cell slice of the
        packed table (PBE-2 cells: one ``value_many`` each); the combiner
        runs once over the ``(depth, n)`` estimate matrix, as the
        comparator network of :func:`median_over_rows` (or the row
        minimum).  Bit-identical to per-call :meth:`cumulative_frequency`.
        """
        ts = np.asarray(ts, dtype=np.float64)
        pack = self._packed()
        cells = self.cells()
        rows = np.empty((self.depth, ts.size), dtype=np.float64)
        for row, slot in enumerate(self._event_cells(event_id)):
            rows[row] = (
                pack.values(slot, ts)
                if pack is not None
                else cells[slot].value_many(ts)
            )
        return self._combine(rows)

    def burstiness(self, event_id: int, t: float, tau: float) -> float:
        """Point query ``q(e, t, tau)``: estimated ``b_e(t)`` (Eq. 2).

        The three curve lookups (``t``, ``t - tau``, ``t - 2 tau``)
        share one hash evaluation instead of rehashing per lookup.
        """
        require_tau(tau)
        columns = self._hash_columns(event_id)
        return (
            self._combine_rows(columns, t)
            - 2.0 * self._combine_rows(columns, t - tau)
            + self._combine_rows(columns, t - 2 * tau)
        )

    def burstiness_many(self, event_ids, ts, tau: float) -> np.ndarray:
        """Batched point queries: estimated ``b_e(t)`` per ``(e, t)`` pair.

        Hash columns are computed once per *unique* event id with one
        ``hash_many``; the reads then go through
        :meth:`burstiness_at_columns`.  Bit-identical to per-call
        :meth:`burstiness`.
        """
        require_tau(tau)
        ids, ts = _validated_query_batch(event_ids, ts)
        if ids.size == 0:
            return np.zeros(0, dtype=np.float64)
        unique_ids, inverse = np.unique(ids, return_inverse=True)
        return self.burstiness_at_columns(
            self._hashes.hash_many(unique_ids)[inverse], ts, tau
        )

    def burstiness_at_columns(
        self, columns: np.ndarray, ts: np.ndarray, tau: float
    ) -> np.ndarray:
        """:meth:`burstiness_many` of pre-hashed ids: ``columns`` is their
        ``(n, depth)`` :meth:`HashFamily.hash_many` matrix, ``ts`` the
        ``n`` validated query times.

        A batch of at least ``width`` pairs that all share one time
        ``t`` (a bursty-event scan, a wide level of the index descent)
        reads each cell once: the ``(3, depth * width)`` grid of cell
        values at ``t``, ``t - tau`` and ``t - 2 tau`` is one lookup, and
        each pair gathers its ``d`` cells from it by slot.  Any other
        batch looks up its ``3 x depth x n`` (time, cell) pairs directly
        (one packed-table lookup, see
        :class:`~repro.core.pbe1.PackedCells`; PBE-2 cells: one
        ``value_many`` per cell).  Either way the row combiner runs once
        over the ``(3, depth, n)`` estimate array.
        """
        n = ts.size
        if n == 0:
            return np.zeros(0, dtype=np.float64)
        slots = columns.T + (np.arange(self.depth) * self.width)[:, None]
        cells, pack = self.cells(), self._packed()
        t = ts[:1]
        if n >= self.width and bool((ts == t).all()):
            times = np.concatenate([t, t - tau, t - 2 * tau])
            grid = _cell_values(
                cells, pack, np.arange(self.depth * self.width), times[:, None]
            )
            rows = np.take(grid, slots, axis=1)
        else:
            times = np.stack([ts, ts - tau, ts - 2 * tau])
            rows = _cell_values(cells, pack, slots, times[:, None, :])
        combined = self._combine(rows.swapaxes(0, 1))
        return combined[0] - 2.0 * combined[1] + combined[2]

    def universe_columns(self, size: int) -> np.ndarray:
        """``hash_many(arange(size))``: the hash columns of every id of a
        ``size``-id universe, computed on the first scan and kept
        read-only (the hash family is fixed by the grid's config)."""
        columns = self._universe
        if columns is None or columns.shape[0] != size:
            columns = self._hashes.hash_many(np.arange(size, dtype=np.int64))
            columns.flags.writeable = False
            self._universe = columns
        return columns

    def curve(self, event_id: int) -> _EventCurveView:
        """A :class:`CumulativeCurve` view of one event's estimate."""
        return _EventCurveView(self, event_id)

    def segment_starts(self, event_id: int) -> list[float]:
        """Union of the knot times of every cell the event hashes into.

        The per-event estimate can only change at these instants, so
        bursty-time queries need point queries only there (§V).
        """
        return self.knots(event_id).tolist()

    def knots(self, event_id: int) -> np.ndarray:
        """:meth:`segment_starts` as a sorted float64 array."""
        pack = self._packed()
        cells = self.cells()
        knots = [
            pack.cell(slot)[0]
            if pack is not None
            else np.asarray(cells[slot].segment_starts(), dtype=np.float64)
            for slot in self._event_cells(event_id)
        ]
        return np.unique(np.concatenate(knots))

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def cells(self) -> list:
        """Every cell of the grid, row-major."""
        return [cell for row in self._cells for cell in row]

    def finalize(self) -> None:
        """Fold every cell's live state (see :func:`finalize_sketches`)."""
        finalize_sketches([self])

    @property
    def count(self) -> int:
        """Total mentions ingested (the paper's ``N``)."""
        return self._count

    def size_in_bytes(self) -> int:
        """Sum of all cell footprints."""
        return sum(
            cell.size_in_bytes() for row in self._cells for cell in row
        )


class DirectPBEMap:
    """A collision-free 'sketch': one PBE per id, allocated lazily.

    Used at the coarse levels of the dyadic index where the number of
    distinct range ids is at or below the CM-PBE width: hashing so few ids
    into so few cells would merge siblings (catastrophic for the pruning
    rule) while direct mapping costs no more space.  Exposes the same
    query surface as :class:`CMPBE`.
    """

    def __init__(self, cell_factory: Callable[[], PersistentSketchCell]) -> None:
        self._cell_factory = cell_factory
        self._cells: dict[int, PersistentSketchCell] = {}
        self._count = 0
        self._pack: tuple[np.ndarray, list, PackedCells | None] | None = None

    def update(self, event_id: int, timestamp: float, count: int = 1) -> None:
        """Ingest ``count`` mentions of ``event_id`` at ``timestamp``."""
        self._pack = None
        cell = self._cells.get(event_id)
        if cell is None:
            cell = self._cell_factory()
            self._cells[event_id] = cell
        cell.update(timestamp, count)
        self._count += count

    def extend(self, records) -> None:
        """Ingest many ``(event_id, timestamp)`` pairs in stream order."""
        for event_id, timestamp in records:
            self.update(event_id, timestamp)

    def extend_batch(self, event_ids, timestamps, counts=None) -> None:
        """Vectorized ingest: each id's sub-stream feeds its PBE at once.

        Byte-identical to the equivalent sequence of :meth:`update` calls.
        """
        ids, ts, counts = _validated_record_batch(
            event_ids, timestamps, counts
        )
        if ids.size == 0:
            return
        self._pack = None
        for event_id, order in _iter_groups(ids):
            cell = self._cells.get(event_id)
            if cell is None:
                cell = self._cell_factory()
                self._cells[event_id] = cell
            cell.extend_batch(
                ts[order],
                None if counts is None else counts[order],
            )
        self._count += (
            int(ids.size) if counts is None else int(counts.sum())
        )

    def cumulative_frequency(self, event_id: int, t: float) -> float:
        """Exact-per-cell estimate of ``F_e(t)`` (0 for unseen ids)."""
        cell = self._cells.get(event_id)
        return cell.value(t) if cell is not None else 0.0

    def cumulative_frequency_many(self, event_id: int, ts) -> np.ndarray:
        """Vectorized ``F~_e`` over an array of query times."""
        ts = np.asarray(ts, dtype=np.float64)
        cell = self._cells.get(event_id)
        if cell is None:
            return np.zeros(ts.shape, dtype=np.float64)
        return cell.value_many(ts)

    def burstiness(self, event_id: int, t: float, tau: float) -> float:
        """Estimated ``b_e(t)`` from the id's own PBE."""
        return burstiness_from_curve(_EventCurveView(self, event_id), t, tau)

    def _packed(self) -> tuple[np.ndarray, list, PackedCells | None]:
        """``(ids, cells, pack)``: the seen ids in ascending order, their
        cells, and those cells packed (``None`` for PBE-2 cells) — built
        once per version and published with one assignment."""
        view = self._pack
        if view is None:
            ids = sorted(self._cells)
            cells = [self._cells[event_id] for event_id in ids]
            view = (np.array(ids, dtype=np.int64), cells, _pack_of(cells))
            self._pack = view
        return view

    def ids(self) -> np.ndarray:
        """Every seen id, ascending (int64)."""
        return self._packed()[0]

    def burstiness_many(self, event_ids, ts, tau: float) -> np.ndarray:
        """Batched point queries: the ``3 n`` curve lookups of the seen
        ids run as one packed-table lookup (PBE-2 cells: one
        ``value_many`` per cell); unseen ids read ``0.0``.
        Bit-identical to per-call :meth:`burstiness`."""
        require_tau(tau)
        ids, ts = _validated_query_batch(event_ids, ts)
        n = ids.size
        if n == 0:
            return np.zeros(0, dtype=np.float64)
        known, cells, pack = self._packed()
        times = np.concatenate([ts, ts - tau, ts - 2 * tau])
        values = np.zeros(3 * n, dtype=np.float64)
        if known.size:
            slots = np.minimum(np.searchsorted(known, ids), known.size - 1)
            seen = np.tile(known[slots] == ids, 3)
            values[seen] = _cell_values(
                cells, pack, np.tile(slots, 3)[seen], times[seen]
            )
        return values[:n] - 2.0 * values[n : 2 * n] + values[2 * n :]

    def curve(self, event_id: int) -> "_EventCurveView":
        """A cumulative-curve view of one id's estimate."""
        return _EventCurveView(self, event_id)

    def segment_starts(self, event_id: int) -> list[float]:
        """Knot times of the id's PBE (empty for unseen ids)."""
        cell = self._cells.get(event_id)
        if cell is None:
            return []
        return sorted(cell.segment_starts())  # type: ignore[attr-defined]

    def knots(self, event_id: int) -> np.ndarray:
        """:meth:`segment_starts` as a float64 array (a merged PBE-1
        cell may repeat a time tied across its parts)."""
        return np.asarray(self.segment_starts(event_id), dtype=np.float64)

    def cells(self) -> list:
        """Every allocated cell, in insertion order of its id."""
        return list(self._cells.values())

    def finalize(self) -> None:
        """Fold every cell's live state (see :func:`finalize_sketches`)."""
        finalize_sketches([self])

    @property
    def count(self) -> int:
        """Total mentions ingested."""
        return self._count

    def size_in_bytes(self) -> int:
        """Sum of all cell footprints."""
        return sum(cell.size_in_bytes() for cell in self._cells.values())
