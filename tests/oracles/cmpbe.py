"""Per-cell oracles for the CM-PBE and direct-map batch reads.

These are the loops :class:`repro.core.pbe1.PackedCells` replaced, kept
as the reference the packed reads must match bit for bit:

* :func:`cmpbe_burstiness_many` — one boolean mask and one
  ``value_many`` call per ``(row, column)`` cell the batch touches,
* :func:`cmpbe_cumulative_frequency_many` — one ``value_many`` call per
  row of the event,
* :func:`cmpbe_segment_starts` — the sorted ``set`` union of the event's
  cell knots,
* :func:`direct_burstiness_many` — one ``value_many`` call per seen id.

Hash columns come from :meth:`HashFamily.hash_all` per id, so the
oracles share no code with the batch hashing either.
"""

from __future__ import annotations

import numpy as np

from repro.core.cmpbe import CMPBE, DirectPBEMap


def _combine(sketch: CMPBE, rows: np.ndarray) -> np.ndarray:
    if sketch.combiner == "median":
        return np.median(rows, axis=0)
    return rows.min(axis=0)


def cmpbe_cumulative_frequency_many(
    sketch: CMPBE, event_id: int, ts
) -> np.ndarray:
    ts = np.asarray(ts, dtype=np.float64)
    rows = np.empty((sketch.depth, ts.size), dtype=np.float64)
    for row, column in enumerate(sketch._hashes.hash_all(event_id)):
        rows[row] = sketch._cells[row][column].value_many(ts)
    return _combine(sketch, rows)


def cmpbe_burstiness_many(
    sketch: CMPBE, event_ids, ts, tau: float
) -> np.ndarray:
    ids = np.asarray(event_ids, dtype=np.int64)
    ts = np.asarray(ts, dtype=np.float64)
    n = ids.size
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    times = np.concatenate([ts, ts - tau, ts - 2 * tau])
    unique_ids, inverse = np.unique(ids, return_inverse=True)
    columns = np.array(
        [sketch._hashes.hash_all(event_id) for event_id in unique_ids.tolist()],
        dtype=np.int64,
    ).reshape(unique_ids.size, sketch.depth)
    rows = np.empty((sketch.depth, 3 * n), dtype=np.float64)
    for row in range(sketch.depth):
        per_query = columns[inverse, row]
        tiled = np.tile(per_query, 3)
        cells = sketch._cells[row]
        for column in np.unique(per_query).tolist():
            selected = tiled == column
            rows[row, selected] = cells[column].value_many(times[selected])
    combined = _combine(sketch, rows)
    return combined[:n] - 2.0 * combined[n : 2 * n] + combined[2 * n :]


def cmpbe_segment_starts(sketch: CMPBE, event_id: int) -> list[float]:
    knots: set[float] = set()
    for row, column in enumerate(sketch._hashes.hash_all(event_id)):
        knots.update(sketch._cells[row][column].segment_starts())
    return sorted(knots)


def direct_burstiness_many(
    direct: DirectPBEMap, event_ids, ts, tau: float
) -> np.ndarray:
    ids = np.asarray(event_ids, dtype=np.int64)
    ts = np.asarray(ts, dtype=np.float64)
    n = ids.size
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    times = np.concatenate([ts, ts - tau, ts - 2 * tau])
    values = np.zeros(3 * n, dtype=np.float64)
    tiled = np.tile(ids, 3)
    for event_id in np.unique(ids).tolist():
        cell = direct._cells.get(event_id)
        if cell is not None:
            selected = tiled == event_id
            values[selected] = cell.value_many(times[selected])
    return values[:n] - 2.0 * values[n : 2 * n] + values[2 * n :]
