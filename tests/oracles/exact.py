"""Reference reads of the exact baseline, kept only as test oracles.

These are the implementations :class:`~repro.baselines.exact.ExactBurstStore`
replaced, kept as the answers it must match byte for byte:

* :func:`bursty_times` — the per-candidate walk: a Python set of every
  record time and its ``tau`` / ``2 tau`` shifts ``<= end``, then one
  scalar ``burstiness`` (three bisects per stacked list) per candidate;
* :func:`burstiness_many` — one ``np.asarray`` of every stacked list of
  each queried event, then one ``searchsorted`` per lag;
* :func:`bursty_events` — the per-event scan: three bisects per event
  and stacked list, summed in a dict in first-seen order, then a stable
  sort by falling burstiness;
* :func:`copied_snapshot` — the O(memtable) snapshot that copied the
  store's own per-event lists instead of bounding them;
* :func:`list_merged` — the merge that extended every event's lists in
  part order and sorted each one, before merges concatenated columns.

All five read a store's stacked lists through their bounds, in stack
order, exactly as the replaced code read its (unbounded) lists.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from itertools import chain

import numpy as np

from repro.baselines.exact import ExactBurstStore
from repro.core.dyadic import BurstyEvent
from repro.core.errors import require_finite_time, require_tau


def stacked_lists(store: ExactBurstStore, event_id: int) -> list[list[float]]:
    """The event's visible sorted lists, one per stacked table."""
    return [times[:n] for times, n in store._lists_of(int(event_id))]


def bursty_times(
    store: ExactBurstStore,
    event_id: int,
    theta: float,
    tau: float,
    t_end: float | None = None,
) -> list[tuple[float, float]]:
    require_tau(tau)
    lists = stacked_lists(store, event_id)
    if not lists:
        return []
    end = (
        t_end
        if t_end is not None
        else max(times[-1] for times in lists) + 2 * tau
    )
    candidates = sorted(
        {
            c
            for t in chain.from_iterable(lists)
            for c in (t, t + tau, t + 2 * tau)
            if c <= end
        }
    )
    intervals: list[tuple[float, float]] = []
    open_start: float | None = None
    for candidate in candidates:
        value = store.burstiness(event_id, candidate, tau)
        if value >= theta and open_start is None:
            open_start = candidate
        elif value < theta and open_start is not None:
            intervals.append((open_start, candidate))
            open_start = None
    if open_start is not None:
        intervals.append((open_start, end))
    return intervals


def burstiness_many(
    store: ExactBurstStore, event_ids, ts, tau: float
) -> np.ndarray:
    require_tau(tau)
    ids = np.asarray(event_ids, dtype=np.int64)
    times = np.asarray(ts, dtype=np.float64)
    counts = np.zeros(ids.size, dtype=np.int64)
    for event_id in np.unique(ids).tolist():
        lists = stacked_lists(store, event_id)
        if not lists:
            continue
        mask = ids == event_id
        queried = times[mask]
        lag1, lag2 = queried - tau, queried - 2 * tau
        for stored in lists:
            arr = np.asarray(stored, dtype=np.float64)
            counts[mask] += (
                np.searchsorted(arr, queried, side="right")
                - 2 * np.searchsorted(arr, lag1, side="right")
                + np.searchsorted(arr, lag2, side="right")
            )
    return counts.astype(np.float64)


def bursty_events(
    store: ExactBurstStore, t: float, theta: float, tau: float
) -> list[BurstyEvent]:
    require_tau(tau)
    require_finite_time(t)
    right = bisect.bisect_right
    lag1, lag2 = t - tau, t - 2 * tau
    values: dict[int, int] = defaultdict(int)
    for table, bound in zip(store._tables, store._bounds):
        lengths = (
            {event_id: None for event_id in table} if bound is None else bound
        )
        for event_id, n in lengths.items():
            times = table[event_id]
            values[event_id] += (
                right(times, t, 0, n)
                - 2 * right(times, lag1, 0, n)
                + right(times, lag2, 0, n)
            )
    hits = [
        BurstyEvent(event_id, float(value))
        for event_id, value in values.items()
        if value >= theta
    ]
    hits.sort(key=lambda hit: -hit.burstiness)
    return hits


def copied_snapshot(store: ExactBurstStore) -> ExactBurstStore:
    """A snapshot that copies the own table's lists (stacked tables and
    their bounds are shared, as before)."""
    copy = ExactBurstStore()
    copy._timestamps.update(
        (event_id, times.copy())
        for event_id, times in store._timestamps.items()
    )
    copy._count = store._count
    copy._last_timestamp = store._last_timestamp
    copy._tables = (*store._tables[:-1], copy._timestamps)
    copy._bounds = (*store._bounds[:-1], None)
    return copy


def list_merged(stores: list[ExactBurstStore]) -> ExactBurstStore:
    """The merge of ``stores`` as Python lists: every event's runs
    extended in store and stack order, then each list sorted (stably,
    so equal times keep that order)."""
    lists: dict[int, list[float]] = defaultdict(list)
    for store in stores:
        for event_id, times in store._items():
            lists[event_id].extend(times)
    merged = ExactBurstStore()
    merged._timestamps.update(
        (event_id, sorted(times)) for event_id, times in lists.items()
    )
    merged._count = sum(store._count for store in stores)
    merged._last_timestamp = max(
        (
            store._last_timestamp
            for store in stores
            if store._last_timestamp is not None
        ),
        default=None,
    )
    return merged
