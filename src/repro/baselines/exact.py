"""Exact baseline (paper §II-B).

Stores every event's full timestamp list and answers all three query types
exactly via binary search:

* point query — ``O(log n)``,
* bursty time query — evaluated at the ``O(n)`` breakpoints of the
  piecewise-constant burstiness function,
* bursty event query — one point query per seen event id.

Space is ``O(n)`` — the cost the PBE sketches avoid.  The baseline doubles
as the ground-truth oracle for every accuracy experiment.

Every query reads a *stack* of per-event tables whose union is the
history.  A plain store's stack is its own table; a :meth:`stacked
<ExactBurstStore.stacked>` view puts the tables of other, immutable
stores under its own, so it answers over their union without copying or
re-sorting them.  Counts ``F_e`` are integers, so per-table counts sum to
exactly the counts of the merged lists: a stacked view answers every
query bit-identically to the merged store.

A stacked table may also be *bounded*: a :meth:`snapshot
<ExactBurstStore.snapshot>` shares the source's own (append-only) lists
and records each list's length at snapshot time, so it reads only the
prefix ``[0, n)`` that can never change.  Every reader honours the
bound: bisects stop at ``n``, whole-list readers slice ``[:n]`` and
iterate the bound's keys, never the live table.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.cmpbe import _validated_query_batch
from repro.core.dyadic import BurstyEvent
from repro.core.errors import (
    InvalidParameterError,
    StreamOrderError,
    require_count,
    require_finite_time,
    require_tau,
)
from repro.streams.events import EventStream

__all__ = ["ExactBurstStore"]

# Point batches answer an event's group of at most this many pairs with
# three bisects per pair and list; larger groups convert the queried
# window once and search it with numpy.
_SMALL_GROUP = 8


def _burstiness_in(
    times: Sequence[float], n: int | None, t: float, tau: float
) -> int:
    """``b(t)`` over the first ``n`` entries (all if ``None``) of one
    sorted timestamp list."""
    return (
        bisect.bisect_right(times, t, 0, n)
        - 2 * bisect.bisect_right(times, t - tau, 0, n)
        + bisect.bisect_right(times, t - 2 * tau, 0, n)
    )


def _visible(times: list[float], n: int | None) -> list[float]:
    """The part of a stacked list a store reads: the list itself when
    unbounded, a copy of its ``[0, n)`` prefix when bounded."""
    return times if n is None else times[:n]


def _window_counts(
    times: list[float], n: int | None, lo: float, hi: float, ts: np.ndarray
) -> np.ndarray:
    """``#{x in times[:n] : x <= t}`` for every ``t`` in ``ts``, all of
    which lie in ``[lo, hi]``: only the window ``(lo, hi]`` is converted
    and searched."""
    start = bisect.bisect_right(times, lo, 0, n)
    window = times[start : bisect.bisect_right(times, hi, start, n)]
    return start + np.searchsorted(
        np.asarray(window, dtype=np.float64), ts, side="right"
    )


class ExactBurstStore:
    """Ground-truth store: per-event sorted timestamp lists.

    ``_timestamps`` is the store's own, writable table; ``_tables`` is
    the stack every query reads, with the own table last.  ``_bounds``
    runs parallel to ``_tables``: ``None`` reads the whole table, an
    ``{event_id: length}`` dict reads only those events' prefixes.
    """

    def __init__(self) -> None:
        self._timestamps: dict[int, list[float]] = defaultdict(list)
        self._tables: tuple[dict[int, list[float]], ...] = (
            self._timestamps,
        )
        self._bounds: tuple[dict[int, int] | None, ...] = (None,)
        self._last_timestamp: float | None = None
        self._count = 0

    @classmethod
    def stacked(cls, parts: Sequence["ExactBurstStore"]) -> "ExactBurstStore":
        """A store answering over the union of ``parts`` in O(parts).

        The parts' tables are shared, not copied, so the parts must never
        change again; the view's own table starts empty and stays
        writable (stream order continues from the parts' last timestamp).
        """
        view = cls()
        stack = [
            (table, bound)
            for part in parts
            for table, bound in zip(part._tables, part._bounds)
            if (table if bound is None else bound)
        ]
        view._tables = (*(table for table, _ in stack), view._timestamps)
        view._bounds = (*(bound for _, bound in stack), None)
        view._count = sum(part._count for part in parts)
        view._last_timestamp = max(
            (
                part._last_timestamp
                for part in parts
                if part._last_timestamp is not None
            ),
            default=None,
        )
        return view

    def snapshot(self) -> "ExactBurstStore":
        """An independent, writable copy in O(events).

        The copy shares every stacked table and bounds this store's own
        table by its current list lengths.  Writers only append, so the
        bounded prefixes never change and later writes to either store
        stay invisible to the other.
        """
        copy = ExactBurstStore()
        own = {
            event_id: len(times)
            for event_id, times in self._timestamps.items()
            if times
        }
        shared = ((self._timestamps, own),) if own else ()
        copy._tables = (
            *self._tables[:-1],
            *(table for table, _ in shared),
            copy._timestamps,
        )
        copy._bounds = (
            *self._bounds[:-1],
            *(bound for _, bound in shared),
            None,
        )
        copy._last_timestamp = self._last_timestamp
        copy._count = self._count
        return copy

    @classmethod
    def from_stream(
        cls, stream: EventStream | Iterable[tuple[int, float]]
    ) -> "ExactBurstStore":
        """Build a store from a timestamp-ordered event stream."""
        store = cls()
        for event_id, timestamp in stream:
            store.update(event_id, timestamp)
        return store

    # ------------------------------------------------------------------
    def update(self, event_id: int, timestamp: float, count: int = 1) -> None:
        """Record ``count`` mentions of ``event_id`` at ``timestamp``."""
        require_count(count)
        require_finite_time(timestamp)
        if (
            self._last_timestamp is not None
            and timestamp < self._last_timestamp
        ):
            raise StreamOrderError(
                f"timestamp {timestamp} arrived after {self._last_timestamp}"
            )
        self._last_timestamp = timestamp
        self._timestamps[int(event_id)].extend([float(timestamp)] * count)
        self._count += count

    # ------------------------------------------------------------------
    def _lists_of(self, event_id: int) -> list[tuple[list[float], int | None]]:
        """The event's non-empty sorted lists, one per stacked table, each
        with its bound (``None`` reads the whole list)."""
        return [
            (times, n)
            for table, bound in zip(self._tables, self._bounds)
            if (times := table.get(event_id))
            and (n := None if bound is None else bound.get(event_id, 0)) != 0
        ]

    def _items(self) -> Iterator[tuple[int, list[float]]]:
        """``(event_id, sorted list)`` for every list of every stacked
        table (an event appears once per table holding it).  Unbounded
        lists are yielded as they are and must not be mutated; a bounded
        table is walked through its bound's keys and yields copies."""
        for table, bound in zip(self._tables, self._bounds):
            if bound is None:
                yield from table.items()
            else:
                for event_id, n in bound.items():
                    yield event_id, table[event_id][:n]

    def event_ids(self) -> list[int]:
        """Every event id seen so far."""
        keys = (
            table if bound is None else bound
            for table, bound in zip(self._tables, self._bounds)
        )
        return sorted(set().union(*keys))

    def cumulative_frequency(self, event_id: int, t: float) -> int:
        """Exact ``F_e(t)``."""
        require_finite_time(t)
        return sum(
            bisect.bisect_right(times, t, 0, n)
            for times, n in self._lists_of(int(event_id))
        )

    def cumulative_frequency_many(self, event_id: int, ts) -> np.ndarray:
        """Vectorized :meth:`cumulative_frequency` over query times.

        Each stacked list is bisected to the queried window
        ``(min ts, max ts]``; only that slice is searched, so the cost
        does not grow with the event's history outside the window.
        """
        ts = require_finite_time(np.asarray(ts, dtype=np.float64))
        counts = np.zeros(ts.shape, dtype=np.int64)
        if ts.size == 0:
            return counts.astype(np.float64)
        lo, hi = float(ts.min()), float(ts.max())
        for times, n in self._lists_of(int(event_id)):
            counts += _window_counts(times, n, lo, hi, ts)
        return counts.astype(np.float64)

    def burstiness(self, event_id: int, t: float, tau: float) -> int:
        """Exact ``b_e(t)``."""
        require_tau(tau)
        require_finite_time(t)
        return sum(
            _burstiness_in(times, n, t, tau)
            for times, n in self._lists_of(int(event_id))
        )

    def burstiness_many(self, event_ids, ts, tau: float) -> np.ndarray:
        """Vectorized :meth:`burstiness` over ``(event_id, t)`` pairs.

        One stable argsort groups the pairs by event.  A group of at
        most ``_SMALL_GROUP`` pairs runs three bisects per pair and list;
        a larger one converts only each list's window
        ``(min t - 2 tau, max t]`` and searches it once per lag.  Counts
        are exact integers, so the float64 result is bit-identical to the
        scalar path either way.
        """
        require_tau(tau)
        ids, times = _validated_query_batch(event_ids, ts)
        counts = np.zeros(ids.size, dtype=np.int64)
        if ids.size == 0:
            return counts.astype(np.float64)
        order = np.argsort(ids, kind="stable")
        grouped = ids[order]
        cuts = (np.flatnonzero(grouped[1:] != grouped[:-1]) + 1).tolist()
        for start, stop in zip([0, *cuts], [*cuts, ids.size]):
            lists = self._lists_of(int(grouped[start]))
            if not lists:
                continue
            rows = order[start:stop]
            queried = times[rows]
            if stop - start <= _SMALL_GROUP:
                counts[rows] = [
                    sum(
                        _burstiness_in(stored, n, t, tau)
                        for stored, n in lists
                    )
                    for t in queried.tolist()
                ]
                continue
            lags = np.concatenate(
                (queried, queried - tau, queried - 2 * tau)
            )
            lo, hi = float(lags.min()), float(queried.max())
            found = sum(
                _window_counts(stored, n, lo, hi, lags)
                for stored, n in lists
            )
            size = rows.size
            counts[rows] = (
                found[:size] - 2 * found[size : 2 * size] + found[2 * size :]
            )
        return counts.astype(np.float64)

    def bursty_times(
        self,
        event_id: int,
        theta: float,
        tau: float,
        t_end: float | None = None,
    ) -> list[tuple[float, float]]:
        """Exact bursty time query: maximal intervals where ``b(t) >= theta``.

        ``b_e`` is a right-continuous step function whose value changes only
        where ``t``, ``t - tau`` or ``t - 2 tau`` crosses an occurrence,
        so evaluating at those breakpoints suffices.  The breakpoints
        ``<= end`` come from one ``np.unique``, their burstiness from
        one ``searchsorted`` per stacked list over all three lags; an
        interval still open at the last breakpoint closes at ``end``
        (``(end, end)`` when it opens there).
        """
        require_tau(tau)
        if t_end is not None:
            require_finite_time(t_end)
        lists = [
            np.asarray(_visible(times, n), dtype=np.float64)
            for times, n in self._lists_of(int(event_id))
        ]
        if not lists:
            return []
        end = (
            t_end
            if t_end is not None
            else max(float(stored[-1]) for stored in lists) + 2 * tau
        )
        stored = np.concatenate(lists)
        # Record-major (t, t + tau, t + 2 tau) order: of two equal
        # breakpoints 0.0 and -0.0, the first one in this order is kept.
        shifted = np.column_stack(
            (stored, stored + tau, stored + 2 * tau)
        ).ravel()
        shifted = shifted[shifted <= end]
        candidates = np.unique(shifted)
        if candidates.size == 0:
            return []
        zeros = np.flatnonzero(shifted == 0.0)
        if zeros.size:  # np.unique may keep either zero
            candidates[np.searchsorted(candidates, 0.0)] = shifted[zeros[0]]
        lags = np.concatenate(
            (candidates, candidates - tau, candidates - 2 * tau)
        )
        found = sum(
            np.searchsorted(arr, lags, side="right") for arr in lists
        )
        size = candidates.size
        values = found[:size] - 2 * found[size : 2 * size] + found[2 * size :]
        hot = values >= theta
        edges = np.flatnonzero(hot[1:] != hot[:-1]) + 1
        if hot[0]:
            edges = np.concatenate(([0], edges))
        points = candidates[edges].tolist()
        intervals = list(zip(points[::2], points[1::2]))
        if len(points) % 2:
            intervals.append((points[-1], end))
        return intervals

    def bursty_events(
        self, t: float, theta: float, tau: float
    ) -> list[BurstyEvent]:
        """Exact bursty event query over all seen events."""
        require_tau(tau)
        require_finite_time(t)
        # _burstiness_in inlined: this loop runs once per list of every
        # event, so call overhead is most of its cost.
        right = bisect.bisect_right
        lag1, lag2 = t - tau, t - 2 * tau
        values: dict[int, int] = defaultdict(int)
        for table, bound in zip(self._tables, self._bounds):
            if bound is None:
                for event_id, times in table.items():
                    values[event_id] += (
                        right(times, t)
                        - 2 * right(times, lag1)
                        + right(times, lag2)
                    )
                continue
            for event_id, n in bound.items():
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

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Total mentions stored."""
        return self._count

    def timestamps_of(self, event_id: int) -> Sequence[float]:
        """The raw, sorted occurrence timestamps of one event."""
        if len(self._tables) == 1:  # the own table only (the seal path)
            return self._timestamps.get(int(event_id), [])
        lists = self._lists_of(int(event_id))
        if len(lists) == 1:
            return _visible(*lists[0])
        return sorted(chain.from_iterable(_visible(*run) for run in lists))

    def timestamps_between(
        self, event_id: int, lo: float, hi: float
    ) -> list[float]:
        """The event's occurrences with ``lo <= t <= hi`` (unordered
        across stacked tables)."""
        out: list[float] = []
        for times, n in self._lists_of(int(event_id)):
            start = bisect.bisect_left(times, lo, 0, n)
            out.extend(times[start : bisect.bisect_right(times, hi, start, n)])
        return out

    def size_in_bytes(self) -> int:
        """Eight bytes per stored timestamp."""
        return 8 * self._count

