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
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from repro.core.cmpbe import _validated_query_batch
from repro.core.dyadic import BurstyEvent
from repro.core.errors import (
    InvalidParameterError,
    StreamOrderError,
    require_count,
    require_tau,
)
from repro.streams.events import EventStream

__all__ = ["ExactBurstStore"]


def _burstiness_in(times: Sequence[float], t: float, tau: float) -> int:
    """``b(t)`` over one sorted timestamp list."""
    return (
        bisect.bisect_right(times, t)
        - 2 * bisect.bisect_right(times, t - tau)
        + bisect.bisect_right(times, t - 2 * tau)
    )


class ExactBurstStore:
    """Ground-truth store: per-event sorted timestamp lists.

    ``_timestamps`` is the store's own, writable table; ``_tables`` is
    the stack every query reads, with the own table last.
    """

    def __init__(self) -> None:
        self._timestamps: dict[int, list[float]] = defaultdict(list)
        self._tables: tuple[dict[int, list[float]], ...] = (
            self._timestamps,
        )
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
        view._tables = (
            *(table for part in parts for table in part._tables if table),
            view._timestamps,
        )
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
        """An independent copy in O(own table): the own per-event lists
        are copied, the (immutable) stacked tables are shared."""
        copy = ExactBurstStore()
        copy._timestamps.update(
            (event_id, times.copy())
            for event_id, times in self._timestamps.items()
        )
        copy._tables = (*self._tables[:-1], copy._timestamps)
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
    def _lists_of(self, event_id: int) -> list[list[float]]:
        """The event's non-empty sorted lists, one per stacked table."""
        return [
            times for table in self._tables if (times := table.get(event_id))
        ]

    def event_ids(self) -> list[int]:
        """Every event id seen so far."""
        return sorted(set().union(*self._tables))

    def cumulative_frequency(self, event_id: int, t: float) -> int:
        """Exact ``F_e(t)``."""
        return sum(
            bisect.bisect_right(times, t)
            for times in self._lists_of(int(event_id))
        )

    def cumulative_frequency_many(self, event_id: int, ts) -> np.ndarray:
        """Vectorized :meth:`cumulative_frequency` over query times.

        Each stacked list is bisected to the queried window
        ``(min ts, max ts]``; only that slice is searched, so the cost
        does not grow with the event's history outside the window.
        """
        ts = np.asarray(ts, dtype=np.float64)
        counts = np.zeros(ts.shape, dtype=np.int64)
        if ts.size == 0:
            return counts.astype(np.float64)
        lo, hi = float(ts.min()), float(ts.max())
        for times in self._lists_of(int(event_id)):
            start = bisect.bisect_right(times, lo)
            window = times[start : bisect.bisect_right(times, hi, start)]
            counts += start + np.searchsorted(
                np.asarray(window, dtype=np.float64), ts, side="right"
            )
        return counts.astype(np.float64)

    def burstiness(self, event_id: int, t: float, tau: float) -> int:
        """Exact ``b_e(t)``."""
        require_tau(tau)
        return sum(
            _burstiness_in(times, t, tau)
            for times in self._lists_of(int(event_id))
        )

    def burstiness_many(self, event_ids, ts, tau: float) -> np.ndarray:
        """Vectorized :meth:`burstiness` over ``(event_id, t)`` pairs.

        One ``np.searchsorted`` per distinct event id and lag replaces
        three bisects per query.  Counts are exact integers, so the
        float64 result is bit-identical to the scalar path.
        """
        require_tau(tau)
        ids, times = _validated_query_batch(event_ids, ts)
        counts = np.zeros(ids.size, dtype=np.int64)
        for event_id in np.unique(ids).tolist():
            lists = self._lists_of(int(event_id))
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
        so evaluating at those breakpoints suffices.
        """
        require_tau(tau)
        lists = self._lists_of(int(event_id))
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
            value = self.burstiness(event_id, candidate, tau)
            if value >= theta and open_start is None:
                open_start = candidate
            elif value < theta and open_start is not None:
                intervals.append((open_start, candidate))
                open_start = None
        if open_start is not None:
            intervals.append((open_start, end))
        return intervals

    def bursty_events(
        self, t: float, theta: float, tau: float
    ) -> list[BurstyEvent]:
        """Exact bursty event query over all seen events."""
        require_tau(tau)
        values: dict[int, int] = {}
        for table in self._tables:
            for event_id, times in table.items():
                values[event_id] = values.get(event_id, 0) + _burstiness_in(
                    times, t, tau
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
        lists = self._lists_of(int(event_id))
        if len(lists) == 1:
            return lists[0]
        return sorted(chain.from_iterable(lists))

    def timestamps_between(
        self, event_id: int, lo: float, hi: float
    ) -> list[float]:
        """The event's occurrences with ``lo <= t <= hi`` (unordered
        across stacked tables)."""
        out: list[float] = []
        for times in self._lists_of(int(event_id)):
            start = bisect.bisect_left(times, lo)
            out.extend(times[start : bisect.bisect_right(times, hi, start)])
        return out

    def size_in_bytes(self) -> int:
        """Eight bytes per stored timestamp."""
        return 8 * self._count

